"""Per-instance caches on the frozen ISA value types.

Instructions, mix blocks and loop programs are immutable, and the
frontend reads their geometry (sizes, windows, uop totals) and hashes
them as dict keys on every simulated iteration.  Each class therefore
computes those derived values once per instance with
:func:`functools.cached_property`, which stores the value in the
instance ``__dict__`` next to the dataclass fields.

:class:`FieldState` keeps those caches local to the instance: pickle,
:mod:`copy` and :func:`dataclasses.replace` carry the fields only.  A
cached hash is only valid under the ``PYTHONHASHSEED`` that computed
it, and an object must pickle to the same bytes whether or not its
caches are filled.
"""

from __future__ import annotations

from dataclasses import fields

__all__ = ["FieldState"]


class FieldState:
    """Mixin for frozen dataclasses whose ``__dict__`` also holds caches."""

    __slots__ = ()

    def __getstate__(self) -> dict:
        return {f.name: getattr(self, f.name) for f in fields(self)}  # type: ignore[arg-type]

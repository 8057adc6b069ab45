"""Loop programs: the unit of execution the frontend engine consumes.

All of the paper's experiments execute a *loop body* (a sequence of mix
blocks chained by jumps) for some number of iterations.  The
:class:`LoopProgram` captures exactly that: the body, the iteration count,
and derived structural properties the LSD qualification logic needs (total
uops, window footprint, misaligned-block count).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Iterator, Sequence

from repro.errors import LayoutError
from repro.isa.blocks import MixBlock
from repro.isa.frozen import FieldState

__all__ = ["LoopProgram"]


@dataclass(frozen=True)
class LoopProgram(FieldState):
    """A loop over a chain of mix blocks.

    Attributes
    ----------
    body:
        Mix blocks executed once per iteration, in order.  The terminal
        ``jmp`` of the last block is the loop's backward branch.
    iterations:
        Number of times the body executes.
    label:
        Tag used in traces and reports.
    """

    body: tuple[MixBlock, ...]
    iterations: int
    label: str = ""

    def __init__(
        self, body: Sequence[MixBlock], iterations: int, label: str = ""
    ) -> None:
        if not body:
            raise LayoutError("loop body must contain at least one block")
        if iterations < 1:
            raise LayoutError(f"iterations must be >= 1, got {iterations}")
        object.__setattr__(self, "body", tuple(body))
        object.__setattr__(self, "iterations", int(iterations))
        object.__setattr__(self, "label", label)

    def __hash__(self) -> int:
        return self._field_hash

    @cached_property
    def _field_hash(self) -> int:
        # The hash the dataclass would generate, computed once.
        return hash((self.body, self.iterations, self.label))

    # Body geometry is computed on first read and kept on the instance
    # (see repro.isa.frozen): the frontend reads it on every iteration.
    @cached_property
    def uops_per_iteration(self) -> int:
        return sum(block.uop_count for block in self.body)

    @property
    def total_uops(self) -> int:
        return self.uops_per_iteration * self.iterations

    @cached_property
    def windows(self) -> tuple[int, ...]:
        """All distinct 32B windows the body touches, in first-touch order."""
        seen: dict[int, None] = {}
        for block in self.body:
            for window in block.windows:
                seen.setdefault(window)
        return tuple(seen)

    @cached_property
    def window_events_per_iteration(self) -> int:
        """Window accesses per iteration (misaligned blocks count twice)."""
        return sum(len(block.windows) for block in self.body)

    @cached_property
    def misaligned_blocks(self) -> int:
        return sum(1 for block in self.body if block.spans_windows)

    @property
    def aligned_blocks(self) -> int:
        return len(self.body) - self.misaligned_blocks

    @cached_property
    def lcp_instructions_per_iteration(self) -> int:
        return sum(block.lcp_count for block in self.body)

    @cached_property
    def block_bases(self) -> tuple[int, ...]:
        """Base address of every body block, in order."""
        return tuple(block.base for block in self.body)

    def with_iterations(self, iterations: int) -> "LoopProgram":
        """Same body, different trip count."""
        return LoopProgram(self.body, iterations, self.label)

    def concat(self, other: "LoopProgram", label: str = "") -> "LoopProgram":
        """Fuse two bodies into one loop (iteration counts must match).

        Used to build the non-MT attack loops whose single body contains
        the init, encode, and decode block sequences back to back.
        """
        if other.iterations != self.iterations:
            raise LayoutError(
                "cannot concatenate loops with different iteration counts "
                f"({self.iterations} vs {other.iterations})"
            )
        return LoopProgram(
            self.body + other.body, self.iterations, label or self.label
        )

    def iter_blocks(self) -> Iterator[MixBlock]:
        return iter(self.body)

    def __repr__(self) -> str:
        tag = f" {self.label}" if self.label else ""
        return (
            f"LoopProgram({tag} {len(self.body)} blocks, "
            f"{self.uops_per_iteration} uops/iter x {self.iterations})"
        )

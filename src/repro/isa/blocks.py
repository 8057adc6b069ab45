"""Instruction mix blocks (Section III-A4).

A *mix block* is the paper's unit of frontend probing: a short run of
instructions, placed at a chosen virtual address, that

* fits one 32-byte instruction window (so it occupies exactly one DSB line
  when aligned, two when misaligned across a window boundary),
* decodes to at most 6 uops (the DSB line limit),
* avoids memory uops and port contention (so the frontend, not the
  backend, is the execution bottleneck), and
* ends with a ``jmp`` to the next block, chaining blocks into a loop.

The canonical block is 4 ``mov r32, imm32`` + 1 ``jmp rel32`` = 25 bytes
and 5 uops, exactly as the paper describes.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Iterator

from repro.errors import LayoutError
from repro.isa.frozen import FieldState
from repro.isa.instructions import (
    Instruction,
    add_reg,
    add_reg_lcp,
    jmp_rel32,
    mov_imm32,
)

__all__ = ["MixBlock", "standard_mix_block", "lcp_block", "filler_block"]

#: Bytes per DSB instruction window (and per DSB line).
WINDOW_BYTES = 32

#: Maximum uops a single DSB line can hold.
DSB_LINE_UOPS = 6


@dataclass(frozen=True)
class MixBlock(FieldState):
    """A sequence of instructions placed at a virtual address.

    Attributes
    ----------
    base:
        Virtual address of the first instruction byte.
    instructions:
        The block body, in program order.  The last instruction is
        normally a ``jmp`` to the next block in the chain.
    label:
        Optional human-readable tag used in traces and test output.
    """

    base: int
    instructions: tuple[Instruction, ...]
    label: str = ""

    def __post_init__(self) -> None:
        if self.base < 0:
            raise LayoutError(f"negative base address {self.base:#x}")
        if not self.instructions:
            raise LayoutError("mix block must contain at least one instruction")

    def __hash__(self) -> int:
        return self._field_hash

    @cached_property
    def _field_hash(self) -> int:
        # The hash the dataclass would generate, computed once.
        return hash((self.base, self.instructions, self.label))

    # Geometry is computed on first read and kept on the instance (see
    # repro.isa.frozen): the frontend reads it on every iteration.
    @cached_property
    def size(self) -> int:
        """Total encoded bytes."""
        return sum(i.length for i in self.instructions)

    @cached_property
    def end(self) -> int:
        """One past the last instruction byte."""
        return self.base + self.size

    @cached_property
    def uop_count(self) -> int:
        return sum(i.uop_count for i in self.instructions)

    @cached_property
    def lcp_count(self) -> int:
        """Number of instructions carrying a length-changing prefix."""
        return sum(1 for i in self.instructions if i.has_lcp)

    @property
    def is_aligned(self) -> bool:
        """True if the block starts on a 32-byte window boundary."""
        return self.base % WINDOW_BYTES == 0

    @cached_property
    def windows(self) -> tuple[int, ...]:
        """Window-aligned start addresses of every 32B window the block touches."""
        first = self.base - (self.base % WINDOW_BYTES)
        last = (self.end - 1) - ((self.end - 1) % WINDOW_BYTES)
        return tuple(range(first, last + 1, WINDOW_BYTES))

    @cached_property
    def spans_windows(self) -> bool:
        """True if the block crosses a 32-byte window boundary (misaligned)."""
        return len(self.windows) > 1

    def instruction_addresses(self) -> Iterator[tuple[int, Instruction]]:
        """Yield ``(address, instruction)`` pairs in program order."""
        addr = self.base
        for instruction in self.instructions:
            yield addr, instruction
            addr += instruction.length

    def fits_one_dsb_line(self) -> bool:
        """Check the paper's two structural mix-block requirements.

        The block body must not exceed one 32-byte window and must decode
        to at most 6 uops, so that an *aligned* placement occupies exactly
        one DSB line.
        """
        return self.size <= WINDOW_BYTES and self.uop_count <= DSB_LINE_UOPS

    def relocated(self, new_base: int) -> "MixBlock":
        """Return a copy of this block placed at ``new_base``."""
        return MixBlock(base=new_base, instructions=self.instructions, label=self.label)

    def __repr__(self) -> str:
        align = "aligned" if self.is_aligned else f"off+{self.base % WINDOW_BYTES}"
        tag = f" {self.label}" if self.label else ""
        return (
            f"MixBlock({self.base:#x},{tag} {self.size}B/"
            f"{self.uop_count}uops, {align})"
        )


def standard_mix_block(base: int, label: str = "") -> MixBlock:
    """The canonical 4 ``mov`` + 1 ``jmp`` block: 25 bytes, 5 uops.

    Uses distinct destination registers for the four ``mov`` instructions
    so the backend can issue them to different ports without dependencies,
    keeping the frontend the bottleneck (Section III-A4).
    """
    body = tuple(mov_imm32(reg) for reg in range(4)) + (jmp_rel32(),)
    block = MixBlock(base=base, instructions=body, label=label)
    if not block.fits_one_dsb_line():  # pragma: no cover - structural invariant
        raise LayoutError("standard mix block violates DSB line limits")
    return block


def lcp_block(base: int, lcp_sets: int = 16, mixed: bool = True, label: str = "") -> MixBlock:
    """Block of ``add`` instructions with/without LCP prefixes (Section III-D).

    Parameters
    ----------
    lcp_sets:
        ``r``: the number of LCP-prefixed ``add`` instructions (and of
        normal ``add`` instructions) in the block.
    mixed:
        ``True`` builds the *mixed-issue* pattern (normal, LCP, normal,
        LCP, ...) which maximises DSB-to-MITE switches; ``False`` builds
        the *ordered-issue* pattern (all normal ``add`` then all LCP
        ``add``) which minimises them.  Both contain ``2 * lcp_sets``
        instructions and identical uop totals.
    """
    if lcp_sets < 1:
        raise LayoutError(f"lcp_sets must be >= 1, got {lcp_sets}")
    normal = [add_reg(dst=i % 4, src=(i + 1) % 4) for i in range(lcp_sets)]
    prefixed = [add_reg_lcp(dst=i % 4, src=(i + 1) % 4) for i in range(lcp_sets)]
    if mixed:
        body: list[Instruction] = []
        for plain, lcp in zip(normal, prefixed):
            body.extend((plain, lcp))
    else:
        body = normal + prefixed
    body.append(jmp_rel32())
    return MixBlock(base=base, instructions=tuple(body), label=label)


def filler_block(base: int, uops: int, label: str = "") -> MixBlock:
    """A block of ``uops`` single-uop ``mov`` instructions plus a jmp.

    Used to build loop bodies of arbitrary uop counts for the path-
    validation experiments (Section III-A3: 40 / 400 / 4000 uop loops).
    The block may span many windows; it is *not* a single-DSB-line block.
    """
    if uops < 1:
        raise LayoutError(f"uops must be >= 1, got {uops}")
    body = tuple(mov_imm32(i % 4) for i in range(uops - 1)) + (jmp_rel32(),)
    return MixBlock(base=base, instructions=body, label=label)

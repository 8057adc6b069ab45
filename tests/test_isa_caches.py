"""The ISA value types cache geometry and hashes per instance.

``MixBlock`` and ``LoopProgram`` compute their derived properties on
first read and keep them in the instance ``__dict__``, and all three
value types keep their field hash there too (:mod:`repro.isa.frozen`).
These tests pin the contract that makes that safe:

* every cached property equals the plain recomputation below, which is
  the generator-sum code the properties replaced;
* ``==``, ``hash`` and ``repr`` do not depend on whether a cache is
  filled, and derived objects start with empty caches;
* pickle, :mod:`copy` and :func:`dataclasses.replace` carry fields only,
  so a cached hash never reaches a process with another
  ``PYTHONHASHSEED``.
"""

from __future__ import annotations

import copy
import dataclasses
import os
import pickle
import subprocess
import sys
from pathlib import Path

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.isa import instructions as ins
from repro.isa.blocks import WINDOW_BYTES, MixBlock
from repro.isa.instructions import Instruction
from repro.isa.program import LoopProgram

BLOCK_CACHED = ("size", "end", "uop_count", "lcp_count", "windows", "spans_windows")
PROGRAM_CACHED = (
    "uops_per_iteration",
    "windows",
    "window_events_per_iteration",
    "misaligned_blocks",
    "lcp_instructions_per_iteration",
    "block_bases",
)

FACTORIES = (
    ins.mov_imm32,
    ins.mov_reg,
    ins.add_reg,
    ins.add_imm,
    ins.add_reg_lcp,
    ins.nop,
    ins.jmp_rel32,
    ins.jmp_rel8,
    ins.load,
    ins.store,
)

instructions = st.sampled_from(FACTORIES).map(lambda factory: factory())
blocks = st.builds(
    MixBlock,
    base=st.integers(min_value=0, max_value=1 << 20),
    instructions=st.lists(instructions, min_size=1, max_size=12).map(tuple),
    label=st.sampled_from(("", "probe", "enc")),
)
programs = st.builds(
    LoopProgram,
    body=st.lists(blocks, min_size=1, max_size=8),
    iterations=st.integers(min_value=1, max_value=10_000),
    label=st.sampled_from(("", "loop")),
)


# ----------------------------------------------------------------------
# the uncached recomputation each cached property must equal
# ----------------------------------------------------------------------
def block_geometry(block: MixBlock) -> dict:
    size = sum(i.length for i in block.instructions)
    end = block.base + size
    first = block.base - (block.base % WINDOW_BYTES)
    last = (end - 1) - ((end - 1) % WINDOW_BYTES)
    windows = tuple(range(first, last + 1, WINDOW_BYTES))
    return {
        "size": size,
        "end": end,
        "uop_count": sum(i.uop_count for i in block.instructions),
        "lcp_count": sum(1 for i in block.instructions if i.has_lcp),
        "windows": windows,
        "spans_windows": len(windows) > 1,
    }


def program_geometry(program: LoopProgram) -> dict:
    geometry = [block_geometry(block) for block in program.body]
    seen: dict[int, None] = {}
    for block in geometry:
        for window in block["windows"]:
            seen.setdefault(window)
    return {
        "uops_per_iteration": sum(g["uop_count"] for g in geometry),
        "windows": tuple(seen),
        "window_events_per_iteration": sum(len(g["windows"]) for g in geometry),
        "misaligned_blocks": sum(1 for g in geometry if g["spans_windows"]),
        "lcp_instructions_per_iteration": sum(g["lcp_count"] for g in geometry),
        "block_bases": tuple(block.base for block in program.body),
    }


def fresh_block(block: MixBlock) -> MixBlock:
    return MixBlock(
        base=block.base,
        instructions=tuple(
            Instruction(i.mnemonic, i.length, i.uops, i.has_lcp, i.is_branch)
            for i in block.instructions
        ),
        label=block.label,
    )


def fresh_program(program: LoopProgram) -> LoopProgram:
    return LoopProgram(
        [fresh_block(block) for block in program.body],
        program.iterations,
        program.label,
    )


def fill_caches(program: LoopProgram) -> None:
    hash(program)
    for name in PROGRAM_CACHED:
        getattr(program, name)
    for block in program.body:
        for name in BLOCK_CACHED:
            getattr(block, name)


def cache_keys(obj) -> set[str]:
    """Names in the instance ``__dict__`` that are not dataclass fields."""
    return set(vars(obj)) - {f.name for f in dataclasses.fields(obj)}


# ----------------------------------------------------------------------
class TestCachedGeometry:
    @given(blocks)
    @settings(max_examples=200)
    def test_block_properties_equal_recomputation(self, block):
        expected = block_geometry(block)
        for name in BLOCK_CACHED:
            assert getattr(block, name) == expected[name], name
            # A second read serves the cache and must agree.
            assert getattr(block, name) == expected[name], name

    @given(programs)
    @settings(max_examples=150)
    def test_program_properties_equal_recomputation(self, program):
        expected = program_geometry(program)
        for name in PROGRAM_CACHED:
            assert getattr(program, name) == expected[name], name
        assert program.total_uops == expected["uops_per_iteration"] * program.iterations
        assert program.aligned_blocks == len(program.body) - expected["misaligned_blocks"]

    @given(programs)
    @settings(max_examples=100)
    def test_eq_hash_repr_independent_of_caches(self, program):
        cold = fresh_program(program)
        fill_caches(program)
        assert cache_keys(program)
        assert not cache_keys(cold)
        assert program == cold and cold == program
        assert hash(program) == hash(cold)
        assert repr(program) == repr(cold)
        for warm_block, cold_block in zip(program.body, cold.body):
            assert warm_block == cold_block
            assert hash(warm_block) == hash(cold_block)
            assert repr(warm_block) == repr(cold_block)

    @given(programs)
    @settings(max_examples=60)
    def test_hash_is_the_field_hash(self, program):
        """The cached hash is what the dataclass would have generated."""
        block = program.body[0]
        instruction = block.instructions[0]
        assert hash(program) == hash((program.body, program.iterations, program.label))
        assert hash(block) == hash((block.base, block.instructions, block.label))
        assert hash(instruction) == hash(
            tuple(getattr(instruction, f.name) for f in dataclasses.fields(instruction))
        )

    @given(programs, st.integers(min_value=0, max_value=1 << 16),
           st.integers(min_value=1, max_value=1000))
    @settings(max_examples=60)
    def test_derived_objects_start_empty(self, program, base, iterations):
        fill_caches(program)
        relocated = program.body[0].relocated(base)
        longer = program.with_iterations(iterations)
        assert not cache_keys(relocated)
        assert not cache_keys(longer)
        assert relocated.windows == block_geometry(relocated)["windows"]
        assert longer.uops_per_iteration == program.uops_per_iteration


class TestCachesStayLocal:
    @given(programs)
    @settings(max_examples=60)
    def test_pickle_bytes_ignore_filled_caches(self, program):
        cold = fresh_program(program)
        fill_caches(program)
        for block in program.body:
            for instruction in block.instructions:
                hash(instruction)
        assert pickle.dumps(program) == pickle.dumps(cold)
        assert not cache_keys(pickle.loads(pickle.dumps(program)))

    @given(programs)
    @settings(max_examples=40)
    def test_copy_and_replace_carry_fields_only(self, program):
        fill_caches(program)
        block = program.body[0]
        for duplicate in (copy.copy(program), copy.deepcopy(program)):
            assert duplicate == program
            assert not cache_keys(duplicate)
        for duplicate in (copy.copy(block), copy.deepcopy(block),
                          dataclasses.replace(block, label="moved")):
            assert not cache_keys(duplicate)
            assert duplicate.windows == block.windows

    def test_loaded_under_another_hash_seed_is_a_working_dict_key(self):
        """A cached string hash must not travel: labels and mnemonics
        hash differently under another ``PYTHONHASHSEED``."""
        program = LoopProgram(
            [MixBlock(0x400010, (ins.mov_imm32(), ins.add_reg_lcp(), ins.jmp_rel32()),
                      label="probe")],
            iterations=7,
            label="loop",
        )
        fill_caches(program)
        probe = (
            "import pickle, sys\n"
            "from repro.isa import instructions as ins\n"
            "from repro.isa.blocks import MixBlock\n"
            "from repro.isa.program import LoopProgram\n"
            "loaded = pickle.loads(sys.stdin.buffer.read())\n"
            "built = LoopProgram([MixBlock(0x400010, (ins.mov_imm32(), "
            "ins.add_reg_lcp(), ins.jmp_rel32()), label='probe')], 7, 'loop')\n"
            "table = {built: 'built', built.body[0]: 'block'}\n"
            "assert hash(loaded) == hash(built)\n"
            "assert table[loaded] == 'built'\n"
            "assert table[loaded.body[0]] == 'block'\n"
            "assert loaded.body[0].instructions[1] in {built.body[0].instructions[1]}\n"
            "print('ok')\n"
        )
        repo_src = str(Path(__file__).resolve().parent.parent / "src")
        for hash_seed in ("1", "4242"):
            env = dict(os.environ)
            env["PYTHONHASHSEED"] = hash_seed
            env["PYTHONPATH"] = repo_src + (
                os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
            )
            result = subprocess.run(
                [sys.executable, "-c", probe],
                input=pickle.dumps(program),
                capture_output=True,
                env=env,
                check=False,
            )
            assert result.returncode == 0, result.stderr.decode()
            assert result.stdout.strip() == b"ok"

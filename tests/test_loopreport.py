"""Tests for LoopReport arithmetic and the engine's stream interface."""

from __future__ import annotations

from dataclasses import fields

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.frontend.engine import FrontendEngine, LoopReport
from repro.frontend.paths import DeliveryPath
from repro.isa.layout import BlockChainLayout
from repro.isa.program import LoopProgram


def report(**kwargs) -> LoopReport:
    return LoopReport(**kwargs)


class TestLoopReportArithmetic:
    def test_merge_accumulates_every_field(self):
        a = report(cycles=10.0, uops_dsb=5, lcp_stalls=1, energy_nj=2.0)
        b = report(cycles=4.0, uops_dsb=3, lcp_stalls=2, energy_nj=1.0)
        a.merge(b)
        assert a.cycles == 14.0
        assert a.uops_dsb == 8
        assert a.lcp_stalls == 3
        assert a.energy_nj == 3.0

    def test_merge_returns_self(self):
        a = report()
        assert a.merge(report(cycles=1.0)) is a

    def test_scaled_floats_exact_ints_rounded(self):
        base = report(cycles=3.0, uops_dsb=3)
        scaled = base.scaled(2.5)
        assert scaled.cycles == 7.5
        assert scaled.uops_dsb == 8  # round(7.5)

    def test_scaled_zero(self):
        scaled = report(cycles=100.0, uops_mite=7).scaled(0)
        assert scaled.cycles == 0.0
        assert scaled.uops_mite == 0

    @given(st.integers(min_value=0, max_value=1000),
           st.integers(min_value=0, max_value=1000),
           st.integers(min_value=0, max_value=1000))
    @settings(max_examples=40)
    def test_total_uops(self, lsd, dsb, mite):
        r = report(uops_lsd=lsd, uops_dsb=dsb, uops_mite=mite)
        assert r.total_uops == lsd + dsb + mite

    def test_dominant_path(self):
        assert report(uops_lsd=10, uops_dsb=3).dominant_path() is DeliveryPath.LSD
        assert report(uops_mite=10, uops_dsb=3).dominant_path() is DeliveryPath.MITE

    def test_ipc_zero_cycles(self):
        assert report(uops_dsb=5).ipc == 0.0


def distinct_report(offset: int) -> LoopReport:
    """A report whose every field holds its own value (floats as floats)."""
    values = {}
    for index, f in enumerate(fields(LoopReport)):
        value = offset + 3 * index + 1
        values[f.name] = value + 0.25 if f.type in (float, "float") else value
    return LoopReport(**values)


class TestEveryFieldIsHandled:
    """``merge`` and ``scaled`` spell out each field; none may be missed."""

    def test_merge_adds_every_field(self):
        a, b = distinct_report(0), distinct_report(100)
        expected = {f.name: getattr(a, f.name) + getattr(b, f.name)
                    for f in fields(LoopReport)}
        a.merge(b)
        assert {f.name: getattr(a, f.name) for f in fields(LoopReport)} == expected

    @pytest.mark.parametrize("factor", [0, 3, 4.0, 2.5, 0.3])
    def test_scaled_scales_every_field(self, factor):
        base = distinct_report(7)
        integral = isinstance(factor, int) or factor.is_integer()
        expected = {}
        for f in fields(LoopReport):
            value = getattr(base, f.name)
            if isinstance(value, float):
                expected[f.name] = value * factor
            elif integral:
                expected[f.name] = value * int(factor)
            else:
                expected[f.name] = round(value * factor)
        scaled = base.scaled(factor)
        actual = {f.name: getattr(scaled, f.name) for f in fields(LoopReport)}
        assert actual == expected
        assert all(type(actual[k]) is type(expected[k]) for k in expected)


class TestIterationStream:
    def test_stream_yields_per_iteration_reports(self):
        engine = FrontendEngine()
        layout = BlockChainLayout()
        program = LoopProgram(layout.chain(3, 4), 5)
        reports = list(engine.iteration_stream(program, thread=0, smt_active=False))
        assert len(reports) == 5
        assert all(r.iterations == 1 for r in reports)

    def test_stream_matches_exact_run(self):
        layout = BlockChainLayout()
        program = LoopProgram(layout.chain(3, 8), 20)
        streamed = FrontendEngine()
        total = LoopReport()
        for r in streamed.iteration_stream(program, thread=0, smt_active=False):
            total.merge(r)
        # run_loop adds the loop-exit mispredict the stream does not.
        exact_engine = FrontendEngine()
        exact = exact_engine.run_loop(program, exact=True)
        assert total.total_uops == exact.total_uops
        assert total.cycles == pytest.approx(
            exact.cycles - exact_engine.params.loop_exit_mispredict
        )

    def test_stream_mutates_shared_state(self):
        engine = FrontendEngine()
        layout = BlockChainLayout()
        program = LoopProgram(layout.chain(3, 4), 3)
        list(engine.iteration_stream(program, thread=0, smt_active=False))
        # Windows are now DSB-resident for the next consumer.
        follow_up = engine.run_iteration(program, thread=0)
        assert follow_up.uops_mite == 0

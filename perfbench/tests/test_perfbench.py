"""Tests of the benchmark's own code.

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import threading

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH = os.path.dirname(HERE)
ROOT = os.path.dirname(BENCH)
sys.path.insert(0, BENCH)
sys.path.insert(0, os.path.join(ROOT, "src"))

import layers  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from tracer import Tracer, covered  # noqa: E402


class FakeClock:
    def __init__(self) -> None:
        self.now = 0.0

    def __call__(self) -> float:
        return self.now


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_same_seed_gives_byte_identical_workload(name):
    assert workloads.dump(workloads.build(name, 7)) == \
        workloads.dump(workloads.build(name, 7))


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_seed_becomes_every_base_seed(name):
    for seed in (3, 4):
        jobs = workloads.build(name, seed)
        assert {job.spec["base_seed"] for job in jobs} == {seed}
    assert workloads.dump(workloads.build(name, 3)) != \
        workloads.dump(workloads.build(name, 4))


def test_paper_grid_is_table3_plus_fig11():
    from repro.machine.specs import ALL_SPECS

    assert [(spec.name, spec.smt) for spec in ALL_SPECS] == \
        list(workloads.MACHINES)
    jobs = workloads.paper_grid(0)
    assert len(jobs) == 23
    assert sum(job.spec["label"].startswith("table3/") for job in jobs) == 22
    labels = {job.spec["label"] for job in jobs}
    assert {f"table3/{machine}/{row}"
            for row, machine in run.table3_paper_kbps()} <= labels


def test_table3_figures_come_from_the_table3_benchmark():
    paper = run.table3_paper_kbps()
    assert len(paper) == 11
    assert paper[("mt-eviction", "Gold 6226")] == 115.97


def test_scenario_jobs_run_the_registered_scenarios():
    from repro.scenarios import registry
    from repro.scenarios.sweep import ScenarioSweepSpec

    for job in workloads.scenarios(0):
        spec = registry.get(job.spec["scenario"])
        assert job.spec["trials"] == spec.trials
        for axis, values in job.spec["grid"].items():
            assert values == [spec.params[axis]]
        ScenarioSweepSpec.from_dict(job.spec)


def test_service_mix_shape():
    jobs = workloads.service_mix(0)
    keys = [json.dumps(job.spec["grid"], sort_keys=True) for job in jobs]
    warm = {key for key, job in zip(keys, jobs) if job.warm}
    cold = [key for key, job in zip(keys, jobs) if not job.warm]
    assert len(jobs) == workloads.MIX_JOBS
    assert len(warm) == workloads.MIX_WARM_KEYS
    assert len(cold) == len(set(cold)) == workloads.MIX_COLD_JOBS
    assert not warm & set(cold)
    assert {job.tenant for job in jobs} == set(workloads.TENANTS)


def test_cluster_grid_is_valid_for_the_channel():
    (job,) = workloads.cluster_sweep(0)
    assert all(1 <= d <= 8 for d in job.spec["grid"]["d"])
    assert job.argv[job.argv.index("--seed") + 1] == "0"


def test_self_time_subtracts_nested_children():
    clock = FakeClock()
    tracer = Tracer(clock=clock)
    tracer.enter("outer")
    clock.now = 1.0
    tracer.enter("inner")
    clock.now = 2.0
    tracer.enter("leaf")
    clock.now = 2.5
    tracer.exit()
    clock.now = 4.0
    tracer.exit()
    clock.now = 5.0
    tracer.enter("inner")
    clock.now = 6.0
    tracer.exit()
    clock.now = 10.0
    tracer.exit()
    agg = tracer.aggregates
    assert agg["outer"].total_s == 10.0
    assert agg["outer"].self_s == 6.0
    assert agg["inner"].count == 2
    assert agg["inner"].total_s == 4.0
    assert agg["inner"].self_s == 3.5
    assert agg["leaf"].self_s == 0.5
    by_name = {}
    for span_id, name, *_ in tracer.spans:
        by_name.setdefault(name, []).append(span_id)
    parents = {name: parent for _, name, _, _, parent, _ in tracer.spans}
    assert parents["outer"] is None
    assert parents["inner"] == by_name["outer"][0]
    assert parents["leaf"] == by_name["inner"][0]


def test_spans_on_other_threads_are_not_children():
    clock = FakeClock()
    tracer = Tracer(clock=clock)
    tracer.enter("main")
    clock.now = 1.0

    def other() -> None:
        tracer.enter("worker")
        clock.now = 4.0
        tracer.exit()

    thread = threading.Thread(target=other)
    thread.start()
    thread.join(timeout=10)
    assert not thread.is_alive()
    clock.now = 5.0
    tracer.exit()
    assert tracer.aggregates["main"].self_s == 5.0
    assert tracer.aggregates["worker"].self_s == 3.0
    assert sorted(tracer.roots()) == [(0.0, 5.0), (1.0, 4.0)]
    assert covered(tracer.roots(), 0.0, 6.0) == 5.0


def test_unkept_spans_still_count_in_aggregates():
    clock = FakeClock()
    tracer = Tracer(clock=clock, max_kept=1)
    tracer.enter("root")
    for _ in range(3):
        tracer.enter("hot", keep=False)
        clock.now += 1.0
        tracer.exit()
    tracer.exit()
    assert tracer.aggregates["hot"].count == 3
    assert tracer.aggregates["root"].self_s == 0.0
    assert [span[1] for span in tracer.spans] == ["root"]
    assert tracer.dropped == 3
    trace = tracer.chrome_trace()
    assert trace["traceEvents"][0]["ph"] == "X"
    assert trace["traceEvents"][0]["dur"] == 3e6


def test_covered_clips_and_merges():
    intervals = [(0.0, 2.0), (1.0, 3.0), (5.0, 6.0), (9.0, 12.0)]
    assert covered(intervals, 0.5, 10.0) == 2.5 + 1.0 + 1.0


def test_percentile_refuses_fewer_than_ten_samples_beyond():
    with pytest.raises(ValueError):
        run.percentile(range(100), 95)
    with pytest.raises(ValueError):
        run.percentile(range(199), 95)
    assert run.percentile(range(200), 95) == 189
    assert run.percentile(range(20), 50) == 9


def test_pooled_rate_weighs_passes_by_their_length():
    passes = [{"points": 30, "window": (0.0, 1.0)},
              {"points": 30, "window": (1.0, 4.0)}]
    assert run.pooled_rate(passes) == 60 / 4.0
    assert run.pooled_rate([{"points": 0, "window": (2.0, 2.0)}]) == 0.0


def test_benchmark_json_matches_the_code():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
        manifest = json.load(f)
    assert [w["name"] for w in manifest["workloads"]] == \
        list(workloads.WORKLOADS)
    assert [(m["name"], m["unit"]) for m in manifest["end_to_end"]] == \
        list(run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in manifest["per_layer"]] == \
        list(layers.PER_LAYER)


def test_traced_launcher_finds_every_layer(tmp_path):
    prefix = str(tmp_path / "t")
    env = run.program_env()
    proc = subprocess.run(
        [sys.executable, os.path.join(BENCH, "launch.py"), prefix, "sweep",
         "--param", "d=2", "--bits", "8", "--no-cache", "--workers", "1"],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    with open(prefix + ".summary.json", encoding="utf-8") as f:
        summary = json.load(f)
    assert summary["missing_targets"] == []
    names = set(summary["aggregates"])
    for name in ("exec.compute", "cluster.dispatch", "machine.run_loop",
                 "frontend.run_loop", "isa.size", "caches.access"):
        assert name in names
    assert summary["counters"]["exec.points"] == 1
    with open(prefix + ".trace.json", encoding="utf-8") as f:
        assert json.load(f)["traceEvents"]

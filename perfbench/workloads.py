"""Workload generators: the jobs each benchmark workload submits.

Pure functions of the workload seed, with no import of the program, so
the same seed always gives a byte-identical workload and the program
receives only the generated inputs.  The seed becomes every spec's
``base_seed``.

A workload is a list of :class:`Job` values.  ``spec`` is the JSON
payload a ``submit`` request carries (a ``SweepSpec`` or, with a
``scenario`` key, a ``ScenarioSweepSpec``).  ``cluster-sweep`` has no
service jobs; its single job also holds the ``python -m repro sweep``
arguments.
"""

from __future__ import annotations

import json
import random
from dataclasses import asdict, dataclass

WORKLOADS = ("paper-grid", "scenarios", "service-mix", "cluster-sweep")

TENANTS = ("tenant-a", "tenant-b")

#: Table I machines in the paper's order, with whether SMT is enabled.
#: The E-2288G runs with hyper-threading off, so the paper's Table III
#: has no MT cells for it.
MACHINES = (
    ("Gold 6226", True),
    ("Xeon E-2174G", True),
    ("Xeon E-2286G", True),
    ("Xeon E-2288G", False),
)

#: Table III rows: (row name, channel, variant, grid).  The paper uses
#: d=6 for eviction channels and d=5/M=8 for misalignment channels.
TABLE3_ROWS = (
    ("non-mt-stealthy-eviction", "eviction", "stealthy", {"d": [6]}),
    ("non-mt-fast-eviction", "eviction", "fast", {"d": [6]}),
    ("non-mt-stealthy-misalignment", "misalignment", "stealthy",
     {"d": [5], "M": [8]}),
    ("non-mt-fast-misalignment", "misalignment", "fast", {"d": [5], "M": [8]}),
    ("mt-eviction", "mt-eviction", "fast", {"d": [6]}),
    ("mt-misalignment", "mt-misalignment", "fast", {"d": [5], "M": [8]}),
)
TABLE3_BITS = 64

#: Registered scenarios with their registered trial count and one grid
#: axis pinned at the registered parameter value, so each job runs the
#: scenario exactly as registered.
SCENARIOS = (
    ("frontal", 3, {"steps_per_branch": [5]}),
    ("retirement-channel", 3, {"bits": [200]}),
    ("spectre-v2", 3, {"attempts_per_chunk": [5]}),
    ("synth-dsb-contention", 3, {"bits": [24]}),
)

#: service-mix shape: jobs per pass, distinct keys already in the disk
#: cache, and jobs whose point is not cached.  240 of 300 jobs (80%)
#: are cache hits; 40 of them repeat a warm key and hit memory.
MIX_JOBS = 300
MIX_WARM_KEYS = 200
MIX_COLD_JOBS = MIX_JOBS // 5
MIX_BITS = 16

#: cluster-sweep grid: every value is valid for the non-MT eviction
#: channel (1 <= d <= 8 DSB ways), so no shard is ever requeued for an
#: invalid point.
CLUSTER_D = list(range(1, 9))
CLUSTER_P = [10, 20]
CLUSTER_TRIALS = 4


@dataclass(frozen=True)
class Job:
    """One submission: who sends it and what it asks for."""

    tenant: str
    #: The ``submit`` payload; for cluster-sweep, the same sweep as a spec,
    #: which the benchmark runs in-process for the expected result.
    spec: dict
    #: Whether set-up puts the job's point in the disk cache before the
    #: run (service-mix only).
    warm: bool = False
    #: ``python -m repro sweep`` arguments (cluster-sweep only).
    argv: tuple = ()


def sweep_spec(channel, variant, grid, *, machine, bits, seed, label,
               trials=1) -> dict:
    return {
        "grid": grid,
        "machine": machine,
        "channel": channel,
        "variant": variant,
        "bits": bits,
        "trials": trials,
        "base_seed": seed,
        "priority": 0,
        "label": label,
    }


def paper_grid(seed: int) -> list[Job]:
    """Table III's 22 valid cells plus the Fig. 11 d=1..8 sweep."""
    specs = [
        sweep_spec(channel, variant, grid, machine=machine, bits=TABLE3_BITS,
                   seed=seed, label=f"table3/{machine}/{row}")
        for machine, smt in MACHINES
        for row, channel, variant, grid in TABLE3_ROWS
        if smt or not row.startswith("mt-")
    ]
    specs.append(
        sweep_spec("mt-eviction", "fast",
                   {"d": list(range(1, 9)), "p": [1000], "q": [100]},
                   machine="Gold 6226", bits=48, seed=seed, label="fig11")
    )
    return [Job(TENANTS[i % 2], spec) for i, spec in enumerate(specs)]


def scenarios(seed: int) -> list[Job]:
    return [
        Job(TENANTS[i % 2], {"scenario": name, "grid": grid, "trials": trials,
                             "base_seed": seed, "priority": 0,
                             "label": f"scenario/{name}"})
        for i, (name, trials, grid) in enumerate(SCENARIOS)
    ]


def service_mix(seed: int) -> list[Job]:
    """One-point eviction jobs from two tenants, 80% already cached.

    The seed picks the keys; the shape is fixed, so runs with different
    seeds do the same work: tenants alternate and every fifth job is a
    miss, which keeps how often a hit waits behind compute the same.
    """
    rng = random.Random(seed)
    combos = [(d, p, q) for d in range(1, 9) for p in range(10, 30, 2)
              for q in (10, 12, 14, 16)]
    keys = rng.sample(combos, MIX_WARM_KEYS + MIX_COLD_JOBS)
    cold = iter(keys[MIX_WARM_KEYS:])
    hits = keys[:MIX_WARM_KEYS]
    hits += rng.choices(hits, k=MIX_JOBS - MIX_COLD_JOBS - MIX_WARM_KEYS)
    rng.shuffle(hits)
    hits = iter(hits)
    jobs = []
    for index in range(MIX_JOBS):
        miss = index % 5 == 4
        d, p, q = next(cold) if miss else next(hits)
        jobs.append(Job(
            TENANTS[index % 2],
            sweep_spec("eviction", "fast", {"d": [d], "p": [p], "q": [q]},
                       machine="Gold 6226", bits=MIX_BITS, seed=seed,
                       label=f"mix/{d}/{p}/{q}"),
            warm=not miss))
    return jobs


def cluster_sweep(seed: int) -> list[Job]:
    argv = ("--channel", "eviction", "--variant", "fast",
            "--param", "d=" + ",".join(map(str, CLUSTER_D)),
            "--param", "p=" + ",".join(map(str, CLUSTER_P)),
            "--trials", str(CLUSTER_TRIALS), "--bits", "32",
            "--seed", str(seed))
    spec = sweep_spec("eviction", "fast", {"d": CLUSTER_D, "p": CLUSTER_P},
                      machine="Gold 6226", bits=32, seed=seed,
                      label="cluster", trials=CLUSTER_TRIALS)
    return [Job(TENANTS[0], spec, argv=argv)]


def build(workload: str, seed: int) -> list[Job]:
    generators = {"paper-grid": paper_grid, "scenarios": scenarios,
                  "service-mix": service_mix, "cluster-sweep": cluster_sweep}
    try:
        return generators[workload](int(seed))
    except KeyError:
        raise ValueError(f"unknown workload {workload!r}; "
                         f"choose from {list(WORKLOADS)}") from None


def dump(jobs: list[Job]) -> str:
    """Canonical JSON of a workload (what the determinism test compares)."""
    return json.dumps([asdict(job) for job in jobs], sort_keys=True)

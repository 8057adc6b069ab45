"""Wrappers that time calls into each layer of the program, from outside.

:func:`install` replaces functions and methods of the program's modules
with wrappers that open a :class:`~tracer.Tracer` span around each call
and count what the call returned.  Nothing in the program changes; the
traced launcher (``launch.py``) installs the wrappers before it starts
the command.  A layer is a module (or package) of the program, and a
span name starts with its layer: ``cache.load``, ``frontend.dsb.insert``.

:func:`layer_metrics` turns the tracer's aggregates and counters into
the benchmark's per-layer metrics.
"""

from __future__ import annotations

import enum
import functools
import importlib
import inspect
import os
import pkgutil
import sys
from collections import Counter
from statistics import median

from tracer import Tracer

#: Packages whose every public function and method is timed.  Only
#: :mod:`repro.scenarios.runners` is taken from the scenarios package:
#: its sweep module holds the point factory, whose identity feeds the
#: result-cache fingerprint.
PACKAGES = {
    "channels": ("repro.channels",),
    "analysis": ("repro.analysis",),
    "scenarios": ("repro.scenarios.runners",),
    "spectre": ("repro.spectre",),
    "sgx": ("repro.sgx",),
}

#: MixBlock geometry reads counted as ``isa.geometry_calls``.
ISA_GEOMETRY = ("size", "end", "windows", "uop_count")

#: Layers with a ``<layer>.self_s`` metric.  ``frontend`` excludes its
#: ``frontend.dsb`` and ``frontend.lsd`` sub-layers, which have their own.
SELF_LAYERS = ("auth", "wal", "scheduler", "cluster", "scenarios", "spectre",
               "sgx", "channels", "analysis", "machine", "frontend",
               "frontend.dsb", "frontend.lsd", "isa", "caches")

#: Every per-layer metric, with its unit, in report order.
PER_LAYER = (
    ("wire.submit_ack_ms", "ms"), ("auth.calls", "count"),
    ("auth.self_s", "s"), ("auth.denied", "count"),
    ("queue.wait_ms", "ms"),
    ("wal.appends", "count"), ("wal.self_s", "s"), ("wal.bytes", "bytes"),
    ("scheduler.claims", "count"), ("scheduler.self_s", "s"),
    ("scheduler.hits.memory", "count"), ("scheduler.hits.disk", "count"),
    ("scheduler.hits.inflight", "count"), ("scheduler.hit_ratio", "ratio"),
    ("cache.loads", "count"), ("cache.load_hits", "count"),
    ("cache.load_s", "s"), ("cache.stores", "count"), ("cache.store_s", "s"),
    ("exec.batches", "count"), ("exec.points", "count"), ("exec.busy_s", "s"),
    ("cluster.shards", "count"), ("cluster.requeued", "count"),
    ("cluster.shard_ms", "ms"), ("cluster.self_s", "s"),
    ("scenarios.trials", "count"), ("scenarios.self_s", "s"),
    ("spectre.self_s", "s"), ("sgx.self_s", "s"),
    ("channels.transmits", "count"), ("channels.self_s", "s"),
    ("analysis.self_s", "s"),
    ("machine.run_loops", "count"), ("machine.self_s", "s"),
    ("frontend.run_loops", "count"), ("frontend.self_s", "s"),
    ("frontend.dsb.self_s", "s"), ("frontend.lsd.self_s", "s"),
    ("frontend.uops.mite", "count"), ("frontend.uops.dsb", "count"),
    ("frontend.uops.lsd", "count"), ("frontend.sim_uops_per_host_s", "1/s"),
    ("isa.geometry_calls", "count"), ("isa.program_hashes", "count"),
    ("isa.self_s", "s"),
    ("caches.accesses", "count"), ("caches.misses", "count"),
    ("caches.self_s", "s"),
    ("unattributed_s", "s"), ("trace.overhead_x", "x"),
)


class Probe:
    """A tracer plus the counters and samples the wrappers record."""

    def __init__(self, tracer: Tracer | None = None) -> None:
        self.tracer = tracer if tracer is not None else Tracer()
        self.counters: Counter = Counter()
        self.samples: dict[str, list[float]] = {}
        self._open_shards: dict[tuple, float] = {}
        #: Targets the program no longer has (renamed or removed).
        self.missing: list[str] = []

    def count(self, key: str, amount: float = 1) -> None:
        with self.tracer._lock:
            self.counters[key] += amount

    def sample(self, key: str, value: float) -> None:
        with self.tracer._lock:
            self.samples.setdefault(key, []).append(value)

    def summary(self) -> dict:
        return {
            "aggregates": {
                name: {"count": agg.count, "total_s": agg.total_s,
                       "self_s": agg.self_s}
                for name, agg in self.tracer.aggregates.items()
            },
            "counters": dict(self.counters),
            "samples": self.samples,
            "roots": self.tracer.roots(),
            "kept_spans": len(self.tracer.spans),
            "dropped_spans": self.tracer.dropped,
            "missing_targets": self.missing,
        }


def _timed(fn, name: str, probe: Probe, keep: bool, after=None):
    enter, exit_ = probe.tracer.enter, probe.tracer.exit

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        enter(name, keep)
        try:
            result = fn(*args, **kwargs)
        finally:
            exit_()
        if after is not None:
            after(args, result)
        return result

    return wrapper


def _timed_stream(fn, name: str, probe: Probe):
    """Wrap ``Executor.compute_stream``: one span per point it yields."""
    enter, exit_ = probe.tracer.enter, probe.tracer.exit

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        probe.count("exec.batches")
        items = fn(*args, **kwargs)
        while True:
            enter(name)
            try:
                item = next(items)
            except StopIteration:
                return
            finally:
                exit_()
            probe.count("exec.points")
            yield item

    return wrapper


def _replace(owner, attr: str, new, old) -> None:
    """Install ``new`` on ``owner`` and on every module that imported ``old``."""
    setattr(owner, attr, new)
    if inspect.ismodule(owner):
        for module in list(sys.modules.values()):
            if getattr(module, "__name__", "").startswith("repro") and \
                    getattr(module, attr, None) is old:
                setattr(module, attr, new)


def _method(cls, attr: str, name: str, probe: Probe, keep: bool = True,
            after=None, wrap=None) -> None:
    """Time ``cls.attr`` (or wrap it with ``wrap(fn)``), if it still exists."""
    old = cls.__dict__.get(attr)
    if not inspect.isfunction(old):
        probe.missing.append(f"{cls.__name__}.{attr}")
        return
    setattr(cls, attr, wrap(old) if wrap is not None
            else _timed(old, name, probe, keep, after))


def _package_modules(root: str):
    module = importlib.import_module(root)
    yield module
    for info in pkgutil.walk_packages(getattr(module, "__path__", []),
                                      root + "."):
        yield importlib.import_module(info.name)


def _wrap_package(layer: str, root: str, probe: Probe, hooks: dict) -> None:
    for module in _package_modules(root):
        for attr, value in list(vars(module).items()):
            if attr.startswith("_"):
                continue
            if inspect.isfunction(value) and value.__module__ == module.__name__:
                name = f"{layer}.{attr}"
                _replace(module, attr, _timed(value, name, probe, True,
                                              hooks.get(name)), value)
            elif inspect.isclass(value) and value.__module__ == module.__name__ \
                    and not issubclass(value, (enum.Enum, BaseException)):
                for method, fn in list(vars(value).items()):
                    if not method.startswith("_") and inspect.isfunction(fn):
                        name = f"{layer}.{value.__name__}.{method}"
                        setattr(value, method, _timed(fn, name, probe, True,
                                                      hooks.get(name)))


def install(probe: Probe) -> None:
    """Wrap the program's layers; call before the command starts."""
    from repro.caches.hierarchy import MemoryHierarchy
    from repro.caches.sa_cache import SetAssociativeCache
    from repro.cluster import protocol, shards
    from repro.cluster.coordinator import Coordinator
    from repro.exec.base import Executor
    from repro.exec.cache import ResultCache
    from repro.frontend.dsb import DecodedStreamBuffer
    from repro.frontend.engine import FrontendEngine
    from repro.frontend.lsd import LoopStreamDetector
    from repro.isa.blocks import MixBlock
    from repro.isa.program import LoopProgram
    from repro.machine.machine import Machine
    from repro.service.auth import AuthPolicy, Denial
    from repro.service.scheduler import Scheduler
    from repro.service.store import JobStore

    count = probe.count

    def authenticated(args, result):
        if isinstance(result, Denial):
            count("auth.denied")

    def admitted(args, result):
        if result is not None:
            count("auth.denied")

    _method(AuthPolicy, "authenticate", "auth.authenticate", probe,
            after=authenticated)
    _method(AuthPolicy, "admit_submit", "auth.admit_submit", probe,
            after=admitted)

    def wal_append(name):
        def wrap(fn):
            @functools.wraps(fn)
            def wrapper(self, *args, **kwargs):
                before = _size(self.path)
                probe.tracer.enter(name)
                try:
                    return fn(self, *args, **kwargs)
                finally:
                    probe.tracer.exit()
                    count("wal.appends")
                    count("wal.bytes", max(0, _size(self.path) - before))
            return wrapper
        return wrap

    for attr in ("record_job", "record_state"):
        _method(JobStore, attr, f"wal.{attr}", probe,
                wrap=wal_append(f"wal.{attr}"))
    for attr in ("replay", "compact"):
        _method(JobStore, attr, f"wal.{attr}", probe)

    def claimed(args, resolutions):
        job_id = args[1]
        count("scheduler.points", len(resolutions))
        for resolution in resolutions:
            if resolution.source in ("memory", "disk"):
                count(f"scheduler.hits.{resolution.source}")
            elif resolution.entry is not None and resolution.entry.owner != job_id:
                count("scheduler.hits.inflight")

    _method(Scheduler, "claim", "scheduler.claim", probe, after=claimed)
    _method(Scheduler, "release", "scheduler.release", probe)

    def loaded(args, result):
        if result is not None:
            count("cache.load_hits")

    _method(ResultCache, "load", "cache.load", probe, after=loaded)
    _method(ResultCache, "store", "cache.store", probe)

    _method(Executor, "compute_stream", "exec.compute", probe,
            wrap=lambda fn: _timed_stream(fn, "exec.compute", probe))

    clock = probe.tracer.clock

    def dispatched(args, result):
        worker, state = args[1], args[2]
        probe._open_shards[(state.shard.id, worker.name)] = clock()

    def shard_done(args, result):
        worker, message = args[1], args[2]
        start = probe._open_shards.pop((int(message.get("shard", -1)),
                                        worker.name), None)
        if start is not None:
            probe.sample("cluster.shard_ms", (clock() - start) * 1e3)

    _method(Coordinator, "_dispatch_message", "cluster.dispatch_message", probe)
    _method(Coordinator, "_assign", "cluster.assign", probe)
    _method(Coordinator, "_dispatch", "cluster.dispatch", probe, after=dispatched)
    _method(Coordinator, "_on_shard_done", "cluster.on_shard_done", probe,
            after=shard_done)
    for module, attr in ((protocol, "encode_obj"), (protocol, "decode_obj"),
                         (protocol, "encode_points"), (protocol, "decode_points"),
                         (protocol, "decode_factory"), (shards, "plan_shards")):
        old = getattr(module, attr, None)
        if inspect.isfunction(old):
            _replace(module, attr, _timed(old, f"cluster.{attr}", probe, True),
                     old)
        else:
            probe.missing.append(f"{module.__name__}.{attr}")

    hooks = {"scenarios.run_trial": lambda args, result: count("scenarios.trials")}
    for layer, roots in PACKAGES.items():
        for root in roots:
            _wrap_package(layer, root, probe, hooks)

    def delivered(reports):
        for report in reports:
            count("frontend.uops.mite", report.uops_mite)
            count("frontend.uops.dsb", report.uops_dsb)
            count("frontend.uops.lsd", report.uops_lsd)

    _method(Machine, "run_loop", "machine.run_loop", probe,
            after=lambda args, report: delivered([report]))
    _method(Machine, "run_smt", "machine.run_smt", probe,
            after=lambda args, result: delivered([result.primary,
                                                  result.secondary]))
    for attr in ("run_loop", "run_iteration", "window_accesses"):
        _method(FrontendEngine, attr, f"frontend.{attr}", probe)
    for cls, layer in ((DecodedStreamBuffer, "frontend.dsb"),
                       (LoopStreamDetector, "frontend.lsd")):
        for attr, fn in list(vars(cls).items()):
            if not attr.startswith("_") and inspect.isfunction(fn):
                _method(cls, attr, f"{layer}.{attr}", probe, keep=False)

    for attr in ISA_GEOMETRY:
        prop = MixBlock.__dict__.get(attr)
        if isinstance(prop, property):
            getter = _timed(prop.fget, f"isa.{attr}", probe, False)
            setattr(MixBlock, attr, property(getter))
        elif isinstance(prop, functools.cached_property):
            # A cached read is counted when it computes, not when it hits.
            cached = functools.cached_property(
                _timed(prop.func, f"isa.{attr}", probe, False))
            cached.__set_name__(MixBlock, attr)
            setattr(MixBlock, attr, cached)
        else:
            probe.missing.append(f"MixBlock.{attr}")
    # Programs and their blocks are frozen dataclasses used as dict keys;
    # hashing one hashes every instruction in it.
    for cls, name in ((LoopProgram, "isa.program_hash"),
                      (MixBlock, "isa.block_hash")):
        cls.__hash__ = _timed(cls.__hash__, name, probe, False)

    def accessed(args, hit):
        count("caches.accesses")
        if not hit:
            count("caches.misses")

    _method(SetAssociativeCache, "access", "caches.access", probe, keep=False,
            after=accessed)
    for attr in ("load", "flush_line", "probe_latency"):
        _method(MemoryHierarchy, attr, f"caches.{attr}", probe, keep=False)


def _size(path) -> int:
    try:
        return os.stat(path).st_size
    except OSError:
        return 0


def layer_of(span: str) -> str:
    for sub in ("frontend.dsb", "frontend.lsd"):
        if span.startswith(sub + "."):
            return sub
    return span.split(".", 1)[0]


def layer_metrics(summary: dict, *, window: tuple[float, float],
                  client: dict, overhead_x: float, progress: dict) -> dict:
    """Per-layer metrics of one traced pass.

    ``summary`` is :meth:`Probe.summary` as the launcher wrote it,
    ``window`` the pass's wall interval (first submit to last result,
    on the same monotonic clock), ``client`` the client-side frame
    timings, ``progress`` counts taken from the sweep's progress events.
    """
    from tracer import covered

    aggregates = summary["aggregates"]
    counters = summary["counters"]
    self_s = Counter()
    calls = Counter()
    for name, agg in aggregates.items():
        self_s[layer_of(name)] += agg["self_s"]
        calls[name] = agg["count"]

    def total(name: str) -> float:
        return aggregates.get(name, {}).get("total_s", 0.0)

    def med(values) -> float:
        return median(values) if values else 0.0

    points = counters.get("scheduler.points", 0)
    hits = sum(counters.get(f"scheduler.hits.{source}", 0)
               for source in ("memory", "disk", "inflight"))
    uops = sum(counters.get(f"frontend.uops.{path}", 0)
               for path in ("mite", "dsb", "lsd"))
    frontend_busy = total("frontend.run_loop") + total("frontend.run_iteration")
    lo, hi = window
    metrics = {
        "wire.submit_ack_ms": med(client.get("submit_ack_ms", [])),
        "auth.calls": calls["auth.authenticate"] + calls["auth.admit_submit"],
        "auth.denied": counters.get("auth.denied", 0),
        "queue.wait_ms": med(client.get("queue_wait_ms", [])),
        "wal.appends": counters.get("wal.appends", 0),
        "wal.bytes": counters.get("wal.bytes", 0),
        "scheduler.claims": calls["scheduler.claim"],
        "scheduler.hits.memory": counters.get("scheduler.hits.memory", 0),
        "scheduler.hits.disk": counters.get("scheduler.hits.disk", 0),
        "scheduler.hits.inflight": counters.get("scheduler.hits.inflight", 0),
        "scheduler.hit_ratio": hits / points if points else 0.0,
        "cache.loads": calls["cache.load"],
        "cache.load_hits": counters.get("cache.load_hits", 0),
        "cache.load_s": total("cache.load"),
        "cache.stores": calls["cache.store"],
        "cache.store_s": total("cache.store"),
        "exec.batches": counters.get("exec.batches", 0),
        "exec.points": counters.get("exec.points", 0),
        "exec.busy_s": total("exec.compute"),
        "cluster.shards": progress.get("shards", 0),
        "cluster.requeued": progress.get("requeued", 0),
        "cluster.shard_ms": med(summary["samples"].get("cluster.shard_ms", [])),
        "scenarios.trials": counters.get("scenarios.trials", 0),
        "channels.transmits": sum(count for name, count in calls.items()
                                  if name.startswith("channels.")
                                  and name.endswith(".transmit")),
        "machine.run_loops": calls["machine.run_loop"] + calls["machine.run_smt"],
        "frontend.run_loops": calls["frontend.run_loop"],
        "frontend.uops.mite": counters.get("frontend.uops.mite", 0),
        "frontend.uops.dsb": counters.get("frontend.uops.dsb", 0),
        "frontend.uops.lsd": counters.get("frontend.uops.lsd", 0),
        "frontend.sim_uops_per_host_s": uops / frontend_busy if frontend_busy else 0.0,
        "isa.geometry_calls": sum(calls[f"isa.{attr}"] for attr in ISA_GEOMETRY),
        "isa.program_hashes": calls["isa.program_hash"] + calls["isa.block_hash"],
        "caches.accesses": counters.get("caches.accesses", 0),
        "caches.misses": counters.get("caches.misses", 0),
        "unattributed_s": (hi - lo) - covered(summary["roots"], lo, hi),
        "trace.overhead_x": overhead_x,
    }
    for layer in SELF_LAYERS:
        metrics[f"{layer}.self_s"] = self_s[layer]
    return {name: metrics[name] for name, _ in PER_LAYER}

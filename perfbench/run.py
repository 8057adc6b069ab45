"""End-to-end benchmark of the sweep program: paper grids, scenarios, a
cache-warm multi-tenant mix through ``serve``, and a cluster sweep.

    python3 perfbench/run.py --workload paper-grid --seed 0 --seconds 10 --trace 0

Run from the root of a checkout (the program's ``src`` must be there).
Each run builds its workload from ``--seed``, computes the expected
results in-process (``ParameterSweep.run`` on ``SerialExecutor``), then
runs passes against the unmodified program for ``--seconds``: every
pass launches a fresh ``python -m repro serve`` (or ``sweep``), drives
it from one process with one closed-loop connection per tenant, checks
every job's rows against the expected ones and stops the server.

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` runs three
plain passes and then one pass under ``launch.py``, which times calls
into each layer, and prints the per-layer metrics plus the tracing
overhead; the Chrome trace of that pass is written under
``.perfbench/out``.  The last line of standard output is one JSON
object: ``{"correct", "attempted", "failed", "metrics"}``.  See
README.md.
"""

from __future__ import annotations

import argparse
import ast
import asyncio
import itertools
import json
import math
import os
import platform
import shutil
import signal
import socket
import statistics
import subprocess
import sys
import threading
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import workloads  # noqa: E402
from layers import PER_LAYER, layer_metrics  # noqa: E402

clock = time.perf_counter

#: End-to-end metrics: every workload reports every one of them.
END_TO_END = (
    ("setup_s", "s"),
    ("points_per_s", "1/s"),
    ("job_gmean_ms", "ms"),
    ("server_peak_rss_mb", "MB"),
)

#: Server launches per run that only answer a ping, on top of one per
#: pass, so ``setup_s`` is a median of several set-ups.  They are spread
#: between the passes, so they sample the host over the whole run, not in
#: one burst.  One more launch before them is discarded: it pays for the
#: page cache and the .pyc files left cold by the in-process reference.
SETUP_LAUNCHES = 10
SETUP_LAUNCHES_PER_PASS = 2

#: A traced run alternates this many plain serve passes with as many
#: warm in-process runs of the same jobs, then makes one traced pass.
PLAIN_PASSES_TRACED = 3

TOKENS = {"tenant-a": "perfbench-token-a", "tenant-b": "perfbench-token-b"}


def table3_paper_kbps() -> dict:
    """Legible Kbps cells of the paper's Table III, (row, machine) -> Kbps,
    read from ``PAPER`` in ``benchmarks/test_table3_rates.py`` so the
    figures live in one place."""
    path = os.path.join(ROOT, "benchmarks", "test_table3_rates.py")
    with open(path, encoding="utf-8") as handle:
        tree = ast.parse(handle.read(), path)
    for node in tree.body:
        if (isinstance(node, ast.Assign) and len(node.targets) == 1
                and getattr(node.targets[0], "id", None) == "PAPER"):
            return {cell: kbps for cell, (kbps, _error)
                    in ast.literal_eval(node.value).items()}
    raise LookupError(f"no PAPER table in {path}")


#: Bound on any single wait for the program (a frame, a launch, an exit).
WAIT_S = 60.0


def percentile(samples, q: float, min_beyond: int = 10) -> float:
    """Nearest-rank ``q``-th percentile, refused (ValueError) unless at
    least ``min_beyond`` samples lie beyond it."""
    ordered = sorted(samples)
    rank = max(1, math.ceil(q / 100 * len(ordered)))
    if len(ordered) - rank < min_beyond:
        raise ValueError(
            f"p{q:g} of {len(ordered)} samples has {len(ordered) - rank} "
            f"beyond it; need {min_beyond}")
    return ordered[rank - 1]


# ----------------------------------------------------------------------
# the program's processes
# ----------------------------------------------------------------------
def program_env() -> dict:
    env = dict(os.environ)
    src = os.path.join(ROOT, "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"]
                               if env.get("PYTHONPATH") else "")
    return env


def program_cmd(args: list[str], trace_prefix: str | None) -> list[str]:
    if trace_prefix is None:
        return [sys.executable, "-m", "repro", *args]
    return [sys.executable, os.path.join(HERE, "launch.py"), trace_prefix,
            *args]


def vm_hwm_mb(pid: int) -> float:
    """Peak resident set of a live process, from /proc."""
    with open(f"/proc/{pid}/status", encoding="ascii") as handle:
        for line in handle:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024
    raise OSError(f"no VmHWM for pid {pid}")


def stop(proc: subprocess.Popen) -> int:
    if proc.poll() is None:
        proc.send_signal(signal.SIGINT)
    try:
        return proc.wait(timeout=WAIT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        return proc.wait()


class Server:
    """One ``serve`` process with a fresh state dir, cache dir and socket."""

    def __init__(self, workdir: str, auth_path: str,
                 trace_prefix: str | None = None,
                 warm_cache: str | None = None) -> None:
        os.makedirs(workdir)
        self.socket = os.path.join(workdir, "s.sock")
        cache = os.path.join(workdir, "cache")
        if warm_cache is not None:
            shutil.copytree(warm_cache, cache)
        args = ["serve", "--socket", self.socket,
                "--state-dir", os.path.join(workdir, "state"),
                "--cache-dir", cache, "--auth", auth_path]
        self.log_path = os.path.join(workdir, "serve.log")
        self.log = open(self.log_path, "wb")
        started = clock()
        self.proc = subprocess.Popen(
            program_cmd(args, trace_prefix), cwd=ROOT, env=program_env(),
            stdin=subprocess.DEVNULL, stdout=self.log, stderr=subprocess.STDOUT)
        try:
            self.setup_s = self._ping_until_ready() - started
        except RuntimeError as exc:
            code = stop(self.proc)
            raise self._failure(f"{exc} (exit code {code})") from None
        except BaseException:
            stop(self.proc)
            self.log.close()
            raise

    def _ping_until_ready(self) -> float:
        request = json.dumps({"op": "ping", "token": TOKENS["tenant-a"]})
        deadline = clock() + WAIT_S
        while clock() < deadline:
            if self.proc.poll() is not None:
                raise RuntimeError(f"serve exited with {self.proc.returncode}"
                                   f" before answering a ping")
            try:
                with socket.socket(socket.AF_UNIX) as conn:
                    conn.settimeout(max(0.01, deadline - clock()))
                    conn.connect(self.socket)
                    conn.sendall(request.encode() + b"\n")
                    reply = conn.makefile("rb").readline()
                if json.loads(reply).get("event") == "pong":
                    return clock()
            except (OSError, ValueError):
                pass
            time.sleep(0.002)
        raise RuntimeError("serve did not answer a ping in time")

    def close(self) -> float:
        """Stop the server; returns its peak RSS (MB), read just before."""
        try:
            rss = vm_hwm_mb(self.proc.pid)
        except OSError:
            rss = 0.0
        code = stop(self.proc)
        if code != 0:
            raise self._failure(f"serve exited with {code} after SIGINT")
        self.log.close()
        return rss

    def _failure(self, what: str) -> RuntimeError:
        """``what``, with the end of the server's log: the work directory
        is removed when the run ends."""
        self.log.close()
        with open(self.log_path, encoding="utf-8", errors="replace") as log:
            tail = log.read()[-4000:]
        return RuntimeError(f"{what}; serve log ends:\n{tail}")


async def submit(sock: str, token: str, spec: dict, record: dict) -> None:
    """One closed-loop submission; fills ``record`` with frame times."""
    reader, writer = await asyncio.open_unix_connection(sock, limit=1 << 24)
    try:
        record["sent"] = clock()
        writer.write(json.dumps({"op": "submit", "spec": spec,
                                 "token": token}).encode() + b"\n")
        await writer.drain()
        while True:
            line = await asyncio.wait_for(reader.readline(), WAIT_S)
            now = clock()
            if not line:
                record["error"] = "connection closed before job-done"
                return
            frame = json.loads(line)
            kind = frame.get("event")
            if kind in ("submitted", "scheduled"):
                record.setdefault(kind, now)
            elif kind in ("deny", "quota-exceeded", "error"):
                record["error"] = f"{kind}: {frame.get('message')}"
                return
            elif kind == "job-done":
                record["done"] = now
                record["frame"] = frame
                return
    finally:
        writer.close()
        try:
            await writer.wait_closed()
        except OSError:
            pass


async def drive(sock: str, jobs: list) -> list[dict]:
    """Each tenant submits its jobs in order, waiting for each job-done."""
    records = [{} for _ in jobs]

    async def tenant(name: str) -> None:
        for index, job in enumerate(jobs):
            if job.tenant == name:
                try:
                    await submit(sock, TOKENS[name], job.spec, records[index])
                except (OSError, ValueError, asyncio.TimeoutError) as exc:
                    records[index]["error"] = f"{type(exc).__name__}: {exc}"

    await asyncio.gather(*(tenant(name) for name in workloads.TENANTS))
    return records


# ----------------------------------------------------------------------
# reference results and passes
# ----------------------------------------------------------------------
def reference(workload: str, jobs: list, warm_cache: str | None) -> list:
    """Expected output of every job, computed in this process.  With
    ``warm_cache`` set, the warm jobs' points are stored there."""
    from repro.exec import ResultCache, SerialExecutor
    from repro.service.spec import load_spec

    expected = []
    for job in jobs:
        # service-mix set-up: warm jobs' points land in the disk cache
        # every pass starts from.
        cache = ResultCache(warm_cache) if job.warm and warm_cache else None
        table = load_spec(job.spec).build_sweep().run(
            executor=SerialExecutor(), cache=cache)
        if workload == "cluster-sweep":
            expected.append(table.render(precision=3))
        else:
            expected.append(json.loads(json.dumps(table.rows())))
    return expected


def serve_pass(workdir: str, auth_path: str, jobs: list, expected: list,
               trace_prefix: str | None, warm_cache: str | None) -> dict:
    server = Server(workdir, auth_path, trace_prefix, warm_cache)
    try:
        records = asyncio.run(drive(server.socket, jobs))
    finally:
        rss = server.close()
    for record, rows in zip(records, expected):
        frame = record.get("frame")
        if "error" not in record and (frame.get("status") != "ok"
                                      or frame.get("rows") != rows):
            record["error"] = f"wrong result (status {frame.get('status')})"
    ok = [r for r in records if "error" not in r]
    first = min((r["sent"] for r in records if "sent" in r), default=0.0)
    last = max((r["done"] for r in ok), default=first)
    points = sum(r["frame"].get("points", 0) for r in ok)
    return {"setup_s": server.setup_s, "rss_mb": rss, "records": records,
            "window": (first, last), "points": points,
            "points_per_s": points / (last - first) if last > first else 0.0}


def sweep_pass(workdir: str, job, expected: str,
               trace_prefix: str | None) -> dict:
    os.makedirs(workdir)
    args = ["sweep", "--workers", "2", "--no-cache", "--progress", *job.argv]
    events: list[tuple[float, dict]] = []
    out: list[bytes] = []
    started = clock()
    proc = subprocess.Popen(program_cmd(args, trace_prefix), cwd=workdir,
                            env=program_env(), stdin=subprocess.DEVNULL,
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE)

    def read_progress() -> None:
        for line in proc.stderr:
            now = clock()
            try:
                events.append((now, json.loads(line)))
            except ValueError:
                continue  # the closing "cluster: ..." summary line

    def read_table() -> None:
        out.append(proc.stdout.read())
        out.append(clock())  # stdout closes as the process exits

    readers = [threading.Thread(target=read_progress),
               threading.Thread(target=read_table)]
    for reader in readers:
        reader.start()
    # The sweep exits on its own, so its peak RSS is sampled while it
    # lives.  (wait4's ru_maxrss cannot stand in: on Linux it also counts
    # this process's resident set, inherited at fork.)
    rss = 0.0
    deadline = started + WAIT_S
    while proc.poll() is None and clock() < deadline:
        try:
            rss = max(rss, vm_hwm_mb(proc.pid))
        except OSError:
            pass  # exited between poll() and the read
        time.sleep(0.01)
    if proc.poll() is None:
        proc.kill()
    code = proc.wait()
    for reader in readers:
        reader.join()
    ended = out[1]
    record = {"sent": started, "done": ended,
              "frame": {"points": len(workloads.CLUSTER_D)
                        * len(workloads.CLUSTER_P) * workloads.CLUSTER_TRIALS,
                        "computed": 1}}
    table = out[0].decode()
    if code != 0 or expected not in table:
        record["error"] = (f"sweep exited {code}; table matches: "
                           f"{expected in table}")
    points = record["frame"]["points"]
    kinds = [event.get("event") for _, event in events]
    first = events[0][0] if events else ended
    if "error" in record:
        points = 0
    return {
        "setup_s": first - started, "rss_mb": rss, "records": [record],
        "window": (first, ended), "points": points,
        "points_per_s": points / (ended - first) if points else 0.0,
        "progress": {
            "shards": len({event.get("shard") for _, event in events
                           if event.get("event") == "shard-dispatched"}),
            "requeued": kinds.count("shard-requeued"),
        },
    }


# ----------------------------------------------------------------------
# metrics
# ----------------------------------------------------------------------
def latency_ms(record: dict) -> float:
    return (record["done"] - record["sent"]) * 1e3


def pooled_rate(passes: list[dict]) -> float:
    """Points of all passes over the summed length of their windows.  On
    a host whose speed wanders from second to second, this averages over
    all the measured time; a median of a few passes keeps one of them."""
    points = sum(p["points"] for p in passes)
    seconds = sum(p["window"][1] - p["window"][0] for p in passes)
    return points / seconds if seconds > 0 else 0.0


def end_to_end(passes: list[dict], setups: list[float]) -> dict:
    ok = [r for p in passes for r in p["records"] if "error" not in r]
    # A workload's jobs differ in cost by up to 1000x and their median
    # falls in a gap between job kinds, so it jumps when two jobs swap
    # places; the geometric mean moves smoothly with every job.
    values = {
        "setup_s": (statistics.median, setups),
        "points_per_s": (pooled_rate, passes),
        "job_gmean_ms": (statistics.geometric_mean,
                         [latency_ms(r) for r in ok]),
        "server_peak_rss_mb": (statistics.median,
                               [p["rss_mb"] for p in passes]),
    }
    metrics = {}
    for name, unit in END_TO_END:
        summary, samples = values[name]
        metrics[name] = {"value": summary(samples) if samples else 0.0,
                         "unit": unit, "n": len(samples)}
    return metrics


def workload_extras(workload: str, jobs: list, passes: list[dict]) -> dict:
    """Metrics outside BENCHMARK.json: see README.md for why."""
    ok = [r for p in passes for r in p["records"] if "error" not in r]
    extras = {"job_p50_ms": _median([latency_ms(r) for r in ok], "ms")}
    if workload == "service-mix":
        hits = [latency_ms(r) for r in ok if r["frame"].get("computed") == 0]
        misses = [latency_ms(r) for r in ok if r["frame"].get("computed")]
        extras["hit_p50_ms"] = _median(hits, "ms")
        try:
            extras["hit_p95_ms"] = {"value": percentile(hits, 95), "unit": "ms",
                                    "n": len(hits)}
        except ValueError as exc:
            extras["hit_p95_ms"] = {"value": None, "unit": "ms",
                                    "n": len(hits), "refused": str(exc)}
        extras["miss_p50_ms"] = _median(misses, "ms")
    if workload == "paper-grid":
        paper_kbps = table3_paper_kbps()
        errors = []
        for job, record in zip(jobs, passes[-1]["records"]):
            kind, _, cell = job.spec["label"].partition("/")
            machine, _, row = cell.partition("/")
            paper = paper_kbps.get((row, machine))
            if kind == "table3" and paper is not None and "error" not in record:
                kbps = record["frame"]["rows"][0]["kbps_mean"]
                errors.append(abs(kbps - paper) / paper)
        extras["table3_kbps_err"] = {
            "value": statistics.fmean(errors) if errors else None,
            "unit": "share", "n": len(errors)}
    return extras


def _median(values: list[float], unit: str) -> dict:
    return {"value": statistics.median(values) if values else None,
            "unit": unit, "n": len(values)}


def host_metadata(seed: int) -> dict:
    import numpy

    from repro.frontend.backends import default_backend_name

    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
            text=True, timeout=10, check=True).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        commit = "unknown (not a git checkout)"
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {"python": platform.python_version(), "numpy": numpy.__version__,
            "nproc": os.cpu_count(), "cpu": cpu,
            "backend": default_backend_name(), "commit": commit,
            "seed": seed}


# ----------------------------------------------------------------------
def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(ROOT, "src", "repro", "cli.py")):
        print(f"perfbench: no program at {ROOT}/src/repro; run from the root "
              f"of a checkout", file=sys.stderr)
        return 2
    os.chdir(ROOT)
    sys.path.insert(0, os.path.join(ROOT, "src"))
    # Servers are stopped with SIGINT.  A shell that starts this run in
    # the background leaves SIGINT ignored, and an ignored signal stays
    # ignored across exec; a handled one is reset to the default, which
    # lets each server's Python turn it into KeyboardInterrupt.
    signal.signal(signal.SIGINT, signal.default_int_handler)

    # Relative paths keep the Unix socket path short.
    work = os.path.join(".perfbench", f"run-{os.getpid()}")
    out_dir = os.path.join(".perfbench", "out")
    os.makedirs(work)
    os.makedirs(out_dir, exist_ok=True)
    try:
        return run(args, work, out_dir)
    finally:
        shutil.rmtree(work, ignore_errors=True)


def run(args, work: str, out_dir: str) -> int:
    jobs = workloads.build(args.workload, args.seed)
    host = host_metadata(args.seed)
    warm_cache = os.path.join(work, "warm-cache")
    setup_started = clock()
    expected = reference(args.workload, jobs, warm_cache)
    reference_s = clock() - setup_started
    auth_path = os.path.join(work, "auth.json")
    with open(auth_path, "w", encoding="utf-8") as handle:
        json.dump({"tokens": {token: {"name": name}
                              for name, token in TOKENS.items()}}, handle)
    warm = warm_cache if os.path.isdir(warm_cache) else None
    tag = f"{args.workload}-seed{args.seed}"
    counter = itertools.count()

    def one_pass(trace_prefix: str | None = None) -> dict:
        workdir = os.path.join(work, f"p{next(counter)}")
        if args.workload == "cluster-sweep":
            return sweep_pass(workdir, jobs[0], expected[0], trace_prefix)
        return serve_pass(workdir, auth_path, jobs, expected, trace_prefix,
                          warm)

    setups = []

    def launch_only(count: int) -> None:
        for _ in range(count):
            server = Server(os.path.join(work, f"p{next(counter)}"), auth_path)
            setups.append(server.setup_s)
            server.close()

    serving = args.workload != "cluster-sweep"
    if serving:
        launch_only(1)
        del setups[0]

    passes = []
    inprocess_s = []
    started = clock()
    if args.trace:
        for _ in range(PLAIN_PASSES_TRACED):
            if args.workload in ("paper-grid", "scenarios"):
                # The same jobs in this process, warm: the serve path's
                # overhead is this figure against the plain passes'.
                again = clock()
                if reference(args.workload, jobs, None) != expected:
                    raise RuntimeError("in-process rerun disagrees with the "
                                       "first in-process run")
                inprocess_s.append(clock() - again)
            passes.append(one_pass())
        prefix = os.path.abspath(os.path.join(out_dir, tag))
        passes.append(one_pass(prefix))
    else:
        # About --seconds of passes: no pass starts that would end more
        # than half a pass after it.  The set-up launches are extra.
        pass_s = last_s = 0.0
        while not passes or pass_s + last_s / 2 < args.seconds:
            if serving:
                launch_only(min(SETUP_LAUNCHES_PER_PASS,
                                SETUP_LAUNCHES - len(setups)))
            began = clock()
            passes.append(one_pass())
            last_s = clock() - began
            pass_s += last_s
    if serving and not args.trace:
        launch_only(SETUP_LAUNCHES - len(setups))
    measured_s = clock() - started
    setups += [p["setup_s"] for p in passes]

    records = [r for p in passes for r in p["records"]]
    attempted = len(records)
    failed = sum("error" in r for r in records)
    # A traced run's last pass is slowed by tracing: its latencies stay out.
    plain = passes[:-1] if args.trace else passes
    plain_rate = pooled_rate(plain)
    extras = {"failed_share": {"value": failed / attempted, "unit": "share",
                               "n": attempted},
              **workload_extras(args.workload, jobs, plain)}
    if inprocess_s:
        points = sum(r["frame"].get("points", 0) for r in plain[0]["records"]
                     if "error" not in r)
        extras["inprocess_points_per_s"] = {
            "value": points * len(inprocess_s) / sum(inprocess_s),
            "unit": "1/s",
            "n": len(inprocess_s)}
        extras["plain_points_per_s"] = {"value": plain_rate, "unit": "1/s",
                                        "n": len(plain)}
    if args.trace:
        traced = passes[-1]
        with open(prefix + ".summary.json", encoding="utf-8") as handle:
            summary = json.load(handle)
        ok = [r for r in traced["records"] if "error" not in r]
        client = {
            "submit_ack_ms": [(r["submitted"] - r["sent"]) * 1e3
                              for r in ok if "submitted" in r],
            "queue_wait_ms": [(r["scheduled"] - r["submitted"]) * 1e3
                              for r in ok if "scheduled" in r],
        }
        overhead = (plain_rate / traced["points_per_s"]
                    if traced["points_per_s"] else 0.0)
        values = layer_metrics(summary, window=traced["window"], client=client,
                               overhead_x=overhead,
                               progress=traced.get("progress", {}))
        units = dict(PER_LAYER)
        metrics = {name: {"value": value, "unit": units[name]}
                   for name, value in values.items()}
        extras["trace_file"] = prefix + ".trace.json"
        extras["missing_targets"] = summary["missing_targets"]
    else:
        metrics = end_to_end(passes, setups)

    print(f"perfbench {args.workload} seed={args.seed} trace={args.trace}: "
          f"{len(passes)} pass(es) in {measured_s:.1f}s after "
          f"{reference_s:.1f}s of in-process reference; "
          f"{attempted} jobs, {failed} failed")
    for record in records:
        if "error" in record:
            print(f"  failed: {record['error']}")
    print("host " + json.dumps(host, sort_keys=True))
    for name, metric in {**metrics, **extras}.items():
        if isinstance(metric, dict):
            n = f" (n={metric['n']})" if "n" in metric else ""
            print(f"{name} {metric['value']} {metric['unit']}{n}"
                  + (f" [{metric['refused']}]" if "refused" in metric else ""))
        else:
            print(f"{name} {metric}")
    with open(os.path.join(out_dir, f"{tag}-trace{args.trace}.json"), "w",
              encoding="utf-8") as handle:
        json.dump({"workload": args.workload, "host": host,
                   "attempted": attempted, "failed": failed,
                   "metrics": metrics, "extras": extras,
                   "setups_s": setups,
                   "passes": [{k: p[k] for k in ("setup_s", "rss_mb",
                                                 "points_per_s")}
                              for p in passes]}, handle, indent=1)
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": m["value"], "unit": m["unit"]}
                    for name, m in metrics.items()},
    }
    print(json.dumps(result))
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())

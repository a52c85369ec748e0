"""Service benchmark: drive ``repro serve`` through ``ServiceClient``.

Run from the repository root::

    python3 svcbench/run.py --workload cold --seed 1 --seconds 25 --trace 0

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` replays the
workload once more with spans around each layer and prints the
per-layer metrics instead.  The last line of standard output is one
JSON object: ``{"correct", "attempted", "failed", "metrics"}``.  See
README.md for the workloads, the metrics and reference figures.
"""

from __future__ import annotations

import argparse
import http.client
import json
import os
import shutil
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional

ROOT = Path(__file__).resolve().parent.parent
#: server starts per run; ``setup_s`` is their median
SETUP_STARTS = 3
#: a job that has not finished after this long fails the run (s)
JOB_TIMEOUT_S = 120.0
#: repetitions of the calibration loop (~0.15 s on an idle 2-CPU VM)
CALIBRATION_ROUNDS = 5


def _require_program() -> None:
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        sys.stderr.write(
            f"error: no repro package under {ROOT / 'src'}; run the "
            "benchmark from a checkout of the repository\n"
        )
        sys.exit(2)
    for path in (str(ROOT / "src"), str(ROOT)):
        if path not in sys.path:
            sys.path.insert(0, path)


# ----------------------------------------------------------------------
# environment record


def calibration_s() -> float:
    """Time of a fixed CPU-bound loop (pure Python plus small solves).

    Not a metric of the program: it shows whether a run fell in a slow
    phase of the machine.
    """
    import numpy as np

    rng = np.random.default_rng(0)
    matrix = rng.standard_normal((64, 64)) + 64 * np.eye(64)
    rhs = rng.standard_normal(64)
    t0 = time.perf_counter()
    for _ in range(CALIBRATION_ROUNDS):
        total = 0
        for i in range(200_000):
            total += i * i
        for _ in range(200):
            np.linalg.solve(matrix, rhs)
    return time.perf_counter() - t0


def cpu_ticks():
    """(steal, total) clock ticks of all CPUs, from ``/proc/stat``."""
    with open("/proc/stat", encoding="ascii") as stat:
        fields = [int(x) for x in stat.readline().split()[1:]]
    return fields[7], sum(fields)


def steal_share(before, after) -> float:
    """Share of CPU time the hypervisor gave to others in between."""
    total = after[1] - before[1]
    return (after[0] - before[0]) / total if total else 0.0


def environment() -> dict:
    return {
        "cpu_count": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "loadavg": list(os.getloadavg()),
        "blas_threads": {
            name: os.environ.get(name)
            for name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                         "MKL_NUM_THREADS")
        },
        "calibration_s": calibration_s(),
        "python": sys.version.split()[0],
    }


# ----------------------------------------------------------------------
# the timed phase


@dataclass
class Tally:
    """What the client threads observed, checked as they went."""

    latencies: Dict[str, List[float]] = field(default_factory=dict)
    attempted: int = 0
    failed: int = 0
    done: int = 0
    violations: List[str] = field(default_factory=list)
    #: detectable sets of the cold ε variants, by ε
    eps_sets: list = field(default_factory=list)
    #: tolerance answers grouped by Monte Carlo seed
    groups: Dict[str, list] = field(default_factory=dict)
    rounds: int = 0
    #: share of CPU time stolen by the hypervisor during the phase
    steal: float = 0.0
    lock: threading.Lock = field(default_factory=threading.Lock)


def _judge(workload, op, view, tally: Tally) -> None:
    """Check one successful answer; record what group checks need."""
    from svcbench import checks

    result = view["result"]
    if workload.name == "replay":
        if not view.get("from_cache"):
            raise checks.CheckError(
                f"replay: {op.kind} was not answered from the job-record cache"
            )
        if result != workload.fill_results[op.ref]:
            raise checks.CheckError(
                f"replay: {op.kind} answer differs from the fill's answer"
            )
        return
    checks.check_answer(op.kind, op.params, result)
    if op.ref is not None:
        checks.check_matches_fill(op.kind, result, workload.fill_results[op.ref])
    if op.group == "eps":
        keep = {"dataset": {"epsilon": result["dataset"]["epsilon"],
                            "results": result["dataset"]["results"]}}
        with tally.lock:
            tally.eps_sets.append(keep)
    elif op.group is not None:
        with tally.lock:
            tally.groups.setdefault(op.group, []).append(result)


def _client_loop(url, workload, first_round, stride, deadline, tally,
                 after_first_round=None) -> None:
    from repro.errors import ReproError
    from repro.service import ServiceClient
    from svcbench import checks

    client = ServiceClient(url, timeout=JOB_TIMEOUT_S)
    index = first_round
    while True:
        for op in workload.round(index):
            t0 = time.perf_counter()
            try:
                job = client.submit(op.kind, op.params)
                view = client.wait(
                    job["id"], timeout=JOB_TIMEOUT_S, poll_s=workload.poll_s
                )
            except (ReproError, OSError, http.client.HTTPException) as exc:
                view = {"state": "error", "error": repr(exc)}
            latency = time.perf_counter() - t0
            ok = view["state"] == "done"
            with tally.lock:
                tally.attempted += 1
                if ok:
                    tally.done += 1
                    tally.latencies.setdefault(op.kind, []).append(latency)
                else:
                    tally.failed += 1
            if not ok:
                if not op.expect_failure:
                    sys.stderr.write(
                        f"unexpected failure: {op.kind} {op.params}: "
                        f"{view.get('error')}\n"
                    )
                continue
            try:
                _judge(workload, op, view, tally)
            except (checks.CheckError, KeyError, TypeError, IndexError) as exc:
                # a malformed answer violates the method as much as a
                # wrong one
                with tally.lock:
                    tally.violations.append(f"{op.kind}: {exc!r}")
        with tally.lock:
            tally.rounds += 1
        if after_first_round is not None and index == first_round:
            after_first_round()
        index += stride
        if time.perf_counter() >= deadline:
            return


def run_fill(url: str, workload) -> None:
    """The untimed pass: compute and check every fill identity."""
    from repro.service import ServiceClient
    from svcbench import checks

    client = ServiceClient(url, timeout=JOB_TIMEOUT_S)
    for op in workload.fill:
        job = client.submit(op.kind, op.params)
        view = client.wait(job["id"], timeout=JOB_TIMEOUT_S,
                           poll_s=workload.poll_s)
        if view["state"] != "done":
            raise RuntimeError(f"fill job {op.name} failed: {view.get('error')}")
        result = view["result"]
        checks.check_answer(op.kind, op.params, result)
        if op.ref is not None:
            checks.check_matches_fill(op.kind, result, workload.fill_results[op.ref])
        workload.fill_results[op.name] = result


def prepare(workload, work: Path, log: Path):
    """Fill the cache (if the workload has a fill) and time the starts.

    Returns ``(server, setup_samples)`` with the last server running.
    """
    from svcbench.server import Server

    cache = work / "cache"
    setups = []
    if workload.fill:
        server = Server(ROOT, cache, log)
        server.start()
        try:
            run_fill(server.url, workload)
        finally:
            server.stop()
    for index in range(SETUP_STARTS - 1):
        # cold starts on an empty directory of their own, the others on
        # the filled cache the timed phase will use
        directory = cache if workload.fill else work / f"empty{index}"
        server = Server(ROOT, directory, log)
        setups.append(server.start())
        server.stop()
    server = Server(ROOT, cache, log)
    setups.append(server.start())
    return server, setups


def timed_phase(server, workload, seconds: float):
    from repro.service import ServiceClient
    from svcbench.server import dir_bytes

    client = ServiceClient(server.url)
    solves_before = client.metrics().get("repro_campaign_solves", 0.0)
    tally = Tally()
    snapshot = {}

    def after_first_round():
        # the cache after one round has a fixed content, unlike the
        # cache at the end of a run, which grows with the rounds the
        # machine's speed allowed
        snapshot["cache_bytes"] = dir_bytes(server.cache_dir)

    ticks = cpu_ticks()
    errors = []

    def run_client(index):
        try:
            _client_loop(server.url, workload, index, workload.clients,
                         deadline, tally,
                         after_first_round if index == 0 else None)
        except BaseException as exc:
            errors.append(exc)
            raise

    t0 = time.perf_counter()
    deadline = t0 + seconds
    threads = [threading.Thread(target=run_client, args=(index,))
               for index in range(workload.clients)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    wall = time.perf_counter() - t0
    if errors:
        raise RuntimeError("a client thread failed") from errors[0]
    tally.steal = steal_share(ticks, cpu_ticks())
    solves = client.metrics().get("repro_campaign_solves", 0.0) - solves_before
    return tally, wall, solves, snapshot["cache_bytes"]


def end_to_end(workload, seconds: float, work: Path) -> dict:
    from svcbench import checks
    from svcbench.stats import median, percentile

    log = work / "server.log"
    server, setups = prepare(workload, work, log)
    try:
        tally, wall, solves, cache_bytes = timed_phase(server, workload, seconds)
        rss_mb = server.peak_rss_mb()
    finally:
        server.stop()

    if workload.name in ("reuse", "replay") and solves != 0:
        tally.violations.append(
            f"zero solves: repro_campaign_solves grew by {solves:g}"
        )
    if len(tally.eps_sets) > 1:
        try:
            checks.check_eps_monotone(tally.eps_sets)
        except checks.CheckError as exc:
            tally.violations.append(str(exc))
    for group in tally.groups.values():
        try:
            checks.check_tolerance_group(group)
        except checks.CheckError as exc:
            tally.violations.append(str(exc))

    every = [x for values in tally.latencies.values() for x in values]
    metrics = {
        "setup_s": (median(setups), "s"),
        "jobs_per_s": (tally.done / wall, "jobs/s"),
    }
    for kind in ("faultsim", "diagnose", "tolerance"):
        metrics[f"{kind}_p50_ms"] = (1e3 * median(tally.latencies[kind]), "ms")
    metrics["latency_p90_ms"] = (1e3 * percentile(every, 90.0), "ms")
    metrics["server_rss_mb"] = (rss_mb, "MB")
    metrics["cache_mb"] = (cache_bytes / 2**20, "MB")
    info = {
        "workload": workload.name,
        "seed": workload.seed,
        "rounds": tally.rounds,
        "jobs": {kind: len(v) for kind, v in tally.latencies.items()},
        "wall_s": wall,
        "steal_share": tally.steal,
        "poll_s": workload.poll_s,
        "clients": workload.clients,
        "setup_samples_s": setups,
        "campaign_solves": solves,
        "violations": tally.violations[:20],
    }
    return {
        "info": info,
        "correct": not tally.violations,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": metrics,
    }


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    started = time.perf_counter()
    _require_program()

    from svcbench.workloads import WORKLOADS, make_workload

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; expected one of {WORKLOADS}")
    env = environment()
    print(json.dumps({"environment": env}))
    workload = make_workload(args.workload, args.seed)
    work = ROOT / ".svcbench-work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    work.mkdir(parents=True)
    try:
        if args.trace:
            from svcbench.trace import traced_run

            outcome = traced_run(workload, args.seconds, work, ROOT)
        else:
            outcome = end_to_end(workload, args.seconds, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            work.parent.rmdir()
        except OSError:
            pass  # another run's directory is still there
    outcome["info"]["run_s"] = time.perf_counter() - started
    print(json.dumps({"info": outcome["info"]}))
    print(json.dumps({
        "correct": outcome["correct"],
        "attempted": outcome["attempted"],
        "failed": outcome["failed"],
        "metrics": {
            name: {"value": value, "unit": unit}
            for name, (value, unit) in outcome["metrics"].items()
        },
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())

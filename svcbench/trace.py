"""The traced run: per-layer timings of one workload.

Two parts, each given half of the run's seconds (whole rounds only):

* **client part** — the workload's rounds against a live ``repro
  serve``, with every ``ServiceClient`` call timed on its own (submit,
  each poll, the result fetch) and the queue wait read from the
  server's job timestamps;
* **in-process part** — the next rounds replayed in this process
  through the same public functions ``repro.service.jobs.run_*`` and
  the scheduler call, on a copy of the server's cache, with a span
  around each call.  Unit execution and cache access are observed
  through the ``executor`` and ``cache`` arguments the campaign
  functions take; a fault-simulation unit is additionally decomposed
  into its AC sweeps and its Definition-1/2 verdicts, timed apart
  after the unit ran.

Spans are kept in memory and reduced at the end.  A layer's self time
is its spans' time minus that of their child spans.  A layer whose
functions cannot be found is reported as missing (its metrics read
``null``); the jobs that need it are not replayed in-process.
"""

from __future__ import annotations

import http.client
import importlib
import json
import shutil
import subprocess
import sys
import threading
import time
from contextlib import contextmanager
from pathlib import Path
from types import SimpleNamespace
from typing import Dict, List, Optional

#: the public functions each layer's spans wrap, ``module:attribute``
LAYER_FUNCTIONS = {
    "dft": ["repro.service.jobs:resolve_circuit",
            "repro.dft:apply_multiconfiguration"],
    "campaign": ["repro.campaign:plan_campaign", "repro.campaign:execute_plan",
                 "repro.campaign:plan_tolerance_campaign",
                 "repro.campaign:execute_tolerance_plan",
                 "repro.campaign:ResultCache",
                 "repro.campaign:CampaignTelemetry",
                 "repro.campaign.executor:UnitOutcome"],
    "faults": ["repro.faults:deviation_faults", "repro.faults:SimulationSetup",
               "repro.campaign.executor:execute_unit"],
    "analysis": ["repro.analysis:decade_grid", "repro.analysis:ac_analysis"],
    "core": ["repro.core.detectability:evaluate_detectability",
             "repro.core.ndetect:ndetect_cover",
             "repro.core.ndetect:evaluate_cover"],
    "diagnosis": ["repro.diagnosis:deviation_grid",
                  "repro.diagnosis:plan_diagnosis_campaign",
                  "repro.diagnosis:execute_diagnosis_plan",
                  "repro.diagnosis:locate_fault",
                  "repro.faults.model:DeviationFault"],
    "reporting": ["repro.reporting.export:dataset_to_json"],
    "service": ["repro.service.jobs:normalize_params",
                "repro.service.jobs:job_key", "repro.service.jobs:JobRecord",
                "repro.service:ServiceRuntime"],
}
#: layers the in-process replay of each job kind passes through
KIND_LAYERS = {
    "faultsim": ("dft", "campaign", "faults", "analysis", "core",
                 "reporting", "service"),
    "diagnose": ("dft", "campaign", "faults", "analysis", "diagnosis",
                 "service"),
    "tolerance": ("campaign", "faults", "service"),
}
LAYERS = tuple(LAYER_FUNCTIONS)
#: cache subdirectories of a ``repro serve`` cache directory
CACHE_SUBDIRS = ("units", "tolerance", "diagnosis", "jobs")
#: samples of each start-up layer (median reported)
STARTUP_SAMPLES = 3

_IMPORT_PROBE = """
import sys, time
t0 = time.perf_counter()
import repro.cli
from repro.service import ServiceRuntime
ServiceRuntime(cache_dir=sys.argv[1]).close()
print(time.perf_counter() - t0)
"""


def resolve_layers():
    """(namespace of found functions, sorted missing layers)."""
    found, missing = {}, set()
    for layer, names in LAYER_FUNCTIONS.items():
        for dotted in names:
            module_name, attribute = dotted.split(":")
            try:
                found[attribute] = getattr(
                    importlib.import_module(module_name), attribute
                )
            except (ImportError, AttributeError):
                missing.add(layer)
    return SimpleNamespace(**found), sorted(missing)


# ----------------------------------------------------------------------
# spans


class Tracer:
    """In-memory spans: name, interval, parent, job."""

    def __init__(self):
        self.spans: List[dict] = []
        self._stack: List[int] = []

    @contextmanager
    def span(self, name: str, **attrs):
        record = {"name": name, "parent": self._stack[-1] if self._stack else None,
                  "t0": time.perf_counter(), "d": 0.0, **attrs}
        self.spans.append(record)
        self._stack.append(len(self.spans) - 1)
        try:
            yield record
        finally:
            self._stack.pop()
            record["d"] = time.perf_counter() - record["t0"]

    def detached(self, name: str, parent: int, duration: float) -> None:
        """A child timed after its parent ran: counts toward the
        parent's children, not toward any job's covered time."""
        self.spans.append({"name": name, "parent": parent, "d": duration,
                           "detached": True})

    def durations(self, name: str) -> List[float]:
        return [s["d"] for s in self.spans if s["name"] == name]

    def self_times(self) -> List[float]:
        child = [0.0] * len(self.spans)
        for span in self.spans:
            if span["parent"] is not None:
                child[span["parent"]] += span["d"]
        return [max(0.0, s["d"] - c) for s, c in zip(self.spans, child)]


def layer_of(name: str) -> Optional[str]:
    head = name.split(".")[0]
    if head == "jobs":
        return "service"
    return head if head in LAYERS else None


class TracedCache:
    """A ``ResultCache`` seen through spans, hit counts and entry sizes."""

    def __init__(self, cache, tracer: Tracer, counts: dict):
        self.cache = cache
        self.tracer = tracer
        self.counts = counts

    def _size(self, key: str) -> None:
        try:
            self.counts["entry_bytes"].append(self.cache.path_for(key).stat().st_size)
        except OSError:
            pass

    def get(self, key: str):
        with self.tracer.span("campaign.cache_get"):
            value = self.cache.get(key)
        self.counts["lookups"] += 1
        if value is not None:
            self.counts["hits"] += 1
            self._size(key)
        return value

    def put(self, key: str, value) -> None:
        with self.tracer.span("campaign.cache_put"):
            self.cache.put(key, value)
        self._size(key)


class TracedExecutor:
    """The serial executor the server uses, one span per unit."""

    name = "serial"
    jobs = 1

    def __init__(self, fn, tracer: Tracer, violations: List[str]):
        self.fn = fn
        self.tracer = tracer
        self.violations = violations

    def execute(self, units, callback=None):
        outcomes = []
        for unit in units:
            engine = getattr(unit, "engine", None)
            name = {"tolerance": "analysis.tolerance",
                    "diagnosis": "diagnosis.build"}.get(engine, "faults.unit")
            result = error = None
            with self.tracer.span(name):
                index = len(self.tracer.spans) - 1
                t0 = time.perf_counter()
                try:
                    result = self.fn.execute_unit(unit)
                except Exception as exc:  # noqa: BLE001 — reported per unit
                    error = exc
                wall = time.perf_counter() - t0
            if name == "faults.unit" and result is not None:
                self._decompose(unit, result, index)
            outcome = self.fn.UnitOutcome(unit=unit, result=result, error=error,
                                          attempts=1, wall_s=wall)
            outcomes.append(outcome)
            if callback is not None:
                callback(outcome)
        return outcomes

    def _decompose(self, unit, result, parent: int) -> None:
        """Time the unit's AC sweeps and verdicts apart, and check they
        agree with what the unit returned."""
        fn, setup = self.fn, unit.setup
        t0 = time.perf_counter()
        nominal = fn.ac_analysis(unit.circuit, setup.grid, output=unit.output)
        faulty = [fn.ac_analysis(fault.apply(unit.circuit), setup.grid,
                                 output=unit.output) for fault in unit.faults]
        t1 = time.perf_counter()
        verdicts = [fn.evaluate_detectability(nominal, response, setup.epsilon,
                                              setup.criterion)
                    for response in faulty]
        t2 = time.perf_counter()
        self.tracer.detached("analysis.solve", parent, t1 - t0)
        self.tracer.detached("core.verdict", parent, t2 - t1)
        for label, verdict in zip(unit.labels, verdicts):
            if verdict.detectable != result.results[label].detectable:
                self.violations.append(
                    f"trace: {unit.unit_id}/{label} verdict differs between "
                    "the unit and its decomposition"
                )


# ----------------------------------------------------------------------
# in-process pipelines, mirroring repro.service.jobs.run_*


def _optional(params: dict, *names) -> dict:
    """Job params the planner takes, when the job sets them."""
    return {name: params[name] for name in names if params.get(name) is not None}


class Replayer:
    def __init__(self, fn, cache_dir: Path, violations: List[str]):
        self.fn = fn
        self.tracer = Tracer()
        self.violations = violations
        self.counts = {"lookups": 0, "hits": 0, "entry_bytes": []}
        # the server's own runtime builds the four caches with their
        # payload types
        runtime = fn.ServiceRuntime(cache_dir=cache_dir)
        self.caches = {
            name: TracedCache(getattr(runtime, f"{attr}_cache"), self.tracer,
                              self.counts)
            for name, attr in zip(CACHE_SUBDIRS,
                                  ("unit", "tolerance", "diagnosis", "job"))
        }
        runtime.close()
        self.solves: List[int] = []
        self.factorizations: List[int] = []

    def _execute_kwargs(self, cache: str) -> dict:
        return {"executor": TracedExecutor(self.fn, self.tracer, self.violations),
                "cache": self.caches[cache],
                "telemetry": self.fn.CampaignTelemetry()}

    def faultsim(self, params: dict) -> dict:
        fn, span = self.fn, self.tracer.span
        with span("dft.apply"):
            circuit, f0, label = fn.resolve_circuit(params)
            mcc = fn.apply_multiconfiguration(circuit)
        with span("campaign.plan"):
            faults = fn.deviation_faults(circuit, deviation=params["deviation"])
            grid = fn.decade_grid(f0, decades_below=params["decades"],
                                  decades_above=params["decades"],
                                  points_per_decade=params["ppd"])
            setup = fn.SimulationSetup(grid=grid, epsilon=params["epsilon"])
            plan = fn.plan_campaign(mcc, faults, setup, chunk_size=params["chunk"],
                                    **_optional(params, "engine", "kernel"))
        with span("campaign.execute"):
            dataset = fn.execute_plan(plan, **self._execute_kwargs("units"))
        with span("core.cover"):
            matrix = dataset.detectability_matrix()
            cover = fn.ndetect_cover(matrix, n_detect=params["n_detect"],
                                     solver="greedy", saturate=params["saturate"])
            fn.evaluate_cover(dataset, sorted(cover), n_detect=params["n_detect"])
        with span("reporting.export"):
            exported = fn.dataset_to_json(dataset)
        self.solves.append(dataset.n_solves)
        self.factorizations.append(dataset.n_factorizations)
        return {
            "n_detect": params["n_detect"],
            "saturate": params["saturate"],
            "cover": [matrix.config_labels[matrix.row_of(i)] for i in sorted(cover)],
            "cover_size": len(cover),
            "dataset": json.loads(exported),
        }

    def diagnose(self, params: dict) -> dict:
        fn, span = self.fn, self.tracer.span
        with span("dft.apply"):
            circuit, f0, label = fn.resolve_circuit(params)
            mcc = fn.apply_multiconfiguration(circuit)
        with span("campaign.plan"):
            grid = fn.decade_grid(f0, decades_below=params["decades"],
                                  decades_above=params["decades"],
                                  points_per_decade=params["ppd"])
            deviations = fn.deviation_grid(span=params["span"], steps=params["steps"])
            plan = fn.plan_diagnosis_campaign(mcc, grid, deviations=deviations,
                                              **_optional(params, "kernel"))
        with span("campaign.execute"):
            dictionary = fn.execute_diagnosis_plan(
                plan, **self._execute_kwargs("diagnosis"))
        self.solves.append(dictionary.n_solves)
        self.factorizations.append(dictionary.n_factorizations)
        result = {"diagnosis": None}
        if params["component"] is not None:
            with span("diagnosis.match"):
                diagnosis = fn.locate_fault(
                    dictionary, mcc,
                    fn.DeviationFault(params["component"], params["fault_deviation"]),
                    metric=params["distance"],
                    ambiguity_tolerance=params["ambiguity"],
                    epsilon=params["epsilon"],
                )
            result["diagnosis"] = {"injected": diagnosis.evaluate(
                params["component"], params["fault_deviation"])}
        return result

    def tolerance(self, params: dict) -> dict:
        fn, span = self.fn, self.tracer.span
        with span("campaign.plan"):
            plan = fn.plan_tolerance_campaign(
                names=params["circuits"], tolerance=params["tolerance"],
                n_samples=params["samples"], distribution=params["distribution"],
                seed=params["seed"], percentile=params["percentile"],
                decades=params["decades"], points_per_decade=params["ppd"],
                corners=params["corners"],
                max_corner_components=params["max_corner_components"],
                **_optional(params, "kernel"),
            )
        with span("campaign.execute"):
            report = fn.execute_tolerance_plan(plan, **self._execute_kwargs("tolerance"))
        self.solves.append(report.n_solves)
        self.factorizations.append(report.n_factorizations)
        return report.to_json()

    def job(self, op) -> Optional[dict]:
        """Submit path, then the runner on a job-record miss."""
        from repro.errors import ReproError
        from svcbench import checks

        fn, span = self.fn, self.tracer.span
        with span("job", kind=op.kind):
            with span("jobs.validate"):
                params = fn.normalize_params(op.kind, op.params)
                key = fn.job_key(op.kind, params)
            record = self.caches["jobs"].get(key)
            if record is not None:
                result = record.result
            else:
                try:
                    result = getattr(self, op.kind)(params)
                except ReproError:
                    return None
                self.caches["jobs"].put(key, fn.JobRecord(
                    key=key, kind=op.kind, params=params, result=result))
            with span("service.encode"):
                json.dumps({"kind": op.kind, "params": params, "result": result},
                           indent=2)
        if record is None and op.kind in ("faultsim", "diagnose"):
            try:
                checks.check_answer(op.kind, params, result)
            except checks.CheckError as exc:
                self.violations.append(f"trace: {exc}")
        return result


# ----------------------------------------------------------------------
# the client part


def _client_part(url, workload, deadline, samples):
    """Timed ``ServiceClient`` calls; returns (rounds, attempted, failed)."""
    from repro.errors import ReproError

    threads, lock = [], threading.Lock()
    rounds, attempted, failed = ([0] * workload.clients for _ in range(3))

    def timed_calls(client, op) -> dict:
        from repro.service.jobs import TERMINAL_STATES

        t0 = time.perf_counter()
        job = client.submit(op.kind, op.params)
        local = {"submit_ms": [1e3 * (time.perf_counter() - t0)], "poll_ms": []}
        while True:
            t = time.perf_counter()
            view = client.job(job["id"])
            local["poll_ms"].append(1e3 * (time.perf_counter() - t))
            if view["state"] in TERMINAL_STATES:
                break
            time.sleep(workload.poll_s)
        t = time.perf_counter()
        full = client.result(job["id"])
        local["fetch_ms"] = [1e3 * (time.perf_counter() - t)]
        local["polls"] = [len(local["poll_ms"])]
        local["result_kb"] = [len(json.dumps(full, indent=2)) / 1024]
        if full.get("started_at") is not None:
            local["queue_wait_ms"] = [
                1e3 * (full["started_at"] - full["submitted_at"])]
        local["state"] = full["state"]
        return local

    def loop(first: int) -> None:
        from repro.service import ServiceClient

        client = ServiceClient(url, timeout=120.0)
        index = first
        while True:
            for op in workload.round(index):
                attempted[first] += 1
                try:
                    local = timed_calls(client, op)
                except (ReproError, OSError, http.client.HTTPException):
                    failed[first] += 1
                    continue
                failed[first] += local.pop("state") != "done"
                with lock:
                    for name, values in local.items():
                        samples.setdefault(name, []).extend(values)
            rounds[first] += 1
            index += workload.clients
            if time.perf_counter() >= deadline:
                return

    for first in range(workload.clients):
        threads.append(threading.Thread(target=loop, args=(first,)))
        threads[-1].start()
    for thread in threads:
        thread.join()
    return sum(rounds), sum(attempted), sum(failed)


# ----------------------------------------------------------------------
# start-up layers


def import_seconds(root: Path, cache_dir: Path) -> List[float]:
    """Fresh interpreter: import the server and build its runtime."""
    import os

    env = dict(os.environ)
    env["PYTHONPATH"] = str(root / "src") + os.pathsep + env.get("PYTHONPATH", "")
    times = []
    for _ in range(STARTUP_SAMPLES):
        done = subprocess.run(
            [sys.executable, "-c", _IMPORT_PROBE, str(cache_dir)],
            cwd=root, env=env, capture_output=True, text=True, timeout=120,
            check=True,
        )
        times.append(float(done.stdout.strip().splitlines()[-1]))
    return times


def sweep_seconds(fn, cache_dir: Path) -> List[float]:
    times = []
    for _ in range(STARTUP_SAMPLES):
        t0 = time.perf_counter()
        for name in CACHE_SUBDIRS:
            fn.ResultCache(cache_dir / name).sweep_stale()
        times.append(time.perf_counter() - t0)
    return times


# ----------------------------------------------------------------------


PER_LAYER_UNITS = {
    "analysis.solve_ms": "ms", "analysis.solves": "count",
    "analysis.factorizations": "count", "analysis.tolerance_ms": "ms",
    "core.verdict_ms": "ms", "core.cover_ms": "ms",
    "faults.unit_ms": "ms",
    "diagnosis.build_ms": "ms", "diagnosis.match_ms": "ms",
    "campaign.plan_ms": "ms", "campaign.assemble_ms": "ms",
    "campaign.cache_get_ms": "ms", "campaign.cache_put_ms": "ms",
    "campaign.entry_kb": "KB", "campaign.hit_ratio": "ratio",
    "dft.apply_ms": "ms",
    "reporting.export_ms": "ms",
    "service.submit_ms": "ms", "service.poll_ms": "ms", "service.polls": "count",
    "service.fetch_ms": "ms", "service.result_kb": "KB",
    "service.queue_wait_ms": "ms", "service.encode_ms": "ms",
    "jobs.validate_us": "us",
    "setup.import_s": "s", "setup.sweep_s": "s",
    **{f"self.{layer}_ms": "ms" for layer in LAYERS},
    "trace.coverage": "ratio", "trace.missing_layers": "count",
}


def metric_layer(name: str) -> Optional[str]:
    """The layer whose absence voids a per-layer metric (None: never)."""
    head, _, rest = name.partition(".")
    if head == "self":
        return rest.rsplit("_", 1)[0]
    return layer_of(name)


def _med(values) -> float:
    """Median, or 0 where the layer did no work on this workload."""
    from svcbench.stats import median

    return median(values) if values else 0.0


def _mean(values) -> float:
    return sum(values) / len(values) if values else 0.0


def reduce_spans(replayer: Replayer) -> Dict[str, float]:
    tracer = replayer.tracer
    spans, selfs = tracer.spans, tracer.self_times()
    ms = lambda name: [1e3 * d for d in tracer.durations(name)]  # noqa: E731
    out = {
        "analysis.solve_ms": _med(ms("analysis.solve")),
        "analysis.solves": _mean(replayer.solves),
        "analysis.factorizations": _mean(replayer.factorizations),
        "analysis.tolerance_ms": _med(ms("analysis.tolerance")),
        "core.verdict_ms": _med(ms("core.verdict")),
        "core.cover_ms": _med(ms("core.cover")),
        "faults.unit_ms": _med(ms("faults.unit")),
        "diagnosis.build_ms": _med(ms("diagnosis.build")),
        "diagnosis.match_ms": _med(ms("diagnosis.match")),
        "campaign.plan_ms": _med(ms("campaign.plan")),
        "campaign.assemble_ms": _med([1e3 * t for s, t in zip(spans, selfs)
                                      if s["name"] == "campaign.execute"]),
        "campaign.cache_get_ms": _med(ms("campaign.cache_get")),
        "campaign.cache_put_ms": _med(ms("campaign.cache_put")),
        "campaign.entry_kb": _mean(replayer.counts["entry_bytes"]) / 1024,
        "campaign.hit_ratio": (replayer.counts["hits"] / replayer.counts["lookups"]
                               if replayer.counts["lookups"] else 0.0),
        "dft.apply_ms": _med(ms("dft.apply")),
        "reporting.export_ms": _med(ms("reporting.export")),
        "service.encode_ms": _med(ms("service.encode")),
        "jobs.validate_us": 1e3 * _med(ms("jobs.validate")),
    }
    # self time per job and layer, and the share of each job's time its
    # direct child spans cover
    jobs = [i for i, s in enumerate(spans) if s["name"] == "job"]
    job_of = {}
    for i, span in enumerate(spans):
        parent = span["parent"]
        job_of[i] = i if span["name"] == "job" else job_of.get(parent)
    per_layer = {layer: 0.0 for layer in LAYERS}
    covered = {i: 0.0 for i in jobs}
    for i, span in enumerate(spans):
        layer = layer_of(span["name"])
        if layer is not None and job_of.get(i) is not None:
            per_layer[layer] += selfs[i]
        if span["parent"] in covered and not span.get("detached"):
            covered[span["parent"]] += span["d"]
    for layer in LAYERS:
        out[f"self.{layer}_ms"] = 1e3 * per_layer[layer] / len(jobs) if jobs else 0.0
    out["trace.coverage"] = _med([covered[i] / spans[i]["d"] for i in jobs
                                  if spans[i]["d"] > 0])
    return out


def traced_run(workload, seconds: float, work: Path, root: Path) -> dict:
    from svcbench.run import prepare
    from svcbench.stats import median

    fn, missing = resolve_layers()
    violations: List[str] = []
    server, _ = prepare(workload, work, work / "server.log")
    cache = work / "cache"
    # the start-up probes and the in-process part begin from the cache
    # as the timed phase finds it: empty for cold, filled otherwise
    start_cache = work / "start-cache"
    if workload.fill:
        shutil.copytree(cache, start_cache)
    else:
        start_cache.mkdir()
    samples: Dict[str, List[float]] = {}
    try:
        rounds, attempted, failed = _client_part(
            server.url, workload, time.perf_counter() + seconds / 2, samples)
    finally:
        server.stop()

    metrics: Dict[str, Optional[float]] = {}
    replayer = None
    if "service" not in missing and "campaign" not in missing:
        # rounds continue after the client part's, so cold and reuse
        # identities are new; replay repeats the fill identities
        replay_cache = work / "replay-cache"
        shutil.copytree(start_cache, replay_cache)
        replayer = Replayer(fn, replay_cache, violations)
        deadline = time.perf_counter() + seconds / 2
        index = rounds
        while True:
            for op in workload.round(index):
                if any(layer in missing for layer in KIND_LAYERS[op.kind]):
                    continue
                attempted += 1
                if replayer.job(op) is None:
                    failed += 1
            index += 1
            if time.perf_counter() >= deadline:
                break
        metrics.update(reduce_spans(replayer))
        metrics["setup.sweep_s"] = median(sweep_seconds(fn, start_cache))
    for name in ("submit_ms", "poll_ms", "fetch_ms", "queue_wait_ms"):
        metrics[f"service.{name}"] = _med(samples.get(name, []))
    metrics["service.polls"] = _mean(samples.get("polls", []))
    metrics["service.result_kb"] = _mean(samples.get("result_kb", []))
    metrics["setup.import_s"] = median(import_seconds(root, start_cache))
    metrics["trace.missing_layers"] = float(len(missing))
    return {
        "info": {"workload": workload.name, "seed": workload.seed,
                 "client_rounds": rounds, "missing_layers": missing,
                 "spans": len(replayer.tracer.spans) if replayer else 0,
                 "violations": violations[:20]},
        "correct": not violations,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            name: (None if metric_layer(name) in missing else metrics.get(name),
                   unit)
            for name, unit in PER_LAYER_UNITS.items()
        },
    }

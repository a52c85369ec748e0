"""Fast tests of the benchmark's own code.

Run from the repository root: ``python -m pytest svcbench -q``.
"""

import copy
import itertools
import math
import statistics
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
for path in (str(ROOT / "src"), str(ROOT)):
    if path not in sys.path:
        sys.path.insert(0, path)

from svcbench import checks  # noqa: E402
from svcbench.stats import median, percentile, quartiles  # noqa: E402
from svcbench.trace import Tracer, metric_layer  # noqa: E402
from svcbench.workloads import _nth_order, make_workload  # noqa: E402


# ----------------------------------------------------------------------
# order statistics


@pytest.mark.parametrize("values", [[3.0], [1.0, 2.0], [5, 1, 4, 2, 3],
                                    [0.5 * i * i for i in range(17)]])
@pytest.mark.parametrize("q", [0, 10, 25, 50, 90, 99, 100])
def test_percentile_matches_numpy(values, q):
    numpy = pytest.importorskip("numpy")
    assert percentile(values, q) == pytest.approx(float(numpy.percentile(values, q)))


def test_median_of_even_and_odd_samples():
    assert median([4, 1, 3]) == 3
    assert median([4, 1, 3, 2]) == 2.5


def test_percentile_rejects_empty_and_out_of_range():
    with pytest.raises(ValueError):
        percentile([], 50)
    with pytest.raises(ValueError):
        percentile([1.0], 101)


def test_quartiles_are_the_statistics_exclusive_method():
    values = [9.0, 1.0, 7.0, 3.0, 5.0, 2.0, 8.0, 4.0, 6.0, 10.0]
    assert quartiles(values) == tuple(statistics.quantiles(values, n=4))


# ----------------------------------------------------------------------
# workloads


def test_nth_order_enumerates_every_permutation_once():
    items = ["a", "b", "c", "d"]
    orders = {tuple(_nth_order(items, i)) for i in range(math.factorial(4))}
    assert orders == set(itertools.permutations(items))
    assert _nth_order(items, 0) == items


def test_workloads_are_seeded():
    a, b = make_workload("cold", 7), make_workload("cold", 7)
    assert [op.params for op in a.round(3)] == [op.params for op in b.round(3)]
    c = make_workload("cold", 8)
    assert [op.params for op in a.round(0)] != [op.params for op in c.round(0)]


def test_cold_rounds_have_distinct_identities_and_one_known_failure():
    workload = make_workload("cold", 1)
    seen = set()
    for r in range(40):
        ops = workload.round(r)
        assert sum(op.expect_failure for op in ops) == 1
        for op in ops:
            if not op.expect_failure:
                key = (op.kind, tuple(sorted(map(repr, op.params.items()))))
                assert key not in seen
                seen.add(key)


def test_replay_rounds_resubmit_the_fill_identities():
    workload = make_workload("replay", 3)
    fill = sorted(op.name for op in workload.fill)
    assert fill == ["D0", "D1", "F0", "F1", "T0", "T1"]
    first, second = workload.round(0), workload.round(1)
    assert sorted(op.ref for op in first) == fill
    by_name = {op.name: op.params for op in workload.fill}
    assert all(op.params == by_name[op.ref] for op in first + second)


# ----------------------------------------------------------------------
# output checks on synthetic payloads


def faultsim_payload():
    """Three configurations, three faults, ε = 0.1, a 1-detection cover."""
    def verdict(dev):
        return {"detectable": dev > 0.1, "max_deviation": dev,
                "omega_detectability": 0.3 if dev > 0.1 else 0.0,
                "f_max_deviation_hz": 1e3}

    table = {"C0": {"R1": 0.5, "R2": 0.05, "C1": 0.2},
             "C1": {"R1": 0.02, "R2": 0.3, "C1": 0.4},
             "C2": {"R1": 0.01, "R2": 0.02, "C1": 0.03}}
    return {
        "n_detect": 1, "saturate": False, "cover": ["C0", "C1"],
        "cover_size": 2,
        "dataset": {"epsilon": 0.1, "results": {
            config: {fault: verdict(dev) for fault, dev in faults.items()}
            for config, faults in table.items()}},
    }


def test_checks_accept_a_consistent_payload():
    checks.check_faultsim(faultsim_payload())


def test_definition1_rejects_a_flipped_verdict():
    payload = faultsim_payload()
    payload["dataset"]["results"]["C1"]["R2"]["detectable"] = False
    with pytest.raises(checks.CheckError, match="Definition 1"):
        checks.check_definition1(payload)


def test_definition1_rejects_omega_without_detection():
    payload = faultsim_payload()
    payload["dataset"]["results"]["C2"]["R1"]["omega_detectability"] = 0.1
    with pytest.raises(checks.CheckError, match="omega"):
        checks.check_definition1(payload)


def test_cover_rejects_a_missing_fault():
    payload = faultsim_payload()
    payload["cover"], payload["cover_size"] = ["C0"], 1  # R2 left undetected
    with pytest.raises(checks.CheckError, match="R2"):
        checks.check_cover(payload)


def test_cover_counts_n_detect_and_saturation():
    payload = faultsim_payload()
    payload["n_detect"] = 2
    with pytest.raises(checks.CheckError):
        checks.check_cover(payload)  # every fault has one detector only
    payload["saturate"] = True
    checks.check_cover(payload)  # clamped to what the matrix allows


def test_eps_monotonicity_rejects_a_growing_set():
    low = faultsim_payload()
    high = copy.deepcopy(low)
    high["dataset"]["epsilon"] = 0.2
    checks.check_eps_monotone([low, high])
    high["dataset"]["results"]["C2"]["R1"]["detectable"] = True
    with pytest.raises(checks.CheckError, match="monotonicity"):
        checks.check_eps_monotone([high, low])


def diagnose_payload(rank=0, error=0.0):
    return {"diagnosis": {"injected": {"component": "R2", "deviation": 0.25,
                                       "rank": rank, "deviation_error": error}}}


def test_seeded_diagnosis_demands_rank_zero_and_exact_deviation():
    checks.check_seeded_diagnosis(diagnose_payload())
    with pytest.raises(checks.CheckError):
        checks.check_seeded_diagnosis(diagnose_payload(rank=1))
    with pytest.raises(checks.CheckError):
        checks.check_seeded_diagnosis(diagnose_payload(error=0.125))


def tolerance_payload(percentile, suggested, peak=0.3, order=("a", "b")):
    rows = {"a": {"name": "a", "suggested_epsilon": suggested,
                  "max_deviation": peak, "epsilon_floor": 0.2,
                  "band_epsilon_floor": 0.1, "n_corners": 0},
            "b": {"name": "b", "suggested_epsilon": 0.1, "max_deviation": 0.2,
                  "epsilon_floor": 0.1, "band_epsilon_floor": 0.1,
                  "n_corners": 4}}
    return {"seed": 5, "percentile": percentile,
            "circuits": [rows[name] for name in order]}


def test_tolerance_group_checks_percentile_order_and_peak():
    checks.check_tolerance_group([tolerance_payload(99.0, 0.2),
                                  tolerance_payload(90.0, 0.1)])
    with pytest.raises(checks.CheckError, match="falls"):
        checks.check_tolerance_group([tolerance_payload(90.0, 0.2),
                                      tolerance_payload(99.0, 0.1)])
    with pytest.raises(checks.CheckError, match="max_deviation"):
        checks.check_tolerance_group([tolerance_payload(90.0, 0.1),
                                      tolerance_payload(99.0, 0.2, peak=0.4)])


def test_reuse_answers_must_match_the_fill():
    ref = tolerance_payload(95.0, 0.1)
    checks.check_matches_fill("tolerance", tolerance_payload(95.0, 0.1, order=("b", "a")), ref)
    with pytest.raises(checks.CheckError):
        checks.check_matches_fill("tolerance", tolerance_payload(95.0, 0.15), ref)
    fill = dict(faultsim_payload(), target="x", n_configs=3, n_faults=3,
                fault_coverage=1.0, undetectable_faults=[])
    derived = copy.deepcopy(fill)
    checks.check_matches_fill("faultsim", derived, fill)
    derived["dataset"]["results"]["C0"]["R1"]["max_deviation"] = 0.6
    with pytest.raises(checks.CheckError, match="verdicts"):
        checks.check_matches_fill("faultsim", derived, fill)


def test_checks_accept_a_real_faultsim_answer_and_reject_its_corruption():
    from repro.service import ServiceRuntime
    from repro.service.jobs import Job, JobTelemetry, execute_job, normalize_params

    params = normalize_params("faultsim", {"target": "sallen_key", "ppd": 5,
                                           "decades": 1.0, "n_detect": 2,
                                           "saturate": True})
    job = Job("faultsim", params)
    runtime = ServiceRuntime()
    try:
        result = execute_job(job, runtime, JobTelemetry(job))
    finally:
        runtime.close()
    checks.check_faultsim(result)
    broken = copy.deepcopy(result)
    entry = next(v for faults in broken["dataset"]["results"].values()
                 for v in faults.values() if v["detectable"])
    entry["detectable"] = False
    with pytest.raises(checks.CheckError):
        checks.check_faultsim(broken)


# ----------------------------------------------------------------------
# spans


def test_self_time_subtracts_children_including_detached_ones():
    tracer = Tracer()
    tracer.spans = [
        {"name": "job", "parent": None, "d": 10.0},
        {"name": "faults.unit", "parent": 0, "d": 6.0},
        {"name": "campaign.cache_get", "parent": 0, "d": 1.0},
    ]
    tracer.detached("analysis.solve", 1, 4.0)
    tracer.detached("core.verdict", 1, 3.0)  # overshoots: clamped at 0
    assert tracer.self_times() == [3.0, 0.0, 1.0, 4.0, 3.0]


def test_metric_layers():
    assert metric_layer("self.analysis_ms") == "analysis"
    assert metric_layer("jobs.validate_us") == "service"
    assert metric_layer("campaign.hit_ratio") == "campaign"
    assert metric_layer("setup.import_s") is None

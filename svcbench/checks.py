"""Output checks: properties every answer of the method must have.

Each check raises :class:`CheckError` naming the violation.  None of
them compares against a stored copy of some earlier output: they test
Definition 1, ε-monotonicity, the n-detection cover, seeded fault
location, the tolerance calibration's order properties, and agreement
between answers the benchmark itself obtained for one identity.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Set, Tuple


class CheckError(AssertionError):
    """An answer violates a property of the method."""


def _entries(result: dict):
    """(config, fault, verdict) of every dataset entry of a faultsim result."""
    for config, faults in result["dataset"]["results"].items():
        for fault, verdict in faults.items():
            yield config, fault, verdict


def check_definition1(result: dict) -> None:
    """``detectable`` ⇔ ``max_deviation > ε`` ⇔ ``omega_detectability > 0``."""
    epsilon = result["dataset"]["epsilon"]
    for config, fault, verdict in _entries(result):
        detectable = verdict["detectable"]
        if detectable != (verdict["max_deviation"] > epsilon):
            raise CheckError(
                f"Definition 1: {config}/{fault} detectable={detectable} "
                f"but max_deviation={verdict['max_deviation']!r} vs ε={epsilon!r}"
            )
        if detectable != (verdict["omega_detectability"] > 0):
            raise CheckError(
                f"Definition 1: {config}/{fault} detectable={detectable} "
                f"but omega_detectability={verdict['omega_detectability']!r}"
            )


def detectable_set(result: dict) -> Set[Tuple[str, str]]:
    return {(c, f) for c, f, v in _entries(result) if v["detectable"]}


def check_cover(result: dict) -> None:
    """The cover detects each detectable fault ``n_detect`` times.

    With ``saturate`` a fault that fewer than ``n_detect``
    configurations detect needs every one of them.
    """
    n_detect = result["n_detect"]
    cover = set(result["cover"])
    if len(cover) != result["cover_size"]:
        raise CheckError("cover: cover_size disagrees with the cover")
    detecting: Dict[str, List[str]] = {}
    for config, fault, verdict in _entries(result):
        if verdict["detectable"]:
            detecting.setdefault(fault, []).append(config)
    for fault, configs in detecting.items():
        need = min(n_detect, len(configs)) if result["saturate"] else n_detect
        have = sum(1 for config in configs if config in cover)
        if have < need:
            raise CheckError(
                f"cover: {fault} detected {have} time(s) by cover "
                f"{sorted(cover)}, needs {need}"
            )


def check_faultsim(result: dict) -> None:
    check_definition1(result)
    check_cover(result)


def check_eps_monotone(results: Iterable[dict]) -> None:
    """Across ε variants of one circuit the detectable set shrinks."""
    ordered = sorted(results, key=lambda r: r["dataset"]["epsilon"])
    for lower, higher in zip(ordered, ordered[1:]):
        grown = detectable_set(higher) - detectable_set(lower)
        if grown:
            raise CheckError(
                f"ε-monotonicity: {sorted(grown)[:3]} detectable at "
                f"ε={higher['dataset']['epsilon']} but not at "
                f"ε={lower['dataset']['epsilon']}"
            )


def check_seeded_diagnosis(result: dict) -> None:
    """A fault seeded at a grid point is located exactly."""
    injected = (result.get("diagnosis") or {}).get("injected")
    if injected is None:
        raise CheckError("diagnosis: a seeded job returned no verdict")
    if injected["rank"] != 0 or injected["deviation_error"] != 0.0:
        raise CheckError(
            f"diagnosis: {injected['component']} at {injected['deviation']} "
            f"ranked {injected['rank']} with deviation error "
            f"{injected['deviation_error']}"
        )


def _rows(result: dict) -> Dict[str, dict]:
    return {row["name"]: row for row in result["circuits"]}


def check_tolerance_group(results: Iterable[dict]) -> None:
    """One Monte Carlo seed at several percentiles: same peak deviation,
    suggested ε non-decreasing with the percentile."""
    ordered = sorted(results, key=lambda r: r["percentile"])
    for lower, higher in zip(ordered, ordered[1:]):
        low_rows, high_rows = _rows(lower), _rows(higher)
        for name, low in low_rows.items():
            high = high_rows[name]
            if high["max_deviation"] != low["max_deviation"]:
                raise CheckError(
                    f"tolerance: {name} max_deviation differs between "
                    f"percentiles of seed {lower['seed']}"
                )
            if high["suggested_epsilon"] < low["suggested_epsilon"]:
                raise CheckError(
                    f"tolerance: {name} suggested_epsilon falls from "
                    f"{low['suggested_epsilon']} at p{lower['percentile']:g} to "
                    f"{high['suggested_epsilon']} at p{higher['percentile']:g}"
                )


#: result fields that depend only on the unit data a job shares with
#: the fill identity it was derived from
_SHARED = {
    "faultsim": ("target", "n_configs", "n_faults", "fault_coverage",
                 "undetectable_faults"),
    "diagnose": ("target", "n_configs", "n_components", "n_deviations",
                 "n_trajectory_points", "deviation_step"),
}

#: tolerance row fields that depend only on the shared unit data
_ROW_FIELDS = ("suggested_epsilon", "max_deviation", "epsilon_floor",
               "band_epsilon_floor", "n_corners")


def check_matches_fill(kind: str, result: dict, ref: dict) -> None:
    """A derived job's answer agrees with its fill identity's answer."""
    if kind == "tolerance":
        rows, ref_rows = _rows(result), _rows(ref)
        if set(rows) != set(ref_rows):
            raise CheckError("reuse: tolerance circuits differ from the fill")
        for name, row in rows.items():
            for field_name in _ROW_FIELDS:
                if row[field_name] != ref_rows[name][field_name]:
                    raise CheckError(
                        f"reuse: tolerance {name}.{field_name} differs from "
                        "the fill"
                    )
        return
    for field_name in _SHARED[kind]:
        if result[field_name] != ref[field_name]:
            raise CheckError(f"reuse: {kind} {field_name} differs from the fill")
    if kind == "faultsim" and (
        result["dataset"]["results"] != ref["dataset"]["results"]
    ):
        raise CheckError("reuse: faultsim verdicts differ from the fill")


def check_answer(kind: str, params: dict, result: dict) -> None:
    """Properties one answer must have on its own."""
    if kind == "faultsim":
        check_faultsim(result)
    elif kind == "diagnose" and params.get("component") is not None:
        check_seeded_diagnosis(result)

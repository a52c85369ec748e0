"""The benchmark's job lists, generated from the workload seed.

Every workload is a sequence of *rounds*; a round is a fixed list of
operations, and a run attempts whole rounds only, so the share of
failed operations is the same in every run.  Within a workload each
job kind has one size: circuit, grid and unit count are fixed, and
only parameters that do not change the amount of work (ε, the
deviation-grid span, the Monte Carlo seed, the percentile, a chunk
size at or above the fault count, the circuit order, the seeded fault)
vary between jobs to give them distinct identities.

Jobs leave ``engine`` and ``kernel`` unset, so the benchmark measures
the solve path the server uses by default.
"""

from __future__ import annotations

import itertools
import math
import random
from dataclasses import dataclass, field
from typing import Dict, List, Optional

#: the faultsim / diagnose frequency grid: 2 decades either side of the
#: circuit's centre frequency at 10 points per decade
GRID = {"decades": 2.0, "ppd": 10}
#: 31 DFT configurations x 17 deviation faults
FAULTSIM_TARGET = "leapfrog"
#: 15 configurations x 13 passives x 8 grid points
DIAGNOSE_TARGET = "multistage"
#: the diagnose job that fails at every attempt (see README.md)
FAILING_OP = ("diagnose", {"target": "state_variable", **GRID})
COLD_TOLERANCE_CIRCUITS = ("leapfrog", "multistage")
#: every catalog circuit but ``cascade``, whose cold calibration alone
#: would double the untimed fill; 7! orders give distinct identities
REUSE_TOLERANCE_CIRCUITS = (
    "akerberg_mossberg", "bandpass_mfb", "biquad", "leapfrog",
    "multistage", "sallen_key", "state_variable",
)
PERCENTILES = (90.0, 95.0, 99.0)
#: ε for faultsim identities: 0.0500 .. 0.2000 in steps of 0.0001
EPSILONS = tuple(round(0.05 + 0.0001 * i, 4) for i in range(1501))
#: diagnose deviation-grid spans, each checked to build without a
#: singular trajectory point on the diagnose target
SPANS = tuple(round(0.30 + 0.002 * i, 3) for i in range(151))
#: fixed poll interval of ``ServiceClient.wait`` per workload (s): a
#: small share of the shortest job of that workload
POLL_S = {"cold": 0.010, "reuse": 0.001, "replay": 0.001}
#: closed-loop client threads per workload
CLIENTS = {"cold": 1, "reuse": 1, "replay": 2}
WORKLOADS = tuple(POLL_S)


@dataclass
class Op:
    """One job submission and how its answer is judged.

    ``ref`` names the fill operation whose answer this one must agree
    with; ``group`` ties operations checked against each other (the ε
    variants of one circuit, the percentiles of one Monte Carlo seed).
    ``expect_failure`` marks the known-failing operation.
    """

    kind: str
    params: dict
    ref: Optional[str] = None
    group: Optional[str] = None
    expect_failure: bool = False
    name: str = ""


@dataclass
class Workload:
    """Fill pass plus an endless sequence of rounds for one seed."""

    name: str
    seed: int
    #: seeded orders of the identity-giving parameter values
    eps: List[float] = field(default_factory=list)
    spans: List[float] = field(default_factory=list)
    mc_seeds: List[int] = field(default_factory=list)
    faults: List[tuple] = field(default_factory=list)
    order_offset: int = 0
    fill: List[Op] = field(default_factory=list)
    #: fill results by op name, set after the fill pass ran
    fill_results: Dict[str, dict] = field(default_factory=dict)

    @property
    def poll_s(self) -> float:
        return POLL_S[self.name]

    @property
    def clients(self) -> int:
        return CLIENTS[self.name]

    def round(self, index: int) -> List[Op]:
        return _ROUNDS[self.name](self, index)


def _shuffled(seq, rng: random.Random) -> list:
    items = list(seq)
    rng.shuffle(items)
    return items


def _seeded_faults(seed: int) -> list:
    """(component, deviation) at every nonzero point of the default
    deviation grid, the one the fill's dictionary is built on."""
    from repro.circuits import build
    from repro.diagnosis import deviation_grid
    from repro.service.jobs import DIAGNOSE_PARAMS

    components = [p.name for p in build(DIAGNOSE_TARGET).circuit.passives()]
    points = deviation_grid(span=DIAGNOSE_PARAMS["span"][1],
                            steps=DIAGNOSE_PARAMS["steps"][1])
    return _shuffled(itertools.product(components, points), random.Random(seed))


def make_workload(name: str, seed: int) -> Workload:
    if name not in _ROUNDS:
        raise ValueError(f"unknown workload {name!r}; expected one of {WORKLOADS}")
    rng = random.Random(f"{name}:{seed}")
    workload = Workload(
        name=name,
        seed=seed,
        eps=_shuffled(EPSILONS, rng),
        spans=_shuffled(SPANS, rng),
        mc_seeds=[rng.randrange(1, 1 << 30) for _ in range(len(SPANS))],
        faults=_seeded_faults(rng.randrange(1 << 30)),
        order_offset=rng.randrange(1 << 30),
    )
    if name in ("reuse", "replay"):
        eps = workload.eps[0]
        circuits = (
            list(REUSE_TOLERANCE_CIRCUITS) if name == "reuse"
            else list(COLD_TOLERANCE_CIRCUITS)
        )
        workload.fill = [
            Op("faultsim", {"target": FAULTSIM_TARGET, "epsilon": eps, **GRID},
               name="F0"),
            Op("diagnose", {"target": DIAGNOSE_TARGET, **GRID}, name="D0"),
            Op("tolerance", {"circuits": _shuffled(circuits, rng),
                             "seed": workload.mc_seeds[0]}, name="T0"),
        ]
    if name == "replay":
        base = {op.name: op for op in workload.fill}
        component, deviation = workload.faults[0]
        workload.fill += [
            Op("faultsim", dict(base["F0"].params, n_detect=2, saturate=True),
               ref="F0", name="F1"),
            Op("diagnose", dict(base["D0"].params, component=component,
                                fault_deviation=deviation),
               ref="D0", name="D1"),
            Op("tolerance", dict(base["T0"].params,
                                 circuits=base["T0"].params["circuits"][::-1]),
               ref="T0", name="T1"),
        ]
    return workload


def _cold_round(w: Workload, r: int) -> List[Op]:
    eps = w.eps[r % len(w.eps)]
    span = w.spans[r % len(w.spans)]
    # three percentiles per Monte Carlo seed, so one seed's answers can
    # be checked against each other
    mc_seed = w.mc_seeds[(r // len(PERCENTILES)) % len(w.mc_seeds)]
    percentile = PERCENTILES[r % len(PERCENTILES)]
    return [
        Op("faultsim", {"target": FAULTSIM_TARGET, "epsilon": eps, **GRID},
           group="eps"),
        Op("diagnose", {"target": DIAGNOSE_TARGET, "span": span, **GRID}),
        Op("tolerance", {"circuits": list(COLD_TOLERANCE_CIRCUITS),
                         "seed": mc_seed, "percentile": percentile},
           group=f"mc:{mc_seed}"),
        Op(FAILING_OP[0], dict(FAILING_OP[1]), expect_failure=True),
    ]


def _nth_order(circuits, index: int) -> list:
    """The ``index``-th ordering of ``circuits`` (wraps after n!)."""
    pool = list(circuits)
    index %= math.factorial(len(pool))
    order = []
    for k in range(len(pool), 0, -1):
        block = math.factorial(k - 1)
        order.append(pool.pop(index // block))
        index %= block
    return order


def _reuse_round(w: Workload, r: int) -> List[Op]:
    f0 = w.fill_results["F0"]
    t0 = w.fill[2].params
    component, deviation = w.faults[r % len(w.faults)]
    # the unit keys hold the faults of a chunk, not the chunk size: any
    # chunk at or above the fault count plans the very same units
    chunk = f0["n_faults"] + r
    # a seeded fault's identity repeats after every grid point was
    # used; the ambiguity tolerance then tells the jobs apart
    ambiguity = round(0.02 + 0.0005 * (r // len(w.faults)), 6)
    # order 0 is the fill's own order, so it is skipped
    n_orders = math.factorial(len(t0["circuits"]))
    order = _nth_order(t0["circuits"], 1 + (w.order_offset + r) % (n_orders - 1))
    return [
        Op("faultsim", dict(w.fill[0].params, n_detect=2, saturate=True,
                            chunk=chunk), ref="F0"),
        Op("diagnose", dict(w.fill[1].params, component=component,
                            fault_deviation=deviation, ambiguity=ambiguity),
           ref="D0"),
        Op("tolerance", dict(t0, circuits=order), ref="T0"),
    ]


def _replay_round(w: Workload, r: int) -> List[Op]:
    ops = [Op(op.kind, dict(op.params), ref=op.name) for op in w.fill]
    random.Random(f"{w.seed}:{r}").shuffle(ops)
    return ops


_ROUNDS = {"cold": _cold_round, "reuse": _reuse_round, "replay": _replay_round}

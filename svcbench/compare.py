"""Collect sets of benchmark runs and compare two of them.

Collect one set (one run per seed, results appended as JSON lines)::

    python3 svcbench/compare.py collect --workload cold --seeds 1-10 \\
        --seconds 25 --out runs-a.jsonl

Compare two sets, workload by workload and metric by metric::

    python3 svcbench/compare.py diff runs-a.jsonl runs-b.jsonl

For each (workload, metric) the table gives each set's median and
quartiles, its spread (inter-quartile distance over the median), the
change of the second median against the first, and the verdict:
``ok`` when the second median is no worse than the first by more than
the metric's bound and both spreads are within it, ``WORSE`` when the
median moved past the bound, ``noisy`` when a spread exceeds it.  The
share of failed operations of the two sets is compared exactly.  The
bounds come from ``BENCHMARK.json``; ``setup_s`` has no spread limit.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path
from typing import Dict, List

ROOT = Path(__file__).resolve().parent.parent
if str(ROOT) not in sys.path:
    sys.path.insert(0, str(ROOT))

from svcbench.stats import quartiles  # noqa: E402


def _seeds(text: str) -> List[int]:
    seeds = []
    for part in text.split(","):
        if "-" in part:
            low, high = part.split("-")
            seeds.extend(range(int(low), int(high) + 1))
        else:
            seeds.append(int(part))
    return seeds


def collect(args) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = args.seconds or spec["run_seconds"]
    with open(args.out, "a", encoding="utf-8") as out:
        for seed in _seeds(args.seeds):
            done = subprocess.run(
                [sys.executable, str(ROOT / "svcbench" / "run.py"),
                 "--workload", args.workload, "--seed", str(seed),
                 "--seconds", str(seconds), "--trace", str(args.trace)],
                cwd=ROOT, capture_output=True, text=True,
            )
            lines = [json.loads(line) for line in done.stdout.splitlines()
                     if line.startswith("{")]
            record = {"workload": args.workload, "seed": seed,
                      "returncode": done.returncode}
            for line in lines:
                record.update(line)
            if done.returncode != 0:
                record["stderr"] = done.stderr[-2000:]
            out.write(json.dumps(record) + "\n")
            out.flush()
            status = "ok" if done.returncode == 0 else f"exit {done.returncode}"
            print(f"{args.workload} seed {seed}: {status}", flush=True)
    return 0


def load(path: str) -> Dict[str, List[dict]]:
    runs: Dict[str, List[dict]] = {}
    for line in Path(path).read_text().splitlines():
        record = json.loads(line)
        if record.get("returncode", 0) == 0 and "metrics" in record:
            runs.setdefault(record["workload"], []).append(record)
    return runs


def _summary(values: List[float]):
    q1, q2, q3 = quartiles(values)
    return q1, q2, q3, (q3 - q1) / q2


def diff(args) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    metrics = {m["name"]: m for m in spec["end_to_end"]}
    first, second = load(args.first), load(args.second)
    worst = 0
    header = (f"{'workload':9} {'metric':16} {'median A':>10} {'Q1-Q3 A':>21} "
              f"{'spread A':>8} {'median B':>10} {'Q1-Q3 B':>21} {'spread B':>8} "
              f"{'change':>7} {'bound':>5}  verdict")
    print(header)
    for workload in sorted(set(first) | set(second)):
        a_runs, b_runs = first.get(workload, []), second.get(workload, [])
        if len(a_runs) < 2 or len(b_runs) < 2:
            print(f"{workload:9} needs at least two runs in each set")
            worst = max(worst, 2)
            continue
        for name, metric in metrics.items():
            a = [r["metrics"][name]["value"] for r in a_runs]
            b = [r["metrics"][name]["value"] for r in b_runs]
            a1, a2, a3, sa = _summary(a)
            b1, b2, b3, sb = _summary(b)
            sign = 1.0 if metric["better"] == "lower" else -1.0
            change = sign * (b2 - a2) / a2
            bound = metric["bound"]
            verdict = "ok"
            if change > bound:
                verdict = "WORSE"
            elif name != "setup_s" and max(sa, sb) > bound:
                verdict = "noisy"
            if verdict != "ok":
                worst = max(worst, 1)
            print(f"{workload:9} {name:16} {a2:10.4g} {a1:10.4g}-{a3:<10.4g} "
                  f"{sa:8.3f} {b2:10.4g} {b1:10.4g}-{b3:<10.4g} {sb:8.3f} "
                  f"{change:+7.3f} {bound:5.2f}  {verdict}")
        share_a = [r["failed"] / r["attempted"] for r in a_runs]
        share_b = [r["failed"] / r["attempted"] for r in b_runs]
        if len(set(share_a) | set(share_b)) != 1:
            print(f"{workload:9} failed share differs: {sorted(set(share_a))} "
                  f"vs {sorted(set(share_b))}")
            worst = max(worst, 1)
        if not all(r["correct"] for r in a_runs + b_runs):
            print(f"{workload:9} a run reported incorrect output")
            worst = max(worst, 1)
    return worst


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)
    p_collect = sub.add_parser("collect", help="run one set of seeds")
    p_collect.add_argument("--workload", required=True)
    p_collect.add_argument("--seeds", required=True, help="e.g. 1-10 or 1,4,9")
    p_collect.add_argument("--seconds", type=int, default=None,
                           help="default: run_seconds of BENCHMARK.json")
    p_collect.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p_collect.add_argument("--out", required=True)
    p_collect.set_defaults(handler=collect)
    p_diff = sub.add_parser("diff", help="compare two collected sets")
    p_diff.add_argument("first")
    p_diff.add_argument("second")
    p_diff.set_defaults(handler=diff)
    args = parser.parse_args(argv)
    return args.handler(args)


if __name__ == "__main__":
    sys.exit(main())

"""Compare two sets of benchmark runs: before and after a change.

    python3 perfbench/compare.py BEFORE.jsonl AFTER.jsonl

Each file holds result lines that run.py --out appended.  Runs are grouped by
workload and trace mode and paired by seed.  For every metric it prints both
medians with their quartiles, the change in the metric's better direction,
the share of seed pairs the after side wins, and a verdict:

    gain         wins at least 9 of 10 pairs and the medians differ by more
                 than the before side's quartile distance
    regression   the after median is worse by more than the metric's bound
    unresolved   the before side spreads wider than the bound
    same         none of the above

It also says, per workload, whether the simulated statistics (RunStats, event
word hash, dataset and model hashes, search selection) are identical seed for
seed; a change that claims only speed must leave them identical.
"""

from __future__ import annotations

import json
import statistics
import sys
from collections import defaultdict
from pathlib import Path

BENCHMARK = json.loads((Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())
METRICS = {m["name"]: m for m in BENCHMARK["end_to_end"] + BENCHMARK["per_layer"]}


def load(path: str) -> dict:
    groups: dict = defaultdict(dict)
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            rec = json.loads(line)
            p = rec["provenance"]
            groups[(p["workload"], p["trace"], p["quick"])][p["seed"]] = rec
    return groups


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def verdict(name: str, before: list, after: list, wins: int, pairs: int) -> str:
    spec = METRICS[name]
    sign = 1 if spec["better"] == "higher" else -1
    b1, bm, b3 = quartiles(before)
    _, am, _ = quartiles(after)
    gain = sign * (am - bm)
    bound = spec.get("bound")
    if pairs and wins >= 0.9 * pairs and gain > b3 - b1:
        return "gain"
    if bound is not None and -gain > bound * abs(bm):
        return "regression"
    if bound is not None and bm and (b3 - b1) / abs(bm) > bound:
        return "unresolved"
    return "same"


def main(before_path: str, after_path: str) -> int:
    before, after = load(before_path), load(after_path)
    for key in sorted(set(before) & set(after)):
        b, a = before[key], after[key]
        seeds = sorted(set(b) & set(a))
        workload, trace, quick = key
        print(f"\n== {workload} trace={trace}{' quick' if quick else ''}: {len(b)} before, {len(a)} after, {len(seeds)} paired seeds")
        differ = [s for s in seeds if b[s]["simulated"] != a[s]["simulated"]]
        print(f"simulated statistics: {'identical' if not differ else 'DIFFER on seeds ' + str(differ)}")
        print(f"{'metric':36} {'before median [q1, q3]':>34} {'after median [q1, q3]':>34} {'better by':>10} {'wins':>6}  verdict")
        after_names = a[next(iter(a))]["metrics"]
        for name in [n for n in b[next(iter(b))]["metrics"] if n in after_names and n in METRICS]:
            bv = [r["metrics"][name]["value"] for r in b.values()]
            av = [r["metrics"][name]["value"] for r in a.values()]
            sign = 1 if METRICS[name]["better"] == "higher" else -1
            wins = sum(
                1 for s in seeds if sign * (a[s]["metrics"][name]["value"] - b[s]["metrics"][name]["value"]) > 0
            )
            b1, bm, b3 = quartiles(bv)
            a1, am, a3 = quartiles(av)
            change = sign * (am - bm) / abs(bm) if bm else float("nan")
            print(
                f"{name:36} {bm:>12.5g} [{b1:.5g}, {b3:.5g}]".ljust(71)
                + f" {am:>12.5g} [{a1:.5g}, {a3:.5g}]".ljust(35)
                + f" {change:>+9.1%} {wins:>3}/{len(seeds):<2}  {verdict(name, bv, av, wins, len(seeds))}"
            )
    return 0


if __name__ == "__main__":
    if len(sys.argv) != 3:
        sys.exit(__doc__)
    sys.exit(main(sys.argv[1], sys.argv[2]))

"""Alternating benchmark pairs of a parent and a change checkout, summarised on one JSON line.

    python3 tools/pairs.py PARENT CHANGE [--workloads W ...] [--seeds S ...]
                           [--pairs 10] [--seconds 25] [--placebo DIR]

PARENT and CHANGE are two checkouts, given as directories.  For each
workload, seed and pair, in that order, it runs

    python3 perfbench/run.py --workload W --seed S --seconds N --trace 0

once in each checkout, the parent first on even pairs and the change
first on odd ones, so that a drift of the host's speed does not favour a
side.  It prints one JSON line: for each workload, each side's `correct`
and failed share per run, and for each end-to-end metric of BENCHMARK.json
(read from PARENT) each side's runs and median, the parent's
interquartile range, how many pairs the change won, and whether the
change's median is within the metric's bound of the parent's.  A
workload's runs pool its seeds.

Run both sides from copies outside the repository, side by side under one
directory (for example `git archive` of each commit): the location of
unchanged code alone has moved `carnot-cycle` by about 9 %, so a parent
run from elsewhere is no reference.  Passing the same checkout as both
sides shows the noise floor of a claim.

With --placebo DIR, a second copy of the parent at another path, each
pair also runs DIR (the three in reverse order on odd pairs), and each
metric gains a `placebo` entry: its runs, its median and how many pairs
it won against the parent.  A claim then prints its own noise floor
beside it; the report names DIR under `placebo`, and `correct` and
`failed_share` list its runs too.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent))

from bench_json import WORKLOADS, run_one  # noqa: E402

def _compare(metric: dict, parent: list, change: list, placebo: list | None = None) -> dict:
    """One metric's runs on each side, and the change's (and the placebo's) standing against the parent."""
    lower = metric["better"] == "lower"

    def wins(runs: list) -> int:
        return sum((c < p) if lower else (c > p) for p, c in zip(parent, runs))

    p_med, c_med = float(np.median(parent)), float(np.median(change))
    q1, q3 = np.percentile(parent, [25, 75])
    bound = metric["bound"]
    report = {
        "unit": metric["unit"],
        "better": metric["better"],
        "bound": bound,
        "parent": {"runs": parent, "median": p_med, "iqr": float(q3 - q1)},
        "change": {"runs": change, "median": c_med},
        "change_wins": wins(change),
        "within_bound": bool(c_med <= p_med * (1 + bound) if lower else c_med >= p_med * (1 - bound)),
    }
    if placebo is not None:
        report["placebo"] = {"runs": placebo, "median": float(np.median(placebo)), "wins": wins(placebo)}
    return report


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent", type=Path, help="the parent checkout")
    parser.add_argument("change", type=Path, help="the change checkout")
    parser.add_argument("--workloads", nargs="+", choices=WORKLOADS, default=list(WORKLOADS))
    parser.add_argument("--seeds", nargs="+", type=int, default=[1, 2])
    parser.add_argument("--pairs", type=int, default=10, help="pairs per workload and seed")
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--placebo", type=Path, help="a second copy of the parent, run in every pair")
    args = parser.parse_args(argv)
    roots = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    if args.placebo is not None:
        roots["placebo"] = args.placebo.resolve()
    sides = tuple(roots)
    metrics = json.loads((roots["parent"] / "BENCHMARK.json").read_text())["end_to_end"]

    report = {**{side: str(root) for side, root in roots.items()}, "seconds": args.seconds,
              "pairs": args.pairs, "seeds": args.seeds, "workloads": {}}
    for workload in args.workloads:
        runs = {side: [] for side in sides}
        for seed in args.seeds:
            for pair in range(args.pairs):
                for side in sides if pair % 2 == 0 else sides[::-1]:
                    runs[side].append(run_one(roots[side], workload, seed, args.seconds))
                print(f"{workload} seed {seed} pair {pair + 1}/{args.pairs}", file=sys.stderr)
        report["workloads"][workload] = {
            "correct": {side: [r["correct"] for r in runs[side]] for side in sides},
            "failed_share": {side: [r["failed"] / max(r["attempted"], 1) for r in runs[side]] for side in sides},
            "metrics": {
                m["name"]: _compare(m, *([r["metrics"][m["name"]]["value"] for r in runs[side]] for side in sides))
                for m in metrics
            },
        }
    print(json.dumps(report, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""The benchmark's own test: traced counts repeat exactly at one seed.

    python3 perfbench/check_counts.py [--seed N] [--seconds S] [WORKLOAD ...]

Runs `run.py --trace 1` twice per workload (all four by default) and fails
unless every `.calls`, `.evals`, `.steps_accepted` and `.bytes` metric is
identical between the two runs and both runs report correct results.
First it checks the tracer itself on a traced call that raises and is caught.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from run import NAMES  # noqa: E402
from tracer import COUNT_SUFFIXES, Tracer  # noqa: E402


def raising_call_case() -> bool:
    """Spans of a traced call that raises stay dense, and self times add up."""
    tr = Tracer()

    def leaf(x):
        if x < 0:
            raise ValueError(x)
        return x

    leaf = tr.wrap("linalg.eigendecompose", leaf)

    def outer():
        try:
            leaf(-1)
        except ValueError:
            pass
        return leaf(1)

    outer = tr.wrap("cli.main", outer)
    for _ in range(3):
        outer()
    spans = tr.take()
    m = tr.metrics(spans)
    dur = spans["end"] - spans["start"]
    main = spans["name"] == tr._ids["cli.main"]
    return (
        list(spans["id"]) == list(range(9))
        and m["cli.main.calls"] == 3
        and m["linalg.eigendecompose.calls"] == 6
        and abs(m["cli.main.self_s"] - (dur[main].sum() - dur[~main].sum())) < 1e-12
    )


def traced_result(workload: str, seed: int, seconds: float) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "1"],
        capture_output=True,
        text=True,
        timeout=600,
    )
    if proc.returncode != 0:
        raise SystemExit(f"{workload}: run.py exited {proc.returncode}\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("workloads", nargs="*", default=list(NAMES))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=2.0)
    args = parser.parse_args(argv)
    bad = not raising_call_case()
    print(f"tracer, traced call that raises: {'FAIL' if bad else 'PASS'}")
    for workload in args.workloads:
        first, second = (traced_result(workload, args.seed, args.seconds) for _ in range(2))
        counts = [k for k in first["metrics"] if k.endswith(COUNT_SUFFIXES)]
        differ = [k for k in counts if first["metrics"][k]["value"] != second["metrics"][k]["value"]]
        ok = not differ and first["correct"] and second["correct"]
        bad += not ok
        print(f"{workload}: {len(counts)} counts {'identical' if not differ else 'differ: ' + ', '.join(differ)}"
              f", correct {first['correct']}/{second['correct']} -> {'PASS' if ok else 'FAIL'}")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())

"""Run the benchmark's workloads and write their results to one BENCH_<N>.json file.

    python3 tools/bench_json.py --number N [--workloads W ...] [--seeds S ...]
                                [--seconds 25] [--root DIR] [--out PATH]

For each workload and seed, in that order, it runs

    python3 perfbench/run.py --workload W --seed S --seconds N --trace 0

in the checkout at --root (by default the one holding this script) and keeps
the JSON result on the last line of its output (`correct`, `attempted`,
`failed`, `metrics`) together with the `src_sha256` of its provenance line.
The file, BENCH_<N>.json at the root of that checkout unless --out names
another path, also records the checkout's git HEAD, whether its tracked
files differ from it, and the machine: core count, Python, numpy and scipy
versions.  A speed-up claim cites two such files, one written on each side
of the change.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys
from importlib import metadata
from pathlib import Path

DEFAULT_ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("osc-drive", "qubit-sweep", "carnot-cycle", "chain-spectra")
PROVENANCE = "provenance "


def _version(package: str) -> str | None:
    try:
        return metadata.version(package)
    except metadata.PackageNotFoundError:
        return None


def _git(root: Path, *args: str) -> str | None:
    proc = subprocess.run(["git", "-C", str(root), *args], capture_output=True, text=True)
    return proc.stdout.strip() if proc.returncode == 0 else None


def machine() -> dict:
    """Core count and the Python, numpy and scipy versions of this interpreter."""
    nproc = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    return {
        "nproc": nproc,
        "python": platform.python_version(),
        "numpy": _version("numpy"),
        "scipy": _version("scipy"),
    }


def run_one(root: Path, workload: str, seed: int, seconds: float) -> dict:
    """One run.py result: workload, seed, src_sha256, correct, attempted, failed, metrics."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=root, capture_output=True, text=True, timeout=600 + 10 * seconds)
    if proc.returncode != 0:
        raise SystemExit(f"{' '.join(cmd[1:])} exited {proc.returncode}\n{proc.stderr}")
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    provenance = next((json.loads(line[len(PROVENANCE):]) for line in lines if line.startswith(PROVENANCE)), {})
    return {
        "workload": workload,
        "seed": seed,
        "src_sha256": provenance.get("src_sha256"),
        **{key: result[key] for key in ("correct", "attempted", "failed", "metrics")},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--number", required=True, type=int, help="N in BENCH_<N>.json")
    parser.add_argument("--workloads", nargs="+", choices=WORKLOADS, default=list(WORKLOADS))
    parser.add_argument("--seeds", nargs="+", type=int, default=[1, 2])
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--root", type=Path, default=DEFAULT_ROOT, help="checkout to benchmark")
    parser.add_argument("--out", type=Path, help="output path (default: BENCH_<N>.json in --root)")
    args = parser.parse_args(argv)
    root = args.root.resolve()
    out = args.out or root / f"BENCH_{args.number}.json"
    runs = []
    for workload in args.workloads:
        for seed in args.seeds:
            runs.append(run_one(root, workload, seed, args.seconds))
            print(f"{workload} seed {seed}: correct {runs[-1]['correct']}, "
                  f"failed {runs[-1]['failed']}/{runs[-1]['attempted']}", file=sys.stderr)
    report = {
        "number": args.number,
        "git_head": _git(root, "rev-parse", "HEAD"),
        # tracked files differ from HEAD: the runs' src_sha256 names the code measured
        "git_dirty": bool(_git(root, "status", "--porcelain", "--untracked-files=no")),
        "machine": machine(),
        "command": "python3 perfbench/run.py --workload W --seed S --seconds N --trace 0",
        "seconds": args.seconds,
        "runs": runs,
    }
    out.write_text(json.dumps(report, indent=1, sort_keys=True) + "\n")
    print(out)
    return 0


if __name__ == "__main__":
    sys.exit(main())

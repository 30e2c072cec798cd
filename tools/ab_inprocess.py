"""Alternating in-process pairs of one CLI command in a parent and a change checkout, on one JSON line.

    python3 tools/ab_inprocess.py PARENT CHANGE --command C --config F [--reps 50]

PARENT and CHANGE are two checkouts, given as directories.  Each one's
`src/pseudotherm` is imported under a package name of its own
(`pseudotherm_parent` and `pseudotherm_change`), and

    cli.main([C, "--config", F, "--out", DIR])

runs on the two sides in turn in this one process, the parent first on
even pairs and the change first on odd ones, each side writing to a
temporary directory of its own.  One untimed call per side comes first, so
that lazily built caches are not timed.  It prints one JSON line: each
side's largest exit code and median wall time per call, the median over
the pairs of the ratio change / parent, and in how many pairs the change
was faster.

Both sides share one interpreter, allocator and numpy, and where a
checkout lies or how a process starts does not enter, so the ratio can
resolve a change of a few per cent that 25-s `tools/pairs.py` runs cannot
tell from noise.  Passing the same checkout as both sides shows that
floor.  The times are wall-clock seconds on the host that runs it.

Configs only: `--preset` resolution goes through
`importlib.resources.files("pseudotherm")`, whichever package is installed
under that name, so pass a config file (the packaged presets are the files
under `src/pseudotherm/presets/`).
"""

from __future__ import annotations

import os

# One BLAS thread, as the benchmark runs; set before numpy is first imported.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import importlib  # noqa: E402
import importlib.util  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

SIDES = ("parent", "change")


def load_cli(root: Path, name: str):
    """The `cli` module of the checkout at root, its package imported as `name`."""
    init = root / "src" / "pseudotherm" / "__init__.py"
    if not init.is_file():
        raise SystemExit(f"ab_inprocess: {init} does not exist")
    spec = importlib.util.spec_from_file_location(name, init, submodule_search_locations=[str(init.parent)])
    package = importlib.util.module_from_spec(spec)
    sys.modules[name] = package
    spec.loader.exec_module(package)
    return importlib.import_module(f"{name}.cli")


def timed(cli, argv: list) -> tuple:
    """(exit code, wall seconds) of one cli.main(argv) call, its output swallowed."""
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        clock = time.perf_counter()
        code = cli.main(argv)
        return code, time.perf_counter() - clock


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent", type=Path, help="the parent checkout")
    parser.add_argument("change", type=Path, help="the change checkout")
    parser.add_argument("--command", required=True, help="the pseudotherm subcommand to run")
    parser.add_argument("--config", required=True, type=Path, help="its JSON config file")
    parser.add_argument("--reps", type=int, default=50, help="timed pairs")
    args = parser.parse_args(argv)
    if args.reps < 1:
        parser.error("--reps must be at least 1")
    config = str(args.config.resolve())
    clis = {side: load_cli(getattr(args, side).resolve(), f"pseudotherm_{side}") for side in SIDES}
    times = {side: [] for side in SIDES}
    codes = {}
    with tempfile.TemporaryDirectory() as scratch:
        argvs = {side: [args.command, "--config", config, "--out", str(Path(scratch) / side)] for side in SIDES}
        for side in SIDES:
            codes[side] = timed(clis[side], argvs[side])[0]
        for pair in range(args.reps):
            for side in SIDES if pair % 2 == 0 else SIDES[::-1]:
                code, seconds = timed(clis[side], argvs[side])
                codes[side] = max(codes[side], code)
                times[side].append(seconds)
    ratios = [c / p for p, c in zip(times["parent"], times["change"])]
    report = {
        "parent": str(args.parent.resolve()),
        "change": str(args.change.resolve()),
        "command": args.command,
        "config": config,
        "reps": args.reps,
        "exit": codes,
        "median_s": {side: statistics.median(times[side]) for side in SIDES},
        "ratio_median": statistics.median(ratios),
        "change_wins": sum(r < 1.0 for r in ratios),
    }
    print(json.dumps(report, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())

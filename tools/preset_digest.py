"""Digest the artifacts of the packaged presets, or compare them between two checkouts.

    python3 tools/preset_digest.py [--root DIR] [--compare OTHER_ROOT]

Runs the four figure presets (`fig1-left`, `fig1-right`, `fig2-left`,
`fig2-right`), two `carnot` configs (the pseudo-hermitian two-level value
family and the hermitian coupling family), two-level `spectrum` (in
the broken regime) and `metric` (in the unbroken one) configs, an
`evolve` config on an open Hatano-Nelson chain, and a two-level
`jarzynski` sweep over the drive's duration, each with --svg, with the
package of the checkout at --root (by default the one holding this
script), and prints the sha256 of every file they write as JSON:
{"<run>": {"exit": code, "files": {"<name>": sha256}}}.

With --compare OTHER_ROOT it runs the same in the other checkout and prints
one line per file: identical, or different with the largest change of a
numeric CSV cell in each column that changed.  It exits 1 when any file or exit code differs.  Digests
depend on the BLAS build, so compare two checkouts on one machine rather
than against stored digests.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import subprocess
import sys
import tempfile
from pathlib import Path

DEFAULT_ROOT = Path(__file__).resolve().parent.parent
# A pseudo-hermitian two-level engine, E = +/- sqrt(0.85^2 - v^2): the hot
# isotherm spans the gaps 0.85 -> 0.75 at T = 2 and the cold one 0.375 -> 0.425
# at T = 1, so both isentropes keep beta E fixed and the cycle closes.
CARNOT = {
    "model": {"kind": "two_level", "coupling": 0.85},
    "cycle": {
        "T_hot": 2.0,
        "T_cold": 1.0,
        "legs": [0.0, 0.4, math.sqrt(0.85**2 - 0.375**2), math.sqrt(0.85**2 - 0.425**2)],
    },
}
# The hermitian coupling family [[0, c], [c, 0]]: E = +/- c, the hot isotherm
# narrows the gap 1 -> 0.75 at T = 2 and the cold one widens it 0.375 -> 0.5
# at T = 1.
CARNOT_COUPLING = {
    "model": {"kind": "two_level"},
    "cycle": {"T_hot": 2.0, "T_cold": 1.0, "legs": [1.0, 0.75, 0.375, 0.5], "parameter": "coupling"},
}
# The PT qubit E = +/- sqrt(1 - v^2) on either side of its exceptional point:
# a conjugate pair at v = 1.3, a positive-definite metric at v = 0.6.
SPECTRUM = {"model": {"kind": "two_level", "coupling": 1.0}, "at": 1.3}
METRIC = {"model": {"kind": "two_level", "coupling": 1.0}, "at": 0.6}
# An open Hatano-Nelson chain of 12 sites: a d > 2 family without affine
# terms, so `propagate` assembles each step from the node generators.
EVOLVE = {
    "model": {
        "kind": "hatano_nelson",
        "length": 12,
        "asymmetry": 0.3,
        "potential": [round(0.4 * math.sin(x), 6) for x in range(12)],
    },
    "protocol": {"kind": "erf", "start": 0.0, "end": 1.0, "duration": 1.0},
}
# A two-level Jarzynski sweep over the erf drive's duration: its points
# differ in window, so they run as lanes of one propagation with different
# step sizes.
JARZYNSKI = {
    "model": {"kind": "two_level", "coupling": 1.0},
    "protocol": {"kind": "erf", "start": 0.1, "end": 0.8, "duration": 1.0},
    "beta": 1.5,
    "sweep": {"name": "protocol.duration", "values": [0.1, 0.25, 0.5, 1.0, 2.0, 4.0, 8.0]},
}
# run name: (subcommand, config or None for a packaged preset)
RUNS = {
    "fig1-left": ("fig1-left", None),
    "fig1-right": ("fig1-right", None),
    "fig2-left": ("fig2-left", None),
    "fig2-right": ("fig2-right", None),
    "carnot": ("carnot", CARNOT),
    "carnot-coupling": ("carnot", CARNOT_COUPLING),
    "spectrum": ("spectrum", SPECTRUM),
    "metric": ("metric", METRIC),
    "evolve": ("evolve", EVOLVE),
    "jarzynski": ("jarzynski", JARZYNSKI),
}


def run_all(root: Path, workdir: Path) -> dict:
    """{run: {"exit": code, "files": {name: path}}} for every run, made in workdir with root's package."""
    env = dict(os.environ, PYTHONPATH=str(root / "src"))
    env.pop("PSEUDOTHERM_OUT", None)
    results = {}
    for name, (command, cfg) in RUNS.items():
        argv = [sys.executable, "-m", "pseudotherm.cli", command, "--out", name, "--svg"]
        if cfg is not None:
            (workdir / f"{name}.json").write_text(json.dumps(cfg))
            argv += ["--config", f"{name}.json"]
        proc = subprocess.run(argv, cwd=workdir, env=env, capture_output=True, text=True)
        out = workdir / name
        files = {p.name: p for p in sorted(out.iterdir())} if out.is_dir() else {}
        results[name] = {"exit": proc.returncode, "files": files}
    return results


def digest(results: dict) -> dict:
    """run_all's results with each file's path replaced by the sha256 of its bytes."""
    def sha256(path: Path) -> str:
        return hashlib.sha256(path.read_bytes()).hexdigest()

    return {
        name: {"exit": r["exit"], "files": {f: sha256(p) for f, p in r["files"].items()}}
        for name, r in results.items()
    }


def _cells(path: Path) -> list:
    """The CSV's data cells (after the provenance and header lines), row by row."""
    return [line.split(",") for line in path.read_text().splitlines()[2:]]


def largest_cell_change(a: Path, b: Path) -> str:
    """The largest |change| of a numeric cell in each changed column, with its row, or why there is none."""
    rows_a, rows_b = _cells(a), _cells(b)
    if [len(r) for r in rows_a] != [len(r) for r in rows_b]:
        return "rows or columns differ"
    worst = {}  # column: (change, row)
    for i, (ra, rb) in enumerate(zip(rows_a, rows_b)):
        for j, (x, y) in enumerate(zip(ra, rb)):
            if x == y:
                continue
            try:
                change = abs(float(x) - float(y))
            except ValueError:
                return f"text cell differs at row {i}, column {j}"
            change = math.inf if math.isnan(change) else change  # a NaN on one side only
            if j not in worst or change > worst[j][0]:
                worst[j] = (change, i)
    if not worst:
        return "only the provenance or header differs"
    cells = ", ".join(f"column {j} {c:.3e} (row {i})" for j, (c, i) in sorted(worst.items()))
    return f"largest cell change {cells}"


def compare(mine: dict, other: dict) -> list:
    """One line per run exit code and per file: identical, or how it differs."""
    lines = []
    for name in RUNS:
        a, b = mine[name], other[name]
        if a["exit"] != b["exit"]:
            lines.append(f"different  {name}: exit {a['exit']} against {b['exit']}")
        for f in sorted(set(a["files"]) | set(b["files"])):
            label = f"{name}/{f}"
            if f not in a["files"] or f not in b["files"]:
                lines.append(f"different  {label}: written on one side only")
            elif a["files"][f].read_bytes() == b["files"][f].read_bytes():
                lines.append(f"identical  {label}")
            elif f.endswith(".csv"):
                lines.append(f"different  {label}: {largest_cell_change(a['files'][f], b['files'][f])}")
            else:
                lines.append(f"different  {label}")
    return lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--root", type=Path, default=DEFAULT_ROOT, help="checkout to run")
    parser.add_argument("--compare", type=Path, metavar="OTHER_ROOT", help="checkout to compare with")
    args = parser.parse_args(argv)
    with tempfile.TemporaryDirectory() as tmp:
        mine_dir = Path(tmp, "root")
        mine_dir.mkdir()
        mine = run_all(args.root.resolve(), mine_dir)
        if args.compare is None:
            print(json.dumps(digest(mine), indent=1, sort_keys=True))
            return 0
        other_dir = Path(tmp, "other")
        other_dir.mkdir()
        lines = compare(mine, run_all(args.compare.resolve(), other_dir))
    print("\n".join(lines))
    return 1 if any(line.startswith("different") for line in lines) else 0


if __name__ == "__main__":
    sys.exit(main())

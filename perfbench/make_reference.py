"""Regenerate perfbench/pool.json: the input pools and their reference outputs.

    python3 perfbench/make_reference.py

Builds every workload's pool (workloads.*_pool), runs each pool entry once
through the same code path the benchmark times, and stores the headline
outputs per point.  Run it only at a commit whose numbers are the agreed
reference; a later run of the benchmark compares against them.  Prints
which checks each workload misses at this commit.
"""

import json
import sys
from collections import Counter
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import numpy as np  # noqa: E402

import run  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402


def main() -> int:
    rng = np.random.default_rng(workloads.POOL_SEED)
    pools = {
        "osc-drive": workloads.osc_pool(),
        "qubit-sweep": workloads.qubit_pool(),
        "carnot-cycle": workloads.carnot_pool(rng),
        "chain-spectra": workloads.chain_pool(rng),
    }
    capture = tracer.Capture()
    capture.install()
    for name, pool in pools.items():
        cls = workloads.WORKLOADS[name]
        entries = workloads.flatten(name, pool)
        n_points = cls.points_per_entry * len(entries)
        with tempfile.TemporaryDirectory(dir=HERE) as tmp:
            workdir = Path(tmp)
            for fname, content in cls.files(entries, 0).items():
                (workdir / fname).write_text(json.dumps(content))
            wl = cls(workdir)
            wl.setup()
            points = wl.extract(wl.iterate(lambda: None), capture.take(), n_points)
        missed, steps = {}, {}
        for k, entry in enumerate(entries):
            mine = points[k * cls.points_per_entry : (k + 1) * cls.points_per_entry]
            if any("error" in p for p in mine):
                raise SystemExit(f"{name}: entry {entry} failed: {mine}")
            entry["reference"] = [workloads.headline_of(cls, p) for p in mine]
            steps[id(entry)] = tuple(p.get("steps") for p in mine)
            for p in mine:
                for check in cls.gates(p):
                    missed[check] = missed.get(check, 0) + 1
        print(f"{name}: {n_points} points, missed checks {missed or 'none'}")
        if name in ("osc-drive", "qubit-sweep"):
            # keep, per group, the entries with the group's usual step counts,
            # so that every seed asks for the same propagation work
            for g, group in enumerate(pool):
                usual = Counter(steps[id(e)] for e in group).most_common(1)[0][0]
                dropped = [e for e in group if steps[id(e)] != usual]
                group[:] = [e for e in group if steps[id(e)] == usual]
                if dropped or name == "osc-drive":
                    print(f"  group {g}: steps {usual}, dropped {[list(e.values())[0] for e in dropped]}")
    pools["about"] = {
        "made_by": "perfbench/make_reference.py",
        "pool_seed": workloads.POOL_SEED,
        "git_commit": run._git_commit(),
        "src_sha256": run._provenance()["src_sha256"],
    }
    workloads.POOL_FILE.write_text(json.dumps(pools, separators=(",", ":")) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())

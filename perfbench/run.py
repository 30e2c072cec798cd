"""pseudotherm benchmark: one seeded workload, timed, checked and optionally traced.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads: osc-drive, qubit-sweep, carnot-cycle, chain-spectra (see
perfbench/README.md).  The run imports the package from `src/` of the
checkout that holds this script and fails without it.  It prints a
human-readable report, then one JSON line:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With --trace 0 the metrics are the end-to-end ones (set-up time from
fresh processes, iteration-time median, checked points per second, all in
host-speed-corrected reference seconds, see hostspeed.py; peak resident
set); the plain wall-clock figures are printed above the JSON line.  With
--trace 1 the run is split into an untraced and a traced half and the
metrics are the per-layer ones plus trace.overhead.
"""

from __future__ import annotations

import os

# Always one BLAS thread: one workload process per run, and the matrices
# (d <= 48) gain nothing from more.  Set before numpy is first imported.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import zlib  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
RUN_DIR = ROOT / ".perfbench_run"
SETUP_REPEATS = 7
P90_MIN_SAMPLES = 100
NAMES = ("osc-drive", "qubit-sweep", "carnot-cycle", "chain-spectra")


def _die(msg: str) -> None:
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(2)


def _git_commit() -> str | None:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    ref_file = ROOT / ".git" / ref[5:]
    if ref_file.is_file():
        return ref_file.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref[5:]):
                return line.split()[0]
    return None


def _provenance() -> dict:
    import numpy
    import scipy

    cpu = "unknown"
    cpuinfo = Path("/proc/cpuinfo")
    if cpuinfo.is_file():
        for line in cpuinfo.read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts:
            digest.update(str(path.relative_to(SRC)).encode() + b"\0" + path.read_bytes())
    return {
        "nproc": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count(),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas_threads": {v: os.environ.get(v) for v in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
        "git_commit": _git_commit(),
        "src_sha256": digest.hexdigest()[:16],
        "workers": 1,
    }


def _run_iterations(wl, budget: float, capture, tally, mark_point, on_iteration=None):
    """Closed loop of full passes; stops before a pass would overrun the budget.

    Returns the (start, end) perf_counter times of each pass and the points
    that passed every check.
    """
    spans, passed = [], 0
    began = time.perf_counter()
    while True:
        t0 = time.perf_counter()
        raw = wl.iterate(mark_point)
        t1 = time.perf_counter()
        spans.append((t0, t1))
        passed += tally.add(wl.extract(raw, capture.take(), len(tally.expected)))
        if on_iteration is not None:
            on_iteration()
        if time.perf_counter() - began + (t1 - t0) > budget:
            return spans, passed


def _setup_seconds(name: str, workdir: Path) -> list:
    """(wall, reference) seconds of each fresh-process set-up."""
    samples = []
    for _ in range(SETUP_REPEATS):
        proc = subprocess.run(
            [sys.executable, str(HERE / "setup_probe.py"), name, str(workdir)],
            capture_output=True,
            text=True,
            timeout=120,
        )
        if proc.returncode != 0:
            _die(f"set-up probe failed:\n{proc.stderr}")
        wall, ref = proc.stdout.strip().splitlines()[-1].split()
        samples.append((float(wall), float(ref)))
    return samples


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=NAMES)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        _die("--seed must be >= 0 and --seconds > 0")

    if not (SRC / "pseudotherm" / "__init__.py").is_file():
        _die(f"no package sources at {SRC / 'pseudotherm'}")
    sys.path.insert(0, str(SRC))
    import numpy as np

    import hostspeed
    import pseudotherm
    import tracer as tracer_mod
    import workloads

    if Path(pseudotherm.__file__).resolve().parent != (SRC / "pseudotherm").resolve():
        _die(f"imported pseudotherm from {pseudotherm.__file__}, not from {SRC}")

    cls = workloads.WORKLOADS[args.workload]
    pool = json.loads(workloads.POOL_FILE.read_text())
    rng = np.random.default_rng([args.seed, zlib.crc32(cls.name.encode())])
    entries = cls.select(rng, pool[cls.name])
    expected = [ref for e in entries for ref in e["reference"]]

    RUN_DIR.mkdir(exist_ok=True)
    workdir = RUN_DIR / f"{cls.name}-{os.getpid()}"
    workdir.mkdir()
    try:
        for fname, content in cls.files(entries, args.seed).items():
            (workdir / fname).write_text(json.dumps(content, indent=1))
        wl = cls(workdir)
        provenance = _provenance()
        setup = [] if args.trace else _setup_seconds(cls.name, workdir)
        wl.setup()

        capture, tally = tracer_mod.Capture(), workloads.Tally(wl, expected)
        capture.install()
        if args.trace:
            base_spans, _ = _run_iterations(wl, args.seconds / 2, capture, tally, lambda: None)
            tr = tracer_mod.Tracer(cls.point_root)
            tr.install()
            trace_file = RUN_DIR / "traces" / f"{cls.name}-seed{args.seed}.npz"
            trace_file.parent.mkdir(exist_ok=True)
            per_iteration = []

            def summarise():
                spans = tr.take()
                if not per_iteration:
                    tr.save(trace_file, spans, provenance)
                per_iteration.append(tr.metrics(spans))

            traced_spans, _ = _run_iterations(wl, args.seconds / 2, capture, tally, tr.next_point, summarise)
            base_times, traced_times = ([b - a for a, b in spans] for spans in (base_spans, traced_spans))
            metrics = {}
            for key in tracer_mod.PER_LAYER_UNITS:
                if key == "trace.overhead":
                    value = statistics.median(traced_times) / statistics.median(base_times) - 1.0
                elif key.endswith(tracer_mod.COUNT_SUFFIXES):
                    value = per_iteration[0][key]
                else:
                    value = statistics.median(m[key] for m in per_iteration)
                metrics[key] = {"value": value, "unit": tracer_mod.PER_LAYER_UNITS[key]}
            report = [
                f"untraced iterations {len(base_times)}, traced iterations {len(traced_times)}",
                f"spans of the first traced iteration -> {trace_file}",
            ]
        else:
            meter = hostspeed.Meter()
            meter.start()
            try:
                spans, passed = _run_iterations(wl, args.seconds, capture, tally, lambda: None)
            finally:
                meter.stop()
            times = [b - a for a, b in spans]
            ref_times = [meter.reference_seconds(a, b) for a, b in spans]
            rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
            metrics = {
                "setup_s": {"value": statistics.median(ref for _, ref in setup), "unit": "s"},
                "iter_ref_s_p50": {"value": statistics.median(ref_times), "unit": "s"},
                "points_per_ref_s": {"value": passed / sum(ref_times), "unit": "1/s"},
                "peak_rss_mb": {"value": rss_mb, "unit": "MB"},
            }
            if len(times) >= P90_MIN_SAMPLES:
                p90 = (
                    f"iter_ref_s_p90 {statistics.quantiles(ref_times, n=10)[-1]:.6g} s,"
                    f" wall iter_s_p90 {statistics.quantiles(times, n=10)[-1]:.6g} s"
                )
            else:
                p90 = f"iter_ref_s_p90 and iter_s_p90 omitted: {len(times)} iterations < {P90_MIN_SAMPLES}"
            report = [
                f"iterations {len(times)} ({len(expected)} points each); setup_s from {len(setup)} fresh processes",
                p90,
                f"wall clock: setup {statistics.median(wall for wall, _ in setup):.6g} s,"
                f" iter_s_p50 {statistics.median(times):.6g} s, points_per_s {passed / sum(times):.6g} 1/s",
                f"host speed: {len(meter.durations)} calibration samples,"
                f" median {1e6 * statistics.median(meter.durations):.4g} us (nominal {1e6 * hostspeed.NOMINAL_S:.4g} us)",
            ]
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    print(f"workload {cls.name} seed {args.seed} seconds {args.seconds:g} trace {args.trace}")
    print("provenance " + json.dumps(provenance, sort_keys=True))
    for line in report:
        print(line)
    for key, m in metrics.items():
        print(f"{key} {m['value']:.6g} {m['unit']}")
    fail_ratio = tally.failed / tally.attempted
    print(f"fail_ratio {fail_ratio:.6g} 1 ({tally.failed}/{tally.attempted} points)")
    for check, count in sorted(tally.by_check.items()):
        print(f"failed_check {check} {count}")
    print(
        json.dumps(
            {
                "correct": tally.mismatched == 0,
                "attempted": tally.attempted,
                "failed": tally.failed,
                "metrics": metrics,
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())

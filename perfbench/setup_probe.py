"""Time one workload set-up in a fresh process; prints wall and reference seconds.

    python3 perfbench/setup_probe.py WORKLOAD WORKDIR

Set-up is importing pseudotherm, parsing the workload's input files in
WORKDIR, building its models and filling their lazy caches.  run.py runs
this several times per run and reports the median as setup_s.  The host
speed (hostspeed.py) is sampled from just after numpy is imported.
"""

import time

t0 = time.perf_counter()

import sys  # noqa: E402
from pathlib import Path  # noqa: E402

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import hostspeed  # noqa: E402  (imports numpy, as pseudotherm does)

meter = hostspeed.Meter()
meter.start()

import workloads  # noqa: E402

workloads.WORKLOADS[sys.argv[1]](Path(sys.argv[2])).setup()
t1 = time.perf_counter()
meter.stop()
print(t1 - t0, meter.reference_seconds(t0, t1))

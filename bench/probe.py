"""Set-up probe: a fresh interpreter that builds one workload, then stops.

bench/run.py starts this script and times it from the moment the process
is started to the moment it prints "ready", which covers interpreter
start, the imports, the input generation and the construction of the
problem.  It inherits the pinned BLAS thread count from run.py.

    python3 bench/probe.py <workload> <seed>
"""

import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from workloads import WORKLOADS  # noqa: E402

name, seed = sys.argv[1], int(sys.argv[2])
workload = WORKLOADS[name](seed, ROOT / ".bench_out" / name)
if hasattr(workload, "setup_probe"):
    workload.setup_probe()
print("ready", flush=True)

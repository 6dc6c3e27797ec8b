"""The repo benchmark: four campaign workloads, end-to-end metrics and a
traced per-layer breakdown. See ``README.md`` beside this file.

Importing the package puts the checkout's ``src/`` first on ``sys.path``, so
the benchmark always measures the code next to it, and limits BLAS to one
thread in this process and every process it starts.
"""

import os
import sys
import time
from pathlib import Path

#: When the benchmark process started importing; set-up time counts from here.
STARTED = time.perf_counter()

# The benchmark's own processes already fill the machine's CPUs (two pool or
# cluster workers on a 2-CPU host). A threaded BLAS call then spins on a CPU
# another process holds: a 1 ms LS-SVM solve measured up to 100 ms that way.
# Set before numpy is first imported, which reads these once.
for _threads in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_threads] = "1"

ROOT = Path(__file__).resolve().parents[2]
SRC = ROOT / "src"
if str(SRC) not in sys.path:
    sys.path.insert(0, str(SRC))

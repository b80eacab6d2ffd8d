"""Run the suite with single-threaded BLAS: at these sizes (d <= 32) a thread
pool costs more than it saves. Set before any test module imports numpy, and
only where the caller has not chosen a thread count."""

import os

for _name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_name, "1")

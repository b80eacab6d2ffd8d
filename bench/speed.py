"""Reference kernel that tracks the machine's speed during a run.

On a shared machine the speed of a core drifts by 20% or more over tens
of seconds, which swamps changes in the program. The runner times this
fixed kernel about every half second, between instances, and scales each
stretch of instance latencies by REFERENCE_S / (kernel time around it).
Reported times are therefore wall-clock times at the speed at which the
kernel takes REFERENCE_S. The kernel imports nothing from dcoh, so a
change to the program cannot move it, and its numpy functions are bound
here, before the tracer rebinds ``numpy.linalg``.

The mix follows the workloads: small Hermitian eigendecompositions and
matrix products (LAPACK and BLAS), JSON round trips and interpreter work.
"""

from __future__ import annotations

import json
import time

import numpy as np
from numpy.linalg import eigh, eigvalsh

# Median kernel time on the machine the benchmark was defined on
# (2 cores, OpenBLAS with one thread, Python 3.11).
REFERENCE_S = 0.011


class SpeedProbe:
    def __init__(self) -> None:
        rng = np.random.default_rng(0)
        self._mats = []
        for d in (3, 5, 8, 16):
            a = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
            self._mats.append(a + a.conj().T)
        self._doc = {"kind": "density", "re": [[0.5, 0.25], [0.25, 0.5]], "tags": list(range(20))}

    def __call__(self) -> float:
        """Seconds the kernel takes now."""
        t0 = time.perf_counter()
        for _ in range(40):
            for a in self._mats:
                w, v = eigh(a)
                b = (v * np.sqrt(np.abs(w))) @ v.conj().T
                eigvalsh(b @ a @ b)
            json.loads(json.dumps(self._doc, sort_keys=True))
            s = 0
            for i in range(200):
                s += i * i
        return time.perf_counter() - t0

"""Dense complex Hermitian matrix primitives.

Inputs are checked against a small asymmetry tolerance and then
symmetrized, so downstream code never sees rounding-induced asymmetry.
Nothing here decomposes a matrix: the caller's one decomposition feeds
`check_psd_spectrum`. States are validated in `states`.
"""

from __future__ import annotations

import numpy as np

# Absolute max-entry tolerance between two matrices that must be equal: A and
# A^dag, sigma and dephase(rho), rho and dephase(rho), stored Kraus and Choi.
HERM_ATOL = 1e-10
# The rank cut of a state: its eigenvalues and populations above RANK_RTOL
# form its supports. The dual solvers scale it by max(1, |A(t)|) as their zero band.
RANK_RTOL = 1e-9
# Eigenvalues above -PSD_ATOL still count as positive semidefinite.
PSD_ATOL = 1e-9


def check_hermitian(a) -> np.ndarray:
    """Validate Hermiticity within HERM_ATOL and return the symmetrized matrix (A + A^dag)/2."""
    a = np.asarray(a, dtype=complex)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {a.shape}")
    asym = float(np.abs(a - a.conj().T).max(initial=0.0))
    if not asym <= HERM_ATOL:
        raise ValueError(
            f"matrix is not Hermitian: max asymmetry {asym:.3e} exceeds {HERM_ATOL:.1e}"
        )
    return (a + a.conj().T) / 2


def check_psd_spectrum(w) -> None:
    """Refuse an ascending spectrum whose least eigenvalue is below -PSD_ATOL."""
    if w.size and w[0] < -PSD_ATOL:
        raise ValueError(f"matrix is not PSD: min eigenvalue {w[0]:.3e}")

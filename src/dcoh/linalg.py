"""Dense complex Hermitian linear algebra primitives.

All spectral helpers work on exactly Hermitian data: inputs are checked
against a small asymmetry tolerance and then symmetrized, so downstream
code never sees rounding-induced asymmetry.

Every function of a PSD matrix (support projector, fidelity) reads one
decomposition, ``support_eigh``: a single ``eigh`` whose eigenvalues also
serve the PSD check, truncated to the support.
"""

from __future__ import annotations

import numpy as np

# Absolute max-entry tolerance for the Hermiticity check.
HERM_ATOL = 1e-10
# Relative eigen-truncation tolerance: tau = RANK_RTOL * max(1, lambda_max).
RANK_RTOL = 1e-9
# Eigenvalues above -PSD_ATOL still count as positive semidefinite.
PSD_ATOL = 1e-9


def check_hermitian(a, atol: float = HERM_ATOL) -> np.ndarray:
    """Validate Hermiticity and return the symmetrized matrix (A + A^dag)/2."""
    a = np.asarray(a, dtype=complex)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {a.shape}")
    asym = float(np.abs(a - a.conj().T).max(initial=0.0))
    if not asym <= atol:
        raise ValueError(
            f"matrix is not Hermitian: max asymmetry {asym:.3e} exceeds {atol:.1e}"
        )
    return (a + a.conj().T) / 2


def rank_tol(w) -> float:
    """Eigen-truncation threshold for a spectrum ``w``."""
    return RANK_RTOL * max(1.0, float(np.abs(w).max(initial=0.0)))


def check_psd(a) -> np.ndarray:
    """Validate that ``a`` is Hermitian PSD within tolerance."""
    a = check_hermitian(a)
    w = np.linalg.eigvalsh(a)
    if w.size and w[0] < -PSD_ATOL:
        raise ValueError(f"matrix is not PSD: min eigenvalue {w[0]:.3e}")
    return a


def support_eigh(a) -> tuple[np.ndarray, np.ndarray]:
    """Eigenpairs (w, v) of a PSD matrix on its support: A = v diag(w) v^dag.

    One eigh both validates (Hermitian, min eigenvalue >= -PSD_ATOL) and
    decomposes; eigenvalues at or below rank_tol are dropped.
    """
    return _support_eigh(check_hermitian(a))


def _support_eigh(a) -> tuple[np.ndarray, np.ndarray]:
    """support_eigh of an exactly Hermitian ``a``."""
    w, v = np.linalg.eigh(a)
    if w.size and w[0] < -PSD_ATOL:
        raise ValueError(f"matrix is not PSD: min eigenvalue {w[0]:.3e}")
    keep = w > rank_tol(w)
    return w[keep], v[:, keep]


def support_projector(a) -> np.ndarray:
    """Projector onto the support (range) of a PSD matrix."""
    _, v = support_eigh(a)
    return v @ v.conj().T


def fidelity(rho, sigma) -> float:
    """Uhlmann fidelity F(rho, sigma) = ||sqrt(rho) sqrt(sigma)||_1^2.

    Taken on the support of rho: with f = v sqrt(w) from support_eigh(rho),
    f^dag sigma f has the nonzero spectrum of sqrt(rho) sigma sqrt(rho), and
    no kernel eigenvalue of rho reaches the square roots.
    """
    rho = np.asarray(rho, dtype=complex)
    sigma = np.asarray(sigma, dtype=complex)
    if rho.shape != sigma.shape:
        raise ValueError(f"dimension mismatch: {rho.shape} vs {sigma.shape}")
    sigma = check_psd(sigma)
    w, v = support_eigh(rho)
    f = v * np.sqrt(w)
    return fidelity_from_inner(f.conj().T @ sigma @ f)


def fidelity_from_inner(inner) -> float:
    """F(rho, sigma) = (Tr sqrt(inner))^2 from inner = sqrt(rho) sigma sqrt(rho)."""
    w = np.linalg.eigvalsh((inner + inner.conj().T) / 2)
    f = float(np.sum(np.sqrt(np.clip(w, 0.0, None))) ** 2)
    return min(max(f, 0.0), 1.0)

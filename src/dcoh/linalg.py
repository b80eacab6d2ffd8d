"""Dense complex Hermitian linear algebra primitives.

All spectral helpers work on exactly Hermitian data: inputs are checked
against a small asymmetry tolerance and then symmetrized, so downstream
code never sees rounding-induced asymmetry.
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
    asym = float(np.max(np.abs(a - a.conj().T))) if a.size else 0.0
    if not asym <= atol:
        raise ValueError(
            f"matrix is not Hermitian: max asymmetry {asym:.3e} exceeds {atol:.1e}"
        )
    return (a + a.conj().T) / 2


def eigh_sorted(a) -> tuple[np.ndarray, np.ndarray]:
    """Eigendecomposition of a Hermitian matrix, eigenvalues non-increasing.

    Ties are broken stably so that rank decisions and prefix sums are
    reproducible across runs.
    """
    a = check_hermitian(a)
    w, v = np.linalg.eigh(a)
    idx = np.argsort(-w, kind="stable")
    return w[idx].real, v[:, idx]


def rank_tol(w) -> float:
    """Eigen-truncation threshold for a spectrum ``w``."""
    lam_max = float(np.max(np.abs(w))) if np.size(w) else 0.0
    return RANK_RTOL * max(1.0, lam_max)


def positive_part(a) -> np.ndarray:
    """Positive part (A)_+ = sum of lambda_k v_k v_k^dag over lambda_k > tau."""
    w, v = eigh_sorted(a)
    tau = rank_tol(w)
    keep = w > tau
    if not np.any(keep):
        return np.zeros_like(np.asarray(a, dtype=complex))
    vk = v[:, keep]
    return (vk * w[keep]) @ vk.conj().T


def check_psd(a, atol: float = PSD_ATOL) -> np.ndarray:
    """Validate that ``a`` is Hermitian PSD within tolerance."""
    a = check_hermitian(a)
    w = np.linalg.eigvalsh(a)
    if w.size and w[0] < -atol:
        raise ValueError(f"matrix is not PSD: min eigenvalue {w[0]:.3e}")
    return a


def support_projector(a) -> np.ndarray:
    """Projector onto the support (range) of a PSD matrix."""
    a = check_psd(a)
    w, v = eigh_sorted(a)
    tau = rank_tol(w)
    vk = v[:, w > tau]
    return vk @ vk.conj().T


def matrix_power(a, s: float) -> np.ndarray:
    """PSD matrix power A^s; negative powers are taken on the support only."""
    a = check_psd(a)
    w, v = eigh_sorted(a)
    tau = rank_tol(w)
    keep = w > tau
    out = np.zeros_like(a)
    if np.any(keep):
        vk = v[:, keep]
        out = (vk * (w[keep] ** s)) @ vk.conj().T
    return out


def trace_norm(a) -> float:
    """Trace norm of a Hermitian matrix: sum of absolute eigenvalues."""
    a = check_hermitian(a)
    return float(np.sum(np.abs(np.linalg.eigvalsh(a))))


def fidelity(rho, sigma) -> float:
    """Uhlmann fidelity F(rho, sigma) = ||sqrt(rho) sqrt(sigma)||_1^2."""
    rho = np.asarray(rho, dtype=complex)
    sigma = np.asarray(sigma, dtype=complex)
    if rho.shape != sigma.shape:
        raise ValueError(f"dimension mismatch: {rho.shape} vs {sigma.shape}")
    sr = matrix_power(rho, 0.5)
    return fidelity_from_inner(sr @ sigma @ sr)


def fidelity_from_inner(inner) -> float:
    """F(rho, sigma) = (Tr sqrt(inner))^2 from inner = sqrt(rho) sigma sqrt(rho)."""
    w = np.linalg.eigvalsh((inner + inner.conj().T) / 2)
    f = float(np.sum(np.sqrt(np.clip(w, 0.0, None))) ** 2)
    return min(max(f, 0.0), 1.0)

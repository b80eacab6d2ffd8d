"""States in a fixed incoherent basis: density matrices, pure amplitude
vectors, dephasing, the Uhlmann fidelity and the coherence-specific norms,
and every named tolerance the package compares with.

The one module that validates a state: `density`, or `check_density` for
the two `hypotest` solvers, which read no eigenpairs; every normalization
is 1 within TRACE_ATOL. Matrices are checked against a small asymmetry
tolerance and then symmetrized (`check_hermitian`), so downstream code
never sees rounding-induced asymmetry; a caller's one decomposition feeds
`check_psd_spectrum`, for states and Choi operators alike. The incoherent
basis is always the computational basis of the stored array; any basis
change is the caller's responsibility. This module imports no other dcoh
module.
"""

from __future__ import annotations

import json
import math
import sys
from dataclasses import dataclass

import numpy as np

# Absolute max-entry tolerance between two matrices that must be equal: A and
# A^dag, sigma and dephase(rho), rho and dephase(rho), stored Kraus and Choi.
HERM_ATOL = 1e-10
# The rank cut: an eigenvalue within it of 0 is 0. Above it, support (a state's eigenvalues
# and populations); below its negative, not PSD. The dual solvers scale it by max(1, |A(t)|).
RANK_RTOL = 1e-9
# The one normalization slack: traces, squared norms, probability sums, partial traces.
TRACE_ATOL = 1e-9
# Floating-point dust below this magnitude is clamped to zero in
# probability vectors.
PROB_CLAMP = 1e-12
# Absolute slack on prefix-sum comparisons so exact boundary equalities
# pass in floating point.
PREFIX_SLACK = 1e-9
# Frobenius bound on a covariance violation and on a witness's image error.
DIO_ATOL = 1e-8
# Width on t, relative to max(1, t), at which a one-dimensional bracket stops:
# _scalar_dual's smooth segment and the dilution witness bracket in `rates`.
BRACKET_TOL = 1e-12


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
    """Refuse an ascending spectrum whose least eigenvalue is below -RANK_RTOL."""
    if w.size and w[0] < -RANK_RTOL:
        raise ValueError(f"matrix is not PSD: min eigenvalue {w[0]:.3e}")


@dataclass(frozen=True, eq=False)
class Density:
    """A validated density matrix: rho symmetrized and its support eigenpairs
    (w, v), as read-only arrays. Built by `density`, which a function taking
    a state runs once; its callees read the value without validating again."""

    rho: np.ndarray
    w: np.ndarray
    v: np.ndarray


def density(rho) -> Density:
    """Validate a density matrix (Hermitian, PSD, unit trace) by one eigh that
    also serves the rank cut, with check_density's checks, order and
    messages. A Density is returned unchanged."""
    if isinstance(rho, Density):
        return rho
    rho = check_hermitian(rho)
    w, v = np.linalg.eigh(rho)
    check_psd_spectrum(w)
    keep = w > RANK_RTOL
    w, v = w[keep], v[:, keep]
    _check_trace(rho)
    for a in (rho, w, v):
        a.setflags(write=False)
    return Density(rho, w, v)


def check_density(rho) -> np.ndarray:
    """Validate a density matrix (Hermitian, PSD, unit trace) by one eigvalsh,
    without its eigenvectors; returns it symmetrized, or a Density's rho as it is."""
    if isinstance(rho, Density):
        return rho.rho
    rho = check_hermitian(rho)
    check_psd_spectrum(np.linalg.eigvalsh(rho))
    return _check_trace(rho)


def _check_trace(rho) -> np.ndarray:
    tr = float(rho.trace().real)
    if not abs(tr - 1.0) <= TRACE_ATOL:
        raise ValueError(f"trace is {tr!r}, expected 1 within {TRACE_ATOL:.1e}")
    return rho


def fidelity(rho, sigma) -> float:
    """Uhlmann fidelity F(rho, sigma) = ||sqrt(rho) sqrt(sigma)||_1^2 of two states.

    Taken on the support of rho: with f = v sqrt(w) from its Density,
    f^dag sigma f has the nonzero spectrum of sqrt(rho) sigma sqrt(rho), and
    no kernel eigenvalue of rho reaches the square roots.
    """
    state, sigma = density(rho), density(sigma).rho
    if state.rho.shape != sigma.shape:
        raise ValueError(f"dimension mismatch: {state.rho.shape} vs {sigma.shape}")
    f = state.v * np.sqrt(state.w)
    inner = f.conj().T @ sigma @ f
    x = np.linalg.eigvalsh((inner + inner.conj().T) / 2)
    return min(float(np.sum(np.sqrt(np.clip(x, 0.0, None))) ** 2), 1.0)


def check_pure(psi) -> np.ndarray:
    """Validate a pure-state amplitude vector: 1-D, Tr |psi><psi| = 1 within TRACE_ATOL."""
    psi = np.asarray(psi, dtype=complex)
    if psi.ndim != 1:
        raise ValueError(f"expected a 1-D amplitude vector, got shape {psi.shape}")
    nrm2 = float(np.vdot(psi, psi).real)
    if not abs(nrm2 - 1.0) <= TRACE_ATOL:
        raise ValueError(f"squared norm is {nrm2!r}, expected 1 within {TRACE_ATOL:.1e}")
    return psi


def prob_vector(p) -> np.ndarray:
    """Clamp dust, validate normalization, and return an exactly normalized copy."""
    p = np.asarray(p, dtype=float).reshape(-1)
    if np.any(p < -PROB_CLAMP):
        raise ValueError(f"negative probability {p.min()!r}")
    p = np.where(p < 0.0, 0.0, p)
    s = float(p.sum())
    if not abs(s - 1.0) <= TRACE_ATOL:
        raise ValueError(f"probabilities sum to {s!r}, expected 1 within {TRACE_ATOL:.1e}")
    return p / s


def pure_to_density(psi) -> np.ndarray:
    psi = check_pure(psi)
    return np.outer(psi, psi.conj())


def coherence_distribution(psi) -> np.ndarray:
    """Squared moduli |psi_x|^2 of the amplitudes, as a probability vector."""
    psi = check_pure(psi)
    return prob_vector(np.abs(psi) ** 2)


def dephase(rho) -> np.ndarray:
    """Completely dephasing channel: zero all off-diagonal entries."""
    rho = np.asarray(rho, dtype=complex)
    return np.diag(np.diag(rho).real).astype(complex)


def max_coherent(m: int) -> np.ndarray:
    """Maximally coherent state Psi_m: m amplitudes 1/sqrt(m)."""
    if m < 1:
        raise ValueError(f"need m >= 1, got m={m}")
    return np.full(m, 1.0 / np.sqrt(m), dtype=complex)


def l1_norm(rho) -> float:
    """Entrywise l1 norm: sum of moduli of all matrix entries."""
    return float(np.sum(np.abs(density(rho).rho)))


def is_incoherent(rho) -> bool:
    """Whether rho equals dephase(rho) within HERM_ATOL in every entry."""
    rho = density(rho).rho
    return bool(np.abs(rho - dephase(rho)).max() <= HERM_ATOL)


# ---------------------------------------------------------------------------
# JSON state format
#   density: {"kind": "density", "dim": d, "re": [[...]], "im": [[...]]}
#   pure:    {"kind": "pure", "dim": d, "re": [...], "im": [...]}
# ---------------------------------------------------------------------------

def state_to_json(obj) -> str:
    arr = np.asarray(obj, dtype=complex)
    kind = {1: "pure", 2: "density"}.get(arr.ndim)
    if kind is None:
        raise ValueError(f"cannot serialize array of ndim {arr.ndim}")
    doc = {"kind": kind, "dim": arr.shape[0], "re": arr.real.tolist(), "im": arr.imag.tolist()}
    return json.dumps(doc, sort_keys=True)


def json_int(value, name: str) -> int:
    """A document's integer field; a float, a string or a bool is a TypeError."""
    if isinstance(value, bool) or not isinstance(value, int):
        raise TypeError(f"{name} must be an integer, got {value!r}")
    return value


def json_number(value, name: str) -> float:
    """A document's number field as a finite float; a string or a bool is a TypeError."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise TypeError(f"{name} must be a number, got {value!r}")
    if not abs(value) <= sys.float_info.max:  # exact for an int, False for a NaN
        raise ValueError(f"{name} holds a number that is infinite, NaN or past the float range")
    return float(value)


def json_numbers(value, name: str) -> np.ndarray:
    """A document's vector or matrix field as a float array: a list of numbers
    or of equal-length lists of numbers, typed and checked finite in one pass;
    `json_number` reads each entry, naming the first bad one, only when a type
    is not int or float or an entry is not finite (`json.loads` reads NaN)."""
    matrix = isinstance(value, list) and bool(value) and isinstance(value[0], list)
    rows = value if matrix else [value]
    if not all(isinstance(row, list) and len(row) == len(rows[0]) for row in rows):
        raise TypeError(f"{name} must be a list of numbers or of equal-length rows")
    if {type(x) for row in rows for x in row} <= {int, float}:
        try:
            entries = np.array(rows, dtype=float)
        except OverflowError:  # an integer past the float range
            entries = np.array(math.nan)
        if math.isfinite(entries.sum()):  # else a NaN, an infinity or a sum that overflows
            return entries if matrix else entries[0]
    entries = np.array([[json_number(x, name) for x in row] for row in rows], dtype=float)
    return entries if matrix else entries[0]


def state_from_json(doc) -> tuple[str, Density | np.ndarray]:
    """Parse and validate a JSON state document; returns (kind, state), the
    state a Density for a density document and an amplitude vector for a
    pure one."""
    if isinstance(doc, (str, bytes)):
        doc = json.loads(doc)
    try:
        kind = doc["kind"]
        if kind not in ("density", "pure"):
            raise ValueError(f"expected a density or pure state document, got kind {kind!r}")
        dim = json_int(doc["dim"], "dim")
        re, im = json_numbers(doc["re"], "re"), json_numbers(doc["im"], "im")
    except (KeyError, TypeError) as exc:
        raise ValueError(f"malformed state document: {exc}") from exc
    arr = re + 1j * im
    if kind == "density":
        if arr.shape != (dim, dim):
            raise ValueError(f"density shape {arr.shape} does not match dim {dim}")
        return "density", density(arr)
    if arr.shape != (dim,):
        raise ValueError(f"pure shape {arr.shape} does not match dim {dim}")
    return "pure", check_pure(arr)

"""Reference linear algebra for checking dcoh outputs from outside the package.

Nothing here imports dcoh: every quantity a check relies on (fidelity,
R_Delta, positive parts, Renyi monotones, channel action) is recomputed
with plain numpy, so a change to a dcoh helper cannot make a check agree
with itself. The numpy functions are bound at import time, before the
tracer rebinds ``numpy.linalg``, so checks never show up in the trace.
"""

from __future__ import annotations

import math

import numpy as np
from numpy.linalg import eigh, eigvalsh


class WrongAnswer(Exception):
    """An output that the reference computation refutes."""


def require(ok: bool, what: str) -> None:
    if not ok:
        raise WrongAnswer(what)


def herm(a) -> np.ndarray:
    a = np.asarray(a, dtype=complex)
    return (a + a.conj().T) / 2


def dephase(rho) -> np.ndarray:
    return np.diag(np.diag(rho).real).astype(complex)


def eigvals(a) -> np.ndarray:
    return eigvalsh(herm(a))


def positive_trace(a) -> float:
    """Tr(A)_+ for Hermitian A."""
    w = eigvals(a)
    return float(np.sum(w[w > 0.0]))


def psd_power(a, s: float, rtol: float = 1e-12) -> np.ndarray:
    """A^s on the support of the PSD matrix A."""
    w, v = eigh(herm(a))
    keep = w > rtol * max(1.0, float(np.max(np.abs(w))))
    vk = v[:, keep]
    return (vk * w[keep] ** s) @ vk.conj().T


def fidelity(rho, sigma) -> float:
    """F = ||sqrt(rho) sqrt(sigma)||_1^2 from singular values.

    Taking square roots of the eigenvalues of sqrt(rho) sigma sqrt(rho)
    instead turns rounding dust on a rank-deficient state into errors of
    order sqrt(machine epsilon), about 1e-8.
    """
    a = psd_power(rho, 0.5) @ psd_power(sigma, 0.5)
    return float(np.sum(np.linalg.svd(a, compute_uv=False)) ** 2)


def r_delta_plus_one(rho) -> float:
    """Largest eigenvalue of D^-1/2 rho D^-1/2, D = dephase(rho) on its support."""
    d = np.diag(rho).real
    s = d > 1e-12
    scale = 1.0 / np.sqrt(d[s])
    c = scale[:, None] * np.asarray(rho)[np.ix_(s, s)] * scale[None, :]
    return float(np.max(eigvals(c)))


def entropy_bits(p) -> float:
    p = np.asarray(p, dtype=float)
    p = p[p > 1e-15]
    return float(-np.sum(p * np.log2(p)))


def rel_entropy_coherence(rho) -> float:
    return entropy_bits(np.diag(rho).real) - entropy_bits(eigvals(rho))


def renyi_relative(rho, alpha: float) -> float:
    """Petz-Renyi relative entropy D_alpha(rho || dephase(rho)) in bits."""
    delta = dephase(rho)
    if alpha == 1.0:
        return rel_entropy_coherence(rho)
    if alpha == 0.0:
        return -math.log2(float(np.trace(psd_power(rho, 0.0) @ delta).real))
    trace = float(np.trace(psd_power(rho, alpha) @ psd_power(delta, 1.0 - alpha)).real)
    return math.log2(trace) / (alpha - 1.0)


def monotone(name: str, rho) -> float:
    """The monotone the oracle names in an infeasibility certificate."""
    if name == "r_delta":
        return r_delta_plus_one(rho) - 1.0
    if name == "l1":
        return float(np.sum(np.abs(rho)))
    if name.startswith("renyi_"):
        return renyi_relative(rho, float(name[len("renyi_"):]))
    raise WrongAnswer(f"certificate names an unknown monotone {name!r}")


def majorizes(q, p, slack: float = 1e-9) -> bool:
    """True iff p is majorized by q (zero-padded to a common length)."""
    n = max(len(p), len(q))
    p = np.pad(np.asarray(p, dtype=float), (0, n - len(p)))
    q = np.pad(np.asarray(q, dtype=float), (0, n - len(q)))
    return bool(np.all(np.cumsum(np.sort(p)[::-1]) <= np.cumsum(np.sort(q)[::-1]) + slack))


def guarded_int(x: float, rtol: float = 1e-7) -> set[int]:
    """Integers a guarded floor/ceil of x may legitimately produce."""
    out = {math.floor(x), math.ceil(x)}
    if abs(x - round(x)) <= rtol * max(1.0, abs(x)):
        out.add(round(x))
    return out


# --- solver certificates ---------------------------------------------------

def check_test_operator(m, rtol: float = 1e-8) -> np.ndarray:
    m = np.asarray(m, dtype=complex)
    require(float(np.max(np.abs(m - m.conj().T))) <= 1e-8, "test operator not Hermitian")
    w = eigvals(m)
    require(w[0] >= -rtol and w[-1] <= 1.0 + rtol, f"test operator spectrum [{w[0]:.2e}, {w[-1]:.2e}]")
    return herm(m)


def check_dh(result, rho, eps: float, gap_tol: float = 1e-6) -> None:
    """dh_epsilon(rho, dephase(rho), eps): feasible primal, recomputed gap."""
    sigma = dephase(rho)
    m = check_test_operator(result.primal)
    require(float(np.trace(m @ rho).real) >= 1.0 - eps - 1e-8, "Tr M rho < 1 - eps")
    primal = float(np.trace(m @ sigma).real)
    t = float(result.dual_t)
    dual = t * (1.0 - eps) - positive_trace(t * rho - sigma)
    require(abs(primal - dual) <= gap_tol, f"recomputed gap {primal - dual:.2e}")
    require(abs(result.optimal_value - primal) <= 1e-9, "reported optimum is not Tr M sigma")
    require(abs(result.dh_bits + math.log2(primal)) <= 1e-7, "dh_bits is not -log2 of the optimum")


def check_fidelity_program(result, rho, m: int, gap_tol: float = 1e-6) -> None:
    """distill_fidelity_program(rho, m): feasible primal, recomputed gap."""
    delta = dephase(rho)
    x = check_test_operator(result.primal)
    require(abs(float(np.trace(x @ delta).real) - 1.0 / m) <= 1e-8, "<X, dephase(rho)> != 1/m")
    value = float(np.trace(x @ rho).real)
    t = float(result.dual_t)
    dual = positive_trace(rho - t * delta) + t / m
    require(abs(dual - value) <= gap_tol, f"recomputed gap {dual - value:.2e}")
    require(abs(result.value - value) <= 1e-9, "reported value is not <X, rho>")


# --- channels --------------------------------------------------------------

def apply_choi(choi, din: int, dout: int, x) -> np.ndarray:
    j4 = np.asarray(choi).reshape(din, dout, din, dout)
    return herm(np.einsum("xayb,xy->ab", j4, x))


def check_cptp(choi, din: int, dout: int, atol: float) -> None:
    choi = np.asarray(choi, dtype=complex)
    require(choi.shape == (din * dout, din * dout), "Choi shape does not match its dimensions")
    require(float(np.max(np.abs(choi - choi.conj().T))) <= atol, "Choi not Hermitian")
    require(float(eigvals(choi)[0]) >= -atol, "Choi not PSD")
    tr_out = np.einsum("xaya->xy", choi.reshape(din, dout, din, dout))
    require(float(np.max(np.abs(tr_out - np.eye(din)))) <= atol, "channel not trace preserving")


def rho_dio_violation(choi, din: int, dout: int, rho) -> float:
    left = dephase(apply_choi(choi, din, dout, rho))
    right = apply_choi(choi, din, dout, dephase(rho))
    return float(np.linalg.norm(left - right))


def dio_violation(choi, din: int, dout: int) -> float:
    """Choi-level distance between (dephase after channel) and (channel after dephase)."""
    j4 = np.asarray(choi).reshape(din, dout, din, dout)
    out_mask = np.eye(dout, dtype=bool)[None, :, None, :]
    in_mask = np.eye(din, dtype=bool)[:, None, :, None]
    return float(np.linalg.norm(j4 * out_mask - j4 * in_mask))


def check_witness(choi, din: int, dout: int, rho, sigma, atol: float = 1e-6) -> None:
    """A 'feasible' witness: CPTP, covariant on rho, and mapping rho to sigma."""
    check_cptp(choi, din, dout, atol)
    require(rho_dio_violation(choi, din, dout, rho) <= atol, "witness not rho-covariant")
    image = apply_choi(choi, din, dout, rho)
    require(float(np.linalg.norm(image - sigma)) <= atol, "witness does not map rho to sigma")

"""Quantum Neyman-Pearson solvers.

Two structured semidefinite programs are solved without a general SDP
dependency through their convex duals psi(t) = Tr(A(t))_+ - c t, which one
kink-aware scalar routine minimizes (see ``_scalar_dual``):

* hypothesis-testing relative entropy, A(t) = t rho - sigma
    min Tr(M sigma)  s.t.  Tr(M rho) >= 1 - eps,  0 <= M <= 1
* twirled distillation-fidelity program, A(t) = rho - t dephase(rho)
    max <X, rho>     s.t.  <X, dephase(rho)> = 1/m,  0 <= X <= 1
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .linalg import RANK_RTOL, check_hermitian, rank_tol, support_projector
from .states import check_density, dephase

# Eigenvalues within ZERO_BAND of zero at the dual optimum form the
# fractional eigenspace of the optimal test.
ZERO_BAND = 1e-9
# A dual subgradient this close to zero counts as a sign change.
SLOPE_TOL = 1e-12
GAP_TOL = 1e-6


@dataclass
class NPResult:
    """Solution of the hypothesis-testing program with certificates."""

    optimal_value: float
    dh_bits: float
    primal: np.ndarray
    dual_t: float
    dual_value: float
    gap: float
    # diagnostics: eigendecompositions after input validation, the solver
    # path ("closed_form", "kink" or "smooth") and primal-band widenings
    eig_calls: int
    path: str
    band_widenings: int
    infinite: bool = False


@dataclass
class FidelityProgram:
    """Solution of the twirled distillation-fidelity program."""

    value: float
    primal: np.ndarray
    dual_t: float
    dual_value: float
    gap: float
    # diagnostics, as in NPResult
    eig_calls: int
    path: str
    band_widenings: int


def check_test_operator(m, atol: float = 1e-9) -> np.ndarray:
    """Validate 0 <= M <= 1 within tolerance."""
    m = check_hermitian(m)
    w = np.linalg.eigvalsh(m)
    if w[0] < -atol or w[-1] > 1.0 + atol:
        raise ValueError(
            f"test operator eigenvalues [{w[0]:.3e}, {w[-1]:.3e}] outside [0, 1]"
        )
    return m


def _pencil_kinks(p, q, t_max: float) -> np.ndarray:
    """0, the sorted t in (0, t_max) at which p - t q is singular, t_max. For
    PSD p, q, on the support of b = p + q, p - t q is congruent to (1 + t) x - t
    with x = b^{-1/2} p b^{-1/2}: singular at t = x / (1 - x)."""
    wb, vb = np.linalg.eigh(p + q)
    keep = wb > rank_tol(wb)
    c = vb[:, keep] / np.sqrt(wb[keep])
    x = np.linalg.eigvalsh(c.conj().T @ p @ c)
    x = x[(x > RANK_RTOL) & (x < 1.0)]
    t = x / (1.0 - x)
    return np.concatenate(([0.0], t[t < t_max], [t_max]))


def _scalar_dual(a0, a1, c: float, kinks):
    """Minimize the convex psi(t) = Tr(a0 + t a1)_+ - c t over [0, kinks[-1]].

    Bisects over the kinks (A(t) singular) for one whose one-sided slopes
    Tr(P a1) - c, P onto the eigenvalues > tau or >= -tau, bracket zero,
    else runs safeguarded Newton in the smooth segment holding t*. psi' >= 0
    at kinks[-1], never evaluated. Returns t*, (w, v) = eigh(A(t*)),
    psi(t*), the path and the eigendecompositions used (the kinks' two too).
    """
    calls = 0

    def at(t):
        # (t, eigh(A(t)) as w, v, a1 in that basis, masks of the eigenvalues
        # above and below the zero band, left slope, right slope)
        nonlocal calls
        calls += 1
        w, v = np.linalg.eigh(a0 + t * a1)
        tau = ZERO_BAND * max(1.0, float(np.max(np.abs(w))))
        g = v.conj().T @ a1 @ v
        pos, neg = w > tau, w < -tau
        s = sorted(float(np.sum(g.diagonal().real[k])) - c for k in (pos, ~neg))
        return t, w, v, g, pos, neg, s[0], s[1]

    def rate(ev):
        # d/dt Tr(P_+ a1) right of t: 2 sum |g_ij|^2 / (w_i - w_j), i above 0,
        # j below; near-zero eigenvalues go where a1 pushes them, uncoupled
        _, w, _, g, pos, neg = ev[:6]
        zero, push = ~pos & ~neg, g.diagonal().real
        up, down = pos | (zero & (push > 0.0)), neg | (zero & (push < 0.0))
        pair = np.outer(up, down) & ~np.outer(zero, zero)
        return 2.0 * float(np.sum(np.abs(g[pair]) ** 2 / (w[:, None] - w[None, :])[pair]))

    # bisect over the kinks: psi' < 0 right of kinks[lo], > 0 left of kinks[hi]
    lo, hi, path = -1, len(kinks) - 1, "kink"
    while hi - lo > 1:
        mid = (lo + hi) // 2
        ev = at(kinks[mid])
        if ev[7] < -SLOPE_TOL:
            lo, left = mid, ev
        elif mid > 0 and ev[6] > SLOPE_TOL:  # t = 0 has no left slope
            hi = mid
        else:
            break
    else:
        # psi' is smooth and increasing on (a, b): Newton from a, bisecting
        # whenever Newton leaves the bracket or fails to halve |psi'|
        path, a, b, ev, f, f_old = "smooth", kinks[lo], kinks[hi], left, left[7], math.inf
        while f != 0.0 and b - a > 1e-13 * max(1.0, b):
            r = rate(ev)
            t = ev[0] - f / r if r > 0.0 else math.nan
            if not (a < t < b and abs(f) <= 0.5 * f_old):
                # geometric when a > 0: the last segment can span decades
                t = math.sqrt(a * b) if a > 0.0 else 0.5 * (a + b)
            f_old, ev = abs(f), at(t)
            if ev[7] < -SLOPE_TOL:
                a, f = t, ev[7]
            elif ev[6] > SLOPE_TOL:
                b, f = t, ev[6]
            else:
                f = 0.0
    t, w, v, _, pos = ev[:5]
    return t, w, v, float(np.sum(w[pos])) - c * t, path, calls + 2


def _recover_primal(w, v, weight_op, target: float):
    """Optimal test from (w, v) = eigh(A(t*)): the positive eigenspace plus a
    uniform fraction of the near-zero eigenspace tuned so that Tr(M weight_op)
    = target, and how many times that band was widened (5: recovery gave up)."""
    weights = np.einsum("ij,ij->j", v.conj(), weight_op @ v).real
    for widenings in range(5):
        tau = ZERO_BAND * 10.0**widenings * max(1.0, float(np.max(np.abs(w))))
        pos, zero = w > tau, np.abs(w) <= tau
        got, room = float(np.sum(weights[pos])), float(np.sum(weights[zero]))
        need = target - got
        alpha = min(max(need / room, 0.0), 1.0) if room > 1e-15 else 0.0
        if -1e-8 <= need <= room + 1e-8:
            break
    else:
        widenings = 5
    return (v * (pos + alpha * zero)) @ v.conj().T, widenings


def dh_epsilon(rho, sigma, eps: float) -> NPResult:
    """Hypothesis-testing relative entropy D_H^eps(rho || sigma) in bits.

    The concave dual g(t) = t(1 - eps) - Tr(t rho - sigma)_+ is maximized
    over t >= 0 by the kink-aware scalar dual.
    """
    if not 0.0 <= eps < 1.0:
        raise ValueError(f"eps must be in [0, 1), got {eps}")
    rho = check_density(rho)
    sigma = check_density(sigma)
    if rho.shape != sigma.shape:
        raise ValueError(f"dimension mismatch: {rho.shape} vs {sigma.shape}")

    if eps == 0.0:
        # Tr(M rho) = 1 forces M to dominate the support projector of rho,
        # so M = Pi_rho is exactly optimal; the dual sup is its asymptote.
        m = support_projector(rho)
        dual = float(np.trace(m @ sigma).real)
        t_star, path, calls, widenings = math.inf, "closed_form", 2, 0
    else:
        # Tr(t rho - sigma)_+ >= t - 1 gives g(t) <= 1 - eps t < 0 = g(0) past 1/eps
        kinks = _pencil_kinks(sigma, rho, 1.0 / eps)
        t_star, w, v, psi, path, calls = _scalar_dual(-sigma, rho, 1.0 - eps, kinks)
        m, widenings = _recover_primal(w, v, rho, 1.0 - eps)
        dual = -psi
    optimal = float(np.trace(m @ sigma).real)
    bits = math.inf if optimal <= 1e-12 else -math.log2(optimal)
    return NPResult(optimal, bits, m, t_star, dual, optimal - dual, calls, path, widenings,
                    infinite=optimal <= 1e-12)


def dh_zero_closed_form(rho) -> float:
    """Zero-error value -log2 Tr(Pi_rho dephase(rho)), in bits."""
    rho = check_density(rho)
    pi = support_projector(rho)
    return -math.log2(float(np.trace(pi @ dephase(rho)).real))


def distill_fidelity_program(rho, m: float) -> FidelityProgram:
    """Solve max <X, rho> s.t. 0 <= X <= 1, <X, dephase(rho)> = 1/m.

    The convex dual h(t) = Tr(rho - t dephase(rho))_+ + t/m is minimized
    over t >= 0 (the t < 0 branch is never strictly better for m >= 1).
    """
    if m < 1.0:
        raise ValueError(f"m must be >= 1, got {m}")
    rho = check_density(rho)
    delta = dephase(rho)

    # h(t) >= t/m > 1 = h(0) past t = m; t* = 0 is a kink
    kinks = _pencil_kinks(rho, delta, float(m))
    t_star, w, v, dual, path, calls = _scalar_dual(rho, -delta, -1.0 / m, kinks)
    x, widenings = _recover_primal(w, v, delta, 1.0 / m)
    value = float(np.trace(x @ rho).real)
    return FidelityProgram(min(max(value, 0.0), 1.0), x, t_star, dual, dual - value,
                           calls, path, widenings)


def distill_fidelity(rho, m: float) -> float:
    """Best fidelity with Psi_m achievable by an input-tailored protocol."""
    return distill_fidelity_program(rho, m).value

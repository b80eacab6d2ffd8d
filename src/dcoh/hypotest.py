"""Quantum Neyman-Pearson solvers.

Two structured semidefinite programs are solved without a general SDP
dependency through their convex duals psi(t) = Tr(A(t))_+ - c t, which one
kink-aware scalar routine minimizes (see ``_scalar_dual``):

* D_H^eps(rho || dephase(rho)), A(t) = t rho - dephase(rho)
    min Tr(M dephase(rho))  s.t.  Tr(M rho) >= 1 - eps,  0 <= M <= 1
* twirled distillation-fidelity program, A(t) = rho - t dephase(rho)
    max <X, rho>     s.t.  <X, dephase(rho)> = 1/m,  0 <= X <= 1

Both are kinked where A(t) is singular, at the coherence spectrum lambda:
t = 1/lambda for D_H, t = lambda for X. Each solve reads it from one eigh of
the coherence matrix C = D^{-1/2} rho D^{-1/2}, D = dephase(rho)
(`monotones._coherence_eigh`), whose eigenvectors W also predict the optimal
kink. On the support of D, A(t) = D^{1/2} (t C - 1) D^{1/2} for D_H and
D^{1/2} (C - t) D^{1/2} for X. When rho commutes with D, so do C and A(t),
all with the eigenvectors W: with q_i = sum_x p_x |W_xi|^2 = <W_i|D|W_i> and
<W_i|rho|W_i> = lambda_i q_i, the slope between kinks is
psi'(t) = sum_{lambda_i > 1/t} lambda_i q_i - (1 - eps) for D_H and
psi'(t) = 1/m - sum_{lambda_i > t} q_i for X. The predicted kink is the first
whose right slope so computed is non-negative: exact for commuting rho and D,
and in general only the first kink `_scalar_dual` probes.
The zero band is Pi_rho's rank cut RANK_RTOL times max(1, |A(t)|), as t reaches
1/eps, so D_H^eps tends to the eps = 0 closed form through one threshold. A
slope is a difference of probabilities and counts as 0 within PROB_CLAMP
(capped at |c|/2), the slack that also weighs the zero band. The
optimal test mixes the two projectors whose slopes bracket psi' = 0 to meet
the constraint exactly: P_+ and P_+ + P_0 of A(t*) at a kink, else the positive
parts of A at the ends of the smooth bracket, whose stop where psi' rounds to 0
is the end on the side of its P_+ slope. The band
decides slopes and projectors only: the reported dual value psi(t*) sums every
positive eigenvalue of A(t*), so it is the dual at t* to rounding.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .monotones import _coherence_eigh
from .states import (BRACKET_TOL, HERM_ATOL, PROB_CLAMP, RANK_RTOL, Density, check_density,
                     dephase, density)


@dataclass
class NPResult:
    """Solution of the hypothesis-testing program with certificates."""

    optimal_value: float
    dh_bits: float
    primal: np.ndarray
    dual_t: float
    dual_value: float
    gap: float
    # diagnostics: eigendecompositions after input validation and the solver
    # path ("closed_form", "kink" or "smooth")
    eig_calls: int
    path: str


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


def _scalar_dual(a0, a1, c: float, kinks, first: int):
    """Minimize the convex psi(t) = Tr(a0 + t a1)_+ - c t over [0, kinks[-1]].

    Searches the kinks (A(t) singular) for one whose one-sided slopes
    Tr(P a1) - c, P onto the eigenvalues > tau or >= -tau with tau the rank cut,
    bracket zero, else runs safeguarded Newton in the smooth segment holding t*.
    The search probes kinks[first], the kink the coherence eigenbasis predicts
    (see the module docstring; exact when rho commutes with dephase(rho)), then
    its neighbour on the side psi' points to, then bisects what is left. Only
    the slopes decide, so a wrong prediction costs probes, never the answer.
    psi' >= 0 at kinks[-1], evaluated only if the smooth bracket closes on it.
    Returns t*, the last point the search evaluated; the optimal test M, mixing
    the two projectors whose slopes bracket psi' = 0 so that Tr(M a1) = c;
    psi(t*), summing every eigenvalue above 0 (the zero band's too) so that the
    dual is certified; the path; and its eigh count, one per evaluation.
    """
    calls = 0
    # a slope is a difference of probabilities; |c|/2 caps it so a small c is resolved
    slope_tol = min(PROB_CLAMP, 0.5 * abs(c))

    def at(t):
        # (t, eigh(A(t)) as w, v, a1 v, the diagonal of a1 in that basis, masks
        # of the eigenvalues above and below the zero band, left slope, right slope)
        nonlocal calls
        calls += 1
        w, v = np.linalg.eigh(a0 + t * a1)
        tau = RANK_RTOL * max(1.0, float(-w[0]), float(w[-1]))  # max(1, |w|), as w ascends
        a1v, pos, neg = a1 @ v, w > tau, w < -tau
        diag = np.einsum("ij,ij->j", v.conj(), a1v).real
        s = sorted((float(diag[pos].sum()) - c, float(diag[~neg].sum()) - c))
        return t, w, v, a1v, diag, pos, neg, s[0], s[1]

    def rate(ev):
        # d/dt Tr(P_+ a1) right of t: 2 sum |g_ij|^2 / (w_i - w_j), g = v^dag a1 v,
        # i above 0, j below; near-zero eigenvalues go where a1 pushes them, uncoupled
        _, w, v, a1v, push, pos, neg = ev[:7]
        g, zero = v.conj().T @ a1v, ~pos & ~neg
        up, down = pos | (zero & (push > 0.0)), neg | (zero & (push < 0.0))
        pair = np.outer(up, down) & ~np.outer(zero, zero)
        return 2.0 * float(np.sum(np.abs(g[pair]) ** 2 / (w[:, None] - w[None, :])[pair]))

    # psi' < 0 right of kinks[lo] (its evaluation left), > 0 left of kinks[hi] (right,
    # None if never probed): the predicted kink, its neighbour psi' points to, bisection
    lo, hi, path, right = -1, len(kinks) - 1, "kink", None
    mid = min(first, hi - 1)
    while hi - lo > 1:
        ev = at(kinks[mid])
        if ev[-1] < -slope_tol:
            lo, left = mid, ev
        elif mid > 0 and ev[-2] > slope_tol:  # t = 0 is t* here; a bracket would have no left end
            hi, right = mid, ev
        else:
            break
        mid = (lo + hi) // 2 if calls > 1 else (lo + 1 if lo == mid else hi - 1)
    else:
        # psi' is smooth and increasing on (a, b): Newton from a, bisecting
        # whenever Newton leaves the bracket or fails to halve |psi'|
        path, a, b, ev, f, f_old = "smooth", kinks[lo], kinks[hi], left, left[-1], math.inf
        while f != 0.0 and b - a > BRACKET_TOL * max(1.0, b):
            r = rate(ev)
            t = ev[0] - f / r if r > 0.0 else math.nan
            if not (a < t < b and abs(f) <= 0.5 * f_old):
                # geometric when a > 0: the last segment can span decades
                t = math.sqrt(a * b) if a > 0.0 else 0.5 * (a + b)
            f_old, ev = abs(f), at(t)
            if ev[-1] < -slope_tol:
                a, f, left = t, ev[-1], ev
            elif ev[-2] > slope_tol:
                b, f, right = t, ev[-2], ev
            else:
                # psi' rounds to 0 at t: the bracket end on the side of its P_+ slope
                f = 0.0
                left, right = (ev, right) if float(ev[4][ev[5]].sum()) <= c else (left, ev)
    t, w, v, _, diag, pos, neg = ev[:7]
    psi = float(w[w > 0.0].sum()) - c * t
    if path == "kink":
        # the slopes of P_+ and P_+ + P_0 bracket 0 at t*: P_+ plus the fraction
        # of the zero band P_0 that makes Tr(M a1) = c, none when P_0 weighs
        # less than PROB_CLAMP (an unused level: the fraction would be noise)
        zero = ~pos & ~neg
        room, need = float(diag[zero].sum()), c - float(diag[pos].sum())
        alpha = min(max(need / room, 0.0), 1.0) if abs(room) > PROB_CLAMP else 0.0
        return t, (v * (pos + alpha * zero)) @ v.conj().T, psi, path, calls
    # a smooth stop: mix A's positive parts at the bracket ends a (slope <= 0) and b (> 0)
    ends = [(e[2], e[5], float(e[4][e[5]].sum()) - c) for e in (left, right or at(b))]
    (va, pa, sa), (vb, pb, sb) = ends
    beta = sa / (sa - sb)
    m = (va * ((1.0 - beta) * pa)) @ va.conj().T + (vb * (beta * pb)) @ vb.conj().T
    return t, m, psi, path, calls


def dh_epsilon(rho, sigma, eps: float) -> NPResult:
    """Hypothesis-testing relative entropy D_H^eps(rho || dephase(rho)) in bits.

    sigma must be dephase(rho) within HERM_ATOL in every entry; it stays a parameter
    for existing three-argument calls. The concave dual g(t) = t(1 - eps) -
    Tr(t rho - sigma)_+ is maximized over t >= 0 by the kink-aware scalar dual.
    """
    if not 0.0 <= eps < 1.0:
        raise ValueError(f"eps must be in [0, 1), got {eps}")
    # 1 - eps == 1 reads Tr(M rho) >= 1: the eigh that validates rho gives Pi_rho
    state = density(rho) if 1.0 - eps == 1.0 else None
    rho = check_density(rho if state is None else state)
    delta = dephase(rho)
    sigma = np.asarray(sigma.rho if isinstance(sigma, Density) else sigma, dtype=complex)
    if sigma.shape != rho.shape or not np.abs(sigma - delta).max() <= HERM_ATOL:
        raise ValueError(f"sigma is not dephase(rho) within {HERM_ATOL:.1e}")

    if state is not None:
        # Tr(M rho) = 1 forces M to dominate the support projector of rho,
        # so M = Pi_rho is exactly optimal; the dual sup is its asymptote.
        m = state.v @ state.v.conj().T
        dual = float(np.vdot(m, delta).real)
        t_star, path, calls = math.inf, "closed_form", 1  # Pi_rho's eigh
    else:
        # Tr(t rho - delta)_+ >= t - 1 gives g(t) <= 1 - eps t < 0 = g(0) past 1/eps
        lam, q = (x[::-1] for x in _coherence_eigh(rho))
        keep = lam > max(RANK_RTOL, eps)  # a prefix: lam descends
        kinks = np.concatenate(([0.0], 1.0 / lam[keep], [1.0 / eps]))
        # the first kink 1/lam_j with sum_{lam_i >= lam_j} lam_i q_i >= 1 - eps
        first = 1 + int(np.searchsorted(np.cumsum(lam * q)[keep], 1.0 - eps))
        t_star, m, psi, path, calls = _scalar_dual(-delta, rho, 1.0 - eps, kinks, first)
        dual, calls = -psi, calls + 1  # the spectrum's eigh
    optimal = float(np.vdot(m, delta).real)
    # a rounding margin, scaled with 1 - eps as Tr(M rho) >= 1 - eps scales Tr(M delta)
    bits = math.inf if optimal <= 1e-12 * (1.0 - eps) else -math.log2(optimal)
    return NPResult(optimal, bits, m, t_star, dual, optimal - dual, calls, path)


def distill_fidelity_program(rho, m: float) -> FidelityProgram:
    """Solve max <X, rho> s.t. 0 <= X <= 1, <X, dephase(rho)> = 1/m.

    The convex dual h(t) = Tr(rho - t dephase(rho))_+ + t/m is minimized
    over t >= 0 (the t < 0 branch is never strictly better for m >= 1).
    """
    if not m >= 1.0:  # refuses NaN too
        raise ValueError(f"m must be >= 1, got {m}")
    rho = check_density(rho)

    # t* = 0 is a kink, so is each coherence eigenvalue; h(t) >= t/m > 1 = h(0) past m
    lam, q = _coherence_eigh(rho)
    kinks = np.concatenate(([0.0], lam[(lam > RANK_RTOL) & (lam < m)], [float(m)]))
    # the first kink t with sum_{lam_i > t} q_i <= 1/m; the tail sums fall along kinks
    first = int(np.searchsorted(-(q @ (lam[:, None] > kinks[:-1])), -1.0 / m))
    t_star, x, dual, path, calls = _scalar_dual(rho, -dephase(rho), -1.0 / m, kinks, first)
    value = float(np.vdot(x, rho).real)
    return FidelityProgram(min(max(value, 0.0), 1.0), x, t_star, dual, dual - value,
                           calls + 1, path)  # + the spectrum's eigh

"""One-shot, zero-error and asymptotic distillation/dilution rates.

One-shot yields and costs are log2 of an integer unit count; the raw
(pre-rounding) optimum is always reported alongside. An integer guard
absorbs floating-point error before flooring/ceiling, since the exact
optima sit exactly on integers for structured states.

The smoothed one-shot dilution cost is reported as a certified bracket
from two exact one-dimensional programs, with no hypothesis-testing
solve: the lower side maximizes a test-operator bound over all tests by
Dinkelbach's iteration, and the upper side bisects for the cheapest
fidelity-feasible witness on the segment from rho to dephase(rho).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .hypotest import NPResult, dh_epsilon, dh_zero_closed_form
from .linalg import fidelity_from_inner, support_eigh
from .monotones import r_delta, rel_entropy_coherence
from .states import check_density, dephase, is_incoherent

INT_GUARD_RTOL = 1e-7


@dataclass
class RateReport:
    one_shot_bits: float
    raw_value: float
    eps: float
    regime: str


def _guarded_int(x: float) -> float:
    r = round(x)
    if abs(x - r) <= INT_GUARD_RTOL * max(1.0, abs(x)):
        return float(r)
    return x


def guarded_floor(x: float) -> int:
    return int(math.floor(_guarded_int(x)))


def guarded_ceil(x: float) -> int:
    return int(math.ceil(_guarded_int(x)))


def distill_one_shot(rho, eps: float) -> RateReport:
    """Largest log2 m such that Psi_m is reachable within error eps."""
    rho = check_density(rho)
    return distill_one_shot_from(dh_epsilon(rho, dephase(rho), eps), eps)


def distill_one_shot_from(result: NPResult, eps: float) -> RateReport:
    """One-shot yield from a solved D_H^eps(rho || dephase(rho))."""
    m = guarded_floor(2.0 ** result.dh_bits)
    return RateReport(math.log2(m), result.dh_bits, eps, "one_shot")


def distill_zero_error(rho) -> RateReport:
    """Exact distillation yield from the support-projector closed form."""
    raw = dh_zero_closed_form(rho)
    m = guarded_floor(2.0 ** raw)
    return RateReport(math.log2(m), raw, 0.0, "zero_error")


def distill_asymptotic(rho) -> RateReport:
    value = rel_entropy_coherence(rho)
    return RateReport(value, value, 0.0, "asymptotic")


def distill_zero_error_asymptotic(rho) -> RateReport:
    """Un-floored zero-error value; exact by additivity under tensor powers."""
    raw = dh_zero_closed_form(rho)
    return RateReport(raw, raw, 0.0, "asymptotic")


def dilute_zero_error(rho) -> RateReport:
    """Exact dilution cost log2 ceil(R_Delta + 1)."""
    raw = math.log2(r_delta(rho) + 1.0)
    m = guarded_ceil(2.0 ** raw)
    return RateReport(math.log2(m), raw, 0.0, "zero_error")


def dilute_asymptotic(rho) -> RateReport:
    value = rel_entropy_coherence(rho)
    return RateReport(value, value, 0.0, "asymptotic")


def dilute_zero_error_asymptotic(rho) -> RateReport:
    raw = math.log2(r_delta(rho) + 1.0)
    return RateReport(raw, raw, 0.0, "asymptotic")


def _dilution_lower_unit(rho, eps: float) -> float:
    """Certified lower bound on min{R_Delta(w)+1 : F(rho, w) >= 1-eps}.

    For any test 0 <= M <= 1 and any feasible w, contractivity of the trace
    distance together with w <= (R_Delta(w)+1) dephase(w) gives

        R_Delta(w) + 1 >= (Tr M rho - s) / (Tr M dephase(rho) + s),  s = sqrt(eps).

    The right-hand side is maximized over all tests by Dinkelbach's
    iteration for linear-fractional programs: at the current ratio lam the
    best test is the projector onto the positive eigenspace of
    rho - lam dephase(rho), and its own ratio is the next lam. Starting
    from the trivial bound lam = 1, the ratios increase to the maximum;
    the iteration stops at the first one that does not. Each iterate is
    the bound of an explicit test, so the result is certified whenever
    the iteration stops. rho must already be a validated density matrix.
    """
    diag = np.diag(rho).real
    s = math.sqrt(max(eps, 0.0))
    lam = 1.0
    while True:
        w, v = np.linalg.eigh(rho - lam * np.diag(diag))
        vk = v[:, w > 0.0]
        num = float(np.sum(vk.conj() * (rho @ vk)).real) - s
        den = float(diag @ np.sum(np.abs(vk) ** 2, axis=1)) + s
        if not (den > 0.0 and num / den > lam):
            return lam
        lam = num / den


def _dilution_upper_unit(rho, eps: float) -> float:
    """Upper bound on the smoothed dilution unit count from the witness
    family w_t = (1-t) rho + t dephase(rho), whose cost is
    R_Delta(w_t) + 1 = t + (1-t)(R_Delta(rho)+1).

    sqrt(F) is jointly concave, so F(rho, w_t) >= 1-eps holds exactly on an
    interval [0, t*] (t = 0 is rho itself). t* is found by bisection to
    machine resolution, and the returned cost is that of the largest t
    that passed the fidelity check, so the bound comes with its witness.
    The fidelity is taken on the support of rho: with f = v sqrt(w) from
    support_eigh(rho), f^dag w_t f is affine in t (f^dag rho f = diag(w^2)),
    so each check is one eigvalsh. rho must already be a validated density
    matrix.
    """
    lam0 = r_delta(rho) + 1.0
    w, v = support_eigh(rho)
    f = v * np.sqrt(w)
    inner_rho = np.diag(w**2)
    inner_delta = f.conj().T @ (np.diag(rho).real[:, None] * f)

    def feasible(t: float) -> bool:
        inner = (1.0 - t) * inner_rho + t * inner_delta
        return fidelity_from_inner(inner) >= 1.0 - eps - 1e-12

    lo, hi = (1.0, 1.0) if feasible(1.0) else (0.0, 1.0)
    mid = 0.5 * (lo + hi)
    while lo < mid < hi:
        if feasible(mid):
            lo = mid
        else:
            hi = mid
        mid = 0.5 * (lo + hi)
    return lo + (1.0 - lo) * lam0


def dilute_one_shot_bounds(rho, eps: float) -> tuple[RateReport, RateReport]:
    """Certified bracket [lower, upper] on the eps-error one-shot dilution cost.

    The lower side is a Dinkelbach test bound and the upper side the cost
    of a checked witness (see the two unit helpers above). At eps = 0 only
    w = rho is feasible, so both sides collapse to the exact zero-error cost.
    """
    if not 0.0 <= eps < 1.0:
        raise ValueError(f"eps must be in [0, 1), got {eps}")
    rho = check_density(rho)
    if eps == 0.0:
        unit_lo = unit_hi = r_delta(rho) + 1.0
    else:
        unit_hi = _dilution_upper_unit(rho, eps)
        # the certified bound can never exceed the witness
        unit_lo = min(_dilution_lower_unit(rho, eps), unit_hi)
    return tuple(RateReport(math.log2(guarded_ceil(u)), math.log2(u), float(eps), "one_shot")
                 for u in (unit_lo, unit_hi))


def asymptotic_rate(rho, sigma) -> float:
    """Asymptotic conversion rate D(rho||dephase(rho)) / D(sigma||dephase(sigma)).

    Returns math.inf when the target is incoherent (unbounded rate) and 0
    when only the source is incoherent.
    """
    rho = check_density(rho)
    sigma = check_density(sigma)
    if is_incoherent(sigma):
        return math.inf
    if is_incoherent(rho):
        return 0.0
    return rel_entropy_coherence(rho) / rel_entropy_coherence(sigma)

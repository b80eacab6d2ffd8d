"""One-shot, zero-error and asymptotic distillation/dilution rates.

One-shot yields and costs are log2 of an integer unit count; the raw
(pre-rounding) optimum is always reported alongside. A count is rounded
with the comparison `channels.construct_prop5` makes before it builds
the channel: a yield x reaches m units of Psi_m when m <= x + PREFIX_SLACK,
and a cost x is met by m units when x <= m + PREFIX_SLACK. So every
zero-error count is one the construction accepts, the exactly-integral
optima of structured states survive floating-point dust, and the
absolute slack never rounds a large count past its computed optimum.

The smoothed one-shot dilution cost is reported as a certified bracket
from two exact one-dimensional programs, with no hypothesis-testing
solve: the lower side maximizes a test-operator bound over all tests by
Dinkelbach's iteration, and the upper side brackets the cheapest
fidelity-feasible witness on the segment from rho to dephase(rho) by
Illinois regula falsi on the concave root fidelity.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .hypotest import BRACKET_TOL, NPResult, dh_epsilon
from .majorization import PREFIX_SLACK
from .monotones import r_delta, rel_entropy_coherence, renyi_relative
from .states import dephase, density


@dataclass
class RateReport:
    one_shot_bits: float
    raw_value: float
    eps: float
    regime: str


def guarded_floor(x: float) -> int:
    """Largest m with m <= x + PREFIX_SLACK: the units of Psi_m a yield x reaches."""
    return math.floor(x + PREFIX_SLACK)


def guarded_ceil(x: float) -> int:
    """Smallest m with x <= m + PREFIX_SLACK: the units of Psi_m a cost x needs."""
    return math.ceil(x - PREFIX_SLACK)


def distill_one_shot(rho, eps: float) -> RateReport:
    """Largest log2 m such that Psi_m is reachable within error eps."""
    state = density(rho)
    return distill_one_shot_from(dh_epsilon(state, dephase(state.rho), eps), eps)


def distill_one_shot_from(result: NPResult, eps: float) -> RateReport:
    """One-shot yield from a solved D_H^eps(rho || dephase(rho)). The value
    is finite (Tr M dephase(rho) >= (1 - eps)/(R_Delta + 1)), so an infinite
    one means 1 - eps is below what the solver resolves."""
    if math.isinf(result.dh_bits):
        raise ValueError(f"eps = {eps!r} is too close to 1 for the solver")
    m = guarded_floor(2.0 ** result.dh_bits)
    return RateReport(math.log2(m), result.dh_bits, eps, "one_shot")


def distill_zero_error(rho) -> RateReport:
    """Exact distillation yield from the support-projector closed form
    -log2 Tr(Pi_rho dephase(rho)), the Petz-Renyi D_0(rho || dephase(rho))."""
    raw = renyi_relative(rho, 0.0)
    m = guarded_floor(2.0 ** raw)
    return RateReport(math.log2(m), raw, 0.0, "zero_error")


def distill_asymptotic(rho) -> RateReport:
    value = rel_entropy_coherence(rho)
    return RateReport(value, value, 0.0, "asymptotic")


def dilute_zero_error(rho) -> RateReport:
    """Exact dilution cost log2 ceil(R_Delta + 1)."""
    unit = r_delta(rho) + 1.0
    return RateReport(math.log2(guarded_ceil(unit)), math.log2(unit), 0.0, "zero_error")


def dilute_asymptotic(rho) -> RateReport:
    value = rel_entropy_coherence(rho)
    return RateReport(value, value, 0.0, "asymptotic")


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
    the iteration stops at the first one that does not rise by more than
    1e-14 relative and returns the larger of the last two. Each iterate is
    the bound of an explicit test, so the result is certified whenever
    the iteration stops. A step is one eigh of a copy of rho with
    lam diag(rho) subtracted from its diagonal. rho must already be a
    validated density matrix.
    """
    diag = rho.diagonal().real
    s = math.sqrt(max(eps, 0.0))
    lam = 1.0
    while True:
        pencil = rho.copy()
        pencil.reshape(-1)[::len(diag) + 1] -= lam * diag
        w, v = np.linalg.eigh(pencil)
        vk = v[:, w > 0.0]
        num = float((vk.conj() * rho.dot(vk)).sum().real) - s
        den = float(diag.dot((np.abs(vk) ** 2).sum(axis=1))) + s
        # a rise of 1e-14 relative or less is rounding in the ratio, not a
        # better test: keep the larger ratio and skip the eigh after it
        if not (den > 0.0 and num / den > lam * (1.0 + 1e-14)):
            return max(lam, num / den) if den > 0.0 else lam
        lam = num / den


def _dilution_upper_unit(state, eps: float) -> float:
    """Upper bound on the smoothed dilution unit count from the witness
    family w_t = (1-t) rho + t dephase(rho), whose cost is
    R_Delta(w_t) + 1 = t + (1-t)(R_Delta(rho)+1).

    g(t) = sqrt F(rho, w_t) is concave in t (sqrt(F) is jointly concave), so
    F(rho, w_t) >= 1-eps holds exactly on an interval [0, t*] (t = 0 is rho
    itself). t* is bracketed by [lo, hi], lo passing the fidelity check and
    hi failing it, until hi - lo <= BRACKET_TOL, by the Illinois variant of
    regula falsi on f = g - sqrt(1-eps-1e-12) (Dowell & Jarratt, BIT 11, 168
    (1971)): each point is the root of the chord between the two ends, and
    an end kept twice in a row has its f halved, so neither end stalls. Every
    point is kept BRACKET_TOL/2 inside the bracket. The midpoint is taken when
    the chord does not exist, and for good once f rounds to 0 at an end and
    at the point replacing it: near a flat root f is rounding noise on a span
    far wider than BRACKET_TOL, which chords from a zero end would only creep
    across. Each point is classified by the check itself, and the returned
    cost is that of lo, so the bound comes with its witness.
    The fidelity is taken on the support of rho, from the eigenpairs (w, v)
    of its Density: with b = v sqrt(w),
    inner(t) = b^dag w_t b = D + t S, D = diag(w^2) = b^dag rho b and
    S = b^dag dephase(rho) b - D, and g(t) = Tr sqrt(inner(t)). S is made
    exactly Hermitian once, so inner(t) is one scaled copy of S plus a
    diagonal, and each point costs one eigvalsh of it.
    """
    rho, w = state.rho, state.w
    lam0 = r_delta(state) + 1.0
    b = state.v * np.sqrt(w)
    w2 = w**2
    slope = b.conj().T.dot(rho.diagonal().real[:, None] * b)
    slope.reshape(-1)[::len(w) + 1] -= w2
    slope = (slope + slope.conj().T) / 2
    target = 1.0 - eps - 1e-12  # a rounding margin of the fidelity, not a bound on eps

    def check(t: float) -> tuple[float, float]:
        """(F, sqrt F) at t from one eigvalsh of inner(t)."""
        a = t * slope
        a.reshape(-1)[::len(w) + 1] += w2
        x = np.linalg.eigvalsh(a)
        fid = min(float(np.sqrt(x[x > 0.0]).sum()) ** 2, 1.0)
        return fid, math.sqrt(fid)

    fid, g_hi = check(1.0)
    if fid >= target:
        return 1.0
    root_target = math.sqrt(target)
    lo, hi = 0.0, 1.0
    f_lo, f_hi = float(w.sum()) - root_target, g_hi - root_target
    kept = None  # the end the last point did not replace
    hidden = False  # f rounded to 0 at an end and at the point replacing it
    while hi - lo > BRACKET_TOL:
        t = (lo + f_lo / (f_lo - f_hi) * (hi - lo) if f_lo > f_hi and not hidden
             else 0.5 * (lo + hi))
        # a chord root at or past an end only means rounding hides the root
        # there; a point half a tolerance inside can still close the bracket
        t = min(max(t, lo + 0.5 * BRACKET_TOL), hi - 0.5 * BRACKET_TOL)
        fid, g = check(t)
        f_t = g - root_target
        if fid >= target:
            hidden |= f_t == f_lo == 0.0
            lo, f_lo = t, f_t
            f_hi *= 0.5 if kept == "hi" else 1.0
            kept = "hi"
        else:
            hidden |= f_t == f_hi == 0.0
            hi, f_hi = t, f_t
            f_lo *= 0.5 if kept == "lo" else 1.0
            kept = "lo"
    return lo + (1.0 - lo) * lam0


def dilute_one_shot_bounds(rho, eps: float) -> tuple[RateReport, RateReport]:
    """Certified bracket [lower, upper] on the eps-error one-shot dilution cost.

    The lower side is a Dinkelbach test bound and the upper side the cost
    of a checked witness (see the two unit helpers above). At eps = 0 only
    w = rho is feasible, so both sides collapse to the exact zero-error cost.
    The eigh that validates rho, giving the upper side its support
    eigenpairs, is the only decomposition of rho itself.
    """
    if not 0.0 <= eps < 1.0:
        raise ValueError(f"eps must be in [0, 1), got {eps}")
    state = density(rho)
    if eps == 0.0:
        unit_lo = unit_hi = r_delta(state) + 1.0
    else:
        unit_hi = _dilution_upper_unit(state, eps)
        # the certified bound can never exceed the witness
        unit_lo = min(_dilution_lower_unit(state.rho, eps), unit_hi)
    return tuple(RateReport(math.log2(guarded_ceil(u)), math.log2(u), float(eps), "one_shot")
                 for u in (unit_lo, unit_hi))


def asymptotic_rate(rho, sigma) -> float:
    """Asymptotic conversion rate D(rho||dephase(rho)) / D(sigma||dephase(sigma)).

    Returns math.inf when the divisor D(sigma||dephase(sigma)) is 0: a target
    with no coherence to dilute is reached at an unbounded rate.
    """
    # each state's validating eigh also serves its relative entropy
    rho, sigma = density(rho), density(sigma)
    den = rel_entropy_coherence(sigma)
    return rel_entropy_coherence(rho) / den if den > 0.0 else math.inf

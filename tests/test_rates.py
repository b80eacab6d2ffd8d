import math

import numpy as np
import pytest

from dcoh.channels import construct_dilute, validate_channel
from dcoh.hypotest import NPResult, dh_epsilon
from dcoh.monotones import r_delta, rel_entropy_coherence
from dcoh.rates import (
    _dilution_lower_unit,
    _dilution_upper_unit,
    asymptotic_rate,
    dilute_asymptotic,
    dilute_one_shot_bounds,
    dilute_zero_error,
    distill_asymptotic,
    distill_one_shot,
    distill_one_shot_from,
    distill_zero_error,
    guarded_ceil,
    guarded_floor,
)
from dcoh.states import density, dephase, fidelity, max_coherent, pure_to_density

from helpers import QUTRIT, rand_rho


def test_guarded_rounding():
    # floating error just below an integer must not destroy a whole unit
    assert guarded_floor(2.0 - 1e-9) == 2
    assert guarded_floor(2.0 - 1e-3) == 1
    assert guarded_ceil(3.0 + 1e-9) == 3
    assert guarded_ceil(3.0 + 1e-3) == 4


def test_guarded_rounding_never_passes_the_optimum():
    # the slack is absolute: a count within PREFIX_SLACK (1e-9) of an integer
    # rounds to it, one 6e-5 below 2e6 does not, however large the count
    assert guarded_floor(2e6 - 6e-5) == 1999999
    assert guarded_ceil(2e9 + 1e-3) == 2000000001
    plus = pure_to_density(max_coherent(2))
    rep = distill_one_shot(plus, 0.999999)
    assert 2.0 ** rep.raw_value < 2e6
    assert rep.one_shot_bits == math.log2(1999999)


def test_distill_zero_error_qutrit_is_one_bit():
    rep = distill_zero_error(pure_to_density(QUTRIT))
    assert rep.one_shot_bits == 1.0
    # the un-floored optimum -log2(59/128) sits strictly above one bit
    assert abs(rep.raw_value + math.log2(59 / 128)) < 1e-12
    assert rep.raw_value > 1.0


def test_distill_zero_error_maxcoherent():
    for m in (2, 3, 4):
        rep = distill_zero_error(pure_to_density(max_coherent(m)))
        assert abs(rep.raw_value - math.log2(m)) < 1e-9
        assert rep.one_shot_bits == math.log2(guarded_floor(2.0 ** rep.raw_value))


def test_distill_one_shot_nondecreasing_in_eps():
    rng = np.random.default_rng(61)
    rho = rand_rho(rng, 3)
    raws = [distill_one_shot(rho, e).raw_value for e in (0.0, 0.05, 0.2, 0.5)]
    assert all(a <= b + 1e-9 for a, b in zip(raws, raws[1:]))


def test_distill_one_shot_eps_zero_matches_closed_form():
    rng = np.random.default_rng(62)
    for _ in range(10):
        rho = rand_rho(rng, int(rng.integers(2, 5)))
        a = distill_one_shot(rho, 0.0)
        b = distill_zero_error(rho)
        assert abs(a.raw_value - b.raw_value) < 1e-9
        assert a.one_shot_bits == b.one_shot_bits


def test_dilute_zero_error_values():
    # cost is log2 of the smallest usable unit, ceil(R_Delta + 1)
    rho = pure_to_density(QUTRIT)
    assert dilute_zero_error(rho).one_shot_bits == math.log2(3)
    assert abs(dilute_zero_error(rho).raw_value - math.log2(3.0)) < 1e-9
    assert dilute_zero_error(pure_to_density(max_coherent(4))).one_shot_bits == 2.0
    assert dilute_zero_error(np.diag([0.5, 0.5])).one_shot_bits == 0.0


def test_dilution_bounds_bracket_and_eps_zero_collapse():
    rng = np.random.default_rng(71)
    states = [rand_rho(rng, int(rng.integers(2, 5))) for _ in range(15)]
    states += [rand_rho(rng, d, d // 2) for d in (2, 3, 4, 5)]
    for rho in states:
        lo0, hi0 = dilute_one_shot_bounds(rho, 0.0)
        exact = dilute_zero_error(rho)
        assert lo0.one_shot_bits == hi0.one_shot_bits == exact.one_shot_bits
        for eps in (0.05, 0.1):
            lo, hi = dilute_one_shot_bounds(rho, eps)
            assert lo.raw_value <= hi.raw_value + 1e-9
            assert hi.raw_value <= exact.raw_value + 1e-9  # smoothing only helps
            assert lo.one_shot_bits <= hi.one_shot_bits


def _twelve_point_lower_unit(rho, eps):
    """Reference lower bound: the test-operator bound at the optimal
    hypothesis tests for 12 type-I error levels."""
    delta = dephase(rho)
    root_eps = math.sqrt(eps)
    best = 1.0
    for dlt in np.linspace(0.0, 0.9, 12):
        m = dh_epsilon(rho, delta, float(dlt)).primal
        num = float(np.trace(m @ rho).real) - root_eps
        den = float(np.trace(m @ delta).real) + root_eps
        if num > 0.0 and den > 0.0:
            best = max(best, num / den)
    return best


def _grid_upper_unit(rho, eps):
    """Reference upper bound: a 201-point grid over w_t, then 50 bisection
    steps above the last feasible grid point."""
    delta = dephase(rho)
    lam0 = r_delta(rho) + 1.0

    def feasible(t):
        return fidelity(rho, (1.0 - t) * rho + t * delta) >= 1.0 - eps - 1e-12

    grid = np.linspace(0.0, 1.0, 201)
    best_t = max([float(t) for t in grid if feasible(float(t))], default=0.0)
    lo, hi = best_t, min(best_t + grid[1], 1.0)
    if best_t < 1.0:
        for _ in range(50):
            mid = 0.5 * (lo + hi)
            if feasible(mid):
                lo = mid
            else:
                hi = mid
        best_t = lo
    return best_t + (1.0 - best_t) * lam0


def test_dilution_units_match_grid_references():
    rng = np.random.default_rng(73)
    tighter = 0
    for i in range(20):
        d = 2 + i % 4
        full_rank = i % 2 == 0
        rho = rand_rho(rng, d, d if full_rank else d // 2)
        eps = float(rng.choice([0.01, 0.05, 0.1]))
        lo, ref_lo = _dilution_lower_unit(rho, eps), _twelve_point_lower_unit(rho, eps)
        assert lo >= ref_lo - 1e-12
        tighter += lo > ref_lo + 1e-9
        unit = _dilution_upper_unit(density(rho), eps)
        assert abs(unit - _grid_upper_unit(rho, eps)) <= 1e-9
    assert tighter > 0


def _dinkelbach_to_the_end(rho, eps):
    """Reference lower unit: Dinkelbach's iteration run while the ratio
    rises at all, with its number of eigh calls."""
    delta, s = dephase(rho), math.sqrt(eps)
    lam, steps = 1.0, 0
    while True:
        w, v = np.linalg.eigh(rho - lam * delta)
        steps += 1
        p = v[:, w > 0.0] @ v[:, w > 0.0].conj().T
        num = float(np.trace(p @ rho).real) - s
        den = float(np.trace(p @ delta).real) + s
        if not (den > 0.0 and num / den > lam):
            return lam, steps
        lam = num / den


def test_dinkelbach_skips_the_steps_that_only_round(monkeypatch):
    # the lower unit stops once the next ratio rises by 1e-14 relative or
    # less: it saves eigh calls, and its value moves only by that rounding
    calls = []
    eigh = np.linalg.eigh

    def counting(a, *args, **kwargs):
        calls.append(a.shape)
        return eigh(a, *args, **kwargs)

    rng = np.random.default_rng(75)
    steps = ref_steps = 0
    for d in range(2, 7):
        for rank in range(1, d + 1):
            rho = rand_rho(rng, d, rank)
            for eps in (1e-6, 1e-3, 0.01, 0.1, 0.5):
                ref, n = _dinkelbach_to_the_end(rho, eps)
                ref_steps += n
                calls.clear()
                with monkeypatch.context() as m:
                    m.setattr(np.linalg, "eigh", counting)
                    lam = _dilution_lower_unit(rho, eps)
                steps += len(calls)
                assert abs(lam - ref) <= 1e-13 * ref, (d, rank, eps, lam, ref)
    # measured 383 against 414; without the stop the unit makes 411
    assert steps <= 0.95 * ref_steps, (steps, ref_steps)


def _bisected_upper_unit(state, eps):
    """Reference upper bound: plain bisection on the fidelity check of the
    witness w_t = (1-t) rho + t dephase(rho), run to machine resolution."""
    lam0 = r_delta(state) + 1.0
    rho = state.rho

    def feasible(t):
        return fidelity(state, (1.0 - t) * rho + t * dephase(rho)) >= 1.0 - eps - 1e-12

    lo, hi = (1.0, 1.0) if feasible(1.0) else (0.0, 1.0)
    mid = 0.5 * (lo + hi)
    while lo < mid < hi:
        if feasible(mid):
            lo = mid
        else:
            hi = mid
        mid = 0.5 * (lo + hi)
    return lo + (1.0 - lo) * lam0


def test_upper_unit_matches_bisection_reference(monkeypatch):
    calls = []

    def counting(name):
        decompose = getattr(np.linalg, name)

        def wrapped(a, *args, **kwargs):
            calls.append(name)
            return decompose(a, *args, **kwargs)
        return wrapped

    rng = np.random.default_rng(74)
    counts = []
    for d in range(2, 7):
        for rank in range(1, d + 1):
            for _ in range(2):
                rho = rand_rho(rng, d, rank)
                delta = dephase(rho)
                lam0 = r_delta(rho) + 1.0
                state = density(rho)
                for eps in (1e-6, 1e-3, 0.01, 0.05, 0.1, 0.3, 0.7):
                    with monkeypatch.context() as m:
                        for name in ("eigh", "eigvalsh"):
                            m.setattr(np.linalg, name, counting(name))
                        calls.clear()
                        unit = _dilution_upper_unit(state, eps)
                        counts.append(len(calls))
                    # every point, t = 1 included, is one eigvalsh
                    assert "eigh" not in calls
                    want = _bisected_upper_unit(state, eps)
                    assert abs(unit - want) <= 1e-11 * want, (d, rank, eps, unit, want)
                    if lam0 - 1.0 > 1e-6:
                        # recover the witness from its cost and re-check it; recovering t
                        # and recomputing F add rounding of order 1e-15 to the check
                        t = (lam0 - unit) / (lam0 - 1.0)
                        omega = (1.0 - t) * rho + t * delta
                        assert fidelity(rho, omega) >= 1.0 - eps - 1e-12 - 1e-14, (d, rank, eps)
    # set-up (R_Delta) included, rho's own eigh not: the caller validates rho
    # by it. Measured mean 8.45, max 20; plain bisection needs at least 57
    # whenever it runs
    assert np.mean(counts) <= 8.5 and max(counts) <= 22, (np.mean(counts), max(counts))


def test_upper_unit_witness_and_count_on_flat_roots(monkeypatch):
    # near-incoherent states and tiny eps put the root where g is flat, so
    # the check is rounding noise over a span of t far wider than UPPER_TOL;
    # an unused level puts a zero on the diagonal of dephase(rho)
    calls = []

    def counting(decompose):
        def wrapped(a, *args, **kwargs):
            calls.append(a.shape)
            return decompose(a, *args, **kwargs)
        return wrapped

    rng = np.random.default_rng(76)
    counts = []
    for d in range(2, 9):
        for rank in range(1, d + 1):
            near = rand_rho(rng, d, rank)
            unused = np.zeros((d, d), dtype=complex)
            unused[1:, 1:] = rand_rho(rng, d - 1, min(rank, d - 1))
            for rho in (rand_rho(rng, d, rank), 1e-3 * near + (1 - 1e-3) * dephase(near), unused):
                state, delta = density(rho), dephase(rho)
                lam0 = r_delta(rho) + 1.0
                for eps in (1e-12, 1e-9, 1e-6, 1e-3, 0.1, 0.7):
                    with monkeypatch.context() as m:
                        for name in ("eigh", "eigvalsh"):
                            m.setattr(np.linalg, name, counting(getattr(np.linalg, name)))
                        calls.clear()
                        unit = _dilution_upper_unit(state, eps)
                        counts.append(len(calls))
                    assert 1.0 <= unit <= lam0
                    if lam0 - 1.0 > 1e-6:
                        t = (lam0 - unit) / (lam0 - 1.0)
                        omega = (1.0 - t) * rho + t * delta
                        assert fidelity(rho, omega) >= 1.0 - eps - 1e-12 - 1e-14, (d, rank, eps)
    # measured mean 9.5, max 39; without the switch to midpoints, chords from
    # an end where f rounds to 0 creep across the noise: max 461 here
    assert max(counts) <= 60, max(counts)


def test_dilution_upper_bound_witness_is_feasible():
    # the upper bound comes from an explicit feasible target; re-verify one
    rng = np.random.default_rng(72)
    rho = rand_rho(rng, 3)
    eps = 0.1
    _, hi = dilute_one_shot_bounds(rho, eps)
    # reconstruct the witness: unit = t + (1-t)(R_Delta(rho)+1)
    lam0 = r_delta(rho) + 1.0
    t = (2.0 ** hi.raw_value - lam0) / (1.0 - lam0) if lam0 > 1.0 else 0.0
    omega = (1.0 - t) * rho + t * dephase(rho)
    assert fidelity(rho, omega) >= 1.0 - eps - 1e-9
    assert abs((r_delta(omega) + 1.0) - 2.0 ** hi.raw_value) < 1e-7


def test_dilution_upper_count_admits_its_witness():
    # eps chosen by bisection so that the witness w_t costs 2 + 5e-8 units:
    # the upper side must report the 3 units construct_dilute needs for it
    rho = 0.999 * pure_to_density(np.pad(max_coherent(2), (0, 1))) + 0.001 * pure_to_density(max_coherent(3))
    lam0 = r_delta(rho) + 1.0
    lo, hi = 1e-4, 1e-2  # the witness cost falls as eps grows
    for _ in range(60):
        eps = 0.5 * (lo + hi)
        if 2.0 ** dilute_one_shot_bounds(rho, eps)[1].raw_value > 2.0 + 5e-8:
            lo = eps
        else:
            hi = eps
    _, upper = dilute_one_shot_bounds(rho, lo)
    unit = 2.0 ** upper.raw_value
    assert abs(unit - (2.0 + 5e-8)) < 1e-12
    t = (lam0 - unit) / (lam0 - 1.0)
    omega = (1.0 - t) * rho + t * dephase(rho)
    assert upper.one_shot_bits == math.log2(3)
    validate_channel(construct_dilute(round(2.0 ** upper.one_shot_bits), omega))


def test_distill_one_shot_rejects_eps_beyond_solver_resolution():
    # 1 - eps = 1e-12 is resolved: against I/2 the optimal test is
    # (1 - eps)|+><+|, so D_H^eps = log2(2 / (1 - eps)), and the yield floors it
    plus = pure_to_density(max_coherent(2))
    eps = 1.0 - 1e-12
    res = dh_epsilon(plus, dephase(plus), eps)
    assert abs(res.dh_bits - math.log2(2.0 / (1.0 - eps))) <= 1e-9
    assert abs(res.gap) <= 1e-20
    rep = distill_one_shot_from(res, eps)
    assert rep.one_shot_bits == math.log2(math.floor(2.0 ** res.dh_bits))
    # an infinite solve can only mean an eps the solver cannot resolve
    unresolved = NPResult(0.0, math.inf, np.zeros((2, 2)), math.inf, 0.0, 0.0, 2, "closed_form")
    with pytest.raises(ValueError, match="too close to 1"):
        distill_one_shot_from(unresolved, eps)


def test_dilution_bounds_near_eps_one():
    # at 1 - eps below the 1e-12 fidelity slack the t = 1 witness passes
    lower, upper = dilute_one_shot_bounds(pure_to_density(max_coherent(2)), 1.0 - 1e-13)
    assert lower.one_shot_bits == upper.one_shot_bits == 0.0


def test_dilution_bounds_reject_bad_eps():
    with pytest.raises(ValueError):
        dilute_one_shot_bounds(np.eye(2) / 2, 1.0)


def test_asymptotic_rates_agree():
    rng = np.random.default_rng(81)
    for _ in range(10):
        rho = rand_rho(rng, int(rng.integers(2, 5)))
        assert distill_asymptotic(rho).raw_value == dilute_asymptotic(rho).raw_value


def test_asymptotic_rate_reciprocal():
    rng = np.random.default_rng(82)
    for _ in range(10):
        rho = rand_rho(rng, 3)
        sigma = rand_rho(rng, 4)
        prod = asymptotic_rate(rho, sigma) * asymptotic_rate(sigma, rho)
        assert abs(prod - 1.0) < 1e-9


def test_asymptotic_rate_incoherent_edges():
    rho = pure_to_density(max_coherent(2))
    flat = np.diag([0.5, 0.5])
    assert asymptotic_rate(rho, flat) == math.inf
    assert asymptotic_rate(flat, rho) == 0.0
    # sigma is not diagonal, but D(sigma || dephase(sigma)) rounds to 0
    for p in (0.5, 0.3):
        assert asymptotic_rate(rho, np.array([[p, 1e-9], [1e-9, 1.0 - p]])) == math.inf
    # seeded pairs, most of them eta from 1e-13 to 1e-6 away from incoherent:
    # the ratio of the two relative entropies, or inf at a zero divisor
    rng = np.random.default_rng(23)
    for _ in range(200):
        d = int(rng.integers(2, 5))
        pair = []
        for _ in range(2):
            w = rand_rho(rng, d, int(rng.integers(1, d + 1)))
            eta = 10.0 ** rng.uniform(-13, -6) if rng.uniform() < 0.7 else 1.0
            pair.append((1.0 - eta) * dephase(w) + eta * w)
        num, den = (rel_entropy_coherence(s) for s in pair)
        assert asymptotic_rate(*pair) == (num / den if den > 0.0 else math.inf)

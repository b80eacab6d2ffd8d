import math

import numpy as np
import pytest

from dcoh import hypotest
from dcoh.channels import check_test_operator
from dcoh.hypotest import _scalar_dual, dh_epsilon, distill_fidelity_program
from dcoh.monotones import _coherence_eigh, _coherence_spectrum, renyi_relative
from dcoh.states import (BRACKET_TOL, PROB_CLAMP, RANK_RTOL, dephase, density, max_coherent,
                         pure_to_density)

from helpers import QUTRIT, rand_rho

# a near-incoherent qubit on which dh_epsilon at eps = 0.5310196211071253 takes the
# smooth path and closes its bracket with psi' != 0
_OFF = 1.6229694321064727e-6 - 5.741574239182502e-7j
NEAR_INCOHERENT = np.array([[0.74026076562549892, _OFF], [_OFF.conjugate(), 0.25973923437450108]])


def bisect_dual_reference(a0, a1, c):
    """Plain-bisection reference: min over t >= 0 of the convex
    psi(t) = Tr(a0 + t a1)_+ - c t, by doubling to bracket the sign change
    of a subgradient (no zero band), bisecting it to 1e-14 relative width
    and evaluating psi at the end."""

    def psi(t):
        w = np.linalg.eigvalsh(a0 + t * a1)
        return float(np.sum(w[w > 0.0])) - c * t

    def slope(t):
        w, v = np.linalg.eigh(a0 + t * a1)
        up = v[:, w > 0.0]
        return float(np.trace(up.conj().T @ a1 @ up).real) - c

    if slope(0.0) >= -1e-12:
        return psi(0.0)
    lo, hi = 0.0, 1.0
    while slope(hi) < -1e-12:
        lo, hi = hi, 2.0 * hi
    while hi - lo > 1e-14 * max(1.0, hi):
        mid = 0.5 * (lo + hi)
        if slope(mid) < -1e-12:
            lo = mid
        else:
            hi = mid
    return psi(hi)


def pencil_kinks(p, q, t_max: float) -> np.ndarray:
    """Reference kinks: 0, the sorted t in (0, t_max) at which p - t q is
    singular, t_max. For PSD p, q, on the support of b = p + q, p - t q is
    congruent to (1 + t) x - t with x = b^{-1/2} p b^{-1/2}: singular at
    t = x / (1 - x)."""
    wb, vb = np.linalg.eigh(p + q)
    keep = wb > RANK_RTOL * max(1.0, wb[-1])  # the state cut, scaled to trace 2
    c = vb[:, keep] / np.sqrt(wb[keep])
    x = np.linalg.eigvalsh(c.conj().T @ p @ c)
    x = x[(x > RANK_RTOL) & (x < 1.0)]
    t = x / (1.0 - x)
    return np.concatenate(([0.0], t[t < t_max], [t_max]))


def bisect_kinks_reference(a0, a1, c, kinks, first=None):
    """Reference kink search: _scalar_dual before the predicted first probe,
    plain bisection over the same kinks (`first` is ignored), then the same
    safeguarded Newton in a smooth segment. Returns what _scalar_dual does."""
    calls = 0
    slope_tol = min(PROB_CLAMP, 0.5 * abs(c))

    def at(t):
        nonlocal calls
        calls += 1
        w, v = np.linalg.eigh(a0 + t * a1)
        tau = RANK_RTOL * max(1.0, float(-w[0]), float(w[-1]))
        a1v, pos, neg = a1 @ v, w > tau, w < -tau
        diag = np.einsum("ij,ij->j", v.conj(), a1v).real
        s = sorted((float(diag[pos].sum()) - c, float(diag[~neg].sum()) - c))
        return t, w, v, a1v, diag, pos, neg, s[0], s[1]

    def rate(ev):
        _, w, v, a1v, push, pos, neg = ev[:7]
        g, zero = v.conj().T @ a1v, ~pos & ~neg
        up, down = pos | (zero & (push > 0.0)), neg | (zero & (push < 0.0))
        pair = np.outer(up, down) & ~np.outer(zero, zero)
        return 2.0 * float(np.sum(np.abs(g[pair]) ** 2 / (w[:, None] - w[None, :])[pair]))

    lo, hi, path, right = -1, len(kinks) - 1, "kink", None
    while hi - lo > 1:
        mid = (lo + hi) // 2
        ev = at(kinks[mid])
        if ev[-1] < -slope_tol:
            lo, left = mid, ev
        elif mid > 0 and ev[-2] > slope_tol:
            hi, right = mid, ev
        else:
            break
    else:
        path, a, b, ev, f, f_old = "smooth", kinks[lo], kinks[hi], left, left[-1], math.inf
        while f != 0.0 and b - a > BRACKET_TOL * max(1.0, b):
            r = rate(ev)
            t = ev[0] - f / r if r > 0.0 else math.nan
            if not (a < t < b and abs(f) <= 0.5 * f_old):
                t = math.sqrt(a * b) if a > 0.0 else 0.5 * (a + b)
            f_old, ev = abs(f), at(t)
            if ev[-1] < -slope_tol:
                a, f, left = t, ev[-1], ev
            elif ev[-2] > slope_tol:
                b, f, right = t, ev[-2], ev
            else:
                f = 0.0
                left, right = (ev, right) if float(ev[4][ev[5]].sum()) <= c else (left, ev)
    t, w, v, _, diag, pos, neg = ev[:7]
    psi = float(w[w > 0.0].sum()) - c * t
    if path == "kink":
        zero = ~pos & ~neg
        room, need = float(diag[zero].sum()), c - float(diag[pos].sum())
        alpha = min(max(need / room, 0.0), 1.0) if abs(room) > PROB_CLAMP else 0.0
        return t, (v * (pos + alpha * zero)) @ v.conj().T, psi, path, calls
    ends = [(e[2], e[5], float(e[4][e[5]].sum()) - c) for e in (left, right or at(b))]
    (va, pa, sa), (vb, pb, sb) = ends
    beta = sa / (sa - sb)
    m = (va * ((1.0 - beta) * pa)) @ va.conj().T + (vb * (beta * pb)) @ vb.conj().T
    return t, m, psi, path, calls


def test_check_test_operator():
    check_test_operator(np.diag([0.0, 0.5, 1.0]))
    with pytest.raises(ValueError, match="outside"):
        check_test_operator(np.diag([1.2, 0.0]))


def test_dh_primal_is_feasible_and_dual_certified():
    rng = np.random.default_rng(101)
    for _ in range(40):
        d = int(rng.integers(2, 6))
        rho = rand_rho(rng, d)
        eps = float(rng.uniform(0.0, 0.8))
        res = dh_epsilon(rho, dephase(rho), eps)
        check_test_operator(res.primal)
        assert np.trace(res.primal @ rho).real >= 1.0 - eps - 1e-7
        assert abs(res.gap) < 1e-6
        assert res.dual_t >= 0.0


def test_dh_never_beats_random_feasible_tests():
    # any feasible test upper-bounds the minimum
    rng = np.random.default_rng(55)
    rho = rand_rho(rng, 4)
    sigma = dephase(rho)
    eps = 0.3
    opt = dh_epsilon(rho, sigma, eps).optimal_value
    tried = 0
    for _ in range(200):
        a = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
        a = (a + a.conj().T) / 2
        w, v = np.linalg.eigh(a)
        m = (v * np.clip(w, 0.0, 1.0)) @ v.conj().T
        # mix toward the identity (always feasible) so the sampler actually
        # lands inside the feasible region often enough
        c = rng.uniform(0.0, 1.0)
        m = (1.0 - c) * m + c * np.eye(4)
        if np.trace(m @ rho).real >= 1.0 - eps:
            assert np.trace(m @ sigma).real >= opt - 1e-8
            tried += 1
    assert tried > 20


def test_dh_zero_matches_closed_form():
    rng = np.random.default_rng(202)
    for _ in range(40):
        d = int(rng.integers(2, 6))
        rho = rand_rho(rng, d)
        res = dh_epsilon(rho, dephase(rho), 0.0)
        assert abs(res.dh_bits - renyi_relative(rho, 0.0)) < 1e-9
        assert abs(res.gap) < 1e-9


def test_dh_qutrit_example_values():
    rho = pure_to_density(QUTRIT)
    # sum of squared populations is 59/128, so the zero-error value is
    # -log2(59/128)
    assert abs(renyi_relative(rho, 0.0) + math.log2(59.0 / 128.0)) < 1e-12
    res = dh_epsilon(rho, dephase(rho), 0.0)
    assert abs(res.optimal_value - 59.0 / 128.0) < 1e-12


def test_dh_maxcoherent_vs_maximally_mixed():
    # Psi_2 against I/2 at eps = 1/2: the optimal test accepts Psi_2 fully
    # plus nothing else, value 1/4, i.e. exactly 2 bits
    rho = pure_to_density(max_coherent(2))
    res = dh_epsilon(rho, np.eye(2) / 2.0, 0.5)
    assert abs(res.dh_bits - 2.0) < 1e-9
    assert abs(res.gap) < 1e-8


def test_dh_monotone_in_eps():
    rng = np.random.default_rng(9)
    rho = rand_rho(rng, 3)
    values = [dh_epsilon(rho, dephase(rho), e).optimal_value for e in (0.0, 0.1, 0.3, 0.6)]
    assert all(a >= b - 1e-9 for a, b in zip(values, values[1:]))


def test_dh_identical_states_is_zero():
    # an incoherent rho is its own dephasing
    rng = np.random.default_rng(12)
    rho = np.diag(rng.dirichlet(np.ones(3)))
    res = dh_epsilon(rho, rho, 0.0)
    assert abs(res.dh_bits) < 1e-9


def test_dh_rejects_sigma_that_is_not_the_dephased_state():
    rng = np.random.default_rng(13)
    rho = rand_rho(rng, 3)
    delta = dephase(rho)
    for sigma in (rand_rho(rng, 3), delta + 1e-9 * np.eye(3), delta[:2, :2],
                  np.full((3, 3), np.nan), density(np.eye(3) / 3)):
        for eps in (0.0, 0.1):
            with pytest.raises(ValueError, match="sigma is not dephase"):
                dh_epsilon(rho, sigma, eps)
    # a dephased state within HERM_ATOL, as an array or a Density, is accepted
    want = dh_epsilon(rho, delta, 0.1).optimal_value
    assert dh_epsilon(rho, delta + 1e-11 * np.eye(3), 0.1).optimal_value == want
    assert dh_epsilon(density(rho), density(delta), 0.1).optimal_value == want


def test_dh_rejects_bad_eps():
    rho = np.eye(2) / 2
    with pytest.raises(ValueError):
        dh_epsilon(rho, rho, 1.0)
    with pytest.raises(ValueError):
        dh_epsilon(rho, rho, -0.1)


def test_distill_fidelity_diagonal_state():
    # for incoherent input the objective and the constraint coincide
    rho = np.diag([0.4, 0.35, 0.25])
    for m in (2, 3):
        assert abs(distill_fidelity_program(rho, m).value - 1.0 / m) < 1e-9


def test_distill_fidelity_pure_threshold():
    # unit fidelity exactly when the largest squared amplitude is <= 1/m
    rho = pure_to_density(QUTRIT)
    assert abs(distill_fidelity_program(rho, 2).value - 1.0) < 1e-9
    assert distill_fidelity_program(rho, 3).value < 1.0 - 1e-6
    psi = max_coherent(3)
    assert abs(distill_fidelity_program(pure_to_density(psi), 3).value - 1.0) < 1e-9


def test_distill_fidelity_program_certificates():
    rng = np.random.default_rng(303)
    for _ in range(40):
        d = int(rng.integers(2, 6))
        m = int(rng.integers(2, 5))
        rho = rand_rho(rng, d)
        prog = distill_fidelity_program(rho, m)
        check_test_operator(prog.primal)
        weight = np.trace(prog.primal @ dephase(rho)).real
        assert abs(weight - 1.0 / m) < 1e-8
        assert 1.0 / m - 1e-9 <= prog.value <= 1.0 + 1e-12
        assert abs(prog.gap) < 1e-6
        assert prog.dual_t >= 0.0
    # m = 1 and a trace 5e-10 short of 1 (within TRACE_ATOL): psi' > 0 on both sides of
    # the kink t = 0, which ends the domain, so the solve stops there; bracketing it
    # would leave no left end
    rho = np.array([[0.6, 0.3], [0.3, 0.4 - 5e-10]])
    prog = distill_fidelity_program(rho, 1)
    assert (prog.path, prog.dual_t, prog.eig_calls, prog.gap) == ("kink", 0.0, 2, 0.0)
    assert abs(prog.value - (1.0 - 5e-10)) < 1e-15


def test_distill_fidelity_decreasing_in_m():
    rng = np.random.default_rng(404)
    rho = rand_rho(rng, 4)
    vals = [distill_fidelity_program(rho, m).value for m in (2, 3, 4, 6)]
    assert all(a >= b - 1e-9 for a, b in zip(vals, vals[1:]))


def test_distill_fidelity_rejects_small_m():
    for m in (0.5, math.nan):
        with pytest.raises(ValueError, match="m must be >= 1"):
            distill_fidelity_program(np.eye(2) / 2, m)


def test_primal_takes_no_fraction_of_a_dust_weight_zero_band():
    # need / room is a ratio of two rounding residues when the zero band weighs 1e-20
    # (an unused level, say): a fraction of it would put that level in the test at random
    # A(1) = diag(-0.5, 0, 0.5) with a1 = diag(0.5, 1e-20, 0.5) and c = 0.5 + 2^-53: the
    # slopes of P_+ and P_+ + P_0 both round to 0 at the kink t = 1, the one probe
    a1 = np.diag([0.5, 1e-20, 0.5])
    t, m, psi, path, calls = _scalar_dual(np.diag([-0.5, 0.0, 0.5]) - a1, a1, 0.5 + 2.0**-53,
                                          np.array([0.0, 1.0, 2.0]), 1)
    assert (t, path, calls) == (1.0, "kink", 1) and abs(psi + 2.0**-53) <= 1e-16
    assert np.array_equal(m, np.diag([0.0, 0.0, 1.0]))


def test_near_commuting_certificates_are_exact():
    # rho = (1 - delta) diag(p) + delta tau puts kinks within about delta of each
    # other, where a smooth bracket can close with psi' != 0; the test mixing the
    # positive parts at its ends still meets the constraint and closes the gap.
    # The first state took the smooth path to a gap of 1.7e-6 with a widened band.
    # At d = 16 and 32 a kink's zero band can hold positive eigenvalues: the dual
    # value sums them too, so it stays a bound, gap >= 0 to rounding. A smooth stop
    # where psi' rounds to 0 mixes too, so each constraint holds to rounding
    cases = [(NEAR_INCOHERENT, 0.5310196211071253, 2.0)]
    rng = np.random.default_rng(25)
    for i in range(500):
        d = 2 + i % 7 if i < 400 else 16 * (1 + i % 2)
        delta = 10.0 ** rng.uniform(-12.0, -2.0)
        tau = rand_rho(rng, d, int(rng.integers(1, d + 1)))
        rho = (1.0 - delta) * np.diag(rng.dirichlet(np.ones(d))) + delta * tau
        cases.append((rho, float(10.0 ** rng.uniform(-6.0, math.log10(0.7))), float(rng.uniform(1.0, d))))
    for i, (rho, eps, m) in enumerate(cases):
        res, prog = dh_epsilon(rho, dephase(rho), eps), distill_fidelity_program(rho, m)
        for test in (res.primal, prog.primal):
            w = np.linalg.eigvalsh(test)
            assert -1e-12 <= w[0] and w[-1] <= 1.0 + 1e-12, (i, w)
        for r in (res, prog):
            assert abs(r.gap) <= 1e-8, (i, r.path, r.gap)
            assert r.gap >= -1e-11 * max(1.0, r.dual_t), (i, r.path, r.gap, r.dual_t)
        assert np.vdot(res.primal, rho).real >= 1.0 - eps - 1e-14, (i, res.path)
        assert abs(np.vdot(prog.primal, dephase(rho)).real - 1.0 / m) <= 1e-14, (i, prog.path)


def test_bracket_closing_on_its_unprobed_end_evaluates_it(monkeypatch):
    # c puts psi' = 0 at kinks[-1], which the search never probes: Newton climbs the
    # steep psi' from the left until the bracket closes with psi' < 0, and the test
    # mixes the positive part there with the one at kinks[-1], evaluated last
    a1, end = NEAR_INCOHERENT, 1.000001
    a0 = -dephase(a1)
    w, v = np.linalg.eigh(a0 + end * a1)
    c = float(np.einsum("ij,ij->j", v.conj(), a1 @ v).real[w > 0.0].sum())
    seen = []
    eigh = np.linalg.eigh
    monkeypatch.setattr(np.linalg, "eigh", lambda a: seen.append(a) or eigh(a))
    t, m, psi, path, calls = _scalar_dual(a0, a1, c, np.array([0.0, 0.9999960739729845, end]), 1)
    assert path == "smooth" and calls == len(seen) and t < end
    assert np.array_equal(seen[-1], a0 + end * a1)
    assert abs(np.vdot(m, a1).real - c) <= 1e-15
    w = np.linalg.eigvalsh(m)
    assert -1e-12 <= w[0] and w[-1] <= 1.0 + 1e-12, w
    # Tr(M a0) <= psi(t) for every t when Tr(M a1) = c: the gap at t*
    assert -1e-15 <= psi - np.vdot(m, a0).real <= 1e-8


def test_dh_at_eps_below_rounding_is_the_closed_form():
    # 1 - eps == 1 in floating point makes Tr(M rho) >= 1 - eps read
    # Tr(M rho) >= 1, so Pi_rho is optimal: the eps = 0 value, one eigh
    rng = np.random.default_rng(9)
    for i in range(400):
        d = 2 + i % 7
        if i % 7 == 0:
            rho = pure_to_density(max_coherent(d))
        else:
            rho = rand_rho(rng, d, int(rng.integers(1, d + 1)))
        want = dh_epsilon(rho, dephase(rho), 0.0)
        for eps in (1e-300, 1e-20, 5e-17):
            res = dh_epsilon(rho, dephase(rho), eps)
            assert (res.path, res.eig_calls) == ("closed_form", 1)
            assert res.optimal_value == want.optimal_value and res.gap == want.gap


def test_dh_and_fidelity_program_read_one_neyman_pearson_curve():
    # beta = min Tr(M dephase(rho)) at Tr(M rho) >= 1 - eps, and max Tr(X rho)
    # at Tr(X dephase(rho)) = beta is back at 1 - eps
    rng = np.random.default_rng(2222)
    for i in range(600):
        d = 2 + i % 7
        rho = rand_rho(rng, d, int(rng.integers(1, d + 1)))
        eps = float(10.0 ** rng.uniform(-6.0, math.log10(0.7)))
        beta = dh_epsilon(rho, dephase(rho), eps).optimal_value
        value = distill_fidelity_program(rho, 1.0 / beta).value
        assert abs(value - (1.0 - eps)) <= 1e-9, (d, eps, value)


def _check_dh(rho, eps):
    sigma = dephase(rho)
    res = dh_epsilon(rho, sigma, eps)
    check_test_operator(res.primal)
    assert np.trace(res.primal @ rho).real >= 1.0 - eps - 1e-8
    assert abs(res.gap) < 1e-6
    want = -bisect_dual_reference(-sigma, rho, 1.0 - eps)
    assert abs(res.optimal_value - want) < 1e-9, (res.optimal_value, want, res.path)
    assert res.path in ("kink", "smooth")
    return res


def _check_fidelity(rho, m):
    prog = distill_fidelity_program(rho, m)
    delta = dephase(rho)
    check_test_operator(prog.primal)
    assert abs(np.trace(prog.primal @ delta).real - 1.0 / m) < 1e-8
    assert abs(prog.gap) < 1e-6
    want = bisect_dual_reference(rho, -delta, -1.0 / m)
    assert abs(prog.value - want) < 1e-9, (prog.value, want, prog.path)
    assert prog.path in ("kink", "smooth")
    return prog


def test_rank_deficient_states_match_bisection_reference():
    rng = np.random.default_rng(606)
    paths = set()
    for d in range(2, 9):
        for rank in range(1, d):
            rho = rand_rho(rng, d, rank)
            eps = float(rng.choice([0.01, 0.05, 0.1, 0.3]))
            paths.add(_check_dh(rho, eps).path)
            paths.add(_check_fidelity(rho, float(rng.choice([2, 3, d, 2.5]))).path)
    assert paths == {"kink", "smooth"}


def test_singular_sigma():
    # a zero amplitude makes dephase(rho) singular
    psi = np.array([0.6, 0.0, 0.48 + 0.64j])
    rho = pure_to_density(psi)
    for eps in (0.01, 0.2):
        _check_dh(rho, eps)
    for m in (2, 3):
        _check_fidelity(rho, m)


def test_solver_diagnostics():
    rho = pure_to_density(QUTRIT)
    res = dh_epsilon(rho, dephase(rho), 0.0)
    assert (res.path, res.eig_calls) == ("closed_form", 1)
    # an incoherent state: t rho - rho vanishes at the one kink t = 1, where
    # the optimal test is the fraction 1 - eps of the identity
    res = dh_epsilon(np.diag([0.5, 0.3, 0.2]), np.diag([0.5, 0.3, 0.2]), 0.05)
    assert res.path == "kink"
    assert abs(res.dual_t - 1.0) < 1e-12
    assert abs(res.optimal_value - 0.95) < 1e-12


def test_fidelity_kinks_are_the_coherence_spectrum():
    # rho - t dephase(rho) is singular where the pencil formula (an eigh of
    # rho + dephase(rho), then an eigvalsh) puts its kinks, and those are the
    # eigenvalues lambda of the coherence matrix from the eigh both solvers
    # read (the monotones' eigvalsh of it within rounding); t rho - dephase(rho)
    # is singular at t = 1/lambda, dh_epsilon's kinks
    rng = np.random.default_rng(1818)
    for d in range(2, 9):
        for rank in range(1, d + 1):
            for unused in (False, True):
                rho = rand_rho(rng, d, rank)
                if unused and d > 2:
                    k = int(rng.integers(d))
                    rho[k, :] = rho[:, k] = 0.0
                    rho /= np.trace(rho).real
                spectrum = _coherence_eigh(rho)[0]
                np.testing.assert_allclose(spectrum, _coherence_spectrum(rho), rtol=0.0, atol=1e-12)
                for m in (2.5, d + 1.0):
                    lam = spectrum[(spectrum > RANK_RTOL) & (spectrum < m)]
                    want = pencil_kinks(rho, dephase(rho), m)[1:-1]
                    assert lam.shape == want.shape, (d, rank, unused, lam, want)
                    np.testing.assert_allclose(lam, want, rtol=1e-9, atol=0.0)
                for eps in (1e-6, 0.05, 0.5):
                    lam = spectrum[::-1]
                    t = 1.0 / lam[lam > max(RANK_RTOL, eps)]
                    want = pencil_kinks(dephase(rho), rho, 1.0 / eps)[1:-1]
                    assert t.shape == want.shape, (d, rank, unused, eps, t, want)
                    np.testing.assert_allclose(t, want, rtol=1e-9, atol=0.0)


def test_eigendecompositions_per_solve_at_d32(monkeypatch):
    calls = []

    def counting(name):
        decompose = getattr(np.linalg, name)

        def wrapped(a, *args, **kwargs):
            calls.append((name, a))
            return decompose(a, *args, **kwargs)
        return wrapped

    for name in ("eigh", "eigvalsh"):
        monkeypatch.setattr(np.linalg, name, counting(name))
    rng = np.random.default_rng(808)
    paths = set()
    for rank in (32, 16):
        rho = rand_rho(rng, 32, rank)
        p = rho.diagonal().real
        coherence = rho / np.sqrt(np.outer(p, p))
        for eps in (0.01, 0.05, 0.1):
            calls.clear()
            res = dh_epsilon(rho, dephase(rho), eps)
            names = [name for name, _ in calls]
            # one validating eigvalsh, then one eigh of the coherence matrix for
            # the kinks and the predicted first probe; every later eigh is one
            # dual evaluation, of the pencil t rho - dephase(rho) at a t in [0, 1/eps]
            assert names[:2] == ["eigvalsh", "eigh"] and names.count("eigvalsh") == 1
            assert np.allclose(calls[1][1], coherence, rtol=0.0, atol=1e-12)
            assert names.count("eigh") <= 3
            assert res.eig_calls == len(calls) - 1
            for name, a in calls[2:]:
                t = 1.0 + a.diagonal().real / p
                assert np.ptp(t) < 1e-9 and 0.0 <= t[0] <= 1.0 / eps
                assert np.allclose(a, t[0] * rho - dephase(rho), rtol=0.0, atol=1e-12)
            paths.add(res.path)
        # at eps = 0 the eigh that validates rho is the closed form's one
        # decomposition (Pi_rho is v v^dag), and sigma is not decomposed
        calls.clear()
        res = dh_epsilon(rho, dephase(rho), 0.0)
        assert [name for name, _ in calls] == ["eigh"]
        assert res.eig_calls == 1
        for m in (2, 4, 8, 16):
            calls.clear()
            res = distill_fidelity_program(rho, m)
            names = [name for name, _ in calls]
            # one validating eigvalsh and one eigh of the coherence matrix; every
            # later eigh is one dual evaluation, of the pencil rho - t dephase(rho)
            # at a t in [0, m]
            assert names[:2] == ["eigvalsh", "eigh"] and names.count("eigvalsh") == 1
            assert np.allclose(calls[1][1], coherence, rtol=0.0, atol=1e-12)
            assert names.count("eigh") <= 6
            assert res.eig_calls == len(calls) - 1
            for name, a in calls[2:]:
                t = 1.0 - a.diagonal().real / p
                assert np.ptp(t) < 1e-9 and 0.0 <= t[0] <= m
            paths.add(res.path)
    assert paths == {"kink", "smooth"}


def test_predicted_first_probe_matches_plain_bisection(monkeypatch):
    # probing the predicted kink first only reorders the slope tests: every
    # solve takes the path, t*, values and primal of plain bisection over the
    # same kinks, at most one decomposition more, and a kink found on the kink
    # path costs the spectrum's eigh and at most two dual evaluations
    rng = np.random.default_rng(2424)
    solves, flat = [], 0
    for d in (2, 3, 4, 5, 6, 7, 8, 12, 16, 32):
        for rank in range(1, d + 1):
            rho = rand_rho(rng, d, rank)
            eps = float(10.0 ** rng.uniform(-6.0, math.log10(0.7)))
            m = float(rng.uniform(1.0, d))
            solves.append((lambda r=rho, e=eps: dh_epsilon(r, dephase(r), e), "optimal_value"))
            solves.append((lambda r=rho, m=m: distill_fidelity_program(r, m), "value"))
    results = [solve() for solve, _ in solves]
    monkeypatch.setattr(hypotest, "_scalar_dual", bisect_kinks_reference)
    for (solve, value), res in zip(solves, results):
        ref = solve()
        assert res.path == ref.path
        assert res.eig_calls <= ref.eig_calls + 1
        if res.path == "kink":
            assert res.eig_calls <= 3, (res.eig_calls, ref.eig_calls)
        if res.dual_t != ref.dual_t:
            # psi' vanishes across the segment between two optimal kinks
            flat += 1
            assert res.path == "kink"
            assert abs(getattr(res, value) - getattr(ref, value)) <= 1e-12
            assert abs(res.dual_value - ref.dual_value) <= 1e-12
            continue
        assert getattr(res, value) == getattr(ref, value)
        assert res.dual_value == ref.dual_value and res.gap == ref.gap
        assert np.array_equal(res.primal, ref.primal)
    assert flat <= 2

import math

import numpy as np
import pytest

from dcoh.hypotest import (
    check_test_operator,
    dh_epsilon,
    dh_zero_closed_form,
    distill_fidelity,
    distill_fidelity_program,
)
from dcoh.states import dephase, max_coherent, pure_to_density

QUTRIT = np.array([math.sqrt(5.0 / 8.0), math.sqrt(3.0 / 16.0), math.sqrt(3.0 / 16.0)])


def rand_rho(rng, d, rank=None):
    rank = d if rank is None else rank
    a = rng.normal(size=(d, rank)) + 1j * rng.normal(size=(d, rank))
    rho = a @ a.conj().T
    return rho / np.trace(rho).real


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


def diag_dh_oracle(r, s, eps):
    """Fractional-knapsack LP oracle for commuting (diagonal) instances:
    min sum M_i s_i subject to sum M_i r_i >= 1 - eps, 0 <= M_i <= 1."""
    order = sorted(
        (i for i in range(len(r)) if r[i] > 1e-15), key=lambda i: s[i] / r[i]
    )
    need = 1.0 - eps
    cost = 0.0
    for i in order:
        take = min(1.0, need / r[i])
        cost += take * s[i]
        need -= take * r[i]
        if need <= 1e-15:
            break
    return cost


def test_check_test_operator():
    check_test_operator(np.diag([0.0, 0.5, 1.0]))
    with pytest.raises(ValueError, match="outside"):
        check_test_operator(np.diag([1.2, 0.0]))


def test_dh_diagonal_matches_lp_oracle():
    rng = np.random.default_rng(31)
    for _ in range(60):
        d = int(rng.integers(2, 6))
        r = rng.dirichlet(np.ones(d))
        s = rng.dirichlet(np.ones(d))
        eps = float(rng.choice([0.0, 0.05, 0.2, 0.5]))
        got = dh_epsilon(np.diag(r), np.diag(s), eps)
        want = diag_dh_oracle(r, s, eps)
        assert abs(got.optimal_value - want) < 1e-7, (r, s, eps)
        assert abs(got.gap) < 1e-6


def test_dh_primal_is_feasible_and_dual_certified():
    rng = np.random.default_rng(101)
    for _ in range(40):
        d = int(rng.integers(2, 6))
        rho = rand_rho(rng, d)
        sigma = rand_rho(rng, d)
        eps = float(rng.uniform(0.0, 0.8))
        res = dh_epsilon(rho, sigma, eps)
        check_test_operator(res.primal, atol=1e-7)
        assert np.trace(res.primal @ rho).real >= 1.0 - eps - 1e-7
        assert abs(res.gap) < 1e-6
        assert res.dual_t >= 0.0


def test_dh_never_beats_random_feasible_tests():
    # any feasible test upper-bounds the minimum
    rng = np.random.default_rng(55)
    rho = rand_rho(rng, 4)
    sigma = rand_rho(rng, 4)
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
        assert abs(res.dh_bits - dh_zero_closed_form(rho)) < 1e-9
        assert abs(res.gap) < 1e-9


def test_dh_qutrit_example_values():
    rho = pure_to_density(QUTRIT)
    # sum of squared populations is 59/128, so the zero-error value is
    # -log2(59/128)
    assert abs(dh_zero_closed_form(rho) + math.log2(59.0 / 128.0)) < 1e-12
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
    sigma = rand_rho(rng, 3)
    values = [dh_epsilon(rho, sigma, e).optimal_value for e in (0.0, 0.1, 0.3, 0.6)]
    assert all(a >= b - 1e-9 for a, b in zip(values, values[1:]))


def test_dh_identical_states_is_zero():
    rng = np.random.default_rng(12)
    rho = rand_rho(rng, 3)
    res = dh_epsilon(rho, rho, 0.0)
    assert abs(res.dh_bits) < 1e-9


def test_dh_orthogonal_supports_is_infinite():
    rho = np.diag([1.0, 0.0])
    sigma = np.diag([0.0, 1.0])
    res = dh_epsilon(rho, sigma, 0.0)
    assert res.infinite
    assert math.isinf(res.dh_bits)


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
        assert abs(distill_fidelity(rho, m) - 1.0 / m) < 1e-9


def test_distill_fidelity_pure_threshold():
    # unit fidelity exactly when the largest squared amplitude is <= 1/m
    rho = pure_to_density(QUTRIT)
    assert abs(distill_fidelity(rho, 2) - 1.0) < 1e-9
    assert distill_fidelity(rho, 3) < 1.0 - 1e-6
    psi = max_coherent(3)
    assert abs(distill_fidelity(pure_to_density(psi), 3) - 1.0) < 1e-9


def test_distill_fidelity_program_certificates():
    rng = np.random.default_rng(303)
    for _ in range(40):
        d = int(rng.integers(2, 6))
        m = int(rng.integers(2, 5))
        rho = rand_rho(rng, d)
        prog = distill_fidelity_program(rho, m)
        check_test_operator(prog.primal, atol=1e-7)
        weight = np.trace(prog.primal @ dephase(rho)).real
        assert abs(weight - 1.0 / m) < 1e-8
        assert 1.0 / m - 1e-9 <= prog.value <= 1.0 + 1e-12
        assert abs(prog.gap) < 1e-6
        assert prog.dual_t >= 0.0


def test_distill_fidelity_decreasing_in_m():
    rng = np.random.default_rng(404)
    rho = rand_rho(rng, 4)
    vals = [distill_fidelity(rho, m) for m in (2, 3, 4, 6)]
    assert all(a >= b - 1e-9 for a, b in zip(vals, vals[1:]))


def test_distill_fidelity_rejects_small_m():
    with pytest.raises(ValueError):
        distill_fidelity(np.eye(2) / 2, 0.5)


def _check_dh(rho, sigma, eps):
    res = dh_epsilon(rho, sigma, eps)
    check_test_operator(res.primal, atol=1e-8)
    assert np.trace(res.primal @ rho).real >= 1.0 - eps - 1e-8
    assert abs(res.gap) < 1e-6
    want = -bisect_dual_reference(-sigma, rho, 1.0 - eps)
    assert abs(res.optimal_value - want) < 1e-9, (res.optimal_value, want, res.path)
    assert res.path in ("kink", "smooth") and res.band_widenings == 0
    return res


def _check_fidelity(rho, m):
    prog = distill_fidelity_program(rho, m)
    delta = dephase(rho)
    check_test_operator(prog.primal, atol=1e-8)
    assert abs(np.trace(prog.primal @ delta).real - 1.0 / m) < 1e-8
    assert abs(prog.gap) < 1e-6
    want = bisect_dual_reference(rho, -delta, -1.0 / m)
    assert abs(prog.value - want) < 1e-9, (prog.value, want, prog.path)
    assert prog.path in ("kink", "smooth") and prog.band_widenings == 0
    return prog


def test_rank_deficient_states_match_bisection_reference():
    rng = np.random.default_rng(606)
    paths = set()
    for d in range(2, 9):
        for rank in range(1, d):
            rho = rand_rho(rng, d, rank)
            eps = float(rng.choice([0.01, 0.05, 0.1, 0.3]))
            paths.add(_check_dh(rho, dephase(rho), eps).path)
            paths.add(_check_dh(rho, rand_rho(rng, d), eps).path)
            paths.add(_check_fidelity(rho, float(rng.choice([2, 3, d, 2.5]))).path)
    assert paths == {"kink", "smooth"}


def test_singular_sigma():
    # a zero amplitude makes dephase(rho) singular
    psi = np.array([0.6, 0.0, 0.48 + 0.64j])
    rho = pure_to_density(psi)
    for eps in (0.01, 0.2):
        _check_dh(rho, dephase(rho), eps)
    for m in (2, 3):
        _check_fidelity(rho, m)
    rng = np.random.default_rng(707)
    for d in (3, 5):
        for rank in range(1, d):
            sigma = rand_rho(rng, d, rank)
            _check_dh(rand_rho(rng, d), sigma, 0.1)
            _check_dh(rand_rho(rng, d, rank), sigma, 0.05)


def test_solver_diagnostics():
    rho = pure_to_density(QUTRIT)
    res = dh_epsilon(rho, dephase(rho), 0.0)
    assert (res.path, res.eig_calls, res.band_widenings) == ("closed_form", 2, 0)
    # commuting states: the optimum is a vertex of the LP, here the largest
    # kink t = 2.5 of the pencil
    res = dh_epsilon(np.diag([0.5, 0.3, 0.2]), np.diag([0.2, 0.3, 0.5]), 0.05)
    assert res.path == "kink" and res.band_widenings == 0
    assert abs(res.dual_t - 2.5) < 1e-12
    assert abs(res.optimal_value - diag_dh_oracle([0.5, 0.3, 0.2], [0.2, 0.3, 0.5], 0.05)) < 1e-12


def test_eigendecompositions_per_solve_at_d32(monkeypatch):
    calls = []
    eigh = np.linalg.eigh

    def counting_eigh(a, *args, **kwargs):
        calls.append(a.shape)
        return eigh(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigh", counting_eigh)
    rng = np.random.default_rng(808)
    paths = set()
    for rank in (32, 16):
        rho = rand_rho(rng, 32, rank)
        solves = [lambda eps=eps: dh_epsilon(rho, dephase(rho), eps) for eps in (0.01, 0.05, 0.1)]
        solves += [lambda m=m: distill_fidelity_program(rho, m) for m in (2, 4, 8, 16)]
        for solve in solves:
            calls.clear()
            res = solve()
            assert len(calls) <= 12
            # the kinks take one eigh and one eigvalsh, every other solver
            # decomposition is an eigh
            assert res.eig_calls == len(calls) + 1
            paths.add(res.path)
    assert paths == {"kink", "smooth"}

import itertools
import json
import math
import re

import numpy as np
import pytest

from dcoh.channels import (
    QuantumChannel,
    apply,
    channel_from_json,
    channel_from_kraus,
    channel_to_json,
    construct_dilute,
    construct_distill,
    construct_prop5,
    dephasing_channel,
    is_dio,
    is_rho_dio,
    measure_prepare,
    qubit_decide,
    twirl_channel,
    validate_channel,
)
from dcoh.hypotest import distill_fidelity_program
from dcoh.monotones import r_delta
from dcoh.rates import dilute_one_shot_bounds, dilute_zero_error, distill_zero_error
from dcoh.states import dephase, fidelity, l1_norm, max_coherent, pure_to_density

from helpers import QUTRIT, rand_rho


def rand_kraus(rng, d, n_kraus=3):
    """Kraus operators of a random CPTP channel: a Haar-ish isometry split into blocks."""
    g = rng.normal(size=(d * n_kraus, d)) + 1j * rng.normal(size=(d * n_kraus, d))
    v, _ = np.linalg.qr(g)
    return [v[i * d : (i + 1) * d] for i in range(n_kraus)]


def rand_channel(rng, d, n_kraus=3):
    return channel_from_kraus(rand_kraus(rng, d, n_kraus))


def test_apply_routes_agree():
    rng = np.random.default_rng(15)
    kraus = rand_kraus(rng, 3)
    rho = rand_rho(rng, 3)
    via_kraus = sum(k @ rho @ k.conj().T for k in kraus)
    via_choi = apply(channel_from_kraus(kraus), rho)
    assert np.allclose(via_kraus, via_choi, atol=1e-10)
    assert abs(np.trace(via_choi).real - 1.0) < 1e-9


def test_validate_channel_catches_violations():
    d = 2
    j = -np.eye(d * d, dtype=complex)
    with pytest.raises(ValueError, match="matrix is not PSD: min eigenvalue -1.000e"):
        validate_channel(QuantumChannel(d, d, j))
    ch = dephasing_channel(2)
    broken = QuantumChannel(2, 2, 0.5 * ch.choi)
    with pytest.raises(ValueError, match="trace preserving"):
        validate_channel(broken)


def test_twirl_matches_permutation_average():
    # brute-force oracle: explicit average over all d! basis permutations
    rng = np.random.default_rng(16)
    with pytest.raises(ValueError, match="dim must be >= 1, got 0"):
        twirl_channel(0)
    for d in (2, 3, 4):
        tw = twirl_channel(d)
        validate_channel(tw)
        rho = rand_rho(rng, d)
        perms = list(itertools.permutations(range(d)))
        avg = np.zeros((d, d), dtype=complex)
        for perm in perms:
            u = np.eye(d)[list(perm)]
            avg += u @ rho @ u.T
        avg /= len(perms)
        assert np.allclose(apply(tw, rho), avg, atol=1e-10)


def test_twirl_is_dio():
    ok, viol = is_dio(twirl_channel(3))
    assert ok and viol < 1e-10


def test_dephasing_channel_is_dio_with_clean_kraus_conditions():
    ch = dephasing_channel(3)
    ok, viol = is_dio(ch)
    assert ok and viol < 1e-12
    # J[(x,a),(y,b)] = <K(b,y), K(a,x)>, so is_dio's violation is the Kraus-level
    # one, and the Choi diagonal is the transition matrix S[a,x] = ||K(a,x)||^2
    s = np.einsum("xaxa->ax", ch.choi.reshape(3, 3, 3, 3)).real
    assert np.allclose(s, np.eye(3))


def rand_hermitian(rng, d):
    a = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    return (a + a.conj().T) / 2


def test_measure_prepare_rectangular():
    rng = np.random.default_rng(26)
    for n_pairs in (2, 3):
        pairs = [(rand_hermitian(rng, 3), rand_hermitian(rng, 2)) for _ in range(n_pairs)]
        ch = measure_prepare(pairs)
        assert (ch.input_dim, ch.output_dim) == (3, 2)
        for _ in range(5):
            q = rand_hermitian(rng, 3)
            want = sum(np.trace(a @ q) * w for a, w in pairs)
            assert np.allclose(apply(ch, q), want, atol=1e-12)
    # a state of the output dimension is not an input
    with pytest.raises(ValueError, match=r"state dim \(2, 2\) != channel input dim 3"):
        apply(ch, np.eye(2) / 2)


def test_unitary_coherence_generator_is_not_dio():
    h = np.array([[1, 1], [1, -1]]) / np.sqrt(2.0)
    ok, viol = is_dio(channel_from_kraus([h]))
    assert not ok and viol > 0.1
    # rectangular: embedding a qubit into a qutrit is DIO, preparing |+> is not
    embed = np.eye(3, 2)
    ok, viol = is_dio(channel_from_kraus([embed]))
    assert ok and viol < 1e-12
    plus = pure_to_density(max_coherent(2))
    ok, viol = is_dio(measure_prepare([(np.eye(3), plus)]))
    assert not ok and viol > 0.1
    g = np.random.default_rng(27).normal(size=(6, 2)) + 0j
    v, _ = np.linalg.qr(g)
    ok, viol = is_dio(channel_from_kraus([v[:3], v[3:]]))
    assert not ok and viol > 1e-3


def test_is_rho_dio_weaker_than_dio():
    rng = np.random.default_rng(17)
    ch = rand_channel(rng, 3)
    rho = rand_rho(rng, 3)
    full_ok, _ = is_dio(ch)
    if full_ok:  # DIO implies rho-DIO on every input
        assert is_rho_dio(ch, rho)[0]


def test_construct_distill_matches_program_optimum():
    rng = np.random.default_rng(18)
    for _ in range(20):
        d = int(rng.integers(2, 5))
        m = int(rng.integers(2, 5))
        rho = rand_rho(rng, d)
        prog = distill_fidelity_program(rho, m)
        ch = construct_distill(rho, m, prog.primal)
        validate_channel(ch)
        out = apply(ch, rho)
        psi_m = pure_to_density(max_coherent(m))
        assert abs(fidelity(out, psi_m) - prog.value) < 1e-7
        ok, viol = is_rho_dio(ch, rho)
        assert ok, viol


def test_construct_distill_validates_inputs():
    rho = rand_rho(np.random.default_rng(0), 3)
    with pytest.raises(ValueError, match="m must be"):
        construct_distill(rho, 1, np.eye(3))
    with pytest.raises(ValueError, match="expected 1/2"):
        construct_distill(rho, 2, np.eye(3))
    # <cX, dephase(rho)> = c for X = 1: 5e-9 off 1/2 is past TRACE_ATOL, as for a trace
    validate_channel(construct_distill(rho, 2, 0.5 * np.eye(3)))
    with pytest.raises(ValueError, match="expected 1/2"):
        construct_distill(rho, 2, (0.5 + 5e-9) * np.eye(3))


def test_construct_dilute_exact_on_unit():
    rng = np.random.default_rng(19)
    for _ in range(20):
        d = int(rng.integers(2, 5))
        omega = rand_rho(rng, d)
        m = int(math.ceil(r_delta(omega) + 1.0 - 1e-9))
        ch = construct_dilute(m, omega)
        validate_channel(ch)
        psi_m = pure_to_density(max_coherent(m))
        assert np.max(np.abs(apply(ch, psi_m) - omega)) < 1e-8
        assert is_rho_dio(ch, psi_m)[0]


def test_construct_dilute_rejects_undersized_unit():
    omega = pure_to_density(max_coherent(4))
    with pytest.raises(ValueError, match="exceeds"):
        construct_dilute(2, omega)


def test_construct_dilute_rejects_target_just_past_the_bound():
    # R_Delta(omega) + 1 = 2 + 5e-9: past the 1e-9 slack, so no map Psi_2 -> omega
    p = 3.75e-9
    omega = (1 - p) * pure_to_density(np.pad(max_coherent(2), (0, 1))) + p * pure_to_density(max_coherent(3))
    assert abs(r_delta(omega) + 1.0 - (2.0 + 5e-9)) < 1e-12
    with pytest.raises(ValueError, match="exceeds"):
        construct_dilute(2, omega)
    # the cost and both sides of the eps = 0 bracket round up to the 3 units
    # the construction accepts
    reports = [dilute_zero_error(omega), *dilute_one_shot_bounds(omega, 0.0)]
    assert [rep.one_shot_bits for rep in reports] == [math.log2(3)] * 3
    validate_channel(construct_dilute(3, omega))


def _pure_with_yield(x, n):
    """Pure state in C^n with 1/Tr(Pi_rho dephase(rho)) = 1/sum_x p_x^2 = x <= n:
    weight q on |0> and the rest spread evenly, q solving q^2 + (1-q)^2/(n-1) = 1/x."""
    q = (1.0 + math.sqrt((n - 1) * (n / x - 1.0))) / n
    return pure_to_density(np.sqrt([q] + [(1.0 - q) / (n - 1)] * (n - 1)))


def _mixed_with_cost(x, n):
    """(1-t) Psi_n + t 1/n, whose R_Delta + 1 = n - t (n - 1) is x."""
    t = (n - x) / (n - 1)
    return (1.0 - t) * pure_to_density(max_coherent(n)) + t * np.eye(n) / n


def test_zero_error_constructions_match_the_rates():
    # the support-projector channel reaches Psi_m exactly at the zero-error
    # distillation yield and dilutes Psi_m exactly at the zero-error cost;
    # one unit more (less) is out of reach. Besides generic states, the
    # targets include unit counts just off an integer, where the rounding
    # slack decides
    rng = np.random.default_rng(40)
    states = [rand_rho(rng, d, rank) for d in range(2, 6) for rank in range(1, d + 1)
              for _ in range(5)]
    edges = [(k, k + sign * off) for k in (2, 3) for off in (1e-10, 5e-9, 5e-8) for sign in (1, -1)]
    for k, x in edges:
        states += [_pure_with_yield(x, k + 1), _mixed_with_cost(x, k + 1)]
    for rho in states:
        rate = distill_zero_error(rho)
        m = round(2.0 ** rate.one_shot_bits)
        validate_channel(construct_prop5(rho, pure_to_density(max_coherent(m))))
        # the construction compares against the very float the yield floors
        lam = re.escape(repr(2.0 ** rate.raw_value))
        with pytest.raises(ValueError, match=f"exceeds 1/Tr\\(Pi_rho dephase\\(rho\\)\\) = {lam}$"):
            construct_prop5(rho, pure_to_density(max_coherent(m + 1)))
        m = round(2.0 ** dilute_zero_error(rho).one_shot_bits)
        validate_channel(construct_dilute(m, rho))
        if m >= 2:
            with pytest.raises(ValueError, match="exceeds"):
                construct_dilute(m - 1, rho)
    # the slack absorbs 1e-10 and no more
    for k, x in edges:
        near = abs(x - k) < 1e-9
        assert round(2.0 ** distill_zero_error(_pure_with_yield(x, k + 1)).one_shot_bits) == (
            k if near else math.floor(x))
        assert round(2.0 ** dilute_zero_error(_mixed_with_cost(x, k + 1)).one_shot_bits) == (
            k if near else math.ceil(x))


def test_construct_dilute_trivial_unit_needs_incoherent_target():
    flat = np.diag([0.4, 0.6])
    ch = construct_dilute(1, flat)
    assert np.allclose(apply(ch, np.eye(1, dtype=complex)), flat, atol=1e-12)
    with pytest.raises(ValueError, match="exceeds"):
        construct_dilute(1, pure_to_density(max_coherent(2)))


def test_construct_prop5_qutrit_example():
    rho = pure_to_density(QUTRIT)
    omega = pure_to_density(max_coherent(2))
    ch = construct_prop5(rho, omega)
    validate_channel(ch)
    assert np.linalg.norm(apply(ch, rho) - omega) < 1e-7
    ok, viol = is_rho_dio(ch, rho)
    assert ok and viol < 1e-8
    # the same map cannot be covariant everywhere: it sends the support
    # projector's worth of incoherent weight onto a coherent state
    assert not is_dio(ch)[0]


def test_construct_prop5_rejects_oversized_target():
    rho = pure_to_density(np.pad(max_coherent(2), (0, 1)))
    # lam = 1/(2/3)? no: Tr(Pi dephase) = 1/2 for a 2-level uniform support,
    # so targets need R_Delta + 1 <= 2; Psi_3 has 3
    with pytest.raises(ValueError, match="exceeds"):
        construct_prop5(rho, pure_to_density(max_coherent(3)))


def test_construct_prop5_near_full_support_is_the_constant_channel():
    # trace 1 - 9e-10 (within TRACE_ATOL) puts 1/Tr(Pi_rho dephase(rho)) 9e-10 above 1:
    # a target with R_Delta = 1.8e-9 <= lam - 1 + PREFIX_SLACK gets Q -> Tr(Q) omega,
    # not the support-projector formula, whose sigma divides by lam - 1
    rho = (1.0 - 9e-10) * rand_rho(np.random.default_rng(23), 2)
    omega = np.array([[0.5, 9e-10], [9e-10, 0.5]])
    ch = construct_prop5(rho, omega)
    assert np.array_equal(ch.choi, np.kron(np.eye(2), omega))
    validate_channel(ch)
    ok, viol = is_rho_dio(ch, rho)
    assert ok, viol
    # a pure input 2e-10 from |0>: lam - 1 = 4e-10, and sigma would have had
    # off-diagonal -omega_01 / (lam - 1) = -1.5 on the kernel of rho (not CP)
    psi = np.array([np.sqrt(1.0 - 2e-10), np.sqrt(2e-10)])
    pure = np.outer(psi, psi)
    target = np.array([[0.5, 6e-10], [6e-10, 0.5]])
    ch = construct_prop5(pure, target)
    assert np.array_equal(ch.choi, np.kron(np.eye(2), target))
    validate_channel(ch)
    assert is_rho_dio(ch, pure)[0]
    # a coherent target is refused by the R_Delta comparison, with its message
    with pytest.raises(ValueError, match=r"^R_Delta\(omega\) \+ 1 = .* exceeds"):
        construct_prop5(rho, np.array([[0.5, 1e-6], [1e-6, 0.5]]))


def test_qubit_decide_monotone_pair():
    rng = np.random.default_rng(20)
    rho = pure_to_density(max_coherent(2))
    for _ in range(20):
        sigma = rand_rho(rng, 2)
        # Psi_2 is the top of the qubit order
        assert qubit_decide(rho, sigma)
    assert qubit_decide(rho, rho)
    with pytest.raises(ValueError):
        qubit_decide(np.eye(3) / 3, np.eye(3) / 3)


def test_qubit_decide_detects_monotone_increase():
    flat = np.diag([0.5, 0.5])
    psi2 = pure_to_density(max_coherent(2))
    assert not qubit_decide(flat, psi2)
    assert l1_norm(psi2) > l1_norm(flat)


def test_channel_json_round_trip():
    rng = np.random.default_rng(24)
    kraus = rand_kraus(rng, 3)
    ch = channel_from_kraus(kraus)
    back = channel_from_json(channel_to_json(ch))
    assert back.input_dim == 3 and back.output_dim == 3
    assert np.allclose(back.choi, ch.choi, atol=1e-12)
    # a Kraus list that rebuilds the Choi operator is accepted and dropped
    doc = json.loads(channel_to_json(ch))
    assert set(doc) == {"kind", "din", "dout", "choi_re", "choi_im"}
    doc["kraus"] = [{"re": k.real.tolist(), "im": k.imag.tolist()} for k in kraus]
    assert channel_to_json(channel_from_json(doc)) == channel_to_json(ch)
    with pytest.raises(ValueError, match="malformed"):
        channel_from_json('{"kind": "channel"}')
    # dimensions are JSON integers: int() would read 2.9 and "2" as 2
    for key, value in (("din", 2.9), ("dout", "2"), ("din", True)):
        bad = json.loads(channel_to_json(dephasing_channel(2)))
        bad[key] = value
        with pytest.raises(ValueError, match=f"malformed channel document: {key} must be an"):
            channel_from_json(bad)


def test_stored_kraus_must_match_the_choi_operator_within_herm_atol():
    # |0><0| scaled by sqrt(1 + 5e-9) rebuilds a Choi entry 5e-9 off the stored one
    doc = json.loads(channel_to_json(dephasing_channel(2)))
    kraus = [np.diag([np.sqrt(1.0 + 5e-9), 0.0]), np.diag([0.0, 1.0])]
    doc["kraus"] = [{"re": k.tolist(), "im": np.zeros((2, 2)).tolist()} for k in kraus]
    with pytest.raises(ValueError, match="stored Kraus operators do not match the Choi operator"):
        channel_from_json(doc)
    doc["kraus"][0]["re"][0][0] = 1.0
    assert np.array_equal(channel_from_json(doc).choi, dephasing_channel(2).choi)
    # a stored operator of the wrong shape is refused before any comparison
    doc["kraus"][1] = {"re": np.eye(3).tolist(), "im": np.zeros((3, 3)).tolist()}
    with pytest.raises(ValueError, match=r"Kraus shape \(3, 3\) != \(2, 2\)"):
        channel_from_json(doc)


def test_dio_covariance_on_states_follows_choi_check():
    # Choi-level DIO implies the dephasing commutes on every density input
    rng = np.random.default_rng(25)
    tw = twirl_channel(3)
    for _ in range(10):
        rho = rand_rho(rng, 3)
        lhs = dephase(apply(tw, rho))
        rhs = apply(tw, dephase(rho))
        assert np.allclose(lhs, rhs, atol=1e-10)

import itertools
import math

import numpy as np
import pytest

from dcoh.channels import (
    QuantumChannel,
    apply,
    channel_from_json,
    channel_from_kraus,
    channel_to_json,
    choi_from_kraus,
    construct_dilute,
    construct_distill,
    construct_prop5,
    dephasing_channel,
    is_dio,
    is_rho_dio,
    kraus_dio_conditions,
    kraus_from_choi,
    measure_prepare,
    qubit_decide,
    twirl_channel,
    validate_channel,
)
from dcoh.hypotest import distill_fidelity_program
from dcoh.linalg import fidelity
from dcoh.monotones import r_delta
from dcoh.states import dephase, l1_norm, max_coherent, pure_to_density

QUTRIT = np.array([math.sqrt(5.0 / 8.0), math.sqrt(3.0 / 16.0), math.sqrt(3.0 / 16.0)])


def rand_rho(rng, d):
    a = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    rho = a @ a.conj().T
    return rho / np.trace(rho).real


def rand_channel(rng, d, n_kraus=3):
    """Random CPTP channel from a Haar-ish isometry split into Kraus blocks."""
    g = rng.normal(size=(d * n_kraus, d)) + 1j * rng.normal(size=(d * n_kraus, d))
    v, _ = np.linalg.qr(g)
    return channel_from_kraus([v[i * d : (i + 1) * d] for i in range(n_kraus)])


def test_choi_kraus_round_trip():
    rng = np.random.default_rng(14)
    for d in (2, 3, 4):
        ch = rand_channel(rng, d)
        validate_channel(ch)
        back = kraus_from_choi(ch.choi, d, d)
        assert np.allclose(choi_from_kraus(back, d, d), ch.choi, atol=1e-9)


def test_apply_routes_agree():
    rng = np.random.default_rng(15)
    ch = rand_channel(rng, 3)
    rho = rand_rho(rng, 3)
    via_kraus = apply(ch, rho)
    via_choi = apply(QuantumChannel(3, 3, ch.choi), rho)
    assert np.allclose(via_kraus, via_choi, atol=1e-10)
    assert abs(np.trace(via_choi).real - 1.0) < 1e-9


def test_validate_channel_catches_violations():
    d = 2
    j = -np.eye(d * d, dtype=complex)
    with pytest.raises(ValueError, match="PSD"):
        validate_channel(QuantumChannel(d, d, j))
    ch = dephasing_channel(2)
    broken = QuantumChannel(2, 2, 0.5 * ch.choi, None)
    with pytest.raises(ValueError, match="trace preserving"):
        validate_channel(broken)


def test_twirl_matches_permutation_average():
    # brute-force oracle: explicit average over all d! basis permutations
    rng = np.random.default_rng(16)
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
    s, viols = kraus_dio_conditions(ch.kraus)
    assert np.allclose(s, np.eye(3))
    assert max(viols.values()) < 1e-12


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
    rho = pure_to_density(max_coherent(2, dim=3))
    # lam = 1/(2/3)? no: Tr(Pi dephase) = 1/2 for a 2-level uniform support,
    # so targets need R_Delta + 1 <= 2; Psi_3 has 3
    with pytest.raises(ValueError, match="exceeds"):
        construct_prop5(rho, pure_to_density(max_coherent(3)))


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
    ch = rand_channel(rng, 3)
    back = channel_from_json(channel_to_json(ch))
    assert back.input_dim == 3 and back.output_dim == 3
    assert np.allclose(back.choi, ch.choi, atol=1e-12)
    assert len(back.kraus) == len(ch.kraus)
    with pytest.raises(ValueError, match="malformed"):
        channel_from_json('{"kind": "channel"}')


def test_dio_covariance_on_states_follows_choi_check():
    # Choi-level DIO implies the dephasing commutes on every density input
    rng = np.random.default_rng(25)
    tw = twirl_channel(3)
    for _ in range(10):
        rho = rand_rho(rng, 3)
        lhs = dephase(apply(tw, rho))
        rhs = apply(tw, dephase(rho))
        assert np.allclose(lhs, rhs, atol=1e-10)

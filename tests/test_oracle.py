import math

import numpy as np

from dcoh.channels import apply, channel_from_kraus, choi_from_kraus, is_rho_dio, qubit_decide
from dcoh.oracle import _constraint_system, rho_dio_feasible
from dcoh.states import dephase, max_coherent, pure_to_density

QUTRIT = np.array([math.sqrt(5.0 / 8.0), math.sqrt(3.0 / 16.0), math.sqrt(3.0 / 16.0)])


def rand_rho(rng, d):
    a = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    rho = a @ a.conj().T
    return rho / np.trace(rho).real


def _verify_feasible(verdict, rho, sigma):
    assert verdict.status == "feasible"
    assert verdict.witness is not None
    ok, viol = is_rho_dio(verdict.witness, rho, atol=1e-6)
    assert ok, viol
    assert np.linalg.norm(apply(verdict.witness, rho) - sigma) <= 1e-6


def test_constraint_rows_match_the_three_constraints():
    # independent of the row layout: compare L vec(J) - b with the constraint
    # residuals computed from Kraus operators (Tr_out J = (sum_k K^dag K)^T)
    rng = np.random.default_rng(8)
    din, dout = 3, 2
    rho = rand_rho(rng, din)
    kraus = [rng.normal(size=(dout, din)) + 1j * rng.normal(size=(dout, din)) for _ in range(3)]
    j = choi_from_kraus(kraus, din, dout)  # CP, not trace preserving

    def lam(x):
        return sum(k @ x @ k.conj().T for k in kraus)

    sigma = rand_rho(rng, dout)
    lmat, b = _constraint_system(rho, sigma)
    want = np.concatenate([
        (sum(k.conj().T @ k for k in kraus).T - np.eye(din)).reshape(-1),
        (lam(rho) - sigma).reshape(-1),
        (lam(dephase(rho)) - dephase(sigma)).reshape(-1),
    ])
    assert np.allclose(lmat @ j.reshape(-1) - b, want, atol=1e-12)
    # a DIO channel (phased embeddings of the input basis) meets every row
    # once sigma is its image
    dout = 4
    kraus = []
    for p in rng.dirichlet(np.ones(3)):
        k = np.zeros((dout, din), dtype=complex)
        k[rng.permutation(dout)[:din], np.arange(din)] = np.exp(2j * np.pi * rng.random(din))
        kraus.append(np.sqrt(p) * k)
    ch = channel_from_kraus(kraus)
    lmat, b = _constraint_system(rho, apply(ch, rho))
    assert np.max(np.abs(lmat @ ch.choi.reshape(-1) - b)) < 1e-12


def test_qutrit_to_maxcoherent_is_feasible():
    # this transformation is rejected by the pure-state (covariant-for-all)
    # decider, but an input-tailored channel exists: the separation case
    rho = pure_to_density(QUTRIT)
    sigma = pure_to_density(max_coherent(2))
    verdict = rho_dio_feasible(rho, sigma)
    _verify_feasible(verdict, rho, sigma)


def test_monotone_increase_is_certified_infeasible():
    rho = pure_to_density(max_coherent(2))
    sigma = pure_to_density(max_coherent(4))
    verdict = rho_dio_feasible(rho, sigma)
    assert verdict.status == "infeasible-certified"
    name, v_in, v_out = verdict.certificate
    assert v_out > v_in + 1e-7
    assert name == "r_delta"


def test_identity_transformation_is_feasible():
    rng = np.random.default_rng(3)
    rho = rand_rho(rng, 3)
    verdict = rho_dio_feasible(rho, rho)
    _verify_feasible(verdict, rho, rho)


def test_anything_to_incoherent_is_feasible():
    rng = np.random.default_rng(4)
    rho = rand_rho(rng, 3)
    sigma = np.diag([0.2, 0.3, 0.5])
    verdict = rho_dio_feasible(rho, sigma)
    _verify_feasible(verdict, rho, sigma)


def test_qubit_agreement_with_closed_form_decider():
    rng = np.random.default_rng(99)
    determined = 0
    for _ in range(40):
        rho = rand_rho(rng, 2)
        sigma = rand_rho(rng, 2)
        want = qubit_decide(rho, sigma)
        verdict = rho_dio_feasible(rho, sigma)
        if verdict.status == "undetermined":
            continue
        determined += 1
        assert (verdict.status == "feasible") == want, (rho, sigma, verdict.status)
        if verdict.status == "feasible":
            _verify_feasible(verdict, rho, sigma)
    assert determined >= 36  # >= 90% on this sample


def test_dimension_change_feasible_case():
    # diluting Psi_4 into a qubit state of small R_Delta must be possible
    rho = pure_to_density(max_coherent(4))
    sigma = 0.5 * pure_to_density(max_coherent(2)) + 0.5 * np.diag([0.5, 0.5])
    verdict = rho_dio_feasible(rho, sigma)
    _verify_feasible(verdict, rho, sigma)


def test_undetermined_is_reported_honestly():
    # near-boundary pairs can exhaust the iteration budget; the verdict must
    # then be undetermined, never a fabricated certificate
    rng = np.random.default_rng(7)
    rho = rand_rho(rng, 2)
    sigma = rand_rho(rng, 2)
    verdict = rho_dio_feasible(rho, sigma, max_iters=1)
    assert verdict.status in ("feasible", "infeasible-certified", "undetermined")
    if verdict.status == "undetermined":
        assert verdict.certificate is None and verdict.witness is None

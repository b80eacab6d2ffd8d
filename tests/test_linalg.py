import numpy as np
import pytest

from dcoh.linalg import check_hermitian
from dcoh.states import fidelity

from helpers import rand_rho


def test_check_hermitian_rejects_asymmetric():
    a = np.array([[1.0, 0.5], [0.0, 1.0]])
    with pytest.raises(ValueError, match="not Hermitian"):
        check_hermitian(a)


def test_check_hermitian_rejects_non_finite():
    with pytest.raises(ValueError, match="not Hermitian"):
        check_hermitian(np.full((2, 2), np.nan))
    with np.errstate(invalid="ignore"), pytest.raises(ValueError, match="not Hermitian"):
        check_hermitian(np.array([[np.inf, 0.0], [0.0, 1.0]]))


def test_check_hermitian_rejects_non_square():
    with pytest.raises(ValueError, match="square"):
        check_hermitian(np.ones((2, 3)))


def test_check_hermitian_symmetrizes_dust():
    a = np.array([[1.0, 0.3 + 1e-12j], [0.3, 1.0]])
    out = check_hermitian(a)
    assert np.allclose(out, out.conj().T)


def test_fidelity_self_and_symmetry():
    rng = np.random.default_rng(19)
    rho = rand_rho(rng, 3)
    sigma = rand_rho(rng, 3)
    assert abs(fidelity(rho, rho) - 1.0) < 1e-10
    assert abs(fidelity(rho, sigma) - fidelity(sigma, rho)) < 1e-10
    assert 0.0 <= fidelity(rho, sigma) <= 1.0


def test_fidelity_pure_states_is_overlap():
    rng = np.random.default_rng(23)
    for _ in range(10):
        a = rng.normal(size=4) + 1j * rng.normal(size=4)
        b = rng.normal(size=4) + 1j * rng.normal(size=4)
        a /= np.linalg.norm(a)
        b /= np.linalg.norm(b)
        f = fidelity(np.outer(a, a.conj()), np.outer(b, b.conj()))
        assert abs(f - abs(np.vdot(a, b)) ** 2) < 1e-12


def test_fidelity_pure_against_full_rank_is_expectation():
    # F(|psi><psi|, sigma) = <psi|sigma|psi>
    rng = np.random.default_rng(29)
    for d in (2, 3, 4, 8):
        psi = rng.normal(size=d) + 1j * rng.normal(size=d)
        psi /= np.linalg.norm(psi)
        sigma = rand_rho(rng, d)
        f = fidelity(np.outer(psi, psi.conj()), sigma)
        assert abs(f - np.vdot(psi, sigma @ psi).real) < 1e-12


def test_fidelity_dimension_mismatch():
    with pytest.raises(ValueError, match="mismatch"):
        fidelity(np.eye(2) / 2, np.eye(3) / 3)


def test_fidelity_rejects_sigma_that_is_not_a_state():
    with pytest.raises(ValueError, match="not Hermitian"):
        fidelity(np.eye(2) / 2, np.array([[1.0, 5.0], [0.0, 0.0]]))
    with pytest.raises(ValueError, match="not PSD"):
        fidelity(np.eye(2) / 2, np.diag([2.0, -1.0]))
    # both arguments are states: a PSD matrix of trace 2 is refused either way
    for pair in ((np.eye(2) / 2, np.eye(2)), (np.eye(2), np.eye(2) / 2)):
        with pytest.raises(ValueError, match="trace is 2.0"):
            fidelity(*pair)


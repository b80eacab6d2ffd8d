import json

import numpy as np
import pytest

from dcoh.states import (
    check_density,
    check_hermitian,
    check_pure,
    TRACE_ATOL,
    coherence_distribution,
    dephase,
    fidelity,
    is_incoherent,
    json_numbers,
    l1_norm,
    max_coherent,
    prob_vector,
    pure_to_density,
    state_from_json,
    state_to_json,
)

from helpers import rand_rho


def test_check_density_rejects_bad_trace():
    with pytest.raises(ValueError, match="trace"):
        check_density(np.eye(2))


def test_check_density_rejects_non_finite():
    with pytest.raises(ValueError):
        check_density(np.full((2, 2), np.nan))
    with np.errstate(invalid="ignore"), pytest.raises(ValueError):
        check_density(np.diag([np.inf, 0.0]))


def test_check_density_rejects_non_psd():
    rho = np.array([[0.5, 0.6], [0.6, 0.5]])
    with pytest.raises(ValueError, match="PSD"):
        check_density(rho)


def test_check_pure_norm():
    with pytest.raises(ValueError, match="norm"):
        check_pure([1.0, 1.0])
    psi = check_pure([1.0, 0.0])
    assert psi.dtype == complex
    with pytest.raises(ValueError, match="1-D"):
        check_pure(np.diag([1.0, 0.0]))  # unit Frobenius norm, but a matrix
    # |psi|^2 is the trace of |psi><psi|: the one slack bounds both
    for scale in (1.0 + 0.9e-9, 1.0 - 0.9e-9):
        with pytest.raises(ValueError, match="squared norm is"):
            check_pure(max_coherent(3) * scale)
    psi = check_pure(max_coherent(3) * (1.0 + 0.4e-9))
    assert abs(np.trace(pure_to_density(psi)).real - 1.0) <= TRACE_ATOL


def test_json_numbers_names_the_first_bad_entry():
    np.testing.assert_array_equal(json_numbers([[1, 2.5], [0, -1]], "re"), [[1, 2.5], [0, -1]])
    # a float subclass is a number too, read by the entry-wise walk
    assert json_numbers([np.float64(0.5), 1], "im").tolist() == [0.5, 1.0]
    with pytest.raises(TypeError, match="re must be a number, got 'x'"):
        json_numbers([[1, "x"], [True, 0]], "re")
    with pytest.raises(TypeError, match="re must be a number, got True"):
        json_numbers([[1, 0], [True, "x"]], "re")


def test_check_pure_rejects_non_finite():
    for psi in ([np.nan, 1.0], [np.inf, 0.0]):
        with pytest.raises(ValueError, match="norm"):
            check_pure(psi)


def test_prob_vector_clamps_dust_and_normalizes():
    p = prob_vector([0.5, 0.5 + 1e-13, -1e-13])
    assert p.min() >= 0.0
    assert abs(p.sum() - 1.0) < 1e-15


def test_prob_vector_rejects_negative():
    with pytest.raises(ValueError, match="negative"):
        prob_vector([1.1, -0.1])


def test_prob_vector_rejects_non_finite():
    for p in ([np.nan, 1.0], [np.inf, 0.0]):
        with pytest.raises(ValueError, match="sum"):
            prob_vector(p)


def test_dephase_kills_offdiagonals_and_is_idempotent():
    rng = np.random.default_rng(2)
    a = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
    rho = a @ a.conj().T
    rho /= np.trace(rho).real
    d = dephase(rho)
    assert np.allclose(d, np.diag(np.diag(d)))
    assert np.allclose(dephase(d), d)
    assert abs(np.trace(d).real - 1.0) < 1e-12


def test_max_coherent_basic():
    psi = max_coherent(4)
    assert np.allclose(np.abs(psi) ** 2, 0.25)
    with pytest.raises(ValueError, match="need m >= 1"):
        max_coherent(0)


def test_coherence_distribution():
    psi = max_coherent(2)
    assert np.allclose(coherence_distribution(psi), [0.5, 0.5])


def test_l1_norm_values():
    # entrywise l1: 1 for incoherent states, m for Psi_m
    assert abs(l1_norm(np.diag([0.3, 0.7])) - 1.0) < 1e-12
    assert abs(l1_norm(pure_to_density(max_coherent(2))) - 2.0) < 1e-12
    assert abs(l1_norm(pure_to_density(max_coherent(3))) - 3.0) < 1e-12


def test_is_incoherent():
    assert is_incoherent(np.diag([0.25, 0.75]))
    assert not is_incoherent(pure_to_density(max_coherent(2)))
    # entries are compared at HERM_ATOL = 1e-10: 3e-10 off the diagonal is coherent,
    # though the Frobenius norm of rho - dephase(rho) is only 4.2e-10
    assert not is_incoherent(np.array([[0.5, 3e-10], [3e-10, 0.5]]))
    assert is_incoherent(np.array([[0.5, 1e-10], [1e-10, 0.5]]))


def test_json_round_trip_density(tmp_path):
    rng = np.random.default_rng(9)
    a = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
    rho = a @ a.conj().T
    rho /= np.trace(rho).real
    path = tmp_path / "rho.json"
    path.write_text(state_to_json(rho))
    kind, back = state_from_json(path.read_text())
    assert kind == "density"
    assert np.allclose(back.rho, rho, atol=1e-12)


def test_json_round_trip_pure():
    psi = max_coherent(3)
    kind, back = state_from_json(state_to_json(psi))
    assert kind == "pure"
    assert np.allclose(back, psi)


def test_json_validation_errors():
    with pytest.raises(ValueError, match="malformed"):
        state_from_json(json.dumps({"kind": "density"}))
    with pytest.raises(ValueError, match="kind"):
        state_from_json(json.dumps({"kind": "spam", "dim": 2, "re": [1, 0], "im": [0, 0]}))
    with pytest.raises(ValueError, match="pure shape"):
        state_from_json(json.dumps({"kind": "pure", "dim": 3, "re": [1, 0], "im": [0, 0]}))
    square = {"kind": "density", "dim": 3, "re": [[1, 0], [0, 0]], "im": [[0, 0], [0, 0]]}
    with pytest.raises(ValueError, match=r"density shape \(2, 2\) does not match dim 3"):
        state_from_json(json.dumps(square))
    with pytest.raises(ValueError, match="cannot serialize array of ndim 3"):
        state_to_json(np.zeros((2, 2, 2)))
    # a dimension is a JSON integer: int() would read each of these as 2 or 1
    for dim in (2.7, 2.0, True, "2"):
        doc = {"kind": "pure", "dim": dim, "re": [1, 0], "im": [0, 0]}
        with pytest.raises(ValueError, match="malformed state document: dim must be an integer"):
            state_from_json(json.dumps(doc))
    # entries are JSON numbers: np.asarray would read "0.5" and false as numbers
    plus = json.loads(state_to_json(pure_to_density(max_coherent(2))))
    psi = json.loads(state_to_json(max_coherent(2)))
    for doc, key, value in [
        (plus, "re", [["0.5", "0.5"], ["0.5", "0.5"]]),
        (plus, "im", [[False, False], [False, False]]),
        (plus, "re", [[0.5, 0.5], [True, 0.5]]),
        (plus, "re", [[0.5, 0.5], [0.5]]),
        (plus, "re", [[0.5, 0.5], 0.5]),
        (plus, "im", 0),
        (psi, "re", ["0.7", 0.7]),
        (psi, "im", [False, False]),
        (psi, "re", [0.7, [0.7]]),
    ]:
        bad = dict(doc, **{key: value})
        with pytest.raises(ValueError, match=f"malformed state document: {key} "):
            state_from_json(json.dumps(bad))
    # validation of the payload itself, not just the envelope
    bad = {"kind": "density", "dim": 2, "re": [[0.9, 0.0], [0.0, 0.0]], "im": [[0, 0], [0, 0]]}
    with pytest.raises(ValueError, match="trace"):
        state_from_json(json.dumps(bad))


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


import numpy as np
import pytest

from dcoh.majorization import (
    build_witness,
    dio_pure_decide,
    dio_to_maxcoherent_decide,
    heralded_decide,
    majorizes,
)
from dcoh.states import max_coherent

from helpers import rand_pure


def brute_majorizes(q, p):
    """Independent prefix-sum oracle, no padding tricks."""
    d = max(len(p), len(q))
    p = np.sort(np.pad(np.asarray(p, float), (0, d - len(p))))[::-1]
    q = np.sort(np.pad(np.asarray(q, float), (0, d - len(q))))[::-1]
    return all(p[: k + 1].sum() <= q[: k + 1].sum() + 1e-9 for k in range(d))


def test_majorizes_uniform_is_bottom():
    rng = np.random.default_rng(0)
    for d in (2, 3, 5):
        p = rng.dirichlet(np.ones(d))
        assert majorizes(p, np.full(d, 1.0 / d))
        assert majorizes(np.eye(d)[0], p)  # point mass majorizes everything


def test_majorizes_handles_unequal_lengths():
    assert majorizes([1.0], [0.5, 0.5])
    assert not majorizes([0.5, 0.5], [1.0])


def test_dio_pure_decide_matches_brute_force():
    rng = np.random.default_rng(42)
    agree = 0
    for _ in range(200):
        d1, d2 = rng.integers(2, 6, size=2)
        psi, phi = rand_pure(rng, d1), rand_pure(rng, d2)
        got = dio_pure_decide(psi, phi)
        want = brute_majorizes(np.abs(phi) ** 2, np.abs(psi) ** 2)
        assert got == want
        agree += 1
    assert agree == 200


def test_dio_pure_decide_self_and_maxcoherent():
    psi = rand_pure(np.random.default_rng(1), 4)
    assert dio_pure_decide(psi, psi)
    # Psi_d converts to any pure state of the same dimension
    assert dio_pure_decide(max_coherent(4), psi)


def test_dio_to_maxcoherent_threshold():
    # possible iff the largest squared amplitude is <= 1/m
    psi = np.array([np.sqrt(0.5), np.sqrt(0.25), np.sqrt(0.25)])
    assert dio_to_maxcoherent_decide(psi, 2)
    assert not dio_to_maxcoherent_decide(psi, 3)
    # 1/m within PREFIX_SLACK (1e-9) passes, past it fails
    for shift, possible in ((1e-10, True), (-1e-10, True), (1e-8, False)):
        p = np.array([0.5 + shift, 0.25 - shift / 2, 0.25 - shift / 2])
        assert dio_to_maxcoherent_decide(np.sqrt(p), 2) is possible, shift
    # m = d: only Psi_d itself; m > d: never, not even from Psi_d
    assert dio_to_maxcoherent_decide(max_coherent(4), 4)
    assert not dio_to_maxcoherent_decide(rand_pure(np.random.default_rng(3), 4), 4)
    assert not dio_to_maxcoherent_decide(max_coherent(3), 4)
    with pytest.raises(ValueError, match="need m >= 1"):
        dio_to_maxcoherent_decide(psi, 0)


def test_heralded_sorts_before_mixing():
    # Both branch targets are uniform-on-two-levels but on different levels.
    # Sorting each branch first makes the transformation possible; mixing
    # the raw distributions first would wrongly reject it.
    psi = max_coherent(2)
    phi1 = np.pad(max_coherent(2), (0, 1))
    phi2 = np.array([0.0, 1.0, 1.0]) / np.sqrt(2.0)
    ensemble = [(0.5, phi1), (0.5, phi2)]
    assert heralded_decide(psi, ensemble)
    raw_mix = 0.5 * np.abs(phi1) ** 2 + 0.5 * np.abs(phi2) ** 2
    assert not majorizes(raw_mix, [0.5, 0.5, 0.0])


def test_heralded_rejects_bad_weights():
    psi = max_coherent(2)
    with pytest.raises(ValueError):
        heralded_decide(psi, [(0.7, psi), (0.7, psi)])


def test_heralded_single_branch_reduces_to_deterministic():
    rng = np.random.default_rng(8)
    for _ in range(50):
        psi, phi = rand_pure(rng, 4), rand_pure(rng, 4)
        assert heralded_decide(psi, [(1.0, phi)]) == dio_pure_decide(psi, phi)


def _check_bistochastic(t, atol=1e-9):
    assert np.all(t >= -atol)
    assert np.abs(t.sum(axis=0) - 1.0).max() <= atol
    assert np.abs(t.sum(axis=1) - 1.0).max() <= atol


def test_build_witness_maps_q_to_p():
    rng = np.random.default_rng(77)
    pairs = []
    for _ in range(200):
        d = int(rng.integers(2, 7))
        q = rng.dirichlet(np.ones(d))
        p = rng.dirichlet(np.ones(d))
        if majorizes(q, p):
            pairs.append((q, p))
    assert len(pairs) > 10  # the sampler does hit majorized pairs
    # ties, zero entries and unsorted p, d up to 8: p = B q for B a mix of 1-3
    # permutations is majorized by q, and a single permutation keeps every tie
    pairs += [([1.0], [1.0]), ([0.5, 0.5, 0.0, 0.0], [0.25] * 4),
              ([1.0, 0.0, 0.0], [0.0, 0.6, 0.4]), ([0.4, 0.4, 0.2, 0.0], [0.2, 0.4, 0.0, 0.4])]
    for d in range(1, 9):
        for _ in range(20):
            q = rng.integers(0, 4, size=d).astype(float)
            q[0] += q.sum() == 0.0
            q /= q.sum()
            k = int(rng.integers(1, 4))
            mix = sum(np.eye(d)[:, rng.permutation(d)] for _ in range(k)) / k
            pairs.append((q, mix @ q))
    for q, p in pairs:
        w = build_witness(q, p)
        _check_bistochastic(w, atol=1e-12)
        assert np.abs(w @ np.asarray(q) - p).max() <= 1e-12, (q, p)


def test_build_witness_mixture_pairs():
    # q and p = T q for a random bistochastic T always majorize
    rng = np.random.default_rng(5)
    for _ in range(50):
        d = int(rng.integers(2, 6))
        q = rng.dirichlet(np.ones(d))
        mix = sum(np.eye(d)[:, rng.permutation(d)] for _ in range(3)) / 3.0
        p = mix @ q
        w = build_witness(q, p)
        _check_bistochastic(w)
        assert np.allclose(w @ q, p, atol=1e-9)


def test_build_witness_rejects_non_majorized():
    # the refusal names the first prefix sum that majorizes() finds failing
    for q, p, k in [([0.5, 0.5], [0.9, 0.1], 1), ([0.5, 0.3, 0.2], [0.05, 0.45, 0.5], 2)]:
        assert not majorizes(q, p)
        with pytest.raises(ValueError, match=f"q does not majorize p: prefix sum {k} fails$"):
            build_witness(q, p)


def test_build_witness_identity_case():
    p = np.array([0.6, 0.3, 0.1])
    w = build_witness(p, p)
    assert np.allclose(w @ p, p, atol=1e-12)
    _check_bistochastic(w)

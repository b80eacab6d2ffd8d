import math

import numpy as np

from dcoh.channels import (DIO_ATOL, apply, channel_from_json, channel_from_kraus, channel_to_json,
                           choi_from_kraus, is_rho_dio, qubit_decide)
from dcoh import oracle
from dcoh.majorization import PREFIX_SLACK
from dcoh.monotones import _certificate, _coherence_spectrum
from dcoh.oracle import _affine_set, _curve_separation, rho_dio_feasible
from dcoh.states import TRACE_ATOL, check_density, density, dephase, max_coherent, pure_to_density

from helpers import QUTRIT, rand_rho, rand_pure


# Reference: the dense constraint system L vec(J) = b in the Choi layout, one
# row per entry of Tr_out J = 1, Lambda(rho) = sigma and
# Lambda(dephase(rho)) = dephase(sigma).
def _kron(a, b):
    """Kronecker product a (x) b, batched over leading axes, in the Choi
    layout (d_in, d_out, d_in, d_out)."""
    return a[..., :, None, :, None] * b[..., None, :, None, :]


def dense_constraint_system(rho, sigma):
    din = rho.shape[0]
    dout = sigma.shape[0]
    units_in = np.eye(din * din).reshape(-1, din, din)
    units_out = np.eye(dout * dout).reshape(-1, dout, dout)
    rows = np.concatenate(
        [_kron(units_in, np.eye(dout)), _kron(rho, units_out), _kron(dephase(rho), units_out)]
    )
    rhs = np.concatenate([y.reshape(-1) for y in (np.eye(din), sigma, dephase(sigma))])
    return rows.reshape(len(rows), -1), rhs.astype(complex)


def realign(j, din, dout):
    """J[(x,a),(y,b)] -> M[(x,y),(a,b)]."""
    return j.reshape(din, dout, din, dout).swapaxes(1, 2).reshape(din * din, dout * dout)


def unalign(m, din, dout):
    """M[(x,y),(a,b)] -> J[(x,a),(y,b)]."""
    return m.reshape(din, din, dout, dout).swapaxes(1, 2).reshape(din * dout, din * dout)


def project(aff, m):
    left, right, p = aff[:3]
    return left @ m @ right + p


def residual(aff, m):
    """The oracle's stopping residual: the violation of x M = image and M e = c."""
    x, image, e, c = aff[3:]
    return np.linalg.norm(np.concatenate([(x @ m - image).ravel(), m @ e - c]))


def _verify_feasible(verdict, rho, sigma):
    """A feasible verdict's witness passes the package's own channel checks:
    the JSON reader's CPTP validation and `is_rho_dio`, both at their
    defaults, and takes rho to sigma within DIO_ATOL."""
    assert verdict.status == "feasible"
    assert verdict.witness is not None
    channel_from_json(channel_to_json(verdict.witness))
    ok, viol = is_rho_dio(verdict.witness, rho)
    assert ok, viol
    assert np.linalg.norm(apply(verdict.witness, rho) - sigma) <= DIO_ATOL


def test_constraint_rows_match_the_three_constraints():
    # independent of the layout: compare L vec(J) - b and the oracle's
    # residual with the constraint residuals computed from Kraus operators
    # (Tr_out J = (sum_k K^dag K)^T)
    rng = np.random.default_rng(8)
    din, dout = 3, 2
    rho = rand_rho(rng, din)
    kraus = [rng.normal(size=(dout, din)) + 1j * rng.normal(size=(dout, din)) for _ in range(3)]
    j = choi_from_kraus(kraus, din, dout)  # CP, not trace preserving

    def lam(x):
        return sum(k @ x @ k.conj().T for k in kraus)

    sigma = rand_rho(rng, dout)
    lmat, b = dense_constraint_system(rho, sigma)
    want = np.concatenate([
        (sum(k.conj().T @ k for k in kraus).T - np.eye(din)).reshape(-1),
        (lam(rho) - sigma).reshape(-1),
        (lam(dephase(rho)) - dephase(sigma)).reshape(-1),
    ])
    assert np.allclose(lmat @ j.reshape(-1) - b, want, atol=1e-12)
    aff = _affine_set(rho, sigma)
    assert abs(residual(aff, realign(j, din, dout)) - np.linalg.norm(want)) < 1e-12
    # a DIO channel (phased embeddings of the input basis) meets every row
    # once sigma is its image
    dout = 4
    kraus = []
    for p in rng.dirichlet(np.ones(3)):
        k = np.zeros((dout, din), dtype=complex)
        k[rng.permutation(dout)[:din], np.arange(din)] = np.exp(2j * np.pi * rng.random(din))
        kraus.append(np.sqrt(p) * k)
    ch = channel_from_kraus(kraus)
    lmat, b = dense_constraint_system(rho, apply(ch, rho))
    assert np.max(np.abs(lmat @ ch.choi.reshape(-1) - b)) < 1e-12
    aff = _affine_set(rho, apply(ch, rho))
    assert residual(aff, realign(ch.choi, din, dout)) < 1e-12


def _projection_cases():
    rng = np.random.default_rng(12)
    for din, dout in ((3, 3), (3, 2), (2, 4), (4, 4), (5, 3)):
        yield rand_rho(rng, din), rand_rho(rng, dout)
    psi = rng.normal(size=3) + 1j * rng.normal(size=3)
    yield pure_to_density(psi / np.linalg.norm(psi)), rand_rho(rng, 3)
    # incoherent rho -> incoherent sigma: the rows of X coincide
    yield np.diag([0.2, 0.3, 0.5]), np.diag([0.6, 0.4])


def test_affine_projection_matches_pinv_reference():
    rng = np.random.default_rng(13)
    for rho, sigma in _projection_cases():
        din, dout = rho.shape[0], sigma.shape[0]
        lmat, b = dense_constraint_system(rho, sigma)
        aff = _affine_set(rho, sigma)
        for _ in range(3):
            j = rng.normal(size=(din * dout,) * 2) + 1j * rng.normal(size=(din * dout,) * 2)
            v = j.reshape(-1)
            want = v - np.linalg.pinv(lmat) @ (lmat @ v - b)
            got = project(aff, realign(j, din, dout))
            assert np.max(np.abs(unalign(got, din, dout).reshape(-1) - want)) < 1e-12
            assert np.max(np.abs(project(aff, got) - got)) < 1e-12
            assert residual(aff, got) < 1e-12


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
    # no iteration ran: the residual is inf, as for an undetermined zero budget
    assert (verdict.iterations, verdict.residual) == (0, math.inf)


def test_identity_transformation_is_feasible():
    rng = np.random.default_rng(3)
    rho = rand_rho(rng, 3)
    verdict = rho_dio_feasible(rho, rho)
    _verify_feasible(verdict, rho, rho)
    assert verdict.iterations == 0


def test_identity_transformation_of_rank_deficient_states_is_feasible():
    # the Douglas-Rachford search leaves these undetermined (residual 8.3e-5
    # and 1.1e-4 after 5000 iterations); the identity channel needs none
    for seed, d in ((5, 3), (7, 4)):
        rho = rand_rho(np.random.default_rng(seed), d, 2)
        verdict = rho_dio_feasible(rho, rho)
        _verify_feasible(verdict, rho, rho)
        assert (verdict.iterations, verdict.residual, verdict.residual_checkpoints) == (0, 0.0, ())
        # the witness is the identity channel: it fixes every input
        other = rand_rho(np.random.default_rng(d), d)
        np.testing.assert_allclose(apply(verdict.witness, other), other, atol=1e-15)
        # a zero budget still runs no search
        assert rho_dio_feasible(rho, rho, 0).status == "undetermined"
    # a sigma within HERM_ATOL of rho that nothing separates takes the identity; an
    # exact test sent these to DR, which left two undetermined after 5000
    # iterations and took 4993 and 2945 on the others
    rng = np.random.default_rng(5)
    for d, rank in ((3, 2), (4, 2), (3, 1), (4, 4)):
        rho = rand_rho(rng, d, rank)
        h = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
        h = (h + h.conj().T) / 2
        sigma = rho + 1e-14 * (h - np.trace(h) / d * np.eye(d))
        verdict = rho_dio_feasible(rho, sigma)
        _verify_feasible(verdict, rho, sigma)
        assert (verdict.iterations, verdict.residual_checkpoints) == (0, ())
        assert 0.0 < verdict.residual <= 1e-13
        other = rand_rho(rng, d)
        np.testing.assert_allclose(apply(verdict.witness, other), other, atol=1e-15)
    # 3e-10 off in one coherence is a different state: DR runs
    sigma = rho.copy()
    sigma[0, 1] += 3e-10
    sigma[1, 0] += 3e-10
    assert rho_dio_feasible(rho, sigma, max_iters=50).iterations == 50
    # equal within HERM_ATOL yet separated: rho is incoherent, so every covariant
    # image is, and a 0.9e-10 coherence between 2e-9 populations lifts r_delta to
    # 0.045 (qutrit) or by 2e-6 (qubit); the certificate comes before the identity
    for pops in ((1 - 4e-9, 2e-9, 2e-9), (1 - 2e-9, 2e-9)):
        rho = np.diag(pops).astype(complex)
        sigma = rho.copy()
        sigma[-2, -1] = sigma[-1, -2] = 0.9e-10
        verdict = rho_dio_feasible(rho, sigma)
        assert (verdict.status, verdict.certificate[0]) == ("infeasible-certified", "r_delta")
    assert not qubit_decide(rho, sigma)


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
    # rank-deficient pairs (pure -> pure, pure -> mixed, mixed -> pure) are
    # all determined
    def pure(rng, d):
        return pure_to_density(rand_pure(rng, d))

    kinds = ((pure, pure), (pure, rand_rho), (rand_rho, pure))
    for make_rho, make_sigma in kinds:
        for _ in range(10):
            rho, sigma = make_rho(rng, 2), make_sigma(rng, 2)
            verdict = rho_dio_feasible(rho, sigma)
            assert (verdict.status == "feasible") == qubit_decide(rho, sigma), (rho, sigma)
            if verdict.status == "feasible":
                _verify_feasible(verdict, rho, sigma)
            else:
                assert verdict.status == "infeasible-certified", (rho, sigma)
    # near the boundary: sigma scales rho's off-diagonal, and so R_Delta, by
    # 1 + bump, bump = 10**U(-8.7, -6). The certificate makes qubit_decide's
    # comparisons, so each pair it rejects is refused before any iteration
    rng = np.random.default_rng(5)
    rejected = 0
    for _ in range(200):
        rho = rand_rho(rng, 2)
        bump = 10 ** rng.uniform(-8.7, -6)
        sigma = rho * np.array([[1.0, 1.0 + bump], [1.0 + bump, 1.0]])
        verdict = rho_dio_feasible(rho, sigma, max_iters=0)
        want = qubit_decide(rho, sigma)
        assert (verdict.status == "infeasible-certified") == (not want), (rho, bump)
        rejected += not want
    assert rejected >= 190
    # |x| = 0.99: renyi_1.0 rises 7.6 times faster than r_delta, by 3.0e-9
    # where r_delta and l1 rise by 0.8e-9 and qubit_decide says yes. The
    # certificate compares r_delta and l1 only, and the search finds a witness
    rho = np.array([[0.5, 0.495], [0.495, 0.5]])
    sigma = rho * np.array([[1.0, 1.0 + 0.8e-9], [1.0 + 0.8e-9, 1.0]])
    assert qubit_decide(rho, sigma)
    verdict = rho_dio_feasible(rho, sigma, max_iters=0)
    assert verdict.status == "undetermined" and verdict.separation is None
    _verify_feasible(rho_dio_feasible(rho, sigma), rho, sigma)


def test_dimension_change_feasible_case():
    # diluting Psi_4 into a qubit state of small R_Delta must be possible
    rho = pure_to_density(max_coherent(4))
    sigma = 0.5 * pure_to_density(max_coherent(2)) + 0.5 * np.diag([0.5, 0.5])
    verdict = rho_dio_feasible(rho, sigma)
    _verify_feasible(verdict, rho, sigma)


def test_d12_constructed_pair_is_feasible():
    # permute, then mix with the dephased input: feasible by construction
    rng = np.random.default_rng(21)
    d = 12
    rho = rand_rho(rng, d)
    perm = np.eye(d)[rng.permutation(d)]
    sigma = 0.6 * perm @ rho @ perm.T + 0.4 * dephase(rho)
    _verify_feasible(rho_dio_feasible(rho, sigma), rho, sigma)


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


def _reference_dr(rho, sigma, max_iters, affine_stop=True):
    """Douglas-Rachford in the plain Choi layout: a pinv projection onto
    L vec(J) = b, eigh of the symmetrised iterate for the PSD cone. Returns
    the residual after each iteration, stopping at TRACE_ATOL as the oracle
    does. With `affine_stop` and a full-rank sigma it also stops at the first
    affine point affine(2y - z) whose symmetrised Choi operator is positive
    definite, and the last residual is that point's."""
    din, dout = rho.shape[0], sigma.shape[0]
    lmat, b = dense_constraint_system(rho, sigma)
    lpinv = np.linalg.pinv(lmat)
    affine_stop = affine_stop and density(sigma).w.size == dout

    def affine(v):
        return v - lpinv @ (lmat @ v - b)

    def herm(v):
        j = v.reshape(din * dout, -1)
        return (j + j.conj().T) / 2

    def psd(v):
        w, u = np.linalg.eigh(herm(v))
        return ((u * np.clip(w, 0.0, None)) @ u.conj().T).reshape(-1)

    z = affine(np.kron(np.eye(din), sigma).reshape(-1))  # Q -> Tr(Q) sigma
    residuals = []
    for _ in range(max_iters):
        y = psd(z)
        residuals.append(np.linalg.norm(lmat @ y - b))
        if residuals[-1] <= TRACE_ATOL:
            break
        a = affine(2 * y - z)
        if affine_stop and len(residuals) < max_iters and np.linalg.eigvalsh(herm(a))[0] > 0.0:
            residuals[-1] = np.linalg.norm(lmat @ herm(a).reshape(-1) - b)
            break
        z = z + a - y
    return residuals


def test_douglas_rachford_matches_a_dense_reference():
    rng = np.random.default_rng(0)
    max_iters = 300
    cases = [(rand_rho(rng, 3), rand_rho(rng, 3), max_iters) for _ in range(6)]
    # qutrit -> Psi_2 is feasible but needs 171 iterations: runs that stop
    # unconverged on their budget, one of them at a checkpoint, recorded once
    for budget in (60, 10):
        cases.append((pure_to_density(QUTRIT), pure_to_density(max_coherent(2)), budget))
    seen = set()
    for rho, sigma, budget in cases:
        verdict = rho_dio_feasible(rho, sigma, max_iters=budget)
        seen.add("separated" if verdict.separation is not None else verdict.status)
        residuals = _reference_dr(rho, sigma, budget)
        if verdict.status == "infeasible-certified" or verdict.separation is not None:
            # no witness exists, so the reference cannot converge either
            assert verdict.iterations == 0 and verdict.residual_checkpoints == ()
            assert len(residuals) == budget and residuals[-1] > TRACE_ATOL
            continue
        converged = residuals[-1] <= TRACE_ATOL
        assert verdict.status == ("feasible" if converged else "undetermined")
        assert verdict.iterations == len(residuals)
        if converged:
            _verify_feasible(verdict, rho, sigma)
        else:
            assert abs(verdict.residual - residuals[-1]) <= 1e-9 * residuals[-1]
        # checkpoints at 1, 10, 100 and the last iteration, read off the same trajectory
        stops = [k for k in (1, 10, 100) if k < len(residuals)] + [len(residuals)]
        assert [k for k, _ in verdict.residual_checkpoints] == stops
        for k, r in verdict.residual_checkpoints:
            if residuals[k - 1] > TRACE_ATOL:
                assert abs(r - residuals[k - 1]) <= 1e-9 * residuals[k - 1]
            else:
                assert r <= TRACE_ATOL
    assert seen == {"feasible", "infeasible-certified", "separated", "undetermined"}


def _constructed_pairs():
    """Permuted, then mixed with the dephased input: feasible by construction
    (seeds 5 and 8, d = 2..5, three pairs per d, every other one rank-deficient)."""
    for seed in (5, 8):
        rng = np.random.default_rng(seed)
        for d in (2, 3, 4, 5):
            for k in range(3):
                rho = rand_rho(rng, d, d if k % 2 == 0 else max(1, d // 2))
                perm = np.eye(d)[rng.permutation(d)]
                p = rng.uniform(0.0, 0.9)
                yield rho, (1.0 - p) * perm @ rho @ perm.T + p * dephase(rho)


def test_every_feasible_witness_passes_the_channel_checks():
    # each witness must pass the checks `dcoh channel --verify` runs. Plain
    # Douglas-Rachford on the full-rank d = 5 pair of seed 8 passes an iterate
    # with residual 5.1e-8 that is not yet trace preserving within TRACE_ATOL
    for rho, sigma in _constructed_pairs():
        _verify_feasible(rho_dio_feasible(rho, sigma), rho, sigma)


def test_the_affine_stop_only_shortens_a_run():
    # against plain Douglas-Rachford (the reference without its affine stop):
    # the same status in at most as many iterations. A run that ends earlier
    # ended at an affine point, which meets the constraints to rounding
    shortened = 0
    for rho, sigma in _constructed_pairs():
        plain = _reference_dr(rho, sigma, oracle.DEFAULT_MAX_ITERS, affine_stop=False)
        verdict = rho_dio_feasible(rho, sigma)
        assert verdict.status == ("feasible" if plain[-1] <= TRACE_ATOL else "undetermined")
        assert verdict.iterations <= len(plain)
        if verdict.iterations < len(plain):
            shortened += 1
            assert verdict.residual <= 1e-12
    assert shortened >= 10


def test_no_witness_for_a_qubit_pair_whose_coherence_rises():
    # sigma scales rho's off-diagonal by 1 + bump: R_Delta rises by 1.1e-9 to
    # 9.1e-8, and no rho-DIO map exists. The certificate refuses each pair
    # before any iteration, as qubit_decide does: a search comes within 1e-7
    # of the constraints in at most 229 iterations on the first four, and its
    # iterate passes the witness checks on the fifth after 895
    for a, c, bump in ((0.5, 0.2, 1e-7), (0.3, 0.35, 5e-8), (0.6, 0.1 + 0.2j, 2e-7),
                       (0.5, 0.45, 3e-8),
                       (0.5480745210186516, 0.07402242993855838 - 0.2625335343549788j,
                        2.0853585515902604e-09)):
        rho = np.array([[a, c], [np.conj(c), 1.0 - a]])
        sigma = np.array([[a, c * (1.0 + bump)], [np.conj(c) * (1.0 + bump), 1.0 - a]])
        assert not qubit_decide(rho, sigma)
        verdict = rho_dio_feasible(rho, sigma)
        assert verdict.status == "infeasible-certified", (a, c, bump)
        assert (verdict.certificate[0], verdict.iterations) == ("r_delta", 0)


def test_no_certificate_for_a_feasible_pair_near_the_rank_cut():
    # row `cut` of rho's random factor is scaled by 10**U(-4.45, -4), which
    # puts that population near the rank cut of 1e-9 (2e-10 to 3e-9 in 80% of
    # the draws). sigma = U rho U^dag for an incoherent unitary U (a
    # permutation times phases) is feasible by construction, and so is a
    # mixture (1 - p) U rho U^dag + p dephase(rho), so neither the certificate
    # nor the curves may refuse either. On the permuted pairs the largest rise
    # of any family member is about 1e-11, far below PREFIX_SLACK. A mixture
    # that moves the small population onto a large one drops its coherences
    # from rho's cut reading, which the certificate's kept reading restores.
    # Qubits take 50 draws per rank, since such refusals were seen only there:
    # read with the cut alone, 5 of these 100 qubit mixtures are refused
    rng = np.random.default_rng(3)
    for d in range(2, 9):
        for rank in range(1, d + 1):
            for _ in range(50 if d == 2 else 10):
                a = rng.normal(size=(d, rank)) + 1j * rng.normal(size=(d, rank))
                cut = rng.integers(d)
                a[cut] *= 10 ** rng.uniform(-4.45, -4)
                rho = density(a @ a.conj().T / np.linalg.norm(a) ** 2)
                phases = np.exp(2j * np.pi * rng.uniform(size=d))
                u = np.eye(d)[rng.permutation(d)] * phases
                p = rng.uniform(0.0, 0.9)
                for sigma in (u @ rho.rho @ u.conj().T,
                              (1.0 - p) * u @ rho.rho @ u.conj().T + p * dephase(rho.rho)):
                    sigma = density(sigma)
                    spectra = _coherence_spectrum(rho.rho), _coherence_spectrum(sigma.rho)
                    assert _curve_separation(rho.rho, sigma.rho, spectra) is None
                    assert _certificate(rho, sigma, spectra) is None, (d, rank)
                    assert d > 2 or qubit_decide(rho, sigma)


def test_no_certificate_for_a_mixture_that_moves_a_population_off_the_rank_cut():
    # psi = (2e-5, sqrt(1 - 4e-10)) has R_Delta = 1, but its 4e-10 population
    # is below the rank cut and r_delta reports 0. The DIO channel
    # 0.7 X.X + 0.3 dephase maps rho to sigma exactly, and sigma's r_delta is
    # 3.1e-5: only the kept reading of rho's population, R_Delta = 1, keeps
    # the certificate and qubit_decide from refusing the pair
    rho = pure_to_density(np.array([2e-5, math.sqrt(1.0 - 4e-10)]))
    x = np.array([[0.0, 1.0], [1.0, 0.0]])
    sigma = 0.7 * x @ rho @ x + 0.3 * dephase(rho)
    channel = channel_from_kraus([math.sqrt(0.7) * x, math.sqrt(0.3) * np.diag([1.0, 0.0]),
                                  math.sqrt(0.3) * np.diag([0.0, 1.0])])
    assert is_rho_dio(channel, rho)[0]
    assert np.abs(apply(channel, rho) - sigma).max() <= TRACE_ATOL
    assert rho_dio_feasible(rho, sigma, max_iters=0).status != "infeasible-certified"
    assert qubit_decide(rho, sigma) is True


def svd_testing_curve(x, t):
    """h_x(t) = Tr(x - t dephase(x))_+ = (1 - t + ||x - t dephase(x)||_1) / 2,
    the trace norm from singular values."""
    return (1.0 - t + np.linalg.svd(x - t * dephase(x), compute_uv=False).sum()) / 2


def test_testing_curve_decides_qubits():
    # for qubits the curve order is also sufficient, so it separates exactly
    # the pairs the closed-form decider rejects
    rng = np.random.default_rng(16)
    pairs = [(rand_rho(rng, 2), rand_rho(rng, 2)) for _ in range(1000)]
    # rank-deficient pairs too: pure -> pure, pure -> mixed, mixed -> pure
    pure = [pure_to_density(rand_pure(rng, 2)) for _ in range(200)]
    pairs += [(pure[k], pure[k + 1]) for k in range(0, 100, 2)]
    pairs += [(pure[100 + k], rand_rho(rng, 2)) for k in range(50)]
    pairs += [(rand_rho(rng, 2), pure[150 + k]) for k in range(50)]
    separated = 0
    for rho, sigma in pairs:
        rho, sigma = check_density(rho), check_density(sigma)
        sep = _curve_separation(rho, sigma, (_coherence_spectrum(rho), _coherence_spectrum(sigma)))
        assert (sep is not None) == (not qubit_decide(rho, sigma)), (rho, sigma)
        separated += sep is not None
    assert 300 < separated < 900


# Verdicts on the oracle_pairs pool (seed 7: 24 pairs at d = 3, then 24 at
# d = 4) and on six pairs feasible by construction at d = 3..8: the
# certificate's monotone, the iteration count of a feasible pair, or None
# for undetermined.
POOL_VERDICTS = [
    "r_delta", None, "r_delta", "r_delta", 9, "r_delta", "r_delta", 19, "r_delta",
    "r_delta", "r_delta", 19, 3, 11, "renyi_2.0", "r_delta", 9, 4, "r_delta", 36,
    "r_delta", None, 1, "renyi_2.0",
    "r_delta", "r_delta", 90, "r_delta", "r_delta", "r_delta", "r_delta", None, None,
    "renyi_0.5", "r_delta", "r_delta", "r_delta", "r_delta", "r_delta", 8, "r_delta",
    "r_delta", "r_delta", "r_delta", None, "r_delta", "r_delta", None,
    9, 3, 1, 4, 3, 1,
]


def _pool_pairs():
    pool = np.random.default_rng(7)
    pairs = [(rand_rho(pool, d), rand_rho(pool, d)) for d in (3, 4) for _ in range(24)]
    rng = np.random.default_rng(16)
    for d in range(3, 9):
        # permute, then mix with the dephased input: feasible by construction
        rho = rand_rho(rng, d, d if d % 2 else d // 2)
        perm = np.eye(d)[rng.permutation(d)]
        p = float(rng.uniform(0.1, 0.9))
        pairs.append((rho, (1.0 - p) * perm @ rho @ perm.T + p * dephase(rho)))
    return pairs


def test_testing_curve_separates_every_undetermined_pool_pair():
    for (rho, sigma), want in zip(_pool_pairs(), POOL_VERDICTS, strict=True):
        verdict = rho_dio_feasible(rho, sigma)
        if isinstance(want, str):
            assert verdict.status == "infeasible-certified"
            assert verdict.certificate[0] == want
            assert verdict.separation is None
        elif isinstance(want, int):
            # the curves of a feasible pair never separate
            _verify_feasible(verdict, rho, sigma)
            assert verdict.iterations == want and verdict.separation is None
        else:
            assert verdict.status == "undetermined" and verdict.iterations == 0
            assert verdict.witness is None and verdict.certificate is None
            t, h_rho, h_sigma = verdict.separation
            # every pool separation is at least 1.19e-3, far above the slack
            assert t >= 0.0 and h_sigma > h_rho + PREFIX_SLACK and h_sigma - h_rho > 1e-3
            assert abs(h_rho - svd_testing_curve(rho, t)) <= 1e-12
            assert abs(h_sigma - svd_testing_curve(sigma, t)) <= 1e-12


def test_zero_budget_builds_no_constraint_set(monkeypatch):
    def refuse(*args):
        raise AssertionError("_affine_set called with no iteration to run")

    monkeypatch.setattr(oracle, "_affine_set", refuse)
    verdict = rho_dio_feasible(pure_to_density(QUTRIT), pure_to_density(max_coherent(2)), 0)
    assert verdict.status == "undetermined" and verdict.separation is None
    assert verdict.iterations == 0 and verdict.residual_checkpoints == ()

import json
import math

import numpy as np
import pytest

from dcoh.channels import apply, construct_prop5, qubit_decide, twirl_channel
from dcoh.hypotest import dh_epsilon, distill_fidelity_program
from dcoh.monotones import (
    DEFAULT_ALPHAS,
    _coherence_spectrum,
    c_k_monotone,
    monotone_report,
    r_delta,
    rel_entropy_coherence,
    renyi_relative,
)
from dcoh import cli
from dcoh.oracle import _curve_separation, rho_dio_feasible
from dcoh.rates import (
    asymptotic_rate,
    dilute_one_shot_bounds,
    dilute_zero_error,
    distill_one_shot,
    distill_zero_error,
)
from dcoh.states import (
    check_density,
    density,
    dephase,
    fidelity,
    max_coherent,
    pure_to_density,
    state_to_json,
)

from helpers import QUTRIT, rand_rho


# References: the dense matrix-power formulas, with dephase(rho) decomposed
# like any other PSD matrix.

def _power_reference(a, s):
    w, v = np.linalg.eigh((a + a.conj().T) / 2)
    keep = w > 1e-9 * max(1.0, float(np.max(np.abs(w))))
    return (v[:, keep] * w[keep] ** s) @ v[:, keep].conj().T


def _r_delta_reference(rho):
    d_inv_sqrt = _power_reference(dephase(rho), -0.5)
    conj = d_inv_sqrt @ rho @ d_inv_sqrt
    return max(float(np.max(np.linalg.eigvalsh((conj + conj.conj().T) / 2))) - 1.0, 0.0)


def _renyi_reference(rho, alpha):
    delta = dephase(rho)
    if alpha == 0.0:
        return -math.log2(float(np.trace(_power_reference(rho, 0.0) @ delta).real))
    term = _power_reference(rho, alpha) @ _power_reference(delta, 1.0 - alpha)
    return math.log2(float(np.trace(term).real)) / (alpha - 1.0)


def _reference_states():
    """Seeded rank-deficient states (d 2-8, every rank below d), incoherent
    states, states with a zero diagonal entry, and pure states with one
    diagonal entry below the support cut."""
    rng = np.random.default_rng(97)
    states = []
    for d in range(2, 9):
        psi = rng.normal(size=d) + 1j * rng.normal(size=d)
        psi[0] = math.sqrt(1e-11)
        psi[1:] *= math.sqrt(1.0 - 1e-11) / np.linalg.norm(psi[1:])
        states.append(np.outer(psi, psi.conj()))
        states += [rand_rho(rng, d, rank) for rank in range(1, d)]
        p = rng.dirichlet(np.ones(d))
        states.append(np.diag(p).astype(complex))
        states.append(np.diag(np.where(np.arange(d) == 0, 0.0, p / p[1:].sum())).astype(complex))
        for rank in (1, d - 1):
            inner = rand_rho(rng, d - 1, rank)
            keep = np.delete(np.arange(d), int(rng.integers(d)))
            rho = np.zeros((d, d), dtype=complex)
            rho[np.ix_(keep, keep)] = inner
            states.append(rho)
    return states


def test_support_formulas_match_matrix_power_references():
    for rho in _reference_states():
        rho = (rho + rho.conj().T) / 2
        assert abs(r_delta(rho) - _r_delta_reference(rho)) <= 1e-12 * max(1.0, r_delta(rho))
        for alpha in (0.0, 0.25, 0.5, 1.5, 2.0):
            ref = _renyi_reference(rho, alpha)
            assert abs(renyi_relative(rho, alpha) - ref) <= 1e-12 * max(1.0, abs(ref))


def test_decompositions_per_call(monkeypatch, tmp_path):
    calls = []

    def counting(decompose):
        def wrapped(a, *args, **kwargs):
            calls.append(a.shape)
            return decompose(a, *args, **kwargs)
        return wrapped

    for name in ("eigh", "eigvalsh"):
        monkeypatch.setattr(np.linalg, name, counting(getattr(np.linalg, name)))
    rho = rand_rho(np.random.default_rng(5), 3, 2)
    sigma = rand_rho(np.random.default_rng(6), 3)
    # rho -> mixed is a DIO map, so no monotone separates the pair; R_Delta
    # certifies mixed -> rho
    mixed = (rho + dephase(rho)) / 2
    qubits = [rand_rho(np.random.default_rng(s), 2) for s in (7, 8)]
    validated = density(rho), density(sigma)
    paths = {}
    for name, state in (("rho", rho), ("mixed", mixed), ("q7", qubits[0]), ("q8", qubits[1])):
        paths[name] = str(tmp_path / f"{name}.json")
        (tmp_path / f"{name}.json").write_text(state_to_json(state))
    # each validates its states once, by the eigh that also gives their
    # support eigenpairs, and decomposes them again only for the answer
    for fn, expected in [
        (r_delta, 2),
        (lambda r: renyi_relative(r, 0.0), 1),
        (lambda r: renyi_relative(r, 0.5), 1),
        (lambda r: renyi_relative(r, 2.0), 1),
        (lambda r: renyi_relative(r, 1.0), 1),
        (lambda r: fidelity(r, sigma), 3),
        # a Density is not decomposed again: only the inner matrix's eigvalsh
        (lambda r: fidelity(*validated), 1),
        (monotone_report, 2),
        # per state, its validation and its coherence spectrum, which gives both
        # R_Delta and the curves' kinks; then one stacked eigvalsh per curve
        (lambda r: rho_dio_feasible(r, mixed, 0), 6),
        (lambda r: rho_dio_feasible(mixed, r, 0), 4),
        # rho -> rho runs the monotone walk and the curves before the identity
        # witness, which decomposes nothing more; a zero budget skips it
        (lambda r: rho_dio_feasible(r, r), 6),
        (lambda r: rho_dio_feasible(r, r, 0), 6),
        (lambda r: _curve_separation(r, mixed, (_coherence_spectrum(r), _coherence_spectrum(mixed))), 4),
        (lambda r: qubit_decide(*qubits), 4),
        (lambda r: asymptotic_rate(r, sigma), 2),
        (lambda r: dilute_one_shot_bounds(r, 0.0), 2),
        # the eigh that validates rho is its only decomposition; the rest
        # are the upper unit's R_Delta and eigvalsh points and the
        # Dinkelbach steps
        (lambda r: dilute_one_shot_bounds(r, 0.1), 12),
        # validation, then dh_epsilon's solve on the validated value
        (lambda r: distill_one_shot(r, 0.1), 3),
        # the solvers check rho by eigvalsh and take their kinks and the
        # predicted first probe from one eigh of the coherence matrix; each
        # dual evaluation is one eigh, and here the prediction is the optimum
        (lambda r: dh_epsilon(r, dephase(r), 0.1), 3),
        # at eps = 0, Pi_rho is v v^dag of the eigh that validates rho
        (lambda r: dh_epsilon(r, dephase(r), 0.0), 1),
        (lambda r: distill_fidelity_program(r, 2), 3),
        # rounding a unit count decomposes nothing
        (distill_zero_error, 1),
        (dilute_zero_error, 2),
        # the support projector is v v^dag of rho's validating eigh
        (lambda r: construct_prop5(r, dephase(r)), 3),
        # state_from_json validates each input once; the call reads its value
        (lambda r: cli.main(["monotones", paths["rho"]]), 2),
        (lambda r: cli.main(["decide", "--qubit", paths["q7"], paths["q8"]]), 4),
        (lambda r: cli.main(["distill", paths["rho"], "--regime", "zero"]), 1),
        (lambda r: cli.main(["oracle", paths["rho"], paths["mixed"], "--max-iters", "0"]), 6),
    ]:
        calls.clear()
        fn(rho)
        assert len(calls) == expected


BAD_STATES = {
    "non-square": np.ones((2, 3)) / 2,
    "non-hermitian": np.array([[0.5, 0.5], [0.0, 0.5]]),
    "nan": np.full((2, 2), np.nan),
    "not-psd": np.diag([1.5, -0.5]),
    "trace-2": np.eye(2),
}


@pytest.mark.parametrize("name", BAD_STATES)
def test_validation_by_decomposing_rejects_what_check_density_rejects(name, tmp_path, capsys):
    # every function that validates through a Density refuses a bad matrix
    # exactly as check_density does
    with pytest.raises(ValueError) as want:
        check_density(BAD_STATES[name])
    for fn in (
        density,
        lambda r: dilute_one_shot_bounds(r, 0.0),
        lambda r: dilute_one_shot_bounds(r, 0.1),
        lambda r: renyi_relative(r, 0.5),
        rel_entropy_coherence,
        monotone_report,
        lambda r: qubit_decide(r, r),
        lambda r: construct_prop5(r, r),
        lambda r: rho_dio_feasible(r, r),
        lambda r: asymptotic_rate(r, r),
    ):
        with pytest.raises(ValueError) as got:
            fn(BAD_STATES[name])
        assert str(got.value) == str(want.value)
    # a state document of the wrong shape is refused before validation
    if name != "non-square":
        bad = np.asarray(BAD_STATES[name], dtype=complex)
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"kind": "density", "dim": 2, "re": bad.real.tolist(),
                                    "im": bad.imag.tolist()}))
        capsys.readouterr()
        assert cli.main(["monotones", str(path)]) == 3
        out, err = capsys.readouterr()
        assert out == "" and err == f"error: {want.value}\n"


def test_a_density_value_is_read_only():
    state = density(rand_rho(np.random.default_rng(3), 3, 2))
    for a in (state.rho, state.w, state.v):
        with pytest.raises(ValueError):
            a[0] = 0.0
        with pytest.raises(ValueError):
            a += 0.0


def test_a_density_value_is_not_decomposed_again(monkeypatch):
    state = density(rand_rho(np.random.default_rng(4), 3, 2))

    def refuse(*args, **kwargs):
        raise AssertionError("a Density was decomposed again")

    for name in ("eigh", "eigvalsh"):
        monkeypatch.setattr(np.linalg, name, refuse)
    assert density(state) is state
    assert check_density(state) is state.rho
    for alpha in DEFAULT_ALPHAS:
        renyi_relative(state, alpha)


def test_r_delta_maxcoherent():
    for m in (2, 3, 4, 5):
        rho = pure_to_density(max_coherent(m))
        assert abs(r_delta(rho) - (m - 1)) < 1e-9


def test_r_delta_incoherent_is_zero():
    assert r_delta(np.diag([0.2, 0.3, 0.5])) < 1e-12


def test_reports_read_the_population_cut_and_decisions_read_it_both_ways():
    # a report drops a population at or below the rank cut with every
    # coherence on its row, so this pure qubit, whose R_Delta is 1, reads 0
    psi = pure_to_density(np.array([2e-5, math.sqrt(1.0 - 4e-10)]))
    assert r_delta(psi) == 0.0 and monotone_report(psi).r_delta == 0.0
    # a decision reads such a population kept as well, and refuses only when
    # both readings rise: an incoherent state stays at R_Delta 0 either way
    rho, plus = np.diag([1.0 - 4e-10, 4e-10]), pure_to_density(max_coherent(2))
    name, v_in, v_out = rho_dio_feasible(rho, plus, max_iters=0).certificate
    assert (name, v_in) == ("r_delta", 0.0) and abs(v_out - 1.0) < 1e-12
    assert not qubit_decide(rho, plus)


def test_r_delta_qutrit_example():
    # rank-1 state with full diagonal support saturates lambda = d - 1 is
    # false in general; this state sits at exactly 2
    assert abs(r_delta(pure_to_density(QUTRIT)) - 2.0) < 1e-9


def test_r_delta_variational_characterization():
    # smallest lambda with rho <= (1 + lambda) dephase(rho)
    rng = np.random.default_rng(21)
    for _ in range(20):
        rho = rand_rho(rng, int(rng.integers(2, 5)))
        lam = r_delta(rho)
        gap = (1.0 + lam) * dephase(rho) - rho
        assert np.linalg.eigvalsh(gap).min() > -1e-8
        if lam > 1e-6:
            tight = (1.0 + lam - 1e-4) * dephase(rho) - rho
            assert np.linalg.eigvalsh(tight).min() < 0.0


def test_r_delta_plus_one_multiplicative():
    rng = np.random.default_rng(33)
    for _ in range(20):
        a = rand_rho(rng, int(rng.integers(2, 4)))
        b = rand_rho(rng, int(rng.integers(2, 4)))
        lhs = r_delta(np.kron(a, b)) + 1.0
        rhs = (r_delta(a) + 1.0) * (r_delta(b) + 1.0)
        assert abs(lhs - rhs) < 1e-7 * rhs


def test_rel_entropy_pure_state_is_shannon():
    rng = np.random.default_rng(44)
    for _ in range(10):
        psi = rng.normal(size=4) + 1j * rng.normal(size=4)
        psi /= np.linalg.norm(psi)
        p = np.abs(psi) ** 2
        shannon = -sum(x * math.log2(x) for x in p if x > 1e-15)
        assert abs(rel_entropy_coherence(pure_to_density(psi)) - shannon) < 1e-9


def test_rel_entropy_maxcoherent():
    assert abs(rel_entropy_coherence(pure_to_density(max_coherent(2))) - 1.0) < 1e-12
    assert abs(rel_entropy_coherence(pure_to_density(max_coherent(4))) - 2.0) < 1e-12


def test_renyi_relative_family():
    rng = np.random.default_rng(55)
    rho = rand_rho(rng, 3)
    alphas = (0.0, 0.5, 1.0, 1.5, 2.0)
    vals = [renyi_relative(rho, a) for a in alphas]
    # the Petz family is non-decreasing in alpha
    assert all(x <= y + 1e-9 for x, y in zip(vals, vals[1:]))
    assert abs(renyi_relative(rho, 1.0) - rel_entropy_coherence(rho)) < 1e-12
    with pytest.raises(ValueError):
        renyi_relative(rho, 2.5)


def test_renyi_relative_vanishes_on_incoherent():
    rho = np.diag([0.5, 0.3, 0.2])
    for a in (0.0, 0.5, 1.0, 1.5, 2.0):
        assert abs(renyi_relative(rho, a)) < 1e-9
    # a diagonal entry below the rank cut is off the support for every member,
    # alpha = 1 included: the entropy of diag(rho) does not count it either
    for rho in (np.diag([1e-10, 1.0 - 1e-10]), np.diag([5e-10, 0.5, 0.5 - 5e-10])):
        assert renyi_relative(rho, 1.0) == 0.0


def test_c2_separation_point():
    # the qutrit example scores strictly below Psi_2 on C_2 even though the
    # transformation into Psi_2 is possible with an input-tailored channel
    assert abs(c_k_monotone(QUTRIT, 2) - 0.375) < 1e-12
    assert abs(c_k_monotone(max_coherent(2), 2) - 0.5) < 1e-12


def test_c_k_edges():
    psi = max_coherent(4)
    assert abs(c_k_monotone(psi, 1) - 1.0) < 1e-12
    assert abs(c_k_monotone(psi, 4) - 0.25) < 1e-12
    assert c_k_monotone(psi, 5) == 0.0
    with pytest.raises(ValueError):
        c_k_monotone(psi, 0)


def test_monotone_report_shapes():
    rho = pure_to_density(QUTRIT)
    rep = monotone_report(rho)
    assert rep.r_delta > 0 and rep.r_delta == r_delta(rho)
    assert rep.renyi == [(a, renyi_relative(rho, a)) for a in DEFAULT_ALPHAS]
    assert rep.rel_entropy_bits == rel_entropy_coherence(rho)
    assert rep.c_k == [(2, c_k_monotone(QUTRIT, 2))]
    rep_mixed = monotone_report(np.eye(3) / 3)
    assert rep_mixed.c_k == []
    assert abs(rep_mixed.l1 - 1.0) < 1e-12



def test_a_reported_zero_is_never_negative():
    # log2(1) / (alpha - 1) is -0.0 for alpha < 1; a zero prints as 0.0. The last
    # state is sigma of the subnormal-population pair, whose D_0 is exactly zero
    psi = np.array([1e-160, math.sqrt((1 - 1e-320) / 2), math.sqrt((1 - 1e-320) / 2)])
    swap = np.eye(3)[[1, 0, 2]]
    sigma = 0.7 * swap @ np.outer(psi, psi) @ swap + 0.3 * np.diag(psi**2)
    for rho in (np.eye(3) / 3, np.diag([0.2, 0.3, 0.5]), sigma):
        rep = monotone_report(rho)
        values = [rep.r_delta, rep.rel_entropy_bits, rep.l1, *(v for _, v in rep.renyi)]
        assert not [v for v in values if v == 0.0 and math.copysign(1.0, v) < 0.0], rep.renyi


# Monotones under DIO maps: basis permutations, diagonal unitaries and an
# appended unused level are reversible DIO maps, so no reported value moves
# under them; the twirl and convex mixtures of DIO maps are DIO, so no
# monotone may rise.

def _monotone_values(rho):
    return np.array([r_delta(rho), rel_entropy_coherence(rho)]
                    + [renyi_relative(rho, a) for a in DEFAULT_ALPHAS])


def _rank_deficient_states():
    rng = np.random.default_rng(31)
    for d in (2, 3, 4, 5):
        for rank in range(1, d):
            for _ in range(3):
                yield rng, d, rand_rho(rng, d, rank)


def _reversible_map(rng, d):
    """A random basis permutation or diagonal unitary, as rho -> U rho U^dag."""
    if rng.random() < 0.5:
        u = np.eye(d)[rng.permutation(d)]
    else:
        u = np.diag(np.exp(2j * np.pi * rng.random(d)))
    return lambda rho: u @ rho @ u.conj().T


def _unused_level(rho):
    """rho with an unused level appended, a reversible free operation."""
    d = rho.shape[0]
    padded = np.zeros((d + 1, d + 1), dtype=complex)
    padded[:d, :d] = rho
    return padded


def _reported_values(rho, eps, m):
    """Every value a report prints for rho: the monotone family, D_H^eps, the
    fidelity program, both raw dilution bounds and the zero-error yield."""
    rep = monotone_report(rho)
    lower, upper = dilute_one_shot_bounds(rho, eps)
    return np.array([rep.r_delta, rep.rel_entropy_bits, *(v for _, v in rep.renyi), rep.l1,
                     dh_epsilon(rho, dephase(rho), eps).optimal_value,
                     distill_fidelity_program(rho, m).value, lower.raw_value,
                     upper.raw_value, distill_zero_error(rho).raw_value])


def test_monotones_invariant_under_permutations_and_diagonal_unitaries():
    # the primal test operators may differ (an unused level can take a
    # zero-band share), so only values are compared; atol covers values that
    # are 0 up to rounding
    for rng, d, rho in _rank_deficient_states():
        eps = float(np.exp(rng.uniform(np.log(1e-4), np.log(0.5))))
        m = float(rng.uniform(1.0, d + 1.0))
        before = _reported_values(rho, eps, m)
        f, g = _reversible_map(rng, d), _reversible_map(rng, d)
        for other in (f(rho), g(f(rho)), _unused_level(g(f(rho)))):
            np.testing.assert_allclose(_reported_values(other, eps, m), before,
                                       rtol=1e-9, atol=1e-12, err_msg=f"d={d}")


def test_monotones_do_not_rise_under_twirl_and_mixtures_of_dio_maps():
    for rng, d, rho in _rank_deficient_states():
        before = _monotone_values(rho)
        twirl = twirl_channel(d)
        assert np.all(_monotone_values(apply(twirl, rho)) <= before + 1e-9)
        maps = [_reversible_map(rng, d) for _ in range(3)] + [lambda x: apply(twirl, x)]
        weights = rng.dirichlet(np.ones(len(maps)))
        mixed = sum(w * f(rho) for w, f in zip(weights, maps))
        after = _monotone_values(mixed)
        assert np.all(after <= before + 1e-9), (d, before, after)

"""Closure laws as a test oracle for `rho_dio_feasible`.

rho-DIO maps compose, mix and tensor, and the partial trace is DIO:
- if L1 takes rho to sigma and L2 takes sigma to tau, covariantly on each
  input, then L2 o L1 takes rho to tau;
- q L1 + (1 - q) L1' takes rho to the mixture of the targets of L1 and L1';
- L1 (x) L2 takes rho1 (x) rho2 to sigma1 (x) sigma2, since dephasing factorises;
- Tr_2 o L takes rho to sigma when L takes rho to sigma (x) omega, so a
  certified rho -/-> sigma forbids every rho -> sigma (x) omega.

Each law builds a pair together with an exact witness, so a certified "no" on
it is a defect of the oracle with no tolerance to argue about. The links of
each chain rho -> sigma -> tau are noisy permutations
Q -> (1 - p) P Q P^T + p dephase(Q), which are covariant on every input.
"""

import numpy as np

from dcoh.channels import QuantumChannel, apply, is_rho_dio, validate_channel
from dcoh.oracle import rho_dio_feasible
from dcoh.states import DIO_ATOL, dephase

from helpers import rand_rho

# a budget that keeps the file near a second; a certified "no" runs no iteration
MAX_ITERS = 200


def _unit(d, x, y):
    e = np.zeros((d, d), dtype=complex)
    e[x, y] = 1.0
    return e


def _channel(din, dout, image) -> QuantumChannel:
    """The channel whose Choi block (x, y) is image(x, y), its image of |x><y|."""
    return QuantumChannel(din, dout, np.block([[image(x, y) for y in range(din)]
                                               for x in range(din)]))


def _link(rng, rho):
    """A noisy permutation of rho: (1 - p) P rho P^T + p dephase(rho), with its
    channel, p log-uniform in [1e-6, 0.5]."""
    d = rho.shape[0]
    perm, p = np.eye(d)[rng.permutation(d)], 10.0 ** rng.uniform(-6.0, np.log10(0.5))

    def image(q):
        return (1.0 - p) * perm @ q @ perm.T + p * dephase(q)

    return image(rho), _channel(d, d, lambda x, y: image(_unit(d, x, y)))


def _compose(first, second) -> QuantumChannel:
    d = first.input_dim
    return _channel(d, second.output_dim,
                    lambda x, y: apply(second, apply(first, _unit(d, x, y))))


def _mix(q, a, b) -> QuantumChannel:
    return QuantumChannel(a.input_dim, a.output_dim, q * a.choi + (1.0 - q) * b.choi)


def _tensor(a, b) -> QuantumChannel:
    da, db = a.input_dim, b.input_dim
    return _channel(da * db, a.output_dim * b.output_dim, lambda x, y: np.kron(
        apply(a, _unit(da, x // db, y // db)), apply(b, _unit(db, x % db, y % db))))


def _trace_out_second(ch, first) -> QuantumChannel:
    """Tr_2 o ch, for an output first (x) (dout / first)."""
    second = ch.output_dim // first
    return _channel(ch.input_dim, first, lambda x, y: np.einsum(
        "akbk->ab", apply(ch, _unit(ch.input_dim, x, y)).reshape(first, second, first, second)))


def _check_witness(ch, rho, sigma):
    """A built witness passes the checks `dcoh channel --verify` runs."""
    validate_channel(ch)
    ok, violation = is_rho_dio(ch, rho)
    assert ok, violation
    assert np.linalg.norm(apply(ch, rho) - sigma) <= DIO_ATOL


def _chains(rng):
    """Chains rho -> sigma -> tau and a second link rho -> sigma', d 2-3, every rank."""
    for d in (2, 3):
        for rank in range(1, d + 1):
            for _ in range(8):
                rho = rand_rho(rng, d, rank)
                sigma, first = _link(rng, rho)
                tau, second = _link(rng, sigma)
                other, third = _link(rng, rho)
                yield rho, (sigma, first), (tau, second), (other, third)


def _near_boundary_qubit_pairs(rng, n):
    """rho and rho with its coherence scaled by 1 + 10**U(-8.7, -6): no exact
    witness exists, and most of these are certified."""
    for _ in range(n):
        rho = rand_rho(rng, 2)
        sigma = rho.copy()
        sigma[0, 1] *= 1.0 + 10.0 ** rng.uniform(-8.7, -6.0)
        sigma[1, 0] = sigma[0, 1].conjugate()
        yield rho, sigma


def test_closure_laws_never_contradict_a_built_witness():
    # the oracle's own witnesses are composed and mixed too, and every witness,
    # built or found, must pass the checks
    rng = np.random.default_rng(2026)

    def decide(law, rho, sigma, witness):
        _check_witness(witness, rho, sigma)
        verdict = rho_dio_feasible(rho, sigma, MAX_ITERS)
        assert verdict.status != "infeasible-certified", (law, rho, sigma, verdict.certificate)
        if verdict.status == "feasible":
            _check_witness(verdict.witness, rho, sigma)
        return verdict

    qubit_links = []
    for rho, (sigma, first), (tau, second), (other, third) in _chains(rng):
        found = [decide("link", a, b, ch).witness
                 for a, b, ch in ((rho, sigma, first), (sigma, tau, second), (rho, other, third))]
        decide("compose", rho, tau, _compose(first, second))
        if found[0] is not None and found[1] is not None:
            decide("compose", rho, tau, _compose(found[0], found[1]))
        q = rng.uniform(0.1, 0.9)
        decide("mix", rho, q * sigma + (1.0 - q) * other, _mix(q, first, third))
        if found[0] is not None and found[2] is not None:
            decide("mix", rho, q * sigma + (1.0 - q) * other, _mix(q, found[0], found[2]))
        if rho.shape == (2, 2):
            qubit_links.append((rho, sigma, first))
    identity = _channel(4, 4, lambda x, y: _unit(4, x, y))
    for (rho1, sigma1, ch1), (rho2, sigma2, ch2) in zip(qubit_links[::2], qubit_links[1::2]):
        rho, sigma, ch = np.kron(rho1, rho2), np.kron(sigma1, sigma2), _tensor(ch1, ch2)
        decide("tensor", rho, sigma, ch)
        decide("trace", rho, sigma1, _trace_out_second(ch, 2))
        # an incoherent ancilla adds no coherence: every monotone of rho1 (x)
        # omega equals rho1's to rounding, so any negative margin certifies
        omega = np.diag(rng.dirichlet(np.ones(2)))
        decide("trace", np.kron(rho1, omega), rho1, _trace_out_second(identity, 2))


def test_a_certified_no_forbids_every_extension_of_its_target():
    # rho -/-> sigma certified: rho -> sigma (x) omega would give rho -> sigma
    # through the partial trace, so no extension of sigma may be feasible
    rng = np.random.default_rng(30)
    pairs = list(_near_boundary_qubit_pairs(rng, 12))
    pairs += [(rand_rho(rng, d), rand_rho(rng, d, 1)) for d in (2, 3) for _ in range(6)]
    certified = 0
    for rho, sigma in pairs:
        if rho_dio_feasible(rho, sigma, 0).status != "infeasible-certified":
            continue
        certified += 1
        for omega in (rand_rho(rng, 2), np.diag(rng.dirichlet(np.ones(2)))):
            extension = np.kron(sigma, omega)
            verdict = rho_dio_feasible(rho, extension, MAX_ITERS)
            assert verdict.status != "feasible", (rho, sigma, omega)
    assert certified >= 20

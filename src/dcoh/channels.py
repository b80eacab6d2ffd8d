"""Quantum channels over the incoherent basis: the Choi operator as the one
stored form, dephasing-covariance verification, and the explicit
constructive families (twirl, dephasing, distillation, dilution,
support-projector transformation).

Choi convention (input factor first, unnormalized):
    J = sum_{x1,x2} |x1><x2| (x) E(|x1><x2|)
so J is PSD iff E is completely positive, and the partial trace of J over
the output factor equals the input identity iff E is trace preserving.

Kraus operators are an input format only: `channel_from_kraus` builds the
Choi operator from them.

Every constructed channel is measure-and-prepare, Q -> sum_k Tr(A_k Q) omega_k,
and its Choi operator is sum_k A_k^T (x) omega_k (`measure_prepare`).
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from .monotones import _certificate, _coherence_spectrum, r_delta, renyi_relative
from .states import (DIO_ATOL, HERM_ATOL, PREFIX_SLACK, RANK_RTOL, TRACE_ATOL, check_hermitian,
                     check_psd_spectrum, dephase, density, json_int, json_numbers,
                     max_coherent, pure_to_density)


@dataclass
class QuantumChannel:
    input_dim: int
    output_dim: int
    choi: np.ndarray


def choi_from_kraus(kraus, input_dim: int, output_dim: int) -> np.ndarray:
    n = input_dim * output_dim
    j = np.zeros((n, n), dtype=complex)
    for k in kraus:
        k = np.asarray(k, dtype=complex)
        if k.shape != (output_dim, input_dim):
            raise ValueError(f"Kraus shape {k.shape} != ({output_dim}, {input_dim})")
        v = k.T.reshape(-1)  # index (x, y) with the input index major
        j += np.outer(v, v.conj())
    return j


def channel_from_kraus(kraus) -> QuantumChannel:
    output_dim, input_dim = np.shape(kraus[0])
    return QuantumChannel(input_dim, output_dim, choi_from_kraus(kraus, input_dim, output_dim))


def measure_prepare(pairs) -> QuantumChannel:
    """The channel Q -> sum_k Tr(A_k Q) omega_k, given as pairs (A_k, omega_k)."""
    choi = sum(np.kron(a.T, w) for a, w in pairs).astype(complex)
    return QuantumChannel(pairs[0][0].shape[0], pairs[0][1].shape[0], choi)


def validate_channel(ch: QuantumChannel) -> None:
    """Check the dimensions and the CPTP invariants of the Choi operator."""
    din, dout = ch.input_dim, ch.output_dim
    if min(din, dout) < 1 or np.shape(ch.choi) != (din * dout,) * 2:
        raise ValueError(f"din {din} and dout {dout} must be at least 1 and give a "
                         f"{din * dout}x{din * dout} Choi operator, got shape {np.shape(ch.choi)}")
    j = check_hermitian(ch.choi)
    check_psd_spectrum(np.linalg.eigvalsh(j))
    tr_out = np.einsum("xaya->xy", j.reshape(din, dout, din, dout))
    if np.max(np.abs(tr_out - np.eye(din))) > TRACE_ATOL:
        raise ValueError("channel is not trace preserving")


def check_test_operator(m) -> np.ndarray:
    """Validate 0 <= M <= 1 within the rank cut RANK_RTOL."""
    m = check_hermitian(m)
    w = np.linalg.eigvalsh(m)
    if w[0] < -RANK_RTOL or w[-1] > 1.0 + RANK_RTOL:
        raise ValueError(f"test operator eigenvalues [{w[0]:.3e}, {w[-1]:.3e}] outside [0, 1]")
    return m


def apply(ch: QuantumChannel, rho) -> np.ndarray:
    """Apply the channel, as the linear map its Choi operator defines, to an
    input-sized matrix."""
    rho = np.asarray(rho, dtype=complex)
    if rho.shape != (ch.input_dim, ch.input_dim):
        raise ValueError(f"state dim {rho.shape} != channel input dim {ch.input_dim}")
    j4 = ch.choi.reshape(ch.input_dim, ch.output_dim, ch.input_dim, ch.output_dim)
    return np.einsum("xayb,xy->ab", j4, rho)


def is_dio(ch: QuantumChannel) -> tuple[bool, float]:
    """Check dephasing covariance for every input, via Choi equality
    (Chitambar & Gour, PRA 94, 052336 (2016)).

    The Choi entry J[(x,a),(y,b)] is <K(b,y), K(a,x)> for any Kraus set, with
    K(a,x) = (<a|K_1|x>, ..., <a|K_n|x>), so this reads the same numbers as
    the Kraus-level conditions: those inner products vanish unless x = y
    and a = b, or x != y and a != b.
    """
    j4 = ch.choi.reshape(ch.input_dim, ch.output_dim, ch.input_dim, ch.output_dim)
    diag_in = np.eye(ch.input_dim, dtype=bool)[:, None, :, None]
    diag_out = np.eye(ch.output_dim, dtype=bool)[None, :, None, :]
    # Choi of (dephase after channel) minus Choi of (channel after dephase)
    violation = float(np.linalg.norm(j4 * diag_out - j4 * diag_in))
    return violation <= DIO_ATOL, violation


def is_rho_dio(ch: QuantumChannel, rho) -> tuple[bool, float]:
    """Check dephasing covariance for the specific input state rho."""
    rho = density(rho).rho
    left = dephase(apply(ch, rho))
    right = apply(ch, dephase(rho))
    violation = float(np.linalg.norm(left - right))
    return violation <= DIO_ATOL, violation


def twirl_channel(dim: int) -> QuantumChannel:
    """Average over all basis permutations, built from its sector action:
    diagonal entries are uniformized to Tr(Q)/d and off-diagonal entries to
    their common mean, without enumerating the d! permutations."""
    if dim < 1:
        raise ValueError(f"dim must be >= 1, got {dim}")
    eye = np.eye(dim)
    off = np.ones((dim, dim)) - eye
    return measure_prepare([(eye, eye / dim), (off, off / max(dim * (dim - 1), 1))])


def dephasing_channel(dim: int) -> QuantumChannel:
    """Q -> sum_x <x|Q|x> |x><x|."""
    return measure_prepare([(np.outer(e, e), np.outer(e, e)) for e in np.eye(dim)])


def construct_distill(rho, m: int, x) -> QuantumChannel:
    """Twirled distillation channel Q -> <X,Q> Psi_m + <1-X,Q> (1-Psi_m)/(m-1).

    Requires 0 <= X <= 1 and <X, dephase(rho)> = 1/m, which make the map
    CPTP and dephasing-covariant on the input rho; the achieved fidelity
    with Psi_m is then exactly <X, rho>.
    """
    rho = density(rho).rho
    if m < 2:
        raise ValueError(f"m must be >= 2, got {m}")
    x = check_test_operator(x)
    weight = float(np.trace(x @ dephase(rho)).real)
    if not abs(weight - 1.0 / m) <= TRACE_ATOL:
        raise ValueError(f"<X, dephase(rho)> = {weight!r}, expected 1/{m}")
    psi_m = np.outer(max_coherent(m), max_coherent(m).conj())
    rest = (np.eye(m) - psi_m) / (m - 1)
    return measure_prepare([(x, psi_m), (np.eye(rho.shape[0]) - x, rest)])


def construct_dilute(m: int, omega) -> QuantumChannel:
    """Dilution channel mapping Psi_m exactly to omega: the support-projector
    channel of `construct_prop5` at rho = Psi_m, where 1/Tr(Pi_rho dephase(rho)) = m.

    Q -> <Psi_m,Q> omega + <1-Psi_m,Q> (m dephase(omega) - omega)/(m-1),
    valid exactly when R_Delta(omega) + 1 <= m.
    """
    return construct_prop5(pure_to_density(max_coherent(m)), omega)


def construct_prop5(rho, omega) -> QuantumChannel:
    """Support-projector channel with Lambda(rho) = omega, covariant on rho.

    Q -> <Pi_rho,Q> omega + <1-Pi_rho,Q> sigma with
    sigma = (lam dephase(omega) - omega)/(lam - 1), lam = 1/Tr(Pi_rho dephase(rho)).
    Exists whenever R_Delta(omega) + 1 <= lam; built when that holds within
    PREFIX_SLACK, the comparison the rates round every unit count with. At lam
    within PREFIX_SLACK of 1 it is the constant channel Q -> Tr(Q) omega.
    """
    state, target = density(rho), density(omega)
    rho, omega = state.rho, target.rho
    pi = state.v @ state.v.conj().T
    lam = 2.0 ** renyi_relative(state, 0.0)  # the float distill_zero_error floors
    lam_omega = r_delta(target) + 1.0
    if lam_omega > lam + PREFIX_SLACK:
        raise ValueError(
            f"R_Delta(omega) + 1 = {lam_omega!r} exceeds "
            f"1/Tr(Pi_rho dephase(rho)) = {lam!r}"
        )
    if lam - 1.0 <= PREFIX_SLACK:
        return measure_prepare([(np.eye(rho.shape[0]), omega)])
    sigma = (lam * dephase(omega) - omega) / (lam - 1.0)
    return measure_prepare([(pi, omega), (np.eye(rho.shape[0]) - pi, sigma)])


def qubit_decide(rho, sigma) -> bool:
    """Single-qubit transformation decider: rho -> sigma is possible iff
    `monotones._certificate` finds no rise of R_Delta or the l1 norm."""
    rho, sigma = density(rho), density(sigma)
    if rho.rho.shape != (2, 2) or sigma.rho.shape != (2, 2):
        raise ValueError("qubit_decide requires two single-qubit states")
    return _certificate(rho, sigma, [_coherence_spectrum(s.rho) for s in (rho, sigma)]) is None


# ---------------------------------------------------------------------------
# JSON channel format
#   {"kind": "channel", "din": d, "dout": d', "choi_re": [[...]], "choi_im": [[...]]}
# An optional "kraus": [{"re": [[...]], "im": [[...]]}, ...] list is read,
# checked against the Choi operator and dropped.
# ---------------------------------------------------------------------------

def channel_to_json(ch: QuantumChannel) -> str:
    doc = {
        "kind": "channel",
        "din": ch.input_dim,
        "dout": ch.output_dim,
        "choi_re": ch.choi.real.tolist(),
        "choi_im": ch.choi.imag.tolist(),
    }
    return json.dumps(doc, sort_keys=True)


def channel_from_json(doc) -> QuantumChannel:
    if isinstance(doc, (str, bytes)):
        doc = json.loads(doc)
    try:
        if doc["kind"] != "channel":
            raise ValueError(f"expected a channel document, got kind {doc['kind']!r}")
        din, dout = json_int(doc["din"], "din"), json_int(doc["dout"], "dout")
        choi = json_numbers(doc["choi_re"], "choi_re") + 1j * json_numbers(doc["choi_im"], "choi_im")
        kraus = [json_numbers(k["re"], "re") + 1j * json_numbers(k["im"], "im")
                 for k in doc.get("kraus", ())]
    except (KeyError, TypeError) as exc:
        raise ValueError(f"malformed channel document: {exc}") from exc
    ch = QuantumChannel(din, dout, choi)
    validate_channel(ch)
    if "kraus" in doc and not np.abs(choi_from_kraus(kraus, din, dout) - choi).max() <= HERM_ATOL:
        raise ValueError("stored Kraus operators do not match the Choi operator")
    return ch

"""Quantum channels over the incoherent basis: Choi/Kraus plumbing,
dephasing-covariance verification, and the explicit constructive families
(twirl, distillation, dilution, support-projector transformation).

Choi convention (input factor first, unnormalized):
    J = sum_{x1,x2} |x1><x2| (x) E(|x1><x2|)
so J is PSD iff E is completely positive, and the partial trace of J over
the output factor equals the input identity iff E is trace preserving.

Every constructed channel is measure-and-prepare, Q -> sum_k Tr(A_k Q) omega_k,
and its Choi operator is sum_k A_k^T (x) omega_k (`measure_prepare`).
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

from .linalg import check_hermitian, support_projector
from .monotones import r_delta
from .states import check_density, dephase, is_incoherent, l1_norm, max_coherent

CHOI_PSD_ATOL = 1e-9
TP_ATOL = 1e-9
DIO_ATOL = 1e-8
KRAUS_TRUNC_RTOL = 1e-10


@dataclass
class QuantumChannel:
    input_dim: int
    output_dim: int
    choi: np.ndarray
    kraus: list[np.ndarray] | None = None


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


def kraus_from_choi(choi, input_dim: int, output_dim: int) -> list[np.ndarray]:
    w, v = np.linalg.eigh(check_hermitian(choi, atol=1e-8))
    lam_max = float(w[-1]) if w.size else 0.0
    kraus = []
    for lam, vec in zip(w, v.T):
        if lam > KRAUS_TRUNC_RTOL * max(lam_max, 1.0):
            kraus.append(math.sqrt(lam) * vec.reshape(input_dim, output_dim).T)
    return kraus


def channel_from_kraus(kraus, input_dim: int | None = None, output_dim: int | None = None) -> QuantumChannel:
    kraus = [np.asarray(k, dtype=complex) for k in kraus]
    if input_dim is None:
        output_dim, input_dim = kraus[0].shape
    return QuantumChannel(
        input_dim, output_dim, choi_from_kraus(kraus, input_dim, output_dim), kraus
    )


def measure_prepare(pairs) -> QuantumChannel:
    """The channel Q -> sum_k Tr(A_k Q) omega_k, given as pairs (A_k, omega_k)."""
    choi = sum(np.kron(a.T, w) for a, w in pairs).astype(complex)
    return QuantumChannel(pairs[0][0].shape[0], pairs[0][1].shape[0], choi)


def validate_channel(ch: QuantumChannel) -> None:
    """Check the CPTP invariants and Kraus/Choi consistency."""
    j = check_hermitian(ch.choi, atol=1e-8)
    w = np.linalg.eigvalsh(j)
    if w[0] < -CHOI_PSD_ATOL:
        raise ValueError(f"Choi operator not PSD: min eigenvalue {w[0]:.3e}")
    j4 = j.reshape(ch.input_dim, ch.output_dim, ch.input_dim, ch.output_dim)
    tr_out = np.einsum("xaya->xy", j4)
    if np.max(np.abs(tr_out - np.eye(ch.input_dim))) > TP_ATOL:
        raise ValueError("channel is not trace preserving")
    if ch.kraus is not None:
        rebuilt = choi_from_kraus(ch.kraus, ch.input_dim, ch.output_dim)
        if np.max(np.abs(rebuilt - j)) > 1e-8:
            raise ValueError("stored Kraus operators do not match the Choi operator")


def apply(ch: QuantumChannel, rho) -> np.ndarray:
    """Apply the channel to a state."""
    rho = np.asarray(rho, dtype=complex)
    if rho.shape != (ch.input_dim, ch.input_dim):
        raise ValueError(f"state dim {rho.shape} != channel input dim {ch.input_dim}")
    if ch.kraus is not None:
        out = sum(k @ rho @ k.conj().T for k in ch.kraus)
    else:
        j4 = ch.choi.reshape(ch.input_dim, ch.output_dim, ch.input_dim, ch.output_dim)
        out = np.einsum("xayb,xy->ab", j4, rho)
    return (out + out.conj().T) / 2


def is_dio(ch: QuantumChannel, atol: float = DIO_ATOL) -> tuple[bool, float]:
    """Check dephasing covariance for every input, via Choi equality.

    When Kraus operators are available the on-average Kraus-level
    conditions are cross-checked as well; the reported violation is the
    maximum over both routes.
    """
    j4 = ch.choi.reshape(ch.input_dim, ch.output_dim, ch.input_dim, ch.output_dim)
    diag_in = np.eye(ch.input_dim, dtype=bool)[:, None, :, None]
    diag_out = np.eye(ch.output_dim, dtype=bool)[None, :, None, :]
    # Choi of (dephase after channel) minus Choi of (channel after dephase)
    violation = float(np.linalg.norm(j4 * diag_out - j4 * diag_in))
    if ch.kraus is not None:
        _, viols = kraus_dio_conditions(ch.kraus)
        violation = max(violation, viols["diag_to_diag"], viols["offdiag_to_offdiag"])
    return violation <= atol, violation


def is_rho_dio(ch: QuantumChannel, rho, atol: float = DIO_ATOL) -> tuple[bool, float]:
    """Check dephasing covariance for the specific input state rho."""
    rho = check_density(rho)
    left = dephase(apply(ch, rho))
    right = apply(ch, dephase(rho))
    violation = float(np.linalg.norm(left - right))
    return violation <= atol, violation


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
    return channel_from_kraus(
        [np.outer(e, e) for e in np.eye(dim, dtype=complex)], dim, dim
    )


def construct_distill(rho, m: int, x) -> QuantumChannel:
    """Twirled distillation channel Q -> <X,Q> Psi_m + <1-X,Q> (1-Psi_m)/(m-1).

    Requires 0 <= X <= 1 and <X, dephase(rho)> = 1/m, which make the map
    CPTP and dephasing-covariant on the input rho; the achieved fidelity
    with Psi_m is then exactly <X, rho>.
    """
    rho = check_density(rho)
    if m < 2:
        raise ValueError(f"m must be >= 2, got {m}")
    x = check_hermitian(x)
    w = np.linalg.eigvalsh(x)
    if w[0] < -1e-9 or w[-1] > 1.0 + 1e-9:
        raise ValueError(f"X eigenvalues [{w[0]:.3e}, {w[-1]:.3e}] outside [0, 1]")
    weight = float(np.trace(x @ dephase(rho)).real)
    if abs(weight - 1.0 / m) > 1e-8:
        raise ValueError(f"<X, dephase(rho)> = {weight!r}, expected 1/{m}")
    psi_m = np.outer(max_coherent(m), max_coherent(m).conj())
    rest = (np.eye(m) - psi_m) / (m - 1)
    return measure_prepare([(x, psi_m), (np.eye(rho.shape[0]) - x, rest)])


def construct_dilute(m: int, omega) -> QuantumChannel:
    """Dilution channel mapping Psi_m exactly to omega.

    Q -> <Psi_m,Q> omega + <1-Psi_m,Q> Z with Z = (m dephase(omega) - omega)/(m-1),
    valid (Z PSD) exactly when R_Delta(omega) <= m - 1.
    """
    omega = check_density(omega)
    r = r_delta(omega)
    if r > m - 1 + 1e-8:
        raise ValueError(f"R_Delta(omega) = {r!r} exceeds m - 1 = {m - 1}")
    if m == 1:
        if not is_incoherent(omega):
            raise ValueError("m = 1 requires an incoherent target")
        return measure_prepare([(np.eye(1), omega)])
    z = (m * dephase(omega) - omega) / (m - 1)
    psi_m = np.outer(max_coherent(m), max_coherent(m).conj())
    return measure_prepare([(psi_m, omega), (np.eye(m) - psi_m, z)])


def construct_prop5(rho, omega) -> QuantumChannel:
    """Support-projector channel with Lambda(rho) = omega, covariant on rho.

    Q -> <Pi_rho,Q> omega + <1-Pi_rho,Q> sigma with
    sigma = (lam dephase(omega) - omega)/(lam - 1), lam = 1/Tr(Pi_rho dephase(rho)).
    Exists whenever R_Delta(omega) + 1 <= lam.
    """
    rho = check_density(rho)
    omega = check_density(omega)
    pi = support_projector(rho)
    lam = 1.0 / float(np.trace(pi @ dephase(rho)).real)
    if r_delta(omega) + 1.0 > lam + 1e-9:
        raise ValueError(
            f"R_Delta(omega) + 1 = {r_delta(omega) + 1.0!r} exceeds "
            f"1/Tr(Pi_rho dephase(rho)) = {lam!r}"
        )
    if abs(lam - 1.0) <= 1e-12:
        if not is_incoherent(omega):
            raise ValueError("full-support input admits only incoherent targets")
        return measure_prepare([(np.eye(rho.shape[0]), omega)])
    sigma = (lam * dephase(omega) - omega) / (lam - 1.0)
    return measure_prepare([(pi, omega), (np.eye(rho.shape[0]) - pi, sigma)])


def qubit_decide(rho, sigma, slack: float = 1e-9) -> bool:
    """Single-qubit transformation decider: rho -> sigma is possible iff
    both R_Delta and the entrywise l1 norm are non-increasing."""
    rho = check_density(rho)
    sigma = check_density(sigma)
    if rho.shape != (2, 2) or sigma.shape != (2, 2):
        raise ValueError("qubit_decide requires two single-qubit states")
    return (
        r_delta(rho) >= r_delta(sigma) - slack
        and l1_norm(rho) >= l1_norm(sigma) - slack
    )


def kraus_dio_conditions(kraus) -> tuple[np.ndarray, dict[str, float]]:
    """Evaluate the on-average Kraus-level dephasing-covariance conditions.

    Returns the column-stochastic matrix S[y, x] = ||K(y, x)||^2 built from
    the vectors K(y, x) = (<y|K_1|x>, ..., <y|K_n|x>), together with the
    maximum violations of:
      diag_to_diag        <K(y,x), K(y1,x)> = S delta_{y y1}
      offdiag_to_offdiag  <K(y,x), K(y,x1)> = S delta_{x x1}
      column_stochastic   sum_y S[y, x] = 1
    """
    kraus = [np.asarray(k, dtype=complex) for k in kraus]
    dout, din = kraus[0].shape
    # vecs[y, x] is the length-n vector across Kraus operators
    vecs = np.stack(kraus, axis=-1)  # (dout, din, n)
    s = np.einsum("yxn,yxn->yx", vecs.conj(), vecs).real

    gram_y = np.einsum("yxn,zxn->xyz", vecs.conj(), vecs)  # <K(y,x), K(z,x)>
    viol1 = float(np.max(np.abs(gram_y[:, ~np.eye(dout, dtype=bool)]), initial=0.0))
    gram_x = np.einsum("yxn,yzn->yxz", vecs.conj(), vecs)  # <K(y,x), K(y,z)>
    viol2 = float(np.max(np.abs(gram_x[:, ~np.eye(din, dtype=bool)]), initial=0.0))

    viol3 = float(np.max(np.abs(s.sum(axis=0) - 1.0)))
    return s, {
        "diag_to_diag": viol1,
        "offdiag_to_offdiag": viol2,
        "column_stochastic": viol3,
    }


# ---------------------------------------------------------------------------
# JSON channel format
#   {"kind": "channel", "din": d, "dout": d', "choi_re": [[...]],
#    "choi_im": [[...]], "kraus": [{"re": [[...]], "im": [[...]]}, ...]}
# ---------------------------------------------------------------------------

def channel_to_json(ch: QuantumChannel) -> str:
    doc = {
        "kind": "channel",
        "din": ch.input_dim,
        "dout": ch.output_dim,
        "choi_re": ch.choi.real.tolist(),
        "choi_im": ch.choi.imag.tolist(),
    }
    if ch.kraus is not None:
        doc["kraus"] = [
            {"re": k.real.tolist(), "im": k.imag.tolist()} for k in ch.kraus
        ]
    return json.dumps(doc, sort_keys=True)


def channel_from_json(doc) -> QuantumChannel:
    if isinstance(doc, (str, bytes)):
        doc = json.loads(doc)
    try:
        if doc["kind"] != "channel":
            raise ValueError(f"unknown kind {doc['kind']!r}")
        din = int(doc["din"])
        dout = int(doc["dout"])
        choi = np.asarray(doc["choi_re"], dtype=float) + 1j * np.asarray(
            doc["choi_im"], dtype=float
        )
        kraus = None
        if "kraus" in doc:
            kraus = [
                np.asarray(k["re"], dtype=float) + 1j * np.asarray(k["im"], dtype=float)
                for k in doc["kraus"]
            ]
    except (KeyError, TypeError) as exc:
        raise ValueError(f"malformed channel document: {exc}") from exc
    ch = QuantumChannel(din, dout, choi, kraus)
    validate_channel(ch)
    return ch


def load_channel(path) -> QuantumChannel:
    with open(path, encoding="utf-8") as fh:
        return channel_from_json(fh.read())

"""Coherence quantifiers that are monotone under dephasing-covariant and
input-tailored dephasing-covariant channels.

One generator, `_family`, defines the family that `monotone_report` reports
and `_certificate` decides with. All logarithms are base 2; values are in bits.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .states import PREFIX_SLACK, RANK_RTOL, coherence_distribution, density, l1_norm

DEFAULT_ALPHAS = (0.0, 0.5, 1.0, 1.5, 2.0)


@dataclass
class MonotoneReport:
    r_delta: float
    rel_entropy_bits: float
    renyi: list[tuple[float, float]]
    l1: float
    c_k: list[tuple[int, float]]


def _diag_power(rho, s: float, floor: float) -> np.ndarray:
    """diag(rho)^s on the populations p > floor (dephase(rho)'s support), zero off it."""
    p = rho.diagonal().real
    keep = p > floor
    return np.where(keep, p, 1.0) ** s * keep


def _entropy_bits(w) -> float:
    return float(-np.sum(w * np.log2(w)))


def _family(state, spectrum, alphas, floor: float = RANK_RTOL):
    """(name, value) pairs of a Density in certificate order: r_delta from its
    ascending coherence spectrum (read at the same floor), renyi_alpha for
    each alpha, l1. Each is computed when asked for; none decomposes a matrix."""
    yield "r_delta", max(float(spectrum[-1]) - 1.0, 0.0)
    yield from _renyi_family(state, alphas, floor) if alphas else ()
    yield "l1", l1_norm(state)


def _readings(state, spectrum, alphas):
    """(name, least, greatest) of each `_family` member of a Density over two readings of a
    population in (tiny, RANK_RTOL], which may be real or rounding noise: cut at RANK_RTOL, as
    every report reads it, and kept down to the smallest normal double, where p^-1 is finite."""
    cut = _family(state, spectrum, alphas)
    p = state.rho.diagonal().real.tolist()
    tiny = np.finfo(float).tiny
    if all((x > RANK_RTOL) == (x > tiny) for x in p):
        return ((name, v, v) for name, v in cut)
    kept = _family(state, np.linalg.eigvalsh(_coherence_matrix(state.rho, tiny)), alphas, tiny)
    return ((name, min(a, b), max(a, b)) for (name, a), (_, b) in zip(cut, kept))


def _certificate(state, target, spectra):
    """(name, v_in, v_out) of the first member whose least reading on target
    (`_readings`) exceeds its greatest on state by more than PREFIX_SLACK, or None.
    A qubit pair reads no Renyi member, as r_delta and l1 decide it; others all but l1."""
    alphas = () if state.rho.shape == target.rho.shape == (2, 2) else DEFAULT_ALPHAS
    for (name, _, v_in), (_, v_out, _) in zip(_readings(state, spectra[0], alphas),
                                              _readings(target, spectra[1], alphas)):
        if (name != "l1" or not alphas) and v_out > v_in + PREFIX_SLACK:
            return name, v_in, v_out
    return None


def _coherence_matrix(rho, floor: float = RANK_RTOL) -> np.ndarray:
    """The coherence matrix D^{-1/2} rho D^{-1/2} of a validated rho, D =
    dephase(rho) pseudo-inverted on its support (`_diag_power`'s). D is
    diagonal, so this only rescales the entries of rho."""
    q = _diag_power(rho, -0.5, floor)
    return q[:, None] * rho * q[None, :]


def _coherence_spectrum(rho) -> np.ndarray:
    """Eigenvalues of the coherence matrix (`_coherence_matrix`), ascending;
    the largest is r_delta + 1."""
    return np.linalg.eigvalsh(_coherence_matrix(rho))


def _coherence_eigh(rho):
    """The coherence spectrum lam, ascending, from one eigh of the coherence
    matrix, and each eigenvector's weight on dephase(rho),
    q_i = sum_x p_x |W_xi|^2 with p = diag(rho); the q_i sum to one."""
    lam, vecs = np.linalg.eigh(_coherence_matrix(rho))
    return lam, rho.diagonal().real @ np.abs(vecs) ** 2


def _renyi_family(state, alphas, floor: float = RANK_RTOL):
    """("renyi_alpha", D_alpha(rho || dephase(rho))) for each alpha, from the
    support eigenpairs of a Density, rho = sum_k w_k v_k v_k^dag. With p = diag(rho),

        Tr rho^alpha dephase(rho)^(1-alpha) = sum_k w_k^alpha sum_x |v_xk|^2 p_x^(1-alpha),

    which at alpha = 0 is Tr(Pi_rho dephase(rho)), the zero-error yield; the
    alpha -> 1 limit is S(p) - S(w).
    """
    rho, w = state.rho, state.w
    weights = np.abs(state.v) ** 2
    for alpha in alphas:
        if alpha == 1.0:
            # both spectra on the support: w is, and p is cut at floor as _diag_power cuts it
            p = rho.diagonal().real
            p = p[p > floor]
            yield f"renyi_{alpha}", max(_entropy_bits(p) - _entropy_bits(w), 0.0)
        else:
            trace = float(w**alpha @ (_diag_power(rho, 1.0 - alpha, floor) @ weights))
            # + 0.0 turns the -0.0 of log2(1) / (alpha - 1) for alpha < 1 into 0.0
            yield f"renyi_{alpha}", math.log2(trace) / (alpha - 1.0) + 0.0


def r_delta(rho) -> float:
    """Max-relative-entropy monotone min{lambda : rho <= (1+lambda) dephase(rho)}:
    the largest eigenvalue of the coherence matrix (`_coherence_spectrum`) minus one."""
    state = density(rho)
    return next(_family(state, _coherence_spectrum(state.rho), ()))[1]


def rel_entropy_coherence(rho) -> float:
    """Relative entropy of coherence S(dephase(rho)) - S(rho), in bits."""
    return renyi_relative(rho, 1.0)


def renyi_relative(rho, alpha: float) -> float:
    """Petz-Renyi relative entropy D_alpha(rho || dephase(rho)) in bits, for
    alpha in [0, 2] (where it is data-processing monotone; others are
    rejected). alpha = 1 is the relative entropy of coherence."""
    if not 0.0 <= alpha <= 2.0:
        raise ValueError(f"alpha must be in [0, 2], got {alpha}")
    return next(_renyi_family(density(rho), (alpha,)))[1]


def c_k_monotone(psi, k: int) -> float:
    """Tail sum of the sorted coherence distribution from position k (1-based)."""
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    p = np.sort(coherence_distribution(psi))[::-1]
    return float(np.sum(p[k - 1:]))


def monotone_report(rho) -> MonotoneReport:
    """Evaluate the full monotone family on a state.

    This is a necessary-conditions family only: no finite set of monotones
    is known to fully characterize input-tailored transformations. A pure
    state (rank one after the rank cut) also reports the tail sum c_2 of its
    coherence distribution diag(rho), from the amplitude moduli sqrt(rho_xx).
    """
    state = density(rho)
    values = dict(_family(state, _coherence_spectrum(state.rho), DEFAULT_ALPHAS))
    pure = state.w.size == 1
    return MonotoneReport(
        r_delta=values["r_delta"],
        rel_entropy_bits=values["renyi_1.0"],
        renyi=[(a, values[f"renyi_{a}"]) for a in DEFAULT_ALPHAS],
        l1=values["l1"],
        c_k=[(2, c_k_monotone(np.sqrt(state.rho.diagonal().real), 2))] if pure else [],
    )

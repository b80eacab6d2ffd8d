"""Vector majorization machinery and pure-state transformation deciders.

A pure state can be converted to another under dephasing-covariant
operations exactly when the output coherence distribution majorizes the
input one; the deciders here work on the squared-moduli distributions.
"""

from __future__ import annotations

import numpy as np

from .states import PROB_CLAMP, coherence_distribution, max_coherent, prob_vector

# Absolute slack on prefix-sum comparisons so exact boundary equalities
# pass in floating point.
PREFIX_SLACK = 1e-9


def _pad_pair(q, p) -> tuple[np.ndarray, np.ndarray]:
    """q and p validated as probability vectors and zero-padded to one length."""
    p, q = prob_vector(p), prob_vector(q)
    d = max(len(p), len(q))
    return np.pad(q, (0, d - len(q))), np.pad(p, (0, d - len(p)))


def _failing_prefix(q, p) -> int | None:
    """The first k (1-based) at which the prefix sum of p^down exceeds q^down's
    by more than PREFIX_SLACK, or None when q majorizes p; both come from `_pad_pair`."""
    cp, cq = (np.cumsum(np.sort(x)[::-1]) for x in (p, q))
    fails = ~(cp <= cq + PREFIX_SLACK)
    return int(np.argmax(fails)) + 1 if fails.any() else None


def majorizes(q, p) -> bool:
    """True iff p is majorized by q (every prefix sum of p^down <= q^down)."""
    return _failing_prefix(*_pad_pair(q, p)) is None


def dio_pure_decide(psi, phi) -> bool:
    """Decide the deterministic pure-state transformation psi -> phi."""
    return majorizes(coherence_distribution(phi), coherence_distribution(psi))


def dio_to_maxcoherent_decide(psi, m: int) -> bool:
    """Decide psi -> Psi_m: possible iff max_x |psi_x|^2 <= 1/m."""
    return dio_pure_decide(psi, max_coherent(m))


def heralded_decide(psi, ensemble) -> bool:
    """Decide the heralded transformation psi -> {(eta_j, phi_j)}.

    Each target distribution is sorted non-increasing *before* mixing;
    mixing first and sorting afterwards is a different (wrong) condition.
    """
    etas = np.asarray([eta for eta, _ in ensemble], dtype=float)
    prob_vector(etas)  # validates eta_j >= 0, sum 1
    p = coherence_distribution(psi)
    dists = [np.sort(coherence_distribution(phi))[::-1] for _, phi in ensemble]
    d = max(len(qj) for qj in dists)
    mix = sum(eta * np.pad(qj, (0, d - len(qj))) for eta, qj in zip(etas, dists))
    return majorizes(mix, p)


def build_witness(q, p) -> np.ndarray:
    """Construct a bistochastic T with T q = p, certifying p majorized by q,
    via a chain of T-transforms.

    Uses the Hardy-Littlewood-Polya construction on the sorted vectors:
    each step mixes the first still-unresolved coordinate where the source
    exceeds the target with the next one where it falls short, fixing at
    least one coordinate, so at most d-1 factors are needed.
    """
    q, p = _pad_pair(q, p)
    if (k := _failing_prefix(q, p)) is not None:
        raise ValueError(f"q does not majorize p: prefix sum {k} fails")
    perm_q, perm_p = (np.argsort(-x, kind="stable") for x in (q, p))
    cur, ps = q[perm_q], p[perm_p]

    total = np.eye(len(p))
    for _ in range(len(p)):
        diff = cur - ps
        pos = np.flatnonzero(diff > PROB_CLAMP)
        neg = np.flatnonzero(diff < -PROB_CLAMP)
        if pos.size == 0 or neg.size == 0:
            break
        # First positive mismatch precedes the first negative one whenever
        # the sorted vectors satisfy the majorization precondition.
        j = int(pos[0])
        k = int(neg[neg > j][0])
        delta = min(cur[j] - ps[j], ps[k] - cur[k])
        lam = 1.0 - delta / (cur[j] - cur[k])
        # the T-transform lam 1 + (1 - lam) swap(j, k) moves delta from cur[j] to cur[k]
        cur[[j, k]] += (-delta, delta)
        rows = total[[j, k]]
        total[[j, k]] = lam * rows + (1.0 - lam) * rows[::-1]

    # Undo the sorting permutations: T[perm_p[i], perm_q[l]] = total[i, l].
    t = np.empty_like(total)
    t[np.ix_(perm_p, perm_q)] = total
    return t

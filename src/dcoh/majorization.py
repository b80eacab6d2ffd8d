"""Vector majorization machinery and pure-state transformation deciders.

A pure state can be converted to another under dephasing-covariant
operations exactly when the output coherence distribution majorizes the
input one; the deciders here work on the squared-moduli distributions.
"""

from __future__ import annotations

import numpy as np

from .states import PROB_CLAMP, coherence_distribution, prob_vector

# Absolute slack on prefix-sum comparisons so exact boundary equalities
# pass in floating point.
PREFIX_SLACK = 1e-9


def _pad_pair(p, q) -> tuple[np.ndarray, np.ndarray]:
    d = max(len(p), len(q))
    return (
        np.pad(np.asarray(p, dtype=float), (0, d - len(p))),
        np.pad(np.asarray(q, dtype=float), (0, d - len(q))),
    )


def _failing_prefix(q, p) -> int | None:
    """The first k (1-based) at which the prefix sum of p^down exceeds q^down's
    by more than PREFIX_SLACK, or None when q majorizes p."""
    p, q = _pad_pair(prob_vector(p), prob_vector(q))
    cp = np.cumsum(np.sort(p)[::-1])
    cq = np.cumsum(np.sort(q)[::-1])
    fails = ~(cp <= cq + PREFIX_SLACK)
    return int(np.argmax(fails)) + 1 if fails.any() else None


def majorizes(q, p) -> bool:
    """True iff p is majorized by q (every prefix sum of p^down <= q^down)."""
    return _failing_prefix(q, p) is None


def dio_pure_decide(psi, phi) -> bool:
    """Decide the deterministic pure-state transformation psi -> phi."""
    return majorizes(coherence_distribution(phi), coherence_distribution(psi))


def dio_to_maxcoherent_decide(psi, m: int) -> bool:
    """Decide psi -> Psi_m: possible iff max_x |psi_x|^2 <= 1/m."""
    if m < 1:
        raise ValueError(f"m must be positive, got {m}")
    p = coherence_distribution(psi)
    return bool(np.max(p) <= 1.0 / m + PREFIX_SLACK)


def heralded_decide(psi, ensemble) -> bool:
    """Decide the heralded transformation psi -> {(eta_j, phi_j)}.

    Each target distribution is sorted non-increasing *before* mixing;
    mixing first and sorting afterwards is a different (wrong) condition.
    """
    etas = np.asarray([eta for eta, _ in ensemble], dtype=float)
    prob_vector(etas)  # validates eta_j >= 0, sum 1
    p = coherence_distribution(psi)
    dists = [coherence_distribution(phi) for _, phi in ensemble]
    d = max([len(p)] + [len(qj) for qj in dists])
    mix = np.zeros(d)
    for eta, qj in zip(etas, dists):
        qj = np.pad(qj, (0, d - len(qj)))
        mix += eta * np.sort(qj)[::-1]
    return majorizes(mix, np.pad(p, (0, d - len(p))))


def _t_transform(d: int, j: int, k: int, lam: float) -> np.ndarray:
    t = np.eye(d)
    t[j, j] = t[k, k] = lam
    t[j, k] = t[k, j] = 1.0 - lam
    return t


def build_witness(q, p) -> np.ndarray:
    """Construct a bistochastic T with T q = p, certifying p majorized by q,
    via a chain of T-transforms.

    Uses the Hardy-Littlewood-Polya construction on the sorted vectors:
    each step mixes the first still-unresolved coordinate where the source
    exceeds the target with the next one where it falls short, fixing at
    least one coordinate, so at most d-1 factors are needed.
    """
    p, q = _pad_pair(prob_vector(p), prob_vector(q))
    if (k := _failing_prefix(q, p)) is not None:
        raise ValueError(f"q does not majorize p: prefix sum {k} fails")
    d = len(p)
    perm_q = np.argsort(-q, kind="stable")
    perm_p = np.argsort(-p, kind="stable")
    qs = q[perm_q]
    ps = p[perm_p]

    total = np.eye(d)
    cur = qs.copy()
    for _ in range(d):
        diff = cur - ps
        pos = np.where(diff > PROB_CLAMP)[0]
        neg = np.where(diff < -PROB_CLAMP)[0]
        if pos.size == 0 or neg.size == 0:
            break
        # First positive mismatch precedes the first negative one whenever
        # the sorted vectors satisfy the majorization precondition.
        j = int(pos[0])
        k = int(neg[neg > j][0])
        delta = min(cur[j] - ps[j], ps[k] - cur[k])
        lam = 1.0 - delta / (cur[j] - cur[k])
        t = _t_transform(d, j, k, lam)
        cur = t @ cur
        total = t @ total

    # Undo the sorting permutations: p = P_p^T total P_q q.
    pq = np.eye(d)[perm_q]          # pq @ q = qs
    pp = np.eye(d)[perm_p]          # pp @ p = ps
    return pp.T @ total @ pq

"""Small-dimension feasibility oracle for input-tailored dephasing-covariant
transformations.

Decides existence of a CPTP map with Lambda(rho) = sigma and
Lambda(dephase(rho)) = dephase(sigma) (the second constraint is the
covariance condition, forced into this affine form by the first) by
Douglas-Rachford splitting on the Choi operator between the PSD cone and the
affine constraint set, whose projection is a closed-form two-sided product
once the Choi operator is realigned. Each iteration has two candidate points:
the PSD iterate y, which meets the constraints only in the limit, and the
affine point a = P_A(2y - z), which meets them to rounding and is PSD once
the iterates reach the interior of the feasible set. One rule accepts either:
a PSD candidate (y by construction, a when Cholesky factors the Hermitian
matrix of its lower triangle) whose own constraint residual is within
TRACE_ATOL stops the search, and it is the witness once it also passes
`is_rho_dio` and maps rho to sigma within DIO_ATOL. A positive-definite Choi
operator maps rho to a full-rank state, so for a rank-deficient sigma only y
is tried. Projection splitting cannot certify infeasibility: a "no" is
`monotones._certificate`, the rule `qubit_decide` reads too, and
non-convergence is an honest "undetermined".

Before any iteration the testing curves h_X(t) = Tr(X - t dephase(X))_+
are compared. Such a map takes rho - t dephase(rho) to
sigma - t dephase(sigma) and contracts the trace norm, so h_sigma <= h_rho
for every t >= 0 (relative majorization; sufficient for qubits). A t at
which h_sigma rises above h_rho by more than PREFIX_SLACK proves that no
witness exists: the verdict stays "undetermined", carries that point as
`separation`, and runs no iteration. An unseparated noisy orbit,
sigma = (1 - p) U rho U^dag + p D (U a permutation times phases, D diagonal),
takes Q -> (1 - p) U Q U^dag + p Tr(Q) D with no iteration; U = 1 and p = 0
for a pair equal within HERM_ATOL.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .channels import QuantumChannel, apply, is_rho_dio
from .monotones import _certificate, _coherence_spectrum
from .states import DIO_ATOL, HERM_ATOL, PREFIX_SLACK, PROB_CLAMP, TRACE_ATOL, dephase, density

DEFAULT_MAX_ITERS = 5000
RESIDUAL_CHECKPOINTS = (1, 10, 100, 1000)


@dataclass
class FeasibilityVerdict:
    status: str  # "feasible" | "infeasible-certified" | "undetermined"
    witness: QuantumChannel | None
    certificate: tuple[str, float, float] | None
    # the returned candidate's violation of the constraints (the images of rho
    # and dephase(rho), the partial-trace defect), inf when there is none; at
    # most TRACE_ATOL for a witness, which bounds its trace defect and image
    # error (twice it, the covariance violation)
    residual: float
    iterations: int
    # (iteration, residual) at RESIDUAL_CHECKPOINTS and at the last iteration
    residual_checkpoints: tuple[tuple[int, float], ...]
    # (t, h_rho(t), h_sigma(t)) where sigma's testing curve rises above rho's;
    # None when the curves did not separate
    separation: tuple[float, float, float] | None = None


def _is_witness(channel, state, sigma) -> bool:
    """Whether a channel is covariant on rho and takes it to sigma within DIO_ATOL."""
    image_error = float(np.linalg.norm(apply(channel, state.rho) - sigma))
    return is_rho_dio(channel, state)[0] and image_error <= DIO_ATOL


def _testing_curve(x, t) -> np.ndarray:
    """h_x(t) = Tr(x - t dephase(x))_+ of a validated x at each t, from one
    stacked eigvalsh."""
    pencil = x - t[:, None, None] * dephase(x)
    return np.maximum(np.linalg.eigvalsh(pencil), 0.0).sum(axis=1)


def _curve_separation(rho, sigma, spectra):
    """(t, h_rho(t), h_sigma(t)) at the t where h_sigma rises most above h_rho,
    when by more than PREFIX_SLACK, else None (both validated). The t are the
    kinks of both curves, where x - t dephase(x) is singular (the coherence
    spectra of rho and sigma, as given), and the midpoints between consecutive
    kinks; below the first kink both curves are 1 - t, past the last both are 0."""
    kinks = np.unique(np.concatenate(spectra))
    t = np.concatenate([kinks, (kinks[1:] + kinks[:-1]) / 2])
    h_rho, h_sigma = _testing_curve(rho, t), _testing_curve(sigma, t)
    k = int(np.argmax(h_sigma - h_rho))
    if h_sigma[k] > h_rho[k] + PREFIX_SLACK:
        return float(t[k]), float(h_rho[k]), float(h_sigma[k])
    return None


def _affine_set(rho, sigma):
    """The constraint set on the realigned M[(x,y),(a,b)] = J[(x,a),(y,b)],
    where vec Lambda(Q) = vec(Q)^T M, as (left, right, p, x, image, e, c).

    The image constraints act on the left, x M = image (rows vec rho,
    vec dephase(rho) and vec sigma, vec dephase(sigma)), trace preservation
    on the right, M e = c (e = vec 1_out, c = vec 1_in). The projection is
    M -> left M right + p for two orthogonal projectors and a point p.
    """
    din, dout = rho.shape[0], sigma.shape[0]
    x, image, e, c = _constraints(rho, sigma)
    # X^+ through the 2x2 Gram, which is singular when rho is incoherent
    b = x.conj().T @ np.linalg.pinv(x @ x.conj().T, hermitian=True)
    left = np.eye(din * din) - b @ x
    right = np.eye(dout * dout) - np.outer(e, e) / dout
    # a point of the set, fixed by the projection: left B = 0 and e^T right = 0
    p = b @ image + np.outer(left @ c, e) / dout
    return left, right, p, x, image, e, c


def _constraints(rho, sigma):
    """(x, image, e, c) of the constraints x M = image and M e = c on the realigned M."""
    x, image = (np.stack([s.reshape(-1), dephase(s).reshape(-1)]) for s in (rho, sigma))
    e, c = (np.eye(s.shape[0], dtype=complex).reshape(-1) for s in (sigma, rho))
    return x, image, e, c


def _constraint_residual(m, x, image, e, c) -> float:
    """The 2-norm of the violation of x M = image and M e = c (realigned M)."""
    r_image, r_trace = x.dot(m) - image, m.dot(e) - c
    return math.sqrt((np.vdot(r_image, r_image) + np.vdot(r_trace, r_trace)).real)


def _positive_definite(j) -> bool:
    """Whether Cholesky factors the Hermitian matrix of j's lower triangle."""
    try:
        np.linalg.cholesky(j)
    except np.linalg.LinAlgError:
        return False
    return True


def _noisy_orbit(state, target) -> FeasibilityVerdict | None:
    """The orbit witness of a validated pair, or None. U = 1, p = 0 for a pair
    equal within HERM_ATOL; else 1 - p = |offdiag sigma|_F / |offdiag rho|_F
    (at most 1), each row of sigma matches the one row of rho whose sorted
    off-diagonal moduli, times 1 - p, are within HERM_ATOL of its own, and
    the phases are read along a maximum spanning tree of rho's coherences.
    p = 0 when U rho U^dag alone passes the gate (sigma within HERM_ATOL of
    the image in every entry); else p D = diag sigma - (1 - p) diag U rho U^dag
    with its dust above -PROB_CLAMP clipped to 0."""
    rho, sigma = state.rho, target.rho
    d, q, u = rho.shape[0], 1.0, np.eye(rho.shape[0])
    if np.abs(rho - sigma).max() > HERM_ATOL:
        off = ~np.eye(d, dtype=bool)
        a, b = (np.sort(np.abs(s[off]).reshape(d, d - 1), axis=1) for s in (rho, sigma))
        q = min(float(np.linalg.norm(b) / np.linalg.norm(a)), 1.0) if a.any() else 0.0
        match = (np.abs(b[:, None] - q * a) <= HERM_ATOL).all(axis=2)
        if not ((match.sum(axis=0) == 1).all() and (match.sum(axis=1) == 1).all()):
            return None  # a tie, or a row of sigma that no row of rho matches
        perm = match.argmax(axis=1)
        r, phase, seen = rho[np.ix_(perm, perm)], np.ones(d, dtype=complex), np.arange(d) == 0
        for _ in range(d - 1):  # Prim's step: the largest coherence leaving the tree
            leaving = np.where(seen[:, None] & ~seen, abs(r), -1.0)
            x, y = np.unravel_index(np.argmax(leaving), r.shape)
            z = phase[x] * sigma[x, y].conjugate() * r[x, y]  # q |r_xy|^2 e^{i theta_y}
            phase[y], seen[y] = (z / abs(z) if z else 1.0), True
        u = phase[:, None] * np.eye(d)[perm]
    image = u @ rho @ u.conj().T
    if np.abs(sigma - image).max() <= HERM_ATOL:
        q = 1.0  # a p of rounding size is 0
    noise = sigma.diagonal().real - q * image.diagonal().real if q < 1.0 else np.zeros(d)
    image = q * image + np.diag(noise.clip(0.0))
    if noise.min() < -PROB_CLAMP or np.abs(sigma - image).max() > HERM_ATOL:
        return None
    # noise is p D; (1 - p) |v><v| + p 1 (x) D, v = sum_x |x> (x) U|x>, is PSD
    v = u.T.reshape(-1)
    choi = q * np.outer(v, v.conj()) + np.kron(np.eye(d), np.diag(noise.clip(0.0)))
    m = choi.reshape(d, d, d, d).swapaxes(1, 2).reshape(d * d, -1)
    residual = _constraint_residual(m, *_constraints(rho, sigma))
    witness = QuantumChannel(d, d, choi)
    if residual <= TRACE_ATOL and _is_witness(witness, state, sigma):
        return FeasibilityVerdict("feasible", witness, None, residual, 0, ())
    return None


def rho_dio_feasible(rho, sigma, max_iters: int = DEFAULT_MAX_ITERS) -> FeasibilityVerdict:
    """Decide existence of a covariant channel taking rho to sigma.

    The monotone family (cheap and sound), then the testing curves: a
    separation rules out every witness, so no iteration runs, nor with a zero
    budget. Next the noisy-orbit stage, then Douglas-Rachford iterations
    search for a witness Choi operator. The residual is that of the last PSD
    iterate, of the positive-definite affine point that stopped the search
    (about 1e-15), or of the orbit witness (0.0 on an exact equal pair).
    """
    if max_iters < 0:
        raise ValueError(f"max_iters must be >= 0, got {max_iters}")
    state, target = density(rho), density(sigma)
    rho, sigma = state.rho, target.rho

    spectra = _coherence_spectrum(rho), _coherence_spectrum(sigma)
    cert = _certificate(state, target, spectra)
    if cert is not None:
        return FeasibilityVerdict("infeasible-certified", None, cert, float("inf"), 0, ())
    separation = _curve_separation(rho, sigma, spectra)
    if separation is not None or max_iters == 0:
        return FeasibilityVerdict("undetermined", None, None, float("inf"), 0, (), separation)
    # after the checks above, which can separate a pair equal within HERM_ATOL
    # (a 1e-10 coherence between 1e-9 populations lifts r_delta by 0.045)
    if rho.shape == sigma.shape and (orbit := _noisy_orbit(state, target)) is not None:
        return orbit

    din, dout = rho.shape[0], sigma.shape[0]
    n = din * dout
    left, right, p, x, image, e, c = _affine_set(rho, sigma)
    # z and y stay realigned; flat positions take J to M and M back to J
    to_m = np.arange(n * n).reshape(din, dout, din, dout).swapaxes(1, 2).reshape(din * din, -1)
    to_j = np.arange(n * n).reshape(din, din, dout, dout).swapaxes(1, 2).reshape(n, n)
    # start from the constant channel Q -> Tr(Q) sigma, realigned: M = vec(1_in) vec(sigma)^T
    z = left @ np.outer(c, sigma.reshape(-1)) @ right + p

    # a positive-definite Choi operator maps rho to a full-rank state
    full_rank = target.w.size == dout
    checkpoints = []
    for iters in range(1, max_iters + 1):
        # PSD projection: eigh reads the lower triangle of the Choi iterate,
        # which is Hermitian up to rounding. `.dot` and `np.maximum` give the
        # same numbers as `@` and `clip` with less call overhead, most of
        # their cost at these sizes
        w, v = np.linalg.eigh(z.ravel()[to_j])
        choi = (v * np.maximum(w, 0.0)).dot(v.conj().T)
        y = choi.ravel()[to_m]
        residual = _constraint_residual(y, x, image, e, c)
        if residual <= TRACE_ATOL or iters == max_iters:
            break
        # reflect through the PSD point and project onto the affine set
        a = left.dot(2.0 * y - z).dot(right) + p
        if full_rank:
            # any u with u^dag a u <= 0 shows that a is not positive definite;
            # z's least eigenvector is one on nearly every iteration that ends
            # no run, and costs one product where Cholesky costs a call
            j, u = a.ravel()[to_j], v[:, 0]
            if np.vdot(u, j.dot(u)).real > 0.0 and _positive_definite(j):
                herm = np.tril(j) + np.tril(j, -1).conj().T
                r_affine = _constraint_residual(herm.ravel()[to_m], x, image, e, c)
                if r_affine <= TRACE_ATOL:
                    choi, residual = herm, r_affine
                    break
        if iters in RESIDUAL_CHECKPOINTS:
            checkpoints.append((iters, residual))
        z += a - y
    checkpoints = (*checkpoints, (iters, residual))

    witness = QuantumChannel(din, dout, choi)
    if residual <= TRACE_ATOL and _is_witness(witness, state, sigma):
        return FeasibilityVerdict("feasible", witness, None, residual, iters, checkpoints)

    return FeasibilityVerdict("undetermined", None, None, residual, iters, checkpoints)

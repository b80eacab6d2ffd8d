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
non-convergence is an honest "undetermined". An unseparated pair equal
within HERM_ATOL takes the identity.

Before any iteration the testing curves h_X(t) = Tr(X - t dephase(X))_+
are compared. Such a map takes rho - t dephase(rho) to
sigma - t dephase(sigma) and contracts the trace norm, so h_sigma <= h_rho
for every t >= 0 (relative majorization; sufficient for qubits). A t at
which h_sigma rises above h_rho by more than PREFIX_SLACK proves that no
witness exists: the verdict stays "undetermined", carries that point as
`separation`, and runs no iteration.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .channels import DIO_ATOL, QuantumChannel, apply, channel_from_kraus, is_rho_dio
from .linalg import HERM_ATOL
from .majorization import PREFIX_SLACK
from .monotones import _certificate, _coherence_spectrum
from .states import TRACE_ATOL, dephase, density

DEFAULT_MAX_ITERS = 5000
RESIDUAL_CHECKPOINTS = (1, 10, 100, 1000)


@dataclass
class FeasibilityVerdict:
    status: str  # "feasible" | "infeasible-certified" | "undetermined"
    witness: QuantumChannel | None
    certificate: tuple[str, float, float] | None
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
    x = np.stack([rho.reshape(-1), dephase(rho).reshape(-1)])
    image = np.stack([sigma.reshape(-1), dephase(sigma).reshape(-1)])
    e = np.eye(dout, dtype=complex).reshape(-1)
    c = np.eye(din, dtype=complex).reshape(-1)
    # X^+ through the 2x2 Gram, which is singular when rho is incoherent
    b = x.conj().T @ np.linalg.pinv(x @ x.conj().T, hermitian=True)
    left = np.eye(din * din) - b @ x
    right = np.eye(dout * dout) - np.outer(e, e) / dout
    # a point of the set, fixed by the projection: left B = 0 and e^T right = 0
    p = b @ image + np.outer(left @ c, e) / dout
    return left, right, p, x, image, e, c


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


def rho_dio_feasible(rho, sigma, max_iters: int = DEFAULT_MAX_ITERS) -> FeasibilityVerdict:
    """Decide existence of a covariant channel taking rho to sigma.

    The monotone family (cheap and sound), then the testing curves: a
    separation rules out every witness, so no iteration runs, nor with a zero
    budget. Next a pair equal within HERM_ATOL tries the identity channel, and
    Douglas-Rachford iterations search for a witness Choi operator. The
    reported residual is the constraint violation of the returned candidate:
    the last PSD iterate, the positive-definite affine point that stopped the
    search (about 1e-15), or the identity (0.0 on an exact pair); inf for every
    other verdict that ran no iteration. A witness has at most TRACE_ATOL,
    which bounds its trace defect and image error (twice it, the covariance
    violation).
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
    if rho.shape == sigma.shape and np.abs(rho - sigma).max() <= HERM_ATOL:
        # equal within HERM_ATOL, yet the checks above can separate such a pair
        # (a 1e-10 coherence between 1e-9 populations lifts r_delta by 0.045)
        identity = channel_from_kraus([np.eye(rho.shape[0])])
        if _is_witness(identity, state, sigma):
            residual = float(np.linalg.norm([rho - sigma, dephase(rho - sigma)]))
            return FeasibilityVerdict("feasible", identity, None, residual, 0, ())

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

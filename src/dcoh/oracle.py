"""Small-dimension feasibility oracle for input-tailored dephasing-covariant
transformations.

Decides existence of a CPTP map with Lambda(rho) = sigma and
Lambda(dephase(rho)) = dephase(sigma) (the second constraint is the
covariance condition, forced into this affine form by the first) by
Douglas-Rachford splitting on the Choi operator between the PSD cone and
the affine constraint set. Projection splitting cannot certify
infeasibility, so non-convergence falls back to monotone certificates and,
failing those, an honest "undetermined".
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .channels import QuantumChannel, apply, is_rho_dio, measure_prepare
from .monotones import r_delta, renyi_relative
from .states import check_density, dephase, l1_norm

DEFAULT_MAX_ITERS = 5000
DEFAULT_RESIDUAL_TOL = 1e-7
CERT_MARGIN = 1e-7

_CERT_MONOTONES = [
    ("r_delta", r_delta),
    ("renyi_0.0", lambda s: renyi_relative(s, 0.0)),
    ("renyi_0.5", lambda s: renyi_relative(s, 0.5)),
    ("renyi_1.0", lambda s: renyi_relative(s, 1.0)),
    ("renyi_1.5", lambda s: renyi_relative(s, 1.5)),
    ("renyi_2.0", lambda s: renyi_relative(s, 2.0)),
]


@dataclass
class FeasibilityVerdict:
    status: str  # "feasible" | "infeasible-certified" | "undetermined"
    witness: QuantumChannel | None
    certificate: tuple[str, float, float] | None
    residual: float
    iterations: int


def _monotone_certificate(rho, sigma, margin: float = CERT_MARGIN):
    monotones = list(_CERT_MONOTONES)
    if rho.shape == (2, 2) and sigma.shape == (2, 2):
        monotones.append(("l1", l1_norm))
    for name, fn in monotones:
        v_in, v_out = fn(rho), fn(sigma)
        if v_out > v_in + margin:
            return name, v_in, v_out
    return None


def _kron(a, b):
    """Kronecker product a (x) b, batched over leading axes, in the Choi
    layout (d_in, d_out, d_in, d_out)."""
    return a[..., :, None, :, None] * b[..., None, :, None, :]


def _constraint_system(rho, sigma):
    """Stacked linear operator L with L vec(J) = b encoding trace
    preservation, Lambda(rho) = sigma and Lambda(dephase(rho)) = dephase(sigma)."""
    din = rho.shape[0]
    dout = sigma.shape[0]
    units_in = np.eye(din * din).reshape(-1, din, din)
    units_out = np.eye(dout * dout).reshape(-1, dout, dout)
    # Tr_out J = 1 and Tr_in[(X^T (x) 1) J] = Y, one row per matrix unit E_ab
    rows = np.concatenate(
        [_kron(units_in, np.eye(dout)), _kron(rho, units_out), _kron(dephase(rho), units_out)]
    )
    rhs = np.concatenate([y.reshape(-1) for y in (np.eye(din), sigma, dephase(sigma))])
    return rows.reshape(len(rows), -1), rhs.astype(complex)


def _project_psd(j):
    j = (j + j.conj().T) / 2
    w, v = np.linalg.eigh(j)
    w = np.clip(w, 0.0, None)
    return (v * w) @ v.conj().T


def rho_dio_feasible(
    rho,
    sigma,
    max_iters: int = DEFAULT_MAX_ITERS,
    residual_tol: float = DEFAULT_RESIDUAL_TOL,
) -> FeasibilityVerdict:
    """Decide existence of a covariant channel taking rho to sigma.

    Monotone certificates are evaluated first (they are cheap and sound);
    otherwise Douglas-Rachford iterations search for a witness Choi
    operator. The reported residual is the constraint violation of the
    PSD shadow iterate, so a small residual means an almost-exact witness.
    """
    rho = check_density(rho)
    sigma = check_density(sigma)

    cert = _monotone_certificate(rho, sigma)
    if cert is not None:
        return FeasibilityVerdict(
            "infeasible-certified", None, cert, float("nan"), 0
        )

    din = rho.shape[0]
    dout = sigma.shape[0]
    n = din * dout
    lmat, b = _constraint_system(rho, sigma)
    lpinv = np.linalg.pinv(lmat)

    def project_affine(vec):
        return vec - lpinv @ (lmat @ vec - b)

    # start from the constant channel Q -> Tr(Q) sigma
    z_vec = project_affine(measure_prepare([(np.eye(din), sigma)]).choi.reshape(-1))

    residual = float("inf")
    y_vec = z_vec
    iters = 0
    for iters in range(1, max_iters + 1):
        y_vec = _project_psd(z_vec.reshape(n, n)).reshape(-1)
        residual = float(np.linalg.norm(lmat @ y_vec - b))
        if residual <= residual_tol:
            break
        z_vec = z_vec + project_affine(2.0 * y_vec - z_vec) - y_vec

    if residual <= residual_tol:
        witness = QuantumChannel(din, dout, y_vec.reshape(n, n))
        ok_rho_dio, _ = is_rho_dio(witness, rho, atol=1e-6)
        image_err = float(np.linalg.norm(apply(witness, rho) - sigma))
        if ok_rho_dio and image_err <= 1e-6:
            return FeasibilityVerdict("feasible", witness, None, residual, iters)

    return FeasibilityVerdict("undetermined", None, None, residual, iters)

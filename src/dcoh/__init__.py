"""Coherence manipulation toolkit for dephasing-covariant operations."""

from .channels import (
    QuantumChannel,
    apply,
    construct_dilute,
    construct_distill,
    construct_prop5,
    is_dio,
    is_rho_dio,
    qubit_decide,
    twirl_channel,
)
from .hypotest import dh_epsilon, distill_fidelity_program
from .majorization import (
    build_witness,
    dio_pure_decide,
    dio_to_maxcoherent_decide,
    heralded_decide,
    majorizes,
)
from .monotones import (
    c_k_monotone,
    monotone_report,
    r_delta,
    rel_entropy_coherence,
    renyi_relative,
)
from .oracle import FeasibilityVerdict, rho_dio_feasible
from .rates import (
    asymptotic_rate,
    dilute_asymptotic,
    dilute_one_shot_bounds,
    dilute_zero_error,
    distill_asymptotic,
    distill_one_shot,
    distill_zero_error,
)
from .states import dephase, fidelity, is_incoherent, l1_norm, max_coherent

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"

"""Test fixtures shared by the test modules: the qutrit example state and
seeded random draws of density matrices and pure states."""

import math

import numpy as np

QUTRIT = np.array([math.sqrt(5.0 / 8.0), math.sqrt(3.0 / 16.0), math.sqrt(3.0 / 16.0)])


def rand_rho(rng, d, rank=None):
    """A random density matrix of the given rank (full rank by default)."""
    rank = d if rank is None else rank
    a = rng.normal(size=(d, rank)) + 1j * rng.normal(size=(d, rank))
    rho = a @ a.conj().T
    return rho / np.trace(rho).real


def rand_pure(rng, d):
    """A random pure state vector."""
    psi = rng.normal(size=d) + 1j * rng.normal(size=d)
    return psi / np.linalg.norm(psi)

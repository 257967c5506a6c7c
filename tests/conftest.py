from __future__ import annotations

import numpy as np
import pytest

from otoclab import spin


@pytest.fixture
def rng():
    return np.random.default_rng(1234)


@pytest.fixture
def small_chain():
    """Three-site nonintegrable chain with edge-site probes."""
    spec = spin.SpinChainSpec(n=3, j=1.0, h=0.5, g=1.05)
    h = spin.ising_hamiltonian(spec)
    w = spin.site_pauli(3, 1, "z")
    v = spin.site_pauli(3, 3, "z")
    rho = np.eye(8, dtype=complex) / 8
    return rho, w, v, h


def random_density(dim: int, rng: np.random.Generator) -> np.ndarray:
    a = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    rho = a @ a.conj().T
    return rho / np.trace(rho).real


def random_hermitian(dim: int, rng: np.random.Generator) -> np.ndarray:
    a = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    return (a + a.conj().T) / 2


@pytest.fixture
def make_density(rng):
    return lambda dim: random_density(dim, rng)


@pytest.fixture
def make_hermitian(rng):
    return lambda dim: random_hermitian(dim, rng)

"""Reference routes that only the tests call, each the most literal
construction of something the package computes another way: the coarse
entries by the lab-frame four-projector trace and by the eight-correlator
expansion, the commutator square, projectors by eigendecomposition, the
dense Brownian increment and step, and Haar unitaries."""
from __future__ import annotations

import math

import numpy as np

from otoclab import brownian, qla, quasiprob, spin


def assert_unitary(u, tol: float = 1e-10) -> np.ndarray:
    m = qla.as_square_array(u)
    defect = qla.unitarity_defect(m)
    if defect > tol:
        raise ValueError(f"matrix is not unitary (defect {defect:.3e} > {tol:.1e})")
    return m


def haar_unitary(dim: int, seed) -> np.ndarray:
    """Haar-distributed unitary via QR of a complex Gaussian matrix."""
    gen = seed if isinstance(seed, np.random.Generator) else np.random.default_rng(seed)
    g = gen.normal(size=(dim, dim)) + 1j * gen.normal(size=(dim, dim))
    q, r = np.linalg.qr(g)
    # absorb the diagonal phases so the distribution is exactly Haar
    d = np.diag(r)
    return q * (d / np.abs(d))


def eigenprojector(o, eigenvalue: float) -> np.ndarray:
    """Projector onto the full degenerate eigenspace of the given eigenvalue."""
    sys = qla.eigh(o)
    sel = np.abs(sys.eigenvalues - eigenvalue) < qla.EIGENVALUE_MATCH_TOL
    if not np.any(sel):
        raise ValueError(f"{eigenvalue} is not in the spectrum")
    cols = sys.eigenvectors[:, sel]
    return cols @ cols.conj().T


def pair_paulis(n: int) -> np.ndarray:
    """Dense expansion of spin.pair_pauli_strings(n), the strings the
    stacked increment uses; sample_increment sums it."""
    return np.array([spin.pauli_matrix(mask, phase)
                     for mask, phase in zip(*spin.pair_pauli_strings(n))])


def sample_increment(config: brownian.BrownianConfig, rng: np.random.Generator,
                     pair_ops: np.ndarray | None = None) -> np.ndarray:
    """One Hermitian Brownian increment dB.

    pair_ops may be passed to reuse the precomputed operator stack across
    steps; it must come from pair_paulis(config.n).
    """
    ops = pair_paulis(config.n) if pair_ops is None else pair_ops
    g = rng.normal(0.0, math.sqrt(config.dt), size=len(ops))
    return brownian.increment_scale(config.n) * np.tensordot(g, ops, axes=(0, 0))


def step_unitary(u: np.ndarray, db: np.ndarray) -> np.ndarray:
    """exp(-i db) u; exactly unitary for Hermitian db."""
    return qla.expm_scaled(db, -1j) @ u


def commutator_square(rho, w_op, v_op, hamiltonian, t: float) -> float:
    """C(t) = <[W(t), V]dag [W(t), V]>; equals 2 - 2 Re F for unitary W, V."""
    quasiprob.check_state(rho, w_op, v_op)
    u = quasiprob.propagator(hamiltonian, t)
    wt = quasiprob.heisenberg(w_op, u)
    comm = wt @ v_op - v_op @ wt
    val = complex(np.trace(rho @ qla.dagger(comm) @ comm))
    return float(val.real)


def coarse_quasiprob(rho, w_op, v_op, hamiltonian, t: float) -> quasiprob.QuasiDistribution:
    """Four-projector trace A~(v1, w2, v2, w3) over every eigenvalue quadruple."""
    quasiprob.check_state(rho, w_op, v_op)
    wt = quasiprob.heisenberg(w_op, quasiprob.propagator(hamiltonian, t))
    w_evs, w_projs = quasiprob._distinct_projectors(wt)
    v_evs, v_projs = quasiprob._distinct_projectors(v_op)
    vals = quasiprob._four_projector_trace(v_projs, w_projs, np.asarray(rho, dtype=complex))
    return quasiprob.QuasiDistribution(values=vals, axis_names=quasiprob.COARSE_AXES,
                                       axis_eigenvalues=(v_evs, w_evs, v_evs, w_evs))


def correlators_for_expansion(rho, w_op, v_op, hamiltonian, t: float) -> dict[str, complex]:
    """Tr(word rho) for the eight words of the four-slot expansion, keyed by
    word ("1", "v", "w", "wv", "vw", "vwv", "wvw", "wvwv"). The words are
    contracted as products of Hermitian letters (quasiprob._word_traces), so
    a non-Hermitian W or V raises ValueError, as in otoc_series."""
    if max(qla.hermiticity_defect(w_op), qla.hermiticity_defect(v_op)) > qla.HERMITIAN_TOL:
        raise ValueError("correlators_for_expansion needs Hermitian W and V")
    wt = quasiprob.heisenberg(w_op, quasiprob.propagator(hamiltonian, t))
    traces = quasiprob._word_traces(np.asarray(rho, dtype=complex),
                                    np.asarray(v_op, dtype=complex), 2)
    return {word: complex(x) for word, x in zip(quasiprob._words(2), traces(wt))}


def coarse_quasiprob_via_correlators(rho, w_op, v_op, hamiltonian,
                                     t: float) -> quasiprob.QuasiDistribution:
    """Coarse distribution assembled from eight correlators.

    Only valid for involutory (Hermitian unitary) W and V, whose projectors
    are (1 +- O)/2. This is the measurement-friendly route: the sixteen
    quasiprobability values collapse onto eight expectation values.
    """
    quasiprob.check_state(rho, w_op, v_op)
    if (not quasiprob._is_hermitian_involution(w_op)
            or not quasiprob._is_hermitian_involution(v_op)):
        raise ValueError("projector expansion needs involutory W and V (eigenvalues +-1)")
    corr = correlators_for_expansion(rho, w_op, v_op, hamiltonian, t)
    values = quasiprob._entries(np.array(list(corr.values())), 2)
    return quasiprob.QuasiDistribution(values=values, axis_names=quasiprob.COARSE_AXES,
                                       axis_eigenvalues=(np.array([-1.0, 1.0]),) * 4)

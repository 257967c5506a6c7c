"""Weak values and quasiprobability-weighted retrodiction.

Given a preparation, a later projective outcome, and a chain of
observables A, ..., K that were never strongly measured in between, the
best symmetric guess for the unmeasured product

    Gamma = K...A + A...K

is its weak value, a sum of eigenvalue tuples weighted by conditional
quasiprobabilities that obey analogs of Bayes' theorem. Two evaluation
routes are provided: building Gamma as an explicit matrix, and a factored
accumulation over eigenvalue tuples by a depth-first walk that keeps only
a stack of partial bra pairs alive, 2kd complex entries for k observables
of dimension d. That grows linearly with the chain length, while the
explicit matrix densifies exponentially for chains of traceless local
operators; a MemoryMeter records the contrast.

The retrodicted out-of-time-ordered correlator is the special case
Gamma = V W(t) V conditioned on the final W(t) outcome, with weights read
directly from the coarse quasiprobability.
"""
from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from . import qla, quasiprob

_CONDITION_FLOOR = 1e-12


class ObservableChain:
    """Ordered observables A, ..., K with their (eigenvalue, projector) pairs.

    spectra[i] lists the distinct eigenvalues of observable i, ascending,
    each with its eigenspace projector; involutions get (1 -+ O)/2 without
    an eigendecomposition.
    """

    def __init__(self, observables):
        mats = [qla.assert_hermitian(o) for o in observables]
        if not mats:
            raise ValueError("chain must contain at least one observable")
        dim = mats[0].shape[0]
        if any(m.shape[0] != dim for m in mats):
            raise ValueError("all chain observables must share one dimension")
        self.observables = mats
        self.spectra = [[(float(ev), proj) for ev, proj in
                         zip(*quasiprob._distinct_projectors(m))] for m in mats]

    def __len__(self) -> int:
        return len(self.observables)

    @property
    def dim(self) -> int:
        return self.observables[0].shape[0]


class RetrodictionContext:
    """Preparation, evolution window, and rank-one post-selection.

    The state evolves for t_prime before the unmeasured chain acts, and
    the final projective outcome happens at t_double_prime; the chain is
    evaluated in the intermediate time slice, so the context stores the
    forward-evolved state rho_prime and the backward-evolved final vector
    f_prime.
    """

    def __init__(self, rho, hamiltonian, t_prime: float, t_double_prime: float,
                 final_observable=None, outcome: float | None = None,
                 final_vector=None):
        if not 0.0 < t_prime < t_double_prime:
            raise ValueError("need 0 < t_prime < t_double_prime")
        h_sys = quasiprob._eigensystem(hamiltonian)
        if final_vector is not None:
            f = np.asarray(final_vector, dtype=complex).reshape(-1)
            if not np.all(np.isfinite(f)):
                raise ValueError("final_vector must be finite")
            norm = np.linalg.norm(f)
            if norm <= 0:
                raise ValueError("final_vector must be nonzero")
            f = f / norm
        else:
            if final_observable is None or outcome is None:
                raise ValueError("pass final_observable with outcome, or final_vector")
            f = _resolved_eigenvector(final_observable, outcome)
        rho = quasiprob.density_matrix(quasiprob.check_state(rho, f, h_sys.eigenvectors), h_sys)
        u_prep = h_sys.propagator(-1j * t_prime)
        self.rho_prime = u_prep @ rho @ u_prep.conj().T
        back = h_sys.propagator(1j * (t_double_prime - t_prime))
        self.f_prime = back @ f
        self.t_prime = t_prime
        self.t_double_prime = t_double_prime
        prob = float(np.real(self.f_prime.conj() @ self.rho_prime @ self.f_prime))
        # NaN and inf fail the range test too
        if not _CONDITION_FLOOR < prob <= 1 + qla.EXACT_TOL:
            raise ValueError(f"conditioning probability is {prob}; weak values undefined")
        self.conditioning_probability = prob


def _resolved_eigenvector(observable, outcome: float) -> np.ndarray:
    sys = qla.eigh(observable)
    group = qla._outcome_group(sys.eigenvalues, outcome)
    if group is None:
        raise ValueError(f"outcome {outcome} is not an eigenvalue of the final observable")
    start, stop = group
    if stop - start != 1:
        raise ValueError("final outcome is degenerate; pass final_vector to resolve it")
    return sys.eigenvectors[:, start]


@dataclass
class MemoryMeter:
    """Counts live complex-number slots in the factored algorithm's own state."""

    live_complex_entries: int = 0
    peak: int = 0

    def allocate(self, count: int):
        if count < 0:
            raise ValueError("allocation count must be nonnegative")
        self.live_complex_entries += count
        self.peak = max(self.peak, self.live_complex_entries)

    def release(self, count: int):
        if count > self.live_complex_entries:
            raise ValueError("releasing more entries than are live")
        self.live_complex_entries -= count


def weak_value(observable, context: RetrodictionContext) -> float:
    """Re(<f'|A rho'|f'>) / <f'|rho'|f'>."""
    a = qla.assert_hermitian(observable)
    f = context.f_prime
    num = f.conj() @ a @ context.rho_prime @ f
    return float(np.real(num) / context.conditioning_probability)


def _ordered_product(chain: ObservableChain) -> np.ndarray:
    """The explicit product K...A; A...K is its adjoint (Hermitian chain)."""
    eye = np.eye(chain.dim, dtype=complex)
    return functools.reduce(lambda acc, m: m @ acc, chain.observables, eye)


def gamma_matrix(chain: ObservableChain) -> np.ndarray:
    """Gamma = K...A + A...K as an explicit matrix."""
    forward = _ordered_product(chain)
    return forward + forward.conj().T


def tilde_gamma_matrix(chain: ObservableChain) -> np.ndarray:
    """Gamma~ = i(K...A - A...K), the antisymmetric companion."""
    forward = _ordered_product(chain)
    return 1j * (forward - forward.conj().T)


def matrix_nonzeros(m, rtol: float = 1e-12) -> int:
    """Count of entries above rtol times the largest magnitude."""
    m = np.asarray(m)
    scale = float(np.max(np.abs(m)))
    if scale == 0.0:
        return 0
    return int(np.count_nonzero(np.abs(m) > rtol * scale))


def gamma_weak_direct(chain: ObservableChain, context: RetrodictionContext) -> float:
    """Weak value of Gamma via the explicit matrix (Method 1)."""
    return weak_value(gamma_matrix(chain), context)


def _tuple_walk(chain: ObservableChain, context: RetrodictionContext,
                meter: MemoryMeter):
    """Yield (eigenvalue tuple, <f'|P_k...P_a rho'|f'>, <f'|P_a...P_k rho'|f'>)
    for every tuple, in itertools.product order, by one depth-first walk.

    Level l holds the bra pair [f'dag P_a...P_l, (rho'f')dag P_a...P_l], one
    (2, d) by (d, d) product past its parent's. At a leaf the backward
    numerator is bras[0] @ rho'f' and, as rho' and every P are Hermitian,
    the forward one is conj(bras[1] @ f'). The meter is charged each pair
    as it is pushed and popped; the root pair is conditioning data.
    """
    f = context.f_prime
    rho_f = context.rho_prime @ f

    def descend(level, bras, evs):
        if level == len(chain):
            yield evs, np.conj(bras[1] @ f), bras[0] @ rho_f
            return
        for ev, proj in chain.spectra[level]:
            child = bras @ proj
            meter.allocate(child.size)
            yield from descend(level + 1, child, evs + (ev,))
            meter.release(child.size)

    yield from descend(0, np.stack([f, rho_f]).conj(), ())


def _weighted_sums(chain: ObservableChain, context: RetrodictionContext,
                   meter: MemoryMeter | None = None) -> tuple[complex, complex]:
    """S_f, S_b: each numerator summed with weight prod(evs), 0 at a zero."""
    s_f = s_b = 0j
    for evs, num_f, num_b in _tuple_walk(chain, context, meter or MemoryMeter()):
        weight = math.prod(evs)
        s_f += weight * num_f
        s_b += weight * num_b
    return s_f, s_b


def gamma_weak_factored(chain: ObservableChain, context: RetrodictionContext,
                        meter: MemoryMeter | None = None) -> float:
    """Weak value of Gamma by eigenvalue-tuple accumulation (Method 2).

    Never materializes Gamma: Re(S_f + S_b) / p from the depth-first tuple
    walk, whose stack of bra pairs the meter sees peak at 2kd entries; the
    chain's cached projectors are measurement data and are not charged.
    """
    s_f, s_b = _weighted_sums(chain, context, meter)
    return float((s_f + s_b).real) / context.conditioning_probability


def conditional_quasiprobs(chain: ObservableChain, context: RetrodictionContext
                           ) -> tuple[quasiprob.QuasiDistribution, quasiprob.QuasiDistribution]:
    """All p~(a,...,k | f) values as (forward, backward) distributions.

    forward holds the extended Kirkwood-Dirac values for the descending
    operator order K...A, backward for A...K; their real parts are the
    Bayes-analog values. Each has one axis per chain observable, named by
    its position and carrying its distinct eigenvalues, filled in the C
    order of the tuple walk. Zero eigenvalues carry no weight in the Gamma
    sum but their quasiprobabilities are still defined, and each
    distribution sums to 1 over the full grid.
    """
    names = tuple(str(i) for i in range(len(chain)))
    evs = tuple(np.array([ev for ev, _ in pairs]) for pairs in chain.spectra)
    _, num_f, num_b = zip(*_tuple_walk(chain, context, MemoryMeter()))
    return tuple(quasiprob.QuasiDistribution(
        np.reshape(num, tuple(map(len, evs))) / context.conditioning_probability, names, evs)
        for num in (num_f, num_b))


def tilde_gamma_weak(chain: ObservableChain, context: RetrodictionContext) -> float:
    """Weak value of Gamma~ = i(K...A - A...K) from the same quasiprobabilities:
    Im(S_b - S_f) / p."""
    s_f, s_b = _weighted_sums(chain, context)
    return float((s_b - s_f).imag) / context.conditioning_probability


def otoc_retrodiction(rho, w_op, v_op, hamiltonian, t: float, w3_outcome: float) -> float:
    """Retrodicted value of V W(t) V given the final W(t) outcome w3.

    The weights are the real parts of the coarse quasiprobability entries
    at that w3, normalized by the Born probability of w3. rho may be any
    state form that quasiprob.density_matrix accepts.
    """
    qd = quasiprob.coarse_quasiprob_series(rho, w_op, v_op, hamiltonian, [t]).at(0)
    group = qla._outcome_group(qd.axis_eigenvalues[3], w3_outcome)
    if group is None:
        raise ValueError(f"{w3_outcome} is not an eigenvalue of W")
    i3 = group[0]
    slab = np.real(qd.values[:, :, :, i3])
    prob = float(np.sum(slab))
    if prob <= _CONDITION_FLOOR:
        raise ValueError("conditioning probability vanishes; weak values undefined")
    v_evs = qd.axis_eigenvalues[0]
    w2_evs = qd.axis_eigenvalues[1]
    weights = np.einsum("i,j,k,ijk->", v_evs, w2_evs, qd.axis_eigenvalues[2], slab)
    return float(weights / prob)


def weighted_trace_distance(gamma, gamma_estimate, rho_prime) -> float:
    """Tr(rho' [Gamma - Gamma_est]^2) for Hermitian Gamma and estimate; rho'
    is a state in any form quasiprob.check_state accepts."""
    g = qla.assert_hermitian(gamma)
    g_est = qla.assert_hermitian(gamma_estimate)
    rho_prime = quasiprob.density_matrix(quasiprob.check_state(rho_prime, g))
    diff = g - g_est
    return float(np.real(np.sum((rho_prime @ diff) * diff.T)))


@dataclass
class EstimatorResult:
    """Per-outcome optimal weak-value estimates and the assembled operator."""

    outcomes: np.ndarray
    values: np.ndarray
    matrix: np.ndarray
    zero_probability_outcomes: list


def optimal_estimator(gamma, rho_prime, final_observable) -> EstimatorResult:
    """Best piecewise-constant estimate of Gamma over the final outcomes.

    For each distinct outcome f the minimizing coefficient of
    Tr(rho'[Gamma - sum_f gamma_f P_f]^2) is Re Tr(rho' Gamma P_f) / p(f);
    outcomes with vanishing probability contribute nothing and are
    reported separately. rho' is a state in any form quasiprob.check_state
    accepts.
    """
    g = qla.assert_hermitian(gamma)
    rho_prime = quasiprob.density_matrix(quasiprob.check_state(rho_prime, g))
    evs, projs = quasiprob._distinct_projectors(final_observable)
    values = np.zeros(len(evs))
    zero_prob = []
    est = np.zeros_like(g)
    for i, (ev, proj) in enumerate(zip(evs, projs)):
        p = float(np.real(np.sum(rho_prime * proj.T)))
        if p <= _CONDITION_FLOOR:
            zero_prob.append(float(ev))
            continue
        values[i] = float(np.real(np.sum((rho_prime @ g) * proj.T))) / p
        est = est + values[i] * proj
    return EstimatorResult(outcomes=np.array(evs), values=values, matrix=est,
                           zero_probability_outcomes=zero_prob)

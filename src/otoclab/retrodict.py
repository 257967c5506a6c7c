"""Weak values and quasiprobability-weighted retrodiction.

Given a preparation, a later projective outcome, and a chain of
observables A, ..., K that were never strongly measured in between, the
best symmetric guess for the unmeasured product

    Gamma = K...A + A...K

is its weak value, a sum of eigenvalue tuples weighted by conditional
quasiprobabilities that obey analogs of Bayes' theorem. Two evaluation
routes are provided: building Gamma as an explicit matrix, and a factored
accumulation over eigenvalue tuples that keeps only a stack of partial
bra vectors alive. The factored route's working set grows linearly with
the chain length, while the explicit matrix densifies exponentially for
chains of traceless local operators; a MemoryMeter records the contrast.

The retrodicted out-of-time-ordered correlator is the special case
Gamma = V W(t) V conditioned on the final W(t) outcome, with weights read
directly from the coarse quasiprobability.
"""
from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass, field

import numpy as np

from . import qla, quasiprob

_CONDITION_FLOOR = 1e-12
_ZERO_EIGENVALUE_RTOL = 1e-12


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
        rho = qla.assert_hermitian(rho)
        h_sys = quasiprob._eigensystem(hamiltonian)
        if final_vector is not None:
            f = np.asarray(final_vector, dtype=complex).reshape(-1)
            norm = np.linalg.norm(f)
            if norm <= 0:
                raise ValueError("final_vector must be nonzero")
            f = f / norm
        else:
            if final_observable is None or outcome is None:
                raise ValueError("pass final_observable with outcome, or final_vector")
            f = _resolved_eigenvector(final_observable, outcome)
        if f.shape[0] != rho.shape[0]:
            raise ValueError("final vector dimension does not match the state")
        u_prep = h_sys.propagator(-1j * t_prime)
        self.rho_prime = u_prep @ rho @ u_prep.conj().T
        back = h_sys.propagator(1j * (t_double_prime - t_prime))
        self.f_prime = back @ f
        self.t_prime = t_prime
        self.t_double_prime = t_double_prime
        prob = float(np.real(self.f_prime.conj() @ self.rho_prime @ self.f_prime))
        if prob <= _CONDITION_FLOOR:
            raise ValueError("conditioning probability vanishes; weak values undefined")
        self.conditioning_probability = prob


def _resolved_eigenvector(observable, outcome: float) -> np.ndarray:
    sys = qla.eigh(observable)
    hits = [(start, stop) for start, stop in sys.degenerate_groups()
            if abs(sys.eigenvalues[start] - outcome) < qla.EIGENVALUE_MATCH_TOL]
    if not hits:
        raise ValueError(f"outcome {outcome} is not an eigenvalue of the final observable")
    start, stop = hits[0]
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


def _ordered_products(chain: ObservableChain) -> tuple[np.ndarray, np.ndarray]:
    """The explicit products K...A and A...K."""
    eye = np.eye(chain.dim, dtype=complex)
    forward = functools.reduce(lambda acc, m: m @ acc, chain.observables, eye)
    backward = functools.reduce(np.matmul, chain.observables, eye)
    return forward, backward


def gamma_matrix(chain: ObservableChain) -> np.ndarray:
    """Gamma = K...A + A...K as an explicit matrix."""
    forward, backward = _ordered_products(chain)
    return forward + backward


def tilde_gamma_matrix(chain: ObservableChain) -> np.ndarray:
    """Gamma~ = i(K...A - A...K), the antisymmetric companion."""
    forward, backward = _ordered_products(chain)
    return 1j * (forward - backward)


def matrix_nonzeros(m, rtol: float = 1e-12) -> int:
    """Count of entries above rtol times the largest magnitude."""
    m = np.asarray(m)
    scale = float(np.max(np.abs(m)))
    if scale == 0.0:
        return 0
    return int(np.count_nonzero(np.abs(m) > rtol * scale))


def gamma_weak_direct(chain: ObservableChain, context: RetrodictionContext) -> float:
    """Weak value of Gamma via the explicit matrix (Method 1)."""
    f = context.f_prime
    num = f.conj() @ gamma_matrix(chain) @ context.rho_prime @ f
    return float(np.real(num) / context.conditioning_probability)


def _tuple_walk(chain: ObservableChain, context: RetrodictionContext,
                skip_zero: bool = False):
    """Yield (eigenvalue tuple, forward numerator, backward numerator).

    For each tuple (a, ..., k) of chain eigenvalues the numerators are
    <f'|P_k...P_a rho'|f'> (order K...A) and <f'|P_a...P_k rho'|f'> (order
    A...K), built by passing the post-selection bra through the
    projectors. skip_zero passes over tuples with a zero eigenvalue factor,
    which carry no weight in Gamma, without projecting.
    """
    bra = context.f_prime.conj()
    rho_f = context.rho_prime @ context.f_prime
    scales = [max(max(abs(ev) for ev, _ in pairs), 1.0) for pairs in chain.spectra]
    for picks in itertools.product(*chain.spectra):
        evs = tuple(ev for ev, _ in picks)
        if skip_zero and any(abs(ev) <= _ZERO_EIGENVALUE_RTOL * scale
                             for ev, scale in zip(evs, scales)):
            continue
        projs = [proj for _, proj in picks]
        yield (evs, functools.reduce(np.matmul, reversed(projs), bra) @ rho_f,
               functools.reduce(np.matmul, projs, bra) @ rho_f)


def gamma_weak_factored(chain: ObservableChain, context: RetrodictionContext,
                        meter: MemoryMeter | None = None) -> float:
    """Weak value of Gamma by eigenvalue-tuple accumulation (Method 2).

    Never materializes Gamma: per tuple (a, ..., k) the two conditional
    quasiprobability numerators are built by projecting the post-selection
    bra through the eigenspace projectors, and tuples with a zero
    eigenvalue factor are skipped. The meter counts the stack of partial
    bras, the tuple counters, and the two accumulators; the chain's cached
    projectors are measurement data, not algorithm state, and are not
    charged.
    """
    meter = MemoryMeter() if meter is None else meter
    k, dim = len(chain), chain.dim
    meter.allocate(k * dim)   # partial-bra stack
    meter.allocate(k)         # tuple counters
    meter.allocate(2)         # numerator accumulator and denominator
    acc = 0.0
    for evs, num_fwd, num_bwd in _tuple_walk(chain, context, skip_zero=True):
        acc += float(np.prod(evs)) * float(np.real(num_fwd + num_bwd))
    meter.release(k * dim + k + 2)
    return acc / context.conditioning_probability


@dataclass
class ConditionalQuasiprobs:
    """Joint conditional quasiprobabilities for every eigenvalue tuple.

    forward holds the real Bayes-analog values for the descending operator
    order K...A, backward for A...K; the _complex maps keep the full
    extended Kirkwood-Dirac values whose real parts they are. Keys are
    tuples of distinct eigenvalues, one per chain observable, drawn from
    eigenvalue_lists.
    """

    eigenvalue_lists: list[np.ndarray]
    forward: dict = field(default_factory=dict)
    backward: dict = field(default_factory=dict)
    forward_complex: dict = field(default_factory=dict)
    backward_complex: dict = field(default_factory=dict)
    conditioning_probability: float = 0.0


def conditional_quasiprobs(chain: ObservableChain,
                           context: RetrodictionContext) -> ConditionalQuasiprobs:
    """All p~(a,...,k | f) values, complex extensions included.

    No tuples are skipped here: zero eigenvalues carry no weight in the
    Gamma sum but their quasiprobabilities are still defined, and the
    forward map sums to 1 over the full grid.
    """
    den = context.conditioning_probability
    out = ConditionalQuasiprobs(
        eigenvalue_lists=[np.array([ev for ev, _ in pairs]) for pairs in chain.spectra],
        conditioning_probability=den,
    )
    for key, num_fwd, num_bwd in _tuple_walk(chain, context):
        fwd = complex(num_fwd) / den
        bwd = complex(num_bwd) / den
        out.forward_complex[key] = fwd
        out.backward_complex[key] = bwd
        out.forward[key] = fwd.real
        out.backward[key] = bwd.real
    return out


def tilde_gamma_weak(chain: ObservableChain, context: RetrodictionContext) -> float:
    """Weak value of Gamma~ = i(K...A - A...K) from the same quasiprobabilities."""
    acc = 0.0
    for evs, num_fwd, num_bwd in _tuple_walk(chain, context, skip_zero=True):
        acc += float(np.prod(evs)) * (-num_fwd.imag + num_bwd.imag)
    return acc / context.conditioning_probability


def otoc_retrodiction(rho, w_op, v_op, hamiltonian, t: float, w3_outcome: float) -> float:
    """Retrodicted value of V W(t) V given the final W(t) outcome w3.

    The weights are the real parts of the coarse quasiprobability entries
    at that w3, normalized by the Born probability of w3.
    """
    qd = quasiprob.coarse_quasiprob(rho, w_op, v_op, hamiltonian, t)
    w_evs = qd.axis_eigenvalues[3]
    hits = np.flatnonzero(np.abs(w_evs - w3_outcome) < qla.EIGENVALUE_MATCH_TOL)
    if hits.size == 0:
        raise ValueError(f"{w3_outcome} is not an eigenvalue of W")
    i3 = int(hits[0])
    slab = np.real(qd.values[:, :, :, i3])
    prob = float(np.sum(slab))
    if prob <= _CONDITION_FLOOR:
        raise ValueError("conditioning probability vanishes; weak values undefined")
    v_evs = qd.axis_eigenvalues[0]
    w2_evs = qd.axis_eigenvalues[1]
    weights = np.einsum("i,j,k,ijk->", v_evs, w2_evs, qd.axis_eigenvalues[2], slab)
    return float(weights / prob)


def weighted_trace_distance(gamma, gamma_estimate, rho_prime) -> float:
    """Tr(rho' [Gamma - Gamma_est]^2) for Hermitian Gamma and estimate."""
    g = qla.assert_hermitian(gamma)
    g_est = qla.assert_hermitian(gamma_estimate)
    rho_prime = np.asarray(rho_prime, dtype=complex)
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
    reported separately.
    """
    g = qla.assert_hermitian(gamma)
    rho_prime = np.asarray(rho_prime, dtype=complex)
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

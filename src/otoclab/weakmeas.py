"""Weak-measurement protocols that make the coarse quasiprobability measurable.

Two circuit families are simulated. The full protocol couples three fresh
ancillas weakly (weak V, evolve, weak W, evolve back, weak V, evolve,
strong W); for states sharing the evolved-W eigenbasis a shorter variant
with two weak couplings suffices. Each weak coupling applies a Kraus pair
of the form M_s = a_s 1 + b_s Pi, so every joint outcome probability is
exactly multilinear in the slot coefficients (a, b). One simulator runs
both in the Heisenberg picture, where each prepares a state, applies the
Kraus operators of its weak couplings in time order and ends in a strong
measurement.

Inference exploits that structure directly, with one linear map for both
families. A record is one tensor: the ancilla outcomes of the weak
couplings lead, the outcomes the circuit ends on trail, and each record
carries the eigenvalues of V and W(t) that label the coarse axes. The
probabilities of each final-outcome block are linear in a fixed family of
sandwich traces T[i, j] = Tr(Pi_final S_i rho S_j^dag) with S drawn from
products of the two projectors, so T is Hermitian. An outcome's
coefficients on the slot patterns are the Kronecker product over slots of
[[a+, b+], [a-, b-]]; the index tuple x sends each pattern to its
sandwich, which sits left of rho with its adjoint right of it; and each
design row is linear in the real unknowns of T. Collecting runs at
several coupling strengths in both phase modes (real and imaginary
coupling coefficient) gives one overdetermined real design that every
block shares; the quasiprobability is the identity-column traces T[x, 0]
summed by inclusion-exclusion over projector complements, and the
remaining traces are the independently measurable background terms. What
differs between the families (the weak couplings in time order, whether
the circuit prepares W, the x tuple that indexes the sandwich list and
the identifiable rank) is one row of the _PROTOCOLS table, which
describes each circuit for its simulation as well as its inversion.
"""
from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass

import numpy as np

from . import qla, quasiprob

PHASE_MODES = ("real", "imaginary")
_COMPLETENESS_TOL = 1e-12
# effective condition number above which the inversion is refused
CONDITION_LIMIT = 1e8


# ---------------------------------------------------------------------------
# couplings and Kraus operators


class NoncommutingState(ValueError):
    """The two-weak protocol's state does not commute with W(t): a choice
    of inputs the protocol does not cover, not a numeric failure."""


@dataclass(frozen=True)
class CouplingConfig:
    """One weak-coupling setting: strength angle and coefficient phase mode."""

    strength: float
    phase_mode: str = "real"

    def __post_init__(self):
        if not 0.0 <= self.strength <= math.pi / 2:
            raise ValueError("coupling strength must lie in [0, pi/2]")
        if self.phase_mode not in PHASE_MODES:
            raise ValueError(f"phase_mode must be one of {PHASE_MODES}")


def slot_coefficients(coupling: CouplingConfig) -> dict[int, tuple[complex, complex]]:
    """Coefficients (a_s, b_s) of M_s = a_s 1 + b_s Pi for outcomes s = +1, -1.

    Real mode realizes the partial projection with p = (1 + sin phi)/2;
    imaginary mode attaches the phase e^{-+ i phi} to the projected branch.
    """
    phi = coupling.strength
    if coupling.phase_mode == "real":
        p = (1.0 + math.sin(phi)) / 2.0
        q = 1.0 - p
        return {+1: (math.sqrt(q) + 0j, math.sqrt(p) - math.sqrt(q) + 0j),
                -1: (math.sqrt(p) + 0j, math.sqrt(q) - math.sqrt(p) + 0j)}
    r = 1.0 / math.sqrt(2.0)
    return {+1: (r + 0j, (np.exp(-1j * phi) - 1.0) * r),
            -1: (r + 0j, (np.exp(+1j * phi) - 1.0) * r)}


def _check_projector(proj) -> np.ndarray:
    p = np.asarray(proj, dtype=complex)
    if np.max(np.abs(p - qla.dagger(p))) > qla.EXACT_TOL:
        raise ValueError("projector must be Hermitian")
    if np.max(np.abs(p @ p - p)) > qla.EXACT_TOL:
        raise ValueError("projector must be idempotent")
    return p


def kraus_pair(proj, coupling: CouplingConfig) -> tuple[np.ndarray, np.ndarray]:
    """Kraus operators M_s = a_s 1 + b_s Pi of one weak coupling to Pi."""
    p = _check_projector(proj)
    eye = np.eye(p.shape[0], dtype=complex)
    ab = slot_coefficients(coupling)
    m_plus = ab[+1][0] * eye + ab[+1][1] * p
    m_minus = ab[-1][0] * eye + ab[-1][1] * p
    total = qla.dagger(m_plus) @ m_plus + qla.dagger(m_minus) @ m_minus
    if np.max(np.abs(total - eye)) > _COMPLETENESS_TOL:
        raise ValueError("Kraus pair violates completeness")
    return m_plus, m_minus


def ancilla_subcircuit_kraus(axis_projectors, phi: float):
    """Kraus pair from the explicit two-qubit ancilla subcircuit.

    The ancilla starts in |0>, a controlled y-rotation applies angle
    pi/2 - phi on the complement of the target eigenspace and pi/2 + phi on
    the eigenspace, and the ancilla is measured in the computational basis
    (outcome +1 for |1>). The operators are obtained by contracting the
    ancilla out of the joint unitary; the pair is the symmetric partial
    projection with p = (1 + sin phi)/2.
    """
    pi_plus = _check_projector(axis_projectors[0])
    pi_minus = _check_projector(axis_projectors[1])
    dim = pi_plus.shape[0]
    if np.max(np.abs(pi_plus + pi_minus - np.eye(dim))) > qla.EXACT_TOL:
        raise ValueError("axis projectors must resolve the identity")
    if np.max(np.abs(pi_plus @ pi_minus)) > qla.EXACT_TOL:
        raise ValueError("axis projectors must be orthogonal")

    def r_y(theta):
        c, s = math.cos(theta / 2.0), math.sin(theta / 2.0)
        return np.array([[c, -s], [s, c]], dtype=complex)

    # system tensor ancilla; controlled rotation conditioned on the eigenspace
    joint = np.kron(pi_minus, r_y(math.pi / 2 - phi)) + np.kron(pi_plus, r_y(math.pi / 2 + phi))
    anc0 = np.array([1.0, 0.0], dtype=complex)
    anc1 = np.array([0.0, 1.0], dtype=complex)
    inject = np.kron(np.eye(dim, dtype=complex), anc0.reshape(2, 1))
    m_plus = np.kron(np.eye(dim, dtype=complex), anc1.reshape(1, 2)) @ joint @ inject
    m_minus = np.kron(np.eye(dim, dtype=complex), anc0.reshape(1, 2)) @ joint @ inject
    return m_plus, m_minus


# ---------------------------------------------------------------------------
# the protocol table


@dataclass(frozen=True)
class _Protocol:
    """One circuit family, as its simulation and its inversion see it.

    letters names the weak couplings in time order ("v" or "w"). A circuit
    whose last weak coupling is to W prepares Pi_w rho Pi_w for each W(t)
    eigenvalue w and ends on a strong V measurement; otherwise it starts
    from rho and ends on a strong W(t) measurement. A slot pattern takes,
    per weak coupling, a_s 1 (bit 0) or b_s Pi (bit 1); patterns run in
    binary order, the first coupling the most significant bit. Pattern p
    picks the sandwich operator S_{x[p]} left of rho and S_{x[p]}^dag right
    of it; the sandwich count is max(x) + 1. rank counts the real degrees
    of freedom the records identify. per_slot builds a Kronecker product of
    2x2 per-slot factors and onehot the pattern-to-sandwich matrix of x.
    """

    letters: str
    x: tuple
    rank: int

    def per_slot(self, factor) -> np.ndarray:
        """The Kronecker product of one 2x2 factor over the weak slots."""
        return functools.reduce(np.kron, [np.asarray(factor)] * len(self.letters))

    def onehot(self) -> np.ndarray:
        """(patterns, sandwiches) matrix with a 1 at (p, x[p])."""
        return np.eye(max(self.x) + 1)[list(self.x)]


_PROTOCOLS = {
    # sandwich list [1, Pv, Pw, Pw Pv, Pv Pw, Pv Pw Pv]; x indexes the
    # product X3 X2 X1; 27 of 36 real traces
    "three-weak": _Protocol(letters="vwv", x=(0, 1, 2, 4, 1, 1, 3, 5), rank=27),
    # sandwich list [1, Pv, Pw Pv, Pw]; 13 of 16 real traces
    "two-weak": _Protocol(letters="vw", x=(0, 3, 1, 2), rank=13),
}


# ---------------------------------------------------------------------------
# protocol simulation


@dataclass
class MeasurementRecord:
    """Joint outcome statistics of one protocol run at one coupling setting.

    probabilities holds the exact joint distribution and counts the sampled
    histogram (None in exact mode), as one tensor. Its leading axes are the
    ancilla outcomes of the weak couplings in time order, index 0 for +1
    and 1 for -1; its trailing axes are the outcomes the circuit ends on,
    in coarse-axis order: w3 for three-weak, v2 and then the prepared w3
    for two-weak. axis_eigenvalues holds the ascending eigenvalues of V,
    W(t), V and W(t) that label the coarse axes (v1, w2, v2, w3) of the
    inferred distribution. The record carries everything inference needs,
    so histograms from different strengths and modes can be pooled
    downstream.
    """

    protocol: str
    coupling: CouplingConfig
    probabilities: np.ndarray
    counts: np.ndarray | None
    shots: int
    axis_eigenvalues: tuple[np.ndarray, ...]

    def frequencies(self) -> np.ndarray:
        if self.counts is None:
            return self.probabilities
        return self.counts / self.shots


def _sample_counts(probabilities, shots, seed) -> np.ndarray:
    """Multinomial histogram over the C-order ravel, in the input's shape;
    only rounding residue below zero is clipped."""
    p = np.asarray(probabilities, dtype=float).ravel()
    if np.min(p) < -qla.EXACT_TOL:
        raise ValueError(f"outcome probability {np.min(p):.3e} is negative")
    p = np.clip(p, 0.0, None)
    rng = np.random.default_rng(seed)
    return rng.multinomial(shots, p / p.sum()).reshape(np.shape(probabilities))


def simulator(protocol: str, rho, w_op, v_op, hamiltonian, t: float):
    """The protocol's records at fixed rho, W, V and t, as a map (coupling,
    shots=0, seed=None) -> MeasurementRecord; W(t), both projector pairs and
    the prepared states are built once. shots = 0 gives exact
    probabilities, shots >= 1 a multinomial histogram drawn from them
    (statistically identical to per-shot conditional updates). W(t) and V
    must each have two outcomes.

    three-weak: weak V, evolve U, weak W, evolve U back, weak V, evolve U,
    strong W, which in the Heisenberg picture is
    P(s1, s2, s3, w3) = Tr(Pi^{W(t)}_{w3} M3 M2 M1 rho M1+ M2+ M3+), with
    M1, M3 the V Kraus operators and M2 those of W(t).

    two-weak: prepare Pi_w rho Pi_w for each W(t) eigenvalue w, evolve
    backward, weak V, evolve forward, weak W, evolve backward, strong V.
    It needs a rho that commutes with W(t), whose ensemble it then
    reproduces; other states raise NoncommutingState. Each W(t) eigenvalue w's
    prepared sigma is Pi_w rho Pi_w, with Pi_w the W(t) projector the weak
    W coupling uses; these blocks sum to rho.

    Either way an outcome's probability is Re Tr(Pi_final K_s sigma K_s^dag),
    with K_s the Kraus operators of the row's letters in time order and
    sigma rho or a prepared state; the final strong measurement measures
    the observable not coupled last.
    """
    if protocol not in _PROTOCOLS:
        raise ValueError(f"unknown protocol {protocol!r}; "
                         f"expected one of {', '.join(_PROTOCOLS)}")
    spec = _PROTOCOLS[protocol]
    h_sys = quasiprob._eigensystem(hamiltonian)
    rho = quasiprob.density_matrix(quasiprob.check_state(rho, w_op, v_op), h_sys)
    u = quasiprob.propagator(h_sys, t)
    wt = quasiprob.heisenberg(w_op, u)
    prepares_w = spec.letters[-1] == "w"
    if prepares_w and np.max(np.abs(rho @ wt - wt @ rho)) > qla.EXACT_TOL:
        raise NoncommutingState("two-coupling protocol needs a state commuting with the "
                                "evolved W")
    pairs = {"v": quasiprob._distinct_projectors(v_op), "w": quasiprob._distinct_projectors(wt)}
    for k, (evs, _) in pairs.items():
        if len(evs) != 2:
            raise ValueError(f"weak {k.upper()} coupling needs a two-outcome observable")
    axis_eigenvalues = (pairs["v"][0], pairs["w"][0]) * 2
    # each weak coupling is to the projector on the larger eigenvalue
    plus = {k: projs[1] for k, (_, projs) in pairs.items()}
    final_projs = pairs["v" if prepares_w else "w"][1]
    states = [proj @ rho @ proj for proj in pairs["w"][1]] if prepares_w else [rho]
    shape = (2,) * len(spec.letters) + (len(final_projs),) + ((len(states),) if prepares_w else ())

    def record(coupling: CouplingConfig, shots: int = 0, seed=None) -> MeasurementRecord:
        if shots < 0:
            raise ValueError("shots must be >= 0")
        kraus = {k: kraus_pair(proj, coupling) for k, proj in plus.items()}
        probs = []
        for s in itertools.product((0, 1), repeat=len(spec.letters)):
            op = functools.reduce(np.matmul, [kraus[k][b] for k, b in
                                              zip(spec.letters[::-1], s[::-1])])
            evolved = [op @ sigma @ qla.dagger(op) for sigma in states]
            probs += [np.trace(proj @ e).real for proj in final_projs for e in evolved]
        probabilities = np.array(probs).reshape(shape)
        if abs(probabilities.sum() - 1.0) > qla.EXACT_TOL:
            raise RuntimeError(f"joint probabilities sum to {probabilities.sum()}, not 1")
        counts = _sample_counts(probabilities, shots, seed) if shots else None
        return MeasurementRecord(protocol, coupling, probabilities, counts, shots,
                                 axis_eigenvalues)
    return record


# ---------------------------------------------------------------------------
# inference


def _design_rows(spec: _Protocol, coupling: CouplingConfig) -> np.ndarray:
    """Design rows (one per ancilla outcome tuple) for one coupling.

    K = kron over slots of [[a+, b+], [a-, b-]] holds each outcome's
    coefficient on each slot pattern, and c = K onehot() its coefficient on
    each sandwich, so the outcome probabilities are the diagonal of
    Re c T c^dag. Over the real unknowns of the Hermitian T (each diagonal
    entry, then the re and im parts of each entry above the diagonal in
    row-major order) a row reads |c_i|^2, then 2 Re z and -2 Im z with
    z = c_i conj(c_j).
    """
    ab = slot_coefficients(coupling)
    c = spec.per_slot([ab[+1], ab[-1]]) @ spec.onehot()
    i, j = np.triu_indices(c.shape[1], 1)
    z = c[:, i] * c[:, j].conj()
    pairs = np.stack([2 * z.real, -2 * z.imag], axis=-1).reshape(len(c), -1)
    return np.hstack([(c * c.conj()).real, pairs])


def _hermitian(sol) -> np.ndarray:
    """The Hermitian n x n arrays T whose n^2 real unknowns (the column
    order of _design_rows) are the columns of sol, stacked along a leading
    axis."""
    n = math.isqrt(len(sol))
    i, j = np.triu_indices(n, 1)
    t = np.zeros(sol.shape[1:] + (n, n), dtype=complex)
    t[..., np.arange(n), np.arange(n)] = sol[:n].T
    t[..., i, j] = (sol[n::2] + 1j * sol[n + 1::2]).T
    t[..., j, i] = t[..., i, j].conj()
    return t


@dataclass
class InferenceReport:
    """Diagnostics of one inversion: conditioning, residuals, background traces.

    Every final-outcome block shares one design, so rank (the count of
    singular values above 1e-10 of the largest) and effective_condition
    (the largest over the protocol's rank-th) are single numbers.
    residuals (each block's largest design residual) and background are
    arrays over the final axes of the records: (w3,) for three-weak,
    (v2, w3) for two-weak. background holds each block's full solved
    sandwich-trace array T[i, j] on two more axes; the quasiprobability
    uses only the identity column T[:, 0], the rest are the independently
    measured background terms. std_errors is None for exact records.
    """

    protocol: str
    rank: int
    effective_condition: float
    residuals: np.ndarray
    background: np.ndarray
    std_errors: np.ndarray | None = None


def _validate_records(records) -> str:
    if not records:
        raise ValueError("no measurement records supplied")
    protocols = {r.protocol for r in records}
    if len(protocols) != 1:
        raise ValueError("records mix different protocols")
    first = records[0]
    if any(r.probabilities.shape != first.probabilities.shape
           or not all(map(np.array_equal, r.axis_eigenvalues, first.axis_eigenvalues))
           for r in records):
        raise ValueError("records disagree on their outcome axes")
    for mode in PHASE_MODES:
        strengths = {r.coupling.strength for r in records
                     if r.coupling.phase_mode == mode and r.coupling.strength > 0}
        if len(strengths) < 3:
            raise ValueError(
                "inference needs at least 3 distinct nonzero strengths "
                f"in phase mode {mode!r}"
            )
    return protocols.pop()


def infer_coarse_quasiprob(records):
    """Invert pooled outcome histograms into the coarse quasiprobability.

    records: MeasurementRecord values from one instance at several coupling
    strengths, both phase modes, with one shape and one set of axis
    eigenvalues. Returns (QuasiDistribution, InferenceReport), the
    distribution labelled by the records' axis_eigenvalues. Sampled records
    propagate their multinomial counting noise into per-entry standard
    errors (std_errors aligned with the tensor, last axis 0 = real,
    1 = imaginary part).

    Records whose three couplings share one strength leave a few sandwich
    cross terms (for example Tr of Pi_w3 Pw Pv rho Pv) riding the same
    cubic channel as the target at every strength, so the solve returns
    the minimum-norm solution. That is exact for the states the protocol
    is built around: the maximally mixed state, any state diagonal in the
    V eigenbasis (three-weak), and every state that commutes with W(t)
    (two-weak, which prepares Pi_w rho Pi_w). For other three-weak states
    the entries can carry an O(1e-2) bias that no strength schedule
    removes; check residuals and compare against a direct computation when
    in doubt.

    Each record's frequencies, reshaped to (ancilla outcomes, final
    outcomes), give one column per final-outcome block. The design matrix
    depends only on the couplings, so every block shares it and its one
    SVD, truncated at the protocol's rank r. That SVD gives the counted
    rank and the effective condition number (a weak design is refused),
    the pseudo-inverse V_r S_r^-1 U_r^T, which solves all blocks at once,
    and for sampled records the standard errors. The entries are the
    identity-column traces T[x, 0] summed with the inclusion-exclusion
    weights kron over slots of [[1, -1], [0, 1]] (index 0, the lower
    eigenvalue, is 1 - Pi; index 1 is Pi) on the sandwiches x.
    """
    protocol = _validate_records(records)
    spec = _PROTOCOLS[protocol]
    shape = records[0].probabilities.shape
    finals = shape[len(spec.letters):]
    blocks = [rec.frequencies().reshape(2 ** len(spec.letters), -1) for rec in records]
    freqs = np.vstack(blocks)
    design = np.vstack([_design_rows(spec, rec.coupling) for rec in records])
    u, sing, vt = np.linalg.svd(design, full_matrices=False)
    rank, r = int(np.sum(sing > sing[0] * 1e-10)), spec.rank
    cond = float(sing[0] / sing[r - 1]) if rank >= r else np.inf
    if cond > CONDITION_LIMIT:
        raise ValueError(
            f"inference design is ill conditioned (rank {rank}, effective "
            f"condition {cond:.3e}); widen the coupling-strength spread"
        )
    pinv = (vt[:r].T / sing[:r]) @ u[:, :r].T
    sols = pinv @ freqs
    ell = spec.per_slot([[1.0, -1.0], [0.0, 1.0]]) @ spec.onehot()
    background = _hermitian(sols)
    errors = None
    if any(rec.counts is not None for rec in records):
        # per record, the multinomial variance of g . f is g^2 . p - (g . p)^2
        gain = ell @ _hermitian(pinv)[..., 0].T
        gains = np.split(np.stack([gain.real, gain.imag]), len(records), axis=-1)
        var = sum((g ** 2 @ p - (g @ p) ** 2) / rec.shots
                  for rec, p, g in zip(records, blocks, gains) if rec.counts is not None)
        errors = np.moveaxis(np.sqrt(np.maximum(0.0, var)), 0, -1).reshape(shape + (2,))
    dist = quasiprob.QuasiDistribution(
        values=(ell @ background[..., 0].T).reshape(shape),
        axis_names=quasiprob.COARSE_AXES,
        axis_eigenvalues=records[0].axis_eigenvalues,
    )
    report = InferenceReport(
        protocol=protocol, rank=rank, effective_condition=cond,
        residuals=np.max(np.abs(design @ sols - freqs), axis=0).reshape(finals),
        background=background.reshape(finals + background.shape[1:]),
        std_errors=errors,
    )
    return dist, report


def standard_protocol_records(rho, w_op, v_op, hamiltonian, t: float,
                              phis=(0.05, 0.1, 0.15, 0.2), shots: int = 0,
                              seed=None, protocol: str = "three-weak"):
    """Records at every (mode, strength) combination, ready for inference:
    the simulator's record at each coupling, with seed (seed, k) for the
    k-th record.
    """
    record = simulator(protocol, rho, w_op, v_op, hamiltonian, t)
    return [record(CouplingConfig(phi, mode), shots,
                   None if seed is None else (seed, k))
            for k, (mode, phi) in enumerate((m, p) for m in PHASE_MODES for p in phis)]

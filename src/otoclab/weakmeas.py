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
families: the probabilities of each final-outcome block are linear in a
fixed family of sandwich traces T[i, j] = Tr(Pi_final S_i rho S_j^dag)
with S drawn from products of the two projectors, so T is Hermitian. An
outcome's coefficients on the slot patterns are the Kronecker product
over slots of [[a+, b+], [a-, b-]]; the index tuple x sends each pattern
to its sandwich, which sits left of rho with its adjoint right of it; and
one complex array P writes T as P . sol over the real unknowns sol.
Collecting runs at several coupling strengths in both phase modes (real
and imaginary coupling coefficient) gives one overdetermined real design
that every block shares; the quasiprobability is the identity-column
traces T[x, 0] = P[x, 0] . sol summed by inclusion-exclusion over
projector complements, and the remaining traces are the independently
measurable background terms. What differs between the families (the
weak couplings in time order, the x tuple that indexes the sandwich
list, the identifiable rank, and where the final outcomes sit in a
record) is one row of the _PROTOCOLS table, which describes each circuit
for its simulation as well as its inversion.
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

    letters names the weak couplings in time order ("v" or "w"). A slot
    pattern takes, per weak coupling, a_s 1 (bit 0) or b_s Pi (bit 1);
    patterns run in binary order, the first coupling the most significant
    bit. Pattern p picks the sandwich operator S_{x[p]} left of rho and
    S_{x[p]}^dag right of it; the sandwich count is max(x) + 1. rank
    counts the real degrees of freedom the records identify. final gives
    the positions of the final-outcome eigenvalues in each record outcome
    tuple, in tensor axis order; the ancilla outcomes fill the leading
    axes. per_slot builds a Kronecker product of 2x2 per-slot factors and
    onehot the pattern-to-sandwich matrix of x.
    """

    letters: str
    x: tuple
    rank: int
    final: tuple

    @property
    def outcomes(self) -> list[tuple]:
        """Ancilla outcome tuples, in the order records store them."""
        return list(itertools.product((1, -1), repeat=len(self.letters)))

    def per_slot(self, factor) -> np.ndarray:
        """The Kronecker product of one 2x2 factor over the weak slots."""
        return functools.reduce(np.kron, [np.asarray(factor)] * len(self.letters))

    def onehot(self) -> np.ndarray:
        """(patterns, sandwiches) matrix with a 1 at (p, x[p])."""
        return np.eye(max(self.x) + 1)[list(self.x)]


_PROTOCOLS = {
    # sandwich list [1, Pv, Pw, Pw Pv, Pv Pw, Pv Pw Pv]; x indexes the
    # product X3 X2 X1; 27 of 36 real traces
    "three-weak": _Protocol(letters="vwv", x=(0, 1, 2, 4, 1, 1, 3, 5), rank=27, final=(3,)),
    # sandwich list [1, Pv, Pw Pv, Pw]; 13 of 16 real traces
    "two-weak": _Protocol(letters="vw", x=(0, 3, 1, 2), rank=13, final=(3, 0)),
}


# ---------------------------------------------------------------------------
# protocol simulation


@dataclass
class MeasurementRecord:
    """Joint outcome statistics of one protocol run at one coupling setting.

    outcomes lists the bins in storage order; probabilities holds the exact
    joint distribution and counts the sampled histogram (None in exact
    mode). The record carries everything inference needs, so histograms
    from different strengths and modes can be pooled downstream.
    """

    protocol: str
    coupling: CouplingConfig
    outcomes: list[tuple]
    probabilities: np.ndarray
    counts: np.ndarray | None
    shots: int
    final_eigenvalues: np.ndarray

    def frequencies(self) -> np.ndarray:
        if self.counts is None:
            return self.probabilities
        return self.counts / self.shots


def _sample_counts(probabilities, shots, seed) -> np.ndarray:
    """Multinomial histogram; only rounding residue below zero is clipped."""
    p = np.asarray(probabilities, dtype=float)
    if np.min(p) < -qla.EXACT_TOL:
        raise ValueError(f"outcome probability {np.min(p):.3e} is negative")
    p = np.clip(p, 0.0, None)
    rng = np.random.default_rng(seed)
    return rng.multinomial(shots, p / p.sum())


def simulator(protocol: str, rho, w_op, v_op, hamiltonian, t: float):
    """The protocol's records at fixed rho, W, V and t, as a map (coupling,
    shots=0, seed=None) -> MeasurementRecord; W(t), both projector pairs and
    the prepared states are built once. shots = 0 gives exact
    probabilities, shots >= 1 a multinomial histogram drawn from them
    (statistically identical to per-shot conditional updates).

    three-weak: weak V, evolve U, weak W, evolve U back, weak V, evolve U,
    strong W, which in the Heisenberg picture is
    P(s1, s2, s3, w3) = Tr(Pi^{W(t)}_{w3} M3 M2 M1 rho M1+ M2+ M3+), with
    M1, M3 the V Kraus operators and M2 those of W(t).

    two-weak: prepare Pi_w rho Pi_w for each W(t) eigenvalue w, evolve
    backward, weak V, evolve forward, weak W, evolve backward, strong V.
    It needs a rho that commutes with W(t), whose ensemble it then
    reproduces; other states are rejected. Each W(t) eigenvalue w's
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
    rho = quasiprob.density_matrix(quasiprob.check_state(rho, w_op, v_op), hamiltonian)
    u = quasiprob.propagator(hamiltonian, t)
    wt = quasiprob.heisenberg(w_op, u)
    prepared = 0 in spec.final
    if prepared and np.max(np.abs(rho @ wt - wt @ rho)) > qla.EXACT_TOL:
        raise ValueError("two-coupling protocol needs a state commuting with the evolved W")
    pairs = {"w": quasiprob._distinct_projectors(wt), "v": quasiprob._distinct_projectors(v_op)}
    if len(pairs["v"][0]) != 2:
        raise ValueError("weak V coupling needs a two-outcome observable")
    plus = {k: projs[int(np.argmax(evs))] for k, (evs, projs) in pairs.items()}
    final_evs, final_projs = pairs["w" if spec.letters[-1] == "v" else "v"]
    states = ([((float(ev),), proj @ rho @ proj) for ev, proj in zip(*pairs["w"])]
              if prepared else [((), rho)])

    def record(coupling: CouplingConfig, shots: int = 0, seed=None) -> MeasurementRecord:
        if shots < 0:
            raise ValueError("shots must be >= 0")
        kraus = {k: dict(zip((1, -1), kraus_pair(proj, coupling))) for k, proj in plus.items()}
        outcomes, probs = [], []
        for label, sigma in states:
            for s in spec.outcomes:
                op = functools.reduce(np.matmul, [kraus[k][b] for k, b in
                                                  zip(spec.letters[::-1], s[::-1])])
                evolved = op @ sigma @ qla.dagger(op)
                for ev, proj in zip(final_evs, final_projs):
                    outcomes.append((*label, *s, float(ev)))
                    probs.append(float(np.trace(proj @ evolved).real))
        probabilities = np.array(probs)
        if abs(probabilities.sum() - 1.0) > qla.EXACT_TOL:
            raise RuntimeError(f"joint probabilities sum to {probabilities.sum()}, not 1")
        counts = _sample_counts(probabilities, shots, seed) if shots else None
        return MeasurementRecord(protocol, coupling, outcomes, probabilities, counts, shots,
                                 final_evs)
    return record


# ---------------------------------------------------------------------------
# inference


@functools.cache
def _columns(n: int) -> np.ndarray:
    """Real parameterization T = P . sol of a Hermitian n x n trace array.

    Each diagonal entry is real and gets one column with a 1 there; each
    entry above the diagonal, in row-major order, gets a re column (1 there
    and at its transpose) and an im column (1j there, -1j at its
    transpose). The diagonal columns come first, then the pairs.
    """
    i, j = np.triu_indices(n, 1)
    re_col = n + 2 * np.arange(len(i))
    p = np.zeros((n, n, n + 2 * len(i)), dtype=complex)
    p[np.arange(n), np.arange(n), np.arange(n)] = 1.0
    p[i, j, re_col] = p[j, i, re_col] = 1.0
    p[i, j, re_col + 1], p[j, i, re_col + 1] = 1j, -1j
    p.setflags(write=False)
    return p


def _design_rows(spec: _Protocol, coupling: CouplingConfig) -> np.ndarray:
    """Design rows (one per ancilla outcome tuple) for one coupling.

    K = kron over slots of [[a+, b+], [a-, b-]] holds each outcome's
    coefficient on each slot pattern, and c = K onehot() its coefficient on
    each sandwich, so the outcome probabilities are the diagonal of
    Re c T c^dag.
    """
    ab = slot_coefficients(coupling)
    c = spec.per_slot([ab[+1], ab[-1]]) @ spec.onehot()
    return np.einsum("ri,rj,ijk->rk", c, c.conj(), _columns(c.shape[1])).real


@dataclass
class InferenceReport:
    """Diagnostics of one inversion: conditioning, residuals, background traces.

    Every final-outcome block shares one design, so rank (the count of
    singular values above 1e-10 of the largest) and effective_condition
    (the largest over the protocol's rank-th) are single numbers.
    residuals and background are keyed by the final-outcome tuple of each
    solved block, in tensor axis order: (w3,) for three-weak, (v3, w) for
    two-weak. background holds each block's full solved sandwich-trace set;
    the quasiprobability uses only the identity-column traces, the rest are
    the independently measured background terms. std_errors is None for
    exact records.
    """

    protocol: str
    rank: int
    effective_condition: float
    residuals: dict
    background: dict
    std_errors: np.ndarray | None = None


def _validate_records(records) -> str:
    if not records:
        raise ValueError("no measurement records supplied")
    protocols = {r.protocol for r in records}
    if len(protocols) != 1:
        raise ValueError("records mix different protocols")
    for mode in PHASE_MODES:
        strengths = {r.coupling.strength for r in records
                     if r.coupling.phase_mode == mode and r.coupling.strength > 0}
        if len(strengths) < 3:
            raise ValueError(
                "inference needs at least 3 distinct nonzero strengths "
                f"in phase mode {mode!r}"
            )
    return protocols.pop()


def _block_covariance(records, bin_lists):
    """Multinomial covariance of the stacked frequency vector, block per record."""
    total = sum(len(b) for b in bin_lists)
    cov = np.zeros((total, total))
    off = 0
    for rec, bins in zip(records, bin_lists):
        if rec.counts is not None:
            p = rec.frequencies()[bins]
            cov[off:off + len(bins), off:off + len(bins)] = \
                (np.diag(p) - np.outer(p, p)) / rec.shots
        off += len(bins)
    return cov


def infer_coarse_quasiprob(records):
    """Invert pooled outcome histograms into the coarse quasiprobability.

    records: MeasurementRecord values from one instance at several coupling
    strengths, both phase modes. Returns (QuasiDistribution, InferenceReport).
    Sampled records propagate their multinomial counting noise into
    per-entry standard errors (std_errors aligned with the tensor, last
    axis 0 = real, 1 = imaginary part).

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

    The design matrix depends only on the couplings, so every final-outcome
    block shares it and its one SVD, truncated at the protocol's rank r.
    That SVD gives the counted rank and the effective condition number (a
    weak design is refused), the pseudo-inverse V_r S_r^-1 U_r^T, which
    solves all blocks at once (each block's column of the right-hand side
    is its own frequency vector), and for sampled records the standard
    errors. The entries are T[x, 0] = P[x, 0] . sol summed with the
    inclusion-exclusion weights kron over slots of [[1, -1], [0, 1]]
    (outcome -1 is 1 - Pi, outcome +1 is Pi) on the sandwiches x.
    """
    protocol = _validate_records(records)
    spec = _PROTOCOLS[protocol]
    slots = len(spec.letters)
    pm = np.array([-1.0, 1.0])
    finals = [np.array(sorted({out[p] for out in records[0].outcomes}))
              for p in spec.final]
    shape = (2,) * slots + tuple(len(evs) for evs in finals)
    keys = [tuple(float(evs[i]) for evs, i in zip(finals, f_idx))
            for f_idx in np.ndindex(*shape[slots:])]
    bins = [[[k for k, out in enumerate(rec.outcomes)
              if all(abs(out[p] - ev) < qla.EIGENVALUE_MATCH_TOL
                     for p, ev in zip(spec.final, key))]
             for rec in records] for key in keys]
    if any(len(b) != len(spec.outcomes) for per_rec in bins for b in per_rec):
        raise ValueError("record bins do not cover all ancilla outcomes")
    freqs = np.array([np.concatenate([rec.frequencies()[b] for rec, b in zip(records, per_rec)])
                      for per_rec in bins]).T
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
    identity_col = _columns(max(spec.x) + 1)[:, 0]
    ell = spec.per_slot([[1.0, -1.0], [0.0, 1.0]]) @ spec.onehot() @ identity_col
    errors = None
    if any(rec.counts is not None for rec in records):
        covs = np.array([_block_covariance(records, per_rec) for per_rec in bins])
        var = [np.einsum("wn,bnm,wm->wb", g, covs, g) for g in (ell.real @ pinv, ell.imag @ pinv)]
        errors = np.sqrt(np.maximum(0.0, np.stack(var, axis=-1))).reshape(shape + (2,))
    t_col = identity_col @ sols
    resids = np.max(np.abs(design @ sols - freqs), axis=0)
    background = {key: {"identity_column": [complex(c) for c in t_col[:, b]],
                        "solution": sols[:, b]} for b, key in enumerate(keys)}

    # the two-weak tensor puts its weak V and W on axes v1, w2 and its
    # final V outcome and prepared W eigenvalue on v2, w3
    dist = quasiprob.QuasiDistribution(
        values=(ell @ sols).reshape(shape),
        axis_names=quasiprob.COARSE_AXES,
        axis_eigenvalues=(pm,) * slots + tuple(finals),
    )
    report = InferenceReport(
        protocol=protocol, rank=rank, effective_condition=cond,
        residuals={key: float(res) for key, res in zip(keys, resids)},
        background=background, std_errors=errors,
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

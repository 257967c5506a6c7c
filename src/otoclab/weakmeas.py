"""Weak-measurement protocols that make the coarse quasiprobability measurable.

Two circuit families are simulated. The full protocol couples three fresh
ancillas weakly (weak V, evolve, weak W, evolve back, weak V, evolve,
strong W); for states sharing the evolved-W eigenbasis a shorter variant
with two weak couplings suffices. Each weak coupling applies a Kraus pair
of the form M_s = a_s 1 + b_s Pi, so every joint outcome probability is
exactly multilinear in the slot coefficients (a, b).

Inference exploits that structure directly, with one inversion for both
families: the probabilities of each final-outcome block are linear in a
fixed family of sandwich traces T[i, j] = Tr(Pi_final S_i rho S_j^dag)
with S drawn from products of the two projectors. Collecting runs at
several coupling strengths in both phase modes (real and imaginary
coupling coefficient) gives an overdetermined real linear system; the
quasiprobability is assembled from the solved traces by
inclusion-exclusion over projector complements, and the remaining traces
are the independently measurable background terms. What differs between
the families (the number of weak slots, the sandwich list and how slot
patterns index it, its dagger permutation, the identifiable rank, and
where the final outcomes sit in a record) is one row of the _PROTOCOLS
table.
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
_PROJECTOR_TOL = 1e-10
_COMMUTATION_TOL = 1e-10
# joint outcome probabilities: sum-to-one and negativity tolerance
_PROBABILITY_TOL = 1e-10
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
    if np.max(np.abs(p - qla.dagger(p))) > _PROJECTOR_TOL:
        raise ValueError("projector must be Hermitian")
    if np.max(np.abs(p @ p - p)) > _PROJECTOR_TOL:
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


def ancilla_subcircuit_kraus(axis_projectors, phi: float, base_angle: float = math.pi / 2):
    """Kraus pair from the explicit two-qubit ancilla subcircuit.

    The ancilla starts in |0>, a controlled y-rotation applies angle
    base_angle - phi on the complement of the target eigenspace and
    base_angle + phi on the eigenspace, and the ancilla is measured in the
    computational basis (outcome +1 for |1>). The operators are obtained by
    contracting the ancilla out of the joint unitary. At base_angle = pi/2
    the pair is the symmetric partial projection with p = (1 + sin phi)/2.
    """
    if not 0.0 <= base_angle <= math.pi:
        raise ValueError("base_angle must lie in [0, pi]")
    pi_plus = _check_projector(axis_projectors[0])
    pi_minus = _check_projector(axis_projectors[1])
    dim = pi_plus.shape[0]
    if np.max(np.abs(pi_plus + pi_minus - np.eye(dim))) > _PROJECTOR_TOL:
        raise ValueError("axis projectors must resolve the identity")
    if np.max(np.abs(pi_plus @ pi_minus)) > _PROJECTOR_TOL:
        raise ValueError("axis projectors must be orthogonal")

    def r_y(theta):
        c, s = math.cos(theta / 2.0), math.sin(theta / 2.0)
        return np.array([[c, -s], [s, c]], dtype=complex)

    # system tensor ancilla; controlled rotation conditioned on the eigenspace
    joint = np.kron(pi_minus, r_y(base_angle - phi)) + np.kron(pi_plus, r_y(base_angle + phi))
    anc0 = np.array([1.0, 0.0], dtype=complex)
    anc1 = np.array([0.0, 1.0], dtype=complex)
    inject = np.kron(np.eye(dim, dtype=complex), anc0.reshape(2, 1))
    m_plus = np.kron(np.eye(dim, dtype=complex), anc1.reshape(1, 2)) @ joint @ inject
    m_minus = np.kron(np.eye(dim, dtype=complex), anc0.reshape(1, 2)) @ joint @ inject
    return m_plus, m_minus


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


def _weak_slot_operators(proj, coupling: CouplingConfig) -> dict[int, np.ndarray]:
    m_plus, m_minus = kraus_pair(proj, coupling)
    return {+1: m_plus, -1: m_minus}


def _sample_counts(probabilities, shots, seed) -> np.ndarray:
    """Multinomial histogram; only rounding residue below zero is clipped."""
    p = np.asarray(probabilities, dtype=float)
    if np.min(p) < -_PROBABILITY_TOL:
        raise ValueError(f"outcome probability {np.min(p):.3e} is negative")
    p = np.clip(p, 0.0, None)
    rng = np.random.default_rng(seed)
    return rng.multinomial(shots, p / p.sum())


def simulate_protocol(rho, w_op, v_op, hamiltonian, t: float,
                      coupling: CouplingConfig, shots: int = 0,
                      seed=None) -> MeasurementRecord:
    """Joint distribution of the three-coupling protocol.

    Sequence: weak V, evolve U, weak W, evolve U back, weak V, evolve U,
    strong W. In the Heisenberg picture this collapses to

        P(s1, s2, s3, w3) = Tr( Pi^{W(t)}_{w3} M3 M2 M1 rho M1+ M2+ M3+ )

    with M1, M3 the V Kraus operators and M2 built from the evolved W;
    that form is evaluated here. shots = 0 returns exact probabilities,
    shots >= 1 draws a multinomial histogram from them (statistically
    identical to per-shot conditional updates).
    """
    return _three_weak(rho, w_op, v_op, hamiltonian, t)(coupling, shots, seed)


def _three_weak(rho, w_op, v_op, hamiltonian, t: float):
    """simulate_protocol at fixed rho, W, V and t, as a map (coupling, shots,
    seed) -> record; W(t) and both projector pairs are built once."""
    quasiprob._check_dims(rho, w_op, v_op)
    wt = quasiprob.heisenberg(w_op, quasiprob.propagator(hamiltonian, t))
    w_evs, w_projs = quasiprob._distinct_projectors(wt)
    v_evs, v_projs = quasiprob._distinct_projectors(v_op)
    if len(v_evs) != 2:
        raise ValueError("weak V coupling needs a two-outcome observable")
    pv_plus = v_projs[int(np.argmax(v_evs))]
    pw_plus = w_projs[int(np.argmax(w_evs))]
    rho = np.asarray(rho, dtype=complex)

    def record(coupling: CouplingConfig, shots: int, seed) -> MeasurementRecord:
        mv = _weak_slot_operators(pv_plus, coupling)
        mw = _weak_slot_operators(pw_plus, coupling)
        outcomes, probs = [], []
        for s in _PROTOCOLS["three-weak"].outcomes:
            op = mv[s[2]] @ mw[s[1]] @ mv[s[0]]
            evolved = op @ rho @ qla.dagger(op)
            for i_w, w3 in enumerate(w_evs):
                outcomes.append((*s, float(w3)))
                probs.append(float(np.trace(w_projs[i_w] @ evolved).real))
        return _record("three-weak", coupling, outcomes, probs, shots, seed, w_evs)
    return record


def two_measurement_protocol(rho, w_op, v_op, hamiltonian, t: float,
                             coupling: CouplingConfig, shots: int = 0,
                             seed=None) -> MeasurementRecord:
    """Joint distribution of the two-coupling protocol.

    Sequence: prepare an eigenstate of W drawn from rho's eigenbasis
    weights, evolve backward, weak V, evolve forward, weak W, evolve
    backward, strong V. Valid only when rho commutes with the evolved W,
    so that preparing W eigenstates with the weights <w,l| U rho U+ |w,l>
    reproduces the ensemble; other states are rejected.
    """
    return _two_weak(rho, w_op, v_op, hamiltonian, t)(coupling, shots, seed)


def _two_weak(rho, w_op, v_op, hamiltonian, t: float):
    """two_measurement_protocol at fixed rho, W, V and t, as a map
    (coupling, shots, seed) -> record; the propagator, the W eigenbasis and
    its preparation weights and both projector pairs are built once."""
    quasiprob._check_dims(rho, w_op, v_op)
    u = quasiprob.propagator(hamiltonian, t)
    w = np.asarray(w_op, dtype=complex)
    v = np.asarray(v_op, dtype=complex)
    rho = np.asarray(rho, dtype=complex)
    rho_fwd = u @ rho @ qla.dagger(u)
    if np.max(np.abs(rho_fwd @ w - w @ rho_fwd)) > _COMMUTATION_TOL:
        raise ValueError(
            "two-coupling protocol needs a state commuting with the evolved W"
        )
    v_evs, v_projs = quasiprob._distinct_projectors(v)
    if len(v_evs) != 2:
        raise ValueError("weak V coupling needs a two-outcome observable")
    w_sys = qla.eigh(w)
    w_evs, w_projs = quasiprob._distinct_projectors(w)
    pv_plus = v_projs[int(np.argmax(v_evs))]
    pw_plus_lab = w_projs[int(np.argmax(w_evs))]
    u_dag = qla.dagger(u)
    col_weights = np.real(np.einsum("ij,jk,ki->i",
                                    w_sys.eigenvectors.conj().T, rho_fwd,
                                    w_sys.eigenvectors))
    # prepared eigenstates and their weights, per W eigenvalue
    preparations = []
    for wb in w_evs:
        in_block = [k for k in range(w.shape[0])
                    if abs(w_sys.eigenvalues[k] - wb) < 1e-9]
        preparations.append((wb, [w_sys.eigenvectors[:, k] for k in in_block],
                             [col_weights[k] for k in in_block]))

    def record(coupling: CouplingConfig, shots: int, seed) -> MeasurementRecord:
        mv = _weak_slot_operators(pv_plus, coupling)
        mw = _weak_slot_operators(pw_plus_lab, coupling)
        outcomes, probs = [], []
        for wb, cols, wts in preparations:
            for s1, s2 in _PROTOCOLS["two-weak"].outcomes:
                chain = u_dag @ mw[s2] @ u @ mv[s1] @ u_dag
                for i_v, v3 in enumerate(v_evs):
                    tot = 0.0
                    for c, wt_c in zip(cols, wts):
                        vec = chain @ c
                        tot += wt_c * float(np.linalg.norm(v_projs[i_v] @ vec) ** 2)
                    outcomes.append((float(wb), s1, s2, float(v3)))
                    probs.append(tot)
        return _record("two-weak", coupling, outcomes, probs, shots, seed, v_evs)
    return record


def _record(protocol, coupling, outcomes, probs, shots, seed,
            final_eigenvalues) -> MeasurementRecord:
    """Check that the joint probabilities sum to one and sample them."""
    if shots < 0:
        raise ValueError("shots must be >= 0")
    probabilities = np.array(probs)
    total = probabilities.sum()
    if abs(total - 1.0) > _PROBABILITY_TOL:
        raise RuntimeError(f"joint probabilities sum to {total}, not 1")
    counts = _sample_counts(probabilities, shots, seed) if shots else None
    return MeasurementRecord(
        protocol=protocol,
        coupling=coupling,
        outcomes=outcomes,
        probabilities=probabilities,
        counts=counts,
        shots=shots,
        final_eigenvalues=final_eigenvalues,
    )


# ---------------------------------------------------------------------------
# inference


@dataclass(frozen=True)
class _Protocol:
    """One circuit family, as the inversion sees it.

    A slot pattern takes, per weak coupling, a_s 1 (bit 0) or b_s Pi
    (bit 1); it picks the sandwich operator S_{x_map[pat]} left of rho and
    S_{y_map[pat]}^dag right of it. sigma is the dagger permutation of the
    sandwich list, T[i,j]* = T[sigma(j), sigma(i)], and rank counts the
    real degrees of freedom the records identify. final gives the
    positions of the final-outcome eigenvalues in each record outcome
    tuple, in tensor axis order; the ancilla outcomes fill the leading
    axes.
    """

    slots: int
    x_map: dict
    y_map: dict
    sigma: tuple
    rank: int
    final: tuple

    @property
    def outcomes(self) -> list[tuple]:
        """Ancilla outcome tuples, in the order records store them."""
        return list(itertools.product((1, -1), repeat=self.slots))

    @property
    def patterns(self) -> list[tuple]:
        return list(itertools.product((0, 1), repeat=self.slots))


_PROTOCOLS = {
    # sandwich list [1, Pv, Pw, Pw Pv, Pv Pw, Pv Pw Pv]; x_map indexes the
    # product X3 X2 X1, y_map the product Y1 Y2 Y3; 27 of 36 real traces
    "three-weak": _Protocol(
        slots=3,
        x_map={(0, 0, 0): 0, (1, 0, 0): 1, (0, 0, 1): 1, (1, 0, 1): 1,
               (0, 1, 0): 2, (1, 1, 0): 3, (0, 1, 1): 4, (1, 1, 1): 5},
        y_map={(0, 0, 0): 0, (1, 0, 0): 1, (0, 0, 1): 1, (1, 0, 1): 1,
               (0, 1, 0): 2, (1, 1, 0): 4, (0, 1, 1): 3, (1, 1, 1): 5},
        sigma=(0, 1, 2, 4, 3, 5), rank=27, final=(3,)),
    # sandwich list [1, Pv, Pw Pv, Pw]; both sides carry the same product,
    # so T is Hermitian; 13 of 16 real traces
    "two-weak": _Protocol(
        slots=2,
        x_map={(0, 0): 0, (1, 0): 1, (0, 1): 3, (1, 1): 2},
        y_map={(0, 0): 0, (1, 0): 1, (0, 1): 3, (1, 1): 2},
        sigma=(0, 1, 2, 3), rank=13, final=(3, 0)),
}


@functools.cache
def _columns(sigma: tuple) -> list:
    """Real parameterization of the sandwich-trace array.

    The dagger permutation sigma gives T[i,j]* = T[sigma(j), sigma(i)]:
    fixed points are real entries, the rest come in conjugate pairs stored
    as (re, im) of one representative.
    """
    real_entries, pair_reps, seen = [], [], set()
    for i, j in itertools.product(range(len(sigma)), repeat=2):
        if (i, j) in seen:
            continue
        mirror = (sigma[j], sigma[i])
        seen.update({(i, j), mirror})
        (real_entries if mirror == (i, j) else pair_reps).append((i, j))
    return ([("re", e) for e in real_entries]
            + [(part, p) for p in pair_reps for part in ("re", "im")])


def _design_rows(spec: _Protocol, coupling: CouplingConfig) -> np.ndarray:
    """Design rows (one per ancilla outcome tuple) for one coupling."""
    ab = slot_coefficients(coupling)
    n = len(spec.sigma)
    cols = _columns(spec.sigma)
    rows = np.zeros((len(spec.outcomes), len(cols)))
    for r, s in enumerate(spec.outcomes):
        cx = np.zeros(n, dtype=complex)
        cy = np.zeros(n, dtype=complex)
        for pat in spec.patterns:
            prod = 1.0 + 0j
            for slot in range(spec.slots):
                a, b = ab[s[slot]]
                prod *= b if pat[slot] else a
            cx[spec.x_map[pat]] += prod
            cy[spec.y_map[pat]] += prod
        coef = np.outer(cx, cy.conj())
        for k, (part, (i, j)) in enumerate(cols):
            ci, cj = spec.sigma[j], spec.sigma[i]
            if (ci, cj) == (i, j):
                rows[r, k] = coef[i, j].real
            elif part == "re":
                rows[r, k] = (coef[i, j] + coef[ci, cj]).real
            else:
                rows[r, k] = -coef[i, j].imag + coef[ci, cj].imag
    return rows


def _identity_column_functionals(spec: _Protocol):
    """Linear maps sol -> (Re, Im) of T[(x, 0)] for each sandwich index x."""
    idx = {c: k for k, c in enumerate(_columns(spec.sigma))}
    n = len(spec.sigma)
    re_f = np.zeros((n, len(idx)))
    im_f = np.zeros((n, len(idx)))
    for x in range(n):
        mirror = (spec.sigma[0], spec.sigma[x])
        if mirror == (x, 0):
            re_f[x, idx[("re", (x, 0))]] = 1.0
        elif ("re", (x, 0)) in idx:
            re_f[x, idx[("re", (x, 0))]] = 1.0
            im_f[x, idx[("im", (x, 0))]] = 1.0
        else:
            re_f[x, idx[("re", mirror)]] = 1.0
            im_f[x, idx[("im", mirror)]] = -1.0
    return re_f, im_f


def _assembly_weights(spec: _Protocol, slot_evs) -> np.ndarray:
    """Inclusion-exclusion weights over the identity-column traces for the
    weak-coupling eigenvalues slot_evs (one +-1 per slot)."""
    wgt = np.zeros(len(spec.sigma))
    for pat in spec.patterns:
        weight = 1.0
        for slot, ev in enumerate(slot_evs):
            if ev > 0:
                weight *= 1.0 if pat[slot] else 0.0
            else:
                weight *= -1.0 if pat[slot] else 1.0
        if weight:
            wgt[spec.x_map[pat]] += weight
    return wgt


@dataclass
class InferenceReport:
    """Diagnostics of one inversion: conditioning, residuals, background traces.

    ranks, effective_conditions, residuals and background are keyed by the
    final-outcome tuple of each solved block, in tensor axis order: (w3,)
    for three-weak, (v3, w) for two-weak. background holds each block's
    full solved sandwich-trace set; the quasiprobability uses only the
    identity-column traces, the rest are the independently measured
    background terms.
    """

    protocol: str
    ranks: dict
    effective_conditions: dict
    residuals: dict
    background: dict
    phi_values: tuple[float, ...]
    modes: tuple[str, ...]
    sampled: bool
    std_errors: np.ndarray | None = None


def _validate_records(records) -> tuple[str, tuple[float, ...], tuple[str, ...]]:
    if not records:
        raise ValueError("no measurement records supplied")
    protocols = {r.protocol for r in records}
    if len(protocols) != 1:
        raise ValueError("records mix different protocols")
    protocol = protocols.pop()
    phis = tuple(sorted({r.coupling.strength for r in records}))
    modes = tuple(sorted({r.coupling.phase_mode for r in records}))
    for mode in PHASE_MODES:
        strengths = {r.coupling.strength for r in records
                     if r.coupling.phase_mode == mode and r.coupling.strength > 0}
        if len(strengths) < 3:
            raise ValueError(
                "inference needs at least 3 distinct nonzero strengths "
                f"in phase mode {mode!r}"
            )
    return protocol, phis, modes


def _conditioning(design, required_rank: int) -> tuple[int, float]:
    """Rank and effective condition number of the design; refuse a weak one."""
    sing = np.linalg.svd(design, compute_uv=False)
    rank = int(np.sum(sing > sing[0] * 1e-10))
    if rank < required_rank or sing[0] / sing[required_rank - 1] > CONDITION_LIMIT:
        cond = sing[0] / sing[required_rank - 1] if rank >= required_rank else np.inf
        raise ValueError(
            f"inference design is ill conditioned (rank {rank}, effective "
            f"condition {cond:.3e}); widen the coupling-strength spread"
        )
    return rank, float(sing[0] / sing[required_rank - 1])


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
    V eigenbasis (three-weak), and any state weighting the evolved-W
    eigenspaces evenly inside each one (two-weak). For other states the
    entries can carry an O(1e-2) bias that no strength schedule removes;
    check residuals and compare against a direct computation when in
    doubt.
    """
    protocol, phis, modes = _validate_records(records)
    return _infer(protocol, records, phis, modes)


def _infer(protocol: str, records, phis, modes):
    """One least-squares solve per final-outcome block.

    The design matrix depends only on the couplings, so it, its
    conditioning and (for sampled records) its pseudo-inverse are built
    once; each block then solves for its own frequency vector.
    """
    spec = _PROTOCOLS[protocol]
    sampled = any(r.counts is not None for r in records)
    pm = np.array([-1.0, 1.0])
    finals = [np.array(sorted({out[p] for out in records[0].outcomes}))
              for p in spec.final]
    shape = (2,) * spec.slots + tuple(len(evs) for evs in finals)
    values = np.zeros(shape, dtype=complex)
    errors = np.zeros(shape + (2,)) if sampled else None
    re_f, im_f = _identity_column_functionals(spec)
    weights = {w_idx: _assembly_weights(spec, pm[list(w_idx)])
               for w_idx in np.ndindex(*(2,) * spec.slots)}
    design = np.vstack([_design_rows(spec, rec.coupling) for rec in records])
    rank, cond = _conditioning(design, spec.rank)
    pinv = np.linalg.pinv(design, rcond=1e-10) if sampled else None
    ranks, conds, resids, background = {}, {}, {}, {}

    for f_idx in np.ndindex(*shape[spec.slots:]):
        key = tuple(float(evs[i]) for evs, i in zip(finals, f_idx))
        b_vals, bin_lists = [], []
        for rec in records:
            bins = [k for k, out in enumerate(rec.outcomes)
                    if all(abs(out[p] - ev) < 1e-9 for p, ev in zip(spec.final, key))]
            if len(bins) != len(spec.outcomes):
                raise ValueError("record bins do not cover all ancilla outcomes")
            b_vals.append(rec.frequencies()[bins])
            bin_lists.append(bins)
        b_vec = np.concatenate(b_vals)
        sol, *_ = np.linalg.lstsq(design, b_vec, rcond=None)
        ranks[key], conds[key] = rank, cond
        resids[key] = float(np.max(np.abs(design @ sol - b_vec)))
        t_re = re_f @ sol
        t_im = im_f @ sol
        background[key] = {
            "identity_column": [complex(re, im) for re, im in zip(t_re, t_im)],
            "solution": sol,
        }
        if sampled:
            cov_sol = pinv @ _block_covariance(records, bin_lists) @ pinv.T
        for w_idx, wgt in weights.items():
            values[w_idx + f_idx] = complex(wgt @ t_re, wgt @ t_im)
            if sampled:
                for part, ell in enumerate((wgt @ re_f, wgt @ im_f)):
                    errors[w_idx + f_idx + (part,)] = math.sqrt(
                        max(0.0, ell @ cov_sol @ ell))

    # the two-weak tensor puts its weak V and W on axes v1, w2 and its
    # final V outcome and prepared W eigenvalue on v2, w3
    dist = quasiprob.QuasiDistribution(
        values=values,
        axis_names=quasiprob.COARSE_AXES,
        axis_eigenvalues=(pm,) * spec.slots + tuple(finals),
        grain="coarse",
        meta={"inferred_from": protocol},
    )
    report = InferenceReport(
        protocol=protocol, ranks=ranks, effective_conditions=conds,
        residuals=resids, background=background, phi_values=phis,
        modes=modes, sampled=sampled, std_errors=errors,
    )
    return dist, report


def standard_protocol_records(rho, w_op, v_op, hamiltonian, t: float,
                              phis=(0.05, 0.1, 0.15, 0.2), shots: int = 0,
                              seed=None, protocol: str = "three-weak"):
    """Records at every (mode, strength) combination, ready for inference.

    Equal, record for record, to calling simulate_protocol (three-weak) or
    two_measurement_protocol (two-weak) once per coupling with seed
    (seed, k) for the k-th record; the coupling-independent set-up is done
    once.
    """
    if protocol not in _PROTOCOLS:
        raise ValueError(f"unknown protocol {protocol!r}; "
                         f"expected one of {', '.join(_PROTOCOLS)}")
    setup = _three_weak if protocol == "three-weak" else _two_weak
    record = setup(rho, w_op, v_op, hamiltonian, t)
    return [record(CouplingConfig(phi, mode), shots,
                   None if seed is None else (seed, k))
            for k, (mode, phi) in enumerate((m, p) for m in PHASE_MODES for p in phis)]

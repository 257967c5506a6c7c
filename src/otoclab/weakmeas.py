"""Weak-measurement protocols that make the coarse quasiprobability measurable.

Two circuit families are simulated. The full protocol couples three fresh
ancillas weakly (weak V, evolve, weak W, evolve back, weak V, evolve,
strong W); for states sharing the evolved-W eigenbasis a shorter variant
with two weak couplings suffices. Each weak coupling applies a Kraus pair
of the form M_s = a_s 1 + b_s Pi, so every joint outcome probability is
exactly multilinear in the slot coefficients (a, b).

Inference exploits that structure directly: the probabilities are linear
in a fixed family of sandwich traces T[i, j] = Tr(Pi_{w3} S_i rho S_j^dag)
with S drawn from products of the two projectors. Collecting runs at
several coupling strengths in both phase modes (real and imaginary
coupling coefficient) gives an overdetermined real linear system; the
quasiprobability is assembled from the solved traces by
inclusion-exclusion over projector complements, and the remaining traces
are the independently measurable background terms.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field

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
# identifiable real degrees of freedom: 27 of 36 sandwich traces for the
# three-coupling protocol, 13 of 16 for the two-coupling variant
_RANK_REQUIRED = {"three-weak": 27, "two-weak": 13}

_THREE_OUTCOMES = [(s1, s2, s3) for s1 in (1, -1) for s2 in (1, -1) for s3 in (1, -1)]
_PATTERNS3 = [(x1, x2, x3) for x1 in (0, 1) for x2 in (0, 1) for x3 in (0, 1)]
# index of the operator product X3 X2 X1 (and Y1 Y2 Y3) in the sandwich list
# [1, Pv, Pw, Pw Pv, Pv Pw, Pv Pw Pv]
_X_MAP = {(0, 0, 0): 0, (1, 0, 0): 1, (0, 0, 1): 1, (1, 0, 1): 1,
          (0, 1, 0): 2, (1, 1, 0): 3, (0, 1, 1): 4, (1, 1, 1): 5}
_Y_MAP = {(0, 0, 0): 0, (1, 0, 0): 1, (0, 0, 1): 1, (1, 0, 1): 1,
          (0, 1, 0): 2, (1, 1, 0): 4, (0, 1, 1): 3, (1, 1, 1): 5}
_SIGMA = (0, 1, 2, 4, 3, 5)   # dagger permutation on the sandwich list

_TWO_OUTCOMES = [(s1, s2) for s1 in (1, -1) for s2 in (1, -1)]
_PATTERNS2 = [(x1, x2) for x1 in (0, 1) for x2 in (0, 1)]
# sandwich list [1, Pv, Pw Pv, Pw]; Hermitian pairing T[i,j]* = T[j,i]
_X2_MAP = {(0, 0): 0, (1, 0): 1, (0, 1): 3, (1, 1): 2}
_PAIRS2 = [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)]


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


@dataclass(frozen=True)
class PartialProjection:
    """Kraus pair D+ = sqrt(p) Pi+ + sqrt(1-p) Pi-, D- with p and 1-p swapped."""

    p: float
    plus_projector: np.ndarray
    minus_projector: np.ndarray

    def __post_init__(self):
        if not 0.0 <= self.p <= 1.0:
            raise ValueError("p must lie in [0, 1]")
        d_plus, d_minus = self.kraus()
        total = qla.dagger(d_plus) @ d_plus + qla.dagger(d_minus) @ d_minus
        if np.max(np.abs(total - np.eye(total.shape[0]))) > _COMPLETENESS_TOL:
            raise ValueError("partial projection violates Kraus completeness")

    def kraus(self) -> tuple[np.ndarray, np.ndarray]:
        sp, sq = math.sqrt(self.p), math.sqrt(1.0 - self.p)
        d_plus = sp * self.plus_projector + sq * self.minus_projector
        d_minus = sq * self.plus_projector + sp * self.minus_projector
        return d_plus, d_minus


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
    if shots < 0:
        raise ValueError("shots must be >= 0")
    quasiprob._check_dims(rho, w_op, v_op)
    wt = quasiprob.heisenberg(w_op, quasiprob.propagator(hamiltonian, t))
    w_evs, w_projs = quasiprob._distinct_projectors(wt)
    v_evs, v_projs = quasiprob._distinct_projectors(v_op)
    if len(v_evs) != 2:
        raise ValueError("weak V coupling needs a two-outcome observable")
    pv_plus = v_projs[int(np.argmax(v_evs))]
    pw_plus = w_projs[int(np.argmax(w_evs))]
    mv = _weak_slot_operators(pv_plus, coupling)
    mw = _weak_slot_operators(pw_plus, coupling)
    rho = np.asarray(rho, dtype=complex)

    outcomes, probs = [], []
    for s in _THREE_OUTCOMES:
        op = mv[s[2]] @ mw[s[1]] @ mv[s[0]]
        evolved = op @ rho @ qla.dagger(op)
        for i_w, w3 in enumerate(w_evs):
            outcomes.append((*s, float(w3)))
            probs.append(float(np.trace(w_projs[i_w] @ evolved).real))
    probabilities = np.array(probs)
    total = probabilities.sum()
    if abs(total - 1.0) > _PROBABILITY_TOL:
        raise RuntimeError(f"joint probabilities sum to {total}, not 1")
    counts = _sample_counts(probabilities, shots, seed) if shots else None
    return MeasurementRecord(
        protocol="three-weak",
        coupling=coupling,
        outcomes=outcomes,
        probabilities=probabilities,
        counts=counts,
        shots=shots,
        final_eigenvalues=w_evs,
    )


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
    if shots < 0:
        raise ValueError("shots must be >= 0")
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
    mv = _weak_slot_operators(pv_plus, coupling)
    mw = _weak_slot_operators(pw_plus_lab, coupling)

    outcomes, probs = [], []
    u_dag = qla.dagger(u)
    col_weights = np.real(np.einsum("ij,jk,ki->i",
                                    w_sys.eigenvectors.conj().T, rho_fwd,
                                    w_sys.eigenvectors))
    for wb in w_evs:
        cols = [w_sys.eigenvectors[:, k] for k in range(w.shape[0])
                if abs(w_sys.eigenvalues[k] - wb) < 1e-9]
        wts = [col_weights[k] for k in range(w.shape[0])
               if abs(w_sys.eigenvalues[k] - wb) < 1e-9]
        for s1, s2 in _TWO_OUTCOMES:
            chain = u_dag @ mw[s2] @ u @ mv[s1] @ u_dag
            for i_v, v3 in enumerate(v_evs):
                tot = 0.0
                for c, wt_c in zip(cols, wts):
                    vec = chain @ c
                    tot += wt_c * float(np.linalg.norm(v_projs[i_v] @ vec) ** 2)
                outcomes.append((float(wb), s1, s2, float(v3)))
                probs.append(tot)
    probabilities = np.array(probs)
    total = probabilities.sum()
    if abs(total - 1.0) > _PROBABILITY_TOL:
        raise RuntimeError(f"joint probabilities sum to {total}, not 1")
    counts = _sample_counts(probabilities, shots, seed) if shots else None
    return MeasurementRecord(
        protocol="two-weak",
        coupling=coupling,
        outcomes=outcomes,
        probabilities=probabilities,
        counts=counts,
        shots=shots,
        final_eigenvalues=v_evs,
    )


# ---------------------------------------------------------------------------
# inference


def _columns3():
    """Real parameterization of the 6x6 sandwich-trace array.

    The dagger permutation sigma gives T[i,j]* = T[sigma(j), sigma(i)]:
    fixed points are real entries, the rest come in conjugate pairs stored
    as (re, im) of one representative.
    """
    real_entries, pair_reps, seen = [], [], set()
    for i in range(6):
        for j in range(6):
            if (i, j) in seen:
                continue
            ci, cj = _SIGMA[j], _SIGMA[i]
            if (ci, cj) == (i, j):
                real_entries.append((i, j))
                seen.add((i, j))
            else:
                pair_reps.append((i, j))
                seen.add((i, j))
                seen.add((ci, cj))
    cols = [("re", e) for e in real_entries]
    for p in pair_reps:
        cols.append(("re", p))
        cols.append(("im", p))
    return cols


_COLS3 = _columns3()
_IDX3 = {c: k for k, c in enumerate(_COLS3)}


def _design_rows3(coupling: CouplingConfig) -> np.ndarray:
    """Eight design rows (one per ancilla outcome triple) for one coupling."""
    ab = slot_coefficients(coupling)
    rows = np.zeros((len(_THREE_OUTCOMES), len(_COLS3)))
    for r, s in enumerate(_THREE_OUTCOMES):
        cx = np.zeros(6, dtype=complex)
        cy = np.zeros(6, dtype=complex)
        for pat in _PATTERNS3:
            prod = 1.0 + 0j
            for slot in range(3):
                a, b = ab[s[slot]]
                prod *= b if pat[slot] else a
            cx[_X_MAP[pat]] += prod
            cy[_Y_MAP[pat]] += prod
        coef = np.outer(cx, cy.conj())
        for k, (part, (i, j)) in enumerate(_COLS3):
            ci, cj = _SIGMA[j], _SIGMA[i]
            if (ci, cj) == (i, j):
                rows[r, k] = coef[i, j].real
            elif part == "re":
                rows[r, k] = (coef[i, j] + coef[ci, cj]).real
            else:
                rows[r, k] = -coef[i, j].imag + coef[ci, cj].imag
    return rows


def _identity_column_functionals3():
    """Linear maps sol -> (Re, Im) of T[(x, 0)] for each sandwich index x."""
    n = len(_COLS3)
    re_f = np.zeros((6, n))
    im_f = np.zeros((6, n))
    for x in range(6):
        i, j = x, 0
        ci, cj = _SIGMA[j], _SIGMA[i]
        if (ci, cj) == (i, j):
            re_f[x, _IDX3[("re", (i, j))]] = 1.0
        elif ("re", (i, j)) in _IDX3:
            re_f[x, _IDX3[("re", (i, j))]] = 1.0
            im_f[x, _IDX3[("im", (i, j))]] = 1.0
        else:
            re_f[x, _IDX3[("re", (ci, cj))]] = 1.0
            im_f[x, _IDX3[("im", (ci, cj))]] = -1.0
    return re_f, im_f


def _assembly_weights3(v1: float, w2: float, v2: float) -> np.ndarray:
    """Inclusion-exclusion weights over the identity-column traces."""
    wgt = np.zeros(6)
    for pat in _PATTERNS3:
        weight = 1.0
        for slot, ev in zip(range(3), (v1, w2, v2)):
            if ev > 0:
                weight *= 1.0 if pat[slot] else 0.0
            else:
                weight *= -1.0 if pat[slot] else 1.0
        if weight:
            wgt[_X_MAP[pat]] += weight
    return wgt


def _design_rows2(coupling: CouplingConfig) -> np.ndarray:
    """Four design rows for one coupling of the two-weak protocol."""
    ab = slot_coefficients(coupling)
    ncol = 4 + 2 * len(_PAIRS2)
    rows = np.zeros((len(_TWO_OUTCOMES), ncol))
    for r, (s1, s2) in enumerate(_TWO_OUTCOMES):
        cx = np.zeros(4, dtype=complex)
        for x1, x2 in _PATTERNS2:
            cx[_X2_MAP[(x1, x2)]] += (ab[s1][1] if x1 else ab[s1][0]) \
                * (ab[s2][1] if x2 else ab[s2][0])
        coef = np.outer(cx, cx.conj())
        for i in range(4):
            rows[r, i] = coef[i, i].real
        for k, (i, j) in enumerate(_PAIRS2):
            rows[r, 4 + 2 * k] = (coef[i, j] + coef[j, i]).real
            rows[r, 4 + 2 * k + 1] = (-coef[i, j] + coef[j, i]).imag
    return rows


def _identity_column_functionals2():
    ncol = 4 + 2 * len(_PAIRS2)
    re_f = np.zeros((4, ncol))
    im_f = np.zeros((4, ncol))
    re_f[0, 0] = 1.0
    for k, (i, j) in enumerate(_PAIRS2):
        if i == 0:
            # T[(j, 0)] = conj(T[(0, j)])
            re_f[j, 4 + 2 * k] = 1.0
            im_f[j, 4 + 2 * k + 1] = -1.0
    return re_f, im_f


def _assembly_weights2(v1: float, w2: float) -> np.ndarray:
    wgt = np.zeros(4)
    for x1, x2 in _PATTERNS2:
        weight = ((1.0 if x1 else 0.0) if v1 > 0 else (-1.0 if x1 else 1.0)) \
            * ((1.0 if x2 else 0.0) if w2 > 0 else (-1.0 if x2 else 1.0))
        if weight:
            wgt[_X2_MAP[(x1, x2)]] += weight
    return wgt


@dataclass
class InferenceReport:
    """Diagnostics of one inversion: conditioning, residuals, background traces.

    background maps each final-outcome block to its full solved sandwich-trace
    set; the quasiprobability uses only the identity-column traces, the rest
    are the independently measured background terms.
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


def _solve_block(a_mat, b_vec, required_rank: int):
    sing = np.linalg.svd(a_mat, compute_uv=False)
    rank = int(np.sum(sing > sing[0] * 1e-10))
    if rank < required_rank or sing[0] / sing[required_rank - 1] > CONDITION_LIMIT:
        cond = sing[0] / sing[required_rank - 1] if rank >= required_rank else np.inf
        raise ValueError(
            f"inference design is ill conditioned (rank {rank}, effective "
            f"condition {cond:.3e}); widen the coupling-strength spread"
        )
    sol, *_ = np.linalg.lstsq(a_mat, b_vec, rcond=None)
    resid = float(np.max(np.abs(a_mat @ sol - b_vec)))
    return sol, rank, float(sing[0] / sing[required_rank - 1]), resid


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
    sampled = any(r.counts is not None for r in records)
    if protocol == "three-weak":
        return _infer_three(records, phis, modes, sampled)
    return _infer_two(records, phis, modes, sampled)


def _infer_three(records, phis, modes, sampled):
    w_evs = records[0].final_eigenvalues
    pm = np.array([-1.0, 1.0])
    nv = 2
    nw = len(w_evs)
    values = np.zeros((nv, nw, nv, nw), dtype=complex)
    sigma = np.zeros((nv, nw, nv, nw, 2)) if sampled else None
    re_f, im_f = _identity_column_functionals3()
    ranks, conds, resids, background = {}, {}, {}, {}

    for i_w3, w3 in enumerate(w_evs):
        a_rows, b_vals, bin_lists = [], [], []
        for rec in records:
            a_rows.append(_design_rows3(rec.coupling))
            freq = rec.frequencies()
            bins = [k for k, out in enumerate(rec.outcomes)
                    if abs(out[3] - w3) < 1e-9]
            if len(bins) != len(_THREE_OUTCOMES):
                raise ValueError("record bins do not cover all ancilla outcomes")
            b_vals.append(freq[bins])
            bin_lists.append(bins)
        a_mat = np.vstack(a_rows)
        b_vec = np.concatenate(b_vals)
        sol, rank, cond, resid = _solve_block(a_mat, b_vec, _RANK_REQUIRED["three-weak"])
        key = float(w3)
        ranks[key], conds[key], resids[key] = rank, cond, resid
        t_re = re_f @ sol
        t_im = im_f @ sol
        background[key] = {
            "identity_column": [complex(t_re[x], t_im[x]) for x in range(6)],
            "solution": sol.copy(),
        }
        if sampled:
            pinv = np.linalg.pinv(a_mat, rcond=1e-10)
            cov_b = _block_covariance(records, bin_lists)
            cov_sol = pinv @ cov_b @ pinv.T
        for i1, v1 in enumerate(pm):
            for i2, w2 in enumerate(pm):
                for i3, v2 in enumerate(pm):
                    wgt = _assembly_weights3(v1, w2, v2)
                    values[i1, i2, i3, i_w3] = complex(wgt @ t_re, wgt @ t_im)
                    if sampled:
                        ell_re = wgt @ re_f
                        ell_im = wgt @ im_f
                        sigma[i1, i2, i3, i_w3, 0] = math.sqrt(
                            max(0.0, ell_re @ cov_sol @ ell_re))
                        sigma[i1, i2, i3, i_w3, 1] = math.sqrt(
                            max(0.0, ell_im @ cov_sol @ ell_im))

    dist = quasiprob.QuasiDistribution(
        values=values,
        axis_names=quasiprob.COARSE_AXES,
        axis_eigenvalues=(pm, pm, pm, np.asarray(w_evs, dtype=float)),
        grain="coarse",
        meta={"inferred_from": "three-weak"},
    )
    report = InferenceReport(
        protocol="three-weak", ranks=ranks, effective_conditions=conds,
        residuals=resids, background=background, phi_values=phis,
        modes=modes, sampled=sampled, std_errors=sigma,
    )
    return dist, report


def _infer_two(records, phis, modes, sampled):
    wb_evs = np.array(sorted({out[0] for out in records[0].outcomes}))
    v_evs = records[0].final_eigenvalues
    pm = np.array([-1.0, 1.0])
    nw = len(wb_evs)
    nv = len(v_evs)
    values = np.zeros((2, 2, nv, nw), dtype=complex)
    sigma = np.zeros((2, 2, nv, nw, 2)) if sampled else None
    re_f, im_f = _identity_column_functionals2()
    ranks, conds, resids, background = {}, {}, {}, {}

    for i_wb, wb in enumerate(wb_evs):
        for i_v3, v3 in enumerate(v_evs):
            a_rows, b_vals, bin_lists = [], [], []
            for rec in records:
                a_rows.append(_design_rows2(rec.coupling))
                freq = rec.frequencies()
                bins = [k for k, out in enumerate(rec.outcomes)
                        if abs(out[0] - wb) < 1e-9 and abs(out[3] - v3) < 1e-9]
                if len(bins) != len(_TWO_OUTCOMES):
                    raise ValueError("record bins do not cover all ancilla outcomes")
                b_vals.append(freq[bins])
                bin_lists.append(bins)
            a_mat = np.vstack(a_rows)
            b_vec = np.concatenate(b_vals)
            sol, rank, cond, resid = _solve_block(a_mat, b_vec, _RANK_REQUIRED["two-weak"])
            key = (float(wb), float(v3))
            ranks[key], conds[key], resids[key] = rank, cond, resid
            t_re = re_f @ sol
            t_im = im_f @ sol
            background[key] = {
                "identity_column": [complex(t_re[x], t_im[x]) for x in range(4)],
                "solution": sol.copy(),
            }
            if sampled:
                pinv = np.linalg.pinv(a_mat, rcond=1e-10)
                cov_b = _block_covariance(records, bin_lists)
                cov_sol = pinv @ cov_b @ pinv.T
            for i1, v1 in enumerate(pm):
                for i2, w2 in enumerate(pm):
                    wgt = _assembly_weights2(v1, w2)
                    values[i1, i2, i_v3, i_wb] = complex(wgt @ t_re, wgt @ t_im)
                    if sampled:
                        ell_re = wgt @ re_f
                        ell_im = wgt @ im_f
                        sigma[i1, i2, i_v3, i_wb, 0] = math.sqrt(
                            max(0.0, ell_re @ cov_sol @ ell_re))
                        sigma[i1, i2, i_v3, i_wb, 1] = math.sqrt(
                            max(0.0, ell_im @ cov_sol @ ell_im))

    dist = quasiprob.QuasiDistribution(
        values=values,
        axis_names=quasiprob.COARSE_AXES,
        axis_eigenvalues=(pm, pm, np.asarray(v_evs, dtype=float),
                          np.asarray(wb_evs, dtype=float)),
        grain="coarse",
        meta={"inferred_from": "two-weak"},
    )
    report = InferenceReport(
        protocol="two-weak", ranks=ranks, effective_conditions=conds,
        residuals=resids, background=background, phi_values=phis,
        modes=modes, sampled=sampled, std_errors=sigma,
    )
    return dist, report


def standard_protocol_records(rho, w_op, v_op, hamiltonian, t: float,
                              phis=(0.05, 0.1, 0.15, 0.2), shots: int = 0,
                              seed=None, protocol: str = "three-weak"):
    """Records at every (mode, strength) combination, ready for inference."""
    runner = simulate_protocol if protocol == "three-weak" else two_measurement_protocol
    records = []
    for k, (mode, phi) in enumerate(
            (m, p) for m in PHASE_MODES for p in phis):
        sub_seed = None if seed is None else (seed, k)
        records.append(runner(rho, w_op, v_op, hamiltonian, t,
                              CouplingConfig(phi, mode), shots=shots,
                              seed=sub_seed))
    return records

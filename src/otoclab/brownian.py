"""Brownian-circuit ensemble: Monte Carlo trajectories and closed-form averages.

The dynamics is a stochastic unitary U(t + dt) = exp(-i dB) U(t) with

    dB = sqrt(1/(8(N-1))) sum_{i<j} sum_{ab} sigma_i^a sigma_j^b dB^{ab}_{ij},

each dB^{ab}_{ij} drawn independently from Normal(0, dt). The pair and
Pauli counting gives E[dB^2] = N dt 1, so the exact-exponential step
reproduces the Ito drift -(N/2) U dt automatically while staying exactly
unitary.

Ensemble averages of the coarse quasiprobability collapse onto a handful
of averaged correlators; at infinite temperature only the averaged OTOC
survives, giving the late-time clustering values {3/16, 1/16, -1/16}.
Trajectories use independent RNG streams seeded by (seed, trajectory
index), so runs are reproducible under any execution order.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import qla, quasiprob, spin

_MAX_SITES = 8
_MAX_DT = 0.01


@dataclass(frozen=True)
class BrownianConfig:
    """Ensemble parameters; defaults give a desk-scale run of a few minutes."""

    n: int = 5
    dt: float = 0.005
    steps: int = 800
    trajectories: int = 200
    seed: int = 0
    stride: int = 20

    def __post_init__(self):
        if self.n < 2 or self.n > _MAX_SITES:
            raise ValueError(f"n must lie in [2, {_MAX_SITES}] for dense simulation")
        if not 0.0 < self.dt <= _MAX_DT:
            raise ValueError(f"dt must lie in (0, {_MAX_DT}] (Ito-regime guard)")
        if self.steps < 1 or self.trajectories < 1 or self.stride < 1:
            raise ValueError("steps, trajectories and stride must be >= 1")

    @property
    def dim(self) -> int:
        return 2 ** self.n

    @property
    def t_max(self) -> float:
        return self.steps * self.dt

    def sample_times(self) -> np.ndarray:
        return np.arange(0, self.steps + 1, self.stride) * self.dt


@dataclass
class EnsembleSeries:
    """Trajectory mean and standard error of one observable over time."""

    times: np.ndarray
    mean: np.ndarray
    standard_error: np.ndarray | None
    trajectories_used: int

    def __post_init__(self):
        if len(self.times) != len(self.mean):
            raise ValueError("times and mean must have equal length")
        if self.standard_error is not None and np.any(self.standard_error < 0):
            raise ValueError("standard_error must be nonnegative")


def pair_paulis(n: int) -> np.ndarray:
    """All two-site products sigma_i^a sigma_j^b, i < j, a,b in {1,x,y,z}.

    Ordered pairs-lexicographically with the first site's Pauli outermost;
    the ordering is part of the reproducibility contract since it fixes how
    the Gaussian draws map onto operators.
    """
    basis = [np.eye(2, dtype=complex), spin.PAULI_X, spin.PAULI_Y, spin.PAULI_Z]
    terms = []
    for i in range(1, n + 1):
        for j in range(i + 1, n + 1):
            for a in basis:
                for b in basis:
                    terms.append(_embed_two(n, i, a, j, b))
    return np.array(terms)


def _embed_two(n, i, a, j, b):
    out = np.array([[1.0 + 0j]])
    for k in range(1, n + 1):
        if k == i:
            out = np.kron(out, a)
        elif k == j:
            out = np.kron(out, b)
        else:
            out = np.kron(out, np.eye(2, dtype=complex))
    return out


def increment_scale(n: int) -> float:
    return math.sqrt(1.0 / (8.0 * (n - 1)))


def sample_increment(config: BrownianConfig, rng: np.random.Generator,
                     pair_ops: np.ndarray | None = None) -> np.ndarray:
    """One Hermitian Brownian increment dB.

    pair_ops may be passed to reuse the precomputed operator stack across
    steps; it must come from pair_paulis(config.n).
    """
    ops = pair_paulis(config.n) if pair_ops is None else pair_ops
    g = rng.normal(0.0, math.sqrt(config.dt), size=len(ops))
    return increment_scale(config.n) * np.tensordot(g, ops, axes=(0, 0))


def step_unitary(u: np.ndarray, db: np.ndarray) -> np.ndarray:
    """exp(-i db) u; exactly unitary for Hermitian db."""
    return qla.expm_scaled(db, -1j) @ u


_CORRELATOR_NAMES = ("F", "G", "q_1", "q_2", "q_11", "q_12", "q_21", "f_12", "f_21")


@dataclass
class BrownianEnsembleResult:
    """Streaming-reduced ensemble statistics.

    correlators holds one EnsembleSeries per name: F (OTOC at rho), G and
    q_11 (trace-normalized Tr(W(t)V)/d and Tr(W(t)W)/d, state independent),
    q_1/q_2 (<W(t)>, <V> at rho), q_12/q_21 (<W(t)V>, <VW(t)>), f_12/f_21
    (<W(t)VW(t)>, <VW(t)V>). quasi_mean and quasi_se give the per-entry
    ensemble mean of the coarse quasiprobability (axis order v1, w2, v2,
    w3, eigenvalues ascending) and the standard errors of its real and
    imaginary parts (last axis 0 = real, 1 = imaginary).
    """

    config: BrownianConfig
    times: np.ndarray
    correlators: dict[str, EnsembleSeries]
    quasi_mean: np.ndarray
    quasi_se: np.ndarray | None
    trajectories_used: int
    unitarity_defect: float


class _Welford:
    """Streaming complex mean and per-part variance accumulator."""

    def __init__(self, shape):
        self.count = 0
        self.mean = np.zeros(shape, dtype=complex)
        self.m2_re = np.zeros(shape)
        self.m2_im = np.zeros(shape)

    def add(self, value):
        self.count += 1
        delta = value - self.mean
        self.mean += delta / self.count
        delta2 = value - self.mean
        self.m2_re += delta.real * delta2.real
        self.m2_im += delta.imag * delta2.imag

    def standard_error(self):
        if self.count < 2:
            return None
        var_re = self.m2_re / (self.count - 1)
        var_im = self.m2_im / (self.count - 1)
        return np.sqrt(var_re / self.count), np.sqrt(var_im / self.count)


def ensemble_averages(config: BrownianConfig, rho=None, w_op=None, v_op=None) -> BrownianEnsembleResult:
    """Run the trajectory ensemble and reduce correlators and quasiprobability.

    Defaults: rho = 1/d, W = sigma^z on site 1, V = sigma^z on site 2. The
    reduction is streaming (one trajectory in memory at a time); with a
    single trajectory the standard errors are None.
    """
    n, dim = config.n, config.dim
    w = spin.site_pauli(n, 1, "z") if w_op is None else np.asarray(w_op, dtype=complex)
    v = spin.site_pauli(n, 2, "z") if v_op is None else np.asarray(v_op, dtype=complex)
    rho = np.eye(dim, dtype=complex) / dim if rho is None else np.asarray(rho, dtype=complex)
    quasiprob._check_dims(rho, w, v)
    if not quasiprob._is_involutory(w) or not quasiprob._is_involutory(v):
        raise ValueError("ensemble reduction needs involutory W and V")

    ops = pair_paulis(n)
    times = config.sample_times()
    nt = len(times)
    corr_acc = {name: _Welford((nt,)) for name in _CORRELATOR_NAMES}
    quasi_acc = _Welford((nt, 2, 2, 2, 2))
    unitarity_defect = 0.0
    eye = np.eye(dim, dtype=complex)
    expansion = quasiprob._expansion(rho, v)

    for traj in range(config.trajectories):
        rng = np.random.default_rng((config.seed, traj))
        u = eye.copy()
        vals = {name: np.empty(nt, dtype=complex) for name in _CORRELATOR_NAMES}
        quasi = np.empty((nt, 2, 2, 2, 2), dtype=complex)
        k = 0
        for step in range(config.steps + 1):
            if step % config.stride == 0:
                wt = qla.dagger(u) @ w @ u
                corr = expansion(wt)
                vals["F"][k] = corr["f"]
                vals["G"][k] = np.sum(wt * v.T) / dim
                vals["q_1"][k] = corr["w"]
                vals["q_2"][k] = corr["v"]
                vals["q_11"][k] = np.sum(wt * w.T) / dim
                vals["q_12"][k] = corr["wv"]
                vals["q_21"][k] = corr["vw"]
                vals["f_12"][k] = corr["wvw"]
                vals["f_21"][k] = corr["vwv"]
                quasi[k] = quasiprob.coarse_entries_from_correlators(corr)
                k += 1
            if step < config.steps:
                g = rng.normal(0.0, math.sqrt(config.dt), size=len(ops))
                db = increment_scale(n) * np.tensordot(g, ops, axes=(0, 0))
                u = qla.expm_scaled(db, -1j) @ u
        unitarity_defect = max(unitarity_defect, qla.unitarity_defect(u))
        for name in _CORRELATOR_NAMES:
            corr_acc[name].add(vals[name])
        quasi_acc.add(quasi)

    correlators = {}
    for name in _CORRELATOR_NAMES:
        acc = corr_acc[name]
        se = acc.standard_error()
        correlators[name] = EnsembleSeries(
            times=times,
            mean=acc.mean.copy(),
            standard_error=None if se is None else np.hypot(se[0], se[1]),
            trajectories_used=acc.count,
        )
    quasi_se = quasi_acc.standard_error()
    return BrownianEnsembleResult(
        config=config,
        times=times,
        correlators=correlators,
        quasi_mean=quasi_acc.mean,
        quasi_se=None if quasi_se is None else np.stack(quasi_se, axis=-1),
        trajectories_used=config.trajectories,
        unitarity_defect=unitarity_defect,
    )


def analytic_avg_quasiprob(w2: float, w3: float, v1: float, v2: float,
                           f_value: complex) -> float:
    """Infinite-temperature ensemble-average entry, from the averaged OTOC alone.

    ((1 + w2 w3 + v1 v2) + w2 w3 v1 v2 F) / 16; at F = 0 the four sign
    classes give 3/16, 1/16, 1/16, -1/16.
    """
    return float(((1.0 + w2 * w3 + v1 * v2)
                  + w2 * w3 * v1 * v2 * np.real(f_value)) / 16.0)


def general_state_avg(config: BrownianConfig, rho, outcome: tuple, t: float,
                      f12_value: complex, otoc_value: complex) -> complex:
    """Ensemble-average entry for a general state.

    outcome = (v1, w2, v2, w3). The single-operator and two-point averages
    follow their closed-form decay (dq/dt = -2q from the ensemble
    generator), so only the three-operator average f12 and the averaged
    OTOC need Monte Carlo input; pass those at the same time t (e.g. from
    ensemble_averages correlators "f_12" and "F").
    """
    v1, w2, v2, w3 = outcome
    n = config.n
    s1 = spin.site_pauli(n, 1, "z")
    s2 = spin.site_pauli(n, 2, "z")
    rho = np.asarray(rho, dtype=complex)
    decay = math.exp(-2.0 * t)
    q1 = complex(np.trace(rho @ s1)) * decay
    q2 = complex(np.trace(rho @ s2))
    q12 = complex(np.trace(rho @ s1 @ s2)) * decay
    total = (
        1.0 + w3 * w2 + v1 * v2
        + (w3 + w2) * q1
        + (v1 + v2) * q2
        + (w3 * v2 + w3 * v1 + w2 * v1) * q12
        + v2 * w2 * np.conj(q12)
        + w3 * v2 * w2 * f12_value
        + (w3 + w2) * v1 * v2 * q1
        + w3 * w2 * v1 * q2
        + w3 * w2 * v1 * v2 * otoc_value
    )
    return complex(total / 16.0)


def sigma2z_eigenstate_avg(outcome: tuple, q1_value: complex,
                           otoc_value: complex) -> complex:
    """Ensemble-average entry for a +1 eigenstate of sigma^z on site 2.

    Vanishes unless v1 = +1; after the single-operator average decays the
    entry is governed by the averaged OTOC alone.
    """
    v1, w2, v2, w3 = outcome
    k1 = (1.0 + v1) * (1.0 + v2 + w3 * w2)
    k2 = (1.0 + v1) * (w3 + w2) * (1.0 + v2)
    k3 = (1.0 + v1) * w3 * v2 * w2
    return complex((k1 + k2 * q1_value + k3 * otoc_value) / 16.0)


def phenomenological_otoc(t, c1: float, c2: float):
    """Closed-form fit ((1 + c1)/(1 + c1 e^{3t}))^c2 for the averaged OTOC."""
    if c1 <= 0 or c2 <= 0:
        raise ValueError("c1 and c2 must be positive")
    t = np.asarray(t, dtype=float)
    out = ((1.0 + c1) / (1.0 + c1 * np.exp(3.0 * t))) ** c2
    return float(out) if out.ndim == 0 else out


def decay_rate_fit(series: EnsembleSeries, t_window: float = 1.2,
                   floor: float = 0.02) -> tuple[float, float]:
    """Slope and R^2 of ln(mean) over the early-time window above the noise floor."""
    mean = np.real(series.mean)
    mask = (series.times <= t_window) & (mean > floor)
    if mask.sum() < 3:
        raise ValueError("not enough points above the noise floor to fit")
    x = series.times[mask]
    y = np.log(mean[mask])
    slope, intercept = np.polyfit(x, y, 1)
    pred = slope * x + intercept
    ss_res = float(np.sum((y - pred) ** 2))
    ss_tot = float(np.sum((y - np.mean(y)) ** 2))
    return float(slope), 1.0 - ss_res / ss_tot

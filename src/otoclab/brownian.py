"""Brownian-circuit ensemble: Monte Carlo trajectories and closed-form averages.

The dynamics is a stochastic unitary U(t + dt) = exp(-i dB) U(t) with

    dB = sqrt(1/(8(N-1))) sum_{i<j} sum_{ab} sigma_i^a sigma_j^b dB^{ab}_{ij},

each dB^{ab}_{ij} drawn independently from Normal(0, dt). The pair and
Pauli counting gives E[dB^2] = N dt 1, so the exact-exponential step
reproduces the Ito drift -(N/2) U dt automatically while staying exactly
unitary.

Ensemble averages of the coarse quasiprobability collapse onto a handful
of averaged correlators. Each closed form writes down the eight averaged
word traces and takes its entry from the word table of quasiprob, as the
trajectories do; at infinite temperature only the averaged OTOC
survives, giving the late-time clustering values {3/16, 1/16, -1/16}.
Trajectories use independent RNG streams seeded by (seed, trajectory
index), so runs are reproducible under any execution order. They advance
together in chunks, each a (chunk, d, d) stack of unitaries that one
stacked spectral exponential moves forward per time step. The increments
come from the (mask, phase) table of the pair strings in spin, with no
dense operator stack. A chunk allocates its stacks once: the dB stack,
into whose fixed entries every step's increment is written, and two
stacks of U that the steps advance into by turns.
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
    """Ensemble parameters; defaults give a desk-scale run of under a minute."""

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


def _stacked_increment(n: int):
    """Map a (T, terms) array of Gaussian draws to the (T, d, d) stack of
    increments dB = increment_scale(n) sum_k g_k P_k, one per row g, over
    the pair strings P_k of spin.pair_pauli_strings(n), written into out:
    a C-contiguous (T, d, d) complex stack that is zero off those strings'
    entries, as it is after a previous call.

    Strings that flip the same bits fill the same d entries of dB, so each
    flip mask needs one small product of draws and phases. Masks flipping
    0, 1 or 2 bits have 4 n(n-1)/2, 4(n-1) and 4 strings each, so every
    such class of masks is one stacked product.
    """
    dim = 2 ** n
    masks, phases = spin.pair_pauli_strings(n)
    # real and imaginary parts side by side: a real product gives complex entries
    table = (phases * increment_scale(n)).view(float)
    r = np.arange(dim)
    classes = []
    for flips in (0, 1, 2):
        flip_masks = np.array([m for m in np.unique(masks) if bin(m).count("1") == flips])
        terms = np.array([np.flatnonzero(masks == m) for m in flip_masks])
        classes.append((terms, table[terms], (r ^ flip_masks[:, None]) * dim + r))

    def increment(g: np.ndarray, out: np.ndarray) -> np.ndarray:
        db = out.reshape(len(g), dim * dim)
        for terms, tab, flat in classes:
            coef = np.matmul(g[:, terms].transpose(1, 0, 2), tab)
            db[:, flat] = coef.view(complex).transpose(1, 0, 2)
        return out
    return increment


def increment_scale(n: int) -> float:
    return math.sqrt(1.0 / (8.0 * (n - 1)))


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
    imaginary parts (last axis 0 = real, 1 = imaginary). unitarity_defect
    is the largest max |U^dag U - 1| over every trajectory's final U.
    """

    config: BrownianConfig
    times: np.ndarray
    correlators: dict[str, EnsembleSeries]
    quasi_mean: np.ndarray
    quasi_se: np.ndarray | None
    trajectories_used: int
    unitarity_defect: float


class _Welford:
    """Complex mean and per-part M2 at each sample time, fed a batch of
    trajectories at a time and merged with the parallel update of Chan,
    Golub and LeVeque."""

    def __init__(self, nt: int, shape=()):
        self.count = 0
        self.mean = np.zeros((nt,) + shape, dtype=complex)
        self.m2_re = np.zeros((nt,) + shape)
        self.m2_im = np.zeros((nt,) + shape)

    def add(self, k: int, batch: np.ndarray):
        """Merge the (T, *shape) values of T new trajectories at time k."""
        n_a, n_b = self.count, len(batch)
        mean_b = batch.mean(axis=0)
        dev = batch - mean_b
        delta = mean_b - self.mean[k]
        self.mean[k] += delta * (n_b / (n_a + n_b))
        weight = n_a * n_b / (n_a + n_b)
        self.m2_re[k] += np.sum(dev.real ** 2, axis=0) + delta.real ** 2 * weight
        self.m2_im[k] += np.sum(dev.imag ** 2, axis=0) + delta.imag ** 2 * weight

    def close_batch(self, n_b: int):
        """Count a batch once it has been merged at every sample time."""
        self.count += n_b

    def standard_error(self):
        if self.count < 2:
            return None
        var_re = self.m2_re / (self.count - 1)
        var_im = self.m2_im / (self.count - 1)
        return np.sqrt(var_re / self.count), np.sqrt(var_im / self.count)


def ensemble_averages(config: BrownianConfig, rho=None, w_op=None, v_op=None) -> BrownianEnsembleResult:
    """Run the trajectory ensemble and reduce correlators and quasiprobability.

    Defaults: rho = 1/d, W = sigma^z on site 1, V = sigma^z on site 2.
    Trajectories advance in chunks sized by the stack budget
    (qla.chunk_length), each with its (chunk, d, d) dB stack, zeroed once,
    and two U stacks: each time step draws every trajectory's increment
    from its own stream, writes dB into the same entries and multiplies
    one stacked qla.expm_scaled into the other U stack, so a step
    allocates only the exponential and its eigendecomposition. Each
    chunk's statistics are merged into the running ones, so memory stays
    bounded for any number of trajectories. With a single trajectory the
    standard errors are None.
    """
    n, dim = config.n, config.dim
    w = spin.site_pauli(n, 1, "z") if w_op is None else np.asarray(w_op, dtype=complex)
    v = spin.site_pauli(n, 2, "z") if v_op is None else np.asarray(v_op, dtype=complex)
    rho = np.eye(dim, dtype=complex) / dim if rho is None else np.asarray(rho, dtype=complex)
    quasiprob.check_state(rho, w, v)
    if not quasiprob._is_hermitian_involution(w) or not quasiprob._is_hermitian_involution(v):
        raise ValueError("ensemble reduction needs involutory W and V")

    times = config.sample_times()
    corr_acc = _Welford(len(times), (len(_CORRELATOR_NAMES),))
    quasi_acc = _Welford(len(times), (2, 2, 2, 2))
    word_traces = quasiprob._word_traces(rho, v, 2)
    increment = _stacked_increment(n)
    n_terms = 16 * n * (n - 1) // 2
    sd = math.sqrt(config.dt)
    chunk = qla.chunk_length(dim)
    unitarity_defect = 0.0

    for first in range(0, config.trajectories, chunk):
        rngs = [np.random.default_rng((config.seed, traj))
                for traj in range(first, min(first + chunk, config.trajectories))]
        u = np.tile(np.eye(dim, dtype=complex), (len(rngs), 1, 1))
        u_next = np.empty_like(u)
        db = np.zeros_like(u)
        g = np.empty((len(rngs), n_terms))
        vals = np.empty((len(rngs), len(_CORRELATOR_NAMES)), dtype=complex)
        for step in range(config.steps + 1):
            if step % config.stride == 0:
                wt = quasiprob.heisenberg(w, u)
                traces = word_traces(wt)
                word = dict(zip(quasiprob._words(2), traces.T))
                for col, val in enumerate((
                        word["wvwv"], quasiprob._matrix_sum(wt * v.T) / dim, word["w"],
                        word["v"], quasiprob._matrix_sum(wt * w.T) / dim, word["wv"],
                        word["vw"], word["wvw"], word["vwv"])):
                    vals[:, col] = val
                corr_acc.add(step // config.stride, vals)
                quasi_acc.add(step // config.stride, quasiprob._entries(traces, 2))
            if step < config.steps:
                for row, rng in zip(g, rngs):
                    row[:] = rng.normal(0.0, sd, size=n_terms)
                np.matmul(qla.expm_scaled(increment(g, db), -1j), u, out=u_next)
                u, u_next = u_next, u
        unitarity_defect = max(unitarity_defect, qla.unitarity_defect(u))
        corr_acc.close_batch(len(rngs))
        quasi_acc.close_batch(len(rngs))

    corr_se = corr_acc.standard_error()
    correlators = {
        name: EnsembleSeries(
            times=times,
            mean=corr_acc.mean[:, col].copy(),
            standard_error=None if corr_se is None else np.hypot(corr_se[0][:, col],
                                                                 corr_se[1][:, col]),
            trajectories_used=corr_acc.count,
        )
        for col, name in enumerate(_CORRELATOR_NAMES)
    }
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


def _closed_form_entry(traces, outcome) -> complex:
    """The entry at outcome = (v1, w2, v2, w3) of eight averaged word traces
    in quasiprob._words(2) order: 1, v, w, wv, vw, vwv, wvw, wvwv."""
    idx = tuple(int(s > 0) for s in outcome)
    return complex(quasiprob._entries(np.asarray(traces, dtype=complex), 2)[idx])


def analytic_avg_quasiprob(w2: float, w3: float, v1: float, v2: float,
                           f_value: complex) -> float:
    """Infinite-temperature ensemble-average entry, from the averaged OTOC alone.

    At rho = 1/d every averaged word trace but Tr(rho) = 1 and F vanishes,
    which gives ((1 + w2 w3 + v1 v2) + w2 w3 v1 v2 Re F) / 16; at F = 0
    the four sign classes give 3/16, 1/16, 1/16, -1/16.
    """
    traces = [1.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, np.real(f_value)]
    return _closed_form_entry(traces, (v1, w2, v2, w3)).real


def general_state_avg(config: BrownianConfig, rho, outcome: tuple, t: float,
                      f12_value: complex, otoc_value: complex) -> complex:
    """Ensemble-average entry for a general state, with W = sigma^z on
    site 1 and V = sigma^z on site 2; outcome = (v1, w2, v2, w3).

    The averaged traces of W, W V, V W and V W V decay from their t = 0
    values as e^{-2t} (dq/dt = -2q from the ensemble generator), so only
    f12 = <W(t) V W(t)> and the averaged OTOC need Monte Carlo input; pass
    those at the same time t (ensemble_averages' "f_12" and "F").
    """
    w = spin.site_pauli(config.n, 1, "z")
    v = spin.site_pauli(config.n, 2, "z")
    rho = np.asarray(quasiprob.check_state(rho, w, v), dtype=complex)
    traces = quasiprob._word_traces(rho, v, 2)(w)
    traces[2:6] *= math.exp(-2.0 * t)
    traces[6:] = f12_value, otoc_value
    return _closed_form_entry(traces, outcome)


def sigma2z_eigenstate_avg(outcome: tuple, q1_value: complex,
                           otoc_value: complex) -> complex:
    """Ensemble-average entry for a +1 eigenstate of sigma^z on site 2.

    V rho = rho V = rho makes every word trace 1, q1 = <W(t)> or the
    averaged OTOC F, so the entry vanishes unless v1 = +1 and is governed
    by q1 and F alone.
    """
    traces = [1.0, 1.0, q1_value, q1_value, q1_value, q1_value, otoc_value, otoc_value]
    return _closed_form_entry(traces, outcome)


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

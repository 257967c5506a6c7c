"""Brownian-circuit ensemble: increments, streaming reduction, closed forms."""
from __future__ import annotations

import numpy as np
import pytest

from otoclab import brownian, qla, spin

import oracles

SIGN_TUPLES = [(v1, w2, v2, w3)
               for v1 in (-1, 1) for w2 in (-1, 1)
               for v2 in (-1, 1) for w3 in (-1, 1)]


class TestIncrements:
    @pytest.mark.parametrize("n", [2, 3, 5])
    def test_operator_stack_variance_identity(self, n):
        # sum of squares over the pair-Pauli stack gives E[dB^2] = N dt
        ops = oracles.pair_paulis(n)
        npairs = n * (n - 1) // 2
        assert len(ops) == 16 * npairs
        ssq = brownian.increment_scale(n) ** 2 * sum(op @ op for op in ops)
        assert np.max(np.abs(ssq - n * np.eye(2 ** n))) < 1e-12

    def test_stack_is_hermitian(self):
        for op in oracles.pair_paulis(2):
            assert qla.hermiticity_defect(op) < 1e-15

    def test_sample_increment_hermitian_and_scaled(self):
        cfg = brownian.BrownianConfig(n=2, dt=0.01, steps=1, trajectories=1)
        rng = np.random.default_rng(0)
        db = oracles.sample_increment(cfg, rng)
        assert qla.hermiticity_defect(db) < 1e-12
        assert db.shape == (4, 4)

    def test_step_stays_unitary(self):
        cfg = brownian.BrownianConfig(n=2, dt=0.01, steps=1, trajectories=1)
        rng = np.random.default_rng(3)
        u = np.eye(4, dtype=complex)
        for _ in range(50):
            u = oracles.step_unitary(u, oracles.sample_increment(cfg, rng))
        assert qla.unitarity_defect(u) < 1e-12

    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    def test_stacked_increment_matches_sample_increment(self, n):
        cfg = brownian.BrownianConfig(n=n, dt=0.005, steps=1, trajectories=1)
        ops = oracles.pair_paulis(n)
        draws = np.array([np.random.default_rng((9, k)).normal(
            0.0, np.sqrt(cfg.dt), size=len(ops)) for k in range(4)])
        # the buffer a previous step wrote into is rewritten in place
        increment, buffer = brownian._stacked_increment(n), np.zeros((4, 2**n, 2**n), dtype=complex)
        increment(np.ones_like(draws), buffer)
        stacked = increment(draws, buffer)
        assert stacked is buffer
        for k in range(4):
            want = oracles.sample_increment(cfg, np.random.default_rng((9, k)), ops)
            assert np.max(np.abs(stacked[k] - want)) <= 1e-15

    def test_mean_step_reproduces_ito_drift(self):
        # E[exp(-i dB)] = (1 - N dt / 2) 1 up to O(dt^2) and sampling noise
        n, dt, m = 3, 0.01, 3000
        cfg = brownian.BrownianConfig(n=n, dt=dt, steps=1, trajectories=1)
        ops = oracles.pair_paulis(n)
        rng = np.random.default_rng(5)
        acc = np.zeros((8, 8), dtype=complex)
        for _ in range(m):
            acc += qla.expm_scaled(oracles.sample_increment(cfg, rng, ops), -1j)
        acc /= m
        assert np.max(np.abs(acc - (1 - n * dt / 2) * np.eye(8))) < 6e-3


class TestConfig:
    def test_site_bounds(self):
        with pytest.raises(ValueError, match="dense simulation"):
            brownian.BrownianConfig(n=1)
        with pytest.raises(ValueError, match="dense simulation"):
            brownian.BrownianConfig(n=9)

    def test_ito_regime_guard(self):
        with pytest.raises(ValueError, match="Ito"):
            brownian.BrownianConfig(n=3, dt=0.02)
        with pytest.raises(ValueError, match="Ito"):
            brownian.BrownianConfig(n=3, dt=0.0)

    def test_count_guards(self):
        with pytest.raises(ValueError):
            brownian.BrownianConfig(n=3, steps=0)
        with pytest.raises(ValueError):
            brownian.BrownianConfig(n=3, trajectories=0)
        with pytest.raises(ValueError):
            brownian.BrownianConfig(n=3, stride=0)

    def test_sample_times(self):
        cfg = brownian.BrownianConfig(n=2, dt=0.005, steps=40, trajectories=1,
                                      stride=10)
        assert np.allclose(cfg.sample_times(), [0.0, 0.05, 0.1, 0.15, 0.2])
        assert cfg.t_max == pytest.approx(0.2)
        assert cfg.dim == 4

    def test_series_validation(self):
        with pytest.raises(ValueError, match="equal length"):
            brownian.EnsembleSeries(times=np.arange(3.0),
                                    mean=np.zeros(2, dtype=complex),
                                    standard_error=None, trajectories_used=1)
        with pytest.raises(ValueError, match="nonnegative"):
            brownian.EnsembleSeries(times=np.arange(2.0),
                                    mean=np.zeros(2, dtype=complex),
                                    standard_error=np.array([0.1, -0.1]),
                                    trajectories_used=2)


class TestEnsemble:
    def test_trajectory_stream_matches_manual_recipe(self):
        # trajectory traj uses default_rng((seed, traj)) with draws in the
        # documented pair-Pauli order; rebuild trajectory 0 by hand
        cfg = brownian.BrownianConfig(n=3, dt=0.005, steps=40, trajectories=1,
                                      seed=7, stride=40)
        ops = oracles.pair_paulis(3)
        rng = np.random.default_rng((7, 0))
        u = np.eye(8, dtype=complex)
        for _ in range(40):
            g = rng.normal(0.0, np.sqrt(0.005), size=len(ops))
            db = brownian.increment_scale(3) * np.tensordot(g, ops, axes=(0, 0))
            u = qla.expm_scaled(db, -1j) @ u
        res = brownian.ensemble_averages(cfg)
        w = spin.site_pauli(3, 1, "z")
        v = spin.site_pauli(3, 2, "z")
        wt = qla.dagger(u) @ w @ u
        f_manual = np.trace((np.eye(8) / 8) @ wt @ v @ wt @ v)
        assert abs(res.correlators["F"].mean[-1] - f_manual) < 1e-12
        assert res.unitarity_defect < 1e-10

    def test_rerun_is_deterministic(self):
        cfg = brownian.BrownianConfig(n=2, dt=0.005, steps=20, trajectories=3,
                                      seed=11, stride=10)
        a = brownian.ensemble_averages(cfg)
        b = brownian.ensemble_averages(cfg)
        assert np.array_equal(a.quasi_mean, b.quasi_mean)
        assert np.array_equal(a.correlators["F"].mean, b.correlators["F"].mean)

    def test_time_zero_is_exact_with_zero_spread(self):
        cfg = brownian.BrownianConfig(n=3, dt=0.005, steps=4, trajectories=5,
                                      seed=3, stride=2)
        res = brownian.ensemble_averages(cfg)
        w = spin.site_pauli(3, 1, "z")
        v = spin.site_pauli(3, 2, "z")
        exact0 = oracles.coarse_quasiprob(np.eye(8, dtype=complex) / 8, w, v,
                                          np.zeros((8, 8), dtype=complex), 0.0)
        assert np.max(np.abs(res.quasi_mean[0] - exact0.values)) < 1e-12
        assert np.max(res.quasi_se[0]) < 1e-14
        assert res.correlators["G"].standard_error[0] < 1e-14
        assert res.correlators["F"].mean[0] == pytest.approx(1.0)

    def test_single_trajectory_has_no_standard_error(self):
        cfg = brownian.BrownianConfig(n=2, dt=0.005, steps=4, trajectories=1,
                                      stride=4)
        res = brownian.ensemble_averages(cfg)
        assert res.quasi_se is None
        assert res.correlators["F"].standard_error is None
        assert res.correlators["F"].trajectories_used == 1

    def test_noninvolutory_observable_rejected(self):
        cfg = brownian.BrownianConfig(n=2, dt=0.005, steps=2, trajectories=1)
        with pytest.raises(ValueError, match="involutory"):
            brownian.ensemble_averages(cfg, w_op=np.diag([2.0, 1.0, -1.0, -2.0]))

    def test_single_operator_average_decays_at_rate_two(self):
        # <sigma^z_1(t)> relaxes as e^{-2t} for a polarized initial state
        cfg = brownian.BrownianConfig(n=3, dt=0.005, steps=60, trajectories=40,
                                      seed=19, stride=20)
        rho = np.zeros((8, 8), dtype=complex)
        rho[0, 0] = 1.0
        res = brownian.ensemble_averages(cfg, rho=rho)
        q1 = res.correlators["q_1"]
        for k, t in enumerate(res.times):
            target = np.exp(-2.0 * t)
            band = 3.0 * q1.standard_error[k] + 1e-12
            assert abs(q1.mean[k].real - target) < band + 2e-3


def _sequential_reference(cfg, rho, w, v):
    """Ensemble statistics from the public single-trajectory recipe, one
    trajectory at a time, with explicit traces and (1 +- O)/2 projectors."""
    ops = oracles.pair_paulis(cfg.n)
    dim = cfg.dim
    eye = np.eye(dim)
    pv = [(eye - v) / 2, (eye + v) / 2]
    corr, quasi = [], []
    for traj in range(cfg.trajectories):
        rng = np.random.default_rng((cfg.seed, traj))
        u = np.eye(dim, dtype=complex)
        c_traj, q_traj = [], []
        for step in range(cfg.steps + 1):
            if step % cfg.stride == 0:
                wt = u.conj().T @ w @ u
                c_traj.append([
                    np.trace(rho @ wt @ v @ wt @ v), np.trace(wt @ v) / dim,
                    np.trace(rho @ wt), np.trace(rho @ v), np.trace(wt @ w) / dim,
                    np.trace(rho @ wt @ v), np.trace(rho @ v @ wt),
                    np.trace(rho @ wt @ v @ wt), np.trace(rho @ v @ wt @ v)])
                pw = [(eye - wt) / 2, (eye + wt) / 2]
                q_traj.append([[[[np.trace(pw[w3] @ pv[v2] @ pw[w2] @ pv[v1] @ rho)
                                  for w3 in (0, 1)] for v2 in (0, 1)]
                                for w2 in (0, 1)] for v1 in (0, 1)])
            if step < cfg.steps:
                u = oracles.step_unitary(u, oracles.sample_increment(cfg, rng, ops))
        corr.append(c_traj)
        quasi.append(q_traj)
    corr, quasi = np.array(corr), np.array(quasi)
    count = cfg.trajectories

    def se(x):
        return (np.std(x.real, axis=0, ddof=1) / np.sqrt(count),
                np.std(x.imag, axis=0, ddof=1) / np.sqrt(count))
    return corr.mean(axis=0), se(corr), quasi.mean(axis=0), se(quasi)


def _assert_matches_reference(res, cfg, rho, w, v):
    corr_mean, (c_re, c_im), quasi_mean, (q_re, q_im) = _sequential_reference(cfg, rho, w, v)
    for col, name in enumerate(brownian._CORRELATOR_NAMES):
        series = res.correlators[name]
        assert series.trajectories_used == cfg.trajectories
        assert np.max(np.abs(series.mean - corr_mean[:, col])) <= 1e-12
        assert np.max(np.abs(series.standard_error
                             - np.hypot(c_re[:, col], c_im[:, col]))) <= 1e-12
    assert np.max(np.abs(res.quasi_mean - quasi_mean)) <= 1e-12
    assert np.max(np.abs(res.quasi_se - np.stack([q_re, q_im], axis=-1))) <= 1e-12


class TestBatchedEnsemble:
    @pytest.mark.parametrize("w_spec,v_spec", [((1, "x"), (3, "y")),
                                               ((2, "y"), (3, "z")),
                                               ((3, "z"), (1, "x"))])
    def test_matches_sequential_reference(self, w_spec, v_spec, make_density):
        cfg = brownian.BrownianConfig(n=3, dt=0.005, steps=12, trajectories=5,
                                      seed=21, stride=4)
        rho = make_density(8)
        w = spin.site_pauli(3, *w_spec)
        v = spin.site_pauli(3, *v_spec)
        res = brownian.ensemble_averages(cfg, rho=rho, w_op=w, v_op=v)
        _assert_matches_reference(res, cfg, rho, w, v)
        assert res.unitarity_defect <= 1e-12

    def test_chunks_merge_to_the_single_chunk_result(self, monkeypatch, make_density):
        cfg = brownian.BrownianConfig(n=3, dt=0.005, steps=9, trajectories=5,
                                      seed=4, stride=3)
        rho = make_density(8)
        w = spin.site_pauli(3, 1, "y")
        v = spin.site_pauli(3, 2, "x")
        whole = brownian.ensemble_averages(cfg, rho=rho, w_op=w, v_op=v)
        # two trajectories of 8x8 complex matrices per chunk: chunks 2, 2, 1
        monkeypatch.setattr(qla, "STACK_BYTES", 2 * 16 * 64)
        chunked = brownian.ensemble_averages(cfg, rho=rho, w_op=w, v_op=v)
        assert np.max(np.abs(chunked.quasi_mean - whole.quasi_mean)) <= 1e-12
        assert np.max(np.abs(chunked.quasi_se - whole.quasi_se)) <= 1e-12
        for name in brownian._CORRELATOR_NAMES:
            a, b = chunked.correlators[name], whole.correlators[name]
            assert np.max(np.abs(a.mean - b.mean)) <= 1e-12
            assert np.max(np.abs(a.standard_error - b.standard_error)) <= 1e-12
        _assert_matches_reference(chunked, cfg, rho, w, v)

    def test_a_chunk_builds_its_increment_stack_once(self, monkeypatch):
        """Every step of a chunk hands qla.expm_scaled the same dB buffer,
        rewritten in place; the next chunk has a buffer of its own."""
        cfg = brownian.BrownianConfig(n=3, dt=0.005, steps=4, trajectories=3,
                                      seed=2, stride=2)
        whole = brownian.ensemble_averages(cfg)
        real, handed = qla.expm_scaled, []

        def expm_scaled(h, z):
            handed.append(h)
            return real(h, z)
        monkeypatch.setattr(qla, "expm_scaled", expm_scaled)
        # two trajectories of 8x8 complex matrices per chunk: chunks 2, 1
        monkeypatch.setattr(qla, "STACK_BYTES", 2 * 16 * 64)
        chunked = brownian.ensemble_averages(cfg)
        assert [len(h) for h in handed] == [2] * 4 + [1] * 4
        first, second = handed[0], handed[4]
        assert all(h is first for h in handed[:4]) and all(h is second for h in handed[4:])
        assert not np.shares_memory(first, second)
        assert np.max(np.abs(chunked.quasi_mean - whole.quasi_mean)) <= 1e-12


class TestClosedForms:
    def test_analytic_sign_classes_at_decayed_otoc(self):
        # F -> 0 leaves {3/16, 1/16, 1/16, -1/16} by (w2 w3, v1 v2) signs
        table = {(1, 1): 3 / 16, (1, -1): 1 / 16, (-1, 1): 1 / 16,
                 (-1, -1): -1 / 16}
        for v1, w2, v2, w3 in SIGN_TUPLES:
            val = brownian.analytic_avg_quasiprob(w2, w3, v1, v2, 0.0)
            assert val == pytest.approx(table[(w2 * w3, v1 * v2)])

    def test_analytic_moment_recovers_otoc(self):
        for f in (0.3, -0.2, 0.9):
            total = sum(v1 * w2 * v2 * w3 *
                        brownian.analytic_avg_quasiprob(w2, w3, v1, v2, f)
                        for v1, w2, v2, w3 in SIGN_TUPLES)
            assert total == pytest.approx(f, abs=1e-12)
            norm = sum(brownian.analytic_avg_quasiprob(w2, w3, v1, v2, f)
                       for v1, w2, v2, w3 in SIGN_TUPLES)
            assert norm == pytest.approx(1.0, abs=1e-12)

    def test_eigenstate_form_matches_single_trajectory(self):
        # for a site-2 sigma^z +1 eigenstate every entry is a fixed linear
        # combination of q_1 and F along each trajectory
        plus = np.array([1.0, 1.0]) / np.sqrt(2)
        zero = np.array([1.0, 0.0])
        psi = np.kron(np.kron(plus, zero), plus)
        rho = np.outer(psi, psi.conj()).astype(complex)
        cfg = brownian.BrownianConfig(n=3, dt=0.005, steps=60, trajectories=1,
                                      seed=11, stride=60)
        res = brownian.ensemble_averages(cfg, rho=rho)
        q1 = res.correlators["q_1"].mean[-1]
        f = res.correlators["F"].mean[-1]
        for v1, w2, v2, w3 in SIGN_TUPLES:
            idx = tuple(int(x > 0) for x in (v1, w2, v2, w3))
            want = brownian.sigma2z_eigenstate_avg((v1, w2, v2, w3), q1, f)
            assert abs(res.quasi_mean[(-1,) + idx] - want) < 1e-12

    def test_general_state_form_reduces_at_infinite_temperature(self):
        cfg = brownian.BrownianConfig(n=3, dt=0.005, steps=1, trajectories=1)
        rho = np.eye(8, dtype=complex) / 8
        for tup in [(1, 1, 1, 1), (1, -1, 1, -1), (-1, 1, 1, -1)]:
            got = brownian.general_state_avg(cfg, rho, tup, 2.0, 0.0 + 0j,
                                             0.1 + 0j)
            want = brownian.analytic_avg_quasiprob(tup[1], tup[3], tup[0],
                                                   tup[2], 0.1)
            assert abs(got - want) < 1e-12

    def test_phenomenological_otoc(self):
        assert brownian.phenomenological_otoc(0.0, 0.5, 1.2) == pytest.approx(1.0)
        grid = brownian.phenomenological_otoc(np.linspace(0, 4, 9), 0.5, 1.2)
        assert grid.shape == (9,)
        assert np.all(np.diff(grid) < 0)
        with pytest.raises(ValueError, match="positive"):
            brownian.phenomenological_otoc(1.0, -0.5, 1.2)
        with pytest.raises(ValueError, match="positive"):
            brownian.phenomenological_otoc(1.0, 0.5, 0.0)

    def test_decay_rate_fit_on_synthetic_series(self):
        times = np.linspace(0.0, 1.0, 21)
        series = brownian.EnsembleSeries(times=times,
                                         mean=np.exp(-2.0 * times) + 0j,
                                         standard_error=None,
                                         trajectories_used=1)
        slope, r2 = brownian.decay_rate_fit(series)
        assert slope == pytest.approx(-2.0, abs=1e-9)
        assert r2 == pytest.approx(1.0, abs=1e-12)

    def test_decay_rate_fit_needs_signal(self):
        times = np.linspace(0.0, 1.0, 8)
        series = brownian.EnsembleSeries(times=times,
                                         mean=np.full(8, 1e-4, dtype=complex),
                                         standard_error=None,
                                         trajectories_used=1)
        with pytest.raises(ValueError, match="noise floor"):
            brownian.decay_rate_fit(series)

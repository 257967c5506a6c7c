from __future__ import annotations

import functools
import tracemalloc

import numpy as np
import pytest

from otoclab import brownian, decomp, qla, quasiprob, retrodict, spin, weakmeas

import oracles

# Frozen reference values for the 3-site chain (J=1, h=0.5, g=1.05,
# W = sigma^z on site 1, V = sigma^z on site 3, rho = 1/8), computed with
# an independent dense-matrix script.
F3_AT_T1 = 0.937404048569922
A3_PPPP_AT_T1 = 0.246137150323861
P3_11_AT_T1 = 0.484449806718962


def classical_xx_otoc(t):
    """F(t) = cos(4 J t) for W = x1, V = x2 under the pure zz bond."""
    return np.cos(4.0 * t)


class TestOtoc:
    def test_frozen_three_site_value(self, small_chain):
        rho, w, v, h = small_chain
        f = quasiprob.otoc(rho, w, v, h, 1.0)
        assert f.real == pytest.approx(F3_AT_T1, abs=1e-12)
        assert abs(f.imag) < 1e-12

    def test_classical_two_site_closed_form(self):
        h = spin.ising_hamiltonian(spin.SpinChainSpec(n=2, j=1.0))
        rho = np.eye(4, dtype=complex) / 4
        w = spin.site_pauli(2, 1, "x")
        v = spin.site_pauli(2, 2, "x")
        for t in (0.0, 0.3, 1.1):
            f = quasiprob.otoc(rho, w, v, h, t)
            assert f == pytest.approx(classical_xx_otoc(t), abs=1e-12)

    def test_t_zero_commuting_probes(self, small_chain):
        rho, w, v, h = small_chain
        assert quasiprob.otoc(rho, w, v, h, 0.0) == pytest.approx(1.0, abs=1e-14)

    def test_commutator_square_identity(self, small_chain):
        rho, w, v, h = small_chain
        t = 2.3
        f = quasiprob.otoc(rho, w, v, h, t)
        c = oracles.commutator_square(rho, w, v, h, t)
        assert c == pytest.approx(2.0 - 2.0 * f.real, abs=1e-12)

    def test_commutator_square_direct(self, small_chain, make_density):
        # against an explicit commutator built in the test
        rho = make_density(8)
        _, w, v, h = small_chain
        t = 1.7
        u = qla.eigh(h).propagator(-1j * t)
        wt = u.conj().T @ w @ u
        comm = wt @ v - v @ wt
        want = np.trace(rho @ comm.conj().T @ comm).real
        assert oracles.commutator_square(rho, w, v, h, t) == pytest.approx(want, abs=1e-12)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError, match="dimension mismatch"):
            quasiprob.otoc(np.eye(4) / 4, np.eye(2), np.eye(4), np.eye(4), 0.0)


class TestOtocSeries:
    def test_matches_pointwise(self, small_chain, make_density):
        rho = make_density(8)
        _, w, v, h = small_chain
        times = np.linspace(0.0, 3.0, 7)
        series = quasiprob.otoc_series(rho, w, v, h, times)
        for t, val in zip(series.times, series.values):
            assert abs(val - quasiprob.otoc(rho, w, v, h, float(t))) < 1e-12

    def test_accepts_predecomposed_hamiltonian(self, small_chain):
        rho, w, v, h = small_chain
        sys = qla.eigh(h)
        a = quasiprob.otoc_series(rho, w, v, sys, [0.5, 1.0])
        b = quasiprob.otoc_series(rho, w, v, h, [0.5, 1.0])
        assert np.max(np.abs(a.values - b.values)) == 0.0

    def test_needs_hermitian_observables(self, small_chain):
        # F is taken as the trace of the word W(t) V W(t) V, which is
        # Tr(rho W(t)dag Vdag W(t) V) only for Hermitian W and V
        rho, w, v, h = small_chain
        u = spin.site_pauli(3, 1, "x") @ w         # -i sigma^y: unitary, not Hermitian
        assert abs(quasiprob.otoc(rho, u, v, h, 0.5)) <= 1.0 + 1e-12
        with pytest.raises(ValueError, match="Hermitian"):
            quasiprob.otoc_series(rho, u, v, h, [0.5])

    def test_series_length_guard(self):
        with pytest.raises(ValueError, match="equal length"):
            quasiprob.CorrelatorSeries(times=np.arange(3.0), values=np.zeros(2, dtype=complex))


# every entry that takes a state, called at n = 2 with W = Z_1 and V = Z_2
_STATE_ENTRIES = {
    "otoc_series": lambda s, w, v, h: quasiprob.otoc_series(s, w, v, h, [0.5]),
    "coarse_quasiprob_series":
        lambda s, w, v, h: quasiprob.coarse_quasiprob_series(s, w, v, h, [0.5]),
    "toc_series": lambda s, w, v, h: quasiprob.toc_series(s, w, v, h, [0.5]),
    "kfold_series": lambda s, w, v, h: quasiprob.kfold_series(s, w, v, h, [0.5], 3),
    "otoc_retrodiction": lambda s, w, v, h: retrodict.otoc_retrodiction(s, w, v, h, 0.5, 1.0),
    "otoc": lambda s, w, v, h: quasiprob.otoc(s, w, v, h, 0.5),
    "fine_quasiprob": lambda s, w, v, h: quasiprob.fine_quasiprob(s, w, v, h, 0.5),
    "weakmeas.simulator": lambda s, w, v, h: weakmeas.simulator("three-weak", s, w, v, h, 0.5),
    "brownian.ensemble_averages": lambda s, w, v, h: brownian.ensemble_averages(
        brownian.BrownianConfig(n=2, dt=0.01, steps=1, trajectories=1, stride=1),
        rho=s, w_op=w, v_op=v),
    "brownian.general_state_avg": lambda s, w, v, h: brownian.general_state_avg(
        brownian.BrownianConfig(n=2), s, (1, 1, 1, 1), 0.5, 0.0, 0.0),
    "decomp.asym_decohere": lambda s, w, v, h: decomp.asym_decohere(s, w, v, h, 0.5),
    "RetrodictionContext": lambda s, w, v, h: retrodict.RetrodictionContext(
        s, np.zeros((quasiprob._dim(s),) * 2), 0.5, 1.0, final_vector=np.ones(quasiprob._dim(s))),
    "retrodict.weighted_trace_distance":
        lambda s, w, v, h: retrodict.weighted_trace_distance(w, v, s),
    "retrodict.optimal_estimator": lambda s, w, v, h: retrodict.optimal_estimator(w, s, v),
}
# what is no state, and the entries it goes to: the Brownian ensemble has no
# Hamiltonian, so no energy-frame weights, and diag(2, 0.5) is 2 x 2
_EVERY = tuple(_STATE_ENTRIES)
_BAD_STATES = {
    "rho = 2/d": (2 * np.eye(4) / 4, _EVERY),
    "NaN rho": (np.full((4, 4), np.nan), _EVERY),
    "weights (1.5, -0.5, 0, 0)": (quasiprob.DiagonalState(np.array([1.5, -0.5, 0.0, 0.0])),
                                  tuple(e for e in _EVERY if not e.startswith("brownian"))),
    "psi = 3 (1, ..., 1)": (3 * np.ones(4), _EVERY),
    "rho = diag(2, 0.5)": (np.diag([2.0, 0.5]), ("RetrodictionContext",)),
}


class TestStateForms:
    @pytest.mark.parametrize("entry, state", [
        (entry, state) for state, (_, entries) in _BAD_STATES.items() for entry in entries])
    def test_every_entry_rejects_what_is_no_state(self, entry, state):
        h = spin.ising_hamiltonian(spin.SpinChainSpec(n=2, j=1.0, h=0.5, g=1.05))
        w, v = spin.site_pauli(2, 1, "z"), spin.site_pauli(2, 2, "z")
        with pytest.raises(ValueError, match="not a state|NaN"):
            _STATE_ENTRIES[entry](_BAD_STATES[state][0], w, v, h)

    def test_dense_entries_take_every_form(self):
        """The entries that work on a dense rho take psi and weights as the
        rho density_matrix makes of them."""
        sys = qla.eigh(spin.ising_hamiltonian(spin.SpinChainSpec(n=2, j=1.0, h=0.5, g=1.05)))
        w, v = spin.site_pauli(2, 1, "z"), spin.site_pauli(2, 2, "z")
        weights = quasiprob.DiagonalState(spin.thermal_weights(sys.eigenvalues, 1.0))
        for state in (qla.haar_random_state(4, 3), weights):
            rho = quasiprob.density_matrix(state, sys)
            for entry in (
                    lambda s: quasiprob.otoc(s, w, v, sys, 0.5),
                    lambda s: quasiprob.fine_quasiprob(s, w, v, sys, 0.5).values,
                    lambda s: weakmeas.simulator("three-weak", s, w, v, sys, 0.5)(
                        weakmeas.CouplingConfig(0.1)).probabilities,
                    lambda s: decomp.asym_decohere(s, w, v, sys, 0.5),
                    lambda s: retrodict.RetrodictionContext(
                        s, sys, 0.5, 1.0, final_vector=np.ones(4)).rho_prime):
                assert np.array_equal(entry(state), entry(rho))

    def test_check_state_returns_the_state_itself(self):
        rho, psi = np.eye(4) / 4, qla.haar_random_state(4, 1)
        weights = quasiprob.DiagonalState(np.full(4, 0.25))
        for state in (rho, psi, weights):
            assert quasiprob.check_state(state, spin.site_pauli(2, 1, "z")) is state
        with pytest.raises(ValueError, match="dimension"):
            quasiprob.check_state(rho, spin.site_pauli(3, 1, "z"))

    def test_density_matrix_of_each_form(self, small_chain):
        _, _, _, h = small_chain
        sys = qla.eigh(h)
        equal = quasiprob.density_matrix(quasiprob.DiagonalState(np.full(8, 1 / 8)))
        assert np.array_equal(equal, np.eye(8, dtype=complex) / 8)
        weights = quasiprob.DiagonalState(spin.thermal_weights(sys.eigenvalues, 1.5))
        thermal = quasiprob.density_matrix(weights, sys)
        # e^{-H/T} with no eigensolver: its Taylor sum, converged by 40 terms
        term = taylor = np.eye(8)
        for k in range(1, 40):
            term = term @ (-h / 1.5) / k
            taylor = taylor + term
        assert np.max(np.abs(thermal - taylor / np.trace(taylor))) < 1e-14
        psi = qla.haar_random_state(8, 2)
        assert np.array_equal(quasiprob.density_matrix(psi), np.outer(psi, psi.conj()))

    def test_weights_must_be_a_real_vector(self):
        with pytest.raises(ValueError, match="real vector"):
            quasiprob.DiagonalState(np.array([0.5, 0.5j]))
        with pytest.raises(ValueError, match="real vector"):
            quasiprob.DiagonalState(np.eye(2) / 2)

    def test_thermal_weights(self):
        e = np.array([-3.0, 0.0, 2.0])
        p = spin.thermal_weights(e, 0.5)
        assert abs(p.sum() - 1.0) < 1e-15
        assert np.max(np.abs(p - np.exp(-e / 0.5) / np.sum(np.exp(-e / 0.5)))) < 1e-15
        assert np.array_equal(spin.thermal_weights(e, np.inf), np.full(3, 1 / 3))
        # a colder state puts more weight on the ground state
        assert np.all(p > 0)
        assert spin.thermal_weights(e, 0.1)[0] > p[0]
        # counted from the ground energy, e^{-E/T} stays finite at low T
        assert np.all(np.isfinite(spin.thermal_weights(e - 1e3, 1e-3)))
        with pytest.raises(ValueError):
            spin.thermal_weights(e, 0.0)


class TestScramblingOnset:
    def test_linear_interpolation(self):
        series = quasiprob.CorrelatorSeries(
            times=np.array([0.0, 1.0, 2.0]),
            values=np.array([1.0, 0.95, 0.85], dtype=complex),
        )
        # crosses 0.9 halfway between t=1 and t=2
        assert quasiprob.scrambling_onset(series, 0.9) == pytest.approx(1.5)

    def test_never_crossing_returns_none(self):
        series = quasiprob.CorrelatorSeries(
            times=np.array([0.0, 1.0]), values=np.array([1.0, 0.99], dtype=complex)
        )
        assert quasiprob.scrambling_onset(series, 0.9) is None

    def test_crossing_at_first_sample(self):
        series = quasiprob.CorrelatorSeries(
            times=np.array([2.0, 3.0]), values=np.array([0.5, 0.4], dtype=complex)
        )
        assert quasiprob.scrambling_onset(series, 0.9) == 2.0


class TestCoarseQuasiprob:
    def test_frozen_three_site_entry(self, small_chain):
        rho, w, v, h = small_chain
        qd = oracles.coarse_quasiprob(rho, w, v, h, 1.0)
        val = qd.entry(1.0, 1.0, 1.0, 1.0)
        assert val.real == pytest.approx(A3_PPPP_AT_T1, abs=1e-12)

    def test_t_zero_table(self, small_chain):
        """At t = 0 commuting probes collapse the distribution onto
        matching repeated outcomes with weight 1/4 each."""
        rho, w, v, h = small_chain
        qd = oracles.coarse_quasiprob(rho, w, v, h, 0.0)
        for (v1, w2, v2, w3), val in qd.outcome_grid():
            if v1 == v2 and w2 == w3:
                assert val == pytest.approx(0.25, abs=1e-12)
            else:
                assert abs(val) < 1e-12

    def test_total_is_one(self, small_chain, make_density):
        rho = make_density(8)
        _, w, v, h = small_chain
        qd = oracles.coarse_quasiprob(rho, w, v, h, 1.3)
        assert qd.total() == pytest.approx(1.0, abs=1e-12)

    def test_moment_recovers_otoc(self, small_chain, make_density):
        rho = make_density(8)
        _, w, v, h = small_chain
        for t in (0.4, 1.9):
            qd = oracles.coarse_quasiprob(rho, w, v, h, t)
            f = quasiprob.otoc(rho, w, v, h, t)
            assert abs(quasiprob.otoc_moment(qd) - f) < 1e-10

    def test_via_correlators_matches_projector_route(self, small_chain, make_density):
        rho = make_density(8)
        _, w, v, h = small_chain
        a = oracles.coarse_quasiprob(rho, w, v, h, 1.1)
        b = oracles.coarse_quasiprob_via_correlators(rho, w, v, h, 1.1)
        assert np.max(np.abs(a.values - b.values)) < 1e-12

    def test_correlators_for_expansion_need_hermitian_observables(self, small_chain):
        # the words are contracted with Hermitian letters: for W = i X_1 the
        # trace of V W(t) came back as the conjugate of the true one
        rho, w, v, h = small_chain
        ix = 1j * spin.site_pauli(3, 1, "x")
        for w_op, v_op in ((ix, v), (w, ix)):
            with pytest.raises(ValueError, match="Hermitian"):
                oracles.correlators_for_expansion(rho, w_op, v_op, h, 0.7)

    def test_via_correlators_rejects_noninvolutory(self, small_chain):
        rho, w, v, h = small_chain
        with pytest.raises(ValueError, match="involutory"):
            oracles.coarse_quasiprob_via_correlators(rho, 2 * w, v, h, 1.0)

    def test_series_matches_single_time(self, small_chain, make_density):
        rho = make_density(8)
        _, w, v, h = small_chain
        times = np.array([0.0, 0.7, 2.2])
        qs = quasiprob.coarse_quasiprob_series(rho, w, v, h, times)
        for i, t in enumerate(times):
            direct = oracles.coarse_quasiprob(rho, w, v, h, float(t))
            assert np.max(np.abs(qs.at(i).values - direct.values)) < 1e-12

    def test_series_general_spectrum_path(self, small_chain, make_density):
        # non-involutory probes take the projector path inside the series
        rho = make_density(8)
        _, w, v, h = small_chain
        w3 = w + 2.0 * np.eye(8)  # eigenvalues 1 and 3
        times = np.array([0.5, 1.5])
        qs = quasiprob.coarse_quasiprob_series(rho, w3, v, h, times)
        for i, t in enumerate(times):
            direct = oracles.coarse_quasiprob(rho, w3, v, h, float(t))
            assert np.max(np.abs(qs.at(i).values - direct.values)) < 1e-12

    def test_entry_lookup_errors(self, small_chain):
        rho, w, v, h = small_chain
        qd = oracles.coarse_quasiprob(rho, w, v, h, 0.5)
        with pytest.raises(KeyError):
            qd.entry(1.0, 1.0, 1.0)  # wrong slot count
        with pytest.raises(KeyError):
            qd.entry(0.5, 1.0, 1.0, 1.0)  # not an eigenvalue

    def test_labeled_entry_on_a_coarse_distribution_names_the_axis(self, small_chain):
        rho, w, v, h = small_chain
        qd = oracles.coarse_quasiprob(rho, w, v, h, 0.5)
        with pytest.raises(KeyError, match="w2 carries no degeneracy labels"):
            qd.entry(1.0, (1.0, 0), 1.0, 1.0)

    def test_swap_symmetry_at_t_zero(self, small_chain):
        rho, w, v, h = small_chain
        vals = oracles.coarse_quasiprob(rho, w, v, h, 0.0).values
        assert np.max(np.abs(vals - vals.transpose(2, 1, 0, 3))) < 1e-12
        assert np.max(np.abs(vals - vals.transpose(0, 3, 2, 1))) < 1e-12


class TestFineGrain:
    def test_coarse_grain_aggregates(self, small_chain, make_density):
        rho = make_density(8)
        _, w, v, h = small_chain
        fine = quasiprob.fine_quasiprob(rho, w, v, h, 0.9)
        coarse = oracles.coarse_quasiprob(rho, w, v, h, 0.9)
        regrained = quasiprob.coarse_grain(fine)
        assert np.max(np.abs(regrained.values - coarse.values)) < 1e-12

    def test_fine_labels_enumerate_configs(self, small_chain):
        rho, w, v, h = small_chain
        fine = quasiprob.fine_quasiprob(rho, w, v, h, 0.4)
        for labels in fine.axis_labels:
            # each +-1 block carries configuration labels 0..3
            assert np.array_equal(np.sort(labels), np.repeat(np.arange(4), 2))

    def test_fine_entry_needs_label(self, small_chain):
        rho, w, v, h = small_chain
        fine = quasiprob.fine_quasiprob(rho, w, v, h, 0.4)
        with pytest.raises(KeyError, match="label"):
            fine.entry(1.0, 1.0, 1.0, 1.0)
        val = fine.entry((1.0, 0), (1.0, 0), (1.0, 0), (1.0, 0))
        assert isinstance(val, complex)

    def test_fine_dim_guard(self):
        dim = 128
        rho = np.eye(dim, dtype=complex) / dim
        w = spin.site_pauli(7, 1, "z")
        v = spin.site_pauli(7, 7, "z")
        with pytest.raises(ValueError, match="capped"):
            quasiprob.fine_quasiprob(rho, w, v, np.zeros((dim, dim)), 0.0)

    def test_near_degenerate_w_groups_as_the_coarse_series(self, make_density):
        # 1 and 1 + 5e-10 are two outcomes by the relative rule qla.eigh and
        # the coarse projectors use, so the fine labels must split them too.
        # H is diagonal (g = 0), so no route rotates the split pair: in a
        # frame that mixes it, its eigenvectors hold only to eps / 5e-10
        h = spin.ising_hamiltonian(spin.SpinChainSpec(n=2, j=1.0, h=0.5))
        w = np.diag([-1.0, -1.0, 1.0, 1.0 + 5e-10])
        v = spin.site_pauli(2, 2, "x")
        rho = make_density(4)
        fine = quasiprob.fine_quasiprob(rho, w, v, h, 0.7)
        regrained = quasiprob.coarse_grain(fine)
        coarse = quasiprob.coarse_quasiprob_series(rho, w, v, h, [0.7]).at(0)
        for a, b in zip(regrained.axis_eigenvalues, coarse.axis_eigenvalues):
            assert a.shape == b.shape and np.max(np.abs(a - b)) < 1e-10
        assert len(coarse.axis_eigenvalues[1]) == 3
        assert np.max(np.abs(regrained.values - coarse.values)) < 1e-10
        # lookup follows the same rule: each split outcome is its own group
        for w3, col in ((1.0, 2), (1.0 + 5e-10, 3)):
            assert fine.entry((-1.0, 0), (-1.0, 1), (1.0, 0), (w3, 0)) == fine.values[0, 1, 2, col]

    def test_coarse_grain_rejects_coarse(self, small_chain):
        rho, w, v, h = small_chain
        qd = oracles.coarse_quasiprob(rho, w, v, h, 0.5)
        with pytest.raises(ValueError):
            quasiprob.coarse_grain(qd)


class TestMarginals:
    def test_marginal_is_born_probability(self, small_chain, make_density):
        rho = make_density(8)
        _, w, v, h = small_chain
        t = 1.2
        qd = oracles.coarse_quasiprob(rho, w, v, h, t)
        marg = quasiprob.marginalize(qd, "w3")
        u = qla.eigh(h).propagator(-1j * t)
        wt = u.conj().T @ w @ u
        for ev, p in zip(marg.axis_eigenvalues[0], marg.values):
            proj = oracles.eigenprojector(wt, float(ev))
            assert p == pytest.approx(np.trace(proj @ rho).real, abs=1e-10)
        assert np.sum(marg.values) == pytest.approx(1.0, abs=1e-12)

    def test_marginal_axis_by_index(self, small_chain):
        rho, w, v, h = small_chain
        qd = oracles.coarse_quasiprob(rho, w, v, h, 0.8)
        a = quasiprob.marginalize(qd, 0)
        b = quasiprob.marginalize(qd, "v1")
        assert np.array_equal(a.values, b.values)
        with pytest.raises(KeyError):
            quasiprob.marginalize(qd, "nope")

    def test_negative_axis_counts_from_the_end(self, small_chain):
        rho, w, v, h = small_chain
        qd = oracles.coarse_quasiprob(rho, w, v, h, 0.8)
        a = quasiprob.marginalize(qd, -1)
        b = quasiprob.marginalize(qd, "w3")
        assert a.axis_names == ("w3",)
        assert np.array_equal(a.values, b.values)
        for bad in (4, -5):
            with pytest.raises(KeyError):
                quasiprob.marginalize(qd, bad)


class TestWorkDistribution:
    def test_frozen_entry_and_identities(self, small_chain):
        rho, w, v, h = small_chain
        qd = oracles.coarse_quasiprob(rho, w, v, h, 1.0)
        pw = quasiprob.work_distribution(qd)
        assert pw.entry(1.0, 1.0).real == pytest.approx(P3_11_AT_T1, abs=1e-12)
        assert pw.values.size == 4
        assert abs(pw.total() - 1.0) < 1e-12
        f = quasiprob.otoc(rho, w, v, h, 1.0)
        assert abs(quasiprob.kfold_moment(pw) - f) < 1e-10

    def test_pair_symmetry_at_infinite_temperature(self, small_chain):
        rho, w, v, h = small_chain
        qd = oracles.coarse_quasiprob(rho, w, v, h, 1.6)
        pw = quasiprob.work_distribution(qd)
        assert abs(pw.entry(1.0, -1.0) - pw.entry(-1.0, 1.0)) < 1e-12

    def test_marginal_real_for_v_diagonal_state(self, small_chain):
        _, w, v, h = small_chain
        # state diagonal in the V eigenbasis commutes with V
        weights = np.linspace(1.0, 2.0, 8)
        rho_v = np.diag(weights / weights.sum()).astype(complex)
        assert np.max(np.abs(rho_v @ v - v @ rho_v)) == 0.0
        qd = oracles.coarse_quasiprob(rho_v, w, v, h, 1.4)
        pw = quasiprob.work_distribution(qd)
        marg = pw.values.sum(axis=1)
        total = 0.0
        for p in marg:
            assert abs(p.imag) < 1e-10
            assert p.real > -1e-10
            total += p.real
        assert total == pytest.approx(1.0, abs=1e-10)

    def test_near_degenerate_products_keep_their_values(self, make_density):
        # 1 and 1 + 5e-10 are distinct outcomes of W by the relative
        # degeneracy rule, so the products they make stay apart too
        h = spin.ising_hamiltonian(spin.SpinChainSpec(n=2, j=1.0, h=0.5, g=1.05))
        w = np.diag([-1.0, -1.0, 1.0, 1.0 + 5e-10]).astype(complex)
        v = spin.site_pauli(2, 2, "z")
        rho = make_density(4)
        qd = quasiprob.coarse_quasiprob_series(rho, w, v, h, [0.7]).at(0)
        wd = quasiprob.work_distribution(qd)
        assert wd.axis_names == ("W", "W'")
        assert np.min(np.abs(wd.axis_eigenvalues[0] - (1.0 + 5e-10))) < 1e-15
        assert len(wd.axis_eigenvalues[0]) == 4
        assert abs(wd.total() - qd.total()) < 1e-12
        assert abs(quasiprob.kfold_moment(wd) - quasiprob.otoc_moment(qd)) < 1e-12
        toc = quasiprob.toc_series(rho, w, v, h, [0.7]).at(0)
        pw = quasiprob.work_distribution(toc)
        assert abs(quasiprob.kfold_moment(pw) - quasiprob.toc_moment(toc)) < 1e-12


class TestRegulated:
    def setup_method(self):
        self.h = spin.ising_hamiltonian(spin.SpinChainSpec(n=2, j=1.0, h=0.5, g=1.05))
        self.w = spin.site_pauli(2, 1, "z")
        self.v = spin.site_pauli(2, 2, "z")

    def test_swap_symmetry_at_unit_temperature(self):
        # invariant under swapping both outcome pairs at once:
        # (v1, w2, v2, w3) -> (v2, w3, v1, w2)
        dist = quasiprob.regulated_series(self.h, 1.0, self.w, self.v, [1.0]).at(0)
        vals = dist.values
        assert np.max(np.abs(vals - vals.transpose(2, 3, 0, 1))) < 1e-10

    def test_moment_matches_regulated_otoc(self):
        series = quasiprob.regulated_series(self.h, 1.0, self.w, self.v, [0.8])
        assert abs(quasiprob.otoc_moment(series.at(0)) - series.correlator[0]) < 1e-10

    def test_high_temperature_limit(self):
        # frozen independent check put the T = 1e6 deviation near 3.5e-7
        dist = quasiprob.regulated_series(self.h, 1e6, self.w, self.v, [1.0]).at(0)
        plain = oracles.coarse_quasiprob(np.eye(4, dtype=complex) / 4,
                                         self.w, self.v, self.h, 1.0)
        assert np.max(np.abs(dist.values - plain.values)) < 1e-6

    def test_temperature_guard(self):
        with pytest.raises(ValueError, match="temperature"):
            quasiprob.regulated_series(self.h, 0.0, self.w, self.v, [1.0])

    def test_involution_guard(self):
        with pytest.raises(ValueError, match="involut"):
            quasiprob.regulated_series(self.h, 1.0, 2 * self.w, self.v, [1.0])

    def test_total_is_one(self):
        dist = quasiprob.regulated_series(self.h, 2.0, self.w, self.v, [1.3]).at(0)
        assert dist.total() == pytest.approx(1.0, abs=1e-10)


class TestTimeOrdered:
    def test_unitary_probes_give_one(self, small_chain, make_density):
        rho = make_density(8)
        _, w, v, h = small_chain
        toc = quasiprob.toc_series(rho, w, v, h, [1.7]).correlator[0]
        assert abs(toc - 1.0) < 1e-12

    def test_v_diagonal_state_is_classical(self, small_chain):
        _, w, v, h = small_chain
        weights = np.linspace(1.0, 3.0, 8)
        rho_v = np.diag(weights / weights.sum()).astype(complex)
        dist = quasiprob.toc_series(rho_v, w, v, h, [1.2]).at(0)
        assert np.max(np.abs(dist.values.imag)) < 1e-12
        assert np.min(dist.values.real) > -1e-12

    def test_moment_recovers_toc(self, small_chain, make_density):
        rho = make_density(8)
        _, w, v, h = small_chain
        series = quasiprob.toc_series(rho, w, v, h, [0.9])
        pw = quasiprob.work_distribution(series.at(0))
        assert abs(quasiprob.kfold_moment(pw) - series.correlator[0]) < 1e-10

    def test_three_slot_names(self, small_chain):
        rho, w, v, h = small_chain
        dist = quasiprob.toc_series(rho, w, v, h, [0.3]).at(0)
        assert dist.axis_names == ("v1", "w1", "v2")
        assert dist.values.shape == (2, 2, 2)


class TestKFold:
    def test_two_fold_is_the_otoc(self, small_chain, make_density):
        rho = make_density(8)
        _, w, v, h = small_chain
        series = quasiprob.kfold_series(rho, w, v, h, [1.1], 2)
        f2, dist = series.correlator[0], series.at(0)
        f = quasiprob.otoc(rho, w, v, h, 1.1)
        assert abs(f2 - f) < 1e-12
        assert abs(quasiprob.kfold_moment(dist) - f) < 1e-10
        # the 2-fold distribution is the coarse one up to slot bookkeeping
        qd = oracles.coarse_quasiprob(rho, w, v, h, 1.1)
        assert np.max(np.abs(dist.values - qd.values)) < 1e-12

    def test_three_fold_moment(self, small_chain, make_density):
        rho = make_density(8)
        _, w, v, h = small_chain
        series = quasiprob.kfold_series(rho, w, v, h, [0.8], 3)
        f3, dist = series.correlator[0], series.at(0)
        assert dist.values.shape == (2,) * 6
        assert abs(quasiprob.kfold_moment(dist) - f3) < 1e-10

    def test_khat_guards(self, small_chain):
        rho, w, v, h = small_chain
        for bad in (1, 6, 2.0):
            with pytest.raises(ValueError):
                quasiprob.kfold_series(rho, w, v, h, [0.5], bad)
        with pytest.raises(ValueError, match="involutory"):
            quasiprob.kfold_series(rho, 2 * w, v, h, [0.5], 2)


class _CountingMatmul(np.ndarray):
    """An array that counts the matrix products it takes part in; dot
    products, whose members are numbers (1 x 1), are not counted."""

    products = 0

    def __array_ufunc__(self, ufunc, method, *inputs, **kwargs):
        out = getattr(ufunc, method)(*(np.asarray(x) for x in inputs), **kwargs)
        if ufunc is np.matmul and np.shape(out)[-2:] not in ((), (1, 1)):
            _CountingMatmul.products += 1
        return out.view(_CountingMatmul) if isinstance(out, np.ndarray) else out


class TestWordExpansion:
    @pytest.mark.parametrize("k", [2, 3, 4, 5])
    def test_table_identities(self, k):
        table = quasiprob._word_table(k)
        words = quasiprob._words(k)
        assert table.shape == (4**k, 4 * k) == (4**k, len(set(words)))
        # column sums keep only the empty word: the entries sum to Tr rho
        assert np.array_equal(table.sum(axis=0), np.eye(4 * k)[words.index("1")])
        # the sign-weighted row sums keep only the longest word (W V)^k,
        # so the moment of the entries is F_k
        signs = functools.reduce(np.multiply.outer, [np.array([-1.0, 1.0])] * (2 * k))
        assert np.array_equal(signs.ravel() @ table, np.eye(4 * k)[words.index("wv" * k)])

    @pytest.mark.parametrize("k", [2, 3, 4, 5])
    @pytest.mark.parametrize("kind", ["mixed", "rank one", "rank two", "signed"])
    def test_word_traces_are_explicit_products(self, small_chain, make_density, rng, kind, k):
        _, w, v, h = small_chain
        a, b = qla.haar_random_state(8, rng), qla.haar_random_state(8, rng)
        basis = qla.eigh(make_density(8)).eigenvectors
        rho = {"mixed": make_density(8),
               "rank one": np.outer(a, a.conj()),
               "rank two": 0.3 * np.outer(a, a.conj()) + 0.7 * np.outer(b, b.conj()),
               # Hermitian with trace 1 and one negative eigenvalue
               "signed": (basis * [-0.2, 0.3, 0.1, 0.2, 0.15, 0.15, 0.2, 0.1]) @ basis.conj().T,
               }[kind]
        wts = np.stack([quasiprob.heisenberg(w, quasiprob.propagator(h, t))
                        for t in (0.7, 1.3, 2.1)])
        traces = quasiprob._word_traces(rho.view(_CountingMatmul), v.view(_CountingMatmul), k)
        ops = {"v": v}
        # a single W(t), then the stack of three, each member by itself
        for wt in (wts[0], wts):
            _CountingMatmul.products = 0
            got = np.asarray(traces(wt.view(_CountingMatmul)))
            # the alternating words of up to k letters applied to the
            # eigenvector block of rho, V B formed once beforehand
            assert _CountingMatmul.products == 2 * k - 1
            for member, values in zip(np.reshape(wt, (-1, 8, 8)), np.reshape(got, (-1, 4 * k))):
                ops["w"] = member
                for word, value in zip(quasiprob._words(k), values):
                    product = functools.reduce(np.matmul, [ops[c] for c in word.strip("1")],
                                               np.eye(8))
                    assert abs(value - np.trace(product @ rho)) < 1e-12

    @pytest.mark.parametrize("k", [2, 3, 4, 5])
    @pytest.mark.parametrize("form", ["psi", "weights"])
    def test_word_traces_of_psi_and_weights_are_explicit_products(self, small_chain, rng,
                                                                   form, k):
        # in the energy frame, with W dressed by the phases and undressed
        _, w, v, h = small_chain
        sys = qla.eigh(h)
        w_e, v_e, _ = quasiprob._energy_frame(sys, w, v)
        if form == "psi":
            state = qla.haar_random_state(8, rng)
            rho = np.outer(state, state.conj())
        else:
            p = rng.random(8)
            state, rho = quasiprob.DiagonalState(p / p.sum()), np.diag(p / p.sum())
        traces = quasiprob._word_traces(state, v_e, k)
        phase = np.exp(-0.7j * sys.eigenvalues)
        for given, wt in ((None, w_e), (phase, phase.conj()[:, None] * w_e * phase)):
            ops = {"w": wt, "v": v_e}
            for word, value in zip(quasiprob._words(k), traces(w_e, given)):
                product = functools.reduce(np.matmul, [ops[c] for c in word.strip("1")], np.eye(8))
                assert abs(value - np.trace(product @ rho)) < 1e-12

    @pytest.mark.parametrize("k", [2, 3, 4, 5])
    def test_a_chunk_of_weights_points_costs_one_point_in_products(self, small_chain, rng, k):
        """A (T, d) stack of phases makes the k - 1 products of one point,
        each stacked, and row t of its traces is the point at phase t."""
        _, w, v, h = small_chain
        sys = qla.eigh(h)
        w_e, v_e, _ = quasiprob._energy_frame(sys, w, v)
        p = rng.random(8)
        traces = quasiprob._word_traces(quasiprob.DiagonalState(p / p.sum()), v_e, k)
        phases = quasiprob._phases(sys, np.array([0.0, 0.4, 1.1, 2.5, 7.0]))
        _CountingMatmul.products = 0
        chunk = np.asarray(traces(w_e.view(_CountingMatmul), phases))
        assert _CountingMatmul.products == k - 1
        assert chunk.shape == (5, 4 * k)
        for row, phase in zip(chunk, phases):
            assert np.max(np.abs(row - traces(w_e, phase))) < 1e-13

    def test_series_memory_stays_within_two_stacks_beyond_its_output(self):
        """On a 20 001-point n=4 grid the weights series holds D V and G, two
        (chunk, d, d) stacks of at most qla.STACK_BYTES each, beyond its
        (T, 4k) traces and (T, 4^k) entries, however long the grid."""
        n = 4
        ham = spin.ising_hamiltonian(spin.SpinChainSpec(n=n, j=1.0, h=0.5, g=1.05))
        sys = qla.eigh(ham)
        w, v = spin.pauli_string(n, [(1, "z")]), spin.pauli_string(n, [(n, "z")])
        state = quasiprob.DiagonalState(spin.thermal_weights(sys.eigenvalues, 2.0))
        times = np.linspace(0.0, 200.0, 20_001)
        assert 16 * 16**2 * qla.chunk_length(16) == qla.STACK_BYTES
        tracemalloc.start()
        try:
            series = quasiprob.coarse_quasiprob_series(state, w, v, sys, times)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        outputs = series.values.nbytes + len(times) * 8 * 16      # entries and (T, 8) traces
        assert peak - outputs <= 2 * qla.STACK_BYTES + qla.STACK_BYTES // 8

    def test_partner_otoc_points_allocate_no_square_temporary(self):
        """Per point, the F word of a reflection partner on energy-frame
        weights holds no (d, d) buffer: only the two (d, _PARTNER_WIDTH)
        column blocks of its walk over Y, R_J and Y[J0:, J], half a square at
        d = 512, and allocates no (d, d) temporary; what a point allocates
        is numpy's fixed-size casting buffer of about 256 kB."""
        n, d = 9, 512
        ham = spin.ising_hamiltonian(spin.SpinChainSpec(n=n, j=1.0, h=0.5, g=1.05))
        sys = qla.eigh(ham)
        w, v = spin.pauli_string(n, [(1, "z")]), spin.pauli_string(n, [(n, "z")])
        w_e, v_e, parities = quasiprob._energy_frame(sys, w, v)
        assert parities is not None
        state = quasiprob.DiagonalState(spin.thermal_weights(sys.eigenvalues, 2.0))
        traces = quasiprob._word_traces(state, v_e, 2, parities, ("wvwv",))
        square = 16 * d * d                   # one complex (d, d) matrix
        tracemalloc.start()
        try:
            traces(w_e, np.exp(-0.3j * sys.eigenvalues))
            held = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            traces(w_e, np.exp(-1.1j * sys.eigenvalues))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        blocks = 2 * 16 * d * quasiprob._PARTNER_WIDTH      # R_J and Y[J0:, J]
        assert blocks == square // 2
        assert held < blocks + square // 64
        assert peak - held < square // 8

    def test_matmul_takes_blocks_and_stacks(self, rng):
        # a real matrix times a complex operand takes one real product over
        # the interleaved real and imaginary parts, for any leading axes
        d = 8
        a = rng.normal(size=(d, d))
        for shape in ((d, d, d), (d, 1), (d, d)):
            b = rng.normal(size=shape) + 1j * rng.normal(size=shape)
            assert np.max(np.abs(quasiprob._matmul(a, b) - np.matmul(a, b))) < 1e-13

    @pytest.mark.parametrize("k", [2, 3, 4, 5])
    def test_entries_sum_to_trace_and_moment_is_fk(self, small_chain, make_density, k):
        _, w, v, h = small_chain
        rho = make_density(8)
        series = quasiprob.kfold_series(rho, w, v, h, [0.9], k)
        f_k, dist = series.correlator[0], series.at(0)
        assert abs(dist.total() - 1.0) < 1e-12
        assert abs(quasiprob.kfold_moment(dist) - f_k) < 1e-12


def test_moment_identity_random_states(small_chain):
    """Property-style sweep: the moment identity holds for arbitrary
    density operators and times, not just the fixtures above."""
    _, w, v, h = small_chain
    rng = np.random.default_rng(77)
    for _ in range(8):
        a = rng.normal(size=(8, 8)) + 1j * rng.normal(size=(8, 8))
        rho = a @ a.conj().T
        rho = rho / np.trace(rho)
        t = float(rng.uniform(0.0, 5.0))
        qd = oracles.coarse_quasiprob(rho, w, v, h, t)
        pw = quasiprob.work_distribution(qd)
        f = quasiprob.otoc(rho, w, v, h, t)
        assert abs(quasiprob.otoc_moment(qd) - f) < 1e-10
        assert abs(quasiprob.kfold_moment(pw) - f) < 1e-10


@pytest.mark.parametrize("n", range(2, 11))
def test_sector_parities_are_the_column_parities_of_the_eigenvectors(n):
    """The parities the sector solve hands over satisfy e[R] == e s bitwise
    on uniform chains with random fields; a reflection symmetry broken by
    twice HERMITIAN_TOL takes the full solve and carries none (nor does a
    stack: TestSectorRoute in test_qla)."""
    r, rng = qla.bit_reversal(2**n), np.random.default_rng(n)
    spec = spin.SpinChainSpec(n=n, j=rng.uniform(0.5, 1.5), h=rng.uniform(-1.0, 1.0),
                              g=rng.uniform(0.3, 1.5))
    ham = spin.ising_hamiltonian(spec)
    sys = qla.eigh(ham)
    e, s = sys.eigenvectors, sys.parities
    assert s is not None and np.array_equal(e[r], e * s)
    assert set(s) == {-1.0, 1.0}
    ham[1, 1] += 2 * qla.HERMITIAN_TOL               # and not its mirror r[1] = d / 2
    assert qla.eigh(ham).parities is None


def test_the_diagonal_chain_has_no_sector_parities():
    """At g = 0 the degenerate groups |r>, |Rr> are rebuilt across the
    sectors, so the eigensystem carries no parities."""
    ham = spin.ising_hamiltonian(spin.SpinChainSpec(n=6, j=0.8, h=0.3, g=0.0))
    assert qla.eigh(ham).parities is None


@pytest.mark.parametrize("entry", [
    "otoc_series", "coarse_quasiprob_series", "toc_series", "kfold_series", "otoc_retrodiction",
    "otoc", "fine_quasiprob", "weakmeas.simulator", "decomp.asym_decohere"])
def test_an_entry_diagonalizes_a_hamiltonian_matrix_once(monkeypatch, small_chain, entry):
    """Thermal weights and U(t) of a raw H come from one qla.eigh of H."""
    _, w, v, h = small_chain
    state = quasiprob.DiagonalState(spin.thermal_weights(qla.eigh(h).eigenvalues, 0.8))
    real, solved = qla.eigh, []
    monkeypatch.setattr(qla, "eigh", lambda m: solved.append(m is h) or real(m))
    _STATE_ENTRIES[entry](state, w, v, h)
    assert sum(solved) == 1

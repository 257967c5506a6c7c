from __future__ import annotations

import math

import numpy as np
import pytest

from otoclab import qla, quasiprob, spin, weakmeas


@pytest.fixture
def two_site():
    spec = spin.SpinChainSpec(n=2, j=1.0, h=0.5, g=1.05)
    h = spin.ising_hamiltonian(spec)
    w = spin.site_pauli(2, 1, "z")
    v = spin.site_pauli(2, 2, "z")
    rho = np.eye(4, dtype=complex) / 4
    return rho, w, v, h


class TestCouplings:
    def test_config_guards(self):
        with pytest.raises(ValueError):
            weakmeas.CouplingConfig(-0.1)
        with pytest.raises(ValueError):
            weakmeas.CouplingConfig(2.0)
        with pytest.raises(ValueError):
            weakmeas.CouplingConfig(0.1, "sideways")

    def test_real_mode_coefficients(self):
        phi = 0.15
        ab = weakmeas.slot_coefficients(weakmeas.CouplingConfig(phi, "real"))
        p = (1.0 + math.sin(phi)) / 2.0
        q = 1.0 - p
        a_plus, b_plus = ab[+1]
        assert a_plus == pytest.approx(math.sqrt(q), abs=1e-15)
        assert a_plus + b_plus == pytest.approx(math.sqrt(p), abs=1e-15)

    def test_imaginary_mode_coefficients(self):
        phi = 0.2
        ab = weakmeas.slot_coefficients(weakmeas.CouplingConfig(phi, "imaginary"))
        r = 1.0 / math.sqrt(2.0)
        a_plus, b_plus = ab[+1]
        assert a_plus == pytest.approx(r, abs=1e-15)
        # the projected branch carries the phase e^{-i phi}
        assert a_plus + b_plus == pytest.approx(r * np.exp(-1j * phi), abs=1e-15)

    def test_kraus_completeness_both_modes(self):
        proj = spin.eigenprojector(spin.site_pauli(2, 1, "z"), 1.0)
        for mode in weakmeas.PHASE_MODES:
            mp, mm = weakmeas.kraus_pair(proj, weakmeas.CouplingConfig(0.12, mode))
            total = qla.dagger(mp) @ mp + qla.dagger(mm) @ mm
            assert np.max(np.abs(total - np.eye(4))) < 1e-12

    def test_strong_limit_is_projective(self):
        # phi = pi/2 in real mode drives p -> 1: plain projectors
        proj = spin.eigenprojector(spin.PAULI_Z, 1.0)
        mp, mm = weakmeas.kraus_pair(proj, weakmeas.CouplingConfig(math.pi / 2, "real"))
        assert np.max(np.abs(mp - proj)) < 1e-12
        assert np.max(np.abs(mm - (np.eye(2) - proj))) < 1e-12

    def test_kraus_pair_rejects_nonprojector(self):
        with pytest.raises(ValueError):
            weakmeas.kraus_pair(0.5 * np.eye(2), weakmeas.CouplingConfig(0.1))


def test_ancilla_subcircuit_matches_kraus_pair():
    """Contracting the two-qubit ancilla circuit reproduces the symmetric
    partial projection at base angle pi/2, for a nontrivial projector."""
    w = spin.site_pauli(2, 1, "z")
    proj_plus = spin.eigenprojector(w, 1.0)
    proj_minus = spin.eigenprojector(w, -1.0)
    phi = 0.13
    mp_circ, mm_circ = weakmeas.ancilla_subcircuit_kraus((proj_plus, proj_minus), phi)
    mp, mm = weakmeas.kraus_pair(proj_plus, weakmeas.CouplingConfig(phi, "real"))
    assert np.max(np.abs(mp_circ - mp)) < 1e-12
    assert np.max(np.abs(mm_circ - mm)) < 1e-12


def test_ancilla_subcircuit_guards():
    proj = spin.eigenprojector(spin.PAULI_Z, 1.0)
    comp = np.eye(2) - proj
    with pytest.raises(ValueError):
        weakmeas.ancilla_subcircuit_kraus((proj, comp), 0.1, base_angle=4.0)
    with pytest.raises(ValueError, match="resolve the identity"):
        weakmeas.ancilla_subcircuit_kraus((proj, proj), 0.1)


class TestSimulateProtocol:
    def test_probabilities_form_distribution(self, two_site):
        rho, w, v, h = two_site
        rec = weakmeas.simulate_protocol(rho, w, v, h, 1.0,
                                         weakmeas.CouplingConfig(0.1, "real"))
        assert rec.probabilities.sum() == pytest.approx(1.0, abs=1e-12)
        assert np.all(rec.probabilities >= -1e-15)
        assert len(rec.outcomes) == 16  # 2^3 ancilla outcomes x 2 final bins

    def test_against_explicit_kraus_chain(self, two_site):
        """Independent in-test evaluation of one joint probability."""
        rho, w, v, h = two_site
        coupling = weakmeas.CouplingConfig(0.1, "real")
        rec = weakmeas.simulate_protocol(rho, w, v, h, 1.0, coupling)
        u = quasiprob.propagator(h, 1.0)
        wt = u.conj().T @ w @ u
        pv = spin.eigenprojector(v, 1.0)
        pw = spin.eigenprojector(wt, 1.0)
        mv = weakmeas.kraus_pair(pv, coupling)
        mw = weakmeas.kraus_pair(pw, coupling)
        m_map = {+1: 0, -1: 1}
        for k, (s1, s2, s3, w3) in enumerate(rec.outcomes):
            op = mv[m_map[s3]] @ mw[m_map[s2]] @ mv[m_map[s1]]
            proj3 = pw if w3 > 0 else np.eye(4) - pw
            want = np.trace(proj3 @ op @ rho @ qla.dagger(op)).real
            assert rec.probabilities[k] == pytest.approx(want, abs=1e-12)

    def test_sampled_counts_reproducible(self, two_site):
        rho, w, v, h = two_site
        kw = dict(shots=5000, seed=21)
        a = weakmeas.simulate_protocol(rho, w, v, h, 1.0,
                                       weakmeas.CouplingConfig(0.1), **kw)
        b = weakmeas.simulate_protocol(rho, w, v, h, 1.0,
                                       weakmeas.CouplingConfig(0.1), **kw)
        assert np.array_equal(a.counts, b.counts)
        assert a.counts.sum() == 5000
        assert np.max(np.abs(a.frequencies() - a.probabilities)) < 0.05

    def test_exact_mode_has_no_counts(self, two_site):
        rho, w, v, h = two_site
        rec = weakmeas.simulate_protocol(rho, w, v, h, 0.5, weakmeas.CouplingConfig(0.1))
        assert rec.counts is None
        assert np.array_equal(rec.frequencies(), rec.probabilities)

    def test_shot_guard(self, two_site):
        rho, w, v, h = two_site
        with pytest.raises(ValueError):
            weakmeas.simulate_protocol(rho, w, v, h, 0.5,
                                       weakmeas.CouplingConfig(0.1), shots=-1)


class TestSampleCounts:
    def test_rounding_residue_is_clipped(self):
        p = np.array([0.5, 0.5 + 5e-11, -5e-11])
        counts = weakmeas._sample_counts(p, 1000, 3)
        assert counts.sum() == 1000
        assert counts[2] == 0

    def test_negative_probability_is_an_error(self):
        p = np.array([0.6, 0.4 + 1e-6, -1e-6])
        with pytest.raises(ValueError, match="negative"):
            weakmeas._sample_counts(p, 1000, 3)


class TestStandardRecords:
    @pytest.mark.parametrize("protocol,runner", [
        ("three-weak", weakmeas.simulate_protocol),
        ("two-weak", weakmeas.two_measurement_protocol),
    ])
    @pytest.mark.parametrize("shots,seed", [(0, None), (5000, 11)])
    def test_records_equal_per_coupling_calls(self, two_site, monkeypatch,
                                              protocol, runner, shots, seed):
        rho, w, v, h = two_site
        phis = (0.05, 0.12, 0.2)
        expected = [runner(rho, w, v, h, 0.8, weakmeas.CouplingConfig(phi, mode),
                           shots=shots, seed=None if seed is None else (seed, k))
                    for k, (mode, phi) in enumerate(
                        (m, p) for m in weakmeas.PHASE_MODES for p in phis)]
        calls = []
        real_propagator = quasiprob.propagator
        monkeypatch.setattr(quasiprob, "propagator",
                            lambda *a: calls.append(a) or real_propagator(*a))
        got = weakmeas.standard_protocol_records(rho, w, v, h, 0.8, phis=phis,
                                                 shots=shots, seed=seed,
                                                 protocol=protocol)
        assert len(calls) == 1  # propagated once, not once per record
        assert len(got) == len(expected) == 6
        for a, b in zip(got, expected):
            assert a.protocol == b.protocol == protocol
            assert a.coupling == b.coupling
            assert a.outcomes == b.outcomes
            assert np.array_equal(a.probabilities, b.probabilities)
            assert np.array_equal(a.final_eigenvalues, b.final_eigenvalues)
            if shots:
                assert np.array_equal(a.counts, b.counts)
            else:
                assert a.counts is None and b.counts is None


class TestInferenceExact:
    def test_three_weak_recovers_distribution(self, two_site):
        rho, w, v, h = two_site
        records = weakmeas.standard_protocol_records(rho, w, v, h, 1.0)
        inferred, report = weakmeas.infer_coarse_quasiprob(records)
        direct = quasiprob.coarse_quasiprob(rho, w, v, h, 1.0)
        assert np.max(np.abs(inferred.values - direct.values)) < 1e-10
        assert not report.sampled
        assert report.std_errors is None
        assert max(report.residuals.values()) < 1e-10

    def test_three_weak_nonuniform_v_diagonal_state(self, two_site):
        # nonuniform weights in the V eigenbasis stay inside the class the
        # shared-strength records can identify
        _, w, v, h = two_site
        weights = np.linspace(1.0, 2.0, 4)
        rho = np.diag(weights / weights.sum()).astype(complex)
        records = weakmeas.standard_protocol_records(rho, w, v, h, 1.0)
        inferred, _ = weakmeas.infer_coarse_quasiprob(records)
        direct = quasiprob.coarse_quasiprob(rho, w, v, h, 1.0)
        assert np.max(np.abs(inferred.values - direct.values)) < 1e-10

    def test_two_weak_recovers_distribution(self, two_site):
        rho, w, v, h = two_site
        records = weakmeas.standard_protocol_records(rho, w, v, h, 1.0,
                                                     protocol="two-weak")
        inferred, report = weakmeas.infer_coarse_quasiprob(records)
        direct = quasiprob.coarse_quasiprob(rho, w, v, h, 1.0)
        assert np.max(np.abs(inferred.values - direct.values)) < 1e-10
        assert report.protocol == "two-weak"

    def test_two_weak_commuting_nonuniform_state(self, two_site):
        # uneven weight between the two W(t) eigenspaces, uniform inside
        # each one: the records resolve the eigenvalue but not the
        # degeneracy label, so this is the nonuniform class they identify
        _, w, v, h = two_site
        t = 1.0
        u = quasiprob.propagator(h, t)
        wt = u.conj().T @ w @ u
        eye = np.eye(4)
        rho = 0.3 * (0.5 * (eye + wt)) / 2 + 0.7 * (0.5 * (eye - wt)) / 2
        records = weakmeas.standard_protocol_records(rho, w, v, h, t,
                                                     protocol="two-weak")
        inferred, _ = weakmeas.infer_coarse_quasiprob(records)
        direct = quasiprob.coarse_quasiprob(rho, w, v, h, t)
        assert np.max(np.abs(inferred.values - direct.values)) < 1e-10

    def test_two_weak_rejects_noncommuting_state(self, two_site):
        _, w, v, h = two_site
        rho = spin.product_plus_x_state(2)
        with pytest.raises(ValueError, match="commuting"):
            weakmeas.two_measurement_protocol(rho, w, v, h, 1.0,
                                              weakmeas.CouplingConfig(0.1))

    @pytest.mark.parametrize("protocol,rank", [("three-weak", 27), ("two-weak", 13)])
    def test_every_block_reaches_the_identifiable_rank(self, two_site, protocol, rank):
        rho, w, v, h = two_site
        records = weakmeas.standard_protocol_records(rho, w, v, h, 1.0,
                                                     protocol=protocol)
        _, report = weakmeas.infer_coarse_quasiprob(records)
        assert len(report.ranks) == (2 if protocol == "three-weak" else 4)
        assert set(report.ranks.values()) == {rank}

    def test_unknown_protocol_rejected(self, two_site):
        rho, w, v, h = two_site
        with pytest.raises(ValueError, match="unknown protocol 'three_weak'"):
            weakmeas.standard_protocol_records(rho, w, v, h, 1.0, protocol="three_weak")

    def test_clustered_strengths_rejected(self, two_site):
        rho, w, v, h = two_site
        phis = (0.1, 0.1 + 1e-9, 0.1 + 2e-9, 0.1 + 3e-9)
        records = weakmeas.standard_protocol_records(rho, w, v, h, 1.0, phis=phis)
        with pytest.raises(ValueError, match="widen the coupling-strength spread"):
            weakmeas.infer_coarse_quasiprob(records)

    def test_record_validation(self, two_site):
        rho, w, v, h = two_site
        with pytest.raises(ValueError, match="no measurement records"):
            weakmeas.infer_coarse_quasiprob([])
        three = weakmeas.standard_protocol_records(rho, w, v, h, 1.0)
        two = weakmeas.standard_protocol_records(rho, w, v, h, 1.0,
                                                 protocol="two-weak")
        with pytest.raises(ValueError, match="mix"):
            weakmeas.infer_coarse_quasiprob(three + two)
        # a single phase mode starves the design matrix
        single = [r for r in three if r.coupling.phase_mode == "real"]
        with pytest.raises(ValueError, match="phase mode"):
            weakmeas.infer_coarse_quasiprob(single)


class TestInferenceSampled:
    def test_sampled_inference_within_error_bars(self, two_site):
        rho, w, v, h = two_site
        records = weakmeas.standard_protocol_records(rho, w, v, h, 1.0,
                                                     shots=200_000, seed=7)
        inferred, report = weakmeas.infer_coarse_quasiprob(records)
        direct = quasiprob.coarse_quasiprob(rho, w, v, h, 1.0)
        assert report.sampled
        se = report.std_errors
        assert se is not None and np.all(se > 0)
        z_re = np.abs(inferred.values.real - direct.values.real) / se[..., 0]
        z_im = np.abs(inferred.values.imag - direct.values.imag) / se[..., 1]
        assert float(max(z_re.max(), z_im.max())) < 4.0

    def test_two_weak_sampled_inference_within_error_bars(self, two_site):
        rho, w, v, h = two_site
        records = weakmeas.standard_protocol_records(rho, w, v, h, 1.0,
                                                     shots=200_000, seed=7,
                                                     protocol="two-weak")
        inferred, report = weakmeas.infer_coarse_quasiprob(records)
        direct = quasiprob.coarse_quasiprob(rho, w, v, h, 1.0)
        assert report.sampled
        se = report.std_errors
        assert se.shape == (2, 2, 2, 2, 2) and np.all(se > 0)
        z_re = np.abs(inferred.values.real - direct.values.real) / se[..., 0]
        z_im = np.abs(inferred.values.imag - direct.values.imag) / se[..., 1]
        assert float(max(z_re.max(), z_im.max())) < 4.0

    def test_errors_shrink_with_shots(self, two_site):
        rho, w, v, h = two_site
        small = weakmeas.standard_protocol_records(rho, w, v, h, 1.0,
                                                   shots=10_000, seed=3)
        large = weakmeas.standard_protocol_records(rho, w, v, h, 1.0,
                                                   shots=160_000, seed=3)
        _, rep_small = weakmeas.infer_coarse_quasiprob(small)
        _, rep_large = weakmeas.infer_coarse_quasiprob(large)
        ratio = np.median(rep_small.std_errors / rep_large.std_errors)
        assert ratio == pytest.approx(4.0, rel=0.3)  # sqrt(16)

from __future__ import annotations

import dataclasses
import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from otoclab import qla, quasiprob, spin, weakmeas

import oracles


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
        proj = oracles.eigenprojector(spin.site_pauli(2, 1, "z"), 1.0)
        for mode in weakmeas.PHASE_MODES:
            mp, mm = weakmeas.kraus_pair(proj, weakmeas.CouplingConfig(0.12, mode))
            total = qla.dagger(mp) @ mp + qla.dagger(mm) @ mm
            assert np.max(np.abs(total - np.eye(4))) < 1e-12

    def test_strong_limit_is_projective(self):
        # phi = pi/2 in real mode drives p -> 1: plain projectors
        proj = oracles.eigenprojector(spin.PAULI_Z, 1.0)
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
    proj_plus = oracles.eigenprojector(w, 1.0)
    proj_minus = oracles.eigenprojector(w, -1.0)
    phi = 0.13
    mp_circ, mm_circ = weakmeas.ancilla_subcircuit_kraus((proj_plus, proj_minus), phi)
    mp, mm = weakmeas.kraus_pair(proj_plus, weakmeas.CouplingConfig(phi, "real"))
    assert np.max(np.abs(mp_circ - mp)) < 1e-12
    assert np.max(np.abs(mm_circ - mm)) < 1e-12


def test_ancilla_subcircuit_guards():
    proj = oracles.eigenprojector(spin.PAULI_Z, 1.0)
    comp = np.eye(2) - proj
    with pytest.raises(ValueError, match="resolve the identity"):
        weakmeas.ancilla_subcircuit_kraus((proj, proj), 0.1)


class TestSimulateProtocol:
    def test_probabilities_form_distribution(self, two_site):
        rho, w, v, h = two_site
        coupling = weakmeas.CouplingConfig(0.1, "real")
        rec = weakmeas.simulator("three-weak", rho, w, v, h, 1.0)(coupling)
        assert rec.probabilities.sum() == pytest.approx(1.0, abs=1e-12)
        assert np.all(rec.probabilities >= -1e-15)
        assert rec.probabilities.shape == (2, 2, 2, 2)  # 2^3 ancilla outcomes x 2 final bins

    def test_against_explicit_kraus_chain(self, two_site):
        """Independent in-test evaluation of one joint probability."""
        rho, w, v, h = two_site
        coupling = weakmeas.CouplingConfig(0.1, "real")
        rec = weakmeas.simulator("three-weak", rho, w, v, h, 1.0)(coupling)
        u = quasiprob.propagator(h, 1.0)
        wt = u.conj().T @ w @ u
        pv = oracles.eigenprojector(v, 1.0)
        pw = oracles.eigenprojector(wt, 1.0)
        mv = weakmeas.kraus_pair(pv, coupling)
        mw = weakmeas.kraus_pair(pw, coupling)
        m_map = {+1: 0, -1: 1}
        for (i1, i2, i3, k3), prob in np.ndenumerate(rec.probabilities):
            # ancilla index 0 is outcome +1, 1 is -1; the final axis is W(t)'s
            s1, s2, s3 = ((1, -1)[i] for i in (i1, i2, i3))
            w3 = rec.axis_eigenvalues[3][k3]
            op = mv[m_map[s3]] @ mw[m_map[s2]] @ mv[m_map[s1]]
            proj3 = pw if w3 > 0 else np.eye(4) - pw
            want = np.trace(proj3 @ op @ rho @ qla.dagger(op)).real
            assert prob == pytest.approx(want, abs=1e-12)

    @pytest.mark.parametrize("mode", weakmeas.PHASE_MODES)
    @pytest.mark.parametrize("state", ["mixed", "commuting", "coherent"])
    def test_two_weak_against_explicit_kraus_chain(self, two_site, state, mode):
        """The two-coupling circuit in the Schroedinger picture: prepare
        Pi_w U rho U+ Pi_w for each W eigenvalue w, evolve back, weak V,
        evolve forward, weak W, evolve back, strong V."""
        rho, w, v, h = two_site
        t = 1.0
        u = quasiprob.propagator(h, t)
        u_dag = u.conj().T
        eye = np.eye(4)
        if state == "commuting":
            # the block-nonuniform state of test_two_weak_commuting_nonuniform_state
            wt = u_dag @ w @ u
            rho = 0.3 * (0.5 * (eye + wt)) / 2 + 0.7 * (0.5 * (eye - wt)) / 2
        elif state == "coherent":
            # coherent inside the W = +1 eigenspace, where preparing
            # Pi_w rho Pi_w and dephasing in an eigenbasis of W differ
            psi = np.array([1.0, 1.0j, 0.0, 0.0]) / np.sqrt(2.0)
            rho = u_dag @ (0.6 * np.outer(psi, psi.conj()) + 0.2 * (eye - w) / 2) @ u
        coupling = weakmeas.CouplingConfig(0.13, mode)
        rec = weakmeas.simulator("two-weak", rho, w, v, h, t)(coupling)
        mv = weakmeas.kraus_pair(oracles.eigenprojector(v, 1.0), coupling)
        mw = weakmeas.kraus_pair(oracles.eigenprojector(w, 1.0), coupling)
        m_map = {+1: 0, -1: 1}
        assert rec.probabilities.shape == (2, 2, 2, 2)  # 2^2 ancilla x 2 final x 2 prepared
        for (i1, i2, k3, kb), prob in np.ndenumerate(rec.probabilities):
            # ancilla index 0 is outcome +1, 1 is -1; then final V, prepared W
            s1, s2 = ((1, -1)[i] for i in (i1, i2))
            v3, wb = rec.axis_eigenvalues[2][k3], rec.axis_eigenvalues[3][kb]
            prepared = oracles.eigenprojector(w, wb)
            sigma = prepared @ u @ rho @ u_dag @ prepared
            chain = (oracles.eigenprojector(v, v3) @ u_dag @ mw[m_map[s2]] @ u
                     @ mv[m_map[s1]] @ u_dag)
            want = np.trace(chain @ sigma @ chain.conj().T).real
            assert prob == pytest.approx(want, abs=1e-12)

    def test_sampled_counts_reproducible(self, two_site):
        rho, w, v, h = two_site
        kw = dict(shots=5000, seed=21)
        a = weakmeas.simulator("three-weak", rho, w, v, h, 1.0)(weakmeas.CouplingConfig(0.1), **kw)
        b = weakmeas.simulator("three-weak", rho, w, v, h, 1.0)(weakmeas.CouplingConfig(0.1), **kw)
        assert np.array_equal(a.counts, b.counts)
        assert a.counts.sum() == 5000
        assert np.max(np.abs(a.frequencies() - a.probabilities)) < 0.05

    def test_exact_mode_has_no_counts(self, two_site):
        rho, w, v, h = two_site
        rec = weakmeas.simulator("three-weak", rho, w, v, h, 0.5)(weakmeas.CouplingConfig(0.1))
        assert rec.counts is None
        assert np.array_equal(rec.frequencies(), rec.probabilities)

    def test_shot_guard(self, two_site):
        rho, w, v, h = two_site
        record = weakmeas.simulator("three-weak", rho, w, v, h, 0.5)
        with pytest.raises(ValueError):
            record(weakmeas.CouplingConfig(0.1), shots=-1)


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
    @pytest.mark.parametrize("protocol", ["three-weak", "two-weak"])
    @pytest.mark.parametrize("shots,seed", [(0, None), (5000, 11)])
    def test_records_equal_per_coupling_calls(self, two_site, monkeypatch,
                                              protocol, shots, seed):
        rho, w, v, h = two_site
        phis = (0.05, 0.12, 0.2)
        expected = [weakmeas.simulator(protocol, rho, w, v, h, 0.8)(
                        weakmeas.CouplingConfig(phi, mode),
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
            assert np.array_equal(a.probabilities, b.probabilities)
            assert all(map(np.array_equal, a.axis_eigenvalues, b.axis_eigenvalues))
            if shots:
                assert np.array_equal(a.counts, b.counts)
            else:
                assert a.counts is None and b.counts is None


class TestInferenceExact:
    def test_three_weak_recovers_distribution(self, two_site):
        rho, w, v, h = two_site
        records = weakmeas.standard_protocol_records(rho, w, v, h, 1.0)
        inferred, report = weakmeas.infer_coarse_quasiprob(records)
        direct = oracles.coarse_quasiprob(rho, w, v, h, 1.0)
        assert np.max(np.abs(inferred.values - direct.values)) < 1e-10
        assert report.std_errors is None
        assert report.residuals.max() < 1e-10

    def test_three_weak_nonuniform_v_diagonal_state(self, two_site):
        # nonuniform weights in the V eigenbasis stay inside the class the
        # shared-strength records can identify
        _, w, v, h = two_site
        weights = np.linspace(1.0, 2.0, 4)
        rho = np.diag(weights / weights.sum()).astype(complex)
        records = weakmeas.standard_protocol_records(rho, w, v, h, 1.0)
        inferred, _ = weakmeas.infer_coarse_quasiprob(records)
        direct = oracles.coarse_quasiprob(rho, w, v, h, 1.0)
        assert np.max(np.abs(inferred.values - direct.values)) < 1e-10

    def test_two_weak_recovers_distribution(self, two_site):
        rho, w, v, h = two_site
        records = weakmeas.standard_protocol_records(rho, w, v, h, 1.0,
                                                     protocol="two-weak")
        inferred, report = weakmeas.infer_coarse_quasiprob(records)
        direct = oracles.coarse_quasiprob(rho, w, v, h, 1.0)
        assert np.max(np.abs(inferred.values - direct.values)) < 1e-10
        assert report.protocol == "two-weak"

    def test_two_weak_commuting_nonuniform_state(self):
        # every state that commutes with W(t): uneven weight between the
        # two W(t) eigenspaces, uniform inside each one, or one random
        # positive block per eigenspace, coherent inside it
        for n, state in [(2, "block-uniform"), (2, "random"), (3, "random")]:
            h = spin.ising_hamiltonian(spin.SpinChainSpec(n=n, j=1.0, h=0.5, g=1.05))
            w, v = spin.site_pauli(n, 1, "z"), spin.site_pauli(n, n, "z")
            t = 1.0
            u = quasiprob.propagator(h, t)
            d = 2 ** n
            eye = np.eye(d)
            if state == "block-uniform":
                blocks = [0.7 * (eye - w) / d, 0.3 * (eye + w) / d]
            else:
                rng = np.random.default_rng(40 + n)
                blocks = []
                for sign in (-1.0, 1.0):
                    proj = (eye + sign * w) / 2
                    a = proj @ (rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d)))
                    blocks.append(a @ a.conj().T)
            lab = sum(blocks)
            rho = u.conj().T @ (lab / np.trace(lab)) @ u
            records = weakmeas.standard_protocol_records(rho, w, v, h, t, protocol="two-weak")
            inferred, _ = weakmeas.infer_coarse_quasiprob(records)
            direct = oracles.coarse_quasiprob(rho, w, v, h, t)
            assert np.max(np.abs(inferred.values - direct.values)) < 1e-10, (n, state)

    @pytest.mark.parametrize("protocol", ["three-weak", "two-weak"])
    @pytest.mark.parametrize("levels", [(-1.0, 0.0, 0.0, 1.0), (-1.0, -1.0, 1.0, 1.0 + 5e-10)])
    def test_w_needs_two_outcomes(self, two_site, protocol, levels):
        # three W outcomes; the second case by the relative degeneracy rule
        rho, _, v, h = two_site
        with pytest.raises(ValueError, match="weak W coupling needs a two-outcome observable"):
            weakmeas.simulator(protocol, rho, np.diag(levels), v, h, 1.0)

    def test_two_weak_rejects_noncommuting_state(self, two_site):
        _, w, v, h = two_site
        rho = quasiprob.density_matrix(spin.product_plus_x_vector(2))
        with pytest.raises(ValueError, match="commuting"):
            weakmeas.simulator("two-weak", rho, w, v, h, 1.0)(weakmeas.CouplingConfig(0.1))

    @pytest.mark.parametrize("protocol,rank", [("three-weak", 27), ("two-weak", 13)])
    def test_every_block_reaches_the_identifiable_rank(self, two_site, protocol, rank):
        rho, w, v, h = two_site
        records = weakmeas.standard_protocol_records(rho, w, v, h, 1.0,
                                                     protocol=protocol)
        _, report = weakmeas.infer_coarse_quasiprob(records)
        assert report.rank == rank
        assert report.residuals.shape == ((2,) if protocol == "three-weak" else (2, 2))

    @pytest.mark.parametrize("shots", [0, 20_000])
    @pytest.mark.parametrize("protocol", ["three-weak", "two-weak"])
    def test_one_svd_per_inversion(self, two_site, monkeypatch, protocol, shots):
        # the counted rank, the conditioning, the solve and the standard
        # errors all come from one decomposition at one truncation
        rho, w, v, h = two_site
        records = weakmeas.standard_protocol_records(rho, w, v, h, 1.0, shots=shots,
                                                     seed=5, protocol=protocol)
        calls = {"svd": 0, "lstsq": 0, "pinv": 0}

        def counted(name):
            real = getattr(np.linalg, name)

            def wrapper(*args, **kwargs):
                calls[name] += 1
                return real(*args, **kwargs)
            monkeypatch.setattr(np.linalg, name, wrapper)

        for name in calls:
            counted(name)
        _, report = weakmeas.infer_coarse_quasiprob(records)
        assert calls == {"svd": 1, "lstsq": 0, "pinv": 0}
        assert (report.std_errors is None) == (shots == 0)

    def test_unknown_protocol_rejected(self, two_site):
        rho, w, v, h = two_site
        with pytest.raises(ValueError, match="unknown protocol 'three_weak'"):
            weakmeas.standard_protocol_records(rho, w, v, h, 1.0, protocol="three_weak")
        with pytest.raises(ValueError, match="unknown protocol 'three_weak'"):
            weakmeas.simulator("three_weak", rho, w, v, h, 1.0)

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

    def test_records_must_share_their_axes(self, two_site):
        rho, w, v, h = two_site
        records = weakmeas.standard_protocol_records(rho, w, v, h, 1.0)
        rescaled = weakmeas.standard_protocol_records(rho, w, 2 * v, h, 1.0)
        with pytest.raises(ValueError, match="disagree on their outcome axes"):
            weakmeas.infer_coarse_quasiprob(records[:4] + rescaled[4:])
        flat = dataclasses.replace(records[0], probabilities=records[0].probabilities.ravel())
        with pytest.raises(ValueError, match="disagree on their outcome axes"):
            weakmeas.infer_coarse_quasiprob([flat] + records[1:])


@pytest.mark.parametrize("protocol", ["three-weak", "two-weak"])
@pytest.mark.parametrize("mode", weakmeas.PHASE_MODES)
def test_design_rows_are_the_diagonal_of_c_t_cdag(protocol, mode):
    """A design row times the real unknowns of T is Re (c T c^dag)[r, r],
    with c[r, x] summed over the slot patterns that pick sandwich x."""
    spec = weakmeas._PROTOCOLS[protocol]
    slots, n = len(spec.letters), max(spec.x) + 1
    coupling = weakmeas.CouplingConfig(0.13, mode)
    ab = weakmeas.slot_coefficients(coupling)
    c = np.zeros((2 ** slots, n), dtype=complex)
    for r, signs in enumerate(itertools.product((1, -1), repeat=slots)):
        for pattern, bits in enumerate(itertools.product((0, 1), repeat=slots)):
            c[r, spec.x[pattern]] += np.prod([ab[s][b] for s, b in zip(signs, bits)])
    sol = np.random.default_rng(3).normal(size=n * n)
    t = weakmeas._hermitian(sol[:, None])[0]
    assert np.array_equal(t, t.conj().T)
    assert t[0, 0] == sol[0] and t[0, 1] == sol[n] + 1j * sol[n + 1]
    want = np.einsum("ri,ij,rj->r", c, t, c.conj()).real
    assert np.max(np.abs(weakmeas._design_rows(spec, coupling) @ sol - want)) < 1e-12


_LEVEL = st.floats(min_value=-3.0, max_value=3.0, allow_nan=False)
_GAP = st.floats(min_value=0.1, max_value=3.0, allow_nan=False)


@settings(max_examples=20, deadline=None)
@given(a=_LEVEL, w_gap=_GAP, c=_LEVEL, v_gap=_GAP,
       t=st.floats(min_value=0.0, max_value=2.0, allow_nan=False))
def test_inferred_axes_carry_the_eigenvalues(a, w_gap, c, v_gap, t):
    """Two-outcome W = a (1 - P) + b P and V = c (1 - Q) + d Q on the two
    site chain at infinite temperature: both protocols' inferred entries,
    looked up by eigenvalue, and their moment match the direct series."""
    h = spin.ising_hamiltonian(spin.SpinChainSpec(n=2, j=1.0, h=0.5, g=1.05))
    eye = np.eye(4)
    p, q = (eye + spin.site_pauli(2, 1, "z")) / 2, (eye + spin.site_pauli(2, 2, "z")) / 2
    w = a * (eye - p) + (a + w_gap) * p
    v = c * (eye - q) + (c + v_gap) * q
    rho = eye / 4
    direct = quasiprob.coarse_quasiprob_series(rho, w, v, h, [t]).at(0)
    for protocol in ("three-weak", "two-weak"):
        records = weakmeas.standard_protocol_records(rho, w, v, h, t, protocol=protocol)
        inferred, _ = weakmeas.infer_coarse_quasiprob(records)
        for outcome, value in direct.outcome_grid():
            assert abs(inferred.entry(*outcome) - value) < 1e-9, (protocol, outcome)
        moment = quasiprob.otoc_moment(inferred)
        assert abs(moment - quasiprob.otoc_moment(direct)) < 1e-9, protocol


class TestInferenceSampled:
    def test_sampled_inference_within_error_bars(self, two_site):
        rho, w, v, h = two_site
        records = weakmeas.standard_protocol_records(rho, w, v, h, 1.0,
                                                     shots=200_000, seed=7)
        inferred, report = weakmeas.infer_coarse_quasiprob(records)
        direct = oracles.coarse_quasiprob(rho, w, v, h, 1.0)
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
        direct = oracles.coarse_quasiprob(rho, w, v, h, 1.0)
        se = report.std_errors
        assert se is not None and se.shape == (2, 2, 2, 2, 2) and np.all(se > 0)
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

"""Retrodicted weak values, factored evaluation, and estimator optimality."""
from __future__ import annotations

import numpy as np
import pytest

from otoclab import qla, quasiprob, retrodict, spin

import oracles


def rand_herm(d, r):
    a = r.normal(size=(d, d)) + 1j * r.normal(size=(d, d))
    return (a + a.conj().T) / 2


def rand_rho(d, r):
    a = r.normal(size=(d, d)) + 1j * r.normal(size=(d, d))
    m = a @ a.conj().T
    return m / np.trace(m)


def rand_context(d, r):
    return retrodict.RetrodictionContext(
        rand_rho(d, r), rand_herm(d, r), 0.7, 1.3,
        final_vector=qla.haar_random_state(d, r))


class TestContext:
    def test_time_window_guard(self):
        rho = np.eye(2, dtype=complex) / 2
        h = np.zeros((2, 2), dtype=complex)
        f = np.array([1.0, 0.0])
        with pytest.raises(ValueError, match="t_prime"):
            retrodict.RetrodictionContext(rho, h, 0.0, 1.0, final_vector=f)
        with pytest.raises(ValueError, match="t_prime"):
            retrodict.RetrodictionContext(rho, h, 1.0, 0.5, final_vector=f)

    def test_final_specification_required(self):
        rho = np.eye(2, dtype=complex) / 2
        h = np.zeros((2, 2), dtype=complex)
        with pytest.raises(ValueError, match="final_observable"):
            retrodict.RetrodictionContext(rho, h, 0.5, 1.0)
        with pytest.raises(ValueError, match="nonzero"):
            retrodict.RetrodictionContext(rho, h, 0.5, 1.0,
                                          final_vector=np.zeros(2))
        with pytest.raises(ValueError, match="dimension"):
            retrodict.RetrodictionContext(rho, h, 0.5, 1.0,
                                          final_vector=np.ones(3))

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_final_vector_rejected(self, bad):
        rho = np.eye(2, dtype=complex) / 2
        h = np.array([[0.0, -1j], [1j, 0.0]])
        with pytest.raises(ValueError, match="finite"):
            retrodict.RetrodictionContext(rho, h, 0.5, 1.0,
                                          final_vector=np.array([bad, 1.0]))

    def test_nan_conditioning_probability_rejected(self):
        # entries near the float maximum would overflow in U rho U^dag, and
        # inf - inf would make the conditioning probability NaN; their trace
        # is not 1, so the state check stops them first
        rho = np.full((2, 2), 1.5e308, dtype=complex)
        h = np.array([[0.0, -1j], [1j, 0.0]])
        with np.errstate(all="ignore"), \
                pytest.raises(ValueError, match="unit trace"):
            retrodict.RetrodictionContext(rho, h, 0.5, 1.0,
                                          final_vector=np.array([1.0, 0.0]))

    def test_infinite_conditioning_probability_rejected(self):
        # U rho U^dag would overflow to inf without an inf - inf, making the
        # conditioning probability inf; the state check stops it first
        rho = np.full((2, 2), 1.5e308, dtype=complex)
        h = np.diag([1.0, -1.0])
        with np.errstate(all="ignore"), \
                pytest.raises(ValueError, match="unit trace"):
            retrodict.RetrodictionContext(rho, h, 0.5, 1.0,
                                          final_vector=np.array([1.0, -1.0]))

    def test_conditioning_probability_above_one_rejected(self):
        # Hermitian with unit trace, so a state by check_state, but not
        # positive: <f|rho|f> = 1.5 is no probability
        rho = np.diag([1.5, -0.5]).astype(complex)
        h = np.zeros((2, 2), dtype=complex)
        with pytest.raises(ValueError, match=r"conditioning probability is 1\.5;"):
            retrodict.RetrodictionContext(rho, h, 0.5, 1.0,
                                          final_vector=np.array([1.0, 0.0]))

    def test_outcome_resolution(self):
        rho = np.eye(2, dtype=complex) / 2
        h = np.zeros((2, 2), dtype=complex)
        ctx = retrodict.RetrodictionContext(rho, h, 0.5, 1.0,
                                            final_observable=spin.PAULI_Z,
                                            outcome=1.0)
        assert ctx.conditioning_probability == pytest.approx(0.5)
        with pytest.raises(ValueError, match="not an eigenvalue"):
            retrodict.RetrodictionContext(rho, h, 0.5, 1.0,
                                          final_observable=spin.PAULI_Z,
                                          outcome=0.3)
        with pytest.raises(ValueError, match="pass final_vector"):
            retrodict.RetrodictionContext(rho, h, 0.5, 1.0,
                                          final_observable=np.eye(2),
                                          outcome=1.0)

    def test_split_outcomes_resolve_to_their_own_eigenvector(self):
        # 1 and 1 + 5e-10 are separate outcomes under the relative
        # degeneracy rule; each conditions on its own basis vector
        w = np.diag([-1.0, -1.0, 1.0, 1.0 + 5e-10])
        rho = np.diag([0.1, 0.2, 0.3, 0.4]).astype(complex)
        h = np.zeros((4, 4), dtype=complex)
        for outcome, k in [(1.0, 2), (1.0 + 5e-10, 3)]:
            ctx = retrodict.RetrodictionContext(rho, h, 0.5, 1.0, final_observable=w,
                                                outcome=outcome)
            assert abs(ctx.f_prime[k]) == pytest.approx(1.0, abs=1e-12)
            assert ctx.conditioning_probability == pytest.approx(rho[k, k].real, abs=1e-12)

    def test_vanishing_conditioning_rejected(self):
        rho = np.diag([1.0, 0.0]).astype(complex)
        h = np.zeros((2, 2), dtype=complex)
        with pytest.raises(ValueError, match="conditioning probability"):
            retrodict.RetrodictionContext(rho, h, 0.5, 1.0,
                                          final_vector=np.array([0.0, 1.0]))

    def test_memory_meter_guards(self):
        m = retrodict.MemoryMeter()
        m.allocate(5)
        m.release(3)
        assert (m.live_complex_entries, m.peak) == (2, 5)
        with pytest.raises(ValueError):
            m.allocate(-1)
        with pytest.raises(ValueError):
            m.release(3)

    def test_chain_validation(self):
        with pytest.raises(ValueError, match="at least one"):
            retrodict.ObservableChain([])
        with pytest.raises(ValueError, match="one dimension"):
            retrodict.ObservableChain([np.eye(2), np.eye(3)])


class TestWeakValues:
    def test_identity_weak_value_is_one(self):
        ctx = rand_context(4, np.random.default_rng(9))
        assert retrodict.weak_value(np.eye(4), ctx) == pytest.approx(1.0)

    def test_pure_state_reduces_to_expectation(self):
        # pick rho so the forward-evolved state is the backward-evolved
        # post-selection vector: the weak value is then a plain expectation
        r = np.random.default_rng(14)
        f = qla.haar_random_state(4, r)
        h = rand_herm(4, r)
        hs = qla.eigh(h)
        fp = hs.propagator(1j * (1.3 - 0.7)) @ f
        rho = hs.propagator(1j * 0.7) @ np.outer(fp, fp.conj()) @ hs.propagator(-1j * 0.7)
        ctx = retrodict.RetrodictionContext(rho, h, 0.7, 1.3, final_vector=f)
        a = rand_herm(4, r)
        want = float(np.real(fp.conj() @ a @ fp))
        assert retrodict.weak_value(a, ctx) == pytest.approx(want, abs=1e-10)

    def test_anomalous_value_comes_with_negative_quasiprob(self):
        # search a two-level ensemble for a weak value far outside the
        # spectrum; the forward conditional quasiprobability must dip
        # below zero there
        r = np.random.default_rng(21)
        found = None
        for _ in range(200):
            rho = rand_rho(2, r)
            h = rand_herm(2, r)
            a = rand_herm(2, r)
            f = qla.haar_random_state(2, r)
            try:
                ctx = retrodict.RetrodictionContext(rho, h, 0.5, 1.0,
                                                    final_vector=f)
            except ValueError:
                continue
            wv = retrodict.weak_value(a, ctx)
            amax = np.max(np.abs(np.linalg.eigvalsh(a)))
            if abs(wv) > amax + 0.3:
                forward, _ = retrodict.conditional_quasiprobs(
                    retrodict.ObservableChain([a]), ctx)
                found = forward.values.real.min()
                break
        assert found is not None
        assert found < 0

    def test_nonnegative_quasiprobs_bound_the_weak_value(self):
        r = np.random.default_rng(9)
        checked = 0
        for _ in range(300):
            psi = qla.haar_random_state(3, r)
            rho = np.outer(psi, psi.conj())
            h = rand_herm(3, r)
            a = rand_herm(3, r)
            f = qla.haar_random_state(3, r)
            try:
                ctx = retrodict.RetrodictionContext(rho, h, 0.5, 1.0,
                                                    final_vector=f)
            except ValueError:
                continue
            forward, _ = retrodict.conditional_quasiprobs(
                retrodict.ObservableChain([a]), ctx)
            if forward.values.real.min() >= 0:
                wv = retrodict.weak_value(a, ctx)
                amax = np.max(np.abs(np.linalg.eigvalsh(a)))
                assert abs(wv) <= amax + 1e-10
                checked += 1
        assert checked >= 20


class TestGammaEvaluation:
    def test_factored_matches_direct_with_metered_memory(self):
        r = np.random.default_rng(9)
        for _ in range(12):
            d = int(r.integers(2, 9))
            k = int(r.integers(1, 5))
            chain = retrodict.ObservableChain([rand_herm(d, r) for _ in range(k)])
            ctx = rand_context(d, r)
            meter = retrodict.MemoryMeter()
            g1 = retrodict.gamma_weak_direct(chain, ctx)
            g2 = retrodict.gamma_weak_factored(chain, ctx, meter)
            assert abs(g1 - g2) < 1e-10
            assert meter.peak == 2 * k * d
            assert meter.live_complex_entries == 0

    def test_identity_chain_gives_two(self):
        ctx = rand_context(4, np.random.default_rng(2))
        chain = retrodict.ObservableChain([np.eye(4)] * 3)
        assert retrodict.gamma_weak_direct(chain, ctx) == pytest.approx(2.0)

    def test_single_observable_chain_doubles_weak_value(self):
        r = np.random.default_rng(4)
        a = rand_herm(4, r)
        ctx = rand_context(4, r)
        g = retrodict.gamma_weak_direct(retrodict.ObservableChain([a]), ctx)
        assert g == pytest.approx(2 * retrodict.weak_value(a, ctx), abs=1e-12)

    def test_projector_chain_doubles_kd_value(self):
        r = np.random.default_rng(6)
        ctx = rand_context(4, r)
        pvec = qla.haar_random_state(4, r)
        proj = np.outer(pvec, pvec.conj())
        g = retrodict.gamma_weak_factored(retrodict.ObservableChain([proj]), ctx)
        kd = np.real(ctx.f_prime.conj() @ proj @ ctx.rho_prime @ ctx.f_prime)
        assert g == pytest.approx(2 * kd / ctx.conditioning_probability, abs=1e-12)

    def test_memory_grows_linearly_while_nonzeros_grow_geometrically(self):
        # six-qubit chains of traceless single-site observables: the full
        # operator fills 2^k-style while the factored pass stays affine in k
        small_ops = [(spin.site_pauli(4, i, "x") + spin.site_pauli(4, i, "z"))
                     / np.sqrt(2) for i in range(1, 5)]
        nnzs = []
        for k in (2, 3, 4):
            gm = retrodict.gamma_matrix(retrodict.ObservableChain(small_ops[:k]))
            nnzs.append(retrodict.matrix_nonzeros(gm))
        assert nnzs == [64, 128, 256]
        nq = 6
        site_ops = [(spin.site_pauli(nq, i, "x") + spin.site_pauli(nq, i, "z"))
                    / np.sqrt(2) for i in range(1, nq + 1)]
        ctx = rand_context(64, np.random.default_rng(9))
        peaks = []
        for k in range(2, 7):
            meter = retrodict.MemoryMeter()
            retrodict.gamma_weak_factored(
                retrodict.ObservableChain(site_ops[:k]), ctx, meter)
            peaks.append(meter.peak)
        coef = np.polyfit(np.arange(2, 7), peaks, 1)
        resid = np.max(np.abs(np.polyval(coef, np.arange(2, 7)) - peaks))
        assert resid / np.mean(peaks) < 0.10


class TestConditionalQuasiprobs:
    def test_forward_and_backward_normalize(self):
        r = np.random.default_rng(9)
        chain = retrodict.ObservableChain([rand_herm(3, r) for _ in range(3)])
        ctx = rand_context(3, r)
        forward, backward = retrodict.conditional_quasiprobs(chain, ctx)
        assert abs(forward.total() - 1.0) < 1e-10
        assert abs(backward.total() - 1.0) < 1e-10
        assert forward.values.size == np.prod([len(pairs) for pairs in chain.spectra])

    def test_single_observable_reduces_to_kd_form(self):
        r = np.random.default_rng(4)
        a = rand_herm(4, r)
        ctx = rand_context(4, r)
        forward, _ = retrodict.conditional_quasiprobs(retrodict.ObservableChain([a]), ctx)
        sys = qla.eigh(a)
        for (ev,), val in forward.outcome_grid():
            i = int(np.argmin(np.abs(sys.eigenvalues - ev)))
            col = sys.eigenvectors[:, i]
            kd = (ctx.f_prime.conj() @ np.outer(col, col.conj())
                  @ ctx.rho_prime @ ctx.f_prime) / ctx.conditioning_probability
            assert abs(val - complex(kd)) < 1e-10


class TestTildeGamma:
    def test_commuting_chain_vanishes(self):
        r = np.random.default_rng(9)
        vecs = qla.eigh(rand_herm(4, r)).eigenvectors
        chain = retrodict.ObservableChain([
            vecs @ np.diag(r.normal(size=4)) @ vecs.conj().T for _ in range(3)])
        ctx = rand_context(4, r)
        assert abs(retrodict.tilde_gamma_weak(chain, ctx)) < 1e-10

    def test_pauli_pair_gives_twice_sigma_z(self):
        chain = retrodict.ObservableChain([spin.PAULI_X, spin.PAULI_Y])
        gt = retrodict.tilde_gamma_matrix(chain)
        assert np.max(np.abs(gt - 2 * spin.PAULI_Z)) < 1e-12
        ctx = rand_context(2, np.random.default_rng(9))
        tg = retrodict.tilde_gamma_weak(chain, ctx)
        assert tg == pytest.approx(2 * retrodict.weak_value(spin.PAULI_Z, ctx),
                                   abs=1e-10)
        direct = np.real(ctx.f_prime.conj() @ gt @ ctx.rho_prime
                         @ ctx.f_prime) / ctx.conditioning_probability
        assert tg == pytest.approx(float(direct), abs=1e-10)


class TestOtocRetrodiction:
    def test_commuting_time_zero_returns_outcome(self):
        w = spin.site_pauli(2, 1, "z")
        v = spin.site_pauli(2, 2, "z")
        h = np.zeros((4, 4), dtype=complex)
        rho = np.eye(4, dtype=complex) / 4
        for w3 in (1.0, -1.0):
            assert retrodict.otoc_retrodiction(rho, w, v, h, 0.0, w3) == \
                pytest.approx(w3, abs=1e-12)

    def test_bad_outcome_rejected(self):
        w = spin.site_pauli(2, 1, "z")
        v = spin.site_pauli(2, 2, "z")
        h = np.zeros((4, 4), dtype=complex)
        rho = np.eye(4, dtype=complex) / 4
        with pytest.raises(ValueError, match="not an eigenvalue"):
            retrodict.otoc_retrodiction(rho, w, v, h, 0.0, 0.2)

    def test_split_outcomes_weigh_their_own_slab(self):
        # W = diag(-1, -1, 1, 1 + 5e-10) has three outcomes under the
        # relative degeneracy rule; each w3 reads its own lab-frame slab.
        # Eigenspaces 5e-10 apart are resolved to about eps / 5e-10, and the
        # two slabs differ by 0.016
        h = spin.ising_hamiltonian(spin.SpinChainSpec(n=2, j=1.0, h=0.5, g=1.05))
        w, v, t = np.diag([-1.0, -1.0, 1.0, 1.0 + 5e-10]), spin.site_pauli(2, 2, "x"), 0.7
        rho = np.eye(4, dtype=complex) / 4
        qd = oracles.coarse_quasiprob(rho, w, v, h, t)
        w_evs = qd.axis_eigenvalues[3]
        assert len(w_evs) == 3
        for i3, w3 in enumerate(w_evs):
            slab = qd.values[..., i3].real
            want = np.einsum("i,j,k,ijk->", *qd.axis_eigenvalues[:3], slab) / slab.sum()
            got = retrodict.otoc_retrodiction(rho, w, v, h, t, float(w3))
            assert got == pytest.approx(want, abs=1e-6)

    @pytest.mark.parametrize("form", ["dense", "psi", "weights"])
    def test_every_state_form_matches_the_lab_frame(self, monkeypatch, form):
        # the energy-frame entries, on the eigensystem passed in, weigh the
        # retrodicted V W(t) V as the lab-frame four-projector trace does
        h_sys = qla.eigh(spin.ising_hamiltonian(spin.SpinChainSpec(n=3, j=1.0, h=0.5, g=1.05)))
        w, v, t = spin.site_pauli(3, 1, "z"), spin.site_pauli(3, 3, "x"), 0.9
        state = {"dense": rand_rho(8, np.random.default_rng(4)),
                 "psi": qla.haar_random_state(8, 4),
                 "weights": quasiprob.DiagonalState(
                     spin.thermal_weights(h_sys.eigenvalues, 1.0))}[form]
        qd = oracles.coarse_quasiprob(quasiprob.density_matrix(state, h_sys), w, v, h_sys, t)
        pm = np.array([-1.0, 1.0])
        monkeypatch.setattr(quasiprob, "propagator", None)     # the series never propagates
        for i3, w3 in enumerate(pm):
            slab = qd.values[..., i3].real
            want = np.einsum("i,j,k,ijk->", pm, pm, pm, slab) / slab.sum()
            got = retrodict.otoc_retrodiction(state, w, v, h_sys, t, w3)
            assert got == pytest.approx(want, abs=1e-12)

    def test_two_level_dual_paths_agree(self):
        # check the quasiprobability-weighted value against the explicit
        # projector formula and against the chain machinery run in a
        # pre-compensated context
        r = np.random.default_rng(9)
        rho = rand_rho(2, r)
        h = rand_herm(2, r)
        w, v, t = spin.PAULI_Z, spin.PAULI_X, 1.0
        hs = qla.eigh(h)
        u = hs.propagator(-1j * t)
        wt = u.conj().T @ w @ u
        wts = qla.eigh(wt)
        gam = v @ wt @ v
        for i3, w3 in enumerate(wts.eigenvalues):
            val = retrodict.otoc_retrodiction(rho, w, v, h, t, float(w3))
            fvec = wts.eigenvectors[:, i3]
            pi = np.outer(fvec, fvec.conj())
            direct = np.real(np.trace(pi @ gam @ rho)) / np.real(np.trace(pi @ rho))
            assert val == pytest.approx(float(direct), abs=1e-10)
            rho_in = hs.propagator(1j * 0.5) @ rho @ hs.propagator(-1j * 0.5)
            f_in = hs.propagator(-1j * 0.5) @ fvec
            ctx = retrodict.RetrodictionContext(rho_in, h, 0.5, 1.0,
                                                final_vector=f_in)
            g_chain = retrodict.gamma_weak_direct(
                retrodict.ObservableChain([v, wt, v]), ctx) / 2
            assert val == pytest.approx(g_chain, abs=1e-10)


class TestEstimator:
    def test_distance_vanishes_at_truth(self):
        r = np.random.default_rng(9)
        chain = retrodict.ObservableChain([rand_herm(4, r), rand_herm(4, r)])
        gm = retrodict.gamma_matrix(chain)
        rho_p = rand_rho(4, r)
        assert retrodict.weighted_trace_distance(gm, gm, rho_p) == \
            pytest.approx(0.0, abs=1e-12)

    def test_completed_square_identity(self):
        r = np.random.default_rng(9)
        chain = retrodict.ObservableChain([rand_herm(4, r), rand_herm(4, r)])
        gm = retrodict.gamma_matrix(chain)
        rho_p = rand_rho(4, r)
        fobs = rand_herm(4, r)
        est = retrodict.optimal_estimator(gm, rho_p, fobs)
        d_opt = retrodict.weighted_trace_distance(gm, est.matrix, rho_p)
        evs, projs = quasiprob._distinct_projectors(fobs)
        ps = np.array([np.real(np.trace(rho_p @ pi)) for pi in projs])
        square = np.real(np.trace(rho_p @ gm @ gm)) - np.sum(ps * est.values ** 2)
        assert d_opt == pytest.approx(float(square), abs=1e-10)

    def test_no_perturbation_improves_the_estimator(self):
        r = np.random.default_rng(9)
        chain = retrodict.ObservableChain([rand_herm(4, r), rand_herm(4, r)])
        gm = retrodict.gamma_matrix(chain)
        rho_p = rand_rho(4, r)
        fobs = rand_herm(4, r)
        est = retrodict.optimal_estimator(gm, rho_p, fobs)
        _, projs = quasiprob._distinct_projectors(fobs)
        d_opt = retrodict.weighted_trace_distance(gm, est.matrix, rho_p)
        for i in range(len(est.values)):
            for eps in (-1e-3, 1e-3):
                vals = est.values.copy()
                vals[i] += eps
                mat = sum(v * p for v, p in zip(vals, projs))
                d_pert = retrodict.weighted_trace_distance(gm, mat, rho_p)
                assert d_pert >= d_opt - 1e-12

    def test_unreached_outcomes_are_reported(self):
        gm = np.diag([1.0, -1.0]).astype(complex)
        rho_p = np.diag([1.0, 0.0]).astype(complex)
        fobs = np.diag([1.0, 2.0])
        est = retrodict.optimal_estimator(gm, rho_p, fobs)
        assert est.zero_probability_outcomes == [2.0]
        assert est.values[0] == pytest.approx(1.0)

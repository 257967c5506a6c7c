"""State decomposition over dyads of the two measurement eigenbases."""
from __future__ import annotations

import dataclasses

import numpy as np
import pytest

from otoclab import decomp, qla, quasiprob, spin

import oracles


def rand_rho(d, r):
    a = r.normal(size=(d, d)) + 1j * r.normal(size=(d, d))
    m = a @ a.conj().T
    return m / np.trace(m)


@pytest.fixture
def two_site():
    spec = spin.SpinChainSpec(n=2, j=1.0, h=0.5, g=1.05)
    h = spin.ising_hamiltonian(spec)
    w = spin.site_pauli(2, 1, "z")
    v = spin.site_pauli(2, 2, "z")
    return w, v, h


def constructed_vanishing_instance():
    """dim-4 pair with exactly one orthogonal basis-vector pair at t=0.

    The first W eigenvector is built orthogonal to the first V eigenvector
    (the computational e_0), so one dyad coefficient would need division
    by zero and must be omitted.
    """
    raw = np.array([
        [0, 1, 1, 1],
        [1, 1, 0, 0],
        [1, 0, 1, 0],
        [1, 0, 0, 1],
    ], dtype=float).T
    q, _ = np.linalg.qr(raw)
    w4 = q @ np.diag([1.0, 2.0, 3.0, 4.0]) @ q.conj().T
    v4 = np.diag([1.0, 2.0, 3.0, 4.0]).astype(complex)
    rho4 = rand_rho(4, np.random.default_rng(17))
    h4 = np.zeros((4, 4), dtype=complex)
    return rho4, w4, v4, h4


class TestAsymDecohere:
    def test_full_overlap_leaves_state_untouched(self, two_site):
        w, v, h = two_site
        rho = rand_rho(4, np.random.default_rng(9))
        rp = decomp.asym_decohere(rho, w, v, h, 1.0)
        assert np.max(np.abs(rp - rho)) == 0.0

    def test_vanishing_overlap_breaks_hermiticity_not_trace(self):
        rho, w4, v4, h4 = constructed_vanishing_instance()
        rp = decomp.asym_decohere(rho, w4, v4, h4, 0.0)
        assert abs(np.trace(rp) - 1.0) < 1e-12
        assert qla.hermiticity_defect(rp) > 1e-6
        assert qla.hermiticity_defect(rp) == pytest.approx(
            0.05774765753475648, abs=1e-12)

    def test_dimension_guard(self, monkeypatch):
        # the cap is checked before any eigendecomposition
        big = np.diag(np.arange(128, dtype=float))
        h = np.zeros((128, 128), dtype=complex)
        rho = np.eye(128, dtype=complex) / 128
        calls = []
        eigh = qla.eigh
        monkeypatch.setattr(qla, "eigh", lambda m, *a, **k: calls.append(1) or eigh(m, *a, **k))
        with pytest.raises(ValueError, match="fine-grained guard"):
            decomp.asym_decohere(rho, big, big, h, 0.0)
        assert calls == []
        # overlap_magnitudes returns a d x d array, so it takes no cap
        assert decomp.overlap_magnitudes(big, big, np.eye(128)).shape == (128, 128)


class TestCoefficients:
    def test_generic_reconstruction_is_exact(self, two_site):
        w, v, h = two_site
        rho = rand_rho(4, np.random.default_rng(9))
        fq = quasiprob.fine_quasiprob(rho, w, v, h, 1.0)
        rep = decomp.decomposition_coefficients(fq)
        assert not rep.omitted.any()
        assert rep.reconstruction_error < 1e-12
        assert abs(rep.coefficients.total() - 1.0) < 1e-12
        assert abs(np.trace(rep.rho_prime) - 1.0) < 1e-12
        assert np.max(np.abs(rep.rho_prime - rho)) == 0.0

    def test_maximally_mixed_coefficients_are_kd_products(self, two_site):
        # at rho = 1/d each dyad weight is <w,l|U|v,n> conj(...) / d
        w, v, h = two_site
        rho = np.eye(4, dtype=complex) / 4
        fq = quasiprob.fine_quasiprob(rho, w, v, h, 1.0)
        rep = decomp.decomposition_coefficients(fq)
        u, wc, vc = fq.meta["u"], fq.meta["w_cols"], fq.meta["v_cols"]
        ov = wc.conj().T @ u @ vc
        v_evs, w_evs = fq.axis_eigenvalues[2], fq.axis_eigenvalues[3]
        v_lab, w_lab = fq.axis_labels[2], fq.axis_labels[3]
        for n in range(4):
            for l in range(4):
                key = ((float(v_evs[n]), int(v_lab[n])),
                       (float(w_evs[l]), int(w_lab[l])))
                kd = ov[l, n] * np.conj(ov[l, n]) / 4
                assert abs(rep.coefficients.entry(*key) - kd) < 1e-12

    def test_constructed_instance_reports_omission(self):
        rho, w4, v4, h4 = constructed_vanishing_instance()
        fq = quasiprob.fine_quasiprob(rho, w4, v4, h4, 0.0)
        rep = decomp.decomposition_coefficients(fq)
        assert np.count_nonzero(rep.omitted) == 1
        assert rep.reconstruction_error < 1e-8
        rp = decomp.asym_decohere(rho, w4, v4, h4, 0.0)
        assert np.max(np.abs(rep.rho_prime - rp)) < 1e-12
        assert abs(rep.coefficients.total() - np.trace(rp)) < 1e-12

    def test_requires_fine_grain(self, two_site):
        w, v, h = two_site
        rho = np.eye(4, dtype=complex) / 4
        coarse = oracles.coarse_quasiprob(rho, w, v, h, 1.0)
        with pytest.raises(ValueError, match="fine-grained"):
            decomp.decomposition_coefficients(coarse)

    def test_requires_basis_metadata(self, two_site):
        w, v, h = two_site
        rho = np.eye(4, dtype=complex) / 4
        fq = quasiprob.fine_quasiprob(rho, w, v, h, 1.0)
        stripped = dataclasses.replace(fq, meta={})
        with pytest.raises(ValueError, match="metadata"):
            decomp.decomposition_coefficients(stripped)


class TestOverlapStatistics:
    def test_commuting_bases_at_time_zero(self, two_site):
        w, v, h = two_site
        st = decomp.mub_overlap_statistics(w, v, h, [0.0, 1.0, 3.0])
        m0 = st.magnitudes[0]
        assert np.sum(np.abs(m0 - 1.0) < 1e-12) == 4
        assert np.sum(m0 < 1e-12) == 12
        assert st.vanishing_counts[0] == 12
        assert st.mub_value == pytest.approx(0.5)
        assert st.mean.shape == (3,)
        assert np.all(st.minimum[1:] >= 0)

    def test_diagonalizes_each_operator_once(self, two_site, monkeypatch):
        # W, V and a raw-matrix H take one eigh each; a passed eigensystem none
        w, v, h = two_site
        calls = []
        eigh = qla.eigh
        monkeypatch.setattr(qla, "eigh", lambda m, *a, **k: calls.append(1) or eigh(m, *a, **k))
        raw = decomp.mub_overlap_statistics(w, v, h, [0.0, 1.0, 2.0])
        assert len(calls) == 3
        calls.clear()
        given = decomp.mub_overlap_statistics(w, v, eigh(h), [0.0, 1.0, 2.0])
        assert len(calls) == 2
        assert np.array_equal(raw.magnitudes, given.magnitudes)

    def test_histogram_counts_every_pair(self, two_site):
        w, v, h = two_site
        st = decomp.mub_overlap_statistics(w, v, h, [0.0, 2.0])
        counts, edges = st.histogram(1, bins=10)
        assert counts.sum() == 16
        assert edges[0] == 0.0 and edges[-1] == 1.0

    def test_haar_overlap_magnitudes_average_to_unbiased_value(self):
        # column normalization makes the mean of |overlap|^2 exactly 1/d
        d = 16
        u = oracles.haar_unitary(d, np.random.default_rng(9))
        mags = decomp.overlap_magnitudes(np.diag(np.arange(d, dtype=float)),
                                         np.diag(np.arange(d, dtype=float)),
                                         u)
        assert mags.shape == (d, d)
        assert np.mean(mags ** 2) == pytest.approx(1.0 / d, abs=1e-12)

"""Independent routes to the coarse quasiprobability, checked against each other.

The entries A~(v1, w2, v2, w3) are reachable five ways: coarse-graining
the fine-grained tensor, the explicit four-projector trace, the
eight-correlator expansion, the energy-frame series, and exact inversion
of the three-weak measurement records. Each serves as the others' oracle.
"""
from __future__ import annotations

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from otoclab import qla, quasiprob, spin, weakmeas

TOL = 1e-10


@st.composite
def instances(draw):
    n = draw(st.sampled_from([2, 3]))
    site = st.integers(min_value=1, max_value=n)
    axis = st.sampled_from(["x", "y", "z"])
    w = spin.site_pauli(n, draw(site), draw(axis))
    v = spin.site_pauli(n, draw(site), draw(axis))
    spec = spin.SpinChainSpec(
        n=n,
        j=draw(st.floats(min_value=0.5, max_value=1.5)),
        h=draw(st.floats(min_value=0.0, max_value=1.0)),
        g=draw(st.floats(min_value=0.5, max_value=1.5)),
    )
    rng = np.random.default_rng(draw(st.integers(min_value=0, max_value=2**32 - 1)))
    a = rng.normal(size=(2**n, 2**n)) + 1j * rng.normal(size=(2**n, 2**n))
    rho = a @ a.conj().T
    rho /= np.trace(rho).real
    t = draw(st.floats(min_value=0.0, max_value=5.0))
    return rho, w, v, spin.ising_hamiltonian(spec), t


def max_dev(a, b) -> float:
    return float(np.max(np.abs(np.asarray(a) - np.asarray(b))))


@settings(max_examples=50, deadline=None)
@given(instances())
def test_independent_routes_agree(instance):
    rho, w, v, h, t = instance
    direct = quasiprob.coarse_quasiprob(rho, w, v, h, t).values
    fine = quasiprob.coarse_grain(quasiprob.fine_quasiprob(rho, w, v, h, t))
    assert max_dev(fine.values, direct) < TOL
    expanded = quasiprob.coarse_quasiprob_via_correlators(rho, w, v, h, t)
    assert max_dev(expanded.values, direct) < TOL
    series = quasiprob.coarse_quasiprob_series(rho, w, v, h, [t])
    assert max_dev(series.at(0).values, direct) < TOL

    # exact three-weak inversion identifies states diagonal in the V basis
    v_plus = spin.eigenprojector(v, 1.0)
    v_minus = spin.eigenprojector(v, -1.0)
    rho_v = v_plus @ rho @ v_plus + v_minus @ rho @ v_minus
    records = weakmeas.standard_protocol_records(rho_v, w, v, h, t)
    inferred, _ = weakmeas.infer_coarse_quasiprob(records)
    assert max_dev(inferred.values, quasiprob.coarse_quasiprob(rho_v, w, v, h, t).values) < TOL

    # time-ordered distribution against an explicit three-projector trace
    u = qla.eigh(h).propagator(-1j * t)
    wt = u.conj().T @ w @ u
    _, toc_dist, _ = quasiprob.toc_and_toc_quasiprob(rho, w, v, h, t)
    for i1, v1 in enumerate((-1.0, 1.0)):
        for i2, w1 in enumerate((-1.0, 1.0)):
            for i3, v2 in enumerate((-1.0, 1.0)):
                want = np.trace(spin.eigenprojector(v, v2) @ spin.eigenprojector(wt, w1)
                                @ spin.eigenprojector(v, v1) @ rho)
                assert abs(toc_dist.values[i1, i2, i3] - want) < TOL


def test_involution_projectors_skip_eigendecomposition(small_chain, monkeypatch):
    rho, w, v, h = small_chain
    h_sys = qla.eigh(h)
    calls = []
    real_eigh = qla.eigh
    monkeypatch.setattr(qla, "eigh", lambda m, *a, **k: calls.append(m) or real_eigh(m, *a, **k))
    quasiprob.coarse_quasiprob(rho, w, v, h_sys, 0.7)
    quasiprob.toc_and_toc_quasiprob(rho, w, v, h_sys, 0.7)
    weakmeas.simulate_protocol(rho, w, v, h_sys, 0.7, weakmeas.CouplingConfig(0.1))
    assert calls == []
    # a non-involutory observable still goes through the eigendecomposition
    quasiprob.coarse_quasiprob(rho, w + 2.0 * np.eye(8), v, h_sys, 0.7)
    assert len(calls) == 1


def test_involution_projectors_are_half_one_plus_minus_o():
    w = spin.site_pauli(3, 2, "y")
    evs, projs = quasiprob._distinct_projectors(w)
    assert np.array_equal(evs, [-1.0, 1.0])
    assert np.array_equal(projs[0], (np.eye(8) - w) / 2)
    assert np.array_equal(projs[1], (np.eye(8) + w) / 2)
    # +-1 has a single eigenvalue and keeps the general route
    evs, projs = quasiprob._distinct_projectors(-np.eye(4))
    assert np.array_equal(evs, [-1.0])
    assert max_dev(projs[0], np.eye(4)) == 0.0

"""Release gate: fifteen end-to-end checks, one test per criterion.

Each test renders as a single pass/fail line under ``pytest -v``. The
expensive computations (the ten-site series, the Brownian ensemble, the
weak-measurement protocols) live in module-scoped fixtures so every
criterion that shares a run reuses it instead of recomputing.
"""
from __future__ import annotations

import time

import numpy as np
import pytest

from otoclab import (
    brownian,
    cli,
    decomp,
    qla,
    quasiprob,
    retrodict,
    spin,
    weakmeas,
)

import oracles

PM = np.array([-1.0, 1.0])
SIGN_TUPLES = [
    (v1, w2, v2, w3)
    for v1 in (1, -1)
    for w2 in (1, -1)
    for v2 in (1, -1)
    for w3 in (1, -1)
]


def nonintegrable_chain(n):
    spec = spin.SpinChainSpec(n=n, j=1.0, h=0.5, g=1.05)
    ham = spin.ising_hamiltonian(spec)
    w = spin.site_pauli(n, 1, "z")
    v = spin.site_pauli(n, n, "z")
    rho = np.eye(2**n, dtype=complex) / 2**n
    return rho, w, v, ham


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


@pytest.fixture(scope="module")
def chain10():
    """Ten-site run shared by the reality, onset, and symmetry checks.

    The series call diagonalizes the Hamiltonian once and sweeps the
    whole grid on that eigensystem; the wall-clock time of the sweep is
    part of what the criteria bound.
    """
    rho, w, v, ham = nonintegrable_chain(10)
    h_sys = qla.eigh(ham)
    times = np.arange(201) * 0.1
    start = time.monotonic()
    series = quasiprob.coarse_quasiprob_series(rho, w, v, h_sys, times)
    elapsed = time.monotonic() - start
    f = np.einsum("tijkl,i,j,k,l->t", series.values, PM, PM, PM, PM)
    return {
        "times": times,
        "values": series.values,
        "f": f,
        "elapsed": elapsed,
        "h_sys": h_sys,
        "w": w,
        "v": v,
    }


@pytest.fixture(scope="module")
def brownian_run():
    cfg = brownian.BrownianConfig(n=5, dt=0.005, steps=800, trajectories=200,
                                  seed=1, stride=20)
    start = time.monotonic()
    res = brownian.ensemble_averages(cfg)
    elapsed = time.monotonic() - start
    return res, elapsed


@pytest.fixture(scope="module")
def weakmeas_runs():
    rho, w, v, ham = nonintegrable_chain(2)
    phis = (0.05, 0.1, 0.15, 0.2)
    start = time.monotonic()
    exact_records = weakmeas.standard_protocol_records(rho, w, v, ham, 1.0,
                                                       phis=phis)
    inferred_exact, _ = weakmeas.infer_coarse_quasiprob(exact_records)
    sampled_records = weakmeas.standard_protocol_records(
        rho, w, v, ham, 1.0, phis=phis, shots=1_000_000, seed=42)
    inferred_sampled, report_sampled = weakmeas.infer_coarse_quasiprob(
        sampled_records)
    elapsed = time.monotonic() - start
    direct = oracles.coarse_quasiprob(rho, w, v, ham, 1.0)
    return {
        "exact_records": exact_records,
        "inferred_exact": inferred_exact,
        "inferred_sampled": inferred_sampled,
        "report_sampled": report_sampled,
        "direct": direct,
        "elapsed": elapsed,
    }


def test_criterion_01_moment_identities_on_random_instances():
    r = np.random.default_rng(2026)
    start = time.monotonic()
    for _ in range(25):
        n = int(r.integers(2, 5))
        _, w, v, ham = nonintegrable_chain(n)
        rho = rand_rho(2**n, r)
        t = float(r.uniform(0.0, 5.0))
        qd = oracles.coarse_quasiprob(rho, w, v, ham, t)
        f = quasiprob.otoc(rho, w, v, ham, t)
        assert abs(quasiprob.otoc_moment(qd) - f) <= 1e-10
        wd = quasiprob.work_distribution(qd)
        assert abs(quasiprob.kfold_moment(wd) - f) <= 1e-10
    assert time.monotonic() - start < 30.0


def test_criterion_02_infinite_temperature_reality(chain10):
    assert np.max(np.abs(chain10["values"].imag)) <= 1e-12
    assert chain10["elapsed"] < 600.0


def test_criterion_03_scrambling_onset_window(chain10):
    below = np.nonzero(chain10["f"].real < 0.9)[0]
    assert below.size > 0
    onset = chain10["times"][below[0]]
    assert 3.0 <= onset <= 7.0


def test_criterion_04_time_zero_exact_values(chain10):
    v0 = chain10["values"][0]
    # axes are (v1, w2, v2, w3) with eigenvalues ascending, so index 1 is +1
    assert abs(v0[1, 1, 1, 1] - 0.25) <= 1e-12
    mismatched = [
        v0[i1, i2, i3, i4]
        for i1 in range(2)
        for i2 in range(2)
        for i3 in range(2)
        for i4 in range(2)
        if i2 != i4 or i1 != i3
    ]
    assert np.max(np.abs(mismatched)) <= 1e-12


def test_criterion_05_pitchfork_symmetry_holds_then_breaks(chain10):
    v0 = chain10["values"][0]
    assert np.max(np.abs(v0 - v0.transpose(0, 3, 2, 1))) <= 1e-12
    assert np.max(np.abs(v0 - v0.transpose(2, 1, 0, 3))) <= 1e-12
    # the maximally mixed state keeps both swaps exact at every t, so the
    # post-onset breaking is shown on a product state instead
    rho_x = quasiprob.density_matrix(spin.product_plus_x_vector(10))
    qd = oracles.coarse_quasiprob(rho_x, chain10["w"], chain10["v"],
                                  chain10["h_sys"], 10.0)
    broken = max(
        np.max(np.abs(qd.values - qd.values.transpose(0, 3, 2, 1))),
        np.max(np.abs(qd.values - qd.values.transpose(2, 1, 0, 3))),
    )
    assert broken > 1e-3


def test_criterion_06_brownian_late_time_clustering(brownian_run):
    res, elapsed = brownian_run
    assert res.times[-1] == pytest.approx(4.0)
    for v1, w2, v2, w3 in SIGN_TUPLES:
        idx = tuple(int(x > 0) for x in (v1, w2, v2, w3))
        target = brownian.analytic_avg_quasiprob(w2, w3, v1, v2, 0.0)
        mean = res.quasi_mean[(-1,) + idx]
        se_re = res.quasi_se[(-1,) + idx + (0,)]
        se_im = res.quasi_se[(-1,) + idx + (1,)]
        assert abs(mean.real - target) <= 3.0 * se_re
        assert abs(mean.imag) <= 3.0 * se_im + 1e-12
    g = res.correlators["G"]
    assert abs(g.mean[0]) < 1e-12
    assert np.all(np.abs(g.mean[1:]) <= 3.0 * g.standard_error[1:])
    assert elapsed < 300.0


def test_criterion_07_brownian_decay_rate(brownian_run):
    res, _ = brownian_run
    slope, r2 = brownian.decay_rate_fit(res.correlators["q_11"])
    assert slope == pytest.approx(-2.0, abs=0.4)
    assert r2 >= 0.99


def test_criterion_08_weak_measurement_inference(weakmeas_runs):
    d = weakmeas_runs
    modes = {rec.coupling.phase_mode for rec in d["exact_records"]}
    assert modes == set(weakmeas.PHASE_MODES)
    exact_dev = np.max(np.abs(d["inferred_exact"].values - d["direct"].values))
    assert exact_dev <= 1e-4
    se = d["report_sampled"].std_errors
    z_re = np.abs(d["inferred_sampled"].values.real
                  - d["direct"].values.real) / se[..., 0]
    z_im = np.abs(d["inferred_sampled"].values.imag
                  - d["direct"].values.imag) / se[..., 1]
    assert float(max(z_re.max(), z_im.max())) <= 4.0
    assert d["elapsed"] < 120.0


def test_criterion_09_factored_evaluation_equivalence_and_scaling():
    r = np.random.default_rng(99)
    for _ in range(20):
        d = int(r.integers(2, 9))
        k = int(r.integers(1, 5))
        chain_ops = retrodict.ObservableChain(
            [rand_herm(d, r) for _ in range(k)])
        ctx = rand_context(d, r)
        g1 = retrodict.gamma_weak_direct(chain_ops, ctx)
        g2 = retrodict.gamma_weak_factored(chain_ops, ctx)
        assert abs(g1 - g2) <= 1e-10
    nq = 6
    site_ops = [
        (spin.site_pauli(nq, i, "x") + spin.site_pauli(nq, i, "z"))
        / np.sqrt(2)
        for i in range(1, nq + 1)
    ]
    ctx = rand_context(2**nq, np.random.default_rng(7))
    ks = np.arange(2, 7)
    peaks = []
    for k in ks:
        meter = retrodict.MemoryMeter()
        retrodict.gamma_weak_factored(
            retrodict.ObservableChain(site_ops[:k]), ctx, meter)
        peaks.append(meter.peak)
        gm = retrodict.gamma_matrix(retrodict.ObservableChain(site_ops[:k]))
        assert retrodict.matrix_nonzeros(gm) >= 2**k
    coef = np.polyfit(ks, peaks, 1)
    resid = np.max(np.abs(np.polyval(coef, ks) - peaks))
    assert resid / np.mean(peaks) < 0.10


def test_criterion_10_work_distribution_degeneracy_and_marginal():
    rho, w, v, ham = nonintegrable_chain(3)
    r = np.random.default_rng(5)
    for _ in range(10):
        t = float(r.uniform(0.0, 10.0))
        wd = quasiprob.work_distribution(
            oracles.coarse_quasiprob(rho, w, v, ham, t))
        assert abs(wd.entry(1.0, -1.0) - wd.entry(-1.0, 1.0)) <= 1e-12
    rho_v = ((np.eye(8) + 0.3 * v) / 8).astype(complex)
    wd = quasiprob.work_distribution(
        oracles.coarse_quasiprob(rho_v, w, v, ham, 1.0))
    marg = wd.values.sum(axis=1)
    assert np.max(np.abs(marg.imag)) <= 1e-10
    assert marg.real.min() >= -1e-10
    assert abs(marg.sum() - 1.0) <= 1e-10


def test_criterion_11_time_ordered_correlator_suite():
    rho, w, v, ham = nonintegrable_chain(3)
    for t in (0.0, 0.7, 2.3):
        series = quasiprob.toc_series(rho, w, v, ham, [t])
        toc, pw = series.correlator[0], quasiprob.work_distribution(series.at(0))
        assert abs(toc - 1.0) <= 1e-12
        assert abs(quasiprob.kfold_moment(pw) - toc) <= 1e-10
    rho_v = ((np.eye(8) + 0.3 * v) / 8).astype(complex)
    series = quasiprob.toc_series(rho_v, w, v, ham, [1.3])
    toc, dist = series.correlator[0], series.at(0)
    pw = quasiprob.work_distribution(dist)
    assert np.max(np.abs(dist.values.imag)) <= 1e-12
    assert dist.values.real.min() >= -1e-12
    assert abs(quasiprob.kfold_moment(pw) - toc) <= 1e-10


def test_criterion_12_kfold_extension():
    rho, w, v, ham = nonintegrable_chain(3)
    for t in (0.4, 1.1):
        f2 = quasiprob.kfold_series(rho, w, v, ham, [t], 2).correlator[0]
        assert abs(f2 - quasiprob.otoc(rho, w, v, ham, t)) <= 1e-12
        three = quasiprob.kfold_series(rho, w, v, ham, [t], 3)
        f3, dist3 = three.correlator[0], three.at(0)
        assert abs(quasiprob.kfold_moment(dist3) - f3) <= 1e-10


def test_criterion_13_regulated_suite():
    rho, w, v, ham = nonintegrable_chain(3)
    reg = quasiprob.regulated_series(ham, 1.0, w, v, [1.0])
    qreg, freg = reg.at(0), reg.correlator[0]
    assert np.max(np.abs(qreg.values
                         - qreg.values.transpose(2, 3, 0, 1))) <= 1e-10
    assert abs(quasiprob.otoc_moment(qreg) - freg) <= 1e-10
    qhot = quasiprob.regulated_series(ham, 1e6, w, v, [1.0]).at(0)
    plain = oracles.coarse_quasiprob(rho, w, v, ham, 1.0)
    assert np.max(np.abs(qhot.values - plain.values)) <= 1e-6


def test_criterion_14_decomposition_reconstruction():
    _, w, v, ham = nonintegrable_chain(2)
    r = np.random.default_rng(23)
    for _ in range(5):
        rho = rand_rho(4, r)
        t = float(r.uniform(0.0, 3.0))
        fq = quasiprob.fine_quasiprob(rho, w, v, ham, t)
        rep = decomp.decomposition_coefficients(fq)
        assert rep.reconstruction_error <= 1e-8
        assert abs(np.trace(rep.rho_prime) - 1.0) <= 1e-12
    # a W basis built orthogonal to one V basis vector forces an omitted
    # dyad, and the decohered state picks up a non-Hermitian part
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
    rp = decomp.asym_decohere(rho4, w4, v4, h4, 0.0)
    assert qla.hermiticity_defect(rp) > 1e-6


def test_criterion_15_figure_series_regeneration(tmp_path):
    out = tmp_path / "series.csv"
    rc = cli.main(["quasiprob-series", "--t-step", "0.2", "--out", str(out)])
    assert rc == 0
    lines = out.read_text().splitlines()
    assert lines[0].startswith("# config=")
    header = lines[1].split(",")
    rows = [dict(zip(header, line.split(","))) for line in lines[2:]]
    times = np.array([float(row["t"]) for row in rows])
    labels = [f"{a}{b}{c}{d}"
              for a in (0, 1) for b in (0, 1) for c in (0, 1) for d in (0, 1)]
    curves = {lab: np.array([float(row[f"re_{lab}"]) for row in rows])
              for lab in labels}
    # the 0000 and 1010 curves ride on top of each other for the whole run
    assert np.max(np.abs(curves["0000"] - curves["1010"])) <= 0.02
    # late times settle into the sign-class plateaus
    late = times >= 15.0
    assert np.count_nonzero(late) > 10
    plateau = {(1, 1): 3 / 16, (1, -1): 1 / 16, (-1, 1): 1 / 16,
               (-1, -1): -1 / 16}
    for lab in labels:
        a, b, c, d = (int(ch) for ch in lab)
        cls = ((-1) ** (a + c), (-1) ** (b + d))
        dev = abs(np.mean(curves[lab][late]) - plateau[cls])
        assert dev <= 0.05

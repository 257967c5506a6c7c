"""Independent routes to the coarse quasiprobability, checked against each other.

The entries A~(v1, w2, v2, w3) are reachable five ways: coarse-graining
the fine-grained tensor, the explicit four-projector trace and the word
expansion in the lab frame (coarse_quasiprob and
coarse_quasiprob_via_correlators of tests/oracles.py), the energy-frame
series, and exact inversion of the three-weak measurement records. Each
serves as the others' oracle. The word expansion, one signed table
applied to the traces Tr(word rho) of alternating words in W(t) and V,
also gives the coarse series, the k-fold series and the Brownian
entries, so the k-fold series is checked against explicit lab-frame
products of 2k projectors recovered by eigendecomposition, as are the
time-ordered and regulated series. The series contract a state by its form
(energy-frame weights, a vector psi, or a density matrix), and each form is
checked against the lab-frame routes on its dense rho. W and V enter the
series as spin.PauliString tables or as matrices, and the entries read a
matrix that is exactly a string as its table: the tables are checked
against the product route of their matrices, taken below the entries,
and against the same lab-frame routes. The
Brownian Monte-Carlo ensemble is checked at t > 0 against the exact noise
average, the Markov chain its increments drive on the squared Pauli
coefficients of W(t). The retrodiction walk over eigenvalue tuples is
checked against projector chains rebuilt from scratch for every tuple.
"""
from __future__ import annotations

import ast
import functools
import itertools
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from otoclab import brownian, cli, qla, quasiprob, retrodict, spin, weakmeas

import oracles

TOL = 1e-10


@st.composite
def chains(draw):
    """W and V as single-site spin.PauliString tables on random sites and
    axes of a random chain of two or three sites, and its H."""
    n = draw(st.sampled_from([2, 3]))
    site = st.integers(min_value=1, max_value=n)
    axis = st.sampled_from(["x", "y", "z"])
    w = spin.pauli_string(n, [(draw(site), draw(axis))])
    v = spin.pauli_string(n, [(draw(site), draw(axis))])
    spec = spin.SpinChainSpec(
        n=n,
        j=draw(st.floats(min_value=0.5, max_value=1.5)),
        h=draw(st.floats(min_value=0.0, max_value=1.0)),
        g=draw(st.floats(min_value=0.5, max_value=1.5)),
    )
    return w, v, spin.ising_hamiltonian(spec)


@st.composite
def instances(draw):
    w, v, h = draw(chains())
    rng = np.random.default_rng(draw(st.integers(min_value=0, max_value=2**32 - 1)))
    d = h.shape[0]
    a = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    rho = a @ a.conj().T
    rho /= np.trace(rho).real
    t = draw(st.floats(min_value=0.0, max_value=5.0))
    return rho, w.matrix(), v.matrix(), h, t


def time_grids():
    return st.lists(st.floats(min_value=0.0, max_value=5.0), min_size=2, max_size=4)


@st.composite
def series_instances(draw):
    """An instance with a grid of two to four times."""
    rho, w, v, h, t = draw(instances())
    more = draw(st.lists(st.floats(min_value=0.0, max_value=5.0), min_size=1, max_size=3))
    return rho, w, v, h, [t, *more]


def max_dev(a, b) -> float:
    return float(np.max(np.abs(np.asarray(a) - np.asarray(b))))


def lab_exp(h, z):
    """exp(z H) from numpy's own eigendecomposition."""
    evals, vecs = np.linalg.eigh(h)
    return (vecs * np.exp(z * evals)) @ vecs.conj().T


def pm_projectors(o):
    """Projectors onto the -1 and +1 eigenspaces, by eigendecomposition."""
    return [oracles.eigenprojector(o, s) for s in (-1.0, 1.0)]


@settings(max_examples=50, deadline=None)
@given(instances())
def test_independent_routes_agree(instance):
    rho, w, v, h, t = instance
    direct = oracles.coarse_quasiprob(rho, w, v, h, t).values
    fine = quasiprob.coarse_grain(quasiprob.fine_quasiprob(rho, w, v, h, t))
    assert max_dev(fine.values, direct) < TOL
    expanded = oracles.coarse_quasiprob_via_correlators(rho, w, v, h, t)
    assert max_dev(expanded.values, direct) < TOL
    series = quasiprob.coarse_quasiprob_series(rho, w, v, h, [t])
    assert max_dev(series.at(0).values, direct) < TOL

    # exact three-weak inversion identifies states diagonal in the V basis
    v_plus = oracles.eigenprojector(v, 1.0)
    v_minus = oracles.eigenprojector(v, -1.0)
    rho_v = v_plus @ rho @ v_plus + v_minus @ rho @ v_minus
    records = weakmeas.standard_protocol_records(rho_v, w, v, h, t)
    inferred, _ = weakmeas.infer_coarse_quasiprob(records)
    assert max_dev(inferred.values, oracles.coarse_quasiprob(rho_v, w, v, h, t).values) < TOL

    # time-ordered distribution against an explicit three-projector trace
    u = qla.eigh(h).propagator(-1j * t)
    wt = u.conj().T @ w @ u
    toc_dist = quasiprob.toc_series(rho, w, v, h, [t]).at(0)
    for i1, v1 in enumerate((-1.0, 1.0)):
        for i2, w1 in enumerate((-1.0, 1.0)):
            for i3, v2 in enumerate((-1.0, 1.0)):
                want = np.trace(oracles.eigenprojector(v, v2) @ oracles.eigenprojector(wt, w1)
                                @ oracles.eigenprojector(v, v1) @ rho)
                assert abs(toc_dist.values[i1, i2, i3] - want) < TOL


@settings(max_examples=15, deadline=None)
@given(series_instances(), st.sampled_from([2, 3, 4]))
def test_kfold_series_matches_lab_frame_products(instance, khat):
    rho, w, v, h, times = instance
    dist = quasiprob.kfold_series(rho, w, v, h, times, khat)
    pv = pm_projectors(v)
    for i, t in enumerate(times):
        u = lab_exp(h, -1j * t)
        wt = u.conj().T @ w @ u
        assert abs(dist.correlator[i] - np.trace(rho @ np.linalg.matrix_power(wt @ v, khat))) < TOL
        pw = pm_projectors(wt)
        for idx in np.ndindex(dist.values.shape[1:]):
            # slots (v1, w2, v2, w3, ...) act on rho in chronological order
            acc = rho
            for slot, k in enumerate(idx):
                acc = (pw if slot % 2 else pv)[k] @ acc
            assert abs(dist.values[(i,) + idx] - np.trace(acc)) < TOL


def assert_regulated_matches_explicit_u_reg(h, temperature, w, v, times):
    dist = quasiprob.regulated_series(h, temperature, w, v, times)
    z = float(np.sum(np.exp(-np.linalg.eigvalsh(h) / temperature)))
    rho_quarter = lab_exp(h, -1.0 / (4.0 * temperature)) / z**0.25
    pv = pm_projectors(v)
    for i, t in enumerate(times):
        u_reg = lab_exp(h, -1j * (t - 1j / (4.0 * temperature))) / z**0.25
        pw = [u_reg.conj().T @ p @ u_reg for p in pm_projectors(w)]
        for i1, i2, i3, i4 in np.ndindex(2, 2, 2, 2):
            want = np.trace(pw[i4] @ pv[i3] @ pw[i2] @ pv[i1])
            assert abs(dist.values[i, i1, i2, i3, i4] - want) < TOL
        u = lab_exp(h, -1j * t)
        wt = u.conj().T @ w @ u
        want = np.trace(rho_quarter @ wt @ rho_quarter @ v @ rho_quarter @ wt @ rho_quarter @ v)
        assert abs(dist.correlator[i] - want) < TOL


@settings(max_examples=15, deadline=None)
@given(series_instances(), st.floats(min_value=0.3, max_value=5.0))
def test_regulated_series_matches_explicit_u_reg(instance, temperature):
    _, w, v, h, times = instance
    assert_regulated_matches_explicit_u_reg(h, temperature, w, v, times)


def test_regulated_series_takes_a_complex_involution_that_is_no_pauli_string():
    """W = U Z_1 Udag for a Haar U is a Hermitian involution with complex
    entries in every frame, unlike the Pauli matrices of the draws above."""
    h = spin.ising_hamiltonian(spin.SpinChainSpec(n=3, j=1.0, h=0.5, g=1.05))
    u = oracles.haar_unitary(8, 5)
    w = u @ spin.site_pauli(3, 1, "z") @ u.conj().T
    assert_regulated_matches_explicit_u_reg(h, 0.7, w, spin.site_pauli(3, 3, "z"),
                                            [0.0, 0.6, 2.5])


def test_regulated_series_at_low_temperature_on_the_cli_chain():
    """At T = 0.01 on the n = 6 chain of regulated-series, e^{-E/T} leaves
    the floating range unless E is counted from its minimum; the entries
    must still sum to 1, carry F_reg as moment and match a lab-frame
    rho^{1/4} built from shifted energies."""
    cfg = cli.DEFAULTS["regulated-series"]
    n, temperature, times = cfg["n"], 0.01, [0.0, 0.7, 3.0]
    h = spin.ising_hamiltonian(spin.SpinChainSpec(n=n, j=cfg["j"], h=cfg["h_field"],
                                                  g=cfg["g_field"]))
    w, v = spin.site_pauli(n, 1, "z"), spin.site_pauli(n, n, "z")
    dist = quasiprob.regulated_series(h, temperature, w, v, times)
    assert max_dev(dist.values.sum(axis=(1, 2, 3, 4)), 1.0) < 1e-9
    assert max_dev(quasiprob.otoc_moment(dist), dist.correlator) < 1e-10
    evals, vecs = np.linalg.eigh(h)
    boltzmann = np.exp(-(evals - evals.min()) / temperature)
    rho_quarter = (vecs * (boltzmann / boltzmann.sum()) ** 0.25) @ vecs.conj().T
    pv = pm_projectors(v)
    for i, t in enumerate(times):
        u = lab_exp(h, -1j * t)
        wt = u.conj().T @ w @ u
        pw = [rho_quarter @ p @ rho_quarter for p in pm_projectors(wt)]
        for i1, i2, i3, i4 in np.ndindex(2, 2, 2, 2):
            want = np.trace(pw[i4] @ pv[i3] @ pw[i2] @ pv[i1])
            assert abs(dist.values[i, i1, i2, i3, i4] - want) < TOL
        want = np.trace(rho_quarter @ wt @ rho_quarter @ v @ rho_quarter @ wt @ rho_quarter @ v)
        assert abs(dist.correlator[i] - want) < TOL


def test_brownian_closed_forms_match_projector_traces_at_time_zero():
    """At t = 0 the ensemble is the identity, so each closed form must be
    the four-projector trace Tr(P_w3 P_v2 P_w2 P_v1 rho) of its state, for
    W = sigma^z on site 1 and V = sigma^z on site 2 of three sites."""
    cfg = brownian.BrownianConfig(n=3)
    w, v = spin.site_pauli(3, 1, "z"), spin.site_pauli(3, 2, "z")
    rng = np.random.default_rng(12)
    a = rng.normal(size=(8, 8)) + 1j * rng.normal(size=(8, 8))
    rho = a @ a.conj().T
    rho /= np.trace(rho).real
    psi = (np.eye(8) + v) @ (rng.normal(size=8) + 1j * rng.normal(size=8))
    v_plus = np.outer(psi, psi.conj()) / np.vdot(psi, psi).real
    mixed = np.eye(8, dtype=complex) / 8

    def trace(state, outcome):
        v1, w2, v2, w3 = outcome
        return np.trace(oracles.eigenprojector(w, w3) @ oracles.eigenprojector(v, v2)
                        @ oracles.eigenprojector(w, w2) @ oracles.eigenprojector(v, v1) @ state)

    def expect(op, state):
        return np.trace(op @ state)

    for outcome in itertools.product((-1, 1), repeat=4):
        v1, w2, v2, w3 = outcome
        got = brownian.general_state_avg(cfg, rho, outcome, 0.0, expect(w @ v @ w, rho),
                                         expect(w @ v @ w @ v, rho))
        assert abs(got - trace(rho, outcome)) < TOL
        got = brownian.sigma2z_eigenstate_avg(outcome, expect(w, v_plus),
                                              expect(w @ v @ w @ v, v_plus))
        assert abs(got - trace(v_plus, outcome)) < TOL
        got = brownian.analytic_avg_quasiprob(w2, w3, v1, v2, 1.0)
        assert abs(got - trace(mixed, outcome)) < TOL


def _xz(string):
    """(x, z) bit masks of a spin.PauliString: it flips the x bits, and its
    phase changes sign with each z bit."""
    bits = len(string.phase).bit_length() - 1
    z = sum(1 << q for q in range(bits) if (string.phase[1 << q] / string.phase[0]).real < 0)
    return string.mask, z


def _anticommute(a, b) -> bool:
    return bin(a[0] & b[1] ^ a[1] & b[0]).count("1") % 2 == 1


def brownian_markov_generator(n):
    """The 4^n Pauli strings, as spin.PauliString tables, and the generator G of
    h_P = E[c_P^2], the averaged squared coefficients of W(t) = sum_P c_P P
    under the Brownian noise: each increment string K of
    spin.pair_pauli_strings that anticommutes with P moves weight from P to
    K P at rate 4 s^2, s = brownian.increment_scale(n). G is symmetric."""
    strings = [spin.pauli_string(n, [(site, a) for site, a in enumerate(axes, 1) if a != "1"])
               for axes in itertools.product("1xyz", repeat=n)]
    keys = [_xz(p) for p in strings]
    index = {xz: i for i, xz in enumerate(keys)}
    rate = 4.0 * brownian.increment_scale(n) ** 2
    gen = np.zeros((4**n, 4**n))
    for mask, phase in zip(*spin.pair_pauli_strings(n)):
        k = _xz(spin.PauliString(mask, phase))
        for p, xz in enumerate(keys):
            if _anticommute(k, xz):
                gen[index[(k[0] ^ xz[0], k[1] ^ xz[1])], p] += rate
                gen[p, p] -= rate
    return strings, gen


def test_brownian_ensemble_matches_the_exact_noise_average():
    """At infinite temperature E[F(t)] = sum_P h_P(t) chi_V(P), chi_V(P) = +-1
    as P commutes or anticommutes with V, and E[Tr(W(t) W)/d] = e^{-2t} for
    W = Z_1; the Monte-Carlo ensemble must lie within 4 standard errors of
    both, and of the closed-form entries at the exact F, at every t > 0."""
    n = 3
    cfg = brownian.BrownianConfig(n=n, steps=400, trajectories=200)
    result = brownian.ensemble_averages(cfg)
    strings, gen = brownian_markov_generator(n)
    keys = [_xz(p) for p in strings]
    w, v = _xz(spin.pauli_string(n, [(1, "z")])), _xz(spin.pauli_string(n, [(2, "z")]))
    chi = np.array([-1.0 if _anticommute(p, v) else 1.0 for p in keys])
    evals, vecs = np.linalg.eigh(gen)
    times = result.times
    f_exact = (np.exp(np.outer(times, evals)) * vecs[keys.index(w)]) @ (vecs.T @ chi)
    later = times > 0
    for name, want in (("F", f_exact), ("q_11", np.exp(-2.0 * times))):
        series = result.correlators[name]
        z = np.abs(series.mean - want)[later] / series.standard_error[later]
        assert np.max(z) < 4.0, name
    se = np.hypot(result.quasi_se[..., 0], result.quasi_se[..., 1])
    for idx in np.ndindex(2, 2, 2, 2):
        v1, w2, v2, w3 = (2 * i - 1 for i in idx)
        want = np.array([brownian.analytic_avg_quasiprob(w2, w3, v1, v2, f) for f in f_exact])
        z = np.abs(result.quasi_mean[(slice(None),) + idx] - want)[later] / se[(later,) + idx]
        assert np.max(z) < 4.0, idx


def test_markov_generator_is_the_two_copy_generator():
    """On the span of P (x) P the dense two-copy generator
    L2(X) = -(s^2/2) sum_K [KK, [KK, X]], KK = K (x) 1 + 1 (x) K, built from
    oracles.pair_paulis, is the Markov generator of the squared
    coefficients: L2(P (x) P) = sum_Q G[Q, P] Q (x) Q."""
    n = 2
    strings, gen = brownian_markov_generator(n)
    s2 = brownian.increment_scale(n) ** 2
    eye = np.eye(2**n)
    doubled = [np.kron(k, eye) + np.kron(eye, k) for k in oracles.pair_paulis(n)]

    def l2(x):
        out = np.zeros_like(x)
        for kk in doubled:
            inner = kk @ x - x @ kk
            out -= 0.5 * s2 * (kk @ inner - inner @ kk)
        return out
    pairs = np.array([np.kron(p.matrix(), p.matrix()) for p in strings])
    for p, pp in enumerate(pairs):
        assert max_dev(l2(pp), np.tensordot(gen[:, p], pairs, axes=1)) < 1e-12


def test_stacked_step_matches_the_dense_step_member_by_member():
    """One stacked qla.expm_scaled, in LAPACK's bases as they come, moves
    each U of a stack as oracles.step_unitary moves it alone: sampled
    increments, a degenerate one (a single pair string, eigenvalues +-theta,
    each d/2 times) and a real one given as complex with zero imaginary
    part, which alone takes the real, phase-fixed route."""
    cfg = brownian.BrownianConfig(n=3)
    rng = np.random.default_rng(17)
    ops = oracles.pair_paulis(3)
    real_ops = [op for op in ops if not np.any(op.imag) and np.any(op != np.diag(np.diag(op)))]
    stack = np.array([oracles.sample_increment(cfg, rng, ops) for _ in range(3)]
                     + [0.07 * ops[5], 0.05 * real_ops[0] + 0.03 * real_ops[-1]], dtype=complex)
    assert qla.eigh(stack[3]).degenerate_groups() == [(0, 4), (4, 8)]
    assert np.iscomplexobj(stack[4]) and not np.any(stack[4].imag)
    assert np.isrealobj(qla.eigh(stack[4]).eigenvectors)
    u = np.array([oracles.haar_unitary(8, seed) for seed in range(len(stack))])
    stepped = qla.expm_scaled(stack, -1j) @ u
    for member, db in enumerate(stack):
        assert max_dev(stepped[member], oracles.step_unitary(u[member], db)) < 1e-12
    assert qla.unitarity_defect(stepped) < 1e-12


@pytest.mark.parametrize("n", [2, 3])
@pytest.mark.parametrize("state", ["mixed", "v-diagonal"])
def test_weak_inversion_recovers_the_sandwich_traces(n, state):
    """Each solved identity-column trace of the three-weak inversion is
    Tr(Pi^{W(t)}_{w3} S_x rho) for the sandwich list
    S = [1, Pv, Pw, Pw Pv, Pv Pw, Pv Pw Pv], with every projector an
    explicit (1 + O)/2 product."""
    chain = spin.SpinChainSpec(n=n, j=1.0, h=0.5, g=1.05)
    h = spin.ising_hamiltonian(chain)
    w, v = spin.site_pauli(n, 1, "z"), spin.site_pauli(n, n, "z")
    t, dim = 0.8, 2 ** n
    weights = np.ones(dim) if state == "mixed" else np.linspace(1.0, 2.0, dim)
    rho = np.diag(weights / weights.sum()).astype(complex)
    u = lab_exp(h, -1j * t)
    wt = u.conj().T @ w @ u
    eye = np.eye(dim)
    pv, pw = (eye + v) / 2, (eye + wt) / 2
    sandwiches = [eye, pv, pw, pw @ pv, pv @ pw, pv @ pw @ pv]
    records = weakmeas.standard_protocol_records(rho, w, v, h, t)
    inferred, report = weakmeas.infer_coarse_quasiprob(records)
    for k, w3 in enumerate(inferred.axis_eigenvalues[3]):
        traces = report.background[k, :, 0]
        final = (eye + w3 * wt) / 2
        want = [np.trace(final @ s @ rho) for s in sandwiches]
        assert max_dev(traces, want) < TOL


def _lab_and_compact_states(h, sys, rng):
    """Each form a series takes, (state, its lab-frame rho) keyed by class.
    The lab-frame rho of weights and of psi is built by numpy directly."""
    d = h.shape[0]
    thermal = lab_exp(h, -1.0 / 0.7)
    psi = qla.haar_random_state(d, rng)
    a = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    rho = a @ a.conj().T
    return {
        "equal weights": (quasiprob.DiagonalState(np.full(d, 1.0 / d)), np.eye(d) / d),
        "thermal weights": (quasiprob.DiagonalState(spin.thermal_weights(sys.eigenvalues, 0.7)),
                            thermal / np.trace(thermal)),
        "pure": (psi, np.outer(psi, psi.conj())),
        "dense": (rho / np.trace(rho).real, rho / np.trace(rho).real),
    }


STATE_FORMS = ["equal weights", "thermal weights", "pure", "dense"]


def _word_series(state, w, v, sys, times):
    """F, the coarse entries and the two- and three-fold series."""
    return (quasiprob.otoc_series(state, w, v, sys, times),
            quasiprob.coarse_quasiprob_series(state, w, v, sys, times),
            quasiprob.kfold_series(state, w, v, sys, times, 2),
            quasiprob.kfold_series(state, w, v, sys, times, 3))


def _matrix_route_series(state, w, v, sys, times):
    """What _word_series gives, from quasiprob._word_series on W and V as
    they come: matrices stay matrices there and take the product route."""
    times = np.asarray(times, dtype=float)
    coarse = quasiprob._word_series(state, w, v, sys, times, 2)
    three = quasiprob._word_series(state, w, v, sys, times, 3)
    return quasiprob.CorrelatorSeries(coarse.times, coarse.correlator), coarse, coarse, three


def _assert_lab_frame(series, rho, w, v, h, times):
    """The series of _word_series against the lab-frame F, entries and F_3
    for the matrices W and V."""
    f, coarse, two, three = series
    for i, t in enumerate(times):
        want_f = quasiprob.otoc(rho, w, v, h, t)
        want = oracles.coarse_quasiprob(rho, w, v, h, t).values
        assert abs(f.values[i] - want_f) < TOL
        assert abs(two.correlator[i] - want_f) < TOL
        assert max_dev(coarse.values[i], want) < TOL
        assert max_dev(two.values[i], want) < TOL
        # the last two projectors of the six-slot entries resolve the identity
        assert max_dev(three.values[i].sum(axis=(-2, -1)), want) < TOL
        u = lab_exp(h, -1j * t)
        wt = u.conj().T @ w @ u
        assert abs(three.correlator[i] - np.trace(rho @ np.linalg.matrix_power(wt @ v, 3))) < TOL


@settings(max_examples=10, deadline=None)
@given(series_instances(), st.integers(min_value=0, max_value=2**32 - 1))
@pytest.mark.parametrize("form", STATE_FORMS)
def test_every_state_form_matches_the_lab_frame(form, instance, seed):
    """Weights, psi and a dense rho each take their own contraction in the
    series; every one must give the lab-frame F, entries and F_3."""
    _, w, v, h, times = instance
    sys = qla.eigh(h)
    state, rho = _lab_and_compact_states(h, sys, np.random.default_rng(seed))[form]
    _assert_lab_frame(_word_series(state, w, v, sys, times), rho, w, v, h, times)


@settings(max_examples=10, deadline=None)
@given(chains(), time_grids(), st.integers(min_value=0, max_value=2**32 - 1))
@pytest.mark.parametrize("form", STATE_FORMS)
def test_pauli_strings_match_the_matrix_route_and_the_lab_frame(form, chain, times, seed):
    """W and V as spin.PauliString tables, rotated by one product and
    checked on the table, give what their matrices give on the product
    route, taken below the entries, which read a Pauli matrix as its table
    (_matrix_route_series)."""
    w, v, h = chain
    sys = qla.eigh(h)
    state, rho = _lab_and_compact_states(h, sys, np.random.default_rng(seed))[form]
    from_strings = _word_series(state, w, v, sys, times)
    from_matrices = _matrix_route_series(state, w.matrix(), v.matrix(), sys, times)
    for a, b in zip(from_strings, from_matrices):
        assert max_dev(a.values, b.values) < TOL
    for a, b in zip(from_strings[1:], from_matrices[1:]):
        assert max_dev(a.correlator, b.correlator) < TOL
    _assert_lab_frame(from_strings, rho, w.matrix(), v.matrix(), h, times)


BYTE_PAIRS = {
    "1z-nz": lambda n: ([(1, "z")], [(n, "z")]),
    "1x-nx": lambda n: ([(1, "x")], [(n, "x")]),
    "1y-ny": lambda n: ([(1, "y")], [(n, "y")]),
    "2x-nz": lambda n: ([(2, "x")], [(n, "z")]),
    "zz": lambda n: ([(1, "z"), (2, "z")], [(n - 1, "z"), (n, "z")]),
}


@pytest.mark.parametrize("n", [4, 6])
@pytest.mark.parametrize("frame", ["sector", "full"])
@pytest.mark.parametrize("pair", sorted(BYTE_PAIRS))
def test_every_entry_gives_a_pauli_matrix_the_bits_of_its_table(n, frame, pair):
    """The series entries read a matrix that is exactly a Pauli string as
    its table, so each gives the same bits for pauli_string tables and for
    their .matrix() forms: values and correlators, on both eigensystems,
    for every state form and all five entries."""
    ham = spin.ising_hamiltonian(spin.SpinChainSpec(n=n, j=1.0, h=0.5, g=1.05))
    sys = qla.eigh(ham) if frame == "sector" else oracles.full_eigh(ham)
    w_factors, v_factors = BYTE_PAIRS[pair](n)
    w, v = spin.pauli_string(n, w_factors), spin.pauli_string(n, v_factors)
    d, times = 2**n, [0.0, 0.7, 2.3]
    states = [quasiprob.DiagonalState(np.full(d, 1.0 / d)),
              quasiprob.DiagonalState(spin.thermal_weights(sys.eigenvalues, 0.8)),
              qla.haar_random_state(d, 7), np.eye(d) / d]
    entries = [
        lambda state, w, v: quasiprob.otoc_series(state, w, v, sys, times),
        lambda state, w, v: quasiprob.coarse_quasiprob_series(state, w, v, sys, times),
        lambda state, w, v: quasiprob.toc_series(state, w, v, sys, times),
        lambda state, w, v: quasiprob.kfold_series(state, w, v, sys, times, 2),
        lambda state, w, v: quasiprob.kfold_series(state, w, v, sys, times, 3),
        lambda state, w, v: quasiprob.regulated_series(sys, 0.8, w, v, times),
    ]
    for state in states:
        for entry in entries:
            table, matrix = entry(state, w, v), entry(state, w.matrix(), v.matrix())
            assert np.array_equal(table.values, matrix.values)
            if isinstance(table, quasiprob.QuasiSeries):
                assert table.correlator is not None
                assert np.array_equal(table.correlator, matrix.correlator)


def test_a_partner_pair_of_matrices_reaches_the_partner_kernel(monkeypatch):
    """Z_1 and Z_n given as matrices on a sector eigensystem are read as
    tables by the entry, so their thermal F takes the partner walk; below
    the entry, _energy_frame on the matrices finds no parities."""
    n = 5
    ham = spin.ising_hamiltonian(spin.SpinChainSpec(n=n, j=1.0, h=0.5, g=1.05))
    sys = qla.eigh(ham)
    w, v = spin.pauli_string(n, [(1, "z")]), spin.pauli_string(n, [(n, "z")])
    assert quasiprob._energy_frame(sys, w.matrix(), v.matrix())[2] is None
    real, calls = quasiprob._partner_kernel, []
    monkeypatch.setattr(quasiprob, "_partner_kernel",
                        lambda *args: calls.append(True) or real(*args))
    state = quasiprob.DiagonalState(spin.thermal_weights(sys.eigenvalues, 0.8))
    f = quasiprob.otoc_series(state, w.matrix(), v.matrix(), sys, [0.0, 1.3]).values
    assert calls == [True]
    assert abs(f[1] - quasiprob.otoc(state, w.matrix(), v.matrix(), sys, 1.3)) < TOL


@pytest.mark.parametrize("n", [4, 7])
def test_a_raw_chain_matrix_gives_the_bits_of_the_cli_eigensystem(monkeypatch, n):
    """Every series entry given the raw ising_hamiltonian matrix solves it
    as cli._chain_pieces does, in its reflection sectors, and gives the
    bits of the call given the CLI's eigensystem, for every state form; a
    thermal Z_1/Z_n series given the raw matrix takes the partner walk."""
    rng = np.random.default_rng(n)
    cfg = {"n": n, "j": rng.uniform(0.5, 1.5), "h_field": rng.uniform(-1.0, 1.0),
           "g_field": rng.uniform(0.3, 1.5), "w": "1:z", "v": f"{n}:z", "state": "thermal:0.8"}
    sys, w, v, thermal = cli._chain_pieces(cfg)
    ham = spin.ising_hamiltonian(spin.SpinChainSpec(n=n, j=cfg["j"], h=cfg["h_field"],
                                                    g=cfg["g_field"]))
    psi, times = qla.haar_random_state(2**n, 3), [0.0, 0.7, 2.3]
    states = [thermal, quasiprob.DiagonalState(np.full(2**n, 2.0**-n)), psi,
              quasiprob.density_matrix(thermal, sys)]
    entries = [
        lambda state, h: quasiprob.otoc_series(state, w, v, h, times),
        lambda state, h: quasiprob.coarse_quasiprob_series(state, w, v, h, times),
        lambda state, h: quasiprob.toc_series(state, w, v, h, times),
        lambda state, h: quasiprob.kfold_series(state, w, v, h, times, 3),
        lambda state, h: quasiprob.regulated_series(h, 0.8, w, v, times),
    ]
    for state in states:
        for entry in entries:
            raw, chain = entry(state, ham), entry(state, sys)
            assert np.array_equal(raw.values, chain.values)
            if isinstance(raw, quasiprob.QuasiSeries):
                assert np.array_equal(raw.correlator, chain.correlator)
    real, calls = quasiprob._partner_kernel, []
    monkeypatch.setattr(quasiprob, "_partner_kernel",
                        lambda *args: calls.append(True) or real(*args))
    quasiprob.otoc_series(thermal, w, v, ham, times)
    assert calls == [True]


@pytest.mark.parametrize("n, j, h, g", [
    (3, 0.83, 0.37, 1.21), (4, 1.13, -0.61, 0.47), (5, 0.71, 0.29, 0.93),
    (6, 1.27, 0.53, 1.09),
    (4, 0.7, 0.3, 0.0),           # diagonal H: exact degeneracies across the sectors
])
@pytest.mark.parametrize("state", ["infinite-temp", "thermal", "haar"])
def test_sector_eigensystem_gives_the_full_series(n, j, h, g, state):
    """The eigensystem qla.eigh builds from the reflection sectors of a
    uniform chain (the CLI's) and the full one give the same F and entries,
    whatever signs and degenerate bases the two hold."""
    ham = spin.ising_hamiltonian(spin.SpinChainSpec(n=n, j=j, h=h, g=g))
    w, v = spin.pauli_string(n, [(1, "x")]), spin.pauli_string(n, [(n, "z")])
    times = [0.0, 0.4, 1.3, 4.0]
    got = []
    for sys in (qla.eigh(ham), oracles.full_eigh(ham)):
        rho = {"infinite-temp": quasiprob.DiagonalState(np.full(2**n, 2.0**-n)),
               "thermal": quasiprob.DiagonalState(spin.thermal_weights(sys.eigenvalues, 0.8)),
               "haar": qla.haar_random_state(2**n, 11)}[state]
        got.append((quasiprob.otoc_series(rho, w, v, sys, times).values,
                    quasiprob.coarse_quasiprob_series(rho, w, v, sys, times).values))
    (f_sector, q_sector), (f_full, q_full) = got
    assert max_dev(f_sector, f_full) < TOL
    assert max_dev(q_sector, q_full) < TOL


def test_non_hermitian_involution_is_rejected():
    # squares to the identity but is not Hermitian, so (1 +- W)/2 are not
    # orthogonal projectors and the expansion would return a "distribution"
    w = np.kron(np.array([[1.0, 1.0], [0.0, -1.0]]), np.eye(2))
    assert np.array_equal(w @ w, np.eye(4))
    v = spin.site_pauli(2, 2, "z")
    h = spin.ising_hamiltonian(spin.SpinChainSpec(n=2, j=1.0, h=0.5, g=1.05))
    rho = np.eye(4, dtype=complex) / 4
    with pytest.raises(ValueError):
        quasiprob.coarse_quasiprob_series(rho, w, v, h, [0.5])
    with pytest.raises(ValueError):
        oracles.coarse_quasiprob_via_correlators(rho, w, v, h, 0.5)
    with pytest.raises(ValueError):
        quasiprob.kfold_series(rho, w, v, h, [0.5], 2)
    with pytest.raises(ValueError):
        brownian.ensemble_averages(brownian.BrownianConfig(n=2, dt=0.01, steps=1,
                                                           trajectories=2, stride=1),
                                   rho=rho, w_op=w, v_op=v)


def test_non_hermitian_rho_is_rejected():
    # the word expansion takes the trace of a word's reverse as the
    # conjugate of its own, which holds only for Hermitian rho; every
    # series checks rho the same way
    w, v = spin.site_pauli(2, 1, "x"), spin.site_pauli(2, 2, "z")
    h = spin.ising_hamiltonian(spin.SpinChainSpec(n=2, j=1.0, h=0.5, g=1.05))
    rho = np.eye(4, dtype=complex) / 4
    rho[0, 1] = 0.1
    with pytest.raises(ValueError, match="Hermitian"):
        quasiprob.coarse_quasiprob_series(rho, w, v, h, [0.5])
    with pytest.raises(ValueError, match="Hermitian"):
        # 2 W is no involution, so this takes the projector route
        quasiprob.coarse_quasiprob_series(rho, 2 * w, v, h, [0.5])
    with pytest.raises(ValueError, match="Hermitian"):
        quasiprob.otoc_series(rho, w, v, h, [0.5])
    with pytest.raises(ValueError, match="Hermitian"):
        oracles.coarse_quasiprob_via_correlators(rho, w, v, h, 0.5)
    with pytest.raises(ValueError, match="Hermitian"):
        quasiprob.kfold_series(rho, w, v, h, [0.5], 3)
    with pytest.raises(ValueError, match="Hermitian"):
        brownian.ensemble_averages(brownian.BrownianConfig(n=2, dt=0.01, steps=1,
                                                           trajectories=2, stride=1),
                                   rho=rho, w_op=w, v_op=v)


def test_involution_projectors_skip_eigendecomposition(small_chain, monkeypatch):
    rho, w, v, h = small_chain
    h_sys = qla.eigh(h)
    calls = []
    real_eigh = qla.eigh
    monkeypatch.setattr(qla, "eigh", lambda m, *a, **k: calls.append(m) or real_eigh(m, *a, **k))
    oracles.coarse_quasiprob(rho, w, v, h_sys, 0.7)
    quasiprob.toc_series(rho, w, v, h_sys, [0.7])
    weakmeas.simulator("three-weak", rho, w, v, h_sys, 0.7)(weakmeas.CouplingConfig(0.1))
    assert calls == []
    # a non-involutory observable still goes through the eigendecomposition
    oracles.coarse_quasiprob(rho, w + 2.0 * np.eye(8), v, h_sys, 0.7)
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


def test_eigenprojector_completeness():
    w = spin.site_pauli(3, 2, "z")
    p_plus = oracles.eigenprojector(w, 1.0)
    p_minus = oracles.eigenprojector(w, -1.0)
    assert np.max(np.abs(p_plus + p_minus - np.eye(8))) < 1e-12
    assert np.max(np.abs(p_plus @ p_minus)) < 1e-12
    assert np.max(np.abs(w - p_plus + p_minus)) < 1e-12
    with pytest.raises(ValueError):
        oracles.eigenprojector(w, 0.5)


@pytest.mark.parametrize("operand", ["w", "v"])
@pytest.mark.parametrize("scale", [1j, 2.0], ids=["not Hermitian", "no involution"])
def test_strings_off_the_involutions_behave_as_their_matrices(monkeypatch, scale, operand):
    """phase x 1j is not Hermitian, phase x 2 squares to 4: each series
    rejects the scaled string exactly where it rejects its matrix, with
    the same message, and otherwise returns the same values. The entries
    read a matrix that is exactly a string (phase x 1j, or the unscaled
    operand) as its table, so the matrices are passed with that reading
    off, and every check they meet is the dense one."""
    h = spin.ising_hamiltonian(spin.SpinChainSpec(n=2, j=1.0, h=0.5, g=1.05))
    ops = {"w": spin.pauli_string(2, [(1, "x")]), "v": spin.pauli_string(2, [(2, "y")])}
    ops[operand] = spin.PauliString(ops[operand].mask, scale * ops[operand].phase)
    rho = np.eye(4) / 4
    calls = {
        "otoc": lambda w, v: quasiprob.otoc_series(rho, w, v, h, [0.0, 0.5]).values,
        "coarse": lambda w, v: quasiprob.coarse_quasiprob_series(rho, w, v, h, [0.5]).values,
        "kfold": lambda w, v: quasiprob.kfold_series(rho, w, v, h, [0.5], 2).correlator,
        "toc": lambda w, v: quasiprob.toc_series(rho, w, v, h, [0.5]).correlator,
    }

    def outcome(call, w, v):
        try:
            return call(w, v)
        except ValueError as exc:
            return str(exc)

    def as_matrices(call, w, v):
        with monkeypatch.context() as m:
            m.setattr(spin, "as_pauli_string", lambda op: op)
            return outcome(call, w, v)

    outcomes = []
    for name, call in calls.items():
        string = outcome(call, ops["w"], ops["v"])
        matrix = as_matrices(call, ops["w"].matrix(), ops["v"].matrix())
        outcomes.append(isinstance(matrix, str))
        if isinstance(matrix, str):
            assert string == matrix, name
        else:
            assert max_dev(string, matrix) < TOL, name
    # kfold always rejects; otoc_series rejects the non-Hermitian operand only
    assert outcomes[2] and outcomes[0] == (scale == 1j)


def test_dense_rho_with_a_constant_diagonal_is_not_read_as_equal_weights():
    """rho = (1 + X_1)/4 has a constant diagonal and nonzeros off it; it is
    not c 1 and must take the dense contraction."""
    h = spin.ising_hamiltonian(spin.SpinChainSpec(n=2, j=1.0, h=0.3, g=0.7))
    w, v = spin.site_pauli(2, 1, "z"), spin.site_pauli(2, 2, "z")
    rho = (np.eye(4) + spin.site_pauli(2, 1, "x")) / 4
    want_f = quasiprob.otoc(rho, w, v, h, 0.7)
    want = oracles.coarse_quasiprob(rho, w, v, h, 0.7).values
    # equal weights, the misreading, would give other values
    equal = np.eye(4) / 4
    assert abs(want_f - quasiprob.otoc(equal, w, v, h, 0.7)) > 1e-5
    assert max_dev(want, oracles.coarse_quasiprob(equal, w, v, h, 0.7).values) > 0.1
    assert abs(quasiprob.otoc_series(rho, w, v, h, [0.7]).values[0] - want_f) < TOL
    assert max_dev(quasiprob.coarse_quasiprob_series(rho, w, v, h, [0.7]).values[0], want) < TOL


PARTNERS = {
    "z-z": ([(1, "z")], lambda n: [(n, "z")]),
    "y-y": ([(1, "y")], lambda n: [(n, "y")]),
    "x1y2-xnyn-1": ([(1, "x"), (2, "y")], lambda n: [(n, "x"), (n - 1, "y")]),
}


@pytest.mark.parametrize("n", [4, 5, 6])
@pytest.mark.parametrize("pair", sorted(PARTNERS))
@pytest.mark.parametrize("state", ["infinite-temp", "thermal", "random weights", "psi"])
def test_reflection_partner_route_matches_the_product_route(n, pair, state):
    """V = R W R on a sector eigensystem: V~ = S W~ S from the parities and
    the contiguous (W(t) V)^k sum give every word trace of k = 2..5 that the
    rotation of both operators and the product route give."""
    ham = spin.ising_hamiltonian(spin.SpinChainSpec(n=n, j=1.0, h=0.5, g=1.05))
    sys = qla.eigh(ham)
    w_factors, v_factors = PARTNERS[pair]
    w, v = spin.pauli_string(n, w_factors), spin.pauli_string(n, v_factors(n))
    w_e, v_e, parities = quasiprob._energy_frame(sys, w, v)
    assert parities is not None
    w_full, v_full, no_parities = quasiprob._energy_frame(sys, w.matrix(), v.matrix())
    assert no_parities is None
    assert max_dev(w_e, w_full) < 1e-12 and max_dev(v_e, v_full) < 1e-12
    weights = np.random.default_rng(n).random(2**n)
    rho = {"infinite-temp": quasiprob.DiagonalState(np.full(2**n, 2.0**-n)),
           "thermal": quasiprob.DiagonalState(spin.thermal_weights(sys.eigenvalues, 0.8)),
           "random weights": quasiprob.DiagonalState(weights / weights.sum()),
           "psi": quasiprob._frame_state(qla.haar_random_state(2**n, 5), sys)}[state]
    for k in range(2, 6):
        partner = quasiprob._word_traces(rho, v_e, k, parities)
        product = quasiprob._word_traces(rho, v_full, k)
        for t in (0.0, 0.7, 3.1):
            phase = np.exp(-1j * t * sys.eigenvalues)
            assert max_dev(partner(w_e, phase), product(w_full, phase)) < 1e-12


@functools.lru_cache(maxsize=None)
def _partner_chain(n, pair):
    """The n-site chain on its sector eigensystem, W and V of PARTNERS[pair]
    as tables, and both frames: the partner's (W~ and the parities) and the
    full product route's (both operators rotated as matrices)."""
    ham = spin.ising_hamiltonian(spin.SpinChainSpec(n=n, j=1.0, h=0.5, g=1.05))
    sys = qla.eigh(ham)
    w_factors, v_factors = PARTNERS[pair]
    w, v = spin.pauli_string(n, w_factors), spin.pauli_string(n, v_factors(n))
    return sys, w, v, quasiprob._energy_frame(sys, w, v), quasiprob._energy_frame(
        sys, w.matrix(), v.matrix())


def _weights(sys, state):
    d = len(sys.eigenvalues)
    weights = np.random.default_rng(d).random(d)
    return quasiprob.DiagonalState({
        "infinite-temp": np.full(d, 1.0 / d),
        "thermal": spin.thermal_weights(sys.eigenvalues, 0.8),
        "random weights": weights / weights.sum()}[state])


@pytest.mark.parametrize("n, pair", [(7, "z-z"), (8, "z-z"), (9, "z-z"), (8, "y-y")],
                         ids=["n7-one-block", "n8-two-blocks", "n9-four-blocks", "n8-imaginary-w"])
@pytest.mark.parametrize("state", ["infinite-temp", "thermal", "random weights"])
def test_partner_block_walk_matches_the_product_route_and_the_lab_frame(n, pair, state):
    """The k = 2 words of the walk over the lower block triangle of
    Y = W~ (D S) W~ (_PARTNER_WIDTH columns a block) are those of the full
    product on the rotated pair, for one point and for a stack of points,
    and F is the lab-frame otoc."""
    assert -(-2**n // quasiprob._PARTNER_WIDTH) == {7: 1, 8: 2, 9: 4}[n]
    sys, w, v, (w_e, v_e, parities), (w_full, v_full, _) = _partner_chain(n, pair)
    assert parities is not None
    rho = _weights(sys, state)
    walk = quasiprob._word_traces(rho, v_e, 2, parities)
    product = quasiprob._word_traces(rho, v_full, 2)
    times = np.array([0.0, 0.7, 3.1])
    phases = quasiprob._phases(sys, times)
    assert max_dev(walk(w_e, phases), product(w_full, phases)) < 1e-12
    for phase in phases:
        assert max_dev(walk(w_e, phase), product(w_full, phase)) < 1e-12
    f = quasiprob.otoc_series(rho, w, v, sys, times).values
    dense = quasiprob.density_matrix(rho, sys)
    for i, t in enumerate(times):
        assert abs(f[i] - quasiprob.otoc(dense, w.matrix(), v.matrix(), sys, t)) < TOL


@pytest.mark.parametrize("state", ["infinite-temp", "thermal", "random weights"])
def test_partner_block_walk_on_a_chunked_grid(state):
    """On an n = 4 grid of 300 points, three chunks with a short last one,
    the partner series give the full product route's F and coarse entries
    and the lab-frame otoc."""
    n = 4
    sys, w, v, _, (w_full, v_full, _) = _partner_chain(n, "z-z")
    assert qla.chunk_length(2**n) == 128
    rho = _weights(sys, state)
    times = np.linspace(0.0, 30.0, 300)
    f = quasiprob.otoc_series(rho, w, v, sys, times).values
    coarse = quasiprob.coarse_quasiprob_series(rho, w, v, sys, times)
    product = quasiprob._word_traces(rho, v_full, 2)(w_full, quasiprob._phases(sys, times))
    assert max_dev(f, product[:, quasiprob._words(2).index("wvwv")]) < 1e-12
    assert max_dev(coarse.values, quasiprob._entries(product, 2)) < 1e-12
    dense = quasiprob.density_matrix(rho, sys)
    for i in (0, 127, 128, 299):
        assert abs(f[i] - quasiprob.otoc(dense, w.matrix(), v.matrix(), sys, times[i])) < TOL


def test_rebuilt_degenerate_groups_across_the_sectors_take_the_product_route():
    """At g = h = 0, H is diagonal and its degenerate groups are rebuilt from
    computational basis vectors that straddle the sectors: no parities, so V
    is rotated itself, and F still matches the lab-frame otoc."""
    n = 6
    ham = spin.ising_hamiltonian(spin.SpinChainSpec(n=n, j=1.0, h=0.0, g=0.0))
    sys = qla.eigh(ham)
    w, v = spin.pauli_string(n, [(1, "z")]), spin.pauli_string(n, [(n, "z")])
    assert quasiprob._energy_frame(sys, w, v)[2] is None
    times = [0.0, 0.9, 2.3]
    for rho in (quasiprob.DiagonalState(np.full(2**n, 2.0**-n)), qla.haar_random_state(2**n, 2)):
        f = quasiprob.otoc_series(rho, w, v, sys, times).values
        dense = quasiprob.density_matrix(rho, sys)
        for i, t in enumerate(times):
            assert abs(f[i] - quasiprob.otoc(dense, w.matrix(), v.matrix(), ham, t)) < TOL


@pytest.mark.parametrize("w_factors, v_factors", [
    ([(1, "z")], [(5, "z")]), ([(1, "z")], [(6, "x")]),
    ([(1, "x"), (2, "y")], [(6, "y"), (5, "x")]),
], ids=["(n-1):z", "n:x", "axes swapped"])
def test_non_partner_pairs_rotate_both_operators(w_factors, v_factors):
    n = 6
    ham = spin.ising_hamiltonian(spin.SpinChainSpec(n=n, j=1.0, h=0.5, g=1.05))
    sys = qla.eigh(ham)
    w, v = spin.pauli_string(n, w_factors), spin.pauli_string(n, v_factors)
    w_e, v_e, parities = quasiprob._energy_frame(sys, w, v)
    assert parities is None
    assert max_dev(v_e, quasiprob._rotated(sys.eigenvectors, v)) == 0.0


# W and V of the block route at infinite temperature: 1:z and its
# reflection partner n:z, 1:z and (n-1):z, which is no partner, the
# two-site strings Z_1 Z_2 and Z_n Z_(n-1), and a diagonal +-1 table that
# is +1 on three rows only, so that W and V have unequal +1 row counts
PLUS_PAIRS = {
    "partner": lambda n: (spin.pauli_string(n, [(1, "z")]), spin.pauli_string(n, [(n, "z")])),
    "non-partner": lambda n: (spin.pauli_string(n, [(1, "z")]),
                              spin.pauli_string(n, [(n - 1, "z")])),
    "zz": lambda n: (spin.pauli_string(n, [(1, "z"), (2, "z")]),
                     spin.pauli_string(n, [(n, "z"), (n - 1, "z")])),
    "three rows": lambda n: (spin.PauliString(0, np.where(np.arange(2**n) < 3, 1.0, -1.0)),
                             spin.pauli_string(n, [(n, "z")])),
}


@functools.lru_cache(maxsize=None)
def _plus_chain(n):
    ham = spin.ising_hamiltonian(spin.SpinChainSpec(n=n, j=1.0, h=0.5, g=1.05))
    return ham, qla.eigh(ham)


def _counted_frames(monkeypatch):
    """A list that grows by one each time quasiprob._energy_frame is entered."""
    real, frames = quasiprob._energy_frame, []

    def frame(*args):
        frames.append(True)
        return real(*args)
    monkeypatch.setattr(quasiprob, "_energy_frame", frame)
    return frames


@pytest.mark.parametrize("n", [3, 4, 7, 8])
@pytest.mark.parametrize("pair", sorted(PLUS_PAIRS))
@pytest.mark.parametrize("form", ["equal weights", "dense c 1"])
@pytest.mark.parametrize("points", [1, 7], ids=["one point", "three chunks"])
def test_z_strings_at_infinite_temperature_take_one_block_of_u(monkeypatch, n, pair, form,
                                                               points):
    """For a state c 1 and diagonal strings W and V, F, the coarse entries
    and the two-fold series come from the (W = +1, V = +1) block of U(t)
    with no energy frame: every word is the frame route's (_word_traces on
    both operators rotated as matrices) to 1e-12 and the lab-frame otoc and
    coarse_quasiprob to 1e-10, on one point and on a grid of three points
    a chunk that ends past a boundary."""
    ham, sys = _plus_chain(n)
    d = 2**n
    monkeypatch.setattr(qla, "STACK_BYTES", 3 * 16 * d * d)
    assert qla.chunk_length(d) == 3
    w, v = PLUS_PAIRS[pair](n)
    state = {"equal weights": quasiprob.DiagonalState(np.full(d, 1.0 / d)),
             "dense c 1": np.eye(d) / d}[form]
    times = np.array([0.2 + 1.3 * i for i in range(points)])
    w_full, v_full, _ = quasiprob._energy_frame(sys, w.matrix(), v.matrix())
    frame = quasiprob._word_traces(quasiprob.DiagonalState(np.full(d, 1.0 / d)), v_full, 2)(
        w_full, quasiprob._phases(sys, times))
    frames = _counted_frames(monkeypatch)
    block = quasiprob._on_grid(sys, times, (8,), quasiprob._plus_block_words(
        state, w, v, sys, quasiprob._words(2)))
    f = quasiprob.otoc_series(state, w, v, sys, times).values
    coarse = quasiprob.coarse_quasiprob_series(state, w, v, sys, times)
    two = quasiprob.kfold_series(state, w, v, sys, times, 2)
    assert frames == []
    assert max_dev(block, frame) < 1e-12
    assert max_dev(f, frame[:, quasiprob._words(2).index("wvwv")]) < 1e-12
    assert max_dev(coarse.values, quasiprob._entries(frame, 2)) < 1e-12
    assert max_dev(coarse.correlator, f) == 0.0
    assert max_dev(two.values, coarse.values) == 0.0
    rho = np.eye(d) / d
    for i in sorted({0, points // 2, points - 1}):
        t = times[i]
        assert abs(f[i] - quasiprob.otoc(rho, w.matrix(), v.matrix(), ham, t)) < TOL
        want = oracles.coarse_quasiprob(rho, w.matrix(), v.matrix(), ham, t).values
        assert max_dev(coarse.values[i], want) < TOL


@pytest.mark.parametrize("case", ["thermal weights", "psi", "x W", "y W", "complex frame"])
def test_other_states_and_operators_enter_the_energy_frame(monkeypatch, case):
    """Only a state c 1 with two diagonal strings in a real frame skips
    the frame: thermal weights, psi, an x or y W and a complex eigenbasis
    each build it once per series, and still give the lab-frame F."""
    n, d = 4, 16
    ham, sys = _plus_chain(n)
    w_axis = {"x W": "x", "y W": "y"}.get(case, "z")
    w, v = spin.pauli_string(n, [(1, w_axis)]), spin.pauli_string(n, [(n, "z")])
    state = {"thermal weights": quasiprob.DiagonalState(spin.thermal_weights(sys.eigenvalues,
                                                                             0.8)),
             "psi": qla.haar_random_state(d, 4)}.get(case, np.eye(d) / d)
    if case == "complex frame":
        ham = ham + 0.3 * spin.pauli_string(n, [(2, "y")]).matrix()
        sys = qla.eigh(ham)
        assert np.iscomplexobj(sys.eigenvectors)
    assert quasiprob._plus_block_words(state, w, v, sys, quasiprob._words(2)) is None
    frames = _counted_frames(monkeypatch)
    f = quasiprob.otoc_series(state, w, v, sys, [0.9]).values
    coarse = quasiprob.coarse_quasiprob_series(state, w, v, sys, [0.9])
    assert len(frames) == 2
    rho = quasiprob.density_matrix(state, sys)
    assert abs(f[0] - quasiprob.otoc(rho, w.matrix(), v.matrix(), ham, 0.9)) < TOL
    want = oracles.coarse_quasiprob(rho, w.matrix(), v.matrix(), ham, 0.9).values
    assert max_dev(coarse.values[0], want) < TOL


@pytest.mark.parametrize("n", range(3, 11))
def test_gram_rotation_of_diagonal_strings_is_the_product(n):
    """2 e_+^T e_+ - 1 (or 1 - 2 e_-^T e_- when -1 rows are fewer) is
    e^T P e for z strings, the identity and -1; a complex eigenbasis takes
    e^dag P e the same way."""
    d = 2**n
    _, sys = _plus_chain(n)
    strings = [spin.pauli_string(n, [(1, "z")]), spin.pauli_string(n, [(n, "z")]),
               spin.pauli_string(n, [(1, "z"), (2, "z")]), spin.pauli_string(n, []),
               spin.PauliString(0, -np.ones(d)),
               spin.PauliString(0, np.where(np.arange(d) < 3, 1.0, -1.0))]
    bases = [sys.eigenvectors]
    if n == 3:
        ham = spin.ising_hamiltonian(spin.SpinChainSpec(n=n, j=1.0, h=0.5, g=1.05))
        bases.append(qla.eigh(ham + 0.3 * spin.pauli_string(n, [(2, "y")]).matrix())
                     .eigenvectors)
    for e in bases:
        for p in strings:
            assert quasiprob._plus_rows(p) is not None
            got = quasiprob._rotated(e, p)
            assert max_dev(got, e.conj().T @ p.matrix() @ e) < 1e-12
            if np.isrealobj(e):           # a symmetric rank-k update
                assert np.array_equal(got, got.T)


# W, V, the state form and whether V is W's reflection partner
CHUNK_STATES = {
    "partner weights": ([(1, "z")], [(3, "z")], "thermal weights", True),
    "non-partner weights": ([(1, "z")], [(2, "x")], "thermal weights", False),
    "psi": ([(1, "z")], [(3, "z")], "pure", True),
    "dense rho": ([(1, "x")], [(3, "y")], "dense", False),
}


@pytest.mark.parametrize("points", [1, 3, 4, 7])
@pytest.mark.parametrize("case", sorted(CHUNK_STATES))
def test_series_chunks_match_the_lab_frame(monkeypatch, case, points):
    """With three points per kernel call, grids that end on, before and
    after a chunk boundary give every series the lab-frame values point by
    point: F, the coarse, three-fold, time-ordered and regulated entries
    and their correlators, and the projector route of a non-involution."""
    monkeypatch.setattr(qla, "STACK_BYTES", 3 * 16 * 8 * 8)
    assert qla.chunk_length(8) == 3
    w_factors, v_factors, form, partner = CHUNK_STATES[case]
    h = spin.ising_hamiltonian(spin.SpinChainSpec(n=3, j=0.9, h=0.4, g=1.1))
    sys = qla.eigh(h)
    w, v = spin.pauli_string(3, w_factors), spin.pauli_string(3, v_factors)
    assert (quasiprob._energy_frame(sys, w, v)[2] is not None) == partner
    state, rho = _lab_and_compact_states(h, sys, np.random.default_rng(points))[form]
    wm, vm = w.matrix(), v.matrix()
    times = [0.2 + 0.55 * i for i in range(points)]
    f = quasiprob.otoc_series(state, w, v, sys, times)
    coarse = quasiprob.coarse_quasiprob_series(state, w, v, sys, times)
    three = quasiprob.kfold_series(state, w, v, sys, times, 3)
    toc = quasiprob.toc_series(state, w, v, sys, times)
    w_off = wm + 0.5 * np.eye(8)              # no involution: the projector route
    off = quasiprob.coarse_quasiprob_series(state, w_off, v, sys, times)
    pv = pm_projectors(vm)
    for i, t in enumerate(times):
        u = lab_exp(h, -1j * t)
        wt = u.conj().T @ wm @ u
        pw = pm_projectors(wt)
        want = oracles.coarse_quasiprob(rho, wm, vm, h, t).values
        assert abs(f.values[i] - quasiprob.otoc(rho, wm, vm, h, t)) < TOL
        assert max_dev(coarse.values[i], want) < TOL
        assert abs(coarse.correlator[i] - f.values[i]) < TOL
        assert max_dev(off.values[i], oracles.coarse_quasiprob(rho, w_off, vm, h, t).values) < TOL
        assert abs(three.correlator[i] - np.trace(rho @ np.linalg.matrix_power(wt @ vm, 3))) < TOL
        for idx in np.ndindex(three.values.shape[1:]):
            acc = rho
            for slot, k in enumerate(idx):
                acc = (pw if slot % 2 else pv)[k] @ acc
            assert abs(three.values[(i,) + idx] - np.trace(acc)) < TOL
        for i1, i2, i3 in np.ndindex(2, 2, 2):
            assert abs(toc.values[i, i1, i2, i3] - np.trace(pv[i3] @ pw[i2] @ pv[i1] @ rho)) < TOL
        assert abs(toc.correlator[i] - np.trace(rho @ vm @ wt @ wt @ vm)) < TOL
    assert_regulated_matches_explicit_u_reg(h, 0.8, wm, vm, times)


def _rebuilt_numerators(chain, ctx):
    """Every tuple's <f'|P_k...P_a rho'|f'> and <f'|P_a...P_k rho'|f'>,
    each chain of projectors applied to the bra from scratch."""
    bra, rho_f = ctx.f_prime.conj(), ctx.rho_prime @ ctx.f_prime
    out = {}
    for picks in itertools.product(*chain.spectra):
        projs = [proj for _, proj in picks]
        out[tuple(ev for ev, _ in picks)] = (
            functools.reduce(np.matmul, reversed(projs), bra) @ rho_f,
            functools.reduce(np.matmul, projs, bra) @ rho_f)
    return out


def _retrodiction_case(k, seed):
    """A context at d = 4 and a chain of k observables cycling through a
    rank-one projector (eigenvalues 0 and 1), a random Hermitian matrix and
    a degenerate observable (eigenvalues -1, 2, 2, 3 in a random basis)."""
    r = np.random.default_rng(seed)
    a = r.normal(size=(4, 4)) + 1j * r.normal(size=(4, 4))
    herm = (a + a.conj().T) / 2
    vec = qla.haar_random_state(4, r)
    basis = np.linalg.qr(r.normal(size=(4, 4)) + 1j * r.normal(size=(4, 4)))[0]
    degenerate = (basis * np.array([-1.0, 2.0, 2.0, 3.0])) @ basis.conj().T
    pool = [np.outer(vec, vec.conj()), herm, degenerate]
    chain = retrodict.ObservableChain([pool[(i + seed) % 3] for i in range(k)])
    b = r.normal(size=(4, 4)) + 1j * r.normal(size=(4, 4))
    rho = b @ b.conj().T
    ctx = retrodict.RetrodictionContext(rho / np.trace(rho).real, herm, 0.4, 1.1,
                                        final_vector=qla.haar_random_state(4, r))
    return chain, ctx


@pytest.mark.parametrize("seed", [0, 1, 2])
@pytest.mark.parametrize("k", [1, 2, 3, 4])
def test_retrodiction_walk_matches_rebuilt_projector_chains(k, seed):
    """The depth-first walk gives every tuple's conditional quasiprobabilities,
    keys in itertools.product order, and the weak values of Gamma and
    Gamma~ that the rebuilt chains and the explicit matrices give."""
    chain, ctx = _retrodiction_case(k, seed)
    if k >= 3:        # the projector's zero and the degenerate pair are both in the chain
        assert any(abs(ev) < 1e-12 for pairs in chain.spectra for ev, _ in pairs)
        assert any(len(pairs) == 3 for pairs in chain.spectra)
    want = _rebuilt_numerators(chain, ctx)
    p = ctx.conditioning_probability
    forward, backward = retrodict.conditional_quasiprobs(chain, ctx)
    keys = [key for key, _ in forward.outcome_grid()]
    assert keys == list(want) == [key for key, _ in backward.outcome_grid()]
    for index, (key, (num_f, num_b)) in zip(np.ndindex(forward.values.shape), want.items()):
        assert abs(forward.entry(*key) - num_f / p) < 1e-12
        assert abs(backward.entry(*key) - num_b / p) < 1e-12
        assert forward.values.real[index] == forward.entry(*key).real
    weights = {key: float(np.prod(key)) for key in want}
    gamma = sum(weights[key] * (f + b).real for key, (f, b) in want.items()) / p
    tilde = sum(weights[key] * (b - f).imag for key, (f, b) in want.items()) / p
    assert abs(retrodict.gamma_weak_factored(chain, ctx) - gamma) < 1e-12
    assert abs(retrodict.tilde_gamma_weak(chain, ctx) - tilde) < 1e-12
    assert abs(retrodict.gamma_weak_direct(chain, ctx) - gamma) < 1e-10
    assert abs(retrodict.weak_value(retrodict.tilde_gamma_matrix(chain), ctx) - tilde) < 1e-10


class _CountingProjector:
    """Stands in for a projector in a chain's spectra and counts the
    products bras @ P that the walk takes with it."""

    __array_ufunc__ = None

    def __init__(self, proj, counts):
        self.proj, self.counts = proj, counts

    def __rmatmul__(self, other):
        self.counts.append(np.shape(other))
        return other @ self.proj


@pytest.mark.parametrize("outcomes", [2, 3])
@pytest.mark.parametrize("k", [1, 2, 3, 4])
def test_retrodiction_walk_takes_one_product_per_prefix(k, outcomes):
    """k observables with m outcomes each cost sum_{l=1..k} m^l products of
    a (2, d) bra pair, one per tuple prefix, and the meter sees the stack
    of k pairs, 2kd entries, at its peak and nothing live after."""
    r = np.random.default_rng(10 * k + outcomes)
    levels = np.array([-1.0, 1.0, -1.0, 1.0] if outcomes == 2 else [-1.0, 0.5, 0.5, 2.0])
    obs = []
    for _ in range(k):
        basis = np.linalg.qr(r.normal(size=(4, 4)) + 1j * r.normal(size=(4, 4)))[0]
        obs.append((basis * levels) @ basis.conj().T)
    chain = retrodict.ObservableChain(obs)
    assert all(len(pairs) == outcomes for pairs in chain.spectra)
    _, ctx = _retrodiction_case(1, 0)
    want = retrodict.gamma_weak_factored(chain, ctx)
    counts = []
    chain.spectra = [[(ev, _CountingProjector(proj, counts)) for ev, proj in pairs]
                     for pairs in chain.spectra]
    meter = retrodict.MemoryMeter()
    assert retrodict.gamma_weak_factored(chain, ctx, meter) == want
    assert len(counts) == sum(outcomes ** level for level in range(1, k + 1))
    assert set(counts) == {(2, 4)}
    assert (meter.peak, meter.live_complex_entries) == (2 * k * 4, 0)


def test_oracles_stay_test_only():
    """No package module or demo imports tests/oracles.py, so the oracles
    stay independent of the code they check."""
    root = Path(__file__).resolve().parents[1]
    offenders = []
    for path in sorted([*(root / "src" / "otoclab").glob("*.py"), *(root / "demos").glob("*.py")]):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = [node.module or ""] + [alias.name for alias in node.names]
            else:
                continue
            if any("oracles" in name.split(".") for name in names):
                offenders.append(f"{path.relative_to(root)}:{node.lineno}")
    assert offenders == []

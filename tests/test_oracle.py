"""Independent routes to the coarse quasiprobability, checked against each other.

The entries A~(v1, w2, v2, w3) are reachable five ways: coarse-graining
the fine-grained tensor, the explicit four-projector trace, the word
expansion in the lab frame (coarse_quasiprob_via_correlators), the
energy-frame series, and exact inversion of the three-weak measurement
records. Each serves as the others' oracle. The word expansion, one signed
table applied to the traces Tr(word rho) of alternating words in W(t) and
V, also gives the coarse series, the k-fold series and the Brownian
entries, so the k-fold series is checked against explicit lab-frame
products of 2k projectors recovered by eigendecomposition, as are the
time-ordered and regulated series. The series contract a state by its form
(energy-frame weights, a vector psi, or a density matrix), and each form is
checked against the lab-frame routes on its dense rho. W and V enter the
series as matrices or as spin.PauliString tables, and the tables are
checked against their matrices and the same lab-frame routes.
"""
from __future__ import annotations

import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from otoclab import brownian, cli, qla, quasiprob, spin, weakmeas

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
    return [spin.eigenprojector(o, s) for s in (-1.0, 1.0)]


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


@settings(max_examples=15, deadline=None)
@given(series_instances(), st.sampled_from([2, 3, 4]))
def test_kfold_series_matches_lab_frame_products(instance, khat):
    rho, w, v, h, times = instance
    f_k, dist = quasiprob.kfold_series(rho, w, v, h, times, khat)
    pv = pm_projectors(v)
    for i, t in enumerate(times):
        u = lab_exp(h, -1j * t)
        wt = u.conj().T @ w @ u
        assert abs(f_k.values[i] - np.trace(rho @ np.linalg.matrix_power(wt @ v, khat))) < TOL
        pw = pm_projectors(wt)
        for idx in np.ndindex(dist.values.shape[1:]):
            # slots (v1, w2, v2, w3, ...) act on rho in chronological order
            acc = rho
            for slot, k in enumerate(idx):
                acc = (pw if slot % 2 else pv)[k] @ acc
            assert abs(dist.values[(i,) + idx] - np.trace(acc)) < TOL


@settings(max_examples=15, deadline=None)
@given(series_instances(), st.floats(min_value=0.3, max_value=5.0))
def test_regulated_series_matches_explicit_u_reg(instance, temperature):
    _, w, v, h, times = instance
    dist, f_reg = quasiprob.regulated_series(h, temperature, w, v, times)
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
        assert abs(f_reg.values[i] - want) < TOL


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
    dist, f_reg = quasiprob.regulated_series(h, temperature, w, v, times)
    assert max_dev(dist.values.sum(axis=(1, 2, 3, 4)), 1.0) < 1e-9
    assert max_dev(quasiprob.otoc_moment(dist), f_reg.values) < 1e-10
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
        assert abs(f_reg.values[i] - want) < TOL


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
        return np.trace(spin.eigenprojector(w, w3) @ spin.eigenprojector(v, v2)
                        @ spin.eigenprojector(w, w2) @ spin.eigenprojector(v, v1) @ state)

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
    _, report = weakmeas.infer_coarse_quasiprob(records)
    for w3 in (-1.0, 1.0):
        traces = report.background[(w3,)]["identity_column"]
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
            *quasiprob.kfold_series(state, w, v, sys, times, 2),
            *quasiprob.kfold_series(state, w, v, sys, times, 3))


def _assert_lab_frame(series, rho, w, v, h, times):
    """The series of _word_series against the lab-frame F, entries and F_3
    for the matrices W and V."""
    f, coarse, f2, two, f3, three = series
    for i, t in enumerate(times):
        want_f = quasiprob.otoc(rho, w, v, h, t)
        want = quasiprob.coarse_quasiprob(rho, w, v, h, t).values
        assert abs(f.values[i] - want_f) < TOL
        assert abs(f2.values[i] - want_f) < TOL
        assert max_dev(coarse.values[i], want) < TOL
        assert max_dev(two.values[i], want) < TOL
        # the last two projectors of the six-slot entries resolve the identity
        assert max_dev(three.values[i].sum(axis=(-2, -1)), want) < TOL
        u = lab_exp(h, -1j * t)
        wt = u.conj().T @ w @ u
        assert abs(f3.values[i] - np.trace(rho @ np.linalg.matrix_power(wt @ v, 3))) < TOL


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
    checked on the table, give what their matrices give."""
    w, v, h = chain
    sys = qla.eigh(h)
    state, rho = _lab_and_compact_states(h, sys, np.random.default_rng(seed))[form]
    from_strings = _word_series(state, w, v, sys, times)
    from_matrices = _word_series(state, w.matrix(), v.matrix(), sys, times)
    for a, b in zip(from_strings, from_matrices):
        assert max_dev(a.values, b.values) < TOL
    _assert_lab_frame(from_strings, rho, w.matrix(), v.matrix(), h, times)


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
    for sys in (qla.eigh(ham, symmetry=spin.reflection(n)), qla.eigh(ham)):
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
        quasiprob.coarse_quasiprob_via_correlators(rho, w, v, h, 0.5)
    with pytest.raises(ValueError):
        quasiprob.kfold_otoc_and_quasiprob(rho, w, v, h, 0.5, 2)
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
        quasiprob.coarse_quasiprob_via_correlators(rho, w, v, h, 0.5)
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


@pytest.mark.parametrize("operand", ["w", "v"])
@pytest.mark.parametrize("scale", [1j, 2.0], ids=["not Hermitian", "no involution"])
def test_strings_off_the_involutions_behave_as_their_matrices(scale, operand):
    """phase x 1j is not Hermitian, phase x 2 squares to 4: each series
    rejects the scaled string exactly where it rejects its matrix, with
    the same message, and otherwise returns the same values."""
    h = spin.ising_hamiltonian(spin.SpinChainSpec(n=2, j=1.0, h=0.5, g=1.05))
    ops = {"w": spin.pauli_string(2, [(1, "x")]), "v": spin.pauli_string(2, [(2, "y")])}
    ops[operand] = spin.PauliString(ops[operand].mask, scale * ops[operand].phase)
    rho = np.eye(4) / 4
    calls = {
        "otoc": lambda w, v: quasiprob.otoc_series(rho, w, v, h, [0.0, 0.5]).values,
        "coarse": lambda w, v: quasiprob.coarse_quasiprob_series(rho, w, v, h, [0.5]).values,
        "kfold": lambda w, v: quasiprob.kfold_series(rho, w, v, h, [0.5], 2)[0].values,
        "toc": lambda w, v: quasiprob.toc_series(rho, w, v, h, [0.5])[0].values,
    }

    def outcome(call, w, v):
        try:
            return call(w, v)
        except ValueError as exc:
            return str(exc)

    outcomes = []
    for name, call in calls.items():
        string = outcome(call, ops["w"], ops["v"])
        matrix = outcome(call, ops["w"].matrix(), ops["v"].matrix())
        outcomes.append(isinstance(matrix, str))
        if isinstance(matrix, str):
            assert string == matrix, name
        else:
            assert max_dev(string, matrix) < TOL, name
    # kfold always rejects; otoc_series rejects the non-Hermitian operand only
    assert outcomes[2] and outcomes[0] == (scale == 1j)


def test_dense_rho_with_a_zero_diagonal_is_not_read_as_equal_weights():
    """rho = X_1 has a constant (zero) diagonal and d nonzeros, all off the
    diagonal; it is not c 1 and must take the dense contraction."""
    h = spin.ising_hamiltonian(spin.SpinChainSpec(n=2, j=1.0, h=0.3, g=0.7))
    w, v = spin.site_pauli(2, 1, "z"), spin.site_pauli(2, 2, "z")
    rho = spin.site_pauli(2, 1, "x")
    want_f = quasiprob.otoc(rho, w, v, h, 0.7)
    want = quasiprob.coarse_quasiprob(rho, w, v, h, 0.7).values
    assert abs(want_f) > 1e-4 and np.max(np.abs(want)) > 0.5
    assert abs(quasiprob.otoc_series(rho, w, v, h, [0.7]).values[0] - want_f) < TOL
    assert max_dev(quasiprob.coarse_quasiprob_series(rho, w, v, h, [0.7]).values[0], want) < TOL

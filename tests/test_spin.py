from __future__ import annotations

import tracemalloc

import numpy as np
import pytest

from otoclab import brownian, qla, spin


class TestPauliAlgebra:
    def test_commutation_relations(self):
        x, y, z = spin.PAULI_X, spin.PAULI_Y, spin.PAULI_Z
        assert np.allclose(x @ y - y @ x, 2j * z)
        assert np.allclose(y @ z - z @ y, 2j * x)
        assert np.allclose(z @ x - x @ z, 2j * y)

    def test_involutory(self):
        for p in spin.PAULI.values():
            assert np.allclose(p @ p, np.eye(2))

    def test_site_pauli_locality(self):
        n = 3
        a = spin.site_pauli(n, 1, "z")
        b = spin.site_pauli(n, 3, "x")
        assert a.shape == (8, 8)
        # distinct sites commute
        assert np.max(np.abs(a @ b - b @ a)) == 0.0
        # same site anticommutes across axes
        c = spin.site_pauli(n, 1, "x")
        assert np.max(np.abs(a @ c + c @ a)) == 0.0

    def test_site_pauli_guards(self):
        with pytest.raises(ValueError):
            spin.site_pauli(3, 0, "z")
        with pytest.raises(ValueError):
            spin.site_pauli(3, 4, "z")
        with pytest.raises(ValueError):
            spin.site_pauli(3, 1, "q")


def test_chain_spec_validation():
    with pytest.raises(ValueError):
        spin.SpinChainSpec(n=1)
    with pytest.raises(ValueError):
        spin.SpinChainSpec(n=3, j=0.0)
    spec = spin.SpinChainSpec(n=4, j=1.0, h=0.5, g=1.05)
    assert spec.dim == 16


def test_ising_hamiltonian_two_sites_explicit():
    """Frozen 4x4 matrix for n=2, J=1, h=0.5, g=1.05.

    Basis |00>, |01>, |10>, |11> with site 1 on the leading bit and bit 0
    meaning spin up: the zz bond gives diag(1, -1, -1, 1), the z field
    diag(2, 0, 0, -2), and the x field connects single-flip pairs.
    """
    spec = spin.SpinChainSpec(n=2, j=1.0, h=0.5, g=1.05)
    got = spin.ising_hamiltonian(spec)
    want = np.array(
        [
            [-2.0, -1.05, -1.05, 0.0],
            [-1.05, 1.0, 0.0, -1.05],
            [-1.05, 0.0, 1.0, -1.05],
            [0.0, -1.05, -1.05, 0.0],
        ],
        dtype=complex,
    )
    assert np.max(np.abs(got - want)) == 0.0


def _kron_string(n, factors):
    """Oracle: np.kron of spin.PAULI factors {site: axis}, identity elsewhere."""
    out = np.eye(1, dtype=complex)
    for s in range(1, n + 1):
        out = np.kron(out, spin.PAULI.get(factors.get(s), np.eye(2)))
    return out


def _kron_hamiltonian(spec):
    n = spec.n
    ham = np.zeros((spec.dim, spec.dim), dtype=complex)
    for s in range(1, n):
        ham -= spec.j * _kron_string(n, {s: "z", s + 1: "z"})
    for s in range(1, n + 1):
        if spec.h != 0.0:
            ham -= spec.h * _kron_string(n, {s: "z"})
        if spec.g != 0.0:
            ham -= spec.g * _kron_string(n, {s: "x"})
    return ham


def test_pauli_table_matches_kronecker_products():
    """Site Paulis, the Brownian pair strings (in pair_paulis order) and the
    Hamiltonian, all built from (mask, phase) strings, equal the dense
    Kronecker products of their factors exactly."""
    rng = np.random.default_rng(17)
    for n in range(2, 6):
        for site in range(1, n + 1):
            for axis in "xyz":
                assert np.array_equal(spin.site_pauli(n, site, axis),
                                      _kron_string(n, {site: axis}))
        pairs = [{i: a, j: b} for i in range(1, n + 1) for j in range(i + 1, n + 1)
                 for a in "1xyz" for b in "1xyz"]
        masks, phases = spin.pair_pauli_strings(n)
        dense = brownian.pair_paulis(n)
        assert len(masks) == len(phases) == len(dense) == len(pairs)
        for mask, phase, op, factors in zip(masks, phases, dense, pairs):
            want = _kron_string(n, factors)
            assert np.array_equal(spin.pauli_matrix(mask, phase), want)
            assert np.array_equal(op, want)
        fields = [(rng.normal(), rng.normal()), (0.0, rng.normal()),
                  (rng.normal(), 0.0), (0.0, 0.0)]
        for h, g in fields:
            spec = spin.SpinChainSpec(n=n, j=rng.uniform(0.1, 2.0), h=h, g=g)
            assert np.array_equal(spin.ising_hamiltonian(spec), _kron_hamiltonian(spec))


class TestPauliString:
    def test_table_tests_equal_the_dense_ones(self):
        """Hermiticity and involution defects taken on the (mask, phase)
        table equal the dense tests on the matrix, for Pauli strings and
        for strings scaled off the Hermitian involutions."""
        rng = np.random.default_rng(23)
        for _ in range(40):
            n = int(rng.integers(2, 5))
            sites = rng.choice(np.arange(1, n + 1), size=int(rng.integers(1, n + 1)),
                               replace=False)
            factors = {int(s): str(rng.choice(list("1xyz"))) for s in sites}
            p = spin.pauli_string(n, list(factors.items()))
            assert np.array_equal(p.matrix(), _kron_string(n, factors))
            for scale in (1.0, 1j, 2.0, np.exp(0.3j), -1.0 + 1e-11):
                q = spin.PauliString(p.mask, scale * p.phase)
                m = q.matrix()
                assert q.hermiticity_defect() == qla.hermiticity_defect(m)
                assert q.involution_defect() == pytest.approx(
                    np.max(np.abs(m @ m - np.eye(q.dim))), abs=1e-15)
            assert p.hermiticity_defect() == p.involution_defect() == 0.0

    def test_phase_keeps_its_dtype_and_is_read_only(self):
        z, y = spin.pauli_string(3, [(2, "z")]), spin.pauli_string(3, [(2, "y")])
        assert z.phase.dtype == float and y.phase.dtype == complex
        assert (z.dim, z.mask, y.mask) == (8, 0, 0b010)
        with pytest.raises(ValueError):
            z.phase[0] = 2.0

    @pytest.mark.parametrize("mask,phase", [(0, np.ones(3)), (4, np.ones(4)),
                                            (-1, np.ones(4)), (0, [1.0, np.nan]),
                                            (0, np.ones((2, 2))), (0, [])])
    def test_rejects_malformed_tables(self, mask, phase):
        with pytest.raises(ValueError):
            spin.PauliString(mask, phase)


def test_dense_cap_refuses_13_sites_before_allocating():
    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match="capped at 12 qubits"):
            spin.SpinChainSpec(n=13)
        with pytest.raises(ValueError, match="capped at 12 qubits"):
            spin.site_pauli(13, 1, "z")
        with pytest.raises(ValueError, match="capped at 12 qubits"):
            spin.pauli_string(13, [(1, "x")])
        with pytest.raises(ValueError, match="capped at 12 qubits"):
            spin.pair_pauli_strings(13)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # a 13-site dense matrix would take 1 GiB, and even its index vector 64 KiB
    assert peak < 2**16
    assert spin.SpinChainSpec(n=12).dim == qla.MAX_DIM


def test_reflection_reverses_the_site_order():
    for n in range(2, 7):
        sym = spin.reflection(n)
        assert [format(k, f"0{n}b") for k in sym] == [format(k, f"0{n}b")[::-1]
                                                    for k in range(2**n)]
        assert np.array_equal(sym[sym], np.arange(2**n))
        for s in range(1, n + 1):
            z = spin.site_pauli(n, s, "z")
            assert np.array_equal(z[np.ix_(sym, sym)], spin.site_pauli(n, n + 1 - s, "z"))


def test_ising_hamiltonian_is_hermitian_and_open():
    h = spin.ising_hamiltonian(spin.SpinChainSpec(n=4, j=1.0, h=0.5, g=1.05))
    assert qla.hermiticity_defect(h) == 0.0
    # open boundaries: no bond between site 4 and site 1, so flipping both
    # edge spins together costs the same zz energy as predicted by 3 bonds
    zz_edges = spin.site_pauli(4, 1, "z") @ spin.site_pauli(4, 4, "z")
    # trace against the would-be wrap bond vanishes for the open chain
    assert abs(np.trace(h @ zz_edges)) < 1e-12


class TestStates:
    def test_thermal_infinite_temperature(self):
        h = spin.ising_hamiltonian(spin.SpinChainSpec(n=2, j=1.0, h=0.5, g=1.05))
        rho = spin.thermal_state(h, np.inf)
        assert np.max(np.abs(rho - np.eye(4) / 4)) == 0.0

    def test_thermal_finite_temperature(self):
        h = spin.ising_hamiltonian(spin.SpinChainSpec(n=2, j=1.0, h=0.5, g=1.05))
        rho = spin.thermal_state(h, 1.0)
        assert abs(np.trace(rho) - 1.0) < 1e-12
        assert qla.hermiticity_defect(rho) < 1e-12
        evs = np.linalg.eigvalsh(rho)
        assert np.all(evs > 0)
        # colder state has more weight on the ground state
        cold = spin.thermal_state(h, 0.1)
        sys = qla.eigh(h)
        g = sys.eigenvectors[:, 0]
        assert np.real(g.conj() @ cold @ g) > np.real(g.conj() @ rho @ g)

    def test_thermal_from_eigensystem_is_bitwise_the_same(self):
        h = spin.ising_hamiltonian(spin.SpinChainSpec(n=3, j=1.0, h=0.5, g=1.05))
        sys = qla.eigh(h)
        for temperature in (0.5, 2.0, np.inf):
            got = spin.thermal_state(sys, temperature)
            assert got.tobytes() == spin.thermal_state(h, temperature).tobytes()

    def test_thermal_rejects_nonpositive(self):
        h = np.diag([0.0, 1.0]).astype(complex)
        with pytest.raises(ValueError):
            spin.thermal_state(h, -1.0)

    def test_plus_x_product_state(self):
        rho = spin.product_plus_x_state(3)
        assert abs(np.trace(rho) - 1.0) < 1e-12
        assert np.max(np.abs(rho @ rho - rho)) < 1e-12  # pure
        for site in (1, 2, 3):
            sx = spin.site_pauli(3, site, "x")
            assert np.real(np.trace(rho @ sx)) == pytest.approx(1.0, abs=1e-12)


def test_eigenprojector_completeness():
    w = spin.site_pauli(3, 2, "z")
    p_plus = spin.eigenprojector(w, 1.0)
    p_minus = spin.eigenprojector(w, -1.0)
    assert np.max(np.abs(p_plus + p_minus - np.eye(8))) < 1e-12
    assert np.max(np.abs(p_plus @ p_minus)) < 1e-12
    assert np.max(np.abs(w - p_plus + p_minus)) < 1e-12
    with pytest.raises(ValueError):
        spin.eigenprojector(w, 0.5)


class TestLocalEigenbasis:
    def test_matches_operator(self):
        n, site = 3, 2
        evals, cols, labels = spin.local_eigenbasis(n, site, "z")
        w = spin.site_pauli(n, site, "z")
        assert np.max(np.abs(w @ cols - cols * evals)) < 1e-12
        # orthonormal and complete
        assert np.max(np.abs(cols.conj().T @ cols - np.eye(8))) < 1e-12
        # ascending blocks, configurations ascending inside each block
        assert np.array_equal(evals, np.array([-1.0] * 4 + [1.0] * 4))
        assert np.array_equal(labels, np.array([0, 1, 2, 3, 0, 1, 2, 3]))

    def test_agrees_with_fixed_eigh_basis(self):
        n, site = 2, 1
        _, cols, _ = spin.local_eigenbasis(n, site, "z")
        sys = qla.eigh(spin.site_pauli(n, site, "z"))
        assert np.max(np.abs(cols - sys.eigenvectors)) < 1e-12

    def test_label_text(self):
        assert spin.config_label_text(3, 1, 2) == "10"
        assert spin.config_label_text(4, 2, 5) == "101"

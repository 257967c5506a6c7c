from __future__ import annotations

import tracemalloc

import numpy as np
import pytest

from otoclab import qla, quasiprob, spin

import oracles


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
        dense = oracles.pair_paulis(n)
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
        # a phase with no imaginary part is real, however it was written
        yy = spin.pauli_string(3, [(1, "y"), (2, "y")])
        assert yy.phase.dtype == float
        assert spin.PauliString(0, z.phase.astype(complex)).phase.dtype == float
        assert (z.dim, z.mask, y.mask) == (8, 0, 0b010)
        with pytest.raises(ValueError):
            z.phase[0] = 2.0

    @pytest.mark.parametrize("mask,phase", [(0, np.ones(3)), (4, np.ones(4)),
                                            (-1, np.ones(4)), (0, [1.0, np.nan]),
                                            (0, np.ones((2, 2))), (0, [])])
    def test_rejects_malformed_tables(self, mask, phase):
        with pytest.raises(ValueError):
            spin.PauliString(mask, phase)


class TestAsPauliString:
    def test_a_string_matrix_gives_the_table_of_pauli_string(self):
        """Every site Pauli at n <= 4 and every two-site product comes back
        as pauli_string's table: its mask, its phases bit for bit and their
        dtype."""
        for n in range(1, 5):
            factors = [[(s, a)] for s in range(1, n + 1) for a in "1xyz"]
            factors += [[(s, a), (t, b)] for s in range(1, n + 1) for t in range(s + 1, n + 1)
                        for a in "1xyz" for b in "1xyz"]
            for f in factors:
                want = spin.pauli_string(n, f)
                got = spin.as_pauli_string(want.matrix())
                assert isinstance(got, spin.PauliString)
                assert got.mask == want.mask
                assert got.phase.dtype == want.phase.dtype
                assert np.array_equal(got.phase, want.phase)
                assert np.array_equal(np.signbit(got.phase.view(float)),
                                      np.signbit(want.phase.view(float)))

    def test_anything_else_comes_back_as_it_is(self):
        """No tolerance: every operator that is not exactly one string is
        returned as the same object."""
        n, d = 3, 8
        w = spin.site_pauli(n, 1, "z")
        x = spin.site_pauli(n, 2, "x")
        u = oracles.haar_unitary(d, 3)
        assert x[2, 0] == x[4, 6] == 1.0        # X_2 flips bit 0b010
        one_ulp = x.copy()
        one_ulp[2, 0] = np.nextafter(1.0, 2.0)
        tiny = x.copy()
        tiny[0, 0] = 5e-324                     # a second nonzero in column 0
        two = x.copy()
        two[1, 0] = 1.0
        modulus = x.copy()
        modulus[4, 6] = 1.5 * np.exp(0.3j)
        zero_column = x.copy()
        zero_column[:, 5] = 0.0
        swap = np.eye(4)[[0, 2, 1, 3]]          # a permutation with no single mask
        for op in (w + 2 * np.eye(d), u.conj().T @ w @ u, one_ulp, tiny, two, modulus,
                   zero_column, swap, 2 * x, x[:, :4], np.ones(d), np.eye(3),
                   np.zeros((0, 0)), np.full((d, d), np.nan)):
            assert spin.as_pauli_string(op) is op
        table = spin.pauli_string(n, [(1, "x")])
        assert spin.as_pauli_string(table) is table


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


def test_ising_hamiltonian_is_hermitian_and_open():
    h = spin.ising_hamiltonian(spin.SpinChainSpec(n=4, j=1.0, h=0.5, g=1.05))
    assert qla.hermiticity_defect(h) == 0.0
    # open boundaries: no bond between site 4 and site 1, so flipping both
    # edge spins together costs the same zz energy as predicted by 3 bonds
    zz_edges = spin.site_pauli(4, 1, "z") @ spin.site_pauli(4, 4, "z")
    # trace against the would-be wrap bond vanishes for the open chain
    assert abs(np.trace(h @ zz_edges)) < 1e-12


class TestStates:
    def test_plus_x_product_state(self):
        rho = quasiprob.density_matrix(spin.product_plus_x_vector(3))
        assert abs(np.trace(rho) - 1.0) < 1e-12
        assert np.max(np.abs(rho @ rho - rho)) < 1e-12  # pure
        for site in (1, 2, 3):
            sx = spin.site_pauli(3, site, "x")
            assert np.real(np.trace(rho @ sx)) == pytest.approx(1.0, abs=1e-12)


from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from otoclab import qla, quasiprob, spin

import oracles


def test_as_square_array_rejects_bad_shapes():
    with pytest.raises(ValueError):
        qla.as_square_array(np.ones((2, 3)))
    with pytest.raises(ValueError):
        qla.as_square_array(np.ones(4))
    with pytest.raises(ValueError):
        qla.as_square_array(np.array([[np.nan, 0], [0, 1]]))


def test_assert_hermitian_defect_gate():
    ok = np.array([[1.0, 2j], [-2j, 3.0]])
    qla.assert_hermitian(ok)
    bad = np.array([[1.0, 1.0], [0.0, 1.0]])
    with pytest.raises(ValueError, match="not Hermitian"):
        qla.assert_hermitian(bad)
    assert qla.hermiticity_defect(bad) == pytest.approx(1.0)


def test_unitarity_checks():
    theta = 0.7
    u = np.array([[np.cos(theta), -np.sin(theta)], [np.sin(theta), np.cos(theta)]])
    assert qla.unitarity_defect(u) < 1e-15
    oracles.assert_unitary(u)
    with pytest.raises(ValueError, match="not unitary"):
        oracles.assert_unitary(2 * u)


class TestEigh:
    def test_reconstruction_and_ordering(self, make_hermitian):
        h = make_hermitian(6)
        sys = qla.eigh(h)
        assert np.all(np.diff(sys.eigenvalues) >= 0)
        assert np.max(np.abs(sys.reconstruct() - h)) < 1e-12
        overlap = sys.eigenvectors.conj().T @ sys.eigenvectors
        assert np.max(np.abs(overlap - np.eye(6))) < 1e-12

    def test_deterministic_basis_in_degenerate_blocks(self):
        # sigma_z on site 1 of two sites: eigenvalues (-1, -1, +1, +1)
        h = np.kron(np.diag([1.0, -1.0]), np.eye(2)).astype(complex)
        a = qla.eigh(h)
        b = qla.eigh(h.copy())
        assert np.array_equal(a.eigenvectors, b.eigenvectors)
        assert a.degenerate_groups() == [(0, 2), (2, 4)]
        # the fixed basis still reconstructs the operator
        assert np.max(np.abs(a.reconstruct() - h)) < 1e-12

    def test_nearly_parallel_projections_stay_orthonormal(self):
        # W(t) = U^dag X_3 U at t = 1/64 on the n=3 chain: the projected
        # computational-basis vectors of each eigenspace are nearly
        # parallel, which one Gram-Schmidt pass left 3.8e-9 off orthonormal
        h = spin.ising_hamiltonian(spin.SpinChainSpec(n=3, j=1.0, h=0.0, g=1.0))
        u = quasiprob.propagator(h, 1 / 64)
        wt = u.conj().T @ spin.site_pauli(3, 3, "x") @ u
        vecs = qla.eigh(wt).eigenvectors
        assert np.max(np.abs(vecs.conj().T @ vecs - np.eye(8))) <= 1e-13
        for sign in (1.0, -1.0):
            want = (np.eye(8) + sign * wt) / 2
            assert np.max(np.abs(oracles.eigenprojector(wt, sign) - want)) <= 1e-13

    def test_propagator_unitary_and_correct(self, make_hermitian):
        h = make_hermitian(5)
        sys = qla.eigh(h)
        u = sys.propagator(-1j * 0.37)
        assert qla.unitarity_defect(u) < 1e-12
        # group law
        u2 = sys.propagator(-1j * 0.74)
        assert np.max(np.abs(u @ u - u2)) < 1e-12

    def test_rejects_non_hermitian(self):
        with pytest.raises(ValueError):
            qla.eigh(np.array([[0.0, 1.0], [0.0, 0.0]]))


def _scalar_phase_fixed_eigh(h):
    """The per-column convention written out with Python scalars."""
    evals, evecs = np.linalg.eigh(h)
    out = evecs.copy()
    for k in range(evecs.shape[1]):
        col = evecs[:, k]
        c = col[int(np.argmax(np.abs(col)))]
        out[:, k] = col * (c.conjugate() / abs(c))
    return evals, out


class TestStackedEigh:
    def test_single_matrix_keeps_the_scalar_convention_bitwise(self, make_hermitian):
        for dim in (2, 5, 32):
            h = make_hermitian(dim)
            evals, evecs = _scalar_phase_fixed_eigh(h)
            sys = qla.eigh(h)
            assert np.array_equal(sys.eigenvalues, evals)
            assert np.array_equal(sys.eigenvectors, evecs)
            want = (evecs * np.exp(-0.4j * evals)) @ evecs.conj().T
            assert np.array_equal(qla.expm_scaled(h, -0.4j), want)

    def test_stack_matches_per_matrix_calls_up_to_the_basis(self, make_hermitian):
        stack = np.array([[make_hermitian(6) for _ in range(3)] for _ in range(2)])
        sys = qla.eigh(stack)
        assert sys.eigenvalues.shape == (2, 3, 6)
        assert sys.eigenvectors.shape == (2, 3, 6, 6)
        assert sys.dim == 6
        props = qla.expm_scaled(stack, -0.7j)
        for i in range(2):
            for j in range(3):
                one, vecs = qla.eigh(stack[i, j]), sys.eigenvectors[i, j]
                assert np.array_equal(sys.eigenvalues[i, j], one.eigenvalues)
                assert np.max(np.abs(vecs.conj().T @ vecs - np.eye(6))) < 1e-12
                # a nondegenerate column is the per-matrix one times a unit phase
                phases = np.sum(one.eigenvectors.conj() * vecs, axis=0)
                assert np.max(np.abs(np.abs(phases) - 1)) < 1e-12
                assert np.max(np.abs(vecs - one.eigenvectors * phases)) < 1e-12
                assert np.max(np.abs(props[i, j] - qla.expm_scaled(stack[i, j], -0.7j))) < 1e-14
        assert np.max(np.abs(sys.reconstruct() - stack)) < 1e-12
        assert qla.unitarity_defect(props) < 1e-12

    def test_degenerate_member_spans_the_per_matrix_eigenspaces(self, make_hermitian):
        degenerate = np.kron(np.diag([1.0, -1.0]), np.eye(2)).astype(complex)
        rotated = oracles.haar_unitary(4, 5)
        degenerate = rotated @ degenerate @ rotated.conj().T
        stack = np.array([make_hermitian(4), degenerate, make_hermitian(4)])
        sys = qla.eigh(stack)
        one = qla.eigh(degenerate)
        assert one.degenerate_groups() == [(0, 2), (2, 4)]
        for a, b in one.degenerate_groups():
            got = sys.eigenvectors[1][:, a:b]
            want = one.eigenvectors[:, a:b]
            assert np.max(np.abs(got @ got.conj().T - want @ want.conj().T)) < 1e-12
        assert np.max(np.abs(qla.expm_scaled(stack, -1j)[1]
                             - qla.expm_scaled(degenerate, -1j))) < 1e-14
        # a single matrix's block is Gram-Schmidt over the projected basis vectors e_0, e_1
        for block, sign in ((slice(0, 2), -1.0), (slice(2, 4), 1.0)):
            proj = (np.eye(4) + sign * degenerate) / 2
            first = proj[:, 0] / np.linalg.norm(proj[:, 0])
            second = proj[:, 1] - (first.conj() @ proj[:, 1]) * first
            want = np.column_stack([first, second / np.linalg.norm(second)])
            assert np.max(np.abs(one.eigenvectors[:, block] - want)) < 1e-12
        with pytest.raises(ValueError, match="stack"):
            sys.degenerate_groups()

    def test_one_bad_member_rejects_the_stack(self, make_hermitian):
        stack = np.array([make_hermitian(3) for _ in range(4)])
        skewed = stack.copy()
        skewed[2, 0, 1] += 1e-6
        with pytest.raises(ValueError, match="not Hermitian"):
            qla.eigh(skewed)
        with pytest.raises(ValueError, match="not Hermitian"):
            qla.expm_scaled(skewed, -1j)
        poisoned = stack.copy()
        poisoned[1, 2, 2] = np.nan
        with pytest.raises(ValueError, match="NaN"):
            qla.eigh(poisoned)
        with pytest.raises(ValueError, match="square"):
            qla.eigh(np.zeros((2, 3, 4)))

    def test_stacks_only_where_asked(self, make_hermitian):
        stack = np.array([make_hermitian(3) for _ in range(2)])
        with pytest.raises(ValueError, match="square"):
            qla.as_square_array(stack)
        with pytest.raises(ValueError, match="square"):
            qla.assert_hermitian(stack)
        assert qla.as_square_array(stack, stack=True).shape == (2, 3, 3)
        assert qla.hermiticity_defect(stack) < 1e-15


def _largest_entries_are_positive(vecs) -> bool:
    k = np.argmax(np.abs(vecs), axis=0)
    top = vecs[k, np.arange(vecs.shape[1])]
    return bool(np.all(top.real > 0) and np.all(top.imag == 0))


class TestRealFrame:
    def test_real_hamiltonian_gets_real_eigenvectors(self):
        h = spin.ising_hamiltonian(spin.SpinChainSpec(n=4, j=1.0, h=0.5, g=1.05))
        assert h.dtype == float
        sys = qla.eigh(h)
        assert np.isrealobj(sys.eigenvectors)
        evals, _ = _scalar_phase_fixed_eigh(h.astype(complex))  # the complex route
        assert np.max(np.abs(sys.eigenvalues - evals)) <= 1e-13
        assert _largest_entries_are_positive(sys.eigenvectors)
        assert np.max(np.abs(sys.reconstruct() - h)) < 1e-12
        assert np.max(np.abs(sys.eigenvectors.T @ sys.eigenvectors - np.eye(16))) < 1e-12

    def test_real_route_keeps_the_phase_convention(self, rng):
        a = rng.normal(size=(12, 12))
        h = a + a.T
        sys = qla.eigh(h)
        evals, evecs = _scalar_phase_fixed_eigh(h.astype(complex))
        assert np.isrealobj(sys.eigenvectors)
        assert np.max(np.abs(sys.eigenvalues - evals)) <= 1e-13
        assert np.max(np.abs(sys.eigenvectors - evecs)) < 1e-10

    def test_real_degenerate_blocks_get_the_deterministic_basis(self):
        h = np.diag([1.0, -1.0, 1.0, -1.0])
        sys = qla.eigh(h)
        assert np.isrealobj(sys.eigenvectors)
        assert np.array_equal(sys.eigenvectors, np.eye(4)[:, [1, 3, 0, 2]])

    def test_stacks_keep_complex_eigenvectors_as_lapack_gives_them(self, rng):
        members = [rng.normal(size=(6, 6)) for _ in range(3)]
        stack = np.array([m + m.T for m in members], dtype=complex)
        sys = qla.eigh(stack)
        assert np.iscomplexobj(sys.eigenvectors)
        for k in range(3):
            evals, evecs = np.linalg.eigh(stack[k])
            assert np.array_equal(sys.eigenvalues[k], evals)
            assert np.array_equal(sys.eigenvalues[k], _scalar_phase_fixed_eigh(stack[k])[0])
            assert np.array_equal(sys.eigenvectors[k], evecs)

    def test_real_valued_matrices_are_checked_in_real_arithmetic(self, rng, monkeypatch):
        a = rng.normal(size=(6, 6))
        for m in (a, a + a.T):
            assert qla.hermiticity_defect(m) == qla.hermiticity_defect(m.astype(complex))
        with pytest.raises(ValueError, match="NaN"):
            qla.hermiticity_defect(np.array([[0.0, np.inf], [np.inf, 0.0]]))
        with pytest.raises(ValueError, match="not Hermitian"):
            qla.eigh(a.astype(complex))
        real = qla.hermiticity_defect
        dtypes = []
        monkeypatch.setattr(qla, "hermiticity_defect",
                            lambda m: dtypes.append(np.asarray(m).dtype) or real(m))
        h = spin.ising_hamiltonian(spin.SpinChainSpec(n=3, j=1.0, h=0.5, g=1.05))
        herm = a + a.T + 1j * (a - a.T)
        qla.eigh(h)
        qla.eigh(herm)
        qla.eigh(np.array([h, h]))
        assert dtypes == [np.dtype(float), np.dtype(complex), np.dtype(complex)]


def _projectors(sys):
    vecs = sys.eigenvectors
    return [vecs[:, a:b] @ vecs[:, a:b].conj().T for a, b in sys.degenerate_groups()]


def _sector_columns(sys, sym):
    """Columns that are exactly even (v[R] == v) and exactly odd (v[R] == -v)."""
    vecs = sys.eigenvectors
    even = [k for k in range(vecs.shape[1]) if np.array_equal(vecs[sym, k], vecs[:, k])]
    odd = [k for k in range(vecs.shape[1]) if np.array_equal(vecs[sym, k], -vecs[:, k])]
    return even, odd


class TestSectorRoute:
    @pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
    def test_uniform_chains_take_the_sector_route(self, n, rng):
        """Non-dyadic fields: R H R equals H to rounding, not bitwise."""
        sym = qla.bit_reversal(2**n)
        for _ in range(4):
            spec = spin.SpinChainSpec(n=n, j=rng.uniform(0.5, 1.5), h=rng.uniform(-1.0, 1.0),
                                      g=rng.uniform(0.3, 1.5))
            h = spin.ising_hamiltonian(spec)
            full, sector = oracles.full_eigh(h), qla.eigh(h)
            even, odd = _sector_columns(sector, sym)
            assert len(odd) == (2**n - 2 ** ((n + 1) // 2)) // 2
            assert len(even) + len(odd) == 2**n
            assert np.array_equal(np.flatnonzero(sector.parities < 0), odd)
            assert np.isrealobj(sector.eigenvectors)
            assert _largest_entries_are_positive(sector.eigenvectors)
            assert np.max(np.abs(sector.eigenvalues - full.eigenvalues)) <= 1e-12
            assert sector.degenerate_groups() == full.degenerate_groups()
            for p_sector, p_full in zip(_projectors(sector), _projectors(full)):
                assert np.max(np.abs(p_sector - p_full)) <= 1e-10
            assert np.max(np.abs(sector.reconstruct() - h)) <= 1e-12

    def test_degenerate_groups_straddling_the_sectors_get_the_full_basis(self):
        """At g = 0 H is diagonal, and |r> and |Rr> share an energy, so each
        such group holds one even and one odd sector vector; rebuilt, the
        group has no parities."""
        h = spin.ising_hamiltonian(spin.SpinChainSpec(n=4, j=0.7, h=0.3, g=0.0))
        full, sector = oracles.full_eigh(h), qla.eigh(h)
        assert max(b - a for a, b in full.degenerate_groups()) > 1
        assert sector.parities is None
        assert sector.degenerate_groups() == full.degenerate_groups()
        assert np.max(np.abs(sector.eigenvalues - full.eigenvalues)) <= 1e-12
        assert np.max(np.abs(sector.eigenvectors - full.eigenvectors)) <= 1e-10

    def test_complex_hermitian_matrices_split_too(self, make_hermitian):
        a = make_hermitian(8)
        sym = qla.bit_reversal(8)
        h = a + a[np.ix_(sym, sym)]
        full, sector = oracles.full_eigh(h), qla.eigh(h)
        assert len(_sector_columns(sector, sym)[1]) == 2
        assert np.max(np.abs(sector.eigenvalues - full.eigenvalues)) <= 1e-12
        assert np.max(np.abs(sector.reconstruct() - h)) <= 1e-12

    def test_asymmetric_matrices_and_stacks_take_the_full_route(self):
        spec = spin.SpinChainSpec(n=4, j=1.0, h=0.5, g=1.05)
        h = spin.ising_hamiltonian(spec) - 0.3 * spin.site_pauli(4, 1, "z").real
        stack = np.array([h, h], dtype=complex)
        for got, want in ((qla.eigh(h), oracles.full_eigh(h)),
                          (qla.eigh(stack), qla.HermitianEigensystem(*np.linalg.eigh(stack)))):
            assert np.array_equal(got.eigenvalues, want.eigenvalues)
            assert np.array_equal(got.eigenvectors, want.eigenvectors)
            assert got.parities is None
        assert qla.eigh(np.array([spin.ising_hamiltonian(spec)] * 2)).parities is None

    @pytest.mark.parametrize("shift, sector", [(2 * qla.HERMITIAN_TOL, False),
                                               (qla.HERMITIAN_TOL / 2, True)],
                             ids=["twice the tolerance", "half the tolerance"])
    def test_one_moved_pair_decides_the_route_by_the_tolerance(self, shift, sector):
        """H[i, j] and H[j, i] moved together, with their mirror (Ri, Rj)
        left as it is: past HERMITIAN_TOL the full route, bitwise, within
        it the sector route, whose columns have exact parities."""
        n = 4
        sym = qla.bit_reversal(2**n)
        h = spin.ising_hamiltonian(spin.SpinChainSpec(n=n, j=1.0, h=0.5, g=1.05))
        i, j = 1, 3
        assert {sym[i], sym[j]} != {i, j} and h[i, j] != 0
        h[i, j] += shift
        h[j, i] += shift
        got = qla.eigh(h)
        even, odd = _sector_columns(got, sym)
        if sector:
            assert len(even) + len(odd) == 2**n
            assert np.array_equal(got.eigenvectors[sym], got.eigenvectors * got.parities)
            assert np.max(np.abs(got.reconstruct() - h)) <= 1e-12
        else:
            want = oracles.full_eigh(h)
            assert np.array_equal(got.eigenvalues, want.eigenvalues)
            assert np.array_equal(got.eigenvectors, want.eigenvectors)
            assert got.parities is None

    @pytest.mark.parametrize("h", [
        -np.eye(4), np.eye(8), np.diag([1.0, 2.0, 2.0, 3.0]),
        np.diag([2.0, -3.0, 5.0, 0.0, -3.0, 1.0, 0.0, 2.0]),
    ], ids=["minus one", "one at n=3", "small integers", "mirrored integers at n=3"])
    def test_dyadic_symmetric_matrices_get_exact_eigenvalues(self, h):
        """The fixed points of R enter the even sector as 2 H[f, f'] times
        exactly 1/2, so an exact reflection-symmetric diagonal comes back
        exact, on the fixed points as well."""
        sym = qla.bit_reversal(len(h))
        assert np.array_equal(h[np.ix_(sym, sym)], h)
        assert np.array_equal(qla.eigh(h).eigenvalues, np.sort(np.diag(h)))

    def test_the_diagonal_chain_gets_its_diagonal_exactly(self):
        """At g = 0 the chain is diagonal with entries that are sums of +-j
        and +-h, and its sector eigenvalues are those entries sorted."""
        h = spin.ising_hamiltonian(spin.SpinChainSpec(n=8, j=1.0, h=0.5, g=0.0))
        assert np.array_equal(qla.eigh(h).eigenvalues, np.sort(np.diag(h)))


def test_bit_reversal_reverses_the_site_order():
    for n in range(2, 7):
        sym = qla.bit_reversal(2**n)
        assert [format(k, f"0{n}b") for k in sym] == [format(k, f"0{n}b")[::-1]
                                                    for k in range(2**n)]
        assert np.array_equal(sym[sym], np.arange(2**n))
        for s in range(1, n + 1):
            z = spin.site_pauli(n, s, "z")
            assert np.array_equal(z[np.ix_(sym, sym)], spin.site_pauli(n, n + 1 - s, "z"))


def test_expm_scaled_closed_form():
    # exp(-i theta sigma_x) = cos(theta) 1 - i sin(theta) sigma_x
    sx = np.array([[0, 1], [1, 0]], dtype=complex)
    theta = 0.83
    got = qla.expm_scaled(theta * sx, -1j)
    want = np.cos(theta) * np.eye(2) - 1j * np.sin(theta) * sx
    assert np.max(np.abs(got - want)) < 1e-14


def test_expm_scaled_diagonal():
    h = np.diag([0.5, -1.5, 2.0]).astype(complex)
    got = qla.expm_scaled(h, -0.25)
    assert np.max(np.abs(got - np.diag(np.exp(-0.25 * np.diag(h))))) < 1e-14


class TestHaarSampling:
    def test_state_normalized_and_reproducible(self):
        v1 = qla.haar_random_state(8, 42)
        v2 = qla.haar_random_state(8, 42)
        assert np.array_equal(v1, v2)
        assert np.linalg.norm(v1) == pytest.approx(1.0, abs=1e-12)

    def test_generator_input_advances_stream(self):
        gen = np.random.default_rng(3)
        a = qla.haar_random_state(4, gen)
        b = qla.haar_random_state(4, gen)
        assert np.linalg.norm(a - b) > 1e-3

    def test_unitary_is_unitary(self):
        u = oracles.haar_unitary(7, 11)
        assert qla.unitarity_defect(u) < 1e-12

    def test_state_dim_guard(self):
        with pytest.raises(ValueError):
            qla.haar_random_state(0, 1)


@st.composite
def hermitian_matrices(draw):
    dim = draw(st.integers(min_value=2, max_value=6))
    flat = draw(
        st.lists(
            st.floats(min_value=-5, max_value=5, allow_nan=False),
            min_size=2 * dim * dim,
            max_size=2 * dim * dim,
        )
    )
    arr = np.array(flat[: dim * dim]) + 1j * np.array(flat[dim * dim:])
    m = arr.reshape(dim, dim)
    return (m + m.conj().T) / 2


@settings(max_examples=40, deadline=None)
@given(hermitian_matrices())
def test_eigh_property_reconstructs(h):
    sys = qla.eigh(h)
    scale = max(float(np.max(np.abs(h))), 1.0)
    assert np.max(np.abs(sys.reconstruct() - h)) < 1e-10 * scale
    assert np.all(np.diff(sys.eigenvalues) >= -1e-12 * scale)

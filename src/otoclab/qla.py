"""Dense complex linear algebra kernel.

Everything downstream (spin chains, quasiprobabilities, measurement
protocols) runs on plain numpy arrays. This module pins down the few
conventions the rest of the package relies on: Hermitian/unitary
tolerance checks, eigendecompositions with a deterministic basis inside
degenerate eigenspaces, and matrix exponentials computed spectrally so
that propagators are unitary by construction.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

# Dense matrices only; 2**12 caps the dimension (12 qubits) because the
# target systems stop at 10 sites and sparsity buys nothing at this scale.
MAX_DIM = 4096

HERMITIAN_TOL = 1e-12
UNITARY_TOL = 1e-10

# Relative eigenvalue spacing below which two eigenvalues are treated as
# one degenerate group when fixing the eigenbasis.
_DEGENERACY_RTOL = 1e-11
# A projected computational-basis vector shorter than this is considered
# already spanned during re-orthonormalization.
_SPAN_TOL = 1e-8


def _checked_square(m: np.ndarray, stack: bool) -> np.ndarray:
    if m.ndim < 2 or (m.ndim > 2 and not stack) or m.shape[-1] != m.shape[-2]:
        raise ValueError(f"expected a square matrix, got shape {m.shape}")
    if m.size == 0:
        raise ValueError("empty matrix")
    if not np.all(np.isfinite(m)):
        raise ValueError("matrix contains NaN or Inf entries")
    return m


def as_square_array(a, stack: bool = False) -> np.ndarray:
    """Coerce to a square complex ndarray and validate finiteness.

    stack=True also accepts a (..., d, d) stack of square matrices; every
    member is checked.
    """
    return _checked_square(np.asarray(a, dtype=complex), stack)


def dagger(a: np.ndarray) -> np.ndarray:
    """Conjugate transpose of a matrix, or of each member of a stack."""
    return np.swapaxes(np.asarray(a).conj(), -1, -2)


def hermiticity_defect(a) -> float:
    """Largest entry of |a - a^dag|, over every member of a stack. A float
    array is checked as it is, in real arithmetic; anything else as a
    complex array."""
    m = np.asarray(a)
    m = _checked_square(m, True) if m.dtype == float else as_square_array(m, stack=True)
    return float(np.max(np.abs(m - dagger(m))))


def _require_hermitian(m: np.ndarray) -> np.ndarray:
    defect = hermiticity_defect(m)
    if defect > HERMITIAN_TOL:
        raise ValueError(f"matrix is not Hermitian (defect {defect:.3e} > {HERMITIAN_TOL:.1e})")
    return m


def assert_hermitian(a) -> np.ndarray:
    return _require_hermitian(as_square_array(a))


def unitarity_defect(u) -> float:
    """Largest entry of |u^dag u - 1|, over every member of a stack."""
    m = as_square_array(u, stack=True)
    return float(np.max(np.abs(dagger(m) @ m - np.eye(m.shape[-1]))))


def assert_unitary(u, tol: float = UNITARY_TOL) -> np.ndarray:
    m = as_square_array(u)
    defect = unitarity_defect(m)
    if defect > tol:
        raise ValueError(f"matrix is not unitary (defect {defect:.3e} > {tol:.1e})")
    return m


@dataclass(frozen=True)
class HermitianEigensystem:
    """Ascending eigenvalues and a deterministically fixed eigenbasis.

    eigenvectors holds the basis as columns, aligned with eigenvalues; it
    is real for a real H (see eigh). For a (..., d, d) stack the arrays are
    (..., d) and (..., d, d), and propagator and reconstruct act member by
    member.
    """

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray

    @property
    def dim(self) -> int:
        return self.eigenvalues.shape[-1]

    def spectral(self, values) -> np.ndarray:
        """The matrix with the given eigenvalues in this eigenbasis."""
        return (self.eigenvectors * values[..., None, :]) @ dagger(self.eigenvectors)

    def propagator(self, z: complex) -> np.ndarray:
        """exp(z * H) for the decomposed H."""
        return self.spectral(np.exp(z * self.eigenvalues))

    def reconstruct(self) -> np.ndarray:
        return self.spectral(self.eigenvalues)

    def degenerate_groups(self) -> list[tuple[int, int]]:
        """Half-open column ranges [start, stop) of equal-eigenvalue blocks."""
        if self.eigenvalues.ndim != 1:
            raise ValueError("degenerate_groups needs a single matrix, not a stack")
        return _group_degenerate(self.eigenvalues)


def _group_degenerate(eigenvalues: np.ndarray) -> list[tuple[int, int]]:
    n = eigenvalues.shape[0]
    scale = max(float(np.max(np.abs(eigenvalues))), 1.0)
    tol = _DEGENERACY_RTOL * scale
    groups = []
    start = 0
    for k in range(1, n + 1):
        if k == n or eigenvalues[k] - eigenvalues[start] > tol:
            groups.append((start, k))
            start = k
    return groups


def _fix_degenerate_basis(block: np.ndarray) -> np.ndarray:
    """Deterministic orthonormal basis for the subspace spanned by block.

    Projects computational basis vectors onto the subspace in index order
    and Gram-Schmidts the survivors. The result depends only on the
    subspace, not on whatever basis the LAPACK backend happened to return,
    which keeps fine-grained outcome labels reproducible.

    A survivor that was nearly parallel to the earlier columns keeps their
    rounding error magnified by 1/norm, so it is projected back onto the
    subspace and orthogonalized once more before it is kept.
    """
    dim, m = block.shape
    proj = block @ block.conj().T
    cols: list[np.ndarray] = []

    def orthogonalized(v):
        for c in cols:
            v -= (c.conj() @ v) * c
        return v

    for i in range(dim):
        v = orthogonalized(proj[:, i].copy())
        norm = np.linalg.norm(v)
        if norm > _SPAN_TOL:
            v = orthogonalized(proj @ (v / norm))
            cols.append(v / np.linalg.norm(v))
            if len(cols) == m:
                break
    if len(cols) != m:
        raise RuntimeError("failed to span a degenerate eigenspace deterministically")
    return np.column_stack(cols)


def _fix_phase(vecs: np.ndarray) -> np.ndarray:
    """Rotate the largest-magnitude entry of every column to the positive
    real axis; vecs is (..., d, k) with nonzero columns."""
    k = np.argmax(np.abs(vecs), axis=-2)[..., None, :]
    c = np.take_along_axis(vecs, k, axis=-2)
    # np.hypot rounds like the scalar abs() this convention was defined
    # with; numpy's vectorised complex abs can differ in the last bit
    return vecs * (c.conj() / np.hypot(c.real, c.imag))


def eigh(h, symmetry=None) -> HermitianEigensystem:
    """Eigendecomposition of a Hermitian matrix with a reproducible basis.

    Eigenvalues come back ascending. Within each degenerate group the
    eigenvector basis is rebuilt from computational-basis projections in
    index order; nondegenerate columns get their largest-magnitude entry
    rotated to the positive real axis. Two calls on equal inputs return
    identical arrays, independent of LAPACK's internal choices.

    A single matrix with no imaginary part (a real symmetric H, such as
    the Ising chain's) is checked in real arithmetic, goes to the real
    solver and keeps real eigenvectors under the same conventions; its
    largest entries come out positive.

    symmetry, an involutive basis permutation R as an index array, splits a
    single h with max |R h R - h| <= HERMITIAN_TOL into even and odd sectors
    solved apart. A sector vector has |v[r]| = |v[Rr]|, so its largest entry
    is at the lower index and its sign may differ from the full route's;
    every reported quantity is blind to column signs.

    h may also be a (..., d, d) stack: every member is checked, all are
    decomposed by one stacked complex np.linalg.eigh call and each is
    fixed exactly as it would be on its own; only members with a
    degenerate group take the per-matrix rebuild.
    """
    m = np.asarray(h)
    if m.ndim == 2 and m.dtype == float:
        m = _checked_square(m, False)
    else:
        m = as_square_array(m, stack=True)
        if m.ndim == 2 and not np.any(m.imag):
            m = m.real
    _require_hermitian(m)
    if symmetry is not None and m.ndim == 2:
        sym = np.asarray(symmetry)
        if not np.array_equal(sym[sym], np.arange(len(m))):
            raise ValueError("symmetry must be an involutive permutation of the basis")
        if np.max(np.abs(m[sym].take(sym, axis=1) - m)) <= HERMITIAN_TOL:
            return _conventions(*_sector_eigh(m, sym))
    return _conventions(*np.linalg.eigh(m))


def _sector_eigh(m: np.ndarray, sym: np.ndarray):
    """Ascending eigenpairs of m from its even (A + B) and odd (A - B) sectors."""
    r = np.arange(len(sym))
    fixed, lo = r[r == sym], r[r < sym]
    even, ne = np.r_[fixed, lo], len(fixed) + len(lo)
    rows = m[even]                        # the fixed-point rows, then the rows r < sym[r]
    c = np.r_[np.full(len(fixed), np.sqrt(0.5)), np.ones(len(lo))]    # fixed points read twice
    (e_vals, e_vecs), (o_vals, o_vecs) = map(np.linalg.eigh, [
        (rows.take(even, axis=1) + rows.take(sym[even], axis=1)) * np.outer(c, c),
        rows[len(fixed):].take(lo, axis=1) - rows[len(fixed):].take(sym[lo], axis=1)])
    vecs = np.zeros(m.shape, dtype=e_vecs.dtype)
    vecs[even, :ne] = vecs[sym[even], :ne] = e_vecs * (np.sqrt(0.5) / c)[:, None]
    vecs[lo, ne:], vecs[sym[lo], ne:] = o_vecs * np.sqrt(0.5), o_vecs * -np.sqrt(0.5)
    evals = np.concatenate([e_vals, o_vals])
    order = np.argsort(evals, kind="stable")
    return evals[order], vecs.take(order, axis=1)


def _conventions(evals: np.ndarray, evecs: np.ndarray) -> HermitianEigensystem:
    out = _fix_phase(evecs)
    # a degenerate group exists iff some adjacent spacing is within the
    # tolerance _group_degenerate applies
    scale = np.maximum(np.max(np.abs(evals), axis=-1), 1.0)
    repeated = np.any(np.diff(evals, axis=-1) <= _DEGENERACY_RTOL * scale[..., None], axis=-1)
    for idx in map(tuple, np.argwhere(repeated)):
        for start, stop in _group_degenerate(evals[idx]):
            if stop - start > 1:
                out[idx][:, start:stop] = _fix_degenerate_basis(evecs[idx][:, start:stop])
    return HermitianEigensystem(eigenvalues=evals, eigenvectors=out)


def expm_scaled(h, z: complex) -> np.ndarray:
    """exp(z * h) for Hermitian h, via the spectral decomposition.

    Never a power series: every exponentiated operator in this package is
    Hermitian, and the spectral route keeps exp(-i t h) unitary to
    rounding regardless of norm or time. A (..., d, d) stack of h gives
    the stack of exponentials from one stacked eigh.
    """
    return eigh(h).propagator(z)


def haar_random_state(dim: int, seed) -> np.ndarray:
    """Haar-random pure state vector of the given dimension.

    seed may be a numpy Generator or anything default_rng accepts.
    """
    if dim < 1:
        raise ValueError("dimension must be positive")
    gen = seed if isinstance(seed, np.random.Generator) else np.random.default_rng(seed)
    v = gen.normal(size=dim) + 1j * gen.normal(size=dim)
    return v / np.linalg.norm(v)


def haar_unitary(dim: int, seed) -> np.ndarray:
    """Haar-distributed unitary via QR of a complex Gaussian matrix."""
    gen = seed if isinstance(seed, np.random.Generator) else np.random.default_rng(seed)
    g = gen.normal(size=(dim, dim)) + 1j * gen.normal(size=(dim, dim))
    q, r = np.linalg.qr(g)
    # absorb the diagonal phases so the distribution is exactly Haar
    d = np.diag(r)
    return q * (d / np.abs(d))

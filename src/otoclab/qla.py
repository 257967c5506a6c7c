"""Dense complex linear algebra kernel.

Everything downstream (spin chains, quasiprobabilities, measurement
protocols) runs on plain numpy arrays. This module pins down the few
conventions the rest of the package relies on: the Hermiticity check
and the unitarity defect, eigendecompositions with a deterministic basis inside
degenerate eigenspaces (in the two reflection sectors, with each column's
parity, whenever the bit reversal of the basis maps the matrix to itself),
and matrix exponentials computed spectrally so that propagators are
unitary by construction.

A (..., d, d) stack is checked member by member like a single matrix, but
decomposed only for its exponentials (the Brownian step), in LAPACK's bases
as they come; the basis conventions are for single matrices.

Degeneracy has one rule, _group_degenerate (a relative spacing on
ascending eigenvalues): eigh rebuilds its bases by it, and quasiprob's
projectors, fine-grained labels, coarse grain and work-distribution axes
group by it. A requested outcome finds its group by _outcome_group.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

# Dense matrices only; 2**12 caps the dimension (12 qubits) because the
# target systems stop at 10 sites and sparsity buys nothing at this scale.
MAX_DIM = 4096

HERMITIAN_TOL = 1e-12
# Largest defect of an exact identity: O O = 1, P P = P, unit trace, sum to 1.
EXACT_TOL = 1e-10
# Distance below which a computed eigenvalue is read as a requested one.
EIGENVALUE_MATCH_TOL = 1e-9

# Relative eigenvalue spacing below which two eigenvalues are treated as
# one degenerate group when fixing the eigenbasis.
_DEGENERACY_RTOL = 1e-11
# A projected computational-basis vector shorter than this is considered
# already spanned during re-orthonormalization.
_SPAN_TOL = 1e-8
# Memory budget of one stacked (chunk, d, d) complex array. It fixes how
# many members a stack holds: Brownian trajectories that advance together,
# and the time points a series takes per kernel call (chunk_length). Stacks
# of this size stay in cache: at n=5, chunks of 32 trajectories stepped
# about 15% faster than one chunk of 192.
STACK_BYTES = 2 ** 19


def _square(m: np.ndarray, stack: bool) -> np.ndarray:
    if m.ndim < 2 or (m.ndim > 2 and not stack) or m.shape[-1] != m.shape[-2]:
        raise ValueError(f"expected a square matrix, got shape {m.shape}")
    if m.size == 0:
        raise ValueError("empty matrix")
    return m


def _checked_square(m: np.ndarray, stack: bool) -> np.ndarray:
    if not np.all(np.isfinite(_square(m, stack))):
        raise ValueError("matrix contains NaN or Inf entries")
    return m


def as_square_array(a, stack: bool = False) -> np.ndarray:
    """Coerce to a square complex ndarray and validate finiteness.

    stack=True also accepts a (..., d, d) stack of square matrices; every
    member is checked.
    """
    return _checked_square(np.asarray(a, dtype=complex), stack)


def chunk_length(dim: int) -> int:
    """Members of a (chunk, dim, dim) complex stack within STACK_BYTES, at
    least one: 128 at dim 16, 32 at 32, 8 at 64, 1 from 256."""
    return max(1, STACK_BYTES // (16 * dim * dim))


def dagger(a: np.ndarray) -> np.ndarray:
    """Conjugate transpose of a matrix, or of each member of a stack."""
    return np.swapaxes(np.asarray(a).conj(), -1, -2)


def hermiticity_defect(a) -> float:
    """Largest entry of |a - a^dag|, over every member of a stack; NaN or
    Inf entries raise. A single float matrix is checked in real arithmetic,
    by row blocks of its upper triangle; anything else as a complex array,
    in one pass with one temporary (a non-finite entry makes the defect
    non-finite)."""
    m = np.asarray(a)
    if m.ndim == 2 and m.dtype == float:
        m = _checked_square(m, False)
        return max(float(np.max(np.abs(m[i:i + 128, i:] - m[i:, i:i + 128].T)))
                   for i in range(0, len(m), 128))
    m = _square(np.asarray(m, dtype=complex), True)
    diff = np.conjugate(np.swapaxes(m, -1, -2))
    np.subtract(m, diff, out=diff)
    defect = float(np.max(np.abs(diff, out=diff).real))
    if not np.isfinite(defect):
        _checked_square(m, True)
    return defect


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


@dataclass(frozen=True)
class HermitianEigensystem:
    """Ascending eigenvalues and a deterministically fixed eigenbasis.

    eigenvectors holds the basis as columns, aligned with eigenvalues; it
    is real for a real H (see eigh). For a (..., d, d) stack, every member
    checked, the arrays are (..., d) and (..., d, d) in LAPACK's bases, with
    no convention, for functions of each member such as its exponential:
    propagator and reconstruct act member by member.

    parities, s = +-1 with eigenvectors[bit_reversal(d)] == eigenvectors * s
    bitwise, come from eigh's sector solve; None after the full solve, for
    a stack, and once a degenerate group was rebuilt.
    """

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray
    parities: np.ndarray | None = None

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


def _outcome_group(eigenvalues: np.ndarray, outcome: float) -> tuple[int, int] | None:
    """The group of _group_degenerate that the eigenvalue nearest outcome
    belongs to, or None when none lies within EIGENVALUE_MATCH_TOL."""
    nearest = int(np.argmin(np.abs(eigenvalues - outcome)))
    if abs(eigenvalues[nearest] - outcome) >= EIGENVALUE_MATCH_TOL:
        return None
    return next(g for g in _group_degenerate(eigenvalues) if g[0] <= nearest < g[1])


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
    real axis; vecs is (d, k) with nonzero columns."""
    k = np.argmax(np.abs(vecs), axis=0)
    c = vecs[k, np.arange(vecs.shape[1])]
    # np.hypot rounds like the scalar abs() this convention was defined
    # with; numpy's vectorised complex abs can differ in the last bit
    return vecs * (c.conj() / np.hypot(c.real, c.imag))


def eigh(h) -> HermitianEigensystem:
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

    A single h of dimension 2^n, n >= 2, that the bit reversal R
    (bit_reversal: the site reflection of an n-site chain) maps to itself,
    max |R h R - h| <= HERMITIAN_TOL, is split into even and odd sectors
    solved apart; any other h takes the full solve. A sector vector has
    |v[r]| = |v[Rr]|, so its largest entry is at the lower index. Its
    parity, v[R] == +-v bitwise, is exact, and the eigensystem carries
    the parities unless a degenerate group was rebuilt.

    h may also be a (..., d, d) stack, for its exponentials (expm_scaled):
    every member is checked, finite and Hermitian, as a complex array, and
    one stacked np.linalg.eigh call returns the eigenpairs as LAPACK gives
    them, with no phase fixed and no degenerate group rebuilt.
    """
    m = np.asarray(h)
    if m.ndim > 2:
        m = _require_hermitian(np.asarray(m, dtype=complex))
        return HermitianEigensystem(*np.linalg.eigh(m))
    if m.dtype != float:
        m = as_square_array(m)
        if not np.any(m.imag):
            m = m.real
    _require_hermitian(m)                 # which also checks a float m
    d = len(m)
    if d >= 4 and not d & (d - 1) and (sectors := _sector_eigh(m)):
        return sectors
    evals, evecs = np.linalg.eigh(m)
    return _conventions(evals, evecs, _fix_phase(evecs))


def bit_reversal(dim: int) -> np.ndarray:
    """The basis permutation r -> r with its n = log2(dim) bits reversed, an
    involution: for an n-site chain (site 1 the most significant bit) the
    site reflection s -> n + 1 - s, the uniform chain's symmetry."""
    n, r = dim.bit_length() - 1, np.arange(dim)
    return sum(((r >> b) & 1) << (n - 1 - b) for b in range(n))


def _sector_eigh(m: np.ndarray):
    """The eigensystem of m from its even (A + B) and odd (A - B) sectors of the bit
    reversal R, with parities +-1; None unless R m R = m (HERMITIAN_TOL) on rows r <= R[r]."""
    sym, r = bit_reversal(len(m)), np.arange(len(m))
    fixed, lo = r[r == sym], r[r < sym]
    even, nf, half = np.r_[fixed, lo], len(fixed), np.sqrt(0.5)
    rows = m[even]                        # the fixed-point rows, then the rows r < sym[r]
    # (R m R)[even] - m[even] with both sides' columns permuted by the
    # involution R: the same differences, with no (d/2, d) gather of R m R
    if np.max(np.abs(m[sym[even]] - rows.take(sym, axis=1))) > HERMITIAN_TOL:
        return None
    block = rows.take(even, axis=1) + rows.take(sym[even], axis=1)
    block[:nf, nf:] *= half               # a fixed point is read twice: sqrt(1/2) on its
    block[nf:, :nf] *= half               # row and column, on the fixed block exactly 1/2
    block[:nf, :nf] *= 0.5                # (sqrt(0.5)**2 is one ulp above)
    (e_vals, e_vecs), (o_vals, o_vecs) = map(np.linalg.eigh, [
        block, rows[nf:].take(lo, axis=1) - rows[nf:].take(sym[lo], axis=1)])
    del rows, block                       # before the (d, d) assembly
    e_vecs[nf:] *= half
    e_vecs, o_vecs = _fix_phase(e_vecs[np.argsort(even)]), _fix_phase(o_vecs * half)
    evals = np.concatenate([e_vals, o_vals])
    order = np.argsort(evals, kind="stable")
    col, ne = np.argsort(order), len(even)            # each sector vector's column
    even, lo = np.sort(even)[:, None], lo[:, None]
    vecs = np.zeros(m.shape, dtype=e_vecs.dtype)
    vecs[even, col[:ne]] = vecs[sym[even], col[:ne]] = e_vecs
    vecs[lo, col[ne:]], vecs[sym[lo], col[ne:]] = o_vecs, -o_vecs
    return _conventions(evals[order], vecs, vecs, np.r_[np.ones(ne), -np.ones(len(lo))][order])


def _conventions(evals: np.ndarray, evecs: np.ndarray, out: np.ndarray, parities=None):
    """out, evecs with fixed phases, with each degenerate group rebuilt; a
    rebuilt group may mix the sectors, so it drops the parities."""
    for start, stop in _group_degenerate(evals):
        if stop - start > 1:
            out[:, start:stop] = _fix_degenerate_basis(evecs[:, start:stop])
            parities = None
    return HermitianEigensystem(evals, out, parities)


def expm_scaled(h, z: complex) -> np.ndarray:
    """exp(z * h) for Hermitian h, via the spectral decomposition.

    Never a power series: every exponentiated operator in this package is
    Hermitian, and the spectral route keeps exp(-i t h) unitary to
    rounding regardless of norm or time. A (..., d, d) stack of h, every
    member checked, gives the stack of exponentials from one stacked eigh,
    in LAPACK's bases, which the exponential does not depend on.
    V e^{z Lambda} V^dag takes V^dag from the eigenvectors this call owns,
    conjugated in place.
    """
    sys = eigh(h)
    vecs = sys.eigenvectors
    scaled = vecs * np.exp(z * sys.eigenvalues)[..., None, :]
    return scaled @ np.swapaxes(np.conjugate(vecs, out=vecs), -1, -2)


def haar_random_state(dim: int, seed) -> np.ndarray:
    """Haar-random pure state vector of the given dimension.

    seed may be a numpy Generator or anything default_rng accepts.
    """
    if dim < 1:
        raise ValueError("dimension must be positive")
    gen = seed if isinstance(seed, np.random.Generator) else np.random.default_rng(seed)
    v = gen.normal(size=dim) + 1j * gen.normal(size=dim)
    return v / np.linalg.norm(v)


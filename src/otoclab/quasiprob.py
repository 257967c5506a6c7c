"""Out-of-time-ordered correlators and their quasiprobability representations.

The central objects are F(t) = Tr(rho W(t)dag Vdag W(t) V) for Heisenberg
W(t) = Udag W U, the coarse-grained distribution

    A~(v1, w2, v2, w3) = Tr(Pi^{W(t)}_{w3} Pi^V_{v2} Pi^{W(t)}_{w2} Pi^V_{v1} rho),

its fine-grained refinement over degeneracy labels, the derived work-like
distribution P(W, W'), and the regulated, time-ordered, and k-fold variants.
F(t) is recoverable from every one of these as a moment; the moment helpers
live here next to the distributions so the identities stay testable.
Every distribution, the derived P(W, W') and the marginals included, is a
QuasiDistribution: a dense tensor with ascending outcomes on each axis,
whose entry finds an outcome by the one degeneracy rule.

Every coarse distribution comes from one of two routes: the explicit
projector trace (_four_projector_trace) of the coarse series of a
non-involutory W or V, whose projectors come from the operators rotated
into the energy frame, and, for involutory W and V, a signed expansion:
with each projector written as (1 + s O)/2, every 2k-slot entry is the
+-1 Hadamard matrix (_hadamard) applied to traces of operator products.
Every other series and the Brownian ensemble take the traces
Tr(word rho) of _word_traces through _word_table(k); regulated_series,
whose W projectors carry quarter powers of rho, takes sixteen of its own.
Projectors of an involution are built as (1 -+ O)/2
(_distinct_projectors), never by eigendecomposition. The lab-frame
versions of both routes, the tests' oracles, live in tests/oracles.py.
The projectors of other operators, the fine labels, coarse_grain and the
axes of work_distribution group outcomes by the one degeneracy rule,
qla._group_degenerate.

Series work in the eigenbasis of H, found once (_energy_frame), where W(t)
is W dressed elementwise by the phases e^{-iEt} (_dress). For a real H,
such as the Ising chain, qla.eigh returns real eigenvectors, so real
observables stay real in that frame and their products are real GEMMs.
Each series steps through its time grid one chunk at a time (_on_grid):
the phases of qla.chunk_length(d) points (128 at n = 4, 8 at n = 6, one
from n = 8) form a (chunk, d) stack, and the dressing, the projectors and
the word-trace kernels take the whole stack in one call, each product
stacked over the chunk, so a small point pays for no numpy call of its
own. The word traces take their contraction from the form of the state
(_word_traces); per chunk of the four-slot series, energy-frame weights
(DiagonalState: infinite temperature, thermal states) cost one stacked
matrix product and elementwise sums, and any other state, as a block of
weighted vectors (psi, or the eigenvectors of a density matrix), three
stacked products of a matrix by the block that never form W(t); a dense
rho equal to c 1 (a constant real diagonal, nothing off it) is read as
equal weights. F is the one trace otoc_series asks for. When V is W's
image under the site reflection R (W = Z_1, V = Z_n) and every
eigenvector has an exact parity, e[R] == e s, then V~ = S W~ S
(_energy_frame), and Y = G S = W~ (D S) W~ is complex symmetric: the
four-slot words of energy-frame weights are then sums over the lower
block triangle of Y, walked by column blocks that never form the (d, d)
G (_partner_kernel), 9/16 of G's multiply-adds at n = 10.

One case needs no frame. For a state c 1 (infinite temperature: equal
weights, or a dense c 1) and W and V diagonal strings (_plus_rows: the z
site Paulis and their products) in a real eigenbasis, otoc_series and the
four-slot coarse and two-fold series take all eight words from the block
C = e_W diag(e^{-iEt}) e_V^T of U(t) on the rows where W and V are +1
(_plus_block_words): one real product and one symmetric rank-k update a
point, 3/4 d^3 multiply-adds, with neither operator rotated. Every other
state, operator or series (toc_series, regulated_series, any k-fold
series beyond two) builds the frame.

Each series entry reads a W or V that is exactly one Pauli string as its
spin.PauliString table (spin.as_pauli_string), the operator counterpart
of DiagonalState, so a route and its bits do not depend on how W and V
are written. A string P is rotated by one product, e^dag (P e), P e the
eigenvectors e with rows permuted and scaled; a diagonal string by the
Gram product 2 e_+^dag e_+ - 1 over the rows where it is +1 (_rotated),
a quarter of those multiply-adds; it is checked on its table in O(d).

Each series returns one QuasiSeries whose correlator is what its moment
reproduces (F, F_k, the TOC or F_reg; None on the projector route of the
non-involutory coarse series); otoc_series returns F as a
CorrelatorSeries. The time-ordered distribution is A~ summed over w3 (the
W(t) projectors resolve the identity). otoc and fine_quasiprob stay in
the lab frame, on density_matrix of the state and matrix W and V: otoc as
a single-point check of the series, fine_quasiprob for the fine grain.

Hamiltonians are accepted either as matrices or as precomputed
qla.HermitianEigensystem values; passing the eigensystem lets callers sweep
many times without rediagonalizing.

A state is a (d, d) density matrix rho, a (d,) vector psi (|psi><psi|)
or DiagonalState weights. Each entry that takes one calls check_state,
which asks for the operators' dimension, finite entries and one rule per
form, to qla.EXACT_TOL: weights >= 0 summing to 1, psi of unit norm, rho
of unit trace and Hermitian to qla.HERMITIAN_TOL. Positivity of a dense
rho costs an eigendecomposition; the health invariants watch it. An
entry that works on a dense rho forms it with density_matrix.
"""
from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field

import numpy as np

from . import qla, spin

_FINE_MAX_DIM = 64         # 6 qubits; the fine tensor holds dim**4 entries
_KFOLD_MAX = 5
# columns per block of the partner kernel's walk over Y (_partner_kernel).
# On a 2-core VM (OpenBLAS, 2 threads) the F word of one point of thermal
# weights took, best of 5: at d = 1024, 23-26 ms at 128 and 256 columns,
# 26-34 ms at 64 and 28 ms at 32, against 34-38 ms for the full G; at
# d = 512, 5.0 ms at 128, 5.4 at 64. Each block reads W[J0:] once, so
# narrower blocks read more of W for fewer multiply-adds.
_PARTNER_WIDTH = 128

COARSE_AXES = ("v1", "w2", "v2", "w3")


# ---------------------------------------------------------------------------
# carriers


@dataclass
class QuasiDistribution:
    """Dense quasiprobability tensor with one axis per outcome slot.

    axis_eigenvalues[i] gives the eigenvalue attached to each index along
    axis i, ascending (on P(W, W') the eigenvalue product). A
    fine-grained distribution has axes over full bases and axis_labels[i],
    the degeneracy label of each index (for a local Pauli the
    computational configuration of the untouched sites).
    """

    values: np.ndarray
    axis_names: tuple[str, ...]
    axis_eigenvalues: tuple[np.ndarray, ...]
    axis_labels: tuple[np.ndarray, ...] | None = None
    meta: dict = field(default_factory=dict)

    def total(self) -> complex:
        return complex(self.values.sum())

    def _axis_index(self, axis: int, eigenvalue: float, label=None) -> int:
        """The outcome's group of qla._outcome_group, the rule the fine
        labels follow; a label picks within the group."""
        group = qla._outcome_group(self.axis_eigenvalues[axis], eigenvalue)
        if group is None:
            raise KeyError(f"{eigenvalue} not an outcome on axis {self.axis_names[axis]}")
        start, stop = group
        if label is None:
            if stop - start > 1:
                raise KeyError(
                    f"axis {self.axis_names[axis]} needs a degeneracy label "
                    f"for eigenvalue {eigenvalue}"
                )
            return start
        if self.axis_labels is None:
            raise KeyError(f"axis {self.axis_names[axis]} carries no degeneracy labels")
        sub = np.nonzero(self.axis_labels[axis][start:stop] == label)[0]
        if sub.size != 1:
            raise KeyError(f"label {label} not found for eigenvalue {eigenvalue}")
        return start + int(sub[0])

    def entry(self, *outcome) -> complex:
        """Look up one value by eigenvalue (coarse) or (eigenvalue, label) pairs."""
        if len(outcome) != self.values.ndim:
            raise KeyError(f"expected {self.values.ndim} outcome slots")
        idx = []
        for ax, item in enumerate(outcome):
            if isinstance(item, tuple):
                idx.append(self._axis_index(ax, item[0], item[1]))
            else:
                idx.append(self._axis_index(ax, item))
        return complex(self.values[tuple(idx)])

    def outcome_grid(self):
        """Iterate (eigenvalue tuple, value) over the whole tensor."""
        it = np.nditer(self.values, flags=["multi_index"])
        for val in it:
            key = tuple(
                float(self.axis_eigenvalues[a][i])
                for a, i in enumerate(it.multi_index)
            )
            yield key, complex(val)


@dataclass
class CorrelatorSeries:
    times: np.ndarray
    values: np.ndarray

    def __post_init__(self):
        if len(self.times) != len(self.values):
            raise ValueError("times and values must have equal length")


@dataclass
class QuasiSeries:
    """Coarse quasiprobability tensors along a time grid (leading time axis).

    correlator holds per time what the moment reproduces: F_k =
    Tr((W(t) V)^k rho) (k = 2 for the coarse series), the TOC or F_reg;
    it is None only on the non-involutory route of coarse_quasiprob_series.
    """

    times: np.ndarray
    values: np.ndarray
    axis_names: tuple[str, ...]
    axis_eigenvalues: tuple[np.ndarray, ...]
    correlator: np.ndarray | None = None

    def at(self, index: int) -> QuasiDistribution:
        return QuasiDistribution(
            values=self.values[index],
            axis_names=self.axis_names,
            axis_eigenvalues=self.axis_eigenvalues,
        )


# ---------------------------------------------------------------------------
# states


@dataclass(frozen=True)
class DiagonalState:
    """rho = sum_i weights[i] |E_i><E_i| over the eigenvectors of the
    Hamiltonian it is used with, in the order of its eigenvalues.

    Thermal states take this form, and so does the maximally mixed state,
    whose equal weights make it diagonal in every frame.
    """

    weights: np.ndarray

    def __post_init__(self):
        w = np.asarray(self.weights)
        if w.ndim != 1 or np.iscomplexobj(w) or not np.all(np.isfinite(w)):
            raise ValueError("weights must be a finite real vector")
        object.__setattr__(self, "weights", w.astype(float))


def density_matrix(state, hamiltonian=None) -> np.ndarray:
    """The density matrix of a state in any of its forms (module docstring).

    Weights are placed in the Hamiltonian's eigenbasis, the lab frame,
    when one is given; without one, and for equal weights, which are the
    same in every frame, rho is diag(weights).
    """
    if isinstance(state, DiagonalState):
        p = state.weights
        if hamiltonian is None or np.all(p == p[0]):
            return np.diag(p.astype(complex))
        return np.asarray(_eigensystem(hamiltonian).spectral(p), dtype=complex)
    s = np.asarray(state, dtype=complex)
    return np.outer(s, s.conj()) if s.ndim == 1 else s


def check_state(state, *ops):
    """state, unchanged, if it is a state of the operators ops by the rules
    of the module docstring; else ValueError."""
    _check_dims(state, *ops)
    if isinstance(state, DiagonalState):
        p = state.weights
        ok = np.min(p) >= -qla.EXACT_TOL and abs(np.sum(p) - 1) <= qla.EXACT_TOL
    elif np.ndim(state) == 1:
        ok = np.all(np.isfinite(state)) and abs(np.linalg.norm(state) - 1) <= qla.EXACT_TOL
    else:
        ok = (qla.hermiticity_defect(state) <= qla.HERMITIAN_TOL
              and abs(np.trace(state) - 1) <= qla.EXACT_TOL)
    if not ok:
        raise ValueError("not a state: weights must be >= 0 summing to 1, psi of unit "
                         "norm, rho Hermitian with unit trace")
    return state


def _equal_weight(state):
    """c when the state is c 1: equal weights, or a dense rho with a
    constant real diagonal and no nonzero entry off it; else None."""
    if isinstance(state, DiagonalState):
        p = state.weights
        return p[0] if np.all(p == p[0]) else None
    s = np.asarray(state)
    if s.ndim != 2:
        return None
    diag = np.diagonal(s)
    if np.all(diag == diag[0].real) and np.count_nonzero(s) == np.count_nonzero(diag):
        return diag[0].real
    return None


def _frame_state(state, sys: qla.HermitianEigensystem):
    """The state in the energy frame, in the form it came in: weights as
    they are, psi and a dense rho rotated. A dense rho that is exactly c 1
    (_equal_weight) becomes equal weights, with no rotation."""
    if isinstance(state, DiagonalState):
        return state
    s = np.asarray(state, dtype=complex)
    if s.ndim == 1:
        return _matmul(sys.eigenvectors.conj().T, s[:, None])[:, 0]
    c = _equal_weight(s)
    return _rotated(sys.eigenvectors, s) if c is None else DiagonalState(np.full(len(s), c))


# ---------------------------------------------------------------------------
# evolution helpers


def _eigensystem(hamiltonian) -> qla.HermitianEigensystem:
    if isinstance(hamiltonian, qla.HermitianEigensystem):
        return hamiltonian
    return qla.eigh(hamiltonian)


def propagator(hamiltonian, t: float) -> np.ndarray:
    """U = exp(-i H t)."""
    return _eigensystem(hamiltonian).propagator(-1j * t)


def heisenberg(op, u) -> np.ndarray:
    """Udag op U."""
    return qla.dagger(u) @ op @ u


def _matmul(a, b, out=None):
    """a @ b for a (..., d, r) stack b, written into the C-contiguous out
    when given. A real a times a complex b is one real product with b's
    interleaved real and imaginary parts, half the work of promoting a to
    complex."""
    if np.isrealobj(a) and np.iscomplexobj(b):
        flat = None if out is None else out.view(float)
        return np.matmul(a, np.ascontiguousarray(b).view(float), out=flat).view(complex)
    return np.matmul(a, b, out=out)


def _energy_frame(sys: qla.HermitianEigensystem, w_op, v_op):
    """W and V rotated (_rotated) into the eigenbasis e of H, and the column
    parities s of e when V is W's reflection partner, else None. Partners
    are spin.PauliStrings with V = R W R for the site reflection R; when
    every column of a real e has an exact parity, e[R] == e s (qla.eigh's
    sector solve gives one unless a degenerate group was rebuilt across the
    sectors), V~ = S W~ S and W alone is rotated; else both are. A matrix is
    rotated as a matrix, a Pauli one too, and has no parities."""
    e, s = sys.eigenvectors, None
    if (isinstance(w_op, spin.PauliString) and isinstance(v_op, spin.PauliString)
            and np.isrealobj(e) and len(e) == w_op.dim):
        r = spin.reflection(w_op.dim.bit_length() - 1)
        if v_op.mask == r[w_op.mask] and np.array_equal(v_op.phase, w_op.phase[r]):
            s = _reflection_parities(e, r)
    w_e = _rotated(e, w_op)
    if s is None:
        return w_e, _rotated(e, v_op), None
    v_e = w_e * s
    return w_e, np.multiply(v_e, s[:, None], out=v_e), s


def _reflection_parities(e: np.ndarray, r: np.ndarray):
    """The column parities s of e, e[r] == e s bitwise with s = +-1, or
    None unless every column has one. The rows i <= r[i] decide it, a block
    of them at a time: the other rows are their mirrors, and a row pair
    that matches up to a sign s matches the other way round too."""
    rows = np.flatnonzero(np.arange(len(r)) <= r)
    even = odd = np.ones(e.shape[1], dtype=bool)
    for block in np.split(rows, range(128, len(rows), 128)):
        mirrored, own = e[r[block]], e[block]
        even = even & np.all(mirrored == own, axis=0)
        odd = odd & np.all(mirrored == -own, axis=0)
    # a unit column is never zero on all the deciding rows, so never both
    return np.where(even, 1.0, -1.0) if np.all(even | odd) else None


def _plus_rows(op):
    """The basis indices where op is +1 if op is a diagonal string, a
    spin.PauliString with mask 0 and phases +-1 (the z site Paulis and
    their products); else None."""
    if (isinstance(op, spin.PauliString) and op.mask == 0 and np.isrealobj(op.phase)
            and np.all(np.abs(op.phase) == 1)):
        return np.flatnonzero(op.phase > 0)
    return None


def _rotated(e: np.ndarray, op) -> np.ndarray:
    """e^dag op e. In a real frame an operator with no imaginary part stays
    real. A diagonal string P = 2 Pi_+ - 1 = 1 - 2 Pi_- (_plus_rows) is
    2 e_+^dag e_+ - 1 or 1 - 2 e_-^dag e_-, one Gram product over the rows
    e_+ or e_- of e where P is +1 or -1, whichever are fewer (half of them
    for a z string); it leans on e^dag e = 1, to rounding. Any other
    spin.PauliString takes one product, e^dag (P e): P e is e with its rows
    permuted by r ^ mask and scaled by the phases; a matrix takes two."""
    plus = _plus_rows(op)
    if plus is not None:
        sign = 1.0 if 2 * len(plus) <= len(e) else -1.0
        x = e[plus] if sign > 0 else e[op.phase < 0]
        # x^T x of a real x is one symmetric rank-k update
        out = (x.T if np.isrealobj(x) else x.conj().T) @ x
        out *= 2 * sign
        out[np.diag_indices_from(out)] -= sign
        return out
    if isinstance(op, spin.PauliString):
        flipped = op.flipped()
        return _matmul(e.conj().T, op.phase[flipped, None] * e[flipped])
    m = np.asarray(op, dtype=complex)
    if np.isrealobj(e) and not np.any(m.imag):
        m = m.real
    return _matmul(e.conj().T, m) @ e


def _plus_block_words(state, w_op, v_op, sys: qla.HermitianEigensystem, words):
    """The map phase -> the k = 2 traces over words (of _words(2)) of a
    state c 1 (_equal_weight) and diagonal strings W and V (_plus_rows) in
    a real frame, or None for any other state, operator or frame. No
    operator is rotated into the energy frame.

    With e_W and e_V the p and q rows of the eigenvectors e where W and V
    are +1, C = e_W diag(phase) e_V^T is the (W = +1, V = +1) block of
    U(t) = e^{-iHt}. For P and Q the +1 projectors, W = 2P - 1 and
    V = 2Q - 1 give Tr(P(t) Q) = ||C||^2 and Tr(P(t) Q P(t) Q) =
    ||C C^dag||^2, so every word is a count or a norm:
    Tr(rho) = c d; V and W V W: c (2q - d); W and V W V: c (2p - d);
    W V and V W: c (4 ||C||^2 - 2p - 2q + d); and F, W V W V:
    c (16 (||C C^dag||^2 - ||C||^2) + d).

    A chunk of phases (_on_grid) makes one real product,
    X = e_a [e_b^T cos | e_b^T sin] = [Re C' | -Im C'] for C' = C or C^T,
    the fewer rows as e_a; then ||C||^2 = ||X||^2 and
    ||C C^dag||^2 = ||X X^T||^2 + ||L - L^T||^2 with L the product of the
    two halves of X, X X^T being one symmetric rank-k update. At d = 1024
    that is 3/4 d^3 multiply-adds a point. X and the stack of
    [e_b^T cos | e_b^T sin] are written into buffers allocated on the
    first call and again only for a longer chunk.
    """
    c, w_plus, v_plus = _equal_weight(state), _plus_rows(w_op), _plus_rows(v_op)
    e = sys.eigenvectors
    if (c is None or w_plus is None or v_plus is None or not np.isrealobj(e)
            or len(e) != w_op.dim):
        return None
    d, p, q = len(e), len(w_plus), len(v_plus)
    rows_a, rows_b = (v_plus, w_plus) if q <= p else (w_plus, v_plus)
    e_a, e_bt = e[rows_a], np.ascontiguousarray(e[rows_b].T)
    r, s = e_a.shape[0], e_bt.shape[1]
    static = {"1": c * d, "v": c * (2 * q - d), "w": c * (2 * p - d)}
    static.update(vwv=static["w"], wvw=static["v"])
    buffers = {}

    def traces(phase):
        lead = phase.shape[:-1]
        z = _buffer(buffers, "z", lead + (d, 2 * s), float)
        np.multiply(e_bt, phase.real[..., :, None], out=z[..., :s])
        np.multiply(e_bt, phase.imag[..., :, None], out=z[..., s:])
        x = np.matmul(e_a, z, out=_buffer(buffers, "x", lead + (r, 2 * s), float))
        xt = np.swapaxes(x, -1, -2)
        flat = x.reshape(lead + (r * 2 * s,))
        norm = _rowdot(flat, flat)
        gram = np.matmul(x, xt)
        skew = np.matmul(x[..., :s], xt[..., s:, :])
        skew -= np.swapaxes(skew, -1, -2)
        square = (np.einsum("...ij,...ij->...", gram, gram)
                  + np.einsum("...ij,...ij->...", skew, skew))
        wv = c * (4 * norm - 2 * p - 2 * q + d)
        vals = dict(static, wv=wv, vw=wv, wvwv=c * (16 * (square - norm) + d))
        out = np.empty(lead + (len(words),), dtype=complex)
        for j, word in enumerate(words):
            out[..., j] = vals[word]
        return out
    return traces


def _phases(sys: qla.HermitianEigensystem, times) -> np.ndarray:
    """e^{-i E t} for each t of a 1-D array of times: the (T, d) stack of
    the diagonals of U in the energy frame."""
    return np.exp(-1j * sys.eigenvalues * times[:, None])


def _dress(op_e, phase) -> np.ndarray:
    """Udag op U in the energy frame for U = diag(phase), an elementwise
    phase dressing; a (..., d) stack of phases gives a (..., d, d) stack."""
    return (phase.conj()[..., :, None] * op_e) * phase[..., None, :]


def _on_grid(sys: qla.HermitianEigensystem, times, shape: tuple, values) -> np.ndarray:
    """values(phases) on a time grid, filled one chunk of times at a time:
    each call takes the (chunk, d) phases of qla.chunk_length(d) points (fewer
    at the end) and returns (chunk, *shape) values."""
    out = np.empty((len(times),) + shape, dtype=complex)
    step = qla.chunk_length(len(sys.eigenvalues))
    for start in range(0, len(times), step):
        out[start:start + step] = values(_phases(sys, times[start:start + step]))
    return out


def _dim(op) -> int:
    if isinstance(op, DiagonalState):
        return len(op.weights)
    return op.dim if isinstance(op, spin.PauliString) else np.shape(op)[0]


def _check_dims(*ops):
    dims = {_dim(o) for o in ops}
    if len(dims) != 1:
        raise ValueError(f"dimension mismatch among operands: {sorted(dims)}")


def _hermiticity_defect(op) -> float:
    """qla.hermiticity_defect of op, in O(d) on a spin.PauliString's table."""
    if isinstance(op, spin.PauliString):
        return op.hermiticity_defect()
    return qla.hermiticity_defect(op)


def _is_hermitian_involution(op) -> bool:
    """O = Odag and O O = 1, so O has eigenvalues +-1 and projectors (1 +- O)/2.

    A spin.PauliString is tested on its table in O(d), with the dense
    tests' tolerances. For a matrix the Hermiticity test runs first and its
    temporaries are freed before O O is formed, in real arithmetic when O
    has no imaginary part.
    """
    if _hermiticity_defect(op) > qla.HERMITIAN_TOL:
        return False
    if isinstance(op, spin.PauliString):
        return op.involution_defect() <= qla.EXACT_TOL
    m = np.asarray(op)
    if not np.any(m.imag):
        m = m.real
    return bool(np.max(np.abs(m @ m - np.eye(m.shape[0]))) <= qla.EXACT_TOL)


def _distinct_projectors(op) -> tuple[np.ndarray, list[np.ndarray]]:
    """Ascending distinct eigenvalues and their eigenspace projectors.

    A Hermitian involution other than +-1 (a Pauli string, or its
    Heisenberg evolution) has eigenvalues -1, +1 and projectors (1 -+ O)/2,
    which are built directly; only other operators go through qla.eigh.
    """
    m = qla.as_square_array(op)
    dim = m.shape[0]
    # the trace of a Hermitian involution is an integer, +-dim only for +-1
    if abs(np.trace(m)) < dim - 0.5 and _is_hermitian_involution(m):
        eye = np.eye(dim)
        return np.array([-1.0, 1.0]), [(eye - m) / 2, (eye + m) / 2]
    sys = qla.eigh(m)
    evs, projs = [], []
    for start, stop in sys.degenerate_groups():
        cols = sys.eigenvectors[:, start:stop]
        evs.append(sys.eigenvalues[start])
        projs.append(cols @ cols.conj().T)
    return np.array(evs), projs


def _four_projector_trace(v_projs, w_projs, rho) -> np.ndarray:
    """Tr(Pw3 Pv2 Pw2 Pv1 rho) over every index quadruple (v1, w2, v2, w3).

    The W projectors may be (..., d, d) stacks, for entries of shape
    (..., nv, nw, nv, nw). Partial products are built one at a time, so at
    most three extra matrices (or stacks) live.
    """
    nv, nw = len(v_projs), len(w_projs)
    vals = np.empty(np.shape(w_projs[0])[:-2] + (nv, nw, nv, nw), dtype=complex)
    for i_v1, pv1 in enumerate(v_projs):
        right = pv1 @ rho
        for i_w2, pw2 in enumerate(w_projs):
            m = pw2 @ right
            for i_v2, pv2 in enumerate(v_projs):
                mm = pv2 @ m
                for i_w3, pw3 in enumerate(w_projs):
                    vals[..., i_v1, i_w2, i_v2, i_w3] = np.einsum("...ij,...ji->...", pw3, mm)
    return vals


def _matrix_sum(x):
    """Sum over the last two axes; Tr(a b) is _matrix_sum(a * b^T), which
    never forms the product a b."""
    return np.sum(x, axis=(-2, -1))[()]


def _rowdot(a, b):
    """sum_i a_i b_i along the last axis, without conjugation: a @ b row by
    row, the dot product a lone pair of vectors takes, so a chunk of one
    time point sums in the same order as a single point."""
    return np.matmul(a[..., None, :], b[..., :, None])[..., 0, 0]


@functools.lru_cache(maxsize=None)
def _words(k: int) -> tuple[str, ...]:
    """The 4k words of the 2k-slot expansion, written as matrix products:
    "1", then by length the V-first (rightmost V) and W-first words; the
    W-first word of length 2k never occurs."""
    return ("1",) + tuple((pair * length)[-length:] for length in range(1, 2 * k + 1)
                          for pair in ("wv", "vw") if (pair, length) != ("vw", 2 * k))


@functools.lru_cache(maxsize=None)
def _word_table(k: int) -> np.ndarray:
    """The (4^k, 4k) table that maps word traces to 2k-slot entries.

    Rows run over the outcomes of the slots (v1, w2, v2, w3, ...) in C
    order, -1 before +1; columns over _words(k). With P = (1 + s O)/2,
    Tr(P_2k ... P_1 rho) is 4^-k times the sum over slot subsets S of
    (product of s over S) Tr(O_S rho): _hadamard carries the signs, and
    W^2 = V^2 = 1 reduces each ordered product O_S to a word.
    """
    slots = 2 * k
    column = {word: col for col, word in enumerate(_words(k))}
    indicator = np.zeros((4**k, len(column)))
    for subset in range(4**k):
        letters = ""                      # the reduced O_S, first applied first
        for slot in range(slots):
            if subset >> (slots - 1 - slot) & 1:
                letter = "vw"[slot % 2]
                letters = letters[:-1] if letters.endswith(letter) else letters + letter
        indicator[subset, column[letters[::-1] or "1"]] = 1.0
    table = _hadamard(slots) @ indicator / 4**k
    table.flags.writeable = False
    return table


@functools.lru_cache(maxsize=None)
def _hadamard(slots: int) -> np.ndarray:
    """The +-1 Kronecker Hadamard matrix: rows run over the slots' outcomes in
    C order, -1 first, columns over slot subsets, the first slot highest."""
    table = functools.reduce(np.kron, [np.array([[1.0, -1.0], [1.0, 1.0]])] * slots)
    table.flags.writeable = False
    return table


def _entries(traces, k: int) -> np.ndarray:
    """The 2k-slot entries, shape (..., 2, ..., 2), from (..., 4k) word traces."""
    return (traces @ _word_table(k).T).reshape(np.shape(traces)[:-1] + (2,) * (2 * k))


def _word_traces(state, v, k: int, parities=None, words=None):
    """Map (W, phase) -> the traces Tr(word rho) over words (or _words(k)).

    W(t) is W dressed by the unit phases e^{-iEt} (_dress), or W itself
    when phase is None. phase may be a (..., d) stack, one row per time
    point, for traces of shape (..., words): a stack costs what one point
    costs in matrix products, each product stacked. The state, in the frame
    V and W share, picks the contraction: DiagonalState weights take
    _diagonal_kernel, k - 1 (d, d) matrix products per call, or at k = 2,
    given the parities of a reflection partner, _partner_kernel, column
    blocks of the lower block triangle of one product (9/16 of its
    multiply-adds at d = 1024); a vector psi or a density matrix take
    _block_kernel on rho = B diag(lam) B^dag, 2k - 1 products of a matrix
    by the (d, r) block B. For Hermitian rho, W and V a word's trace is the
    conjugate of its reverse's, which gives the even W-first words. The
    block kernel also takes a (..., d, d) stack of W(t), with phase None,
    for traces of shape (..., 4k)."""
    words = _words(k) if words is None else words
    if isinstance(state, DiagonalState) and parities is not None and k == 2:
        kernel = _partner_kernel(state.weights, v, parities, words)
    elif isinstance(state, DiagonalState):
        kernel = _diagonal_kernel(state.weights, v, k, parities, words)
    else:
        kernel = _block_kernel(state, v, k)

    def traces(w, phase=None) -> np.ndarray:
        vals = kernel(w, phase)
        lead = np.shape(w)[:-2]
        if phase is not None:
            lead = np.broadcast_shapes(lead, np.shape(phase)[:-1])
        out = np.empty(lead + (len(words),), dtype=complex)
        for j, word in enumerate(words):
            out[..., j] = vals[word] if word in vals else np.conj(vals[word[::-1]])
        return out
    return traces


def _diagonal_kernel(p, v, k: int, parities, words):
    """Word traces Tr(word rho) for rho = diag(p), the given words only.

    With D = diag(phase) and c = conj(phase), X = W(t) V is D* G for
    G = W (D V), and G_m = D X^m = G_(m-1) D* G. For unit phases and
    Hermitian V and W every trace is an elementwise sum:
    Tr(X^m rho) = sum_i p_i c_i (G_m)_ii,
    Tr(V X^m rho) = sum_ab c_a (G_m)_ab conj(V_ab) p_b,
    Tr(X^m W(t) rho) = sum_ij p_i (G_m)_ij conj(W_ij) c_j and
    Tr(X^(m+1) rho) = sum_ij p_i c_i (G_m)_ij c_j G_ji. W(t) and X are never
    formed, and a call costs G_1, ..., G_(k-1): k - 1 matrix products,
    each stacked over a (chunk, d) stack of phases, whose sums run over
    the leading axis. The parities s of a reflection partner (V = S W S,
    W^T = +-W) give G^T = S G S: the last sum reads G by rows,
    sum p_i c_i s_i (G_m)_ij G_ij c_j s_j; at k = 2 a partner takes
    _partner_kernel, which never forms G. D V, G and the G_m are written
    into (chunk, d, d) buffers, allocated on the first call and again only
    for a longer chunk, and the weights p_i conj(W_ij) are formed once per W.
    """
    static = {"1": np.sum(p), "v": p @ np.diagonal(v)}
    ends = {word[0] for word in words if len(word) % 2 and len(word) > 1}   # v: V X^m, w: X^m W
    if "v" in ends:
        vp = v.conj() * p
    buffers, weights = {}, {}

    def buffer(name, lead, dtype):
        return _buffer(buffers, name, lead + v.shape, dtype)

    def kernel(w, phase):
        phase = np.ones(len(p)) if phase is None else phase
        c, lead = phase.conj(), phase.shape[:-1]
        dv = np.multiply(phase[..., None], v, out=buffer("dv", lead, np.result_type(phase, v)))
        g = _matmul(w, dv, buffer("g", lead, np.result_type(w, dv)))
        if "w" in ends and weights.get("w") is not w:
            weights.update(w=w, wp=p[:, None] * w.conj())
        vals = dict(static, w=p @ np.diagonal(w),
                    wv=_rowdot(p * c, np.diagonal(g, axis1=-2, axis2=-1)))
        cs = c if parities is None else c * parities
        gm = g
        for m in range(1, k):
            if "v" + "wv" * m in words:
                vals["v" + "wv" * m] = _rowdot(c, np.einsum("...ab,ab->...a", gm, vp))
            if "wv" * m + "w" in words:
                vals["wv" * m + "w"] = _rowdot(np.einsum("...ij,ij->...j", gm, weights["wp"]), c)
            f = (np.einsum("...ij,...ji,...j->...i", gm, g, c) if parities is None
                 else np.einsum("...ij,...ij,...j->...i", gm, g, cs))
            vals["wv" * m + "wv"] = _rowdot(f, p * cs)
            if m < k - 1:
                gc = np.multiply(gm, c[..., None, :], out=buffer("gc", lead, g.dtype))
                gm = np.matmul(gc, g, out=buffer("gm", lead, g.dtype))
        return vals
    return kernel


def _buffer(buffers: dict, name, shape, dtype) -> np.ndarray:
    """An uninitialized array of the shape on the storage buffers[name],
    which is allocated again only when it is too short or of another dtype."""
    size = math.prod(shape)
    buf = buffers.get(name)
    if buf is None or buf.dtype != dtype or len(buf) < size:
        buffers.pop(name, None)
        buf = buffers[name] = np.empty(size, dtype)
    return buf[:size].reshape(shape)


def _both_orders(x, xt, f, g, j0: int, width: int):
    """The part of sum_ij f_i M_ij g_j over the whole square that one column
    block of the lower block triangle stands for, from x = M[j0:, J] and
    xt = M^T[j0:, J], J = j0:j0 + width: the diagonal block counts once, and
    the rows below it count also in their mirror place, as
    sum_ij g_i xt_ij f_j."""
    j = slice(j0, j0 + width)
    return (_rowdot(f[..., j0:], np.matmul(x, g[..., j, None])[..., 0])
            + _rowdot(g[..., j0 + width:], np.matmul(xt[..., width:, :], f[..., j, None])[..., 0]))


def _partner_kernel(p, v, parities, words):
    """The k = 2 word traces of _diagonal_kernel for a reflection partner,
    V = S W S with S = diag(parities), from the lower block triangle of
    Y = G S = W (D S) W, which is complex symmetric (W^T = +-W).

    With c = conj(phase) and u = p c s: Tr(X rho) = sum_i u_i Y_ii,
    Tr(X^2 rho) = sum_ij u_i Y_ij^2 (c s)_j,
    Tr(X W(t) rho) = sum_ij p_i Y_ij conj(W_ij) (c s)_j and
    Tr(V X rho) = sum_ij (c s)_i Y_ij conj(W_ij) p_j, the same sum for a
    real W. Y is walked by column blocks J of _PARTNER_WIDTH columns: a
    block is R_J = (phase s) W[:, J] and Y[J0:, J] = W[J0:] R_J, one real
    product over R_J's interleaved parts for a real W; its diagonal block
    counts once and the rows below it with both orders of their weights
    (_both_orders). At d = 1024 (eight blocks) that is 9/16 of the
    multiply-adds of G. R_J and the block of Y are written into two
    buffers of (chunk, d, width) at most, allocated on the first call and
    again only for a longer chunk; no (d, d) matrix is formed.
    """
    d = len(p)
    static = {"1": np.sum(p), "v": p @ np.diagonal(v)}
    odd = ("wvw", "vwv") if {"wvw", "vwv"} & set(words) else ()
    buffers = {}

    def kernel(w, phase):
        phase = np.ones(d) if phase is None else phase
        lead = phase.shape[:-1]
        ps, cs = phase * parities, phase.conj() * parities
        u = p * cs
        sums = dict.fromkeys(("wv", "wvwv") + odd, 0)
        for j0 in range(0, d, _PARTNER_WIDTH):
            j = slice(j0, min(j0 + _PARTNER_WIDTH, d))
            width = j.stop - j0
            r = np.multiply(ps[..., :, None], w[:, j],
                            out=_buffer(buffers, "r", lead + (d, width), np.result_type(ps, w)))
            y = _matmul(w[j0:], r, _buffer(buffers, "y", lead + (d - j0, width), r.dtype))
            sums["wv"] += _rowdot(u[..., j], np.diagonal(y[..., :width, :], axis1=-2, axis2=-1))
            if odd:
                w_j = w[j0:, j]
                x = np.multiply(y, w_j.conj(), out=r[..., :d - j0, :])     # R_J is spent
                xt = x if np.isrealobj(w) else y * w_j
                sums["wvw"] += _both_orders(x, xt, p, cs, j0, width)
                if xt is not x:
                    sums["vwv"] += _both_orders(x, xt, cs, p, j0, width)
            q = np.multiply(y, y, out=y)
            sums["wvwv"] += _both_orders(q, q, u, cs, j0, width)
        if odd and np.isrealobj(w):
            sums["vwv"] = sums["wvw"]
        return dict(static, w=p @ np.diagonal(w), **sums)
    return kernel


def _block_kernel(state, v, k: int):
    """Word traces Tr(word rho) for rho = B diag(lam) B^dag, B of shape (d, r):
    psi is one column of weight 1, and a density matrix is split by
    np.linalg.eigh, keeping the columns of signed weight above rounding.

    A word O_L ... O_1 splits as sum_j lam_j <A^dag b_j|C b_j> with
    C = O_h ... O_1, h = ceil(L/2), and A^dag = O_(h+1) ... O_L for
    Hermitian letters. Both are words of at most k letters applied to B, so
    a call costs 2k - 1 products of a (d, d) matrix by a (d, r) block, V B
    being formed once. W(t) acts on a block as phase* (W (phase x)) and is
    never formed; a (..., d) stack of phases, or a (..., d, d) stack of W,
    broadcasts through the products to (..., d, r) blocks.
    """
    if np.ndim(state) == 1:
        b, lam = np.asarray(state)[:, None], np.ones(1)
    else:
        lam, b = np.linalg.eigh(state)
        keep = np.abs(lam) > np.finfo(float).eps * len(lam) * np.max(np.abs(lam))
        b, lam = b[:, keep], lam[keep]
    v_b = _matmul(v, b)

    def kernel(w, phase):
        phase = np.ones(len(b)) if phase is None else phase
        blocks = {"": b, "v": v_b}        # a word applied to B
        for word in _words(k)[2:2 * k + 1]:   # by length, the words of 1 to k letters but V
            x = blocks[word[1:]]
            blocks[word] = (_matmul(v, x) if word[0] == "v" else
                            phase.conj()[..., None] * _matmul(w, phase[..., None] * x))

        def trace(word):
            half = len(word) // 2
            return np.einsum("...ij,...ij,j->...", blocks[word[:half][::-1]].conj(),
                             blocks[word[half:]], lam)
        return {word: trace(word.strip("1")) for word in _words(k)
                if word[0] != "v" or len(word) % 2}     # _word_traces conjugates the rest
    return kernel


# ---------------------------------------------------------------------------
# correlators


def otoc(rho, w_op, v_op, hamiltonian, t: float) -> complex:
    """F(t) = Tr(rho W(t)dag Vdag W(t) V)."""
    rho = density_matrix(check_state(rho, w_op, v_op), hamiltonian)
    u = propagator(hamiltonian, t)
    _check_dims(w_op, u)
    wt = heisenberg(w_op, u)
    return complex(np.trace(rho @ qla.dagger(wt) @ qla.dagger(v_op) @ wt @ v_op))


def _grid_traces(state, w_op, v_op, sys: qla.HermitianEigensystem, times, k: int,
                 frame=None, words=None) -> np.ndarray:
    """The (T, words) traces over words (or _words(k)) on a time grid: with no
    frame given, k = 2 traces of a state c 1 and diagonal strings take
    _plus_block_words, and the rest _word_traces in the energy frame."""
    words = _words(k) if words is None else words
    traces = _plus_block_words(state, w_op, v_op, sys, words) if k == 2 and not frame else None
    if traces is None:
        w_e, v_e, parities = frame or _energy_frame(sys, w_op, v_op)
        traces = functools.partial(
            _word_traces(_frame_state(state, sys), v_e, k, parities, words), w_e)
    return _on_grid(sys, times, (len(words),), traces)


def _word_series(state, w_op, v_op, sys: qla.HermitianEigensystem, times, k: int,
                 frame=None):
    """The traces of _grid_traces as the 2k-slot series (v1, w2, v2, w3, ...)
    of involutions W and V; its correlator F_k holds for any Hermitian W, V."""
    traces = _grid_traces(state, w_op, v_op, sys, times, k, frame)
    names = tuple(x for ell in range(1, k + 1) for x in (f"v{ell}", f"w{ell + 1}"))
    return QuasiSeries(times=times, values=_entries(traces, k), axis_names=names,
                       axis_eigenvalues=(np.array([-1.0, 1.0]),) * (2 * k),
                       correlator=traces[:, _words(k).index("wv" * k)])


def otoc_series(rho, w_op, v_op, hamiltonian, times) -> CorrelatorSeries:
    """F(t) on a time grid, diagonalizing the Hamiltonian once.

    F is the trace of the word W(t) V W(t) V, so W and V must be Hermitian;
    the lab-frame otoc takes any W and V. rho may be a state in any form
    and W and V operators in any form (module docstring). F is the one
    word "wvwv" of _grid_traces, on the route the coarse series takes: a
    state c 1 with diagonal strings W and V, the chain's infinite
    temperature with z Paulis, takes it from one block of U(t)
    (_plus_block_words) and rotates nothing; every other case takes it
    in the energy frame.
    """
    w_op, v_op = spin.as_pauli_string(w_op), spin.as_pauli_string(v_op)
    check_state(rho, w_op, v_op)
    if max(_hermiticity_defect(w_op), _hermiticity_defect(v_op)) > qla.HERMITIAN_TOL:
        raise ValueError("otoc_series needs Hermitian W and V")
    times = np.asarray(times, dtype=float)
    f = _grid_traces(rho, w_op, v_op, _eigensystem(hamiltonian), times, 2, words=("wvwv",))
    return CorrelatorSeries(times=times, values=f[:, 0])


def scrambling_onset(series: CorrelatorSeries, threshold: float = 0.9):
    """First time Re F dips below the threshold, linearly interpolated.

    Returns None when the series never crosses.
    """
    re = np.real(series.values)
    below = np.nonzero(re < threshold)[0]
    if below.size == 0:
        return None
    k = int(below[0])
    if k == 0:
        return float(series.times[0])
    t0, t1 = series.times[k - 1], series.times[k]
    r0, r1 = re[k - 1], re[k]
    return float(t0 + (threshold - r0) * (t1 - t0) / (r1 - r0))


# ---------------------------------------------------------------------------
# coarse-grained quasiprobability


def coarse_quasiprob_series(rho, w_op, v_op, hamiltonian, times) -> QuasiSeries:
    """Coarse quasiprobability along a time grid with one diagonalization.

    Involutory W and V take the word expansion, whose cost per point
    depends on the form of rho (see _word_traces) and whose series carries
    F as correlator; a state c 1 with diagonal strings W and V takes its
    words from one block of U(t) (_plus_block_words) and rotates nothing.
    Other observables take the four-projector trace of the dressed W(t)
    projectors in the energy frame, taken from the rotated W and V, and a
    density matrix, with no correlator.
    """
    w_op, v_op = spin.as_pauli_string(w_op), spin.as_pauli_string(v_op)
    check_state(rho, w_op, v_op)
    return _coarse_series(rho, w_op, v_op, _eigensystem(hamiltonian),
                          np.asarray(times, dtype=float))


def _coarse_series(rho, w_op, v_op, sys: qla.HermitianEigensystem, times, frame=None):
    """coarse_quasiprob_series of a checked state, on the energy frame
    (from _energy_frame) when one is given."""
    if _is_hermitian_involution(w_op) and _is_hermitian_involution(v_op):
        return _word_series(rho, w_op, v_op, sys, times, 2, frame)
    w_e, v_e, _ = frame or _energy_frame(sys, w_op, v_op)
    w_evs, w_projs_e = _distinct_projectors(w_e)
    v_evs, v_projs_e = _distinct_projectors(v_e)
    rho_e = density_matrix(_frame_state(rho, sys))
    out = _on_grid(sys, times, (len(v_evs), len(w_evs), len(v_evs), len(w_evs)),
                   lambda phase: _four_projector_trace(
                       v_projs_e, [_dress(p, phase) for p in w_projs_e], rho_e))
    return QuasiSeries(times=times, values=out, axis_names=COARSE_AXES,
                       axis_eigenvalues=(v_evs, w_evs, v_evs, w_evs))


def _moment(values, axis_weights):
    """Sum of values weighted by the outer product of one weight per axis,
    over the trailing axes: a number for a distribution, one per time for
    the values of a QuasiSeries."""
    weights = functools.reduce(np.multiply.outer, axis_weights)
    return np.sum(weights * values, axis=tuple(range(-weights.ndim, 0)))[()]


def otoc_moment(quasi) -> complex:
    """Sum v1 w2 conj(v2) conj(w3) A~ over all outcomes; equals F(t).

    The moments here also take a QuasiSeries, for one value per time."""
    if len(quasi.axis_eigenvalues) != 4:
        raise ValueError("moment defined for the four-slot distribution")
    v1, w2, v2, w3 = quasi.axis_eigenvalues
    return _moment(quasi.values, (v1, w2, np.conj(v2), np.conj(w3)))


# ---------------------------------------------------------------------------
# fine-grained quasiprobability


def _fine_basis(op) -> tuple[np.ndarray, np.ndarray]:
    """(eigenvalues, eigenvector columns) of W or V over a full basis, from
    qla.eigh; the cap _FINE_MAX_DIM is checked first."""
    dim = _dim(op)
    if dim > _FINE_MAX_DIM:
        raise ValueError(f"dimension {dim} exceeds the fine-grained guard: full bases "
                         f"are capped at dimension {_FINE_MAX_DIM}")
    sys = qla.eigh(op)
    return sys.eigenvalues, sys.eigenvectors


def fine_quasiprob(
    rho,
    w_op,
    v_op,
    hamiltonian,
    t: float,
) -> QuasiDistribution:
    """Fine-grained distribution over labeled eigenvectors.

    Entries are the four-bracket products

        <w3,l|U|v2,n> <v2,n|Udag|w2,l'> <w2,l'|U|v1,n'> <v1,n'|rho Udag|w3,l>

    with both W slots sharing one labeled eigenbasis and likewise for V.
    The bases are qla.eigh of the operators (deterministic inside
    degenerate blocks, so for a single-site Pauli the labels enumerate the
    computational configurations of the untouched sites).
    """
    check_state(rho, w_op, v_op)
    w_evs, w_cols = _fine_basis(w_op)
    v_evs, v_cols = _fine_basis(v_op)
    u = propagator(hamiltonian, t)
    rho = density_matrix(rho, hamiltonian)

    p = w_cols.conj().T @ u @ v_cols             # <w|U|v>
    r = v_cols.conj().T @ rho @ u.conj().T @ w_cols
    # axis order (v1, w2, v2, w3) = (k, m, n, l)
    vals = np.einsum("ln,mn,mk,kl->kmnl", p, np.conj(p), p, r)

    def labels_for(evs):
        return np.concatenate([np.arange(b - a) for a, b in qla._group_degenerate(evs)])

    return QuasiDistribution(
        values=vals,
        axis_names=COARSE_AXES,
        axis_eigenvalues=(v_evs, w_evs, v_evs, w_evs),
        axis_labels=(labels_for(v_evs), labels_for(w_evs), labels_for(v_evs), labels_for(w_evs)),
        meta={"u": u, "w_cols": w_cols, "v_cols": v_cols,
              "rho": rho},
    )


def coarse_grain(fine: QuasiDistribution) -> QuasiDistribution:
    """Sum a fine-grained distribution over its degeneracy labels, the
    groups of qla._group_degenerate on each axis."""
    if fine.axis_labels is None:
        raise ValueError("input is already coarse")
    groups = [qla._group_degenerate(evs) for evs in fine.axis_eigenvalues]
    shape = tuple(len(g) for g in groups)
    vals = np.zeros(shape, dtype=complex)
    for idx in np.ndindex(shape):
        vals[idx] = fine.values[tuple(slice(*groups[a][i]) for a, i in enumerate(idx))].sum()
    return QuasiDistribution(
        values=vals,
        axis_names=fine.axis_names,
        axis_eigenvalues=tuple(np.array([evs[a] for a, _ in gs])
                               for evs, gs in zip(fine.axis_eigenvalues, groups)),
    )


def marginalize(quasi: QuasiDistribution, keep) -> QuasiDistribution:
    """Sum over all slots but one, kept by name or by index (negative ones
    count from the end); the result is a Born-rule probability."""
    ndim = quasi.values.ndim
    if keep in quasi.axis_names:
        keep = quasi.axis_names.index(keep)
    if isinstance(keep, str) or not -ndim <= keep < ndim:
        raise KeyError(f"no axis {keep!r}")
    axis = int(keep) % ndim
    marg = quasi.values.sum(axis=tuple(a for a in range(ndim) if a != axis))
    worst_imag = float(np.max(np.abs(marg.imag))) if marg.size else 0.0
    if worst_imag > 1e-8:
        raise RuntimeError(f"marginal has imaginary residue {worst_imag:.3e}; input invalid")
    return QuasiDistribution(
        values=marg.real,
        axis_names=(quasi.axis_names[axis],),
        axis_eigenvalues=(quasi.axis_eigenvalues[axis].copy(),),
        axis_labels=None if quasi.axis_labels is None else (quasi.axis_labels[axis].copy(),),
    )


# ---------------------------------------------------------------------------
# derived distributions


def work_distribution(quasi: QuasiDistribution) -> QuasiDistribution:
    """Collect A~ onto (W, W') = (conj(w3) conj(v2), w2 v1), or the
    time-ordered A~_TOC onto (W, W') = (w1 v2, w1 v1): P_TOC, whose moment
    recovers the TOC for Hermitian W and V.

    Each axis holds the distinct products, ascending, in the groups of
    qla._group_degenerate, each labelled by its lowest member as in
    coarse_grain; a cell sums its entries in C order. The moment
    Sum W W' P is kfold_moment, and a marginal is values.sum(axis=...),
    complex in general.
    """
    if quasi.values.ndim == 4:
        v1, w2, v2, w3 = np.ix_(*quasi.axis_eigenvalues)
        products = (np.conj(w3) * np.conj(v2), w2 * v1)
    elif quasi.values.ndim == 3:
        v1, w1, v2 = np.ix_(*quasi.axis_eigenvalues)
        products = (w1 * v2, w1 * v1)
    else:
        raise ValueError("expected the three- or four-slot distribution")
    axes, cells = [], []
    for prod in products:
        distinct, inverse = np.unique(np.broadcast_to(prod, quasi.values.shape).ravel(),
                                      return_inverse=True)
        starts = [a for a, _ in qla._group_degenerate(distinct)]
        axes.append(distinct[starts])
        cells.append(np.searchsorted(starts, inverse, side="right") - 1)
    values = np.zeros(tuple(map(len, axes)), dtype=complex)
    np.add.at(values, tuple(cells), quasi.values.ravel())
    return QuasiDistribution(values=values, axis_names=("W", "W'"),
                             axis_eigenvalues=tuple(axes))


# for each slot subset of _hadamard(4), the column of regulated_series'
# traces (Tr rho, rho V, rho W, qVqV, W'W', qW'V, its conj, W'W'V, W'VqV,
# W'VW'V) that equals its Tr(A3 B2 A2 B1) by cyclicity and Hermiticity
_REGULATED_TERMS = (0, 2, 1, 5, 2, 4, 6, 7, 1, 6, 3, 8, 5, 7, 8, 9)


def regulated_series(hamiltonian, temperature: float, w_op, v_op, times) -> QuasiSeries:
    """Thermally regulated coarse distribution and its correlator on a time grid.

    The thermal state rho = e^{-H/T}/Z is split into four quarter powers
    interleaved with the projectors: each W(t) projector P becomes r P r
    for r = rho^{1/4}, diagonal in the energy frame and taken from
    spin.thermal_weights. W and V must be Hermitian involutions (else
    ValueError): with q = r^2 and W' = r W(t) r the projectors are
    (q +- W')/2 and (1 +- V)/2, so the entries are _hadamard(4) applied to
    the 16 traces Tr(A3 B2 A2 B1), A in {q, W'} and B in {1, V}, of which
    cyclicity and Hermiticity leave five static and four per point
    (_REGULATED_TERMS). Each is an elementwise sum over W', G = W' V or the
    static q V, so a chunk of points (_on_grid) costs the one matrix
    product G, stacked over the chunk's (chunk, d) phases. The correlator
    is F_reg = Tr(W' V W' V) = Tr(G G), which the usual moment reproduces.
    """
    sys = _eigensystem(hamiltonian)
    w_op, v_op = spin.as_pauli_string(w_op), spin.as_pauli_string(v_op)
    _check_dims(w_op, v_op, sys.eigenvectors)
    if not _is_hermitian_involution(w_op) or not _is_hermitian_involution(v_op):
        raise ValueError("regulated_series needs involutory W and V")
    times = np.asarray(times, dtype=float)
    p = spin.thermal_weights(sys.eigenvalues, temperature)
    r = p ** 0.25
    q = r * r
    w_e, v_e, _ = _energy_frame(sys, w_op, v_op)
    w_reg = r[:, None] * w_e * r          # W' at t = 0
    qv = q[:, None] * v_e
    trace = functools.partial(np.einsum, "...ij,...ji->...")     # Tr(a b) per member

    def points(phase):
        g = phase.conj()[..., None] * _matmul(w_reg, phase[..., None] * v_e)     # W' V
        qwv = np.einsum("i,...ii->...", q, g)
        return np.stack((qwv, np.conj(qwv), trace(_dress(w_reg, phase), g), trace(g, qv),
                         trace(g, g)), axis=-1)
    traces = np.empty((len(times), 10), dtype=complex)
    traces[:, :5] = (np.sum(p), p @ np.diagonal(v_e), p @ np.diagonal(w_e),
                     _matrix_sum(qv * qv.T), _matrix_sum(w_reg * w_reg.T))
    traces[:, 5:] = _on_grid(sys, times, (5,), points)
    values = traces[:, _REGULATED_TERMS] @ _hadamard(4).T / 16
    return QuasiSeries(times=times, values=values.reshape((len(times),) + (2,) * 4),
                       axis_names=COARSE_AXES, axis_eigenvalues=(np.array([-1.0, 1.0]),) * 4,
                       correlator=traces[:, 9])


def toc_series(rho, w_op, v_op, hamiltonian, times) -> QuasiSeries:
    """Time-ordered analog on a time grid: three-slot distributions and the TOC.

    The distribution is
    A~_TOC(v1, w1, v2) = Tr(Pi^V_{v2} Pi^{W(t)}_{w1} Pi^V_{v1} rho), the
    coarse series summed over w3: the W(t) projectors resolve the identity;
    work_distribution collects it onto P_TOC. Its correlator,
    TOC(t) = <Vdag W(t)dag W(t) V>, saturates at 1 for unitary W, V; with
    M = V rho Vdag and W^dag W taken once in the energy frame from the W
    and V the coarse series rotated, K = M^T * W^dag W (elementwise) makes
    each point conj(phase) @ K @ phase, one product per chunk (_on_grid)
    for its (chunk, d) stack of phases. Energy-frame weights p give
    M = (V p) V^dag, one product.
    """
    w_op, v_op = spin.as_pauli_string(w_op), spin.as_pauli_string(v_op)
    check_state(rho, w_op, v_op)
    sys = _eigensystem(hamiltonian)
    frame = _energy_frame(sys, w_op, v_op)
    coarse = _coarse_series(rho, w_op, v_op, sys, np.asarray(times, dtype=float), frame)
    w_e, v_e, _ = frame
    state = _frame_state(rho, sys)
    v_rho = v_e * state.weights if isinstance(state, DiagonalState) else v_e @ density_matrix(state)
    kernel = (v_rho @ qla.dagger(v_e)).T * (qla.dagger(w_e) @ w_e)
    toc = _on_grid(sys, coarse.times, (), lambda phase: _rowdot(phase.conj() @ kernel, phase))
    v_evs, w_evs = coarse.axis_eigenvalues[:2]
    return QuasiSeries(times=coarse.times, values=coarse.values.sum(axis=-1),
                       axis_names=("v1", "w1", "v2"), axis_eigenvalues=(v_evs, w_evs, v_evs),
                       correlator=toc)


def toc_moment(quasi: QuasiDistribution) -> complex:
    """Sum v1 w1^2 v2 A~_TOC over all outcomes, the moment of P_TOC."""
    v1, w1, v2 = quasi.axis_eigenvalues
    return _moment(quasi.values, (v1, w1**2, v2))


def kfold_series(rho, w_op, v_op, hamiltonian, times, khat: int) -> QuasiSeries:
    """The 2k-slot distribution on a time grid, with the k-fold correlator
    F_k = Tr(rho (W(t) V)^k) as its correlator.

    Slots run chronologically (v1, w2, v2, w3, ..., vk, w_{k+1}); the
    moment with weight (product of all w) (product of all v) recovers the
    correlator. Restricted to Hermitian involutions W and V, whose entries
    are the word table applied to the word traces; khat lies in
    [2, _KFOLD_MAX], and F_k is the trace of the longest word, (W(t) V)^k.
    """
    if not isinstance(khat, int) or khat < 2 or khat > _KFOLD_MAX:
        raise ValueError(f"khat must be an integer in [2, {_KFOLD_MAX}]")
    w_op, v_op = spin.as_pauli_string(w_op), spin.as_pauli_string(v_op)
    check_state(rho, w_op, v_op)
    if not _is_hermitian_involution(w_op) or not _is_hermitian_involution(v_op):
        raise ValueError("k-fold enumeration needs involutory W and V")
    times = np.asarray(times, dtype=float)
    sys = _eigensystem(hamiltonian)
    return _word_series(rho, w_op, v_op, sys, times, khat)


def kfold_moment(quasi: QuasiDistribution) -> complex:
    """Sum of each entry times the product of its outcomes, one per axis:
    (prod w)(prod v) over a 2k-slot distribution, and Sum W W' P over the
    work distribution P(W, W') of either work_distribution form."""
    return _moment(quasi.values, quasi.axis_eigenvalues)

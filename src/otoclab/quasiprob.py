"""Out-of-time-ordered correlators and their quasiprobability representations.

The central objects are F(t) = Tr(rho W(t)dag Vdag W(t) V) for Heisenberg
W(t) = Udag W U, the coarse-grained distribution

    A~(v1, w2, v2, w3) = Tr(Pi^{W(t)}_{w3} Pi^V_{v2} Pi^{W(t)}_{w2} Pi^V_{v1} rho),

its fine-grained refinement over degeneracy labels, the derived work-like
distribution P(W, W'), and the regulated, time-ordered, and k-fold variants.
F(t) is recoverable from every one of these as a moment; the moment helpers
live here next to the distributions so the identities stay testable.

Every coarse distribution comes from one of two independent routes, which
the tests use as each other's oracle: the explicit projector trace
(_four_projector_trace) and, for involutory W and V, the word expansion:
with each projector written as (1 + s O)/2, every 2k-slot entry is the
constant _word_table(k) applied to the 4k traces Tr(word rho) of
_word_traces. The coarse and k-fold series, the lab-frame
coarse_quasiprob_via_correlators and the Brownian ensemble all take their
entries this way. Projectors of an involution are built as (1 -+ O)/2
(_distinct_projectors), never by eigendecomposition.

Series work in the eigenbasis of H, found once (_energy_frame), where W(t)
is W dressed elementwise by the phases e^{-iEt} (_dress). For a real H,
such as the Ising chain, qla.eigh returns real eigenvectors, so real
observables stay real in that frame and their products are real GEMMs.
The word traces take their contraction from the form of the state
(_word_traces); per point of the four-slot series, energy-frame weights
(DiagonalState: infinite temperature, thermal states) cost one matrix
product and elementwise sums, and any other state, as a block of weighted
vectors (psi, or the eigenvectors of a density matrix), three products
of a matrix by the block that never form W(t); a dense rho equal to c 1
(a constant real diagonal, nothing off it) is read as equal weights. F is
one column of those traces (otoc_series), and density_matrix makes any
form dense.

W and V reach the series as matrices or as spin.PauliString tables, the
operator counterpart of DiagonalState. A string P is rotated with one
product, e^dag (P e), where P e permutes and scales the rows of the
eigenvectors e, and is checked for Hermiticity and P^2 = 1 on its table
in O(d); a route that needs the matrix (the projector trace of the
non-involutory coarse series, the regulated series, the TOC's W^dag W)
expands it once with spin.pauli_matrix.

The time-ordered, k-fold and regulated single-time functions are their
series of length one, and the time-ordered distribution is A~ summed
over w3 (the W(t) projectors resolve the identity). otoc,
coarse_quasiprob, correlators_for_expansion and fine_quasiprob stay in
the lab frame as the series' oracles and take density matrices and
matrix W and V.

Hamiltonians are accepted either as matrices or as precomputed
qla.HermitianEigensystem values; passing the eigensystem lets callers sweep
many times without rediagonalizing.
"""
from __future__ import annotations

import functools
from dataclasses import dataclass, field

import numpy as np

from . import qla, spin

_KEY_DECIMALS = 9          # bucket size for collecting eigenvalue products
_FINE_MAX_DIM = 64         # 6 qubits; the fine tensor holds dim**4 entries
_KFOLD_MAX = 5

COARSE_AXES = ("v1", "w2", "v2", "w3")


# ---------------------------------------------------------------------------
# carriers


@dataclass
class QuasiDistribution:
    """Dense quasiprobability tensor with one axis per outcome slot.

    axis_eigenvalues[i] gives the eigenvalue attached to each index along
    axis i. For fine-grained distributions the axes run over full bases and
    axis_labels[i] carries the degeneracy label of each index (for a local
    Pauli this is the computational configuration of the untouched sites).
    """

    values: np.ndarray
    axis_names: tuple[str, ...]
    axis_eigenvalues: tuple[np.ndarray, ...]
    grain: str = "coarse"
    axis_labels: tuple[np.ndarray, ...] | None = None
    meta: dict = field(default_factory=dict)

    def total(self) -> complex:
        return complex(self.values.sum())

    def _axis_index(self, axis: int, eigenvalue: float, label=None) -> int:
        evs = self.axis_eigenvalues[axis]
        hits = np.nonzero(np.abs(evs - eigenvalue) < 1e-9)[0]
        if hits.size == 0:
            raise KeyError(f"{eigenvalue} not an outcome on axis {self.axis_names[axis]}")
        if label is None:
            if hits.size > 1:
                raise KeyError(
                    f"axis {self.axis_names[axis]} needs a degeneracy label "
                    f"for eigenvalue {eigenvalue}"
                )
            return int(hits[0])
        labs = self.axis_labels[axis][hits]
        sub = np.nonzero(labs == label)[0]
        if sub.size != 1:
            raise KeyError(f"label {label} not found for eigenvalue {eigenvalue}")
        return int(hits[sub[0]])

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
class WorkDistribution:
    """Complex distribution over eigenvalue products (W, W')."""

    entries: dict[tuple[complex, complex], complex]

    @staticmethod
    def _bucket(x) -> complex:
        z = complex(x)
        return complex(round(z.real, _KEY_DECIMALS), round(z.imag, _KEY_DECIMALS))

    def entry(self, w, wprime) -> complex:
        return self.entries[(self._bucket(w), self._bucket(wprime))]

    def total(self) -> complex:
        return sum(self.entries.values())

    def moment(self) -> complex:
        return sum(w * wp * p for (w, wp), p in self.entries.items())

    def marginal(self, which: int) -> dict[complex, complex]:
        out: dict[complex, complex] = {}
        for key, p in self.entries.items():
            out[key[which]] = out.get(key[which], 0.0) + p
        return out


@dataclass
class MarginalDistribution:
    """Real distribution from summing a quasiprobability over all but one slot."""

    axis_name: str
    eigenvalues: np.ndarray
    probabilities: np.ndarray
    labels: np.ndarray | None = None


@dataclass
class CorrelatorSeries:
    times: np.ndarray
    values: np.ndarray
    label: str = ""

    def __post_init__(self):
        if len(self.times) != len(self.values):
            raise ValueError("times and values must have equal length")


@dataclass
class QuasiSeries:
    """Coarse quasiprobability tensors along a time grid (leading time axis).

    Entries taken by the word expansion carry the trace of the longest
    word, F_k = Tr((W(t) V)^k rho), as correlator: their moment.
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
            grain="coarse",
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
    """The density matrix of a state given in any of its forms.

    A state is a (d, d) density matrix, a (d,) vector psi (rho = |psi><psi|)
    or a DiagonalState. Its weights are placed in the Hamiltonian's
    eigenbasis, the lab frame, when one is given; without one, and for
    equal weights, which are the same in every frame, rho is diag(weights).
    """
    if isinstance(state, DiagonalState):
        p = state.weights
        if hamiltonian is None or np.all(p == p[0]):
            return np.diag(p.astype(complex))
        return np.asarray(_eigensystem(hamiltonian).spectral(p), dtype=complex)
    s = np.asarray(state, dtype=complex)
    return np.outer(s, s.conj()) if s.ndim == 1 else s


def _frame_state(state, sys: qla.HermitianEigensystem):
    """The state in the energy frame, in the form it came in: weights as
    they are, psi and a dense rho rotated. A dense rho that is exactly c 1
    becomes equal weights, with no rotation."""
    if isinstance(state, DiagonalState):
        return state
    s = np.asarray(state, dtype=complex)
    if s.ndim == 1:
        return _matmul(sys.eigenvectors.conj().T, s[:, None])[:, 0]
    diag = np.diagonal(s)
    # c 1 has a constant real diagonal and no nonzero entry off it
    if np.all(diag == diag[0].real) and np.count_nonzero(s) == np.count_nonzero(diag):
        return DiagonalState(np.full(s.shape[0], diag[0].real))
    (rho_e,) = _energy_frame(sys, s)
    return rho_e


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


def _energy_frame(sys: qla.HermitianEigensystem, *ops) -> list[np.ndarray]:
    """Operators rotated into the eigenbasis of the Hamiltonian. In a real
    frame (real eigenvectors) an operator with no imaginary part stays
    real. A spin.PauliString P takes one product, e^dag (P e): P e is e
    with its rows permuted by r ^ mask and scaled by the phases."""
    e = sys.eigenvectors
    out = []
    for op in ops:
        if isinstance(op, spin.PauliString):
            flipped = op.flipped()
            out.append(_matmul(e.conj().T, op.phase[flipped, None] * e[flipped]))
            continue
        m = np.asarray(op, dtype=complex)
        if np.isrealobj(e) and not np.any(m.imag):
            m = m.real
        out.append(_matmul(e.conj().T, m) @ e)
    return out


def _phases(sys: qla.HermitianEigensystem, t: float) -> np.ndarray:
    """e^{-i E t}, the diagonal of U in the energy frame."""
    return np.exp(-1j * sys.eigenvalues * t)


def _dress(op_e, phase) -> np.ndarray:
    """Udag op U in the energy frame for U = diag(phase), an elementwise
    phase dressing."""
    return (phase.conj()[:, None] * op_e) * phase[None, :]


def _dim(op) -> int:
    if isinstance(op, DiagonalState):
        return len(op.weights)
    return op.dim if isinstance(op, spin.PauliString) else np.shape(op)[0]


def _check_dims(*ops):
    dims = {_dim(o) for o in ops}
    if len(dims) != 1:
        raise ValueError(f"dimension mismatch among operands: {sorted(dims)}")


def _check_state(rho):
    """The series and word routes take a density matrix, so a Hermitian rho."""
    if qla.hermiticity_defect(rho) > qla.HERMITIAN_TOL:
        raise ValueError("rho must be Hermitian")


def _dense(op):
    """The matrix of op: a spin.PauliString expanded once, else op itself."""
    return op.matrix() if isinstance(op, spin.PauliString) else op


def _hermiticity_defect(op) -> float:
    """qla.hermiticity_defect of op, in O(d) on a spin.PauliString's table."""
    if isinstance(op, spin.PauliString):
        return op.hermiticity_defect()
    return qla.hermiticity_defect(op)


def _is_hermitian_involution(op, tol: float = 1e-10) -> bool:
    """O = Odag and O O = 1, so O has eigenvalues +-1 and projectors (1 +- O)/2.

    A spin.PauliString is tested on its table in O(d), with the dense
    tests' tolerances. For a matrix the Hermiticity test runs first and its
    temporaries are freed before O O is formed, in real arithmetic when O
    has no imaginary part.
    """
    if _hermiticity_defect(op) > qla.HERMITIAN_TOL:
        return False
    if isinstance(op, spin.PauliString):
        return op.involution_defect() <= tol
    m = np.asarray(op)
    if not np.any(m.imag):
        m = m.real
    return bool(np.max(np.abs(m @ m - np.eye(m.shape[0]))) <= tol)


def _distinct_projectors(op) -> tuple[np.ndarray, list[np.ndarray]]:
    """Ascending distinct eigenvalues and their eigenspace projectors.

    A Hermitian involution other than +-1 (a Pauli string, or its
    Heisenberg evolution) has eigenvalues -1, +1 and projectors (1 -+ O)/2,
    which are built directly; only other operators go through qla.eigh.
    """
    if not isinstance(op, qla.HermitianEigensystem):
        m = qla.as_square_array(op)
        dim = m.shape[0]
        # the trace of a Hermitian involution is an integer, +-dim only for +-1
        if abs(np.trace(m)) < dim - 0.5 and _is_hermitian_involution(m):
            eye = np.eye(dim)
            return np.array([-1.0, 1.0]), [(eye - m) / 2, (eye + m) / 2]
    sys = _eigensystem(op)
    evs, projs = [], []
    for start, stop in sys.degenerate_groups():
        cols = sys.eigenvectors[:, start:stop]
        evs.append(sys.eigenvalues[start])
        projs.append(cols @ cols.conj().T)
    return np.array(evs), projs


def _energy_projectors(sys: qla.HermitianEigensystem, op):
    """Distinct eigenvalues of op and its projectors in the energy frame."""
    evs, projs = _distinct_projectors(op)
    return evs, _energy_frame(sys, *projs)


def _four_projector_trace(v_projs, w_projs, rho=None) -> np.ndarray:
    """Tr(Pw3 Pv2 Pw2 Pv1 rho) over every index quadruple (v1, w2, v2, w3).

    rho=None drops the state, for projectors that already carry it. Partial
    products are built one at a time, so at most three extra matrices live.
    """
    nv, nw = len(v_projs), len(w_projs)
    vals = np.empty((nv, nw, nv, nw), dtype=complex)
    for i_v1, pv1 in enumerate(v_projs):
        right = pv1 if rho is None else pv1 @ rho
        for i_w2, pw2 in enumerate(w_projs):
            m = pw2 @ right
            for i_v2, pv2 in enumerate(v_projs):
                mm = pv2 @ m
                for i_w3, pw3 in enumerate(w_projs):
                    vals[i_v1, i_w2, i_v2, i_w3] = np.einsum("ij,ji->", pw3, mm)
    return vals


def _matrix_sum(x):
    """Sum over the last two axes; Tr(a b) is _matrix_sum(a * b^T), which
    never forms the product a b."""
    return np.sum(x, axis=(-2, -1))[()]


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
    (product of s over S) Tr(O_S rho): a +-1 Hadamard matrix carries the
    signs, and W^2 = V^2 = 1 reduces each ordered product O_S to a word.
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
    hadamard = functools.reduce(np.kron, [np.array([[1.0, -1.0], [1.0, 1.0]])] * slots)
    table = hadamard @ indicator / 4**k
    table.flags.writeable = False
    return table


def _entries(traces, k: int) -> np.ndarray:
    """The 2k-slot entries, shape (..., 2, ..., 2), from (..., 4k) word traces."""
    return (traces @ _word_table(k).T).reshape(np.shape(traces)[:-1] + (2,) * (2 * k))


def _word_traces(state, v, k: int):
    """Map (W, phase) -> the traces Tr(word rho) over _words(k), as an array.

    W(t) is W dressed by the unit phases e^{-iEt} (_dress), or W itself
    when phase is None. The state, in the frame V and W share, picks the
    contraction: DiagonalState weights take _diagonal_kernel, k - 1 matrix
    products per call; a vector psi or a density matrix take _block_kernel
    on rho = B diag(lam) B^dag, 2k - 1 products of a matrix by the (d, r)
    block B. For Hermitian rho, W and V a word's trace is the conjugate of
    its reverse's, which gives the even W-first words; a dense rho is
    checked. The block kernel also takes a (..., d, d) stack of W(t), with
    phase None, for traces of shape (..., 4k)."""
    if isinstance(state, DiagonalState):
        kernel = _diagonal_kernel(state.weights, v, k)
    else:
        kernel = _block_kernel(state, v, k)
    words = _words(k)

    def traces(w, phase=None) -> np.ndarray:
        vals = kernel(w, phase)
        for m in range(1, k):
            vals["vw" * m] = np.conj(vals["wv" * m])
        out = np.empty(np.shape(w)[:-2] + (len(words),), dtype=complex)
        for j, word in enumerate(words):
            out[..., j] = vals[word]
        return out
    return traces


def _diagonal_kernel(p, v, k: int):
    """Word traces Tr(word rho) for rho = diag(p).

    With D = diag(phase) and c = conj(phase), X = W(t) V is D* G for
    G = W (D V), and G_m = D X^m = G_(m-1) D* G. For unit phases and
    Hermitian V and W every trace is an elementwise sum:
    Tr(X^m rho) = sum_i p_i c_i (G_m)_ii,
    Tr(V X^m rho) = sum_ab c_a (G_m)_ab conj(V_ab) p_b,
    Tr(X^m W(t) rho) = sum_ij p_i (G_m)_ij conj(W_ij) c_j and
    Tr(X^(m+1) rho) = sum_ij p_i c_i (G_m)_ij c_j G_ji. W(t) and X are never
    formed, and a call costs G_1, ..., G_(k-1): k - 1 matrix products.
    D V, G, the weights p_i conj(W_ij) and the G_m are written into (d, d)
    buffers allocated on the first call, not freshly at every point.
    """
    static = {"1": np.sum(p), "v": p @ np.diagonal(v)}
    vp = np.asarray(v.conj() * p, dtype=complex)
    buffers = {}

    def buffer(name, dtype):
        buf = buffers.get(name)
        if buf is None or buf.dtype != dtype:
            buf = buffers[name] = np.empty(v.shape, dtype)
        return buf

    def kernel(w, phase):
        phase = np.ones(len(p)) if phase is None else phase
        c = phase.conj()
        dv = np.multiply(phase[:, None], v, out=buffer("dv", np.result_type(phase, v)))
        g = _matmul(w, dv, buffer("g", np.result_type(w, dv)))
        wp = np.multiply(p[:, None], w.conj(), out=buffer("wp", np.result_type(p, w)))
        vals = dict(static, w=p @ np.diagonal(w), wv=(p * c) @ np.diagonal(g))
        gm = g
        for m in range(1, k):
            vals["v" + "wv" * m] = c @ np.einsum("ab,ab->a", gm, vp)
            vals["wv" * m + "w"] = np.einsum("ij,ij->j", gm, wp) @ c
            vals["wv" * m + "wv"] = np.einsum("ij,ji,j->i", gm, g, c) @ (p * c)
            if m < k - 1:
                gc = np.multiply(gm, c, out=buffer("gc", g.dtype))
                gm = np.matmul(gc, g, out=buffer("gm", g.dtype))
        return vals
    return kernel


def _block_kernel(state, v, k: int):
    """Word traces Tr(word rho) for rho = B diag(lam) B^dag, B of shape (d, r):
    psi is one column of weight 1, and a density matrix is checked and split
    by np.linalg.eigh, keeping the columns of signed weight above rounding.

    A word O_L ... O_1 splits as sum_j lam_j <A^dag b_j|C b_j> with
    C = O_h ... O_1, h = ceil(L/2), and A^dag = O_(h+1) ... O_L for
    Hermitian letters. Both are words of at most k letters applied to B, so
    a call costs 2k - 1 products of a (d, d) matrix by a (d, r) block, V B
    being formed once. W(t) acts on a block as phase* (W (phase x)) and is
    never formed; a (..., d, d) stack of W broadcasts through the products.
    """
    if np.ndim(state) == 1:
        b, lam = np.asarray(state)[:, None], np.ones(1)
    else:
        _check_state(state)
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
                            phase.conj()[:, None] * _matmul(w, phase[:, None] * x))

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
    _check_dims(rho, w_op, v_op)
    u = propagator(hamiltonian, t)
    _check_dims(rho, u)
    wt = heisenberg(w_op, u)
    return complex(np.trace(rho @ qla.dagger(wt) @ qla.dagger(v_op) @ wt @ v_op))


def commutator_square(rho, w_op, v_op, hamiltonian, t: float) -> float:
    """C(t) = <[W(t), V]dag [W(t), V]>; equals 2 - 2 Re F for unitary W, V."""
    _check_dims(rho, w_op, v_op)
    u = propagator(hamiltonian, t)
    wt = heisenberg(w_op, u)
    comm = wt @ v_op - v_op @ wt
    val = complex(np.trace(rho @ qla.dagger(comm) @ comm))
    return float(val.real)


def _word_series(state, w_op, v_op, sys: qla.HermitianEigensystem, times, k: int):
    """The word traces on a time grid, taken in the energy frame, as the
    2k-slot series (v1, w2, v2, w3, ...) of involutions W and V; its
    correlator F_k holds for any Hermitian W and V."""
    w_e, v_e = _energy_frame(sys, w_op, v_op)
    word_traces = _word_traces(_frame_state(state, sys), v_e, k)
    traces = np.empty((len(times), 4 * k), dtype=complex)
    for i, t in enumerate(times):
        traces[i] = word_traces(w_e, _phases(sys, t))
    names = tuple(x for ell in range(1, k + 1) for x in (f"v{ell}", f"w{ell + 1}"))
    return QuasiSeries(times=times, values=_entries(traces, k), axis_names=names,
                       axis_eigenvalues=(np.array([-1.0, 1.0]),) * (2 * k),
                       correlator=traces[:, _words(k).index("wv" * k)])


def otoc_series(rho, w_op, v_op, hamiltonian, times) -> CorrelatorSeries:
    """F(t) on a time grid, diagonalizing the Hamiltonian once.

    F is the trace of the word W(t) V W(t) V, one column of the
    energy-frame word traces (_word_traces), so W and V must be Hermitian;
    the lab-frame otoc takes any W and V. rho may be any state form that
    density_matrix accepts, and W and V matrices or spin.PauliString
    tables.
    """
    _check_dims(rho, w_op, v_op)
    if max(_hermiticity_defect(w_op), _hermiticity_defect(v_op)) > qla.HERMITIAN_TOL:
        raise ValueError("otoc_series needs Hermitian W and V")
    times = np.asarray(times, dtype=float)
    series = _word_series(rho, w_op, v_op, _eigensystem(hamiltonian), times, 2)
    return CorrelatorSeries(times=times, values=series.correlator, label="otoc")


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


def coarse_quasiprob(rho, w_op, v_op, hamiltonian, t: float) -> QuasiDistribution:
    """Four-projector trace A~(v1, w2, v2, w3) over every eigenvalue quadruple."""
    _check_dims(rho, w_op, v_op)
    wt = heisenberg(w_op, propagator(hamiltonian, t))
    w_evs, w_projs = _distinct_projectors(wt)
    v_evs, v_projs = _distinct_projectors(v_op)
    vals = _four_projector_trace(v_projs, w_projs, np.asarray(rho, dtype=complex))
    return QuasiDistribution(
        values=vals,
        axis_names=COARSE_AXES,
        axis_eigenvalues=(v_evs, w_evs, v_evs, w_evs),
        grain="coarse",
    )


def coarse_quasiprob_series(rho, w_op, v_op, hamiltonian, times) -> QuasiSeries:
    """Coarse quasiprobability along a time grid with one diagonalization.

    Works in the energy eigenbasis. Involutory W and V take the word
    expansion, whose cost per point depends on the form of rho (see
    _word_traces) and whose series carries F as correlator; other
    observables take the four-projector trace of the dressed W(t)
    projectors and a density matrix. W and V may be matrices or
    spin.PauliString tables.
    """
    _check_dims(rho, w_op, v_op)
    sys = _eigensystem(hamiltonian)
    times = np.asarray(times, dtype=float)
    if _is_hermitian_involution(w_op) and _is_hermitian_involution(v_op):
        return _word_series(rho, w_op, v_op, sys, times, 2)
    w_evs, w_projs_e = _energy_projectors(sys, _dense(w_op))
    v_evs, v_projs_e = _energy_projectors(sys, _dense(v_op))
    rho_e = density_matrix(_frame_state(rho, sys))
    _check_state(rho_e)
    out = np.empty((times.shape[0], len(v_evs), len(w_evs), len(v_evs), len(w_evs)),
                   dtype=complex)
    for i, t in enumerate(times):
        phase = _phases(sys, t)
        out[i] = _four_projector_trace(v_projs_e, [_dress(p, phase) for p in w_projs_e], rho_e)
    return QuasiSeries(
        times=times,
        values=out,
        axis_names=COARSE_AXES,
        axis_eigenvalues=(v_evs, w_evs, v_evs, w_evs),
    )


def correlators_for_expansion(rho, w_op, v_op, hamiltonian, t: float) -> dict[str, complex]:
    """Tr(word rho) for the eight words of the four-slot expansion, keyed by
    word ("1", "v", "w", "wv", "vw", "vwv", "wvw", "wvwv"). The words are
    contracted as products of Hermitian letters (_word_traces), so a
    non-Hermitian W or V raises ValueError, as in otoc_series."""
    if max(qla.hermiticity_defect(w_op), qla.hermiticity_defect(v_op)) > qla.HERMITIAN_TOL:
        raise ValueError("correlators_for_expansion needs Hermitian W and V")
    wt = heisenberg(w_op, propagator(hamiltonian, t))
    traces = _word_traces(np.asarray(rho, dtype=complex), np.asarray(v_op, dtype=complex), 2)
    return {word: complex(x) for word, x in zip(_words(2), traces(wt))}


def coarse_quasiprob_via_correlators(rho, w_op, v_op, hamiltonian, t: float) -> QuasiDistribution:
    """Coarse distribution assembled from eight correlators.

    Only valid for involutory (Hermitian unitary) W and V, whose projectors
    are (1 +- O)/2. This is the measurement-friendly route: the sixteen
    quasiprobability values collapse onto eight expectation values.
    """
    _check_dims(rho, w_op, v_op)
    if not _is_hermitian_involution(w_op) or not _is_hermitian_involution(v_op):
        raise ValueError("projector expansion needs involutory W and V (eigenvalues +-1)")
    corr = correlators_for_expansion(rho, w_op, v_op, hamiltonian, t)
    return QuasiDistribution(values=_entries(np.array(list(corr.values())), 2),
                             axis_names=COARSE_AXES,
                             axis_eigenvalues=(np.array([-1.0, 1.0]),) * 4)


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


def _eigenvalue_runs(evs) -> list[slice]:
    """Runs of equal (to 1e-9) consecutive eigenvalues along one axis."""
    runs, start = [], 0
    for k in range(1, evs.shape[0] + 1):
        if k == evs.shape[0] or abs(evs[k] - evs[start]) > 1e-9:
            runs.append(slice(start, k))
            start = k
    return runs


def fine_quasiprob(
    rho,
    w_op,
    v_op,
    hamiltonian,
    t: float,
    w_basis: tuple[np.ndarray, np.ndarray] | None = None,
    v_basis: tuple[np.ndarray, np.ndarray] | None = None,
) -> QuasiDistribution:
    """Fine-grained distribution over labeled eigenvectors.

    Entries are the four-bracket products

        <w3,l|U|v2,n> <v2,n|Udag|w2,l'> <w2,l'|U|v1,n'> <v1,n'|rho Udag|w3,l>

    with both W slots sharing one labeled eigenbasis and likewise for V.
    Bases default to qla.eigh of the operators (deterministic inside
    degenerate blocks, so for a single-site Pauli the labels enumerate the
    computational configurations of the untouched sites). Explicit
    (eigenvalue-per-column, columns) pairs may be supplied instead, e.g.
    to check basis covariance.
    """
    _check_dims(rho, w_op, v_op)
    dim = np.asarray(rho).shape[0]
    if dim > _FINE_MAX_DIM:
        raise ValueError(
            f"fine grain is capped at dimension {_FINE_MAX_DIM} "
            "(the tensor has dim**4 entries); use the coarse grain instead"
        )
    u = propagator(hamiltonian, t)

    def resolve(op, basis):
        if basis is not None:
            evs, cols = basis
            return np.asarray(evs, dtype=float), np.asarray(cols, dtype=complex)
        sys = qla.eigh(op)
        return sys.eigenvalues.copy(), sys.eigenvectors

    w_evs, w_cols = resolve(w_op, w_basis)
    v_evs, v_cols = resolve(v_op, v_basis)

    p = w_cols.conj().T @ u @ v_cols             # <w|U|v>
    r = v_cols.conj().T @ np.asarray(rho, dtype=complex) @ u.conj().T @ w_cols
    # axis order (v1, w2, v2, w3) = (k, m, n, l)
    vals = np.einsum("ln,mn,mk,kl->kmnl", p, np.conj(p), p, r)

    def labels_for(evs):
        return np.concatenate([np.arange(r.stop - r.start) for r in _eigenvalue_runs(evs)])

    return QuasiDistribution(
        values=vals,
        axis_names=COARSE_AXES,
        axis_eigenvalues=(v_evs, w_evs, v_evs, w_evs),
        grain="fine",
        axis_labels=(labels_for(v_evs), labels_for(w_evs), labels_for(v_evs), labels_for(w_evs)),
        meta={"u": u, "w_cols": w_cols, "v_cols": v_cols,
              "rho": np.asarray(rho, dtype=complex)},
    )


def coarse_grain(fine: QuasiDistribution) -> QuasiDistribution:
    """Sum a fine-grained distribution over its degeneracy labels."""
    if fine.grain != "fine":
        raise ValueError("input is already coarse")
    runs = [_eigenvalue_runs(evs) for evs in fine.axis_eigenvalues]
    shape = tuple(len(r) for r in runs)
    vals = np.zeros(shape, dtype=complex)
    for idx in np.ndindex(shape):
        vals[idx] = fine.values[tuple(runs[a][i] for a, i in enumerate(idx))].sum()
    return QuasiDistribution(
        values=vals,
        axis_names=fine.axis_names,
        axis_eigenvalues=tuple(np.array([evs[r.start] for r in rs])
                               for evs, rs in zip(fine.axis_eigenvalues, runs)),
        grain="coarse",
    )


def marginalize(quasi: QuasiDistribution, keep) -> MarginalDistribution:
    """Sum over all slots but one; the result is a Born-rule probability."""
    if isinstance(keep, str):
        try:
            axis = quasi.axis_names.index(keep)
        except ValueError:
            raise KeyError(f"no axis named {keep!r}") from None
    else:
        axis = int(keep)
    other = tuple(a for a in range(quasi.values.ndim) if a != axis)
    marg = quasi.values.sum(axis=other)
    worst_imag = float(np.max(np.abs(marg.imag))) if marg.size else 0.0
    if worst_imag > 1e-8:
        raise RuntimeError(f"marginal has imaginary residue {worst_imag:.3e}; input invalid")
    return MarginalDistribution(
        axis_name=quasi.axis_names[axis],
        eigenvalues=quasi.axis_eigenvalues[axis].copy(),
        probabilities=marg.real,
        labels=None if quasi.axis_labels is None else quasi.axis_labels[axis].copy(),
    )


# ---------------------------------------------------------------------------
# derived distributions


def _collect(quasi: QuasiDistribution, key) -> WorkDistribution:
    """Sum the entries onto (W, W') = key(eigenvalue of each slot)."""
    entries: dict[tuple[complex, complex], complex] = {}
    for idx, val in np.ndenumerate(quasi.values):
        w, wprime = key(*(evs[i] for evs, i in zip(quasi.axis_eigenvalues, idx)))
        pair = (WorkDistribution._bucket(w), WorkDistribution._bucket(wprime))
        entries[pair] = entries.get(pair, 0.0 + 0j) + val
    return WorkDistribution(entries=entries)


def work_distribution(quasi: QuasiDistribution) -> WorkDistribution:
    """Collect A~ onto (W, W') = (conj(w3) conj(v2), w2 v1)."""
    if quasi.values.ndim != 4:
        raise ValueError("expected the four-slot distribution")
    return _collect(quasi, lambda v1, w2, v2, w3: (np.conj(w3) * np.conj(v2), w2 * v1))


def regulated_series(hamiltonian, temperature: float, w_op, v_op, times):
    """Thermally regulated coarse distribution and its correlator on a time grid.

    The thermal state rho = e^{-H/T}/Z is split into four quarter powers
    interleaved with the projectors: each W(t) projector P becomes
    rho^{1/4} P rho^{1/4}, with rho^{1/4} diagonal in the energy frame and
    taken from spin.thermal_weights. Returns (QuasiSeries,
    CorrelatorSeries) with the correlator
    F_reg = Tr(rho^{1/4} W(t) rho^{1/4} V rho^{1/4} W(t) rho^{1/4} V),
    which the usual moment of each distribution reproduces: the word trace
    of W' V W' V for W' = rho^{1/4} W(t) rho^{1/4}, at unit weights.
    """
    w_op, v_op = _dense(w_op), _dense(v_op)
    sys = _eigensystem(hamiltonian)
    _check_dims(w_op, v_op, sys.eigenvectors)
    times = np.asarray(times, dtype=float)
    rho_quarter = spin.thermal_weights(sys.eigenvalues, temperature) ** 0.25
    w_evs, w_projs_e = _energy_projectors(sys, w_op)
    v_evs, v_projs_e = _energy_projectors(sys, v_op)
    w_e, v_e = _energy_frame(sys, w_op, v_op)
    w_reg = rho_quarter[:, None] * w_e * rho_quarter
    word_traces = _word_traces(DiagonalState(np.ones(sys.dim)), v_e, 2)
    out = np.empty((times.shape[0], len(v_evs), len(w_evs), len(v_evs), len(w_evs)),
                   dtype=complex)
    f_reg = np.empty(times.shape[0], dtype=complex)
    for i, t in enumerate(times):
        phase = _phases(sys, t)
        pw_reg = [rho_quarter[:, None] * _dress(p, phase) * rho_quarter for p in w_projs_e]
        out[i] = _four_projector_trace(v_projs_e, pw_reg)
        f_reg[i] = word_traces(w_reg, phase)[_words(2).index("wvwv")]
    dist = QuasiSeries(times=times, values=out, axis_names=COARSE_AXES,
                       axis_eigenvalues=(v_evs, w_evs, v_evs, w_evs))
    return dist, CorrelatorSeries(times=times, values=f_reg, label="regulated otoc")


def regulated_quasiprob_and_otoc(hamiltonian, temperature: float, w_op, v_op, t: float):
    """regulated_series at the single time t: (distribution, F_reg)."""
    series, f_reg = regulated_series(hamiltonian, temperature, w_op, v_op, [t])
    dist = series.at(0)
    dist.meta["temperature"] = temperature
    return dist, complex(f_reg.values[0])


def toc_series(rho, w_op, v_op, hamiltonian, times):
    """Time-ordered analog on a time grid: TOC values and three-slot distributions.

    TOC(t) = <Vdag W(t)dag W(t) V> saturates at 1 for unitary W, V; it is
    one elementwise sum per point, sum(M^T * W(t)dag W(t)) with
    M = V rho Vdag formed, and transposed, once. The distribution is
    A~_TOC(v1, w1, v2) = Tr(Pi^V_{v2} Pi^{W(t)}_{w1} Pi^V_{v1} rho), the
    coarse series summed over w3: the W(t) projectors resolve the identity.
    Returns (CorrelatorSeries, QuasiSeries with axes (v1, w1, v2)).
    """
    sys = _eigensystem(hamiltonian)
    coarse = coarse_quasiprob_series(rho, w_op, v_op, sys, times)
    w = np.asarray(_dense(w_op), dtype=complex)
    wdw_e, v_e = _energy_frame(sys, qla.dagger(w) @ w, v_op)
    rho_e = density_matrix(_frame_state(rho, sys))
    m_t = np.ascontiguousarray((v_e @ rho_e @ qla.dagger(v_e)).T)
    toc = np.array([_matrix_sum(m_t * _dress(wdw_e, _phases(sys, t))) for t in coarse.times],
                   dtype=complex)
    v_evs, w_evs = coarse.axis_eigenvalues[:2]
    dist = QuasiSeries(times=coarse.times, values=coarse.values.sum(axis=-1),
                       axis_names=("v1", "w1", "v2"), axis_eigenvalues=(v_evs, w_evs, v_evs))
    return CorrelatorSeries(times=coarse.times, values=toc, label="toc"), dist


def toc_and_toc_quasiprob(rho, w_op, v_op, hamiltonian, t: float):
    """toc_series at the single time t: TOC value, distribution, and P_TOC.

    Collecting the distribution onto (W, W') = (w1 v2, w1 v1) gives P_TOC,
    whose moment recovers the TOC for Hermitian W, V.
    """
    toc, series = toc_series(rho, w_op, v_op, hamiltonian, [t])
    dist = series.at(0)
    p_toc = _collect(dist, lambda v1, w1, v2: (w1 * v2, w1 * v1))
    return complex(toc.values[0]), dist, p_toc


def toc_moment(quasi: QuasiDistribution) -> complex:
    """Sum v1 w1^2 v2 A~_TOC over all outcomes, the moment of P_TOC."""
    v1, w1, v2 = quasi.axis_eigenvalues
    return _moment(quasi.values, (v1, w1**2, v2))


def kfold_series(rho, w_op, v_op, hamiltonian, times, khat: int):
    """k-fold correlator Tr(rho (W(t) V)^k) and its 2k-slot distribution on a time grid.

    Slots run chronologically (v1, w2, v2, w3, ..., vk, w_{k+1}); the
    moment with weight (product of all w) (product of all v) recovers the
    correlator. Restricted to Hermitian involutions W and V, whose entries
    are the word table applied to the word traces; khat lies in
    [2, _KFOLD_MAX], and F_k is the trace of the longest word, (W(t) V)^k.
    """
    if not isinstance(khat, int) or khat < 2 or khat > _KFOLD_MAX:
        raise ValueError(f"khat must be an integer in [2, {_KFOLD_MAX}]")
    _check_dims(rho, w_op, v_op)
    if not _is_hermitian_involution(w_op) or not _is_hermitian_involution(v_op):
        raise ValueError("k-fold enumeration needs involutory W and V")
    times = np.asarray(times, dtype=float)
    dist = _word_series(rho, w_op, v_op, _eigensystem(hamiltonian), times, khat)
    return CorrelatorSeries(times=times, values=dist.correlator, label=f"{khat}-fold otoc"), dist


def kfold_otoc_and_quasiprob(rho, w_op, v_op, hamiltonian, t: float, khat: int):
    """kfold_series at the single time t: (F_k, distribution)."""
    f_k, series = kfold_series(rho, w_op, v_op, hamiltonian, [t], khat)
    return complex(f_k.values[0]), series.at(0)


def kfold_moment(quasi: QuasiDistribution) -> complex:
    """Sum (prod w)(prod v) over a 2k-slot distribution."""
    return _moment(quasi.values, quasi.axis_eigenvalues)

"""Spin-chain building blocks: Pauli strings, the mixed-field Ising
Hamiltonian, common initial states, and eigenprojectors with the
degeneracy labeling used by the fine-grained distributions.

Sites are 1-based. Basis ordering is the usual binary one: computational
index i has site s in state (i >> (n - s)) & 1, with bit 0 meaning spin up,
so site 1 is the most significant bit. A Pauli string is a flip mask and a
phase vector, P|r> = phase[r] |r ^ mask>, held as a PauliString, and the
site Paulis, the Hamiltonian and the Brownian pair strings all come from
this one form. W and V reach the quasiprob series as PauliString tables,
which rotate into the energy frame by one product and are checked in
O(d); pauli_matrix expands a string to its dense matrix.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import qla

PAULI_X = np.array([[0, 1], [1, 0]], dtype=complex)
PAULI_Y = np.array([[0, -1j], [1j, 0]], dtype=complex)
PAULI_Z = np.array([[1, 0], [0, -1]], dtype=complex)
PAULI = {"x": PAULI_X, "y": PAULI_Y, "z": PAULI_Z}

# action of one Pauli on its site's bit b: (flips b, constant phase, times (-1)^b)
_AXIS_ACTION = {"1": (0, 1, 0), "x": (1, 1, 0), "y": (1, 1j, 1), "z": (0, 1, 1)}

_EIGENVALUE_MATCH_TOL = 1e-9


@dataclass(frozen=True)
class SpinChainSpec:
    """Mixed-field Ising chain parameters (open boundaries)."""

    n: int
    j: float = 1.0
    h: float = 0.0
    g: float = 0.0

    def __post_init__(self):
        if self.n < 2:
            raise ValueError("need at least two sites")
        if self.j <= 0:
            raise ValueError("ferromagnetic coupling j must be positive")
        _check_dense(self.n)

    @property
    def dim(self) -> int:
        return 2**self.n


@dataclass(frozen=True)
class PauliString:
    """A Pauli string as a signed permutation, P|r> = phase[r] |r ^ mask>.

    The operator counterpart of quasiprob.DiagonalState: the series rotate
    it into the energy frame with one product and test it in O(d) on the
    table; matrix() makes it dense once, for the routes that need a matrix.
    phase is real when every factor's phase is, complex otherwise.
    """

    mask: int
    phase: np.ndarray

    def __post_init__(self):
        phase = np.array(self.phase, dtype=complex if np.iscomplexobj(self.phase) else float)
        dim = phase.shape[0] if phase.ndim == 1 else 0
        if dim == 0 or dim & (dim - 1) or not np.all(np.isfinite(phase)):
            raise ValueError("phase must be a finite vector of power-of-two length")
        if not 0 <= self.mask < dim:
            raise ValueError(f"mask {self.mask} outside a basis of {dim} states")
        phase.flags.writeable = False
        object.__setattr__(self, "mask", int(self.mask))
        object.__setattr__(self, "phase", phase)

    @property
    def dim(self) -> int:
        return self.phase.shape[0]

    def flipped(self) -> np.ndarray:
        """r ^ mask for every basis index r."""
        return np.arange(self.dim) ^ self.mask

    def hermiticity_defect(self) -> float:
        """qla.hermiticity_defect of the matrix, from the table: P^dag has
        conj(phase[r ^ mask]) where P has phase[r]."""
        return float(np.max(np.abs(self.phase - self.phase[self.flipped()].conj())))

    def involution_defect(self) -> float:
        """Largest entry of |P P - 1|: P P is diagonal, phase[r ^ mask] phase[r]."""
        return float(np.max(np.abs(self.phase[self.flipped()] * self.phase - 1.0)))

    def matrix(self) -> np.ndarray:
        return pauli_matrix(self.mask, self.phase)


def _check_dense(n: int):
    if 2**n > qla.MAX_DIM:
        raise ValueError(f"{n} sites exceed dimension {qla.MAX_DIM}; "
                         "dense storage is capped at 12 qubits")


def pauli_string(n: int, factors) -> PauliString:
    """The string with (site, axis) factors, axis in 1xyz, identity
    elsewhere."""
    _check_dense(n)
    r = np.arange(2**n)
    mask, const, signs = 0, 1, np.zeros_like(r)
    for site, axis in factors:
        if not 1 <= site <= n:
            raise ValueError(f"site {site} outside chain of length {n}")
        if axis not in _AXIS_ACTION:
            raise ValueError(f"unknown axis {axis!r}")
        flip, c, z = _AXIS_ACTION[axis]
        mask |= flip << (n - site)
        const *= c
        signs = signs + z * ((r >> (n - site)) & 1)
    return PauliString(mask, const * (-1.0) ** signs)


def pauli_matrix(mask: int, phase: np.ndarray) -> np.ndarray:
    """Dense matrix of the string (mask, phase): P[r ^ mask, r] = phase[r]."""
    r = np.arange(len(phase))
    out = np.zeros((len(phase), len(phase)), dtype=complex)
    out[r ^ mask, r] = phase
    return out


def pair_pauli_strings(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Masks and (strings, d) phases of all sigma_i^a sigma_j^b, i < j,
    a, b in 1xyz, pairs-lexicographic with the first site's Pauli outermost;
    the order fixes how the Brownian draws map onto strings."""
    strings = [pauli_string(n, ((i, a), (j, b)))
               for i in range(1, n + 1) for j in range(i + 1, n + 1)
               for a in "1xyz" for b in "1xyz"]
    return (np.array([p.mask for p in strings]),
            np.array([p.phase for p in strings], dtype=complex))


def site_pauli(n: int, site: int, axis: str) -> np.ndarray:
    """Pauli operator on one site of an n-site chain, identity elsewhere."""
    if axis not in PAULI:
        raise ValueError(f"unknown axis {axis!r}")
    return pauli_string(n, [(site, axis)]).matrix()


def ising_hamiltonian(spec: SpinChainSpec) -> np.ndarray:
    """H = -J sum sz.sz - h sum sz - g sum sx with open boundaries: the zz
    and z strings add up on the diagonal, each x string fills d entries.
    Every phase is real, so H is a float array."""
    n, r = spec.n, np.arange(spec.dim)
    diag = np.zeros(spec.dim)
    for s in range(1, n):
        diag -= spec.j * pauli_string(n, [(s, "z"), (s + 1, "z")]).phase
    # a zero field subtracts zeros, which leaves every bit of H as it is
    for s in range(1, n + 1):
        diag -= spec.h * pauli_string(n, [(s, "z")]).phase
    ham = np.diag(diag)
    for s in range(1, n + 1):
        x = pauli_string(n, [(s, "x")])
        ham[x.flipped(), r] -= spec.g * x.phase
    return ham


def reflection(n: int) -> np.ndarray:
    """The site reflection s -> n + 1 - s as a basis permutation, r with its
    n bits reversed (bits as in pauli_string); the uniform chain's symmetry."""
    return sum(((np.arange(2**n) >> (n - s)) & 1) << (s - 1) for s in range(1, n + 1))


def thermal_weights(eigenvalues, temperature: float) -> np.ndarray:
    """Boltzmann weights e^{-E/T}/Z over the given eigenvalues; temperature
    = +inf gives equal weights. E is counted from its minimum, which
    leaves the weights as they are and keeps e^{-E/T} finite at low T."""
    e = np.asarray(eigenvalues, dtype=float)
    if temperature == np.inf:
        return np.full(e.shape[0], 1.0 / e.shape[0])
    if not temperature > 0:
        raise ValueError("temperature must be positive (negative temperatures out of scope)")
    p = np.exp(-(e - e.min()) / temperature)
    return p / p.sum()


def thermal_state(h, temperature: float) -> np.ndarray:
    """Normalized e^{-H/T}; temperature = +inf returns the maximally mixed state.

    h may be the qla.HermitianEigensystem of H, which is then not
    diagonalized again.
    """
    given = isinstance(h, qla.HermitianEigensystem)
    dim = h.dim if given else qla.assert_hermitian(h).shape[0]
    if temperature == np.inf:
        return np.eye(dim, dtype=complex) / dim
    sys = h if given else qla.eigh(h)
    return np.asarray(sys.spectral(thermal_weights(sys.eigenvalues, temperature)), dtype=complex)


def product_plus_x_vector(n: int) -> np.ndarray:
    """State vector of the product state with every spin along +x."""
    if n < 1:
        raise ValueError("need at least one site")
    plus = np.array([1.0, 1.0], dtype=complex) / np.sqrt(2.0)
    vec = np.array([1.0 + 0j])
    for _ in range(n):
        vec = np.kron(vec, plus)
    return vec


def product_plus_x_state(n: int) -> np.ndarray:
    """Density operator of the pure product state with every spin along +x."""
    vec = product_plus_x_vector(n)
    return np.outer(vec, vec.conj())


def eigenprojector(o, eigenvalue: float) -> np.ndarray:
    """Projector onto the full degenerate eigenspace of the given eigenvalue."""
    sys = qla.eigh(o)
    sel = np.abs(sys.eigenvalues - eigenvalue) < _EIGENVALUE_MATCH_TOL
    if not np.any(sel):
        raise ValueError(f"{eigenvalue} is not in the spectrum")
    cols = sys.eigenvectors[:, sel]
    return cols @ cols.conj().T


def local_eigenbasis(n: int, site: int, axis: str) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Labeled eigenbasis of a single-site Pauli on an n-site chain.

    Returns (eigenvalues, columns, config_labels). Column k is the product
    state |axis eigenstate> on the given site tensored with a computational
    configuration of the remaining n-1 sites; config_labels[k] is that
    configuration read as an integer, bit order following site order. The
    eigenvalue blocks come out ascending (-1 block first), configurations
    ascending within each block, matching what qla.eigh produces for the
    same operator.
    """
    if not 1 <= site <= n:
        raise ValueError(f"site {site} outside chain of length {n}")
    single = qla.eigh(PAULI[axis])
    dim = 2**n
    half = dim // 2
    cols = np.zeros((dim, dim), dtype=complex)
    evals = np.zeros(dim)
    labels = np.zeros(dim, dtype=np.int64)
    k = 0
    for blk in range(2):  # ascending eigenvalue blocks
        ev = single.eigenvalues[blk]
        site_vec = single.eigenvectors[:, blk]
        for config in range(half):
            vec = np.array([1.0 + 0j])
            for s in range(1, n + 1):
                if s == site:
                    vec = np.kron(vec, site_vec)
                else:
                    bit = (config >> (n - 2 - _other_pos(n, site, s))) & 1
                    vec = np.kron(vec, np.array([1.0, 0.0]) if bit == 0 else np.array([0.0, 1.0]))
            cols[:, k] = vec
            evals[k] = ev
            labels[k] = config
            k += 1
    return evals, cols, labels


def _other_pos(n: int, site: int, s: int) -> int:
    """Position of site s among the n-1 sites that are not `site` (0-based)."""
    return s - 1 if s < site else s - 2


def config_label_text(n: int, site: int, label: int) -> str:
    """Readable bitstring for a degeneracy label, one bit per untouched site."""
    return format(label, f"0{n - 1}b")

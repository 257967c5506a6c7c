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
(_four_projector_trace) and, for involutory W and V, the expansion of
each projector as (1 + s O)/2 into eight correlators (_expansion, then
coarse_entries_from_correlators). Projectors of an involution are built
as (1 -+ O)/2 (_distinct_projectors), never by eigendecomposition.

Hamiltonians are accepted either as matrices or as precomputed
qla.HermitianEigensystem values; passing the eigensystem lets callers sweep
many times without rediagonalizing.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import qla

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
    """Coarse quasiprobability tensors along a time grid (leading time axis)."""

    times: np.ndarray
    values: np.ndarray
    axis_names: tuple[str, ...]
    axis_eigenvalues: tuple[np.ndarray, ...]

    def at(self, index: int) -> QuasiDistribution:
        return QuasiDistribution(
            values=self.values[index],
            axis_names=self.axis_names,
            axis_eigenvalues=self.axis_eigenvalues,
            grain="coarse",
        )


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


def _energy_frame(sys: qla.HermitianEigensystem, *ops) -> list[np.ndarray]:
    """Operators rotated into the eigenbasis of the Hamiltonian."""
    e = sys.eigenvectors
    return [e.conj().T @ np.asarray(op, dtype=complex) @ e for op in ops]


def _dress(op_e, sys: qla.HermitianEigensystem, t: float) -> np.ndarray:
    """Udag op U in the energy frame, an elementwise phase dressing."""
    phase = np.exp(-1j * sys.eigenvalues * t)
    return (phase.conj()[:, None] * op_e) * phase[None, :]


def _check_dims(*ops):
    dims = {np.asarray(o).shape[0] for o in ops}
    if len(dims) != 1:
        raise ValueError(f"dimension mismatch among operands: {sorted(dims)}")


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
        if (qla.hermiticity_defect(m) <= qla.HERMITIAN_TOL
                and abs(np.trace(m)) < dim - 0.5 and _is_involutory(m)):
            eye = np.eye(dim)
            return np.array([-1.0, 1.0]), [(eye - m) / 2, (eye + m) / 2]
    sys = _eigensystem(op)
    evs, projs = [], []
    for start, stop in sys.degenerate_groups():
        cols = sys.eigenvectors[:, start:stop]
        evs.append(sys.eigenvalues[start])
        projs.append(cols @ cols.conj().T)
    return np.array(evs), projs


def _is_involutory(op, tol: float = 1e-10) -> bool:
    m = np.asarray(op)
    return bool(np.max(np.abs(m @ m - np.eye(m.shape[0]))) <= tol)


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


def _expansion(rho, v):
    """Map W(t) -> the eight correlators of the projector expansion.

    rho V, V rho V and Tr(rho V) are formed once; each call then costs
    three matrix products. Works in any frame rho, V and W(t) share, and on
    a (..., d, d) stack of W(t), for which each correlator is an array.
    """
    rho_v = rho @ v
    v_rho_v = v @ rho_v
    v_static = complex(np.trace(rho_v))

    def correlators(wt) -> dict[str, complex]:
        d = rho @ wt
        c = v @ wt
        wt_t = np.swapaxes(wt, -1, -2)
        return {
            "one": 1.0 + 0j,
            "w": _matrix_sum(rho * wt_t),
            "v": v_static,
            "wv": _matrix_sum(d * v.T),
            "vw": _matrix_sum(rho_v * wt_t),
            "wvw": _matrix_sum(d * np.swapaxes(c, -1, -2)),
            "vwv": _matrix_sum(v_rho_v * wt_t),
            "f": _matrix_sum((d @ c) * v.T),
        }
    return correlators


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


def otoc_series(rho, w_op, v_op, hamiltonian, times) -> CorrelatorSeries:
    """F(t) on a time grid, diagonalizing the Hamiltonian once.

    All operators are rotated to the energy eigenbasis, where the
    Heisenberg evolution of W is an elementwise phase dressing; each time
    point then costs a couple of matrix products.
    """
    _check_dims(rho, w_op, v_op)
    sys = _eigensystem(hamiltonian)
    w_e, v_e, rho_e = _energy_frame(sys, w_op, v_op, rho)
    times = np.asarray(times, dtype=float)
    vals = np.empty(times.shape[0], dtype=complex)
    for i, t in enumerate(times):
        wt_e = _dress(w_e, sys, t)
        b = qla.dagger(wt_e) @ qla.dagger(v_e)
        c = wt_e @ v_e
        vals[i] = np.sum((rho_e @ b) * c.T)
    return CorrelatorSeries(times=times, values=vals, label="otoc")


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

    Works in the energy eigenbasis: the V projectors are static, the W(t)
    projectors are phase dressings of the t=0 ones, and each time point
    costs a fixed small number of matrix products. Suitable for 10-site
    sweeps over hundreds of time points.
    """
    _check_dims(rho, w_op, v_op)
    sys = _eigensystem(hamiltonian)
    times = np.asarray(times, dtype=float)
    if _is_involutory(w_op) and _is_involutory(v_op):
        return _involutory_series(rho, w_op, v_op, sys, times)
    w_evs, w_projs = _distinct_projectors(w_op)
    v_evs, v_projs = _distinct_projectors(v_op)
    w_projs_e = _energy_frame(sys, *w_projs)
    v_projs_e = _energy_frame(sys, *v_projs)
    (rho_e,) = _energy_frame(sys, rho)
    out = np.empty((times.shape[0], len(v_evs), len(w_evs), len(v_evs), len(w_evs)),
                   dtype=complex)
    for i, t in enumerate(times):
        pw_t = [_dress(p, sys, t) for p in w_projs_e]
        out[i] = _four_projector_trace(v_projs_e, pw_t, rho_e)
    return QuasiSeries(
        times=times,
        values=out,
        axis_names=COARSE_AXES,
        axis_eigenvalues=(v_evs, w_evs, v_evs, w_evs),
    )


def _involutory_series(rho, w_op, v_op, sys: qla.HermitianEigensystem, times) -> QuasiSeries:
    """Series via the eight-correlator expansion, three matrix products per t."""
    w_e, v_e, rho_e = _energy_frame(sys, w_op, v_op, rho)
    correlators = _expansion(rho_e, v_e)
    out = np.empty((times.shape[0], 2, 2, 2, 2), dtype=complex)
    for i, t in enumerate(times):
        out[i] = coarse_entries_from_correlators(correlators(_dress(w_e, sys, t)))
    pm = np.array([-1.0, 1.0])
    return QuasiSeries(
        times=times,
        values=out,
        axis_names=COARSE_AXES,
        axis_eigenvalues=(pm, pm, pm, pm),
    )


CORRELATOR_KEYS = ("one", "w", "v", "wv", "vw", "wvw", "vwv", "f")


def correlators_for_expansion(rho, w_op, v_op, hamiltonian, t: float) -> dict[str, complex]:
    """The eight sandwiched expectation values the projector expansion needs."""
    wt = heisenberg(w_op, propagator(hamiltonian, t))
    return _expansion(np.asarray(rho, dtype=complex), np.asarray(v_op, dtype=complex))(wt)


def coarse_entries_from_correlators(corr: dict[str, complex]) -> np.ndarray:
    """Assemble the 16 coarse entries from the eight correlators.

    Expanding each projector as (1 + s O)/2 for involutory O turns the
    four-projector trace into a signed combination of sandwiched
    expectation values; this is that combination, with axis order
    (v1, w2, v2, w3) and eigenvalues ordered ascending (-1 before +1).
    Correlators that are arrays (one value per member of a stack) give
    entries of shape (..., 2, 2, 2, 2).
    """
    signs = (-1.0, 1.0)
    vals = np.empty(np.shape(corr["f"]) + (2, 2, 2, 2), dtype=complex)
    for i1, v1 in enumerate(signs):
        for i2, w2 in enumerate(signs):
            for i3, v2 in enumerate(signs):
                for i4, w3 in enumerate(signs):
                    vals[..., i1, i2, i3, i4] = (
                        corr["one"] * (1.0 + w3 * w2 + v1 * v2)
                        + corr["w"] * (w3 + w2 + w3 * v1 * v2)
                        + corr["v"] * (v1 + v2 + w3 * w2 * v1)
                        + corr["wv"] * (w3 * v2 + w3 * v1 + w2 * v1)
                        + corr["vw"] * (v2 * w2)
                        + corr["wvw"] * (w3 * v2 * w2)
                        + corr["vwv"] * (w2 * v1 * v2)
                        + corr["f"] * (w3 * w2 * v1 * v2)
                    ) / 16.0
    return vals


def coarse_quasiprob_via_correlators(rho, w_op, v_op, hamiltonian, t: float) -> QuasiDistribution:
    """Coarse distribution assembled from eight correlators.

    Only valid for involutory (Hermitian unitary) W and V, whose projectors
    are (1 +- O)/2. This is the measurement-friendly route: the sixteen
    quasiprobability values collapse onto eight expectation values.
    """
    _check_dims(rho, w_op, v_op)
    if not _is_involutory(w_op) or not _is_involutory(v_op):
        raise ValueError("projector expansion needs involutory W and V (eigenvalues +-1)")
    corr = correlators_for_expansion(rho, w_op, v_op, hamiltonian, t)
    pm = np.array([-1.0, 1.0])
    return QuasiDistribution(
        values=coarse_entries_from_correlators(corr),
        axis_names=COARSE_AXES,
        axis_eigenvalues=(pm, pm, pm, pm),
        grain="coarse",
    )


def otoc_moment(quasi: QuasiDistribution) -> complex:
    """Sum v1 w2 conj(v2) conj(w3) A~ over all outcomes; equals F(t)."""
    if quasi.values.ndim != 4:
        raise ValueError("moment defined for the four-slot distribution")
    v1, w2, v2, w3 = quasi.axis_eigenvalues
    weights = np.einsum(
        "a,b,c,d->abcd",
        v1.astype(complex),
        w2.astype(complex),
        np.conj(v2.astype(complex)),
        np.conj(w3.astype(complex)),
    )
    return complex(np.sum(weights * quasi.values))


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


def work_distribution(quasi: QuasiDistribution) -> WorkDistribution:
    """Collect A~ onto (W, W') = (conj(w3) conj(v2), w2 v1)."""
    if quasi.values.ndim != 4:
        raise ValueError("expected the four-slot distribution")
    entries: dict[tuple[complex, complex], complex] = {}
    v1e, w2e, v2e, w3e = quasi.axis_eigenvalues
    for (i1, i2, i3, i4), val in np.ndenumerate(quasi.values):
        key = (
            WorkDistribution._bucket(np.conj(w3e[i4]) * np.conj(v2e[i3])),
            WorkDistribution._bucket(w2e[i2] * v1e[i1]),
        )
        entries[key] = entries.get(key, 0.0 + 0j) + val
    return WorkDistribution(entries=entries)


def regulated_quasiprob_and_otoc(hamiltonian, temperature: float, w_op, v_op, t: float):
    """Thermally regulated coarse distribution and its matching correlator.

    The propagator U = exp(-i H t) is replaced by
    Utld = exp(-i H (t - i/(4T))) / Z^{1/4}, which splits one thermal state
    into four quarter powers interleaved with the projectors. Returns
    (distribution, F_reg) with
    F_reg = Tr(rho^{1/4} W(t) rho^{1/4} V rho^{1/4} W(t) rho^{1/4} V);
    the usual moment of the distribution reproduces F_reg.
    """
    if not temperature > 0:
        raise ValueError("temperature must be positive")
    _check_dims(w_op, v_op)
    sys = _eigensystem(hamiltonian)
    _check_dims(w_op, sys.eigenvectors)
    z = float(np.sum(np.exp(-sys.eigenvalues / temperature)))
    u_reg = sys.propagator(-1j * t - 1.0 / (4.0 * temperature)) / z**0.25
    w_evs, w_projs = _distinct_projectors(w_op)
    v_evs, v_projs = _distinct_projectors(v_op)
    pw_reg = [u_reg.conj().T @ p @ u_reg for p in w_projs]
    vals = _four_projector_trace(v_projs, pw_reg)
    dist = QuasiDistribution(
        values=vals,
        axis_names=COARSE_AXES,
        axis_eigenvalues=(v_evs, w_evs, v_evs, w_evs),
        grain="coarse",
        meta={"temperature": temperature},
    )
    # direct correlator with quarter powers of the thermal state
    rho_quarter = sys.propagator(-1.0 / (4.0 * temperature)) / z**0.25
    u = sys.propagator(-1j * t)
    wt = heisenberg(w_op, u)
    v = np.asarray(v_op, dtype=complex)
    f_reg = complex(np.trace(
        rho_quarter @ wt @ rho_quarter @ v @ rho_quarter @ wt @ rho_quarter @ v
    ))
    return dist, f_reg


def toc_and_toc_quasiprob(rho, w_op, v_op, hamiltonian, t: float):
    """Time-ordered analog: TOC value, its three-slot distribution, and P_TOC.

    TOC(t) = <Vdag W(t)dag W(t) V> saturates at 1 for unitary W, V.
    The distribution is A~_TOC(v1, w1, v2) = Tr(Pi^V_{v2} Pi^{W(t)}_{w1}
    Pi^V_{v1} rho); collecting it onto (W, W') = (w1 v2, w1 v1) gives
    P_TOC, whose moment recovers the TOC for Hermitian W, V.
    """
    _check_dims(rho, w_op, v_op)
    wt = heisenberg(w_op, propagator(hamiltonian, t))
    v = np.asarray(v_op, dtype=complex)
    rho = np.asarray(rho, dtype=complex)
    toc = complex(np.trace(rho @ qla.dagger(v) @ qla.dagger(wt) @ wt @ v))

    w_evs, w_projs = _distinct_projectors(wt)
    v_evs, v_projs = _distinct_projectors(v)
    # the W(t) projectors resolve the identity, so summing the last slot
    # leaves Tr(Pv2 Pw1 Pv1 rho)
    vals = _four_projector_trace(v_projs, w_projs, rho).sum(axis=3)
    dist = QuasiDistribution(
        values=vals,
        axis_names=("v1", "w1", "v2"),
        axis_eigenvalues=(v_evs, w_evs, v_evs),
        grain="coarse",
    )
    entries: dict[tuple[complex, complex], complex] = {}
    for (i1, i2, i3), val in np.ndenumerate(vals):
        key = (
            WorkDistribution._bucket(w_evs[i2] * v_evs[i3]),
            WorkDistribution._bucket(w_evs[i2] * v_evs[i1]),
        )
        entries[key] = entries.get(key, 0.0 + 0j) + val
    return toc, dist, WorkDistribution(entries=entries)


def kfold_otoc_and_quasiprob(rho, w_op, v_op, hamiltonian, t: float, khat: int):
    """k-fold correlator Tr(rho (W(t) V)^k) and its 2k-slot distribution.

    Slots run chronologically (v1, w2, v2, w3, ..., vk, w_{k+1}); the
    moment with weight (product of all w) (product of all v) recovers the
    correlator. Restricted to involutory W and V so the tuple count stays
    at 2**(2k); khat must lie in [2, 5].
    """
    if not isinstance(khat, int) or khat < 2 or khat > _KFOLD_MAX:
        raise ValueError(f"khat must be an integer in [2, {_KFOLD_MAX}]")
    _check_dims(rho, w_op, v_op)
    if not _is_involutory(w_op) or not _is_involutory(v_op):
        raise ValueError("k-fold enumeration needs involutory W and V")
    wt = heisenberg(w_op, propagator(hamiltonian, t))
    v = np.asarray(v_op, dtype=complex)
    rho = np.asarray(rho, dtype=complex)
    f_k = complex(np.trace(rho @ np.linalg.matrix_power(wt @ v, khat)))

    v_evs, v_projs = _distinct_projectors(v)
    w_evs, w_projs = _distinct_projectors(wt)
    vals = np.empty((len(v_evs), len(w_evs)) * khat, dtype=complex)
    _chronological_traces(vals, (v_projs, w_projs), rho)
    names = []
    for ell in range(1, khat + 1):
        names.append(f"v{ell}")
        names.append(f"w{ell + 1}")
    dist = QuasiDistribution(
        values=vals,
        axis_names=tuple(names),
        axis_eigenvalues=(v_evs, w_evs) * khat,
        grain="coarse",
    )
    return f_k, dist


def _chronological_traces(vals, projs, acc, idx=()):
    """Fill vals with Tr(... P2 P1 acc), slots alternating projs[0], projs[1].

    Depth first, so partial products are shared and only one path is held.
    """
    if len(idx) == vals.ndim:
        vals[idx] = np.trace(acc)
        return
    for i, p in enumerate(projs[len(idx) % 2]):
        _chronological_traces(vals, projs, p @ acc, idx + (i,))


def kfold_moment(quasi: QuasiDistribution) -> complex:
    """Sum (prod w)(prod v) over a 2k-slot distribution."""
    n = quasi.values.ndim
    weights = np.ones((), dtype=complex)
    for a in range(n):
        shape = [1] * n
        shape[a] = quasi.axis_eigenvalues[a].shape[0]
        weights = weights * quasi.axis_eigenvalues[a].reshape(shape)
    return complex(np.sum(weights * quasi.values))

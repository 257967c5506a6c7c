"""Operator decomposition over the evolved-W and V eigenbases.

Any state expands as rho = sum |v,nu><w,lambda|U <v,nu|rho U'|w,lambda>
over the two measurement bases, but the natural coefficient attached to
each dyad by the fine-grained quasiprobability carries a factor of the
overlap <w,lambda|U|v,nu>. Where that overlap vanishes the division is
impossible, and dropping those dyads yields an asymmetrically decohered
operator rho' that keeps unit trace (each dropped dyad is traceless) yet
is generally non-Hermitian. Scrambling drives the two bases toward
mutual unbiasedness, where all overlaps approach 1/sqrt(d) and nothing
vanishes; the overlap statistics here track that approach.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import qla, quasiprob

VANISHING_OVERLAP_TOL = 1e-10


@dataclass
class DecompositionReport:
    """Coefficients, omitted dyads, and the reconstruction check.

    coefficients maps ((v2, nu), (w3, lambda)) to the complex weight
    attached to the dyad |v2,nu><w3,lambda|U / <w3,lambda|U|v2,nu>;
    omitted_pairs lists the keys whose overlap magnitude fell below
    VANISHING_OVERLAP_TOL and were never divided.
    """

    rho_prime: np.ndarray
    coefficients: dict
    omitted_pairs: list
    reconstruction_error: float
    overlap_magnitudes: np.ndarray

    def coefficient_total(self) -> complex:
        return complex(sum(self.coefficients.values()))


def _bases(w_op, v_op):
    """The eigensystems of W and V, within the fine-grained guard."""
    w_sys = quasiprob._eigensystem(w_op)
    v_sys = quasiprob._eigensystem(v_op)
    dim = w_sys.dim
    if dim > quasiprob._FINE_MAX_DIM:
        raise ValueError(
            f"dimension {dim} exceeds the fine-grained guard "
            f"{quasiprob._FINE_MAX_DIM}"
        )
    return w_sys, v_sys


def overlap_magnitudes(w_op, v_op, unitary) -> np.ndarray:
    """|<w,lambda|U|v,nu>| over both full eigenbases, shape (d_w, d_v)."""
    w_sys = quasiprob._eigensystem(w_op)
    v_sys = quasiprob._eigensystem(v_op)
    u = np.asarray(unitary, dtype=complex)
    return np.abs(w_sys.eigenvectors.conj().T @ u @ v_sys.eigenvectors)


def asym_decohere(rho, w_op, v_op, hamiltonian, t: float) -> np.ndarray:
    """Remove from rho every dyad whose basis overlap vanishes.

    rho' = rho - sum_{vanishing (v,nu;w,lambda)}
           <v,nu|rho U'|w,lambda> |v,nu><w,lambda|U.
    The subtraction preserves the trace and can break Hermiticity.
    """
    w_sys, v_sys = _bases(w_op, v_op)
    u = quasiprob.propagator(hamiltonian, t)
    rho = np.asarray(rho, dtype=complex)
    return _decohere(rho, u, w_sys.eigenvectors, v_sys.eigenvectors)[0]


def _decohere(rho, u, w_cols, v_cols):
    """(rho', overlaps <w_l|U|v_n>, vanishing mask, rows <w_l|U>) for basis
    columns w_cols and v_cols; rho' is a copy of rho when nothing vanishes."""
    w_rows = w_cols.conj().T @ u                       # row l = <w_l|U
    overlap = w_rows @ v_cols                          # (l, n)
    vanish = np.abs(overlap) < VANISHING_OVERLAP_TOL
    if not np.any(vanish):
        return rho.copy(), overlap, vanish, w_rows
    r2 = v_cols.conj().T @ rho @ u.conj().T @ w_cols
    return rho - v_cols @ (r2 * vanish.T) @ w_rows, overlap, vanish, w_rows


def decomposition_coefficients(fine_quasi: quasiprob.QuasiDistribution) -> DecompositionReport:
    """Dyad coefficients by summing the fine quasiprobability, then rebuild.

    The coefficient for each ((v2, nu), (w3, lambda)) is the sum of fine
    entries over the first two axes; dividing by the overlap and summing
    dyads reconstructs the asymmetrically decohered rho'. The
    reconstruction error column-checks that rebuild against rho' computed
    straight from the state stored with the distribution.
    """
    if fine_quasi.grain != "fine":
        raise ValueError("decomposition needs the fine-grained distribution")
    meta = fine_quasi.meta
    for key in ("u", "w_cols", "v_cols", "rho"):
        if key not in meta:
            raise ValueError("distribution lacks basis metadata; use fine_quasiprob")
    u, w_cols, v_cols = meta["u"], meta["w_cols"], meta["v_cols"]
    rho = meta["rho"]
    v_evs = np.asarray(fine_quasi.axis_eigenvalues[2], dtype=float)
    w_evs = np.asarray(fine_quasi.axis_eigenvalues[3], dtype=float)
    v_labels = fine_quasi.axis_labels[2]
    w_labels = fine_quasi.axis_labels[3]

    coeffs = np.sum(fine_quasi.values, axis=(0, 1))   # (n, l) = (v2, w3)
    target, overlap, vanish, w_rows = _decohere(rho, u, w_cols, v_cols)

    coefficients = {}
    omitted = []
    rebuild = np.zeros_like(rho)
    for n in range(v_cols.shape[1]):
        v_key = (float(v_evs[n]), int(v_labels[n]))
        for l in range(w_cols.shape[1]):
            key = (v_key, (float(w_evs[l]), int(w_labels[l])))
            if vanish[l, n]:
                omitted.append(key)
                continue
            c = complex(coeffs[n, l])
            coefficients[key] = c
            rebuild += (c / overlap[l, n]) * np.outer(v_cols[:, n], w_rows[l])

    return DecompositionReport(
        rho_prime=target,
        coefficients=coefficients,
        omitted_pairs=omitted,
        reconstruction_error=float(np.max(np.abs(rebuild - target))),
        overlap_magnitudes=np.abs(overlap),
    )


@dataclass
class OverlapStatistics:
    """Distribution of basis-overlap magnitudes over time.

    magnitudes has shape (len(times), d_w * d_v); mean, minimum,
    near_mub_fraction and vanishing_counts are per-time summaries, the
    fraction counting overlaps within 10% of the mutually unbiased value
    1/sqrt(d).
    """

    times: np.ndarray
    magnitudes: np.ndarray
    mean: np.ndarray
    minimum: np.ndarray
    near_mub_fraction: np.ndarray
    vanishing_counts: np.ndarray
    mub_value: float

    def histogram(self, index: int, bins: int = 20):
        return np.histogram(self.magnitudes[index], bins=bins, range=(0.0, 1.0))


def mub_overlap_statistics(w_op, v_op, hamiltonian, times) -> OverlapStatistics:
    """Track |<w,lambda|U_t|v,nu>| toward the unbiased plateau 1/sqrt(d)."""
    w_sys, v_sys = _bases(w_op, v_op)
    h_sys = quasiprob._eigensystem(hamiltonian)
    times = np.asarray(times, dtype=float)
    dim = w_sys.dim
    mub = 1.0 / np.sqrt(dim)
    w_dag = w_sys.eigenvectors.conj().T
    mags = np.empty((len(times), dim * dim))
    vanishing = np.empty(len(times), dtype=np.int64)
    for i, t in enumerate(times):
        u = h_sys.propagator(-1j * t)
        m = np.abs(w_dag @ u @ v_sys.eigenvectors)
        mags[i] = m.reshape(-1)
        vanishing[i] = int(np.count_nonzero(m < VANISHING_OVERLAP_TOL))
    near = np.mean(np.abs(mags - mub) <= 0.1 * mub, axis=1)
    return OverlapStatistics(
        times=times,
        magnitudes=mags,
        mean=np.mean(mags, axis=1),
        minimum=np.min(mags, axis=1),
        near_mub_fraction=near,
        vanishing_counts=vanishing,
        mub_value=float(mub),
    )

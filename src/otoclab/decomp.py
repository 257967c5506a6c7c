"""Operator decomposition over the evolved-W and V eigenbases.

Any state expands as rho = sum |v,nu><w,lambda|U <v,nu|rho U'|w,lambda>
over the two measurement bases, but the natural coefficient attached to
each dyad by the fine-grained quasiprobability carries a factor of the
overlap <w,lambda|U|v,nu>. Where that overlap vanishes the division is
impossible, and dropping those dyads yields an asymmetrically decohered
operator rho' that keeps unit trace (each dropped dyad is traceless) yet
is generally non-Hermitian. Scrambling drives the two bases toward
mutual unbiasedness, where all overlaps approach 1/sqrt(d) and nothing
vanishes; the overlap statistics here track that approach. Both bases
are the fine grain's, from quasiprob._fine_basis, under its dimension
cap; overlap_magnitudes, a d x d array, is not capped.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import quasiprob

VANISHING_OVERLAP_TOL = 1e-10


@dataclass
class DecompositionReport:
    """Coefficients, omitted dyads, and the reconstruction check.

    coefficients is the fine QuasiDistribution over (v2, w3) of the
    complex weight attached to each dyad
    |v2,nu><w3,lambda|U / <w3,lambda|U|v2,nu>; omitted, a boolean array over
    the same (v2, w3) grid, marks the dyads whose overlap magnitude fell
    below VANISHING_OVERLAP_TOL, never divided, whose coefficients are 0.
    """

    rho_prime: np.ndarray
    coefficients: quasiprob.QuasiDistribution
    omitted: np.ndarray
    reconstruction_error: float
    overlap_magnitudes: np.ndarray


def overlap_magnitudes(w_op, v_op, unitary) -> np.ndarray:
    """|<w,lambda|U|v,nu>| over both full eigenbases, shape (d_w, d_v); a
    d x d array, so it needs no fine-grained cap."""
    w_cols = quasiprob._eigensystem(w_op).eigenvectors
    v_cols = quasiprob._eigensystem(v_op).eigenvectors
    return np.abs(w_cols.conj().T @ np.asarray(unitary, dtype=complex) @ v_cols)


def asym_decohere(rho, w_op, v_op, hamiltonian, t: float) -> np.ndarray:
    """Remove from rho every dyad whose basis overlap vanishes.

    rho' = rho - sum_{vanishing (v,nu;w,lambda)}
           <v,nu|rho U'|w,lambda> |v,nu><w,lambda|U.
    The subtraction preserves the trace and can break Hermiticity.
    """
    quasiprob.check_state(rho, w_op, v_op)
    w_cols, v_cols = quasiprob._fine_basis(w_op)[1], quasiprob._fine_basis(v_op)[1]
    h_sys = quasiprob._eigensystem(hamiltonian)
    rho = quasiprob.density_matrix(rho, h_sys)
    return _decohere(rho, quasiprob.propagator(h_sys, t), w_cols, v_cols)[0]


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
    the dyads, one product v_cols @ (c / overlap^T) @ rows <w|U taken over
    the dyads not omitted, reconstructs the asymmetrically decohered rho'.
    The reconstruction error checks that rebuild against rho' computed
    straight from the state stored with the distribution.
    """
    if fine_quasi.axis_labels is None:
        raise ValueError("decomposition needs the fine-grained distribution")
    meta = fine_quasi.meta
    for key in ("u", "w_cols", "v_cols", "rho"):
        if key not in meta:
            raise ValueError("distribution lacks basis metadata; use fine_quasiprob")
    u, w_cols, v_cols = meta["u"], meta["w_cols"], meta["v_cols"]
    rho = meta["rho"]
    target, overlap, vanish, w_rows = _decohere(rho, u, w_cols, v_cols)
    omitted = vanish.T                                 # (n, l) = (v2, w3)
    coeffs = np.where(omitted, 0, np.sum(fine_quasi.values, axis=(0, 1)))
    ratio = np.divide(coeffs, overlap.T, out=np.zeros_like(coeffs), where=~omitted)
    rebuild = v_cols @ ratio @ w_rows

    return DecompositionReport(
        rho_prime=target,
        coefficients=quasiprob.QuasiDistribution(
            values=coeffs,
            axis_names=fine_quasi.axis_names[2:],
            axis_eigenvalues=fine_quasi.axis_eigenvalues[2:],
            axis_labels=fine_quasi.axis_labels[2:],
        ),
        omitted=omitted,
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
    """Track |<w,lambda|U_t|v,nu>| toward the unbiased plateau 1/sqrt(d);
    U_t is diagonal in the energy frame, so a time costs one product."""
    w_cols, v_cols = quasiprob._fine_basis(w_op)[1], quasiprob._fine_basis(v_op)[1]
    h_sys = quasiprob._eigensystem(hamiltonian)
    times = np.asarray(times, dtype=float)
    dim = len(w_cols)
    mub = 1.0 / np.sqrt(dim)
    w_e = w_cols.conj().T @ h_sys.eigenvectors   # <w,lambda|E>
    e_v = h_sys.eigenvectors.conj().T @ v_cols   # <E|v,nu>
    overlaps = quasiprob._on_grid(h_sys, times, (dim, dim),
                                  lambda phase: (w_e * phase[:, None, :]) @ e_v)
    mags = np.abs(overlaps).reshape(len(times), dim * dim)
    vanishing = np.count_nonzero(mags < VANISHING_OVERLAP_TOL, axis=1)
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

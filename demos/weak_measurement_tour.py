"""Recover the quasiprobability from simulated weak-measurement records.

Builds the sequential weak-coupling protocol on a two-site chain, first
with exact outcome probabilities and then with finite shot noise, and
compares the inferred distribution against the direct computation. Run:

    python3 demos/weak_measurement_tour.py [--time 1.0] [--seed 42]
"""
from __future__ import annotations

import argparse

import numpy as np

from otoclab import quasiprob, spin, weakmeas


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--time", type=float, default=1.0)
    parser.add_argument("--seed", type=int, default=42)
    args = parser.parse_args()

    chain = spin.SpinChainSpec(n=2, j=1.0, h=0.5, g=1.05)
    ham = spin.ising_hamiltonian(chain)
    w = spin.site_pauli(2, 1, "z")
    v = spin.site_pauli(2, 2, "z")
    rho = np.eye(4, dtype=complex) / 4
    t = args.time

    direct = quasiprob.coarse_quasiprob_series(rho, w, v, ham, [t]).at(0)
    print(f"two-site chain at t = {t}, maximally mixed state")
    print("the direct distribution is real at infinite temperature but not")
    print(f"a probability: most negative entry = "
          f"{direct.values.real.min():+.4f}, "
          f"largest = {direct.values.real.max():+.4f}")
    print()

    records = weakmeas.standard_protocol_records(rho, w, v, ham, t)
    inferred, report = weakmeas.infer_coarse_quasiprob(records)
    dev = np.max(np.abs(inferred.values - direct.values))
    strengths = sorted({r.coupling.strength for r in records})
    print(f"exact records: {len(records)} measurement settings "
          f"(couplings {strengths},")
    print("both phase modes), linear inversion of the outcome statistics")
    print(f"  worst entry deviation from direct: {dev:.2e}")
    print(f"  worst design residual: {report.residuals.max():.2e}")
    print()

    print("with shot noise the inversion is expensive: the target signal")
    print("enters the outcome statistics at third order in the coupling,")
    print("so absolute errors stay large at weak strength, shrinking like")
    print("1/sqrt(shots); the standard errors report that faithfully")
    print("  shots      worst |dev|   worst dev/SE")
    for shots in (10_000, 100_000, 1_000_000):
        sampled = weakmeas.standard_protocol_records(
            rho, w, v, ham, t, shots=shots, seed=args.seed)
        est, rep = weakmeas.infer_coarse_quasiprob(sampled)
        se = rep.std_errors
        z_re = np.abs(est.values.real - direct.values.real) / se[..., 0]
        z_im = np.abs(est.values.imag - direct.values.imag) / se[..., 1]
        worst = np.max(np.abs(est.values - direct.values))
        z = float(max(z_re.max(), z_im.max()))
        print(f"  {shots:>9,}   {worst:.2e}      {z:.2f}")
    print()
    print("pulls stay order one, so the reported standard errors are")
    print("honest; tighten them by raising shots or adding couplings")


if __name__ == "__main__":
    main()

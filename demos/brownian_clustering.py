"""Average the quasiprobability over a Brownian circuit ensemble.

Runs a modest ensemble of random two-body circuits, then checks the two
closed-form predictions: single-operator autocorrelators decay at rate 2,
and the sixteen quasiprobability entries cluster onto {3/16, 1/16, -1/16}
by the signs of w2*w3 and v1*v2 once the correlator has died. Run it:

    python3 demos/brownian_clustering.py [--sites 4] [--trajectories 100]
"""
from __future__ import annotations

import argparse

from otoclab import brownian


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--sites", type=int, default=4)
    parser.add_argument("--trajectories", type=int, default=100)
    parser.add_argument("--seed", type=int, default=1)
    args = parser.parse_args()

    cfg = brownian.BrownianConfig(n=args.sites, dt=0.005, steps=800,
                                  trajectories=args.trajectories,
                                  seed=args.seed, stride=40)
    print(f"Brownian ensemble: {cfg.n} sites, dt = {cfg.dt}, "
          f"{cfg.trajectories} trajectories, t up to "
          f"{cfg.dt * cfg.steps:.1f}")
    res = brownian.ensemble_averages(cfg)
    print(f"largest unitarity defect of a final propagator: "
          f"{res.unitarity_defect:.2e}")
    print()

    q11 = res.correlators["q_11"]
    slope, r2 = brownian.decay_rate_fit(q11)
    print("autocorrelator Tr(W(t) W)/d decays exponentially:")
    print(f"  fitted rate = {slope:+.3f} (prediction -2), R^2 = {r2:.5f}")
    f_end = res.correlators["F"].mean[-1]
    print(f"  ensemble OTOC at t = {res.times[-1]:.1f}: "
          f"Re F = {f_end.real:+.4f}")
    print()

    print("late-time entries against the sign-class plateaus:")
    print("  (v1 w2 v2 w3)   mean        target      pull/SE")
    for v1 in (1, -1):
        for w2 in (1, -1):
            for v2 in (1, -1):
                for w3 in (1, -1):
                    idx = tuple(int(x > 0) for x in (v1, w2, v2, w3))
                    target = brownian.analytic_avg_quasiprob(
                        w2, w3, v1, v2, 0.0)
                    mean = res.quasi_mean[(-1,) + idx].real
                    se = res.quasi_se[(-1,) + idx + (0,)]
                    pull = abs(mean - target) / se if se > 0 else 0.0
                    signs = " ".join(f"{s:+d}" for s in (v1, w2, v2, w3))
                    print(f"  ({signs})   {mean:+.4f}     "
                          f"{target:+.4f}     {pull:.2f}")
    print()
    print("every entry should sit within a few standard errors of its")
    print("plateau; the plateaus depend only on the products w2*w3, v1*v2")


if __name__ == "__main__":
    main()

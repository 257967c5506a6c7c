"""Benchmark workloads: deterministic job lists generated from a seed.

A job is the argv of one `otoclab` invocation plus the number of items
it completes. A workload is a fixed cycle of jobs; the benchmark runs
whole cycles only, so every run of a workload measures the same mix.

The seed changes only random draws: Haar states, Brownian seeds, shot
sampling and retrodiction instances. W, V, the chain and the time grids
stay fixed, because the cost of recovering projectors depends on the
site and axis of the operators.
"""
from __future__ import annotations

import random
from collections.abc import Callable
from dataclasses import dataclass


@dataclass(frozen=True)
class Job:
    argv: tuple[str, ...]
    items: int

    @property
    def subcommand(self) -> str:
        return self.argv[0]

    @property
    def output_format(self) -> str:
        return "json" if ("--format", "json") in zip(self.argv, self.argv[1:]) else "csv"


def _draw(rng: random.Random) -> str:
    return str(rng.randrange(1, 2**31))


# sweep-n10: n = 10, default chain, W = 1:z, V = 10:z, t = 0, 2.5, ..., 20.
_SWEEP_GRID = ("--n", "10", "--w", "1:z", "--v", "10:z",
               "--t-max", "20", "--t-step", "2.5")
_SWEEP_POINTS = 9


def _sweep_cycle(rng: random.Random) -> list[Job]:
    jobs = []
    for sub in ("otoc-series", "quasiprob-series"):
        for state in ("infinite-temp", f"haar:{_draw(rng)}", "thermal:2"):
            jobs.append(Job((sub,) + _SWEEP_GRID + ("--state", state),
                            _SWEEP_POINTS))
    return jobs


# ensemble-n5: one item is one trajectory-step (trajectories x t_max/dt).
_ENSEMBLE_TRAJECTORIES = 10
_ENSEMBLE_STEPS = 800


def _ensemble_cycle(rng: random.Random) -> list[Job]:
    argv = ("brownian-ensemble", "--n", "5", "--dt", "0.005", "--t-max", "4",
            "--t-step", "0.1", "--trajectories", str(_ENSEMBLE_TRAJECTORIES),
            "--state", "infinite-temp", "--w", "1:z", "--v", "2:z",
            "--seed", _draw(rng))
    return [Job(argv, _ENSEMBLE_TRAJECTORIES * _ENSEMBLE_STEPS)]


def _pointwise_cycle(rng: random.Random) -> list[Job]:
    argvs = [
        ("work-distribution", "--n", "8"),
        ("toc-series", "--n", "8", "--t-max", "1", "--t-step", "0.1"),
        ("kfold-series", "--n", "6"),
        ("regulated-series", "--n", "6"),
        ("weakmeas-inference", "--n", "4"),
        ("weakmeas-inference", "--n", "4", "--shots", "100000",
         "--seed", _draw(rng)),
        ("weakmeas-inference", "--n", "4", "--protocol", "two-weak"),
        ("retrodict-benchmark", "--seed", _draw(rng)),
        ("decomp-report", "--n", "4"),
        ("quasiprob-series", "--n", "4", "--t-max", "200", "--t-step", "0.1",
         "--format", "json"),
    ]
    return [Job(a, 1) for a in argvs]


@dataclass(frozen=True)
class Workload:
    name: str
    item: str
    cycle: Callable[[random.Random], list[Job]]
    warmup: Job        # small untimed job on the same code paths


WORKLOADS = {
    w.name: w for w in (
        Workload("sweep-n10", "time point", _sweep_cycle,
                 Job(("quasiprob-series", "--n", "4", "--v", "4:z",
                      "--t-max", "2", "--t-step", "2", "--state", "haar:1"), 2)),
        Workload("ensemble-n5", "trajectory-step", _ensemble_cycle,
                 Job(("brownian-ensemble", "--n", "5", "--t-max", "0.1",
                      "--t-step", "0.1", "--trajectories", "2"), 40)),
        Workload("pointwise-mix", "job", _pointwise_cycle,
                 Job(("work-distribution", "--n", "4"), 1)),
    )
}


def cycle(name: str, seed: int, index: int) -> list[Job]:
    """Jobs of cycle `index` of a workload; a pure function of its arguments."""
    return WORKLOADS[name].cycle(random.Random(f"{name}:{seed}:{index}"))

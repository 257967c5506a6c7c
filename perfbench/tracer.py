"""Tracing from outside the program.

`Tracer` replaces every public function of the eight otoclab modules with
a timing wrapper and puts the originals back on exit. This reaches every
call because otoclab calls across modules through module attributes
(`qla.eigh`) and within a module through module globals, both of which
`setattr` on the module replaces.

Spans are aggregated in memory per (parent span, span) edge: call count,
total time and self time (duration minus the time covered by child
spans). `layer_metrics` turns the edges into the per-layer metrics.
"""
from __future__ import annotations

import functools
import inspect
from collections import Counter
from time import perf_counter

import numpy as np

MODULES = ("spin", "qla", "quasiprob", "brownian", "weakmeas", "retrodict",
           "decomp", "cli")

SUBCOMMANDS = ("otoc-series", "quasiprob-series", "brownian-ensemble",
               "work-distribution", "toc-series", "kfold-series",
               "regulated-series", "weakmeas-inference", "retrodict-benchmark",
               "decomp-report")

# Per-layer metrics: (name, unit, better, the end-to-end metric and
# workload it should move). A metric reads 0 on workloads whose jobs never
# enter its layer.
LAYERS = [
    ("spin.ising_hamiltonian.s", "s", "lower", "job_s_p50 on sweep-n10 (about 2 s of each job); small on pointwise-mix"),
    ("spin.ising_hamiltonian.calls", "count", "lower", "job_s_p50 on sweep-n10"),
    ("spin.thermal_state.s", "s", "lower", "job_s_p50 on sweep-n10 (thermal jobs)"),
    ("qla.eigh.nondegenerate.s", "s", "lower", "job_s_p50 on sweep-n10 (d=1024); items_per_s on ensemble-n5 (d=32)"),
    ("qla.eigh.nondegenerate.calls", "count", "lower", "same as qla.eigh.nondegenerate.s"),
    ("qla.eigh.degenerate.s", "s", "lower", "items_per_s on pointwise-mix (projector recovery); 0 elsewhere"),
    ("qla.eigh.degenerate.calls", "count", "lower", "items_per_s on pointwise-mix"),
    ("qla.eigh.nondegenerate.under_expm_scaled.s", "s", "lower", "items_per_s on ensemble-n5"),
    ("qla.expm_scaled.s", "s", "lower", "items_per_s on ensemble-n5"),
    ("qla.expm_scaled.calls", "count", "lower", "items_per_s on ensemble-n5"),
    ("qla.matmul_ref_s", "s", "lower", "none: the per-point floor, one 1024x1024 complex matmul"),
    ("quasiprob.series.s", "s", "lower", "items_per_s and job_s_p50 on sweep-n10; not ensemble-n5"),
    ("quasiprob.series.points", "count", "higher", "items_per_s on sweep-n10"),
    ("quasiprob.point_s", "s", "lower", "items_per_s and job_s_p50 on sweep-n10"),
    ("quasiprob.point_over_matmul", "ratio", "lower", "items_per_s on sweep-n10"),
    ("quasiprob.single.s", "s", "lower", "items_per_s on pointwise-mix"),
    ("quasiprob.single.calls", "count", "lower", "items_per_s on pointwise-mix"),
    ("quasiprob.propagator.calls", "count", "lower", "items_per_s on pointwise-mix (each a d^3 re-propagation)"),
    ("quasiprob.coarse_entries_from_correlators.calls", "count", "lower", "items_per_s on ensemble-n5 and sweep-n10"),
    ("brownian.ensemble_averages.self_s", "s", "lower", "items_per_s and peak_rss_mb on ensemble-n5"),
    ("brownian.step_s", "s", "lower", "items_per_s and peak_rss_mb on ensemble-n5"),
    ("brownian.expm_share", "ratio", "lower", "items_per_s and peak_rss_mb on ensemble-n5"),
    ("weakmeas.simulate.s", "s", "lower", "job_s_p50 on pointwise-mix"),
    ("weakmeas.simulate.calls", "count", "lower", "job_s_p50 on pointwise-mix"),
    ("weakmeas.infer.s", "s", "lower", "job_s_p50 on pointwise-mix"),
    ("retrodict.direct.s", "s", "lower", "job_s_p50 on pointwise-mix"),
    ("retrodict.factored.s", "s", "lower", "job_s_p50 on pointwise-mix"),
    ("retrodict.gamma_matrix.s", "s", "lower", "job_s_p50 on pointwise-mix"),
    ("decomp.mub_overlap_statistics.s", "s", "lower", "job_s_p50 on pointwise-mix"),
    ("cli.render.s", "s", "lower", "items_per_s on pointwise-mix (the 2001-row JSON job)"),
    ("cli.write.s", "s", "lower", "items_per_s on pointwise-mix"),
    ("cli.bytes_out", "B", "lower", "items_per_s on pointwise-mix"),
] + [
    (f"cli.job.{sub}.s", "s", "lower", "job_s_p50 on the workload that runs it")
    for sub in SUBCOMMANDS
] + [
    metric for mod in MODULES for metric in (
        (f"{mod}.self_s", "s", "lower", "job_s_p50 on every workload that enters the module"),
        (f"{mod}.errors", "count", "lower", "failed_frac on every workload"),
    )
] + [
    ("job.cpu_per_wall", "ratio", "higher", "items_per_s on sweep-n10 (BLAS use of the cores)"),
    ("trace.overhead", "ratio", "higher", "none: traced over untraced items_per_s"),
]

_SERIES = ("quasiprob.otoc_series", "quasiprob.coarse_quasiprob_series")
_SINGLE = ("quasiprob.coarse_quasiprob", "quasiprob.toc_and_toc_quasiprob",
           "quasiprob.regulated_quasiprob_and_otoc",
           "quasiprob.kfold_otoc_and_quasiprob")
_SIMULATE = ("weakmeas.simulate_protocol", "weakmeas.two_measurement_protocol")


def _eigh_kind(qla):
    rtol = qla._DEGENERACY_RTOL

    def kind(result) -> str:
        ev = result.eigenvalues
        tol = rtol * max(float(np.max(np.abs(ev))), 1.0)
        repeated = ev.shape[0] > 1 and bool(np.any(np.diff(ev) <= tol))
        return "qla.eigh.degenerate" if repeated else "qla.eigh.nondegenerate"
    return kind


def _count_points(counters, args, kwargs, result):
    counters["quasiprob.series.points"] += len(result.times)


def _count_steps(counters, args, kwargs, result):
    config = args[0] if args else kwargs["config"]
    counters["brownian.trajectory_steps"] += config.trajectories * config.steps


def _count_bytes(counters, args, kwargs, result):
    text = args[0] if args else kwargs["text"]
    counters["cli.bytes_out"] += len(text.encode())


_HOOKS = {
    "quasiprob.otoc_series": _count_points,
    "quasiprob.coarse_quasiprob_series": _count_points,
    "brownian.ensemble_averages": _count_steps,
    "cli.write_output": _count_bytes,
}


class Tracer:
    """Context manager that wraps the public functions of the otoclab
    modules while active and restores the originals on exit."""

    def __init__(self, package):
        self.package = package
        self.edges: dict[tuple[str | None, str], list] = {}
        self.errors: Counter = Counter()
        self.counters: Counter = Counter()
        self._stack: list[list] = []
        self._saved: list[tuple[object, str, object]] = []

    def __enter__(self):
        for short in MODULES:
            mod = getattr(self.package, short)
            for attr, fn in list(vars(mod).items()):
                if (inspect.isfunction(fn) and not attr.startswith("_")
                        and fn.__module__ == mod.__name__):
                    self._saved.append((mod, attr, fn))
                    setattr(mod, attr, self._wrap(short, attr, fn))
        return self

    def __exit__(self, *exc):
        for mod, attr, fn in reversed(self._saved):
            setattr(mod, attr, fn)
        self._saved.clear()
        return False

    def _close(self, frame, dt, name):
        stack = self._stack
        stack.pop()
        parent = stack[-1] if stack else None
        if parent is not None:
            parent[1] += dt
        key = (parent[0] if parent is not None else None, name)
        edge = self.edges.get(key)
        if edge is None:
            edge = self.edges[key] = [0, 0.0, 0.0]
        edge[0] += 1
        edge[1] += dt
        edge[2] += dt - frame[1]

    def _wrap(self, module, attr, fn):
        key = f"{module}.{attr}"
        classify = _eigh_kind(self.package.qla) if key == "qla.eigh" else None
        hook = _HOOKS.get(key)
        stack, close, errors = self._stack, self._close, self.errors

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            frame = [key, 0.0]
            stack.append(frame)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                close(frame, perf_counter() - t0, key)
                errors[module] += 1
                raise
            dt = perf_counter() - t0
            close(frame, dt, key if classify is None else classify(result))
            if hook is not None:
                hook(self.counters, args, kwargs, result)
            return result
        return traced

    # ------------------------------------------------------------ totals

    def span(self, name: str, parent: str | None = "*") -> tuple[int, float, float]:
        """(calls, total s, self s) of a span, over all parents or one."""
        calls = total = own = 0.0
        for (p, n), (c, t, s) in self.edges.items():
            if n == name and (parent == "*" or p == parent):
                calls += c
                total += t
                own += s
        return int(calls), total, own

    def module_self(self, module: str) -> float:
        return sum(s for (_, n), (_, _, s) in self.edges.items()
                   if n.startswith(module + "."))

    def self_total(self) -> float:
        return sum(s for (_, _, s) in self.edges.values())

    def top_self(self, k: int) -> list[tuple[str, float]]:
        by_name: Counter = Counter()
        for (_, n), (_, _, s) in self.edges.items():
            by_name[n] += s
        return by_name.most_common(k)


def layer_metrics(tracer: Tracer, job_medians: dict, cpu_per_wall: float,
                  overhead: float, matmul_ref_s: float) -> dict[str, float]:
    """Every metric of LAYERS from one traced phase and its untraced twin."""
    t = tracer
    series_s = sum(t.span(n)[2] for n in _SERIES)
    points = t.counters["quasiprob.series.points"]
    point_s = series_s / points if points else 0.0
    _, ens_total, ens_self = t.span("brownian.ensemble_averages")
    steps = t.counters["brownian.trajectory_steps"]
    expm_under = t.span("qla.expm_scaled", parent="brownian.ensemble_averages")[1]
    out = {
        "spin.ising_hamiltonian.s": t.span("spin.ising_hamiltonian")[2],
        "spin.ising_hamiltonian.calls": t.span("spin.ising_hamiltonian")[0],
        "spin.thermal_state.s": t.span("spin.thermal_state")[2],
        "qla.eigh.nondegenerate.s": t.span("qla.eigh.nondegenerate")[2],
        "qla.eigh.nondegenerate.calls": t.span("qla.eigh.nondegenerate")[0],
        "qla.eigh.degenerate.s": t.span("qla.eigh.degenerate")[2],
        "qla.eigh.degenerate.calls": t.span("qla.eigh.degenerate")[0],
        "qla.eigh.nondegenerate.under_expm_scaled.s":
            t.span("qla.eigh.nondegenerate", parent="qla.expm_scaled")[2],
        "qla.expm_scaled.s": t.span("qla.expm_scaled")[2],
        "qla.expm_scaled.calls": t.span("qla.expm_scaled")[0],
        "qla.matmul_ref_s": matmul_ref_s,
        "quasiprob.series.s": series_s,
        "quasiprob.series.points": points,
        "quasiprob.point_s": point_s,
        "quasiprob.point_over_matmul": point_s / matmul_ref_s,
        "quasiprob.single.s": sum(t.span(n)[2] for n in _SINGLE),
        "quasiprob.single.calls": sum(t.span(n)[0] for n in _SINGLE),
        "quasiprob.propagator.calls": t.span("quasiprob.propagator")[0],
        "quasiprob.coarse_entries_from_correlators.calls":
            t.span("quasiprob.coarse_entries_from_correlators")[0],
        "brownian.ensemble_averages.self_s": ens_self,
        "brownian.step_s": ens_total / steps if steps else 0.0,
        "brownian.expm_share": expm_under / ens_total if ens_total else 0.0,
        "weakmeas.simulate.s": sum(t.span(n)[2] for n in _SIMULATE),
        "weakmeas.simulate.calls": sum(t.span(n)[0] for n in _SIMULATE),
        "weakmeas.infer.s": t.span("weakmeas.infer_coarse_quasiprob")[2],
        "retrodict.direct.s": t.span("retrodict.gamma_weak_direct")[2],
        "retrodict.factored.s": t.span("retrodict.gamma_weak_factored")[2],
        "retrodict.gamma_matrix.s": t.span("retrodict.gamma_matrix")[2],
        "decomp.mub_overlap_statistics.s": t.span("decomp.mub_overlap_statistics")[2],
        "cli.render.s": t.span("cli.render_csv")[2] + t.span("cli.render_json")[2],
        "cli.write.s": t.span("cli.write_output")[2],
        "cli.bytes_out": t.counters["cli.bytes_out"],
        "job.cpu_per_wall": cpu_per_wall,
        "trace.overhead": overhead,
    }
    for sub in SUBCOMMANDS:
        out[f"cli.job.{sub}.s"] = job_medians.get(sub, 0.0)
    for mod in MODULES:
        out[f"{mod}.self_s"] = t.module_self(mod)
        out[f"{mod}.errors"] = t.errors[mod]
    return out

"""Benchmark worker: one fresh process that runs one workload.

Started by run.py. It imports otoclab from the checkout, generates the
job list from the seed, runs one untimed warm-up job and prints `ready`;
run.py times set-up up to that line. Unless --setup-only is given it then
runs whole cycles of jobs back to back (a closed loop with one client and
no think time), checks every output once timing is over, and writes a
JSON result file for run.py.
"""
from __future__ import annotations

import argparse
import ctypes
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402

import otoclab  # noqa: E402
from otoclab import cli  # noqa: E402

import checks  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402

REF_DIM = 1024
REF_REPEATS = 3


def run_job(job, out: Path) -> dict:
    argv = list(job.argv) + ["--out", str(out)]
    c0, t0 = time.process_time(), time.perf_counter()
    try:
        rc = cli.main(argv)
    except SystemExit as exc:         # argparse rejects an argv
        rc = exc.code if isinstance(exc.code, int) else 2
    except Exception:                 # a crash is one failed job, not a failed run
        traceback.print_exc()
        rc = -1
    wall = time.perf_counter() - t0
    return {"argv": job.argv, "sub": job.subcommand, "items": job.items,
            "wall_s": wall, "cpu_s": time.process_time() - c0, "rc": rc,
            "out": str(out)}


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def run_phase(name: str, seed: int, budget_s: float, workdir: Path, tag: str):
    """Whole cycles until the next one would end past the budget; at least one.

    Returns the job records, the window length and the peak resident memory
    after the first cycle. Memory is taken there because the allocator keeps
    growing the heap over later cycles, and how many cycles fit varies with
    machine speed; the first cycle is the same work in every run.
    """
    records = []
    rss = None
    start = time.perf_counter()
    k = 0
    while True:
        c0 = time.perf_counter()
        for i, job in enumerate(workloads.cycle(name, seed, k)):
            out = workdir / f"{tag}-{k}-{i}.{job.output_format}"
            records.append(run_job(job, out))
        k += 1
        rss = rss or _peak_rss_mb()
        now = time.perf_counter()
        if now - start + (now - c0) > budget_s:
            break
    return records, time.perf_counter() - start, rss


def check_records(records, spot) -> None:
    by_job = {}
    for rec in records:
        job = workloads.Job(tuple(rec["argv"]), rec["items"])
        if rec["rc"] != 0:
            rec["failures"] = [f"exit code {rec['rc']}"]
            continue
        try:
            text = Path(rec["out"]).read_text()
        except OSError as exc:
            rec["failures"] = [f"no output: {exc}"]
            continue
        key = (job.argv, text)
        if key not in by_job:
            by_job[key] = checks.check_output(job, text, spot)
        rec["failures"] = by_job[key]


def reference_times() -> dict:
    rng = np.random.default_rng(0)
    a = rng.normal(size=(REF_DIM, REF_DIM)) + 1j * rng.normal(size=(REF_DIM, REF_DIM))
    h = (a + a.conj().T) / 2
    mm = []
    for _ in range(REF_REPEATS):
        t0 = time.perf_counter()
        a @ a
        mm.append(time.perf_counter() - t0)
    t0 = time.perf_counter()
    np.linalg.eigh(h)
    return {"matmul_ref_s": statistics.median(mm),
            "eigh_ref_s": time.perf_counter() - t0}


def _openblas() -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    info = {"name": blas.get("name"), "version": blas.get("version"), "threads": None}
    with open("/proc/self/maps") as fh:
        libs = sorted({line.split()[-1] for line in fh
                       if "openblas" in line.lower() and line.split()[-1].startswith("/")})
    for lib in libs:
        try:
            dll = ctypes.CDLL(lib)
        except OSError:
            continue
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                    "openblas_get_num_threads"):
            if hasattr(dll, sym):
                fn = getattr(dll, sym)
                fn.argtypes, fn.restype = [], ctypes.c_int
                info["threads"] = fn()
                return info
    return info


def fingerprint(loadavg) -> dict:
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": _openblas(),
        "thread_env": {k: os.environ.get(k) for k in (
            "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
        "loadavg_at_start": loadavg,
        "machine": platform.machine(),
        "otoclab": otoclab.__version__,
    }


def _rate(phase) -> float:
    return sum(r["items"] for r in phase["records"]) / phase["window_s"]


def _layers(result, trace, matmul_ref_s):
    """Per-layer metrics of a traced run, and the largest self-time spans
    as shares of traced job time."""
    plain, traced = result["phases"]["untraced"], result["phases"]["traced"]
    by_sub = {}
    for r in plain["records"]:
        by_sub.setdefault(r["sub"], []).append(r["wall_s"])
    medians = {sub: statistics.median(v) for sub, v in by_sub.items()}
    cpu = sum(r["cpu_s"] for r in plain["records"])
    wall = sum(r["wall_s"] for r in plain["records"])
    layers = tracer.layer_metrics(trace, medians, cpu / wall,
                                  _rate(traced) / _rate(plain), matmul_ref_s)
    traced_wall = sum(r["wall_s"] for r in traced["records"])
    top = [[n, s / traced_wall] for n, s in trace.top_self(8)]
    top.append(["(all spans)", trace.self_total() / traced_wall])
    return layers, top


def main(argv=None) -> int:
    p = argparse.ArgumentParser()
    p.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=0.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-only", action="store_true")
    p.add_argument("--workdir", required=True)
    p.add_argument("--result")
    args = p.parse_args(argv)

    loadavg = os.getloadavg()
    src = (ROOT / "src").resolve()
    if src not in Path(otoclab.__file__).resolve().parents:
        print(f"otoclab was imported from {otoclab.__file__}, not {src}", file=sys.stderr)
        return 2
    name = args.workload
    workloads.cycle(name, args.seed, 0)
    workdir = Path(args.workdir)
    workdir.mkdir(parents=True, exist_ok=True)
    warm = workloads.WORKLOADS[name].warmup
    rec = run_job(warm, workdir / f"warmup.{warm.output_format}")
    check_records([rec], None)
    if rec["failures"]:
        print(f"warm-up job failed: {rec['failures']}", file=sys.stderr)
        return 1
    print("ready", flush=True)
    if args.setup_only:
        return 0

    phases = [("untraced", args.seconds / 2 if args.trace else args.seconds)]
    if args.trace:
        phases.append(("traced", args.seconds / 2))
    result = {"phases": {}}
    for tag, budget in phases:
        if tag == "traced":
            with tracer.Tracer(otoclab) as trace:
                records, window, _ = run_phase(name, args.seed, budget, workdir, tag)
        else:
            records, window, result["peak_rss_mb"] = run_phase(
                name, args.seed, budget, workdir, tag)
        result["phases"][tag] = {"records": records, "window_s": window}
    refs = reference_times()
    result["fingerprint"] = dict(fingerprint(loadavg), **refs)

    spot = checks.SpotChecker()
    for phase in result["phases"].values():
        check_records(phase["records"], spot)
    if args.trace:
        result["layers"], result["top_self"] = _layers(result, trace, refs["matmul_ref_s"])
    Path(args.result).write_text(json.dumps(result))
    shutil.rmtree(workdir, ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())

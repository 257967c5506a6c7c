"""otoclab benchmark: run one workload and print its metrics.

    python3 perfbench/run.py --workload sweep-n10 --seed 1 --seconds 30 --trace 0

Run from the root of a checkout; otoclab is imported from its `src/`.
Workloads are defined in workloads.py. With --trace 0 the last line of
standard output is one JSON object with the end-to-end metrics; with
--trace 1 it holds the per-layer metrics of a traced run (see tracer.py).
The lines before it are a readable report with units, sample counts and
a machine fingerprint; the same report is saved under perfbench/results/.

Set-up is timed in SETUP_SAMPLES fresh processes, from process start to
the point where the first timed job is ready, and reported as the median.
The timed jobs run in the last of those processes, one after another.
"""
from __future__ import annotations

import argparse
import json
import math
import os
import select
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RESULTS = HERE / "results"
SETUP_SAMPLES = 5
DEADLINE_S = 170.0


def _thread_env() -> dict:
    """BLAS uses at most nproc threads."""
    nproc = len(os.sched_getaffinity(0))
    env = dict(os.environ)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS"):
        try:
            current = int(env.get(var, nproc))
        except ValueError:
            current = nproc
        env[var] = str(max(1, min(current, nproc)))
    return env


class Worker:
    """One worker process. `ready` waits for its ready line and returns the
    set-up time, measured from just before the process was started."""

    def __init__(self, args, workdir: Path, result: Path | None, deadline: float):
        cmd = [sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace), "--workdir", str(workdir)]
        cmd += ["--result", str(result)] if result else ["--setup-only"]
        self.deadline = deadline
        self.t0 = time.perf_counter()
        self.proc = subprocess.Popen(cmd, cwd=ROOT, env=_thread_env(),
                                     stdout=subprocess.PIPE, text=True)

    def ready(self) -> float:
        wait = max(0.0, self.deadline - time.monotonic())
        if not select.select([self.proc.stdout], [], [], wait)[0]:
            raise RuntimeError("worker was not ready before the deadline")
        line = self.proc.stdout.readline()
        setup = time.perf_counter() - self.t0
        if line.strip() != "ready":
            raise RuntimeError("worker stopped before it was ready")
        return setup

    def finish(self) -> None:
        try:
            rc = self.proc.wait(timeout=max(1.0, self.deadline - time.monotonic()))
        finally:
            self.stop()
        if rc != 0:
            raise RuntimeError(f"worker exited with code {rc}")

    def stop(self) -> None:
        if self.proc.poll() is None:
            self.proc.kill()
        self.proc.wait()
        self.proc.stdout.close()


def percentile_tail(samples: list[float]):
    """(percentile, value): the highest whole percentile with at least ten
    samples beyond it (nearest rank), or None when there are too few."""
    n = len(samples)
    if n < 11:
        return None
    pct = math.floor(100 * (n - 10) / n)
    rank = max(1, math.ceil(pct * n / 100))
    return pct, sorted(samples)[rank - 1]


def end_to_end(result: dict, setups: list[float]) -> tuple[dict, list]:
    """Final-line metrics and report rows (name, value, unit, samples).

    The job-time median and tail are reported but not final-line metrics:
    a run holds a few cycles of unlike jobs, so its median job is one job
    type or another from run to run, and it spreads wider across runs than
    any bound would allow.
    """
    phase = result["phases"]["untraced"]
    records = phase["records"]
    walls = [r["wall_s"] for r in records]
    failed = sum(1 for r in records if r["failures"])
    metrics = {
        "setup_s": (statistics.median(setups), "s", len(setups)),
        "items_per_s": (sum(r["items"] for r in records) / phase["window_s"],
                        "items/s", len(records)),
        "peak_rss_mb": (result["peak_rss_mb"], "MB", 1),
    }
    rows = [(k, v, u, n) for k, (v, u, n) in metrics.items()]
    rows.append(("job_s_p50", statistics.median(walls), "s", len(walls)))
    tail = percentile_tail(walls)
    if tail is None:
        rows.append(("job_s_tail", None, "s", len(walls)))
    else:
        rows.append((f"job_s_tail (p{tail[0]})", tail[1], "s", len(walls)))
    rows.append(("failed_frac", failed / len(records), "1", len(records)))
    return {k: {"value": v, "unit": u} for k, (v, u, _) in metrics.items()}, rows


def report(args, result, rows, extra_lines) -> list[str]:
    lines = [f"perfbench workload={args.workload} seed={args.seed} "
             f"seconds={args.seconds} trace={args.trace} "
             f"item={workloads.WORKLOADS[args.workload].item!r}",
             "fingerprint " + json.dumps(result["fingerprint"], sort_keys=True),
             f"{'metric':48s} {'value':>14s} {'unit':>8s} {'samples':>8s}"]
    for name, value, unit, n in rows:
        shown = "omitted" if value is None else f"{value:.6g}"
        lines.append(f"{name:48s} {shown:>14s} {unit:>8s} {n:>8d}")
    for rec in (r for p in result["phases"].values() for r in p["records"]):
        if rec["failures"]:
            lines.append(f"FAILED {' '.join(rec['argv'])}: {'; '.join(rec['failures'])}")
    return lines + extra_lines


def layer_rows(result) -> tuple[dict, list, list[str]]:
    import tracer
    layers = result["layers"]
    metrics, rows = {}, []
    for name, unit, _, moves in tracer.LAYERS:
        metrics[name] = {"value": layers[name], "unit": unit}
        rows.append((name, layers[name], unit, 1))
    extra = ["largest self-time shares of traced job time:"]
    extra += [f"  {share:7.1%}  {name}" for name, share in result["top_self"]]
    extra += ["layer metric -> end-to-end metric it should move:"]
    extra += [f"  {name}: {moves}" for name, _, _, moves in tracer.LAYERS]
    return metrics, rows, extra


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=int, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = p.parse_args(argv)
    if args.seconds < 1:
        p.error("--seconds must be at least 1")
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))   # run the cleanup below
    if not (ROOT / "src" / "otoclab" / "__init__.py").is_file():
        print(f"no otoclab sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    deadline = time.monotonic() + DEADLINE_S
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    workdir = RESULTS / f"work-{os.getpid()}"
    result_path = RESULTS / f"{tag}.raw.json"
    RESULTS.mkdir(exist_ok=True)
    setups = []
    worker = None
    try:
        for k in range(SETUP_SAMPLES):
            last = k == SETUP_SAMPLES - 1
            worker = Worker(args, workdir / str(k), result_path if last else None, deadline)
            setups.append(worker.ready())
            if not last:
                worker.finish()
        worker.finish()
        result = json.loads(result_path.read_text())
    except (RuntimeError, subprocess.TimeoutExpired, OSError, ValueError) as exc:
        print(f"benchmark run failed: {exc}", file=sys.stderr)
        return 1
    finally:
        if worker is not None:
            worker.stop()
        shutil.rmtree(workdir, ignore_errors=True)
        result_path.unlink(missing_ok=True)

    records = [r for ph in result["phases"].values() for r in ph["records"]]
    failed = sum(1 for r in records if r["failures"])
    e2e, rows = end_to_end(result, setups)
    extra = []
    if args.trace:
        metrics, layer_table, extra = layer_rows(result)
        rows += layer_table
    else:
        metrics = e2e
    lines = report(args, result, rows, extra)
    final = {"correct": failed == 0, "attempted": len(records), "failed": failed,
             "metrics": metrics}
    (RESULTS / f"{tag}.json").write_text(json.dumps(
        {"report": lines, "fingerprint": result["fingerprint"], "result": final,
         "jobs": [{k: r[k] for k in ("argv", "wall_s", "cpu_s", "items", "failures")}
                  for r in records]}, indent=1))
    print("\n".join(lines))
    print(json.dumps(final))
    return 0


if __name__ == "__main__":
    sys.exit(main())

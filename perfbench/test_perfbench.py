"""Quick self-tests of the benchmark at tiny sizes.

    python3 -m pytest perfbench -q
"""
from __future__ import annotations

import inspect
import json
import sys
import time
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import otoclab  # noqa: E402
from otoclab import cli  # noqa: E402

import checks  # noqa: E402
import run  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402
from workloads import Job  # noqa: E402


def _jobs(name, seed, cycles):
    return [job for k in range(cycles) for job in workloads.cycle(name, seed, k)]


def _strip_draws(argv):
    out = []
    for prev, arg in zip(("",) + argv[:-1], argv):
        if prev == "--seed":
            arg = "*"
        elif arg.startswith("haar:"):
            arg = "haar:*"
        out.append(arg)
    return out


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_job_list_is_deterministic_per_seed(name):
    assert _jobs(name, 7, 3) == _jobs(name, 7, 3)


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_seeds_change_only_random_draws(name):
    a, b = _jobs(name, 1, 2), _jobs(name, 2, 2)
    assert [_strip_draws(j.argv) for j in a] == [_strip_draws(j.argv) for j in b]
    assert [j.items for j in a] == [j.items for j in b]
    assert a != b


# (job, column, row, delta): one entry the checks must catch when perturbed
PERTURBED = [
    (Job(("quasiprob-series", "--n", "3", "--t-max", "1", "--t-step", "0.5"), 3), "re_0110", 2, 1e-6),
    (Job(("otoc-series", "--n", "3", "--t-max", "1", "--t-step", "0.5"), 3), "re_f", 0, 1e-6),
    (Job(("work-distribution", "--n", "3"), 1), "re_p", 1, 1e-6),
    (Job(("brownian-ensemble", "--n", "3", "--t-max", "0.1", "--t-step", "0.05",
          "--trajectories", "2"), 40), "re_1010", 2, 1e-6),
    (Job(("toc-series", "--n", "3", "--t-max", "1", "--t-step", "0.5"), 3), "re_010", 1, 1e-6),
    (Job(("kfold-series", "--n", "3", "--khat", "2", "--t-max", "1", "--t-step", "0.5"), 3), "re_fk", 2, 1e-6),
    (Job(("regulated-series", "--n", "3", "--t-max", "1", "--t-step", "0.5"), 3), "im_0011", 2, 1e-6),
    (Job(("weakmeas-inference", "--n", "2"), 1), "re_inferred", 5, 1e-6),
    (Job(("weakmeas-inference", "--n", "2", "--shots", "1000", "--seed", "3"), 1), "re_inferred", 5, 1e3),
    (Job(("retrodict-benchmark", "--instances", "2"), 1), "method2", 1, 1e-6),
    (Job(("decomp-report", "--n", "2", "--t-max", "1", "--t-step", "0.5"), 1), "near_mub_fraction", 1, 2.0),
]


def _run(job, tmp_path):
    out = tmp_path / f"out.{job.output_format}"
    assert cli.main(list(job.argv) + ["--out", str(out)]) == 0
    return out.read_text()


def _perturb_csv(text, column, row, delta):
    lines = text.splitlines()
    header = lines[1].split(",")
    cells = lines[2 + row].split(",")
    k = header.index(column)
    cells[k] = repr(float(cells[k]) + delta)
    lines[2 + row] = ",".join(cells)
    return "\n".join(lines) + "\n"


@pytest.mark.parametrize("job,column,row,delta", PERTURBED,
                         ids=[" ".join(p[0].argv[:1] + p[0].argv[-2:]) for p in PERTURBED])
def test_checker_rejects_one_perturbed_entry(job, column, row, delta, tmp_path):
    text = _run(job, tmp_path)
    assert checks.check_output(job, text) == []
    assert checks.check_output(job, _perturb_csv(text, column, row, delta)) != []


def test_spot_check_catches_an_entry_the_row_checks_allow(tmp_path):
    job = Job(("otoc-series", "--n", "3", "--t-max", "1", "--t-step", "0.5",
               "--state", "thermal:2"), 3)
    text = _run(job, tmp_path)
    spot = checks.SpotChecker()
    assert checks.check_output(job, text, spot) == []
    bad = _perturb_csv(text, "re_f", checks.SPOT_ROW, -1e-6)
    assert checks.check_output(job, bad) == []
    assert checks.check_output(job, bad, spot) != []


def _functions():
    return {(short, name): fn
            for short in tracer.MODULES
            for name, fn in vars(getattr(otoclab, short)).items()
            if inspect.isfunction(fn)}


def test_span_self_times_sum_to_at_most_wall_time(tmp_path):
    small = Job(("brownian-ensemble", "--n", "3", "--t-max", "0.05", "--t-step", "0.05",
                 "--trajectories", "2"), 1)
    with tracer.Tracer(otoclab) as trace:
        t0 = time.perf_counter()
        _run(small, tmp_path)
        wall = time.perf_counter() - t0
    assert 0 < trace.self_total() <= wall
    assert all(s >= -1e-9 for (_, _, s) in trace.edges.values())
    assert trace.span("cli.main")[0] == 1
    assert trace.span("qla.eigh.nondegenerate", parent="qla.expm_scaled")[0] > 0


def test_wrapped_attributes_are_restored():
    before = _functions()
    with pytest.raises(RuntimeError):
        with tracer.Tracer(otoclab):
            during = _functions()
            raise RuntimeError
    assert during[("qla", "eigh")] is not before[("qla", "eigh")]
    assert during[("qla", "_fix_phase")] is before[("qla", "_fix_phase")]
    after = _functions()
    assert after.keys() == before.keys()
    assert all(after[k] is before[k] for k in before)


def test_tail_percentile_keeps_ten_samples_beyond():
    assert run.percentile_tail([1.0] * 10) is None
    for n in (11, 30, 48, 200):
        pct, value = run.percentile_tail([float(i) for i in range(n)])
        assert n - (int(value) + 1) >= 10


def test_benchmark_json_names_every_reported_metric():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert [m["name"] for m in spec["per_layer"]] == [m[0] for m in tracer.LAYERS]
    assert [(m["unit"], m["better"]) for m in spec["per_layer"]] == \
        [(m[1], m[2]) for m in tracer.LAYERS]
    assert sorted(w["name"] for w in spec["workloads"]) == sorted(workloads.WORKLOADS)
    result = {"phases": {"untraced": {"records": [{"wall_s": 1.0, "items": 2, "failures": []}],
                                      "window_s": 1.0}},
              "peak_rss_mb": 1.0}
    metrics, _ = run.end_to_end(result, [0.5])
    assert sorted(metrics) == sorted(m["name"] for m in spec["end_to_end"])

"""Command line experiment runner.

Each subcommand reproduces one desk-scale experiment and serializes the
result as CSV or JSON. Quasiprobability curves are labeled by the abcd
bit convention w3 = (-1)^a, v2 = (-1)^b, w2 = (-1)^c, v1 = (-1)^d, so
curve 0000 is the all-plus entry. Runs are deterministic for a fixed
seed, outputs embed the resolved configuration, and files are written
atomically (temp file, then rename) so interrupted runs leave nothing
behind.

Exit codes: 0 success, 2 configuration error, 3 numeric failure.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import sys

import numpy as np

from . import __version__, brownian, decomp, qla, quasiprob, retrodict, spin, weakmeas

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NUMERIC = 3


class ConfigError(Exception):
    """Invalid or inconsistent experiment configuration."""


# ---------------------------------------------------------------- config

_COMMON_KEYS = ("format", "out", "seed")
_CHAIN_KEYS = ("n", "j", "h_field", "g_field")

DEFAULTS = {
    "otoc-series": {
        "n": 10, "j": 1.0, "h_field": 0.5, "g_field": 1.05,
        "state": "infinite-temp", "w": "1:z", "v": None,
        "t_max": 20.0, "t_step": 0.1,
    },
    "quasiprob-series": {
        "n": 10, "j": 1.0, "h_field": 0.5, "g_field": 1.05,
        "state": "infinite-temp", "w": "1:z", "v": None,
        "t_max": 20.0, "t_step": 0.1,
    },
    "work-distribution": {
        "n": 4, "j": 1.0, "h_field": 0.5, "g_field": 1.05,
        "state": "infinite-temp", "w": "1:z", "v": None, "t": 1.0,
    },
    "brownian-ensemble": {
        "n": 5, "dt": 0.005, "t_max": 4.0, "t_step": 0.1,
        "trajectories": 200, "state": "infinite-temp", "w": "1:z", "v": "2:z",
    },
    "weakmeas-inference": {
        "n": 2, "j": 1.0, "h_field": 0.5, "g_field": 1.05,
        "state": "infinite-temp", "w": "1:z", "v": None, "t": 1.0,
        "phis": "0.05,0.1,0.15,0.2", "shots": 0, "protocol": "three-weak",
    },
    "retrodict-benchmark": {"instances": 20},
    "decomp-report": {
        "n": 4, "j": 1.0, "h_field": 0.5, "g_field": 1.05,
        "w": "1:z", "v": None, "t_max": 5.0, "t_step": 0.25,
    },
    "toc-series": {
        "n": 8, "j": 1.0, "h_field": 0.5, "g_field": 1.05,
        "state": "infinite-temp", "w": "1:z", "v": None,
        "t_max": 20.0, "t_step": 0.1,
    },
    "kfold-series": {
        "n": 6, "j": 1.0, "h_field": 0.5, "g_field": 1.05,
        "state": "infinite-temp", "w": "1:z", "v": None, "khat": 3,
        "t_max": 10.0, "t_step": 0.1,
    },
    "regulated-series": {
        "n": 6, "j": 1.0, "h_field": 0.5, "g_field": 1.05,
        "w": "1:z", "v": None, "temperature": 1.0,
        "t_max": 10.0, "t_step": 0.1,
    },
}
for _exp in DEFAULTS:
    DEFAULTS[_exp].update({"format": "csv", "out": None, "seed": 0})


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="otoclab",
        description="Quasiprobability experiments behind the OTOC; "
                    "curves labeled abcd with w3=(-1)^a, v2=(-1)^b, "
                    "w2=(-1)^c, v1=(-1)^d.",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="experiment", required=True)

    def common(p, chain=True, state=True, times=True, single_time=False):
        p.add_argument("--config", help="JSON file with the same keys; flags override")
        if chain:
            p.add_argument("--n", type=int, help="number of sites")
            p.add_argument("--j", type=float, help="nearest-neighbor zz coupling")
            p.add_argument("--h-field", type=float, help="longitudinal field")
            p.add_argument("--g-field", type=float, help="transverse field")
            p.add_argument("--w", help="W as site:axis, e.g. 1:z")
            p.add_argument("--v", help="V as site:axis (default: last site, z)")
        if state:
            p.add_argument("--state",
                           help="infinite-temp | thermal:T | haar:seed | plus-x")
        if times:
            p.add_argument("--t-max", type=float, help="end of the time grid")
            p.add_argument("--t-step", type=float, help="time grid spacing")
        if single_time:
            p.add_argument("--t", type=float, help="evaluation time")
        p.add_argument("--seed", type=int, help="RNG seed")
        p.add_argument("--format", choices=("csv", "json"), help="output format")
        p.add_argument("--out", help="output path (default: stdout)")

    p = sub.add_parser("otoc-series", help="F(t) on a time grid")
    common(p)
    p = sub.add_parser("quasiprob-series", help="16 coarse quasiprobability curves")
    common(p)
    p = sub.add_parser("work-distribution", help="P(W, W') at one time")
    common(p, times=False, single_time=True)
    p = sub.add_parser("brownian-ensemble", help="stochastic-circuit ensemble averages")
    common(p, chain=False, times=True)
    p.add_argument("--n", type=int, help="number of sites")
    p.add_argument("--w", help="W as site:axis")
    p.add_argument("--v", help="V as site:axis")
    p.add_argument("--dt", type=float, help="integration step")
    p.add_argument("--trajectories", type=int, help="ensemble size")
    p = sub.add_parser("weakmeas-inference", help="weak-coupling tomography of the entries")
    common(p, times=False, single_time=True)
    p.add_argument("--phis", help="comma-separated coupling strengths")
    p.add_argument("--shots", type=int, help="0 = exact probabilities")
    p.add_argument("--protocol", choices=("three-weak", "two-weak"))
    p = sub.add_parser("retrodict-benchmark", help="factored vs direct weak values")
    common(p, chain=False, state=False, times=False)
    p.add_argument("--instances", type=int, help="random instances to compare")
    p = sub.add_parser("decomp-report", help="basis overlap statistics over time")
    common(p, state=False)
    p = sub.add_parser("toc-series", help="time-ordered correlator and entries")
    common(p)
    p = sub.add_parser("kfold-series", help="k-fold correlator and entries")
    common(p)
    p.add_argument("--khat", type=int, help="fold count, 2 to 5")
    p = sub.add_parser("regulated-series", help="thermally regulated entries")
    common(p, state=False)
    p.add_argument("--temperature", type=float, help="regulator temperature")
    return parser


def resolve_config(args: argparse.Namespace) -> dict:
    """Merge hard defaults, the optional JSON config file, and CLI flags."""
    experiment = args.experiment
    known = dict(DEFAULTS[experiment])
    merged = dict(known)
    if args.config is not None:
        try:
            with open(args.config) as fh:
                file_cfg = json.load(fh)
        except OSError as exc:
            raise ConfigError(f"cannot read config file: {exc}") from exc
        except json.JSONDecodeError as exc:
            raise ConfigError(f"config file is not valid JSON: {exc}") from exc
        if not isinstance(file_cfg, dict):
            raise ConfigError("config file must hold a JSON object")
        for raw_key, value in file_cfg.items():
            key = str(raw_key).replace("-", "_")
            if key not in known:
                raise ConfigError(
                    f"unknown config key {raw_key!r} for {experiment}"
                )
            merged[key] = value
    for key in known:
        flag_value = getattr(args, key, None)
        if flag_value is not None:
            merged[key] = flag_value
    if merged.get("v") is None and "n" in merged:
        merged["v"] = f"{merged['n']}:z"
    _validate(experiment, merged)
    return merged


def _validate(experiment: str, cfg: dict):
    def positive(key):
        if not (isinstance(cfg[key], (int, float)) and cfg[key] > 0):
            raise ConfigError(f"{key} must be a positive number")

    if cfg["format"] not in ("csv", "json"):
        raise ConfigError("format must be csv or json")
    if "n" in cfg:
        if not isinstance(cfg["n"], int) or cfg["n"] < 2:
            raise ConfigError("n must be an integer >= 2")
        max_n = (brownian._MAX_SITES if experiment == "brownian-ensemble"
                 else qla.MAX_DIM.bit_length() - 1)
        if cfg["n"] > max_n:
            raise ConfigError(f"{experiment} needs n <= {max_n} (dense matrices)")
    for key in ("t_max", "t_step", "t", "dt", "temperature"):
        if key in cfg:
            positive(key)
    if "t_max" in cfg and cfg["t_step"] > cfg["t_max"]:
        raise ConfigError("t_step must not exceed t_max")
    if "shots" in cfg and (not isinstance(cfg["shots"], int) or cfg["shots"] < 0):
        raise ConfigError("shots must be a nonnegative integer")
    if "trajectories" in cfg and (not isinstance(cfg["trajectories"], int)
                                  or cfg["trajectories"] < 2):
        raise ConfigError("trajectories must be an integer >= 2")
    if "instances" in cfg and (not isinstance(cfg["instances"], int)
                               or cfg["instances"] < 1):
        raise ConfigError("instances must be a positive integer")
    if "khat" in cfg and (not isinstance(cfg["khat"], int)
                          or not 2 <= cfg["khat"] <= 5):
        raise ConfigError("khat must be an integer in [2, 5]")
    if "seed" in cfg and not isinstance(cfg["seed"], int):
        raise ConfigError("seed must be an integer")
    if "j" in cfg:
        positive("j")
    for key in ("h_field", "g_field"):
        if key in cfg and not isinstance(cfg[key], (int, float)):
            raise ConfigError(f"{key} must be a number")
    if experiment == "decomp-report" and cfg["n"] > 6:
        raise ConfigError("decomp-report needs n <= 6 (full-basis overlaps)")
    if experiment == "brownian-ensemble":
        stride = cfg["t_step"] / cfg["dt"]
        if abs(stride - round(stride)) > 1e-9 or round(stride) < 1:
            raise ConfigError("t_step must be a positive multiple of dt")


def _parse_site_axis(text, n: int, what: str):
    try:
        site_text, axis = str(text).split(":")
        site = int(site_text)
    except ValueError as exc:
        raise ConfigError(f"{what} must look like site:axis, got {text!r}") from exc
    if axis not in ("x", "y", "z"):
        raise ConfigError(f"{what} axis must be x, y, or z")
    if not 1 <= site <= n:
        raise ConfigError(f"{what} site {site} outside 1..{n}")
    return spin.site_pauli(n, site, axis)


def _resolve_state(spec, n: int, hamiltonian) -> np.ndarray:
    dim = 2 ** n
    text = str(spec)
    if text == "infinite-temp":
        return np.eye(dim, dtype=complex) / dim
    if text == "plus-x":
        return spin.product_plus_x_state(n)
    if text.startswith("thermal:"):
        try:
            temp = float(text.split(":", 1)[1])
        except ValueError as exc:
            raise ConfigError(f"bad thermal temperature in {text!r}") from exc
        if temp <= 0:
            raise ConfigError("thermal temperature must be positive")
        return spin.thermal_state(hamiltonian, temp)
    if text.startswith("haar:"):
        try:
            seed = int(text.split(":", 1)[1])
        except ValueError as exc:
            raise ConfigError(f"bad haar seed in {text!r}") from exc
        psi = qla.haar_random_state(dim, seed)
        return np.outer(psi, psi.conj())
    raise ConfigError(f"unknown state {text!r}")


def _chain_pieces(cfg: dict):
    spec = spin.SpinChainSpec(n=cfg["n"], j=cfg["j"], h=cfg["h_field"],
                              g=cfg["g_field"])
    h = spin.ising_hamiltonian(spec)
    w = _parse_site_axis(cfg["w"], cfg["n"], "w")
    v = _parse_site_axis(cfg["v"], cfg["n"], "v")
    return h, w, v


def _time_grid(cfg: dict) -> np.ndarray:
    steps = int(round(cfg["t_max"] / cfg["t_step"]))
    return np.arange(steps + 1) * cfg["t_step"]


# ---------------------------------------------------------------- labels

def _abcd_labels() -> list[str]:
    return [f"{a}{b}{c}{d}" for a in (0, 1) for b in (0, 1)
            for c in (0, 1) for d in (0, 1)]


def _abcd_index(label: str) -> tuple[int, int, int, int]:
    a, b, c, d = (int(ch) for ch in label)
    # value axes are (v1, w2, v2, w3) with eigenvalues ascending (-1, +1)
    return (1 - d, 1 - c, 1 - b, 1 - a)


def _bit_labels(n_axes: int) -> list[str]:
    return [format(i, f"0{n_axes}b") for i in range(2 ** n_axes)]


def _reverse_chrono_index(label: str) -> tuple[int, ...]:
    # bit 0 of the label belongs to the last (latest) axis, as in abcd
    return tuple(1 - int(ch) for ch in reversed(label))


# ---------------------------------------------------------------- emit

def _fmt(x) -> str:
    v = float(x)
    if not np.isfinite(v):
        raise ArithmeticError("non-finite value in output")
    return repr(v)


def _cell(x) -> str:
    return x if isinstance(x, str) else _json_atom(x)


def _json_atom(v) -> str:
    if v is None:
        return "null"
    if isinstance(v, str):
        return json.dumps(v)
    if isinstance(v, bool):
        return "true" if v else "false"
    if isinstance(v, (int, np.integer)):
        return str(int(v))
    return _fmt(v)


def _json_render(v) -> str:
    if isinstance(v, dict):
        inner = ", ".join(f"{json.dumps(str(k))}: {_json_render(val)}"
                          for k, val in sorted(v.items()))
        return "{" + inner + "}"
    if isinstance(v, (list, tuple)):
        return "[" + ", ".join(_json_render(x) for x in v) + "]"
    return _json_atom(v)


def render_csv(columns, rows, metadata) -> str:
    lines = ["# config=" + _json_render(metadata)]
    lines.append(",".join(columns))
    for row in rows:
        lines.append(",".join(_cell(x) for x in row))
    return "\n".join(lines) + "\n"


def render_json(columns, rows, metadata) -> str:
    doc = {"metadata": metadata, "columns": list(columns),
           "rows": [list(r) for r in rows]}
    return _json_render(doc) + "\n"


def write_output(text: str, out: str | None):
    if out is None:
        sys.stdout.write(text)
        return
    tmp = f"{out}.tmp{os.getpid()}"
    try:
        with open(tmp, "w") as fh:
            fh.write(text)
        os.replace(tmp, out)
    finally:
        if os.path.exists(tmp):
            os.unlink(tmp)


# ---------------------------------------------------------------- runs

def _run_otoc_series(cfg):
    h, w, v = _chain_pieces(cfg)
    rho = _resolve_state(cfg["state"], cfg["n"], h)
    ts = _time_grid(cfg)
    series = quasiprob.otoc_series(rho, w, v, h, ts)
    rows = [[t, val.real, val.imag] for t, val in zip(ts, series.values)]
    return ["t", "re_f", "im_f"], rows


def _run_quasiprob_series(cfg):
    h, w, v = _chain_pieces(cfg)
    rho = _resolve_state(cfg["state"], cfg["n"], h)
    ts = _time_grid(cfg)
    qs = quasiprob.coarse_quasiprob_series(rho, w, v, h, ts)
    labels = _abcd_labels()
    columns = ["t"]
    for lab in labels:
        columns += [f"re_{lab}", f"im_{lab}"]
    rows = []
    for i, t in enumerate(ts):
        row = [t]
        for lab in labels:
            val = qs.values[(i,) + _abcd_index(lab)]
            row += [val.real, val.imag]
        rows.append(row)
    return columns, rows


def _run_work_distribution(cfg):
    h, w, v = _chain_pieces(cfg)
    rho = _resolve_state(cfg["state"], cfg["n"], h)
    qd = quasiprob.coarse_quasiprob(rho, w, v, h, cfg["t"])
    wd = quasiprob.work_distribution(qd)
    keys = sorted(wd.entries,
                  key=lambda k: (k[0].real, k[0].imag, k[1].real, k[1].imag))
    rows = [[k[0].real, k[0].imag, k[1].real, k[1].imag,
             wd.entries[k].real, wd.entries[k].imag] for k in keys]
    return ["re_w", "im_w", "re_wprime", "im_wprime", "re_p", "im_p"], rows


def _run_brownian_ensemble(cfg):
    stride = int(round(cfg["t_step"] / cfg["dt"]))
    steps = int(round(cfg["t_max"] / cfg["dt"]))
    config = brownian.BrownianConfig(
        n=cfg["n"], dt=cfg["dt"], steps=steps,
        trajectories=cfg["trajectories"], seed=cfg["seed"], stride=stride,
    )
    w = _parse_site_axis(cfg["w"], cfg["n"], "w")
    v = _parse_site_axis(cfg["v"], cfg["n"], "v")
    if str(cfg["state"]).startswith("thermal"):
        raise ConfigError("brownian-ensemble has no Hamiltonian; "
                          "thermal states are undefined here")
    rho = _resolve_state(cfg["state"], cfg["n"], None)
    result = brownian.ensemble_averages(config, rho=rho, w_op=w, v_op=v)
    labels = _abcd_labels()
    columns = ["t", "re_f", "im_f", "se_f", "re_g", "im_g", "se_g"]
    for lab in labels:
        columns += [f"re_{lab}", f"im_{lab}", f"se_re_{lab}", f"se_im_{lab}"]
    f_series = result.correlators["F"]
    g_series = result.correlators["G"]
    rows = []
    for i, t in enumerate(result.times):
        row = [t,
               f_series.mean[i].real, f_series.mean[i].imag,
               f_series.standard_error[i],
               g_series.mean[i].real, g_series.mean[i].imag,
               g_series.standard_error[i]]
        for lab in labels:
            idx = _abcd_index(lab)
            val = result.quasi_mean[(i,) + idx]
            row += [val.real, val.imag,
                    result.quasi_se[(i,) + idx + (0,)],
                    result.quasi_se[(i,) + idx + (1,)]]
        rows.append(row)
    return columns, rows


def _run_weakmeas_inference(cfg):
    h, w, v = _chain_pieces(cfg)
    rho = _resolve_state(cfg["state"], cfg["n"], h)
    try:
        if isinstance(cfg["phis"], (list, tuple)):
            phis = tuple(float(p) for p in cfg["phis"])
        else:
            phis = tuple(float(p) for p in str(cfg["phis"]).split(","))
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"bad phis list {cfg['phis']!r}") from exc
    records = weakmeas.standard_protocol_records(
        rho, w, v, h, cfg["t"], phis=phis, shots=cfg["shots"],
        seed=cfg["seed"], protocol=cfg["protocol"],
    )
    inferred, report = weakmeas.infer_coarse_quasiprob(records)
    direct = quasiprob.coarse_quasiprob(rho, w, v, h, cfg["t"])
    rows = []
    for lab in _abcd_labels():
        idx = _abcd_index(lab)
        est = inferred.values[idx]
        ref = direct.values[idx]
        se_re = report.std_errors[idx + (0,)] if report.std_errors is not None else 0.0
        se_im = report.std_errors[idx + (1,)] if report.std_errors is not None else 0.0
        rows.append([lab, est.real, est.imag, ref.real, ref.imag,
                     abs(est - ref), se_re, se_im])
    columns = ["label", "re_inferred", "im_inferred", "re_direct",
               "im_direct", "abs_error", "se_re", "se_im"]
    return columns, rows


def _run_retrodict_benchmark(cfg):
    rng = np.random.default_rng(cfg["seed"])

    def rand_herm(d):
        a = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
        return (a + a.conj().T) / 2

    def rand_context(d):
        a = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
        rho = a @ a.conj().T
        rho /= np.trace(rho).real
        return retrodict.RetrodictionContext(
            rho, rand_herm(d), 0.7, 1.3,
            final_vector=qla.haar_random_state(d, rng))

    rows = []
    for i in range(cfg["instances"]):
        d = int(rng.integers(2, 9))
        k = int(rng.integers(1, 5))
        chain = retrodict.ObservableChain([rand_herm(d) for _ in range(k)])
        ctx = rand_context(d)
        meter = retrodict.MemoryMeter()
        g1 = retrodict.gamma_weak_direct(chain, ctx)
        g2 = retrodict.gamma_weak_factored(chain, ctx, meter)
        nnz = retrodict.matrix_nonzeros(retrodict.gamma_matrix(chain))
        rows.append(["random", i, k, d, g1, g2, abs(g1 - g2), meter.peak, nnz])
    nq = 6
    site_ops = [(spin.site_pauli(nq, s, "x") + spin.site_pauli(nq, s, "z"))
                / np.sqrt(2) for s in range(1, nq + 1)]
    ctx6 = rand_context(2 ** nq)
    for k in range(2, 7):
        chain = retrodict.ObservableChain(site_ops[:k])
        meter = retrodict.MemoryMeter()
        g1 = retrodict.gamma_weak_direct(chain, ctx6)
        g2 = retrodict.gamma_weak_factored(chain, ctx6, meter)
        nnz = retrodict.matrix_nonzeros(retrodict.gamma_matrix(chain))
        rows.append(["scaling", k - 2, k, 2 ** nq, g1, g2, abs(g1 - g2),
                     meter.peak, nnz])
    columns = ["section", "index", "k", "dim", "method1", "method2",
               "abs_diff", "meter_peak", "m1_nonzeros"]
    return columns, rows


def _run_decomp_report(cfg):
    h, w, v = _chain_pieces(cfg)
    ts = _time_grid(cfg)
    stats = decomp.mub_overlap_statistics(w, v, h, ts)
    rows = [[t, stats.mean[i], stats.minimum[i], stats.near_mub_fraction[i],
             int(stats.vanishing_counts[i])] for i, t in enumerate(ts)]
    columns = ["t", "mean_overlap", "min_overlap", "near_mub_fraction",
               "vanishing_count"]
    return columns, rows


def _run_toc_series(cfg):
    h, w, v = _chain_pieces(cfg)
    rho = _resolve_state(cfg["state"], cfg["n"], h)
    ts = _time_grid(cfg)
    h_sys = quasiprob._eigensystem(h)
    labels = _bit_labels(3)
    columns = ["t", "re_toc", "im_toc"]
    for lab in labels:
        columns += [f"re_{lab}", f"im_{lab}"]
    rows = []
    for t in ts:
        toc, qd, _ = quasiprob.toc_and_toc_quasiprob(rho, w, v, h_sys, t)
        row = [t, toc.real, toc.imag]
        for lab in labels:
            val = qd.values[_reverse_chrono_index(lab)]
            row += [val.real, val.imag]
        rows.append(row)
    return columns, rows


def _run_kfold_series(cfg):
    h, w, v = _chain_pieces(cfg)
    rho = _resolve_state(cfg["state"], cfg["n"], h)
    ts = _time_grid(cfg)
    h_sys = quasiprob._eigensystem(h)
    n_axes = 2 * cfg["khat"]
    labels = _bit_labels(n_axes)
    columns = ["t", "re_fk", "im_fk"]
    for lab in labels:
        columns += [f"re_{lab}", f"im_{lab}"]
    rows = []
    for t in ts:
        fk, qd = quasiprob.kfold_otoc_and_quasiprob(rho, w, v, h_sys, t,
                                                    cfg["khat"])
        row = [t, fk.real, fk.imag]
        for lab in labels:
            val = qd.values[_reverse_chrono_index(lab)]
            row += [val.real, val.imag]
        rows.append(row)
    return columns, rows


def _run_regulated_series(cfg):
    h, w, v = _chain_pieces(cfg)
    ts = _time_grid(cfg)
    h_sys = quasiprob._eigensystem(h)
    labels = _abcd_labels()
    columns = ["t", "re_freg", "im_freg"]
    for lab in labels:
        columns += [f"re_{lab}", f"im_{lab}"]
    rows = []
    for t in ts:
        qd, freg = quasiprob.regulated_quasiprob_and_otoc(
            h_sys, cfg["temperature"], w, v, t)
        row = [t, freg.real, freg.imag]
        for lab in labels:
            val = qd.values[_abcd_index(lab)]
            row += [val.real, val.imag]
        rows.append(row)
    return columns, rows


RUNNERS = {
    "otoc-series": _run_otoc_series,
    "quasiprob-series": _run_quasiprob_series,
    "work-distribution": _run_work_distribution,
    "brownian-ensemble": _run_brownian_ensemble,
    "weakmeas-inference": _run_weakmeas_inference,
    "retrodict-benchmark": _run_retrodict_benchmark,
    "decomp-report": _run_decomp_report,
    "toc-series": _run_toc_series,
    "kfold-series": _run_kfold_series,
    "regulated-series": _run_regulated_series,
}


def _metadata(experiment: str, cfg: dict) -> dict:
    echo = {k: v for k, v in cfg.items() if k != "out"}
    return {
        "experiment": experiment,
        "config": echo,
        "seed": cfg.get("seed"),
        "versions": {
            "python": platform.python_version(),
            "numpy": np.__version__,
            "otoclab": __version__,
        },
    }


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        cfg = resolve_config(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    try:
        columns, rows = RUNNERS[args.experiment](cfg)
        metadata = _metadata(args.experiment, cfg)
        if cfg["format"] == "csv":
            text = render_csv(columns, rows, metadata)
        else:
            text = render_json(columns, rows, metadata)
        write_output(text, cfg["out"])
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (ValueError, ArithmeticError, np.linalg.LinAlgError) as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    except OSError as exc:
        print(f"output error: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())

"""Command line experiment runner.

Each subcommand reproduces one desk-scale experiment and serializes the
result as CSV or JSON. Quasiprobability curves are labeled by the abcd
bit convention w3 = (-1)^a, v2 = (-1)^b, w2 = (-1)^c, v1 = (-1)^d, so
curve 0000 is the all-plus entry. Runs are deterministic for a fixed
seed, outputs embed the resolved configuration, and files are written
atomically (temp file, then rename) so interrupted runs leave nothing
behind.

DEFAULTS lists every key of every subcommand. Each key is a config-file
key and a flag (t_max is --t-max) typed by its default; flags override
--config. Choices (format, protocol) are checked in config files too.

Runners may also return numerical diagnostics, which land under "health"
next to the configuration (brownian-ensemble: the largest unitarity
defect of any trajectory's final propagator; weakmeas-inference: the
largest effective condition number and least-squares residual over the
solved blocks; quasiprob-, toc-, kfold- and regulated-series: the largest
|sum of entries - 1| and |moment - correlator| over the time grid, the
correlator of quasiprob-series being the F its entries came with;
work-distribution: |sum of entries - 1|; otoc-series: the largest
|F| - 1, floored at 0, and at infinite temperature, where F is real, the
largest |Im F|). A key of HEALTH_LIMITS above its limit is a numeric
failure; the weak-measurement keys are estimates, not invariants, and
are reported only.

Exit codes: 0 success, 2 configuration error, 3 numeric failure.
"""
from __future__ import annotations

import argparse
import json
import math
import os
import platform
import sys

import numpy as np

from . import __version__, brownian, decomp, qla, quasiprob, retrodict, spin, weakmeas

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NUMERIC = 3

# health keys that are invariants of the exact result, with the largest
# value a run may report before it exits 3 and writes nothing
HEALTH_LIMITS = {"max_total_defect": 1e-6, "max_moment_defect": 1e-6,
                 "unitarity_defect": 1e-6, "max_norm_excess": 1e-6, "max_imag_f": 1e-6}

# a time grid, and a Brownian run's integration steps, stay below this many
# points; a longer one is a configuration error
MAX_TIME_POINTS = 100_000


class ConfigError(Exception):
    """Invalid or inconsistent experiment configuration."""


# ---------------------------------------------------------------- config

_CHAIN = {"j": 1.0, "h_field": 0.5, "g_field": 1.05, "w": "1:z", "v": None}
_STATE = {"state": "infinite-temp"}
_GRID = {"t_max": 20.0, "t_step": 0.1}
_OUTPUT = {"seed": 0, "format": "csv", "out": None}

# every key of a subcommand is a config-file key and a flag of the same type
DEFAULTS = {
    "otoc-series": {"n": 10, **_CHAIN, **_STATE, **_GRID, **_OUTPUT},
    "quasiprob-series": {"n": 10, **_CHAIN, **_STATE, **_GRID, **_OUTPUT},
    "work-distribution": {"n": 4, **_CHAIN, **_STATE, "t": 1.0, **_OUTPUT},
    "brownian-ensemble": {**_STATE, **_GRID, "t_max": 4.0, **_OUTPUT, "n": 5, "w": "1:z",
                          "v": "2:z", "dt": 0.005, "trajectories": 200},
    "weakmeas-inference": {"n": 2, **_CHAIN, **_STATE, "t": 1.0, **_OUTPUT,
                           "phis": "0.05,0.1,0.15,0.2", "shots": 0,
                           "protocol": "three-weak"},
    "retrodict-benchmark": {**_OUTPUT, "instances": 20},
    "decomp-report": {"n": 4, **_CHAIN, "t_max": 5.0, "t_step": 0.25, **_OUTPUT},
    "toc-series": {"n": 8, **_CHAIN, **_STATE, **_GRID, **_OUTPUT},
    "kfold-series": {"n": 6, **_CHAIN, **_STATE, **_GRID, "t_max": 10.0, **_OUTPUT,
                     "khat": 3},
    "regulated-series": {"n": 6, **_CHAIN, **_GRID, "t_max": 10.0, **_OUTPUT,
                         "temperature": 1.0},
}

_HELP = {
    "n": "number of sites",
    "j": "nearest-neighbor zz coupling",
    "h_field": "longitudinal field",
    "g_field": "transverse field",
    "w": "W as site:axis",
    "v": "V as site:axis; unset means z on the last site",
    "state": "infinite-temp | thermal:T (finite T > 0) | haar:seed (seed >= 0) | plus-x",
    "t_max": "end of the time grid",
    "t_step": "time grid spacing",
    "t": "evaluation time",
    "dt": "integration step",
    "trajectories": "ensemble size",
    "phis": "comma-separated coupling strengths in [0, pi/2], 3 or more nonzero",
    "shots": "0 = exact probabilities",
    "protocol": "weak-measurement protocol",
    "instances": "random instances to compare",
    "khat": f"fold count, 2 to {quasiprob._KFOLD_MAX}",
    "temperature": "regulator temperature",
    "format": "output format",
    "out": "output path; unset means stdout",
    "seed": "RNG seed",
}

# allowed values, checked by the parser for flags and by _validate for files
_CHOICES = {"format": ("csv", "json"), "protocol": tuple(weakmeas._PROTOCOLS)}


def build_parser() -> argparse.ArgumentParser:
    """One flag per DEFAULTS key, typed by its default (str when None)."""
    parser = argparse.ArgumentParser(
        prog="otoclab",
        description="Quasiprobability experiments behind the OTOC; "
                    "curves labeled abcd with w3=(-1)^a, v2=(-1)^b, "
                    "w2=(-1)^c, v1=(-1)^d.",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="experiment", required=True)
    for experiment, keys in DEFAULTS.items():
        p = sub.add_parser(experiment, help=RUNNERS[experiment].__doc__)
        p.add_argument("--config", help="JSON file with the same keys; flags override")
        for key, default in keys.items():
            shown = "" if default is None else f" (default: {default})"
            p.add_argument("--" + key.replace("_", "-"), choices=_CHOICES.get(key),
                           type=str if default is None else type(default),
                           help=_HELP[key] + shown)
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


def _is_int(x) -> bool:
    """An integer; JSON true and false are bools, which are not."""
    return isinstance(x, int) and not isinstance(x, bool)


def _is_number(x) -> bool:
    """A finite integer or float, bools excluded."""
    return _is_int(x) or (isinstance(x, float) and math.isfinite(x))


def _validate(experiment: str, cfg: dict):
    def positive(key):
        if not (_is_number(cfg[key]) and cfg[key] > 0):
            raise ConfigError(f"{key} must be a positive number")

    def at_least(key, low, message):
        if key in cfg and not (_is_int(cfg[key]) and cfg[key] >= low):
            raise ConfigError(f"{key} must be {message}")

    for key, allowed in _CHOICES.items():
        if key in cfg and cfg[key] not in allowed:
            raise ConfigError(f"{key} must be {' or '.join(allowed)}")
    if "n" in cfg:
        at_least("n", 2, "an integer >= 2")
        max_n = (brownian._MAX_SITES if experiment == "brownian-ensemble"
                 else qla.MAX_DIM.bit_length() - 1)
        if cfg["n"] > max_n:
            raise ConfigError(f"{experiment} needs n <= {max_n} (dense matrices)")
    for key in ("t_max", "t_step", "t", "dt", "temperature"):
        if key in cfg:
            positive(key)
    if "dt" in cfg and cfg["dt"] > brownian._MAX_DT:
        raise ConfigError(f"dt must not exceed {brownian._MAX_DT} (Ito-regime guard)")
    if "t_max" in cfg:
        if cfg["t_step"] > cfg["t_max"]:
            raise ConfigError("t_step must not exceed t_max")
        for step in ("t_step", "dt"):
            if step in cfg and not cfg["t_max"] / cfg[step] < MAX_TIME_POINTS:
                raise ConfigError(f"t_max / {step} must stay below {MAX_TIME_POINTS} "
                                  "time points")
    at_least("shots", 0, "a nonnegative integer")
    at_least("trajectories", 2, "an integer >= 2")
    at_least("instances", 1, "a positive integer")
    if "khat" in cfg and not (_is_int(cfg["khat"]) and 2 <= cfg["khat"] <= quasiprob._KFOLD_MAX):
        raise ConfigError(f"khat must be an integer in [2, {quasiprob._KFOLD_MAX}]")
    at_least("seed", 0, "a nonnegative integer")
    if "state" in cfg:
        kind, _ = _parse_state(cfg["state"])
        if kind == "thermal" and experiment == "brownian-ensemble":
            raise ConfigError("brownian-ensemble has no Hamiltonian; "
                              "thermal states are undefined here")
    if "phis" in cfg:
        _parse_phis(cfg["phis"])
    if "j" in cfg:
        positive("j")
    for key in ("h_field", "g_field"):
        if key in cfg and not _is_number(cfg[key]):
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
    return spin.pauli_string(n, [(site, axis)])


def _parse_state(spec):
    """(kind, value) of a state spec of the forms _HELP["state"] lists."""
    text = str(spec)
    kind, _, value = text.partition(":")
    try:
        if text in ("infinite-temp", "plus-x"):
            return text, None
        if kind == "thermal" and 0 < float(value) < math.inf:
            return kind, float(value)
        if kind == "haar" and int(value) >= 0:
            return kind, int(value)
    except ValueError:
        pass
    raise ConfigError(f"bad state {text!r}, expected {_HELP['state']}")


def _parse_phis(value) -> tuple[float, ...]:
    """The coupling strengths of a phis list (a comma-separated string or
    a JSON list): each in [0, pi/2], at least 3 of them distinct and
    nonzero, since both phase modes share the list."""
    items = value if isinstance(value, (list, tuple)) else str(value).split(",")
    if any(isinstance(p, bool) for p in items):
        raise ConfigError(f"bad phis list {value!r}")
    try:
        phis = tuple(float(p) for p in items)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"bad phis list {value!r}") from exc
    # nan and inf fail the range test
    if not all(0.0 <= p <= math.pi / 2 for p in phis) or len({p for p in phis if p > 0}) < 3:
        raise ConfigError(f"phis must lie in [0, pi/2] with at least 3 distinct "
                          f"nonzero values, got {value!r}")
    return phis


def _resolve_state(spec, n: int, h_sys):
    """The state in the compact form the series take: energy-frame weights
    (quasiprob.DiagonalState) for infinite-temp and thermal:T, the vector
    psi for plus-x and haar:s. quasiprob.density_matrix makes it dense."""
    dim = 2 ** n
    kind, value = _parse_state(spec)
    if kind == "infinite-temp":
        return quasiprob.DiagonalState(np.full(dim, 1.0 / dim))
    if kind == "plus-x":
        return spin.product_plus_x_vector(n)
    if kind == "thermal":
        return quasiprob.DiagonalState(spin.thermal_weights(h_sys.eigenvalues, value))
    return qla.haar_random_state(dim, value)


def _chain_pieces(cfg: dict):
    """H's eigensystem, W and V as spin.PauliString tables, and the state
    (None without a state key); one eigensystem serves the whole job,
    thermal weights included. Runners that need dense W and V expand them
    once with matrix()."""
    w = _parse_site_axis(cfg["w"], cfg["n"], "w")
    v = _parse_site_axis(cfg["v"], cfg["n"], "v")
    spec = spin.SpinChainSpec(n=cfg["n"], j=cfg["j"], h=cfg["h_field"],
                              g=cfg["g_field"])
    h_sys = qla.eigh(spin.ising_hamiltonian(spec), symmetry=spin.reflection(cfg["n"]))
    state = _resolve_state(cfg["state"], cfg["n"], h_sys) if "state" in cfg else None
    return h_sys, w, v, state


def _time_grid(cfg: dict) -> np.ndarray:
    steps = int(round(cfg["t_max"] / cfg["t_step"]))
    return np.arange(steps + 1) * cfg["t_step"]


# ---------------------------------------------------------------- labels

def _bit_labels(n_axes: int) -> list[str]:
    return [format(i, f"0{n_axes}b") for i in range(2 ** n_axes)]


def _reverse_chrono_index(label: str) -> tuple[int, ...]:
    # the first bit of the label belongs to the last (latest) axis, as in
    # abcd; axes hold eigenvalues ascending (-1, +1), so bit 0 is index 1
    return tuple(1 - int(ch) for ch in reversed(label))


def _series_table(qs, name=None, corr=None, moment=None):
    """Columns and rows of a quasiprobability series: t, then re/im of the
    correlator values corr as `name` when a name is given, then re/im of
    every entry by bit label. With corr and moment, a third item reports
    health over the grid: the largest |sum of entries - 1| and
    |moment(entries) - corr|.
    """
    labels = _bit_labels(qs.values.ndim - 1)
    curves = [qs.values[(slice(None),) + _reverse_chrono_index(lab)] for lab in labels]
    head = [] if name is None else [f"re_{name}", f"im_{name}"]
    columns = ["t", *head]
    for lab in labels:
        columns += [f"re_{lab}", f"im_{lab}"]
    rows = []
    for i, t in enumerate(qs.times):
        row = [t] if name is None else [t, corr[i].real, corr[i].imag]
        for curve in curves:
            row += [curve[i].real, curve[i].imag]
        rows.append(row)
    if corr is None:
        return columns, rows
    totals = qs.values.sum(axis=tuple(range(1, qs.values.ndim)))
    health = {"max_total_defect": float(np.max(np.abs(totals - 1.0))),
              "max_moment_defect": float(np.max(np.abs(moment(qs) - corr)))}
    return columns, rows, health


# ---------------------------------------------------------------- emit

def _cell(x) -> str:
    if isinstance(x, str):
        return x
    if isinstance(x, int):
        return str(x)
    if not math.isfinite(x):
        raise ArithmeticError("non-finite value in output")
    return repr(float(x))


def render_csv(columns, rows, metadata) -> str:
    lines = ["# config=" + json.dumps(metadata, sort_keys=True, allow_nan=False),
             ",".join(columns)]
    lines += [",".join(map(_cell, row)) for row in rows]
    return "\n".join(lines) + "\n"


def render_json(columns, rows, metadata) -> str:
    doc = {"metadata": metadata, "columns": columns, "rows": rows}
    return json.dumps(doc, sort_keys=True, allow_nan=False) + "\n"


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
    """F(t) on a time grid"""
    h_sys, w, v, state = _chain_pieces(cfg)
    ts = _time_grid(cfg)
    f = quasiprob.otoc_series(state, w, v, h_sys, ts).values
    rows = [[t, val.real, val.imag] for t, val in zip(ts, f)]
    health = {"max_norm_excess": max(float(np.max(np.abs(f))) - 1.0, 0.0)}
    if _parse_state(cfg["state"])[0] == "infinite-temp":
        health["max_imag_f"] = float(np.max(np.abs(f.imag)))
    return ["t", "re_f", "im_f"], rows, health


def _run_quasiprob_series(cfg):
    """16 coarse quasiprobability curves"""
    h_sys, w, v, state = _chain_pieces(cfg)
    ts = _time_grid(cfg)
    qs = quasiprob.coarse_quasiprob_series(state, w, v, h_sys, ts)
    return _series_table(qs, corr=qs.correlator, moment=quasiprob.otoc_moment)


def _run_work_distribution(cfg):
    """P(W, W') at one time"""
    h_sys, w, v, state = _chain_pieces(cfg)
    qd = quasiprob.coarse_quasiprob_series(state, w, v, h_sys, [cfg["t"]]).at(0)
    wd = quasiprob.work_distribution(qd)
    keys = sorted(wd.entries,
                  key=lambda k: (k[0].real, k[0].imag, k[1].real, k[1].imag))
    rows = [[k[0].real, k[0].imag, k[1].real, k[1].imag,
             wd.entries[k].real, wd.entries[k].imag] for k in keys]
    columns = ["re_w", "im_w", "re_wprime", "im_wprime", "re_p", "im_p"]
    return columns, rows, {"max_total_defect": abs(qd.total() - 1.0)}


def _run_brownian_ensemble(cfg):
    """stochastic-circuit ensemble averages"""
    stride = int(round(cfg["t_step"] / cfg["dt"]))
    steps = int(round(cfg["t_max"] / cfg["dt"]))
    config = brownian.BrownianConfig(
        n=cfg["n"], dt=cfg["dt"], steps=steps,
        trajectories=cfg["trajectories"], seed=cfg["seed"], stride=stride,
    )
    w = _parse_site_axis(cfg["w"], cfg["n"], "w").matrix()
    v = _parse_site_axis(cfg["v"], cfg["n"], "v").matrix()
    rho = quasiprob.density_matrix(_resolve_state(cfg["state"], cfg["n"], None))
    result = brownian.ensemble_averages(config, rho=rho, w_op=w, v_op=v)
    labels = _bit_labels(4)
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
            idx = _reverse_chrono_index(lab)
            val = result.quasi_mean[(i,) + idx]
            row += [val.real, val.imag,
                    result.quasi_se[(i,) + idx + (0,)],
                    result.quasi_se[(i,) + idx + (1,)]]
        rows.append(row)
    return columns, rows, {"unitarity_defect": result.unitarity_defect}


def _run_weakmeas_inference(cfg):
    """weak-coupling tomography of the entries"""
    h_sys, w, v, state = _chain_pieces(cfg)
    w, v = w.matrix(), v.matrix()
    rho = quasiprob.density_matrix(state, h_sys)
    records = weakmeas.standard_protocol_records(
        rho, w, v, h_sys, cfg["t"], phis=_parse_phis(cfg["phis"]), shots=cfg["shots"],
        seed=cfg["seed"], protocol=cfg["protocol"],
    )
    inferred, report = weakmeas.infer_coarse_quasiprob(records)
    direct = quasiprob.coarse_quasiprob(rho, w, v, h_sys, cfg["t"])
    rows = []
    for lab in _bit_labels(4):
        idx = _reverse_chrono_index(lab)
        est = inferred.values[idx]
        ref = direct.values[idx]
        se = (0.0, 0.0) if report.std_errors is None else report.std_errors[idx]
        rows.append([lab, est.real, est.imag, ref.real, ref.imag, abs(est - ref), *se])
    columns = ["label", "re_inferred", "im_inferred", "re_direct",
               "im_direct", "abs_error", "se_re", "se_im"]
    health = {"max_effective_condition": report.effective_condition,
              "max_residual": max(report.residuals.values())}
    return columns, rows, health


def _run_retrodict_benchmark(cfg):
    """factored vs direct weak values"""
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
    """basis overlap statistics over time"""
    h_sys, w, v, _ = _chain_pieces(cfg)
    ts = _time_grid(cfg)
    stats = decomp.mub_overlap_statistics(w.matrix(), v.matrix(), h_sys, ts)
    rows = [[t, stats.mean[i], stats.minimum[i], stats.near_mub_fraction[i],
             int(stats.vanishing_counts[i])] for i, t in enumerate(ts)]
    columns = ["t", "mean_overlap", "min_overlap", "near_mub_fraction",
               "vanishing_count"]
    return columns, rows


def _run_toc_series(cfg):
    """time-ordered correlator and entries"""
    h_sys, w, v, state = _chain_pieces(cfg)
    toc, qs = quasiprob.toc_series(state, w, v, h_sys, _time_grid(cfg))
    return _series_table(qs, "toc", toc.values, quasiprob.toc_moment)


def _run_kfold_series(cfg):
    """k-fold correlator and entries"""
    h_sys, w, v, state = _chain_pieces(cfg)
    fk, qs = quasiprob.kfold_series(state, w, v, h_sys, _time_grid(cfg), cfg["khat"])
    return _series_table(qs, "fk", fk.values, quasiprob.kfold_moment)


def _run_regulated_series(cfg):
    """thermally regulated entries"""
    h_sys, w, v, _ = _chain_pieces(cfg)
    qs, freg = quasiprob.regulated_series(h_sys, cfg["temperature"], w, v, _time_grid(cfg))
    return _series_table(qs, "freg", freg.values, quasiprob.otoc_moment)


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


def _metadata(experiment: str, cfg: dict, health: dict | None = None) -> dict:
    echo = {k: v for k, v in cfg.items() if k != "out"}
    metadata = {
        "experiment": experiment,
        "config": echo,
        "seed": cfg.get("seed"),
        "versions": {
            "python": platform.python_version(),
            "numpy": np.__version__,
            "otoclab": __version__,
        },
    }
    if health:
        metadata["health"] = health
    return metadata


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        cfg = resolve_config(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    try:
        # a runner returns (columns, rows) or (columns, rows, health)
        columns, rows, *health = RUNNERS[args.experiment](cfg)
        for key, value in (health[0] if health else {}).items():
            if not value <= HEALTH_LIMITS.get(key, math.inf):
                raise ArithmeticError(f"health {key} = {value:.3e} > {HEALTH_LIMITS[key]:.0e}")
        metadata = _metadata(args.experiment, cfg, *health)
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

"""Output checks: every job's result file is parsed and tested against the
invariants that hold for it. A job whose output fails any check counts as
failed. Tolerances are fixed here and never scaled by the benchmark.
"""
from __future__ import annotations

import json
import math

import numpy as np

from otoclab import qla, quasiprob, spin

TOL_EXACT = 1e-9        # identities that hold to rounding: sums, F(0), TOC, moments
TOL_ROUTE = 1e-8        # one grid time recomputed by a different code path
TOL_WEAK_EXACT = 1e-8   # exact weak-measurement inversion against the direct entries
WEAK_SIGMAS = 6.0       # sampled inversion: allowed error in standard errors
WEAK_FLOOR = 1e-9       # absolute slack under the sampled bound
SPOT_ROW = 1            # grid index of the cross-route spot check on sweeps


class CheckError(Exception):
    pass


def parse_output(text: str, fmt: str) -> tuple[dict, list[str], list[dict]]:
    """(metadata, columns, rows as column->value dicts) of one result file."""
    if fmt == "json":
        doc = json.loads(text)
        meta, columns, raw = doc["metadata"], doc["columns"], doc["rows"]
    else:
        lines = text.splitlines()
        if not lines or not lines[0].startswith("# config="):
            raise CheckError("missing '# config=' header")
        meta = json.loads(lines[0][len("# config="):])
        columns = lines[1].split(",")
        raw = [line.split(",") for line in lines[2:]]
    rows = []
    for cells in raw:
        if len(cells) != len(columns):
            raise CheckError("row width differs from header")
        rows.append(dict(zip(columns, cells)))
    return meta, columns, rows


def _c(row: dict, name: str) -> complex:
    """Complex value from a re_<name>/im_<name> column pair."""
    return complex(float(row["re_" + name]), float(row["im_" + name]))


def _entry_labels(columns: list[str]) -> list[str]:
    return [c[3:] for c in columns if c.startswith("re_") and c[3:].isdigit()]


def _sign(label: str, bits: tuple[int, ...] | None = None) -> int:
    """(-1) to the number of set bits; eigenvalue of each slot is (-1)^bit."""
    picked = label if bits is None else "".join(label[i] for i in bits)
    return -1 if picked.count("1") % 2 else 1


def _near(a: complex, b: complex, tol: float) -> bool:
    return abs(a - b) <= tol


def _entry_sum(row, labels) -> complex:
    return sum(_c(row, lab) for lab in labels)


def _moment(row, labels, bits=None) -> complex:
    return sum(_sign(lab, bits) * _c(row, lab) for lab in labels)


def _check_series_rows(cfg, rows, failures):
    expected = int(round(cfg["t_max"] / cfg["t_step"])) + 1
    if len(rows) != expected:
        failures.append(f"{len(rows)} rows, expected {expected}")


def check_output(job, text: str, spot: "SpotChecker | None" = None) -> list[str]:
    """Failure messages for one job's output; empty means it passed."""
    failures: list[str] = []
    try:
        meta, columns, rows = parse_output(text, job.output_format)
        if meta.get("experiment") != job.subcommand:
            failures.append(f"metadata names {meta.get('experiment')!r}")
        if not rows:
            failures.append("no rows")
            return failures
        _CHECKS[job.subcommand](job, meta["config"], columns, rows, failures)
        if spot is not None and job.subcommand in ("otoc-series", "quasiprob-series"):
            spot.check(job.subcommand, meta["config"], columns, rows, failures)
    except (CheckError, KeyError, ValueError, IndexError) as exc:
        failures.append(f"unreadable output: {exc!r}")
    return failures


def _otoc_series(job, cfg, columns, rows, failures):
    _check_series_rows(cfg, rows, failures)
    if not _near(_c(rows[0], "f"), 1.0, TOL_EXACT):
        failures.append(f"F(0) = {_c(rows[0], 'f')}, expected 1")
    worst = max(abs(_c(r, "f")) for r in rows)
    if worst > 1.0 + TOL_EXACT:
        failures.append(f"|F| reaches {worst}")


def _quasiprob_series(job, cfg, columns, rows, failures):
    _check_series_rows(cfg, rows, failures)
    labels = _entry_labels(columns)
    if len(labels) != 16:
        failures.append(f"{len(labels)} entries, expected 16")
    for r in rows:
        s = _entry_sum(r, labels)
        if not _near(s, 1.0, TOL_EXACT):
            failures.append(f"entries sum to {s} at t={r['t']}")
            break
    if cfg["state"] == "infinite-temp":
        worst = max(abs(float(r["im_" + lab])) for r in rows for lab in labels)
        if worst > TOL_EXACT:
            failures.append(f"imaginary part {worst} at infinite temperature")


def _work_distribution(job, cfg, columns, rows, failures):
    s = sum(complex(float(r["re_p"]), float(r["im_p"])) for r in rows)
    if not _near(s, 1.0, TOL_EXACT):
        failures.append(f"P(W, W') sums to {s}")


def _brownian(job, cfg, columns, rows, failures):
    _check_series_rows(cfg, rows, failures)
    labels = _entry_labels(columns)
    if not _near(_c(rows[0], "f"), 1.0, TOL_EXACT):
        failures.append(f"ensemble F(0) = {_c(rows[0], 'f')}, expected 1")
    for r in rows:
        s, m, f = _entry_sum(r, labels), _moment(r, labels), _c(r, "f")
        if not _near(s, 1.0, TOL_EXACT):
            failures.append(f"ensemble entries sum to {s} at t={r['t']}")
            break
        if not _near(m, f, TOL_EXACT) or abs(f) > 1.0 + TOL_EXACT:
            failures.append(f"ensemble moment {m} vs F {f} at t={r['t']}")
            break


def _toc_series(job, cfg, columns, rows, failures):
    _check_series_rows(cfg, rows, failures)
    labels = _entry_labels(columns)
    for r in rows:
        toc = _c(r, "toc")
        if not _near(toc, 1.0, TOL_EXACT):
            failures.append(f"TOC = {toc} at t={r['t']}, expected 1")
            break
        s = _entry_sum(r, labels)
        # slots (v2, w1, v1) left to right; the v1 v2 moment is the TOC
        m = _moment(r, labels, bits=(0, 2))
        if not (_near(s, 1.0, TOL_EXACT) and _near(m, toc, TOL_EXACT)):
            failures.append(f"TOC entries sum {s}, moment {m} at t={r['t']}")
            break


def _moment_series(value_name):
    def check(job, cfg, columns, rows, failures):
        _check_series_rows(cfg, rows, failures)
        labels = _entry_labels(columns)
        for r in rows:
            s, m, f = _entry_sum(r, labels), _moment(r, labels), _c(r, value_name)
            if not (_near(s, 1.0, TOL_EXACT) and _near(m, f, TOL_EXACT)):
                failures.append(f"sum {s}, moment {m} vs {value_name} {f} at t={r['t']}")
                break
    return check


def _weakmeas(job, cfg, columns, rows, failures):
    if len(rows) != 16:
        failures.append(f"{len(rows)} entries, expected 16")
    for r in rows:
        err_re = abs(float(r["re_inferred"]) - float(r["re_direct"]))
        err_im = abs(float(r["im_inferred"]) - float(r["im_direct"]))
        if cfg["shots"] == 0:
            ok = max(math.hypot(err_re, err_im), float(r["abs_error"])) <= TOL_WEAK_EXACT
        else:
            ok = (err_re <= WEAK_SIGMAS * float(r["se_re"]) + WEAK_FLOOR
                  and err_im <= WEAK_SIGMAS * float(r["se_im"]) + WEAK_FLOOR)
        if not ok:
            failures.append(f"entry {r['label']} off by {err_re}, {err_im}")
            break


def _retrodict(job, cfg, columns, rows, failures):
    for r in rows:
        diff, scale = float(r["abs_diff"]), max(1.0, abs(float(r["method1"])))
        recomputed = abs(float(r["method1"]) - float(r["method2"]))
        if diff > TOL_EXACT * scale or abs(recomputed - diff) > TOL_EXACT * scale:
            failures.append(f"retrodiction abs_diff {diff} in row {r['index']}")
            break


def _decomp(job, cfg, columns, rows, failures):
    for r in rows:
        fracs = [float(r[c]) for c in ("mean_overlap", "min_overlap", "near_mub_fraction")]
        if not all(0.0 <= x <= 1.0 + TOL_EXACT for x in fracs) or int(r["vanishing_count"]) < 0:
            failures.append(f"decomposition fraction outside [0, 1] at t={r['t']}")
            break


_CHECKS = {
    "otoc-series": _otoc_series,
    "quasiprob-series": _quasiprob_series,
    "work-distribution": _work_distribution,
    "brownian-ensemble": _brownian,
    "toc-series": _toc_series,
    "kfold-series": _moment_series("fk"),
    "regulated-series": _moment_series("freg"),
    "weakmeas-inference": _weakmeas,
    "retrodict-benchmark": _retrodict,
    "decomp-report": _decomp,
}


class SpotChecker:
    """Recomputes F at one grid time through `quasiprob.otoc`, a different
    route from the energy-frame series, and compares it with the output
    (directly for `otoc-series`, as the entries' moment for
    `quasiprob-series`). Thermal states come from the cached eigensystem
    rather than `spin.thermal_state`, so each check costs one propagator and
    a few products.
    """

    def __init__(self):
        self._chains = {}
        self._thermal = {}

    def _chain(self, cfg):
        key = (cfg["n"], cfg["j"], cfg["h_field"], cfg["g_field"])
        if key not in self._chains:
            h = spin.ising_hamiltonian(spin.SpinChainSpec(
                n=cfg["n"], j=cfg["j"], h=cfg["h_field"], g=cfg["g_field"]))
            self._chains[key] = qla.eigh(h)
        return key, self._chains[key]

    def _state(self, cfg):
        key, h_sys = self._chain(cfg)
        dim = 2 ** cfg["n"]
        state = str(cfg["state"])
        if state == "infinite-temp":
            return np.eye(dim, dtype=complex) / dim
        if state.startswith("haar:"):
            psi = qla.haar_random_state(dim, int(state.split(":", 1)[1]))
            return np.outer(psi, psi.conj())
        if state.startswith("thermal:"):
            temp = float(state.split(":", 1)[1])
            if (key, temp) not in self._thermal:
                rho = h_sys.propagator(-1.0 / temp)
                self._thermal[(key, temp)] = rho / np.trace(rho).real
            return self._thermal[(key, temp)]
        raise CheckError(f"no spot check for state {state!r}")

    def check(self, subcommand, cfg, columns, rows, failures):
        row = rows[min(SPOT_ROW, len(rows) - 1)]
        n = cfg["n"]
        ops = [spin.site_pauli(n, int(s), a)
               for s, a in (str(cfg[k]).split(":") for k in ("w", "v"))]
        _, h_sys = self._chain(cfg)
        f = quasiprob.otoc(self._state(cfg), ops[0], ops[1], h_sys, float(row["t"]))
        if subcommand == "otoc-series":
            got = _c(row, "f")
        else:
            got = _moment(row, _entry_labels(columns))
        if not math.isfinite(abs(got)) or not _near(got, f, TOL_ROUTE):
            failures.append(f"spot check at t={row['t']}: output {got}, direct F {f}")

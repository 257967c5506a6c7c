"""Command line runner: config resolution, serialization, exit codes."""
from __future__ import annotations

import json
import re
import subprocess
import sys

import numpy as np
import pytest

from otoclab import cli, quasiprob, spin


def run_cli(capsys, *argv):
    rc = cli.main(list(argv))
    captured = capsys.readouterr()
    return rc, captured.out, captured.err


def parse_csv(text):
    lines = text.strip().split("\n")
    assert lines[0].startswith("# config=")
    metadata = json.loads(lines[0][len("# config="):])
    columns = lines[1].split(",")
    rows = [line.split(",") for line in lines[2:]]
    return metadata, columns, rows


SMALL_SERIES = ["--n", "3", "--t-max", "0.2", "--t-step", "0.1"]


class TestQuasiprobSeries:
    def test_header_and_time_zero_row(self, capsys):
        rc, out, _ = run_cli(capsys, "quasiprob-series", *SMALL_SERIES)
        assert rc == 0
        metadata, columns, rows = parse_csv(out)
        assert metadata["experiment"] == "quasiprob-series"
        assert len(columns) == 1 + 32
        assert columns[:3] == ["t", "re_0000", "im_0000"]
        assert len(rows) == 3
        first = dict(zip(columns, map(float, rows[0])))
        assert first["t"] == 0.0
        assert first["re_0000"] == pytest.approx(0.25, abs=1e-12)
        assert first["re_1111"] == pytest.approx(0.25, abs=1e-12)
        # 1000 pairs w3 = -1 with w2 = +1, impossible at t = 0
        assert first["re_1000"] == pytest.approx(0.0, abs=1e-12)

    def test_bit_labels_map_to_entry_eigenvalues(self, capsys):
        # curve abcd carries the entry with w3=(-1)^a, v2=(-1)^b,
        # w2=(-1)^c, v1=(-1)^d; check every labeled column at t=0.2
        rc, out, _ = run_cli(capsys, "quasiprob-series", *SMALL_SERIES)
        assert rc == 0
        _, columns, rows = parse_csv(out)
        last = dict(zip(columns, map(float, rows[-1])))
        spec = spin.SpinChainSpec(n=3, j=1.0, h=0.5, g=1.05)
        h = spin.ising_hamiltonian(spec)
        w = spin.site_pauli(3, 1, "z")
        v = spin.site_pauli(3, 3, "z")
        rho = np.eye(8, dtype=complex) / 8
        qd = quasiprob.coarse_quasiprob(rho, w, v, h, 0.2)
        for label in ("0000", "1010", "0110", "1001"):
            a, b, c, d = (int(ch) for ch in label)
            val = qd.entry((-1.0) ** d, (-1.0) ** c, (-1.0) ** b, (-1.0) ** a)
            assert last[f"re_{label}"] == pytest.approx(val.real, abs=1e-12)
            assert last[f"im_{label}"] == pytest.approx(val.imag, abs=1e-12)

    def test_json_and_csv_agree(self, capsys):
        rc, out_csv, _ = run_cli(capsys, "quasiprob-series", *SMALL_SERIES)
        assert rc == 0
        rc, out_json, _ = run_cli(capsys, "quasiprob-series", *SMALL_SERIES,
                                  "--format", "json")
        assert rc == 0
        _, columns, rows = parse_csv(out_csv)
        doc = json.loads(out_json)
        assert doc["columns"] == columns
        assert len(doc["rows"]) == len(rows)
        for jrow, crow in zip(doc["rows"], rows):
            assert jrow == pytest.approx([float(x) for x in crow], abs=1e-15)

    def test_header_floats_print_shortest_round_trip(self, capsys):
        rc, out, _ = run_cli(capsys, "quasiprob-series", *SMALL_SERIES)
        assert rc == 0
        header = out.split("\n", 1)[0]
        assert re.search(r'"t_max": 0\.2[,}]', header)
        assert re.search(r'"t_step": 0\.1[,}]', header)
        metadata, _, _ = parse_csv(out)
        assert metadata["config"]["t_max"] == 0.2

    def test_rerun_is_byte_identical(self, tmp_path, capsys):
        out_a = tmp_path / "a.csv"
        out_b = tmp_path / "b.csv"
        assert cli.main(["quasiprob-series", *SMALL_SERIES,
                         "--out", str(out_a)]) == 0
        assert cli.main(["quasiprob-series", *SMALL_SERIES,
                         "--out", str(out_b)]) == 0
        capsys.readouterr()
        assert out_a.read_bytes() == out_b.read_bytes()
        assert not list(tmp_path.glob("*.tmp*"))


class TestConfigHandling:
    def test_config_file_merge_and_flag_override(self, tmp_path, capsys):
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps({"n": 3, "t-max": 0.4, "t-step": 0.2}))
        rc, out, _ = run_cli(capsys, "quasiprob-series", "--config", str(cfg))
        assert rc == 0
        metadata, _, rows = parse_csv(out)
        assert metadata["config"]["n"] == 3
        assert metadata["config"]["v"] == "3:z"
        assert len(rows) == 3
        rc, out, _ = run_cli(capsys, "quasiprob-series", "--config", str(cfg),
                             "--t-max", "0.2")
        assert rc == 0
        _, _, rows = parse_csv(out)
        assert len(rows) == 2

    def test_unknown_config_key_rejected(self, tmp_path, capsys):
        cfg = tmp_path / "bad.json"
        cfg.write_text(json.dumps({"walls": 4}))
        rc, _, err = run_cli(capsys, "quasiprob-series", "--config", str(cfg))
        assert rc == 2
        assert "unknown config key" in err

    def test_malformed_config_file(self, tmp_path, capsys):
        cfg = tmp_path / "broken.json"
        cfg.write_text("{not json")
        rc, _, err = run_cli(capsys, "quasiprob-series", "--config", str(cfg))
        assert rc == 2
        assert "config error" in err

    @pytest.mark.parametrize("argv", [
        ["otoc-series", "--n", "1"],
        ["otoc-series", "--w", "0:z"],
        ["otoc-series", "--w", "1-z"],
        ["otoc-series", "--w", "1:q"],
        ["otoc-series", "--state", "mystery"],
        ["otoc-series", "--t-max", "0.1", "--t-step", "0.2"],
        ["kfold-series", "--khat", "7"],
        ["brownian-ensemble", "--t-step", "0.003"],
        ["brownian-ensemble", "--state", "thermal:1.0"],
        ["weakmeas-inference", "--shots", "-5"],
        ["otoc-series", "--n", "13"],
        ["brownian-ensemble", "--n", "9"],
    ])
    def test_bad_configuration_exits_two(self, capsys, argv):
        rc, _, err = run_cli(capsys, *argv)
        assert rc == 2
        assert "config error" in err

    def test_unwritable_output_exits_three_without_leftovers(self, tmp_path, capsys):
        target = tmp_path / "missing" / "out.csv"
        rc, _, err = run_cli(capsys, "quasiprob-series", *SMALL_SERIES,
                             "--out", str(target))
        assert rc == 3
        assert "output error" in err
        assert not (tmp_path / "missing").exists()
        assert not list(tmp_path.glob("*.tmp*"))


class TestOtherExperiments:
    def test_otoc_series_starts_at_one(self, capsys):
        rc, out, _ = run_cli(capsys, "otoc-series", *SMALL_SERIES)
        assert rc == 0
        _, columns, rows = parse_csv(out)
        assert columns == ["t", "re_f", "im_f"]
        assert float(rows[0][1]) == pytest.approx(1.0, abs=1e-12)
        assert float(rows[0][2]) == pytest.approx(0.0, abs=1e-12)

    def test_work_distribution_sums_to_one(self, capsys):
        rc, out, _ = run_cli(capsys, "work-distribution", "--n", "2",
                             "--t", "0.5")
        assert rc == 0
        _, columns, rows = parse_csv(out)
        assert columns[:2] == ["re_w", "im_w"]
        assert len(rows) == 4
        total = sum(float(r[4]) for r in rows)
        assert total == pytest.approx(1.0, abs=1e-10)
        spec = spin.SpinChainSpec(n=2, j=1.0, h=0.5, g=1.05)
        h = spin.ising_hamiltonian(spec)
        w = spin.site_pauli(2, 1, "z")
        v = spin.site_pauli(2, 2, "z")
        rho = np.eye(4, dtype=complex) / 4
        f = quasiprob.otoc(rho, w, v, h, 0.5)
        moment = sum(complex(float(r[0]), float(r[1]))
                     * complex(float(r[2]), float(r[3]))
                     * complex(float(r[4]), float(r[5])) for r in rows)
        assert abs(moment - f) < 1e-10

    def test_brownian_ensemble_small_run(self, capsys):
        rc, out, _ = run_cli(capsys, "brownian-ensemble", "--n", "2",
                             "--t-max", "0.02", "--t-step", "0.01",
                             "--trajectories", "2")
        assert rc == 0
        _, columns, rows = parse_csv(out)
        assert columns[:4] == ["t", "re_f", "im_f", "se_f"]
        assert len(columns) == 7 + 16 * 4
        assert len(rows) == 3
        first = dict(zip(columns, map(float, rows[0])))
        assert first["re_f"] == pytest.approx(1.0, abs=1e-12)
        assert first["se_re_0000"] == pytest.approx(0.0, abs=1e-12)

    def test_weakmeas_inference_exact_mode(self, capsys):
        rc, out, _ = run_cli(capsys, "weakmeas-inference")
        assert rc == 0
        _, columns, rows = parse_csv(out)
        assert columns[0] == "label"
        assert len(rows) == 16
        for row in rows:
            assert float(row[columns.index("abs_error")]) < 1e-6

    def test_retrodict_benchmark_sections(self, capsys):
        rc, out, _ = run_cli(capsys, "retrodict-benchmark",
                             "--instances", "2")
        assert rc == 0
        _, columns, rows = parse_csv(out)
        i_diff = columns.index("abs_diff")
        i_section = columns.index("section")
        assert sum(1 for r in rows if r[i_section] == "random") == 2
        assert sum(1 for r in rows if r[i_section] == "scaling") == 5
        assert all(float(r[i_diff]) < 1e-10 for r in rows)

    def test_decomp_report_commuting_start(self, capsys):
        rc, out, _ = run_cli(capsys, "decomp-report", "--n", "2",
                             "--t-max", "0.5", "--t-step", "0.25")
        assert rc == 0
        _, columns, rows = parse_csv(out)
        start = dict(zip(columns, map(float, rows[0])))
        assert start["vanishing_count"] == 12.0
        assert start["mean_overlap"] == pytest.approx(0.25, abs=1e-12)

    def test_toc_series_is_flat_for_unitary_probes(self, capsys):
        rc, out, _ = run_cli(capsys, "toc-series", "--n", "2",
                             "--t-max", "0.2", "--t-step", "0.1")
        assert rc == 0
        _, columns, rows = parse_csv(out)
        assert len(columns) == 3 + 16
        for row in rows:
            assert float(row[1]) == pytest.approx(1.0, abs=1e-12)

    def test_kfold_series_two_fold_matches_otoc(self, capsys):
        rc, out, _ = run_cli(capsys, "kfold-series", "--n", "2", "--khat", "2",
                             "--t-max", "0.2", "--t-step", "0.2")
        assert rc == 0
        _, columns, rows = parse_csv(out)
        assert len(columns) == 3 + 2 * 16
        spec = spin.SpinChainSpec(n=2, j=1.0, h=0.5, g=1.05)
        h = spin.ising_hamiltonian(spec)
        w = spin.site_pauli(2, 1, "z")
        v = spin.site_pauli(2, 2, "z")
        rho = np.eye(4, dtype=complex) / 4
        f = quasiprob.otoc(rho, w, v, h, 0.2)
        assert float(rows[-1][1]) == pytest.approx(f.real, abs=1e-10)

    def test_regulated_series_small_run(self, capsys):
        rc, out, _ = run_cli(capsys, "regulated-series", "--n", "2",
                             "--t-max", "0.2", "--t-step", "0.1",
                             "--temperature", "1.0")
        assert rc == 0
        _, columns, rows = parse_csv(out)
        assert columns[1] == "re_freg"
        assert len(rows) == 3
        total = sum(float(rows[0][k]) for k, name in enumerate(columns)
                    if name.startswith("re_") and name != "re_freg")
        assert total == pytest.approx(1.0, abs=1e-10)


def test_module_entrypoint_runs_in_subprocess():
    proc = subprocess.run(
        [sys.executable, "-m", "otoclab.cli", "otoc-series", "--n", "2",
         "--t-max", "0.1", "--t-step", "0.1"],
        capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0
    assert proc.stdout.startswith("# config=")
    assert "re_f" in proc.stdout

"""Command line runner: config resolution, serialization, exit codes."""
from __future__ import annotations

import json
import re
import subprocess
import sys

import numpy as np
import pytest

from otoclab import cli, qla, quasiprob, spin, weakmeas


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

    def test_choices_apply_to_config_files(self, tmp_path, capsys):
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps({"protocol": "three_weak"}))
        rc, out, err = run_cli(capsys, "weakmeas-inference", "--config", str(cfg))
        assert rc == 2
        assert out == ""
        assert "config error: protocol must be three-weak or two-weak" in err

    @pytest.mark.parametrize("experiment", list(cli.DEFAULTS))
    def test_every_key_is_a_flag_that_reaches_the_config(self, capsys, monkeypatch,
                                                         experiment):
        keys = cli.DEFAULTS[experiment]
        with pytest.raises(SystemExit):
            cli.main([experiment, "--help"])
        flags = set(re.findall(r"(?<![\w-])--\w[\w-]*", capsys.readouterr().out))
        assert flags == {"--help", "--config"} | {"--" + k.replace("_", "-") for k in keys}
        # a value unlike the default for every key, of the default's type
        argv, given = [experiment], {}
        for key, default in keys.items():
            choices = cli._CHOICES.get(key)
            if choices:
                value = choices[-1] if default == choices[0] else choices[0]
            elif isinstance(default, (int, float)):
                value = default + 1
            else:
                value = f"{key}-value"
            argv += ["--" + key.replace("_", "-"), str(value)]
            given[key] = value
        monkeypatch.setattr(cli, "_validate", lambda experiment, cfg: None)
        cfg = cli.resolve_config(cli.build_parser().parse_args(argv))
        assert cfg == given
        assert [type(cfg[k]) for k in keys] == [type(v) for v in given.values()]

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
        ["otoc-series", "--n", "2", "--t-max", "1e300", "--t-step", "1e-10"],
        ["quasiprob-series", "--n", "2", "--t-max", "1e6", "--t-step", "1"],
        ["brownian-ensemble", "--t-max", "1000", "--t-step", "0.1"],
        ["work-distribution", "--t", "inf"],
        ["otoc-series", "--n", "12", "--state", "bogus"],
        ["otoc-series", "--state", "thermal:nan"],
        ["otoc-series", "--state", "thermal:inf"],
        ["otoc-series", "--state", "haar:-1"],
        ["retrodict-benchmark", "--seed", "-1"],
        ["brownian-ensemble", "--seed", "-1"],
        ["weakmeas-inference", "--shots", "10", "--seed", "-1"],
        ["weakmeas-inference", "--phis", "0.1,0.2"],
        ["weakmeas-inference", "--phis", "2.0,0.1,0.2"],
        ["weakmeas-inference", "--phis", "nan,0.1,0.2,0.3"],
        ["weakmeas-inference", "--phis", "bogus"],
        ["brownian-ensemble", "--dt", "0.02", "--t-max", "0.1", "--t-step", "0.04",
         "--trajectories", "2"],
    ])
    def test_bad_configuration_exits_two(self, capsys, argv):
        rc, _, err = run_cli(capsys, *argv)
        assert rc == 2
        assert "config error" in err

    @pytest.mark.parametrize("argv, message", [
        (["otoc-series", "--n", "12", "--state", "bogus"], "bad state"),
        (["weakmeas-inference", "--n", "10", "--phis", "bogus"], "bad phis"),
    ], ids=["state", "phis"])
    def test_bad_input_is_rejected_before_the_hamiltonian_is_built(self, capsys, monkeypatch,
                                                                   argv, message):
        built = []
        monkeypatch.setattr(spin, "ising_hamiltonian", lambda *a: built.append(a))
        rc, _, err = run_cli(capsys, *argv)
        assert rc == 2
        assert message in err
        assert built == []

    @pytest.mark.parametrize("experiment, values", [
        ("retrodict-benchmark", {"instances": True, "seed": False}),
        ("weakmeas-inference", {"shots": False}),
        ("otoc-series", {"n": True}),
        ("otoc-series", {"t_max": True}),
        ("otoc-series", {"h_field": False}),
        ("kfold-series", {"khat": True}),
        ("weakmeas-inference", {"phis": [True, 0.1, 0.2, 0.3]}),
    ])
    def test_boolean_config_values_are_rejected(self, tmp_path, capsys, experiment, values):
        # bool is an int subclass, so JSON true and false pass isinstance(x, int)
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps(values))
        rc, out, err = run_cli(capsys, experiment, "--config", str(cfg))
        assert rc == 2
        assert out == ""
        assert "config error" in err

    def test_unwritable_output_exits_three_without_leftovers(self, tmp_path, capsys):
        target = tmp_path / "missing" / "out.csv"
        rc, _, err = run_cli(capsys, "quasiprob-series", *SMALL_SERIES,
                             "--out", str(target))
        assert rc == 3
        assert "output error" in err
        assert not (tmp_path / "missing").exists()
        assert not list(tmp_path.glob("*.tmp*"))

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_non_finite_value_exits_three_without_leftovers(self, tmp_path, capsys,
                                                            monkeypatch, fmt):
        # json.dumps would write NaN if allow_nan were left at its default
        monkeypatch.setitem(cli.RUNNERS, "otoc-series",
                            lambda cfg: (["t", "re_f"], [[0.0, 1.0], [0.1, float("nan")]]))
        target = tmp_path / "out.txt"
        rc, out, err = run_cli(capsys, "otoc-series", "--format", fmt,
                               "--out", str(target))
        assert rc == 3
        assert out == ""
        assert "numeric failure" in err
        assert list(tmp_path.iterdir()) == []


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

    def test_brownian_health_round_trips_in_csv_and_json(self, capsys):
        argv = ["brownian-ensemble", "--n", "3", "--t-max", "0.1",
                "--t-step", "0.05", "--trajectories", "3", "--seed", "4"]
        rc, out_csv, _ = run_cli(capsys, *argv)
        assert rc == 0
        rc, out_json, _ = run_cli(capsys, *argv, "--format", "json")
        assert rc == 0
        csv_defect = parse_csv(out_csv)[0]["health"]["unitarity_defect"]
        json_defect = json.loads(out_json)["metadata"]["health"]["unitarity_defect"]
        assert csv_defect == json_defect
        assert 0.0 <= csv_defect <= 1e-12

    @pytest.mark.parametrize("state, keys", [
        ("infinite-temp", {"max_norm_excess", "max_imag_f"}),
        ("haar:3", {"max_norm_excess"}),
        ("thermal:2", {"max_norm_excess"}),
    ])
    def test_otoc_health_round_trips_in_csv_and_json(self, capsys, state, keys):
        """|F| <= 1 always, and F is real at infinite temperature only."""
        argv = ["otoc-series", *SMALL_SERIES, "--w", "1:x", "--state", state]
        rc, out_csv, _ = run_cli(capsys, *argv)
        assert rc == 0
        rc, out_json, _ = run_cli(capsys, *argv, "--format", "json")
        assert rc == 0
        csv_health = parse_csv(out_csv)[0]["health"]
        assert csv_health == json.loads(out_json)["metadata"]["health"]
        assert set(csv_health) == keys
        assert all(0.0 <= value <= 1e-12 for value in csv_health.values())

    @pytest.mark.parametrize("key", sorted(cli.HEALTH_LIMITS))
    def test_health_above_its_limit_exits_three_and_writes_nothing(
            self, tmp_path, capsys, monkeypatch, key):
        monkeypatch.setitem(cli.RUNNERS, "otoc-series",
                            lambda cfg: (["t"], [[0.0]], {"max_norm_excess": 0.0, key: 2e-6}))
        target = tmp_path / "out.csv"
        rc, out, err = run_cli(capsys, "otoc-series", *SMALL_SERIES, "--out", str(target))
        assert rc == 3 and out == ""
        assert key in err and "2.000e-06" in err and "1e-06" in err
        assert not list(tmp_path.iterdir())
        monkeypatch.setitem(cli.RUNNERS, "otoc-series", lambda cfg: (["t"], [[0.0]], {key: np.nan}))
        assert cli.main(["otoc-series", *SMALL_SERIES, "--out", str(target)]) == 3
        assert not list(tmp_path.iterdir())

    def test_estimates_and_values_at_the_limit_are_not_gated(self, capsys, monkeypatch):
        health = {"max_residual": 1.6e-3, "max_effective_condition": 40.0,
                  "max_total_defect": cli.HEALTH_LIMITS["max_total_defect"]}
        monkeypatch.setitem(cli.RUNNERS, "otoc-series", lambda cfg: (["t"], [[0.0]], health))
        rc, out, _ = run_cli(capsys, "otoc-series", *SMALL_SERIES)
        assert rc == 0
        assert parse_csv(out)[0]["health"] == health

    @pytest.mark.parametrize("protocol", ["three-weak", "two-weak"])
    def test_weakmeas_health_round_trips_in_csv_and_json(self, capsys, protocol):
        argv = ["weakmeas-inference", "--protocol", protocol]
        rc, out_csv, _ = run_cli(capsys, *argv)
        assert rc == 0
        rc, out_json, _ = run_cli(capsys, *argv, "--format", "json")
        assert rc == 0
        csv_health = parse_csv(out_csv)[0]["health"]
        json_health = json.loads(out_json)["metadata"]["health"]
        assert csv_health == json_health
        assert set(csv_health) == {"max_effective_condition", "max_residual"}
        assert 1.0 <= csv_health["max_effective_condition"] <= weakmeas.CONDITION_LIMIT
        assert 0.0 <= csv_health["max_residual"] < 1e-10

    @pytest.mark.parametrize("experiment", ["toc-series", "kfold-series", "regulated-series"])
    def test_series_health_round_trips_in_csv_and_json(self, capsys, experiment):
        rc, out_csv, _ = run_cli(capsys, experiment)
        assert rc == 0
        rc, out_json, _ = run_cli(capsys, experiment, "--format", "json")
        assert rc == 0
        csv_health = parse_csv(out_csv)[0]["health"]
        json_health = json.loads(out_json)["metadata"]["health"]
        assert csv_health == json_health
        assert set(csv_health) == {"max_total_defect", "max_moment_defect"}
        assert 0.0 <= csv_health["max_total_defect"] <= 1e-10
        assert 0.0 <= csv_health["max_moment_defect"] <= 1e-10

    def test_quasiprob_series_health_round_trips_in_csv_and_json(self, capsys):
        rc, out_csv, _ = run_cli(capsys, "quasiprob-series", *SMALL_SERIES, "--state", "haar:3")
        assert rc == 0
        rc, out_json, _ = run_cli(capsys, "quasiprob-series", *SMALL_SERIES, "--state", "haar:3",
                                  "--format", "json")
        assert rc == 0
        metadata, columns, _ = parse_csv(out_csv)
        doc = json.loads(out_json)
        assert metadata["health"] == doc["metadata"]["health"]
        assert set(metadata["health"]) == {"max_total_defect", "max_moment_defect"}
        assert 0.0 <= metadata["health"]["max_total_defect"] <= 1e-10
        assert 0.0 <= metadata["health"]["max_moment_defect"] <= 1e-10
        # the F the entries came with is health only, not a column
        assert columns == doc["columns"] and len(columns) == 1 + 32

    def test_work_distribution_health_round_trips_in_csv_and_json(self, capsys):
        argv = ["work-distribution", "--n", "3", "--state", "haar:2"]
        rc, out_csv, _ = run_cli(capsys, *argv)
        assert rc == 0
        rc, out_json, _ = run_cli(capsys, *argv, "--format", "json")
        assert rc == 0
        metadata, columns, rows = parse_csv(out_csv)
        doc = json.loads(out_json)
        assert metadata["health"] == doc["metadata"]["health"]
        assert set(metadata["health"]) == {"max_total_defect"}
        total = sum(complex(float(r[4]), float(r[5])) for r in rows)
        assert metadata["health"]["max_total_defect"] == pytest.approx(abs(total - 1), abs=1e-15)
        assert 0.0 <= metadata["health"]["max_total_defect"] <= 1e-10
        assert columns == doc["columns"] == ["re_w", "im_w", "re_wprime", "im_wprime",
                                             "re_p", "im_p"]

    @pytest.mark.parametrize("argv", [
        ["otoc-series", *SMALL_SERIES],
        ["otoc-series", "--state", "haar:1", "--w", "2:x", *SMALL_SERIES],
        ["quasiprob-series", "--state", "thermal:2", "--v", "2:y", *SMALL_SERIES],
        ["quasiprob-series", "--state", "plus-x", *SMALL_SERIES],
        ["work-distribution", "--n", "3"],
    ], ids=lambda argv: " ".join(argv[:3]))
    def test_pauli_observables_stay_tables_on_the_series_routes(self, capsys, monkeypatch,
                                                                argv):
        # W and V reach the series as (mask, phase) tables: never expanded
        # to matrices, and checked on the table; only H takes the dense
        # Hermiticity test (inside qla.eigh)
        ham = spin.ising_hamiltonian(spin.SpinChainSpec(n=3, j=1.0, h=0.5, g=1.05))
        checked, expanded = [], []
        real_defect, real_matrix = qla.hermiticity_defect, spin.pauli_matrix
        monkeypatch.setattr(qla, "hermiticity_defect",
                            lambda m: checked.append(np.array_equal(m, ham)) or real_defect(m))
        monkeypatch.setattr(spin, "pauli_matrix",
                            lambda *a: expanded.append(a) or real_matrix(*a))
        rc, _, _ = run_cli(capsys, *argv)
        assert rc == 0
        assert expanded == []
        assert checked == [True]

    @pytest.mark.parametrize("experiment", ["otoc-series", "quasiprob-series"])
    def test_thermal_series_job_builds_no_dense_state(self, capsys, monkeypatch, experiment):
        # the weights e^{-E/T}/Z come from the job's one eigensystem; no
        # e^{-H/T} is formed and rotated back into the energy frame
        calls = {"eigh": 0, "propagator": 0}

        def counted(owner, name):
            real = getattr(owner, name)

            def wrapper(*args, **kwargs):
                calls[name] += 1
                return real(*args, **kwargs)
            monkeypatch.setattr(owner, name, wrapper)

        counted(qla, "eigh")
        counted(qla.HermitianEigensystem, "propagator")
        rc, _, _ = run_cli(capsys, experiment, "--state", "thermal:2", *SMALL_SERIES)
        assert rc == 0
        assert calls == {"eigh": 1, "propagator": 0}

    @pytest.mark.parametrize("experiment", ["toc-series", "kfold-series", "regulated-series"])
    def test_series_runners_diagonalize_once_and_never_propagate(self, capsys, monkeypatch,
                                                                 experiment):
        calls = {"propagator": 0, "heisenberg": 0, "_distinct_projectors": 0, "eigh": 0}

        def counted(module, name):
            real = getattr(module, name)

            def wrapper(*args, **kwargs):
                calls[name] += 1
                return real(*args, **kwargs)
            monkeypatch.setattr(module, name, wrapper)

        for name in ("propagator", "heisenberg", "_distinct_projectors"):
            counted(quasiprob, name)
        counted(qla, "eigh")
        rc, _, _ = run_cli(capsys, experiment, "--n", "3", "--t-max", "1", "--t-step", "0.1")
        assert rc == 0
        # one diagonalization (the Hamiltonian); projectors of W and V at
        # most once each, not once per time point
        assert calls["propagator"] == calls["heisenberg"] == 0
        assert calls["eigh"] == 1
        assert calls["_distinct_projectors"] <= 2

    @pytest.mark.parametrize("argv", [
        ["otoc-series", "--state", "thermal:1", *SMALL_SERIES],
        ["quasiprob-series", "--state", "thermal:1", *SMALL_SERIES],
        ["work-distribution", "--n", "3", "--state", "thermal:1"],
        ["weakmeas-inference", "--n", "3", "--state", "thermal:1"],
        ["decomp-report", *SMALL_SERIES],
        ["toc-series", "--state", "thermal:1", *SMALL_SERIES],
        ["kfold-series", "--state", "thermal:1", *SMALL_SERIES],
        ["regulated-series", *SMALL_SERIES],
    ], ids=lambda argv: argv[0])
    def test_chain_runners_diagonalize_the_hamiltonian_once(self, capsys, monkeypatch, argv):
        ham = spin.ising_hamiltonian(spin.SpinChainSpec(n=3, j=1.0, h=0.5, g=1.05))
        real = qla.eigh
        calls = []

        def counted(h, *args, **kwargs):
            calls.append(np.array_equal(h, ham))
            return real(h, *args, **kwargs)
        monkeypatch.setattr(qla, "eigh", counted)
        rc, _, _ = run_cli(capsys, *argv)
        assert rc == 0
        assert calls.count(True) == 1

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

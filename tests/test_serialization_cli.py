"""Tests for config/result serialization and the CLI."""

import json
import os

import pytest

from repro.cli import build_parser, main
from repro.core.config import SimulationConfig
from repro.core.framework import DDoSim
from repro.serialization import (
    config_from_dict,
    config_from_json,
    config_to_dict,
    config_to_json,
    result_to_dict,
    result_to_json,
    rows_to_csv,
)

FAULT_PLAN = os.path.join(
    os.path.dirname(__file__), os.pardir, "examples", "fault_plan.json"
)


class TestConfigSerialization:
    def test_roundtrip_defaults(self):
        config = SimulationConfig(n_devs=25, seed=9)
        restored = config_from_json(config_to_json(config))
        assert restored == config

    def test_roundtrip_customized(self):
        config = SimulationConfig(
            n_devs=7,
            churn="dynamic",
            churn_phi=(0.3, 0.2, 0.1),
            dev_rate_kbps=(50.0, 200.0),
            protection_profiles=(("wx",), ()),
            binary_mix="connman",
        )
        restored = config_from_json(config_to_json(config))
        assert restored == config

    def test_unknown_field_rejected(self):
        data = config_to_dict(SimulationConfig(n_devs=3))
        data["warp_speed"] = True
        with pytest.raises(ValueError, match="unknown config fields"):
            config_from_dict(data)

    def test_json_is_plain_types(self):
        parsed = json.loads(config_to_json(SimulationConfig(n_devs=3)))
        assert parsed["n_devs"] == 3
        assert isinstance(parsed["protection_profiles"], list)


class TestResultSerialization:
    @pytest.fixture(scope="class")
    def result(self):
        config = SimulationConfig(
            n_devs=3, seed=2, attack_duration=10.0,
            recruit_timeout=30.0, sim_duration=120.0,
        )
        return DDoSim(config).run()

    def test_result_round_trips_through_json(self, result):
        parsed = json.loads(result_to_json(result))
        assert parsed["n_devs"] == 3
        assert parsed["recruitment"]["bots_recruited"] == 3
        assert parsed["attack"]["avg_received_kbps"] > 0
        assert isinstance(parsed["rate_series_kbps"], list)

    def test_result_dict_has_nested_dataclasses(self, result):
        data = result_to_dict(result)
        assert set(data["churn"]) == {"mode", "departures", "rejoins", "online_at_end"}
        assert "attack_time_s" in data["resources"]


class TestRowsCsv:
    def test_renders_header_and_rows(self):
        csv = rows_to_csv([{"a": 1, "b": "x"}, {"a": 2, "b": "y"}])
        lines = csv.strip().splitlines()
        assert lines[0] == "a,b"
        assert lines[1] == "1,x"
        assert lines[2] == "2,y"

    def test_empty(self):
        assert rows_to_csv([]) == ""


class TestCli:
    def test_parser_has_all_commands(self):
        parser = build_parser()
        text = parser.format_help()
        for command in ("run", "figure2", "figure3", "table1", "figure4",
                        "recruitment", "epidemic"):
            assert command in text

    def test_run_command(self, capsys, tmp_path):
        out = tmp_path / "result.json"
        code = main([
            "run", "--devs", "2", "--duration", "10", "--seed", "3",
            "--json", str(out),
        ])
        assert code == 0
        captured = capsys.readouterr().out
        assert "infection_rate" in captured
        data = json.loads(out.read_text())
        assert data["n_devs"] == 2

    def test_run_with_config_file(self, capsys, tmp_path):
        config_path = tmp_path / "config.json"
        config = SimulationConfig(
            n_devs=2, seed=5, attack_duration=10.0,
            recruit_timeout=30.0, sim_duration=120.0,
        )
        config_path.write_text(config_to_json(config))
        code = main(["run", "--config", str(config_path)])
        assert code == 0
        assert "2" in capsys.readouterr().out

    def test_recruitment_command_writes_csv(self, capsys, tmp_path):
        out = tmp_path / "rows.csv"
        code = main(["recruitment", "--devs", "2", "--csv", str(out),
                     "--cache-dir", str(tmp_path / "cache")])
        assert code == 0
        lines = out.read_text().strip().splitlines()
        assert lines[0].startswith("binary,")
        assert len(lines) == 9  # header + 8 combos

    def test_invalid_command_exits(self):
        with pytest.raises(SystemExit):
            main(["frobnicate"])

    @pytest.mark.parametrize("argv, message", [
        (["run", "--payload", "100000"], "attack_payload_size must be"),
        (["run", "--devs", "0"], "n_devs must be positive"),
        (["figure2", "--grid", "0"], "n_devs must be positive"),
        (["figure3", "--grid", "0"], "n_devs must be positive"),
        (["table1", "--grid", "10", "-1"], "n_devs must be positive"),
        (["figure4", "--grid", "0"], "n_devs must be positive"),
        (["report", "--figure2", "--grid", "0", "--out", os.devnull],
         "n_devs must be positive"),
        (["verify-determinism", "--grid", "0"], "n_devs must be positive"),
        (["faultsweep", "--devs", "0", "--plan", FAULT_PLAN],
         "n_devs must be positive"),
        (["epidemic", "--devs", "0"], "n_devs must be positive"),
        (["recruitment", "--devs", "0"], "n_devs must be positive"),
        (["verify-determinism", "--jobs", "0"], "--jobs must be at least 2"),
        (["verify-determinism", "--jobs", "1"], "--jobs must be at least 2"),
    ])
    def test_bad_config_is_a_one_line_error(self, capsys, argv, message):
        with pytest.raises(SystemExit) as excinfo:
            main(argv)
        assert excinfo.value.code == 2
        captured = capsys.readouterr()
        assert captured.err.startswith(f"error: {message}")
        assert captured.err.count("\n") == 1
        assert captured.out == ""

    def test_malformed_fault_plan_is_a_one_line_error(self, capsys, tmp_path):
        plan = tmp_path / "plan.json"
        plan.write_text(json.dumps({"faults": [{"kind": "meteor"}]}))
        with pytest.raises(SystemExit) as excinfo:
            main(["faultsweep", "--plan", str(plan)])
        assert excinfo.value.code == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1

    #: knobs deleted from the CLI and SimulationConfig
    REMOVED_KNOBS = ["scheduler"]

    #: flags and subcommands deleted from the CLI only (never config
    #: fields), as ``(test id, argv)``
    REMOVED_CLI = [
        ("checkpoint-every", ["run", "--checkpoint-every", "20"]),
        ("checkpoint-dir", ["run", "--checkpoint-dir", "ckpt"]),
        ("resume-from", ["run", "--resume-from", "ckpt"]),
        ("kill-after-checkpoint", ["run", "--kill-after-checkpoint", "1"]),
        ("verify-resume", ["verify-determinism", "--resume"]),
        ("chaos", ["chaos"]),
        ("train", ["run", "--train", "8"]),
    ]

    @pytest.mark.parametrize("argv", [
        pytest.param(["run", f"--{knob}", "calendar"], id=knob)
        for knob in REMOVED_KNOBS
    ] + [pytest.param(argv, id=name) for name, argv in REMOVED_CLI])
    def test_removed_flag_is_rejected(self, argv):
        with pytest.raises(SystemExit) as excinfo:
            main(argv)
        assert excinfo.value.code == 2

    @pytest.mark.parametrize("knob", REMOVED_KNOBS)
    def test_removed_config_field_is_a_one_line_error(
            self, capsys, tmp_path, knob):
        config_path = tmp_path / "config.json"
        config_path.write_text(json.dumps({knob: "heap"}))
        with pytest.raises(SystemExit) as excinfo:
            main(["run", "--config", str(config_path)])
        assert excinfo.value.code == 2
        captured = capsys.readouterr()
        assert captured.err == f"error: unknown config fields: ['{knob}']\n"
        assert captured.out == ""

    def test_removed_flood_train_field_is_a_one_line_error(
            self, capsys, tmp_path):
        config_path = tmp_path / "config.json"
        config_path.write_text(json.dumps({"flood_train": 8}))
        with pytest.raises(SystemExit) as excinfo:
            main(["run", "--config", str(config_path)])
        assert excinfo.value.code == 2
        captured = capsys.readouterr()
        assert captured.err == "error: unknown config fields: ['flood_train']\n"
        assert captured.out == ""

    @pytest.mark.parametrize("argv, culprit", [
        (["run", "--config", "{missing}"], "missing"),
        (["run", "--devs", "2", "--faults", "{missing}"], "missing"),
        (["obs", "--config", "{missing}"], "missing"),
        (["report", "--faults", "{missing}", "--out", os.devnull], "missing"),
        (["faultsweep", "--plan", "{missing}"], "missing"),
        (["run", "--config", "{directory}"], "directory"),
        (["run", "--devs", "2", "--metrics-out", "{directory}"], "directory"),
    ], ids=["run-config", "run-faults", "obs-config", "report-faults",
            "faultsweep-plan", "config-is-a-directory",
            "output-is-a-directory"])
    def test_unusable_file_is_a_one_line_error(
            self, capsys, tmp_path, argv, culprit):
        paths = {"missing": str(tmp_path / "missing.json"),
                 "directory": str(tmp_path)}
        with pytest.raises(SystemExit) as excinfo:
            main([arg.format(**paths) for arg in argv])
        assert excinfo.value.code == 2
        captured = capsys.readouterr()
        assert captured.err.startswith(f"error: {paths[culprit]}: ")
        assert captured.err.count("\n") == 1
        assert captured.out == ""

    @pytest.mark.parametrize("document, kind", [
        ([], "list"), ("hello", "str"), (5, "int"), (None, "NoneType"),
    ])
    def test_non_object_config_is_a_one_line_error(
            self, capsys, tmp_path, document, kind):
        config_path = tmp_path / "config.json"
        config_path.write_text(json.dumps(document))
        with pytest.raises(SystemExit) as excinfo:
            main(["run", "--config", str(config_path)])
        assert excinfo.value.code == 2
        captured = capsys.readouterr()
        assert captured.err == f"error: config must be an object, got {kind}\n"
        assert captured.out == ""

    @pytest.mark.parametrize("argv, flag", [
        (["report", "--faults", "{missing}"], "--out"),
        (["report", "--devs", "0"], "--out"),
        (["run", "--config", "{missing}"], "--trace-out"),
        (["run", "--devs", "0"], "--metrics-out"),
        (["obs", "--payload", "0"], "--jsonl-out"),
    ], ids=["report-missing-faults", "report-bad-config",
            "run-missing-config", "run-bad-config", "obs-bad-config"])
    def test_bad_input_leaves_output_files_alone(self, tmp_path, argv, flag):
        missing = str(tmp_path / "missing.json")
        argv = [arg.format(missing=missing) for arg in argv]
        existing = tmp_path / "existing.out"
        existing.write_text("earlier output")
        fresh = tmp_path / "fresh.out"
        for target in (existing, fresh):
            with pytest.raises(SystemExit) as excinfo:
                main(argv + [flag, str(target)])
            assert excinfo.value.code == 2
        assert existing.read_text() == "earlier output"
        assert not fresh.exists()

    @pytest.mark.parametrize("argv", [
        ["run", "--devs", "2", "--duration", "5", "--json"],
        ["recruitment", "--devs", "2", "--no-cache", "--csv"],
        ["recruitment", "--devs", "2", "--no-cache", "--json"],
        ["figure2", "--grid", "2", "--csv"],
        ["figure3", "--grid", "2", "--json"],
        ["table1", "--grid", "2", "--csv"],
        ["figure4", "--grid", "2", "--json"],
        ["faultsweep", "--devs", "2", "--plan", FAULT_PLAN, "--csv"],
        ["epidemic", "--devs", "3", "--json"],
    ], ids=["run-json", "recruitment-csv", "recruitment-json", "figure2-csv",
            "figure3-json", "table1-csv", "figure4-json", "faultsweep-csv",
            "epidemic-json"])
    def test_unwritable_output_fails_before_the_run(
            self, capsys, monkeypatch, tmp_path, argv):
        from repro.analysis import epidemic
        from repro.core import experiment

        def no_simulation(*args, **kwargs):
            raise AssertionError("simulation started before the output check")

        monkeypatch.setattr(DDoSim, "run", no_simulation)
        monkeypatch.setattr(epidemic, "run_propagation_experiment", no_simulation)
        for sweep in ("run_figure2", "run_figure3", "run_table1", "run_figure4",
                      "run_fault_sweep", "run_recruitment"):
            monkeypatch.setattr(experiment, sweep, no_simulation)
        unwritable = str(tmp_path / "no-such-dir" / "out")
        with pytest.raises(SystemExit) as excinfo:
            main(argv + [unwritable])
        assert excinfo.value.code == 2
        captured = capsys.readouterr()
        assert captured.err == f"error: {unwritable}: No such file or directory\n"
        assert captured.out == ""

    def test_writable_check_keeps_existing_contents(self, tmp_path):
        from repro.cli import _check_writable

        existing = tmp_path / "existing.out"
        existing.write_text("earlier output")
        fresh = tmp_path / "fresh.out"
        _check_writable(str(existing), str(fresh), None)
        assert existing.read_text() == "earlier output"
        assert not fresh.exists()

    @pytest.mark.parametrize("kind, what", [
        ("link_down", "link"),
        ("crash", "container"),
    ])
    def test_unmatched_fault_target_is_a_one_line_error(
            self, capsys, tmp_path, kind, what):
        plan = tmp_path / "plan.json"
        plan.write_text(json.dumps(
            {"faults": [{"kind": kind, "target": "dev999"}]}
        ))
        with pytest.raises(SystemExit) as excinfo:
            main(["run", "--devs", "2", "--faults", str(plan)])
        assert excinfo.value.code == 2
        captured = capsys.readouterr()
        assert captured.err == (
            f"error: fault target 'dev999' matches no {what}\n"
        )
        assert captured.out == ""

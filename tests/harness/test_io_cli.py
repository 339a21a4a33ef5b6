"""Tests for run/figure serialization and the CLI."""

import json

import numpy as np
import pytest

from repro.cli import main
from repro.graphs import ring_based
from repro.harness import ExperimentSpec, run_spec, svm_workload, table1_gap_bounds
from repro.harness.io import (
    figure_to_dict,
    load_run_summary,
    run_to_dict,
    save_figure,
    save_run,
)
from repro.hetero import DeterministicSlowdown, RandomSlowdown


@pytest.fixture(scope="module")
def run():
    workload = svm_workload("smoke")
    return run_spec(
        ExperimentSpec("io", workload, ring_based(8), max_iter=12, seed=0)
    )


class TestRunSerialization:
    def test_run_to_dict_is_json_safe(self, run):
        payload = run_to_dict(run)
        text = json.dumps(payload)  # raises if not JSON-safe
        assert "hop" in text

    def test_round_trip_through_disk(self, run, tmp_path):
        path = save_run(run, tmp_path / "run.json")
        loaded = load_run_summary(path)
        assert loaded["protocol"] == "hop"
        assert loaded["n_workers"] == 8
        assert loaded["wall_time"] == pytest.approx(run.wall_time)
        assert len(loaded["loss_curve"]["times"]) == len(
            loaded["loss_curve"]["losses"]
        )

    def test_worker_stats_preserved(self, run, tmp_path):
        loaded = load_run_summary(save_run(run, tmp_path / "r.json"))
        assert len(loaded["worker_stats"]) == 8
        assert loaded["worker_stats"][0]["iterations_completed"] == 12

    def test_creates_parent_directories(self, run, tmp_path):
        path = save_run(run, tmp_path / "deep" / "nested" / "run.json")
        assert path.exists()


class TestFigureSerialization:
    def test_figure_round_trip(self, tmp_path):
        result = table1_gap_bounds("smoke")
        payload = figure_to_dict(result)
        json.dumps(payload)
        assert payload["passed"] is True
        assert payload["figure_id"] == "table1"
        path = save_figure(result, tmp_path / "table1.json")
        assert json.loads(path.read_text())["checks"]


class TestCLI:
    def test_graphs_command(self, capsys):
        assert main(["graphs", "--graph", "ring", "--workers", "8"]) == 0
        out = capsys.readouterr().out
        assert "spectral gap" in out
        assert "ring(8)" in out

    def test_train_command_writes_summary(self, tmp_path, capsys):
        code = main(
            [
                "train",
                "--workload", "svm",
                "--workers", "6",
                "--iterations", "8",
                "--out", str(tmp_path / "out.json"),
            ]
        )
        assert code == 0
        assert (tmp_path / "out.json").exists()
        assert "wall_time" in capsys.readouterr().out

    def test_train_with_backup_and_slowdown(self, capsys):
        code = main(
            [
                "train",
                "--mode", "backup",
                "--scenario", "straggler",
                "--workers", "6",
                "--iterations", "8",
            ]
        )
        assert code == 0
        assert "backup" in capsys.readouterr().out

    def test_train_summary_ignores_repro_shards(self, monkeypatch, capsys):
        # A stale REPRO_SHARDS from older releases must not change a run.
        argv = ["train", "--workers", "6", "--iterations", "5"]
        assert main(argv) == 0
        plain = capsys.readouterr().out
        monkeypatch.setenv("REPRO_SHARDS", "2")
        assert main(argv) == 0
        assert capsys.readouterr().out == plain

    @pytest.mark.parametrize("command", ["train", "profile"])
    def test_shards_flag_is_rejected(self, command, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main([command, "--shards", "2"])
        assert excinfo.value.code == 2
        assert "--shards" in capsys.readouterr().err

    def test_figures_command_single(self, capsys):
        assert main(["figures", "--only", "fig21"]) == 0
        out = capsys.readouterr().out
        assert "spectral gaps" in out.lower()
        assert "all shape checks passed" in out

    def test_figures_unknown_id(self, capsys):
        assert main(["figures", "--only", "fig99"]) == 2

    def test_ablations_unknown_id(self, capsys):
        assert main(["ablations", "--only", "nope"]) == 2

    def test_figures_json_dump(self, tmp_path, capsys):
        code = main(
            ["figures", "--only", "fig21", "--json-dir", str(tmp_path)]
        )
        assert code == 0
        assert (tmp_path / "fig21.json").exists()

    def test_skip_requires_non_standard_mode(self):
        with pytest.raises(SystemExit):
            main(
                [
                    "train",
                    "--skip",
                    "--mode", "standard",
                    "--workers", "6",
                    "--iterations", "4",
                ]
            )


class TestCLISlowdownKnobs:
    """--scenario random / straggler carry every knob of the paper's
    two recipes (factor, probability, multi-worker straggler maps)."""

    def _slowdown(self, monkeypatch, *argv):
        """The slowdown model `repro train *argv` would run with."""
        import repro.cli

        specs = []

        def capture(spec):
            specs.append(spec)
            raise ValueError("captured")

        monkeypatch.setattr(repro.cli, "run_spec", capture)
        with pytest.raises(SystemExit):
            main(["train", *argv])
        (spec,) = specs
        return spec.built_scenario().slowdown

    def test_random_defaults_match_paper(self, monkeypatch):
        slowdown = self._slowdown(
            monkeypatch, "--workers", "16", "--scenario", "random"
        )
        assert isinstance(slowdown, RandomSlowdown)
        assert slowdown.slow_factor == 6.0
        assert slowdown.probability == pytest.approx(1 / 16)

    def test_random_factor_and_probability_override(self, monkeypatch):
        slowdown = self._slowdown(
            monkeypatch,
            "--scenario", "random",
            "--scenario-param", "factor=3.5",
            "--scenario-param", "probability=0.25",
        )
        assert slowdown.slow_factor == 3.5
        assert slowdown.probability == 0.25

    def test_straggler_default_matches_paper(self, monkeypatch):
        slowdown = self._slowdown(monkeypatch, "--scenario", "straggler")
        assert isinstance(slowdown, DeterministicSlowdown)
        assert slowdown.factors == {0: 4.0}

    def test_straggler_factor_override(self, monkeypatch):
        slowdown = self._slowdown(
            monkeypatch,
            "--scenario", "straggler",
            "--scenario-param", "factor=9",
        )
        assert slowdown.factors == {0: 9.0}

    def test_multi_worker_straggler_map(self, monkeypatch):
        slowdown = self._slowdown(
            monkeypatch,
            "--scenario", "straggler",
            "--scenario-param", 'workers={"0": 4, "3": 2.5, "5": 6}',
        )
        assert slowdown.factors == {0: 4.0, 3: 2.5, 5: 6.0}

    def _train_error(self, *argv):
        """The one-line error `repro train *argv` exits with."""
        with pytest.raises(SystemExit) as excinfo:
            main(["train", "--workers", "6", "--iterations", "4", *argv])
        message = str(excinfo.value.code)
        assert message.startswith("error: ")
        assert "\n" not in message
        return message

    def test_malformed_straggler_map_rejected(self):
        """The old --stragglers spelling passed as a map is a clean
        error, not a traceback."""
        message = self._train_error(
            "--scenario", "straggler", "--scenario-param", "workers=0:4"
        )
        assert "'workers' must be an object" in message
        message = self._train_error(
            "--scenario", "straggler",
            "--scenario-param", 'workers={"0": [4]}',
        )
        assert "'workers' must map worker ids to factors" in message

    def test_knobs_without_matching_kind_are_an_error(self):
        """A knob the chosen family does not read must not silently run
        that family's default."""
        message = self._train_error(
            "--scenario", "straggler", "--scenario-param", "probability=0.5"
        )
        assert "accepted: workers, worker, factor" in message
        message = self._train_error(
            "--scenario", "straggler",
            "--scenario-param", 'workers={"0": 4}',
            "--scenario-param", "factor=9",
        )
        assert "not both" in message

    def test_out_of_range_straggler_is_an_error(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(
                [
                    "train",
                    "--workers", "6",
                    "--iterations", "4",
                    "--scenario", "straggler",
                    "--scenario-param", 'workers={"9": 4}',
                ]
            )
        assert "out of range" in str(excinfo.value.code)

    def test_unknown_scenario_param_is_a_one_line_error(self):
        """A typo must not silently run the family's default."""
        with pytest.raises(SystemExit) as excinfo:
            main(
                [
                    "train",
                    "--workers", "4",
                    "--iterations", "4",
                    "--scenario", "random",
                    "--scenario-param", "probabilty=0.5",
                ]
            )
        message = str(excinfo.value.code)
        assert message.startswith("error: ")
        assert "\n" not in message
        assert "'probabilty'" in message
        assert "accepted: factor, probability" in message

    @pytest.mark.parametrize(
        "argv",
        [
            ["--slowdown", "random"],
            ["--slowdown-factor", "2"],
            ["--slowdown-prob", "0.5"],
            ["--stragglers", "0:4"],
        ],
    )
    def test_removed_slowdown_flags_are_rejected(self, argv, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["train", *argv])
        assert excinfo.value.code == 2
        assert argv[0] in capsys.readouterr().err

    def test_scenario_param_without_scenario_is_an_error(self):
        with pytest.raises(SystemExit):
            main(
                [
                    "train",
                    "--workers", "4",
                    "--iterations", "4",
                    "--scenario-param", "worker=2",
                ]
            )

    def test_train_runs_with_custom_knobs(self, capsys):
        code = main(
            [
                "train",
                "--workers", "6",
                "--iterations", "6",
                "--scenario", "random",
                "--scenario-param", "factor=2.0",
                "--scenario-param", "probability=0.5",
            ]
        )
        assert code == 0
        assert "wall_time" in capsys.readouterr().out

    def test_train_runs_with_multi_straggler(self, capsys):
        code = main(
            [
                "train",
                "--workers", "6",
                "--iterations", "6",
                "--scenario", "straggler",
                "--scenario-param", 'workers={"0": 3, "2": 2}',
            ]
        )
        assert code == 0
        assert "wall_time" in capsys.readouterr().out

    def test_run_summary_includes_fault_fields(self, tmp_path):
        code = main(
            [
                "train",
                "--workers", "6",
                "--iterations", "6",
                "--scenario", "lossy-net",
                "--scenario-param", "probability=0.2",
                "--out", str(tmp_path / "lossy.json"),
            ]
        )
        assert code == 0
        loaded = json.loads((tmp_path / "lossy.json").read_text())
        assert loaded["messages_dropped"] > 0
        assert loaded["fault_events"] == []


class TestRegistryJsonContract:
    """The --json tables are machine consumed (CI, the lint rules'
    shared source of truth): every row must carry the contract flags
    explicitly, never as an implied default."""

    PROTOCOL_FIELDS = {"name", "aliases", "summary", "paper", "elastic"}
    SCENARIO_FIELDS = {
        "name", "aliases", "params", "summary", "paper", "universal"
    }

    def test_protocols_json_rows_declare_elastic(self, capsys):
        assert main(["protocols", "--json"]) == 0
        rows = json.loads(capsys.readouterr().out)
        assert rows
        for row in rows:
            assert self.PROTOCOL_FIELDS <= set(row), row["name"]
            assert isinstance(row["elastic"], bool)
        # Since the full-grid elasticity pass every built-in protocol
        # is elastic; a False here means a registration silently lost
        # its churn support.
        for row in rows:
            assert row["elastic"] is True, row["name"]

    def test_scenarios_json_rows_declare_universal(self, capsys):
        assert main(["scenarios", "--json"]) == 0
        rows = json.loads(capsys.readouterr().out)
        assert rows
        for row in rows:
            assert self.SCENARIO_FIELDS <= set(row), row["name"]
            assert isinstance(row["universal"], bool)
        by_name = {row["name"]: row for row in rows}
        assert by_name["none"]["universal"] is True
        assert by_name["churn"]["universal"] is False

    def test_scenarios_list_accepted_params(self, capsys):
        """A recipe's knobs (factor=, probability=, workers=) are
        discoverable from `repro scenarios` alone."""
        assert main(["scenarios", "--json"]) == 0
        by_name = {
            row["name"]: row for row in json.loads(capsys.readouterr().out)
        }
        assert by_name["none"]["params"] == []
        assert by_name["random"]["params"] == ["factor", "probability"]
        assert set(by_name["straggler"]["params"]) == {
            "workers", "worker", "factor"
        }
        assert main(["scenarios"]) == 0
        out = capsys.readouterr().out
        assert "params: factor, probability" in out
        assert "params: none" in out

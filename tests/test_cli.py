"""Tests for the command-line interface."""

import json

import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_known_commands(self):
        parser = build_parser()
        for cmd in ("example", "table1", "figure6", "figure7", "generate"):
            args = parser.parse_args([cmd] if cmd in ("example",) else [cmd])
            assert args.command == cmd


class TestExample:
    def test_runs_and_prints_14(self, capsys):
        assert main(["example"]) == 0
        out = capsys.readouterr().out
        assert "14" in out
        assert "b-level" in out
        assert "GOAL" in out


class TestGenerate:
    def test_emits_valid_json(self, capsys):
        assert main(["generate", "--nodes", "12", "--ccr", "0.5", "--seed", "9"]) == 0
        data = json.loads(capsys.readouterr().out)
        assert len(data["weights"]) == 12


class TestSchedule:
    def test_astar_on_generated_file(self, tmp_path, capsys):
        main(["generate", "--nodes", "8", "--seed", "1"])
        data = capsys.readouterr().out
        path = tmp_path / "g.json"
        path.write_text(data)
        assert main(["schedule", str(path), "--pes", "3"]) == 0
        out = capsys.readouterr().out
        assert "optimal: True" in out
        assert "length:" in out

    @pytest.mark.parametrize("command", ["schedule", "solve"])
    def test_duplicate_edge_exits_2_naming_it(self, command, tmp_path, capsys):
        main(["generate", "--nodes", "8", "--seed", "3"])
        data = json.loads(capsys.readouterr().out)
        u, v, c = data["edges"][0]
        data["edges"].append([u, v, c + 100])
        path = tmp_path / "g.json"
        path.write_text(json.dumps(data))
        with pytest.raises(SystemExit) as exit_info:
            main([command, str(path), "--pes", "2"])
        assert exit_info.value.code == 2
        assert f"duplicate edge ({u}, {v})" in capsys.readouterr().err

    @pytest.mark.parametrize("algo", ["bnb", "focal", "list"])
    def test_other_algorithms(self, algo, tmp_path, capsys):
        main(["generate", "--nodes", "6", "--seed", "2"])
        data = capsys.readouterr().out
        path = tmp_path / "g.json"
        path.write_text(data)
        assert main(["schedule", str(path), "--pes", "2", "--algorithm", algo]) == 0

    def test_cost_and_pruning_flags(self, tmp_path, capsys):
        path = tmp_path / "g.json"
        main(["generate", "--nodes", "8", "--seed", "3"])
        path.write_text(capsys.readouterr().out)
        for cost in ("combined", "load"):
            assert main(["schedule", str(path), "--pes", "2",
                         "--cost", cost]) == 0
            assert "optimal: True" in capsys.readouterr().out
        assert main(["schedule", str(path), "--pes", "2",
                     "--pruning", "fixed-order"]) == 0
        assert "optimal: True" in capsys.readouterr().out
        assert main(["solve", str(path), "--pes", "2",
                     "--cost", "combined"]) == 0
        assert "certificate: proven" in capsys.readouterr().out

    def test_cost_choices_match_registry(self):
        """The parser's literal cost list must track the registry —
        a newly registered cost function must be reachable from the
        CLI, and a removed one must not linger in the choices."""
        from repro.cli import _COST_NAMES
        from repro.search.costs import COST_FUNCTIONS

        assert sorted(_COST_NAMES) == sorted(COST_FUNCTIONS)


class TestExperimentCommands:
    @pytest.mark.slow
    def test_table1_tiny(self, capsys):
        code = main([
            "table1", "--sizes", "10", "--ccrs", "1.0",
            "--max-expansions", "20000", "--max-seconds", "10",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "Table 1" in out

    def test_figure6_tiny(self, capsys):
        code = main([
            "figure6", "--sizes", "10", "--ccrs", "10.0",
            "--max-expansions", "20000", "--max-seconds", "10",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "Figure 6" in out
        assert "16 PPEs" in out

    def test_figure7_tiny(self, capsys):
        code = main([
            "figure7", "--sizes", "10", "--ccrs", "1.0",
            "--max-expansions", "20000", "--max-seconds", "10",
        ])
        assert code == 0
        assert "Figure 7" in capsys.readouterr().out

    def test_heuristics_tiny(self, capsys):
        code = main([
            "heuristics", "--sizes", "10", "--ccrs", "1.0",
            "--max-expansions", "20000", "--max-seconds", "10",
        ])
        assert code == 0
        assert "deviation" in capsys.readouterr().out

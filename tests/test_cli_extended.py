"""Tests for the extended CLI surface (new engines, STG, trace)."""

import json

import pytest

from repro.cli import main
from repro.graph.examples import paper_example_dag
from repro.graph.stg import save_stg


@pytest.fixture
def json_graph(tmp_path, capsys):
    main(["generate", "--nodes", "8", "--seed", "3"])
    path = tmp_path / "g.json"
    path.write_text(capsys.readouterr().out)
    return path


@pytest.fixture
def stg_graph(tmp_path):
    path = tmp_path / "example.stg"
    save_stg(paper_example_dag(), path)
    return path


class TestNewEngines:
    @pytest.mark.parametrize("algo", ["idastar", "wastar"])
    def test_engines_run(self, algo, json_graph, capsys):
        assert main(["schedule", str(json_graph), "--pes", "3",
                     "--algorithm", algo]) == 0
        out = capsys.readouterr().out
        assert "length:" in out

    def test_wastar_epsilon(self, json_graph, capsys):
        assert main(["schedule", str(json_graph), "--pes", "2",
                     "--algorithm", "wastar", "--epsilon", "0.5"]) == 0
        assert "wastar(eps=0.5)" in capsys.readouterr().out


class TestStgInput:
    def test_schedule_stg_file(self, stg_graph, capsys):
        assert main(["schedule", str(stg_graph), "--pes", "3",
                     "--topology", "ring"]) == 0
        out = capsys.readouterr().out
        # The paper example on its ring: optimal length 14.
        assert "length: 14" in out


class TestTrace:
    def test_trace_prints_tree(self, stg_graph, capsys):
        assert main(["schedule", str(stg_graph), "--pes", "3",
                     "--topology", "ring", "--trace"]) == 0
        out = capsys.readouterr().out
        assert "<initial>" in out
        assert "f = " in out

    def test_trace_ignored_for_other_engines(self, json_graph, capsys):
        assert main(["schedule", str(json_graph), "--pes", "2",
                     "--algorithm", "bnb", "--trace"]) == 0
        assert "<initial>" not in capsys.readouterr().out


class TestAblationCommand:
    @pytest.mark.slow
    def test_ablation_tiny(self, capsys):
        assert main(["ablation", "--sizes", "10", "--ccrs", "1.0",
                     "--max-expansions", "15000", "--max-seconds", "10"]) == 0
        out = capsys.readouterr().out
        assert "Pruning ablation" in out
        assert "extended" in out


class TestServiceCommands:
    def test_solve_cold_then_cached(self, json_graph, tmp_path, capsys):
        cache = tmp_path / "cache.db"
        assert main(["solve", str(json_graph), "--pes", "3",
                     "--cache", str(cache)]) == 0
        cold = capsys.readouterr().out
        assert "fingerprint:" in cold
        assert "certificate: proven" in cold
        assert main(["solve", str(json_graph), "--pes", "3",
                     "--cache", str(cache)]) == 0
        warm = capsys.readouterr().out
        assert "via: cache" in warm
        # Cached answer reports the same length as the cold solve.
        assert cold.split("length:")[1].split()[0] == \
            warm.split("length:")[1].split()[0]

    def test_solve_auto_mode(self, json_graph, capsys):
        assert main(["solve", str(json_graph), "--pes", "2",
                     "--mode", "auto"]) == 0
        assert "certificate:" in capsys.readouterr().out

    def test_batch_directory_with_output(self, json_graph, tmp_path, capsys):
        out_path = tmp_path / "results.jsonl"
        assert main(["batch", str(json_graph.parent), "--pes", "3",
                     "--out", str(out_path)]) == 0
        out = capsys.readouterr().out
        assert "batch results" in out
        assert "1 instances" in out
        rows = [json.loads(line) for line in out_path.read_text().splitlines()]
        assert rows[0]["certificate"] == "proven"
        assert len(rows[0]["assignment"]) == 8


class TestBadSolverOptions:
    """An out-of-range solver option stops the command before it solves:
    ``error: <message>`` and exit 2, not a ``proven`` answer."""

    @pytest.mark.parametrize("argv, message", [
        (["solve", "--deadline", "nan"], "deadline must be"),
        (["solve", "--epsilon", "-1"], "epsilon must be"),
        (["solve", "--workers", "0"], "solver_workers must be"),
        (["batch", "--max-expansions", "0"], "max_expansions must be"),
        (["batch", "--max-memory-mb", "-5"], "max_memory_mb must be"),
    ], ids=lambda v: "-".join(v) if isinstance(v, list) else None)
    def test_exits_2_before_solving(self, argv, message, json_graph, capsys):
        command, *flags = argv
        target = json_graph if command == "solve" else json_graph.parent
        assert main([command, str(target), "--pes", "2", *flags]) == 2
        out, err = capsys.readouterr()
        assert err.startswith("error: ") and message in err
        assert out == ""


class TestServeParser:
    """The serve subcommand's argparse surface (the daemon itself is
    exercised end-to-end in tests/service/test_server.py)."""

    def test_defaults(self):
        from repro.cli import build_parser

        args = build_parser().parse_args(["serve"])
        assert args.command == "serve"
        assert args.host == "127.0.0.1" and args.port == 8080
        assert args.solver_workers == 1 and args.queue_limit == 64
        assert args.cache is None and args.mode == "portfolio"

    def test_all_options(self):
        from repro.cli import build_parser

        args = build_parser().parse_args([
            "serve", "--host", "0.0.0.0", "--port", "0",
            "--solver-workers", "4", "--queue-limit", "128",
            "--cache", "results.db", "--deadline", "2.5",
            "--epsilon", "0.1", "--max-expansions", "9999",
            "--mode", "auto", "--require-proven",
        ])
        assert args.port == 0 and args.solver_workers == 4
        assert args.queue_limit == 128 and args.cache == "results.db"
        assert args.deadline == 2.5 and args.require_proven

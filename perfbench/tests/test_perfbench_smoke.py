"""A tiny-size pass of all four workloads, timed and traced, end to end."""

import json
from pathlib import Path

import hda
import inputs
import pytest
import run
import service

from repro.search.astar import astar_schedule
from repro.system.processors import ProcessorSystem


@pytest.fixture
def tiny(monkeypatch):
    monkeypatch.setattr(inputs, "WARM_INSTANCES", 3)
    monkeypatch.setattr(inputs, "WARM_SIZES", (10, 14))
    monkeypatch.setattr(inputs, "PRIME_EXPANSIONS", 100)
    monkeypatch.setattr(inputs, "COLD_PER_CELL", 1)
    monkeypatch.setattr(inputs, "COLD_SIZES", (8,))
    monkeypatch.setattr(inputs, "COLD_EXPANSIONS", 300)
    monkeypatch.setattr(inputs, "FLEET_POOL", 3)
    monkeypatch.setattr(inputs, "FLEET_POOL_SIZES", (8, 10))
    monkeypatch.setattr(inputs, "FLEET_FRESH_SIZES", (5, 7))
    monkeypatch.setattr(inputs, "FRESH_EXPANSIONS", 300)
    monkeypatch.setattr(service, "SETUPS", dict.fromkeys(service.SETUPS, 1))
    monkeypatch.setattr(hda, "SETUPS", 1)
    graph = inputs.paper_graph(11, 10.0, 3)
    system = ProcessorSystem.fully_connected(3)
    monkeypatch.setattr(inputs, "hda_row", lambda: (graph, system))
    monkeypatch.setattr(inputs, "HDA_OPTIMUM", astar_schedule(graph, system).length)


@pytest.mark.slow
@pytest.mark.parametrize("workload", run.WORKLOADS)
@pytest.mark.parametrize("trace", [0, 1])
def test_tiny_pass(tiny, capsys, workload, trace):
    code = run.main(["--workload", workload, "--seed", "3", "--seconds", "0.5",
                     "--trace", str(trace)])
    out = capsys.readouterr().out.strip().splitlines()
    result = json.loads(out[-1])
    assert code == 0, "\n".join(out[:-1])
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    spec = json.loads((Path(run.HERE).parent / "BENCHMARK.json").read_text())
    wanted = spec["per_layer" if trace else "end_to_end"]
    assert list(result["metrics"]) == [m["name"] for m in wanted]
    if not trace:
        assert all(m["value"] > 0 for m in result["metrics"].values())
    else:
        closure = result["metrics"]["ledger.closure"]["value"]
        assert 0.9 <= closure <= 1.1

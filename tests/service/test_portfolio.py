"""Portfolio solver: anytime guarantees, selection heuristic, provenance."""

import pytest
from hypothesis import given, settings

from repro.graph.generators.random_paper import PaperGraphSpec, paper_random_graph
from repro.graph.taskgraph import TaskGraph
from repro.heuristics.listsched import fast_upper_bound_schedule
from repro.schedule.validate import validate_schedule
from repro.search.astar import astar_schedule
from repro.search.pruning import PruningConfig
from repro.service.portfolio import (
    portfolio_schedule,
    select_engine,
    solve_auto,
)
from repro.system.processors import ProcessorSystem
from tests.strategies import scheduling_instances


class TestGuarantees:
    @settings(max_examples=20, deadline=None)
    @given(scheduling_instances(max_nodes=6, max_pes=3))
    def test_never_worse_than_list_and_matches_astar(self, instance):
        """The acceptance-criteria property, on tier-1-sized instances."""
        graph, system = instance
        result = portfolio_schedule(graph, system)
        listed = fast_upper_bound_schedule(graph, system)
        assert result.length <= listed.length + 1e-9
        assert result.optimal
        assert result.length == pytest.approx(
            astar_schedule(graph, system).length
        )
        validate_schedule(result.schedule)

    def test_floor_meeting_the_list_schedule_proves_it(self):
        """The ladder's certificate follows the engines' rule: here the
        exact stage's floor meets the list schedule's 283 on its second
        pop, so the answer is proven, not a ``budget`` guess."""
        graph = paper_random_graph(
            PaperGraphSpec(num_nodes=12, ccr=1.0, seed=172683743))
        system = ProcessorSystem.fully_connected(4)
        result = portfolio_schedule(graph, system, max_expansions=500,
                                    preprocess=True)
        assert result.certificate == "proven"
        assert result.length == result.lower_bound == 283.0
        assert result.interrupted is None
        assert result.stats.states_expanded <= 10

    @pytest.mark.parametrize("v,ccr,seed", [
        (10, 0.1, 11), (12, 1.0, 12), (10, 10.0, 13),
    ])
    def test_paper_style_instances_prove_optimal(self, v, ccr, seed):
        graph = paper_random_graph(PaperGraphSpec(num_nodes=v, ccr=ccr, seed=seed))
        system = ProcessorSystem.fully_connected(4)
        result = portfolio_schedule(graph, system, deadline=30.0)
        assert result.optimal and result.certificate == "proven"
        assert result.bound == 1.0
        assert result.length == pytest.approx(
            astar_schedule(graph, system).length
        )

    def test_zero_deadline_falls_back_to_list_schedule(self):
        graph = paper_random_graph(PaperGraphSpec(num_nodes=16, ccr=1.0, seed=9))
        system = ProcessorSystem.fully_connected(4)
        result = portfolio_schedule(graph, system, deadline=0.0)
        listed = fast_upper_bound_schedule(graph, system)
        assert result.length == pytest.approx(listed.length)
        assert not result.optimal
        assert result.certificate == "budget"
        assert result.winner == "list"
        assert [s.stage for s in result.stages] == ["list"]

    def test_improver_bound_survives_exact_timeout(self):
        """A completed WA* stage proves 1+ε even when exact search can't."""
        graph = paper_random_graph(PaperGraphSpec(num_nodes=18, ccr=10.0, seed=2))
        system = ProcessorSystem.fully_connected(6)
        result = portfolio_schedule(
            graph, system, epsilon=0.5, max_expansions=3_000
        )
        # Whatever happened, the bound is one of: unproven, the improver's
        # 1+ε factor, or a full proof — never something in between.
        assert (
            result.bound == float("inf")
            or result.bound <= 1.5 + 1e-9
        )
        if result.optimal:
            assert result.bound == 1.0


class TestProvenance:
    def test_stages_are_recorded_in_order(self):
        graph = paper_random_graph(PaperGraphSpec(num_nodes=10, ccr=1.0, seed=3))
        system = ProcessorSystem.fully_connected(3)
        result = portfolio_schedule(graph, system)
        names = [s.stage for s in result.stages]
        assert names[0] == "list"
        assert names[-1] == "exact"
        assert result.winner in names
        assert result.stages[0].improved  # the incumbent stage always "improves"

    def test_as_search_result_flattens(self):
        graph = paper_random_graph(PaperGraphSpec(num_nodes=8, ccr=1.0, seed=4))
        system = ProcessorSystem.fully_connected(3)
        flat = portfolio_schedule(graph, system).as_search_result()
        assert flat.algorithm.startswith("portfolio(")
        assert flat.optimal and flat.certificate == "proven"

    def test_stage_report_as_dict(self):
        graph = paper_random_graph(PaperGraphSpec(num_nodes=8, ccr=1.0, seed=5))
        system = ProcessorSystem.fully_connected(3)
        result = portfolio_schedule(graph, system)
        row = result.stages[0].as_dict()
        assert row["stage"] == "list" and "makespan" in row


class TestSelection:
    def test_small_instances_pick_astar(self):
        graph = paper_random_graph(PaperGraphSpec(num_nodes=10, ccr=1.0, seed=6))
        assert select_engine(graph, ProcessorSystem.fully_connected(4)) == "astar"

    def test_high_ccr_picks_bnb(self):
        graph = paper_random_graph(PaperGraphSpec(num_nodes=20, ccr=10.0, seed=7))
        assert select_engine(graph, ProcessorSystem.fully_connected(4)) == "bnb"

    def test_large_sparse_picks_wastar(self):
        # A long chain: large v, minimal density, low CCR.
        v = 24
        graph = TaskGraph(
            [5.0] * v, {(i, i + 1): 1.0 for i in range(v - 1)}
        )
        assert select_engine(graph, ProcessorSystem.fully_connected(4)) == "wastar"

    def test_solve_auto_runs_selected_engine(self):
        graph = paper_random_graph(PaperGraphSpec(num_nodes=10, ccr=1.0, seed=8))
        system = ProcessorSystem.fully_connected(3)
        result = solve_auto(graph, system)
        assert result.algorithm.startswith("astar")
        assert result.length == pytest.approx(
            astar_schedule(graph, system).length
        )

    def test_scarce_pes_pick_combined_cost(self):
        from repro.service.portfolio import select_cost

        graph = paper_random_graph(PaperGraphSpec(num_nodes=12, ccr=1.0, seed=6))
        assert select_cost(graph, ProcessorSystem.fully_connected(2)) == "combined"

    def test_abundant_pes_pick_paper_cost(self):
        """With a PE per task the load bound degenerates to the mean
        weight; the paper's cheap h wins (its own Table-1 argument)."""
        from repro.service.portfolio import select_cost

        graph = paper_random_graph(PaperGraphSpec(num_nodes=12, ccr=1.0, seed=6))
        assert select_cost(graph, ProcessorSystem.fully_connected(12)) == "paper"

    def test_auto_cost_resolves_and_matches_paper_result(self):
        """cost=None/'auto' must route through select_cost and return
        the same optimal makespan as an explicit paper-cost run."""
        graph = paper_random_graph(PaperGraphSpec(num_nodes=10, ccr=1.0, seed=9))
        system = ProcessorSystem.fully_connected(2)
        explicit = solve_auto(graph, system, cost="paper")
        auto = solve_auto(graph, system, cost="auto")
        default = solve_auto(graph, system)
        assert auto.length == explicit.length == default.length
        pres = portfolio_schedule(graph, system, cost="auto")
        assert pres.length == explicit.length

    @pytest.mark.parametrize("max_expanded", [None, 1])
    def test_wastar_dispatch_never_worse_than_its_incumbent(self, max_expanded):
        """The stage incumbent reaches weighted A* as it reaches astar,
        bnb and hda: a greedy eps=2 run (195 on its own) and a run
        stopped after one expansion (the list schedule, 211) both come
        back no longer than the optimum handed in as incumbent."""
        from repro.service.portfolio import _run_engine
        from repro.util.timing import Budget

        graph = paper_random_graph(PaperGraphSpec(num_nodes=8, ccr=1.0, seed=2))
        system = ProcessorSystem.fully_connected(3)
        incumbent = astar_schedule(graph, system).schedule
        assert incumbent.length < fast_upper_bound_schedule(graph, system).length
        res = _run_engine(
            "wastar", graph, system, budget=Budget(max_expanded=max_expanded),
            epsilon=2.0, cost="paper", incumbent=incumbent,
        )
        assert res.schedule.length <= incumbent.length


class TestDeadlineAccounting:
    """Regression tests (ISSUE 3): every stage's engine receives the
    *remaining* deadline (``deadline - elapsed``), never the original
    allotment — driven by a fake clock so stage overruns are exact."""

    def _fake_clock(self, monkeypatch):
        import repro.service.portfolio as pf

        clock = {"t": 1000.0}
        monkeypatch.setattr(pf.time, "perf_counter", lambda: clock["t"])
        return clock

    def _stub_result(self):
        import math

        from repro.search.result import SearchResult, SearchStats

        return SearchResult(
            schedule=None, optimal=False, bound=math.inf,
            stats=SearchStats(), algorithm="stub",
        )

    def test_exact_stage_receives_remaining_not_allotment(self, monkeypatch):
        import repro.service.portfolio as pf

        clock = self._fake_clock(monkeypatch)
        graph = paper_random_graph(PaperGraphSpec(num_nodes=16, ccr=1.0, seed=3))
        system = ProcessorSystem.fully_connected(4)

        real_list = pf.fast_upper_bound_schedule

        def slow_list(g, s):
            sched = real_list(g, s)
            clock["t"] += 1.0  # list stage burns 1s
            return sched

        captured = {}

        def engines(name, g, s, *, budget, **kw):
            if name == "wastar":  # the improver
                assert budget.max_seconds == pytest.approx((10.0 - 1.0) * 0.25)
                clock["t"] += 6.0  # overruns its 2.25s share by far
            else:
                captured["name"] = name
                captured["max_seconds"] = budget.max_seconds
            return self._stub_result()

        monkeypatch.setattr(pf, "fast_upper_bound_schedule", slow_list)
        monkeypatch.setattr(pf, "_run_engine", engines)

        result = pf.portfolio_schedule(graph, system, deadline=10.0)
        # The exact stage gets deadline - elapsed = 10 - 1 - 6 = 3, not
        # the original 10 (nor the improver's planned-but-overrun share).
        assert captured["max_seconds"] == pytest.approx(3.0)
        assert result.winner == "list"  # stubs never improved anything

    def test_exact_stage_skipped_when_improver_eats_the_deadline(
        self, monkeypatch
    ):
        import repro.service.portfolio as pf

        clock = self._fake_clock(monkeypatch)
        graph = paper_random_graph(PaperGraphSpec(num_nodes=16, ccr=1.0, seed=3))
        system = ProcessorSystem.fully_connected(4)

        def engines(name, *a, **kw):
            if name != "wastar":  # pragma: no cover - the bug
                raise AssertionError("exact stage ran past the deadline")
            clock["t"] += 60.0  # the improver blows way past the deadline
            return self._stub_result()

        monkeypatch.setattr(pf, "_run_engine", engines)

        result = pf.portfolio_schedule(graph, system, deadline=10.0)
        assert [s.stage for s in result.stages] == ["list", "improve"]
        assert not result.optimal

    def test_workers_hand_large_exact_stage_to_hda(self, monkeypatch):
        import repro.service.portfolio as pf

        graph = paper_random_graph(PaperGraphSpec(num_nodes=16, ccr=1.0, seed=3))
        system = ProcessorSystem.fully_connected(4)
        captured = {}

        def capture(name, g, s, *, workers=1, **kw):
            if name != "wastar":  # the improver is not the exact stage
                captured["name"] = name
                captured["workers"] = workers
            return self._stub_result()

        monkeypatch.setattr(pf, "_run_engine", capture)
        pf.portfolio_schedule(graph, system, workers=3)
        assert captured == {"name": "hda", "workers": 3}
        # Small instances stay serial even with workers granted.
        small = paper_random_graph(PaperGraphSpec(num_nodes=10, ccr=1.0, seed=3))
        pf.portfolio_schedule(small, ProcessorSystem.fully_connected(3), workers=3)
        assert captured["name"] != "hda"
        # High-CCR instances keep the selector's memory-safe B&B: HDA*
        # is A*-family and would hold full OPEN lists in every worker.
        heavy = paper_random_graph(PaperGraphSpec(num_nodes=16, ccr=10.0, seed=3))
        pf.portfolio_schedule(heavy, ProcessorSystem.fully_connected(4), workers=3)
        assert captured["name"] == "bnb"


class TestLadderPruning:
    """The ladder's set-up turns the commutation reduction on; the one
    stage step drops it again for B&B only."""

    def _record(self, monkeypatch):
        import repro.service.portfolio as pf

        seen = []
        real = pf.get_engine

        def get_engine(name):
            engine = real(name)

            def run(*args, pruning=None, **kw):
                seen.append((name, pruning))
                return engine(*args, pruning=pruning, **kw)
            return run

        monkeypatch.setattr(pf, "get_engine", get_engine)
        return seen

    def test_bnb_runs_without_commutation_and_the_rest_with_it(self, monkeypatch):
        import repro.service.portfolio as pf
        from repro.util.timing import Budget

        seen = self._record(monkeypatch)
        graph = paper_random_graph(PaperGraphSpec(num_nodes=10, ccr=1.0, seed=3))
        system = ProcessorSystem.fully_connected(3)
        s = pf._set_up(graph, system, cost=None, preprocess=True,
                       tracer=None, probe_every=None)
        assert s.pruning.commutation and s.pruning.root_symmetry
        skips = {}
        for name in ("astar", "wastar", "hda", "bnb"):
            res = pf._run_engine(
                name, s.graph, system, budget=Budget(), epsilon=0.5,
                cost=s.cost, workers=2, pruning=s.pruning,
            )
            skips[name] = res.stats.pruning.commutation_skips
        configs = dict(seen)
        for name in ("astar", "wastar", "hda"):
            assert configs[name] == s.pruning
            assert skips[name] > 0
        assert configs["bnb"] == PruningConfig(root_symmetry=True)
        assert skips["bnb"] == 0

    def test_ladder_stages_search_the_reduced_space(self, monkeypatch):
        """A sparse v18 instance: the improver (WA*) runs with
        commutation, the B&B exact stage without it."""
        import repro.service.portfolio as pf

        seen = self._record(monkeypatch)
        graph = paper_random_graph(PaperGraphSpec(num_nodes=18, ccr=1.0, seed=3))
        system = ProcessorSystem.fully_connected(2)
        assert pf.select_engine(graph, system) == "wastar"
        pf.portfolio_schedule(graph, system, max_expansions=400)
        assert [(name, cfg.commutation) for name, cfg in seen] == [
            ("wastar", True), ("bnb", False),
        ]
        seen.clear()
        pf.solve_auto(graph, system, max_expansions=400)
        assert [(name, cfg.commutation) for name, cfg in seen] == [
            ("wastar", True),
        ]

"""HDA* backend: correctness vs serial A*, budgets, ε, and the
shared-memory coordination primitives."""

import math
import os

import pytest
from hypothesis import given, settings

from repro.graph.generators.random_paper import PaperGraphSpec, paper_random_graph
from repro.obs.trace import Tracer
from repro.parallel.hda import hda_astar_schedule
from repro.parallel.mp_backend import pool_context
from repro.parallel.shared import SharedIncumbent, WorkerBoard, owner_of
from repro.schedule.partial import PartialSchedule
from repro.schedule.partial_reference import ReferencePartialSchedule
from repro.schedule.validate import schedule_violations
from repro.search.astar import astar_schedule
from repro.search.enumerate import enumerate_optimal
from repro.search.focal import focal_schedule
from repro.search.pruning import PruningConfig
from repro.search.result import SearchStats
from repro.system.processors import ProcessorSystem
from repro.util.timing import Budget
from tests.strategies import scheduling_instances


class TestHdaBasic:
    def test_paper_example(self, fig1_graph, fig1_system):
        result = hda_astar_schedule(fig1_graph, fig1_system, workers=2)
        assert result.optimal
        assert result.length == 14.0
        assert schedule_violations(result.schedule) == []

    def test_single_worker_falls_back_to_serial(self, fig1_graph, fig1_system):
        result = hda_astar_schedule(fig1_graph, fig1_system, workers=1)
        assert result.optimal
        assert result.length == 14.0
        assert result.algorithm == "astar"

    def test_serial_fallback_keeps_the_epsilon_contract(
        self, fig1_graph, fig1_system
    ):
        # workers=1 + epsilon > 0 must not degrade to an exact search:
        # the focal engine proves the same 1+eps bound hda would.
        result = hda_astar_schedule(
            fig1_graph, fig1_system, workers=1, epsilon=0.5
        )
        assert result.bound == 1.5
        assert "focal" in result.algorithm

    def test_serial_epsilon_fallback_prunes_with_the_incumbent(self):
        # The caller's incumbent seeds focal's U cut, not just the
        # returned schedule: the fallback does focal's exact work.
        graph = paper_random_graph(PaperGraphSpec(num_nodes=12, ccr=1.0, seed=0))
        system = ProcessorSystem.fully_connected(2)
        best = astar_schedule(graph, system).schedule
        fallback = hda_astar_schedule(
            graph, system, workers=1, epsilon=0.3, incumbent=best
        )
        direct = focal_schedule(graph, system, 0.3, incumbent=best)
        assert fallback.stats.states_generated == direct.stats.states_generated
        assert fallback.length == direct.length
        assert fallback.lower_bound == direct.lower_bound

    def test_reference_state_cls_falls_back_to_serial(
        self, fig1_graph, fig1_system
    ):
        result = hda_astar_schedule(
            fig1_graph, fig1_system, workers=2,
            state_cls=ReferencePartialSchedule,
        )
        assert result.optimal
        assert result.length == 14.0
        assert result.algorithm == "astar"

    def test_trivial_instance(self):
        from repro.graph.taskgraph import TaskGraph

        g = TaskGraph([5], {})
        result = hda_astar_schedule(g, ProcessorSystem(2), workers=2)
        assert result.optimal
        assert result.length == 5.0


class TestHdaExitPaths:
    """Each coordinator exit comes from its own path: the seed phase
    alone spawns no worker, the workers' quiescence follows a spawn."""

    @staticmethod
    def _solve(graph, system, **kw):
        tracer = Tracer()
        result = hda_astar_schedule(graph, system, workers=2, tracer=tracer, **kw)
        spans = [r for r in tracer.drain()
                 if r["kind"] == "span_start" and r["name"] == "hda.worker"]
        return result, spans

    @staticmethod
    def _instance():
        graph = paper_random_graph(PaperGraphSpec(num_nodes=10, ccr=1.0, seed=77))
        return graph, ProcessorSystem.fully_connected(2)

    def test_one_task_ends_in_the_seed_phase(self):
        from repro.graph.taskgraph import TaskGraph

        result, spans = self._solve(TaskGraph([5], {}), ProcessorSystem(2))
        assert result.algorithm == "hda(seed,workers=2)"
        assert result.optimal
        assert spans == []

    def test_a_floor_that_meets_the_bound_ends_in_the_seed_phase(self):
        # The list bound is optimal here and the root's one child ties
        # it, so the seed phase's floor proves it: no worker is spawned
        # to walk the states below the bound.
        from repro.workloads.suite import paper_suite

        inst = paper_suite().get(0.1, 16)
        result, spans = self._solve(inst.graph, inst.system)
        assert result.algorithm == "hda(seed,workers=2)"
        assert result.optimal
        assert spans == []

    def test_a_small_budget_ends_in_the_seed_phase(self):
        result, spans = self._solve(*self._instance(), budget=Budget(max_expanded=3))
        assert result.algorithm == "hda(budget,workers=2)"
        assert result.interrupted == "expansions"
        assert result.stats.states_expanded == 3
        assert spans == []

    @pytest.mark.timeout(120)
    def test_a_wide_frontier_is_searched_by_both_workers(self):
        result, spans = self._solve(*self._instance())
        assert result.algorithm == "hda(workers=2)"
        assert result.optimal
        assert sorted(s["attrs"]["wid"] for s in spans) == [0, 1]


@pytest.mark.slow
class TestHdaMatchesSerial:
    @pytest.mark.parametrize("v,ccr,seed,workers", [
        (10, 1.0, 3, 2),
        (12, 1.0, 7, 3),
        (14, 10.0, 5, 4),
        (12, 0.1, 11, 2),
    ])
    def test_byte_identical_optimal_makespan(self, v, ccr, seed, workers):
        """The acceptance property: same proven-optimal makespan, ==."""
        graph = paper_random_graph(PaperGraphSpec(num_nodes=v, ccr=ccr, seed=seed))
        system = ProcessorSystem.fully_connected(4)
        serial = astar_schedule(graph, system)
        parallel = hda_astar_schedule(graph, system, workers=workers)
        assert serial.optimal and parallel.optimal
        assert parallel.length == serial.length  # byte-identical floats
        assert schedule_violations(parallel.schedule) == []

    def test_combined_cost_matches_serial(self):
        """The load-bound aggregates survive to_wire/from_wire: HDA*
        under the composite bound proves the same makespan as serial
        (on a 2-PE target, where the load component actually binds)."""
        graph = paper_random_graph(PaperGraphSpec(num_nodes=12, ccr=1.0, seed=9))
        system = ProcessorSystem.fully_connected(2)
        serial = astar_schedule(graph, system, cost="combined")
        parallel = hda_astar_schedule(graph, system, workers=2, cost="combined")
        assert serial.optimal and parallel.optimal
        assert parallel.length == serial.length
        assert parallel.stats.pruning.fixed_order_skips == 0  # rule off

    def test_fixed_task_order_matches_serial(self):
        graph = paper_random_graph(PaperGraphSpec(num_nodes=12, ccr=0.1, seed=6))
        system = ProcessorSystem.fully_connected(2)
        pruning = PruningConfig.with_fixed_order()
        serial = astar_schedule(graph, system, pruning=pruning)
        parallel = hda_astar_schedule(
            graph, system, workers=2, pruning=pruning
        )
        assert serial.optimal and parallel.optimal
        assert parallel.length == serial.length

    def test_preprocessed_instance_matches_serial(self):
        """The reduced graph plus implied pruning overrides, through the
        parallel engine: same proven optimum as serial A* on the reduced
        graph, and both restore to the raw instance's optimum."""
        from repro.schedule.preprocess import preprocess_instance
        from repro.schedule.validate import schedule_violations

        graph = paper_random_graph(PaperGraphSpec(num_nodes=12, ccr=0.1, seed=6))
        system = ProcessorSystem.fully_connected(2)
        pre = preprocess_instance(graph, system)
        pruning = PruningConfig(**pre.pruning_overrides())
        serial = astar_schedule(pre.graph, system, pruning=pruning)
        parallel = hda_astar_schedule(
            pre.graph, system, workers=2, pruning=pruning
        )
        assert serial.optimal and parallel.optimal
        assert parallel.length == serial.length
        raw = astar_schedule(graph, system)
        restored = pre.restore(parallel.schedule)
        assert schedule_violations(restored) == []
        assert restored.length == raw.length

    def test_root_symmetry_matches_serial(self):
        graph = paper_random_graph(PaperGraphSpec(num_nodes=12, ccr=1.0, seed=9))
        system = ProcessorSystem.fully_connected(3)
        pruning = PruningConfig.with_symmetry()
        serial = astar_schedule(graph, system, pruning=pruning)
        parallel = hda_astar_schedule(
            graph, system, workers=2, pruning=pruning
        )
        assert serial.optimal and parallel.optimal
        assert parallel.length == serial.length
        assert parallel.stats.pruning.symmetry_skips > 0

    @pytest.mark.parametrize("seed", [1, 2, 4, 5])
    def test_commutation_matches_oracle(self, seed):
        """States received from a peer (or dealt as seeds) keep their
        last placement on the wire, so the commutation rule prunes in
        the workers too — and the answer is still the exhaustively
        enumerated optimum."""
        graph = paper_random_graph(PaperGraphSpec(num_nodes=8, ccr=1.0, seed=seed))
        system = ProcessorSystem.fully_connected(3)
        parallel = hda_astar_schedule(
            graph, system, workers=2, pruning=PruningConfig.extended(),
            oversubscribe=1,
        )
        assert parallel.algorithm == "hda(workers=2)"  # the workers ran
        assert parallel.optimal
        assert parallel.length == enumerate_optimal(graph, system).length
        assert parallel.stats.pruning.commutation_skips > 0
        assert schedule_violations(parallel.schedule) == []

    def test_incumbent_seeding(self):
        graph = paper_random_graph(PaperGraphSpec(num_nodes=12, ccr=1.0, seed=4))
        system = ProcessorSystem.fully_connected(3)
        serial = astar_schedule(graph, system)
        seeded = hda_astar_schedule(
            graph, system, workers=2, incumbent=serial.schedule
        )
        assert seeded.optimal
        assert seeded.length == serial.length

    def test_budget_run_is_unproven_but_feasible(self):
        graph = paper_random_graph(PaperGraphSpec(num_nodes=16, ccr=1.0, seed=2))
        system = ProcessorSystem.fully_connected(4)
        result = hda_astar_schedule(
            graph, system, workers=2, budget=Budget(max_expanded=300)
        )
        assert not result.optimal
        assert result.bound == math.inf
        assert result.certificate == "budget"
        assert "budget" in result.algorithm
        assert schedule_violations(result.schedule) == []

    def test_verify_signatures_mode_stays_exact(self):
        """Verify mode decodes every arriving record at admission (the
        exact signature needs the arrays): still exact, and states
        really cross the pipes."""
        from repro.search.pruning import PruningConfig

        graph = paper_random_graph(PaperGraphSpec(num_nodes=12, ccr=1.0, seed=7))
        system = ProcessorSystem.fully_connected(3)
        serial = astar_schedule(graph, system)
        tracer = Tracer()
        verified = hda_astar_schedule(
            graph, system, workers=2,
            pruning=PruningConfig(verify_signatures=True), tracer=tracer,
        )
        assert verified.optimal
        assert verified.length == serial.length
        transfer = _transfer_totals(tracer)
        assert transfer["states_sent"] > 0
        assert transfer["states_sent"] == transfer["states_received"]

    def test_three_workers_all_send_and_receive(self):
        graph = paper_random_graph(PaperGraphSpec(num_nodes=12, ccr=1.0, seed=7))
        system = ProcessorSystem.fully_connected(3)
        serial = astar_schedule(graph, system)
        tracer = Tracer()
        parallel = hda_astar_schedule(graph, system, workers=3, tracer=tracer)
        assert parallel.optimal
        assert parallel.length == serial.length
        workers = _worker_transfers(tracer)
        assert sorted(w["wid"] for w in workers) == [0, 1, 2]
        for w in workers:
            assert w["states_sent"] > 0 and w["states_received"] > 0
            assert w["batches_sent"] > 0 and w["bytes_sent"] > 0
            assert min(w["encode_s"], w["decode_s"], w["idle_s"]) >= 0.0
        transfer = _transfer_totals(tracer)
        # Quiescence proves nothing was left in flight.
        assert transfer["states_sent"] == transfer["states_received"]
        assert transfer["batches_sent"] == transfer["batches_received"]
        assert transfer["bytes_sent"] == transfer["bytes_received"]

    def test_records_too_large_for_a_message_stay_local(self, monkeypatch):
        """When not even one record fits a message, every child stays
        with the worker that generated it: nothing is sent, and the
        answer is still the proven optimum."""
        from repro.parallel import shared

        monkeypatch.setattr(shared, "MESSAGE_BYTES", 64)
        graph = paper_random_graph(PaperGraphSpec(num_nodes=12, ccr=1.0, seed=7))
        system = ProcessorSystem.fully_connected(3)
        serial = astar_schedule(graph, system)
        tracer = Tracer()
        parallel = hda_astar_schedule(graph, system, workers=2, tracer=tracer)
        assert parallel.optimal
        assert parallel.length == serial.length
        transfer = _transfer_totals(tracer)
        assert transfer["states_sent"] == transfer["states_received"] == 0

    def test_generation_budget_is_enforced_in_workers(self):
        graph = paper_random_graph(PaperGraphSpec(num_nodes=16, ccr=1.0, seed=2))
        system = ProcessorSystem.fully_connected(4)
        result = hda_astar_schedule(
            graph, system, workers=2, budget=Budget(max_generated=2_000)
        )
        assert not result.optimal
        assert "budget" in result.algorithm
        # Overshoot is bounded by roughly one chunk per worker.
        assert result.stats.states_generated < 50_000

    def test_epsilon_bound(self):
        graph = paper_random_graph(PaperGraphSpec(num_nodes=12, ccr=1.0, seed=9))
        system = ProcessorSystem.fully_connected(3)
        exact = astar_schedule(graph, system)
        approx = hda_astar_schedule(graph, system, workers=2, epsilon=0.5)
        assert not approx.optimal  # ε > 0 never claims exact optimality
        assert approx.bound == 1.5
        assert approx.certificate == "epsilon"
        assert approx.length <= 1.5 * exact.length + 1e-9


class TestHdaWorkerChildren:
    """The worker loop costs and cuts each child from its parent, and
    builds only the children that survive the bound and CLOSED."""

    @pytest.mark.skipif(
        pool_context().get_start_method() != "fork",
        reason="counts calls through a patch the workers inherit by fork",
    )
    def test_workers_build_only_the_children_they_keep(self, monkeypatch):
        graph = paper_random_graph(PaperGraphSpec(num_nodes=12, ccr=1.0, seed=7))
        system = ProcessorSystem.fully_connected(3)
        parent = os.getpid()
        built = pool_context().Value("q", 0)
        extend = PartialSchedule.extend

        def counting_extend(self, *args, **kwargs):
            if os.getpid() != parent:
                with built.get_lock():
                    built.value += 1
            return extend(self, *args, **kwargs)

        worker_generated = []
        merge = SearchStats.merge

        def recording_merge(self, other):
            worker_generated.append(other.states_generated)
            return merge(self, other)

        monkeypatch.setattr(PartialSchedule, "extend", counting_extend)
        monkeypatch.setattr(SearchStats, "merge", recording_merge)
        result = hda_astar_schedule(graph, system, workers=2)
        assert result.algorithm == "hda(workers=2)"  # the workers searched
        assert result.optimal
        assert len(worker_generated) == 2
        assert 0 < built.value <= sum(worker_generated)

    @pytest.mark.parametrize("cost", ["paper", "combined", "load", "zero", "improved"])
    @pytest.mark.parametrize("system", [
        ProcessorSystem.ring(3, speeds=[1.0, 2.0, 0.5]),
        ProcessorSystem(3, links=ProcessorSystem.chain(3).links, distance_scaled=True),
    ], ids=["hetero-ring", "distance-scaled-chain"])
    def test_matches_serial_off_the_homogeneous_clique(self, system, cost):
        """Each cost class's preview carries speeds and hop-scaled links
        into the workers' cut: the same optimum as serial A*."""
        graph = paper_random_graph(PaperGraphSpec(num_nodes=9, ccr=1.0, seed=4))
        serial = astar_schedule(graph, system, cost=cost)
        parallel = hda_astar_schedule(
            graph, system, workers=2, cost=cost, oversubscribe=1,
        )
        assert parallel.algorithm == "hda(workers=2)"  # past the seed phase
        assert serial.optimal and parallel.optimal
        assert parallel.length == serial.length
        assert schedule_violations(parallel.schedule) == []


def _worker_transfers(tracer):
    """The transfer counters the coordinator attached to each worker span."""
    return [
        r["attrs"] for r in tracer.buffer
        if r["kind"] == "span_start" and r["name"] == "hda.worker"
    ]


def _transfer_totals(tracer):
    totals: dict[str, float] = {}
    for attrs in _worker_transfers(tracer):
        for k, val in attrs.items():
            if k != "wid":
                totals[k] = totals.get(k, 0) + val
    return totals


@pytest.mark.slow
@settings(max_examples=8, deadline=None)
@given(scheduling_instances(max_nodes=6, max_pes=3))
def test_hda_matches_reference_harness(instance):
    """ISSUE-3 equivalence harness: the multiprocess engine must return
    the byte-identical optimal makespan the reference tuple-state serial
    A* returns (and exhaustive enumeration confirms)."""
    graph, system = instance
    ref = astar_schedule(graph, system, state_cls=ReferencePartialSchedule)
    par = hda_astar_schedule(graph, system, workers=2, oversubscribe=2)
    opt = enumerate_optimal(graph, system)
    assert ref.optimal and par.optimal
    assert par.length == ref.length
    assert par.length == opt.length
    assert schedule_violations(par.schedule) == []


class TestSharedPrimitives:
    def test_owner_of_is_deterministic_and_in_range(self):
        keys = [(3, 0xDEADBEEF), (3, 0xDEADBEF0), ((1 << 70) | 5, 42), (0, 0)]
        for key in keys:
            owners = {owner_of(key, 4) for _ in range(3)}
            assert len(owners) == 1
            assert 0 <= owners.pop() < 4
        # Different zobrists should not all collapse onto one owner.
        spread = {owner_of((7, z), 4) for z in range(64)}
        assert len(spread) > 1

    def test_shared_incumbent_cas(self):
        ctx = pool_context()
        inc = SharedIncumbent(ctx, 100.0)
        assert inc.value == 100.0
        assert inc.try_improve(90.0)
        assert not inc.try_improve(95.0)  # worse: rejected
        assert not inc.try_improve(90.0)  # equal: rejected
        assert inc.value == 90.0

    def test_worker_board_quiescence_protocol(self):
        ctx = pool_context()
        board = WorkerBoard(ctx, 2)
        assert not board.quiescent()  # workers start non-idle
        board.set_idle(0, True)
        board.set_idle(1, True)
        assert board.quiescent()
        board.count_sent(0)  # batch in flight: sent > received
        assert not board.quiescent()
        board.set_idle(1, False)  # receiver wakes...
        board.count_received(1)  # ...and consumes it
        assert not board.quiescent()  # not idle yet
        board.set_idle(1, True)
        assert board.quiescent()
        assert board.counters() == {"sent": 1, "received": 1}

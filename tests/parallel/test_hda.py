"""HDA* backend: correctness vs serial A*, budgets, ε, and the
shared-memory coordination primitives."""

import math

import pytest
from hypothesis import given, settings

from repro.graph.generators.random_paper import PaperGraphSpec, paper_random_graph
from repro.parallel.hda import hda_astar_schedule
from repro.parallel.mp_backend import pool_context
from repro.parallel.shared import Outbox, SharedIncumbent, WorkerBoard, owner_of
from repro.schedule.partial_reference import ReferencePartialSchedule
from repro.schedule.validate import schedule_violations
from repro.search.astar import astar_schedule
from repro.search.enumerate import enumerate_optimal
from repro.search.focal import focal_schedule
from repro.search.pruning import PruningConfig
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
        from repro.search.pruning import PruningConfig

        graph = paper_random_graph(PaperGraphSpec(num_nodes=12, ccr=1.0, seed=7))
        system = ProcessorSystem.fully_connected(3)
        serial = astar_schedule(graph, system)
        verified = hda_astar_schedule(
            graph, system, workers=2,
            pruning=PruningConfig(verify_signatures=True),
        )
        assert verified.optimal
        assert verified.length == serial.length

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

    def test_worker_board_uncount_sent_rolls_back(self):
        ctx = pool_context()
        board = WorkerBoard(ctx, 1)
        board.set_idle(0, True)
        board.count_sent(0)
        assert not board.quiescent()
        board.uncount_sent(0)  # failed non-blocking put
        assert board.quiescent()

    def test_outbox_batches_and_flow_control(self):

        ctx = pool_context()
        board = WorkerBoard(ctx, 2)
        q0, q1 = ctx.Queue(maxsize=1), ctx.Queue(maxsize=1)
        out = Outbox(0, [q0, q1], board, batch_size=2)
        out.send(1, "a")
        assert out.pending  # below batch size: buffered
        out.send(1, "b")  # batch filled: flushed
        for _ in range(100):  # mp.Queue puts are asynchronous
            if not q1.empty():
                break
            import time

            time.sleep(0.01)
        assert q1.get(timeout=2.0) == ["a", "b"]
        # Fill the destination, then overflow it: flush must not block.
        q1.put("blocker")
        out.send(1, "c")
        out.send(1, "d")  # triggers a flush attempt against a full queue
        assert out.pending
        assert not out.flush_all()
        assert q1.get(timeout=2.0) == "blocker"
        for _ in range(100):
            if out.flush_all():
                break
            import time

            time.sleep(0.01)
        assert not out.pending
        assert q1.get(timeout=2.0) == ["c", "d"]
        out.send(0, "e")
        out.drop_all()
        assert not out.pending

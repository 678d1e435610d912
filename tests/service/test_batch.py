"""Batch front-end: dedupe, cache reuse, loaders, and fan-out."""

import json

import pytest

from repro.graph.generators.random_paper import PaperGraphSpec, paper_random_graph
from repro.graph.io import graph_to_dict, save_graph_json
from repro.errors import WorkloadError
from repro.schedule.validate import validate_schedule
from repro.parallel.hda import hda_astar_schedule
from repro.search.astar import astar_schedule
from repro.service.batch import (
    BatchItem,
    SolveOptions,
    _job_for,
    _worker_solve,
    items_from_suite,
    load_items,
    run_batch,
)
from repro.service.cache import CacheEntry, ResultCache
from repro.system.processors import ProcessorSystem
from tests.service.test_fingerprint import permuted


#: The budget most batch tests solve under.
FAST = SolveOptions(max_expansions=50_000)


def make_item(name: str, v: int = 8, seed: int = 1, pes: int = 3) -> BatchItem:
    graph = paper_random_graph(PaperGraphSpec(num_nodes=v, ccr=1.0, seed=seed))
    return BatchItem(
        name=name, graph=graph, system=ProcessorSystem.fully_connected(pes)
    )


class TestDedupe:
    def test_identical_requests_solved_once(self):
        items = [make_item("a"), make_item("b"), make_item("c", seed=2)]
        report = run_batch(items, options=FAST)
        assert report.solved == 2  # two unique fingerprints
        assert report.deduped == 1
        a, b, c = report.outcomes
        assert not a.shared and b.shared and not c.shared
        assert a.fingerprint == b.fingerprint != c.fingerprint
        assert a.makespan == pytest.approx(b.makespan)

    def test_relabeled_twin_dedupes_onto_original(self):
        """The whole point of canonical fingerprints, end to end."""
        base = make_item("orig")
        twin = BatchItem(
            name="twin", graph=permuted(base.graph, seed=17), system=base.system
        )
        report = run_batch([base, twin], options=FAST)
        assert report.solved == 1 and report.deduped == 1
        orig, shared = report.outcomes
        assert shared.shared
        assert orig.makespan == pytest.approx(shared.makespan)
        # The fanned-out schedule must be feasible in the twin's own
        # node numbering, not just equal in length.
        validate_schedule(shared.schedule)


class TestCacheIntegration:
    def test_solve_then_hit_returns_identical_schedule(self, tmp_path):
        cache = ResultCache(tmp_path / "c.db")
        item = make_item("x")
        cold = run_batch([item], cache=cache, options=FAST)
        warm = run_batch([item], cache=cache)
        assert cold.solved == 1 and cold.cache_hits == 0
        assert warm.solved == 0 and warm.cache_hits == 1
        assert warm.outcomes[0].cached
        assert warm.outcomes[0].schedule == cold.outcomes[0].schedule
        assert warm.outcomes[0].certificate == cold.outcomes[0].certificate
        cache.close()

    def test_cached_optimum_matches_astar(self, tmp_path):
        cache = ResultCache(tmp_path / "c.db")
        item = make_item("x")
        run_batch([item], cache=cache, options=FAST)
        warm = run_batch([item], cache=cache)
        opt = astar_schedule(item.graph, item.system)
        assert warm.outcomes[0].makespan == pytest.approx(opt.length)
        cache.close()

    def test_require_proven_resolves_stale_entries(self, tmp_path):
        cache = ResultCache(tmp_path / "c.db")
        item = make_item("x", v=10)
        # A tiny budget cannot prove optimality -> "budget" certificate.
        first = run_batch(
            [item], cache=cache,
            options=SolveOptions(max_expansions=1, mode="auto"),
        )
        assert first.outcomes[0].certificate == "budget"
        # Plain rerun serves the unproven entry...
        assert run_batch([item], cache=cache).outcomes[0].cached
        # ...but require_proven re-solves and upgrades it.
        fixed = run_batch(
            [item], cache=cache,
            options=SolveOptions(require_proven=True, max_expansions=100_000),
        )
        assert not fixed.outcomes[0].cached
        assert fixed.outcomes[0].certificate == "proven"
        assert cache.stale >= 1
        cache.close()

    def test_refused_put_never_serves_an_entry_that_does_not_fit(self):
        """A stored entry that wins the replacement order but covers
        fewer nodes than the instance is not served: the fresh result
        is (the cache-hit pass applies the same rule)."""
        item = make_item("x")
        fresh = run_batch([item], options=FAST).outcomes[0]
        cache = ResultCache(None)
        cache.put(CacheEntry(
            fingerprint=fresh.fingerprint, assignment=((0, 0.0),),
            makespan=0.5, certificate="proven", bound=0.5, algorithm="x",
        ))
        out = run_batch([item], cache=cache, options=FAST).outcomes[0]
        assert not out.cached
        assert out.makespan == pytest.approx(fresh.makespan)
        validate_schedule(out.schedule)


class TestWorkers:
    def test_multiprocess_matches_serial(self):
        items = [make_item(f"i{k}", seed=k) for k in range(3)]
        serial = run_batch(items, options=FAST)
        fanned = run_batch(items, workers=2, options=FAST)
        assert [o.makespan for o in serial.outcomes] == \
            pytest.approx([o.makespan for o in fanned.outcomes])
        assert all(o.certificate == "proven" for o in fanned.outcomes)

    def test_caller_provided_pool_is_reused_not_closed(self):
        """run_batch(pool=...) dispatches on the persistent pool and
        leaves its lifetime to the caller (the daemon's usage)."""
        from repro.parallel.mp_backend import SolverPool

        items = [make_item(f"p{k}", seed=k) for k in range(3)]
        serial = run_batch(items, options=FAST)
        with SolverPool(2) as pool:
            pool.warm()
            first = run_batch(items, pool=pool, options=FAST)
            second = run_batch(items, pool=pool, options=FAST)
            assert not pool.closed
        assert [o.makespan for o in first.outcomes] == \
            pytest.approx([o.makespan for o in serial.outcomes])
        assert [o.makespan for o in second.outcomes] == \
            pytest.approx([o.makespan for o in serial.outcomes])


class TestLoaders:
    def test_directory_of_graphs(self, tmp_path):
        for k in range(2):
            graph = paper_random_graph(
                PaperGraphSpec(num_nodes=6, ccr=1.0, seed=k)
            )
            save_graph_json(graph, tmp_path / f"g{k}.json")
        items = load_items(tmp_path, pes=3)
        assert [item.name for item in items] == ["g0", "g1"]
        assert all(item.system.num_pes == 3 for item in items)

    def test_jsonl_stream(self, tmp_path):
        graph = paper_random_graph(PaperGraphSpec(num_nodes=6, ccr=1.0, seed=3))
        lines = [
            json.dumps({"name": "j1", "graph": graph_to_dict(graph), "pes": 2}),
            "",  # blank lines are skipped
            json.dumps({"graph": graph_to_dict(graph)}),
        ]
        path = tmp_path / "req.jsonl"
        path.write_text("\n".join(lines))
        items = load_items(path)
        assert items[0].name == "j1" and items[0].system.num_pes == 2
        assert items[1].name == "line-3"  # default PEs: v
        assert items[1].system.num_pes == 6

    def test_empty_input_raises(self, tmp_path):
        with pytest.raises(WorkloadError):
            load_items(tmp_path)

    def test_suite_items(self):
        items = items_from_suite()
        assert len(items) == 18  # 3 CCRs x 6 default sizes
        assert all(isinstance(item, BatchItem) for item in items)


class TestReport:
    def test_render_and_dicts(self):
        report = run_batch([make_item("a", v=6)], options=FAST)
        text = report.render()
        assert "batch results" in text and "1 instances" in text
        row = report.outcomes[0].as_dict()
        assert row["name"] == "a" and len(row["assignment"]) == 6
        agg = report.as_dict()
        assert agg["instances"] == 1 and agg["instances_per_second"] > 0
        # Both solve modes return one worker payload schema.
        keys = {
            mode: set(_worker_solve(_job_for(
                make_item("a", v=6), "fp",
                SolveOptions(cost="paper", max_expansions=50_000, mode=mode),
            )))
            for mode in ("portfolio", "auto")
        }
        assert keys["portfolio"] == keys["auto"] == {
            "fingerprint", "assignment", "certificate", "bound", "algorithm",
            "winner", "stats", "seconds", "lower_bound", "interrupted",
            "trace_events",
        }

    def test_rejects_unknown_mode(self):
        with pytest.raises(ValueError, match="unknown mode"):
            SolveOptions(mode="nope")


@pytest.mark.slow
class TestSolverWorkers:
    def test_solver_workers_reach_the_hda_engine(self):
        """`solver_workers > 1` must route a large exact solve through
        the multiprocess HDA* engine on the in-process path."""
        from repro.workloads.suite import paper_suite

        inst = paper_suite().get(0.1, 16)
        item = BatchItem(name="big", graph=inst.graph, system=inst.system)
        # portfolio mode: the exact stage always runs, and with workers
        # granted it must be the hda engine on a v > 14 instance.
        report = run_batch([item], options=SolveOptions(
            mode="portfolio", solver_workers=2, deadline=8.0,
            max_expansions=None,
        ))
        out = report.outcomes[0]
        assert out.certificate == "proven"
        assert "hda" in out.algorithm
        # Cross-check against the engine called directly.  (Serial A*
        # is no baseline here: this instance's list bound is already
        # optimal and serial A* grinds the f == U plateau for minutes —
        # the exact behaviour the HDA* incumbent pruning eliminates.)
        direct = hda_astar_schedule(inst.graph, inst.system, workers=2)
        assert direct.optimal
        assert out.makespan == direct.length

    def test_solver_workers_on_small_instances_stay_serial(self):
        report = run_batch(
            [make_item("small", v=6)],
            options=SolveOptions(mode="auto", solver_workers=2),
        )
        out = report.outcomes[0]
        assert "hda" not in out.algorithm
        assert out.certificate == "proven"

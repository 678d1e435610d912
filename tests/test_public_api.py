"""The public API surface: everything in __all__ exists and works."""

import pytest

import repro


class TestPublicSurface:
    def test_all_names_resolve(self):
        for name in repro.__all__:
            assert hasattr(repro, name), f"missing public name {name}"

    def test_version(self):
        assert repro.__version__

    def test_error_hierarchy(self):
        assert issubclass(repro.GraphError, repro.ReproError)
        assert issubclass(repro.CycleError, repro.GraphError)
        assert issubclass(repro.ScheduleError, repro.ReproError)
        assert issubclass(repro.SearchError, repro.ReproError)
        assert issubclass(repro.BudgetExceeded, repro.SearchError)
        assert issubclass(repro.WorkloadError, repro.ReproError)

    def test_budget_exceeded_payload(self):
        err = repro.BudgetExceeded("out of gas", best_found=None, states_expanded=7)
        assert err.states_expanded == 7
        assert err.best_found is None

    def test_docstring_quickstart_runs(self):
        """The module docstring's doctest scenario."""
        g = repro.TaskGraph(
            [2, 3, 3, 4, 5, 2],
            {(0, 1): 1, (0, 2): 1, (0, 3): 2, (1, 4): 1, (2, 4): 1,
             (3, 5): 4, (4, 5): 5},
        )
        result = repro.astar_schedule(g, repro.ProcessorSystem.ring(3))
        assert result.schedule.length == 14.0

    def test_removed_duplicates_stay_removed(self):
        """HDA* is the one real-cores parallel engine, heapq the one
        priority queue, repro.schedule.fingerprint the one fingerprint
        import path."""
        import importlib

        import repro.util

        assert not hasattr(repro, "multiprocessing_astar_schedule")
        assert not hasattr(repro.util, "LazyPQ")
        assert not hasattr(repro.util, "AddressablePQ")
        for module in ("repro.util.pqueue", "repro.service.fingerprint"):
            with pytest.raises(ModuleNotFoundError):
                importlib.import_module(module)

    def test_subpackages_importable(self):
        import repro.baselines
        import repro.experiments
        import repro.graph.generators
        import repro.parallel
        import repro.workloads

        assert repro.baselines and repro.experiments
        assert repro.graph.generators and repro.parallel and repro.workloads

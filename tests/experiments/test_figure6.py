"""Tests for the Figure-6 driver (parallel speedups)."""

import pytest

from repro.experiments.figure6 import run_figure6
from repro.experiments.runner import ExperimentConfig, OptimumCache
from repro.workloads.suite import paper_suite


import functools


@functools.lru_cache(maxsize=1)
def small_run():
    # CCR 10.0 instances complete well inside the budget, so every point
    # is exact and the agreement assertions apply unconditionally.
    suite = paper_suite(sizes=(10, 12), ccrs=(10.0,))
    config = ExperimentConfig(
        max_expansions=60_000, max_seconds=20.0, ppe_counts=(2, 4)
    )
    return run_figure6(suite, config, OptimumCache(config=config))


@functools.lru_cache(maxsize=1)
def low_ccr_run():
    # At CCR 0.1 serial A* proves each instance in its first expansions
    # (its floor meets the list schedule), and so does the parallel
    # run's seed phase, which is the same search.
    suite = paper_suite(sizes=(10, 12), ccrs=(0.1,))
    config = ExperimentConfig(
        max_expansions=20_000, max_seconds=20.0, ppe_counts=(2, 4)
    )
    return run_figure6(suite, config, OptimumCache(config=config))


class TestFigure6:
    @pytest.mark.slow
    def test_point_grid(self):
        result = small_run()
        assert len(result.points) == 2 * 2  # sizes × ppe counts

    def test_curve_extraction(self):
        result = small_run()
        curve = result.curve(10.0, 2)
        assert [p.size for p in curve] == [10, 12]

    def test_all_points_exact(self):
        """These instances complete within budget: all points exact."""
        result = small_run()
        assert all(p.exact for p in result.points)

    def test_lengths_agree_everywhere(self):
        """Parallel A* must find the serial optimum on exact points."""
        result = small_run()
        assert all(p.lengths_agree for p in result.points if p.exact)

    def test_speedups_positive(self):
        result = small_run()
        assert all(p.speedup > 0 for p in result.points)

    def test_extra_state_ratio_at_least_one_ish(self):
        """Parallel work ≥ serial work (duplication, never less)."""
        result = small_run()
        assert all(p.extra_state_ratio >= 0.9 for p in result.points)

    def test_render(self):
        out = small_run().render()
        assert "Figure 6" in out
        assert "2 PPEs" in out and "4 PPEs" in out

    def test_seed_phase_decides_low_ccr_points(self):
        """Where serial A* proves the optimum at once, so do the PPEs:
        no extra state and no slowdown."""
        result = low_ccr_run()
        assert len(result.points) == 2 * 2
        for p in result.points:
            assert p.exact
            assert p.speedup == 1.0
            assert p.extra_state_ratio == 1.0

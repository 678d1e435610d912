"""Unit tests for repro.search.pruning configuration objects."""

import pytest

from repro.search.pruning import PruningConfig, PruningStats


class TestPruningConfig:
    def test_all_enables_everything(self):
        c = PruningConfig.all()
        assert c.processor_isomorphism
        assert c.node_equivalence
        assert c.priority_ordering
        assert c.upper_bound
        assert c.duplicate_detection

    def test_none_keeps_duplicate_detection(self):
        c = PruningConfig.none()
        assert not c.processor_isomorphism
        assert not c.node_equivalence
        assert not c.priority_ordering
        assert not c.upper_bound
        assert c.duplicate_detection

    def test_only(self):
        c = PruningConfig.only(upper_bound=True)
        assert c.upper_bound
        assert not c.processor_isomorphism

    def test_only_multiple(self):
        c = PruningConfig.only(processor_isomorphism=True, node_equivalence=True)
        assert c.processor_isomorphism and c.node_equivalence
        assert not c.upper_bound

    def test_only_refuses_a_misspelt_switch(self):
        with pytest.raises(TypeError, match="upperbound"):
            PruningConfig.only(upperbound=True)

    def test_describe(self):
        assert PruningConfig.all().describe() == "iso+equiv+prio+ub+dup"
        assert PruningConfig.none().describe() == "dup"
        no_dup = PruningConfig.only(duplicate_detection=False)
        assert no_dup.describe() == "none"

    def test_frozen(self):
        import dataclasses

        with pytest.raises(dataclasses.FrozenInstanceError):
            PruningConfig.all().upper_bound = False


class TestPruningStats:
    def test_total(self):
        s = PruningStats(
            isomorphism_skips=1,
            equivalence_skips=2,
            upper_bound_cuts=3,
            duplicate_hits=4,
        )
        assert s.total == 10

    def test_as_dict_includes_extra(self):
        s = PruningStats()
        s.extra["paths_enumerated"] = 7
        d = s.as_dict()
        assert d["paths_enumerated"] == 7
        assert d["duplicate_hits"] == 0

    def test_as_dict_keeps_declaration_order_then_extra(self):
        s = PruningStats(*range(1, 8), extra={"paths_enumerated": 9})
        assert list(s.as_dict().items()) == [
            ("isomorphism_skips", 1), ("equivalence_skips", 2),
            ("upper_bound_cuts", 3), ("duplicate_hits", 4),
            ("commutation_skips", 5), ("fixed_order_skips", 6),
            ("symmetry_skips", 7), ("paths_enumerated", 9),
        ]
        assert s.total == 28

    def test_merge_folds_counters_and_extra(self):
        s = PruningStats(duplicate_hits=1, extra={"x": 1})
        s.merge(PruningStats(duplicate_hits=2, symmetry_skips=3, extra={"x": 4}))
        s.merge({"duplicate_hits": 5, "edges_removed": 6})
        assert s.duplicate_hits == 8 and s.symmetry_skips == 3
        assert s.extra == {"x": 5, "edges_removed": 6}

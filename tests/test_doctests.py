"""Run the doctest examples embedded in module docstrings.

Keeps the inline usage examples honest — a doctest that drifts from the
implementation fails the suite.
"""

import doctest

import pytest

import repro.parallel.partition
import repro.search.pruning
import repro.util.timing

MODULES = [
    repro.util.timing,
    repro.parallel.partition,
    repro.search.pruning,
]


@pytest.mark.parametrize("module", MODULES, ids=lambda m: m.__name__)
def test_doctests(module):
    result = doctest.testmod(module)
    assert result.failed == 0
    assert result.attempted > 0, f"{module.__name__} has no doctests to run"

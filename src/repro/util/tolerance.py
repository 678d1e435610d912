"""Scale-aware float comparisons for cost/bound arithmetic.

Search costs are sums and maxima of task weights and communication
delays; two mathematically-equal ``f`` values computed along different
expansion orders can differ by accumulated rounding (``0.1 + 0.2 !=
0.3``).  Every engine comparison that decides *pruning* or
*termination* must therefore absorb that drift, and it must absorb it
**consistently** — the ε-termination bug this module fixes came from
three call sites each hand-rolling ``<= ... + 1e-9`` with a different
idea of which side got the epsilon, so exact (ε = 0) parallel runs
could terminate one float-ulp early or keep spinning on a plateau that
only existed as rounding noise.

The tolerance is *relative*: ``REL_TOL`` scaled by the magnitude of the
operands (floored at 1.0 so comparisons around zero keep an absolute
floor of ``REL_TOL``).  Costs of order 1e6 get a proportionally larger
slack — an absolute 1e-9 would be smaller than one ulp there and the
comparison would degenerate to raw ``<=``.

All helpers answer *decision* questions, named from the caller's view:

* :func:`gt` — "is ``a`` worse than bound ``b`` beyond drift?" (prune)
* :func:`geq` — "is ``a`` at least ``b`` up to drift?" (prune ties)
* :func:`leq` — "is ``a`` within bound ``b`` up to drift?" (terminate)
* :func:`lt` — "is ``a`` a real improvement over ``b``?" (incumbent)
* :func:`proves_bound` — the §3.3/§3.4 ε-termination test
  ``incumbent ≤ (1+ε) · min_f`` with the drift on the proving side.

:func:`cut_line` turns :func:`geq` against a fixed bound into one plain
comparison, for loops that test many values against the same ``U``.
"""

from __future__ import annotations

__all__ = [
    "REL_TOL", "tolerance", "leq", "lt", "geq", "gt", "cut_line", "proves_bound",
]

#: Relative comparison tolerance; ~1e-9 of the operand magnitude.
REL_TOL = 1e-9


def tolerance(a: float, b: float) -> float:
    """The drift allowance for comparing ``a`` with ``b``.

    ``REL_TOL`` times the larger magnitude, floored at ``REL_TOL``
    itself so near-zero costs still get an absolute slack.
    """
    m = abs(a)
    mb = abs(b)
    if mb > m:
        m = mb
    if m < 1.0:
        m = 1.0
    return REL_TOL * m


def leq(a: float, b: float) -> bool:
    """True when ``a <= b`` up to drift (``a`` may exceed by tolerance)."""
    return a <= b + tolerance(a, b)


def lt(a: float, b: float) -> bool:
    """True when ``a < b`` by more than drift — a *real* improvement."""
    return a < b - tolerance(a, b)


def geq(a: float, b: float) -> bool:
    """True when ``a >= b`` up to drift (``a`` may fall short by tolerance)."""
    return a >= b - tolerance(a, b)


def gt(a: float, b: float) -> bool:
    """True when ``a > b`` by more than drift — a *real* excess."""
    return a > b + tolerance(a, b)


def cut_line(b: float) -> float:
    """The line ``x`` with ``geq(a, b) == (a >= x)`` for all ``a, b >= 0``.

    Below ``b`` the tolerance is ``REL_TOL * max(b, 1)`` whatever ``a``
    is, and above ``b`` both sides are true, so the line is ``b`` less
    that tolerance.  A loop that cuts many values against one bound
    computes the line once per bound instead of a tolerance per value.
    At ``b = inf`` the line is NaN, which no value reaches, just as
    ``geq(a, inf)`` is false for every ``a``.
    """
    return b - REL_TOL * (b if b > 1.0 else 1.0)


def proves_bound(incumbent: float, epsilon: float, min_f: float) -> bool:
    """The ε-termination test: ``incumbent ≤ (1+ε) · min_f`` with drift.

    For ε = 0 this is exactly "the incumbent matches the best possible
    remaining ``f``" — the serial-A* optimality condition evaluated
    across distributed OPEN lists.  ``min_f = inf`` (all OPEN lists
    empty) always proves the bound.
    """
    if min_f == float("inf"):
        return True
    return leq(incumbent, (1.0 + epsilon) * min_f)

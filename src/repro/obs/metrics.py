"""Counters, gauges and fixed-bucket histograms with Prometheus output.

A deliberately small, stdlib-only re-implementation of the parts of a
metrics client the daemon needs: monotone counters, set-style gauges,
and cumulative-bucket histograms whose quantiles (p50/p99) are derived
by linear interpolation inside the owning bucket — the same estimate a
Prometheus ``histogram_quantile`` query would produce from the scraped
buckets, so dashboards and the JSON ``/metrics`` payload agree.

All instruments are thread-safe (one lock per instrument, taken only on
write and snapshot).  Label support is the common subset: an instrument
family holds one child per label-value tuple, and the renderer escapes
label values per the text exposition format.
"""

from __future__ import annotations

import math
import threading
from typing import Iterable, Mapping

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "LATENCY_BUCKETS",
    "EXPANSION_BUCKETS",
]

#: Request/queue/solve latency buckets (seconds).  Spans sub-millisecond
#: cache hits through multi-minute exact searches.
LATENCY_BUCKETS: tuple[float, ...] = (
    0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1,
    0.25, 0.5, 1.0, 2.5, 5.0, 10.0, 30.0, 60.0, 120.0,
)

#: Per-solve expansion-count buckets (states expanded).
EXPANSION_BUCKETS: tuple[float, ...] = (
    10.0, 100.0, 1_000.0, 10_000.0, 100_000.0, 1_000_000.0, 10_000_000.0,
)


def _escape_label_value(value: str) -> str:
    """Escape a label value per the Prometheus text exposition format."""
    return value.replace("\\", r"\\").replace("\n", r"\n").replace('"', r'\"')


def _format_value(value: float) -> str:
    """Render a sample value: integers without a trailing ``.0``."""
    if value == math.inf:
        return "+Inf"
    if isinstance(value, float) and value.is_integer():
        return str(int(value))
    return repr(value)


def _labels_suffix(labels: tuple[tuple[str, str], ...]) -> str:
    if not labels:
        return ""
    inner = ",".join(
        f'{key}="{_escape_label_value(val)}"' for key, val in labels
    )
    return "{" + inner + "}"


class Counter:
    """A monotonically increasing counter."""

    __slots__ = ("_value", "_lock")

    def __init__(self) -> None:
        self._value = 0.0
        self._lock = threading.Lock()

    def inc(self, amount: float = 1.0) -> None:
        if amount < 0:
            raise ValueError("counters only go up")
        with self._lock:
            self._value += amount

    def set(self, total: float) -> None:
        """Adopt a running total that another object keeps (a cache's
        hit count, a breaker's trip count), read at scrape time."""
        with self._lock:
            self._value = float(total)

    @property
    def value(self) -> float:
        return self._value


class Gauge:
    """A value that can go up and down."""

    __slots__ = ("_value", "_lock")

    def __init__(self) -> None:
        self._value = 0.0
        self._lock = threading.Lock()

    def set(self, value: float) -> None:
        with self._lock:
            self._value = float(value)

    def inc(self, amount: float = 1.0) -> None:
        with self._lock:
            self._value += amount

    def dec(self, amount: float = 1.0) -> None:
        with self._lock:
            self._value -= amount

    @property
    def value(self) -> float:
        return self._value


class Histogram:
    """Fixed-bucket cumulative histogram with derived quantiles.

    ``buckets`` are the *upper bounds* of each bucket in ascending
    order; an implicit ``+Inf`` bucket is always appended.
    """

    __slots__ = ("buckets", "_counts", "_sum", "_count", "_lock")

    def __init__(self, buckets: Iterable[float] = LATENCY_BUCKETS) -> None:
        bounds = tuple(sorted(float(b) for b in buckets))
        if not bounds:
            raise ValueError("histogram needs at least one bucket bound")
        self.buckets = bounds
        self._counts = [0] * (len(bounds) + 1)  # last slot = +Inf
        self._sum = 0.0
        self._count = 0
        self._lock = threading.Lock()

    def observe(self, value: float) -> None:
        value = float(value)
        idx = len(self.buckets)
        for i, bound in enumerate(self.buckets):
            if value <= bound:
                idx = i
                break
        with self._lock:
            self._counts[idx] += 1
            self._sum += value
            self._count += 1

    @property
    def count(self) -> int:
        return self._count

    @property
    def sum(self) -> float:
        return self._sum

    def cumulative_counts(self) -> list[tuple[float, int]]:
        """``[(upper_bound, cumulative_count), ...]`` ending at +Inf."""
        out: list[tuple[float, int]] = []
        running = 0
        with self._lock:
            counts = list(self._counts)
        for bound, n in zip(self.buckets, counts):
            running += n
            out.append((bound, running))
        out.append((math.inf, running + counts[-1]))
        return out

    def quantile(self, q: float) -> float:
        """Estimate the ``q``-quantile by interpolating in its bucket.

        Returns ``nan`` when empty.  Values in the +Inf bucket clamp to
        the largest finite bound (same convention as Prometheus).
        """
        if not 0.0 <= q <= 1.0:
            raise ValueError("quantile must be in [0, 1]")
        cumulative = self.cumulative_counts()
        total = cumulative[-1][1]
        if total == 0:
            return math.nan
        rank = q * total
        prev_bound, prev_cum = 0.0, 0
        for bound, cum in cumulative:
            if cum >= rank:
                if math.isinf(bound):
                    return self.buckets[-1]
                if cum == prev_cum:
                    return bound
                frac = (rank - prev_cum) / (cum - prev_cum)
                return prev_bound + frac * (bound - prev_bound)
            prev_bound, prev_cum = bound, cum
        return self.buckets[-1]

    def summary(self) -> dict[str, float | None]:
        """p50/p99/count/sum snapshot for the JSON ``/metrics`` payload.

        Quantiles of an empty histogram are ``None`` (not ``nan``) so
        the payload stays strict JSON.
        """
        p50 = self.quantile(0.5)
        p99 = self.quantile(0.99)
        return {
            "count": float(self._count),
            "sum": self._sum,
            "p50": None if math.isnan(p50) else p50,
            "p99": None if math.isnan(p99) else p99,
        }


_LabelKey = tuple[tuple[str, str], ...]


class _Family:
    """One named metric family holding a child per label set."""

    __slots__ = ("name", "help", "kind", "buckets", "children", "_lock")

    def __init__(
        self, name: str, help_text: str, kind: str,
        buckets: tuple[float, ...] | None = None,
    ) -> None:
        self.name = name
        self.help = help_text
        self.kind = kind
        self.buckets = buckets
        self.children: dict[_LabelKey, Counter | Gauge | Histogram] = {}
        self._lock = threading.Lock()

    def child(self, labels: _LabelKey):
        with self._lock:
            got = self.children.get(labels)
            if got is None:
                if self.kind == "counter":
                    got = Counter()
                elif self.kind == "gauge":
                    got = Gauge()
                else:
                    got = Histogram(self.buckets or LATENCY_BUCKETS)
                self.children[labels] = got
            return got


def _label_key(labels: Mapping[str, str] | None) -> _LabelKey:
    if not labels:
        return ()
    return tuple(sorted((str(k), str(v)) for k, v in labels.items()))


class MetricsRegistry:
    """A named collection of metric families.

    ``counter``/``gauge``/``histogram`` are get-or-create and cheap to
    call repeatedly — call sites do not need to stash instrument
    references (though hot paths may).  ``render_prometheus`` emits the
    whole registry in text exposition format 0.0.4.
    """

    def __init__(self, namespace: str = "repro") -> None:
        self.namespace = namespace
        self._families: dict[str, _Family] = {}
        self._lock = threading.Lock()

    def _family(
        self, name: str, help_text: str, kind: str,
        buckets: tuple[float, ...] | None = None,
    ) -> _Family:
        with self._lock:
            fam = self._families.get(name)
            if fam is None:
                fam = _Family(name, help_text, kind, buckets)
                self._families[name] = fam
            elif fam.kind != kind:
                raise ValueError(
                    f"metric {name!r} already registered as {fam.kind}"
                )
            return fam

    def counter(
        self, name: str, help_text: str = "",
        labels: Mapping[str, str] | None = None,
    ) -> Counter:
        fam = self._family(name, help_text, "counter")
        return fam.child(_label_key(labels))  # type: ignore[return-value]

    def gauge(
        self, name: str, help_text: str = "",
        labels: Mapping[str, str] | None = None,
    ) -> Gauge:
        fam = self._family(name, help_text, "gauge")
        return fam.child(_label_key(labels))  # type: ignore[return-value]

    def histogram(
        self, name: str, help_text: str = "",
        labels: Mapping[str, str] | None = None,
        buckets: Iterable[float] = LATENCY_BUCKETS,
    ) -> Histogram:
        fam = self._family(name, help_text, "histogram", tuple(buckets))
        return fam.child(_label_key(labels))  # type: ignore[return-value]

    def counter_family(
        self, name: str, help_text: str, label: str, values: Iterable[str],
    ) -> dict[str, Counter]:
        """Bind one child of a one-label counter family per value."""
        return {
            value: self.counter(name, help_text, labels={label: value})
            for value in values
        }

    def counts(self, name: str) -> dict[str, int]:
        """A one-label counter family as ``{label value: count}`` (the
        JSON view of what :meth:`render_prometheus` exposes); empty
        while the family does not exist."""
        fam = self._families.get(name)
        if fam is None:
            return {}
        return {
            labels[0][1]: int(child.value)
            for labels, child in list(fam.children.items())
        }

    def histogram_summaries(self) -> dict[str, dict[str, float]]:
        """p50/p99 snapshots of every histogram, keyed by family name
        (label values joined into the key for labelled families)."""
        out: dict[str, dict[str, float]] = {}
        for fam in list(self._families.values()):
            if fam.kind != "histogram":
                continue
            for labels, child in list(fam.children.items()):
                key = fam.name
                if labels:
                    key += "{" + ",".join(f"{k}={v}" for k, v in labels) + "}"
                out[key] = child.summary()  # type: ignore[union-attr]
        return out

    def render_prometheus(self, extra: str = "") -> str:
        """The whole registry in Prometheus text exposition format."""
        lines: list[str] = []
        for fam in list(self._families.values()):
            full = f"{self.namespace}_{fam.name}"
            if fam.help:
                lines.append(f"# HELP {full} {fam.help}")
            lines.append(f"# TYPE {full} {fam.kind}")
            for labels, child in sorted(fam.children.items()):
                suffix = _labels_suffix(labels)
                if fam.kind in ("counter", "gauge"):
                    lines.append(
                        f"{full}{suffix} {_format_value(child.value)}"
                    )
                    continue
                hist = child  # type: ignore[assignment]
                for bound, cum in hist.cumulative_counts():
                    le = _format_value(bound) if math.isfinite(bound) else "+Inf"
                    bucket_labels = labels + (("le", le),)
                    lines.append(
                        f"{full}_bucket{_labels_suffix(bucket_labels)} {cum}"
                    )
                lines.append(f"{full}_sum{suffix} {_format_value(hist.sum)}")
                lines.append(f"{full}_count{suffix} {hist.count}")
        if extra:
            lines.append(extra.rstrip("\n"))
        return "\n".join(lines) + "\n"

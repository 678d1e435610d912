"""Instrument semantics and Prometheus text exposition.

The histogram quantile estimate is pinned against hand-computed linear
interpolation (the same estimate ``histogram_quantile`` produces from
scraped buckets), and the renderer's output is checked line-by-line
against the text exposition format 0.0.4 — cumulative ``_bucket``
series ending at ``+Inf``, ``_sum``/``_count``, label escaping.
"""

import math

import pytest

from repro.obs.metrics import (
    EXPANSION_BUCKETS,
    Counter,
    Gauge,
    Histogram,
    LATENCY_BUCKETS,
    MetricsRegistry,
)


class TestInstruments:
    def test_counter_accumulates(self):
        c = Counter()
        c.inc()
        c.inc(2.5)
        assert c.value == 3.5

    def test_counter_rejects_negative(self):
        with pytest.raises(ValueError):
            Counter().inc(-1)

    def test_counter_set_adopts_a_total_and_keeps_counting(self):
        c = Counter()
        c.inc(4)
        c.set(10)
        assert c.value == 10.0
        c.inc()
        assert c.value == 11.0

    def test_gauge_set_inc_dec(self):
        g = Gauge()
        g.set(10)
        g.inc(5)
        g.dec(2)
        assert g.value == 13.0

    def test_histogram_count_and_sum(self):
        h = Histogram(buckets=(1.0, 2.0))
        for v in (0.5, 1.5, 99.0):
            h.observe(v)
        assert h.count == 3
        assert h.sum == pytest.approx(101.0)

    def test_histogram_cumulative_ends_at_inf(self):
        h = Histogram(buckets=(1.0, 2.0))
        for v in (0.5, 1.5, 99.0):
            h.observe(v)
        cum = h.cumulative_counts()
        assert cum == [(1.0, 1), (2.0, 2), (math.inf, 3)]

    def test_histogram_rejects_empty_buckets(self):
        with pytest.raises(ValueError):
            Histogram(buckets=())


class TestQuantiles:
    def test_empty_histogram_is_nan(self):
        assert math.isnan(Histogram().quantile(0.5))

    def test_empty_summary_uses_none_not_nan(self):
        s = Histogram().summary()
        assert s["p50"] is None and s["p99"] is None
        assert s["count"] == 0.0

    def test_linear_interpolation_inside_bucket(self):
        # 10 observations all landing in the (1.0, 2.0] bucket: the
        # median rank is 5 of 10, halfway through that bucket.
        h = Histogram(buckets=(1.0, 2.0, 4.0))
        for _ in range(10):
            h.observe(1.5)
        assert h.quantile(0.5) == pytest.approx(1.5)

    def test_quantile_clamps_to_largest_finite_bound(self):
        h = Histogram(buckets=(1.0,))
        h.observe(50.0)  # +Inf bucket
        assert h.quantile(0.99) == 1.0

    def test_quantile_range_checked(self):
        with pytest.raises(ValueError):
            Histogram().quantile(1.5)

    def test_uniform_spread_median(self):
        h = Histogram(buckets=LATENCY_BUCKETS)
        for v in (0.002, 0.02, 0.2, 2.0):
            h.observe(v)
        # rank 2 of 4 falls at the top of the 0.025 bucket.
        assert 0.01 <= h.quantile(0.5) <= 0.05


class TestRegistry:
    def test_get_or_create_returns_same_instrument(self):
        reg = MetricsRegistry()
        assert reg.counter("a") is reg.counter("a")
        assert reg.counter("a", labels={"k": "x"}) is not reg.counter("a")

    def test_kind_collision_raises(self):
        reg = MetricsRegistry()
        reg.counter("a")
        with pytest.raises(ValueError):
            reg.gauge("a")

    def test_histogram_summaries_include_labelled_keys(self):
        reg = MetricsRegistry()
        reg.histogram("solve_seconds", labels={"engine": "astar"}).observe(1.0)
        reg.histogram("queue_wait_seconds").observe(0.5)
        got = reg.histogram_summaries()
        assert set(got) == {"solve_seconds{engine=astar}",
                            "queue_wait_seconds"}
        assert got["queue_wait_seconds"]["count"] == 1.0


class TestPrometheusRendering:
    def test_counter_and_gauge_lines(self):
        reg = MetricsRegistry()
        reg.counter("jobs_total", "Jobs.", labels={"event": "done"}).inc(3)
        reg.gauge("queue_depth", "Depth.").set(2)
        text = reg.render_prometheus()
        assert "# HELP repro_jobs_total Jobs." in text
        assert "# TYPE repro_jobs_total counter" in text
        assert 'repro_jobs_total{event="done"} 3' in text
        assert "# TYPE repro_queue_depth gauge" in text
        assert "repro_queue_depth 2" in text
        assert text.endswith("\n")

    def test_histogram_exposition(self):
        reg = MetricsRegistry()
        h = reg.histogram("request_seconds", "Latency.", buckets=(1.0, 2.0))
        h.observe(0.5)
        h.observe(1.5)
        h.observe(9.0)
        lines = reg.render_prometheus().splitlines()
        assert "# TYPE repro_request_seconds histogram" in lines
        assert 'repro_request_seconds_bucket{le="1"} 1' in lines
        assert 'repro_request_seconds_bucket{le="2"} 2' in lines
        assert 'repro_request_seconds_bucket{le="+Inf"} 3' in lines
        assert "repro_request_seconds_sum 11" in lines
        assert "repro_request_seconds_count 3" in lines

    def test_extra_block_is_appended(self):
        reg = MetricsRegistry()
        text = reg.render_prometheus(extra="repro_uptime_seconds 1.5\n")
        assert text.endswith("repro_uptime_seconds 1.5\n")

    def test_label_value_escaping(self):
        reg = MetricsRegistry()
        reg.counter("c", labels={"k": 'a"b\\c\nd'}).inc()
        assert r'repro_c{k="a\"b\\c\nd"} 1' in reg.render_prometheus()

    def test_value_formatting(self):
        reg = MetricsRegistry()
        for name, value in (("whole", 3.0), ("inf", math.inf), ("frac", 0.25)):
            reg.gauge(name).set(value)
        lines = reg.render_prometheus().splitlines()
        assert {"repro_whole 3", "repro_inf +Inf", "repro_frac 0.25"} <= set(lines)

    def test_counter_set_and_one_label_counts(self):
        reg = MetricsRegistry()
        reg.counter("hits_total", labels={"event": "hit"}).set(7)
        reg.counter("hits_total", labels={"event": "miss"}).inc()
        assert reg.counts("hits_total") == {"hit": 7, "miss": 1}
        assert reg.counts("absent_total") == {}

    def test_counter_family_binds_every_value_at_zero(self):
        reg = MetricsRegistry()
        family = reg.counter_family("ev_total", "Events.", "event", ("a", "b"))
        assert set(family) == {"a", "b"}
        assert reg.counter("ev_total", labels={"event": "a"}) is family["a"]
        assert reg.counts("ev_total") == {"a": 0, "b": 0}
        text = reg.render_prometheus()
        assert text.count("# TYPE repro_ev_total counter") == 1
        assert 'repro_ev_total{event="a"} 0' in text
        assert 'repro_ev_total{event="b"} 0' in text

    def test_counts_are_ints(self):
        reg = MetricsRegistry()
        reg.counter("n_total", labels={"k": "x"}).inc(2.0)
        (value,) = reg.counts("n_total").values()
        assert value == 2 and type(value) is int

    def test_expansion_buckets_are_sorted(self):
        assert list(EXPANSION_BUCKETS) == sorted(EXPANSION_BUCKETS)

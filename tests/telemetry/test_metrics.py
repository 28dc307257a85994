"""Metrics registry: counters, gauges, histograms, merge, Prometheus."""

import threading

import pytest

from repro.telemetry import (
    DEFAULT_SECONDS_BUCKETS,
    Histogram,
    MetricsRegistry,
)


class TestCounter:
    def test_increments(self):
        registry = MetricsRegistry()
        counter = registry.counter("repro_trials_injected_total")
        counter.inc()
        counter.inc(5)
        assert counter.value == 6

    def test_rejects_negative(self):
        counter = MetricsRegistry().counter("c")
        with pytest.raises(ValueError):
            counter.inc(-1)

    def test_get_or_create_returns_same_instance(self):
        registry = MetricsRegistry()
        assert registry.counter("c") is registry.counter("c")

    def test_thread_safe_increments(self):
        counter = MetricsRegistry().counter("c")

        def work():
            for _ in range(1000):
                counter.inc()

        threads = [threading.Thread(target=work) for _ in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert counter.value == 8000


class TestGauge:
    def test_set_inc_dec(self):
        gauge = MetricsRegistry().gauge("repro_worker_queue_depth")
        gauge.set(4)
        gauge.dec()
        gauge.inc(0.5)
        assert gauge.value == 3.5


class TestHistogram:
    def test_bucket_assignment(self):
        hist = Histogram("h", buckets=[0.1, 1.0, 10.0])
        for value in (0.05, 0.1, 0.5, 2.0, 100.0):
            hist.observe(value)
        # bisect_left: a value equal to a boundary lands in that bucket.
        assert hist.bucket_counts() == [2, 1, 1, 1]
        assert hist.count == 5
        assert hist.sum == pytest.approx(102.65)

    def test_boundaries_sorted_and_unique(self):
        hist = Histogram("h", buckets=[1.0, 0.1, 10.0])
        assert hist.boundaries == (0.1, 1.0, 10.0)
        with pytest.raises(ValueError):
            Histogram("dup", buckets=[1.0, 1.0])
        with pytest.raises(ValueError):
            Histogram("empty", buckets=[])

    def test_default_buckets(self):
        hist = MetricsRegistry().histogram("repro_sigma_eval_seconds")
        assert hist.boundaries == DEFAULT_SECONDS_BUCKETS


class TestSnapshotAndMerge:
    def build(self):
        registry = MetricsRegistry()
        registry.counter("repro_memo_hits_total").inc(3)
        registry.gauge("depth").set(2)
        registry.histogram("lat", buckets=[0.1, 1.0]).observe(0.5)
        return registry

    def test_snapshot_shape(self):
        snap = self.build().snapshot()
        assert snap["counters"] == {"repro_memo_hits_total": 3}
        assert snap["gauges"] == {"depth": 2.0}
        assert snap["histograms"]["lat"] == {
            "boundaries": [0.1, 1.0],
            "counts": [0, 1, 0],
            "sum": 0.5,
            "count": 1,
        }

    def test_snapshot_sorted_names(self):
        registry = MetricsRegistry()
        registry.counter("zz").inc()
        registry.counter("aa").inc()
        assert list(registry.snapshot()["counters"]) == ["aa", "zz"]


class TestPrometheus:
    def test_render_counter_gauge_histogram(self):
        registry = MetricsRegistry()
        registry.counter("repro_trials_injected_total").inc(32)
        registry.gauge("repro_worker_queue_depth").set(1.5)
        hist = registry.histogram("repro_layer_campaign_seconds", buckets=[0.1, 1.0])
        hist.observe(0.05)
        hist.observe(0.5)
        hist.observe(50.0)
        text = registry.render_prometheus()
        lines = text.splitlines()
        assert "# TYPE repro_trials_injected_total counter" in lines
        assert "repro_trials_injected_total 32" in lines
        assert "repro_worker_queue_depth 1.5" in lines
        # Cumulative le buckets plus the +Inf total.
        assert 'repro_layer_campaign_seconds_bucket{le="0.1"} 1' in lines
        assert 'repro_layer_campaign_seconds_bucket{le="1"} 2' in lines
        assert 'repro_layer_campaign_seconds_bucket{le="+Inf"} 3' in lines
        assert "repro_layer_campaign_seconds_count 3" in lines
        assert text.endswith("\n")

    def test_prefix_applied(self):
        registry = MetricsRegistry()
        registry.counter("hits").inc()
        assert "app_hits 1" in registry.render_prometheus(prefix="app_")

    def test_empty_registry_renders_empty(self):
        assert MetricsRegistry().render_prometheus() == ""

    def test_rendering_deterministic(self):
        a, b = MetricsRegistry(), MetricsRegistry()
        for registry in (a, b):
            registry.counter("x").inc(2)
            registry.histogram("h", buckets=[1.0]).observe(0.5)
        assert a.render_prometheus() == b.render_prometheus()

    def test_help_lines_for_known_metrics(self):
        registry = MetricsRegistry()
        registry.counter("repro_outcome_restored_total").inc()
        registry.gauge("repro_worker_queue_depth").set(2)
        lines = registry.render_prometheus().splitlines()
        help_lines = [l for l in lines if l.startswith("# HELP")]
        assert any(
            l.startswith("# HELP repro_outcome_restored_total ")
            for l in help_lines
        )
        # HELP precedes TYPE, per the exposition-format convention.
        assert lines.index(
            "# TYPE repro_worker_queue_depth gauge"
        ) - 1 == lines.index(
            [l for l in help_lines if "queue_depth" in l][0]
        )

    def test_prefix_families_get_fallback_help(self):
        registry = MetricsRegistry()
        registry.counter("repro_kernel_conv_fast_total").inc()
        text = registry.render_prometheus()
        assert "# HELP repro_kernel_conv_fast_total " in text

    def test_unknown_metric_has_no_help_line(self):
        registry = MetricsRegistry()
        registry.counter("made_up_total").inc()
        lines = registry.render_prometheus().splitlines()
        assert "# TYPE made_up_total counter" in lines
        assert not any(l.startswith("# HELP made_up_total") for l in lines)

    def test_set_help_overrides_default(self):
        registry = MetricsRegistry()
        registry.counter("made_up_total").inc()
        registry.set_help("made_up_total", "A bespoke metric.")
        assert (
            "# HELP made_up_total A bespoke metric."
            in registry.render_prometheus()
        )
        registry.set_help(
            "repro_outcome_restored_total", "Overridden."
        )
        registry.counter("repro_outcome_restored_total").inc()
        text = registry.render_prometheus()
        assert "# HELP repro_outcome_restored_total Overridden." in text

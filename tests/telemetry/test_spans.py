"""Tracer/span semantics: timing, nesting, threads, the null path."""

import threading

import pytest

from repro.telemetry import (
    NULL_TRACER,
    FakeClock,
    NullTracer,
    Span,
    Tracer,
    merge_spans,
)


class TestFakeClock:
    def test_frozen_until_advanced(self):
        clock = FakeClock(start=5.0)
        assert clock() == 5.0
        assert clock() == 5.0
        clock.advance(2.5)
        assert clock.now == 7.5

    def test_tick_advances_per_call(self):
        clock = FakeClock(start=1.0, tick=0.5)
        assert clock() == 1.0
        assert clock() == 1.5

    def test_rejects_backwards(self):
        with pytest.raises(ValueError):
            FakeClock().advance(-1.0)

    def test_tick_and_advance_compose(self):
        # advance() shifts the base; the per-call tick keeps applying
        # on top of it, and each call returns the time *before* its
        # own tick.
        clock = FakeClock(start=1.0, tick=0.5)
        assert clock() == 1.0  # now 1.5
        clock.advance(2.0)  # now 3.5, no tick consumed
        assert clock.now == 3.5
        assert clock() == 3.5  # now 4.0
        assert clock() == 4.0
        clock.advance(0.0)  # zero advance is legal and a no-op
        assert clock.now == 4.5

    def test_now_never_advances(self):
        clock = FakeClock(start=2.0, tick=1.0)
        assert clock.now == 2.0
        assert clock.now == 2.0
        clock()
        assert clock.now == 3.0


class TestSpanTiming:
    def test_duration_from_injected_clock(self):
        clock = FakeClock(start=10.0)
        tracer = Tracer(clock=clock)
        with tracer.span("work") as span:
            clock.advance(1.25)
        assert span.start == 10.0
        assert span.end == 11.25
        assert span.duration == 1.25

    def test_open_span_duration_is_zero(self):
        span = Span(name="open", span_id="main-1", start=3.0)
        assert span.duration == 0.0

    def test_attributes_and_counters(self):
        tracer = Tracer(clock=FakeClock())
        with tracer.span("work", layer="conv1") as span:
            span.set(sigma=0.25, passed=True)
            span.incr("trials", 3)
            span.incr("trials")
        assert span.attributes == {
            "layer": "conv1",
            "sigma": 0.25,
            "passed": True,
        }
        assert span.counters == {"trials": 4}

    def test_exception_marks_error_and_still_records(self):
        tracer = Tracer(clock=FakeClock())
        with pytest.raises(RuntimeError):
            with tracer.span("boom"):
                raise RuntimeError("nope")
        (span,) = tracer.events()
        assert span.status == "error"
        assert span.end is not None


class TestBuffer:
    def test_clear_drops_buffer(self):
        tracer = Tracer(clock=FakeClock())
        with tracer.span("x"):
            pass
        tracer.clear()
        assert tracer.events() == []


class TestNesting:
    def test_child_parented_to_enclosing_span(self):
        tracer = Tracer(clock=FakeClock())
        with tracer.span("outer") as outer:
            with tracer.span("inner") as inner:
                pass
        assert inner.parent_id == outer.span_id
        assert outer.parent_id is None

    def test_explicit_parent_override(self):
        tracer = Tracer(clock=FakeClock())
        with tracer.span("stage") as stage:
            pass
        with tracer.span("worker-root", parent_id=stage.span_id) as span:
            pass
        assert span.parent_id == stage.span_id

    def test_sibling_spans_share_parent(self):
        tracer = Tracer(clock=FakeClock())
        with tracer.span("outer") as outer:
            with tracer.span("a") as a:
                pass
            with tracer.span("b") as b:
                pass
        assert a.parent_id == outer.span_id
        assert b.parent_id == outer.span_id

    def test_thread_stacks_are_independent(self):
        tracer = Tracer()
        seen = {}

        def work(label):
            # A fresh thread has an empty stack: its span is a root.
            with tracer.span(f"job-{label}") as span:
                seen[label] = span.parent_id

        with tracer.span("dispatch"):
            threads = [
                threading.Thread(target=work, args=(i,)) for i in range(4)
            ]
            for t in threads:
                t.start()
            for t in threads:
                t.join()
        assert all(parent is None for parent in seen.values())
        assert len(tracer.events()) == 5

    def test_span_ids_unique_across_threads(self):
        tracer = Tracer()

        def work():
            for _ in range(25):
                with tracer.span("tick"):
                    pass

        threads = [threading.Thread(target=work) for _ in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        ids = [span.span_id for span in tracer.events()]
        assert len(ids) == 100
        assert len(set(ids)) == 100


class TestNullTracer:
    def test_records_nothing(self):
        tracer = NullTracer()
        with tracer.span("work", layer="conv1") as span:
            span.set(sigma=0.5)
            span.incr("trials")
        assert tracer.events() == []
        assert not tracer.enabled

    def test_null_span_never_times(self):
        with NULL_TRACER.span("work") as span:
            pass
        assert span.duration == 0.0
        assert span.span_id == ""

    def test_real_tracer_enabled(self):
        assert Tracer().enabled


class TestMergeSpans:
    def test_orders_by_start_then_id(self):
        spans = [
            Span(name="late", span_id="main-3", start=2.0),
            Span(name="early", span_id="main-1", start=0.5),
            Span(name="tie-b", span_id="pid1-2", start=1.0),
            Span(name="tie-a", span_id="pid1-1", start=1.0),
        ]
        merged = merge_spans(spans)
        assert [s.name for s in merged] == ["early", "tie-a", "tie-b", "late"]

    def test_stable_for_identical_input(self):
        spans = [
            Span(name="a", span_id="main-1", start=1.0),
            Span(name="b", span_id="main-2", start=1.0),
        ]
        assert merge_spans(spans) == merge_spans(list(reversed(spans)))

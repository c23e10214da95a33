"""The observability layer: metrics registry, tracer, and solve telemetry."""

import asyncio
import json
import threading

import pytest

from repro.api import PebblingProblem, solve
from repro.dags import figure1_gadget, kary_tree_dag
from repro.obs.metrics import (
    DEFAULT_LATENCY_BUCKETS,
    OVERFLOW_LABEL_VALUE,
    MetricsRegistry,
    exponential_buckets,
    parse_exposition,
    summarise_buckets,
)
from repro.obs.telemetry import (
    SolveTelemetry,
    TelemetryLog,
    configure_telemetry,
    read_telemetry_file,
)
from repro.obs.tracing import TraceContext, Tracer, current_trace


class TestHistogramBuckets:
    def test_exponential_buckets_are_geometric(self):
        buckets = exponential_buckets(0.001, 2.0, 5)
        assert buckets == pytest.approx((0.001, 0.002, 0.004, 0.008, 0.016))
        assert list(buckets) == sorted(buckets)

    def test_default_latency_buckets_cover_ms_to_minutes(self):
        assert DEFAULT_LATENCY_BUCKETS[0] == pytest.approx(0.001)
        assert DEFAULT_LATENCY_BUCKETS[-1] > 60.0
        assert list(DEFAULT_LATENCY_BUCKETS) == sorted(DEFAULT_LATENCY_BUCKETS)

    def test_observation_on_a_bound_lands_in_that_bucket(self):
        # buckets are upper-inclusive (value <= bound), matching the
        # cumulative le= semantics of the exposition format
        registry = MetricsRegistry()
        hist = registry.histogram("t_seconds", "t", buckets=(1.0, 2.0, 4.0))
        for value in (1.0, 2.0, 4.0):
            hist.observe(value)
        hist.observe(4.00001)  # strictly above the last bound -> +Inf bucket
        series = registry.snapshot()["t_seconds"]["series"][0]
        assert series["buckets"] == [[1.0, 1], [2.0, 1], [4.0, 1], ["+Inf", 1]]
        assert series["count"] == 4

    def test_quantiles_interpolate_within_the_bucket(self):
        # 100 observations spread over (0, 1]: p50 must land mid-bucket,
        # not snap to a bucket edge
        summary = summarise_buckets((1.0, 2.0), [100, 0, 0], 50.0)
        assert 0.0 < summary["p50"] < 1.0
        assert summary["count"] == 100
        assert summary["mean"] == pytest.approx(0.5)

    def test_quantile_of_overflow_clamps_to_last_finite_bound(self):
        summary = summarise_buckets((1.0,), [0, 10], 1000.0)
        assert summary["p99"] == pytest.approx(1.0)

    def test_merged_summary_combines_label_series(self):
        registry = MetricsRegistry()
        hist = registry.histogram("m_seconds", "m", labels=("op",), buckets=(1.0, 2.0))
        hist.observe(0.5, op="a")
        hist.observe(1.5, op="b")
        merged = hist.merged_summary()
        assert merged["count"] == 2
        assert merged["sum"] == pytest.approx(2.0)


class TestCardinalityGuard:
    def test_overflow_series_absorbs_excess_labels(self):
        registry = MetricsRegistry()
        counter = registry.counter("c_total", "c", labels=("who",), max_series=3)
        for i in range(10):
            counter.inc(who=f"client-{i}")
        values = counter.values()
        # 3 real series, then the overflow catch-all absorbs the rest
        assert len(values) == 4
        assert values[(OVERFLOW_LABEL_VALUE,)] == 7.0
        assert sum(values.values()) == 10.0

    def test_dropped_series_are_counted_and_exposed(self):
        registry = MetricsRegistry()
        counter = registry.counter("c_total", "c", labels=("who",), max_series=2)
        for i in range(5):
            counter.inc(who=f"client-{i}")
        assert registry.dropped_series() == {"c_total": 3}
        assert "repro_metrics_dropped_series_total" in registry.exposition()

    def test_registration_is_idempotent_but_kind_conflicts_raise(self):
        registry = MetricsRegistry()
        first = registry.counter("x_total", "x", labels=("a",))
        assert registry.counter("x_total", "x", labels=("a",)) is first
        with pytest.raises(ValueError):
            registry.gauge("x_total", "x")
        with pytest.raises(ValueError):
            registry.counter("x_total", "x", labels=("b",))


class TestConcurrency:
    def test_threaded_increments_lose_nothing(self):
        registry = MetricsRegistry()
        counter = registry.counter("hits_total", "hits", labels=("worker",))
        hist = registry.histogram("lat_seconds", "lat")

        def hammer(worker):
            for _ in range(2000):
                counter.inc(worker=str(worker % 2))
                hist.observe(0.001 * (worker + 1))

        threads = [threading.Thread(target=hammer, args=(i,)) for i in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert sum(counter.values().values()) == 8 * 2000
        assert hist.merged_summary()["count"] == 8 * 2000

    def test_asyncio_tasks_and_threads_interleave_safely(self):
        registry = MetricsRegistry()
        counter = registry.counter("ops_total", "ops")

        def thread_side():
            for _ in range(1000):
                counter.inc()

        async def run():
            thread = threading.Thread(target=thread_side)
            thread.start()

            async def task_side():
                for _ in range(250):
                    counter.inc()
                    await asyncio.sleep(0)

            await asyncio.gather(*(task_side() for _ in range(4)))
            thread.join()

        asyncio.run(run())
        assert counter.value() == 1000 + 4 * 250


class TestExposition:
    def test_text_format_round_trips_through_the_parser(self):
        registry = MetricsRegistry()
        registry.counter("req_total", "requests", labels=("op",)).inc(3, op="solve")
        registry.gauge("depth", "queue depth").set(7)
        hist = registry.histogram("lat_seconds", "latency", buckets=(0.1, 1.0))
        hist.observe(0.05)
        hist.observe(0.5)
        families = parse_exposition(registry.exposition())
        assert families["req_total"]["type"] == "counter"
        assert ({"op": "solve"}, 3.0) in families["req_total"]["samples"]
        assert ({}, 7.0) in families["depth"]["samples"]
        buckets = dict(
            (labels["le"], value) for labels, value in families["lat_seconds"]["lat_seconds_bucket"]
        )
        # cumulative: the 1.0 bucket includes the 0.1 bucket's observation
        # (integral bounds are formatted without a trailing .0)
        assert buckets["0.1"] == 1.0 and buckets["1"] == 2.0 and buckets["+Inf"] == 2.0
        assert families["lat_seconds"]["lat_seconds_count"][0][1] == 2.0

    def test_label_values_are_escaped(self):
        registry = MetricsRegistry()
        registry.counter("e_total", "e", labels=("path",)).inc(path='a"b\\c\nd')
        text = registry.exposition()
        assert '\\"' in text and "\\\\" in text and "\\n" in text
        families = parse_exposition(text)
        assert families["e_total"]["samples"][0][0]["path"] == 'a"b\\c\nd'

    def test_invalid_metric_and_label_names_are_refused(self):
        registry = MetricsRegistry()
        with pytest.raises(ValueError):
            registry.counter("bad-name", "x")
        with pytest.raises(ValueError):
            registry.counter("ok_total", "x", labels=("9bad",))
        with pytest.raises(ValueError):
            registry.histogram("ok_seconds", "x", labels=("le",))  # reserved


class TestTracer:
    def test_nested_spans_share_the_trace_and_chain_parents(self):
        tracer = Tracer(node="test")
        with tracer.span("outer") as outer:
            assert current_trace() == outer.context
            with tracer.span("inner"):
                pass
        assert current_trace() is None
        inner, outer_span = tracer.recent()[-2], tracer.recent()[-1]
        assert inner["name"] == "inner" and outer_span["name"] == "outer"
        assert inner["trace_id"] == outer_span["trace_id"]
        assert inner["parent_id"] == outer_span["span_id"]

    def test_exception_marks_the_span_as_error(self):
        tracer = Tracer(node="test")
        with pytest.raises(RuntimeError):
            with tracer.span("boom"):
                raise RuntimeError("x")
        assert tracer.recent()[-1]["status"] == "error"

    def test_record_emits_a_retroactive_child_span(self):
        tracer = Tracer(node="test")
        parent = TraceContext(trace_id="a" * 32, span_id="b" * 16)
        ctx = tracer.record("queue_wait", 0.25, parent=parent)
        span = tracer.recent()[-1]
        assert ctx.trace_id == parent.trace_id
        assert span["parent_id"] == parent.span_id
        assert span["duration_s"] == pytest.approx(0.25)

    def test_sink_appends_json_lines(self, tmp_path):
        sink = tmp_path / "spans.jsonl"
        tracer = Tracer(node="n1", sink=sink)
        with tracer.span("a"):
            pass
        with tracer.span("b"):
            pass
        tracer.close()
        docs = [json.loads(line) for line in sink.read_text().splitlines()]
        assert [doc["name"] for doc in docs] == ["a", "b"]
        assert all(doc["node"] == "n1" for doc in docs)

    def test_wire_codec_rejects_malformed_context(self):
        ctx = TraceContext(trace_id="t" * 32, span_id="s" * 16)
        assert TraceContext.from_wire(ctx.to_wire()) == ctx
        for bad in (None, "x", {}, {"trace_id": "", "span_id": "s"},
                    {"trace_id": "t" * 65, "span_id": "s"}, {"trace_id": "t", "span_id": 7}):
            assert TraceContext.from_wire(bad) is None


class TestTelemetry:
    def test_ring_keeps_the_most_recent_records(self):
        log = TelemetryLog(ring_entries=2)
        for i in range(4):
            log.record(SolveTelemetry(
                digest=f"d{i}", solver_requested="auto", solver_used="greedy",
                cost=i, lower_bound=None, gap=None, wall_time_s=0.0,
                states_expanded=None,
            ))
        assert [doc.digest for doc in log.recent()] == ["d2", "d3"]

    def test_sink_round_trips_and_garbage_lines_are_skipped(self, tmp_path):
        sink = tmp_path / "telemetry.jsonl"
        log = TelemetryLog(sink=sink)
        log.record(SolveTelemetry(
            digest="abc", solver_requested="auto", solver_used="exhaustive",
            cost=5, lower_bound=5, gap=0, wall_time_s=0.1, states_expanded=42,
        ))
        log.close()
        with open(sink, "a", encoding="utf-8") as fh:
            fh.write("not json\n")
        records = read_telemetry_file(sink)
        assert len(records) == 1
        assert records[0]["digest"] == "abc" and records[0]["states_expanded"] == 42

    def test_solve_appends_one_record_per_solve(self, tmp_path):
        log = configure_telemetry(sink=tmp_path / "t.jsonl")
        try:
            problem = PebblingProblem(figure1_gadget(), r=4, game="prbp")
            result = solve(problem)
            records = log.recent()
            assert len(records) == 1
            doc = records[0]
            assert doc.digest
            assert doc.solver_requested == "auto"
            assert doc.solver_used == result.solver
            assert doc.cost == result.cost
            assert doc.wall_time_s > 0.0
            assert doc.features["n"] == problem.dag.n
            assert doc.trace_id
            # the auto portfolio's per-member attribution rides along
            assert any(a["outcome"] == "won" for a in doc.attempts)
        finally:
            configure_telemetry()

    def test_direct_solver_telemetry_has_no_attempts(self):
        log = configure_telemetry()
        try:
            problem = PebblingProblem(kary_tree_dag(2, 3), r=3, game="prbp")
            solve(problem, solver="greedy")
            doc = log.recent()[-1]
            assert doc.solver_requested == "greedy"
            assert list(doc.attempts) == []
        finally:
            configure_telemetry()


class TestAutoPortfolioAttribution:
    def test_auto_wall_time_covers_all_attempts(self):
        problem = PebblingProblem(kary_tree_dag(2, 4), r=3, game="prbp")
        result = solve(problem)
        stats = result.solve_stats
        assert stats is not None and stats.attempts
        assert [a.outcome for a in stats.attempts].count("won") == 1
        winner = next(a for a in stats.attempts if a.outcome == "won")
        assert winner.solver == result.solver
        # the headline wall time is the whole portfolio, so it can never be
        # smaller than the sum of the members it ran (the PR-10 fix)
        member_total = sum(a.wall_time_s for a in stats.attempts)
        assert stats.wall_time_s >= member_total * 0.99
        assert all(a.outcome in ("won", "lost", "failed", "skipped") for a in stats.attempts)

    # (solver, outcome) sequences of the auto portfolio report, pinned so a
    # refactor of its bookkeeping cannot reorder or relabel members (the
    # budget=0 sequence is pinned in test_api's test_auto_honours_budget_zero)
    @pytest.mark.parametrize(
        "problem,expected",
        [
            (
                PebblingProblem(figure1_gadget(), r=4, game="prbp"),
                [("exhaustive", "won")],
            ),
            (
                PebblingProblem(kary_tree_dag(2, 4), r=17, game="rbp"),
                [("exhaustive", "skipped"), ("tree", "lost"), ("greedy", "won")],
            ),
        ],
        ids=["exhaustive-wins", "structured-vs-greedy"],
    )
    def test_auto_attempt_sequence_is_pinned(self, problem, expected):
        result = solve(problem)
        assert [(a.solver, a.outcome) for a in result.solve_stats.attempts] == expected
        assert result.solver == expected[-1][0]

    def test_direct_solver_has_no_attempts(self):
        problem = PebblingProblem(kary_tree_dag(2, 3), r=3, game="prbp")
        result = solve(problem, solver="greedy")
        assert result.solve_stats is not None
        assert result.solve_stats.attempts == ()

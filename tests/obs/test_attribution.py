"""Unit tests for request trace contexts and the attribution analyzer.

The contract under test is the one ``repro serve-sim --report`` relies
on: every request's latency components sum exactly to its total
(queueing is the residual), execution time splits fs/disk/cleaner by
monotone counter deltas, and the aggregation into p50/p99/share tables
is deterministic.
"""

from __future__ import annotations

import pytest

from repro.obs.attribution import (
    build_trace_report,
    link_counts,
    max_sum_error,
    request_roots,
)
from repro.obs.context import (
    COMPONENTS,
    NULL_TRACE_CONTEXT,
    RequestTracer,
    StallProbe,
    TraceContext,
)
from repro.obs.tracer import SpanTracer
from repro.sim.clock import SimClock


@pytest.fixture
def tracer(clock: SimClock) -> SpanTracer:
    return SpanTracer(clock=clock)


def make_context(tracer: SpanTracer, fs=None) -> TraceContext:
    root = tracer.begin("service.request", client=0)
    root.attrs["kind"] = "write"
    return TraceContext(tracer, root, StallProbe(fs))


class TestExplicitSpans:
    def test_begin_finish_off_the_stack(self, tracer, clock):
        a = tracer.begin("service.request", client=1)
        b = tracer.begin("service.request", client=2)
        clock.advance(1.0)
        tracer.finish(b)
        tracer.finish(a)
        spans = tracer.by_kind("service.request")
        assert [s.attrs["client"] for s in spans] == [2, 1]
        assert all(s.parent_id is None for s in spans)
        assert tracer.kind_counts["service.request"] == 2

    def test_resume_parents_nested_spans_under_the_root(self, tracer):
        root = tracer.begin("service.request")
        tracer.resume(root)
        with tracer.span("cleaner.clean"):
            pass
        tracer.suspend(root)
        with tracer.span("fs.write"):
            pass
        tracer.finish(root)
        (clean,) = tracer.by_kind("cleaner.clean")
        (write,) = tracer.by_kind("fs.write")
        assert clean.parent_id == root.span_id
        assert write.parent_id is None

    def test_links_serialize_only_when_present(self, tracer):
        root = tracer.begin("service.request")
        linked = tracer.begin("cleaner.clean")
        tracer.add_link(linked, root.span_id, "pays_for")
        tracer.finish(linked)
        tracer.finish(root)
        (clean,) = tracer.by_kind("cleaner.clean")
        assert clean.to_dict()["links"] == [
            {"target": root.span_id, "relation": "pays_for"}
        ]
        (req,) = tracer.by_kind("service.request")
        assert "links" not in req.to_dict()

    def test_disabled_tracer_returns_none_and_tolerates_it(self):
        tracer = SpanTracer(enabled=False)
        span = tracer.begin("service.request")
        assert span is None
        tracer.finish(span)
        tracer.resume(span)
        tracer.suspend(span)
        assert tracer.current_span() is None
        assert tracer.spans == []


class TestTraceContext:
    def test_charge_split_semantics(self, tracer):
        ctx = make_context(tracer)
        # 10s elapsed; 4s sync disk stall of which 1s was the cleaner's
        # own I/O; 3s cleaner busy time.  The cleaner keeps its wall
        # time whole, disk gets only the non-cleaner stalls.
        ctx.charge_split(10.0, (4.0, 3.0, 1.0))
        assert ctx.components["disk"] == 3.0
        assert ctx.components["cleaner_throttle"] == 3.0
        assert ctx.components["fs"] == 4.0

    def test_finish_makes_queueing_the_exact_residual(self, tracer):
        ctx = make_context(tracer)
        ctx.charge("admission_retry", 0.25)
        ctx.charge_split(1.0, (0.5, 0.0, 0.0))
        ctx.finish(2.0)
        root = ctx.root
        assert root.attrs["lat.total"] == 2.0
        assert root.attrs["lat.queueing"] == 2.0 - (0.25 + 1.0)
        total = sum(root.attrs[f"lat.{name}"] for name in COMPONENTS)
        assert total == pytest.approx(2.0, abs=0.0)
        assert root.end is not None

    def test_labeled_wait_charges_its_component(self, tracer, clock):
        ctx = make_context(tracer)
        ctx.begin_wait("service.commit_wait", "commit_wait")
        clock.advance(0.125)
        ctx.end_wait()
        ctx.end_wait()  # idempotent
        assert ctx.components["commit_wait"] == 0.125
        (wait,) = tracer.by_kind("service.commit_wait")
        assert wait.parent_id == ctx.root.span_id

    def test_activate_deactivate_diffs_the_probe(self, tracer, clock):
        from types import SimpleNamespace

        fs = SimpleNamespace(
            disk=SimpleNamespace(sync_stall_seconds=0.0),
            cleaner=SimpleNamespace(
                stats=SimpleNamespace(
                    busy_seconds=0.0, disk_stall_seconds=0.0
                )
            ),
        )
        ctx = make_context(tracer, fs)
        ctx.activate()
        clock.advance(3.0)
        fs.disk.sync_stall_seconds += 1.0
        ctx.deactivate()
        assert ctx.components["disk"] == 1.0
        assert ctx.components["fs"] == 2.0
        # deactivate without activate is a no-op
        ctx.deactivate()
        assert ctx.components["fs"] == 2.0

    def test_null_context_is_falsy_and_inert(self):
        assert not NULL_TRACE_CONTEXT
        NULL_TRACE_CONTEXT.activate()
        NULL_TRACE_CONTEXT.begin_wait("service.commit_wait", "commit_wait")
        NULL_TRACE_CONTEXT.end_wait()
        NULL_TRACE_CONTEXT.charge("fs", 1.0)
        NULL_TRACE_CONTEXT.charge_split(1.0, (0.0, 0.0, 0.0))
        NULL_TRACE_CONTEXT.deactivate()
        NULL_TRACE_CONTEXT.finish(1.0)
        assert NULL_TRACE_CONTEXT.root is None


class TestRequestTracer:
    def test_disabled_telemetry_yields_the_null_context(self):
        from repro.obs import Telemetry

        factory = RequestTracer(Telemetry(enabled=False), fs=None)
        assert factory.context(0, "write") is NULL_TRACE_CONTEXT

    def test_enabled_telemetry_builds_rooted_contexts(self, clock):
        from repro.obs import Telemetry

        telemetry = Telemetry(clock=clock)
        factory = RequestTracer(telemetry, fs=None)
        ctx = factory.context(7, "fsync")
        assert ctx.root.attrs == {"client": 7, "kind": "fsync"}
        ctx.finish(0.0)
        assert telemetry.tracer.kind_counts["service.request"] == 1


class TestAnalyzer:
    def _finish_requests(self, tracer, totals):
        for index, total in enumerate(totals):
            ctx = make_context(tracer)
            ctx.charge("fs", total / 2.0)
            ctx.finish(total)

    def test_report_structure_and_sum_invariant(self, tracer):
        self._finish_requests(tracer, [0.1, 0.2, 0.3, 0.4])

        class T:
            pass

        telemetry = T()
        telemetry.tracer = tracer
        report = build_trace_report(
            telemetry, config={"clients": 4, "seed": 0}
        )
        assert report["requests"] == 4
        assert report["max_sum_error"] == 0.0
        overall = report["attribution"]["overall"]
        assert overall["count"] == 4
        assert set(overall["components"]) == set(COMPONENTS)
        shares = sum(
            overall["components"][name]["share"] for name in COMPONENTS
        )
        assert shares == pytest.approx(1.0, abs=1e-4)
        assert report["attribution"]["by_kind"]["write"]["count"] == 4
        assert report["config"] == {"clients": 4, "seed": 0}

    def test_request_roots_skip_unfinished_and_foreign_spans(self, tracer):
        unfinished = tracer.begin("service.request")
        with tracer.span("fs.write"):
            pass
        self._finish_requests(tracer, [1.0])
        roots = request_roots(tracer.spans)
        assert len(roots) == 1
        assert max_sum_error(roots) == 0.0
        tracer.finish(unfinished)

    def test_link_counts(self, tracer):
        root = tracer.begin("service.request")
        clean = tracer.begin("cleaner.clean")
        tracer.add_link(clean, root.span_id, "pays_for")
        commit = tracer.begin("service.group_commit")
        tracer.add_link(commit, root.span_id, "commits")
        tracer.add_link(commit, root.span_id, "commits")
        for span in (clean, commit, root):
            tracer.finish(span)
        assert link_counts(tracer.spans) == {"pays_for": 1, "commits": 2}

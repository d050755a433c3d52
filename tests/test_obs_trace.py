"""Tracer unit tests: deterministic identity, propagation, exports."""

import json
import threading

import pytest

from repro.obs import (
    NULL_SPAN,
    TIMING_FIELDS,
    Span,
    Tracer,
    check_trace,
    load_trace,
    render_flame,
    spans_to_jsonl,
    structural_order,
    write_trace,
)


class FakeClock:
    """Injectable clock advancing a fixed step per call."""

    def __init__(self, start=0.0, step=0.25):
        self.now = start
        self.step = step

    def __call__(self):
        self.now += self.step
        return self.now


def build_tree(tracer):
    """A small request -> stage -> step tree; returns the root span."""
    with tracer.span("request:ask", kind="request", key="r1") as root:
        with tracer.span("stage:intent", kind="stage"):
            pass
        with tracer.span("stage:generate", kind="stage"):
            with tracer.span("step:count_nodes", kind="step"):
                pass
    return root


class TestSpanIdentity:
    def test_same_seed_same_ids(self):
        ids = []
        for __ in range(2):
            tracer = Tracer(seed=11)
            build_tree(tracer)
            ids.append([s.span_id for s in tracer.finished_spans()])
        assert ids[0] == ids[1]

    def test_identity_is_clock_independent(self):
        slow = Tracer(seed=3, clock=FakeClock(step=5.0),
                      cpu_clock=FakeClock(step=1.0))
        fast = Tracer(seed=3, clock=FakeClock(step=0.001),
                      cpu_clock=FakeClock(step=0.0005))
        build_tree(slow)
        build_tree(fast)
        assert [s.span_id for s in slow.finished_spans()] == \
            [s.span_id for s in fast.finished_spans()]
        # but the timings themselves differ — they come from the clock
        assert slow.finished_spans()[0].wall_seconds != \
            fast.finished_spans()[0].wall_seconds

    def test_different_seed_different_ids(self):
        a, b = Tracer(seed=0), Tracer(seed=1)
        build_tree(a)
        build_tree(b)
        ids_a = {s.span_id for s in a.finished_spans()}
        ids_b = {s.span_id for s in b.finished_spans()}
        assert ids_a.isdisjoint(ids_b)

    def test_root_identity_keyed_not_arrival_ordered(self):
        """Roots with distinct keys get the same IDs in either order."""
        ab, ba = Tracer(seed=0), Tracer(seed=0)
        with ab.span("request", key="aaaa"):
            pass
        with ab.span("request", key="bbbb"):
            pass
        with ba.span("request", key="bbbb"):
            pass
        with ba.span("request", key="aaaa"):
            pass
        ids_ab = {s.span_id for s in ab.finished_spans()}
        ids_ba = {s.span_id for s in ba.finished_spans()}
        assert ids_ab == ids_ba

    def test_duplicate_key_gets_fresh_occurrence_index(self):
        tracer = Tracer(seed=0)
        with tracer.span("request", key="same"):
            pass
        with tracer.span("request", key="same"):
            pass
        first, second = tracer.finished_spans()
        assert first.span_id != second.span_id
        assert (first.index, second.index) == (0, 1)

    def test_sibling_indices_sequential(self):
        tracer = Tracer(seed=0)
        with tracer.span("parent"):
            for __ in range(3):
                with tracer.span("child"):
                    pass
        children = [s for s in tracer.finished_spans()
                    if s.name == "child"]
        assert [c.index for c in children] == [0, 1, 2]


class TestPropagation:
    def test_nesting_sets_parent(self):
        tracer = Tracer(seed=0)
        build_tree(tracer)
        spans = {s.name: s for s in tracer.finished_spans()}
        root = spans["request:ask"]
        assert root.parent_id is None
        assert spans["stage:intent"].parent_id == root.span_id
        assert spans["step:count_nodes"].parent_id == \
            spans["stage:generate"].span_id

    def test_explicit_none_forces_root(self):
        tracer = Tracer(seed=0)
        with tracer.span("outer"):
            with tracer.span("detached", parent=None) as span:
                assert span.parent_id is None

    def test_parent_by_span_id_string(self):
        """A span ID captured on one thread parents spans on another."""
        tracer = Tracer(seed=0)
        with tracer.span("submit") as submit_span:
            captured = tracer.current_id()
        assert captured == submit_span.span_id
        with tracer.span("handled", parent=captured) as span:
            assert span.parent_id == captured

    def test_stacks_are_thread_local(self):
        tracer = Tracer(seed=0)
        seen = {}

        def worker():
            seen["current"] = tracer.current()
            with tracer.span("worker-root") as span:
                seen["parent_id"] = span.parent_id

        with tracer.span("main-root"):
            thread = threading.Thread(target=worker)
            thread.start()
            thread.join()
        # the worker thread never saw the main thread's open span
        assert seen["current"] is None
        assert seen["parent_id"] is None

    def test_current_outside_any_span(self):
        tracer = Tracer(seed=0)
        assert tracer.current() is None
        assert tracer.current_id() is None


class TestLifecycle:
    def test_exception_marks_error_and_propagates(self):
        tracer = Tracer(seed=0)
        with pytest.raises(ValueError):
            with tracer.span("doomed"):
                raise ValueError("boom")
        (span,) = tracer.finished_spans()
        assert span.status == "error"
        assert "ValueError: boom" in span.error
        assert span.wall_seconds >= 0.0

    def test_explicit_mark_error_survives_exception(self):
        tracer = Tracer(seed=0)
        with pytest.raises(RuntimeError):
            with tracer.span("doomed") as span:
                span.mark_error("my own message")
                raise RuntimeError("secondary")
        (span,) = tracer.finished_spans()
        assert span.error == "my own message"

    def test_attrs_via_kwargs_and_set(self):
        tracer = Tracer(seed=0)
        with tracer.span("s", api="count_nodes") as span:
            span.set(attempts=2)
        (span,) = tracer.finished_spans()
        assert span.attrs == {"api": "count_nodes", "attempts": 2}

    def test_max_spans_cap_counts_drops(self):
        tracer = Tracer(seed=0, max_spans=2)
        for index in range(5):
            with tracer.span(f"s{index}"):
                pass
        assert len(tracer.finished_spans()) == 2
        stats = tracer.stats()
        assert stats["spans"] == 2
        assert stats["dropped"] == 3

    def test_max_spans_validation(self):
        with pytest.raises(ValueError):
            Tracer(max_spans=0)

    def test_clear_resets_everything(self):
        tracer = Tracer(seed=0, max_spans=1)
        with tracer.span("a", key="k"):
            pass
        with tracer.span("b"):
            pass
        tracer.clear()
        assert tracer.finished_spans() == ()
        assert tracer.stats() == {"spans": 0, "dropped": 0,
                                  "max_spans": 1, "by_kind": {}}
        # occurrence counters reset too: same key -> same root id again
        with tracer.span("a", key="k") as span:
            pass
        assert span.index == 0

    def test_request_spans_selects_one_tree(self):
        tracer = Tracer(seed=0)
        root_a = build_tree(tracer)
        with tracer.span("request:other", key="r2"):
            with tracer.span("stage:intent", kind="stage"):
                pass
        tree = tracer.request_spans(root_a.span_id)
        assert {s.name for s in tree} == {
            "request:ask", "stage:intent", "stage:generate",
            "step:count_nodes"}

    def test_stats_by_kind(self):
        tracer = Tracer(seed=0)
        build_tree(tracer)
        assert tracer.stats()["by_kind"] == {
            "request": 1, "stage": 2, "step": 1}

    def test_null_span_is_inert(self):
        NULL_SPAN.set(anything=1)
        NULL_SPAN.mark_error("ignored")


class TestExport:
    def test_canonical_drops_timing_fields(self):
        tracer = Tracer(seed=0)
        build_tree(tracer)
        for line in spans_to_jsonl(tracer.finished_spans(),
                                   canonical=True).splitlines():
            data = json.loads(line)
            assert not set(TIMING_FIELDS) & set(data)

    def test_full_export_keeps_timings_and_start_order(self):
        tracer = Tracer(seed=0, clock=FakeClock())
        build_tree(tracer)
        dicts = load_trace(spans_to_jsonl(tracer.finished_spans()))
        assert all("wall_seconds" in d for d in dicts)
        starts = [d["start"] for d in dicts]
        assert starts == sorted(starts)

    def test_canonical_byte_identical_across_clocks(self):
        blobs = []
        for step in (0.001, 7.0):
            tracer = Tracer(seed=5, clock=FakeClock(step=step))
            build_tree(tracer)
            blobs.append(spans_to_jsonl(tracer.finished_spans(),
                                        canonical=True))
        assert blobs[0] == blobs[1]

    def test_structural_order_is_depth_first(self):
        tracer = Tracer(seed=0)
        build_tree(tracer)
        # feed spans in reversed completion order; structure must win
        ordered = structural_order(list(tracer.finished_spans())[::-1])
        assert [d["name"] for d in ordered] == [
            "request:ask", "stage:intent", "stage:generate",
            "step:count_nodes"]

    def test_roundtrip_write_read(self, tmp_path):
        tracer = Tracer(seed=0)
        build_tree(tracer)
        path = tmp_path / "trace.jsonl"
        write_trace(path, tracer.finished_spans())
        from repro.obs import read_trace
        spans = read_trace(path)
        assert len(spans) == 4
        assert check_trace(spans) == []

    def test_load_trace_reports_bad_line(self):
        with pytest.raises(ValueError, match="line 2"):
            load_trace('{"span_id": "a"}\nnot json\n')

    def test_check_trace_finds_structural_problems(self):
        ok = {"span_id": "a", "parent_id": None, "name": "root"}
        assert check_trace([ok]) == []
        problems = check_trace([
            ok,
            {"span_id": "a", "parent_id": None, "name": "dup"},
            {"span_id": "b", "parent_id": "missing", "name": "orphan"},
            {"span_id": "c", "parent_id": "c", "name": "loop"},
        ])
        text = "\n".join(problems)
        assert "duplicate span_id a" in text
        assert "unknown parent missing" in text
        assert "own parent" in text

    def test_render_flame_shapes(self):
        tracer = Tracer(seed=0, clock=FakeClock())
        build_tree(tracer)
        full = render_flame(tracer.finished_spans())
        assert "request:ask" in full and "ms" in full
        # canonical traces render with '-' placeholders, no crash
        canonical = load_trace(spans_to_jsonl(tracer.finished_spans(),
                                              canonical=True))
        assert "-" in render_flame(canonical)
        assert render_flame([]) == "(empty trace)"

    def test_render_flame_marks_errors(self):
        tracer = Tracer(seed=0)
        with pytest.raises(ValueError):
            with tracer.span("bad"):
                raise ValueError("x")
        assert "!error" in render_flame(tracer.finished_spans())

    def test_span_to_dict_error_field_only_when_set(self):
        span = Span(span_id="a", parent_id=None, name="n", kind="span",
                    index=0, start=0.0)
        assert "error" not in span.to_dict()
        span.mark_error("bad")
        assert span.to_dict()["error"] == "bad"

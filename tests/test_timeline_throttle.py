"""Unit tests for ASCII timeline rendering."""

from tests.conftest import make_record

from repro.analysis.timeline import (
    GanttSpan,
    extract_spans,
    render_event_timeline,
    render_gantt,
    render_rate_heatmap,
)
from repro.analysis.trace import Trace
from repro.core.records import EventRecord, FieldType


def span_record(event_id: int, span_id: int, label: str, ts: int, node: int = 1):
    return EventRecord(
        event_id=event_id,
        timestamp=ts,
        field_types=(FieldType.X_UINT, FieldType.X_STRING),
        values=(span_id, label),
        node_id=node,
    )


class TestExtractSpans:
    def test_pairs_begin_end(self):
        trace = Trace(
            [
                span_record(10, 1, "solve", 100),
                span_record(11, 1, "solve", 600),
            ]
        )
        spans = extract_spans(trace, begin_event=10, end_event=11)
        assert spans == [GanttSpan(1, "solve", 100, 600)]
        assert spans[0].duration_us == 500

    def test_interleaved_spans_on_one_node(self):
        trace = Trace(
            [
                span_record(10, 1, "a", 0),
                span_record(10, 2, "b", 100),
                span_record(11, 1, "a", 200),
                span_record(11, 2, "b", 400),
            ]
        )
        spans = extract_spans(trace, 10, 11)
        assert [(s.label, s.start_us, s.end_us) for s in spans] == [
            ("a", 0, 200),
            ("b", 100, 400),
        ]

    def test_unmatched_begin_closes_at_trace_end(self):
        trace = Trace(
            [span_record(10, 1, "hang", 100), make_record(timestamp=900)]
        )
        spans = extract_spans(trace, 10, 11)
        assert spans[0].end_us == 900

    def test_same_span_id_on_different_nodes(self):
        trace = Trace(
            [
                span_record(10, 1, "x", 0, node=1),
                span_record(10, 1, "x", 10, node=2),
                span_record(11, 1, "x", 100, node=1),
                span_record(11, 1, "x", 200, node=2),
            ]
        )
        spans = extract_spans(trace, 10, 11)
        assert len(spans) == 2
        assert {s.node_id for s in spans} == {1, 2}

    def test_empty_trace(self):
        assert extract_spans(Trace([]), 10, 11) == []


class TestRenderers:
    def test_gantt_contains_labels_and_bars(self):
        spans = [
            GanttSpan(1, "solve", 0, 500_000),
            GanttSpan(2, "io", 250_000, 750_000),
        ]
        art = render_gantt(spans, width=40)
        lines = art.splitlines()
        assert "n1 solve" in lines[0]
        assert "█" in lines[0]
        # The later span's bar starts further right.
        assert lines[1].index("█") > lines[0].index("█")

    def test_gantt_empty(self):
        assert render_gantt([]) == "(no spans)"

    def test_heatmap_rows_per_node(self):
        records = [
            make_record(timestamp=t, node_id=node)
            for node in (1, 2)
            for t in range(0, 1_000_000, 10_000)
        ]
        art = render_rate_heatmap(Trace(records), bins=20)
        lines = art.splitlines()
        assert lines[0].startswith("node   1")
        assert lines[1].startswith("node   2")
        assert "peak" in lines[-1]

    def test_heatmap_empty(self):
        assert render_rate_heatmap(Trace([])) == "(empty trace)"

    def test_event_timeline_lane_per_event(self):
        records = [
            make_record(event_id=e, timestamp=t)
            for e in (1, 2)
            for t in (0, 500, 999)
        ]
        art = render_event_timeline(Trace(records), width=30)
        lines = art.splitlines()
        assert len(lines) == 2
        assert lines[0].count("|") >= 2

    def test_event_timeline_lane_cap(self):
        records = [
            make_record(event_id=e, timestamp=e) for e in range(20)
        ]
        art = render_event_timeline(Trace(records), max_lanes=5)
        assert "(+15 more event types)" in art

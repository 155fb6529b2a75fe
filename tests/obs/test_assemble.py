"""Trace assembly: parent links, cross-node stitching, critical path."""

from __future__ import annotations

import json

from repro.obs import Span
from repro.obs.assemble import (
    assemble,
    critical_path,
    load_spans,
    phase_aggregates,
    summarize,
)

TRACE = "f" * 16


def make_span(
    span_id,
    name,
    node,
    start,
    duration,
    parent=None,
    trace=TRACE,
    status="ok",
):
    return Span(
        trace_id=trace,
        span_id=span_id,
        parent_id=parent,
        name=name,
        node=node,
        start_s=start,
        duration_s=duration,
        status=status,
    )


def synthetic_update_trace():
    """A realistic cross-node update: client -> dssp-0 -> home, then an
    async push applied on dssp-1.  Times in seconds from epoch 1000."""
    return [
        # client process
        make_span("1", "client.request", "client", 1000.000, 0.100),
        make_span("2", "client.exchange", "client", 1000.005, 0.090, "1"),
        # origin shard (explicit parents within the node; its top-level
        # handle span is stitched under the client by containment)
        make_span("1", "server.decode", "dssp-0", 1000.006, 0.002),
        make_span("2", "server.handle", "dssp-0", 1000.012, 0.080),
        make_span("3", "dssp.update_forward", "dssp-0", 1000.014, 0.060, "2"),
        make_span("4", "client.request", "dssp-0", 1000.015, 0.055, "3"),
        make_span("5", "dssp.invalidate", "dssp-0", 1000.075, 0.010, "2"),
        # home (stitched under the dssp's nested client.request)
        make_span("1", "server.handle", "home", 1000.020, 0.045),
        make_span("2", "home.crypto_open", "home", 1000.021, 0.005, "1"),
        make_span("3", "home.db_apply", "home", 1000.027, 0.020, "1"),
        make_span("4", "storage.execute", "home", 1000.028, 0.010, "3"),
        make_span("5", "home.fanout_enqueue", "home", 1000.050, 0.005, "1"),
        # async, after the ack: never stitched, always roots
        make_span("6", "home.push_send", "home", 1000.103, 0.004),
        make_span("1", "dssp.stream_apply", "dssp-1", 1000.108, 0.003),
    ]


class TestAssembly:
    def test_within_node_parent_links_honored(self):
        trees = assemble(synthetic_update_trace())
        tree = trees[TRACE]
        handle = next(
            node
            for node in tree.walk()
            if node.span.name == "server.handle" and node.span.node == "dssp-0"
        )
        child_names = {child.span.name for child in handle.children}
        assert "dssp.update_forward" in child_names
        assert "dssp.invalidate" in child_names

    def test_cross_node_spans_stitched_by_containment(self):
        trees = assemble(synthetic_update_trace())
        tree = trees[TRACE]
        # The home's handle span lands under the dssp's nested client
        # call — its smallest strictly-longer container.
        home_handle = next(
            node
            for node in tree.walk()
            if node.span.node == "home" and node.span.name == "server.handle"
        )
        forward_request = next(
            node
            for node in tree.walk()
            if node.span.node == "dssp-0"
            and node.span.name == "client.request"
        )
        assert home_handle in forward_request.children

    def test_async_phases_stay_roots(self):
        trees = assemble(synthetic_update_trace())
        tree = trees[TRACE]
        root_names = {root.span.name for root in tree.roots}
        assert "home.push_send" in root_names
        assert "dssp.stream_apply" in root_names
        # ... but the primary root is the earliest span: the client's.
        assert tree.root.span.name == "client.request"
        assert tree.duration_s == 0.100

    def test_complete_update_detection(self):
        tree = assemble(synthetic_update_trace())[TRACE]
        assert tree.is_complete_update()
        incomplete = assemble(
            [make_span("1", "client.request", "client", 1000.0, 0.1)]
        )[TRACE]
        assert not incomplete.is_complete_update()

    def test_traces_do_not_mix(self):
        spans = synthetic_update_trace() + [
            make_span("9", "client.request", "client", 2000.0, 0.5, trace="e" * 16)
        ]
        trees = assemble(spans)
        assert set(trees) == {TRACE, "e" * 16}
        assert len(trees["e" * 16].spans) == 1


class TestCriticalPath:
    def test_self_times_partition_root_duration(self):
        tree = assemble(synthetic_update_trace())[TRACE]
        path = critical_path(tree)
        assert path["total_s"] == 0.100
        # Clipped-union self times are a partition of the root interval:
        # they sum exactly to the end-to-end latency.
        assert abs(path["covered_s"] - path["total_s"]) < 1e-9

    def test_entries_sorted_and_labeled(self):
        tree = assemble(synthetic_update_trace())[TRACE]
        entries = critical_path(tree)["entries"]
        selfs = [entry["self_s"] for entry in entries]
        assert selfs == sorted(selfs, reverse=True)
        assert all(
            set(entry) == {"name", "node", "self_s", "share"}
            for entry in entries
        )
        total_share = sum(entry["share"] for entry in entries)
        assert abs(total_share - 1.0) < 1e-9

    def test_overlapping_children_not_double_counted(self):
        spans = [
            make_span("1", "server.handle", "n", 1000.0, 0.10),
            make_span("2", "a", "n", 1000.01, 0.05, "1"),
            make_span("3", "b", "n", 1000.03, 0.05, "1"),  # overlaps a
        ]
        tree = assemble(spans)[TRACE]
        handle_self = next(
            entry
            for entry in critical_path(tree)["entries"]
            if entry["name"] == "server.handle"
        )
        # Children cover [0.01, 0.08): union 0.07, so self is 0.03 — not
        # the 0.0 a naive sum of child durations would give.
        assert abs(handle_self["self_s"] - 0.03) < 1e-9


class TestAggregatesAndSummary:
    def test_phase_aggregates_exact(self):
        spans = [
            make_span(str(i), "dssp.cache_lookup", "n", 1000.0 + i, d)
            for i, d in enumerate([0.001, 0.002, 0.003, 0.004])
        ]
        aggregates = phase_aggregates(spans)
        lookup = aggregates["dssp.cache_lookup"]
        assert lookup["count"] == 4
        assert abs(lookup["mean_s"] - 0.0025) < 1e-12
        assert lookup["max_s"] == 0.004
        # One quantile definition repo-wide: linear interpolation, as in
        # simulation.metrics.percentile (nearest rank would say 0.003).
        assert abs(lookup["p50_s"] - 0.0025) < 1e-12
        assert abs(lookup["p99_s"] - 0.00397) < 1e-12

    def test_summarize_shape_and_ranking(self):
        trees = assemble(synthetic_update_trace())
        summary = summarize(trees, slowest=3)
        assert summary["traces"] == 1
        assert summary["complete_update_traces"] == 1
        assert summary["nodes"] == ["client", "dssp-0", "dssp-1", "home"]
        slowest = summary["slowest"][0]
        assert slowest["trace"] == TRACE
        assert slowest["duration_s"] == 0.100
        assert slowest["critical_path"]
        json.dumps(summary)  # JSON-safe for the CLI --json path

    def test_load_spans_round_trip(self, tmp_path):
        spans = synthetic_update_trace()
        by_node = {}
        for span in spans:
            by_node.setdefault(span.node, []).append(span)
        paths = []
        for node, members in by_node.items():
            path = tmp_path / f"{node}.jsonl"
            path.write_text(
                "\n".join(json.dumps(s.to_dict()) for s in members) + "\n"
            )
            paths.append(path)
        loaded = load_spans(paths)
        assert len(loaded) == len(spans)
        assert assemble(loaded)[TRACE].is_complete_update()

"""Join per-node span logs into trace trees; profile the critical path.

Each process writes its own JSON-lines span log (:class:`~repro.obs.trace.
SpanSink`).  This module is the offline half of the tracing story: load
the logs of N nodes, group spans by trace id, rebuild each trace's tree,
and answer "where did the time go" — per-phase aggregates across all
traces, and a self-time critical-path decomposition per trace.

Cross-node stitching: within one node, parent links are explicit
(``parent`` span ids are authoritative).  Across nodes the wire carries
only the trace id, so a node's top-level span (e.g. the home's
``server.handle`` for a forwarded miss) is attached to the *smallest
enclosing span* of the same trace by wall-clock containment — sound on a
shared clock because the request path is strictly nested: the DSSP's
forward span brackets the home's handle span.  Spans contained by
nothing (the client's root, and post-ack asynchronous work like
invalidation pushes) remain roots; a trace is therefore a small forest
whose primary root is the earliest-starting span.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path

from repro.obs.trace import Span
from repro.simulation.metrics import percentile

__all__ = [
    "TraceNode",
    "TraceTree",
    "assemble",
    "critical_path",
    "load_spans",
    "phase_aggregates",
    "summarize",
]

#: Wall-clock slack allowed when testing interval containment, seconds.
#: Same-host processes share the clock; this absorbs timer granularity.
CONTAINMENT_SLACK_S = 0.002

#: Phases that are *asynchronous by design* — they run after the update
#: was acked, so they are forest roots and must never be stitched under
#: the synchronous request tree (the slack would otherwise absorb small
#: post-ack gaps and double-count their time on the critical path).
ASYNC_PHASES = frozenset({"home.push_send", "dssp.stream_apply"})

#: Phases that must all appear for an update trace to count as a
#: *complete cross-node* trace: client send, DSSP handle + forward, home
#: apply, fan-out enqueue, push send, and the receiving node's apply.
REQUIRED_UPDATE_PHASES = frozenset(
    {
        "client.request",
        "server.handle",
        "home.db_apply",
        "home.fanout_enqueue",
        "home.push_send",
        "dssp.stream_apply",
    }
)


@dataclass
class TraceNode:
    """One span plus its resolved children, ordered by start time."""

    span: Span
    children: list["TraceNode"] = field(default_factory=list)

    def walk(self):
        yield self
        for child in self.children:
            yield from child.walk()


class TraceTree:
    """All spans of one trace, assembled into a forest."""

    def __init__(self, trace_id: str, roots: list[TraceNode]) -> None:
        self.trace_id = trace_id
        self.roots = roots

    @property
    def root(self) -> TraceNode:
        """The primary root: the earliest-starting top-level span."""
        return min(self.roots, key=lambda node: node.span.start_s)

    def walk(self):
        for root in self.roots:
            yield from root.walk()

    @property
    def spans(self) -> list[Span]:
        return [node.span for node in self.walk()]

    @property
    def names(self) -> set[str]:
        return {span.name for span in self.spans}

    @property
    def node_ids(self) -> set[str]:
        return {span.node for span in self.spans}

    @property
    def duration_s(self) -> float:
        """End-to-end latency as the client measured it (primary root)."""
        return self.root.span.duration_s

    def is_complete_update(self) -> bool:
        """Client → dssp → home → fan-out → apply, across >= 3 nodes."""
        return (
            REQUIRED_UPDATE_PHASES <= self.names and len(self.node_ids) >= 3
        )


def load_spans(paths) -> list[Span]:
    """Read spans from JSON-lines logs (blank lines tolerated)."""
    import json

    spans: list[Span] = []
    for path in paths:
        text = Path(path).read_text(encoding="utf-8")
        for line in text.splitlines():
            line = line.strip()
            if line:
                spans.append(Span.from_dict(json.loads(line)))
    return spans


def _contains(outer: Span, inner: Span) -> bool:
    return (
        outer.start_s - CONTAINMENT_SLACK_S <= inner.start_s
        and inner.end_s <= outer.end_s + CONTAINMENT_SLACK_S
    )


def _assemble_one(trace_id: str, spans: list[Span]) -> TraceTree:
    nodes = [TraceNode(span) for span in spans]
    by_id = {(node.span.node, node.span.span_id): node for node in nodes}
    tops: list[TraceNode] = []
    for node in nodes:
        parent_key = (node.span.node, node.span.parent_id)
        parent = by_id.get(parent_key) if node.span.parent_id else None
        if parent is not None and parent is not node:
            parent.children.append(node)
        else:
            tops.append(node)
    roots: list[TraceNode] = []
    for node in tops:
        if node.span.name in ASYNC_PHASES:
            roots.append(node)
            continue
        # Smallest enclosing span wins; requiring a strictly longer
        # container keeps the stitching acyclic.
        best = None
        for candidate in nodes:
            if candidate is node:
                continue
            if candidate.span.duration_s <= node.span.duration_s:
                continue
            if not _contains(candidate.span, node.span):
                continue
            if best is None or candidate.span.duration_s < best.span.duration_s:
                best = candidate
        if best is not None:
            best.children.append(node)
        else:
            roots.append(node)
    for node in nodes:
        node.children.sort(key=lambda child: child.span.start_s)
    return TraceTree(trace_id, roots)


def assemble(spans: list[Span]) -> dict[str, TraceTree]:
    """Group spans by trace id and build each trace's tree."""
    grouped: dict[str, list[Span]] = {}
    for span in spans:
        grouped.setdefault(span.trace_id, []).append(span)
    return {
        trace_id: _assemble_one(trace_id, members)
        for trace_id, members in grouped.items()
    }


def _union_length(intervals: list[tuple[float, float]]) -> float:
    total = 0.0
    end = float("-inf")
    for start, stop in sorted(intervals):
        if stop <= end:
            continue
        total += stop - max(start, end)
        end = stop
    return total


def _self_time(node: TraceNode) -> float:
    """Span duration minus the union of child intervals (clipped).

    Clipping children to the parent's interval and subtracting their
    *union* makes the self-times of a subtree sum exactly to the root's
    duration — the critical-path breakdown is a partition, not an
    approximation, which is what lets it be checked against the measured
    end-to-end latency.
    """
    start, end = node.span.start_s, node.span.end_s
    intervals = []
    for child in node.children:
        lo = max(child.span.start_s, start)
        hi = min(child.span.end_s, end)
        if hi > lo:
            intervals.append((lo, hi))
    return max(0.0, node.span.duration_s - _union_length(intervals))


def critical_path(tree: TraceTree) -> dict:
    """Self-time decomposition of the primary root's synchronous tree.

    Returns ``{"total_s", "covered_s", "entries"}`` where entries are
    ``{"name", "node", "self_s", "share"}`` aggregated over (node, phase)
    and sorted by self time; ``covered_s`` sums the entries and equals
    ``total_s`` up to wall/perf-clock skew.
    """
    accumulated: dict[tuple[str, str], float] = {}
    for node in tree.root.walk():
        key = (node.span.node, node.span.name)
        accumulated[key] = accumulated.get(key, 0.0) + _self_time(node)
    total = tree.duration_s
    entries = [
        {
            "name": name,
            "node": node_id,
            "self_s": self_s,
            "share": (self_s / total) if total > 0 else 0.0,
        }
        for (node_id, name), self_s in accumulated.items()
    ]
    entries.sort(key=lambda entry: entry["self_s"], reverse=True)
    return {
        "total_s": total,
        "covered_s": sum(entry["self_s"] for entry in entries),
        "entries": entries,
    }


def phase_aggregates(spans: list[Span]) -> dict[str, dict]:
    """Exact per-phase latency aggregates over a span population."""
    by_name: dict[str, list[float]] = {}
    for span in spans:
        by_name.setdefault(span.name, []).append(span.duration_s)
    aggregates = {}
    for name in sorted(by_name):
        durations = sorted(by_name[name])
        aggregates[name] = {
            "count": len(durations),
            "total_s": sum(durations),
            "mean_s": sum(durations) / len(durations),
            "p50_s": percentile(durations, 0.50),
            "p90_s": percentile(durations, 0.90),
            "p99_s": percentile(durations, 0.99),
            "max_s": durations[-1],
        }
    return aggregates


def summarize(trees: dict[str, TraceTree], *, slowest: int = 5) -> dict:
    """The ``repro trace`` JSON report body."""
    all_spans = [span for tree in trees.values() for span in tree.spans]
    complete = [
        tree for tree in trees.values() if tree.is_complete_update()
    ]
    ranked = sorted(
        trees.values(), key=lambda tree: tree.duration_s, reverse=True
    )
    return {
        "traces": len(trees),
        "spans": len(all_spans),
        "nodes": sorted({span.node for span in all_spans}),
        "complete_update_traces": len(complete),
        "phases": phase_aggregates(all_spans),
        "slowest": [
            {
                "trace": tree.trace_id,
                "duration_s": tree.duration_s,
                "root": tree.root.span.name,
                "spans": len(tree.spans),
                "critical_path": critical_path(tree)["entries"][:5],
            }
            for tree in ranked[:slowest]
        ],
    }

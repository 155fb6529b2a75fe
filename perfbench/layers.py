"""Per-layer metrics of the traced run.

Each metric comes from one of three outside sources: the spans the
timing wrappers recorded in the servers (``tracing``), the difference of
the servers' STATS counters across the timed window, or ``/proc`` and
the generator's own clock.  A span metric whose layer has no wrapped
function left in any server reads ``absent``.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass, field

from perfbench.measure import TAIL_PERCENTILE, median, tail
from perfbench.tracing import (
    END,
    LAYER,
    LAYERS,
    RID,
    START,
    LayerStats,
    ProcessSpans,
    in_window,
    layer_stats,
)

#: Short names of the wire frame types the per-frame metrics report.
FRAMES = {
    "QueryRequest": "query",
    "QueryResponse": "result",
    "UpdateRequest": "update",
    "UpdateResponse": "ack",
    "InvalidationPush": "push",
    "InvalidationBatch": "push",
}


@dataclass
class Inputs:
    """What the traced heavy window left behind."""

    processes: list[ProcessSpans]
    started: float
    ended: float
    #: STATS counter differences across the window, and values after it.
    delta: dict
    after: dict
    #: CPU seconds per wall second, by server name.
    busy: dict
    #: Generator-side observations of the window.
    requests: int
    queries: int
    updates: int
    lag_ms: list
    gen_busy: float
    seal_us: float
    #: Page latencies of the untraced and the traced heavy windows.
    untraced_ms: list
    traced_ms: list
    #: Cached views the freshness check found stale after the window.
    stale_views: int


@dataclass
class Groups:
    """Span statistics merged over processes, by role, layer and tag."""

    by_key: dict = field(default_factory=lambda: defaultdict(LayerStats))
    absent: set = field(default_factory=set)

    def pick(self, layer: str, *, role=None, tags=None, parented=None) -> LayerStats:
        total = LayerStats()
        for (r, lay, tag, par), stats in self.by_key.items():
            if lay != layer:
                continue
            if role is not None and r != role:
                continue
            if tags is not None and tag not in tags:
                continue
            if parented is not None and par != parented:
                continue
            total.add(stats)
        return total


def _groups(inputs: Inputs) -> tuple[Groups, dict]:
    groups = Groups()
    absent_everywhere = set(LAYERS)
    windowed = {}
    for process in inputs.processes:
        absent_everywhere &= set(process.absent)
        spans = in_window(process.spans, inputs.started, inputs.ended)
        windowed[process.name] = spans
        for (layer, tag, parented), stats in layer_stats(spans).items():
            groups.by_key[(process.role, layer, tag, parented)].add(stats)
    groups.absent = absent_everywhere
    return groups, windowed


def _forward_wait_us(inputs: Inputs, windowed: dict) -> float:
    """Mean DSSP forward time minus the home's handling of the same request."""
    home_handle = {}
    forwards = []
    for process in inputs.processes:
        for span in windowed[process.name]:
            if process.role == "home" and span[LAYER] == "service.handle":
                home_handle[span[RID]] = span[END] - span[START]
            elif process.role == "dssp" and span[LAYER] in (
                "dssp.forward_query", "dssp.forward_update"
            ):
                forwards.append(span)
    waits = [
        span[END] - span[START] - home_handle[span[RID]]
        for span in forwards
        if span[RID] in home_handle
    ]
    return sum(waits) * 1e6 / len(waits) if waits else 0.0


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


@dataclass(frozen=True)
class Metric:
    name: str
    unit: str
    better: str
    #: The span layer the value depends on, for ``absent`` reporting.
    layer: str | None
    compute: object


def _span_mean(layer, **pick):
    return lambda g, i, w: g.pick(layer, **pick).mean_us


def _per_frame(layer, frame):
    tags = {tag for tag, short in FRAMES.items() if short == frame}
    return _span_mean(layer, tags=tags)


def _metrics() -> list[Metric]:
    us = lambda name, layer, compute: Metric(name, "us", "lower", layer, compute)
    table = [
        us("wire.encode_us", "wire.encode", _span_mean("wire.encode")),
        us("wire.decode_us", "wire.decode", _span_mean("wire.decode")),
    ]
    for frame in ("query", "result", "update", "ack", "push"):
        table.append(us(f"wire.encode_us.{frame}", "wire.encode", _per_frame("wire.encode", frame)))
    # Responses and pushes are decoded inside ``read_traced``, together
    # with the wait for their bytes, so only requests have a decode span.
    for frame in ("query", "update"):
        table.append(us(f"wire.decode_us.{frame}", "wire.decode", _per_frame("wire.decode", frame)))
    requests = {"QueryRequest", "UpdateRequest"}
    responses = {"QueryResponse", "UpdateResponse"}
    table += [
        Metric("wire.req_bytes", "B", "lower", "wire.decode",
               lambda g, i, w: g.pick("wire.decode", role="dssp", tags=requests).mean_value),
        Metric("wire.resp_bytes", "B", "lower", "wire.encode",
               lambda g, i, w: g.pick("wire.encode", role="dssp", tags=responses).mean_value),
        us("sql.parse_us", "sql.parse", _span_mean("sql.parse")),
        Metric("sql.parses_per_request", "ratio", "lower", "sql.parse",
               lambda g, i, w: _ratio(g.pick("sql.parse").calls, i.requests)),
        us("service.handle_us", "service.handle", _span_mean("service.handle")),
        us("service.handle_us.dssp_query", "service.handle",
           _span_mean("service.handle", tags={"DsspNetServer:QueryRequest"})),
        us("service.handle_us.dssp_update", "service.handle",
           _span_mean("service.handle", tags={"DsspNetServer:UpdateRequest"})),
        us("service.handle_us.home_query", "service.handle",
           _span_mean("service.handle", tags={"HomeNetServer:QueryRequest"})),
        us("service.handle_us.home_update", "service.handle",
           _span_mean("service.handle", tags={"HomeNetServer:UpdateRequest"})),
        Metric("service.shed", "count", "lower", None, lambda g, i, w: i.delta["shed"]),
        Metric("service.timeouts", "count", "lower", None, lambda g, i, w: i.delta["timeouts"]),
        us("dssp.lookup_us", "dssp.lookup", _span_mean("dssp.lookup")),
        us("dssp.admit_us", "dssp.admit", _span_mean("dssp.admit")),
        Metric("dssp.evictions_per_query", "ratio", "lower", None,
               lambda g, i, w: _ratio(i.delta["dssp.evictions"],
                                      i.delta["dssp.hits"] + i.delta["dssp.misses"])),
        Metric("dssp.cache_entries", "count", "higher", None,
               lambda g, i, w: i.after["dssp.cache_entries"]),
        us("dssp.forward_query_us", "dssp.forward_query",
           _span_mean("dssp.forward_query", role="dssp")),
        us("dssp.forward_update_us", "dssp.forward_update",
           _span_mean("dssp.forward_update", role="dssp")),
        us("dssp.forward_wait_us", "dssp.forward_query",
           lambda g, i, w: _forward_wait_us(i, w)),
        us("dssp.invalidate_us", "dssp.invalidate",
           _span_mean("dssp.invalidate", parented=True)),
        Metric("dssp.invalidations_per_update", "ratio", "lower", None,
               lambda g, i, w: _ratio(i.delta["dssp.invalidations"], i.updates)),
        Metric("dssp.checks_per_update", "ratio", "lower", None,
               lambda g, i, w: _ratio(i.delta["dssp.invalidation_checks"], i.updates)),
        Metric("dssp.decision_memo_rate", "fraction", "higher", None,
               lambda g, i, w: _ratio(
                   i.delta["dssp.decision_memo_hits"],
                   i.delta["dssp.decision_memo_hits"] + i.delta["dssp.invalidation_checks"])),
        us("dssp.stream_apply_us", "dssp.invalidate",
           _span_mean("dssp.invalidate", parented=False)),
        us("home.serve_query_us", "home.serve_query", _span_mean("home.serve_query")),
        us("home.apply_update_us", "home.apply_update", _span_mean("home.apply_update")),
        Metric("home.pushes_per_update", "ratio", "lower", None,
               lambda g, i, w: _ratio(i.delta["home.pushes_sent"], i.updates)),
        Metric("home.push_batch_size", "ratio", "higher", None,
               lambda g, i, w: _ratio(i.delta["home.push_batch_sum"],
                                      i.delta["home.push_batch_count"])),
        us("crypto.open_us", "crypto.open", _span_mean("crypto.open")),
        us("crypto.seal_result_us", "crypto.seal_result", _span_mean("crypto.seal_result")),
        Metric("crypto.seal_us", "us", "lower", None, lambda g, i, w: i.seal_us),
        us("storage.execute_us", "storage.execute", _span_mean("storage.execute")),
        us("storage.apply_us", "storage.apply", _span_mean("storage.apply")),
        Metric("storage.rows_per_query", "ratio", "lower", "storage.execute",
               lambda g, i, w: g.pick("storage.execute").mean_value),
        Metric("proc.dssp_busy", "fraction", "lower", None,
               lambda g, i, w: max(v for k, v in i.busy.items() if k.startswith("dssp"))),
        Metric("proc.home_busy", "fraction", "lower", None, lambda g, i, w: i.busy["home"]),
        Metric(f"gen.lag_p{TAIL_PERCENTILE:g}_ms", "ms", "lower", None,
               lambda g, i, w: tail(i.lag_ms, TAIL_PERCENTILE) or max(i.lag_ms, default=0.0)),
        Metric("gen.busy", "fraction", "lower", None, lambda g, i, w: i.gen_busy),
        Metric("trace.overhead_p50", "fraction", "lower", None,
               lambda g, i, w: _ratio(median(i.traced_ms), median(i.untraced_ms)) - 1.0),
    ]
    for layer in LAYERS:
        table.append(us(f"self.{layer}_us", layer,
                        lambda g, i, w, layer=layer: g.pick(layer).self_us))
    table.append(Metric("freshness.stale_views", "count", "lower", None,
                        lambda g, i, w: i.stale_views))
    return table


METRICS = _metrics()


def per_layer(inputs: Inputs) -> tuple[dict, set]:
    """``({name: (value, unit)}, absent metric names)``."""
    groups, windowed = _groups(inputs)
    values = {}
    absent = set()
    for metric in METRICS:
        if metric.layer is not None and metric.layer in groups.absent:
            absent.add(metric.name)
            values[metric.name] = (0.0, metric.unit)
            continue
        values[metric.name] = (
            float(metric.compute(groups, inputs, windowed)), metric.unit
        )
    return values, absent


def self_time_table(inputs: Inputs) -> list[str]:
    """One line per (role, layer): calls, mean time and mean self time."""
    groups, _ = _groups(inputs)
    merged: dict = defaultdict(LayerStats)
    for (role, layer, _tag, _parented), stats in groups.by_key.items():
        merged[(role, layer)].add(stats)
    lines = []
    for (role, layer), stats in sorted(merged.items()):
        lines.append(
            f"    {role:<5} {layer:<20} calls={stats.calls:<7} "
            f"mean={stats.mean_us:9.1f}us self={stats.self_us:9.1f}us"
        )
    for layer in sorted(groups.absent):
        lines.append(f"    {'':<5} {layer:<20} absent")
    return lines

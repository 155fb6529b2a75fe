"""Timing wrappers around the public functions of each layer, and their analysis.

The traced launcher (``launch.py``) calls :func:`install` before handing
the process to ``repro.cli.main``.  Each wrapper records one span per
call: layer name, a tag (the frame type, where one applies), the wire
request id, start and end on the host-wide monotonic clock, its own id,
the id of the span it ran inside, and one number (bytes or rows).  Spans
stay in memory until the server shuts down on SIGTERM, then go to the
file named by ``PERFBENCH_SPANS``.

The program's own ``--span-log`` spans are deliberately not used: this
benchmark must keep measuring the same boundaries while the program's
internal spans move.  A layer whose function no longer exists is reported
``absent`` and the run continues.
"""

from __future__ import annotations

import contextvars
import functools
import importlib
import inspect
import itertools
import json
import sys
import time
from collections import defaultdict
from dataclasses import dataclass
from pathlib import Path


def _frame_tag(frame) -> str:
    return type(frame).__name__


def _handle_tag(args, kwargs, result) -> str:
    return f"{type(args[0]).__name__}:{_frame_tag(args[1])}"


def _handle_rid(args, kwargs, result):
    return getattr(args[2], "request_id", None)


def _rows(args, kwargs, result):
    return len(result) if result is not None else None


@dataclass(frozen=True)
class Target:
    """One public function or method the launcher times."""

    layer: str
    module: str
    qualname: str
    #: (args, kwargs, result) -> tag string.
    tag: object = None
    #: (args, kwargs, result) -> request id this span starts, if any.
    rid: object = None
    #: (args, kwargs, result) -> recorded number (bytes, rows).
    value: object = None


TARGETS = (
    Target(
        "wire.encode", "repro.net.wire", "encode_frame",
        tag=lambda a, k, r: _frame_tag(a[0]),
        rid=lambda a, k, r: k.get("request_id"),
        value=lambda a, k, r: len(r) if r is not None else None,
    ),
    Target(
        "wire.decode", "repro.net.wire", "decode_traced",
        tag=lambda a, k, r: _frame_tag(r[0]) if r is not None else None,
        rid=lambda a, k, r: r[1] if r is not None else None,
        value=lambda a, k, r: len(a[0]),
    ),
    Target("sql.parse", "repro.sql.parser", "parse"),
    Target(
        "service.handle", "repro.net.dssp_server", "DsspNetServer.handle",
        tag=_handle_tag, rid=_handle_rid,
    ),
    Target(
        "service.handle", "repro.net.home_server", "HomeNetServer.handle",
        tag=_handle_tag, rid=_handle_rid,
    ),
    Target("dssp.lookup", "repro.dssp.proxy", "DsspNode.lookup"),
    Target("dssp.admit", "repro.dssp.proxy", "DsspNode.admit"),
    Target("dssp.invalidate", "repro.dssp.proxy", "DsspNode.invalidate_for"),
    Target("dssp.forward_query", "repro.net.client", "WireClient.query"),
    Target("dssp.forward_update", "repro.net.client", "WireClient.update"),
    Target("home.serve_query", "repro.dssp.homeserver", "HomeServer.serve_query"),
    Target("home.apply_update", "repro.dssp.homeserver", "HomeServer.apply_update"),
    Target("crypto.open", "repro.crypto.envelope", "EnvelopeCodec.open_query"),
    Target("crypto.open", "repro.crypto.envelope", "EnvelopeCodec.open_update"),
    Target("crypto.seal_result", "repro.crypto.envelope", "EnvelopeCodec.seal_result"),
    Target(
        "storage.execute", "repro.storage.database", "Database.execute",
        value=_rows,
    ),
    Target("storage.apply", "repro.storage.database", "Database.apply"),
    Target(
        "storage.execute", "repro.storage.backends.sqlite", "SqliteBackend.execute",
        value=_rows,
    ),
    Target("storage.apply", "repro.storage.backends.sqlite", "SqliteBackend.apply"),
)

LAYERS = tuple(dict.fromkeys(target.layer for target in TARGETS))

# Span tuple fields.
LAYER, TAG, RID, START, END, SID, PARENT, VALUE = range(8)


class Recorder:
    """In-memory span store for one process."""

    def __init__(self) -> None:
        self.spans: list[tuple] = []
        self._ids = itertools.count(1)
        #: (span id, request id) of the innermost open span.
        self._current: contextvars.ContextVar = contextvars.ContextVar(
            "perfbench_span", default=None
        )

    def wrap(self, target: Target, function):
        """A wrapper that records one span per call of ``function``.

        The span's request id is the one the call itself carries (a
        frame's id, a server request's id) or else its parent's, so the
        spans of one request share the id the generator minted.
        """
        spans = self.spans
        ids = self._ids
        current = self._current
        layer = target.layer
        tag_of, rid_of, value_of = target.tag, target.rid, target.value

        def opened(args, kwargs):
            parent = current.get()
            inherited = parent[1] if parent else None
            rid = (rid_of(args, kwargs, None) if rid_of else None) or inherited
            sid = next(ids)
            return parent, sid, current.set((sid, rid)), inherited

        def closed(parent, sid, token, inherited, start, args, kwargs, result):
            end = time.perf_counter()
            current.reset(token)
            rid = (rid_of(args, kwargs, result) if rid_of else None) or inherited
            spans.append((
                layer,
                tag_of(args, kwargs, result) if tag_of else None,
                rid,
                start,
                end,
                sid,
                parent[0] if parent else None,
                value_of(args, kwargs, result) if value_of else None,
            ))

        if inspect.iscoroutinefunction(function):

            async def wrapper(*args, **kwargs):
                state = opened(args, kwargs)
                start = time.perf_counter()
                result = None
                try:
                    result = await function(*args, **kwargs)
                    return result
                finally:
                    closed(*state, start, args, kwargs, result)

        else:

            def wrapper(*args, **kwargs):
                state = opened(args, kwargs)
                start = time.perf_counter()
                result = None
                try:
                    result = function(*args, **kwargs)
                    return result
                finally:
                    closed(*state, start, args, kwargs, result)

        functools.update_wrapper(wrapper, function)
        return wrapper

    def dump(self, path: str | Path, absent: list[str]) -> None:
        Path(path).write_text(
            json.dumps({"absent": absent, "spans": self.spans},
                       separators=(",", ":"))
        )


def install(recorder: Recorder, targets=TARGETS) -> list[str]:
    """Wrap every target that exists; returns the layers with none left.

    A module-level function is also replaced in every loaded module that
    imported it by name, so ``from repro.sql.parser import parse`` call
    sites are timed too.
    """
    present: set[str] = set()
    for target in targets:
        try:
            module = importlib.import_module(target.module)
        except ImportError:
            continue
        owner = module
        *path, name = target.qualname.split(".")
        try:
            for part in path:
                owner = getattr(owner, part)
            original = owner.__dict__[name] if path else getattr(owner, name)
        except (AttributeError, KeyError):
            continue
        if not callable(original):
            continue
        wrapped = recorder.wrap(target, original)
        setattr(owner, name, wrapped)
        if not path:
            for other in list(sys.modules.values()):
                namespace = getattr(other, "__dict__", None)
                if not namespace:
                    continue
                for key, value in list(namespace.items()):
                    if value is original:
                        setattr(other, key, wrapped)
        present.add(target.layer)
    layers = dict.fromkeys(target.layer for target in targets)
    return [layer for layer in layers if layer not in present]


# -- analysis ---------------------------------------------------------------


@dataclass
class ProcessSpans:
    """One server's spans, as loaded from its span file."""

    name: str
    role: str
    absent: list[str]
    spans: list[tuple]


def load(path: Path, name: str, role: str) -> ProcessSpans:
    data = json.loads(Path(path).read_text())
    return ProcessSpans(
        name, role, data["absent"], [tuple(span) for span in data["spans"]]
    )


def _covered(start: float, end: float, children: list[tuple]) -> float:
    """Length of [start, end] covered by the union of child intervals."""
    intervals = sorted(
        (max(child[START], start), min(child[END], end)) for child in children
    )
    covered = 0.0
    cursor = start
    for low, high in intervals:
        low = max(low, cursor)
        if high > low:
            covered += high - low
            cursor = high
    return covered


@dataclass
class LayerStats:
    """Calls, time and self time of one (layer, tag, role) group."""

    calls: int = 0
    total_s: float = 0.0
    self_s: float = 0.0
    value_sum: float = 0.0
    values: int = 0

    @property
    def mean_us(self) -> float:
        return self.total_s * 1e6 / self.calls if self.calls else 0.0

    @property
    def self_us(self) -> float:
        return self.self_s * 1e6 / self.calls if self.calls else 0.0

    @property
    def mean_value(self) -> float:
        return self.value_sum / self.values if self.values else 0.0

    def add(self, other: "LayerStats") -> None:
        self.calls += other.calls
        self.total_s += other.total_s
        self.self_s += other.self_s
        self.value_sum += other.value_sum
        self.values += other.values


def in_window(spans: list[tuple], started: float, ended: float) -> list[tuple]:
    """Spans that began inside the timed window."""
    return [span for span in spans if started <= span[START] < ended]


def layer_stats(spans: list[tuple]) -> dict:
    """``{(layer, tag, parented): LayerStats}`` over one process's spans.

    Self time is a span's duration minus the part of it its child spans
    cover.  ``parented`` says whether the span ran inside another timed
    span; it separates, e.g., invalidation on the update path from
    invalidation applied from the home's stream.
    """
    children: dict[int, list[tuple]] = defaultdict(list)
    for span in spans:
        if span[PARENT] is not None:
            children[span[PARENT]].append(span)
    stats: dict[tuple, LayerStats] = defaultdict(LayerStats)
    for span in spans:
        duration = span[END] - span[START]
        group = stats[(span[LAYER], span[TAG], span[PARENT] is not None)]
        group.calls += 1
        group.total_s += duration
        group.self_s += duration - _covered(
            span[START], span[END], children.get(span[SID], [])
        )
        if span[VALUE] is not None:
            group.value_sum += span[VALUE]
            group.values += 1
    return stats

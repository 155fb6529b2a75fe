"""Timing wrappers, self time, and layers that no longer exist."""

import asyncio
import json
from pathlib import Path

from perfbench import layers
from perfbench.tracing import (
    LAYERS,
    ProcessSpans,
    Recorder,
    Target,
    install,
    layer_stats,
)

ROOT = Path(__file__).resolve().parents[2]


class Context:
    request_id = "rid-1"


class Server:
    async def handle(self, frame, context):
        await asyncio.sleep(0.01)
        return inner(frame)


def inner(value):
    return value


def test_spans_share_the_request_id_and_nest():
    recorder = Recorder()
    global inner
    original_inner = inner
    try:
        inner = recorder.wrap(Target("inner", "x", "inner"), original_inner)
        handle = recorder.wrap(
            Target("service.handle", "x", "Server.handle",
                   rid=lambda a, k, r: a[2].request_id),
            Server.handle,
        )
        assert asyncio.run(handle(Server(), "frame", Context())) == "frame"
    finally:
        inner = original_inner
    by_layer = {span[0]: span for span in recorder.spans}
    outer, nested = by_layer["service.handle"], by_layer["inner"]
    assert outer[2] == nested[2] == "rid-1"
    assert nested[6] == outer[5]  # parent id
    stats = layer_stats(recorder.spans)
    handle_stats = stats[("service.handle", None, False)]
    assert handle_stats.self_s <= handle_stats.total_s
    assert handle_stats.total_s >= 0.01


def test_missing_functions_are_reported_absent():
    absent = install(
        Recorder(),
        targets=(
            Target("ghost.function", "repro.net.wire", "no_such_function"),
            Target("ghost.module", "repro.no_such_module", "f"),
            Target("ghost.method", "repro.dssp.proxy", "DsspNode.no_such_method"),
        ),
    )
    assert absent == ["ghost.function", "ghost.module", "ghost.method"]


def empty_inputs(absent):
    delta = {key: 0.0 for key in (
        "shed", "timeouts", "dssp.evictions", "dssp.hits", "dssp.misses",
        "dssp.invalidations", "dssp.invalidation_checks",
        "dssp.decision_memo_hits", "home.pushes_sent",
        "home.push_batch_sum", "home.push_batch_count",
    )}
    return layers.Inputs(
        processes=[ProcessSpans("home", "home", absent, []),
                   ProcessSpans("dssp-0", "dssp", absent, [])],
        started=0.0, ended=1.0, delta=delta,
        after={"dssp.cache_entries": 3.0},
        busy={"home": 0.1, "dssp-0": 0.2},
        requests=10, queries=8, updates=2, lag_ms=[0.5] * 300,
        gen_busy=0.1, seal_us=3.0,
        untraced_ms=[10.0, 11.0], traced_ms=[11.0, 12.0], stale_views=0,
    )


def test_an_absent_layer_reads_absent_and_the_run_continues():
    values, absent = layers.per_layer(empty_inputs(["sql.parse"]))
    assert {"sql.parse_us", "sql.parses_per_request", "self.sql.parse_us"} <= absent
    assert values["sql.parse_us"] == (0.0, "us")
    assert "wire.encode_us" not in absent
    assert set(values) == {metric.name for metric in layers.METRICS}


def test_benchmark_json_lists_what_the_benchmark_prints():
    from perfbench.bench import END_TO_END

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [m["name"] for m in spec["per_layer"]] == [
        metric.name for metric in layers.METRICS
    ]
    assert {m["name"]: (m["unit"], m["better"]) for m in spec["per_layer"]} == {
        metric.name: (metric.unit, metric.better) for metric in layers.METRICS
    }
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(END_TO_END)
    assert set(LAYERS) == {
        metric.layer for metric in layers.METRICS if metric.layer is not None
    }


def test_launcher_writes_spans_when_sigterm_stops_the_server(tmp_path):
    import os
    import signal
    import subprocess
    import sys

    spans = tmp_path / "home.spans.json"
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), PERFBENCH_SPANS=str(spans))
    server = subprocess.Popen(
        [sys.executable, str(ROOT / "perfbench" / "launch.py"),
         "serve-home", "bookstore", "--port", "0"],
        stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, env=env,
    )
    try:
        banner = server.stdout.readline()
        assert b"listening on" in banner
        # One served request proves the event loop is running, and with
        # it the CLI's SIGTERM handler (installed just after the banner).
        port = int(banner.rsplit(b":", 1)[1])
        asyncio.run(_stats_once(port))
        server.send_signal(signal.SIGTERM)
        assert server.wait(timeout=30) == 0
    finally:
        if server.poll() is None:
            server.kill()
            server.wait()
        server.stdout.close()
    written = json.loads(spans.read_text())
    assert written["absent"] == []
    assert isinstance(written["spans"], list)


async def _stats_once(port):
    from repro.net.client import WireClient

    client = WireClient("127.0.0.1", port)
    try:
        assert (await client.stats())["role"] == "home"
    finally:
        await client.aclose()

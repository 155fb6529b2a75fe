"""One benchmark run: build fleets, drive them, check them, report.

``--trace 0`` measures the end-to-end metrics on untraced servers:
set-up CPU time and CPU time per page (both scaled by the yardstick),
page latency at the light and heavy rates, per-operation latency and hit
rate at the heavy rate, capacity on the ladder, and peak memory.  ``--trace 1`` measures the heavy rate twice, first on untraced
and then on traced servers, and reports the per-layer metrics of the
traced window and the tracing overhead between the two.  Both end with
the freshness check.
"""

from __future__ import annotations

import asyncio
import sqlite3
import statistics
import time
from dataclasses import dataclass, field
from pathlib import Path

from perfbench import layers
from perfbench.loadgen import (
    LoadGen,
    Window,
    Sealed,
    check_freshness,
    endpoint,
    prepare,
)
from perfbench.fleet import Fleet, FleetSpec, host_steal, start_fleet
from perfbench.measure import (
    TAIL_PERCENTILE,
    Books,
    LadderPoint,
    capacity,
    ladder_rate,
    median,
    min_samples,
    next_rung,
    percentile,
    supported_percentile,
    tail,
)
from perfbench.tracing import load
from perfbench.workloads import HEAVY_RUNG, Workload
from perfbench.yardstick import (
    NOMINAL_REQUEST_MS,
    NOMINAL_START_S,
    Reference,
    start_cost,
)

#: The end-to-end metrics of the JSON line, gated by ``BENCHMARK.json``.
#: Wall-clock latency and capacity are printed beside them but not gated:
#: on a host that steals CPU time from its virtual machines they spread
#: far wider between runs than any useful bound (see ``host_steal``).
#: The CPU times are scaled by the yardstick (see ``perfbench.yardstick``).
END_TO_END = (
    ("setup_s", "s"),
    ("dssp_cpu_ms_per_page", "ms"),
    ("home_cpu_ms_per_page", "ms"),
    ("hit_rate", "fraction"),
    ("dssp_rss_mb", "MB"),
    ("home_rss_mb", "MB"),
)
#: Fleets started per ``--trace 0`` run; ``setup_s`` is the median of
#: their set-up CPU time, each scaled by the reference starts beside it.
#: CPU time, not wall time: on a virtual machine the hypervisor's steal
#: moves wall-clock time far more than a process's own CPU time.
SETUPS = 7
#: Pages the closed-loop warm-up sends before anything is timed.
WARMUP_PAGES = 400
WARMUP_LANES = 16
#: Shares of ``--seconds`` offered to each window.
LIGHT_SHARE = 0.3
HEAVY_SHARE = 0.35
#: Share of ``--seconds`` offered per ladder point, and the most points.
POINT_SHARE = 0.07
LADDER_POINTS = 4
#: First rung the climb measures: heavy is two thirds of the capacity the
#: rates were set from, and four rungs (x1.41) up is just below it.
FIRST_RUNG = HEAVY_RUNG + 4
#: Highest ladder rung tried, counted from the light rate.
MAX_RUNG = HEAVY_RUNG + 16
#: Seconds to wait for the fleet to go quiet before the freshness check.
QUIET_TIMEOUT_S = 10.0
#: Generator lag above which a window is flagged as not valid, ms.
LAG_LIMIT_MS = 20.0
P = f"p{TAIL_PERCENTILE:g}"


def say(text: str) -> None:
    print(text, flush=True)


def window_pages(rate: float, seconds: float) -> int:
    """Arrivals to offer: ``seconds`` worth, but enough for the tail."""
    return max(min_samples(TAIL_PERCENTILE), round(rate * seconds))


def point_of(window: Window) -> LadderPoint:
    return LadderPoint(
        rate=window.rate,
        latencies_ms=tuple(window.page_ms),
        attempted=window.books.attempted,
        failed=window.books.failed,
        backlog=window.backlog,
    )


@dataclass
class Run:
    """One run's settings and what it observed: books, metrics, problems."""

    workload: Workload
    seed: int
    seconds: float
    workdir: Path
    src: Path
    #: Operations of warm-up, the fixed-rate windows and the freshness
    #: check: the run's ``attempted`` and ``failed``.
    books: Books = field(default_factory=Books)
    #: Operations of the ladder rungs above heavy.  Those rungs overload
    #: the fleet on purpose, so their failures feed the capacity verdict
    #: and are reported apart, not counted as the run's failures.
    ladder_books: Books = field(default_factory=Books)
    metrics: dict[str, tuple[float, str]] = field(default_factory=dict)
    #: Output checks that failed; any makes the run incorrect.
    problems: list[str] = field(default_factory=list)
    #: Cached views the freshness check found stale.  They come from a
    #: timing race in the program (a miss filled after an update that
    #: invalidated it), so their number varies between runs of the same
    #: code: they are printed and counted into ``failed_frac``, but not
    #: into the JSON line's ``failed``, which counts failed operations.
    stale_views: int = 0
    fleets: int = 0

    def count(self, books: Books, *, ladder: bool = False) -> None:
        if not books.balanced():
            self.problems.append(f"attempted != ok + failed: {books}")
        (self.ladder_books if ladder else self.books).add(books)

    def spec(self) -> FleetSpec:
        return FleetSpec(
            app=self.workload.app,
            nodes=self.workload.nodes,
            capacity=self.workload.capacity,
            backend=self.workload.backend,
            seed=self.seed,
        )

    async def fleet(self, *, traced: bool = False) -> Fleet:
        self.fleets += 1
        return await start_fleet(
            self.spec(), self.workdir / f"fleet-{self.fleets}", self.src,
            traced=traced,
        )

    def result(self) -> dict:
        return {
            "correct": not self.problems,
            "attempted": self.books.attempted,
            "failed": self.books.failed,
            "metrics": {
                name: {"value": value, "unit": unit}
                for name, (value, unit) in self.metrics.items()
            },
        }


# -- outside counters ----------------------------------------------------------


async def counters(fleet: Fleet) -> dict[str, float]:
    """Fleet-wide totals from every server's STATS frame."""
    totals: dict[str, float] = {}

    def add(key: str, value) -> None:
        totals[key] = totals.get(key, 0.0) + float(value or 0)

    snapshots = await asyncio.gather(*(s.stats() for s in fleet.servers))
    for server, snapshot in zip(fleet.servers, snapshots):
        metrics = snapshot["metrics"]
        count = metrics["counters"]
        add("shed", count.get("server.shed"))
        add("timeouts", count.get("server.timeouts"))
        if server.role == "dssp":
            stats = snapshot["dssp"]["stats"]
            for key in (
                "hits", "misses", "invalidations", "invalidation_checks",
                "decision_memo_hits", "evictions",
            ):
                add(f"dssp.{key}", stats[key])
            add("dssp.cache_entries", snapshot["dssp"]["cache_entries"])
            add("dssp.stream_pushes", snapshot["stream_pushes_applied"])
        else:
            add("home.pushes_sent", count.get("home.pushes_sent"))
            batch = metrics["histograms"].get("home.push_batch_size", {})
            add("home.push_batch_count", batch.get("count"))
            add("home.push_batch_sum", batch.get("sum"))
    return totals


class Timed:
    """Brackets a window with STATS and ``/proc`` readings of every server.

    With a :class:`Reference` it reads the reference server's CPU time and
    answered requests across the window too.
    """

    def __init__(self, fleet: Fleet, reference: Reference | None = None):
        self.fleet = fleet
        self.reference = reference

    async def __aenter__(self) -> "Timed":
        self.before = await counters(self.fleet)
        self._cpu = {s.name: s.cpu_s() for s in self.fleet.servers}
        if self.reference is not None:
            self._reference = self.reference.reading()
        self._steal = host_steal()
        self._wall = time.perf_counter()
        return self

    async def __aexit__(self, *exc) -> None:
        wall = time.perf_counter() - self._wall
        steal, total = host_steal()
        #: Share of the machine's CPU time the hypervisor stole.
        self.steal = (steal - self._steal[0]) / max(1, total - self._steal[1])
        #: CPU seconds each server used inside the window.
        self.cpu = {
            s.name: s.cpu_s() - self._cpu[s.name] for s in self.fleet.servers
        }
        self.busy = {name: cpu / wall for name, cpu in self.cpu.items()}
        #: Reference server's CPU seconds and answered requests.
        self.reference_cpu_s, self.reference_requests = 0.0, 0
        if self.reference is not None:
            cpu, answered = self.reference.reading()
            self.reference_cpu_s = cpu - self._reference[0]
            self.reference_requests = answered - self._reference[1]
        self.after = await counters(self.fleet)
        self.delta = {k: self.after[k] - self.before.get(k, 0.0) for k in self.after}


async def quiet(fleet: Fleet) -> None:
    """Wait until no request is in flight and no push is queued."""
    deadline = time.perf_counter() + QUIET_TIMEOUT_S
    while time.perf_counter() < deadline:
        snapshots = await asyncio.gather(*(s.stats() for s in fleet.servers))
        # Each STATS request is itself in flight while it is served.
        busy = sum(
            snapshot["metrics"]["gauges"].get("server.in_flight", 0) - 1
            + sum(sub["queue_depth"] for sub in snapshot.get("subscribers", []))
            for snapshot in snapshots
        )
        if busy <= 0:
            break
        await asyncio.sleep(0.02)
    await asyncio.sleep(0.05)


# -- windows -----------------------------------------------------------------------


def describe(run: Run, window: Window, timed: Timed | None = None) -> None:
    parts = [
        f"[{window.name}]",
        f"offered={window.rate:.1f}/s" if window.rate else "closed-loop",
        f"pages={window.pages} dropped={window.dropped_pages} "
        f"cancelled={window.cancelled_pages}",
        f"ops={window.books.attempted} failed={window.books.failed}",
        f"hit_rate={window.hit_rate:.3f} backlog={window.backlog}",
        f"wall={window.wall_s:.2f}s",
    ]
    # The median and the highest percentile the sample supports.
    for pct in sorted({50.0, supported_percentile(len(window.page_ms)) or 50.0}):
        if window.page_ms:
            parts.append(f"p{pct:g}={percentile(window.page_ms, pct):.1f}ms")
    lag = tail(window.lag_ms, TAIL_PERCENTILE)
    if lag is not None:
        parts.append(f"lag_{P}={lag:.1f}ms")
        if lag > LAG_LIMIT_MS:
            parts.append("FLAGGED: generator lagged")
    if window.errors:
        parts.append(f"errors={dict(window.errors)}")
    say(" ".join(parts))
    if timed is not None:
        say("    server counters: " + ", ".join(
            f"{key}={value:g}" for key, value in sorted(timed.delta.items())
            if key != "dssp.cache_entries"
        ) + f"; cache_entries={timed.after['dssp.cache_entries']:g}")
        reference = ""
        if timed.reference_requests:
            reference = (
                f"; reference {timed.reference_cpu_s * 1e3 / timed.reference_requests:.3f}"
                f" ms/request over {timed.reference_requests}"
            )
        say("    cpu busy: " + ", ".join(
            f"{name}={value:.2f}" for name, value in sorted(timed.busy.items())
        ) + f"; host steal {timed.steal:.1%}{reference}")


def check_results(run: Run, window: Window) -> None:
    """Every query result must open under the application's key."""
    if window.bad_results:
        run.problems.append(
            f"{window.name}: {window.bad_results} results did not open"
        )


def reconcile(run: Run, window: Window, delta: dict) -> None:
    """Client-observed hits and misses must equal the DSSPs' own counts."""
    if window.cancelled_pages or window.errors:
        return  # a failed request may have been served unseen
    seen = (len(window.hit_ms), len(window.miss_ms))
    counted = (round(delta["dssp.hits"]), round(delta["dssp.misses"]))
    if seen != counted:
        run.problems.append(
            f"{window.name}: client saw (hits, misses) {seen}, "
            f"DSSPs counted {counted}"
        )


async def timed_window(
    run: Run, fleet: Fleet, gen: LoadGen, name: str, rate: float, pages: int,
    *, ladder: bool = False, reference: Reference | None = None,
) -> tuple[Window, Timed]:
    # Requests a previous window gave up on may still be queued in the
    # fleet; they must not land in this window's counters.
    await quiet(fleet)
    async with Timed(fleet, reference) as timed:
        window = await gen.open_window(name, rate, pages, run.seed)
    run.count(window.books, ladder=ladder)
    check_results(run, window)
    reconcile(run, window, timed.delta)
    describe(run, window, timed)
    return window, timed


async def warm(run: Run, gen: LoadGen) -> None:
    window = await gen.closed_warmup(WARMUP_PAGES, WARMUP_LANES)
    run.count(window.books)
    check_results(run, window)
    describe(run, window)


async def freshness(run: Run, fleet: Fleet, gen: LoadGen) -> None:
    """Compare every queried view on every node with the home's answer."""
    started = time.perf_counter()
    await quiet(fleet)
    home = endpoint(fleet.home.host, fleet.home.port)
    try:
        report = await check_freshness(
            gen.views, gen.endpoints, home, gen.sealed.codec
        )
    finally:
        await home.aclose()
    run.count(report.books)
    run.stale_views += len(report.stale)
    say(
        f"[freshness] views={report.views} reads={report.books.attempted} "
        f"failed_reads={report.books.failed} "
        f"stale_views={len(report.stale)} "
        f"wall={time.perf_counter() - started:.2f}s"
    )
    for template, node in report.stale:
        say(f"    STALE: a {template} view cached on dssp-{node}")


class Connected:
    """One pipelined client per DSSP node of a fleet, as a :class:`LoadGen`."""

    def __init__(self, fleet: Fleet, pages: Sealed):
        self.gen = LoadGen(
            pages, [endpoint(s.host, s.port) for s in fleet.dssps]
        )

    async def __aenter__(self) -> LoadGen:
        return self.gen

    async def __aexit__(self, *exc) -> None:
        for client in self.gen.endpoints:
            await client.aclose()


def storage_note(fleet: Fleet) -> str:
    """The durable home's journal mode, read back from its file."""
    path = fleet.workdir / "home.sqlite"
    db = sqlite3.connect(f"file:{path}?mode=ro", uri=True)
    try:
        mode = db.execute("PRAGMA journal_mode").fetchone()[0]
    finally:
        db.close()
    return (
        f"home storage: sqlite file, journal_mode={mode}, the backend's own "
        "flush policy (autocommit per statement)"
    )


async def climb(run: Run, fleet: Fleet, gen: LoadGen) -> list[LadderPoint]:
    """Measure ladder rungs above heavy until the capacity is bracketed.

    Stops early, reporting so, after :data:`LADDER_POINTS` points.
    """
    verdicts: dict[int, bool] = {}
    points = []
    while (rung := next_rung(verdicts, HEAVY_RUNG, FIRST_RUNG, MAX_RUNG)) is not None:
        if len(points) == LADDER_POINTS:
            say("    ladder: point budget spent before the capacity was bracketed")
            break
        rate = ladder_rate(run.workload.light_rate, rung)
        window, _ = await timed_window(
            run, fleet, gen, f"rung-{rung}", rate,
            window_pages(rate, POINT_SHARE * run.seconds), ladder=True,
        )
        points.append(point_of(window))
        verdicts[rung] = points[-1].passed
        say(f"    ladder {rate:.1f}/s: {points[-1].verdict()}")
    return points


def ladder_pages(workload: Workload, seconds: float) -> int:
    """An upper bound on the pages :func:`climb` offers."""
    top = ladder_rate(workload.light_rate, MAX_RUNG)
    return LADDER_POINTS * window_pages(top, POINT_SHARE * seconds)


# -- the two kinds of run ----------------------------------------------------------


def _pages_needed(run: Run, trace: bool) -> int:
    w = run.workload
    heavy = window_pages(w.heavy_rate, HEAVY_SHARE * run.seconds)
    if trace:
        return WARMUP_PAGES + heavy
    light = window_pages(w.light_rate, LIGHT_SHARE * run.seconds)
    ladder = ladder_pages(w, run.seconds)
    return WARMUP_PAGES + light + heavy + ladder


def _prepare(run: Run, trace: bool) -> Sealed:
    w = run.workload
    started = time.perf_counter()
    pages = prepare(
        w.app, _pages_needed(run, trace), seed=run.seed,
        scale=run.spec().scale, strategy=run.spec().strategy,
        master=run.spec().master,
    )
    say(
        f"[prepare] {len(pages.pages)} pages recorded and sealed in "
        f"{time.perf_counter() - started:.2f}s "
        f"({pages.seal_us:.1f}us per seal)"
    )
    return pages


def _p50(samples: list[float]) -> float:
    return median(samples) if samples else 0.0


async def end_to_end(run: Run) -> None:
    """The untraced run: every end-to-end metric."""
    w = run.workload
    pages = _prepare(run, trace=False)
    # A reference start before the first set-up and after each one; each
    # set-up is scaled by the mean of the two starts around it.
    costs = [await start_cost()]
    setups = []
    for _ in range(SETUPS - 1):
        fleet = await run.fleet()
        setups.append(fleet)
        await fleet.stop()
        say(f"[stop] {fleet.stop_s:.2f}s")
        costs.append(await start_cost())
    fleet = await run.fleet()
    setups.append(fleet)
    try:
        costs.append(await start_cost())
        say("[setup] cpu " + ", ".join(f"{f.setup_cpu_s:.3f}s" for f in setups)
            + "; wall " + ", ".join(f"{f.setup_wall_s:.3f}s" for f in setups)
            + "; reference starts " + ", ".join(f"{c:.3f}s" for c in costs))
        async with Connected(fleet, pages) as gen:
            async with Reference() as reference:
                await warm(run, gen)
                light, light_timed = await timed_window(
                    run, fleet, gen, "light", w.light_rate,
                    window_pages(w.light_rate, LIGHT_SHARE * run.seconds),
                    reference=reference,
                )
                heavy, heavy_timed = await timed_window(
                    run, fleet, gen, "heavy", w.heavy_rate,
                    window_pages(w.heavy_rate, HEAVY_SHARE * run.seconds),
                    reference=reference,
                )
            # Peak memory after the fixed-rate windows: the ladder that
            # follows sends a number of pages that depends on timing.
            dssp_rss = sum(s.peak_rss_mb() for s in fleet.dssps)
            home_rss = fleet.home.peak_rss_mb()
            points = [point_of(light), point_of(heavy)]
            for point in points:
                say(f"    ladder {point.rate:.1f}/s: {point.verdict()}")
            if all(point.passed for point in points):
                points += await climb(run, fleet, gen)
            await freshness(run, fleet, gen)
        if w.backend == "sqlite":
            say(storage_note(fleet))
    finally:
        await fleet.stop()
        say(f"[stop] {fleet.stop_s:.2f}s")

    def page_tail(window: Window) -> float:
        value = tail(window.page_ms, TAIL_PERCENTILE)
        if value is None:
            say(f"    {window.name}: too few pages for {P}; reporting the max")
            return max(window.page_ms, default=0.0)
        return value

    fixed = (light, heavy)
    fixed_timed = (light_timed, heavy_timed)
    fixed_pages = sum(window.pages for window in fixed)
    reference_requests = sum(t.reference_requests for t in fixed_timed)
    reference_ms = (
        sum(t.reference_cpu_s for t in fixed_timed) * 1e3
        / max(1, reference_requests)
    )

    def cpu_ms_per_page(role: str) -> float:
        cpu = sum(
            seconds
            for timed in fixed_timed
            for name, seconds in timed.cpu.items()
            if name.startswith(role)
        )
        return cpu * 1e3 / max(1, fixed_pages)

    setup_scaled = [
        fleet.setup_cpu_s * NOMINAL_START_S / ((before + after) / 2)
        for fleet, before, after in zip(setups, costs, costs[1:])
    ]
    scale = NOMINAL_REQUEST_MS / reference_ms
    rows = [
        ("setup_s", statistics.median(setup_scaled), "s",
         f"{len(setups)} set-ups, server CPU time scaled by reference starts"),
        ("setup_cpu_s", statistics.median(f.setup_cpu_s for f in setups), "s",
         f"{len(setups)} set-ups, unscaled"),
        ("setup_wall_s", statistics.median(f.setup_wall_s for f in setups),
         "s", f"{len(setups)} set-ups"),
        ("reference_start_s", statistics.median(costs), "s",
         f"{len(costs)} reference starts"),
        ("dssp_cpu_ms_per_page", cpu_ms_per_page("dssp") * scale, "ms",
         f"{fixed_pages} pages, scaled by reference requests"),
        ("home_cpu_ms_per_page", cpu_ms_per_page("home") * scale, "ms",
         f"{fixed_pages} pages, scaled by reference requests"),
        ("dssp_cpu_raw_ms_per_page", cpu_ms_per_page("dssp"), "ms",
         f"{fixed_pages} pages, unscaled"),
        ("home_cpu_raw_ms_per_page", cpu_ms_per_page("home"), "ms",
         f"{fixed_pages} pages, unscaled"),
        ("reference_ms_per_request", reference_ms, "ms",
         f"{reference_requests} reference requests"),
        ("hit_rate", heavy.hit_rate, "fraction", f"{heavy.queries} queries"),
        ("dssp_rss_mb", dssp_rss, "MB", f"{w.nodes} processes"),
        ("home_rss_mb", home_rss, "MB", "1 process"),
        ("capacity_pages_s", capacity(points), "pages/s",
         f"{len(points)} ladder points"),
        ("light_p50_ms", _p50(light.page_ms), "ms", f"{len(light.page_ms)} pages"),
        (f"light_{P}_ms", page_tail(light), "ms", f"{len(light.page_ms)} pages"),
        ("heavy_p50_ms", _p50(heavy.page_ms), "ms", f"{len(heavy.page_ms)} pages"),
        (f"heavy_{P}_ms", page_tail(heavy), "ms", f"{len(heavy.page_ms)} pages"),
        ("hit_p50_ms", _p50(heavy.hit_ms), "ms", f"{len(heavy.hit_ms)} hits"),
        ("miss_p50_ms", _p50(heavy.miss_ms), "ms", f"{len(heavy.miss_ms)} misses"),
        ("update_p50_ms", _p50(heavy.update_ms), "ms",
         f"{len(heavy.update_ms)} updates"),
        ("failed_frac",
         (run.books.failed + run.stale_views) / max(1, run.books.attempted),
         "fraction", f"{run.books.attempted} operations, stale views too"),
        ("ladder_failed_frac", run.ladder_books.failed_frac, "fraction",
         f"{run.ladder_books.attempted} operations above heavy"),
        ("stale_views", run.stale_views, "count", "freshness check"),
        ("host_steal", (light_timed.steal + heavy_timed.steal) / 2, "fraction",
         "light and heavy windows"),
    ]
    gated = dict(END_TO_END)
    say(f"== {w.name} end-to-end (seed {run.seed}) ==")
    for name, value, unit, count in rows:
        if name in gated:
            run.metrics[name] = (value, unit)
        mark = "gated   " if name in gated else "reported"
        say(f"  {mark} {name:<26} {value:12.4f} {unit:<8} n={count}")


async def traced(run: Run) -> None:
    """Heavy rate on untraced, then on traced servers: per-layer metrics."""
    w = run.workload
    pages = _prepare(run, trace=True)
    count = window_pages(w.heavy_rate, HEAVY_SHARE * run.seconds)

    fleet = await run.fleet()
    try:
        async with Connected(fleet, pages) as gen:
            await warm(run, gen)
            plain, _ = await timed_window(
                run, fleet, gen, "heavy-untraced", w.heavy_rate, count
            )
    finally:
        await fleet.stop()
        say(f"[stop] {fleet.stop_s:.2f}s")

    fleet = await run.fleet(traced=True)
    try:
        async with Connected(fleet, pages) as gen:
            await warm(run, gen)
            window, timed = await timed_window(
                run, fleet, gen, "heavy-traced", w.heavy_rate, count
            )
            await freshness(run, fleet, gen)
    finally:
        await fleet.stop()
        say(f"[stop] {fleet.stop_s:.2f}s")

    processes = [load(s.span_path, s.name, s.role) for s in fleet.servers]
    inputs = layers.Inputs(
        processes=processes,
        started=window.started,
        ended=window.ended,
        delta=timed.delta,
        after=timed.after,
        busy=timed.busy,
        requests=window.books.ok,
        queries=window.queries,
        updates=len(window.update_ms),
        lag_ms=window.lag_ms,
        gen_busy=window.gen_cpu_s / window.wall_s,
        seal_us=pages.seal_us,
        untraced_ms=plain.page_ms,
        traced_ms=window.page_ms,
        stale_views=run.stale_views,
    )
    values, absent = layers.per_layer(inputs)
    run.metrics.update(values)
    say(f"== {w.name} per-layer (seed {run.seed}, traced heavy window, "
            f"{window.books.ok} requests) ==")
    for name, (value, unit) in values.items():
        shown = "absent" if name in absent else f"{value:12.4f} {unit}"
        say(f"  {name:<32} {shown}")
    say("  self time by layer (span minus its timed children):")
    for line in layers.self_time_table(inputs):
        say(line)
    say(
        f"  tracing overhead: heavy p50 {median(plain.page_ms):.2f} -> "
        f"{median(window.page_ms):.2f} ms untraced -> traced"
    )

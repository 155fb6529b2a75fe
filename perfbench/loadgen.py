"""The benchmark's load generator: one process, one thread, one event loop.

Pages come from a recorded :class:`~repro.workloads.trace.Trace` that is
longer than every page a run sends, so replayed INSERTs never collide,
and every envelope is sealed during set-up so sealing costs nothing while
a window is timed.  Open-loop windows send pages on a seeded Poisson
schedule and time each page from when it was *due*, so a stall in the
system (or in this generator) shows up in the latency of every page it
delays.  Each DSSP node gets exactly one pipelined connection.

A recorded trace is sequential, but replayed at a rate or from several
lanes its pages overlap.  A page that inserts a row referring, through a
foreign key, to a row an earlier page inserts would then race that page
and could fail on a row that does not exist yet, which no user of the
real site can cause (no one rates a comment before it is posted).  So a
page first waits for the earlier pages it depends on to finish; the wait
counts in its latency.
"""

from __future__ import annotations

import asyncio
import hashlib
import random
import time
from collections import Counter
from dataclasses import dataclass, field

from repro.analysis.exposure import ExposurePolicy
from repro.crypto import Keyring
from repro.crypto.envelope import EnvelopeCodec, QueryEnvelope, UpdateEnvelope
from repro.dssp.invalidation import StrategyClass
from repro.errors import CryptoError, ReproError
from repro.net.client import RetryPolicy, WireClient
from repro.schema.schema import Schema
from repro.sql.ast import Insert
from repro.workloads import get_application
from repro.workloads.trace import record_trace

from perfbench.measure import Books

#: Pages the generator keeps in flight before it drops new arrivals.
MAX_OUTSTANDING = 256
#: Seconds one request may take before the generator counts it failed.
REQUEST_TIMEOUT_S = 5.0
#: Seconds a window waits for its stragglers before cancelling them.
DRAIN_TIMEOUT_S = 10.0
#: Concurrent reads of the freshness check.
FRESHNESS_CONCURRENCY = 32


@dataclass(frozen=True)
class Op:
    """One pre-sealed operation of a page."""

    envelope: QueryEnvelope | UpdateEnvelope

    @property
    def is_update(self) -> bool:
        return isinstance(self.envelope, UpdateEnvelope)


Page = tuple[Op, ...]


@dataclass
class Sealed:
    """The sealed page sequence and the codec that opens its results."""

    codec: EnvelopeCodec
    pages: list[Page]
    #: Mean microseconds per ``seal_query``/``seal_update`` call.
    seal_us: float
    #: For each page, the earlier pages it must wait for (see
    #: :func:`dependencies`).
    depends: list[tuple[int, ...]]


def dependencies(
    schema: Schema, pages: list[list[Insert]]
) -> list[tuple[int, ...]]:
    """For each page, the earlier pages that insert a row its inserts refer to.

    ``pages`` holds each page's bound INSERT statements, in trace order.
    A reference is a foreign-key column's value; the row it names is the
    one an earlier page inserted with that primary key, if any (rows the
    home generated at start-up need no wait).
    """
    inserted_by: dict[tuple[str, tuple], int] = {}
    depends = []
    for index, inserts in enumerate(pages):
        needs = set()
        for insert in inserts:
            row = dict(zip(insert.columns, (value.value for value in insert.values)))
            table = schema.table(insert.table)
            for foreign_key in table.foreign_keys:
                creator = inserted_by.get(
                    (foreign_key.ref_table, (row.get(foreign_key.column),))
                )
                if creator is not None and creator != index:
                    needs.add(creator)
            key = tuple(row.get(column) for column in table.primary_key)
            inserted_by[(insert.table, key)] = index
        depends.append(tuple(sorted(needs)))
    return depends


def demo_keyring(app: str, master: str) -> Keyring:
    """The keyring ``serve-home --master`` derives for ``app``."""
    return Keyring(app, hashlib.sha256(f"{master}:{app}".encode()).digest())


def prepare(
    app: str,
    pages: int,
    *,
    seed: int,
    scale: float,
    strategy: str,
    master: str,
) -> Sealed:
    """Record ``pages`` pages of ``app`` traffic and seal every operation.

    The sampler is instantiated with the home's ``scale`` and ``seed``, so
    its id pools match the rows the home generated.
    """
    spec = get_application(app)
    sampler = spec.instantiate(scale=scale, seed=seed).sampler
    trace = record_trace(sampler, pages, seed=seed, application=app)
    trace.bind(spec.registry)
    policy = ExposurePolicy.uniform(
        spec.registry, StrategyClass[strategy].exposure_level
    )
    codec = EnvelopeCodec(demo_keyring(app, master))
    sealed: list[Page] = []
    inserts: list[list[Insert]] = []
    seals = 0
    seal_s = 0.0
    for _ in range(len(trace)):
        ops = []
        inserts.append([])
        for operation in trace.sample_page():
            bound = operation.bound
            started = time.perf_counter()
            if operation.is_update:
                envelope = codec.seal_update(
                    bound, policy.update_level(bound.template.name)
                )
                if isinstance(bound.statement, Insert):
                    inserts[-1].append(bound.statement)
            else:
                envelope = codec.seal_query(
                    bound, policy.query_level(bound.template.name)
                )
            seal_s += time.perf_counter() - started
            seals += 1
            ops.append(Op(envelope))
        sealed.append(tuple(ops))
    return Sealed(
        codec, sealed, seal_s * 1e6 / max(seals, 1),
        dependencies(spec.registry.schema, inserts),
    )


def endpoint(host: str, port: int) -> WireClient:
    """One pipelined connection; refusals surface instead of retrying."""
    return WireClient(
        host,
        port,
        pipeline=MAX_OUTSTANDING + FRESHNESS_CONCURRENCY,
        request_timeout_s=REQUEST_TIMEOUT_S,
        retry=RetryPolicy(attempts=1),
    )


@dataclass
class Window:
    """What one timed window (or the warm-up) observed."""

    name: str
    rate: float | None
    books: Books = field(default_factory=Books)
    pages: int = 0
    dropped_pages: int = 0
    cancelled_pages: int = 0
    #: Completed pages' latency from due time, ms.
    page_ms: list[float] = field(default_factory=list)
    hit_ms: list[float] = field(default_factory=list)
    miss_ms: list[float] = field(default_factory=list)
    update_ms: list[float] = field(default_factory=list)
    #: How late the generator sent each arrival, ms.
    lag_ms: list[float] = field(default_factory=list)
    backlog: int = 0
    errors: Counter = field(default_factory=Counter)
    #: Query results that did not open under the application's key.
    bad_results: int = 0
    started: float = 0.0
    ended: float = 0.0
    gen_cpu_s: float = 0.0

    @property
    def queries(self) -> int:
        return len(self.hit_ms) + len(self.miss_ms)

    @property
    def hit_rate(self) -> float:
        return len(self.hit_ms) / self.queries if self.queries else 0.0

    @property
    def wall_s(self) -> float:
        return self.ended - self.started


def arrival_offsets(seed: int, name: str, rate: float, count: int) -> list[float]:
    """Seconds from a window's start at which each of its pages is due.

    A seeded Poisson process: the same arguments give the same schedule.
    """
    rng = random.Random(f"perfbench:{seed}:{name}")
    offsets = []
    at = 0.0
    for _ in range(count):
        at += rng.expovariate(rate)
        offsets.append(at)
    return offsets


class LoadGen:
    """Sends the workload's pages to the fleet's DSSP endpoints."""

    def __init__(self, sealed: Sealed, endpoints: list[WireClient]):
        self.sealed = sealed
        self.endpoints = endpoints
        self._cursor = 0
        #: Every distinct view queried, by cache key (the freshness set).
        self.views: dict[str, QueryEnvelope] = {}
        #: Set when a page taken from the trace has finished, by page index;
        #: a finished page's entry is removed.
        self._finished: dict[int, asyncio.Event] = {}

    def _take(self, count: int) -> range:
        """Indices of the next ``count`` pages of the trace."""
        end = self._cursor + count
        if end > len(self.sealed.pages):
            raise RuntimeError(
                f"trace of {len(self.sealed.pages)} pages exhausted; "
                "record a longer one"
            )
        taken = range(self._cursor, end)
        self._cursor = end
        for index in taken:
            self._finished[index] = asyncio.Event()
        return taken

    def _finish(self, index: int) -> None:
        self._finished.pop(index).set()

    def _endpoint_for(self, index: int) -> WireClient:
        return self.endpoints[index % len(self.endpoints)]

    async def _run_page(self, index: int, due: float, window: Window) -> None:
        page = self.sealed.pages[index]
        client = self._endpoint_for(index)
        done = 0
        try:
            for before in self.sealed.depends[index]:
                if (finished := self._finished.get(before)) is not None:
                    await finished.wait()
            for op in page:
                started = time.perf_counter()
                try:
                    if op.is_update:
                        await client.update(op.envelope)
                        window.update_ms.append(
                            (time.perf_counter() - started) * 1e3
                        )
                    else:
                        self.views.setdefault(op.envelope.cache_key, op.envelope)
                        outcome = await client.query(op.envelope)
                        try:
                            self.sealed.codec.open_result(outcome.result)
                        except CryptoError:
                            # Not a refusal: the system answered wrongly.
                            window.bad_results += 1
                            raise
                        elapsed = (time.perf_counter() - started) * 1e3
                        (window.hit_ms if outcome.cache_hit else window.miss_ms).append(
                            elapsed
                        )
                except ReproError as error:
                    window.errors[type(error).__name__] += 1
                    window.books.failed += len(page) - done
                    return
                done += 1
                window.books.ok += 1
            window.pages += 1
            window.page_ms.append((time.perf_counter() - due) * 1e3)
        except asyncio.CancelledError:
            window.cancelled_pages += 1
            window.books.failed += len(page) - done
            raise
        finally:
            self._finish(index)

    async def _drain(self, tasks: set[asyncio.Task]) -> None:
        if not tasks:
            return
        _, pending = await asyncio.wait(tasks, timeout=DRAIN_TIMEOUT_S)
        for task in pending:
            task.cancel()
        if pending:
            await asyncio.wait(pending)

    async def open_window(
        self, name: str, rate: float, count: int, seed: int
    ) -> Window:
        """Offer ``count`` pages as Poisson arrivals at ``rate`` per second."""
        offsets = arrival_offsets(seed, name, rate, count)
        taken = self._take(count)
        window = Window(name, rate)
        outstanding: set[asyncio.Task] = set()
        cpu_started = time.process_time()
        window.started = start = time.perf_counter()
        for offset, index in zip(offsets, taken):
            due = start + offset
            delay = due - time.perf_counter()
            if delay > 0:
                await asyncio.sleep(delay)
            window.lag_ms.append(max(0.0, time.perf_counter() - due) * 1e3)
            window.books.attempted += len(self.sealed.pages[index])
            if len(outstanding) >= MAX_OUTSTANDING:
                window.dropped_pages += 1
                window.books.failed += len(self.sealed.pages[index])
                self._finish(index)
                continue
            task = asyncio.create_task(self._run_page(index, due, window))
            outstanding.add(task)
            task.add_done_callback(outstanding.discard)
        window.backlog = len(outstanding)
        await self._drain(outstanding)
        window.ended = time.perf_counter()
        window.gen_cpu_s = time.process_time() - cpu_started
        return window

    async def closed_warmup(self, count: int, lanes: int) -> Window:
        """Send ``count`` pages from ``lanes`` closed loops (no timing)."""
        queue = list(reversed(self._take(count)))
        window = Window("warmup", None)
        window.started = time.perf_counter()

        async def lane() -> None:
            while queue:
                index = queue.pop()
                window.books.attempted += len(self.sealed.pages[index])
                await self._run_page(index, time.perf_counter(), window)

        await asyncio.gather(*(lane() for _ in range(lanes)))
        window.ended = time.perf_counter()
        return window


@dataclass
class Freshness:
    """Result of comparing every queried view with the home's answer."""

    views: int = 0
    books: Books = field(default_factory=Books)
    #: (template name, node index) of every stale cached view.
    stale: list[tuple[str, int]] = field(default_factory=list)


async def check_freshness(
    views: dict[str, QueryEnvelope],
    nodes: list[WireClient],
    home: WireClient,
    codec: EnvelopeCodec,
) -> Freshness:
    """Read each view from every node and from the home; compare them.

    Run only once the system is quiet: with no update in flight, every
    node must return a result equivalent to the home's master copy.
    Each read counts as one attempted operation, failed if it errs.  A
    read that succeeds with a stale view is listed in ``stale`` instead:
    the operation worked, the state it read was wrong.
    """
    report = Freshness(views=len(views))
    gate = asyncio.Semaphore(FRESHNESS_CONCURRENCY)

    async def read(client: WireClient, envelope: QueryEnvelope):
        report.books.attempted += 1
        try:
            outcome = await client.query(envelope)
            result = codec.open_result(outcome.result)
        except ReproError:
            report.books.failed += 1
            return None
        report.books.ok += 1
        return result

    async def check(envelope: QueryEnvelope) -> None:
        async with gate:
            truth = await read(home, envelope)
            seen = await asyncio.gather(*(read(node, envelope) for node in nodes))
        for index, result in enumerate(seen):
            if truth is None or result is None:
                continue
            if not result.equivalent(truth):
                report.stale.append((envelope.template_name or "<blind>", index))

    await asyncio.gather(*(check(envelope) for envelope in views.values()))
    return report

"""The generator's accounting and the freshness check, on real servers."""

import asyncio
import dataclasses

from repro.analysis.exposure import ExposurePolicy
from repro.crypto.envelope import ResultEnvelope
from repro.dssp import DsspNode, HomeServer
from repro.dssp.invalidation import StrategyClass
from repro.errors import ServerOverloadedError
from repro.net.client import NetQueryOutcome, NetUpdateOutcome
from repro.net.dssp_server import DsspNetServer
from repro.net.home_server import HomeNetServer
from repro.sql.ast import Insert, Literal
from repro.storage.rows import ResultSet
from repro.workloads import get_application

from perfbench import loadgen as loadgen_module
from perfbench.loadgen import (
    LoadGen,
    arrival_offsets,
    check_freshness,
    demo_keyring,
    dependencies,
    endpoint,
    prepare,
)

APP = "bookstore"
MASTER = "test-master"


def sealed_pages(pages):
    return prepare(
        APP, pages, seed=3, scale=0.2, strategy="MVIS", master=MASTER
    )


class FlakyClient:
    """Answers every query as a hit; refuses every fifth request."""

    def __init__(self, app):
        self.app = app
        self.calls = 0

    async def _maybe_refuse(self):
        self.calls += 1
        call = self.calls  # other requests count on while this one sleeps
        await asyncio.sleep(0.002)
        if call % 5 == 0:
            raise ServerOverloadedError("refused")

    async def query(self, envelope):
        await self._maybe_refuse()
        result = ResultEnvelope(self.app, plaintext=ResultSet(("x",), ((1,),)))
        return NetQueryOutcome(result=result, cache_hit=True)

    async def update(self, envelope):
        await self._maybe_refuse()
        return NetUpdateOutcome(rows_affected=1, invalidated=0)


def test_attempted_equals_ok_plus_failed(monkeypatch):
    # A tiny outstanding bound and a fast schedule force drops too.
    monkeypatch.setattr(loadgen_module, "MAX_OUTSTANDING", 3)
    sealed = sealed_pages(80)
    gen = LoadGen(sealed, [FlakyClient(APP), FlakyClient(APP)])
    window = asyncio.run(gen.open_window("w", 2000.0, 80, seed=1))
    offered_ops = sum(len(page) for page in sealed.pages)
    assert window.books.attempted == offered_ops
    assert window.books.balanced()
    assert window.dropped_pages > 0
    assert window.errors["ServerOverloadedError"] > 0
    assert window.pages + window.dropped_pages < 80  # refused pages
    assert len(window.lag_ms) == 80


def test_arrival_schedule_depends_only_on_seed():
    schedule = arrival_offsets(1, "w", 50.0, 200)
    assert schedule == arrival_offsets(1, "w", 50.0, 200)
    assert schedule != arrival_offsets(2, "w", 50.0, 200)
    assert schedule != arrival_offsets(1, "v", 50.0, 200)
    assert schedule == sorted(schedule) and schedule[0] > 0
    # Poisson arrivals at 50/s: 200 of them take about four seconds.
    assert 3.0 < schedule[-1] < 5.0


def test_freshness_flags_a_doctored_cached_result():
    async def scenario():
        spec = get_application(APP)
        instance = spec.instantiate(scale=0.2, seed=3)
        policy = ExposurePolicy.uniform(
            spec.registry, StrategyClass.MVIS.exposure_level
        )
        home = HomeServer(
            APP, instance.database, spec.registry, policy,
            demo_keyring(APP, MASTER),
        )
        home_net = HomeNetServer(home)
        await home_net.start()
        node = DsspNode()
        dssp = DsspNetServer(node)
        dssp.register_application(APP, spec.registry, home_net.address)
        await dssp.start()
        sealed = sealed_pages(60)
        clients = [endpoint(*dssp.address)]
        home_client = endpoint(*home_net.address)
        try:
            gen = LoadGen(sealed, clients)
            warm = await gen.closed_warmup(60, 4)
            assert warm.books.failed == 0
            clean = await check_freshness(
                gen.views, clients, home_client, sealed.codec
            )
            assert clean.stale == []
            assert clean.books.attempted == 2 * len(gen.views)

            # Doctor one cached view: drop its last row (or add one).
            envelope = next(
                env for key, env in gen.views.items()
                if node.cache.get(key) is not None
            )
            rows = node.cache.get(envelope.cache_key).result.plaintext
            doctored_rows = rows.rows[:-1] if rows.rows else ((None,) * len(rows.columns),)
            doctored = dataclasses.replace(rows, rows=doctored_rows)
            node.cache.put(envelope, ResultEnvelope(APP, plaintext=doctored))

            report = await check_freshness(
                gen.views, clients, home_client, sealed.codec
            )
            assert report.stale == [(envelope.template_name, 0)]
            assert report.books.failed == 0
            assert report.books.balanced()
        finally:
            for client in clients + [home_client]:
                await client.aclose()
            await dssp.stop()
            await home_net.stop()

    asyncio.run(scenario())


class ForeignClient(FlakyClient):
    """Answers with results sealed for another application."""

    async def query(self, envelope):
        outcome = await super().query(envelope)
        return dataclasses.replace(
            outcome, result=dataclasses.replace(outcome.result, app_id="other")
        )


def test_results_that_do_not_open_are_counted_as_bad():
    sealed = sealed_pages(20)
    gen = LoadGen(sealed, [ForeignClient(APP)])
    window = asyncio.run(gen.open_window("w", 4000.0, 20, seed=1))
    assert window.bad_results > 0
    assert window.errors["CryptoError"] == window.bad_results
    assert window.books.balanced()


def test_a_page_depends_on_the_earlier_page_that_inserts_what_it_refers_to():
    schema = get_application("bboard").registry.schema

    def insert(table, **row):
        return Insert(table, tuple(row), tuple(Literal(v) for v in row.values()))

    pages = [
        [insert("stories", s_id=9001, s_author=1)],
        [insert("comments", c_id=7001, c_story=9001, c_writer=2)],
        [insert("comments", c_id=7002, c_story=1, c_writer=2)],
        [],
        [insert("ratings", rt_id=5001, rt_rater=3, rt_comment=7001),
         insert("ratings", rt_id=5002, rt_rater=3, rt_comment=7002)],
    ]
    assert dependencies(schema, pages) == [(), (0,), (), (), (1, 2)]


class SlowFirstClient(FlakyClient):
    """Never refuses; holds the first request back, and logs every request."""

    def __init__(self, app):
        super().__init__(app)
        self.log = []

    async def _maybe_refuse(self):
        self.calls += 1
        call = self.calls
        self.log.append(("start", call))
        await asyncio.sleep(0.05 if call == 1 else 0.001)
        self.log.append(("end", call))


def test_a_dependent_page_waits_for_the_page_it_depends_on():
    sealed = sealed_pages(2)
    sealed.pages = [sealed.pages[0][:1], sealed.pages[1][:1]]
    sealed.depends = [(), (0,)]
    client = SlowFirstClient(APP)
    window = asyncio.run(LoadGen(sealed, [client]).open_window("w", 4000.0, 2, seed=1))
    assert window.books.failed == 0 and window.pages == 2
    assert client.log == [("start", 1), ("end", 1), ("start", 2), ("end", 2)]

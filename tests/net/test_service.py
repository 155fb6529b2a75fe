"""WireServer dispatch: failures always answer with a typed ERROR frame.

In particular an unexpected exception from a handler (a plain bug, not a
``ReproError``) must come back as ``INTERNAL`` on the same connection —
never tear the connection down silently, which a client could misread as
"my update was never sent".
"""

from __future__ import annotations

import asyncio
import dataclasses

import pytest

from repro.analysis.exposure import ExposureLevel, ExposurePolicy
from repro.crypto import Keyring
from repro.crypto.envelope import QueryEnvelope, UpdateEnvelope
from repro.dssp import DsspNode, HomeServer
from repro.errors import NetError
from repro.net import (
    DsspNetServer,
    HomeNetServer,
    RetryPolicy,
    WireClient,
    wire,
)
from repro.net.service import WireServer
from repro.net.wire import (
    ErrorCode,
    ErrorResponse,
    InvalidationBatch,
    InvalidationPush,
    QueryRequest,
    SubscribeResponse,
    UpdateRequest,
)

UPDATE = UpdateEnvelope(
    app_id="toystore", level=ExposureLevel.BLIND, opaque_id="u1"
)


class CrashingServer(WireServer):
    async def handle(self, frame, context):
        raise AttributeError("handler bug")


class TestDispatchCatchAll:
    async def test_handler_crash_becomes_internal_error_frame(self):
        server = CrashingServer()
        host, port = await server.start()
        client = WireClient(host, port, retry=RetryPolicy(attempts=1))
        try:
            with pytest.raises(NetError, match="AttributeError"):
                await client.update(UPDATE)
            # The connection survived the crash: the next request on the
            # same pooled connection gets another typed answer, not a
            # connection drop.
            with pytest.raises(NetError, match="AttributeError"):
                await client.update(UPDATE)
        finally:
            await client.aclose()
            await server.stop()


# -- typed rejection of bad statement instances --------------------------------

#: Statement instances no registry binds, as (template named in a query
#: envelope, template named in an update envelope, params), plus
#: parameter values the wire refuses to decode.  Every one must answer
#: BAD_FRAME.
UNBINDABLE = {
    "unknown-template": ("NoSuchTemplate", "NoSuchTemplate", (1,)),
    "wrong-kind": ("U1", "Q2", (5,)),
    "too-many-params": ("Q2", "U1", (1, 2)),
    "too-few-params": ("Q2", "U1", ()),
}
UNDECODABLE = {
    "bool": (True,),
    "list": ([1],),
    "dict": ({"toy": 1},),
    "nan": (float("nan"),),
    "inf": (float("inf"),),
    "-inf": (float("-inf"),),
}
BAD_INSTANCES = {
    **UNBINDABLE,
    **{name: ("Q2", "U1", params) for name, params in UNDECODABLE.items()},
}


def bad_query(name: str) -> QueryEnvelope:
    template, _, params = BAD_INSTANCES[name]
    return QueryEnvelope(
        app_id="toystore",
        level=ExposureLevel.STMT,
        cache_key=f"toystore|stmt|bad-{name}",
        template_name=template,
        params=params,
    )


def bad_update(name: str) -> UpdateEnvelope:
    _, template, params = BAD_INSTANCES[name]
    return UpdateEnvelope(
        app_id="toystore",
        level=ExposureLevel.STMT,
        opaque_id=f"toystore|stmt|bad-{name}",
        template_name=template,
        params=params,
    )


async def exchange(address, frame):
    """Send one raw request frame; return the decoded answer."""
    reader, writer = await asyncio.open_connection(*address)
    try:
        await wire.write_frame(writer, frame, request_id="rid-bad")
        return await wire.read_frame(reader)
    finally:
        writer.close()
        await writer.wait_closed()


class Fleet:
    """One toystore home and one DSSP node at a uniform exposure level."""

    def __init__(self, registry, database, level) -> None:
        policy = ExposurePolicy.uniform(registry, level)
        self.home = HomeServer(
            "toystore", database, registry, policy, Keyring("toystore")
        )
        self.home_net = HomeNetServer(self.home)
        self.node = DsspNode()
        self.dssp = DsspNetServer(self.node)
        self.registry = registry

    async def __aenter__(self):
        await self.home_net.start()
        self.dssp.register_application(
            "toystore", self.registry, self.home_net.address
        )
        await self.dssp.start()
        return self

    async def __aexit__(self, *exc_info):
        await self.dssp.stop()
        await self.home_net.stop()


class TestTypedRejection:
    """Outside input naming no bindable statement is BAD_FRAME, never
    INTERNAL: at the DSSP, at the home, and on the invalidation stream."""

    @pytest.mark.parametrize("case", sorted(BAD_INSTANCES))
    async def test_bad_query_is_bad_frame(
        self, case, simple_toystore, toystore_db
    ):
        async with Fleet(
            simple_toystore, toystore_db, ExposureLevel.STMT
        ) as fleet:
            for address in (fleet.dssp.address, fleet.home_net.address):
                answer = await exchange(address, QueryRequest(bad_query(case)))
                assert isinstance(answer, ErrorResponse)
                assert answer.code is ErrorCode.BAD_FRAME, answer.message
            assert len(fleet.node.cache) == 0
            assert fleet.home.queries_served == 0

    @pytest.mark.parametrize("case", sorted(BAD_INSTANCES))
    async def test_bad_update_is_bad_frame(
        self, case, simple_toystore, toystore_db
    ):
        async with Fleet(
            simple_toystore, toystore_db, ExposureLevel.STMT
        ) as fleet:
            for address in (fleet.dssp.address, fleet.home_net.address):
                answer = await exchange(
                    address, UpdateRequest(bad_update(case), origin="x")
                )
                assert isinstance(answer, ErrorResponse)
                assert answer.code is ErrorCode.BAD_FRAME, answer.message
            assert fleet.home.updates_applied == 0

    async def test_unknown_template_at_template_level_is_bad_frame(
        self, simple_toystore, toystore_db
    ):
        async with Fleet(
            simple_toystore, toystore_db, ExposureLevel.TEMPLATE
        ) as fleet:
            sealed = fleet.home.codec.seal_query(
                simple_toystore.query("Q2").bind([1]), ExposureLevel.TEMPLATE
            )
            forged = dataclasses.replace(sealed, template_name="NoSuch")
            for address in (fleet.dssp.address, fleet.home_net.address):
                answer = await exchange(address, QueryRequest(forged))
                assert answer.code is ErrorCode.BAD_FRAME, answer.message


class PushingHome:
    """A home stand-in: answers SUBSCRIBE, then pushes one scripted frame
    on the first channel only and holds every channel open."""

    def __init__(self, push) -> None:
        self.push = push
        self.subscribes = 0

    async def start(self) -> tuple[str, int]:
        self._server = await asyncio.start_server(
            self._serve, "127.0.0.1", 0
        )
        return self._server.sockets[0].getsockname()[:2]

    async def _serve(self, reader, writer) -> None:
        request = await wire.read_frame(reader)
        self.subscribes += 1
        await wire.write_frame(
            writer, SubscribeResponse(request.app_ids, batch_enabled=True)
        )
        if self.subscribes == 1:
            await wire.write_frame(writer, self.push)
        try:
            await reader.read()  # until the node drops the channel
        except ConnectionError:
            pass
        finally:
            writer.close()

    async def stop(self) -> None:
        self._server.close()
        await self._server.wait_closed()


def bad_pushes():
    """INVALIDATE and INVALIDATE_BATCH frames for every bad instance."""
    for case in sorted(BAD_INSTANCES):
        envelope = bad_update(case)
        yield f"push-{case}", InvalidationPush(envelope)
        yield f"batch-{case}", InvalidationBatch(((None, envelope),))


PUSHES = dict(bad_pushes())


class TestBadInvalidationPush:
    @pytest.mark.parametrize("case", sorted(PUSHES))
    async def test_bad_push_drops_the_channel_and_flushes(
        self, case, simple_toystore
    ):
        home = PushingHome(PUSHES[case])
        address = await home.start()
        node = DsspNode()
        dssp = DsspNetServer(
            node,
            subscribe_retry=RetryPolicy(attempts=100, backoff_s=0.01),
        )
        dssp.register_application("toystore", simple_toystore, address)
        await dssp.start()
        try:
            # Treated as a bad frame: the channel is re-opened and the
            # re-subscribe flushes the application; nothing is applied.
            deadline = asyncio.get_running_loop().time() + 5.0
            while dssp.stream_flushes < 2:
                assert asyncio.get_running_loop().time() < deadline
                await asyncio.sleep(0.01)
            assert home.subscribes >= 2
            assert dssp.stream_pushes_applied == 0
            errors = dssp.metrics.snapshot()["counters"]
            assert "server.internal_errors" not in errors
        finally:
            await dssp.stop()
            await home.stop()

"""Shared asyncio server machinery for the DSSP service layer.

Both servers (:class:`~repro.net.home_server.HomeNetServer`,
:class:`~repro.net.dssp_server.DsspNetServer`) are request/response frame
servers with the same operational envelope:

* **Concurrent connections** *and* concurrent requests per connection:
  the read loop spawns a task per request frame, so many requests can be
  in flight on one connection and responses may return out of order.
  The wire v2 request id is the pipelining id — every response carries
  the id of the request it answers, and the client matches on it.
* **Bounded in-flight backpressure**: at most ``max_in_flight`` requests
  execute at once across all connections; excess requests are shed
  immediately with ``OVERLOADED`` rather than queued without bound, so a
  slow home server cannot make a DSSP node accumulate unbounded state.
* **Per-request timeout**: a request that cannot finish within
  ``request_timeout_s`` is answered with ``TIMEOUT``.
* **Typed error mapping**: library exceptions never cross the wire as
  control flow — they become :class:`~repro.net.wire.ErrorResponse` frames
  with a typed code, and the client maps them back to exceptions.
"""

from __future__ import annotations

import asyncio
import json
import logging
import time
from dataclasses import dataclass, field

from repro.errors import (
    HomeUnreachableError,
    NetTimeoutError,
    ReproError,
    ServerOverloadedError,
    TemplateError,
    UnknownApplicationError,
    WireError,
)
from repro.net import wire
from repro.net.wire import (
    ErrorCode,
    ErrorResponse,
    Frame,
    StatsRequest,
    StatsResponse,
)
from repro.obs import MetricsRegistry, SpanRecorder, envelope_context

__all__ = ["ConnectionContext", "WireServer"]

logger = logging.getLogger(__name__)


@dataclass(eq=False)  # identity semantics: contexts live in a set
class ConnectionContext:
    """Per-connection state handed to frame handlers."""

    writer: asyncio.StreamWriter
    #: Serializes writes: responses (read loop) vs pushes (broadcasts).
    write_lock: asyncio.Lock = field(default_factory=asyncio.Lock)
    #: Callbacks run exactly once when the connection goes away.
    close_callbacks: list = field(default_factory=list)
    #: Trace id of the request this context serves.  Requests on one
    #: connection are dispatched concurrently, so each gets its own
    #: context view (:meth:`for_request`) sharing the connection state;
    #: handlers read the id to propagate it downstream.
    request_id: str | None = None

    def on_close(self, callback) -> None:
        """Register cleanup to run when this connection closes."""
        self.close_callbacks.append(callback)

    def for_request(self, request_id: str | None) -> "ConnectionContext":
        """Per-request view: same connection state, this request's id.

        ``writer``, ``write_lock`` and ``close_callbacks`` are shared by
        reference — a callback registered through the view still fires
        when the underlying connection closes.
        """
        return ConnectionContext(
            writer=self.writer,
            write_lock=self.write_lock,
            close_callbacks=self.close_callbacks,
            request_id=request_id,
        )


class WireServer:
    """Base class: asyncio frame server with backpressure and timeouts."""

    def __init__(
        self,
        host: str = "127.0.0.1",
        port: int = 0,
        *,
        max_in_flight: int = 64,
        request_timeout_s: float = 10.0,
        max_frame: int = wire.MAX_FRAME_BYTES,
        frame_observer=None,
        server_id: str = "server",
        metrics: MetricsRegistry | None = None,
        fault_hook=None,
        tracer: SpanRecorder | None = None,
    ) -> None:
        self._host = host
        self._port = port
        self._max_in_flight = max_in_flight
        self.request_timeout_s = request_timeout_s
        self.max_frame = max_frame
        self._frame_observer = frame_observer
        #: Awaited before each request handler runs (chaos injects
        #: deterministic processing stalls here); ``None`` in production.
        self.fault_hook = fault_hook
        self._server: asyncio.AbstractServer | None = None
        self._in_flight: asyncio.Semaphore | None = None
        self._contexts: set[ConnectionContext] = set()
        self._stopping = False
        #: Stable identity in logs and STATS snapshots.
        self.server_id = server_id
        self.metrics = metrics or MetricsRegistry()
        #: Span recorder keyed on the wire request id; sink-less (and
        #: therefore disabled, near-zero cost) unless one is supplied.
        self.tracer = tracer or SpanRecorder(server_id)
        self.metrics.gauge(
            "server.connections", lambda: len(self._contexts)
        )

    # -- lifecycle ---------------------------------------------------------

    @property
    def address(self) -> tuple[str, int]:
        """(host, port) actually bound; valid after :meth:`start`."""
        if self._server is None:
            raise RuntimeError("server is not started")
        return self._server.sockets[0].getsockname()[:2]

    async def start(self) -> tuple[str, int]:
        """Bind and start accepting connections; returns the address."""
        self._in_flight = asyncio.Semaphore(self._max_in_flight)
        self._server = await asyncio.start_server(
            self._serve_connection, self._host, self._port
        )
        return self.address

    async def serve_forever(self) -> None:
        """Block until cancelled (after :meth:`start`)."""
        assert self._server is not None
        await self._server.serve_forever()

    async def stop(self) -> None:
        """Stop accepting, close every live connection, run cleanups."""
        self._stopping = True
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
        for context in list(self._contexts):
            await self._close_context(context)

    # -- connection loop ---------------------------------------------------

    async def _serve_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        context = ConnectionContext(writer=writer)
        self._contexts.add(context)
        tasks: set[asyncio.Task] = set()
        try:
            while not self._stopping:
                try:
                    # Raw read first, then a separately-timed decode: the
                    # span covering codec work must not also bill the idle
                    # time spent waiting for bytes.
                    raw = await wire.read_raw_frame(
                        reader, max_frame=self.max_frame
                    )
                    if raw is None:  # clean EOF
                        break
                    if self._frame_observer is not None:
                        self._frame_observer(raw)
                    _, request_id = wire.peek_raw(raw)
                    with self.tracer.trace(
                        request_id, "server.decode"
                    ) as decode_span:
                        frame, request_id = wire.decode_traced(
                            raw, max_frame=self.max_frame
                        )
                        decode_span.set("bytes", len(raw))
                        decode_span.set("frame", type(frame).__name__)
                except WireError as error:
                    self.metrics.counter("server.bad_frames").inc()
                    logger.warning(
                        "rejecting malformed frame: %s",
                        error,
                        extra={"ctx": {"server": self.server_id}},
                    )
                    await self._send(
                        context, ErrorResponse(ErrorCode.BAD_FRAME, str(error))
                    )
                    break
                # Pipelining: dispatch concurrently and keep reading; the
                # semaphore in _dispatch bounds concurrency and responses
                # go out whenever their handler finishes (out of order).
                task = asyncio.create_task(
                    self._serve_request(frame, context.for_request(request_id))
                )
                tasks.add(task)
                task.add_done_callback(tasks.discard)
        except (ConnectionError, OSError):
            pass  # peer vanished; cleanups below
        finally:
            if tasks:
                # Let in-flight handlers finish (each is bounded by the
                # request timeout) so their effects and responses are not
                # lost to a racing disconnect — matching the sequential
                # protocol, where a read-side EOF never aborted a handler.
                await asyncio.gather(*tasks, return_exceptions=True)
            self._contexts.discard(context)
            await self._close_context(context)

    async def _serve_request(
        self, frame: Frame, context: ConnectionContext
    ) -> None:
        """Run one request to completion and write its response."""
        try:
            response = await self._dispatch(frame, context)
            if response is not None:
                await self._send(
                    context, response, request_id=context.request_id
                )
        except (ConnectionError, OSError):
            pass  # peer vanished; connection cleanup handles the rest
        except WireError:
            # Response encoding failed (e.g. oversized frame): the stream
            # is unusable for this peer — close it rather than stall.
            context.writer.close()

    async def _send(
        self,
        context: ConnectionContext,
        frame: Frame,
        *,
        request_id: str | None = None,
    ) -> None:
        async with context.write_lock:
            await wire.write_frame(
                context.writer,
                frame,
                request_id=request_id,
                max_frame=self.max_frame,
                observer=self._frame_observer,
            )

    async def _close_context(self, context: ConnectionContext) -> None:
        callbacks, context.close_callbacks = context.close_callbacks, []
        for callback in callbacks:
            callback()
        context.writer.close()
        try:
            await context.writer.wait_closed()
        except (ConnectionError, OSError):
            pass

    # -- request execution -------------------------------------------------

    def _request_ctx(self, frame: Frame, context: ConnectionContext) -> dict:
        """Loggable identifiers for one request: never payload bytes."""
        ctx = {"server": self.server_id, "frame": type(frame).__name__}
        if context.request_id is not None:
            ctx["request_id"] = context.request_id
        envelope = getattr(frame, "envelope", None)
        if envelope is not None:
            ctx.update(envelope_context(envelope))
        return ctx

    async def _dispatch(
        self, frame: Frame, context: ConnectionContext
    ) -> Frame | None:
        assert self._in_flight is not None
        ctx = self._request_ctx(frame, context)
        self.metrics.counter("server.requests").inc()
        # Per-application books (envelope-bearing frames only — STATS and
        # other control frames have no tenant).  Multi-tenant fairness
        # tests reconcile these against each client's local counts, and
        # served-vs-shed per app is what "shedding does not starve the
        # light tenants" is asserted on.
        envelope = getattr(frame, "envelope", None)
        app_id = getattr(envelope, "app_id", None)
        if app_id is not None:
            self.metrics.counter(f"server.app_requests.{app_id}").inc()
        if self._in_flight.locked():
            # All permits taken: shed instead of queueing without bound.
            self.metrics.counter("server.shed").inc()
            if app_id is not None:
                self.metrics.counter(f"server.app_shed.{app_id}").inc()
            logger.warning("shedding request under backpressure", extra={"ctx": ctx})
            return ErrorResponse(
                ErrorCode.OVERLOADED,
                f"more than {self._max_in_flight} requests in flight",
            )
        in_flight = self.metrics.gauge("server.in_flight")
        started = time.perf_counter()
        with self.tracer.trace(
            context.request_id, "server.handle", frame=type(frame).__name__
        ) as handle_span:
            async with self._in_flight:
                in_flight.inc()
                try:
                    response = await asyncio.wait_for(
                        self._handle_with_hook(frame, context),
                        self.request_timeout_s,
                    )
                    logger.debug("request served", extra={"ctx": ctx})
                    return response
                except (asyncio.TimeoutError, TimeoutError):
                    self.metrics.counter("server.timeouts").inc()
                    logger.warning("request timed out", extra={"ctx": ctx})
                    handle_span.set("error", "timeout")
                    return ErrorResponse(
                        ErrorCode.TIMEOUT,
                        f"request exceeded {self.request_timeout_s}s",
                    )
                except NetTimeoutError as error:
                    self.metrics.counter("server.timeouts").inc()
                    handle_span.set("error", "timeout")
                    return ErrorResponse(ErrorCode.TIMEOUT, str(error))
                except UnknownApplicationError as error:
                    return ErrorResponse(ErrorCode.UNKNOWN_APP, error.app_id)
                except HomeUnreachableError as error:
                    self.metrics.counter("server.forward_failures").inc()
                    logger.warning(
                        "home unreachable: %s", error, extra={"ctx": ctx}
                    )
                    handle_span.set("error", "home_unreachable")
                    return ErrorResponse(ErrorCode.MISS_FORWARDED, str(error))
                except ServerOverloadedError as error:
                    # A downstream hop shed the request unprocessed: relay the
                    # code so the client keeps its retry-safety guarantee.
                    return ErrorResponse(ErrorCode.OVERLOADED, str(error))
                except (WireError, TemplateError) as error:
                    # A template name or parameter tuple the registry
                    # cannot bind is malformed input, like a bad frame.
                    self.metrics.counter("server.bad_frames").inc()
                    return ErrorResponse(ErrorCode.BAD_FRAME, str(error))
                except ReproError as error:
                    # Typed library errors are expected application failures
                    # (e.g. replayed INSERTs colliding): one line, no traceback.
                    self.metrics.counter("server.internal_errors").inc()
                    logger.warning(
                        "request failed: %s: %s",
                        type(error).__name__,
                        error,
                        extra={"ctx": ctx},
                    )
                    handle_span.set("error", type(error).__name__)
                    return ErrorResponse(
                        ErrorCode.INTERNAL, f"{type(error).__name__}: {error}"
                    )
                except Exception as error:
                    # A handler bug must not tear down the connection without an
                    # ERROR frame — the client could misread a silently dropped
                    # connection as "update never sent".
                    self.metrics.counter("server.internal_errors").inc()
                    logger.exception(
                        "request handler crashed", extra={"ctx": ctx}
                    )
                    handle_span.set("error", type(error).__name__)
                    return ErrorResponse(
                        ErrorCode.INTERNAL, f"{type(error).__name__}: {error}"
                    )
                finally:
                    in_flight.dec()
                    # Exemplars only for sampled requests: the linked trace
                    # must actually exist in the span logs.
                    self.metrics.histogram("server.handle_seconds").observe(
                        time.perf_counter() - started,
                        exemplar=(
                            context.request_id
                            if handle_span.recorded
                            else None
                        ),
                    )

    async def _handle_with_hook(
        self, frame: Frame, context: ConnectionContext
    ) -> Frame | None:
        # Inside the request timeout on purpose: a hook stall long enough
        # to blow the deadline is answered with TIMEOUT like any slow
        # handler, which is exactly the failure chaos wants to provoke.
        if self.fault_hook is not None:
            await self.fault_hook(frame, context.request_id)
        return await self.handle(frame, context)

    # -- observability -----------------------------------------------------

    def stats_snapshot(self) -> dict:
        """JSON-safe live snapshot; subclasses layer their own sections in."""
        return {
            "node_id": self.server_id,
            "metrics": self.metrics.snapshot(),
        }

    def _stats_response(self) -> StatsResponse:
        snapshot = self.stats_snapshot()
        return StatsResponse(
            node_id=self.server_id,
            payload=json.dumps(snapshot, separators=(",", ":"), default=str),
        )

    async def handle(
        self, frame: Frame, context: ConnectionContext
    ) -> Frame | None:
        """Serve one request frame; subclasses implement the semantics.

        Subclasses answer :class:`~repro.net.wire.StatsRequest` via
        :meth:`_stats_response` after layering their sections into
        :meth:`stats_snapshot`.
        """
        if isinstance(frame, StatsRequest):
            return self._stats_response()
        raise NotImplementedError

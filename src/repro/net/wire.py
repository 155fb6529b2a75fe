"""Length-prefixed binary wire protocol for the DSSP service layer.

Framing, protocol version 3 (all integers big-endian)::

    +-------+---------+------------+---------+--------------+========+=========+
    | magic | version | frame type | rid len | payload len  |  rid   | payload |
    |  2 B  |   1 B   |    1 B     |   1 B   |     4 B      | rid B  |  len B  |
    +-------+---------+------------+---------+--------------+========+=========+

``rid`` is an optional request (trace) id — UTF-8, at most
:data:`MAX_REQUEST_ID_BYTES` bytes, empty when absent.  Clients mint one
per logical request (:func:`repro.obs.new_request_id`), servers echo it on
the response, and a DSSP node forwards the *same* id on its miss/update
hop to the home server, so one id correlates the whole request path.
Frames of any other version are rejected at the header (version 2
envelopes carried SQL text; version 1 had no rid slot).

Payloads are sequences of primitive fields: ``u8``/``u32`` integers,
length-prefixed UTF-8 strings, length-prefixed byte strings, and optionals
(a one-byte presence flag followed by the value).  A statement travels
as its template name plus, at ``stmt`` exposure and above, its parameters
as a JSON array; no SQL text does, since both ends hold the registry.

Security invariant: the codec is a *projection* of the envelope — it writes
only fields the envelope carries, and envelopes carry plaintext only for
what their exposure level permits (see :mod:`repro.crypto.envelope`).  The
DSSP-visible bytes of a sealed envelope on the wire are therefore exactly
the DSSP-visible fields in memory; nothing is opened or re-sealed en route.

Every decode error raises :class:`~repro.errors.WireError` (the ``BAD_FRAME``
wire code): truncated or oversized frames, bad magic/version, unknown frame
types, trailing bytes, and parameters that are not a JSON array of SQL
scalars (booleans, nested values, NaN and infinities are refused).
"""

from __future__ import annotations

import asyncio
import enum
import json
import struct
from dataclasses import dataclass

from repro.analysis.exposure import ExposureLevel
from repro.crypto.envelope import (
    QueryEnvelope,
    ResultEnvelope,
    UpdateEnvelope,
    decode_params,
    deserialize_result,
    encode_params,
    serialize_result,
)
from repro.errors import CryptoError, WireError

__all__ = [
    "ErrorCode",
    "ErrorResponse",
    "Frame",
    "FrameType",
    "HEADER_SIZE",
    "InvalidationBatch",
    "InvalidationPush",
    "MAX_BATCH_ENTRIES",
    "MAX_FRAME_BYTES",
    "MAX_REQUEST_ID_BYTES",
    "QueryRequest",
    "QueryResponse",
    "StatsRequest",
    "StatsResponse",
    "SubscribeRequest",
    "SubscribeResponse",
    "UpdateRequest",
    "UpdateResponse",
    "decode_frame",
    "decode_traced",
    "encode_frame",
    "peek_raw",
    "read_frame",
    "read_raw_frame",
    "read_traced",
    "write_frame",
]

MAGIC = b"DW"
VERSION = 3
_HEADER = struct.Struct(">2sBBBI")
HEADER_SIZE = _HEADER.size
#: Default ceiling on payload size; a frame claiming more is rejected
#: before any allocation happens.
MAX_FRAME_BYTES = 8 * 1024 * 1024
#: Ceiling on the request-id slot in the header.
MAX_REQUEST_ID_BYTES = 64
#: Ceiling on entries in one ``INVALIDATE_BATCH`` frame.
MAX_BATCH_ENTRIES = 4096


class FrameType(enum.IntEnum):
    """One byte on the wire selecting the payload codec."""

    QUERY = 1
    UPDATE = 2
    SUBSCRIBE = 3
    RESULT = 4
    UPDATE_ACK = 5
    SUBSCRIBED = 6
    INVALIDATE = 7
    ERROR = 8
    STATS = 9
    STATS_RESULT = 10
    INVALIDATE_BATCH = 11


class ErrorCode(enum.IntEnum):
    """Typed wire error codes (replaces exception text on the boundary).

    Values are the on-wire byte and are frozen: never renumber an existing
    member; new codes take fresh values at the end.
    """

    UNKNOWN_APP = 1
    MISS_FORWARDED = 2
    TIMEOUT = 3
    BAD_FRAME = 4
    OVERLOADED = 5
    INTERNAL = 6


# -- frame dataclasses -----------------------------------------------------------


@dataclass(frozen=True)
class QueryRequest:
    """Client → DSSP (or DSSP → home, on a miss): serve this query."""

    envelope: QueryEnvelope


@dataclass(frozen=True)
class UpdateRequest:
    """Client → DSSP → home: apply this update.

    ``origin`` identifies the forwarding DSSP node so the home's
    invalidation stream can skip it (the origin invalidates synchronously
    before acknowledging its client).
    """

    envelope: UpdateEnvelope
    origin: str | None = None


@dataclass(frozen=True)
class SubscribeRequest:
    """DSSP → home: open the invalidation-stream channel.

    ``supports_batch`` advertises that the subscriber understands
    ``INVALIDATE_BATCH`` frames.  It is encoded as a trailing capability
    byte emitted *only when set*, so a subscriber that does not batch
    produces bytes identical to the pre-batching protocol and an old
    home simply never sees the field.

    ``shards``/``vnodes`` declare the sharded topology the subscriber is
    part of: the full ring membership plus the virtual-node count, enough
    for the home to rebuild the placement ring and narrow its fan-out to
    owning shards.  Encoded after the capability byte and emitted only
    when ``shards`` is non-empty (the capability byte is then always
    written, as 0 or 1, so the trailing fields stay unambiguous).
    """

    node_id: str
    app_ids: tuple[str, ...]
    supports_batch: bool = False
    shards: tuple[str, ...] = ()
    vnodes: int = 0


@dataclass(frozen=True)
class QueryResponse:
    """Answer to a :class:`QueryRequest` (still sealed per policy)."""

    result: ResultEnvelope
    cache_hit: bool


@dataclass(frozen=True)
class UpdateResponse:
    """Answer to an :class:`UpdateRequest`."""

    rows_affected: int
    invalidated: int


@dataclass(frozen=True)
class SubscribeResponse:
    """Answer to a :class:`SubscribeRequest`; the channel stays open.

    ``batch_enabled`` confirms the home will coalesce pushes into
    ``INVALIDATE_BATCH`` frames on this channel; same trailing-byte
    encoding as :class:`SubscribeRequest.supports_batch`.
    ``shard_filtered`` confirms the home accepted the declared shard
    topology and will narrow invalidation fan-out to owning shards; a
    second trailing byte, emitted only when set (the batch byte is then
    always written so positions stay unambiguous).
    """

    app_ids: tuple[str, ...]
    batch_enabled: bool = False
    shard_filtered: bool = False


@dataclass(frozen=True)
class InvalidationPush:
    """Home → subscribed DSSP node: a completed update to invalidate for."""

    envelope: UpdateEnvelope


@dataclass(frozen=True)
class InvalidationBatch:
    """Home → subscribed DSSP node: several coalesced pushes, one frame.

    Each entry pairs the originating request's trace id (optional) with
    the sealed update envelope, exactly as the equivalent sequence of
    singleton ``INVALIDATE`` frames would have carried them.  The frame's
    own header rid slot stays empty — per-entry ids preserve tracing
    across coalescing.
    """

    entries: tuple[tuple[str | None, UpdateEnvelope], ...]

    def __post_init__(self) -> None:
        if not self.entries:
            raise WireError("invalidation batch must not be empty")
        if len(self.entries) > MAX_BATCH_ENTRIES:
            raise WireError(
                f"invalidation batch of {len(self.entries)} entries "
                f"exceeds limit {MAX_BATCH_ENTRIES}"
            )


@dataclass(frozen=True)
class ErrorResponse:
    """Any failure crossing the boundary, as a typed code + message."""

    code: ErrorCode
    message: str


@dataclass(frozen=True)
class StatsRequest:
    """Ask a live node for its observability snapshot."""


@dataclass(frozen=True)
class StatsResponse:
    """A node's snapshot: its identity plus a JSON document.

    ``payload`` is the JSON serialization of the node's stats snapshot
    (counters, gauges, histogram quantiles).  It travels as text so the
    frame codec stays schema-free while the decoder still rejects
    non-JSON payloads at the boundary.
    """

    node_id: str
    payload: str


Frame = (
    QueryRequest
    | UpdateRequest
    | SubscribeRequest
    | QueryResponse
    | UpdateResponse
    | SubscribeResponse
    | InvalidationPush
    | InvalidationBatch
    | ErrorResponse
    | StatsRequest
    | StatsResponse
)


# -- primitive field codecs ------------------------------------------------------


class _Writer:
    def __init__(self) -> None:
        self._buf = bytearray()

    def u8(self, value: int) -> None:
        self._buf.append(value & 0xFF)

    def u32(self, value: int) -> None:
        self._buf += value.to_bytes(4, "big")

    def blob(self, value: bytes) -> None:
        self.u32(len(value))
        self._buf += value

    def text(self, value: str) -> None:
        self.blob(value.encode())

    def opt_blob(self, value: bytes | None) -> None:
        if value is None:
            self.u8(0)
        else:
            self.u8(1)
            self.blob(value)

    def opt_text(self, value: str | None) -> None:
        self.opt_blob(None if value is None else value.encode())

    def getvalue(self) -> bytes:
        return bytes(self._buf)


def _utf8(raw: bytes, what: str) -> str:
    try:
        return raw.decode()
    except UnicodeDecodeError as error:
        raise WireError(f"invalid UTF-8 in {what}: {error}") from error


class _Reader:
    def __init__(self, data: bytes) -> None:
        self._data = data
        self._pos = 0

    def _take(self, count: int) -> bytes:
        end = self._pos + count
        if end > len(self._data):
            raise WireError(
                f"truncated payload: wanted {count} bytes at offset "
                f"{self._pos}, have {len(self._data) - self._pos}"
            )
        piece = self._data[self._pos : end]
        self._pos = end
        return piece

    def u8(self) -> int:
        return self._take(1)[0]

    def u32(self) -> int:
        return int.from_bytes(self._take(4), "big")

    def blob(self) -> bytes:
        length = self.u32()
        return self._take(length)

    def text(self) -> str:
        return _utf8(self.blob(), "string field")

    def opt_blob(self) -> bytes | None:
        flag = self.u8()
        if flag == 0:
            return None
        if flag != 1:
            raise WireError(f"bad presence flag {flag}")
        return self.blob()

    def opt_text(self) -> str | None:
        raw = self.opt_blob()
        return None if raw is None else _utf8(raw, "string field")

    def at_end(self) -> bool:
        """True when the payload is exhausted (for trailing optionals)."""
        return self._pos == len(self._data)

    def done(self) -> None:
        if self._pos != len(self._data):
            raise WireError(
                f"{len(self._data) - self._pos} trailing bytes after payload"
            )


# -- envelope codecs -------------------------------------------------------------


def _read_level(reader: _Reader) -> ExposureLevel:
    raw = reader.u8()
    try:
        return ExposureLevel(raw)
    except ValueError:
        raise WireError(f"unknown exposure level {raw}") from None


def _read_params(reader: _Reader):
    raw = reader.opt_blob()
    if raw is None:
        return None
    try:
        return decode_params(raw)
    except CryptoError as error:
        raise WireError(str(error)) from error


def _write_envelope(
    writer: _Writer, envelope: QueryEnvelope | UpdateEnvelope, key: str
) -> None:
    """Query and update envelopes share one layout; ``key`` is the cache
    key or opaque id."""
    writer.text(envelope.app_id)
    writer.u8(int(envelope.level))
    writer.text(key)
    writer.opt_text(envelope.template_name)
    writer.opt_blob(
        None if envelope.params is None else encode_params(envelope.params)
    )
    writer.opt_blob(envelope.sealed_statement)
    writer.opt_blob(envelope.sealed_params)


def _read_envelope(reader: _Reader, kind):
    return kind(
        reader.text(),
        _read_level(reader),
        reader.text(),
        template_name=reader.opt_text(),
        params=_read_params(reader),
        sealed_statement=reader.opt_blob(),
        sealed_params=reader.opt_blob(),
    )


def _write_result_envelope(writer: _Writer, envelope: ResultEnvelope) -> None:
    writer.text(envelope.app_id)
    writer.opt_blob(
        None
        if envelope.plaintext is None
        else serialize_result(envelope.plaintext)
    )
    writer.opt_blob(envelope.ciphertext)


def _read_result_envelope(reader: _Reader) -> ResultEnvelope:
    app_id = reader.text()
    raw_plaintext = reader.opt_blob()
    if raw_plaintext is None:
        plaintext = None
    else:
        try:
            plaintext = deserialize_result(raw_plaintext)
        except CryptoError as error:
            raise WireError(str(error)) from error
    return ResultEnvelope(
        app_id=app_id, plaintext=plaintext, ciphertext=reader.opt_blob()
    )


# -- frame codecs ----------------------------------------------------------------


def _write_payload(writer: _Writer, frame: Frame) -> FrameType:
    if isinstance(frame, QueryRequest):
        _write_envelope(writer, frame.envelope, frame.envelope.cache_key)
        return FrameType.QUERY
    if isinstance(frame, UpdateRequest):
        writer.opt_text(frame.origin)
        _write_envelope(writer, frame.envelope, frame.envelope.opaque_id)
        return FrameType.UPDATE
    if isinstance(frame, SubscribeRequest):
        writer.text(frame.node_id)
        writer.u32(len(frame.app_ids))
        for app_id in frame.app_ids:
            writer.text(app_id)
        if frame.shards:
            if frame.vnodes < 1:
                raise WireError("shard topology requires vnodes >= 1")
            writer.u8(1 if frame.supports_batch else 0)
            writer.u32(frame.vnodes)
            writer.u32(len(frame.shards))
            for shard in frame.shards:
                writer.text(shard)
        elif frame.supports_batch:
            writer.u8(1)
        return FrameType.SUBSCRIBE
    if isinstance(frame, QueryResponse):
        writer.u8(1 if frame.cache_hit else 0)
        _write_result_envelope(writer, frame.result)
        return FrameType.RESULT
    if isinstance(frame, UpdateResponse):
        writer.u32(frame.rows_affected)
        writer.u32(frame.invalidated)
        return FrameType.UPDATE_ACK
    if isinstance(frame, SubscribeResponse):
        writer.u32(len(frame.app_ids))
        for app_id in frame.app_ids:
            writer.text(app_id)
        if frame.shard_filtered:
            writer.u8(1 if frame.batch_enabled else 0)
            writer.u8(1)
        elif frame.batch_enabled:
            writer.u8(1)
        return FrameType.SUBSCRIBED
    if isinstance(frame, InvalidationPush):
        _write_envelope(writer, frame.envelope, frame.envelope.opaque_id)
        return FrameType.INVALIDATE
    if isinstance(frame, InvalidationBatch):
        writer.u32(len(frame.entries))
        for entry_rid, envelope in frame.entries:
            writer.opt_text(entry_rid)
            _write_envelope(writer, envelope, envelope.opaque_id)
        return FrameType.INVALIDATE_BATCH
    if isinstance(frame, ErrorResponse):
        writer.u8(int(frame.code))
        writer.text(frame.message)
        return FrameType.ERROR
    if isinstance(frame, StatsRequest):
        return FrameType.STATS
    if isinstance(frame, StatsResponse):
        writer.text(frame.node_id)
        writer.text(frame.payload)
        return FrameType.STATS_RESULT
    raise WireError(f"cannot encode {type(frame).__name__}")


def _read_app_ids(reader: _Reader) -> tuple[str, ...]:
    count = reader.u32()
    if count > 4096:
        raise WireError(f"implausible app-id count {count}")
    return tuple(reader.text() for _ in range(count))


def _read_capability(reader: _Reader) -> bool:
    """Trailing optional capability byte; absent means unsupported.

    Pre-batching peers end the payload here, so absence (not a zero
    byte) is the backward-compatible "no" — emitters write the byte
    unset (0) only when a later trailing field forces its presence.
    """
    if reader.at_end():
        return False
    flag = reader.u8()
    if flag not in (0, 1):
        raise WireError(f"bad capability byte {flag}")
    return flag == 1


def _read_shard_topology(reader: _Reader) -> tuple[tuple[str, ...], int]:
    """Trailing shard-topology fields; absent means unsharded."""
    if reader.at_end():
        return (), 0
    vnodes = reader.u32()
    if vnodes < 1:
        raise WireError(f"implausible vnode count {vnodes}")
    count = reader.u32()
    if count == 0 or count > 4096:
        raise WireError(f"implausible shard count {count}")
    return tuple(reader.text() for _ in range(count)), vnodes


def _decode_payload(frame_type: int, payload: bytes) -> Frame:
    reader = _Reader(payload)
    if frame_type == FrameType.QUERY:
        frame: Frame = QueryRequest(_read_envelope(reader, QueryEnvelope))
    elif frame_type == FrameType.UPDATE:
        origin = reader.opt_text()
        envelope = _read_envelope(reader, UpdateEnvelope)
        frame = UpdateRequest(envelope, origin=origin)
    elif frame_type == FrameType.SUBSCRIBE:
        node_id = reader.text()
        app_ids = _read_app_ids(reader)
        supports_batch = _read_capability(reader)
        shards, vnodes = _read_shard_topology(reader)
        frame = SubscribeRequest(
            node_id,
            app_ids,
            supports_batch=supports_batch,
            shards=shards,
            vnodes=vnodes,
        )
    elif frame_type == FrameType.RESULT:
        cache_hit = reader.u8() != 0
        frame = QueryResponse(_read_result_envelope(reader), cache_hit)
    elif frame_type == FrameType.UPDATE_ACK:
        frame = UpdateResponse(reader.u32(), reader.u32())
    elif frame_type == FrameType.SUBSCRIBED:
        app_ids = _read_app_ids(reader)
        batch_enabled = _read_capability(reader)
        frame = SubscribeResponse(
            app_ids,
            batch_enabled=batch_enabled,
            shard_filtered=_read_capability(reader),
        )
    elif frame_type == FrameType.INVALIDATE:
        frame = InvalidationPush(_read_envelope(reader, UpdateEnvelope))
    elif frame_type == FrameType.INVALIDATE_BATCH:
        count = reader.u32()
        if count == 0 or count > MAX_BATCH_ENTRIES:
            raise WireError(f"implausible batch entry count {count}")
        frame = InvalidationBatch(
            tuple(
                (reader.opt_text(), _read_envelope(reader, UpdateEnvelope))
                for _ in range(count)
            )
        )
    elif frame_type == FrameType.ERROR:
        code_id = reader.u8()
        try:
            code = ErrorCode(code_id)
        except ValueError:
            raise WireError(f"unknown error code {code_id}") from None
        frame = ErrorResponse(code, reader.text())
    elif frame_type == FrameType.STATS:
        frame = StatsRequest()
    elif frame_type == FrameType.STATS_RESULT:
        node_id = reader.text()
        payload = reader.text()
        try:
            json.loads(payload)
        except ValueError as error:
            raise WireError(f"stats payload is not JSON: {error}") from error
        frame = StatsResponse(node_id, payload)
    else:
        raise WireError(f"unknown frame type {frame_type}")
    reader.done()
    return frame


def _encode_request_id(request_id: str | None) -> bytes:
    if request_id is None:
        return b""
    encoded = request_id.encode()
    if len(encoded) > MAX_REQUEST_ID_BYTES:
        raise WireError(
            f"request id of {len(encoded)} bytes exceeds "
            f"limit {MAX_REQUEST_ID_BYTES}"
        )
    return encoded


def _decode_request_id(raw: bytes) -> str | None:
    return _utf8(raw, "request id") if raw else None


def encode_frame(
    frame: Frame,
    *,
    request_id: str | None = None,
    max_frame: int = MAX_FRAME_BYTES,
) -> bytes:
    """Serialize one frame, header (and optional request id) included."""
    writer = _Writer()
    frame_type = _write_payload(writer, frame)
    payload = writer.getvalue()
    if len(payload) > max_frame:
        raise WireError(
            f"frame payload of {len(payload)} bytes exceeds limit {max_frame}"
        )
    rid = _encode_request_id(request_id)
    header = _HEADER.pack(MAGIC, VERSION, frame_type, len(rid), len(payload))
    return header + rid + payload


def _check_header(header: bytes, *, max_frame: int) -> tuple[int, int, int]:
    magic, version, frame_type, rid_length, length = _HEADER.unpack(header)
    if magic != MAGIC:
        raise WireError(f"bad magic {magic!r}")
    if version != VERSION:
        raise WireError(f"unsupported protocol version {version}")
    if rid_length > MAX_REQUEST_ID_BYTES:
        raise WireError(
            f"request id of {rid_length} bytes exceeds "
            f"limit {MAX_REQUEST_ID_BYTES}"
        )
    if length > max_frame:
        raise WireError(f"frame of {length} bytes exceeds limit {max_frame}")
    return frame_type, rid_length, length


def decode_traced(
    data: bytes, *, max_frame: int = MAX_FRAME_BYTES
) -> tuple[Frame, str | None]:
    """Inverse of :func:`encode_frame`: ``(frame, request_id)``.

    Raises:
        WireError: on any protocol violation, including partial frames and
            trailing bytes.
    """
    if len(data) < HEADER_SIZE:
        raise WireError(
            f"truncated header: {len(data)} of {HEADER_SIZE} bytes"
        )
    frame_type, rid_length, length = _check_header(
        data[:HEADER_SIZE], max_frame=max_frame
    )
    body = data[HEADER_SIZE:]
    if len(body) != rid_length + length:
        raise WireError(
            f"frame length mismatch: header says {rid_length}+{length}, "
            f"have {len(body)}"
        )
    request_id = _decode_request_id(body[:rid_length])
    return _decode_payload(frame_type, body[rid_length:]), request_id


def decode_frame(data: bytes, *, max_frame: int = MAX_FRAME_BYTES) -> Frame:
    """:func:`decode_traced` for callers that ignore the request id."""
    return decode_traced(data, max_frame=max_frame)[0]


def peek_raw(data: bytes) -> tuple[int, str | None]:
    """``(frame_type, request_id)`` of a raw frame without decoding it.

    The chaos proxy keys its fault decisions on the frame type and logs
    the trace id of the frame it mutates; neither requires (or should
    risk) running the payload codecs.  The header must already have been
    validated by :func:`read_raw_frame`.
    """
    rid_length = data[4]
    return data[3], _decode_request_id(
        data[HEADER_SIZE : HEADER_SIZE + rid_length]
    )


# -- asyncio stream helpers ------------------------------------------------------


async def read_raw_frame(
    reader: asyncio.StreamReader, *, max_frame: int = MAX_FRAME_BYTES
) -> bytes | None:
    """Read one frame's exact bytes (header included); ``None`` on EOF.

    Only the header is validated — the payload is passed through opaque,
    which is what a frame-delimiting proxy needs: it must forward sealed
    payloads untouched, not decode them.

    Raises:
        WireError: on EOF mid-frame or a malformed header.
    """
    try:
        header = await reader.readexactly(HEADER_SIZE)
    except asyncio.IncompleteReadError as error:
        if not error.partial:
            return None
        raise WireError(
            f"connection closed mid-header ({len(error.partial)} bytes)"
        ) from error
    _, rid_length, length = _check_header(header, max_frame=max_frame)
    try:
        body = await reader.readexactly(rid_length + length)
    except asyncio.IncompleteReadError as error:
        raise WireError(
            f"connection closed mid-frame ({len(error.partial)} of "
            f"{rid_length + length} body bytes)"
        ) from error
    return header + body


async def read_traced(
    reader: asyncio.StreamReader,
    *,
    max_frame: int = MAX_FRAME_BYTES,
    observer=None,
) -> tuple[Frame, str | None] | None:
    """Read one frame + request id; ``None`` on clean EOF between frames.

    ``observer(raw_bytes)``, if given, sees the exact bytes that crossed
    the wire — used by tests to assert what a network observer could learn.

    Raises:
        WireError: on EOF mid-frame, oversized frames, or codec failures.
    """
    raw = await read_raw_frame(reader, max_frame=max_frame)
    if raw is None:
        return None
    if observer is not None:
        observer(raw)
    frame_type, request_id = peek_raw(raw)
    payload = raw[HEADER_SIZE + raw[4] :]  # raw[4] is the rid length
    return _decode_payload(frame_type, payload), request_id


async def read_frame(
    reader: asyncio.StreamReader,
    *,
    max_frame: int = MAX_FRAME_BYTES,
    observer=None,
) -> Frame | None:
    """:func:`read_traced` for callers that ignore the request id."""
    traced = await read_traced(reader, max_frame=max_frame, observer=observer)
    return None if traced is None else traced[0]


async def write_frame(
    writer: asyncio.StreamWriter,
    frame: Frame,
    *,
    request_id: str | None = None,
    max_frame: int = MAX_FRAME_BYTES,
    observer=None,
) -> None:
    """Serialize and send one frame, waiting for the transport to drain."""
    data = encode_frame(frame, request_id=request_id, max_frame=max_frame)
    if observer is not None:
        observer(data)
    writer.write(data)
    await writer.drain()

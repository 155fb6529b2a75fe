"""Property tests: hostile bytes never hang or crash the wire decoder.

The chaos proxy truncates and garbles frames on purpose, so the decoder's
failure contract is load-bearing: for *any* byte string it must either
produce a frame or raise :class:`~repro.errors.WireError` — no other
exception type, no hang.  The async readers must likewise terminate on any
input followed by EOF (clean ``None``, a frame, or ``WireError``).
"""

from __future__ import annotations

import asyncio

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis.exposure import ExposureLevel
from repro.crypto.envelope import QueryEnvelope, ResultEnvelope, UpdateEnvelope
from repro.errors import WireError
from repro.net import wire

SAMPLE_FRAMES = [
    wire.QueryRequest(
        QueryEnvelope(
            app_id="toystore", level=ExposureLevel.BLIND, cache_key="k1"
        )
    ),
    wire.UpdateRequest(
        UpdateEnvelope(
            app_id="toystore", level=ExposureLevel.BLIND, opaque_id="u1"
        ),
        origin="dssp-0",
    ),
    wire.QueryRequest(
        QueryEnvelope(
            app_id="toystore",
            level=ExposureLevel.STMT,
            cache_key="k2",
            template_name="Q1",
            params=("toy5", 7, -1.5, None),
        )
    ),
    wire.InvalidationBatch(
        (
            (
                "rid-u",
                UpdateEnvelope(
                    app_id="toystore",
                    level=ExposureLevel.STMT,
                    opaque_id="u2",
                    template_name="U1",
                    params=(5,),
                ),
            ),
        )
    ),
    wire.SubscribeRequest("dssp-1", ("toystore", "bboard")),
    wire.QueryResponse(
        ResultEnvelope(app_id="toystore", ciphertext=b"sealed"),
        cache_hit=True,
    ),
    wire.UpdateResponse(rows_affected=3, invalidated=2),
    wire.ErrorResponse(wire.ErrorCode.OVERLOADED, "shed"),
    wire.StatsResponse("dssp-0", '{"hits": 1}'),
]

ENCODED = [
    wire.encode_frame(frame, request_id=f"rid-{i}")
    for i, frame in enumerate(SAMPLE_FRAMES)
]


def decode_or_wire_error(data: bytes) -> None:
    """The decoder's whole contract: a Frame or a WireError, nothing else."""
    try:
        frame, _ = wire.decode_traced(data)
    except WireError:
        return
    assert frame is not None


@settings(max_examples=300, deadline=None)
@given(st.binary(max_size=2048))
def test_arbitrary_bytes_decode_or_raise_wire_error(data):
    decode_or_wire_error(data)


@settings(max_examples=200, deadline=None)
@given(
    st.integers(min_value=0, max_value=len(ENCODED) - 1),
    st.data(),
)
def test_bit_flipped_valid_frame_never_escapes_typed_errors(which, data):
    original = ENCODED[which]
    position = data.draw(
        st.integers(min_value=0, max_value=len(original) - 1)
    )
    bit = data.draw(st.integers(min_value=0, max_value=7))
    mutated = bytearray(original)
    mutated[position] ^= 1 << bit
    decode_or_wire_error(bytes(mutated))


@settings(max_examples=200, deadline=None)
@given(
    st.integers(min_value=0, max_value=len(ENCODED) - 1),
    st.data(),
)
def test_any_strict_prefix_raises_wire_error(which, data):
    original = ENCODED[which]
    cut = data.draw(st.integers(min_value=0, max_value=len(original) - 1))
    try:
        wire.decode_traced(original[:cut])
    except WireError:
        return
    raise AssertionError("truncated frame decoded successfully")


async def _feed_and_read(data: bytes, read):
    """Read frames from ``data`` + EOF; must terminate within the timeout."""
    reader = asyncio.StreamReader()
    reader.feed_data(data)
    reader.feed_eof()
    try:
        while True:
            got = await asyncio.wait_for(read(reader), timeout=2.0)
            if got is None:  # clean EOF between frames
                return
    except WireError:
        return


@settings(max_examples=150, deadline=None)
@given(st.binary(max_size=2048))
def test_read_traced_terminates_on_arbitrary_bytes(data):
    asyncio.run(_feed_and_read(data, wire.read_traced))


@settings(max_examples=150, deadline=None)
@given(st.binary(max_size=2048))
def test_read_raw_frame_terminates_on_arbitrary_bytes(data):
    asyncio.run(_feed_and_read(data, wire.read_raw_frame))


@settings(max_examples=100, deadline=None)
@given(
    st.integers(min_value=0, max_value=len(ENCODED) - 1),
    st.data(),
)
def test_reader_terminates_on_truncated_stream(which, data):
    """A stream severed mid-frame (the proxy's TRUNCATE fault) must end in
    WireError, not a hang waiting for bytes that will never come."""
    original = ENCODED[which]
    cut = data.draw(st.integers(min_value=1, max_value=len(original) - 1))
    asyncio.run(_feed_and_read(original[:cut], wire.read_traced))


#: Parameter values with no SQL literal: each must fail decode with a
#: WireError (BAD_FRAME) in every envelope-carrying frame type.
NON_SCALAR_PARAMS = [
    (True,), (False, 1), ([1],), ({"a": 1},), (float("nan"),),
    (float("inf"),), (float("-inf"),),
]


def _frames_carrying(params):
    update = UpdateEnvelope(
        app_id="toystore",
        level=ExposureLevel.STMT,
        opaque_id="u",
        template_name="U1",
        params=params,
    )
    yield wire.QueryRequest(
        QueryEnvelope(
            app_id="toystore",
            level=ExposureLevel.STMT,
            cache_key="k",
            template_name="Q2",
            params=params,
        )
    )
    yield wire.UpdateRequest(update, origin="dssp-0")
    yield wire.InvalidationPush(update)
    yield wire.InvalidationBatch((("rid", update),))


def test_non_scalar_params_rejected_in_every_envelope_frame():
    for params in NON_SCALAR_PARAMS:
        for frame in _frames_carrying(params):
            try:
                wire.decode_traced(wire.encode_frame(frame))
            except WireError as error:
                assert "parameters" in str(error)
                continue
            raise AssertionError(f"{frame!r} decoded")


def test_samples_round_trip():
    """Sanity: the corpus frames themselves decode back intact."""
    for index, raw in enumerate(ENCODED):
        frame, request_id = wire.decode_traced(raw)
        assert frame == SAMPLE_FRAMES[index]
        assert request_id == f"rid-{index}"
        frame_type, peeked_rid = wire.peek_raw(raw)
        assert peeked_rid == request_id

"""Envelopes: what the DSSP actually sees at each exposure level.

The home server *seals* statements and results into envelopes according to
the application's exposure policy; the DSSP handles envelopes only.  By
construction an envelope carries plaintext fields **only** for information
its exposure level permits (paper Figure 5):

===========  =====================================  =======================
Level        Query envelope exposes                 Cache key (footnote 3)
===========  =====================================  =======================
blind        nothing                                Enc(statement)
template     template name                          template ‖ Enc(params)
stmt         + parameter values                     statement SQL
view         + plaintext result                     statement SQL
===========  =====================================  =======================

No envelope carries SQL text: the DSSP holds each application's public
template registry, so the name (plus, at ``stmt``, the parameters) already
tells it the statement, which :class:`~repro.dssp.proxy.DsspNode` rebinds.

Update envelopes are identical minus the ``view`` row.  Result envelopes
are plaintext only at ``view``; below that they hold an encrypted payload
that only holders of the application's keyring can open.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

from repro.analysis.exposure import ExposureLevel
from repro.crypto.cipher import decrypt, encrypt
from repro.crypto.keyring import Keyring, Purpose
from repro.errors import CryptoError
from repro.sql.ast import Scalar, Select, Statement
from repro.sql.parser import parse
from repro.storage.rows import ResultSet
from repro.templates.template import BoundQuery, BoundUpdate

__all__ = [
    "EnvelopeCodec",
    "QueryEnvelope",
    "ResultEnvelope",
    "UpdateEnvelope",
    "decode_params",
    "deserialize_result",
    "encode_params",
    "serialize_result",
]


@dataclass(frozen=True)
class QueryEnvelope:
    """A query as it crosses the DSSP, with level-appropriate visibility."""

    app_id: str
    level: ExposureLevel
    cache_key: str
    template_name: str | None = None
    #: Plaintext parameter values, present at ``stmt`` exposure and above.
    params: tuple[Scalar, ...] | None = None
    #: Ciphertexts the home server (key holder) uses to recover the query;
    #: opaque to the DSSP.
    sealed_statement: bytes | None = None
    sealed_params: bytes | None = None

    @property
    def template_visible(self) -> bool:
        """True if the DSSP may use template identity (TIS and up)."""
        return self.template_name is not None

    @property
    def statement_visible(self) -> bool:
        """True if the DSSP may use the bound statement (SIS and up)."""
        return self.params is not None


@dataclass(frozen=True)
class UpdateEnvelope:
    """An update as it crosses the DSSP on its way to the home server."""

    app_id: str
    level: ExposureLevel
    opaque_id: str
    template_name: str | None = None
    #: Plaintext parameter values, present at ``stmt`` exposure.
    params: tuple[Scalar, ...] | None = None
    #: Ciphertexts for the home server; opaque to the DSSP.
    sealed_statement: bytes | None = None
    sealed_params: bytes | None = None

    @property
    def template_visible(self) -> bool:
        """True if the DSSP may use template identity."""
        return self.template_name is not None

    @property
    def statement_visible(self) -> bool:
        """True if the DSSP may use the bound statement."""
        return self.params is not None


@dataclass(frozen=True)
class ResultEnvelope:
    """A query result: plaintext at ``view`` exposure, ciphertext below."""

    app_id: str
    plaintext: ResultSet | None = None
    ciphertext: bytes | None = None

    @property
    def visible(self) -> bool:
        """True if the DSSP may inspect the rows (VIS only)."""
        return self.plaintext is not None


def serialize_result(result: ResultSet) -> bytes:
    """Canonical byte form of a result set (also used on the wire)."""
    payload = {
        "columns": list(result.columns),
        "ordered": result.ordered,
        "rows": [list(row) for row in result.rows],
    }
    return json.dumps(payload, separators=(",", ":")).encode()


def deserialize_result(data: bytes) -> ResultSet:
    """Inverse of :func:`serialize_result`.

    Raises:
        CryptoError: if the payload is not a serialized result set.
    """
    try:
        payload = json.loads(data.decode())
        return ResultSet(
            columns=tuple(payload["columns"]),
            rows=tuple(tuple(row) for row in payload["rows"]),
            ordered=payload["ordered"],
        )
    except (ValueError, KeyError, TypeError, UnicodeDecodeError) as error:
        raise CryptoError(f"malformed result payload: {error}") from error


def encode_params(params: tuple[Scalar, ...]) -> bytes:
    """Canonical byte form of a parameter tuple (sealed at ``template``,
    plaintext on the wire at ``stmt`` and above)."""
    return json.dumps(list(params), separators=(",", ":")).encode()


def _is_scalar(value) -> bool:
    if isinstance(value, float):
        return math.isfinite(value)
    return value is None or type(value) in (str, int)


def decode_params(data: bytes) -> tuple[Scalar, ...]:
    """Inverse of :func:`encode_params`, accepting only SQL scalars.

    Raises:
        CryptoError: unless the payload is a JSON array of strings,
            integers, finite floats and nulls (booleans, nested values,
            NaN and infinities have no SQL literal).
    """
    try:
        payload = json.loads(data.decode())
    except (ValueError, UnicodeDecodeError, RecursionError) as error:
        raise CryptoError(f"malformed parameters: {error}") from error
    if not isinstance(payload, list) or not all(map(_is_scalar, payload)):
        raise CryptoError("parameters are not an array of SQL scalars")
    return tuple(payload)


class EnvelopeCodec:
    """Seals and opens envelopes for one application's keyring.

    Lives at the home server and in the application's trusted client
    library — never at the DSSP.
    """

    #: Entries kept per memo before clearing (envelopes are small; the
    #: working set is the application's live statement population).
    MEMO_LIMIT = 8192

    def __init__(self, keyring: Keyring) -> None:
        self._keyring = keyring
        self._params_key = keyring.key_for(Purpose.PARAMS)
        self._statement_key = keyring.key_for(Purpose.STATEMENT)
        self._result_key = keyring.key_for(Purpose.RESULT)
        # Sealing is deterministic (SIV) and opening inverts it, so both
        # are pure functions of (bound statement, level) / ciphertext —
        # and web workloads re-seal the same popular statements
        # constantly.  BoundQuery/BoundUpdate hash by (template name,
        # params), which keeps lookups cheap, and never compare equal to
        # each other, so one memo serves both.
        self._seal_memo: dict[tuple, QueryEnvelope | UpdateEnvelope] = {}
        self._params_memo: dict[bytes, tuple[Scalar, ...]] = {}
        self._statement_memo: dict[bytes, Statement] = {}

    @property
    def app_id(self) -> str:
        """Application this codec seals for."""
        return self._keyring.app_id

    # -- queries and updates -----------------------------------------------

    def seal_query(self, query: BoundQuery, level: ExposureLevel) -> QueryEnvelope:
        """Produce the DSSP-visible form of a bound query."""
        return self._seal(query, level, QueryEnvelope)

    def seal_update(
        self, update: BoundUpdate, level: ExposureLevel
    ) -> UpdateEnvelope:
        """Produce the DSSP-visible form of a bound update.

        Raises:
            CryptoError: if asked for ``view`` level (updates have none).
        """
        if level is ExposureLevel.VIEW:
            raise CryptoError("update envelopes have no 'view' level")
        return self._seal(update, level, UpdateEnvelope)

    def _seal(self, bound, level: ExposureLevel, kind):
        # ``kind`` takes (app_id, level, cache key or opaque id,
        # template name, ...): query and update envelopes share a layout.
        memo_key = (bound, level)
        sealed = self._seal_memo.get(memo_key)
        if sealed is not None:
            return sealed
        app = self.app_id
        name = bound.template.name
        if level >= ExposureLevel.STMT:
            key = f"{app}|stmt|{bound.sql}"
            sealed = kind(app, level, key, name, params=bound.params)
        elif level is ExposureLevel.TEMPLATE:
            token = self._encrypt_params(bound.params)
            key = f"{app}|tmpl|{name}|{token.hex()}"
            sealed = kind(app, level, key, name, sealed_params=token)
        else:
            token = encrypt(self._statement_key, bound.sql.encode())
            key = f"{app}|blind|{token.hex()}"
            sealed = kind(app, level, key, sealed_statement=token)
        self._remember(self._seal_memo, memo_key, sealed)
        return sealed

    # -- results -----------------------------------------------------------------

    def seal_result(
        self, result: ResultSet, level: ExposureLevel
    ) -> ResultEnvelope:
        """Seal a query result: plaintext only at ``view`` exposure."""
        if level is ExposureLevel.VIEW:
            return ResultEnvelope(app_id=self.app_id, plaintext=result)
        token = encrypt(self._result_key, serialize_result(result))
        return ResultEnvelope(app_id=self.app_id, ciphertext=token)

    def open_result(self, envelope: ResultEnvelope) -> ResultSet:
        """Recover the plaintext result (client side).

        Raises:
            CryptoError: wrong application's codec, or tampered payload.
        """
        if envelope.app_id != self.app_id:
            raise CryptoError(
                f"envelope belongs to {envelope.app_id!r}, "
                f"codec is for {self.app_id!r}"
            )
        if envelope.plaintext is not None:
            return envelope.plaintext
        assert envelope.ciphertext is not None
        return deserialize_result(decrypt(self._result_key, envelope.ciphertext))

    # -- opening (home-server side) --------------------------------------------------

    def open_query(self, envelope: QueryEnvelope, registry) -> Select:
        """Recover the bound SELECT from a query envelope (requires keys).

        Args:
            envelope: As received from the DSSP.
            registry: The application's template registry, which binds
                every template-visible envelope's parameters.

        Raises:
            CryptoError: wrong application or tampered payload.
            TemplateError: unknown template name or wrong parameters.
        """
        return self._open(envelope, registry.query, query=True)

    def open_update(self, envelope: UpdateEnvelope, registry):
        """Recover the bound update statement from an update envelope.

        Raises:
            CryptoError: wrong application or tampered payload.
            TemplateError: unknown template name or wrong parameters.
        """
        return self._open(envelope, registry.update, query=False)

    def _open(self, envelope, template_named, *, query: bool):
        self._check_app(envelope.app_id)
        if envelope.sealed_statement is not None:
            statement = self._open_statement(envelope.sealed_statement)
            if isinstance(statement, Select) is not query:
                kind = "query" if query else "update"
                raise CryptoError(f"sealed {kind} decodes to the wrong kind")
            return statement
        template = template_named(envelope.template_name)
        bound = template.bind(self._params(envelope))
        return bound.select if query else bound.statement

    def _check_app(self, app_id: str) -> None:
        if app_id != self.app_id:
            raise CryptoError(
                f"envelope belongs to {app_id!r}, codec is for {self.app_id!r}"
            )

    # -- helpers ------------------------------------------------------------------

    def _encrypt_params(self, params: tuple) -> bytes:
        return encrypt(self._params_key, encode_params(params))

    def _params(self, envelope: QueryEnvelope | UpdateEnvelope) -> tuple:
        """Plaintext parameters at ``stmt`` and up, decrypted below."""
        if envelope.params is not None:
            return envelope.params
        token = envelope.sealed_params
        if token is None:
            raise CryptoError("envelope carries no parameters")
        params = self._params_memo.get(token)
        if params is None:
            params = decode_params(decrypt(self._params_key, token))
            self._remember(self._params_memo, token, params)
        return params

    def _open_statement(self, token: bytes):
        """Decrypt and parse a blind envelope's sealed statement."""
        statement = self._statement_memo.get(token)
        if statement is None:
            statement = parse(decrypt(self._statement_key, token).decode())
            self._remember(self._statement_memo, token, statement)
        return statement

    def _remember(self, memo: dict, key, value) -> None:
        if len(memo) >= self.MEMO_LIMIT:
            memo.clear()
        memo[key] = value

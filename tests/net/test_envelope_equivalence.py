"""The DSSP sees exactly what it saw when envelopes carried SQL text.

Wire version 2 shipped each bound statement as SQL text and the DSSP
parsed it back; version 3 ships ``(template name, params)`` and the DSSP
rebinds the statement from the tenant's public registry.  For all four
applications × every template × every exposure level this checks:

* cache keys and opaque ids keep the version-2 format byte for byte, so
  hit rates and shard placement cannot move;
* the statement the DSSP rebuilds from a decoded frame equals
  ``parse(to_sql(bound))``, the AST the version-2 wire delivered, and is
  absent wherever version 2 delivered none;
* template-level and blind frames carry no plaintext parameter bytes.
"""

from __future__ import annotations

import json
import random

import pytest

from repro.analysis.exposure import ExposureLevel
from repro.crypto import EnvelopeCodec, Keyring
from repro.crypto.cipher import encrypt
from repro.crypto.envelope import ResultEnvelope
from repro.crypto.keyring import Purpose
from repro.dssp import DsspNode
from repro.dssp.invalidation import InvalidationEngine
from repro.net import wire
from repro.net.wire import InvalidationPush, QueryRequest, UpdateRequest
from repro.sql.ast import Parameter
from repro.sql.formatter import to_sql
from repro.sql.parser import parse
from repro.templates.template import BoundQuery, QueryTemplate
from repro.workloads import APPLICATIONS, toystore_spec

SPECS = {"toystore": toystore_spec, **APPLICATIONS}
UPDATE_LEVELS = (ExposureLevel.BLIND, ExposureLevel.TEMPLATE, ExposureLevel.STMT)
#: Awkward literals for synthetic bindings: quoting, unicode, signs,
#: floats outside repr's positional range, NULL, a big integer.
AWKWARD = (7, "it's ünïcode", -3, 2.5, 1e-07, None, 10**20, -0.125, "")
LIMIT = 5
#: Plaintext markers; none can occur by chance in ciphertext or hex.
MARKER_LIMIT = 987654321


def _limit_index(template) -> int | None:
    limit = getattr(template, "select", None)
    limit = None if limit is None else limit.limit
    return limit.index if isinstance(limit, Parameter) else None


def _synthetic(template, values) -> tuple:
    limit_at = _limit_index(template)
    return tuple(
        LIMIT if index == limit_at else values[index % len(values)]
        for index in range(template.parameter_count)
    )


def _markers(template) -> tuple:
    limit_at = _limit_index(template)
    return tuple(
        MARKER_LIMIT if index == limit_at else f"plain-marker-{index}"
        for index in range(template.parameter_count)
    )


def _instances(spec):
    """Every template of one app, bound to sampled and synthetic params."""
    sampler = spec.instantiate(scale=0.1, seed=1).sampler
    rng = random.Random(1)
    sampled: dict[str, list] = {}
    for _ in range(300):
        for operation in sampler.sample_page(rng):
            bound = operation.bound
            found = sampled.setdefault(bound.template.name, [])
            if len(found) < 3 and bound not in found:
                found.append(bound)
    registry = spec.registry
    for template in (*registry.queries, *registry.updates):
        yield from sampled.get(template.name, [])
        yield template.bind(_synthetic(template, AWKWARD))
        yield template.bind(_synthetic(template, AWKWARD[3:]))


def _sql(bound) -> str:
    return to_sql(bound.select if _is_query(bound) else bound.statement)


def _is_query(bound_or_template) -> bool:
    return isinstance(bound_or_template, (BoundQuery, QueryTemplate))


def _version_2_key(keyring: Keyring, bound, level: ExposureLevel) -> str:
    """The cache key / opaque id the version-2 codec produced."""
    app = keyring.app_id
    sql = _sql(bound)
    if level >= ExposureLevel.STMT:
        return f"{app}|stmt|{sql}"
    if level is ExposureLevel.TEMPLATE:
        params = json.dumps(list(bound.params), separators=(",", ":"))
        token = encrypt(keyring.key_for(Purpose.PARAMS), params.encode())
        return f"{app}|tmpl|{bound.template.name}|{token.hex()}"
    token = encrypt(keyring.key_for(Purpose.STATEMENT), sql.encode())
    return f"{app}|blind|{token.hex()}"


def _over_the_wire(frame):
    return wire.decode_frame(wire.encode_frame(frame))


@pytest.fixture
def spy_updates(monkeypatch):
    """Record the statement each invalidation pass receives."""
    seen: list = []
    original = InvalidationEngine.process_update

    def spy(self, envelope, cache, stats=None, *, statement=None):
        seen.append(statement)
        return original(self, envelope, cache, stats, statement=statement)

    monkeypatch.setattr(InvalidationEngine, "process_update", spy)
    return seen


@pytest.mark.parametrize("app", sorted(SPECS))
def test_keys_and_rebuilt_statements_match_version_2(app, spy_updates):
    spec = SPECS[app]()
    registry = spec.registry
    keyring = Keyring(app, b"e" * 32)
    codec = EnvelopeCodec(keyring)
    node = DsspNode(predicate_index=True)
    # The node's own registry copy, as a deployed DSSP holds: binding it
    # cannot reuse the client side's memoized bound instances.
    node.register_remote(app, SPECS[app]().registry)
    covered = set()
    for bound in _instances(spec):
        covered.add(bound.template.name)
        is_query = _is_query(bound)
        delivered = parse(_sql(bound))
        for level in ExposureLevel if is_query else UPDATE_LEVELS:
            key = _version_2_key(keyring, bound, level)
            if is_query:
                envelope = _over_the_wire(
                    QueryRequest(codec.seal_query(bound, level))
                ).envelope
                assert envelope.cache_key == key
                node.admit(envelope, ResultEnvelope(app, ciphertext=b"r"))
                rebuilt = node.cache.get(key).statement
            else:
                envelope = _over_the_wire(
                    UpdateRequest(codec.seal_update(bound, level), origin="n")
                ).envelope
                assert envelope.opaque_id == key
                node.invalidate_for(envelope)
                rebuilt = spy_updates[-1]
            visible = level >= ExposureLevel.TEMPLATE
            assert envelope.template_name == (
                bound.template.name if visible else None
            )
            if level >= ExposureLevel.STMT:
                # repr, not ==: Literal(5) == Literal(5.0) in Python.
                assert repr(rebuilt) == repr(delivered)
            else:
                assert rebuilt is None
    assert covered == {t.name for t in (*registry.queries, *registry.updates)}


@pytest.mark.parametrize("app", sorted(SPECS))
def test_sealed_frames_carry_no_plaintext_parameters(app):
    registry = SPECS[app]().registry
    codec = EnvelopeCodec(Keyring(app, b"e" * 32))
    for template in (*registry.queries, *registry.updates):
        bound = template.bind(_markers(template))
        is_query = _is_query(template)
        plaintext = [str(value).encode() for value in bound.params]
        for level in ExposureLevel if is_query else UPDATE_LEVELS:
            if is_query:
                frame = QueryRequest(codec.seal_query(bound, level))
            else:
                frame = InvalidationPush(codec.seal_update(bound, level))
            raw = wire.encode_frame(frame)
            leaked = [value for value in plaintext if value in raw]
            if level >= ExposureLevel.STMT:
                assert leaked == plaintext  # the check can see them
            else:
                assert leaked == [], (template.name, level)

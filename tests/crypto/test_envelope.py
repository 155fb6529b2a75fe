"""Tests for envelopes: what the DSSP sees at each exposure level."""

import pytest

from repro.analysis.exposure import ExposureLevel
from repro.crypto import EnvelopeCodec, Keyring
from repro.errors import CryptoError
from repro.storage.rows import ResultSet


@pytest.fixture
def codec():
    return EnvelopeCodec(Keyring("toystore", b"k" * 32))


@pytest.fixture
def other_codec():
    return EnvelopeCodec(Keyring("other-app", b"o" * 32))


@pytest.fixture
def bound_query(simple_toystore):
    return simple_toystore.query("Q2").bind([5])


@pytest.fixture
def bound_update(simple_toystore):
    return simple_toystore.update("U1").bind([5])


class TestQueryEnvelopes:
    def test_view_level_exposes_statement(self, codec, bound_query):
        env = codec.seal_query(bound_query, ExposureLevel.VIEW)
        assert env.statement_visible
        assert env.template_visible
        assert env.template_name == "Q2"
        assert env.params == (5,)
        assert env.cache_key == "toystore|stmt|SELECT qty FROM toys WHERE toy_id = 5"

    def test_stmt_level_exposes_statement(self, codec, bound_query):
        env = codec.seal_query(bound_query, ExposureLevel.STMT)
        assert env.statement_visible
        assert env.cache_key.startswith("toystore|stmt|")

    def test_template_level_hides_parameters(self, codec, bound_query):
        env = codec.seal_query(bound_query, ExposureLevel.TEMPLATE)
        assert env.template_visible
        assert not env.statement_visible
        assert env.params is None
        assert env.sealed_params is not None
        assert env.cache_key.startswith("toystore|tmpl|Q2|")
        assert env.template_name == "Q2"

    def test_blind_level_hides_everything(self, codec, bound_query):
        env = codec.seal_query(bound_query, ExposureLevel.BLIND)
        assert not env.template_visible
        assert not env.statement_visible
        assert env.template_name is None
        assert env.params is None
        assert env.sealed_params is None

    def test_cache_keys_deterministic(self, codec, bound_query):
        for level in ExposureLevel:
            a = codec.seal_query(bound_query, level)
            b = codec.seal_query(bound_query, level)
            assert a.cache_key == b.cache_key

    def test_cache_keys_distinguish_parameters(self, codec, simple_toystore):
        q = simple_toystore.query("Q2")
        for level in ExposureLevel:
            a = codec.seal_query(q.bind([5]), level)
            b = codec.seal_query(q.bind([7]), level)
            assert a.cache_key != b.cache_key

    def test_cache_keys_scoped_by_app(
        self, codec, other_codec, bound_query
    ):
        a = codec.seal_query(bound_query, ExposureLevel.STMT)
        b = other_codec.seal_query(bound_query, ExposureLevel.STMT)
        assert a.cache_key != b.cache_key


class TestOpenQuery:
    @pytest.mark.parametrize(
        "level",
        [
            ExposureLevel.BLIND,
            ExposureLevel.TEMPLATE,
            ExposureLevel.STMT,
            ExposureLevel.VIEW,
        ],
    )
    def test_open_recovers_statement(
        self, codec, simple_toystore, bound_query, level
    ):
        env = codec.seal_query(bound_query, level)
        recovered = codec.open_query(env, simple_toystore)
        assert recovered == bound_query.select

    def test_wrong_codec_cannot_open(
        self, codec, other_codec, simple_toystore, bound_query
    ):
        env = codec.seal_query(bound_query, ExposureLevel.BLIND)
        with pytest.raises(CryptoError):
            other_codec.open_query(env, simple_toystore)


class TestUpdateEnvelopes:
    @pytest.mark.parametrize(
        "level",
        [ExposureLevel.BLIND, ExposureLevel.TEMPLATE, ExposureLevel.STMT],
    )
    def test_open_recovers_update(
        self, codec, simple_toystore, bound_update, level
    ):
        env = codec.seal_update(bound_update, level)
        recovered = codec.open_update(env, simple_toystore)
        assert recovered == bound_update.statement

    def test_view_level_rejected_for_updates(self, codec, bound_update):
        with pytest.raises(CryptoError):
            codec.seal_update(bound_update, ExposureLevel.VIEW)

    def test_template_level_hides_parameters(self, codec, bound_update):
        env = codec.seal_update(bound_update, ExposureLevel.TEMPLATE)
        assert env.template_visible
        assert not env.statement_visible


class TestResultEnvelopes:
    @pytest.fixture
    def result(self):
        return ResultSet(("qty",), ((10,), (None,), (3,)), ordered=True)

    def test_view_level_plaintext(self, codec, result):
        env = codec.seal_result(result, ExposureLevel.VIEW)
        assert env.visible
        assert env.plaintext is result

    @pytest.mark.parametrize(
        "level",
        [ExposureLevel.BLIND, ExposureLevel.TEMPLATE, ExposureLevel.STMT],
    )
    def test_below_view_is_ciphertext(self, codec, result, level):
        env = codec.seal_result(result, level)
        assert not env.visible
        assert env.ciphertext is not None

    @pytest.mark.parametrize(
        "level",
        [
            ExposureLevel.BLIND,
            ExposureLevel.TEMPLATE,
            ExposureLevel.STMT,
            ExposureLevel.VIEW,
        ],
    )
    def test_open_round_trips(self, codec, result, level):
        env = codec.seal_result(result, level)
        opened = codec.open_result(env)
        assert opened.equivalent(result)
        assert opened.columns == result.columns

    def test_other_app_cannot_open(self, codec, other_codec, result):
        env = codec.seal_result(result, ExposureLevel.STMT)
        with pytest.raises(CryptoError):
            other_codec.open_result(env)

    def test_serialization_preserves_types(self, codec):
        result = ResultSet(("a", "b", "c"), ((1, 1.5, "x"), (None, 2.0, "y''z")))
        opened = codec.open_result(codec.seal_result(result, ExposureLevel.BLIND))
        assert opened.rows == result.rows

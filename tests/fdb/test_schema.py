"""Key schema: validation and the msk/lsk split."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.fdb.key import FieldKey
from repro.fdb.schema import DEFAULT_SCHEMA, KeySchema, SchemaError


def full_key():
    return FieldKey(
        {
            "class": "od", "stream": "oper", "expver": "0001",
            "date": "20201224", "time": "12", "type": "fc",
            "levtype": "pl", "levelist": "500", "param": "t", "step": "6",
        }
    )


def test_default_schema_validates_full_key():
    DEFAULT_SCHEMA.validate(full_key())


def test_missing_component_rejected():
    key = FieldKey({"class": "od"})
    with pytest.raises(SchemaError, match="lacks components"):
        DEFAULT_SCHEMA.validate(key)


def test_unknown_component_rejected():
    key = full_key().merged({"bogus": "1"})
    with pytest.raises(SchemaError, match="unknown components"):
        DEFAULT_SCHEMA.validate(key)


def test_msk_lsk_split():
    key = full_key()
    msk = DEFAULT_SCHEMA.msk(key)
    lsk = DEFAULT_SCHEMA.lsk(key)
    assert set(msk) == {"class", "stream", "expver", "date", "time"}
    assert set(lsk) == {"type", "levtype", "levelist", "param", "step"}
    assert msk.merged(lsk) == key


def test_schema_construction_validation():
    with pytest.raises(ValueError):
        KeySchema(most_significant=(), least_significant=("a",))
    with pytest.raises(ValueError, match="both levels"):
        KeySchema(most_significant=("a", "b"), least_significant=("b",))


def test_custom_schema():
    schema = KeySchema(most_significant=("run",), least_significant=("var",))
    key = FieldKey({"run": "1", "var": "t"})
    schema.validate(key)
    assert schema.msk(key) == FieldKey({"run": "1"})
    assert schema.all_components == ("run", "var")


# -- fast path vs the comprehension path ----------------------------------------------


def _reference_validate(schema, key):
    """The comprehension-only validation: the error-message oracle."""
    missing = [c for c in schema.all_components if c not in dict(key)]
    if missing:
        raise SchemaError(f"field key {key.canonical()!r} lacks components {missing}")
    extra = [c for c in dict(key) if c not in schema.all_components]
    if extra:
        raise SchemaError(
            f"field key {key.canonical()!r} has unknown components {extra}"
        )


_NAMES = list(DEFAULT_SCHEMA.all_components) + ["bogus", "zz"]


@given(names=st.sets(st.sampled_from(_NAMES), min_size=1))
@settings(max_examples=120, deadline=None)
def test_validate_matches_the_comprehension_oracle(names):
    key = FieldKey({name: "v" for name in names})
    try:
        _reference_validate(DEFAULT_SCHEMA, key)
    except SchemaError as error:
        for check in (DEFAULT_SCHEMA.validate, DEFAULT_SCHEMA.split):
            with pytest.raises(SchemaError) as caught:
                check(key)
            assert str(caught.value) == str(error)
    else:
        DEFAULT_SCHEMA.validate(key)
        msk, lsk = DEFAULT_SCHEMA.split(key)
        assert msk == key.subset(DEFAULT_SCHEMA.most_significant)
        assert lsk == key.subset(DEFAULT_SCHEMA.least_significant)
        assert msk.encode() == key.subset(DEFAULT_SCHEMA.most_significant).encode()


def test_split_is_memoised_on_the_key_per_schema_identity():
    key = full_key()
    msk, lsk = DEFAULT_SCHEMA.split(key)
    assert DEFAULT_SCHEMA.split(key) == (msk, lsk)
    assert DEFAULT_SCHEMA.split(key)[0] is msk and DEFAULT_SCHEMA.split(key)[1] is lsk
    assert DEFAULT_SCHEMA.msk(key) is msk and DEFAULT_SCHEMA.lsk(key) is lsk
    DEFAULT_SCHEMA.validate(key)

    # A key that passed schema A must still fail schema B ...
    narrow = KeySchema(most_significant=("class",), least_significant=("param",))
    with pytest.raises(SchemaError, match="unknown components"):
        narrow.validate(key)
    with pytest.raises(SchemaError, match="unknown components"):
        narrow.split(key)
    # ... and the failure leaves schema A's answer intact.
    assert DEFAULT_SCHEMA.split(key)[0] is msk

    # An equal twin is a different identity: it re-derives equal sub-keys.
    twin = KeySchema(DEFAULT_SCHEMA.most_significant, DEFAULT_SCHEMA.least_significant)
    assert twin == DEFAULT_SCHEMA and hash(twin) == hash(DEFAULT_SCHEMA)
    assert twin.split(key) == (msk, lsk)
    assert DEFAULT_SCHEMA.split(key) == (msk, lsk)


def test_msk_lsk_without_a_split_still_only_need_their_own_components():
    key = FieldKey({"class": "od", "stream": "oper", "expver": "1", "date": "d", "time": "t"})
    assert DEFAULT_SCHEMA.msk(key) == key
    with pytest.raises(KeyError):
        DEFAULT_SCHEMA.lsk(key)

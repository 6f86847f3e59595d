"""FieldKey: canonical encoding, round trips, container UUID derivation."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.fdb.key import FieldKey

component = st.text(
    alphabet=st.characters(whitelist_categories=("Ll", "Lu", "Nd")),
    min_size=1,
    max_size=8,
)


def test_construction_sorts_components():
    key = FieldKey({"b": "2", "a": "1"})
    assert list(key) == ["a", "b"]
    assert key.canonical() == "a=1,b=2"


def test_mapping_protocol():
    key = FieldKey({"class": "od", "date": "20201224"})
    assert key["class"] == "od"
    assert len(key) == 2
    assert "date" in key
    assert "step" not in key and 7 not in key
    assert key.keys() == {"class", "date"}
    assert list(key.keys()) == ["class", "date"]
    assert dict(key) == {"class": "od", "date": "20201224"}


def test_equality_and_hash():
    a = FieldKey({"x": "1", "y": "2"})
    b = FieldKey({"y": "2", "x": "1"})
    assert a == b
    assert hash(a) == hash(b)
    assert a == {"x": "1", "y": "2"}
    assert a != FieldKey({"x": "1"})


def test_validation():
    with pytest.raises(ValueError):
        FieldKey({"": "v"})
    with pytest.raises(ValueError):
        FieldKey({"k": ""})
    with pytest.raises(ValueError):
        FieldKey({"k=x": "v"})
    with pytest.raises(ValueError):
        FieldKey({"k": "a,b"})
    with pytest.raises(ValueError):
        FieldKey({"k": 5})


def test_subset_and_merged():
    key = FieldKey({"a": "1", "b": "2", "c": "3"})
    assert key.subset(["a", "c"]) == FieldKey({"a": "1", "c": "3"})
    with pytest.raises(KeyError):
        key.subset(["a", "z"])
    merged = key.merged({"d": "4", "a": "9"})
    assert merged["d"] == "4" and merged["a"] == "9"
    assert key["a"] == "1"  # original untouched


def test_derived_keys_are_canonical_without_revalidation():
    """subset()/merged() skip the constructor; results must match it."""
    key = FieldKey({"b": "2", "d": "4", "a": "1"})
    sub = key.subset(("d", "a"))  # unsorted names
    assert list(sub) == ["a", "d"]
    assert sub.encode() == FieldKey({"a": "1", "d": "4"}).encode()
    assert hash(sub) == hash(FieldKey({"d": "4", "a": "1"}))
    merged = key.merged({"c": "3", "a": "9"})  # one new name, one override
    assert list(merged) == ["a", "b", "c", "d"]
    assert merged == FieldKey({"a": "9", "b": "2", "c": "3", "d": "4"})
    assert hash(merged) == hash(FieldKey(dict(merged)))
    assert key.merged(FieldKey({"b": "7"})).canonical() == "a=1,b=7,d=4"
    # Outside input to merged() is still validated.
    with pytest.raises(ValueError):
        key.merged({"e": "x,y"})
    with pytest.raises(ValueError):
        key.merged({"e": 5})


def test_hash_and_encoding_are_stable_across_calls():
    key = FieldKey({"class": "od", "date": "20201224"})
    assert hash(key) == hash(key)
    assert key.encode() is key.encode()  # cached canonical bytes
    assert key.encode() == b"class=od,date=20201224"


def test_encode_decode_roundtrip():
    key = FieldKey({"class": "od", "date": "20201224", "param": "t"})
    assert FieldKey.decode(key.encode()) == key


def test_decode_malformed():
    with pytest.raises(ValueError):
        FieldKey.decode(b"")
    with pytest.raises(ValueError):
        FieldKey.decode(b"novalue")


def test_md5_is_stable_and_order_independent():
    a = FieldKey({"x": "1", "y": "2"}).md5()
    b = FieldKey({"y": "2", "x": "1"}).md5()
    assert a == b
    assert len(a) == 16


def test_container_uuid_roles_differ():
    key = FieldKey({"class": "od", "date": "20201224"})
    index_uuid = key.container_uuid("index")
    store_uuid = key.container_uuid("store")
    assert index_uuid != store_uuid
    # Stable across processes (md5-derived, §4).
    assert index_uuid == FieldKey({"date": "20201224", "class": "od"}).container_uuid("index")


@given(pairs=st.dictionaries(component, component, min_size=1, max_size=6))
@settings(max_examples=80, deadline=None)
def test_roundtrip_property(pairs):
    key = FieldKey(pairs)
    assert FieldKey.decode(key.encode()) == key
    assert key.canonical() == FieldKey(dict(reversed(list(pairs.items())))).canonical()


def test_pickle_and_copy_carry_the_value_not_the_memos():
    import copy
    import os
    import pickle
    import subprocess
    import sys

    from repro.fdb.request import Request
    from repro.fdb.schema import KeySchema

    schema = KeySchema(most_significant=("a",), least_significant=("b",))
    key = FieldKey({"a": "1", "b": "2"})
    request = Request({"a": "1", "b": ("2", "3")})
    # Fill every memo slot before copying.
    hash(key), key.encode(), schema.split(key), hash(request), request.expand(schema)
    for clone in (pickle.loads(pickle.dumps(key)), copy.deepcopy(key)):
        assert clone == key and hash(clone) == hash(key)
        assert clone.encode() == key.encode()
        assert schema.split(clone) == schema.split(key)
    assert pickle.loads(pickle.dumps(request)) == request

    # str hashes are seeded per interpreter: a worker that unpickles a key
    # must hash it afresh, or dict lookups there silently miss.
    probe = (
        "import pickle, sys\n"
        "from repro.fdb.key import FieldKey\n"
        "from repro.fdb.request import Request\n"
        "key, request = pickle.loads(sys.stdin.buffer.read())\n"
        "assert key in {FieldKey({'a': '1', 'b': '2'})}\n"
        "assert request in {Request({'a': '1', 'b': ('2', '3')})}\n"
    )
    env = dict(os.environ, PYTHONHASHSEED="12345", PYTHONPATH=os.pathsep.join(sys.path))
    done = subprocess.run(
        [sys.executable, "-c", probe], input=pickle.dumps((key, request)),
        env=env, capture_output=True, timeout=60,
    )
    assert done.returncode == 0, done.stderr.decode()

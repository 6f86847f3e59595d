"""MARS-style request expansion."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.fdb.key import FieldKey
from repro.fdb.request import Request
from repro.fdb.schema import DEFAULT_SCHEMA, KeySchema, SchemaError


def full_spec(**overrides):
    spec = {
        "class": "od", "stream": "oper", "expver": "0001",
        "date": "20201224", "time": "12", "type": "fc",
        "levtype": "pl", "levelist": "500", "param": "t", "step": "6",
    }
    spec.update(overrides)
    return spec


def test_single_valued_request_expands_to_one_key():
    request = Request(full_spec())
    keys = request.expand()
    assert len(keys) == request.n_fields == 1
    assert keys[0]["param"] == "t"


def test_cartesian_expansion():
    request = Request(full_spec(param=("t", "u"), step=("0", "6", "12")))
    keys = request.expand()
    assert len(keys) == request.n_fields == 6
    assert {(k["param"], k["step"]) for k in keys} == {
        ("t", "0"), ("t", "6"), ("t", "12"), ("u", "0"), ("u", "6"), ("u", "12"),
    }


def test_expansion_is_deterministic():
    request = Request(full_spec(param=("u", "t")))
    assert [k.canonical() for k in request.expand()] == [
        k.canonical() for k in Request(full_spec(param=("u", "t"))).expand()
    ]


def test_expansion_validates_schema():
    with pytest.raises(SchemaError):
        Request({"param": "t"}).expand(DEFAULT_SCHEMA)


def test_parse_shorthand():
    request = Request.parse("param=t/u, step=0/6")
    assert request.components() == {"param": ("t", "u"), "step": ("0", "6")}
    assert request == Request({"param": ("t", "u"), "step": ("0", "6")})


def test_parse_errors():
    with pytest.raises(ValueError):
        Request.parse("")
    with pytest.raises(ValueError):
        Request.parse("novalue")
    with pytest.raises(ValueError):
        Request.parse("=x")


def test_validation():
    with pytest.raises(ValueError):
        Request({})
    with pytest.raises(ValueError):
        Request({"param": ()})
    with pytest.raises(ValueError):
        Request({"param": ("t", "t")})


@given(
    n_params=st.integers(min_value=1, max_value=4),
    n_steps=st.integers(min_value=1, max_value=4),
)
@settings(max_examples=20, deadline=None)
def test_n_fields_matches_expansion(n_params, n_steps):
    schema = KeySchema(most_significant=("run",), least_significant=("param", "step"))
    request = Request(
        {
            "run": "1",
            "param": tuple(f"p{i}" for i in range(n_params)),
            "step": tuple(str(i) for i in range(n_steps)),
        }
    )
    assert len(request.expand(schema)) == request.n_fields == n_params * n_steps


# -- value semantics ------------------------------------------------------------


def test_request_hash_is_consistent_with_eq():
    a = Request(full_spec(param=("t", "u")))
    b = Request.parse(
        "class=od,stream=oper,expver=0001,date=20201224,time=12,type=fc,"
        "levtype=pl,levelist=500,param=t/u,step=6"
    )
    assert a == b and hash(a) == hash(b)
    assert len({a, b}) == 1
    # Value order is part of the request (it fixes the expansion order).
    assert Request(full_spec(param=("u", "t"))) not in {a}


def test_bare_scalar_is_one_value():
    request = Request(full_spec(step=6, levelist=500))
    assert request == Request(full_spec(step="6", levelist="500"))
    assert request.components()["step"] == ("6",)
    assert [key["step"] for key in request.expand()] == ["6"]
    # Sequences of scalars keep working as before.
    assert Request(full_spec(step=(0, 6))).components()["step"] == ("0", "6")


# -- memoised expansion vs a from-scratch one --------------------------------------


def _reference_expand(spec, schema):
    """The pre-memo expansion: every key built and validated from scratch."""
    from itertools import product

    normalised = dict(
        sorted(
            (name, (values,) if isinstance(values, str) else tuple(values))
            for name, values in spec.items()
        )
    )
    names = list(normalised)
    keys = [
        FieldKey(dict(zip(names, combo)))
        for combo in product(*(normalised[n] for n in names))
    ]
    for key in keys:
        schema.validate(key)
    return keys


_TINY_SCHEMA = KeySchema(most_significant=("run",), least_significant=("param", "step"))

_values = st.lists(
    st.text(alphabet="abc019", min_size=1, max_size=3), min_size=1, max_size=3, unique=True
)


@given(run=_values, param=_values, step=_values)
@settings(max_examples=60, deadline=None)
def test_memoised_expand_equals_from_scratch_expansion(run, param, step):
    spec = {"step": step, "run": run, "param": param}
    request = Request(spec)
    want = _reference_expand(spec, _TINY_SCHEMA)
    first = request.expand(_TINY_SCHEMA)
    assert first == want
    assert [k.encode() for k in first] == [k.encode() for k in want]
    assert [list(k.items()) for k in first] == [list(k.items()) for k in want]

    # The list is the caller's: emptying or re-ordering it poisons nothing.
    first.reverse()
    first.clear()
    again = request.expand(_TINY_SCHEMA)
    assert again == want
    assert again is not first

    # A second schema re-validates (and fails here); the memo survives it.
    other = KeySchema(most_significant=("run",), least_significant=("param",))
    with pytest.raises(SchemaError) as caught:
        request.expand(other)
    with pytest.raises(SchemaError) as reference:
        _reference_expand(spec, other)
    assert str(caught.value) == str(reference.value)
    assert request.expand(_TINY_SCHEMA) == want

    # An equal-but-distinct schema accepts the same keys.
    twin = KeySchema(most_significant=("run",), least_significant=("param", "step"))
    assert twin is not _TINY_SCHEMA
    assert request.expand(twin) == want


_maybe_bad = st.lists(
    st.sampled_from(["a", "b", "1", "", "x=y", "p,q"]), min_size=1, max_size=3, unique=True
)


@given(run=_maybe_bad, param=_maybe_bad, step=_maybe_bad)
@settings(max_examples=80, deadline=None)
def test_bad_components_raise_what_key_by_key_construction_raises(run, param, step):
    spec = {"run": run, "param": param, "step": step}
    request = Request(spec)  # component checks belong to expand(), as before
    try:
        want = _reference_expand(spec, _TINY_SCHEMA)
    except ValueError as error:
        for _ in range(2):  # a failed expansion leaves no half-built memo
            with pytest.raises(ValueError) as caught:
                request.expand(_TINY_SCHEMA)
            assert str(caught.value) == str(error)
    else:
        assert request.expand(_TINY_SCHEMA) == want


def test_expanded_keys_are_shared_between_calls():
    request = Request(full_spec(step=("0", "6")))
    first, second = request.expand(), request.expand()
    assert first is not second
    assert all(a is b for a, b in zip(first, second))

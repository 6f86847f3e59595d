"""MARS-style retrieval requests.

ECMWF users address data through MARS requests — key names mapped to one or
*several* values (``param=t/u, step=0/6``), denoting the cartesian product
of fields.  :class:`Request` models that: it expands to the list of
:class:`~repro.fdb.key.FieldKey` it covers, which the FDB facade can then
retrieve in bulk.
"""

from __future__ import annotations

from collections.abc import Iterable
from itertools import product
from typing import Dict, List, Mapping, Optional, Sequence, Tuple, Union

from repro.fdb.key import FieldKey, _check_component
from repro.fdb.schema import DEFAULT_SCHEMA, KeySchema

__all__ = ["Request"]

ValueSpec = Union[str, int, Sequence[Union[str, int]]]


class Request:
    """A multi-valued field request: each component maps to >= 1 values.

    Immutable and hashable.  A bare scalar (``{"step": 6}``) is one value.
    """

    __slots__ = ("_spec", "_hash", "_keys", "_schema")

    def __init__(self, spec: Mapping[str, ValueSpec]) -> None:
        if not spec:
            raise ValueError("a request needs at least one component")
        normalised: Dict[str, Tuple[str, ...]] = {}
        for name, values in spec.items():
            if isinstance(values, str) or not isinstance(values, Iterable):
                values = (values,)
            values = tuple(str(v) for v in values)
            if not values:
                raise ValueError(f"component {name!r} has no values")
            if len(set(values)) != len(values):
                raise ValueError(f"component {name!r} has duplicate values")
            normalised[name] = values
        self._spec = dict(sorted(normalised.items()))
        self._hash: Optional[int] = None
        # Filled by the first expand(): the expansion, and the last schema
        # (by identity) that accepted it.
        self._keys: Optional[Tuple[FieldKey, ...]] = None
        self._schema: Optional[KeySchema] = None

    @classmethod
    def parse(cls, text: str) -> "Request":
        """Parse the MARS-ish shorthand ``"param=t/u,step=0/6"``."""
        spec: Dict[str, Tuple[str, ...]] = {}
        for part in text.split(","):
            part = part.strip()
            if not part:
                continue
            name, sep, values = part.partition("=")
            if not sep or not name.strip():
                raise ValueError(f"malformed request component {part!r}")
            spec[name.strip()] = tuple(v.strip() for v in values.split("/"))
        if not spec:
            raise ValueError(f"empty request {text!r}")
        return cls(spec)

    # -- inspection -------------------------------------------------------------
    def components(self) -> Dict[str, Tuple[str, ...]]:
        return dict(self._spec)

    @property
    def n_fields(self) -> int:
        """Number of field keys this request expands to."""
        count = 1
        for values in self._spec.values():
            count *= len(values)
        return count

    # -- expansion -------------------------------------------------------------
    def expand(self, schema: KeySchema = DEFAULT_SCHEMA) -> List[FieldKey]:
        """All field keys in the request, validated against ``schema``.

        Expansion order is deterministic: components sorted by name, values
        in the order given.  The keys are built once per request and shared
        between calls (they are immutable); the list is the caller's own.
        """
        keys = self._keys
        if keys is None:
            keys = self._keys = self._build_keys()
        if self._schema is not schema:
            # Every key carries the same names, so the first one speaks for
            # all -- and is the one a key-by-key pass would have named.
            schema.validate(keys[0])
            self._schema = schema
        return list(keys)

    def _build_keys(self) -> Tuple[FieldKey, ...]:
        names = list(self._spec)
        combos = product(*self._spec.values())
        try:
            for name, values in self._spec.items():
                for value in values:
                    _check_component(name, value)
        except ValueError:
            # Report what a key-by-key construction reports: the first bad
            # component of the first key (in expansion order) that has one.
            for combo in combos:
                FieldKey(zip(names, combo))
            raise
        # ``names`` is sorted and every component just passed the public
        # constructor's checks.
        return tuple(FieldKey._trusted(dict(zip(names, combo))) for combo in combos)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Request):
            return NotImplemented
        return self._spec == other._spec

    def __hash__(self) -> int:
        value = self._hash
        if value is None:
            value = self._hash = hash(tuple(self._spec.items()))
        return value

    def __reduce__(self):
        # Spec only: the cached hash is seeded per interpreter.
        return Request, (self._spec,)

    def __repr__(self) -> str:
        parts = ",".join(f"{k}={'/'.join(v)}" for k, v in self._spec.items())
        return f"Request({parts!r})"

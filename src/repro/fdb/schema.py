"""Key schemas: which components a field key must carry and how it splits.

ECMWF's FDB5 is driven by a schema describing the index hierarchy; here a
:class:`KeySchema` lists the *most-significant* components (identifying a
forecast / model run — first index level) and the *least-significant*
components (identifying a field within the forecast — second index level).
:data:`DEFAULT_SCHEMA` mirrors the MARS-style keys the paper shows
("'class': 'od', 'date': '20201224'", §4 / Fig 1).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import FrozenSet, Optional, Tuple

from repro.fdb.key import FieldKey

__all__ = ["SchemaError", "KeySchema", "DEFAULT_SCHEMA"]


class SchemaError(Exception):
    """A field key does not conform to the schema."""


@dataclass(frozen=True)
class KeySchema:
    """The split of field-key components across the two index levels."""

    most_significant: Tuple[str, ...]
    least_significant: Tuple[str, ...]
    #: ``all_components`` as a set: what a conforming key's names must equal.
    _names: FrozenSet[str] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if not self.most_significant or not self.least_significant:
            raise ValueError("both schema levels need at least one component")
        overlap = set(self.most_significant) & set(self.least_significant)
        if overlap:
            raise ValueError(f"components in both levels: {sorted(overlap)}")
        object.__setattr__(self, "_names", frozenset(self.all_components))

    @property
    def all_components(self) -> Tuple[str, ...]:
        return self.most_significant + self.least_significant

    def _memo(self, key: FieldKey) -> Optional[tuple]:
        """``key``'s memoised ``(schema, msk, lsk)`` if *this* schema made it."""
        split = key._split
        return split if split is not None and split[0] is self else None

    def validate(self, key: FieldKey) -> None:
        """Raise :class:`SchemaError` unless ``key`` has every component."""
        if self._memo(key) is not None or key.keys() == self._names:
            return
        missing = [c for c in self.all_components if c not in key]
        if missing:
            raise SchemaError(
                f"field key {key.canonical()!r} lacks components {missing}"
            )
        extra = [c for c in key if c not in self.all_components]
        if extra:
            raise SchemaError(
                f"field key {key.canonical()!r} has unknown components {extra}"
            )

    def split(self, key: FieldKey) -> Tuple[FieldKey, FieldKey]:
        """Validate ``key`` and return its ``(msk, lsk)`` sub-keys.

        The verdict and both sub-keys are memoised on the key, under this
        schema's *identity*: a key another schema split is validated again.
        Re-used key objects therefore carry their sub-keys' cached hash and
        canonical bytes from one field operation to the next.
        """
        split = self._memo(key)
        if split is None:
            self.validate(key)
            split = key._split = (
                self,
                key.subset(self.most_significant),
                key.subset(self.least_significant),
            )
        return split[1], split[2]

    def msk(self, key: FieldKey) -> FieldKey:
        """The most-significant sub-key (forecast identity)."""
        split = self._memo(key)
        return split[1] if split else key.subset(self.most_significant)

    def lsk(self, key: FieldKey) -> FieldKey:
        """The least-significant sub-key (field within the forecast)."""
        split = self._memo(key)
        return split[2] if split else key.subset(self.least_significant)


#: MARS-flavoured default: class/stream/expver/date/time identify the
#: forecast; type/levtype/levelist/param/step identify the field.
DEFAULT_SCHEMA = KeySchema(
    most_significant=("class", "stream", "expver", "date", "time"),
    least_significant=("type", "levtype", "levelist", "param", "step"),
)

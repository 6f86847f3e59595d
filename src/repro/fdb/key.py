"""Weather field keys.

A field is uniquely identified by a set of key-value pairs (Fig 1 of the
paper), e.g. ``{'class': 'od', 'date': '20201224', 'param': 't', 'step':
'6', ...}``.  The key splits into a *most-significant* part identifying the
forecast (model run) and a *least-significant* part identifying the field
within the forecast; the split drives the two-level index layout of §4.

Keys canonicalise to bytes for KV storage and md5-digest for container-id
derivation; both encodings are order-independent (keys are sorted), so two
processes building the same logical key always converge on identical bytes.
"""

from __future__ import annotations

import hashlib
import uuid as uuid_module
from typing import Dict, Iterable, Iterator, KeysView, Mapping, Tuple

__all__ = ["FieldKey"]


def _check_component(name: object, value: object) -> None:
    """Raise :class:`ValueError` unless ``name=value`` is a legal component."""
    if not isinstance(name, str) or not name:
        raise ValueError(f"key names must be non-empty strings, got {name!r}")
    if not isinstance(value, str) or not value:
        raise ValueError(f"key values must be non-empty strings, got {name}={value!r}")
    if "=" in name or "," in name or "=" in value or "," in value:
        raise ValueError(
            f"'=' and ',' are reserved in key components: {name}={value!r}"
        )


class FieldKey(Mapping[str, str]):
    """An immutable mapping of key names to string values."""

    __slots__ = ("_pairs", "_hash", "_encoded", "_split")

    def __init__(self, pairs: Mapping[str, str] | Iterable[Tuple[str, str]]) -> None:
        items = dict(pairs)
        for name, value in items.items():
            _check_component(name, value)
        self._pairs: Dict[str, str] = dict(sorted(items.items()))
        # Filled on first use: keys are immutable and the per-op path hashes,
        # encodes and splits the same key many times.
        self._hash: int | None = None
        self._encoded: bytes | None = None
        # ``(schema, msk, lsk)`` for the last schema that split this key
        # (:meth:`repro.fdb.schema.KeySchema.split`).
        self._split: tuple | None = None

    @classmethod
    def _trusted(cls, pairs: Dict[str, str]) -> "FieldKey":
        """Wrap ``pairs`` without re-validating or re-sorting them.

        Internal: the caller guarantees every component already passed the
        public constructor's checks and the dict is in sorted-name order
        (as pairs derived from existing keys are).
        """
        key = object.__new__(cls)
        key._pairs = pairs
        key._hash = None
        key._encoded = None
        key._split = None
        return key

    def __reduce__(self):
        # Pairs only: the cached hash is seeded per interpreter and the split
        # memo is keyed by an object identity, so neither may travel.
        return type(self)._trusted, (self._pairs,)

    # -- Mapping interface ------------------------------------------------------
    def __getitem__(self, name: str) -> str:
        return self._pairs[name]

    def __contains__(self, name: object) -> bool:
        return name in self._pairs

    def keys(self) -> KeysView[str]:
        # The dict's own view: set comparisons against it run in C.
        return self._pairs.keys()

    def __iter__(self) -> Iterator[str]:
        return iter(self._pairs)

    def __len__(self) -> int:
        return len(self._pairs)

    def __hash__(self) -> int:
        value = self._hash
        if value is None:
            value = self._hash = hash(tuple(self._pairs.items()))
        return value

    def __eq__(self, other: object) -> bool:
        if isinstance(other, FieldKey):
            return self._pairs == other._pairs
        if isinstance(other, Mapping):
            return self._pairs == dict(other)
        return NotImplemented

    # -- derivation ----------------------------------------------------------------
    def subset(self, names: Iterable[str]) -> "FieldKey":
        """The sub-key holding only ``names`` (all must be present)."""
        wanted = frozenset(names)
        # Filtering the sorted pairs keeps the result canonical.
        pairs = {n: v for n, v in self._pairs.items() if n in wanted}
        if len(pairs) != len(wanted):
            missing = sorted(wanted.difference(pairs))
            raise KeyError(f"key lacks components {missing}; has {sorted(self._pairs)}")
        return self._trusted(pairs)

    def merged(self, other: Mapping[str, str]) -> "FieldKey":
        """A new key with ``other``'s pairs added/overriding."""
        if not isinstance(other, FieldKey):
            other = FieldKey(other)  # outside input: validate it
        combined = dict(self._pairs)
        combined.update(other._pairs)
        if len(combined) != len(self._pairs):  # new names: restore the order
            combined = dict(sorted(combined.items()))
        return self._trusted(combined)

    # -- encodings -------------------------------------------------------------------
    def canonical(self) -> str:
        """Canonical text form: sorted ``name=value`` pairs joined by commas."""
        return ",".join(f"{k}={v}" for k, v in self._pairs.items())

    def encode(self) -> bytes:
        """Canonical bytes for use as a DAOS KV key."""
        encoded = self._encoded
        if encoded is None:
            encoded = self._encoded = self.canonical().encode("utf-8")
        return encoded

    @classmethod
    def decode(cls, data: bytes) -> "FieldKey":
        """Inverse of :meth:`encode`."""
        text = data.decode("utf-8")
        if not text:
            raise ValueError("cannot decode an empty key")
        pairs = []
        for part in text.split(","):
            name, sep, value = part.partition("=")
            if not sep:
                raise ValueError(f"malformed key component {part!r}")
            pairs.append((name, value))
        return cls(pairs)

    def md5(self) -> bytes:
        """md5 digest of the canonical form (container-id derivation, §4)."""
        return hashlib.md5(self.encode()).digest()

    def container_uuid(self, role: str) -> uuid_module.UUID:
        """Deterministic container UUID for this key and a role tag.

        §4: "container IDs computed as md5 sums of the most-significant part
        of the key so that any concurrent processes attempting creation of
        the same pair of containers" converge.  The role tag separates the
        forecast *index* container from the *store* container.
        """
        digest = hashlib.md5(self.encode() + b"/" + role.encode("utf-8")).digest()
        return uuid_module.UUID(bytes=digest)

    def __repr__(self) -> str:
        return f"FieldKey({self.canonical()!r})"

"""Benchmark key streams (§5.2–5.3).

The Field I/O benchmark's contention knob is entirely a property of the keys
the processes use:

* **low contention** — each process writes/reads fields of *its own*
  forecast (its own index KV and, in full mode, its own containers);
* **high contention** — every process shares one forecast, so all index
  traffic funnels through a single shared forecast index KV.

Keys are unique per (rank, op) in both cases — processes never write the
same *field*, only (in high contention) the same *index object*.
"""

from __future__ import annotations

from functools import lru_cache
from typing import List, Tuple

from repro.fdb.key import FieldKey
from repro.fdb.request import Request

__all__ = [
    "forecast_msk",
    "pattern_a_keys",
    "pattern_b_pairs",
    "serving_catalog",
    "serving_request",
]


#: Bounds of the interning caches below: above the paper-scale catalog (512
#: fields, each requested at a handful of spans) and the widest benchmark's
#: rank count, small enough to be irrelevant to the footprint.
_MAX_INTERNED_REQUESTS = 4096
_MAX_INTERNED_FORECASTS = 1024
_MAX_INTERNED_CATALOGS = 8


def forecast_msk(rank: int, shared: bool) -> FieldKey:
    """Most-significant key for a benchmark process.

    ``shared=True`` gives every rank the same forecast (maximum contention
    on its index KV); otherwise each rank gets its own ``expver``.  Equal
    arguments return the same (immutable) key object.
    """
    return _forecast_msk("0001" if shared else f"{rank + 1:04x}")


@lru_cache(maxsize=_MAX_INTERNED_FORECASTS)
def _forecast_msk(expver: str) -> FieldKey:
    return FieldKey(
        {
            "class": "rd",
            "stream": "oper",
            "expver": expver,
            "date": "20260705",
            "time": "00",
        }
    )


def _field_key(msk: FieldKey, rank: int, index: int) -> FieldKey:
    """A field key unique to (rank, index) within a forecast.

    ``levelist`` encodes the rank and ``step`` the op index, so two
    processes sharing a forecast still address distinct fields.
    """
    return msk.merged(
        {
            "type": "fc",
            "levtype": "ml",
            "levelist": str(rank + 1),
            "param": "t",
            "step": str(index),
        }
    )


def pattern_a_keys(rank: int, n_ops: int, shared_forecast: bool) -> List[FieldKey]:
    """The key sequence one process writes (then reads) in access pattern A."""
    if n_ops < 1:
        raise ValueError(f"need >= 1 ops, got {n_ops}")
    msk = forecast_msk(rank, shared_forecast)
    return [_field_key(msk, rank, i) for i in range(n_ops)]


def pattern_b_pairs(
    n_processes: int, shared_forecast: bool
) -> Tuple[List[FieldKey], List[FieldKey]]:
    """Designated keys for access pattern B (§5.3).

    The first half of the processes are writers, the second half readers;
    reader ``i`` reads exactly the field writer ``i`` re-writes, which is
    what induces the writer/reader contention the pattern is designed to
    exhibit.  Returns ``(writer_keys, reader_keys)`` with one key per
    writer/reader.
    """
    if n_processes < 2 or n_processes % 2 != 0:
        raise ValueError(
            f"pattern B needs an even process count >= 2, got {n_processes}"
        )
    n_writers = n_processes // 2
    writer_keys = []
    for writer_rank in range(n_writers):
        msk = forecast_msk(writer_rank, shared_forecast)
        writer_keys.append(_field_key(msk, writer_rank, 0))
    reader_keys = list(writer_keys)
    return writer_keys, reader_keys


#: Fixed least-significant components of every product-serving field.
_SERVING_LSK = {"type": "fc", "levtype": "ml", "levelist": "1", "param": "t"}


def serving_catalog(n_fields: int) -> List[FieldKey]:
    """The dissemination catalog: one archived cycle of ``n_fields`` fields.

    All fields live in one shared forecast (the freshly completed cycle the
    users are hammering); field ``i`` is addressed by ``step=i``, so a MARS
    request covering several consecutive steps expands to several catalog
    fields.  The list is the caller's own; the keys in it are shared
    between calls.
    """
    if n_fields < 1:
        raise ValueError(f"need >= 1 fields, got {n_fields}")
    return list(_serving_catalog(n_fields))


@lru_cache(maxsize=_MAX_INTERNED_CATALOGS)
def _serving_catalog(n_fields: int) -> Tuple[FieldKey, ...]:
    msk = forecast_msk(0, shared=True)
    return tuple(
        msk.merged({**_SERVING_LSK, "step": str(i)}) for i in range(n_fields)
    )


def serving_request(field_index: int, n_fields: int, span: int = 1) -> Request:
    """The MARS request a user issues for catalog field ``field_index``.

    ``span`` consecutive steps (wrapping at the catalog end) are requested
    together — the multi-field retrieval shape of product generation.  The
    expansion covers exactly the :func:`serving_catalog` keys.  Equal
    arguments return the same (immutable) request, so a re-requested field
    arrives with its expansion already attached.
    """
    if not 0 <= field_index < n_fields:
        raise ValueError(f"field_index {field_index} outside [0, {n_fields})")
    if not 1 <= span <= n_fields:
        raise ValueError(f"span must be in [1, {n_fields}], got {span}")
    return _serving_request(field_index, n_fields, span)


@lru_cache(maxsize=_MAX_INTERNED_REQUESTS)
def _serving_request(field_index: int, n_fields: int, span: int) -> Request:
    msk = forecast_msk(0, shared=True)
    steps = tuple(str((field_index + j) % n_fields) for j in range(span))
    return Request({**dict(msk), **_SERVING_LSK, "step": steps})

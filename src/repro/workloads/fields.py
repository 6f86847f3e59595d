"""Synthetic weather fields.

Fields are 2-D global slices of one variable (§1.2), currently 1–5 MiB at
ECMWF.  Two generators are provided:

* :func:`field_payload` — a lazy :class:`~repro.daos.payload.PatternPayload`
  of a chosen size, keyed deterministically off the field key (zero memory;
  what the benchmarks use);
* :func:`synthesize_field` — an actual ``float32`` lat/lon grid with a
  plausible large-scale structure (zonal mean + planetary waves + noise),
  for the examples and for end-to-end content verification.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from repro.daos.payload import BytesPayload, PatternPayload
from repro.fdb.key import FieldKey
from repro.units import MiB

__all__ = [
    "UPPER_AIR_PARAMS",
    "SURFACE_PARAMS",
    "PRESSURE_LEVELS",
    "GaussianGrid",
    "field_payload",
    "synthesize_field",
]

#: Common upper-air parameters (MARS shortNames).
UPPER_AIR_PARAMS = ("t", "u", "v", "q", "z", "w", "d", "r", "vo", "o3")
#: Common surface parameters.
SURFACE_PARAMS = ("2t", "10u", "10v", "msl", "tp", "sp", "skt", "tcc")
#: Standard pressure levels (hPa).
PRESSURE_LEVELS = (
    "1000", "925", "850", "700", "500", "400", "300",
    "250", "200", "150", "100", "50", "10",
)


@dataclass(frozen=True)
class GaussianGrid:
    """A simple regular lat/lon stand-in for ECMWF's Gaussian grids.

    ``o320``-ish resolutions give fields of roughly the 1–5 MiB the paper
    quotes once encoded as float32.
    """

    n_lat: int = 640
    n_lon: int = 1280

    @property
    def points(self) -> int:
        return self.n_lat * self.n_lon

    @property
    def nbytes_f32(self) -> int:
        return self.points * 4


@lru_cache(maxsize=1 << 16)
def _seed_from_key(key: FieldKey) -> int:
    # Cached: benchmarks call this once per op (write *and* verify-read) for
    # a keyset that is tiny compared to the op count; FieldKey is frozen and
    # hashable, so the seed is a pure function of the key.  Bounded well
    # above any one run's keyset, so a long-lived worker cannot grow it.
    digest = hashlib.sha256(key.encode()).digest()
    return int.from_bytes(digest[:8], "little")


def field_payload(key: FieldKey, size: int = 1 * MiB) -> PatternPayload:
    """Lazy payload of ``size`` bytes, deterministic in the field key.

    Two calls for the same key produce identical content, so a benchmark's
    read phase can verify what the write phase stored without keeping any
    of it in memory.
    """
    if size < 0:
        raise ValueError(f"field size must be non-negative, got {size}")
    return PatternPayload(size, seed=_seed_from_key(key))


def synthesize_field(key: FieldKey, grid: GaussianGrid = GaussianGrid()) -> BytesPayload:
    """A physically-shaped float32 field for the given key.

    The field is a zonal-mean profile plus a few planetary waves plus
    small-scale noise — enough structure that the examples' plots and
    statistics look like weather, while remaining fully deterministic in
    the key.
    """
    rng = np.random.Generator(np.random.PCG64(_seed_from_key(key)))
    lat = np.linspace(-90.0, 90.0, grid.n_lat, dtype=np.float32)[:, None]
    lon = np.linspace(0.0, 360.0, grid.n_lon, endpoint=False, dtype=np.float32)[None, :]
    # Zonal mean: warm equator, cold poles (scaled arbitrarily per param).
    base = 288.0 - 50.0 * np.sin(np.deg2rad(lat)) ** 2
    # Planetary waves with random phases.
    waves = np.zeros((grid.n_lat, grid.n_lon), dtype=np.float32)
    for wavenumber in (1, 2, 3, 5):
        amplitude = rng.uniform(1.0, 6.0) / wavenumber
        phase = rng.uniform(0.0, 360.0)
        waves += (
            amplitude
            * np.cos(np.deg2rad(wavenumber * (lon + phase)))
            * np.cos(np.deg2rad(lat))
        ).astype(np.float32)
    noise = rng.normal(0.0, 0.5, size=(grid.n_lat, grid.n_lon)).astype(np.float32)
    data = (base + waves + noise).astype(np.float32)
    return BytesPayload(data.tobytes())

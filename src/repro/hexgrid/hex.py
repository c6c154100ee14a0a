"""Hexagonal grid index — offline substitute for Uber's H3.

The paper indexes AIS positions on H3 hexagons at resolutions 6–10 and uses
exactly four H3 operations: point -> cell, cell -> center, grid (hex hop)
distance, and adjacency. ``h3`` is not installable in this container, so this
module provides a pointy-top axial hexagonal tessellation over a *local
equirectangular projection* with per-resolution edge lengths equal to H3's
published mean hexagon edge length. For the regional extents the paper
evaluates (<= ~400 km), projection distortion is a few percent — the
aggregation granularity, grid zig-zag artifacts, and storage scaling in ``r``
that the evaluation measures are preserved (see DESIGN.md, substitutions).

Cell ids are int64: ``(res << 58) | ((q + B) << 29) | (r + B)`` with
``B = 2**28``, where ``(q, r)`` are axial coordinates relative to the grid's
projection origin. Ids are only comparable between grids with identical
``(res, lat0, lon0)`` — a :class:`HexGrid` is carried alongside any id set
(models store their grid parameters).

All coordinate functions are vectorized over numpy arrays.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

#: Mean hexagon edge length in meters per H3 resolution (H3 documentation).
EDGE_M: dict[int, float] = {
    4: 22606.38,
    5: 8544.41,
    6: 3229.48,
    7: 1220.63,
    8: 461.35,
    9: 174.38,
    10: 65.91,
    11: 24.91,
}

#: Mean Earth radius (meters), as used by H3 / haversine throughout the repo.
R_EARTH = 6371008.8

_RES_SHIFT, _Q_SHIFT = 58, 29  # cell id bit offsets of res and q
_B = 1 << 28  # axial coordinate bias for packing
_QR_MASK = (1 << _Q_SHIFT) - 1

_SQRT3 = float(np.sqrt(3.0))


def pack(res: int, q, r):
    """Pack resolution + axial (q, r) into an int64 cell id (vectorized)."""
    q = np.asarray(q, dtype=np.int64)
    r = np.asarray(r, dtype=np.int64)
    if np.any((np.abs(q) >= _B) | (np.abs(r) >= _B)):
        raise ValueError("axial coordinate out of packable range")
    return (np.int64(res) << _RES_SHIFT) | ((q + _B) << _Q_SHIFT) | (r + _B)


def unpack(cell):
    """Unpack int64 cell id(s) into (res, q, r) arrays."""
    cell = np.asarray(cell, dtype=np.int64)
    res = (cell >> _RES_SHIFT).astype(np.int64)
    q = ((cell >> _Q_SHIFT) & _QR_MASK) - _B
    r = (cell & _QR_MASK) - _B
    return res, q, r


def cell_res(cell) -> np.ndarray:
    """Resolution encoded in cell id(s)."""
    return np.asarray(cell, dtype=np.int64) >> _RES_SHIFT


def grid_distance(a, b):
    """Hex hop distance between cell ids (vectorized; same resolution)."""
    ra, qa, sa = unpack(a)
    rb, qb, sb = unpack(b)
    dq = qa - qb
    dr = sa - sb
    return ((np.abs(dq) + np.abs(dr) + np.abs(dq + dr)) // 2).astype(np.int64)


def axial_frac(x, y, a: float):
    """Fractional axial coords of projected point(s) on hexagons of edge
    ``a``; the arithmetic works on numpy arrays and Spark Columns alike."""
    qf = (_SQRT3 / 3.0 * x - y / 3.0) / a
    rf = (2.0 / 3.0 * y) / a
    return qf, rf


def _axial_round(qf: np.ndarray, rf: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Round fractional axial coords to the nearest hex (cube rounding)."""
    sf = -qf - rf
    q = np.round(qf)
    r = np.round(rf)
    s = np.round(sf)
    dq = np.abs(q - qf)
    dr = np.abs(r - rf)
    ds = np.abs(s - sf)
    fix_q = (dq > dr) & (dq > ds)
    fix_r = ~fix_q & (dr > ds)
    q = np.where(fix_q, -r - s, q)
    r = np.where(fix_r, -q - s, r)
    return q.astype(np.int64), r.astype(np.int64)


#: Axial offsets of the 6 neighbors of any hexagon (pointy-top).
NEIGHBOR_OFFSETS = ((1, 0), (1, -1), (0, -1), (-1, 0), (-1, 1), (0, 1))


@dataclass(frozen=True)
class HexGrid:
    """A hexagonal tessellation at H3-equivalent resolution ``res``.

    ``lat0``/``lon0`` anchor the local equirectangular projection
    (x east, y north, meters); a region's grids must share the anchor for
    their cell ids to be comparable.
    """

    res: int
    lat0: float
    lon0: float

    @property
    def edge_m(self) -> float:
        """Hexagon edge length (= circumradius) in meters."""
        return EDGE_M[self.res]

    # -- projection ---------------------------------------------------------
    def project(self, lon, lat) -> tuple[np.ndarray, np.ndarray]:
        """(lon, lat) degrees -> local (x, y) meters; the arithmetic works on
        numpy arrays, scalars and Spark Columns alike."""
        k = np.cos(np.radians(self.lat0)) * R_EARTH * np.pi / 180.0
        x = (lon - self.lon0) * k
        y = (lat - self.lat0) * (R_EARTH * np.pi / 180.0)
        return x, y

    def unproject(self, x, y) -> tuple[np.ndarray, np.ndarray]:
        """Local (x, y) meters -> (lon, lat) degrees."""
        x = np.asarray(x, dtype=np.float64)
        y = np.asarray(y, dtype=np.float64)
        k = np.cos(np.radians(self.lat0)) * R_EARTH * np.pi / 180.0
        lon = self.lon0 + x / k
        lat = self.lat0 + y / (R_EARTH * np.pi / 180.0)
        return lon, lat

    # -- cell ops -----------------------------------------------------------
    def to_cell(self, lon, lat) -> np.ndarray:
        """Assign point(s) to their containing hexagon; returns int64 ids.

        Raises ``ValueError`` on a non-finite coordinate, which has no cell.
        """
        x, y = self.project(np.asarray(lon, dtype=np.float64), np.asarray(lat, dtype=np.float64))
        if not (np.isfinite(x).all() and np.isfinite(y).all()):
            raise ValueError("non-finite coordinate has no cell")
        q, r = _axial_round(*axial_frac(x, y, self.edge_m))
        return pack(self.res, q, r)

    def cell_center(self, cell) -> tuple[np.ndarray, np.ndarray]:
        """Geometric center(s) of cell id(s) as (lon, lat) degrees."""
        _, q, r = unpack(cell)
        a = self.edge_m
        x = a * _SQRT3 * (q + r / 2.0)
        y = a * 1.5 * r
        return self.unproject(x, y)

    def neighbors(self, cell: int) -> list[int]:
        """The 6 adjacent cell ids of a single cell."""
        _, q, r = unpack(cell)
        return [int(pack(self.res, int(q) + dq, int(r) + dr)) for dq, dr in NEIGHBOR_OFFSETS]

    def k_ring(self, cell: int, k: int) -> list[int]:
        """All cell ids within hex distance ``k`` of ``cell`` (incl. itself)."""
        _, q0, r0 = unpack(cell)
        q0, r0 = int(q0), int(r0)
        out = []
        for dq in range(-k, k + 1):
            for dr in range(max(-k, -dq - k), min(k, -dq + k) + 1):
                out.append(int(pack(self.res, q0 + dq, r0 + dr)))
        return out

"""The hex grid's cell ops as native Spark Column expressions.

``to_cell_col`` repeats :meth:`HexGrid.to_cell` operation for operation, so
Catalyst evaluates the same IEEE double arithmetic as numpy and the cell ids
are bit-identical: ``F.bround`` rounds half to even, as ``np.round`` does
(``F.round`` rounds half up). The projection, the axial formula and the id
bit layout come from :mod:`repro.hexgrid.hex`.
"""
from __future__ import annotations

from pyspark.sql import Column
from pyspark.sql import functions as F

from repro.hexgrid.hex import _B, _Q_SHIFT, _QR_MASK, _RES_SHIFT, HexGrid, axial_frac


def to_cell_col(grid: HexGrid, lon: Column, lat: Column) -> Column:
    """Cell id of ``(lon, lat)``; the query fails on a non-finite or NULL
    coordinate, which has no cell."""
    qf, rf = axial_frac(*grid.project(lon, lat), grid.edge_m)
    sf = -qf - rf
    q, r, s = F.bround(qf, 0), F.bround(rf, 0), F.bround(sf, 0)
    dq, dr, ds = F.abs(q - qf), F.abs(r - rf), F.abs(s - sf)
    fix_q = (dq > dr) & (dq > ds)
    q, r = (
        F.when(fix_q, -r - s).otherwise(q),
        F.when(~fix_q & (dr > ds), -q - s).otherwise(r),
    )
    # Spark orders NaN above every number, so NaN and +-inf fail this test.
    ok = (F.abs(q) < _B) & (F.abs(r) < _B)
    cell = (
        F.lit(grid.res << _RES_SHIFT)
        .bitwiseOR(F.shiftleft(q.cast("long") + _B, _Q_SHIFT))
        .bitwiseOR(r.cast("long") + _B)
    )
    return F.when(ok, cell).otherwise(
        F.raise_error(F.lit("non-finite or out-of-range coordinate has no cell"))
    )


def grid_distance_col(a: Column, b: Column) -> Column:
    """Hex hop distance between two cell id columns (same resolution)."""
    # The axial bias _B cancels in the differences of the packed fields.
    dq = (F.shiftright(a, _Q_SHIFT).bitwiseAND(_QR_MASK)
          - F.shiftright(b, _Q_SHIFT).bitwiseAND(_QR_MASK))
    dr = a.bitwiseAND(_QR_MASK) - b.bitwiseAND(_QR_MASK)
    # The sum of the three offsets is even and non-negative: halve by shift.
    return F.shiftright(F.abs(dq) + F.abs(dr) + F.abs(dq + dr), 1)

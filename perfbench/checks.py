"""Output checks and accuracy scoring; all run outside the timed regions."""
from __future__ import annotations

import numpy as np
import pandas as pd

from repro.ais.gaps import Gap
from repro.eval.metrics import DTW_SPACING_M
from repro.geo.dtw import dtw_m
from repro.geo.resample import densify
from repro.hexgrid.hex import HexGrid
from repro.oracle import assert_equivalent


def path_ok(lon: np.ndarray, lat: np.ndarray, gap: Gap) -> bool:
    """Finite, and begins and ends exactly at the gap's endpoints."""
    return bool(
        lon.size >= 2
        and lon.size == lat.size
        and np.isfinite(lon).all()
        and np.isfinite(lat).all()
        and lon[0] == gap.start_lon
        and lat[0] == gap.start_lat
        and lon[-1] == gap.end_lon
        and lat[-1] == gap.end_lat
    )


def dtw_score(lon: np.ndarray, lat: np.ndarray, gap: Gap) -> float:
    """The paper's accuracy metric for one gap (densify both, then DTW)."""
    ilon, ilat = densify(lon, lat, DTW_SPACING_M)
    tlon, tlat = densify(gap.truth_lon, gap.truth_lat, DTW_SPACING_M)
    return dtw_m(ilon, ilat, tlon, tlat)


def rows_equal(a: pd.DataFrame, b: pd.DataFrame) -> bool:
    """Exact equality on gap_id, seq, lon, lat and ts, in any row order."""
    cols = ["gap_id", "seq", "lon", "lat", "ts"]
    if len(a) != len(b):
        return False
    a = a[cols].sort_values(["gap_id", "seq"]).reset_index(drop=True)
    b = b[cols].sort_values(["gap_id", "seq"]).reset_index(drop=True)
    a["ts"] = pd.to_datetime(a["ts"]).astype("datetime64[us]")
    b["ts"] = pd.to_datetime(b["ts"]).astype("datetime64[us]")
    return bool(
        (a["gap_id"].to_numpy() == b["gap_id"].to_numpy()).all()
        and (a["seq"].to_numpy() == b["seq"].to_numpy()).all()
        and (a["lon"].to_numpy() == b["lon"].to_numpy()).all()
        and (a["lat"].to_numpy() == b["lat"].to_numpy()).all()
        and (a["ts"].to_numpy() == b["ts"].to_numpy()).all()
    )


# The §3.2 formulation in DuckDB (see tests/test_graphgen.py): cells and
# their predecessor along each trip, trips spanning < 3 cells removed, then
# the per-cell and per-transition aggregates. Approximate distinct counts
# (nves, transitions) are not compared.
_KEPT = """
WITH c AS (
  SELECT *, lag(cl) OVER (PARTITION BY trip_id ORDER BY ts) AS lag_cl FROM pts
), k AS (
  SELECT * FROM c WHERE trip_id IN (
    SELECT trip_id FROM c GROUP BY trip_id HAVING count(DISTINCT cl) >= 3)
)
"""
NODES_SQL = _KEPT + """
SELECT cl, count(*) AS cnt, median(lon) AS mlon, median(lat) AS mlat
FROM k GROUP BY cl
"""
EDGES_SQL = _KEPT + """
SELECT lag_cl, cl FROM k
WHERE lag_cl IS NOT NULL AND lag_cl <> cl GROUP BY lag_cl, cl
"""


def oracle_mismatches(
    spark, train: pd.DataFrame, grid: HexGrid, nodes: pd.DataFrame, edges: pd.DataFrame
) -> list[str]:
    """Differences between saved node/edge tables and the DuckDB oracle.

    Cells are assigned on the driver with ``HexGrid.to_cell``, the kernel
    the Spark pandas UDF runs; ``repro.oracle`` compares the rest.
    """
    pts = train[["trip_id", "ts", "lon", "lat"]].copy()
    pts["cl"] = grid.to_cell(pts["lon"].to_numpy(), pts["lat"].to_numpy()).astype(np.int64)
    bad = []
    for what, got, sql in (
        ("nodes", nodes[["cl", "cnt", "mlon", "mlat"]], NODES_SQL),
        ("edges", edges[["lag_cl", "cl"]], EDGES_SQL),
    ):
        try:
            assert_equivalent(spark.createDataFrame(got), sql, pts=pts)
        except AssertionError as e:
            bad.append(f"{what}: {str(e).splitlines()[0] if str(e) else 'mismatch'}")
    return bad

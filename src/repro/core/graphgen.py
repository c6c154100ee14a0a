"""Phase 2 — graph generation (paper §3.2), in Spark.

The paper expresses this phase as a DuckDB CTE; here the identical semantics
run on the DataFrame/Catalyst API (the repro target is distributed dataflow
— partition by hex cell, aggregate historical motion patterns), and the
DuckDB formulation is retained as the *correctness oracle* in the tests.

Pipeline, exactly as §3.2 steps (1)–(4):

1. trip data in, grid resolution ``r`` chosen;
2. messages grouped by ``trip_id`` (windowed by trip);
3. each message assigned its hex cell ``cl`` and the preceding cell
   ``lag_cl`` along the trip sequence;
4. two aggregations — per cell ``cl`` (count, distinct vessels, median
   lon/lat/sog/cog) and per transition ``(lag_cl, cl)`` (distinct trips,
   hex grid distance).

Trips falling within at most two adjacent cells at resolution ``r`` carry no
transition information and are excluded (§3.1, last paragraph).

Cells are native Column expressions (:mod:`repro.hexgrid.columns`), so no
row leaves the JVM. Each of the two result frames shuffles twice: once by
``trip_id``, which the ``lag`` window and the small-trip filter (a
``collect_set`` over the same trip window) share, and once by its grouping
key, ``cl`` or ``(lag_cl, cl)``. The tests guard this count. ``Habit.fit``
collects the two frames as concurrent jobs (:func:`repro.spark.collect`):
their shared upstream, the trip shuffle, cell expression and windows, runs
once for each, the two side by side.

The paper loads the two tables into a NetworkX graph; here ``build_graph``
turns the collected tables into a :class:`CellGraph` of sorted numpy arrays
with a compressed sparse row (CSR) edge index, which the queries search.

``exact=True`` swaps ``approx_count_distinct`` (the paper's choice, HLL) for
exact ``count_distinct`` so results are engine-comparable in oracle tests.
"""
from __future__ import annotations

from collections.abc import Iterator, Mapping
from dataclasses import dataclass

import numpy as np
import pandas as pd
from pyspark.sql import DataFrame, Window
from pyspark.sql import functions as F

from repro.graph import csr
from repro.hexgrid.columns import grid_distance_col, to_cell_col
from repro.hexgrid.hex import HexGrid


def with_cells(df: DataFrame, grid: HexGrid) -> DataFrame:
    """Assign ``cl`` and per-trip predecessor ``lag_cl`` to each message."""
    # ``to_spark`` frames are a LocalTableScan, and Catalyst folds a
    # projection sitting directly on one (ConvertToLocalRelation) into
    # interpreted, single-threaded evaluation on the driver. Hashing by
    # trip first moves the cell expression into generated code on the
    # executors; the trip windows reuse this partitioning, so it is the
    # shuffle the lag window needs anyway, not an extra one.
    df = df.repartition("trip_id").withColumn("cl", to_cell_col(grid, F.col("lon"), F.col("lat")))
    w = Window.partitionBy("trip_id").orderBy("ts")
    return df.withColumn("lag_cl", F.lag("cl").over(w))


def drop_small_trips(df: DataFrame, *, min_cells: int = 3) -> DataFrame:
    """Drop trips spanning fewer than ``min_cells`` distinct cells."""
    ncells = F.size(F.collect_set("cl").over(Window.partitionBy("trip_id")))
    return df.withColumn("_ncells", ncells).filter(F.col("_ncells") >= min_cells).drop("_ncells")


def cell_stats(df: DataFrame, *, exact: bool = False) -> DataFrame:
    """Per-cell aggregates: the graph's node attributes."""
    nves = (F.count_distinct if exact else F.approx_count_distinct)("vessel_id")
    return df.groupBy("cl").agg(
        F.count(F.lit(1)).alias("cnt"),
        nves.alias("nves"),
        F.median("lon").alias("mlon"),
        F.median("lat").alias("mlat"),
        F.median("sog").alias("msog"),
        F.median("cog").alias("mcog"),
    )


def edge_stats(df: DataFrame, *, exact: bool = False) -> DataFrame:
    """Per-transition aggregates: the graph's weighted edges.

    Only genuine transitions (``lag_cl`` present and different from ``cl``)
    form edges, as in the paper's construction.
    """
    ntrips = (F.count_distinct if exact else F.approx_count_distinct)("trip_id")
    edges = (
        df.filter(F.col("lag_cl").isNotNull() & (F.col("lag_cl") != F.col("cl")))
        .groupBy("lag_cl", "cl")
        .agg(ntrips.alias("transitions"))
    )
    return edges.withColumn("gdist", grid_distance_col(F.col("lag_cl"), F.col("cl")))


def aggregate(
    trips_df: DataFrame,
    grid: HexGrid,
    *,
    exact: bool = False,
    min_cells: int = 3,
) -> tuple[DataFrame, DataFrame]:
    """Run the full §3.2 aggregation; returns (nodes_df, edges_df)."""
    df = drop_small_trips(with_cells(trips_df, grid), min_cells=min_cells)
    return cell_stats(df, exact=exact), edge_stats(df, exact=exact)


def _locate(ids: np.ndarray, cells) -> np.ndarray:
    cells = np.asarray(cells, dtype=np.int64)
    if ids.size == 0:
        return np.full(cells.shape, -1)
    i = np.minimum(np.searchsorted(ids, cells), ids.size - 1)
    return np.where(ids[i] == cells, i, -1)


@dataclass(frozen=True, eq=False)
class CellGraph:
    """The weighted directed cell graph, as arrays.

    Nodes are sorted by cell id: ``ids`` with median lon/lat (``mlon``/
    ``mlat``), message count (``cnt``) and distinct vessels (``nves``).
    Edges are sorted by ``(lag_cl, cl)`` and indexed as CSR: the out-edges
    of node ``i`` go to the node positions ``dst[indptr[i]:indptr[i + 1]]``
    and carry ``transitions`` (the edge weight) and ``gdist`` (hex hop
    distance of the transition).
    """

    ids: np.ndarray
    cnt: np.ndarray
    nves: np.ndarray
    mlon: np.ndarray
    mlat: np.ndarray
    indptr: np.ndarray
    dst: np.ndarray
    transitions: np.ndarray
    gdist: np.ndarray

    def locate(self, cells) -> np.ndarray:
        """Positions of ``cells`` in ``ids``; -1 where a cell is not a node."""
        return _locate(self.ids, cells)

    @property
    def nodes(self) -> Mapping[int, dict]:
        """Read-only view: cell id -> its node attributes."""
        return _Nodes(self)


class _Nodes(Mapping):
    def __init__(self, g: CellGraph):
        self._g = g

    def __getitem__(self, cell: int) -> dict:
        i = int(self._g.locate(cell))
        if i < 0:
            raise KeyError(cell)
        g = self._g
        return {"cnt": int(g.cnt[i]), "nves": int(g.nves[i]),
                "mlon": float(g.mlon[i]), "mlat": float(g.mlat[i])}

    def __iter__(self) -> Iterator[int]:
        return iter(self._g.ids.tolist())

    def __len__(self) -> int:
        return int(self._g.ids.size)


def build_graph(nodes_pdf: pd.DataFrame, edges_pdf: pd.DataFrame) -> CellGraph:
    """Assemble the cell graph from the node and edge tables.

    Raises ``ValueError`` when a cell id repeats in the node table or an
    edge endpoint has no node row: the tables of a fit never do that, so
    such tables are foreign or damaged.
    """
    nodes = nodes_pdf.sort_values("cl")
    ids = nodes["cl"].to_numpy(np.int64)
    if (np.diff(ids) == 0).any():
        raise ValueError("node table repeats a cell id")
    src = _locate(ids, edges_pdf["lag_cl"].to_numpy(np.int64))
    dst = _locate(ids, edges_pdf["cl"].to_numpy(np.int64))
    if (src < 0).any() or (dst < 0).any():
        raise ValueError("edge table has an endpoint missing from the node table")
    indptr, order = csr(src, dst, ids.size)
    return CellGraph(
        ids=ids,
        cnt=nodes["cnt"].to_numpy(np.int64),
        nves=nodes["nves"].to_numpy(np.int64),
        mlon=nodes["mlon"].to_numpy(np.float64),
        mlat=nodes["mlat"].to_numpy(np.float64),
        indptr=indptr,
        dst=dst[order],
        transitions=edges_pdf["transitions"].to_numpy(np.int64)[order],
        gdist=edges_pdf["gdist"].to_numpy(np.int64)[order],
    )

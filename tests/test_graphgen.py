"""Tests for phase 2 (cell/edge aggregation) — Spark vs the DuckDB oracle.

The paper implements this phase as a DuckDB CTE; we run it in Spark. The
oracle encodes the paper's CTE in DuckDB over the same input (with exact
distinct counts on both sides, since HLL sketches differ between engines)
and every aggregate must match row for row.
"""
import numpy as np
import pandas as pd
import pytest
from pyspark.sql import functions as F

from repro.ais.datasets import REGION_OF, to_spark
from repro.core.graphgen import (
    aggregate,
    build_graph,
    cell_stats,
    drop_small_trips,
    edge_stats,
    with_cells,
)
from repro.core.model import HabitModel
from repro.hexgrid.hex import HexGrid, grid_distance
from repro.oracle import assert_equivalent


@pytest.fixture(scope="module")
def kiel_cells(spark, kiel_trips):
    """KIEL trips with cl/lag_cl assigned at r=8, small trips dropped."""
    grid = HexGrid(8, REGION_OF["KIEL"].lat0, REGION_OF["KIEL"].lon0)
    df = drop_small_trips(with_cells(to_spark(spark, kiel_trips), grid))
    pdf = df.toPandas()
    return grid, df, pdf


# --- cell assignment --------------------------------------------------------

def test_spark_cell_assignment_matches_driver(spark, kiel_trips):
    """The pandas UDF must agree with driver-side HexGrid.to_cell."""
    grid = HexGrid(9, REGION_OF["KIEL"].lat0, REGION_OF["KIEL"].lon0)
    sample = kiel_trips.head(500)
    got = (
        with_cells(to_spark(spark, sample), grid)
        .orderBy("trip_id", "ts")
        .select("cl")
        .toPandas()["cl"]
        .to_numpy()
    )
    expect = grid.to_cell(
        sample.sort_values(["trip_id", "ts"])["lon"].to_numpy(),
        sample.sort_values(["trip_id", "ts"])["lat"].to_numpy(),
    )
    assert (got == expect).all()


def test_lag_cl_is_previous_cell_in_trip(kiel_cells):
    _, _, pdf = kiel_cells
    for _, g in pdf.sort_values("ts").groupby("trip_id"):
        cl = g["cl"].to_numpy()
        lag = g["lag_cl"].to_numpy()
        assert np.isnan(lag[0]) or lag[0] is None or pd.isna(lag[0])
        assert (lag[1:] == cl[:-1]).all()


def test_drop_small_trips(spark, kiel_trips):
    """Trips spanning < 3 distinct cells at a coarse resolution are dropped."""
    grid = HexGrid(4, REGION_OF["KIEL"].lat0, REGION_OF["KIEL"].lon0)  # ~22.6 km cells
    df = with_cells(to_spark(spark, kiel_trips), grid)
    kept = drop_small_trips(df, min_cells=3)
    spans = kept.groupBy("trip_id").agg(F.count_distinct("cl").alias("n")).toPandas()
    assert (spans["n"] >= 3).all()


# --- oracle: the paper's CTE in DuckDB --------------------------------------

def test_cell_stats_match_duckdb_oracle(spark, kiel_cells):
    _, df, pdf = kiel_cells
    nodes = cell_stats(df, exact=True)
    assert_equivalent(
        nodes,
        """
        SELECT cl,
               count(*)             AS cnt,
               count(DISTINCT vessel_id) AS nves,
               median(lon)          AS mlon,
               median(lat)          AS mlat,
               median(sog)          AS msog,
               median(cog)          AS mcog
        FROM pts GROUP BY cl
        """,
        pts=pdf,
    )


def test_edge_stats_match_duckdb_oracle(spark, kiel_cells):
    _, df, pdf = kiel_cells
    edges = edge_stats(df, exact=True).drop("gdist")
    assert_equivalent(
        edges,
        """
        WITH seq AS (
            SELECT trip_id, cl,
                   lag(cl) OVER (PARTITION BY trip_id ORDER BY ts) AS lag_cl
            FROM pts
        )
        SELECT lag_cl, cl, count(DISTINCT trip_id) AS transitions
        FROM seq
        WHERE lag_cl IS NOT NULL AND lag_cl <> cl
        GROUP BY lag_cl, cl
        """,
        pts=pdf.drop(columns=["lag_cl"]),
    )


def test_edge_gdist_matches_hex_math(kiel_cells):
    grid, df, _ = kiel_cells
    edges = edge_stats(df).toPandas()
    expect = grid_distance(edges["lag_cl"].to_numpy(), edges["cl"].to_numpy())
    assert (edges["gdist"].to_numpy() == expect).all()


def test_approx_distinct_close_to_exact(spark, kiel_cells):
    """The paper's approx_count_distinct must track the exact counts."""
    _, df, _ = kiel_cells
    ex = cell_stats(df, exact=True).select("cl", "nves").toPandas().set_index("cl")
    ap = cell_stats(df, exact=False).select("cl", "nves").toPandas().set_index("cl")
    joined = ex.join(ap, lsuffix="_e", rsuffix="_a")
    rel = (joined["nves_a"] - joined["nves_e"]).abs() / joined["nves_e"]
    assert float(rel.mean()) < 0.1


# --- graph construction -----------------------------------------------------

def test_build_graph_roundtrip(spark, kiel_cells):
    grid, df, _ = kiel_cells
    nodes_df, edges_df = cell_stats(df, exact=True), edge_stats(df, exact=True)
    nodes, edges = nodes_df.toPandas(), edges_df.toPandas()
    g = build_graph(nodes, edges)
    assert HabitModel(grid=grid, graph=g).n_edges == len(edges)
    # every node attribute round-trips (read from typed columns: a row
    # Series would coerce int64 cell ids to float64 and lose precision)
    cl0 = int(nodes["cl"].iloc[0])
    d = g.nodes[cl0]
    assert d["cnt"] == int(nodes["cnt"].iloc[0])
    assert d["mlon"] == pytest.approx(float(nodes["mlon"].iloc[0]))


def _tables():
    nodes = pd.DataFrame(
        {"cl": [1, 2, 3], "cnt": 5, "nves": 1, "mlon": [10.0, 10.1, 10.2], "mlat": 55.0}
    )
    edges = pd.DataFrame({"lag_cl": [1, 2], "cl": [2, 3], "transitions": 1, "gdist": 1})
    return nodes, edges


def test_build_graph_rejects_dangling_edge():
    """An edge endpoint without a node row (a foreign or edited table) is
    refused instead of becoming an attribute-less node."""
    nodes, edges = _tables()
    build_graph(nodes, edges)
    for col in ("lag_cl", "cl"):
        bad = edges.copy()
        bad.loc[1, col] = 99
        with pytest.raises(ValueError, match="missing from the node table"):
            build_graph(nodes, bad)


def test_build_graph_rejects_duplicate_node():
    nodes, edges = _tables()
    with pytest.raises(ValueError, match="repeats a cell id"):
        build_graph(pd.concat([nodes, nodes.iloc[[1]]]), edges)


def test_graph_edges_exclude_self_loops(spark, kiel_cells):
    _, df, _ = kiel_cells
    edges = edge_stats(df).toPandas()
    assert (edges["lag_cl"] != edges["cl"]).all()


def test_graph_follows_route_adjacency(spark, kiel_cells):
    """Most transitions at r=8 connect nearby cells (smooth sailing)."""
    _, df, _ = kiel_cells
    edges = edge_stats(df).toPandas()
    assert (edges["gdist"] <= 3).mean() > 0.9


def test_aggregate_convenience(spark, kiel_trips):
    grid = HexGrid(8, REGION_OF["KIEL"].lat0, REGION_OF["KIEL"].lon0)
    nodes_df, edges_df = aggregate(to_spark(spark, kiel_trips), grid, exact=True)
    nodes, edges = nodes_df.toPandas(), edges_df.toPandas()
    assert len(nodes) > 50
    assert len(edges) > 50
    assert set(edges["cl"]).issubset(set(nodes["cl"]))
    assert set(edges["lag_cl"]).issubset(set(nodes["cl"]))


@pytest.mark.parametrize("res", [7, 8, 9])
def test_node_count_grows_with_resolution(spark, kiel_trips, res):
    grid = HexGrid(res, REGION_OF["KIEL"].lat0, REGION_OF["KIEL"].lon0)
    coarse = HexGrid(res - 1, REGION_OF["KIEL"].lat0, REGION_OF["KIEL"].lon0)
    fine_n = aggregate(to_spark(spark, kiel_trips), grid)[0].count()
    coarse_n = aggregate(to_spark(spark, kiel_trips), coarse)[0].count()
    assert fine_n > coarse_n


def test_median_uses_training_positions(spark, kiel_cells):
    """Median node position lies inside the cell (data-driven projection)."""
    grid, df, _ = kiel_cells
    nodes = cell_stats(df).toPandas()
    cell_of_median = grid.to_cell(nodes["mlon"].to_numpy(), nodes["mlat"].to_numpy())
    # medians of per-cell samples stay in (or immediately beside) their cell
    hops = grid_distance(cell_of_median, nodes["cl"].to_numpy())
    assert (hops <= 1).all()

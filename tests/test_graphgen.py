"""Tests for phase 2 (cell/edge aggregation) — Spark vs the DuckDB oracle.

The paper implements this phase as a DuckDB CTE; we run it in Spark. The
oracle encodes the paper's CTE in DuckDB over the same input (with exact
distinct counts on both sides, since HLL sketches differ between engines)
and every aggregate must match row for row.
"""
import contextlib
import io
import re

import numpy as np
import pandas as pd
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from pyspark.errors import SparkRuntimeException
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
from repro.hexgrid.columns import grid_distance_col, to_cell_col
from repro.hexgrid.hex import EDGE_M, HexGrid, axial_frac, grid_distance, unpack
from repro.oracle import assert_equivalent


@pytest.fixture(scope="module")
def kiel_cells(spark, kiel_trips):
    """KIEL trips with cl/lag_cl assigned at r=8, small trips dropped."""
    grid = HexGrid(8, REGION_OF["KIEL"].lat0, REGION_OF["KIEL"].lon0)
    df = drop_small_trips(with_cells(to_spark(spark, kiel_trips), grid))
    pdf = df.toPandas()
    return grid, df, pdf


# --- cell assignment --------------------------------------------------------

def _kiel_grid(res: int) -> HexGrid:
    return HexGrid(res, REGION_OF["KIEL"].lat0, REGION_OF["KIEL"].lon0)


@pytest.fixture(scope="module")
def rounding_ties() -> tuple[np.ndarray, np.ndarray]:
    """Points whose fractional axial q is exactly ``+-(2**j + 0.5)`` with
    r = 0, on every resolution's grid: there rounding half to even picks
    the cell (half up would pick its neighbour). Each is searched among the
    doubles next to the inverse projection of its q."""
    lons = []
    for res in sorted(EDGE_M):
        g = _kiel_grid(res)
        found, m_per_deg = 0, g.project(g.lon0 + 1.0, g.lat0)[0]
        for h in [sign * (2.0**j + 0.5) for j in range(1, 19) for sign in (1, -1)]:
            guess = np.float64(g.lon0 + h * g.edge_m * np.sqrt(3.0) / m_per_deg)
            cand = (guess.view(np.int64) + np.arange(-8, 9)).view(np.float64)
            qf, _ = axial_frac(*g.project(cand, g.lat0), g.edge_m)
            hit = cand[(qf == h) & (np.abs(cand) <= 180.0)][:1]
            if hit.size:
                assert unpack(g.to_cell(hit, g.lat0))[1] == np.trunc(h)
                lons.append(hit[0])
                found += 1
        assert found >= 5, f"too few rounding ties at r={res}"
    return np.array(lons), np.full(len(lons), REGION_OF["KIEL"].lat0)


@given(pts=st.lists(
    st.tuples(st.floats(-180.0, 180.0), st.floats(-90.0, 90.0)), min_size=1, max_size=500,
))
@settings(max_examples=5, deadline=None)
def test_spark_cell_assignment_matches_driver(spark, kiel_trips, rounding_ties, pts):
    """The native cell expression gives HexGrid.to_cell's ids bit for bit
    at every resolution, on KIEL positions, on rounding ties and on random
    points, both when the driver folds it into a local relation and in
    generated code on the executors; grid_distance_col agrees with
    grid_distance on the pairs (point i, point i + 1)."""
    sample = kiel_trips.head(500)
    lon = np.concatenate([sample["lon"], rounding_ties[0], [p[0] for p in pts]])
    lat = np.concatenate([sample["lat"], rounding_ties[1], [p[1] for p in pts]])
    df = spark.createDataFrame(pd.DataFrame({"i": np.arange(lon.size), "lon": lon, "lat": lat}))
    cells = [
        to_cell_col(_kiel_grid(res), F.col("lon"), F.col("lat")).alias(str(res))
        for res in EDGE_M
    ]
    expect = {str(res): _kiel_grid(res).to_cell(lon, lat) for res in EDGE_M}
    for frame in (df, df.repartition(4)):
        got = frame.select("i", *cells).toPandas().sort_values("i")
        for res, ids in expect.items():
            assert (got[res].to_numpy() == ids).all(), res
    a = np.concatenate(list(expect.values()))
    b = np.concatenate([np.roll(ids, -1) for ids in expect.values()])
    pairs = spark.createDataFrame(pd.DataFrame({"i": np.arange(a.size), "a": a, "b": b}))
    got = (
        pairs.repartition(4)
        .select("i", grid_distance_col(F.col("a"), F.col("b")).alias("d"))
        .toPandas()
        .sort_values("i")
    )
    assert (got["d"].to_numpy() == grid_distance(a, b)).all()


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_aggregate_rejects_non_finite_position(spark, kiel_trips, bad):
    """A position without a cell fails the fit instead of joining some cell."""
    pdf = kiel_trips.head(200).copy()
    pdf.loc[pdf.index[50], "lon"] = bad
    nodes_df, _ = aggregate(to_spark(spark, pdf), _kiel_grid(9))
    with pytest.raises(SparkRuntimeException, match="has no cell"):
        nodes_df.collect()


def _exchanges(df) -> int:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        df.explain("formatted")
    return len(set(re.findall(r"(?<![A-Za-z])Exchange \((\d+)\)", buf.getvalue())))


def test_aggregate_plan_shuffles(spark, kiel_trips):
    """Each fit frame shuffles twice: by trip_id, which the lag window and
    the small-trip filter share, and by its own grouping key. A change that
    adds a shuffle to the fit fails here."""
    nodes_df, edges_df = aggregate(to_spark(spark, kiel_trips), _kiel_grid(9))
    assert _exchanges(nodes_df) + _exchanges(edges_df) == 4


def test_lag_cl_is_previous_cell_in_trip(kiel_cells):
    """with_cells assigns HexGrid.to_cell's cell and the trip's previous cell."""
    grid, _, pdf = kiel_cells
    expect = grid.to_cell(pdf["lon"].to_numpy(), pdf["lat"].to_numpy())
    assert (pdf["cl"].to_numpy() == expect).all()
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

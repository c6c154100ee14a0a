"""End-to-end tests of the HABIT facade on the synthetic KIEL corridor:
fit in Spark, impute gaps, batch inference equivalence, persistence."""
import os
import subprocess
import sys

import networkx as nx
import numpy as np
import pandas as pd
import pytest

from repro.ais.datasets import to_spark
from repro.ais.gaps import gaps_to_pandas
from repro.core import storage
from repro.core.habit import Habit
from repro.eval.metrics import evaluate_gaps, summarize
from repro.geo.dtw import dtw_m
from repro.geo.resample import densify


@pytest.fixture(scope="module")
def habit9(lab):
    return lab.habit("KIEL", 9, t=100.0)


@pytest.fixture(scope="module")
def kiel_gaps(lab):
    gaps = lab.gaps("KIEL")
    assert gaps, "test scale must yield at least one KIEL gap"
    return gaps


def test_fit_produces_nontrivial_graph(habit9):
    assert habit9.model.n_nodes > 200
    assert habit9.model.n_edges > 200


def test_impute_returns_path_between_endpoints(habit9, kiel_gaps):
    g = kiel_gaps[0]
    res = habit9.impute(g.start_lon, g.start_lat, g.end_lon, g.end_lat)
    assert res.lon[0] == pytest.approx(g.start_lon)
    assert res.lon[-1] == pytest.approx(g.end_lon)
    assert res.lon.size >= 2


def test_imputed_path_tracks_truth(habit9, kiel_gaps):
    """On the confined corridor the imputation stays within ~2 km DTW."""
    per_gap = evaluate_gaps(habit9.impute, kiel_gaps)
    assert float(per_gap["dtw_m"].median()) < 2000.0


def test_impute_rejects_non_finite_endpoint(habit9, kiel_gaps):
    """A NaN endpoint is refused, not snapped to the origin cell or node 0."""
    g = kiel_gaps[0]
    with pytest.raises(ValueError, match="non-finite"):
        habit9.impute(np.nan, g.start_lat, g.end_lon, g.end_lat)
    with pytest.raises(ValueError, match="non-finite"):
        habit9.impute(g.start_lon, g.start_lat, g.end_lon, np.nan)


def test_impute_deterministic(habit9, kiel_gaps):
    g = kiel_gaps[0]
    a = habit9.impute(g.start_lon, g.start_lat, g.end_lon, g.end_lat)
    b = habit9.impute(g.start_lon, g.start_lat, g.end_lon, g.end_lat)
    assert (a.lon == b.lon).all() and (a.lat == b.lat).all()


def test_simplification_reduces_points(lab, kiel_gaps):
    g = kiel_gaps[0]
    raw = lab.habit("KIEL", 10, t=0.0).impute(g.start_lon, g.start_lat, g.end_lon, g.end_lat)
    smooth = lab.habit("KIEL", 10, t=250.0).impute(g.start_lon, g.start_lat, g.end_lon, g.end_lat)
    assert smooth.lon.size <= raw.lon.size


def test_impute_with_ts_timestamps_monotone(habit9, kiel_gaps):
    g = kiel_gaps[0]
    pdf = habit9.impute_with_ts(
        g.start_lon, g.start_lat, g.start_ts, g.end_lon, g.end_lat, g.end_ts
    )
    assert pdf["ts"].iloc[0] == g.start_ts
    assert pdf["ts"].iloc[-1] == g.end_ts
    assert pdf["ts"].is_monotonic_increasing


def test_batch_spark_matches_driver(spark, habit9, kiel_gaps):
    """Distributed inference must equal the driver-side loop."""
    gaps_df = to_spark(spark, gaps_to_pandas(kiel_gaps))
    out = habit9.impute_batch_spark(spark, gaps_df).toPandas()
    for g in kiel_gaps:
        got = out[out["gap_id"] == g.gap_id].sort_values("seq")
        ref = habit9.impute(g.start_lon, g.start_lat, g.end_lon, g.end_lat)
        assert len(got) == ref.lon.size
        assert np.allclose(got["lon"].to_numpy(), ref.lon)
        assert np.allclose(got["lat"].to_numpy(), ref.lat)


def test_storage_save_load_roundtrip(tmp_path, habit9, kiel_gaps):
    storage.save(habit9.model, tmp_path / "m")
    loaded = storage.load(tmp_path / "m")
    assert loaded.grid == habit9.model.grid
    assert loaded.n_nodes == habit9.model.n_nodes
    assert loaded.n_edges == habit9.model.n_edges
    g = kiel_gaps[0]
    a = habit9.model.impute(g.start_lon, g.start_lat, g.end_lon, g.end_lat)
    b = loaded.impute(g.start_lon, g.start_lat, g.end_lon, g.end_lat)
    assert (a.lon == b.lon).all()


@pytest.mark.parametrize("name,res", [("KIEL", 9), ("SAR", 10)])
def test_cell_path_length_matches_networkx(lab, name, res):
    """NetworkX is the oracle: on every evaluation gap the BFS path has
    the fewest transitions, and no path exactly when NetworkX finds none."""
    model = lab.habit(name, res).model
    nodes, edges = storage.graph_tables(model)
    g = nx.DiGraph()
    g.add_nodes_from(nodes["cl"].tolist())
    g.add_edges_from(zip(edges["lag_cl"].tolist(), edges["cl"].tolist()))
    for gap in lab.gaps(name):
        s = model.snap(gap.start_lon, gap.start_lat)
        e = model.snap(gap.end_lon, gap.end_lat)
        path = model.cell_path(s, e)
        try:
            ref = nx.shortest_path_length(g, s, e)
        except nx.NetworkXNoPath:
            assert path is None
            continue
        assert path is not None and len(path) - 1 == ref
        assert path[0] == s and path[-1] == e
        assert all(g.has_edge(a, b) for a, b in zip(path[:-1], path[1:]))


def test_runtime_does_not_import_networkx():
    """NetworkX is a test-only oracle: the runtime modules never load it."""
    src = os.path.join(os.path.dirname(__file__), "..", "src")
    code = (
        "import sys, repro.core.habit, repro.core.storage, repro.baselines.gti; "
        "assert 'networkx' not in sys.modules"
    )
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    subprocess.run([sys.executable, "-c", code], env=env, check=True)


def test_storage_bytes_positive_and_matches_tables(habit9):
    n = habit9.storage_bytes()
    nodes, edges = storage.graph_tables(habit9.model)
    assert n == storage.parquet_bytes(nodes) + storage.parquet_bytes(edges)
    assert n > 1000


def test_storage_grows_with_resolution(lab):
    s8 = lab.habit("KIEL", 8).storage_bytes()
    s9 = lab.habit("KIEL", 9).storage_bytes()
    s10 = lab.habit("KIEL", 10).storage_bytes()
    assert s8 < s9 < s10


def test_median_projection_beats_center_at_coarse_res(lab, kiel_gaps):
    """The paper's Figure 3 claim: p='w' (median) <= p='c' (center) DTW
    at coarse resolutions."""
    dtw_w = summarize(evaluate_gaps(lab.habit("KIEL", 7, p="w").impute, kiel_gaps))
    dtw_c = summarize(evaluate_gaps(lab.habit("KIEL", 7, p="c").impute, kiel_gaps))
    assert dtw_w["dtw_median_m"] <= dtw_c["dtw_median_m"] * 1.1


def test_unfitted_facade_raises(kiel_gaps):
    h = Habit(res=9)
    g = kiel_gaps[0]
    with pytest.raises(AssertionError):
        h.impute(g.start_lon, g.start_lat, g.end_lon, g.end_lat)

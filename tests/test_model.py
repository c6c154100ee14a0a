"""Unit tests for HabitModel (BFS imputation, snapping, inverse projection)
on small hand-built graphs."""
import networkx as nx
import numpy as np
import pandas as pd
import pytest

from repro.core import storage
from repro.core.graphgen import build_graph
from repro.core.model import HabitModel
from repro.hexgrid.hex import HexGrid, grid_distance

GRID = HexGrid(8, 56.0, 11.5)


def _nodes(cells, lons, lats, cnt=10, nves=2):
    return pd.DataFrame(
        {"cl": cells, "cnt": cnt, "nves": nves, "mlon": lons, "mlat": lats}
    ).astype({"cl": "int64", "cnt": "int64", "nves": "int64", "mlon": "float64", "mlat": "float64"})


def _edges(pairs):
    return pd.DataFrame(
        {
            "lag_cl": [a for a, _ in pairs],
            "cl": [b for _, b in pairs],
            "transitions": 1,
            "gdist": [int(grid_distance(a, b)) for a, b in pairs],
        }
    ).astype("int64")


def _chain_tables(lons, lats):
    """Node and edge tables of a directed chain of cells following the
    given coordinates."""
    cells = [int(GRID.to_cell(lo, la)) for lo, la in zip(lons, lats)]
    return cells, _nodes(cells, lons, lats), _edges(list(zip(cells[:-1], cells[1:])))


def _oracle(model):
    """NetworkX DiGraph of a model, built from its persisted tables."""
    nodes, edges = storage.graph_tables(model)
    g = nx.DiGraph()
    g.add_nodes_from(nodes["cl"].tolist())
    g.add_edges_from(zip(edges["lag_cl"].tolist(), edges["cl"].tolist()))
    return g


LONS = np.round(np.linspace(10.0, 10.5, 12), 4)
LATS = np.round(55.0 + 0.05 * np.sin(np.linspace(0, 3, 12)), 4)


@pytest.fixture()
def chain_model():
    cells, nodes, edges = _chain_tables(LONS, LATS)
    return cells, HabitModel(grid=GRID, graph=build_graph(nodes, edges))


# --- snapping ---------------------------------------------------------------

def test_snap_inside_node_cell(chain_model):
    cells, model = chain_model
    assert model.snap(LONS[3], LATS[3]) == cells[3]


def test_snap_outside_returns_nearest(chain_model):
    cells, model = chain_model
    # a point ~20 km south of the chain snaps to the nearest chain node
    # (by projected distance to the node medians)
    probe_lon, probe_lat = LONS[5], LATS[5] - 0.2
    node = model.snap(probe_lon, probe_lat)
    assert node in cells
    px, py = GRID.project(probe_lon, probe_lat)
    nx_, ny_ = GRID.project(LONS, LATS)
    expect = cells[int(np.argmin((nx_ - px) ** 2 + (ny_ - py) ** 2))]
    assert node == expect


def test_snap_empty_model_raises():
    empty = build_graph(_nodes([], [], []), _edges([]))
    model = HabitModel(grid=GRID, graph=empty)
    with pytest.raises(ValueError):
        model.snap(10.0, 55.0)


# --- path search ------------------------------------------------------------

def test_cell_path_follows_chain(chain_model):
    cells, model = chain_model
    path = model.cell_path(cells[0], cells[-1])
    assert path == cells


def test_cell_path_same_node(chain_model):
    cells, model = chain_model
    assert model.cell_path(cells[4], cells[4]) == [cells[4]]


def test_cell_path_respects_direction(chain_model):
    cells, model = chain_model
    # the chain is directed forward only
    assert model.cell_path(cells[-1], cells[0]) is None


def test_cell_path_matches_networkx_shortest(chain_model):
    cells, model = chain_model
    expect = nx.shortest_path(_oracle(model), cells[0], cells[-1])
    assert model.cell_path(cells[0], cells[-1]) == expect


def test_cell_path_minimizes_transitions():
    """The search must take the fewer-hop branch, matching the paper's
    objective."""
    lons_a = [10.0, 10.1, 10.2, 10.3]
    lats_a = [55.0, 55.0, 55.0, 55.0]
    cells_a, nodes, edges = _chain_tables(lons_a, lats_a)
    # add a longer detour between the same endpoints
    detour_lons = [10.0, 10.05, 10.1, 10.15, 10.2, 10.25, 10.3]
    detour_lats = [55.0, 55.08, 55.1, 55.12, 55.1, 55.08, 55.0]
    dcells = [int(GRID.to_cell(lo, la)) for lo, la in zip(detour_lons, detour_lats)]
    nodes = pd.concat(
        [nodes, _nodes(dcells[1:-1], detour_lons[1:-1], detour_lats[1:-1], cnt=1, nves=1)]
    )
    pairs = [(a, b) for a, b in zip(dcells[:-1], dcells[1:]) if a != b]
    model = HabitModel(grid=GRID, graph=build_graph(nodes, pd.concat([edges, _edges(pairs)])))
    path = model.cell_path(cells_a[0], cells_a[-1])
    assert path == cells_a  # 3 hops beats the ~6-hop detour


def test_cell_path_tie_breaks_on_ascending_id(tmp_path):
    """Of two equally short paths the search takes the one through the
    lower cell id, whatever the table order, also after save -> load."""
    lons = [10.0, 10.1, 10.1, 10.2]
    lats = [55.0, 55.05, 54.95, 55.0]
    s, n, so, t = (int(GRID.to_cell(lo, la)) for lo, la in zip(lons, lats))
    lo_mid, hi_mid = sorted((n, so))
    nodes = _nodes([t, so, n, s], lons[::-1], lats[::-1])
    for pairs in ([(s, hi_mid), (hi_mid, t), (s, lo_mid), (lo_mid, t)],
                  [(lo_mid, t), (s, lo_mid), (hi_mid, t), (s, hi_mid)]):
        model = HabitModel(grid=GRID, graph=build_graph(nodes, _edges(pairs)))
        assert model.cell_path(s, t) == [s, lo_mid, t]
        storage.save(model, tmp_path / "m")
        assert storage.load(tmp_path / "m").cell_path(s, t) == [s, lo_mid, t]


# --- inverse projection -----------------------------------------------------

def test_project_cells_median(chain_model):
    cells, model = chain_model
    lon, lat = model.project_cells(cells[:3], p="w")
    assert lon == pytest.approx(LONS[:3])
    assert lat == pytest.approx(LATS[:3])


def test_project_cells_center(chain_model):
    cells, model = chain_model
    lon, lat = model.project_cells(cells[:3], p="c")
    exp_lon, exp_lat = GRID.cell_center(np.asarray(cells[:3]))
    assert lon == pytest.approx(exp_lon)
    assert lat == pytest.approx(exp_lat)


def test_project_cells_bad_option(chain_model):
    cells, model = chain_model
    with pytest.raises(ValueError):
        model.project_cells(cells[:2], p="x")


def test_median_projection_differs_from_center(chain_model):
    cells, model = chain_model
    wlon, _ = model.project_cells(cells, p="w")
    clon, _ = model.project_cells(cells, p="c")
    assert not np.allclose(wlon, clon)


# --- impute -----------------------------------------------------------------

def test_impute_endpoints_preserved(chain_model):
    cells, model = chain_model
    res = model.impute(LONS[0], LATS[0], LONS[-1], LATS[-1])
    assert res.lon[0] == LONS[0] and res.lon[-1] == LONS[-1]
    assert not res.fallback


def test_impute_visits_intermediate_cells(chain_model):
    cells, model = chain_model
    res = model.impute(LONS[0], LATS[0], LONS[-1], LATS[-1])
    assert res.lon.size >= len(cells) - 2


def test_impute_fallback_on_disconnection(chain_model):
    cells, model = chain_model
    res = model.impute(LONS[-1], LATS[-1], LONS[0], LATS[0])  # against direction
    assert res.fallback
    assert res.lon.size == 2


def test_impute_dedupes_consecutive_positions(chain_model):
    cells, model = chain_model
    # endpoints exactly on node medians: first/last projected cell collapses
    res = model.impute(LONS[0], LATS[0], LONS[-1], LATS[-1])
    d = np.hypot(np.diff(res.lon), np.diff(res.lat))
    assert (d > 0).all()


def test_properties(chain_model):
    cells, model = chain_model
    assert model.n_nodes == len(cells)
    assert model.n_edges == len(cells) - 1

"""Unit + property tests for the hex grid substrate (H3 substitute)."""
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.geo.geodesy import haversine_m
from repro.hexgrid.hex import (
    EDGE_M,
    NEIGHBOR_OFFSETS,
    HexGrid,
    cell_res,
    grid_distance,
    pack,
    unpack,
)

GRID = HexGrid(9, 56.0, 11.5)

lons = st.floats(min_value=8.5, max_value=14.5)
lats = st.floats(min_value=53.5, max_value=58.5)


# --- packing ---------------------------------------------------------------

@pytest.mark.parametrize("res", sorted(EDGE_M))
def test_pack_unpack_roundtrip(res):
    q = np.array([0, 1, -1, 1000, -1000, 2**20])
    r = np.array([0, -1, 1, -1000, 1000, -(2**20)])
    res_out, q_out, r_out = unpack(pack(res, q, r))
    assert (res_out == res).all()
    assert (q_out == q).all()
    assert (r_out == r).all()


def test_pack_scalar_roundtrip():
    cell = pack(7, 12, -34)
    res, q, r = unpack(int(cell))
    assert (int(res), int(q), int(r)) == (7, 12, -34)


def test_pack_out_of_range_raises():
    with pytest.raises(ValueError):
        pack(9, 2**28, 0)


def test_cell_res_matches_grid():
    c = GRID.to_cell(11.5, 56.0)
    assert int(cell_res(c)) == 9


@pytest.mark.parametrize("res", [6, 7, 8, 9, 10])
def test_resolutions_give_distinct_cells(res):
    g = HexGrid(res, 56.0, 11.5)
    c = g.to_cell(np.array([11.5]), np.array([56.0]))
    assert int(cell_res(c[0])) == res


# --- geometry --------------------------------------------------------------

@given(lon=lons, lat=lats)
@settings(max_examples=200, deadline=None)
def test_roundtrip_within_circumradius(lon, lat):
    """point -> cell -> center is never farther than one edge length (the
    hexagon circumradius), modulo small projection curvature."""
    c = GRID.to_cell(lon, lat)
    clon, clat = GRID.cell_center(c)
    d = float(haversine_m(lon, lat, clon, clat))
    assert d <= EDGE_M[9] * 1.10


@given(lon=lons, lat=lats, res=st.sampled_from([6, 7, 8, 9, 10]))
@settings(max_examples=100, deadline=None)
def test_roundtrip_all_resolutions(lon, lat, res):
    g = HexGrid(res, 56.0, 11.5)
    c = g.to_cell(lon, lat)
    clon, clat = g.cell_center(c)
    assert float(haversine_m(lon, lat, clon, clat)) <= EDGE_M[res] * 1.10


@given(lon=lons, lat=lats)
@settings(max_examples=100, deadline=None)
def test_center_maps_to_same_cell(lon, lat):
    c = GRID.to_cell(lon, lat)
    clon, clat = GRID.cell_center(c)
    assert int(GRID.to_cell(clon, clat)) == int(c)


def test_projection_roundtrip():
    x, y = GRID.project(11.9, 56.3)
    lon, lat = GRID.unproject(x, y)
    assert abs(float(lon) - 11.9) < 1e-9
    assert abs(float(lat) - 56.3) < 1e-9


def test_projection_scale_is_metric():
    # 0.01 degree of latitude is ~1111.9 m in any equirectangular projection.
    _, y1 = GRID.project(11.5, 56.0)
    _, y2 = GRID.project(11.5, 56.01)
    assert abs((float(y2) - float(y1)) - 1111.95) < 1.0


@pytest.mark.parametrize(
    "lon,lat", [(np.nan, 56.0), (np.inf, 56.0), (11.5, -np.inf), ([11.5, np.nan], [56.0, 56.0])]
)
def test_to_cell_rejects_non_finite(lon, lat):
    """A non-finite coordinate has no cell; it must not alias the origin."""
    with pytest.raises(ValueError, match="non-finite"):
        GRID.to_cell(lon, lat)


def test_vectorized_matches_scalar():
    lon = np.array([10.0, 11.0, 12.0])
    lat = np.array([55.0, 56.0, 57.0])
    cells = GRID.to_cell(lon, lat)
    for i in range(3):
        assert int(GRID.to_cell(lon[i], lat[i])) == int(cells[i])


# --- grid distance ---------------------------------------------------------

def test_grid_distance_identity():
    c = int(GRID.to_cell(11.5, 56.0))
    assert int(grid_distance(c, c)) == 0


def test_grid_distance_symmetry():
    a = int(GRID.to_cell(11.5, 56.0))
    b = int(GRID.to_cell(11.9, 56.4))
    assert int(grid_distance(a, b)) == int(grid_distance(b, a))


@given(
    lon1=lons, lat1=lats, lon2=lons, lat2=lats, lon3=lons, lat3=lats
)
@settings(max_examples=100, deadline=None)
def test_grid_distance_triangle_inequality(lon1, lat1, lon2, lat2, lon3, lat3):
    a = int(GRID.to_cell(lon1, lat1))
    b = int(GRID.to_cell(lon2, lat2))
    c = int(GRID.to_cell(lon3, lat3))
    assert grid_distance(a, c) <= grid_distance(a, b) + grid_distance(b, c)


def test_grid_distance_neighbors_is_one():
    c = int(GRID.to_cell(11.5, 56.0))
    for n in GRID.neighbors(c):
        assert int(grid_distance(c, n)) == 1


def test_grid_distance_tracks_metric_distance():
    """Hex hops x center spacing approximates the great-circle distance."""
    a = int(GRID.to_cell(10.16, 54.33))
    b = int(GRID.to_cell(11.85, 57.60))
    hops = int(grid_distance(a, b))
    spacing = np.sqrt(3.0) * EDGE_M[9]  # center-to-center distance
    metric = float(haversine_m(10.16, 54.33, 11.85, 57.60))
    assert hops * spacing == pytest.approx(metric, rel=0.15)


# --- neighborhoods ---------------------------------------------------------

def test_neighbors_count_and_uniqueness():
    c = int(GRID.to_cell(11.5, 56.0))
    nbrs = GRID.neighbors(c)
    assert len(nbrs) == 6
    assert len(set(nbrs)) == 6
    assert c not in nbrs


def test_neighbor_offsets_sum_to_zero():
    assert sum(dq for dq, _ in NEIGHBOR_OFFSETS) == 0
    assert sum(dr for _, dr in NEIGHBOR_OFFSETS) == 0


@pytest.mark.parametrize("k,expected", [(0, 1), (1, 7), (2, 19), (3, 37)])
def test_k_ring_size(k, expected):
    """|k_ring| = 1 + 3k(k+1)."""
    c = int(GRID.to_cell(11.5, 56.0))
    ring = GRID.k_ring(c, k)
    assert len(ring) == expected
    assert len(set(ring)) == expected


def test_k_ring_distances_bounded():
    c = int(GRID.to_cell(11.5, 56.0))
    for cell in GRID.k_ring(c, 3):
        assert int(grid_distance(c, cell)) <= 3


def test_k_ring_contains_all_cells_within_k():
    c = int(GRID.to_cell(11.5, 56.0))
    ring2 = set(GRID.k_ring(c, 2))
    for n in GRID.neighbors(c):
        assert n in ring2
        for nn in GRID.neighbors(n):
            assert nn in ring2


# --- tessellation ----------------------------------------------------------

def test_tessellation_no_point_unassigned():
    rng = np.random.default_rng(0)
    lon = rng.uniform(9, 14, 500)
    lat = rng.uniform(54, 58, 500)
    cells = GRID.to_cell(lon, lat)
    assert cells.shape == (500,)
    assert (cells > 0).all()


def test_nearby_points_share_cell():
    base = GRID.to_cell(11.5, 56.0)
    # 10 m east: far below the 174 m edge at res 9 -> usually same cell;
    # at minimum adjacent.
    near = GRID.to_cell(11.5 + 10.0 / 62000.0, 56.0)
    assert int(grid_distance(base, near)) <= 1


def test_distinct_anchors_give_distinct_ids():
    g1 = HexGrid(9, 56.0, 11.5)
    g2 = HexGrid(9, 37.7, 23.5)
    c1 = int(g1.to_cell(11.5, 56.0))
    c2 = int(g2.to_cell(11.5, 56.0))
    # ids are anchor-relative; same physical point, different axial coords.
    assert c1 != c2

"""Phase 3 — trajectory imputation (paper §3.3).

A :class:`HabitModel` holds the cell graph plus its grid parameters and
answers imputation queries:

1. project gap endpoints to hex cells; if a cell is not a graph node,
   nearest-neighbor snap to the closest node (by projected distance to the
   nodes' median positions);
2. breadth-first search (BFS) over the transition graph: with unit cost per
   transition it finds a path with the fewest transitions. Neighbours are
   visited in ascending cell id, so ties between equally short paths break
   the same way on every run;
3. inverse projection of the cell path to coordinates — parameter
   ``p='c'`` uses geometric cell centers, ``p='w'`` the data-driven per-cell
   median position (the paper's information-loss mitigation, Figure 2);
4. if the endpoints are not connected in the graph, fall back to the
   straight line (flagged in the result).
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.core.graphgen import CellGraph
from repro.geo.geodesy import haversine_m
from repro.graph import nearest
from repro.hexgrid.hex import HexGrid


@dataclass
class ImputedPath:
    """Result of one imputation query: coordinates incl. both endpoints."""

    lon: np.ndarray
    lat: np.ndarray
    fallback: bool  # True when the graph gave no path and SLI was used


@dataclass
class HabitModel:
    """Fitted HABIT framework: hex grid + weighted cell-transition graph."""

    grid: HexGrid
    graph: CellGraph
    _node_x: np.ndarray = field(init=False, repr=False)
    _node_y: np.ndarray = field(init=False, repr=False)
    _indptr: list[int] = field(init=False, repr=False)
    _dst: list[int] = field(init=False, repr=False)

    def __post_init__(self) -> None:
        self._node_x, self._node_y = self.grid.project(self.graph.mlon, self.graph.mlat)
        # The search steps one node at a time; Python lists index faster than
        # numpy arrays there.
        self._indptr = self.graph.indptr.tolist()
        self._dst = self.graph.dst.tolist()

    # -- queries ------------------------------------------------------------
    def snap(self, lon: float, lat: float) -> int:
        """Graph node for a point: its own cell, else the nearest node."""
        cell = int(self.grid.to_cell(lon, lat))
        if self.graph.locate(cell) >= 0:
            return cell
        if self.n_nodes == 0:
            raise ValueError("empty model: no graph nodes")
        x, y = self.grid.project(lon, lat)
        return int(self.graph.ids[nearest(self._node_x, self._node_y, x, y)])

    def cell_path(self, s_node: int, e_node: int) -> list[int] | None:
        """Minimum-transition cell sequence from ``s_node`` to ``e_node``.

        BFS over the CSR adjacency, neighbours in ascending cell id. Returns
        None when no directed path exists or an endpoint is not a node.
        """
        s, e = self.graph.locate([s_node, e_node]).tolist()
        if s < 0 or e < 0:
            return None
        indptr, dst = self._indptr, self._dst
        prev = {s: s}
        queue = [s]
        for u in queue:  # the loop reaches the nodes appended below: FIFO
            if u == e:
                path = [e]
                while path[-1] != s:
                    path.append(prev[path[-1]])
                return self.graph.ids[path[::-1]].tolist()
            for v in dst[indptr[u]:indptr[u + 1]]:
                if v not in prev:
                    prev[v] = u
                    queue.append(v)
        return None

    def project_cells(self, cells: list[int], p: str = "w") -> tuple[np.ndarray, np.ndarray]:
        """Inverse projection of a cell sequence to lon/lat (§3.3, Fig. 2)."""
        if p == "c":
            return self.grid.cell_center(np.asarray(cells, dtype=np.int64))
        if p != "w":
            raise ValueError(f"unknown projection option {p!r} (use 'c' or 'w')")
        i = self.graph.locate(cells)
        if (i < 0).any():
            raise KeyError(f"cells not in the graph: {np.asarray(cells)[i < 0].tolist()}")
        return self.graph.mlon[i], self.graph.mlat[i]

    def impute(
        self,
        start_lon: float,
        start_lat: float,
        end_lon: float,
        end_lat: float,
        *,
        p: str = "w",
    ) -> ImputedPath:
        """Impute the gap between two endpoints; simplification is separate
        (:mod:`repro.core.simplify`), matching the paper's phase split."""
        s_node = self.snap(start_lon, start_lat)
        e_node = self.snap(end_lon, end_lat)
        cells = self.cell_path(s_node, e_node)
        if cells is None:
            return ImputedPath(
                lon=np.array([start_lon, end_lon]),
                lat=np.array([start_lat, end_lat]),
                fallback=True,
            )
        mid_lon, mid_lat = self.project_cells(cells, p=p)
        lon = np.concatenate([[start_lon], mid_lon, [end_lon]])
        lat = np.concatenate([[start_lat], mid_lat, [end_lat]])
        # Drop near-duplicate consecutive vertices (endpoint may sit on the
        # first/last cell's representative position). The true endpoints must
        # survive: when the tail duplicates, the preceding interior vertex is
        # dropped instead.
        if lon.size > 2:
            d = haversine_m(lon[:-1], lat[:-1], lon[1:], lat[1:])
            keep = np.concatenate([[True], d > 1.0])
            if not keep[-1]:
                keep[-2] = False
                keep[-1] = True
            lon, lat = lon[keep], lat[keep]
        return ImputedPath(lon=lon, lat=lat, fallback=False)

    # -- introspection ------------------------------------------------------
    @property
    def n_nodes(self) -> int:
        return int(self.graph.ids.size)

    @property
    def n_edges(self) -> int:
        return int(self.graph.dst.size)

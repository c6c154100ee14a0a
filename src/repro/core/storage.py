"""Model persistence and storage accounting (paper Table 2).

A fitted HABIT model is exactly its node and edge tables plus three grid
parameters; both frameworks (HABIT and the GTI baseline) are persisted as
parquet so the Table 2 storage comparison uses one common, compressed
columnar format. ``storage_bytes`` of a model = total parquet bytes.
"""
from __future__ import annotations

import io
import json
from pathlib import Path

import numpy as np
import pandas as pd

from repro.core.graphgen import build_graph
from repro.core.model import HabitModel
from repro.hexgrid.hex import HexGrid


def graph_tables(model: HabitModel) -> tuple[pd.DataFrame, pd.DataFrame]:
    """Node/edge tables of a fitted model (inverse of ``build_graph``),
    sorted by ``cl`` and by ``(lag_cl, cl)``."""
    g = model.graph
    nodes = pd.DataFrame(
        {"cl": g.ids, "cnt": g.cnt, "nves": g.nves, "mlon": g.mlon, "mlat": g.mlat}
    )
    edges = pd.DataFrame(
        {
            "lag_cl": np.repeat(g.ids, np.diff(g.indptr)),
            "cl": g.ids[g.dst],
            "transitions": g.transitions,
            "gdist": g.gdist,
        }
    )
    return nodes, edges


def parquet_bytes(pdf: pd.DataFrame) -> int:
    """Size of a frame serialized as parquet (in memory)."""
    buf = io.BytesIO()
    pdf.to_parquet(buf, index=False)
    return buf.getbuffer().nbytes


def storage_bytes(model: HabitModel) -> int:
    """Total persisted size of the model in bytes (Table 2 metric)."""
    nodes, edges = graph_tables(model)
    return parquet_bytes(nodes) + parquet_bytes(edges)


def save(model: HabitModel, path: str | Path) -> None:
    """Persist a model to ``path`` (nodes.parquet, edges.parquet, grid.json)."""
    path = Path(path)
    path.mkdir(parents=True, exist_ok=True)
    nodes, edges = graph_tables(model)
    nodes.to_parquet(path / "nodes.parquet", index=False)
    edges.to_parquet(path / "edges.parquet", index=False)
    grid = model.grid
    (path / "grid.json").write_text(
        json.dumps({"res": grid.res, "lat0": grid.lat0, "lon0": grid.lon0})
    )


def load(path: str | Path) -> HabitModel:
    """Load a model persisted with :func:`save`."""
    path = Path(path)
    nodes = pd.read_parquet(path / "nodes.parquet")
    edges = pd.read_parquet(path / "edges.parquet")
    meta = json.loads((path / "grid.json").read_text())
    return HabitModel(grid=HexGrid(**meta), graph=build_graph(nodes, edges))

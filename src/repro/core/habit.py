"""HABIT facade: fit on preprocessed trips, answer imputation queries.

``Habit.fit`` runs the distributed §3.2 aggregation and assembles the model;
``impute`` answers one gap query (BFS + inverse projection + RDP);
``impute_with_ts`` adds timestamps interpolated along the imputed path;
``impute_batch_spark`` runs ``impute_with_ts`` over a whole gap table on the
cluster, with the fitted framework broadcast to executors — the
batch-inference path for the Spark deployment.
"""
from __future__ import annotations

from typing import Iterator

import numpy as np
import pandas as pd
from pyspark.sql import DataFrame, SparkSession

from repro.core.graphgen import aggregate, build_graph
from repro.core.model import HabitModel, ImputedPath
from repro.core.simplify import simplify_path
from repro.core.storage import storage_bytes
from repro.geo.geodesy import haversine_m
from repro.hexgrid.hex import HexGrid
from repro.spark import collect


class Habit:
    """The configurable HABIT framework (parameters r, p, t of the paper)."""

    def __init__(self, *, res: int, p: str = "w", t: float = 100.0, exact: bool = False):
        self.res = res
        self.p = p
        self.t = t
        self.exact = exact
        self.model: HabitModel | None = None

    # -- construction -------------------------------------------------------
    def fit(self, trips_df: DataFrame, *, lat0: float, lon0: float) -> "Habit":
        """Aggregate preprocessed trips (Spark) and build the cell graph."""
        grid = HexGrid(self.res, lat0, lon0)
        nodes_pdf, edges_pdf = collect(*aggregate(trips_df, grid, exact=self.exact))
        self.model = HabitModel(grid=grid, graph=build_graph(nodes_pdf, edges_pdf))
        return self

    # -- inference ----------------------------------------------------------
    def impute(
        self,
        start_lon: float,
        start_lat: float,
        end_lon: float,
        end_lat: float,
    ) -> ImputedPath:
        """Impute one gap: graph path, inverse projection p, RDP tolerance t."""
        assert self.model is not None, "call fit() first"
        path = self.model.impute(start_lon, start_lat, end_lon, end_lat, p=self.p)
        lon, lat = simplify_path(path.lon, path.lat, self.t)
        return ImputedPath(lon=lon, lat=lat, fallback=path.fallback)

    def impute_with_ts(
        self,
        start_lon: float,
        start_lat: float,
        start_ts: pd.Timestamp,
        end_lon: float,
        end_lat: float,
        end_ts: pd.Timestamp,
    ) -> pd.DataFrame:
        """Imputed points with timestamps distributed by along-path distance."""
        res = self.impute(start_lon, start_lat, end_lon, end_lat)
        lon, lat = res.lon, res.lat
        seg = haversine_m(lon[:-1], lat[:-1], lon[1:], lat[1:])
        cum = np.concatenate([[0.0], np.cumsum(seg)])
        frac = cum / cum[-1] if cum[-1] > 0 else np.linspace(0.0, 1.0, lon.size)
        span = (end_ts - start_ts).total_seconds()
        # millisecond precision: keeps Arrow's ns->us timestamp cast exact
        ts = start_ts + pd.to_timedelta(np.round(frac * span, 3), unit="s")
        return pd.DataFrame({"lon": lon, "lat": lat, "ts": ts, "fallback": res.fallback})

    def impute_batch_spark(self, spark: SparkSession, gaps_df: DataFrame) -> DataFrame:
        """Distribute :meth:`impute_with_ts` over a gap table (schema of
        ``repro.ais.gaps.gaps_to_pandas``); the fitted framework is broadcast.

        Returns one row per imputed point: gap_id, seq, lon, lat, ts.
        """
        assert self.model is not None, "call fit() first"
        bc = spark.sparkContext.broadcast(self)

        def run(batches: Iterator[pd.DataFrame]) -> Iterator[pd.DataFrame]:
            habit: Habit = bc.value
            for pdf in batches:
                out = []
                for row in pdf.itertuples(index=False):
                    pts = habit.impute_with_ts(
                        row.start_lon, row.start_lat, row.start_ts,
                        row.end_lon, row.end_lat, row.end_ts,
                    )
                    pts.insert(0, "gap_id", row.gap_id)
                    pts.insert(1, "seq", np.arange(len(pts), dtype=np.int64))
                    out.append(pts.drop(columns="fallback"))
                if out:
                    yield pd.concat(out, ignore_index=True)

        schema = "gap_id string, seq long, lon double, lat double, ts timestamp"
        return gaps_df.mapInPandas(run, schema=schema)

    # -- introspection ------------------------------------------------------
    def storage_bytes(self) -> int:
        """Persisted model size (Table 2 metric)."""
        assert self.model is not None, "call fit() first"
        return storage_bytes(self.model)

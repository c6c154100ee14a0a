"""Benchmark inputs: the paper-table datasets and distinct gap pools.

The datasets are the synthetic DAN / SAR sets at sf=1 with their fixed
generator seeds, i.e. the inputs behind EXPERIMENTS.md. ``--seed`` picks the
gaps: the pool for seed ``s`` is ``make_gaps`` at seeds ``s, s + STRIDE, ...``
over the test trips, with repeated endpoints dropped, so every query in a run
is a distinct gap and the first set is ``make_gaps(seed=s)`` itself.
"""
from __future__ import annotations

import dataclasses

import pandas as pd

from repro.ais.gaps import Gap, make_gaps, split_trips

#: Distance between the make_gaps seeds of one pool; larger than any seed
#: the benchmark is run with, so pools of nearby seeds do not share sets.
STRIDE = 100_003


def gap_seeds(seed: int, n_sets: int) -> list[int]:
    return [seed + k * STRIDE for k in range(n_sets)]


def gap_pool(test_trips: pd.DataFrame, seed: int, n_sets: int) -> list[list[Gap]]:
    """``n_sets`` gap sets for ``seed``; no two gaps share both endpoints.

    Each gap id is suffixed with its make_gaps seed, so ids are unique
    across the pool. Set 0 is ``make_gaps(test_trips, seed=seed)``.
    """
    seen: set[tuple] = set()
    pool = []
    for s in gap_seeds(seed, n_sets):
        kept = []
        for g in make_gaps(test_trips, seed=s):
            key = (g.start_lon, g.start_lat, g.start_ts, g.end_lon, g.end_lat, g.end_ts)
            if key in seen:
                continue
            seen.add(key)
            kept.append(dataclasses.replace(g, gap_id=f"{g.gap_id}@{s}"))
        pool.append(kept)
    return pool


def train_test(trips: pd.DataFrame) -> tuple[pd.DataFrame, pd.DataFrame]:
    """The deterministic 70/30 trip split the paper tables use."""
    trips = trips.sort_values(["trip_id", "ts"]).reset_index(drop=True)
    train_ids, test_ids = split_trips(trips["trip_id"].unique())
    return (
        trips[trips["trip_id"].isin(train_ids)].reset_index(drop=True),
        trips[trips["trip_id"].isin(test_ids)].reset_index(drop=True),
    )

"""Accuracy evaluation: DTW between imputed and ground-truth gap segments.

Per the paper's §4.1: imputed paths are densified so consecutive positions
are at most 250 m apart before DTW is computed; we apply the same
densification to the ground truth so sparse AIS sampling does not dominate
the alignment.
"""
from __future__ import annotations

import time
from typing import Callable

import pandas as pd

from repro.ais.gaps import Gap
from repro.core.model import ImputedPath
from repro.geo.dtw import dtw_m
from repro.geo.resample import densify

#: Max spacing before DTW, meters (paper §4.1).
DTW_SPACING_M = 250.0

ImputeFn = Callable[[float, float, float, float], ImputedPath]


def evaluate_gaps(impute_fn: ImputeFn, gaps: list[Gap]) -> pd.DataFrame:
    """Run ``impute_fn`` over every gap; score DTW and wall-clock latency.

    Returns one row per gap: ``gap_id, dtw_m, secs, fallback, n_points``.
    Latency covers the full query (path search + reconstruction), matching
    the paper's "including its simplification and reconstruction cost".
    """
    rows = []
    for g in gaps:
        t0 = time.perf_counter()
        res = impute_fn(g.start_lon, g.start_lat, g.end_lon, g.end_lat)
        secs = time.perf_counter() - t0
        ilon, ilat = densify(res.lon, res.lat, DTW_SPACING_M)
        tlon, tlat = densify(g.truth_lon, g.truth_lat, DTW_SPACING_M)
        rows.append(
            {
                "gap_id": g.gap_id,
                "dtw_m": dtw_m(ilon, ilat, tlon, tlat),
                "secs": secs,
                "fallback": bool(res.fallback),
                "n_points": int(res.lon.size),
            }
        )
    return pd.DataFrame(rows)


def summarize(per_gap: pd.DataFrame) -> dict:
    """Mean/median DTW and avg/max latency over a gap set."""
    return {
        "n_gaps": int(len(per_gap)),
        "dtw_mean_m": float(per_gap["dtw_m"].mean()),
        "dtw_median_m": float(per_gap["dtw_m"].median()),
        "lat_avg_s": float(per_gap["secs"].mean()),
        "lat_max_s": float(per_gap["secs"].max()),
        "fallback_frac": float(per_gap["fallback"].mean()),
    }


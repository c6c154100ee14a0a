"""Tests for the benchmark's own helpers.

Run with ``python -m pytest perfbench -q -p no:cacheprovider`` from the
repository root; they need no Spark session.
"""
from __future__ import annotations

import sys
from pathlib import Path

import numpy as np
import pandas as pd
import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT), str(ROOT / "src")]

from perfbench.inputs import STRIDE, gap_pool, gap_seeds  # noqa: E402
from perfbench.tracing import (  # noqa: E402
    Span,
    Tracer,
    covered,
    self_times,
    tail_percentile,
)
from repro.ais.gaps import make_gaps  # noqa: E402


# --- the "highest percentile with >= 10 samples beyond it" rule -------------

@pytest.mark.parametrize(
    "n, expect",
    [(10, None), (5, None), (11, 9.0), (20, 50.0), (100, 90.0), (199, 94.0), (200, 95.0),
     (236, 95.0), (1000, 99.0), (1001, 99.0)],
)
def test_tail_percentile(n, expect):
    assert tail_percentile(n) == expect


@pytest.mark.parametrize("n", [11, 57, 100, 183, 236, 999, 5000])
def test_tail_percentile_leaves_ten_beyond_and_is_highest(n):
    p = tail_percentile(n)
    assert n * (1 - p / 100) >= 10 - 1e-9
    assert n * (1 - (p + 1) / 100) < 10


# --- span self time ---------------------------------------------------------

def test_covered_merges_overlaps_and_clips():
    assert covered([], 0, 10) == 0
    assert covered([(1, 3), (2, 5), (7, 8)], 0, 10) == 5
    assert covered([(-5, 2), (9, 20)], 0, 10) == 3
    assert covered([(4, 4), (6, 5)], 0, 10) == 0


def test_self_time_subtracts_children_once():
    spans = [
        Span(0, "fit", "f", None, 0.0, 10.0),
        Span(1, "a", "f", 0, 1.0, 4.0),
        Span(2, "b", "f", 0, 3.0, 6.0),  # overlaps a: covered 1..6
        Span(3, "c", "f", 1, 2.0, 3.0),  # grandchild: not subtracted from fit
    ]
    st = self_times(spans)
    assert st == {0: 5.0, 1: 2.0, 2: 3.0, 3: 1.0}


def test_tracer_nests_and_disabled_records_nothing():
    tr = Tracer()
    with tr.span("outer", "g1"):
        with tr.span("inner", "g1"):
            pass
    outer, inner = tr.spans
    assert inner.parent == outer.sid and outer.parent is None
    assert outer.start <= inner.start <= inner.end <= outer.end
    assert tr.self_times()[outer.sid] == pytest.approx(outer.dur - inner.dur)
    assert tr.durations("inner") == [inner.dur]
    off = Tracer(enabled=False)
    with off.span("x") as sp:
        pass
    assert sp is None and off.spans == []


# --- distinct gap pools ----------------------------------------------------

@pytest.fixture(scope="module")
def trips():
    """Three straight synthetic trips, 2-minute reports over 3 hours."""
    rows = []
    for k in range(3):
        ts = pd.date_range("2024-01-01", periods=90, freq="2min")
        rows.append(
            pd.DataFrame(
                {
                    "trip_id": f"T{k}",
                    "ts": ts,
                    "lon": 10.0 + k + np.linspace(0, 0.5, 90),
                    "lat": 55.0 + np.linspace(0, 0.2, 90),
                }
            )
        )
    return pd.concat(rows, ignore_index=True)


def test_gap_pool_is_deterministic_and_distinct(trips):
    a = gap_pool(trips, seed=5, n_sets=4)
    b = gap_pool(trips, seed=5, n_sets=4)
    assert [[g.gap_id for g in s] for s in a] == [[g.gap_id for g in s] for s in b]
    flat = [g for s in a for g in s]
    assert len({g.gap_id for g in flat}) == len(flat)
    ends = {(g.start_lon, g.start_lat, g.end_lon, g.end_lat) for g in flat}
    assert len(ends) == len(flat)


def test_gap_pool_set0_is_make_gaps_at_the_seed(trips):
    pool = gap_pool(trips, seed=42, n_sets=2)
    ref = make_gaps(trips, seed=42)
    assert [g.start_ts for g in pool[0]] == [g.start_ts for g in ref]
    assert [g.gap_id.split("@")[0] for g in pool[0]] == [g.gap_id for g in ref]
    assert gap_seeds(42, 3) == [42, 42 + STRIDE, 42 + 2 * STRIDE]


def test_gap_pool_drops_repeated_endpoints(trips):
    # One trip just long enough for a single gap position: every seed
    # places the gap identically, so only the first set keeps it.
    short = trips[trips["trip_id"] == "T0"].iloc[:42]
    pool = gap_pool(short, seed=1, n_sets=3)
    assert [len(s) for s in pool] == [1, 0, 0]


# --- BENCHMARK.json matches what run.py prints -------------------------------

def test_benchmark_json_lists_the_printed_metrics():
    import json

    from perfbench import workloads

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WHY)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == workloads.E2E_UNITS
    assert {m["name"]: (m["unit"], m["better"]) for m in spec["per_layer"]} == {
        k: v[:2] for k, v in workloads.LAYERS.items()
    }
    assert "setup_s" in workloads.E2E_UNITS

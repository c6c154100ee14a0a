"""Tests for the accuracy/latency evaluation harness and the SLI baseline."""
import numpy as np
import pandas as pd
import pytest

from repro.ais.gaps import Gap
from repro.baselines.sli import sli_impute
from repro.eval.metrics import evaluate_gaps, summarize


def _gap(curved: bool) -> Gap:
    n = 30
    lon = np.linspace(10.0, 10.6, n)
    lat = np.full(n, 55.0) if not curved else 55.0 + 0.15 * np.sin(np.linspace(0, np.pi, n))
    return Gap(
        gap_id="g1" if curved else "g0",
        trip_id="t",
        start_lon=float(lon[0]),
        start_lat=float(lat[0]),
        start_ts=pd.Timestamp("2024-01-01 10:00"),
        end_lon=float(lon[-1]),
        end_lat=float(lat[-1]),
        end_ts=pd.Timestamp("2024-01-01 11:00"),
        truth_lon=lon,
        truth_lat=lat,
    )


# --- SLI ---------------------------------------------------------------------

def test_sli_straight_segment():
    res = sli_impute(10.0, 55.0, 11.0, 56.0)
    assert res.lon.tolist() == [10.0, 11.0]
    assert res.lat.tolist() == [55.0, 56.0]
    assert not res.fallback


def test_sli_perfect_on_straight_gap():
    # the 250 m DTW densification imposes a ~spacing/4 alignment floor even
    # for geometrically identical paths; stay well under one spacing
    per_gap = evaluate_gaps(lambda a, b, c, d: sli_impute(a, b, c, d), [_gap(False)])
    assert float(per_gap["dtw_m"].iloc[0]) < 125.0


def test_sli_fails_on_curved_gap():
    """SLI cannot capture turning points (the paper's motivation for HABIT)."""
    per_gap = evaluate_gaps(lambda a, b, c, d: sli_impute(a, b, c, d), [_gap(True)])
    assert float(per_gap["dtw_m"].iloc[0]) > 3000.0


# --- evaluate_gaps ----------------------------------------------------------

def test_evaluate_gaps_schema():
    per_gap = evaluate_gaps(lambda a, b, c, d: sli_impute(a, b, c, d), [_gap(False), _gap(True)])
    assert list(per_gap.columns) == ["gap_id", "dtw_m", "secs", "fallback", "n_points"]
    assert len(per_gap) == 2
    assert (per_gap["secs"] >= 0).all()


def test_perfect_imputation_scores_near_zero():
    g = _gap(True)

    def oracle_impute(a, b, c, d):
        from repro.core.model import ImputedPath

        return ImputedPath(lon=g.truth_lon, lat=g.truth_lat, fallback=False)

    per_gap = evaluate_gaps(oracle_impute, [g])
    assert float(per_gap["dtw_m"].iloc[0]) < 1.0


def test_summarize_fields():
    per_gap = evaluate_gaps(lambda a, b, c, d: sli_impute(a, b, c, d), [_gap(False), _gap(True)])
    s = summarize(per_gap)
    assert s["n_gaps"] == 2
    assert s["dtw_mean_m"] >= s["dtw_median_m"] or s["dtw_mean_m"] == pytest.approx(
        s["dtw_median_m"]
    )
    assert 0.0 <= s["fallback_frac"] <= 1.0
    assert s["lat_max_s"] >= s["lat_avg_s"]

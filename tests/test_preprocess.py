"""Tests for phase 1 (cleaning + trip segmentation) on Spark.

Includes an independent pandas reference implementation of the segmentation
semantics; the Spark window pipeline must reproduce it exactly on real
synthetic data.
"""
import numpy as np
import pandas as pd
import pytest
from pyspark.sql import functions as F

from repro.ais.datasets import to_spark
from repro.core.preprocess import clean, preprocess, segment_trips
from repro.geo.geodesy import KNOT_MS, haversine_m
from tests.test_graphgen import _exchanges


def _mk(spark, rows):
    pdf = pd.DataFrame(rows, columns=["vessel_id", "vtype", "ts", "lon", "lat", "sog", "cog"])
    pdf["ts"] = pd.to_datetime(pdf["ts"])
    return to_spark(spark, pdf)


T = pd.Timestamp("2024-03-01 10:00:00")


def _row(v, minutes, lon, lat, sog):
    return (v, "Passenger", T + pd.Timedelta(minutes=minutes), lon, lat, sog, 0.0)


# --- cleaning --------------------------------------------------------------

def test_clean_drops_invalid_coordinates(spark):
    df = _mk(
        spark,
        [_row("A", 0, 10.0, 55.0, 12.0), _row("A", 1, 999.0, 55.0, 12.0), _row("A", 2, 10.1, 55.0, 12.0)],
    )
    assert clean(df).count() == 2


def test_clean_drops_absurd_sog(spark):
    df = _mk(spark, [_row("A", 0, 10.0, 55.0, 12.0), _row("A", 1, 10.0, 55.0, 120.0)])
    assert clean(df).count() == 1


def test_clean_deduplicates_vessel_ts(spark):
    r = _row("A", 0, 10.0, 55.0, 12.0)
    df = _mk(spark, [r, r, _row("A", 1, 10.01, 55.0, 12.0)])
    assert clean(df).count() == 2


def test_clean_removes_spike(spark):
    # 4 reports 1 min apart moving ~500 m each; third displaced by 20 km.
    rows = [
        _row("A", 0, 10.00, 55.00, 12.0),
        _row("A", 1, 10.01, 55.00, 12.0),
        _row("A", 2, 10.02, 55.18, 12.0),  # spike: ~20 km off in 60 s
        _row("A", 3, 10.03, 55.00, 12.0),
    ]
    out = clean(_mk(spark, rows)).toPandas()
    assert len(out) == 3
    assert not np.isclose(out["lat"], 55.18).any()


def test_clean_keeps_genuine_fast_leg(spark):
    # Consistent 25 kn motion must survive the spike filter.
    step = 25 * KNOT_MS * 60 / 111_195  # degrees lat per minute at 25 kn
    rows = [_row("A", m, 10.0, 55.0 + m * step, 25.0) for m in range(5)]
    assert clean(_mk(spark, rows)).count() == 5


def test_clean_keeps_vessels_independent(spark):
    rows = [_row("A", 0, 10.0, 55.0, 12.0), _row("B", 0, 11.0, 56.0, 8.0)]
    out = clean(_mk(spark, rows)).toPandas()
    assert set(out["vessel_id"]) == {"A", "B"}


# --- segmentation ----------------------------------------------------------

def _moving_leg(v, start_min, n, lon0=10.0):
    return [_row(v, start_min + i, lon0 + 0.01 * i, 55.0, 12.0) for i in range(n)]


def test_segment_single_trip(spark):
    df = _mk(spark, _moving_leg("A", 0, 10))
    out = segment_trips(df).toPandas()
    assert out["trip_id"].nunique() == 1
    assert len(out) == 10


def test_segment_splits_on_stop(spark):
    rows = (
        _moving_leg("A", 0, 8)
        + [_row("A", 9 + i, 10.08, 55.0, 0.1) for i in range(5)]  # stopped
        + _moving_leg("A", 15, 8, lon0=10.2)
    )
    out = segment_trips(_mk(spark, rows)).toPandas()
    assert out["trip_id"].nunique() == 2
    assert (out["sog"] >= 0.5).all(), "stationary points excluded from trips"


def test_segment_splits_on_gap(spark):
    rows = _moving_leg("A", 0, 8) + _moving_leg("A", 45, 8, lon0=10.5)  # 37-min silence
    out = segment_trips(_mk(spark, rows)).toPandas()
    assert out["trip_id"].nunique() == 2


def test_segment_keeps_short_gap(spark):
    rows = _moving_leg("A", 0, 8) + _moving_leg("A", 28, 8, lon0=10.2)  # 20-min silence
    out = segment_trips(_mk(spark, rows)).toPandas()
    assert out["trip_id"].nunique() == 1


def test_segment_drops_tiny_trips(spark):
    rows = _moving_leg("A", 0, 3)  # below min_points=5
    assert segment_trips(_mk(spark, rows)).count() == 0


def test_segment_min_points_configurable(spark):
    rows = _moving_leg("A", 0, 3)
    assert segment_trips(_mk(spark, rows), min_points=3).count() == 3


def test_segment_trip_ids_unique_per_vessel(spark):
    rows = _moving_leg("A", 0, 6) + _moving_leg("B", 0, 6)
    out = segment_trips(_mk(spark, rows)).toPandas()
    trips = out.groupby("trip_id")["vessel_id"].nunique()
    assert (trips == 1).all()
    assert out["trip_id"].nunique() == 2


# --- pandas reference mirror ------------------------------------------------

def _reference_segment(pdf: pd.DataFrame, stop_kn=0.5, gap_min=30.0, min_points=5):
    """Independent segmentation semantics in pandas."""
    out = []
    for v, g in pdf.sort_values(["vessel_id", "ts"]).groupby("vessel_id"):
        g = g.copy()
        g["stopped"] = g["sog"] < stop_kn
        g["stop_cum"] = g["stopped"].cumsum()
        m = g[~g["stopped"]].copy()
        if m.empty:
            continue
        dt = m["ts"].diff().dt.total_seconds()
        stop_between = m["stop_cum"].diff().fillna(0) > 0
        new_trip = dt.isna() | (dt > gap_min * 60) | stop_between
        m["trip_id"] = v + "#" + new_trip.cumsum().astype(str)
        out.append(m)
    res = pd.concat(out, ignore_index=True)
    sizes = res.groupby("trip_id")["ts"].transform("size")
    return res[sizes >= min_points].drop(columns=["stopped", "stop_cum"])


def test_segmentation_matches_reference_on_kiel(spark, lab):
    raw = lab.raw("KIEL")
    spark_out = preprocess(to_spark(spark, raw)).toPandas()
    ref = _reference_segment(_reference_clean(raw))
    # Compare the partition structure: same points grouped the same way.
    key = ["vessel_id", "ts"]
    s = spark_out.sort_values(key).reset_index(drop=True)
    r = ref.sort_values(key).reset_index(drop=True)
    assert len(s) == len(r)
    assert (s["ts"].to_numpy() == r["ts"].to_numpy()).all()
    # trip ids are formatted the same way by both implementations
    assert (s["trip_id"].to_numpy() == r["trip_id"].to_numpy()).all()


def _reference_clean(pdf: pd.DataFrame, max_sog=80.0, spike_kn=60.0):
    """Independent cleaning semantics in pandas."""
    pdf = pdf[
        pdf["lon"].between(-180, 180)
        & pdf["lat"].between(-90, 90)
        & pdf["sog"].between(0, max_sog)
    ]
    pdf = pdf.drop_duplicates(["vessel_id", "ts"])
    keep = []
    for _, g in pdf.sort_values(["vessel_id", "ts"]).groupby("vessel_id"):
        lon, lat = g["lon"].to_numpy(), g["lat"].to_numpy()
        ts = g["ts"].astype("int64").to_numpy() / 1e9
        n = len(g)
        spike = np.zeros(n, dtype=bool)
        if n >= 3:
            d_prev = haversine_m(lon[1:-1], lat[1:-1], lon[:-2], lat[:-2])
            d_next = haversine_m(lon[1:-1], lat[1:-1], lon[2:], lat[2:])
            v_prev = d_prev / np.maximum(ts[1:-1] - ts[:-2], 1.0) / KNOT_MS
            v_next = d_next / np.maximum(ts[2:] - ts[1:-1], 1.0) / KNOT_MS
            spike[1:-1] = (v_prev > spike_kn) & (v_next > spike_kn)
        keep.append(g[~spike])
    return pd.concat(keep, ignore_index=True)


def test_clean_matches_reference_on_kiel(spark, lab):
    raw = lab.raw("KIEL")
    spark_out = clean(to_spark(spark, raw)).toPandas()
    ref = _reference_clean(raw)
    key = ["vessel_id", "ts"]
    s = spark_out.sort_values(key).reset_index(drop=True)
    r = ref.sort_values(key).reset_index(drop=True)
    assert len(s) == len(r)
    assert np.allclose(s["lon"].to_numpy(), r["lon"].to_numpy())


# --- end-to-end over synthetic datasets -------------------------------------

@pytest.mark.parametrize("name", ["KIEL", "SAR"])
def test_preprocess_removes_all_injected_noise(spark, lab, name):
    trips = lab.trips_pdf(name)
    assert trips["lon"].between(-180, 180).all()
    assert (trips["sog"] >= 0.5).all()
    dup = trips.duplicated(["vessel_id", "ts"]).sum()
    assert dup == 0


def test_preprocess_produces_multiple_trips(lab):
    trips = lab.trips_pdf("KIEL")
    assert trips["trip_id"].nunique() >= 4


def test_trips_never_contain_long_silence(lab):
    trips = lab.trips_pdf("KIEL")
    for _, g in trips.groupby("trip_id"):
        dt = g["ts"].diff().dt.total_seconds().dropna()
        if len(dt):
            assert dt.max() <= 30 * 60


def test_preprocess_plan_shuffles(spark, lab):
    """Every step of phase 1 is keyed within one vessel, so the whole phase
    shuffles once, by vessel_id. A change that adds a shuffle fails here."""
    assert _exchanges(preprocess(to_spark(spark, lab.raw("KIEL")))) == 1

"""Integration tests: the table harnesses produce the paper's rows and the
qualitative shapes the paper reports (at test scale)."""
import copy

import numpy as np
import pandas as pd
import pytest

from repro.eval import tables
from repro.eval.metrics import evaluate_gaps, summarize
from repro.eval.tables import (
    fig3_projection,
    fig5_accuracy,
    fig7_gap_durations,
    format_table,
    table1,
    table2,
    table3,
    table4,
)


@pytest.fixture(scope="module")
def t1(lab):
    return table1(lab)


@pytest.fixture(scope="module")
def t2(lab):
    # only the cheap HABIT sweep configs plus two GTI configs at test scale
    return table2(lab, names=("KIEL",))


def test_table1_rows_and_columns(t1):
    assert list(t1["Dataset"]) == ["DAN", "KIEL", "SAR"]
    assert list(t1.columns) == ["Dataset", "Type", "Size (MB)", "Positions", "Trips", "Ships"]
    assert (t1["Positions"] > 1000).all()
    assert (t1["Trips"] > 3).all()


def test_table1_ships_match_scenarios(t1):
    by = t1.set_index("Dataset")
    assert by.loc["KIEL", "Ships"] == 2
    assert by.loc["DAN", "Ships"] <= 16
    assert by.loc["SAR", "Ships"] > 20
    assert by.loc["SAR", "Type"] == "All"


def test_table2_shape(t2):
    assert list(t2.columns) == ["Method", "Configuration", "KIEL"]
    assert (t2[t2["Method"] == "HABIT"]["Configuration"] == [f"r = {r}" for r in range(6, 11)]).all()
    assert len(t2[t2["Method"] == "GTI"]) == 3


def test_table2_habit_grows_with_resolution(t2):
    habit = t2[t2["Method"] == "HABIT"]["KIEL"].to_numpy()
    assert (np.diff(habit) > 0).all()


def test_table2_gti_grows_with_rd(t2):
    gti = t2[t2["Method"] == "GTI"]["KIEL"].to_numpy()
    assert gti[-1] > gti[0]


def test_table2_gti_larger_than_habit(t2):
    """The paper's headline: GTI models are far larger than HABIT's."""
    habit_max = t2[t2["Method"] == "HABIT"]["KIEL"].max()
    gti_min = t2[t2["Method"] == "GTI"]["KIEL"].min()
    assert gti_min > habit_max * 0.5  # even the smallest GTI rivals max HABIT


def test_table3_rows(lab):
    t3 = table3(lab, name="DAN", res_sweep=(9,), tolerances=(0.0, 250.0, 1000.0))
    assert len(t3) == 4  # 3 tolerances + Original row
    assert (t3.columns == ["r", "t", "cnt", "avg_rot", "max_rot", "gt45"]).all()


def test_table3_simplification_monotone(lab):
    t3 = table3(lab, name="DAN", res_sweep=(9,), tolerances=(0.0, 250.0, 1000.0))
    sweep = t3[t3["t"] >= 0].sort_values("t")
    cnt = sweep["cnt"].to_numpy()
    assert (np.diff(cnt) <= 0).all(), "higher tolerance → fewer positions"
    gt45 = sweep["gt45"].to_numpy()
    assert gt45[-1] <= gt45[0], "higher tolerance → fewer abrupt turns"


def test_table4_shape_and_latency(lab):
    t4 = table4(lab, names=("KIEL",))
    assert set(t4["Method"]) == {"HABIT", "GTI"}
    assert (t4["Avg"] > 0).all()
    assert (t4["Max"] >= t4["Avg"]).all()
    # HABIT stays sub-second at test scale
    habit = t4[t4["Method"] == "HABIT"]
    assert (habit["Avg"] < 1.0).all()


def test_fig5_accuracy_contains_all_methods(lab):
    f5 = fig5_accuracy(lab, names=("KIEL",))
    assert {"SLI", "HABIT", "GTI"} == set(f5["Method"])
    assert (f5["dtw_mean_m"] > 0).all()


def test_fig7_durations(lab):
    f7 = fig7_gap_durations(lab, names=("KIEL",), durations=(60.0, 120.0))
    assert set(f7["gap_min"]) <= {60, 120}
    assert (f7["n_gaps"] > 0).all()


def test_format_table_renders(t1):
    s = format_table(t1)
    assert "Dataset" in s and "KIEL" in s
    # fractions keep 3 decimals whatever the section's float format
    s = format_table(pd.DataFrame({"dtw_m": [1.25], "fallback_frac": [0.0763]}), "{:.1f}")
    assert s.splitlines()[1].split() == ["1.2", "0.076"]


@pytest.fixture
def fresh_lab(lab):
    """The session lab's data and fitted models, with an empty score cache."""
    fresh = copy.copy(lab)
    fresh._scores = {}
    return fresh


def test_each_configuration_scored_once(fresh_lab, monkeypatch):
    calls = []

    def counting(impute, gaps):
        calls.append(impute)
        return evaluate_gaps(impute, gaps)

    monkeypatch.setattr(tables, "evaluate_gaps", counting)
    names = ("KIEL",)
    table4(fresh_lab, names=names)
    fig5_accuracy(fresh_lab, names=names)
    fig7_gap_durations(fresh_lab, names=names, durations=(60.0,))
    n_configs = len(tables.HABIT_LATENCY_CONFIGS) + len(tables.GTI_RD_SWEEP)
    assert len(calls) == n_configs + 1  # + SLI


def test_score_key_separates_p_and_t(fresh_lab):
    """Configurations that differ only in p (Fig 3) or t (Fig 5) get their
    own scores, each equal to a fresh evaluation of that configuration."""
    f3 = fig3_projection(fresh_lab, name="KIEL", res_sweep=(9,)).set_index("p")
    assert f3.loc["c", "dtw_mean_m"] != f3.loc["w", "dtw_mean_m"]
    for p in ("c", "w"):
        cached = summarize(fresh_lab.scores("KIEL", "HABIT", (9, p, 100.0)))
        assert f3.loc[p, "dtw_mean_m"] == cached["dtw_mean_m"]

    f5 = fig5_accuracy(fresh_lab, names=("KIEL",)).set_index("Configuration")
    gaps = fresh_lab.gaps("KIEL")
    for t in (100.0, 250.0):
        s = summarize(evaluate_gaps(fresh_lab.habit("KIEL", 9, t=t).impute, gaps))
        row = f5.loc[f"r = 9, t = {int(t)}"]
        for col in ("dtw_mean_m", "dtw_median_m", "fallback_frac"):
            assert row[col] == s[col]

"""Tests for the shared Spark helpers: concurrent collection of frames."""
import time

from pyspark.sql import functions as F

from repro.ais.datasets import REGION_OF, to_spark
from repro.core.graphgen import aggregate, build_graph
from repro.core.habit import Habit
from repro.core.model import HabitModel
from repro.core.storage import graph_tables
from repro.hexgrid.hex import HexGrid
from repro.spark import collect


def test_collect_returns_argument_order(spark):
    """Results come back in argument order, not in order of completion:
    the first frame is the slowest."""

    @F.udf("long")
    def slow(x):
        time.sleep(1.0)
        return x

    frames = [spark.range(1).select(slow("id").alias("v"))] + [
        spark.range(i, i + 1).select(F.col("id").alias("v")) for i in (1, 2)
    ]
    got = collect(*frames)
    assert [pdf["v"].tolist() for pdf in got] == [[0], [1], [2]]


def test_fit_jobs_run_in_the_callers_job_group(spark, lab):
    """Every job Habit.fit starts from collect's threads carries the caller's
    job group, so job-group accounting and cancellation cover the fit."""
    train, _ = lab.train_test("KIEL")
    region = REGION_OF["KIEL"]
    sc = spark.sparkContext
    st = sc.statusTracker()
    ungrouped = set(st.getJobIdsForGroup(None))
    sc.setJobGroup("test-collect-fit", "Habit.fit")
    try:
        Habit(res=9).fit(to_spark(spark, train), lat0=region.lat0, lon0=region.lon0)
    finally:
        sc.setLocalProperty("spark.jobGroup.id", None)
        sc.setLocalProperty("spark.job.description", None)
    assert len(st.getJobIdsForGroup("test-collect-fit")) >= 2
    assert not set(st.getJobIdsForGroup(None)) - ungrouped


def test_fit_equals_serial_collect(spark, lab):
    """Habit.fit's concurrently collected model equals the graph built from
    the aggregate frames collected one after another."""
    train, _ = lab.train_test("KIEL")
    region = REGION_OF["KIEL"]
    grid = HexGrid(9, region.lat0, region.lon0)
    for exact in (False, True):
        fitted = Habit(res=9, exact=exact).fit(
            to_spark(spark, train), lat0=region.lat0, lon0=region.lon0
        )
        nodes_df, edges_df = aggregate(to_spark(spark, train), grid, exact=exact)
        serial = HabitModel(grid=grid, graph=build_graph(nodes_df.toPandas(), edges_df.toPandas()))
        for a, b in zip(graph_tables(fitted.model), graph_tables(serial)):
            assert a.equals(b), exact

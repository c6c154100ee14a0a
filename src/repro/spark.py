"""The local SparkSession bootstrap shared by the tests and the jobs.

``spark.driver.memory`` is read when the JVM launches, not from SparkConf, so
it goes into ``PYSPARK_SUBMIT_ARGS`` before the first session starts. ``src``
goes on ``PYTHONPATH`` for the same reason: Spark's Python workers are forked
by the JVM and see its environment, not the driver's ``sys.path``.

:func:`collect` brings several frames to the driver as concurrent jobs.
"""
from __future__ import annotations

import os
from concurrent.futures import ThreadPoolExecutor

import pandas as pd
from pyspark.sql import DataFrame, SparkSession
from pyspark.util import inheritable_thread_target

SRC = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def driver_mem() -> str:
    """``SPARK_DRIVER_MEM`` if set, else 75% of the cgroup (v2, then v1)
    memory limit, else 8g. The cgroup read is best-effort: a sandbox may not
    pass the host limit through, and an unbounded value (v2's ``max``, v1's
    ~9.2e18 sentinel) counts as no limit."""
    if m := os.environ.get("SPARK_DRIVER_MEM"):
        return m
    for path in ("/sys/fs/cgroup/memory.max", "/sys/fs/cgroup/memory/memory.limit_in_bytes"):
        try:
            with open(path) as f:
                gib = int(f.read()) / (1 << 30)
        except (OSError, ValueError):
            continue
        if 1 <= gib <= 1024:
            return f"{max(1, int(gib * 0.75))}g"
    return "8g"


def bootstrap() -> None:
    """Put ``src`` first on ``PYTHONPATH`` and, unless already set, set
    ``PYSPARK_SUBMIT_ARGS``. Has no effect on a JVM that already runs."""
    paths = [SRC] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]
    os.environ["PYTHONPATH"] = os.pathsep.join(dict.fromkeys(paths))
    os.environ.setdefault(
        "PYSPARK_SUBMIT_ARGS",
        f"--master {os.environ.get('SPARK_MASTER', 'local[*]')} "
        f"--driver-memory {driver_mem()} "
        "--conf spark.driver.host=127.0.0.1 --conf spark.ui.enabled=false pyspark-shell",
    )


def session(app: str) -> SparkSession:
    """The local SparkSession: 64 shuffle partitions, Arrow on, broadcast
    joins off so the aggregations exercise real shuffles."""
    bootstrap()
    return (
        SparkSession.builder.appName(app)
        .config("spark.sql.shuffle.partitions", os.environ.get("SPARK_SHUFFLE_PARTITIONS", "64"))
        .config("spark.sql.execution.arrow.pyspark.enabled", "true")
        .config("spark.sql.autoBroadcastJoinThreshold", -1)
        .getOrCreate()
    )


def collect(*frames: DataFrame) -> list[pd.DataFrame]:
    """``toPandas()`` of each frame, run as concurrent Spark jobs; results in
    argument order.

    Small post-shuffle stages run as one to three tasks after adaptive
    coalescing, so jobs submitted one after another leave most cores idle;
    submitted together, the scheduler runs their tasks side by side. Each
    job's thread takes the caller's job group, description and other local
    properties; each job is wrapped on its own, so no two threads share one
    copy of them.
    """
    jobs = [inheritable_thread_target(df.sparkSession)(df.toPandas) for df in frames]
    with ThreadPoolExecutor(max_workers=len(jobs)) as pool:
        return list(pool.map(lambda job: job(), jobs))

"""Shared spark-submit bootstrap for the table jobs.

Each job builds its own SparkSession (mirroring conftest's configuration),
runs one table harness at bench scale (sf=1.0 unless overridden via
``REPRO_SF``), prints the table, and exits.

``spark.driver.memory`` is read at JVM launch, not from SparkConf, so it is
injected via ``PYSPARK_SUBMIT_ARGS`` *before* pyspark is imported — exactly
as the test conftest does. For the same reason ``src`` goes on
``PYTHONPATH`` here: Spark's Python workers are forked by the JVM and see
its environment, not the driver's ``sys.path``.
"""
from __future__ import annotations

import os
import sys

SRC = os.path.abspath(os.path.join(os.path.dirname(__file__), "..", "src"))
sys.path.insert(0, SRC)
os.environ["PYTHONPATH"] = os.pathsep.join(
    [SRC] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]
)

os.environ.setdefault("SPARK_DRIVER_MEM", "8g")
os.environ.setdefault(
    "PYSPARK_SUBMIT_ARGS",
    f"--master {os.environ.get('SPARK_MASTER', 'local[*]')} "
    f"--driver-memory {os.environ['SPARK_DRIVER_MEM']} "
    "--conf spark.driver.host=127.0.0.1 "
    "--conf spark.ui.enabled=false "
    "pyspark-shell",
)

from pyspark.sql import SparkSession  # noqa: E402


def get_spark(app: str) -> SparkSession:
    """Local SparkSession configured like the test fixture."""
    return (
        SparkSession.builder.appName(app)
        .config("spark.sql.shuffle.partitions", os.environ.get("SPARK_SHUFFLE_PARTITIONS", "64"))
        .config("spark.sql.execution.arrow.pyspark.enabled", "true")
        .config("spark.sql.autoBroadcastJoinThreshold", -1)
        .getOrCreate()
    )


def bench_sf() -> float:
    """Bench-scale factor (1.0), overridable with REPRO_SF."""
    return float(os.environ.get("REPRO_SF", "1.0"))

"""The benchmark's own Spark session and the counters read from outside it.

The session config is owned here, not imported from ``jobs/_common``, so a
later change to the jobs' bootstrap does not change what the benchmark
measures. It matches ``jobs/_common.get_spark``: 64 shuffle partitions,
Arrow on, broadcast joins off. Master is ``local[k]`` with k <= 4 cores.

Counters come from Spark's public surfaces only: a job group is set around
each layer call and its stages and tasks are read back from the
``StatusTracker``; Exchange nodes are counted in ``explain("formatted")``.
"""
from __future__ import annotations

import contextlib
import io
import os
import re
import subprocess
import tempfile
from dataclasses import dataclass

CONF = {
    "spark.sql.shuffle.partitions": "64",
    "spark.sql.execution.arrow.pyspark.enabled": "true",
    "spark.sql.autoBroadcastJoinThreshold": "-1",
    "spark.ui.enabled": "false",
    "spark.driver.host": "127.0.0.1",
}
DRIVER_MEM = "4g"


def cores() -> int:
    return max(1, min(4, os.cpu_count() or 1))


def start(src_dir: str, scratch: str):
    """Start a local SparkSession whose Python workers can import ``repro``.

    The workers are forked by the JVM, which passes its environment on, so
    ``src`` must be on ``PYTHONPATH`` before the JVM starts; putting it on
    the driver's ``sys.path`` alone leaves the workers with
    ``ModuleNotFoundError: No module named 'repro'``. Spark's scratch files
    and the JVM's temp dir are kept under ``scratch``.
    """
    tmp = os.path.join(scratch, "tmp")
    os.makedirs(tmp, exist_ok=True)
    paths = [src_dir] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]
    os.environ["PYTHONPATH"] = os.pathsep.join(dict.fromkeys(paths))
    os.environ["TMPDIR"] = tmp
    tempfile.tempdir = tmp  # in case gettempdir() already cached /tmp
    # No hsperfdata: a JVM writes it to /tmp whatever its tmpdir is. The
    # launcher JVM that spark-submit runs first takes SPARK_LAUNCHER_OPTS.
    os.environ["SPARK_LAUNCHER_OPTS"] = "-XX:-UsePerfData"
    os.environ["PYSPARK_SUBMIT_ARGS"] = (
        f"--master local[{cores()}] --driver-memory {DRIVER_MEM} "
        f"--driver-java-options '-Djava.io.tmpdir={tmp} -XX:-UsePerfData' pyspark-shell"
    )
    from pyspark.sql import SparkSession

    b = SparkSession.builder.appName("perfbench").config("spark.local.dir", tmp)
    for k, v in CONF.items():
        b = b.config(k, v)
    spark = b.getOrCreate()
    spark.sparkContext.setLogLevel("ERROR")
    return spark


def stop(spark) -> None:
    """Stop the session and wait for the JVM to exit.

    ``SparkSession.stop`` leaves the JVM running until the Python process
    ends; the JVM exits when its stdin closes, so close it and wait.
    """
    gateway = spark.sparkContext._gateway
    proc = getattr(gateway, "proc", None)
    spark.stop()
    gateway.shutdown()
    if proc is not None:
        proc.stdin.close()
        try:
            proc.wait(timeout=60)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()


@dataclass
class JobCounts:
    stages: int = 0
    tasks: int = 0
    failed_tasks: int = 0


class JobGroups:
    """Tags each layer call with its own job group and counts its work."""

    def __init__(self, spark):
        self.sc = spark.sparkContext
        self._n = 0

    @contextlib.contextmanager
    def group(self, name: str):
        self._n += 1
        gid = f"perfbench-{self._n}-{name}"
        self.sc.setJobGroup(gid, name)
        counts = JobCounts()
        try:
            yield counts
        finally:
            # SparkContext has no clearJobGroup in PySpark; a null local
            # property removes the group.
            self.sc.setLocalProperty("spark.jobGroup.id", None)
            self.sc.setLocalProperty("spark.job.description", None)
            self._fill(gid, counts)

    def _fill(self, gid: str, counts: JobCounts) -> None:
        st = self.sc.statusTracker()
        stages = set()
        for jid in st.getJobIdsForGroup(gid):
            info = st.getJobInfo(jid)
            if info is None:
                continue
            stages.update(info.stageIds)
        for sid in stages:
            info = st.getStageInfo(sid)
            # Stages skipped because their shuffle output was reused ran no
            # tasks; they are not counted.
            if info is None or info.numCompletedTasks + info.numFailedTasks == 0:
                continue
            counts.stages += 1
            counts.tasks += info.numCompletedTasks
            counts.failed_tasks += info.numFailedTasks


_EXCHANGE = re.compile(r"(?<![A-Za-z])Exchange \((\d+)\)")


def count_exchanges(df) -> int:
    """Distinct ``Exchange`` operators in the formatted physical plan."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        df.explain(mode="formatted")
    return len(set(_EXCHANGE.findall(buf.getvalue())))

"""Benchmark fixtures: a shared Lab at bench scale.

``REPRO_BENCH_SF`` (default 0.25) keeps the benchmark suite's model builds
bounded; the full-scale (sf=1.0) numbers recorded in EXPERIMENTS.md come
from ``jobs/run_all.py``. Model builds happen once per session via the
Lab cache, so the benchmark timers measure the table/query work itself.
"""
import os

import pytest

from repro.eval.tables import Lab


@pytest.fixture(scope="session")
def blab(spark) -> Lab:
    return Lab(spark, sf=float(os.environ.get("REPRO_BENCH_SF", "0.25")))

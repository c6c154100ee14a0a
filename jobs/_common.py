"""Shared bootstrap for the table jobs: puts ``src`` on ``sys.path`` and,
through :func:`repro.spark.bootstrap`, on the Spark workers' ``PYTHONPATH``.
Each job runs one table harness at bench scale (sf=1.0, or ``REPRO_SF``).
"""
from __future__ import annotations

import os
import sys

sys.path.insert(0, os.path.abspath(os.path.join(os.path.dirname(__file__), "..", "src")))

from repro.spark import bootstrap, session as get_spark  # noqa: E402,F401

bootstrap()


def bench_sf() -> float:
    """Bench-scale factor (1.0), overridable with REPRO_SF."""
    return float(os.environ.get("REPRO_SF", "1.0"))

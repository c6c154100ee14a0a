"""Run the table/figure harnesses at bench scale in one Spark session.

Sharing one ``Lab`` lets the harnesses reuse dataset builds, model fits and
per-gap scores (e.g., Table 4's scores also serve Figures 5 and 7). Output of
this job is what EXPERIMENTS.md records.

Usage: ``python jobs/run_all.py [--only table4,fig5_accuracy]``. ``--only``
takes harness names from ``SECTIONS``; sections print in that order whatever
the order given. ``REPRO_SF`` overrides the scale factor (default 1.0).

Importing this module puts ``src`` on ``sys.path`` and, through
:func:`repro.spark.bootstrap`, on the Spark workers' ``PYTHONPATH``.
"""
import argparse
import os
import sys
import time

sys.path.insert(0, os.path.abspath(os.path.join(os.path.dirname(__file__), "..", "src")))

from repro.eval.tables import (  # noqa: E402
    Lab,
    fig3_projection,
    fig5_accuracy,
    fig7_gap_durations,
    format_table,
    table1,
    table2,
    table3,
    table4,
)
from repro.spark import bootstrap, session  # noqa: E402

bootstrap()

#: (title, harness, float format) in the order the sections print.
SECTIONS = [
    ("Table 1: Characteristics of the AIS datasets", table1, "{:.2f}"),
    ("Table 2: Framework storage size (MB)", table2, "{:.3f}"),
    ("Table 3: Effect of simplification (DAN; t=-1 is Original)", table3, "{:.2f}"),
    ("Table 4: Avg and max query latency (sec)", table4, "{:.4f}"),
    ("Figure 3 (shape): DTW by resolution and projection p [DAN]", fig3_projection, "{:.1f}"),
    ("Figure 5 (shape): DTW accuracy, 60-min gaps", fig5_accuracy, "{:.1f}"),
    ("Figure 7 (shape): HABIT DTW by gap duration", fig7_gap_durations, "{:.1f}"),
]


def bench_sf() -> float:
    """Bench-scale factor (1.0), overridable with REPRO_SF."""
    return float(os.environ.get("REPRO_SF", "1.0"))


def main() -> None:
    names = [fn.__name__ for _, fn, _ in SECTIONS]
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument(
        "--only",
        metavar="NAMES",
        help=f"comma-separated harnesses to run (default: all): {','.join(names)}",
    )
    args = parser.parse_args()
    only = set(names) if args.only is None else set(args.only.split(","))
    if unknown := sorted(only - set(names)):
        parser.error(f"unknown section(s) {','.join(unknown)}; valid: {','.join(names)}")

    spark = session("run_all")
    spark.sparkContext.setLogLevel("ERROR")
    lab = Lab(spark, sf=bench_sf())
    for title, fn, fmt in SECTIONS:
        if fn.__name__ not in only:
            continue
        t0 = time.time()
        pdf = fn(lab)
        print(f"\n=== {title}  [sf={lab.sf}, {time.time() - t0:.1f}s] ===")
        print(format_table(pdf, floatfmt=fmt))
    spark.stop()


if __name__ == "__main__":
    main()

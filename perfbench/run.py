"""HABIT benchmark: one workload, one seed, one JSON result line.

Run from the repository root::

    python3 perfbench/run.py --workload sar-query --seed 1 --seconds 20 --trace 0

``--trace 0`` prints the end-to-end metrics of BENCHMARK.json; ``--trace 1``
runs the traced per-layer pass and prints the per-layer metrics, writing its
spans under ``.bench_build/perfbench``. Outputs are checked on every run; a
failed check makes the result ``"correct": false`` and the exit code 1. The
run record (host, versions, Spark conf, sample counts) is printed as JSON
before the result line.
"""
from __future__ import annotations

import time

T_START = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("sar-query", "dan-fit")


def _mem_total() -> str:
    try:
        with open("/proc/meminfo") as f:
            for line in f:
                if line.startswith("MemTotal:"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return "unknown"


def _versions() -> dict:
    import networkx
    import numpy
    import pyarrow
    import pyspark

    return {
        "python": platform.python_version(),
        "pyspark": pyspark.__version__,
        "pyarrow": pyarrow.__version__,
        "numpy": numpy.__version__,
        "networkx": networkx.__version__,
    }


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        ap.error("--seed must be >= 0 and --seconds > 0")
    if not (ROOT / "src" / "repro").is_dir():
        print(f"perfbench: no program source at {ROOT / 'src' / 'repro'}", file=sys.stderr)
        return 2

    # Replace the script's own directory, so modules here import as perfbench.*
    sys.path[0:1] = [str(ROOT), str(ROOT / "src")]
    from perfbench import build, sparkctl, workloads
    from perfbench.tracing import Tracer

    scratch = ROOT / ".bench_build" / "perfbench"
    scratch.mkdir(parents=True, exist_ok=True)
    t = time.perf_counter()
    cache, meta = build.ensure(ROOT, scratch)
    built_s = time.perf_counter() - t
    ctx = workloads.Ctx(
        root=ROOT,
        scratch=scratch,
        cache=cache,
        seed=args.seed,
        seconds=args.seconds,
        trace=bool(args.trace),
        # The one-time build is not part of this run's set-up.
        t_start=T_START + built_s,
        tracer=Tracer(enabled=bool(args.trace)),
    )
    ctx.record.update(
        workload=args.workload,
        why=workloads.WHY[args.workload],
        seed=args.seed,
        seconds=args.seconds,
        trace=args.trace,
        sf=build.SF,
        host={"nproc": os.cpu_count(), "mem_total": _mem_total()},
        versions=_versions(),
        spark={
            "master": f"local[{sparkctl.cores()}]",
            "driver_memory": sparkctl.DRIVER_MEM,
            **sparkctl.CONF,
        },
        build_s_this_run=built_s,
        input_build=meta,
        driver_rss="peak RSS of the Python driver; the Spark JVM is a child and excluded",
    )
    run = workloads.sar_query if args.workload == "sar-query" else workloads.dan_fit
    values = run(ctx)

    units = workloads.LAYERS if args.trace else workloads.E2E_UNITS
    metrics = {}
    for name, unit in units.items():
        unit = unit[0] if isinstance(unit, tuple) else unit
        metrics[name] = {"value": float(values[name]), "unit": unit}
    ctx.record["errors"] = ctx.errors[:50]
    ctx.record.setdefault("named_metrics", {})["failed_frac"] = {
        "value": len(ctx.errors) / max(1, ctx.attempted),
        "unit": "ratio",
    }
    result = {
        "correct": not ctx.errors,
        "attempted": max(1, ctx.attempted),
        "failed": len(ctx.errors),
        "metrics": metrics,
    }
    out = scratch / "results"
    out.mkdir(exist_ok=True)
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (out / name).write_text(json.dumps({"record": ctx.record, "result": result}, default=str))
    print(json.dumps({"record": ctx.record}, default=str))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())

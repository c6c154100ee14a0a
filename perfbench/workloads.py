"""The two workloads and the traced per-layer run.

``sar-query`` times single-client ``Habit.impute`` on SAR; ``dan-fit`` times
the fit pipeline on DAN. Both report the same end-to-end metrics; "op" is the
workload's timed operation (one query on sar-query, one
preprocess -> fit -> storage_bytes cycle on dan-fit). The traced run
(``--trace 1``) calls into every layer on the workload's dataset with a span
around each call and reports per-layer numbers instead.
"""
from __future__ import annotations

import pickle
import resource
import statistics
import tempfile
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np
import pandas as pd

from perfbench import build, checks, sparkctl
from perfbench.inputs import STRIDE, gap_pool, train_test
from perfbench.tracing import Tracer, tail_percentile
from repro.ais.datasets import REGION_OF, dataset, to_spark
from repro.ais.gaps import Gap, gaps_to_pandas, make_gaps
from repro.core import storage
from repro.core.habit import Habit
from repro.core.preprocess import clean, preprocess, segment_trips
from repro.hexgrid.hex import HexGrid

MB = 1024.0 * 1024.0

WHY = {
    "sar-query": (
        "SAR r=10: the largest, most fragmented graph (32k nodes, 13.6k SCCs, 29% "
        "fallbacks); graph search is >95% of query time, fit layers idle"
    ),
    "dan-fit": (
        "DAN r=10, 100k trip points: Spark aggregation and the driver graph build "
        "(45k nodes, 68k edges) do the work; queries only score the fit"
    ),
}

#: End-to-end metrics, in BENCHMARK.json order, with units.
E2E_UNITS = {
    "setup_s": "s",
    "op_p50_ms": "ms",
    "dtw_median_m": "m",
    "path_found_frac": "ratio",
    "storage_mb": "MB",
    "driver_rss_mb": "MB",
}

#: Finer metric names (Table 2 storage, Table 4 latency, fit and batch
#: throughput) with units; each run prints those that apply to it in the
#: run record, beside the end-to-end metrics.
NAMED_UNITS = {
    "setup_s": "s",
    "preprocess_s": "s",
    "fit_s": "s",
    "storage_mb": "MB",
    "query_p50_ms": "ms",
    "query_p95_ms": "ms",
    "query_avg_ms": "ms",
    "gti_query_avg_ms": "ms",
    "batch_gaps_per_s": "gaps/s",
    "serial_gaps_per_s": "gaps/s",
    "dtw_mean_m": "m",
    "dtw_median_m": "m",
    "fallback_frac": "ratio",
    "failed_frac": "ratio",
    "driver_rss_mb": "MB",
}

#: Per-layer metric -> (unit, better, the end-to-end metric it should move).
LAYERS = {
    "spark.start_s": ("s", "lower", "setup_s, both workloads"),
    "ais.generate_s": ("s", "lower", "none: input generator, not the system"),
    "ais.gaps": ("count", "lower", "none: input size"),
    "preprocess.clean_s": ("s", "lower", "op_p50_ms on dan-fit"),
    "preprocess.segment_s": ("s", "lower", "op_p50_ms on dan-fit"),
    "preprocess.rows_in": ("count", "lower", "op_p50_ms on dan-fit"),
    "preprocess.rows_clean": ("count", "lower", "op_p50_ms on dan-fit"),
    "preprocess.rows_out": ("count", "lower", "op_p50_ms on dan-fit"),
    "preprocess.trips": ("count", "lower", "op_p50_ms on dan-fit"),
    "preprocess.stages": ("count", "lower", "op_p50_ms on dan-fit"),
    "preprocess.tasks": ("count", "lower", "op_p50_ms on dan-fit"),
    "hexgrid.to_cell_s": ("s", "lower", "op_p50_ms on dan-fit"),
    "graphgen.with_cells_s": ("s", "lower", "op_p50_ms on dan-fit"),
    "graphgen.drop_small_trips_s": ("s", "lower", "op_p50_ms on dan-fit"),
    "graphgen.cell_stats_s": ("s", "lower", "op_p50_ms on dan-fit"),
    "graphgen.edge_stats_s": ("s", "lower", "op_p50_ms on dan-fit"),
    "graphgen.build_graph_s": ("s", "lower", "op_p50_ms on dan-fit"),
    "graphgen.rows_celled": ("count", "lower", "op_p50_ms on dan-fit"),
    "graphgen.rows_kept": ("count", "lower", "op_p50_ms on dan-fit"),
    "graphgen.nodes": ("count", "lower", "storage_mb, both"),
    "graphgen.edges": ("count", "lower", "storage_mb, both"),
    "graphgen.exchanges": ("count", "lower", "op_p50_ms on dan-fit"),
    "graphgen.stages": ("count", "lower", "op_p50_ms on dan-fit"),
    "graphgen.tasks": ("count", "lower", "op_p50_ms on dan-fit"),
    "model.snap_ms": ("ms", "lower", "op_p50_ms on sar-query"),
    "model.cell_path_ms_p50": ("ms", "lower", "op_p50_ms on sar-query"),
    "model.cell_path_ms_p90": ("ms", "lower", "op_p50_ms on sar-query"),
    "model.project_ms": ("ms", "lower", "op_p50_ms on sar-query"),
    "model.path_cells": ("count", "lower", "op_p50_ms on sar-query"),
    "model.snap_own_cell_frac": ("ratio", "higher", "path_found_frac on sar-query"),
    "model.decomposition_match_frac": ("ratio", "higher", "none: checks the query split"),
    "simplify.rdp_ms": ("ms", "lower", "op_p50_ms on sar-query"),
    "simplify.points_in": ("count", "lower", "op_p50_ms on sar-query"),
    "simplify.points_out": ("count", "lower", "op_p50_ms on sar-query"),
    "habit.batch_gaps_per_s": ("1/s", "higher", "none end to end: batch path only"),
    "habit.broadcast_bytes": ("bytes", "lower", "habit.batch_gaps_per_s"),
    "habit.batch_stages": ("count", "lower", "habit.batch_gaps_per_s"),
    "habit.batch_tasks": ("count", "lower", "habit.batch_gaps_per_s"),
    "habit.failed_tasks": ("count", "lower", "habit.batch_gaps_per_s"),
    "habit.rows_out": ("count", "lower", "habit.batch_gaps_per_s"),
    "storage.save_s": ("s", "lower", "storage_mb on dan-fit"),
    "storage.load_s": ("s", "lower", "setup_s on sar-query"),
    "storage.nodes_bytes": ("bytes", "lower", "storage_mb, both"),
    "storage.edges_bytes": ("bytes", "lower", "storage_mb, both"),
    "gti.fit_s": ("s", "lower", "none: baseline"),
    "gti.query_avg_ms": ("ms", "lower", "none: baseline (Table 4 GTI row)"),
    "gti.nodes": ("count", "lower", "none: baseline"),
    "gti.edges": ("count", "lower", "none: baseline"),
    "eval.score_ms": ("ms", "lower", "none: outside every timed region"),
    "trace.overhead_frac": ("ratio", "lower", "none: traced vs untraced query time"),
}



SAR = {"name": "SAR", "res": 10, "sets": 3}
#: Queries every sar-query run makes: set 0 (236 gaps) and part of set 1.
SAR_MIN_QUERIES = 300
DAN = {"name": "DAN", "res": 10, "sets": 1}
P, T = "w", 100.0
#: The GTI baseline as in the paper's Table 4 SAR row (rm=250, rd=5e-4).
GTI_CFG = {"rm_m": 250.0, "rd_deg": 5e-4, "resample_s": 120.0}
#: Gaps in the traced query split, GTI queries and batch inference.
SPLIT_N, GTI_N, BATCH_N = 100, 40, 30
#: Gaps the reloaded model must answer exactly as the fitted one.
RELOAD_N = 20


@dataclass
class Ctx:
    root: Path
    scratch: Path
    cache: Path
    seed: int
    seconds: float
    trace: bool
    t_start: float
    tracer: Tracer = field(default_factory=lambda: Tracer(enabled=False))
    errors: list[str] = field(default_factory=list)
    attempted: int = 0
    record: dict = field(default_factory=dict)

    def check(self, ok: bool, what: str) -> None:
        """Count one checked operation; record it as failed unless ``ok``."""
        self.attempted += 1
        if not ok:
            self.errors.append(what)


def _ms(xs: list[float]) -> list[float]:
    return [x * 1e3 for x in xs]


def _rss_mb() -> float:
    # ru_maxrss is KiB on Linux; the JVM is a child process, not included.
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _timed_queries(ctx: Ctx, habit: Habit, gaps: list[Gap], seconds: float, min_n: int):
    """Closed loop, one client: the next query starts when one returns.

    Runs the first ``min_n`` gaps, then more until ``seconds`` have passed.
    """
    paths, lat = {}, []
    t0 = time.perf_counter()
    for i, g in enumerate(gaps):
        if i >= min_n and time.perf_counter() - t0 >= seconds:
            break
        t = time.perf_counter()
        try:
            res = habit.impute(g.start_lon, g.start_lat, g.end_lon, g.end_lat)
        except Exception as e:  # a failed query is counted, the run goes on
            ctx.check(False, f"impute {g.gap_id}: {e!r}")
            continue
        lat.append(time.perf_counter() - t)
        ctx.attempted += 1
        paths[g.gap_id] = res
    return paths, lat, time.perf_counter() - t0


def _check_paths(ctx: Ctx, gaps: list[Gap], paths: dict) -> None:
    """Every answered path is finite and keeps both gap endpoints."""
    for g in gaps:
        if g.gap_id in paths:
            p = paths[g.gap_id]
            ctx.check(checks.path_ok(p.lon, p.lat, g), f"path {g.gap_id}: bad endpoints")


def _quality(gaps: list[Gap], paths: dict) -> dict:
    """DTW and the fallback share over the answered ``gaps``."""
    scored = [g for g in gaps if g.gap_id in paths]
    dtw = [checks.dtw_score(paths[g.gap_id].lon, paths[g.gap_id].lat, g) for g in scored]
    fb = [paths[g.gap_id].fallback for g in scored]
    return {
        "dtw_mean_m": float(np.mean(dtw)),
        "dtw_median_m": float(np.median(dtw)),
        "fallback_frac": float(np.mean(fb)),
        "n_scored": len(scored),
    }


def _latency(lat_s: list[float]) -> dict:
    ms = _ms(lat_s)
    tail = tail_percentile(len(ms))
    out = {
        "n": len(ms),
        "p50_ms": statistics.median(ms),
        "avg_ms": statistics.fmean(ms),
        "p90_ms": float(np.percentile(ms, 90.0)),
        "max_ms": max(ms),
        "tail_pct": tail,
    }
    if tail is not None and tail >= 95:
        out["p95_ms"] = float(np.percentile(ms, 95.0))
    return out


def _warm_gap(test: pd.DataFrame, seed: int, n_sets: int) -> Gap:
    """A gap from a make_gaps seed outside the pool, for the warm-up query."""
    return make_gaps(test, seed=seed + n_sets * STRIDE)[0]


# --- sar-query ---------------------------------------------------------------

def sar_query(ctx: Ctx) -> dict:
    _, test = train_test(pd.read_parquet(ctx.cache / "SAR_trips.parquet"))
    pool = gap_pool(test, ctx.seed, SAR["sets"])
    gaps = [g for s in pool for g in s]
    loads = []
    for _ in range(3):
        t = time.perf_counter()
        model = storage.load(ctx.cache / "SAR_habit")
        loads.append(time.perf_counter() - t)
    habit = Habit(res=SAR["res"], p=P, t=T)
    habit.model = model
    w = _warm_gap(test, ctx.seed, SAR["sets"])
    habit.impute(w.start_lon, w.start_lat, w.end_lon, w.end_lat)
    # The model is loaded three times and the median load is charged.
    setup_s = time.perf_counter() - ctx.t_start - sum(loads) + statistics.median(loads)
    ctx.record.update(setup_loads_s=loads, pool_sizes=[len(s) for s in pool])

    if ctx.trace:
        return traced(ctx, SAR, None, gaps, setup_s)

    # Set 0 runs whole, so every run queries every test trip once, and the
    # run goes on into set 1: more placements per trip make the figures
    # less dependent on the seed. They cover the first SAR_MIN_QUERIES gaps
    # only, so a faster program, which gets further in --seconds, is scored
    # on the same gaps.
    paths, lat, wall = _timed_queries(ctx, habit, gaps, ctx.seconds, SAR_MIN_QUERIES)
    rss = _rss_mb()
    ctx.record["timed_s"] = wall
    _check_paths(ctx, gaps, paths)
    ctx.record["reference_set0"] = _quality(pool[0], paths)
    q = _quality(gaps[:SAR_MIN_QUERIES], paths)
    lt = _latency(lat[:SAR_MIN_QUERIES])
    ctx.record["queries_beyond_scored"] = len(lat) - SAR_MIN_QUERIES
    ctx.record.update(latency=lt, quality=q)
    named = {
        "query_p50_ms": lt["p50_ms"],
        "query_avg_ms": lt["avg_ms"],
    }
    if "p95_ms" in lt:
        named["query_p95_ms"] = lt["p95_ms"]
    return _report(ctx, setup_s, lat[:SAR_MIN_QUERIES], q, habit.storage_bytes(), rss, named)


def _report(ctx: Ctx, setup_s, ops_s: list[float], q: dict, nbytes: int, rss: float, named):
    """End-to-end values; the named metrics, with units, and the sample
    count behind each timing go into the run record. ``rss`` is the peak
    taken before the checks and scoring, which are not the program's."""
    ops = _ms(ops_s)
    e2e = {
        "setup_s": setup_s,
        "op_p50_ms": statistics.median(ops),
        "dtw_median_m": q["dtw_median_m"],
        "path_found_frac": 1.0 - q["fallback_frac"],
        "storage_mb": nbytes / MB,
        "driver_rss_mb": rss,
    }
    named = {
        "setup_s": setup_s,
        **named,
        "storage_mb": e2e["storage_mb"],
        **{k: q[k] for k in ("dtw_mean_m", "dtw_median_m", "fallback_frac")},
        "driver_rss_mb": e2e["driver_rss_mb"],
    }
    ctx.record["named_metrics"] = {
        k: {"value": v, "unit": NAMED_UNITS[k]} for k, v in named.items()
    }
    ctx.record["samples"] = {"op": len(ops), "dtw": q["n_scored"]}
    return e2e


# --- dan-fit -----------------------------------------------------------------

def _fit(spark, train: pd.DataFrame, name: str, res: int) -> Habit:
    region = REGION_OF[name]
    return Habit(res=res, p=P, t=T).fit(
        to_spark(spark, train), lat0=region.lat0, lon0=region.lon0
    )


def _cycle(spark, raw: pd.DataFrame, name: str, res: int):
    """preprocess -> fit -> storage_bytes; returns the three times, the
    train/test split and the fitted model."""
    t0 = time.perf_counter()
    trips = preprocess(to_spark(spark, raw)).toPandas()
    t1 = time.perf_counter()
    train, test = train_test(trips)
    t2 = time.perf_counter()
    habit = _fit(spark, train, name, res)
    t3 = time.perf_counter()
    nbytes = habit.storage_bytes()
    t4 = time.perf_counter()
    return (t1 - t0, t3 - t2, t4 - t3), train, test, habit, nbytes


def _warm_up(spark, raw: pd.DataFrame, name: str, res: int) -> None:
    """One untimed cycle and query: starts the Python workers, compiles the
    plans and warms the JVM, which a smaller input does not do."""
    _, _, test, habit, _ = _cycle(spark, raw, name, res)
    g = make_gaps(test, seed=0)[0]
    habit.impute(g.start_lon, g.start_lat, g.end_lon, g.end_lat)


def dan_fit(ctx: Ctx) -> dict:
    t = time.perf_counter()
    spark = sparkctl.start(str(ctx.root / "src"), str(ctx.scratch))
    ctx.record["spark_start_s"] = time.perf_counter() - t
    try:
        raw = pd.read_parquet(ctx.cache / "DAN_raw.parquet")
        _warm_up(spark, raw, DAN["name"], DAN["res"])
        setup_s = time.perf_counter() - ctx.t_start
        if ctx.trace:
            return traced(ctx, DAN, spark, None, setup_s)
        return _dan_fit_timed(ctx, spark, raw, setup_s)
    finally:
        sparkctl.stop(spark)


def _dan_fit_timed(ctx: Ctx, spark, raw: pd.DataFrame, setup_s: float) -> dict:
    pre, fit, size, cycles = [], [], [], []
    t_run = time.perf_counter()
    while True:
        (tp, tf, ts), train, test, habit, nbytes = _cycle(spark, raw, DAN["name"], DAN["res"])
        pre.append(tp)
        fit.append(tf)
        size.append(ts)
        cycles.append(tp + tf + ts)
        ctx.attempted += 1
        # Start another cycle only if about half of one still fits.
        if time.perf_counter() - t_run >= ctx.seconds - 0.5 * statistics.median(cycles):
            break
    ctx.record["timed_s"] = time.perf_counter() - t_run

    pool = gap_pool(test, ctx.seed, DAN["sets"])
    gaps = [g for s in pool for g in s]
    paths, lat, _ = _timed_queries(ctx, habit, gaps, 0.0, len(gaps))
    rss = _rss_mb()
    _check_paths(ctx, gaps, paths)
    q = _quality(gaps, paths)
    lt = _latency(lat)
    _gate_storage(ctx, spark, habit, train, pool[0], paths)
    ctx.record.update(
        cycles_s=cycles, preprocess_s=pre, fit_s=fit, storage_bytes_s=size,
        latency=lt, quality=q, pool_sizes=[len(s) for s in pool],
    )
    named = {
        "preprocess_s": statistics.median(pre),
        "fit_s": statistics.median(fit),
        "serial_gaps_per_s": len(lat) / sum(lat),
    }
    return _report(ctx, setup_s, cycles, q, nbytes, rss, named)


def _gate_storage(ctx: Ctx, spark, habit: Habit, train, gaps: list[Gap], paths: dict) -> None:
    """Storage checks: the tables ``storage.save`` writes match the
    DuckDB oracle, and the reloaded model has the same tables and answers
    the first ``RELOAD_N`` gaps exactly as the fitted one did."""
    with tempfile.TemporaryDirectory(dir=ctx.scratch) as d:
        storage.save(habit.model, d)
        nodes = pd.read_parquet(Path(d) / "nodes.parquet")
        edges = pd.read_parquet(Path(d) / "edges.parquet")
        loaded = Habit(res=habit.res, p=habit.p, t=habit.t)
        loaded.model = storage.load(d)
    bad = checks.oracle_mismatches(spark, train, habit.model.grid, nodes, edges)
    ctx.check(not bad, f"oracle: {bad}")
    for a, b in zip(storage.graph_tables(habit.model), storage.graph_tables(loaded.model)):
        ctx.check(a.equals(b), "reloaded model tables differ")
    for g in gaps[:RELOAD_N]:
        a = paths.get(g.gap_id)
        b = loaded.impute(g.start_lon, g.start_lat, g.end_lon, g.end_lat)
        same = (
            a is not None
            and a.fallback == b.fallback
            and np.array_equal(a.lon, b.lon)
            and np.array_equal(a.lat, b.lat)
        )
        ctx.check(same, f"reloaded model differs on {g.gap_id}")


# --- traced run --------------------------------------------------------------

def traced(ctx: Ctx, ds: dict, spark, gaps: list[Gap] | None, setup_s: float) -> dict:
    """Per-layer numbers for the workload's dataset.

    sar-query passes no session and its gap pool: a session is started
    here and SAR's Spark layers run cold, since a warm-up cycle would push
    the run towards its time limit; their per-layer times are therefore
    not comparable with dan-fit's. dan-fit passes its warm session and no
    gaps (the pool is drawn from the trips preprocessed here).
    """
    from repro.baselines.gti import GTI
    from repro.core.graphgen import (
        build_graph,
        cell_stats,
        drop_small_trips,
        edge_stats,
        with_cells,
    )
    from repro.core.model import HabitModel

    tr = ctx.tracer
    name, res = ds["name"], ds["res"]
    region = REGION_OF[name]
    L: dict[str, float] = {}
    own = spark is None
    if own:
        with tr.span("spark.start") as sp:
            spark = sparkctl.start(str(ctx.root / "src"), str(ctx.scratch))
        L["spark.start_s"] = sp.dur
    else:
        L["spark.start_s"] = ctx.record["spark_start_s"]
    jg = sparkctl.JobGroups(spark)
    try:
        cached_raw = pd.read_parquet(ctx.cache / f"{name}_raw.parquet")
        with tr.span("ais.generate", name) as sp:
            raw = dataset(name, build.SF)
        L["ais.generate_s"] = sp.dur
        ctx.check(raw.reset_index(drop=True).equals(cached_raw), "generator output != cached input")

        # core.preprocess: clean, then segment over the cached clean rows
        df = to_spark(spark, raw)
        with jg.group("preprocess.clean") as pc, tr.span("preprocess.clean", name) as sp:
            clean(df).write.format("noop").mode("overwrite").save()
        L["preprocess.clean_s"] = sp.dur
        cleaned = clean(df).persist()
        rows_clean = cleaned.count()
        with jg.group("preprocess.segment") as ps, tr.span("preprocess.segment", name) as sp:
            trips = segment_trips(cleaned).toPandas()
        L["preprocess.segment_s"] = sp.dur
        cleaned.unpersist()
        L.update({
            "preprocess.rows_in": len(raw),
            "preprocess.rows_clean": rows_clean,
            "preprocess.rows_out": len(trips),
            "preprocess.trips": trips["trip_id"].nunique(),
            "preprocess.stages": pc.stages + ps.stages,
            "preprocess.tasks": pc.tasks + ps.tasks,
        })
        train, test = train_test(trips)
        if gaps is None:
            gaps = [g for s in gap_pool(test, ctx.seed, ds["sets"]) for g in s]
        L["ais.gaps"] = len(gaps)

        # hexgrid + core.graphgen, the steps of Habit.fit one at a time
        grid = HexGrid(res, region.lat0, region.lon0)
        with tr.span("hexgrid.to_cell", name) as sp:
            grid.to_cell(train["lon"].to_numpy(), train["lat"].to_numpy())
        L["hexgrid.to_cell_s"] = sp.dur
        fit_id = f"fit-{name}-r{res}"
        with tr.span("habit.fit", fit_id):
            tdf = to_spark(spark, train)
            with tr.span("graphgen.with_cells", fit_id) as sp:
                with_cells(tdf, grid).write.format("noop").mode("overwrite").save()
            L["graphgen.with_cells_s"] = sp.dur
            celled = with_cells(tdf, grid).persist()
            rows_celled = celled.count()
            with tr.span("graphgen.drop_small_trips", fit_id) as sp:
                drop_small_trips(celled).write.format("noop").mode("overwrite").save()
            L["graphgen.drop_small_trips_s"] = sp.dur
            celled.unpersist()
            # The aggregates run over the uncached lineage, as Habit.fit runs
            # them, so their times and counters include the upstream steps.
            kept = drop_small_trips(with_cells(tdf, grid))
            nodes_df, edges_df = cell_stats(kept), edge_stats(kept)
            with jg.group("graphgen") as gc:
                with tr.span("graphgen.cell_stats", fit_id) as sp:
                    nodes_pdf = nodes_df.toPandas()
                L["graphgen.cell_stats_s"] = sp.dur
                with tr.span("graphgen.edge_stats", fit_id) as sp:
                    edges_pdf = edges_df.toPandas()
                L["graphgen.edge_stats_s"] = sp.dur
            with tr.span("graphgen.build_graph", fit_id) as sp:
                model = HabitModel(grid=grid, graph=build_graph(nodes_pdf, edges_pdf))
            L["graphgen.build_graph_s"] = sp.dur
        L.update({
            "graphgen.rows_celled": rows_celled,
            "graphgen.rows_kept": kept.count(),
            "graphgen.nodes": model.n_nodes,
            "graphgen.edges": model.n_edges,
            "graphgen.exchanges": sparkctl.count_exchanges(nodes_df)
            + sparkctl.count_exchanges(edges_df),
            "graphgen.stages": gc.stages,
            "graphgen.tasks": gc.tasks,
        })

        # core.storage
        with tempfile.TemporaryDirectory(dir=ctx.scratch) as d:
            with tr.span("storage.save", fit_id) as sp:
                storage.save(model, d)
            L["storage.save_s"] = sp.dur
            with tr.span("storage.load", fit_id) as sp:
                storage.load(d)
            L["storage.load_s"] = sp.dur
        nodes_t, edges_t = storage.graph_tables(model)
        L["storage.nodes_bytes"] = storage.parquet_bytes(nodes_t)
        L["storage.edges_bytes"] = storage.parquet_bytes(edges_t)

        habit = Habit(res=res, p=P, t=T)
        habit.model = model
        L.update(_query_split(ctx, habit, gaps[:SPLIT_N]))
        L.update(_batch(ctx, spark, jg, habit, gaps[:BATCH_N]))

        # baselines.gti
        with tr.span("gti.fit", f"gti-{name}") as sp:
            gti = GTI(**GTI_CFG).fit(
                to_spark(spark, train), lat0=region.lat0, lon0=region.lon0
            )
        L["gti.fit_s"] = sp.dur
        gti_lat = []
        for g in gaps[:GTI_N]:
            with tr.span("gti.impute", g.gap_id) as sp:
                p = gti.impute(g.start_lon, g.start_lat, g.end_lon, g.end_lat)
            gti_lat.append(sp.dur)
            ctx.check(checks.path_ok(p.lon, p.lat, g), f"gti path {g.gap_id}")
        L.update({
            "gti.query_avg_ms": statistics.fmean(gti_lat) * 1e3,
            "gti.nodes": gti.n_nodes,
            "gti.edges": gti.n_edges,
        })
    finally:
        if own:
            sparkctl.stop(spark)

    ctx.tracer.dump(ctx.scratch / f"spans-{name}-{ctx.seed}.jsonl")
    ctx.record["setup_s"] = setup_s
    ctx.record["named_metrics"] = {
        "gti_query_avg_ms": {"value": L["gti.query_avg_ms"], "unit": "ms"},
        "batch_gaps_per_s": {"value": L["habit.batch_gaps_per_s"], "unit": "gaps/s"},
    }
    ctx.record["spans"] = len(ctx.tracer.spans)
    ctx.record["layer_moves"] = {k: v[2] for k, v in LAYERS.items()}
    return L


def _split_query(ctx: Ctx, habit: Habit, g: Gap):
    """``Habit.impute`` one step at a time, in the order it runs them, with
    ``simplify_path`` last. The steps between projection and RDP mirror
    ``HabitModel.impute`` as written when this benchmark was defined:
    endpoints are added and near-duplicate vertices dropped."""
    from repro.core.simplify import simplify_path
    from repro.geo.geodesy import haversine_m

    tr, model = ctx.tracer, habit.model
    with tr.span("query", g.gap_id) as q:
        with tr.span("model.snap", g.gap_id):
            s = model.snap(g.start_lon, g.start_lat)
            e = model.snap(g.end_lon, g.end_lat)
        with tr.span("model.cell_path", g.gap_id):
            cells = model.cell_path(s, e)
        if cells is None:
            lon = np.array([g.start_lon, g.end_lon])
            lat = np.array([g.start_lat, g.end_lat])
        else:
            with tr.span("model.project_cells", g.gap_id):
                mlon, mlat = model.project_cells(cells, p=habit.p)
            lon = np.concatenate([[g.start_lon], mlon, [g.end_lon]])
            lat = np.concatenate([[g.start_lat], mlat, [g.end_lat]])
            if lon.size > 2:
                keep = np.concatenate(
                    [[True], haversine_m(lon[:-1], lat[:-1], lon[1:], lat[1:]) > 1.0]
                )
                if not keep[-1]:
                    keep[-2], keep[-1] = False, True
                lon, lat = lon[keep], lat[keep]
        n_in = lon.size
        with tr.span("simplify.rdp", g.gap_id):
            lon, lat = simplify_path(lon, lat, habit.t)
    return q, cells, n_in, lon, lat


def _query_split(ctx: Ctx, habit: Habit, gaps: list[Gap]) -> dict:
    """Per-step query numbers, the share of split queries that equal
    ``Habit.impute`` (a count, not a gate) and the tracing overhead.

    Each gap runs once split into traced steps and once as a plain
    ``Habit.impute``, the order alternating gap by gap so drift cancels;
    the overhead is the traced total over the plain total, minus one.
    """
    tr, nd = ctx.tracer, habit.model.graph.nodes
    cells_n, pin, pout, own, match = [], 0, 0, 0, 0
    plain, traced_ = 0.0, 0.0
    for i, g in enumerate(gaps):
        for split in ((True, False) if i % 2 == 0 else (False, True)):
            if split:
                q, cells, n_in, lon, lat = _split_query(ctx, habit, g)
                traced_ += q.dur
            else:
                t = time.perf_counter()
                ref = habit.impute(g.start_lon, g.start_lat, g.end_lon, g.end_lat)
                plain += time.perf_counter() - t
        ctx.check(checks.path_ok(ref.lon, ref.lat, g), f"path {g.gap_id}: bad endpoints")
        match += (
            ref.fallback == (cells is None)
            and np.array_equal(ref.lon, lon)
            and np.array_equal(ref.lat, lat)
        )
        if cells is not None:
            cells_n.append(len(cells))
        pin += n_in
        pout += lon.size
        with tr.span("eval.score", g.gap_id):
            checks.dtw_score(lon, lat, g)
        for lo, la in ((g.start_lon, g.start_lat), (g.end_lon, g.end_lat)):
            c = int(habit.model.grid.to_cell(lo, la))
            own += c in nd and "mlon" in nd[c]
    n = len(gaps)
    search = _ms(tr.durations("model.cell_path"))
    proj = tr.durations("model.project_cells")
    return {
        "model.snap_ms": statistics.fmean(_ms(tr.durations("model.snap"))),
        "model.cell_path_ms_p50": statistics.median(search),
        "model.cell_path_ms_p90": float(np.percentile(search, 90.0)),
        "model.project_ms": statistics.fmean(_ms(proj)) if proj else 0.0,
        "model.path_cells": statistics.fmean(cells_n) if cells_n else 0.0,
        "model.snap_own_cell_frac": own / (2 * n),
        "model.decomposition_match_frac": match / n,
        "simplify.rdp_ms": statistics.fmean(_ms(tr.durations("simplify.rdp"))),
        "simplify.points_in": pin,
        "simplify.points_out": pout,
        "eval.score_ms": statistics.fmean(_ms(tr.durations("eval.score"))),
        "trace.overhead_frac": traced_ / plain - 1.0,
    }


def _batch(ctx: Ctx, spark, jg, habit: Habit, gaps: list[Gap]) -> dict:
    """``impute_batch_spark`` collected to the driver, which forces every
    row, then checks that the rows equal the driver's ``impute_with_ts``
    output for every gap, exactly."""
    gdf = spark.createDataFrame(gaps_to_pandas(gaps))
    bcast = len(pickle.dumps({"model": habit.model, "p": habit.p, "t": habit.t}))
    with jg.group("habit.batch") as bc, ctx.tracer.span("habit.batch") as sp:
        rows = habit.impute_batch_spark(spark, gdf).toPandas()
    serial = []
    for g in gaps:
        out = habit.impute_with_ts(
            g.start_lon, g.start_lat, g.start_ts, g.end_lon, g.end_lat, g.end_ts
        )
        out["gap_id"] = g.gap_id
        out["seq"] = np.arange(len(out), dtype=np.int64)
        serial.append(out)
    ctx.check(checks.rows_equal(rows, pd.concat(serial, ignore_index=True)), "batch rows != serial")
    return {
        "habit.batch_gaps_per_s": len(gaps) / sp.dur,
        "habit.broadcast_bytes": bcast,
        "habit.batch_stages": bc.stages,
        "habit.batch_tasks": bc.tasks,
        "habit.failed_tasks": bc.failed_tasks,
        "habit.rows_out": len(rows),
    }

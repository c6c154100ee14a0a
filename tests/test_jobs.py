"""The job entrypoint must be importable and wired to the right harnesses
(it is executed at bench scale outside the test suite)."""
import importlib
import inspect
import os
import pathlib
import subprocess
import sys

import pytest

from repro.eval import tables

JOBS = pathlib.Path(__file__).parent.parent / "jobs"


@pytest.fixture(autouse=True)
def _jobs_on_path(monkeypatch):
    monkeypatch.syspath_prepend(str(JOBS))


@pytest.mark.parametrize(
    "mod,expected",
    [
        ("table1_datasets", "table1"),
        ("table2_storage", "table2"),
        ("table3_simplification", "table3"),
        ("table4_latency", "table4"),
        ("fig3_projection", "fig3_projection"),
        ("fig5_accuracy", "fig5_accuracy"),
        ("fig7_gap_durations", "fig7_gap_durations"),
        ("run_all", "main"),
    ],
)
def test_job_importable_and_has_main(mod, expected):
    """``run_all`` is importable with a ``main``; each former one-table job
    ``mod`` is now the ``run_all`` section run by ``--only expected``."""
    run_all = importlib.import_module("run_all")
    assert callable(run_all.main)
    if mod == "run_all":
        return
    assert not (JOBS / f"{mod}.py").exists()
    by_name = {fn.__name__: fn for _, fn, _ in run_all.SECTIONS}
    assert by_name[expected] is getattr(tables, expected)


def test_run_all_sections_cover_every_harness():
    """Each section runs a distinct table harness, and every harness (a
    ``repro.eval.tables`` function taking the ``Lab`` first) has a section."""
    run_all = importlib.import_module("run_all")
    fns = [fn for _, fn, _ in run_all.SECTIONS]
    assert len(set(fns)) == len(fns)
    assert all(fn.__module__ == tables.__name__ for fn in fns)
    harnesses = {
        fn
        for fn in vars(tables).values()
        if inspect.isfunction(fn)
        and fn.__module__ == tables.__name__
        and list(inspect.signature(fn).parameters)[:1] == ["lab"]
    }
    assert len(harnesses) == 7
    assert set(fns) == harnesses


def test_run_all_bench_sf(monkeypatch):
    run_all = importlib.import_module("run_all")
    monkeypatch.setenv("REPRO_SF", "0.5")
    assert run_all.bench_sf() == 0.5
    monkeypatch.delenv("REPRO_SF")
    assert run_all.bench_sf() == 1.0


def test_run_all_puts_src_on_worker_path():
    """Spark's Python workers see the JVM's environment, not the driver's
    sys.path: importing run_all must put src first on PYTHONPATH."""
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    out = subprocess.run(
        [sys.executable, "-c", "import os, run_all; print(os.environ['PYTHONPATH'])"],
        cwd=JOBS, env=env, capture_output=True, text=True, check=True,
    )
    first = out.stdout.strip().split(os.pathsep)[0]
    assert pathlib.Path(first) == (JOBS.parent / "src").resolve()


def test_run_all_only_unknown_name_exits_before_spark():
    """An unknown ``--only`` name fails with the valid names listed, and no
    JVM gateway has been launched by then."""
    code = (
        "import runpy, sys\n"
        "from pyspark import SparkContext\n"
        "sys.argv = ['run_all.py', '--only', 'table1,nope']\n"
        "try:\n"
        "    runpy.run_path('run_all.py', run_name='__main__')\n"
        "except SystemExit as e:\n"
        "    print(e.code, SparkContext._gateway is None)\n"
    )
    out = subprocess.run(
        [sys.executable, "-c", code], cwd=JOBS, capture_output=True, text=True, timeout=120
    )
    assert out.stdout.split() == ["2", "True"]
    assert "nope" in out.stderr
    for _, fn, _ in importlib.import_module("run_all").SECTIONS:
        assert fn.__name__ in out.stderr


def test_run_all_only_runs_one_section():
    env = {**os.environ, "REPRO_SF": "0.05", "SPARK_DRIVER_MEM": "1g"}
    env.pop("PYSPARK_SUBMIT_ARGS", None)
    out = subprocess.run(
        [sys.executable, str(JOBS / "run_all.py"), "--only", "table1"],
        env=env, capture_output=True, text=True, timeout=600, check=True,
    )
    headers = [line for line in out.stdout.splitlines() if line.startswith("=== ")]
    assert len(headers) == 1
    assert headers[0].startswith("=== Table 1:")
    assert "sf=0.05" in headers[0]

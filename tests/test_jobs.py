"""The job entrypoints must be importable and wired to the right harnesses
(they are executed at bench scale outside the test suite)."""
import importlib
import os
import pathlib
import subprocess
import sys

import pytest

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
    m = importlib.import_module(mod)
    assert callable(m.main)
    assert expected in m.main.__code__.co_names or expected == "main"


def test_common_bench_sf(monkeypatch):
    common = importlib.import_module("_common")
    monkeypatch.setenv("REPRO_SF", "0.5")
    assert common.bench_sf() == 0.5
    monkeypatch.delenv("REPRO_SF")
    assert common.bench_sf() == 1.0


def test_common_puts_src_on_worker_path():
    """Spark's Python workers see the JVM's environment, not the driver's
    sys.path: importing _common must put src first on PYTHONPATH."""
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    out = subprocess.run(
        [sys.executable, "-c", "import os, _common; print(os.environ['PYTHONPATH'])"],
        cwd=JOBS, env=env, capture_output=True, text=True, check=True,
    )
    first = out.stdout.strip().split(os.pathsep)[0]
    assert pathlib.Path(first) == (JOBS.parent / "src").resolve()

"""One-time build of what every run reads: generated inputs and a SAR model.

The first run in a checkout generates the DAN and SAR datasets (the input
generator is not the system under test), preprocesses SAR and fits the
HABIT r=10 model that ``sar-query`` queries, persisted with
``repro.core.storage.save``. Everything lands in a directory keyed by a
hash of ``src`` and of the files that define the build, so a change to
either rebuilds. The SAR fit is therefore paid once per checkout;
``dan-fit`` times fitting on every run.
"""
from __future__ import annotations

import hashlib
import json
import os
import shutil
import subprocess
import sys
import time
from pathlib import Path

SF = 1.0
DATASETS = ("DAN", "SAR")
SAR_RES = 10


def source_key(root: Path) -> str:
    h = hashlib.sha256()
    files = sorted((root / "src").rglob("*.py"))
    files += [root / "perfbench" / "build.py", root / "perfbench" / "inputs.py"]
    for p in files:
        h.update(str(p.relative_to(root)).encode())
        h.update(p.read_bytes())
    h.update(f"sf={SF}".encode())
    return h.hexdigest()[:16]


def ensure(root: Path, scratch: Path) -> tuple[Path, dict]:
    """Cache dir and its metadata; builds it first if it is missing."""
    out = scratch / f"inputs-{source_key(root)}"
    if not (out / "meta.json").exists():
        # A child process, so the run that triggers the build still starts
        # its own JVM cold, as every other run does.
        subprocess.run(
            [sys.executable, "-m", "perfbench.build", str(root), str(scratch), str(out)],
            cwd=root, check=True, timeout=840,
        )
    return out, json.loads((out / "meta.json").read_text())


def _build(root: Path, scratch: Path, out: Path) -> None:
    from perfbench import sparkctl
    from perfbench.inputs import train_test
    from repro.ais.datasets import REGION_OF, dataset, to_spark
    from repro.core import storage
    from repro.core.habit import Habit
    from repro.core.preprocess import preprocess

    t_build = time.perf_counter()
    tmp = scratch / f"{out.name}.partial-{os.getpid()}"
    shutil.rmtree(tmp, ignore_errors=True)
    tmp.mkdir(parents=True)
    meta: dict = {"sf": SF, "generate_s": {}}
    raws = {}
    for name in DATASETS:
        t = time.perf_counter()
        raws[name] = dataset(name, SF)
        meta["generate_s"][name] = time.perf_counter() - t
        raws[name].to_parquet(tmp / f"{name}_raw.parquet", index=False)

    spark = sparkctl.start(str(root / "src"), str(scratch))
    try:
        trips = preprocess(to_spark(spark, raws["SAR"])).toPandas()
        trips.to_parquet(tmp / "SAR_trips.parquet", index=False)
        train, _ = train_test(trips)
        region = REGION_OF["SAR"]
        habit = Habit(res=SAR_RES).fit(
            to_spark(spark, train), lat0=region.lat0, lon0=region.lon0
        )
        storage.save(habit.model, tmp / "SAR_habit")
    finally:
        sparkctl.stop(spark)
    meta["build_s"] = time.perf_counter() - t_build
    (tmp / "meta.json").write_text(json.dumps(meta))
    shutil.rmtree(out, ignore_errors=True)
    os.replace(tmp, out)


if __name__ == "__main__":
    sys.path.insert(0, str(Path(sys.argv[1]) / "src"))
    _build(Path(sys.argv[1]), Path(sys.argv[2]), Path(sys.argv[3]))

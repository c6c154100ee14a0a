import sys

import pytest
from pyspark.sql import SparkSession


@pytest.fixture(scope="session")
def spark() -> SparkSession:
    """One local-mode SparkSession for the whole test session, configured
    by :func:`repro.spark.session`."""
    from repro.spark import session

    s = session("repro")
    print(
        f"[conftest] spark.driver.memory={s.sparkContext.getConf().get('spark.driver.memory')} "
        f"master={s.sparkContext.master} "
        f"defaultParallelism={s.sparkContext.defaultParallelism}",
        file=sys.stderr,
    )
    yield s
    s.stop()

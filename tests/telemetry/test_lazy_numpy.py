"""Task-plane processes must not import numpy.

Service and pool processes import ``repro.core``/``db``/``pools``, which
import ``repro.telemetry`` for the journal, metrics and tracer; only the
figure/analysis reducers of that package compute with numpy.  Importing
it eagerly cost every such process ~0.16 s of start-up and ~17 MB.
"""

from __future__ import annotations

import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[2] / "src"

SCRIPT = """
import sys
sys.path.insert(0, {src!r})
import repro.core, repro.db, repro.pools
from repro.core import EQSQL, RemoteTaskStore, TaskService
from repro.db import SqliteTaskStore
from repro.pools import PoolConfig, PythonTaskHandler, ThreadedWorkerPool

backing = SqliteTaskStore(":memory:")
service = TaskService(backing).start()
store = RemoteTaskStore(*service.address)
eq = EQSQL(store)
pool = ThreadedWorkerPool(
    eq, PythonTaskHandler(lambda d: d), PoolConfig(work_type=0, n_workers=1)
).start()
try:
    assert eq.submit_task("exp", 0, "{{}}").result(timeout=30, delay=0.01)[1] == "{{}}"
finally:
    pool.stop()
    store.close()
    service.stop()
    backing.close()
assert "numpy" not in sys.modules, "the task plane imported numpy"

# The lazily exposed names still resolve, by attribute and by from-import.
import repro.telemetry as telemetry
from repro.telemetry import ConcurrencySeries, ascii_chart, sample_series
missing = [name for name in telemetry.__all__ if not hasattr(telemetry, name)]
assert not missing, missing
assert "numpy" in sys.modules
print("ok")
"""


def test_service_and_pool_run_without_importing_numpy():
    proc = subprocess.run(
        [sys.executable, "-c", SCRIPT.format(src=str(SRC))],
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr[-2000:]
    assert proc.stdout.strip() == "ok"

"""Self-checks of the end-to-end benchmark (not part of tier-1).

    python -m pytest benchmarks/e2e -q

The estimator and the wrappers are checked on known inputs; then every
workload is smoke-run (2 s phase) through the real command line, and the
names it emits are compared with ``BENCHMARK.json``.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parents[1] / "src"))

from estimators import median, quantile  # noqa: E402
from spans import Recorder, TimedHandler, TimedStore, reduce_layers  # noqa: E402
from workloads import BIG_PAYLOAD_BYTES, WORKLOADS, Inputs  # noqa: E402

CONTRACT = json.loads((HERE.parents[1] / "BENCHMARK.json").read_text())


def test_quantile_on_known_series():
    series = [5.0, 1.0, 4.0, 2.0, 3.0]
    assert quantile(series, 0.0) == 1.0
    assert quantile(series, 0.25) == 2.0
    assert median(series) == 3.0
    assert quantile(series, 0.75) == 4.0
    assert quantile(series, 1.0) == 5.0
    # Interpolates between order statistics.
    assert quantile([10.0, 20.0], 0.25) == 12.5
    assert quantile([1.0, 2.0, 3.0, 4.0], 0.75) == pytest.approx(3.25)
    # One round is every quantile of itself; no rounds read zero.
    assert quantile([7.0], 0.25) == quantile([7.0], 0.75) == 7.0
    assert quantile([], 0.5) == 0.0
    with pytest.raises(ValueError):
        quantile(series, 1.5)


def test_quartiles_sit_on_the_undisturbed_side():
    # Eight rounds, two of them slowed by interference: the reported
    # rate (Q3) and latency (Q1) do not move.
    rates = [100.0, 101.0, 99.0, 100.5, 100.2, 99.8, 100.1, 99.9]
    disturbed = rates[:6] + [70.0, 60.0]
    assert quantile(disturbed, 0.75) == pytest.approx(quantile(rates, 0.75), rel=0.01)
    latencies = [10.0, 10.1, 9.9, 10.05, 10.02, 9.98, 10.01, 9.99]
    slowed = latencies[:6] + [15.0, 18.0]
    assert quantile(slowed, 0.25) == pytest.approx(quantile(latencies, 0.25), rel=0.01)


class _FakeStore:
    supports_wait = True
    label = "fake"

    def __init__(self):
        self.queue = [(1, "a"), (2, "b")]

    def create_tasks(self, exp_id, eq_type, payloads, **kwargs):
        return list(range(10, 10 + len(payloads)))

    def pop_out(self, eq_type, n=1, **kwargs):
        popped, self.queue = self.queue[:n], self.queue[n:]
        return popped

    def report(self, eq_task_id, eq_type, result, **kwargs):
        if eq_task_id < 0:
            raise KeyError(eq_task_id)

    def _private(self):
        return "untouched"


def test_timed_store_is_transparent_and_counts_empty_returns():
    recorder = Recorder()
    inner = _FakeStore()
    store = TimedStore(inner, recorder, "layer")
    # Attributes pass through, private ones unwrapped.
    assert store.supports_wait is True
    assert store.label == "fake"
    assert store._private() == "untouched"
    # Return values pass through unchanged; ids are recorded.
    assert store.create_tasks("e", 0, ["x", "y"], priority=1) == [10, 11]
    assert store.pop_out(0, 5, worker_pool="p") == [(1, "a"), (2, "b")]
    assert store.pop_out(0, 5) == []
    assert store.report(7, 0, "r", now=0.0) is None
    assert store.report(eq_task_id=8, eq_type=0, result="r") is None
    with pytest.raises(KeyError):
        store.report(-1, 0, "r")
    with pytest.raises(AttributeError):
        store.no_such_method
    names = [(s[0], s[4]) for s in recorder.spans]
    assert names == [
        ("layer.create_tasks", [10, 11]),
        ("layer.pop_out", [1, 2]),
        ("layer.pop_out", []),  # the empty call
        ("layer.report", [7]),
        ("layer.report", [8]),
        ("layer.report!error", None),
    ]
    assert all(s[1] <= s[2] for s in recorder.spans)


def test_timed_handler_passes_result_and_exception_through():
    class Handler:
        def handle(self, payload):
            if payload == "boom":
                raise ValueError("boom")
            return payload.upper()

    recorder = Recorder()
    handler = TimedHandler(Handler(), recorder)
    assert handler.handle("abc") == "ABC"
    with pytest.raises(ValueError):
        handler.handle("boom")
    assert [s[0] for s in recorder.spans] == ["handlers.run", "handlers.run"]


def test_reduce_layers_on_a_hand_built_trace():
    # One task (id 1) through every stage, 1 ms apart, on threads 7/8/9.
    ms = 1e-3
    driver = [
        ("eqsql.submit", 0 * ms, 2 * ms, 7, [1]),
        ("service_client.create_task", 0 * ms, 2 * ms, 7, [1]),
        ("service_client.pop_in_any", 2 * ms, 8 * ms, 7, [1]),
        ("eqsql.handed", 9 * ms, 9 * ms, 7, [1]),
    ]
    service = [
        ("sqlite_backend.create_task", 0.5 * ms, 1 * ms, 9, [1]),
        # Long-polled since before the task existed: busy from 1 ms on.
        ("sqlite_backend.pop_out", -50 * ms, 2 * ms, 9, [1]),
        ("sqlite_backend.report", 6.5 * ms, 7 * ms, 9, [1]),
    ]
    pool = [
        ("service_client.pop_out", -51 * ms, 3 * ms, 8, [1]),
        ("handlers.run", 4 * ms, 5 * ms, 8, None),
        ("service_client.report", 6 * ms, 8 * ms, 8, [1]),
    ]
    metrics, stages = reduce_layers(driver, pool, service, [(0.0, 10 * ms)], n_workers=2)
    want = {
        "submit_to_enqueue": 1.0,
        "service.queue_wait": 2.0,
        "pool.local_wait": 1.0,
        "handlers.run": 1.0,
        "pool.report_lag": 1.0,
        "service_client.report": 2.0,
        "eqsql.collect_lag": 1.0,
        "turnaround": 9.0,
    }
    assert stages == pytest.approx(want)
    assert metrics["service.report_overhead_us_p50"] == pytest.approx(1500.0)
    assert metrics["sqlite_backend.pop_out_ms_p50"] == pytest.approx(1.0)
    assert metrics["sqlite_backend.busy_frac"] == pytest.approx(0.2)
    assert metrics["service_client.rpcs_per_task"] == pytest.approx(4.0)
    assert metrics["pool.worker_busy_frac"] == pytest.approx(0.05)


def test_inputs_repeat_from_the_seed():
    for name, workload in WORKLOADS.items():
        a, b = Inputs(workload, 5), Inputs(workload, 5)
        assert a.payloads(3) == b.payloads(3), name
        assert a.payloads(3) != Inputs(workload, 6).payloads(3), name
    big = Inputs(WORKLOADS["sweep_64k"], 1).payloads(4)
    assert all(len(p.encode()) == BIG_PAYLOAD_BYTES for p in big)
    assert all(json.loads(p)["v"] for p in big)


def _run(*args: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(HERE / "run.py"), *args], capture_output=True, text=True
    )


@pytest.mark.parametrize("workload", [w["name"] for w in CONTRACT["workloads"]])
@pytest.mark.parametrize("trace", ["0", "1"])
def test_smoke_run_is_correct_and_names_match_the_contract(workload, trace):
    done = _run("--workload", workload, "--seed", "11", "--smoke", "--trace", trace)
    assert done.returncode == 0, done.stdout + done.stderr
    out = json.loads(done.stdout.splitlines()[-1])
    assert set(out) == {"correct", "attempted", "failed", "metrics"}
    assert out["correct"] is True and out["failed"] == 0 and out["attempted"] >= 1
    kind = "per_layer" if trace == "1" else "end_to_end"
    assert {n: m["unit"] for n, m in out["metrics"].items()} == {
        m["name"]: m["unit"] for m in CONTRACT[kind]
    }
    if kind == "end_to_end":
        assert all(m["value"] > 0 for m in out["metrics"].values())


def test_workload_names_match_the_contract():
    assert [w["name"] for w in CONTRACT["workloads"]] == list(WORKLOADS)
    assert CONTRACT["paths"] == ["benchmarks/e2e"]
    assert CONTRACT["command"] == ["python3", "benchmarks/e2e/run.py"]

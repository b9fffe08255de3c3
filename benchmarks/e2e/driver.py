"""One benchmark run: three processes on loopback, rounds, estimators.

The driver is the ME — one thread, one ``RemoteTaskStore``, the only
load generator (closed loop, one client).  It launches the service and
the pool as child processes, runs back-to-back *rounds* of the
workload's ME loop for a fixed time, checks every result, and reduces
the rounds to the end-to-end metrics.  A traced run additionally
installs the wrappers of :mod:`spans` in all three processes and
reduces their spans to the per-layer metrics.

Run shape (every workload, same code path): one untimed launch to warm
the page cache, three timed launches (the last is kept), one uncounted
warm-up round, the time-boxed phase, verification, teardown.
"""

from __future__ import annotations

import json
import os
import shutil
import signal
import subprocess
import sys
import tempfile
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter, process_time
from typing import Any

from estimators import median, quantile
from spans import STAGES, Recorder, TimedStore, load_spans, reduce_layers
from workloads import EXP_ID, N_WORKERS, WORK_TYPE, Inputs, Workload

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
sys.path.insert(0, str(ROOT / "src"))

from repro.core import EQ_STOP, EQSQL, RemoteTaskStore, ResultStatus  # noqa: E402
from repro.core import as_completed, update_priority  # noqa: E402
from repro.core.protocol import encode_message, parse_frame  # noqa: E402
from repro.pools import PythonTaskHandler  # noqa: E402
from repro.util.errors import TimeoutError_  # noqa: E402
from repro.util.serialization import json_dumps, json_loads  # noqa: E402

#: A round whose tasks are not all back after this long is abandoned
#: (its missing tasks count as failed) instead of hanging the run.
ROUND_TIMEOUT = 120.0
PINGPONG_WINDOW = 2.0
WARMUP_TASKS = 8
TIMED_LAUNCHES = 3
VERIFY_SAMPLE = 50
REPLAY_FRAMES = 1000
CLK_TCK = os.sysconf("SC_CLK_TCK") if hasattr(os, "sysconf") else 100


class BenchError(RuntimeError):
    """The run cannot produce a result (bad host, dead child, ...)."""


# -- host probes -----------------------------------------------------------------


def require_host(workdir: Path, need_bytes: int) -> None:
    """Fail fast where the run cannot measure or would fill the disk."""
    if not sys.platform.startswith("linux"):
        raise BenchError("benchmarks/e2e needs Linux (/proc/<pid>/stat, VmHWM)")
    if str(workdir.resolve()).startswith("/dev/shm"):
        raise BenchError("refusing to run in /dev/shm: a sweep_64k run can fill a tmpfs")
    free = shutil.disk_usage(workdir).free
    if free < need_bytes:
        raise BenchError(
            f"{workdir} has {free / 2**30:.1f} GiB free; this workload needs"
            f" {need_bytes / 2**30:.1f} GiB (pass --workdir)"
        )


def cpu_seconds(pid: int | str) -> float:
    """utime + stime of a live process, all threads."""
    with open(f"/proc/{pid}/stat", encoding="ascii") as stat:
        fields = stat.read().rsplit(")", 1)[1].split()
    return (int(fields[11]) + int(fields[12])) / CLK_TCK


def reset_peak_rss(pid: int | str) -> None:
    """Restart the kernel's RSS high-water mark of a process from its
    current RSS, so ``VmHWM`` read later is the peak *since now*."""
    with open(f"/proc/{pid}/clear_refs", "w", encoding="ascii") as refs:
        refs.write("5")


def peak_rss_mb(pid: int | str) -> float:
    with open(f"/proc/{pid}/status", encoding="ascii") as status:
        for line in status:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise BenchError(f"no VmHWM for pid {pid}")


def ref_kernel_ms() -> float:
    """A fixed pure-Python + JSON loop: the machine-speed canary.

    Timed between rounds; explains a disturbed run, never scales one.
    """
    t0 = perf_counter()
    acc = 0
    for k in range(150_000):
        acc += (k * k) % 7
    blob = json.dumps({"acc": acc, "v": list(range(5000))})
    for _ in range(40):
        json.loads(blob)
    return (perf_counter() - t0) * 1e3


# -- the three-process topology ------------------------------------------------------


class Children:
    """Every child process of a run, each in its own session, so that
    whatever happens to the driver they can be found and killed."""

    def __init__(self) -> None:
        self._procs: list[subprocess.Popen] = []

    def spawn(self, script: str, *args: str) -> subprocess.Popen:
        proc = subprocess.Popen(
            [sys.executable, str(HERE / script), *args],
            stdout=subprocess.PIPE,
            text=True,
            start_new_session=True,
            # One source of run-to-run variation less: str hashing (dict
            # and set layout) is the same in every child of every run.
            env={**os.environ, "PYTHONHASHSEED": "0"},
        )
        self._procs.append(proc)
        return proc

    def kill_all(self) -> None:
        for proc in self._procs:
            if proc.poll() is None:
                try:
                    os.killpg(proc.pid, signal.SIGKILL)
                except ProcessLookupError:
                    pass
            proc.wait()
            if proc.stdout:
                proc.stdout.close()
        self._procs.clear()


class Topology:
    """One live service + pool pair and the driver's ``EQSQL`` over it."""

    def __init__(
        self,
        children: Children,
        rundir: Path,
        inputs: Inputs,
        seed: int,
        tag: str,
        recorder: Recorder | None,
    ) -> None:
        self.db = rundir / f"{tag}.sqlite"
        self.span_files = {role: rundir / f"{tag}.{role}.jsonl" for role in ("service", "pool")}
        traced = recorder is not None
        t0 = perf_counter()
        service_args = ["--db", str(self.db)]
        if traced:
            service_args += ["--spans", str(self.span_files["service"])]
        self.service = children.spawn("serve_main.py", *service_args)
        line = self.service.stdout.readline()  # type: ignore[union-attr]
        if not line.startswith("PORT "):
            raise BenchError(f"service did not start (exit {self.service.poll()})")
        port = int(line.split()[1])
        pool_args = [
            "--port", str(port), "--workload", inputs.workload.name, "--seed", str(seed),
        ]
        if traced:
            pool_args += ["--spans", str(self.span_files["pool"])]
        self.pool = children.spawn("pool_main.py", *pool_args)
        store: Any = RemoteTaskStore("127.0.0.1", port)
        if traced:
            store = TimedStore(store, recorder, "service_client")
        self.eq = EQSQL(store)
        futures = self.eq.submit_tasks(EXP_ID, WORK_TYPE, inputs.payloads(WARMUP_TASKS))
        for _ in as_completed(futures, timeout=ROUND_TIMEOUT):
            pass
        self.setup_s = perf_counter() - t0

    def db_mb(self) -> float:
        files = (self.db, Path(f"{self.db}-wal"))
        return sum(f.stat().st_size for f in files if f.exists()) / 2**20

    def teardown(self) -> list[str]:
        """Stop pool, wait, then stop the service (the other order makes
        the pool log fetch errors against a dead service).  Returns what
        was wrong with the way the children ended; empty means clean."""
        problems: list[str] = []
        stop = self.eq.submit_task(EXP_ID, WORK_TYPE, EQ_STOP)
        status, _ = stop.result(timeout=30.0)
        if status != ResultStatus.SUCCESS:
            problems.append("pool did not acknowledge EQ_STOP")
            self.pool.terminate()
        try:
            out, _ = self.pool.communicate(timeout=30.0)
        except subprocess.TimeoutExpired:
            self.pool.kill()
            out, _ = self.pool.communicate()
            problems.append("pool had to be killed")
        stats = next(
            (json.loads(ln[6:]) for ln in out.splitlines() if ln.startswith("STATS ")), None
        )
        if stats is None:
            problems.append("pool printed no STATS line")
        elif stats["tasks_failed"] or stats["reports_lost"]:
            problems.append(f"pool counted failures: {stats}")
        if not self.eq.are_queues_empty():
            problems.append(f"queues not empty at teardown: {self.eq.queue_lengths()}")
        self.eq.close()
        self.service.terminate()
        try:
            self.service.wait(timeout=30.0)
        except subprocess.TimeoutExpired:
            self.service.kill()
            self.service.wait()
            problems.append("service had to be killed")
        for name, proc in (("pool", self.pool), ("service", self.service)):
            if proc.returncode != 0:
                problems.append(f"{name} exited with code {proc.returncode}")
        return problems


# -- rounds: the three ME loops ----------------------------------------------------------


@dataclass
class RoundLog:
    """What one round's ME loop recorded; dropped once reduced."""

    payloads: list[str]
    t0: float = 0.0
    t1: float = 0.0
    #: (call start, call end, futures the call returned, payloads it carried)
    submits: list[tuple[float, float, list, list[str]]] = field(default_factory=list)
    #: (future, moment the ME was handed it)
    handed: list[tuple[Any, float]] = field(default_factory=list)
    reprio: list[tuple[float, float]] = field(default_factory=list)
    timed_out: bool = False


def _sweep(eq: EQSQL, log: RoundLog) -> None:
    t0 = perf_counter()
    futures = eq.submit_tasks(EXP_ID, WORK_TYPE, log.payloads)
    log.submits.append((t0, perf_counter(), futures, log.payloads))
    handed = log.handed
    for future in as_completed(futures, timeout=ROUND_TIMEOUT):
        handed.append((future, perf_counter()))


def _pingpong(eq: EQSQL, log: RoundLog) -> None:
    end = perf_counter() + PINGPONG_WINDOW
    for payload in log.payloads:
        t0 = perf_counter()
        if t0 >= end:
            break
        future = eq.submit_task(EXP_ID, WORK_TYPE, payload)
        t1 = perf_counter()
        status, _ = future.result(timeout=ROUND_TIMEOUT)
        t2 = perf_counter()
        log.submits.append((t0, t1, [future], [payload]))
        if status != ResultStatus.SUCCESS:
            raise TimeoutError_("pingpong: task did not come back")
        log.handed.append((future, t2))


def _calib(eq: EQSQL, log: RoundLog) -> None:
    """The paper's Listing-2 loop: collect 50, re-rank everything still
    pending by distance to the incumbent, repeat until drained.  The
    ranking is deliberately cheap (no GPR): a surrogate's cost would be
    the ME's, not the task plane's."""
    thetas = [json.loads(p)["x"] for p in log.payloads]
    t0 = perf_counter()
    futures = eq.submit_tasks(EXP_ID, WORK_TYPE, log.payloads)
    log.submits.append((t0, perf_counter(), futures, log.payloads))
    theta_of = {f.eq_task_id: theta for f, theta in zip(futures, thetas)}
    pending = list(futures)
    best_y, best = float("inf"), thetas[0]
    while pending:
        for future in as_completed(pending, pop=True, n=50, timeout=ROUND_TIMEOUT):
            log.handed.append((future, perf_counter()))
            y = json.loads(future.result()[1]).get("y", float("inf"))
            if y < best_y:
                best_y, best = y, theta_of[future.eq_task_id]
        if pending:
            dist = [
                sum((a - b) ** 2 for a, b in zip(theta_of[f.eq_task_id], best)) for f in pending
            ]
            order = sorted(range(len(pending)), key=dist.__getitem__)
            priorities = [0] * len(pending)
            for rank, k in enumerate(order):
                priorities[k] = len(pending) - rank
            u0 = perf_counter()
            update_priority(pending, priorities)
            log.reprio.append((u0, perf_counter()))


ME_LOOPS = {"sweep": _sweep, "pingpong": _pingpong, "calib": _calib}


def run_round(eq: EQSQL, workload: Workload, payloads: list[str]) -> RoundLog:
    log = RoundLog(payloads)
    log.t0 = perf_counter()
    try:
        ME_LOOPS[workload.shape](eq, log)
    except TimeoutError_:
        log.timed_out = True
    log.t1 = perf_counter()
    return log


@dataclass
class RoundStats:
    t0: float
    t1: float
    attempted: int
    failed: int
    rate: float
    p50_ms: float
    p95_ms: float
    #: The canary (``ref_kernel_ms``) as timed just before this round.
    ref_ms: float = 0.0


def reduce_round(log: RoundLog, inputs: Inputs) -> RoundStats:
    """Check every task of the round and reduce it to three numbers."""
    start_of: dict[int, float] = {}
    payload_of: dict[int, str] = {}
    for t0, _t1, futures, payloads in log.submits:
        for future, payload in zip(futures, payloads):
            start_of[future.eq_task_id] = t0
            payload_of[future.eq_task_id] = payload
    failed = 0
    seen: set[int] = set()
    turnaround: list[float] = []
    for future, t in log.handed:
        tid = future.eq_task_id
        status, result = future.result(timeout=0)
        if tid in seen or tid not in start_of:
            failed += 1  # yielded twice, or never submitted
            continue
        seen.add(tid)
        if status != ResultStatus.SUCCESS or not inputs.plausible(payload_of[tid], result):
            failed += 1
        turnaround.append(t - start_of[tid])
    failed += len(start_of) - len(seen)  # still missing when the round ended
    return RoundStats(
        log.t0,
        log.t1,
        attempted=len(start_of),
        failed=failed,
        rate=len(seen) / (log.t1 - log.t0),
        p50_ms=median(turnaround) * 1e3,
        p95_ms=quantile(turnaround, 0.95) * 1e3,
    )


def record_round(recorder: Recorder, log: RoundLog) -> None:
    """The driver's own spans: its timers around EQSQL/futures calls."""
    for t0, t1, futures, _payloads in log.submits:
        recorder.add("eqsql.submit", t0, t1, [f.eq_task_id for f in futures])
    for future, t in log.handed:
        recorder.add("eqsql.handed", t, t, [future.eq_task_id])
    for t0, t1 in log.reprio:
        recorder.add("eqsql.update_priority", t0, t1)


# -- one run -----------------------------------------------------------------------------------


@dataclass
class RunResult:
    workload: str
    attempted: int = 0
    failed: int = 0
    problems: list[str] = field(default_factory=list)
    setups_s: list[float] = field(default_factory=list)
    rounds: list[RoundStats] = field(default_factory=list)
    end_to_end: dict[str, float] = field(default_factory=dict)
    per_layer: dict[str, float] = field(default_factory=dict)
    stages_ms: dict[str, float] = field(default_factory=dict)
    rss_mb: dict[str, float] = field(default_factory=dict)
    kept: str | None = None

    @property
    def correct(self) -> bool:
        return not self.problems and self.failed == 0 and self.attempted > 0


def _inline_check(
    inputs: Inputs, log: RoundLog, result: RunResult
) -> tuple[float, list[tuple[str, str]]]:
    """Recompute a sample of the last round in this process, single
    threaded: the correctness reference and the plain baseline against
    which the pool's handler wall is read (``pool.gil_inflation``)."""
    handler = PythonTaskHandler(inputs.handler_fn, json_io=inputs.json_io)
    payload_of = {
        f.eq_task_id: p for _t0, _t1, fs, ps in log.submits for f, p in zip(fs, ps)
    }
    walls: list[float] = []
    sample: list[tuple[str, str]] = []
    for future, _t in log.handed[:VERIFY_SAMPLE]:
        payload = payload_of[future.eq_task_id]
        got = future.result(timeout=0)[1]
        t0 = perf_counter()
        want = handler.handle(payload)
        walls.append(perf_counter() - t0)
        if not inputs.same(want, got):
            result.failed += 1
        sample.append((payload, got))
    return median(walls) * 1e3, sample


def _replay_codecs(sample: list[tuple[str, str]]) -> dict[str, float]:
    """Price the codecs on this workload's own bytes: the per-task
    ``report`` request frame (the most numerous frame on every workload)
    and the task payload, replayed outside the phase."""
    frames = [
        {
            "id": k,
            "method": "report",
            "params": {"eq_task_id": k, "eq_type": WORK_TYPE, "result": got, "now": 0.0},
        }
        for k, (_payload, got) in enumerate(sample)
    ]
    reps = max(1, REPLAY_FRAMES // max(len(frames), 1))
    t0 = perf_counter()
    for _ in range(reps):
        wire = [encode_message(f) for f in frames]
    t1 = perf_counter()
    for _ in range(reps):
        for line in wire:
            parse_frame(line)
    t2 = perf_counter()
    for _ in range(reps):
        for payload, _got in sample:
            json_dumps(json_loads(payload))
    t3 = perf_counter()
    n = reps * max(len(frames), 1)
    return {
        "protocol.encode_us_per_frame": (t1 - t0) / n * 1e6,
        "protocol.parse_us_per_frame": (t2 - t1) / n * 1e6,
        "serialization.json_roundtrip_us_per_payload": (t3 - t2) / n * 1e6,
    }


def run(
    workload: Workload,
    seed: int,
    seconds: float,
    workdir: Path,
    traced: bool = False,
    timed_launches: int = TIMED_LAUNCHES,
    keep: bool = False,
) -> RunResult:
    """One full run of ``workload``; see the module docstring for its shape.

    ``timed_launches=1`` skips the page-cache warm-up launch and the two
    throw-away launches (the traced run does: ``setup_s`` is end-to-end
    and always comes from an untraced run).
    """
    big = workload.name == "sweep_64k"
    require_host(workdir, (2 if big else 0.25) * 2**30)
    result = RunResult(workload.name)
    inputs = Inputs(workload, seed)
    recorder = Recorder() if traced else None
    children = Children()
    rundir = Path(tempfile.mkdtemp(prefix=f"e2e-{workload.name}-", dir=workdir))
    # SIGTERM must unwind through the finally below, or the children
    # (each in its own session) would outlive the driver.
    previous = signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    try:
        warm = 1 if timed_launches > 1 else 0
        topology = None
        for k in range(warm + timed_launches):
            if topology is not None:
                result.problems += topology.teardown()
                topology.db.unlink()
            topology = Topology(children, rundir, inputs, seed, f"launch{k}", recorder)
            if k >= warm:
                result.setups_s.append(topology.setup_s)
        assert topology is not None
        _timed_phase(topology, workload, inputs, seconds, recorder, result)
        result.problems += topology.teardown()
        if recorder is not None:
            windows = [(r.t0, r.t1) for r in result.rounds]
            layers, result.stages_ms = reduce_layers(
                recorder.spans,
                load_spans(str(topology.span_files["pool"])),
                load_spans(str(topology.span_files["service"])),
                windows,
                N_WORKERS,
            )
            result.per_layer.update(layers)
            if keep:
                recorder.dump(str(rundir / "driver.jsonl"))
    finally:
        children.kill_all()
        signal.signal(signal.SIGTERM, previous)
        if keep:
            result.kept = str(rundir)
        else:
            shutil.rmtree(rundir, ignore_errors=True)
    return result


def _timed_phase(
    topology: Topology,
    workload: Workload,
    inputs: Inputs,
    seconds: float,
    recorder: Recorder | None,
    result: RunResult,
) -> None:
    eq = topology.eq
    pids: dict[str, int | str] = {
        "driver": "self", "service": topology.service.pid, "pool": topology.pool.pid,
    }
    children = {role: pid for role, pid in pids.items() if role != "driver"}
    # Uncounted: the first round on a fresh database runs faster than
    # steady state (on sweep_noop by ~30 %).
    warmup = reduce_round(run_round(eq, workload, inputs.payloads(workload.round_tasks)), inputs)
    if warmup.failed:
        result.problems.append(f"warm-up round failed {warmup.failed} tasks")
    cpu = {role: 0.0 for role in pids}
    peaks: dict[str, list[float]] = {role: [] for role in pids}
    canary: list[float] = []
    phase_start = perf_counter()
    while True:
        # Inputs for the next round are made between rounds, outside
        # any round's clock — and after the previous round is dropped:
        # the driver holds one round's payloads and results at a time.
        log = payloads = None
        payloads = inputs.payloads(workload.round_tasks)
        canary.append(ref_kernel_ms())
        for pid in pids.values():
            reset_peak_rss(pid)
        before = {"driver": process_time(), **{k: cpu_seconds(p) for k, p in children.items()}}
        log = run_round(eq, workload, payloads)
        after = {"driver": process_time(), **{k: cpu_seconds(p) for k, p in children.items()}}
        for role, pid in pids.items():
            cpu[role] += after[role] - before[role]
            peaks[role].append(peak_rss_mb(pid))
        stats = reduce_round(log, inputs)
        stats.ref_ms = canary[-1]
        result.rounds.append(stats)
        result.attempted += stats.attempted
        result.failed += stats.failed
        if recorder is not None:
            record_round(recorder, log)
        if log.timed_out:
            result.problems.append("a round hit its timeout and was abandoned")
            break
        typical = median([r.t1 - r.t0 for r in result.rounds])
        if perf_counter() - phase_start + typical > seconds:
            break
    rounds = result.rounds
    # Peak memory, too, is a statistic of rounds: one transient buffer
    # that happens to overlap another moves a whole-run high-water mark
    # by tens of MB, the median per-round peak hardly at all.
    rss = {role: median(values) for role, values in peaks.items()}
    result.rss_mb = rss
    result.end_to_end = {
        "setup_s": median(result.setups_s),
        # Quartiles across rounds on the undisturbed side: interference
        # on a shared host only ever slows a round.
        "tasks_per_s": quantile([r.rate for r in rounds], 0.75),
        "turnaround_ms_p50": quantile([r.p50_ms for r in rounds], 0.25),
        "turnaround_ms_p95": quantile([r.p95_ms for r in rounds], 0.25),
        "peak_rss_mb": sum(rss.values()),
    }
    inline_ms, sample = _inline_check(inputs, log, result)
    done = max(sum(r.attempted - r.failed for r in rounds), 1)
    result.per_layer = {
        "eqsql.me_cpu_us_per_task": cpu["driver"] / done * 1e6,
        "service.cpu_us_per_task": cpu["service"] / done * 1e6,
        "service.peak_rss_mb": rss["service"],
        "sqlite_backend.db_mb_at_end": topology.db_mb(),
        "pool.cpu_us_per_task": cpu["pool"] / done * 1e6,
        "pool.peak_rss_mb": rss["pool"],
        "epi.kernel_inline_ms_p50": inline_ms,
        "host.ref_kernel_ms": median(canary),
    }
    if recorder is not None:
        result.per_layer.update(_replay_codecs(sample))


def run_traced(
    workload: Workload, seed: int, seconds: float, workdir: Path, keep: bool = False
) -> RunResult:
    """The ``--trace 1`` run: a third of the time buys an untraced
    reference that the tracing overhead is read against; the rest is the
    run with the wrappers installed, whose per-layer metrics are returned."""
    reference = run(workload, seed, seconds / 3, workdir, timed_launches=1)
    result = run(
        workload, seed, seconds * 2 / 3, workdir, traced=True, timed_launches=1, keep=keep
    )
    result.problems += reference.problems
    result.failed += reference.failed
    layers = result.per_layer
    inline = layers["epi.kernel_inline_ms_p50"]
    layers["pool.gil_inflation"] = layers["handlers.run_ms_p50"] / inline if inline else 0.0
    ref = reference.end_to_end["tasks_per_s"]
    layers["trace.overhead_frac"] = (ref - result.end_to_end["tasks_per_s"]) / ref
    return result


def waterfall(result: RunResult) -> str:
    """The per-stage table of a traced run: stage medians in causal
    order, their sum, and the median turnaround they should add up to."""
    lines = [f"waterfall {result.workload} (per-task medians, ms)"]
    total = 0.0
    for stage in STAGES:
        value = result.stages_ms.get(stage, 0.0)
        total += value
        lines.append(f"  {stage:<26}{value:>10.3f}")
    turnaround = result.stages_ms.get("turnaround", 0.0)
    lines.append(f"  {'sum of stage medians':<26}{total:>10.3f}")
    lines.append(f"  {'median turnaround':<26}{turnaround:>10.3f}")
    if turnaround:
        lines.append(f"  {'sum / turnaround':<26}{total / turnaround:>10.3f}")
    return "\n".join(lines)

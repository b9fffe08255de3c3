"""End-to-end benchmark on the paper's three-process topology.

    python3 benchmarks/e2e/run.py --workload sweep_noop --seed 1 --seconds 24 --trace 0

runs one workload (driver = ME, ``TaskService`` over a sqlite file, one
two-worker pool over the wire; see README.md) and prints every
end-to-end metric by name with its unit, a ``record`` line (seed, host,
rounds, canary) and, as the last line of stdout, the result object
``{"correct", "attempted", "failed", "metrics"}``.  ``--trace 1`` prints
the per-layer metrics instead, from a rerun with the benchmark's own
wrappers installed.  ``--selfnoise K`` checks that the benchmark repeats
within its own bounds.  The exit code is 0 only for a correct run.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
DEFAULT_SEED = 20230515
SMOKE_SECONDS = 2.0


def load_contract() -> dict:
    """BENCHMARK.json: the one list of workloads, metrics, units, bounds."""
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as src:
        return json.load(src)


def git_sha() -> str | None:
    if not (ROOT / ".git").exists():
        return None  # the scoring checkout is not a git repository
    done = subprocess.run(
        ["git", "-C", str(ROOT), "rev-parse", "HEAD"], capture_output=True, text=True
    )
    return done.stdout.strip() or None


def run_workload(args: argparse.Namespace, contract: dict) -> int:
    # Imported here: it pulls in the program under test, which a
    # directory holding only the benchmark does not have.
    import driver
    from workloads import WORKLOADS

    workload = WORKLOADS[args.workload]
    workdir = Path(args.workdir)
    workdir.mkdir(parents=True, exist_ok=True)
    loadavg = os.getloadavg()
    traced = bool(args.trace)
    try:
        if traced:
            result = driver.run_traced(
                workload, args.seed, args.seconds, workdir, keep=args.traced
            )
        else:
            result = driver.run(workload, args.seed, args.seconds, workdir)
    except driver.BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    values, kind = (
        (result.per_layer, "per_layer") if traced else (result.end_to_end, "end_to_end")
    )

    units = {m["name"]: m["unit"] for m in contract[kind]}
    metrics = {name: {"value": values[name], "unit": units[name]} for name in units}
    print(f"{workload.name}: {len(result.rounds)} rounds, {result.attempted} tasks,"
          f" {result.failed} failed, seed {args.seed}")
    for name, metric in metrics.items():
        print(f"  {name:<46}{metric['value']:>14.4f} {metric['unit']}")
    if traced:
        print(driver.waterfall(result))
        if result.kept:
            print(f"spans kept in {result.kept}")
    for problem in result.problems:
        print(f"PROBLEM: {problem}")
    record = {
        "workload": workload.name,
        "seed": args.seed,
        "seconds": args.seconds,
        "traced": traced,
        "git_sha": git_sha(),
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "loadavg_at_start": loadavg,
        "rounds_counted": len(result.rounds),
        "rounds": [
            [round(r.rate, 2), round(r.p50_ms, 3), round(r.p95_ms, 3), round(r.ref_ms, 2)]
            for r in result.rounds
        ],
        "setups_s": result.setups_s,
        "host.ref_kernel_ms": result.per_layer["host.ref_kernel_ms"],
        "peak_rss_mb": result.rss_mb,
        "cpu_us_per_task": {
            k: v for k, v in result.per_layer.items() if k.endswith("cpu_us_per_task")
        },
    }
    print("record " + json.dumps(record))
    print(json.dumps({
        "correct": result.correct,
        "attempted": max(result.attempted, 1),
        "failed": result.failed,
        "metrics": metrics,
    }))
    return 0 if result.correct else 1


# -- selfnoise: does the benchmark repeat within its own bounds? ---------------------


def _one_run(workload: str, seed: int, seconds: float, workdir: str) -> dict:
    done = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0", "--workdir", workdir],
        capture_output=True, text=True,
    )
    if done.returncode != 0:
        sys.stderr.write(done.stdout + done.stderr)
        raise SystemExit(f"selfnoise: {workload} seed {seed} exited {done.returncode}")
    return json.loads(done.stdout.splitlines()[-1])


def spread(values: list[float]) -> float:
    """Interquartile distance as a share of the median (the driver's measure)."""
    q1, _q2, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def selfnoise(args: argparse.Namespace, contract: dict) -> int:
    """Run the whole set K times, twice over, and compare the two sets'
    medians.  A gap above the metric's bound fails; the builder's rule
    is stricter (fix the estimator when a gap passes *half* its bound)."""
    names = [w["name"] for w in contract["workloads"]]
    k = args.selfnoise
    sets: list[dict[tuple[str, str], list[float]]] = []
    for s in range(2):
        values: dict[tuple[str, str], list[float]] = {}
        for i in range(k):
            for name in names:
                seed = args.seed + s * k + i
                out = _one_run(name, seed, args.seconds, args.workdir)
                if not out["correct"] or out["failed"]:
                    raise SystemExit(f"selfnoise: {name} run was not correct: {out}")
                cells = {m: round(c["value"], 4) for m, c in out["metrics"].items()}
                print(f"set {'AB'[s]} run {i} {name} seed {seed}: {cells}", flush=True)
                for metric, cell in out["metrics"].items():
                    values.setdefault((name, metric), []).append(cell["value"])
        sets.append(values)
    print(f"{'workload':<12}{'metric':<20}{'median A':>12}{'median B':>12}"
          f"{'gap':>8}{'iqr A':>8}{'iqr B':>8}{'bound':>7}")
    worst = 0.0
    for name in names:
        for m in contract["end_to_end"]:
            a, b = (s[(name, m["name"])] for s in sets)
            med_a, med_b = statistics.median(a), statistics.median(b)
            gap = abs(med_b - med_a) / med_a
            worst = max(worst, gap / m["bound"])
            flag = " FAIL" if gap > m["bound"] else (" >half" if gap > m["bound"] / 2 else "")
            iqr = [f"{spread(v):>8.3f}" if len(v) > 1 else f"{'-':>8}" for v in (a, b)]
            print(f"{name:<12}{m['name']:<20}{med_a:>12.4f}{med_b:>12.4f}"
                  f"{gap:>8.3f}{iqr[0]}{iqr[1]}{m['bound']:>7.2f}{flag}")
    print(f"largest gap is {worst:.2f} of its bound")
    return 1 if worst > 1.0 else 0


def main() -> int:
    contract = load_contract()
    names = [w["name"] for w in contract["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=names)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=float(contract["run_seconds"]),
                        help="length of the timed phase")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1: traced rerun, prints the per-layer metrics")
    parser.add_argument("--traced", action="store_true",
                        help="--trace 1, and keep the span files for inspection")
    parser.add_argument("--smoke", action="store_true", help=f"{SMOKE_SECONDS:g} s phase")
    parser.add_argument("--selfnoise", type=int, metavar="K",
                        help="run the whole set K times, twice over, and compare")
    parser.add_argument("--workdir", default=str(ROOT / ".bench_e2e"),
                        help="where run directories are made (never /dev/shm)")
    args = parser.parse_args()
    if args.traced:
        args.trace = 1
    if args.smoke:
        args.seconds = SMOKE_SECONDS
    if args.selfnoise:
        return selfnoise(args, contract)
    if not args.workload:
        parser.error("--workload is required (or --selfnoise K)")
    return run_workload(args, contract)


if __name__ == "__main__":
    sys.exit(main())

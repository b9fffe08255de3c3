"""The four workloads: seeded inputs, handler bodies and pool settings.

Imported by the driver (to generate payloads and check results) and by
the pool launcher (to build the handler), so both sides derive the same
SEIR problem from the same ``--seed`` and the program under test only
ever sees generated inputs.  Why each workload exists is recorded in
``BENCHMARK.json`` and, at length, in README.md.
"""

from __future__ import annotations

import json
import math
import random
from collections.abc import Callable
from dataclasses import dataclass, field
from typing import Any

WORK_TYPE = 0
EXP_ID = "e2e"
N_WORKERS = 2

#: Exact wire size of one ``sweep_64k`` payload.
BIG_PAYLOAD_BYTES = 65_536
_CHUNKS = 256  # seeded float-text chunks the 64 KiB payloads are cut from
_CHUNK_FLOATS = 210  # ~4 KiB of float text per chunk
_CHUNKS_PER_PAYLOAD = 15

SEIR_DAYS = 120
SEIR_POPULATION = 100_000.0


@dataclass(frozen=True)
class Workload:
    """One benchmark workload.

    ``shape`` picks the ME loop the driver runs (``sweep``: one
    ``submit_tasks`` + ``as_completed``; ``pingpong``: one task in
    flight; ``calib``: the paper's Listing-2 loop with reprioritisation).
    ``round_tasks`` is the tasks per round (on ``pingpong`` a cap: the
    round is a 2 s window).  ``pool`` holds the ``PoolConfig`` fields
    that differ from stock.
    """

    name: str
    shape: str
    round_tasks: int
    pool: dict[str, Any] = field(default_factory=dict)


WORKLOADS: dict[str, Workload] = {
    w.name: w
    for w in (
        # Oversubscribed pool (paper Fig 3, top panel) on both sweeps.
        Workload("sweep_noop", "sweep", 2000, {"batch_size": 32}),
        Workload("sweep_64k", "sweep", 500, {"batch_size": 32}),
        Workload("pingpong", "pingpong", 6000),
        Workload("seir_calib", "calib", 200),
    )
}


def _echo(payload: str) -> str:
    return payload


class Inputs:
    """Seeded input generator and handler body for one workload.

    The constructor is deterministic in ``(workload, seed)`` and is all
    the pool launcher uses; ``payloads`` draws from the seeded stream,
    so the same seed yields the same rounds in the same order.
    """

    def __init__(self, workload: Workload, seed: int) -> None:
        self.workload = workload
        self._rng = random.Random(seed)
        self.json_io = workload.shape == "calib"
        self.handler_fn: Callable[[Any], Any] = _echo
        if workload.name == "sweep_64k":
            self._chunks = [
                ",".join(repr(self._rng.random()) for _ in range(_CHUNK_FLOATS))
                for _ in range(_CHUNKS)
            ]
        if workload.shape == "calib":
            self._init_seir(seed)

    def _init_seir(self, seed: int) -> None:
        import numpy as np

        from repro.epi.calibration import CalibrationProblem
        from repro.epi.seir import SEIRParams, simulate_seir
        from repro.epi.surveillance import SurveillanceModel, generate_surveillance

        nprng = np.random.default_rng(seed)
        truth = SEIRParams(
            beta=float(nprng.uniform(0.4, 0.9)),
            sigma=float(nprng.uniform(0.2, 0.5)),
            gamma=float(nprng.uniform(0.1, 0.3)),
            population=SEIR_POPULATION,
        )
        sim = simulate_seir(truth, initial_infected=5.0, t_end=float(SEIR_DAYS), dt=0.25)
        daily = sim.incidence[1:].reshape(SEIR_DAYS, 4).sum(axis=1)
        model = SurveillanceModel()
        observed = generate_surveillance(daily, model, nprng)
        self.problem = CalibrationProblem(observed, SEIR_POPULATION, model)
        self.handler_fn = self.problem.task_function

    def payloads(self, n: int) -> list[str]:
        """The next ``n`` task payloads of the seeded stream."""
        rng = self._rng
        name = self.workload.name
        if name == "sweep_64k":
            return [self._big_payload() for _ in range(n)]
        if name == "seir_calib":
            bounds = self.problem.bounds
            return [
                json.dumps(
                    {"i": rng.getrandbits(31), "x": [rng.uniform(lo, hi) for lo, hi in bounds]},
                    separators=(",", ":"),
                )
                for _ in range(n)
            ]
        return ['{"i": %d}' % rng.getrandbits(31) for _ in range(n)]

    def _big_payload(self) -> str:
        rng = self._rng
        body = ",".join(rng.choice(self._chunks) for _ in range(_CHUNKS_PER_PAYLOAD))
        text = '{"i": %d, "v": [%s]' % (rng.getrandbits(31), body)
        pad = BIG_PAYLOAD_BYTES - len(text) - 1
        if pad < 0:
            raise AssertionError(f"64 KiB payload overflows by {-pad} bytes")
        return text + " " * pad + "}"

    def plausible(self, payload: str, result: str) -> bool:
        """The cheap per-task check every counted task gets: an echo
        must be byte-identical, a SEIR result must carry a finite loss."""
        if not self.json_io:
            return result == payload
        try:
            return math.isfinite(json.loads(result)["y"])
        except (ValueError, KeyError, TypeError):
            return False

    def same(self, want: str, got: str) -> bool:
        """Whether a worker's result equals the inline recomputation:
        byte-for-byte for echoes, to relative 1e-9 for SEIR losses (the
        same numpy kernel, run in another process on another thread)."""
        if not self.json_io:
            return want == got
        try:
            a, b = json.loads(want)["y"], json.loads(got)["y"]
        except (ValueError, KeyError, TypeError):
            return False
        return abs(a - b) <= 1e-9 * abs(a)

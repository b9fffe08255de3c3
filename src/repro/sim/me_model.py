"""DES model of the asynchronous ME algorithm (the Fig 2 loop in §VI).

The process submits the full workload at t=0, then repeatedly waits for
the next ``repri_every`` completions.  At each trigger it computes new
priorities for the uncompleted tasks with the *real*
:class:`repro.me.GPRReprioritizer` (fit on the values observed so far)
and applies them through the real ``update_priorities`` path after a
modelled remote-retraining delay — the Theta/Midway2 round trip of the
paper, during which the pools keep consuming tasks.

Callbacks fire at configured reprioritization indices so scenarios can
attach side effects — Fig 4 submits worker-pool jobs 2 and 3 "during the
2nd and 4th reprioritizations".
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass, field

import numpy as np

from repro.core.eqsql import EQSQL
from repro.me.reprioritizer import GPRReprioritizer
from repro.simt.environment import Environment


@dataclass
class ReprioritizationTrace:
    """One reorder step under virtual time."""

    index: int
    time_start: float
    time_stop: float
    n_completed: int
    n_reprioritized: int
    priorities: np.ndarray = field(repr=False, default_factory=lambda: np.empty(0))


class SimMEAlgorithm:
    """The ME algorithm as a DES process."""

    def __init__(
        self,
        env: Environment,
        eqsql: EQSQL,
        work_type: int,
        points: np.ndarray,
        values: np.ndarray,
        payloads: list[str],
        repri_every: int = 50,
        poll_delay: float = 0.5,
        remote_duration: Callable[[int], float] | None = None,
        reprioritizer: GPRReprioritizer | None = None,
        on_reprioritization: Callable[[int], None] | None = None,
        exp_id: str = "exp-sim",
    ) -> None:
        """``remote_duration(n_completed)`` models the remote GPR
        retraining time; default ``1.0 + 0.004 * n`` virtual seconds."""
        self.env = env
        self.eqsql = eqsql
        self.work_type = work_type
        self.points = points
        self.values = values
        self.payloads = payloads
        self.repri_every = repri_every
        self.poll_delay = poll_delay
        self.remote_duration = (
            remote_duration if remote_duration is not None else lambda n: 1.0 + 0.004 * n
        )
        self.reprioritizer = (
            reprioritizer
            if reprioritizer is not None
            else GPRReprioritizer(optimize_hyperparameters=False, max_train=300)
        )
        self.on_reprioritization = on_reprioritization
        self.exp_id = exp_id

        self.reprioritizations: list[ReprioritizationTrace] = []
        self.completion_order: list[int] = []  # task indices by completion
        self.process = None
        self._task_ids: list[int] = []

    def start(self) -> "SimMEAlgorithm":
        if self.process is not None:
            raise RuntimeError("ME algorithm already started")
        self.process = self.env.process(self._run())
        return self

    def completed_values(self) -> np.ndarray:
        """Objective values in completion order."""
        return self.values[np.array(self.completion_order, dtype=int)]

    # -- process -------------------------------------------------------------

    def _run(self):
        futures = self.eqsql.submit_tasks(self.exp_id, self.work_type, self.payloads)
        self._task_ids = [f.eq_task_id for f in futures]
        index_of = {tid: i for i, tid in enumerate(self._task_ids)}
        pending: set[int] = set(self._task_ids)
        since_repri = 0
        repri_index = 0

        while pending:
            completed = self.eqsql.pop_completed_ids(sorted(pending))
            for tid, _result in completed:
                pending.discard(tid)
                self.completion_order.append(index_of[tid])
                since_repri += 1
            if since_repri >= self.repri_every and pending:
                since_repri = 0
                repri_index += 1
                if self.on_reprioritization is not None:
                    self.on_reprioritization(repri_index)
                yield from self._reprioritize(repri_index, index_of, pending)
            else:
                yield self.env.timeout(self.poll_delay)

    def _reprioritize(self, repri_index: int, index_of: dict[int, int], pending: set[int]):
        t0 = self.env.now
        n_done = len(self.completion_order)
        done_idx = np.array(self.completion_order, dtype=int)
        pending_ids = sorted(pending)
        pending_idx = np.array([index_of[t] for t in pending_ids], dtype=int)
        priorities = self.reprioritizer(
            self.points[done_idx], self.values[done_idx], self.points[pending_idx]
        )
        # The remote round trip: proxy resolution + GPR fit + reply.
        # Pools keep consuming during this window.
        yield self.env.timeout(self.remote_duration(n_done))
        n_updated = self.eqsql.update_priorities(
            pending_ids, [int(p) for p in priorities]
        )
        t1 = self.env.now
        self.reprioritizations.append(
            ReprioritizationTrace(
                index=repri_index,
                time_start=t0,
                time_stop=t1,
                n_completed=n_done,
                n_reprioritized=n_updated,
                priorities=np.asarray(priorities),
            )
        )

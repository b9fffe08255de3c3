"""Service launcher: a ``TaskService`` over a ``SqliteTaskStore`` file.

The repo has no ``serve`` CLI, so the benchmark brings its own.  Every
service and store option is left at its default (WAL, synchronous=NORMAL,
no journal, no tracer, no leases, no status server).  Prints ``PORT <n>``
once the socket is bound and serves until SIGTERM.
"""

from __future__ import annotations

import argparse
import signal
import sys
import threading
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[2] / "src"))

from repro.core import TaskService  # noqa: E402
from repro.db.sqlite_backend import SqliteTaskStore  # noqa: E402

from spans import Recorder, TimedStore  # noqa: E402


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--db", required=True, help="sqlite database file")
    parser.add_argument("--spans", help="traced run: write this process's spans here")
    args = parser.parse_args()

    stop = threading.Event()
    signal.signal(signal.SIGTERM, lambda *_: stop.set())

    store = SqliteTaskStore(args.db)
    recorder = Recorder() if args.spans else None
    served = TimedStore(store, recorder, "sqlite_backend") if recorder else store
    service = TaskService(served).start()
    try:
        print(f"PORT {service.address[1]}", flush=True)
        stop.wait()
    finally:
        service.stop()
        store.close()
        if recorder:
            recorder.dump(args.spans)
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""The EMEWS task database substrate (paper §IV-C).

A resource-local SQL database with five linked tables — tasks, output
queue, input queue, experiments, tags — that provides the foundation for
fault-tolerant task queueing: tasks live in the database, not in the ME
process, so a resource failure loses no work.

One engine implements the :class:`TaskStore` contract:
:class:`SqliteTaskStore` on stdlib ``sqlite3`` (substituting for the
paper's PostgreSQL; the schema and semantics are engine-agnostic).  A
database file is the durable store; ``":memory:"`` is the transient one
the discrete-event simulations, demos and tests run on.  The reference
model in :mod:`repro.testing.conformance` is the contract's executable
spec.
"""

from repro.db.schema import TaskStatus, TaskRow, SCHEMA_STATEMENTS
from repro.db.backend import TaskStore
from repro.db.sqlite_backend import SqliteTaskStore

__all__ = [
    "TaskStatus",
    "TaskRow",
    "SCHEMA_STATEMENTS",
    "TaskStore",
    "SqliteTaskStore",
]

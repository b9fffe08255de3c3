"""Shared fixtures: the EMEWS DB engine over its two kinds of database.

Tests parametrized over a store *flavor* run the one engine twice:
``memory`` is a transient ``:memory:`` database, ``sqlite`` a WAL
database file (the deployment shape).
"""

from __future__ import annotations

import pytest

from repro.db import SqliteTaskStore


@pytest.fixture
def db_path(tmp_path):
    """Map a flavor to its database path (``:memory:`` or a fresh file)."""
    return lambda flavor: ":memory:" if flavor == "memory" else str(tmp_path / "emews.db")


@pytest.fixture(params=["memory", "sqlite"])
def store(request, db_path):
    """A fresh TaskStore of each flavor."""
    s = SqliteTaskStore(db_path(request.param))
    yield s
    s.close()

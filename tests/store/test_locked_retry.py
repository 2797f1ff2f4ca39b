"""Lock-contention retries in the sqlite backend.

``busy_timeout`` handles most contention inside sqlite itself, but a
"database is locked" error can still escape it; the backend must retry
the whole write with capped backoff rather than failing a request over
a transient lock storm.
"""

import sqlite3

import pytest

from repro import obs
from repro.store import SqliteBackend


class FlakyConnection:
    """Delegates to a real connection, but fails the first ``failures``
    write statements with a chosen OperationalError."""

    WRITE_PREFIXES = ("BEGIN", "UPDATE", "DELETE", "INSERT")

    def __init__(self, real, failures, message="database is locked"):
        self._real = real
        self.remaining = failures
        self.message = message
        self.raised = 0

    def execute(self, sql, *args):
        if self.remaining > 0 and sql.lstrip().upper().startswith(
            self.WRITE_PREFIXES
        ):
            self.remaining -= 1
            self.raised += 1
            raise sqlite3.OperationalError(self.message)
        return self._real.execute(sql, *args)


@pytest.fixture
def backend(tmp_path):
    backend = SqliteBackend(tmp_path / "cache.sqlite", site="test")
    yield backend
    backend.close()


@pytest.fixture
def no_sleep(monkeypatch):
    """Capture backoff delays instead of actually sleeping."""
    slept = []
    monkeypatch.setattr(
        "repro.store.backend.time.sleep", lambda s: slept.append(s)
    )
    return slept


def make_flaky(backend, monkeypatch, failures, message="database is locked"):
    real_connect = backend._connect
    flaky = FlakyConnection(real_connect(), failures, message=message)
    monkeypatch.setattr(backend, "_connect", lambda: flaky)
    return flaky


class TestPutRetries:
    def test_put_survives_transient_locks(
        self, backend, monkeypatch, no_sleep
    ):
        flaky = make_flaky(backend, monkeypatch, failures=2)
        backend.put("k", {"v": 1})
        assert flaky.raised == 2
        assert backend.get("k") == {"v": 1}
        counters = obs.get_metrics().snapshot()["counters"]
        assert counters["store.locked_retries"] == 2
        # Backoff followed the schedule's prefix, shortest first.
        assert no_sleep == list(SqliteBackend.LOCKED_BACKOFF_S[:2])

    def test_busy_message_is_retried_too(
        self, backend, monkeypatch, no_sleep
    ):
        make_flaky(
            backend, monkeypatch, failures=1, message="database table is busy"
        )
        backend.put("k", {"v": 2})
        assert backend.get("k") == {"v": 2}

    def test_lock_error_propagates_once_schedule_is_dry(
        self, backend, monkeypatch, no_sleep
    ):
        endless = len(SqliteBackend.LOCKED_BACKOFF_S) + 10
        make_flaky(backend, monkeypatch, failures=endless)
        with pytest.raises(sqlite3.OperationalError, match="locked"):
            backend.put("k", {"v": 3})
        # One sleep per schedule slot, then the final attempt raised.
        assert no_sleep == list(SqliteBackend.LOCKED_BACKOFF_S)

    def test_real_errors_are_not_retried(
        self, backend, monkeypatch, no_sleep
    ):
        make_flaky(
            backend, monkeypatch, failures=1, message="disk I/O error"
        )
        with pytest.raises(sqlite3.OperationalError, match="I/O"):
            backend.put("k", {"v": 4})
        assert no_sleep == []  # no backoff for a non-lock failure
        counters = obs.get_metrics().snapshot()["counters"]
        assert "store.locked_retries" not in counters


class TestOtherWrites:
    def test_annotate_and_delete_retry_as_well(
        self, backend, monkeypatch, no_sleep
    ):
        from repro.store import Provenance

        backend.put("k", {"v": 5})
        flaky = make_flaky(backend, monkeypatch, failures=2)
        backend.annotate("k", Provenance(op="test", inputs={}))
        assert backend.delete("k") is True
        assert flaky.raised == 2
        assert len(no_sleep) == 2

    def test_heal_retries_its_delete(self, backend, monkeypatch, no_sleep):
        backend.put("k", {"v": 6})
        raw = sqlite3.connect(str(backend.path), isolation_level=None)
        raw.execute("UPDATE entries SET digest = 'bad' WHERE key = 'k'")
        raw.close()
        flaky = make_flaky(backend, monkeypatch, failures=1)
        assert backend.get("k") is None
        assert flaky.raised == 1
        assert no_sleep == [SqliteBackend.LOCKED_BACKOFF_S[0]]
        monkeypatch.undo()
        assert backend.get("k") is None


class TestOpenRetries:
    def test_fresh_store_opens_while_another_connection_writes(
        self, tmp_path
    ):
        """Switching a fresh file to WAL fails at once, busy_timeout or
        not, while another connection holds a write transaction; the
        open must wait for it like any other write."""
        import threading
        import time

        path = tmp_path / "fresh.sqlite"
        writer = sqlite3.connect(
            str(path), isolation_level=None, check_same_thread=False
        )
        writer.execute("BEGIN IMMEDIATE")
        writer.execute("CREATE TABLE other (x INTEGER)")
        timer = threading.Timer(0.3, lambda: writer.execute("COMMIT"))
        timer.start()
        started = time.monotonic()
        try:
            backend = SqliteBackend(path, site="test")
        finally:
            timer.join(timeout=10)
            writer.close()
        assert not timer.is_alive()
        try:
            assert time.monotonic() - started >= 0.25
            mode = backend._connect().execute("PRAGMA journal_mode").fetchone()
            assert mode[0] == "wal"
            backend.put("k", {"v": 7})
            assert backend.get("k") == {"v": 7}
        finally:
            backend.close()

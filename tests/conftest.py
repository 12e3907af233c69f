"""Shared test configuration.

Every test gets a private on-disk result store: experiment runs made
by one test must never be served (stale) to another, and test runs
must not litter the repository's ``.repro-results/``.

Every test must also stop the threads it starts: a non-daemon thread
still alive 5 s after the test returned fails it.  (A file or socket a
test leaves open fails it through the ``ResourceWarning`` filter in
pyproject.toml.)
"""

import threading
import time

import pytest

#: how long a test's leftover non-daemon threads get to finish
THREAD_JOIN_SECONDS = 5.0


@pytest.fixture(autouse=True)
def _isolated_result_store(tmp_path, monkeypatch):
    monkeypatch.setenv("REPRO_STORE_DIR", str(tmp_path / "repro-store"))


@pytest.fixture(autouse=True)
def _no_leaked_threads():
    before = set(threading.enumerate())
    yield
    leaked = [
        thread for thread in threading.enumerate()
        if thread not in before and not thread.daemon
    ]
    deadline = time.monotonic() + THREAD_JOIN_SECONDS
    for thread in leaked:
        thread.join(max(0.0, deadline - time.monotonic()))
    alive = sorted(thread.name for thread in leaked if thread.is_alive())
    if alive:
        pytest.fail(f"test left non-daemon thread(s) running: {alive}")

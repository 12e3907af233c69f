"""Fleet concurrency violations: CONC003 must fire here.

``Coordinator`` sleeps — directly and via a one-level
``self._poll_remote()`` helper — while holding its lock, and also
carries the clean variant of the same shape, so the tests pin both
directions.
"""

import threading
import time


class Coordinator:
    def __init__(self):
        self._lock = threading.Lock()
        self.jobs = []

    def wait_done(self):
        with self._lock:
            time.sleep(0.1)  # CONC003: blocking while the lock is held

    def drain(self):
        with self._lock:
            self._poll_remote()  # CONC003: helper blocks one level down

    def _poll_remote(self):
        time.sleep(0.5)

    def snapshot(self):
        with self._lock:
            return list(self.jobs)

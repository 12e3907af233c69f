"""Live sweep progress: shared counters, ETA, and the TTY status line.

:class:`SweepProgress` is the single source of truth for "how far along
is this sweep": the sweep engine updates it as jobs resolve, the HTTP
``/progress`` endpoint reads it from its serving thread, and
:class:`ProgressPrinter` renders it as a terminal status line.
:func:`make_snapshot` holds the view's arithmetic (percent, ETA, hit
rate); the fabric coordinator builds its progress with it from its job
table.

The ETA comes from the per-job wall-time measurements the sweep engine
feeds in (the same observations that land in the
``repro_sweep_job_seconds`` histogram): ``remaining * mean_job_seconds
/ workers``, falling back to the overall completion rate before any
executed job has finished.  Store hits complete in microseconds
and are excluded from the mean, so the estimate tracks the jobs that
actually cost something.

:class:`ProgressPrinter` adapts to its stream: on a TTY it repaints one
``\\r``-terminated line (throttled to ~10 Hz); on anything else (CI
logs, pipes) it prints a plain line every few seconds and always prints
the final state, so non-interactive logs show a bounded, readable
trickle instead of control characters.
"""

from __future__ import annotations

import sys
import threading
import time
from typing import Dict, Optional, TextIO

#: Serving-outcome names, in display order (mirrors SweepStats; the
#: "fabric" outcome counts jobs executed by remote fabric workers).
OUTCOMES = ("store", "parallel", "serial", "fabric")


class SweepProgress:
    """Thread-safe counters for one sweep, snapshot-able at any time."""

    def __init__(self, total: int = 0, workers: int = 1) -> None:
        self._lock = threading.Lock()
        self.total = total
        self.workers = max(1, workers)
        self.done = 0
        self.outcomes: Dict[str, int] = {name: 0 for name in OUTCOMES}
        self.events: Dict[str, int] = {}
        self._job_seconds_sum = 0.0
        self._job_seconds_count = 0
        self._started = time.monotonic()
        self._finished: Optional[float] = None
        self._listeners: list = []

    # -- wiring --------------------------------------------------------
    def begin(self, total: int, workers: int = 1) -> None:
        """Count ``total`` more jobs, run on ``workers`` workers.

        Every :func:`~repro.experiments.sweep.run_jobs` call given this
        object adds its jobs here, so a sweep made of several calls (an
        ``auto`` sweep's escalation pass) reads as one: the counters,
        the start clock and the job-time mean carry on, and only the
        finished stamp clears.
        """
        with self._lock:
            self.total += total
            self.workers = max(1, workers)
            self._finished = None
        self._notify()

    def subscribe(self, listener) -> None:
        """``listener(progress)`` is called after every update.

        Several listeners may coexist (the TTY printer is one); they
        are called in subscription order.
        """
        self._listeners.append(listener)

    def _notify(self) -> None:
        for listener in list(self._listeners):
            listener(self)

    # -- updates (called by the sweep engine) --------------------------
    def job_done(self, outcome: str, seconds: Optional[float] = None) -> None:
        """Record one resolved job and, if executed, its wall time."""
        with self._lock:
            self.done += 1
            self.outcomes[outcome] = self.outcomes.get(outcome, 0) + 1
            if seconds is not None:
                self._job_seconds_sum += seconds
                self._job_seconds_count += 1
        self._notify()

    def note_event(self, name: str) -> None:
        """Count one robustness event (timeout, retry, pool_break...)."""
        with self._lock:
            self.events[name] = self.events.get(name, 0) + 1
        self._notify()

    def finish(self) -> None:
        """Freeze the elapsed clock (the sweep is complete)."""
        with self._lock:
            if self._finished is None:
                self._finished = time.monotonic()
        self._notify()

    # -- reading -------------------------------------------------------
    def snapshot(self) -> Dict[str, object]:
        """JSON-ready view of the counters (see :func:`make_snapshot`)."""
        with self._lock:
            end = self._finished
            count = self._job_seconds_count
            return make_snapshot(
                self.total, self.done, dict(self.outcomes), dict(self.events),
                (end if end is not None else time.monotonic()) - self._started,
                self._job_seconds_sum / count if count else None,
                self.workers, end is not None,
            )


def make_snapshot(
    total: int, done: int, outcomes: Dict[str, int], events: Dict[str, int],
    elapsed: float, mean_job: Optional[float], workers: int, finished: bool,
) -> Dict[str, object]:
    """The progress view of one sweep or several: totals, rates, ETA.

    :meth:`SweepProgress.snapshot` and the fabric coordinator's job
    table both read through here.  ``eta_seconds`` is None until it can
    be estimated; ``hit_rate`` is the fraction of resolved jobs served
    without simulating (from the result store).
    """
    workers = max(1, workers)
    remaining = max(0, total - done)
    eta: Optional[float] = None
    if finished or remaining == 0:
        eta = 0.0
    elif mean_job is not None:
        eta = remaining * mean_job / workers
    elif done and elapsed > 0:
        eta = remaining / (done / elapsed)
    served = outcomes.get("store", 0)
    return {
        "total": total,
        "done": done,
        "remaining": remaining,
        "percent": (100.0 * done / total) if total else 0.0,
        "outcomes": outcomes,
        "events": events,
        "elapsed_seconds": elapsed,
        "mean_job_seconds": mean_job,
        "eta_seconds": eta,
        "hit_rate": (served / done) if done else None,
        "workers": workers,
        "finished": finished,
    }


def _fmt_duration(seconds: float) -> str:
    """Compact duration: ``850ms``, ``12.3s``, ``4m08s``, ``1h02m``."""
    if seconds < 1:
        return f"{seconds * 1000:.0f}ms"
    if seconds < 100:
        return f"{seconds:.1f}s"
    minutes, secs = divmod(int(seconds), 60)
    if minutes < 100:
        return f"{minutes}m{secs:02d}s"
    hours, minutes = divmod(minutes, 60)
    return f"{hours}h{minutes:02d}m"


def render_line(snapshot: Dict[str, object]) -> str:
    """One-line human rendering of a progress snapshot."""
    total = snapshot["total"]
    done = snapshot["done"]
    parts = [f"sweep {done}/{total} ({snapshot['percent']:.0f}%)"]
    outcomes = snapshot["outcomes"]
    served = ", ".join(
        f"{outcomes[name]} {name}"
        for name in OUTCOMES
        if outcomes.get(name)
    )
    if served:
        parts.append(served)
    events = snapshot["events"]
    if events:
        parts.append(
            ", ".join(f"{count} {name}" for name, count in sorted(events.items()))
        )
    eta = snapshot["eta_seconds"]
    if snapshot["finished"]:
        parts.append(f"done in {_fmt_duration(snapshot['elapsed_seconds'])}")
    elif eta is not None:
        parts.append(f"eta {_fmt_duration(eta)}")
    hit_rate = snapshot["hit_rate"]
    if hit_rate is not None:
        parts.append(f"hit {hit_rate * 100:.0f}%")
    return " | ".join(parts)


class ProgressPrinter:
    """Renders a :class:`SweepProgress` onto a terminal or log stream.

    Subscribe it (``progress.subscribe(printer.on_change)``) and it
    repaints on every update, throttled per the stream kind; call
    :meth:`close` to emit the final state and release the line.
    """

    def __init__(
        self,
        progress: SweepProgress,
        stream: Optional[TextIO] = None,
        min_interval: Optional[float] = None,
    ) -> None:
        self.progress = progress
        self.stream = stream if stream is not None else sys.stderr
        try:
            self.is_tty = bool(self.stream.isatty())
        except (AttributeError, ValueError):
            self.is_tty = False
        self.min_interval = (
            min_interval if min_interval is not None
            else (0.1 if self.is_tty else 5.0)
        )
        # None = nothing painted yet, so the first update always paints
        # (0.0 would wrongly throttle it on hosts whose monotonic clock
        # is still below min_interval, i.e. recently booted machines).
        self._last_paint: Optional[float] = None
        self._last_width = 0
        self._closed = False

    def on_change(self, progress: SweepProgress) -> None:
        """Listener hook: repaint if the throttle interval has passed."""
        self.update()

    def update(self, force: bool = False) -> None:
        """Repaint the line (subject to throttling unless ``force``)."""
        if self._closed:
            return
        now = time.monotonic()
        if (
            not force
            and self._last_paint is not None
            and (now - self._last_paint) < self.min_interval
        ):
            return
        self._last_paint = now
        line = render_line(self.progress.snapshot())
        if self.is_tty:
            padding = " " * max(0, self._last_width - len(line))
            self.stream.write("\r" + line + padding)
            self._last_width = len(line)
        else:
            self.stream.write(line + "\n")
        self.stream.flush()

    def close(self) -> None:
        """Paint the final state and terminate the status line."""
        if self._closed:
            return
        self.update(force=True)
        if self.is_tty:
            self.stream.write("\n")
            self.stream.flush()
        self._closed = True

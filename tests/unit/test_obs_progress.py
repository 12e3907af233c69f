"""Unit tests for repro.obs.progress — counters, ETA, and rendering."""

import io

from repro.obs.progress import ProgressPrinter, SweepProgress, render_line


class TestSnapshot:
    def test_initial_state(self):
        snap = SweepProgress(total=4, workers=2).snapshot()
        assert snap["total"] == 4
        assert snap["done"] == 0
        assert snap["remaining"] == 4
        assert snap["percent"] == 0.0
        assert snap["hit_rate"] is None
        assert snap["eta_seconds"] is None
        assert snap["finished"] is False

    def test_job_done_accounting(self):
        progress = SweepProgress(total=4)
        progress.job_done("store")
        progress.job_done("store")
        progress.job_done("serial", seconds=2.0)
        snap = progress.snapshot()
        assert snap["done"] == 3
        assert snap["percent"] == 75.0
        assert snap["outcomes"]["store"] == 2
        assert snap["outcomes"]["serial"] == 1
        assert snap["hit_rate"] == 2 / 3
        assert snap["mean_job_seconds"] == 2.0

    def test_eta_from_mean_job_seconds_and_workers(self):
        progress = SweepProgress(total=5, workers=2)
        progress.job_done("serial", seconds=4.0)
        # 4 remaining * 4s mean / 2 workers
        assert progress.snapshot()["eta_seconds"] == 8.0

    def test_eta_zero_when_done_or_finished(self):
        progress = SweepProgress(total=1)
        progress.job_done("store")
        assert progress.snapshot()["eta_seconds"] == 0.0
        progress.finish()
        snap = progress.snapshot()
        assert snap["finished"] is True
        assert snap["eta_seconds"] == 0.0

    def test_finish_freezes_elapsed(self):
        progress = SweepProgress(total=1)
        progress.finish()
        first = progress.snapshot()["elapsed_seconds"]
        assert progress.snapshot()["elapsed_seconds"] == first

    def test_begin_rearms(self):
        progress = SweepProgress()
        progress.begin(total=7, workers=3)
        snap = progress.snapshot()
        assert snap["total"] == 7
        assert snap["workers"] == 3

    def test_note_event_counts(self):
        progress = SweepProgress(total=1)
        progress.note_event("timeout")
        progress.note_event("timeout")
        assert progress.snapshot()["events"] == {"timeout": 2}

    def test_subscribe_fires_on_updates(self):
        progress = SweepProgress(total=2)
        calls = []
        progress.subscribe(lambda p: calls.append(p.done))
        progress.job_done("store")
        progress.finish()
        assert calls == [1, 1]


class TestRenderLine:
    def test_mid_sweep_line(self):
        progress = SweepProgress(total=4, workers=1)
        progress.job_done("store")
        progress.job_done("serial", seconds=1.5)
        line = render_line(progress.snapshot())
        assert line.startswith("sweep 2/4 (50%)")
        assert "1 store" in line
        assert "1 serial" in line
        assert "eta" in line
        assert "hit 50%" in line

    def test_finished_line_shows_duration(self):
        progress = SweepProgress(total=1)
        progress.job_done("store")
        progress.finish()
        line = render_line(progress.snapshot())
        assert "done in" in line
        assert "eta" not in line

    def test_events_appear(self):
        progress = SweepProgress(total=2)
        progress.note_event("pool_break")
        assert "1 pool_break" in render_line(progress.snapshot())


class TestProgressPrinter:
    def test_non_tty_prints_plain_lines(self):
        stream = io.StringIO()
        progress = SweepProgress(total=1)
        printer = ProgressPrinter(progress, stream=stream, min_interval=0.0)
        progress.subscribe(printer.on_change)
        progress.job_done("serial", seconds=0.1)
        printer.close()
        out = stream.getvalue()
        assert "\r" not in out
        assert out.count("\n") >= 1
        assert "sweep 1/1 (100%)" in out

    def test_throttling_suppresses_repaints(self):
        stream = io.StringIO()
        progress = SweepProgress(total=100)
        printer = ProgressPrinter(progress, stream=stream, min_interval=3600.0)
        progress.subscribe(printer.on_change)
        for _ in range(50):
            progress.job_done("store")
        # first update paints immediately, the other 49 are throttled
        assert stream.getvalue().count("\n") == 1
        printer.close()  # forced final paint
        assert "sweep 50/100" in stream.getvalue()

    def test_close_is_idempotent(self):
        stream = io.StringIO()
        printer = ProgressPrinter(SweepProgress(total=1), stream=stream,
                                  min_interval=0.0)
        printer.close()
        once = stream.getvalue()
        printer.close()
        assert stream.getvalue() == once

"""Integration tests for the command-line interface."""

import json
import os

import pytest

from repro.cli import main
from repro.experiments import runner


class TestList:
    def test_lists_everything(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        assert "spec2006fp" in out
        assert "PMS" in out
        assert "commercial" in out


class TestRun:
    def test_run_prints_summary(self, capsys):
        assert main(["run", "-b", "tonto", "-c", "PMS", "-n", "2000"]) == 0
        out = capsys.readouterr().out
        assert "MC cycles" in out
        assert "useful prefetches" in out

    def test_run_np_has_no_prefetch_metrics(self, capsys):
        assert main(["run", "-b", "tonto", "-c", "NP", "-n", "2000"]) == 0
        out = capsys.readouterr().out
        assert "useful prefetches" not in out

    def test_run_smt(self, capsys):
        assert main(
            ["run", "-b", "tonto", "-c", "PMS", "-n", "1500", "--threads", "2"]
        ) == 0
        assert "IPC" in capsys.readouterr().out

    def test_unknown_benchmark_raises(self):
        with pytest.raises(KeyError):
            main(["run", "-b", "quake4", "-n", "1000"])

    def test_json_equals_the_library_run(self, capsys):
        # the CLI and runner.run build the same job
        assert main(["run", "-b", "milc", "-c", "PMS", "-n", "1500",
                     "--threads", "2", "--scheduler", "in_order",
                     "--json"]) == 0
        printed = json.loads(capsys.readouterr().out)
        library = runner.run("milc", "PMS", accesses=1500, seed=1, threads=2,
                             scheduler="in_order")
        assert printed == json.loads(json.dumps(library.to_dict()))

    def test_every_call_simulates_with_the_store_on(self, monkeypatch, capsys):
        # `REPRO_LOOP=reference repro run` must run the reference loop,
        # not read a stored event-loop result
        monkeypatch.setenv("REPRO_STORE", "1")
        before = runner.cache_info()["simulated"]
        for _ in range(2):
            assert main(["run", "-b", "tonto", "-c", "NP", "-n", "800"]) == 0
        assert runner.cache_info()["simulated"] == before + 2


class TestSuite:
    def test_leaves_the_environment_alone(self, monkeypatch, capsys):
        for name in ("REPRO_TRACE_ACCESSES", "REPRO_SEED", "REPRO_STORE"):
            monkeypatch.delenv(name, raising=False)
        before = dict(os.environ)
        assert main(["suite", "-s", "nas", "-n", "300", "--seed", "7",
                     "--no-store"]) == 0
        assert "Performance gain (%), nas" in capsys.readouterr().out
        assert dict(os.environ) == before


class _Called(Exception):
    pass


class TestJobsDefault:
    """``--jobs`` unset falls back to ``REPRO_JOBS``, as the help says."""

    @pytest.fixture
    def seen(self, monkeypatch):
        monkeypatch.setenv("REPRO_JOBS", "2")
        seen = {}

        def record(*args, **kwargs):
            seen.update(kwargs)
            raise _Called

        from repro.scenarios import calibrate, fuzzer

        monkeypatch.setattr(calibrate, "calibrate_trace", record)
        monkeypatch.setattr(fuzzer, "run_fuzz", record)
        return seen

    def test_trace_calibrate(self, seen):
        with pytest.raises(_Called):
            main(["trace", "calibrate", "t.trace"])
        assert seen["jobs"] == 2

    def test_fuzz(self, seen):
        with pytest.raises(_Called):
            main(["fuzz"])
        assert seen["jobs"] == 2


class TestSweep:
    def test_bad_repro_jobs_names_the_variable(self, monkeypatch):
        monkeypatch.setenv("REPRO_JOBS", "two")
        with pytest.raises(ValueError, match="REPRO_JOBS='two'"):
            main(["sweep", "-b", "tonto", "-c", "NP", "-n", "500",
                  "--no-progress"])

    def test_jobs_default_to_the_cpu_count(self, monkeypatch, capsys):
        monkeypatch.delenv("REPRO_JOBS", raising=False)
        assert main(["sweep", "-b", "tonto", "-c", "NP", "-n", "500",
                     "--no-progress"]) == 0
        assert f"jobs={os.cpu_count() or 1})" in capsys.readouterr().out


class TestCompare:
    def test_four_rows(self, capsys):
        assert main(["compare", "-b", "tonto", "-n", "2000"]) == 0
        out = capsys.readouterr().out
        for name in ("NP", "PS", "MS", "PMS"):
            assert name in out


class TestTrace:
    def test_trace_roundtrip(self, tmp_path, capsys):
        path = tmp_path / "t.trace"
        assert main(["trace", "generate", "-b", "tonto", "-o", str(path),
                     "-n", "500"]) == 0
        assert "wrote 500 records" in capsys.readouterr().out
        from repro.workloads.trace import Trace

        assert len(Trace.load(str(path))) == 500


class TestCost:
    def test_cost_table(self, capsys):
        assert main(["cost", "--threads", "1", "2"]) == 0
        out = capsys.readouterr().out
        assert "MC area" in out


class TestObsTraceExport:
    def test_export_renders_perfetto_json(self, tmp_path, capsys):
        import json

        from repro.obs.spans import SpanCollector, write_spans

        collector = SpanCollector(enabled=True)
        with collector.span("sweep.run_jobs", total=1) as root:
            collector.add("sweep.job", root.start_unix, 0.2, parent=root,
                          benchmark="milc", config="PS")
        snapshot = write_spans(collector, directory=str(tmp_path))
        output = tmp_path / "trace.json"
        assert main(["obs", "trace", "export", "--input", snapshot,
                     "-o", str(output)]) == 0
        out = capsys.readouterr().out
        assert "wrote" in out and "2 span(s)" in out
        assert "straggler: milc/PS" in out
        document = json.loads(output.read_text())
        names = {e["name"] for e in document["traceEvents"]
                 if e["ph"] == "X"}
        assert names == {"sweep.run_jobs", "sweep.job"}

    def test_missing_snapshot_is_a_clean_error(self, tmp_path, capsys):
        assert main(["obs", "trace", "export",
                     "--input", str(tmp_path / "nope.json"),
                     "-o", str(tmp_path / "out.json")]) == 2
        assert "no span snapshot" in capsys.readouterr().err


class TestFigure:
    def test_figure_hardware(self, capsys):
        assert main(["figure", "hardware"]) == 0
        assert "Hardware cost" in capsys.readouterr().out

    def test_unknown_figure_rejected(self):
        with pytest.raises(SystemExit):
            main(["figure", "fig99"])

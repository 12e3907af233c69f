"""Unit tests for CLI argument parsing (no simulation)."""

import argparse

import pytest

from repro.cli import _build_parser, main
from repro.experiments.figures import FIGURES


class TestParser:
    def test_run_defaults(self):
        args = _build_parser().parse_args(["run", "-b", "milc"])
        assert args.config == "PMS"
        assert args.accesses == 15_000
        assert args.threads == 1
        assert not args.json

    def test_run_json_flag(self):
        args = _build_parser().parse_args(["run", "-b", "milc", "--json"])
        assert args.json

    def test_suite_choices_enforced(self):
        with pytest.raises(SystemExit):
            _build_parser().parse_args(["suite", "-s", "spec2049"])

    def test_scheduler_choices_enforced(self):
        with pytest.raises(SystemExit):
            _build_parser().parse_args(["run", "-b", "x", "--scheduler", "magic"])

    def test_missing_subcommand(self):
        with pytest.raises(SystemExit):
            _build_parser().parse_args([])

    def test_trace_requires_output(self):
        with pytest.raises(SystemExit):
            _build_parser().parse_args(["trace", "-b", "milc"])

    def test_cost_threads_list(self):
        args = _build_parser().parse_args(["cost", "--threads", "1", "8"])
        assert args.threads == [1, 8]


class TestFigureRegistry:
    IDS = {fid for figure in FIGURES for fid in figure.ids}

    def test_every_paper_figure_registered(self):
        for fid in ("fig2", "fig3", "fig5", "fig6", "fig7", "fig8", "fig9",
                    "fig10", "fig11", "fig12", "fig13", "fig14", "fig15",
                    "fig16"):
            assert fid in self.IDS

    def test_tables_registered(self):
        for tid in ("hardware", "smt", "scheduler",
                    "degree", "asd-only", "epoch"):
            assert tid in self.IDS

    def test_registry_targets_importable(self):
        # each id answers to one record
        assert len(self.IDS) == sum(len(figure.ids) for figure in FIGURES)
        for figure in FIGURES:
            assert figure.title and figure.paper
            assert callable(figure.compute)
            assert callable(figure.render)
            assert callable(figure.claims)


class TestObsFlags:
    def test_sweep_obs_defaults(self):
        args = _build_parser().parse_args(["sweep", "-b", "milc"])
        assert args.metrics_port is None
        assert not args.no_progress
        assert not args.verbose

    def test_sweep_obs_flags(self):
        args = _build_parser().parse_args(
            ["sweep", "-b", "milc", "--metrics-port", "0",
             "--no-progress", "--verbose"]
        )
        assert args.metrics_port == 0
        assert args.no_progress
        assert args.verbose

    def test_obs_serve_defaults(self):
        args = _build_parser().parse_args(["obs", "serve"])
        assert args.obs_command == "serve"
        assert args.port == 9123
        assert args.host == "127.0.0.1"
        assert args.directory is None

    def test_obs_serve_flags(self):
        args = _build_parser().parse_args(
            ["obs", "serve", "--port", "0", "--host", "0.0.0.0",
             "--dir", "/tmp/metrics"]
        )
        assert args.port == 0
        assert args.host == "0.0.0.0"
        assert args.directory == "/tmp/metrics"

    def test_obs_requires_subcommand(self):
        with pytest.raises(SystemExit):
            _build_parser().parse_args(["obs"])

    def test_obs_trace_export_defaults(self):
        args = _build_parser().parse_args(["obs", "trace", "export"])
        assert args.obs_command == "trace"
        assert args.obs_trace_command == "export"
        assert args.input is None  # resolves to spans/latest.json
        assert args.output == "trace.json"

    def test_obs_trace_export_flags(self):
        args = _build_parser().parse_args(
            ["obs", "trace", "export", "--input", "/tmp/spans.json",
             "-o", "/tmp/out.json"]
        )
        assert args.input == "/tmp/spans.json"
        assert args.output == "/tmp/out.json"

    def test_obs_trace_requires_subcommand(self):
        with pytest.raises(SystemExit):
            _build_parser().parse_args(["obs", "trace"])


class TestFabricSubcommand:
    def test_serve_defaults(self):
        args = _build_parser().parse_args(["fabric", "serve"])
        assert args.fabric_command == "serve"
        assert args.host == "127.0.0.1"
        assert args.port == 8765
        assert args.lease_seconds == 60.0
        assert args.max_attempts == 3

    def test_work_requires_coordinator(self):
        with pytest.raises(SystemExit):
            _build_parser().parse_args(["fabric", "work"])

    def test_work_flags(self):
        args = _build_parser().parse_args(
            ["fabric", "work", "--coordinator", "http://h:1",
             "--id", "w7", "--capacity", "4", "--poll", "0.2",
             "--drain-idle", "9"]
        )
        assert args.coordinator == "http://h:1"
        assert args.worker_id == "w7"
        assert args.capacity == 4
        assert args.poll == 0.2
        assert args.drain_idle == 9.0

    def test_submit_defaults_and_grid(self):
        args = _build_parser().parse_args(
            ["fabric", "submit", "--coordinator", "http://h:1",
             "-b", "milc", "tonto", "-c", "NP", "PS"]
        )
        assert args.benchmarks == ["milc", "tonto"]
        assert args.configs == ["NP", "PS"]
        assert args.accesses == 15_000
        assert not args.watch

    def test_status_takes_optional_sweep(self):
        args = _build_parser().parse_args(
            ["fabric", "status", "--coordinator", "http://h:1",
             "--sweep", "sweep-3"]
        )
        assert args.sweep == "sweep-3"

    def test_watch_defaults(self):
        args = _build_parser().parse_args(
            ["fabric", "watch", "--coordinator", "http://h:1"]
        )
        assert args.fabric_command == "watch"
        assert args.coordinator == "http://h:1"
        assert args.sweep is None
        assert args.poll == 2.0

    def test_watch_flags(self):
        args = _build_parser().parse_args(
            ["fabric", "watch", "--coordinator", "http://h:1",
             "--sweep", "sweep-9", "--poll", "0.5"]
        )
        assert args.sweep == "sweep-9"
        assert args.poll == 0.5

    def test_watch_requires_coordinator(self):
        with pytest.raises(SystemExit):
            _build_parser().parse_args(["fabric", "watch"])

    def test_fabric_requires_subcommand(self):
        with pytest.raises(SystemExit):
            _build_parser().parse_args(["fabric"])


class TestLintSubcommand:
    def test_argv_reaches_the_analyzer_unchanged(self, monkeypatch):
        # the analyzer's own parser reads lint's flags; they are covered
        # end to end in tests/integration/test_lint_cli.py
        from repro.analysislint import runner as lint_runner

        calls = []
        monkeypatch.setattr(
            lint_runner, "main",
            lambda argv, prog: calls.append((argv, prog)) or 7,
        )
        argv = ["src/repro/controller", "--check", "--json", "--output",
                "r.json"]
        assert main(["lint", *argv]) == 7
        assert calls == [(argv, "repro lint")]


#: every subcommand's options as ``(command, option strings, default,
#: required)``, help flags left out; ``repro lint`` takes the analyzer's
OPTION_TABLE = [
    ("run", "-b --benchmark", None, True),
    ("run", "-c --config", "PMS", False),
    ("run", "--threads", 1, False),
    ("run", "--scheduler", "ahb", False),
    ("run", "--json", False, False),
    ("run", "-n --accesses", 15000, False),
    ("run", "--seed", 1, False),
    ("run", "--probe-interval", None, False),
    ("compare", "-b --benchmark", None, True),
    ("compare", "-n --accesses", 15000, False),
    ("compare", "--seed", 1, False),
    ("compare", "--probe-interval", None, False),
    ("compare", "-j --jobs", None, False),
    ("compare", "--no-store", False, False),
    ("suite", "-s --suite", None, True),
    ("suite", "-n --accesses", 15000, False),
    ("suite", "--seed", 1, False),
    ("suite", "-j --jobs", None, False),
    ("suite", "--no-store", False, False),
    ("sweep", "-s --suite", None, False),
    ("sweep", "-b --benchmarks", None, False),
    ("sweep", "-c --configs", ["NP", "PS", "MS", "PMS"], False),
    ("sweep", "--timeout", None, False),
    ("sweep", "--fidelity", "exact", False),
    ("sweep", "--metrics-port", None, False),
    ("sweep", "--no-progress", False, False),
    ("sweep", "--verbose", False, False),
    ("sweep", "-n --accesses", 15000, False),
    ("sweep", "--seed", 1, False),
    ("sweep", "-j --jobs", None, False),
    ("sweep", "--no-store", False, False),
    ("figure", "id", None, True),
    ("trace generate", "-b --benchmark", None, True),
    ("trace generate", "-o --output", None, True),
    ("trace generate", "-n --accesses", 15000, False),
    ("trace generate", "--seed", 1, False),
    ("trace convert", "source", None, True),
    ("trace convert", "-o --output", None, True),
    ("trace convert", "--format", None, False),
    ("trace convert", "--line-size", 64, False),
    ("trace convert", "--gap", 20, False),
    ("trace convert", "--limit", None, False),
    ("trace calibrate", "file", None, True),
    ("trace calibrate", "-c --configs", ["NP", "PS", "MS", "PMS"], False),
    ("trace calibrate", "-n --accesses", None, False),
    ("trace calibrate", "--seed", 1, False),
    ("trace calibrate", "-j --jobs", None, False),
    ("trace calibrate", "--no-store", False, False),
    ("fuzz", "--budget", 16, False),
    ("fuzz", "--seed", 0, False),
    ("fuzz", "--objective", "waste", False),
    ("fuzz", "--top", 8, False),
    ("fuzz", "--round-size", 8, False),
    ("fuzz", "-n --accesses", 4000, False),
    ("fuzz", "--json", False, False),
    ("fuzz", "-j --jobs", None, False),
    ("fuzz", "--no-store", False, False),
    ("cost", "--threads", (1, 2, 4), False),
    ("telemetry", "-b --benchmark", None, True),
    ("telemetry", "-c --config", "PMS", False),
    ("telemetry", "--probe-interval", 1, False),
    ("telemetry", "--series-csv", None, False),
    ("telemetry", "--series-json", None, False),
    ("telemetry", "--rows", 20, False),
    ("telemetry", "-n --accesses", 15000, False),
    ("telemetry", "--seed", 1, False),
    ("obs serve", "--port", 9123, False),
    ("obs serve", "--host", "127.0.0.1", False),
    ("obs serve", "--dir", None, False),
    ("obs trace export", "--input", None, False),
    ("obs trace export", "-o --output", "trace.json", False),
    ("fabric serve", "--host", "127.0.0.1", False),
    ("fabric serve", "--port", 8765, False),
    ("fabric serve", "--lease-seconds", 60.0, False),
    ("fabric serve", "--max-attempts", 3, False),
    ("fabric serve", "--verbose", False, False),
    ("fabric work", "--coordinator", None, True),
    ("fabric work", "--id", None, False),
    ("fabric work", "--capacity", 2, False),
    ("fabric work", "--poll", 1.0, False),
    ("fabric work", "--drain-idle", None, False),
    ("fabric work", "--verbose", False, False),
    ("fabric submit", "--coordinator", None, True),
    ("fabric submit", "-s --suite", None, False),
    ("fabric submit", "-b --benchmarks", None, False),
    ("fabric submit", "-c --configs", ["NP", "PS", "MS", "PMS"], False),
    ("fabric submit", "--priority", 0, False),
    ("fabric submit", "--fidelity", "exact", False),
    ("fabric submit", "--watch", False, False),
    ("fabric submit", "--poll", 0.5, False),
    ("fabric submit", "-n --accesses", 15000, False),
    ("fabric submit", "--seed", 1, False),
    ("fabric status", "--coordinator", None, True),
    ("fabric status", "--sweep", None, False),
    ("fabric watch", "--coordinator", None, True),
    ("fabric watch", "--sweep", None, False),
    ("fabric watch", "--poll", 2.0, False),
    ("lint", "paths", None, True),
    ("lint", "--check", False, False),
    ("lint", "--json", False, False),
    ("lint", "--output", None, False),
]


def _option_rows(parser, command=""):
    rows = []
    for action in parser._actions:
        if isinstance(action, argparse._SubParsersAction):
            for name, sub in action.choices.items():
                rows.extend(_option_rows(sub, f"{command} {name}".strip()))
        elif not isinstance(action, argparse._HelpAction):
            rows.append((command, " ".join(action.option_strings) or action.dest,
                         action.default, action.required))
    return rows


class TestOptionTable:
    def test_every_subcommand_keeps_its_options_and_defaults(self):
        from repro.analysislint.runner import build_parser

        rows = [row for row in _option_rows(_build_parser()) if row[0] != "lint"]
        rows += _option_rows(build_parser(), "lint")
        assert rows == OPTION_TABLE


class TestFidelityFlags:
    def test_sweep_fidelity_default_exact(self):
        args = _build_parser().parse_args(["sweep", "-b", "milc"])
        assert args.fidelity == "exact"

    def test_sweep_fidelity_choices(self):
        for tier in ("exact", "fast", "auto"):
            args = _build_parser().parse_args(
                ["sweep", "-b", "milc", "--fidelity", tier]
            )
            assert args.fidelity == tier

    def test_sweep_fidelity_rejects_unknown(self):
        with pytest.raises(SystemExit):
            _build_parser().parse_args(
                ["sweep", "-b", "milc", "--fidelity", "approximate"]
            )

    def test_fabric_submit_fidelity(self):
        args = _build_parser().parse_args(
            ["fabric", "submit", "--coordinator", "http://127.0.0.1:1",
             "-b", "milc", "-c", "NP", "--fidelity", "fast"]
        )
        assert args.fidelity == "fast"

    def test_fabric_submit_rejects_auto(self):
        # escalation needs the local orchestrator loop; the fabric
        # accepts per-job tiers only
        with pytest.raises(SystemExit):
            _build_parser().parse_args(
                ["fabric", "submit", "--coordinator", "http://127.0.0.1:1",
                 "-b", "milc", "--fidelity", "auto"]
            )


class TestTraceSubcommands:
    def test_generate_defaults(self):
        args = _build_parser().parse_args(
            ["trace", "generate", "-b", "milc", "-o", "out.trace"]
        )
        assert args.trace_command == "generate"
        assert args.benchmark == "milc"
        assert args.output == "out.trace"

    def test_generate_requires_output(self):
        with pytest.raises(SystemExit):
            _build_parser().parse_args(["trace", "generate", "-b", "milc"])

    def test_convert_defaults(self):
        args = _build_parser().parse_args(
            ["trace", "convert", "in.csv", "-o", "out.trace"]
        )
        assert args.trace_command == "convert"
        assert args.source == "in.csv"
        assert args.fmt is None
        assert args.line_size == 64
        assert args.gap == 20
        assert args.limit is None

    def test_convert_format_choices(self):
        with pytest.raises(SystemExit):
            _build_parser().parse_args(
                ["trace", "convert", "in.vcd", "-o", "o", "--format", "vcd"]
            )

    def test_calibrate_flags(self):
        args = _build_parser().parse_args(
            ["trace", "calibrate", "t.trace", "-c", "NP", "PMS",
             "-n", "500", "-j", "2"]
        )
        assert args.trace_command == "calibrate"
        assert args.file == "t.trace"
        assert args.configs == ["NP", "PMS"]
        assert args.accesses == 500
        assert args.jobs == 2

    def test_trace_requires_subcommand(self):
        with pytest.raises(SystemExit):
            _build_parser().parse_args(["trace"])


class TestFuzzSubcommand:
    def test_defaults(self):
        args = _build_parser().parse_args(["fuzz"])
        assert args.budget == 16
        assert args.seed == 0
        assert args.objective == "waste"
        assert args.top == 8
        assert args.round_size == 8
        assert args.accesses == 4000
        assert not args.json
        assert not args.no_store

    def test_full_flag_set(self):
        args = _build_parser().parse_args(
            ["fuzz", "--budget", "32", "--seed", "7",
             "--objective", "regret", "--top", "4", "--round-size", "16",
             "-n", "2000", "-j", "4", "--no-store", "--json"]
        )
        assert args.budget == 32
        assert args.seed == 7
        assert args.objective == "regret"
        assert args.top == 4
        assert args.round_size == 16
        assert args.accesses == 2000
        assert args.jobs == 4
        assert args.no_store and args.json

    def test_objective_choices_enforced(self):
        with pytest.raises(SystemExit):
            _build_parser().parse_args(["fuzz", "--objective", "speed"])

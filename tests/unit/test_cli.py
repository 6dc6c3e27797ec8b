"""Unit tests for the CLI front end."""

import json
import re

import pytest

from repro.cli import CAMPAIGN_TARGETS, COMMANDS, build_parser, main


class TestParser:
    def test_all_commands_registered(self):
        parser = build_parser()
        for name in ("fig4", "fig6", "fig12", "fig13", "fig14", "fig15",
                     "fig16", "fig17", "fig18", "table2", "table3", "table4",
                     "table5", "car", "defense-matrix", "load-sweep",
                     "classifiers", "coding", "figures"):
            args = parser.parse_args([name])
            assert args.experiment == name

    def test_unknown_command_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["fig99"])

    def test_quick_and_full_mutually_exclusive(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["fig6", "--quick", "--full"])

    def test_seed_option(self):
        args = build_parser().parse_args(["fig6", "--seed", "42"])
        assert args.seed == 42

    def test_campaign_options(self):
        args = build_parser().parse_args(
            ["campaign", "fig12", "--jobs", "4", "--no-cache"]
        )
        assert args.experiment == "campaign"
        assert args.target == "fig12"
        assert args.jobs == 4
        assert args.no_cache is True

    def test_jobs_and_cache_flags_on_plain_subcommands(self):
        args = build_parser().parse_args(
            ["fig12", "--jobs", "2", "--cache-dir", "/tmp/c"]
        )
        assert args.jobs == 2
        assert args.cache_dir == "/tmp/c"
        assert args.no_cache is False

    def test_campaign_without_target_rejected(self):
        with pytest.raises(SystemExit):
            main(["campaign"])

    def test_campaign_with_unknown_target_rejected(self):
        with pytest.raises(SystemExit):
            main(["campaign", "fig99"])

    def test_help_lists_exactly_the_campaign_targets(self):
        # The epilog is rendered from CAMPAIGN_TARGETS, so adding a target
        # updates --help automatically; this pins the two together.
        help_text = build_parser().format_help()
        match = re.search(r"campaign targets:\s*([\w\s,-]+)", help_text)
        assert match, help_text
        listed = {name.strip() for name in match.group(1).split(",") if name.strip()}
        assert listed == set(CAMPAIGN_TARGETS)

    def test_trace_out_option(self, tmp_path):
        target = tmp_path / "trace.json"
        args = build_parser().parse_args(["fig6", "--trace-out", str(target)])
        assert args.trace_out == str(target)

    def test_stats_rejects_unknown_policy(self):
        with pytest.raises(SystemExit):
            main(["stats", "nosuchpolicy"])


class TestExecution:
    def test_fig6_quick_runs(self, capsys):
        assert main(["fig6", "--quick"]) == 0
        out = capsys.readouterr().out
        assert "[Fig. 6]" in out
        assert "completed in" in out

    def test_table4_quick_runs(self, capsys):
        assert main(["table4", "--quick"]) == 0
        out = capsys.readouterr().out
        assert "Table IV" in out

    def test_every_command_is_callable(self):
        for name, fn in COMMANDS.items():
            assert callable(fn), name

    def test_stats_quick_prints_metrics(self, capsys):
        import repro.obs as obs

        assert main(["stats", "--quick"]) == 0
        out = capsys.readouterr().out
        assert "[stats" in out
        assert "decide.wall_ns" in out
        assert "decide.schedulability_tests" in out
        assert "spans:" in out
        # stats enables obs only for its own run
        assert not obs.is_enabled()

    def test_trace_out_writes_valid_trace(self, tmp_path, capsys):
        import repro.obs as obs

        target = tmp_path / "trace.json"
        assert main(["fig6", "--quick", "--trace-out", str(target)]) == 0
        out = capsys.readouterr().out
        assert "[trace:" in out
        document = json.loads(target.read_text())
        events = document["traceEvents"]
        assert events, "trace must not be empty"
        assert {e["ph"] for e in events} <= {"M", "X"}
        lanes = {
            e["args"]["name"]
            for e in events
            if e["ph"] == "M" and e["name"] == "thread_name"
        }
        # schedule lanes for the three-partition example + IDLE...
        assert {"Pi_1", "Pi_2", "Pi_3", "IDLE"} <= lanes
        # ...and scheduler-internal span lanes
        assert "decide" in lanes
        assert not obs.is_enabled()
        assert obs.trace_capture() is None

    def test_figures_writes_svgs(self, tmp_path, capsys):
        assert main(["figures", "--quick", "--out", str(tmp_path / "figs")]) == 0
        written = list((tmp_path / "figs").glob("*.svg"))
        assert len(written) >= 5
        for path in written:
            assert path.read_text().startswith("<svg")

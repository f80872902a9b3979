"""Tests for the command-line interface."""

from __future__ import annotations

import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_requires_a_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_compare_defaults(self):
        args = build_parser().parse_args(["compare"])
        assert args.command == "compare"
        assert args.frames == 6
        assert args.small is False

    def test_experiments_fast_flag(self):
        args = build_parser().parse_args(["experiments", "--fast", "--seed", "3"])
        assert args.fast is True
        assert args.seed == 3

    def test_unknown_command_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["frobnicate"])

    def test_run_defaults(self):
        args = build_parser().parse_args(["run"])
        assert args.manager == "relaxation"
        assert args.cycles == 6
        assert args.small is False

    def test_compare_accepts_manager_list(self):
        args = build_parser().parse_args(["compare", "--managers", "numeric,skip"])
        assert args.managers == "numeric,skip"


class TestCommands:
    def test_info_prints_paper_numbers(self, capsys):
        assert main(["info"]) == 0
        output = capsys.readouterr().out
        assert "8323" in output.replace(",", "")
        assert "5.7" in output

    def test_compare_small_workload(self, capsys):
        assert main(["compare", "--small", "--frames", "2"]) == 0
        output = capsys.readouterr().out
        assert "numeric" in output and "relaxation" in output
        assert "average quality per frame" in output

    def test_diagram_renders(self, capsys):
        assert main(["diagram"]) == 0
        output = capsys.readouterr().out
        assert "virtual time" in output

    def test_managers_lists_registry_keys(self, capsys):
        assert main(["managers"]) == 0
        output = capsys.readouterr().out
        for key in ("numeric", "region", "relaxation", "constant", "skip", "feedback"):
            assert key in output

    def test_run_with_manager_spec(self, capsys):
        assert main(["run", "--manager", "constant:level=2", "--small", "--cycles", "2"]) == 0
        output = capsys.readouterr().out
        assert "constant" in output
        assert "quality histogram" in output

    def test_run_rejects_unknown_manager(self, capsys):
        assert main(["run", "--manager", "frobnicate", "--small"]) == 2
        assert "unknown manager key" in capsys.readouterr().out

    def test_compare_with_baseline_manager(self, capsys):
        assert main(["compare", "--small", "--frames", "2", "--managers", "numeric,skip"]) == 0
        output = capsys.readouterr().out
        assert "numeric" in output and "skip" in output

    def test_compare_rejects_unknown_manager(self, capsys):
        assert main(["compare", "--small", "--frames", "2", "--managers", "bogus"]) == 2
        assert "unknown manager key" in capsys.readouterr().out

    def test_sweep_runs_on_the_pool(self, capsys, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))
        assert (
            main(
                [
                    "sweep",
                    "--small",
                    "--managers",
                    "relaxation",
                    "--scenarios",
                    "2",
                    "--cycles",
                    "2",
                    "--workers",
                    "1",
                ]
            )
            == 0
        )
        output = capsys.readouterr().out
        assert "Sweep: 2 scenarios x 2 cycles (1 worker(s))" in output

    def test_worker_parser_defaults(self):
        args = build_parser().parse_args(["worker", "--spool", "/tmp/s"])
        assert args.spool == "/tmp/s"
        assert args.cache_dir is None
        assert args.poll == 0.2
        assert args.heartbeat == 2.0
        assert args.max_idle is None and args.max_units is None
        assert args.worker_id is None and args.quiet is False

    def test_worker_requires_spool(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["worker"])

    def test_sweep_spool_flags(self):
        args = build_parser().parse_args(["sweep"])
        assert args.spool is None and args.lease_timeout is None
        args = build_parser().parse_args(
            ["sweep", "--spool", "/tmp/s", "--lease-timeout", "5"]
        )
        assert args.spool == "/tmp/s" and args.lease_timeout == 5.0

    def test_experiments_spool_flag(self):
        args = build_parser().parse_args(["experiments", "--spool", "/tmp/s"])
        assert args.spool == "/tmp/s"

    def test_worker_exits_idle_via_cli(self, capsys, tmp_path):
        assert (
            main(
                [
                    "worker",
                    "--spool",
                    str(tmp_path / "spool"),
                    "--max-idle",
                    "0.05",
                    "--poll",
                    "0.02",
                ]
            )
            == 0
        )
        output = capsys.readouterr().out
        assert "worker exiting after 0 unit(s)" in output

    def test_sweep_runs_over_a_spool(self, capsys, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))
        assert (
            main(
                [
                    "sweep",
                    "--small",
                    "--managers",
                    "relaxation",
                    "--scenarios",
                    "2",
                    "--cycles",
                    "2",
                    "--workers",
                    "1",
                    "--spool",
                    str(tmp_path / "spool"),
                ]
            )
            == 0
        )
        output = capsys.readouterr().out
        assert "spool" in output and "Sweep: 2 scenarios x 2 cycles" in output

    def test_worker_defaults_match_the_library_constants(self):
        """Drift guard: the CLI's hardcoded defaults must track remote.py."""
        from repro.runtime import remote

        args = build_parser().parse_args(["worker", "--spool", "s"])
        assert args.poll == remote.DEFAULT_POLL_INTERVAL
        assert args.heartbeat == remote.DEFAULT_HEARTBEAT_SECONDS
        sweep = build_parser().parse_args(["sweep"])
        assert sweep.lease_timeout is None  # resolved library-side
        # the sweep help text quotes the lease default: keep it honest
        import repro.cli as cli

        source = open(cli.__file__).read()
        assert f"(default: {remote.DEFAULT_LEASE_TIMEOUT:.0f})" in source

    def test_sweep_rejects_negative_workers(self, capsys):
        assert main(["sweep", "--small", "--workers", "-2"]) == 2
        assert "--workers must be >= 0" in capsys.readouterr().out

    def test_spool_timeout_flags_parse(self):
        args = build_parser().parse_args(["sweep", "--spool", "/tmp/s", "--timeout", "5"])
        assert args.timeout == 5.0
        args = build_parser().parse_args(["experiments", "--spool", "/tmp/s", "--timeout", "5"])
        assert args.timeout == 5.0

    def test_sweep_spool_timeout_bounds_a_workerless_run(self, capsys, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))
        assert (
            main(
                [
                    "sweep", "--small", "--scenarios", "1", "--cycles", "1",
                    "--spool", str(tmp_path / "spool"), "--timeout", "0.3",
                ]
            )
            == 2
        )
        assert "timed out" in capsys.readouterr().out

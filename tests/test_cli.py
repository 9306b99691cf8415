"""Tests for the command-line interface."""

import os
import pathlib
import subprocess
import sys

import pytest

from repro.cli import build_parser, main

ROOT = pathlib.Path(__file__).resolve().parent.parent


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_run_defaults(self):
        args = build_parser().parse_args(["run"])
        assert args.scale == "tiny"
        assert args.seed == 7
        assert not args.markdown

    def test_table_number_validated(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["table", "10"])

    def test_figure_number_validated(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["figure", "6"])

    def test_scale_validated(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["--scale", "galactic", "run"])

    def test_validate_subcommand_parses(self):
        args = build_parser().parse_args(["--scale", "nano", "validate"])
        assert args.command == "validate"

    def test_run_storage_defaults(self):
        args = build_parser().parse_args(["run"])
        assert args.checkpoint_dir is None
        for name in ("checkpoint_format", "exchange", "merge",
                     "target_chunk_ms"):
            assert not hasattr(args, name)

    def test_store_inspect_requires_path(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["store", "inspect"])

    @pytest.mark.parametrize("argv", [
        ["store", "append", "data.lshm", "part.lshd"],
        ["store", "compact", "data.lshm"],
    ], ids=["append", "compact"])
    def test_removed_store_commands_rejected(self, argv, capsys):
        with pytest.raises(SystemExit) as excinfo:
            build_parser().parse_args(argv)
        assert excinfo.value.code == 2
        assert "invalid choice" in capsys.readouterr().err


def _removed_id(flags):
    if flags[0].startswith("--"):
        return flags[0].lstrip("-") + "=" + flags[1]
    return "-".join(flags[:2])


@pytest.mark.parametrize("flags", [
    ["--executor", "process"],
    ["--world-source", "auto"],
    ["--exchange", "pickle"],
    ["--exchange", "auto"],
    ["--merge", "memory"],
    ["--target-chunk-ms", "250"],
    ["--checkpoint-format", "jsonl.gz"],
    ["--checkpoint-format", "lshd"],
    ["--checkpoint-format", "lshm"],
    ["world", "freeze", "world.lshw"],
    ["world", "inspect", "world.lshw"],
], ids=_removed_id)
class TestRemovedFlags:
    """Options and commands that are gone fail at parse time in both CLIs."""

    def test_cli_rejects(self, flags):
        argv = ["run", *flags] if flags[0].startswith("--") else flags
        with pytest.raises(SystemExit) as excinfo:
            build_parser().parse_args(argv)
        assert excinfo.value.code == 2

    def test_run_experiments_rejects(self, flags):
        env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
        proc = subprocess.run(
            [sys.executable, str(ROOT / "scripts" / "run_experiments.py"),
             "--scale", "tiny", *flags],
            capture_output=True, text=True, env=env, timeout=120)
        assert proc.returncode == 2
        assert flags[0] in proc.stderr


class TestRunFlagValidation:
    """Out-of-range or inconsistent run flags are rejected, never clamped."""

    @pytest.mark.parametrize("flags", [
        ["--workers", "0"],
        ["--workers", "-2"],
    ], ids=lambda flags: flags[0].lstrip("-") + "=" + flags[1])
    def test_cli_rejects_out_of_range(self, flags, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["--scale", "nano", "run", "--no-top1m", "--no-vps",
                  "--no-ooni", *flags])
        assert excinfo.value.code == 2
        assert flags[0] in capsys.readouterr().err

    @pytest.mark.parametrize("flags", [
        ["--workers", "0"],
        ["--workers", "-2"],
    ], ids=lambda flags: flags[0].lstrip("-") + "=" + flags[1])
    def test_run_experiments_rejects_out_of_range(self, flags, tmp_path):
        env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
        proc = subprocess.run(
            [sys.executable, str(ROOT / "scripts" / "run_experiments.py"),
             "--scale", "tiny", "--out", str(tmp_path / "report.md"),
             *flags],
            capture_output=True, text=True, env=env, timeout=300)
        assert proc.returncode == 2
        assert flags[0] in proc.stderr
        assert not (tmp_path / "report.md").exists()

    def test_boundary_values_accepted(self):
        args = build_parser().parse_args(["run", "--workers", "1"])
        assert args.workers == 1

    def test_resume_requires_checkpoint_dir(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["--scale", "nano", "run", "--resume", "--no-top1m",
                  "--no-vps", "--no-ooni"])
        assert excinfo.value.code == 2
        assert "--resume requires --checkpoint-dir" in capsys.readouterr().err


class TestCountFlagValidation:
    """A negative count would slice from the end of a list; reject it."""

    @pytest.mark.parametrize("argv", [
        ["timeouts", "--domains", "-1"],
        ["timeouts", "--domains", "0"],
        ["appdiff", "--domains", "-1"],
        ["appdiff", "--countries", "-3"],
        ["appdiff", "--countries", "0"],
    ], ids=lambda argv: f"{argv[0]}{argv[1]}={argv[2]}")
    def test_non_positive_count_rejected(self, argv, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["--scale", "nano", *argv])
        assert excinfo.value.code == 2
        assert argv[1] in capsys.readouterr().err

    def test_smallest_count_accepted(self):
        parser = build_parser()
        assert parser.parse_args(["timeouts", "--domains", "1"]).domains == 1
        args = parser.parse_args(
            ["appdiff", "--domains", "1", "--countries", "1"])
        assert (args.domains, args.countries) == (1, 1)


class TestCommands:
    def test_top10k_command(self, capsys):
        assert main(["--scale", "nano", "top10k"]) == 0
        out = capsys.readouterr().out
        assert "confirmed instances:" in out

    def test_top10k_uses_seed_for_study(self, capsys, monkeypatch):
        import repro.cli as cli
        from repro.core.pipeline import StudyConfig, run_top10k_study
        from repro.websim.world import World, WorldConfig

        seeds = []

        def spy(world, *args, config=None, **kwargs):
            seeds.append(None if config is None else config.seed)
            return run_top10k_study(world, *args, config=config, **kwargs)

        monkeypatch.setattr(cli, "run_top10k_study", spy)
        assert main(["--scale", "nano", "--seed", "3", "top10k"]) == 0
        assert seeds == [3]
        expected = run_top10k_study(World(WorldConfig.nano(seed=3)),
                                    config=StudyConfig(seed=3))
        out = capsys.readouterr().out
        assert f"confirmed instances: {len(expected.confirmed)}\n" in out

    def test_table_command(self, capsys):
        assert main(["--scale", "nano", "table", "9"]) == 0
        out = capsys.readouterr().out
        assert "Baseline" in out

    def test_figure_command(self, capsys):
        assert main(["--scale", "nano", "figure", "5"]) == 0
        out = capsys.readouterr().out
        assert "Figure 5" in out

    def test_run_to_file(self, tmp_path, capsys):
        out_file = tmp_path / "report.md"
        code = main(["--scale", "nano", "run", "--markdown",
                     "--no-top1m", "--no-vps", "--no-ooni",
                     "--out", str(out_file)])
        assert code == 0
        content = out_file.read_text()
        assert "### Table 1" in content


class TestStoreInspect:
    def _segment(self, tmp_path):
        from repro.lumscan.records import ScanDataset
        from repro.lumscan.serialize import dump_dataset_lshd

        data = ScanDataset()
        data.append("a.com", "US", 200, 9_000, None)
        data.append("a.com", "IR", 403, 480, "<html>block</html>")
        path = str(tmp_path / "scan.lshd")
        dump_dataset_lshd(data, path)
        return path

    def test_inspect_prints_header(self, tmp_path, capsys):
        path = self._segment(tmp_path)
        assert main(["store", "inspect", path]) == 0
        out = capsys.readouterr().out
        assert "rows:        2" in out
        assert "fingerprint:" in out
        assert "dcodes" in out and "lengths" in out
        assert "bodies" in out and "interfered" in out

    def test_inspect_rejects_non_lshd(self, tmp_path):
        from repro.lumscan.records import ScanDataset
        from repro.lumscan.serialize import dump_dataset

        path = str(tmp_path / "scan.jsonl.gz")
        dump_dataset(ScanDataset(), path)
        with pytest.raises(SystemExit, match="not an LSHD segment"):
            main(["store", "inspect", path])

    def test_inspect_legacy_gzip_is_one_clean_line(self, tmp_path):
        # Satellite contract: a legacy gzip checkpoint exits nonzero with
        # a single-line message, never a traceback.
        from repro.lumscan.records import ScanDataset
        from repro.lumscan.serialize import dump_dataset

        path = str(tmp_path / "legacy.jsonl.gz")
        data = ScanDataset()
        data.append("a.com", "US", 200, 10, None)
        dump_dataset(data, path)
        with pytest.raises(SystemExit) as excinfo:
            main(["store", "inspect", path])
        message = str(excinfo.value)
        assert message.startswith(path)
        assert "jsonl.gz" in message
        assert "\n" not in message

    def test_inspect_rejects_missing_file(self, tmp_path):
        with pytest.raises(SystemExit):
            main(["store", "inspect", str(tmp_path / "nope.lshd")])


"""Tests for the command-line interface."""

import pytest

from repro.__main__ import build_parser, main


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_table_defaults(self):
        args = build_parser().parse_args(["table1"])
        assert args.trials == 10
        assert args.seed == 1987
        assert args.workers == 1
        assert args.engine == "vector"
        assert args.cache_dir is None
        assert args.no_cache is False
        assert args.verbose is False

    def test_engine_flag_parses(self):
        from repro.__main__ import runtime_config_from_args

        args = build_parser().parse_args(["table1", "--engine", "object"])
        assert args.engine == "object"
        assert runtime_config_from_args(args).engine == "object"

    def test_engine_flag_rejects_unknown(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["table1", "--engine", "warp"])

    def test_runtime_flags_parse(self):
        args = build_parser().parse_args(
            ["table2", "--workers", "4", "--cache-dir", "/tmp/x",
             "--no-cache", "--verbose"]
        )
        assert args.workers == 4
        assert args.cache_dir == "/tmp/x"
        assert args.no_cache is True
        assert args.verbose is True

    def test_workers_must_be_positive(self):
        with pytest.raises(SystemExit):
            main(["table1", "--trials", "1", "--workers", "0"])

    def test_model_requires_capacity(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["model"])

    def test_unknown_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["table9"])


class TestCommands:
    def test_model_output(self, capsys):
        assert main(["model", "--capacity", "1"]) == 0
        out = capsys.readouterr().out
        assert "0.5000, 0.5000" in out
        assert "growth rate a           = 3.0000" in out

    def test_model_octree(self, capsys):
        assert main(["model", "--capacity", "1", "--dim", "3"]) == 0
        out = capsys.readouterr().out
        assert "8-way splits" in out

    def test_table1_small(self, capsys):
        assert main(["table1", "--trials", "1", "--seed", "3"]) == 0
        out = capsys.readouterr().out
        assert "Table 1" in out
        assert "bucket size 8" in out

    def test_table3_small(self, capsys):
        assert main(["table3", "--trials", "1", "--seed", "3"]) == 0
        out = capsys.readouterr().out
        assert "post-split floor" in out

    def test_figure1(self, capsys):
        assert main(["figure1"]) == 0
        out = capsys.readouterr().out
        assert out.count("*") == 4

    def test_figure2_small(self, capsys):
        assert main(["figure2", "--trials", "1", "--seed", "4"]) == 0
        out = capsys.readouterr().out
        assert "semi-log" in out
        assert "o" in out


class TestRuntimeIntegration:
    def test_workers_flag_runs(self, capsys):
        assert main(
            ["table1", "--trials", "2", "--seed", "3", "--workers", "2",
             "--no-cache"]
        ) == 0
        assert "Table 1" in capsys.readouterr().out

    def test_engine_vector_prints_identical_table(self, capsys):
        argv = ["table1", "--trials", "2", "--seed", "3", "--no-cache"]
        assert main(argv) == 0
        object_out = capsys.readouterr().out
        assert main(argv + ["--engine", "vector"]) == 0
        vector_out = capsys.readouterr().out
        assert vector_out == object_out

    def test_verbose_prints_run_report(self, capsys):
        assert main(
            ["table1", "--trials", "1", "--seed", "3", "--verbose",
             "--no-cache"]
        ) == 0
        out = capsys.readouterr().out
        assert "run report:" in out
        assert "trees built    : 8" in out  # 8 capacities x 1 trial
        assert "0 cache hits" in out

    def test_warm_cache_rerun_builds_zero_trees(self, tmp_path, capsys):
        cache_dir = str(tmp_path / "cli-cache")
        argv = ["table1", "--trials", "1", "--seed", "3",
                "--cache-dir", cache_dir, "--verbose"]
        assert main(argv) == 0
        cold = capsys.readouterr().out
        assert "8 misses" in cold
        assert main(argv) == 0
        warm = capsys.readouterr().out
        assert "trees built    : 0" in warm
        assert "8 cache hits, 0 misses" in warm

    def test_no_cache_leaves_directory_untouched(self, tmp_path, capsys):
        cache_dir = tmp_path / "never"
        assert main(
            ["table1", "--trials", "1", "--seed", "3",
             "--cache-dir", str(cache_dir), "--no-cache"]
        ) == 0
        capsys.readouterr()
        assert not cache_dir.exists()

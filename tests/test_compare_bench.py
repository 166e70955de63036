"""The CI bench-regression gate (benchmarks/compare_bench.py)."""

import importlib.util
import json
from pathlib import Path

import pytest

_SCRIPT = (
    Path(__file__).resolve().parent.parent / "benchmarks" / "compare_bench.py"
)
_spec = importlib.util.spec_from_file_location("compare_bench", _SCRIPT)
compare_bench = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(compare_bench)


def snapshot(walls, profile="smoke"):
    return {
        "profile": profile,
        "stages": {
            name: {"stage_wall_s": wall} for name, wall in walls.items()
        },
    }


def write(tmp_path, name, snap):
    path = tmp_path / name
    path.write_text(json.dumps(snap), encoding="utf-8")
    return str(path)


class TestCompare:
    def test_within_factor_passes(self):
        problems = compare_bench.compare(
            snapshot({"build": 0.2, "census": 0.1}),
            snapshot({"build": 0.1, "census": 0.1}),
            factor=3.0,
        )
        assert problems == []

    def test_regression_flagged(self):
        problems = compare_bench.compare(
            snapshot({"build": 0.9}),
            snapshot({"build": 0.1}),
            factor=3.0,
        )
        assert len(problems) == 1
        assert "build" in problems[0]

    def test_missing_stages_skipped(self):
        problems = compare_bench.compare(
            snapshot({"build": 5.0, "new_stage": 99.0}),
            snapshot({"build": 5.0, "old_stage": 0.001}),
            factor=3.0,
        )
        assert problems == []

    def test_non_numeric_walls_ignored(self):
        current = snapshot({"build": 1.0})
        current["stages"]["weird"] = {"stage_wall_s": "n/a"}
        assert compare_bench.stage_walls(current) == {"build": 1.0}


def serve_snapshot(p99_ms, count=100):
    snap = snapshot({"serve": 1.0})
    snap["stages"]["serve"]["latency_ms"] = {
        "insert": {"count": count, "p50": p99_ms / 3,
                   "p90": p99_ms / 2, "p99": p99_ms},
    }
    return snap


class TestP99Gate:
    def test_parse_specs(self):
        specs = compare_bench.parse_p99_specs(["range=5", "2.5"])
        assert specs == {"range": 5.0, "insert": 2.5}

    def test_parse_rejects_garbage(self):
        with pytest.raises(ValueError):
            compare_bench.parse_p99_specs(["insert=fast"])

    def test_under_limit_passes(self):
        assert compare_bench.check_p99(
            serve_snapshot(p99_ms=2.0), {"insert": 5.0}
        ) == []

    def test_over_limit_fails(self):
        problems = compare_bench.check_p99(
            serve_snapshot(p99_ms=9.0), {"insert": 5.0}
        )
        assert len(problems) == 1
        assert "p99" in problems[0] and "insert" in problems[0]

    def test_missing_op_or_stage_fails(self):
        assert compare_bench.check_p99(
            serve_snapshot(2.0), {"range": 5.0}
        )  # op absent
        assert compare_bench.check_p99(
            snapshot({"build": 0.1}), {"insert": 5.0}
        )  # serve stage absent
        empty = serve_snapshot(2.0, count=0)
        assert compare_bench.check_p99(empty, {"insert": 5.0})  # no ops

    def test_main_wires_the_gate(self, tmp_path, capsys):
        cur = write(tmp_path, "cur.json", serve_snapshot(p99_ms=9.0))
        base = write(tmp_path, "base.json", serve_snapshot(p99_ms=9.0))
        assert compare_bench.main(
            [cur, base, "--require-p99-ms", "insert=5"]
        ) == 1
        assert "REGRESSION" in capsys.readouterr().err
        assert compare_bench.main(
            [cur, base, "--require-p99-ms", "20"]
        ) == 0


def kernels_snapshot(speedups, parity=True):
    snap = snapshot({"kernels": 1.0})
    snap["stages"]["kernels"].update({
        "parity": parity,
        "runs": {
            str(n): {"speedup": x, "parity": parity}
            for n, x in speedups.items()
        },
    })
    return snap


class TestCensusGate:
    def test_top_size_speedup_passes(self):
        snap = kernels_snapshot({400: 2.0, 2000: 6.5})
        assert compare_bench.check_census_speedup(snap, 3.0) == []

    def test_top_size_is_numeric_not_lexical(self):
        # "400" > "2000" as strings: the gate must read n=2000
        snap = kernels_snapshot({400: 9.0, 2000: 2.0})
        problems = compare_bench.check_census_speedup(snap, 3.0)
        assert len(problems) == 1 and "n=2000" in problems[0]

    def test_parity_failure_at_any_size_fails(self):
        snap = kernels_snapshot({400: 9.0, 2000: 9.0})
        snap["stages"]["kernels"]["runs"]["400"]["parity"] = False
        problems = compare_bench.check_census_speedup(snap, 3.0)
        assert len(problems) == 1 and "n=400" in problems[0]

    def test_missing_stage_or_runs_fails(self):
        assert compare_bench.check_census_speedup(
            snapshot({"build": 0.1}), 3.0
        )
        empty = kernels_snapshot({})
        assert compare_bench.check_census_speedup(empty, 3.0)

    def test_main_wires_the_gate(self, tmp_path, capsys):
        cur = write(tmp_path, "cur.json", kernels_snapshot({2000: 2.0}))
        assert compare_bench.main(
            [cur, cur, "--require-census-speedup", "3.0"]
        ) == 1
        assert "census speedup" in capsys.readouterr().err
        assert compare_bench.main(
            [cur, cur, "--require-census-speedup", "1.5"]
        ) == 0


class TestMain:
    def test_exit_zero_when_clean(self, tmp_path, capsys):
        cur = write(tmp_path, "cur.json", snapshot({"build": 0.1}))
        base = write(tmp_path, "base.json", snapshot({"build": 0.1}))
        assert compare_bench.main([cur, base]) == 0
        assert "ok:" in capsys.readouterr().out

    def test_exit_one_on_regression(self, tmp_path, capsys):
        cur = write(tmp_path, "cur.json", snapshot({"build": 1.0}))
        base = write(tmp_path, "base.json", snapshot({"build": 0.1}))
        assert compare_bench.main([cur, base, "--factor", "3"]) == 1
        assert "REGRESSION" in capsys.readouterr().err

    def test_profile_mismatch_noted(self, tmp_path, capsys):
        cur = write(tmp_path, "cur.json", snapshot({"build": 0.1}, "smoke"))
        base = write(tmp_path, "base.json", snapshot({"build": 0.1}, "full"))
        assert compare_bench.main([cur, base]) == 0
        assert "note: comparing" in capsys.readouterr().out

    def test_bad_factor_rejected(self, tmp_path):
        cur = write(tmp_path, "cur.json", snapshot({"build": 0.1}))
        with pytest.raises(SystemExit):
            compare_bench.main([cur, cur, "--factor", "0"])

    def test_against_real_snapshot(self, tmp_path):
        # a freshly generated snapshot never regresses against itself
        from repro.bench import run_suite, write_snapshot

        snap = run_suite(smoke=True)
        path = write_snapshot(snap, tmp_path / "BENCH_self.json")
        assert compare_bench.main([str(path), str(path)]) == 0

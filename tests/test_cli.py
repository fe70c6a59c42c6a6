import csv
import hashlib
import json
import math
import re
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from powerlaw_hpo.cli import AGGREGATE_COLUMNS, aggregate_trajectory_rows, main
from powerlaw_hpo.hpo_loop import TRAJECTORY_COLUMNS


def _synth_args(out, configs=10, b_max=4, seed=0, noise=0.0):
    return [
        "synth", "--seed", str(seed), "--configs", str(configs), "--hp-dim", "2",
        "--b-max", str(b_max), "--noise", str(noise), "--out", str(out),
    ]


def _write_benchmark(path, name, curves):
    """A loss benchmark of one hyperparameter holding ``curves``, one per config."""
    path.write_text(json.dumps({
        "name": name, "metric": "loss", "b_max": len(curves[0]),
        "hyperparameters": [{"name": "x", "min": 0.0, "max": 1.0}],
        "configs": [{"id": i, "values": [i / len(curves)], "curve": curve}
                    for i, curve in enumerate(curves)],
    }), encoding="utf-8")
    return path


def _read_csv(path):
    with open(path, encoding="utf-8", newline="") as fh:
        return list(csv.DictReader(fh))


class TestSynth:
    def test_writes_loadable_file_and_prints_oracle(self, tmp_path, capsys):
        out = tmp_path / "bench.json"
        assert main(_synth_args(out)) == 0
        printed = capsys.readouterr().out
        assert "oracle" in printed
        doc = json.loads(out.read_text(encoding="utf-8"))
        assert doc["b_max"] == 4
        assert len(doc["configs"]) == 10

    def test_byte_identical_rerun(self, tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        assert main(_synth_args(a)) == 0
        assert main(_synth_args(b)) == 0
        assert a.read_bytes() == b.read_bytes()

    # the two benchmark tables: seed, configs, b_max (noise 0.01) -> SHA-256 of the file
    PINNED_TABLES = [
        (42, 200, 12, "32d887ddf8e2487b00b9c73df3743b6b568874276ffe9b8978308783d1f6a2eb"),
        (606, 10, 25, "354493891ee638c84692fc5b0fa73be91179efcedcc14b8ae47e96dd25f5a411"),
    ]

    @pytest.mark.parametrize("seed, configs, b_max, digest", PINNED_TABLES)
    def test_table_bytes_pinned(self, tmp_path, seed, configs, b_max, digest):
        out = tmp_path / "table.json"
        assert main(_synth_args(out, configs=configs, b_max=b_max, seed=seed, noise=0.01)) == 0
        assert hashlib.sha256(out.read_bytes()).hexdigest() == digest

    def test_zero_configs_usage_error(self, tmp_path):
        with pytest.raises(SystemExit) as exc:
            main(_synth_args(tmp_path / "x.json", configs=0))
        assert exc.value.code == 2

    @pytest.mark.parametrize("noise", ["nan", "inf", "-0.5"])
    def test_bad_noise_usage_error(self, tmp_path, capsys, noise):
        out = tmp_path / "x.json"
        with pytest.raises(SystemExit) as exc:
            main(_synth_args(out, noise=noise))
        assert exc.value.code == 2
        assert "--noise must be a finite number >= 0" in capsys.readouterr().err
        assert not out.exists()

    def test_negative_seed_usage_error(self, tmp_path, capsys):
        out = tmp_path / "x.json"
        with pytest.raises(SystemExit) as exc:
            main(_synth_args(out, seed=-1))
        assert exc.value.code == 2
        assert "--seed must be >= 0, got -1" in capsys.readouterr().err
        assert not out.exists()


class TestRun:
    @pytest.fixture()
    def bench(self, tmp_path):
        path = tmp_path / "bench.json"
        main(_synth_args(path, configs=12, b_max=4, noise=0.01))
        return path

    def test_single_method_single_seed(self, bench, tmp_path):
        out = tmp_path / "results"
        code = main([
            "run", "--benchmarks", str(bench), "--methods", "rs", "--seeds", "0",
            "--budget-multiplier", "3", "--out", str(out),
        ])
        assert code == 0
        files = sorted(p.name for p in out.glob("*.csv"))
        assert len(files) == 2 and "aggregate.csv" in files
        traj_file = next(p for p in out.glob("*.csv") if p.name != "aggregate.csv")
        rows = _read_csv(traj_file)
        assert tuple(rows[0].keys()) == TRAJECTORY_COLUMNS
        assert all(row["method"] == "rs" for row in rows)
        assert len(rows) == 3  # three full evaluations

    def test_rerun_bit_identical(self, bench, tmp_path):
        args = lambda out: [
            "run", "--benchmarks", str(bench), "--methods", "rs,sh,asha",
            "--seeds", "0,1", "--budget-multiplier", "3", "--out", str(out),
        ]
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        assert main(args(out_a)) == 0
        assert main(args(out_b)) == 0
        files_a = sorted(p.name for p in out_a.glob("*.csv"))
        files_b = sorted(p.name for p in out_b.glob("*.csv"))
        assert files_a == files_b and len(files_a) == 3 * 2 + 1
        for name in files_a:
            assert (out_a / name).read_bytes() == (out_b / name).read_bytes()

    def test_unknown_method_usage_error(self, bench, tmp_path):
        with pytest.raises(SystemExit) as exc:
            main([
                "run", "--benchmarks", str(bench), "--methods", "sgd",
                "--seeds", "0", "--out", str(tmp_path / "o"),
            ])
        assert exc.value.code == 2

    @pytest.mark.parametrize(
        "methods, seeds, message",
        [
            ("rs", "-1", "--seeds must be >= 0, got -1"),
            ("rs", "0,0", "--seeds repeats 0"),
            ("rs,hb,rs", "0", "--methods repeats rs"),
        ],
        ids=["negative-seed", "repeated-seed", "repeated-method"],
    )
    def test_negative_or_repeated_values_usage_error(
        self, bench, tmp_path, capsys, methods, seeds, message
    ):
        out = tmp_path / "o"
        with pytest.raises(SystemExit) as exc:
            main([
                "run", "--benchmarks", str(bench), "--methods", methods,
                "--seeds", seeds, "--out", str(out),
            ])
        assert exc.value.code == 2
        assert message in capsys.readouterr().err
        assert not out.exists()

    def test_colliding_trajectory_names_exit_3(self, bench, tmp_path, capsys):
        # a copy of a table keeps its name, so both would write the same CSVs
        copy = tmp_path / "bench_copy.json"
        copy.write_bytes(bench.read_bytes())
        out = tmp_path / "o"
        code = main([
            "run", "--benchmarks", str(bench), str(copy), "--methods", "rs",
            "--seeds", "0", "--out", str(out),
        ])
        assert code == 3
        err = capsys.readouterr().err
        assert f"{bench} and {copy}: both tables write trajectories named" in err
        assert not out.exists()

    def test_bad_benchmark_file_exits_3(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text('{"name": "x"}', encoding="utf-8")
        code = main([
            "run", "--benchmarks", str(bad), "--methods", "rs", "--seeds", "0",
            "--out", str(tmp_path / "o"),
        ])
        assert code == 3

    @pytest.mark.parametrize(
        "field, value",
        [
            ("values", ["a"]), ("curve", [None, 0.4]), ("curve", ["0.5", 0.4]),
            ("curve", [10**400, 0.4]),  # a JSON integer beyond the float range
        ],
    )
    def test_non_number_in_benchmark_exits_3(self, tmp_path, capsys, field, value):
        config = {"id": 0, "values": [0.5], "curve": [0.9, 0.4], field: value}
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({
            "name": "x", "metric": "loss", "b_max": 2,
            "hyperparameters": [{"name": "lr", "min": 0.0, "max": 1.0}],
            "configs": [config],
        }), encoding="utf-8")
        code = main([
            "run", "--benchmarks", str(bad), "--methods", "rs", "--seeds", "0",
            "--out", str(tmp_path / "o"),
        ])
        assert code == 3
        assert f"configs[0].{field}[" in capsys.readouterr().err

    @pytest.mark.parametrize("lo, hi", [(-math.inf, math.inf), (-1.7e308, 1.7e308)])
    def test_infinite_bounds_exit_3(self, tmp_path, capsys, lo, hi):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({
            "name": "x", "metric": "loss", "b_max": 2,
            "hyperparameters": [{"name": "lr", "min": lo, "max": hi}],
            "configs": [{"id": 0, "values": [0.5], "curve": [0.9, 0.4]}],
        }), encoding="utf-8")
        code = main([
            "run", "--benchmarks", str(bad), "--methods", "rs", "--seeds", "0",
            "--out", str(tmp_path / "o"),
        ])
        assert code == 3
        assert "error: hyperparameters[0]: bounds and max - min must be finite, got (" in (
            capsys.readouterr().err
        )

    def test_non_utf8_benchmark_exits_3(self, bench, tmp_path, capsys):
        bad = tmp_path / "latin1.json"
        bad.write_bytes(bench.read_bytes().replace(b'"name": "', b'"name": "\xff', 1))
        code = main([
            "run", "--benchmarks", str(bad), "--methods", "rs", "--seeds", "0",
            "--out", str(tmp_path / "o"),
        ])
        assert code == 3
        assert capsys.readouterr().err.startswith(f"error: {bad}: not UTF-8 (")

    def test_degenerate_benchmark_exits_3(self, tmp_path):
        doc = {
            "name": "flat",
            "metric": "loss",
            "b_max": 2,
            "hyperparameters": [{"name": "x", "min": 0.0, "max": 1.0}],
            "configs": [
                {"id": 0, "values": [0.1], "curve": [0.7, 0.5]},
                {"id": 1, "values": [0.9], "curve": [0.6, 0.5]},
            ],
        }
        flat = tmp_path / "flat.json"
        flat.write_text(json.dumps(doc), encoding="utf-8")
        code = main([
            "run", "--benchmarks", str(flat), "--methods", "rs", "--seeds", "0",
            "--out", str(tmp_path / "o"),
        ])
        assert code == 3

    @pytest.mark.parametrize(
        "curves, method, message",
        [
            # best losses of +-1e308: the span overflowed, and the rows read
            # regret inf, normalized_regret nan
            ([[1e308, 1e308], [-1e308, -1e308], [0.0, 0.0]], "dpl",
             "cannot normalize regret: the largest normalized regret, "
             "(worst loss - oracle) / span, is nan; it must be at most 1e+150"),
            # best losses 0, 5e-324 and 1e-323: the span is subnormal, and the
            # step-1 losses' normalized regret overflowed to inf
            ([[1.0, 0.0], [1.0, 5e-324], [1.0, 1e-323]], "sh",
             "cannot normalize regret: the largest normalized regret, "
             "(worst loss - oracle) / span, is inf; it must be at most 1e+150"),
            # a span of 1e-308: the cells' normalized regrets were a finite
            # 1e308, and their aggregate's mean and stderr overflowed to inf
            ([[1.0, 0.0], [1.0, 1e-308], [1.0, 5e-309]], "sh",
             "cannot normalize regret: the largest normalized regret, "
             "(worst loss - oracle) / span, is 1e+308; it must be at most 1e+150"),
            ([[0.7, 0.5], [0.6, 0.5]], "rs",
             "is degenerate: all configurations share the same best loss, "
             "so regret cannot be normalized"),
        ],
        ids=["overflowing-span", "subnormal-span", "near-max-regret", "degenerate"],
    )
    def test_unnormalizable_regret_exits_3_before_any_cell(
        self, bench, tmp_path, capsys, curves, method, message
    ):
        # the check used to fire in the bad table's first cell, after the good
        # table's cells were written (or, for a nonzero span, when the run
        # aggregated the CSVs it had just written), and left no aggregate
        bad = _write_benchmark(tmp_path / "bad.json", "bad", curves)
        out = tmp_path / "o"
        code = main(["run", "--benchmarks", str(bench), str(bad), "--methods", method,
                     "--seeds", "0", "--out", str(out)])
        assert code == 3
        assert capsys.readouterr().err == f"error: benchmark 'bad' {message}\n"
        assert not out.exists()

    def test_aggregate_matches_report(self, bench, tmp_path):
        out = tmp_path / "results"
        main([
            "run", "--benchmarks", str(bench), "--methods", "rs,hb", "--seeds", "0,1",
            "--budget-multiplier", "3", "--out", str(out),
        ])
        reagg = tmp_path / "re.csv"
        assert main(["report", "--in", str(out), "--out", str(reagg)]) == 0
        assert (out / "aggregate.csv").read_bytes() == reagg.read_bytes()

    def test_aggregate_holds_only_this_runs_cells(self, bench, tmp_path):
        out, alone = tmp_path / "o", tmp_path / "alone"
        run = lambda seeds, where: main([
            "run", "--benchmarks", str(bench), "--methods", "rs", "--seeds", seeds,
            "--budget-multiplier", "3", "--out", str(where),
        ])
        assert run("0,1", out) == 0
        assert run("5", out) == 0
        assert {r["n_runs"] for r in _read_csv(out / "aggregate.csv")} == {"1"}
        # the earlier cells stay on disk, and the aggregate is the one a fresh run writes
        assert len(list(out.glob("rs__*.csv"))) == 3
        assert run("5", alone) == 0
        assert (out / "aggregate.csv").read_bytes() == (alone / "aggregate.csv").read_bytes()


class TestForecast:
    def test_row_count_and_schema(self, tmp_path):
        bench = tmp_path / "bench.json"
        main(_synth_args(bench, configs=8, b_max=5))
        out = tmp_path / "fc.csv"
        code = main([
            "forecast", "--benchmark", str(bench), "--fractions", "0.4,0.8",
            "--models", "pl", "--seeds", "0,1,2", "--out", str(out),
        ])
        assert code == 0
        rows = _read_csv(out)
        assert len(rows) == 2 * 1 * 3
        assert set(rows[0].keys()) == {"model", "fraction", "seed", "spearman",
                                       "mean_abs_rel_error"}
        for row in rows:
            assert -1.0 <= float(row["spearman"]) <= 1.0

    def test_empty_fractions_usage_error(self, tmp_path):
        bench = tmp_path / "bench.json"
        main(_synth_args(bench))
        with pytest.raises(SystemExit) as exc:
            main([
                "forecast", "--benchmark", str(bench), "--fractions", "",
                "--models", "pl", "--seeds", "0", "--out", str(tmp_path / "fc.csv"),
            ])
        assert exc.value.code == 2

    @pytest.mark.parametrize(
        "fractions, models, seeds, message",
        [
            ("0.5", "pl", "-2", "--seeds must be >= 0, got -2"),
            ("0.5", "pl", "1,2,1", "--seeds repeats 1"),
            ("0.5", "pl,pl", "0", "--models repeats pl"),
            ("0.5,0.50", "pl", "0", "--fractions repeats 0.5"),
        ],
        ids=["negative-seed", "repeated-seed", "repeated-model", "repeated-fraction"],
    )
    def test_negative_or_repeated_values_usage_error(
        self, tmp_path, capsys, fractions, models, seeds, message
    ):
        bench = tmp_path / "bench.json"
        main(_synth_args(bench))
        out = tmp_path / "fc.csv"
        with pytest.raises(SystemExit) as exc:
            main([
                "forecast", "--benchmark", str(bench), "--fractions", fractions,
                "--models", models, "--seeds", seeds, "--out", str(out),
            ])
        assert exc.value.code == 2
        assert message in capsys.readouterr().err
        assert not out.exists()

    def test_fraction_bounds_usage_error(self, tmp_path):
        bench = tmp_path / "bench.json"
        main(_synth_args(bench))
        with pytest.raises(SystemExit) as exc:
            main([
                "forecast", "--benchmark", str(bench), "--fractions", "1.5",
                "--models", "pl", "--seeds", "0", "--out", str(tmp_path / "fc.csv"),
            ])
        assert exc.value.code == 2

    @pytest.mark.parametrize(
        "configs, b_max, field", [(1, 5, "configs"), (4, 1, "b_max")]
    )
    def test_table_too_small_exits_3(self, tmp_path, capsys, configs, b_max, field):
        bench = tmp_path / "bench.json"
        main(_synth_args(bench, configs=configs, b_max=b_max))
        code = main([
            "forecast", "--benchmark", str(bench), "--fractions", "0.5",
            "--models", "pl,dpl,condnn", "--seeds", "0", "--out", str(tmp_path / "fc.csv"),
        ])
        assert code == 3
        assert f"error: {field}: " in capsys.readouterr().err

    def test_tied_true_finals_exit_0_with_nan(self, tmp_path):
        doc = {
            "name": "tied",
            "metric": "loss",
            "b_max": 6,
            "hyperparameters": [{"name": "x", "min": 0.0, "max": 1.0}],
            "configs": [
                {"id": i, "values": [x], "curve": [0.9, 0.8, 0.7, 0.6, 0.55, 0.5]}
                for i, x in enumerate((0.1, 0.4, 0.6, 0.9))
            ],
        }
        bench = tmp_path / "tied.json"
        bench.write_text(json.dumps(doc), encoding="utf-8")
        out = tmp_path / "fc.csv"
        code = main([
            "forecast", "--benchmark", str(bench), "--fractions", "0.5",
            "--models", "pl", "--seeds", "0", "--out", str(out),
        ])
        assert code == 0
        rows = _read_csv(out)
        assert len(rows) == 1
        assert rows[0]["spearman"] == "nan"

    def test_rerun_bit_identical(self, tmp_path):
        bench = tmp_path / "bench.json"
        main(_synth_args(bench, configs=6, b_max=5))
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        args = lambda out: [
            "forecast", "--benchmark", str(bench), "--fractions", "0.5",
            "--models", "pl", "--seeds", "0", "--out", str(out),
        ]
        assert main(args(a)) == 0
        assert main(args(b)) == 0
        assert a.read_bytes() == b.read_bytes()


def _write_trajectory(path: Path, method, dataset, seed, rows):
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(TRAJECTORY_COLUMNS)
        for entry in rows:
            steps, nr = entry[0], entry[1]
            wall = entry[2] if len(entry) > 2 else 0.0
            writer.writerow([seed, method, dataset, steps, wall, nr, nr, nr])


class TestReport:
    def test_single_trajectory_passthrough(self, tmp_path):
        in_dir = tmp_path / "in"
        in_dir.mkdir()
        _write_trajectory(in_dir / "rs__d__seed0.csv", "rs", "d", 0,
                          [(1, 0.5), (2, 0.3), (4, 0.1)])
        out = tmp_path / "agg.csv"
        assert main(["report", "--in", str(in_dir), "--out", str(out)]) == 0
        rows = _read_csv(out)
        assert [(r["steps"], r["mean_normalized_regret"]) for r in rows] == [
            ("1", "0.5"), ("2", "0.3"), ("4", "0.1"),
        ]
        assert all(r["stderr_normalized_regret"] == "0.0" for r in rows)

    def test_two_seed_stderr(self, tmp_path):
        in_dir = tmp_path / "in"
        in_dir.mkdir()
        _write_trajectory(in_dir / "rs__d__seed0.csv", "rs", "d", 0, [(1, 0.2)])
        _write_trajectory(in_dir / "rs__d__seed1.csv", "rs", "d", 1, [(1, 0.4)])
        out = tmp_path / "agg.csv"
        main(["report", "--in", str(in_dir), "--out", str(out)])
        row = _read_csv(out)[0]
        assert float(row["mean_normalized_regret"]) == pytest.approx(0.3)
        assert float(row["stderr_normalized_regret"]) == pytest.approx(0.1)

    def test_mixed_methods_grouped(self, tmp_path):
        in_dir = tmp_path / "in"
        in_dir.mkdir()
        _write_trajectory(in_dir / "rs__d__seed0.csv", "rs", "d", 0, [(1, 0.2)])
        _write_trajectory(in_dir / "sh__d__seed0.csv", "sh", "d", 0, [(2, 0.1)])
        out = tmp_path / "agg.csv"
        main(["report", "--in", str(in_dir), "--out", str(out)])
        rows = _read_csv(out)
        methods = [r["method"] for r in rows]
        assert methods == sorted(methods)
        assert {"rs", "sh"} == set(methods)
        # LVCF onto the union grid {1, 2}: rs carries 0.2 forward, sh
        # backfills its first value at step 1
        by_key = {(r["method"], r["steps"]): float(r["mean_normalized_regret"]) for r in rows}
        assert by_key[("rs", "2")] == pytest.approx(0.2)
        assert by_key[("sh", "1")] == pytest.approx(0.1)

    def test_no_time_column_without_timing_data(self, tmp_path):
        # report ignores wall_time_s, even when a file carries nonzero times
        for wall in (0.0, 2.5):
            in_dir = tmp_path / f"in{wall}"
            in_dir.mkdir()
            _write_trajectory(in_dir / "rs__d__seed0.csv", "rs", "d", 0,
                              [(4, 0.2, wall), (8, 0.1, 4 * wall)])
            out = tmp_path / f"agg{wall}.csv"
            assert main(["report", "--in", str(in_dir), "--out", str(out)]) == 0
            rows = _read_csv(out)
            assert all(tuple(r) == AGGREGATE_COLUMNS for r in rows)
            assert [(r["steps"], r["mean_normalized_regret"]) for r in rows] == [
                ("4", "0.2"), ("8", "0.1"),
            ]

    def test_empty_directory_exits_3(self, tmp_path):
        empty = tmp_path / "empty"
        empty.mkdir()
        assert main(["report", "--in", str(empty), "--out", str(tmp_path / "x.csv")]) == 3

    def test_aggregate_only_directory_exits_3(self, tmp_path, capsys):
        in_dir = tmp_path / "in"
        in_dir.mkdir()
        (in_dir / "aggregate.csv").write_text(
            ",".join(AGGREGATE_COLUMNS) + "\nrs,1,0.5,0.0,1\n", encoding="utf-8"
        )
        out = tmp_path / "x.csv"
        assert main(["report", "--in", str(in_dir), "--out", str(out)]) == 3
        assert capsys.readouterr().err == f"error: no trajectory CSVs in {in_dir}\n"
        assert not out.exists()

    def test_header_only_trajectories_exit_3(self, tmp_path, capsys):
        in_dir = tmp_path / "in"
        in_dir.mkdir()
        _write_trajectory(in_dir / "rs__d__seed0.csv", "rs", "d", 0, [])
        out = tmp_path / "x.csv"
        assert main(["report", "--in", str(in_dir), "--out", str(out)]) == 3
        assert f"error: {in_dir}: the trajectory CSVs hold no rows" in capsys.readouterr().err
        assert not out.exists()

    def test_missing_directory_exits_3(self, tmp_path):
        assert main(["report", "--in", str(tmp_path / "nope"), "--out",
                     str(tmp_path / "x.csv")]) == 3

    def test_report_skips_its_own_output(self, tmp_path):
        bench, out = tmp_path / "bench.json", tmp_path / "o"
        assert main(_synth_args(bench, configs=12, b_max=4, noise=0.01)) == 0
        run = ["run", "--benchmarks", str(bench), "--methods", "rs", "--seeds", "0",
               "--budget-multiplier", "3", "--out", str(out)]
        assert main(run) == 0
        summary = out / "summary.csv"
        report = ["report", "--in", str(out), "--out", str(summary)]
        assert main(report) == 0
        first = summary.read_bytes()
        assert main(report) == 0
        assert summary.read_bytes() == first == (out / "aggregate.csv").read_bytes()
        assert main(run) == 0

    def test_report_refuses_to_overwrite_a_trajectory(self, tmp_path, capsys):
        # --out naming a trajectory of the directory would skip it, then replace it
        bench, out = tmp_path / "bench.json", tmp_path / "o"
        assert main(_synth_args(bench, configs=12, b_max=4, noise=0.01)) == 0
        assert main(["run", "--benchmarks", str(bench), "--methods", "rs", "--seeds", "0,1",
                     "--budget-multiplier", "3", "--out", str(out)]) == 0
        target = sorted(out.glob("rs__*__seed0.csv"))[0]
        before = target.read_bytes()
        assert main(["report", "--in", str(out), "--out", str(target)]) == 3
        assert f"error: {target}: --out must not be a trajectory CSV" in capsys.readouterr().err
        assert target.read_bytes() == before

    def test_report_skips_earlier_reports(self, tmp_path):
        # an aggregate is known by its header, whatever its file name
        bench, out = tmp_path / "bench.json", tmp_path / "o"
        assert main(_synth_args(bench, configs=12, b_max=4, noise=0.01)) == 0
        assert main(["run", "--benchmarks", str(bench), "--methods", "rs", "--seeds", "0",
                     "--budget-multiplier", "3", "--out", str(out)]) == 0
        summary, other = out / "summary.csv", out / "other.csv"
        assert main(["report", "--in", str(out), "--out", str(summary)]) == 0
        assert main(["report", "--in", str(out), "--out", str(other)]) == 0
        assert other.read_bytes() == summary.read_bytes() == (out / "aggregate.csv").read_bytes()

    @pytest.mark.parametrize("where", ["header", "later row"])
    def test_non_utf8_csv_exits_3(self, tmp_path, capsys, where):
        in_dir = tmp_path / "in"
        in_dir.mkdir()
        path = in_dir / "bin.csv"
        if where == "header":
            path.write_bytes(b"\xff\xfe\x00bad")
        else:
            # past the first block a reader decodes, so the header reads cleanly
            _write_trajectory(path, "rs", "d", 0, [(s, 0.5) for s in range(1, 2000)])
            path.write_bytes(path.read_bytes() + b"0,rs,d,2000,0.0,\xff,0.5,0.5\n")
        out = tmp_path / "x.csv"
        assert main(["report", "--in", str(in_dir), "--out", str(out)]) == 3
        assert f"error: {path}: not UTF-8 (" in capsys.readouterr().err
        assert not out.exists()

    def test_malformed_trajectory_exits_3(self, tmp_path):
        in_dir = tmp_path / "in"
        in_dir.mkdir()
        (in_dir / "junk.csv").write_text("a,b\n1,2\n", encoding="utf-8")
        assert main(["report", "--in", str(in_dir), "--out",
                     str(tmp_path / "x.csv")]) == 3

    @pytest.mark.parametrize(
        "steps, regret, message",
        [
            ("abc", "0.2", r"line 2: steps: must be an integer, got 'abc'"),
            ("0", "0.2", r"line 2: steps: must be >= 1, got 0"),
            ("1.5", "0.2", r"line 2: steps: must be an integer, got '1.5'"),
            ("1", "nan", r"line 2: normalized_regret: must be finite, got nan"),
            ("1", "inf", r"line 2: normalized_regret: must be finite, got inf"),
            ("1", "x", r"line 2: normalized_regret: must be a number, got 'x'"),
            # the aggregate of two such cells overflowed to inf
            ("1", "1e308", r"line 2: normalized_regret: must be at most 1e\+150 in "
                           r"magnitude, got 1e\+308"),
            ("1", "-2e150", r"line 2: normalized_regret: must be at most 1e\+150 in "
                            r"magnitude, got -2e\+150"),
        ],
    )
    def test_bad_cell_exits_3_naming_file_line_and_column(
        self, tmp_path, capsys, steps, regret, message
    ):
        in_dir = tmp_path / "in"
        in_dir.mkdir()
        path = in_dir / "rs__d__seed0.csv"
        _write_trajectory(path, "rs", "d", 0, [(steps, regret)])
        out = tmp_path / "x.csv"
        assert main(["report", "--in", str(in_dir), "--out", str(out)]) == 3
        err = capsys.readouterr().err
        assert str(path) in err and re.search(message, err)
        assert not out.exists()

    @pytest.mark.parametrize("fields", [5, 9])
    def test_wrong_field_count_exits_3(self, tmp_path, capsys, fields):
        in_dir = tmp_path / "in"
        in_dir.mkdir()
        path = in_dir / "rs__d__seed0.csv"
        path.write_text(
            ",".join(TRAJECTORY_COLUMNS) + "\n" + ",".join(["0", "rs", "d", "1", "0.0", "0.2",
                                                           "0.2", "0.2", "0"][:fields]) + "\n",
            encoding="utf-8",
        )
        assert main(["report", "--in", str(in_dir), "--out", str(tmp_path / "x.csv")]) == 3
        assert f"{path}: line 2: expected 8 fields" in capsys.readouterr().err

    def test_cell_in_two_files_exits_3(self, tmp_path, capsys):
        # a copy of another run of the same cell, under another name, is not a second run
        bench = tmp_path / "bench.json"
        assert main(_synth_args(bench, configs=12, b_max=4, noise=0.01)) == 0
        runs = {}
        for multiplier in ("2", "3"):
            out = runs[multiplier] = tmp_path / f"x{multiplier}"
            assert main(["run", "--benchmarks", str(bench), "--methods", "rs", "--seeds", "0",
                         "--budget-multiplier", multiplier, "--out", str(out)]) == 0
        first = next(runs["2"].glob("rs__*__seed0.csv"))
        copy = runs["2"] / "zz_copy.csv"
        copy.write_bytes(next(runs["3"].glob("rs__*__seed0.csv")).read_bytes())
        dataset = _read_csv(first)[0]["dataset"]
        out = tmp_path / "agg.csv"
        assert main(["report", "--in", str(runs["2"]), "--out", str(out)]) == 3
        assert capsys.readouterr().err == (
            f"error: {first} and {copy}: both hold the (method, dataset, seed) cell "
            f"('rs', '{dataset}', '0')\n"
        )
        assert not out.exists()

    @pytest.mark.parametrize(
        "steps, message",
        [((1, 2, 2), "line 4: steps: must rise within its cell, got 2 after 2"),
         ((1, 3, 2), "line 4: steps: must rise within its cell, got 2 after 3"),
         ((2, 1), "line 3: steps: must rise within its cell, got 1 after 2")],
    )
    def test_steps_not_rising_exit_3(self, tmp_path, capsys, steps, message):
        in_dir = tmp_path / "in"
        in_dir.mkdir()
        path = in_dir / "rs__d__seed0.csv"
        _write_trajectory(path, "rs", "d", 0, [(s, 0.5) for s in steps])
        out = tmp_path / "x.csv"
        assert main(["report", "--in", str(in_dir), "--out", str(out)]) == 3
        assert capsys.readouterr().err == f"error: {path}: {message}\n"
        assert not out.exists()

    def test_file_of_several_cells_accepted(self, tmp_path):
        # steps rise within each cell; the cells of one file may interleave
        in_dir = tmp_path / "in"
        in_dir.mkdir()
        path = in_dir / "both.csv"
        _write_trajectory(path, "rs", "d", 0, [(1, 0.4), (3, 0.2)])
        with open(path, "a", encoding="utf-8", newline="") as fh:
            fh.write("1,rs,d,2,0.0,0.3,0.3,0.3\n1,rs,d,4,0.0,0.1,0.1,0.1\n")
        out = tmp_path / "x.csv"
        assert main(["report", "--in", str(in_dir), "--out", str(out)]) == 0
        assert {r["n_runs"] for r in _read_csv(out)} == {"2"}


def _carried_value(points, step):
    """The value at the largest step <= ``step`` (the last of its repeats in
    sorted order), or the first value when every step lies beyond it."""
    before = [p for p in points if p[0] <= step]
    return max(before)[1] if before else min(points)[1]


@settings(max_examples=200, derandomize=True)
@given(
    st.lists(
        st.tuples(
            st.sampled_from(["rs", "sh"]),
            st.sampled_from(["d1", "d2"]),
            st.sampled_from(["0", "1", "2"]),
            st.integers(1, 12),
            st.floats(-1.0, 2.0),
        ),
        min_size=1,
        max_size=30,
    )
)
def test_aggregate_matches_brute_force(entries):
    rows = [
        {"method": m, "dataset": d, "seed": s, "steps": step, "normalized_regret": v}
        for m, d, s, step, v in entries
    ]
    grid = sorted({e[3] for e in entries})
    runs = {}
    for m, d, s, step, v in entries:
        runs.setdefault(m, {}).setdefault((d, s), []).append((step, v))
    expected = []
    for method in sorted(runs):
        n = len(runs[method])
        for step in grid:
            values = [_carried_value(points, step) for points in runs[method].values()]
            mean = math.fsum(values) / n
            var = math.fsum((v - mean) ** 2 for v in values) / (n - 1) if n > 1 else 0.0
            expected.append((method, step, mean, math.sqrt(var / n), n))
    got = aggregate_trajectory_rows(rows)
    assert [(r[0], r[1], r[4]) for r in got] == [(e[0], e[1], e[4]) for e in expected]
    for row, want in zip(got, expected):
        assert row[2:4] == pytest.approx(want[2:4], rel=1e-9, abs=1e-12)

"""Command-line entry point for batch experiments.

Subcommands: ``run`` (HPO methods x benchmarks x seeds, trajectory CSVs
plus an aggregate), ``forecast`` (curve-forecasting report), ``synth``
(synthetic benchmark generation) and ``report`` (re-aggregation of a
trajectory directory).

All randomness flows from explicit seeds, so every command is
byte-reproducible.  The trajectory CSVs keep a ``wall_time_s`` column
that is always 0.0, so the file format does not change; ``report``
ignores it.
Exit codes: 0 success, 2 usage, 3 data/schema, 4 internal.
"""

from __future__ import annotations

import argparse
import csv
import math
import re
import sys
from pathlib import Path

import numpy as np

from .baselines import BASELINE_RUNNERS
from .benchmarks import (
    BenchmarkFormatError,
    BenchmarkTable,
    count,
    finite,
    generate_synthetic,
    load_benchmark,
    oracle,
    require,
    save_benchmark,
)
from .forecasting import ForecastModel, run_forecast_experiment
from .hpo_loop import (
    MAX_NORMALIZED_REGRET,
    TRAJECTORY_COLUMNS,
    RunContext,
    RunSettings,
    regret_span,
    run_dpl,
)

METHODS = ("dpl", *BASELINE_RUNNERS)
FORECAST_MODELS = tuple(m.value for m in ForecastModel)

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_DATA = 3
EXIT_INTERNAL = 4

AGGREGATE_FILENAME = "aggregate.csv"
AGGREGATE_COLUMNS = ("method", "steps", "mean_normalized_regret", "stderr_normalized_regret", "n_runs")
FORECAST_COLUMNS = ("model", "fraction", "seed", "spearman", "mean_abs_rel_error")


def _write_csv(path: Path, header, rows) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        for row in rows:
            writer.writerow([str(v) for v in row])


def _safe_name(name: str) -> str:
    return re.sub(r"[^A-Za-z0-9._-]+", "_", name)


def write_trajectory_csv(run: RunContext, out_dir: Path) -> Path:
    path = out_dir / f"{run.method}__{_safe_name(run.table.name)}__seed{run.seed}.csv"
    _write_csv(path, TRAJECTORY_COLUMNS, run.to_rows())
    return path


def _cell(row: dict) -> tuple[str, str, str]:
    return row["method"], row["dataset"], row["seed"]


def read_trajectory_rows(path: Path) -> list[dict] | None:
    """Rows of one trajectory CSV, with ``steps`` and ``normalized_regret`` parsed;
    None for an aggregate, known by its header row (AGGREGATE_COLUMNS) whatever its name.
    Within each (method, dataset, seed) cell, ``steps`` must rise strictly from row to row."""
    try:
        with open(path, encoding="utf-8", newline="") as fh:
            reader = csv.DictReader(fh)
            header = tuple(reader.fieldnames or ())
            if header == AGGREGATE_COLUMNS:
                return None
            if header != TRAJECTORY_COLUMNS:
                raise BenchmarkFormatError(
                    f"{path}: expected trajectory columns {TRAJECTORY_COLUMNS}, "
                    f"got {reader.fieldnames}"
                )
            rows, last_steps = [], {}
            for row in reader:
                where = f"{path}: line {reader.line_num}"
                if None in row or None in row.values():
                    raise BenchmarkFormatError(f"{where}: expected {len(TRAJECTORY_COLUMNS)} fields")
                # a cell that does not parse reaches its rule as text, which the rule names
                for column, parse in (("steps", int), ("normalized_regret", float)):
                    try:
                        row[column] = parse(row[column])
                    except ValueError:
                        pass
                steps = row["steps"] = count(row["steps"], f"{where}: steps", floor=1)
                cell = _cell(row)
                previous = last_steps.get(cell, 0)
                if steps <= previous:
                    raise BenchmarkFormatError(
                        f"{where}: steps: must rise within its cell, got {steps} after {previous}"
                    )
                last_steps[cell] = steps
                regret = finite(row["normalized_regret"], f"{where}: normalized_regret")
                # the bound regret_span sets on every run, so the aggregate stays finite
                require(abs(regret) <= MAX_NORMALIZED_REGRET, f"{where}: normalized_regret",
                        f"must be at most {MAX_NORMALIZED_REGRET:g} in magnitude, got {regret}")
                row["normalized_regret"] = regret
                rows.append(row)
            return rows
    except UnicodeDecodeError as exc:
        raise BenchmarkFormatError(f"{path}: not UTF-8 ({exc})") from exc


def aggregate_trajectory_rows(rows: list[dict]) -> list[tuple]:
    """Mean and standard error of normalized regret per (method, step).

    Each (method, dataset, seed) trajectory becomes a step function on the
    union grid of all observed step counts; per method and grid point the
    mean is taken across seeds and then datasets (with one seed set per
    dataset this equals the pooled mean), and the standard error pools all
    (dataset, seed) samples.  Rows follow AGGREGATE_COLUMNS.
    """
    series: dict[tuple[str, str, str], list[tuple[int, float]]] = {}
    grid_points: set[int] = set()
    for row in rows:
        key = (row["method"], row["dataset"], row["seed"])
        series.setdefault(key, []).append((row["steps"], row["normalized_regret"]))
        grid_points.add(row["steps"])
    grid = sorted(grid_points)
    by_method: dict[str, list[np.ndarray]] = {}
    for (method, _, _), s in sorted(series.items()):
        steps, values = zip(*sorted(s))
        # last value carried forward; grid points before the first step take the first value
        last = np.maximum(np.searchsorted(steps, grid, side="right") - 1, 0)
        by_method.setdefault(method, []).append(np.asarray(values)[last])
    out = []
    for method in sorted(by_method):
        runs = np.asarray(by_method[method])  # (n_runs, n_grid)
        mean = runs.mean(axis=0)
        if runs.shape[0] > 1:
            stderr = runs.std(axis=0, ddof=1) / math.sqrt(runs.shape[0])
        else:
            stderr = np.zeros(runs.shape[1])
        for j, step in enumerate(grid):
            out.append((method, step, float(mean[j]), float(stderr[j]), runs.shape[0]))
    return out


def _run_one(method: str, table: BenchmarkTable, seed: int, budget_multiplier: int) -> RunContext:
    settings = RunSettings(seed=seed, budget_multiplier=budget_multiplier)
    if method == "dpl":
        return run_dpl(table, settings)
    return BASELINE_RUNNERS[method](table, settings)


def cmd_run(args) -> int:
    tables = [load_benchmark(p) for p in args.benchmarks]
    # every table is checked before any cell runs, so a bad one leaves --out empty;
    # trajectory files are named by table, so two tables of one name would overwrite cells
    owner: dict[str, str] = {}
    for path, table in zip(args.benchmarks, tables):
        regret_span(table)
        name = _safe_name(table.name)
        if name in owner:
            raise BenchmarkFormatError(
                f"{owner[name]} and {path}: both tables write trajectories named {name!r}"
            )
        owner[name] = path
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    written = []
    for table in tables:
        for method in args.methods:
            for seed in args.seeds:
                run = _run_one(method, table, seed, args.budget_multiplier)
                written.append(write_trajectory_csv(run, out_dir))
    # re-read this run's own cells, so `run` and `report` agree exactly on a fresh
    # directory and cells an earlier run left in out_dir stay out of the mean
    return _aggregate_directory(out_dir, sorted(written), out_dir / AGGREGATE_FILENAME)


def _aggregate_directory(in_dir: Path, files: list[Path], out_path: Path) -> int:
    """Aggregate the trajectory CSVs among ``files`` of ``in_dir`` into ``out_path``;
    a (method, dataset, seed) cell found in two files is an error, not two runs."""
    tables = {path: t for path in files if (t := read_trajectory_rows(path)) is not None}
    if not tables:
        raise BenchmarkFormatError(f"no trajectory CSVs in {in_dir}")
    owner: dict[tuple[str, str, str], Path] = {}
    for path, table in tables.items():
        for cell in dict.fromkeys(map(_cell, table)):
            first = owner.setdefault(cell, path)
            if first != path:
                raise BenchmarkFormatError(
                    f"{first} and {path}: both hold the (method, dataset, seed) cell {cell}"
                )
    rows = [row for table in tables.values() for row in table]
    if not rows:
        raise BenchmarkFormatError(f"{in_dir}: the trajectory CSVs hold no rows")
    _write_csv(out_path, AGGREGATE_COLUMNS, aggregate_trajectory_rows(rows))
    return EXIT_OK


def cmd_report(args) -> int:
    in_dir = Path(args.in_dir)
    if not in_dir.is_dir():
        raise BenchmarkFormatError(f"{in_dir} is not a directory")
    out_path = Path(args.out).resolve()
    if out_path.is_file():
        with open(out_path, encoding="utf-8", errors="replace", newline="") as fh:
            if tuple(next(csv.reader(fh), ())) == TRAJECTORY_COLUMNS:
                raise BenchmarkFormatError(f"{args.out}: --out must not be a trajectory CSV")
    # this report's own output is never an input; aggregates are skipped on read
    files = sorted(p for p in in_dir.glob("*.csv") if p.resolve() != out_path)
    return _aggregate_directory(in_dir, files, out_path)


def cmd_forecast(args) -> int:
    table = load_benchmark(args.benchmark)
    rows = []
    for model_name in args.models:
        model = ForecastModel(model_name)
        for fraction in args.fractions:
            for seed in args.seeds:
                report = run_forecast_experiment(table, fraction, model, seed=seed)
                rows.append(
                    (model.value, fraction, seed, report.spearman, report.mean_abs_rel_error)
                )
    _write_csv(Path(args.out), FORECAST_COLUMNS, rows)
    return EXIT_OK


def cmd_synth(args) -> int:
    table = generate_synthetic(
        seed=args.seed,
        n_configs=args.configs,
        hp_dim=args.hp_dim,
        b_max=args.b_max,
        noise_std=args.noise,
    )
    save_benchmark(table, args.out)
    print(f"wrote {args.out} (oracle loss {oracle(table)!r})")
    return EXIT_OK


def _list_of(parse, kind: str):
    """An argparse ``type`` for a comma list of ``parse`` values; empty items are dropped."""

    def parse_list(text: str) -> list:
        try:
            return [parse(tok.strip()) for tok in text.split(",") if tok.strip() != ""]
        except ValueError as exc:
            raise argparse.ArgumentTypeError(f"expected comma-separated {kind}, got {text!r}") from exc

    return parse_list


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="powerlaw-hpo",
        description="Multi-fidelity HPO experiments with power-law surrogates",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run HPO methods on benchmark files")
    p_run.add_argument("--benchmarks", nargs="+", required=True, help="benchmark JSON paths")
    p_run.add_argument("--methods", type=_list_of(str, "names"), required=True,
                       help=f"comma list of {METHODS}")
    p_run.add_argument("--seeds", type=_list_of(int, "integers"), required=True,
                       help="comma list of seeds")
    p_run.add_argument("--budget-multiplier", type=int, default=20,
                       help="step budget = multiplier * b_max (default 20)")
    p_run.add_argument("--out", required=True, help="output directory for CSVs")
    p_run.set_defaults(fn=cmd_run)

    p_fc = sub.add_parser("forecast", help="learning-curve forecasting experiment")
    p_fc.add_argument("--benchmark", required=True)
    p_fc.add_argument("--fractions", type=_list_of(float, "numbers"), required=True,
                      help="comma list of observed curve fractions in (0,1)")
    p_fc.add_argument("--models", type=_list_of(str, "names"), required=True,
                      help=f"comma list of {FORECAST_MODELS}")
    p_fc.add_argument("--seeds", type=_list_of(int, "integers"), required=True)
    p_fc.add_argument("--out", required=True, help="output CSV path")
    p_fc.set_defaults(fn=cmd_forecast)

    p_sy = sub.add_parser("synth", help="generate a synthetic benchmark file")
    p_sy.add_argument("--seed", type=int, default=0)
    p_sy.add_argument("--configs", type=int, default=200)
    p_sy.add_argument("--hp-dim", type=int, default=2)
    p_sy.add_argument("--b-max", type=int, default=25)
    p_sy.add_argument("--noise", type=float, default=0.0)
    p_sy.add_argument("--out", required=True)
    p_sy.set_defaults(fn=cmd_synth)

    p_rep = sub.add_parser("report", help="aggregate a directory of trajectory CSVs")
    p_rep.add_argument("--in", dest="in_dir", required=True)
    p_rep.add_argument("--out", required=True)
    p_rep.set_defaults(fn=cmd_report)
    return parser


def _check_list(parser: argparse.ArgumentParser, flag: str, values: list) -> None:
    """A list flag must be non-empty and repeat no value: a repeat would overwrite its output."""
    if not values:
        parser.error(f"{flag} must not be empty")
    for i, v in enumerate(values):
        if v in values[:i]:
            parser.error(f"{flag} repeats {v}")


def _check_seeds(parser: argparse.ArgumentParser, flag: str, seeds: list[int]) -> None:
    _check_list(parser, flag, seeds)
    if min(seeds) < 0:
        parser.error(f"{flag} must be >= 0, got {min(seeds)}")


def _validate(parser: argparse.ArgumentParser, args) -> None:
    if args.command == "run":
        _check_list(parser, "--methods", args.methods)
        for m in args.methods:
            if m not in METHODS:
                parser.error(f"unknown method {m!r}; choose from {', '.join(METHODS)}")
        _check_seeds(parser, "--seeds", args.seeds)
        if args.budget_multiplier < 1:
            parser.error("--budget-multiplier must be >= 1")
    elif args.command == "forecast":
        _check_list(parser, "--fractions", args.fractions)
        for f in args.fractions:
            if not 0.0 < f < 1.0:
                parser.error(f"fractions must lie in (0, 1), got {f}")
        _check_list(parser, "--models", args.models)
        for m in args.models:
            if m not in FORECAST_MODELS:
                parser.error(f"unknown model {m!r}; choose from {', '.join(FORECAST_MODELS)}")
        _check_seeds(parser, "--seeds", args.seeds)
    elif args.command == "synth":
        _check_seeds(parser, "--seed", [args.seed])
        if args.configs < 1:
            parser.error("--configs must be >= 1")
        if args.hp_dim < 1 or args.b_max < 1:
            parser.error("--hp-dim and --b-max must be >= 1")
        if not 0.0 <= args.noise < math.inf:
            parser.error(f"--noise must be a finite number >= 0, got {args.noise}")


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    _validate(parser, args)
    try:
        return args.fn(args)
    except (BenchmarkFormatError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except Exception as exc:  # noqa: BLE001 - last-resort diagnostics
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())

#!/usr/bin/env python3
"""Self-test of the benchmark's output check.

    python3 perfbench/selftest.py

Records the digests of a small ``run`` and a small ``forecast`` call,
repeats each call unchanged (no failure expected), then repeats it with
one byte of one output CSV flipped after the CLI wrote it, and requires
the benchmark's ``Runner`` to count exactly that one output as failed.
Exits 0 when every check holds.
"""

import sys
import tempfile
from pathlib import Path

import run  # sets the BLAS thread variables before numpy is imported

sys.path.insert(0, str(run.SRC))

from powerlaw_hpo.benchmarks import generate_synthetic, save_benchmark  # noqa: E402

from workloads import Workload, digests  # noqa: E402

CASES = (
    Workload(name="tiny_run", synth=dict(seed=3, n_configs=12, hp_dim=2, b_max=6),
             command=("run", "--methods", "rs,sh", "--seeds", "0", "--budget-multiplier", "3")),
    Workload(name="tiny_forecast", synth=dict(seed=3, n_configs=12, hp_dim=2, b_max=6),
             command=("forecast", "--fractions", "0.5", "--models", "condnn", "--seeds", "0")),
)


def flip_one_byte(out_path: Path) -> None:
    """Flip the last digit-bearing byte of the first CSV under ``out_path``."""
    target = out_path if out_path.is_file() else sorted(out_path.glob("*.csv"))[0]
    data = bytearray(target.read_bytes())
    data[-2] ^= 0x01  # the byte before the final newline
    target.write_bytes(bytes(data))


def check(case: Workload, work_dir: Path) -> list[str]:
    table_path = work_dir / f"{case.name}.json"
    save_benchmark(generate_synthetic(**case.synth), table_path)

    reference = run.Runner(case, table_path, work_dir, golden=None)
    reference.call()
    golden = {"digests": digests(reference.outputs)}

    problems = []
    clean = run.Runner(case, table_path, work_dir, golden)
    clean.call()
    if clean.failed != 0:
        problems.append(f"{case.name}: unchanged output counted {clean.failed} failures")

    def main_then_flip(main, argv):
        rc = main(argv)
        flip_one_byte(Path(argv[argv.index("--out") + 1]))
        return rc

    flipped = run.Runner(case, table_path, work_dir, golden)
    flipped.call(main_then_flip)
    if flipped.failed != 1 or flipped.attempted != len(golden["digests"]):
        problems.append(
            f"{case.name}: one flipped byte gave {flipped.failed} failures "
            f"of {flipped.attempted} outputs, expected 1 of {len(golden['digests'])}"
        )
    return problems


def check_units() -> list[str]:
    """The units BENCHMARK.json declares are the ones the report lines print."""
    return [
        f"BENCHMARK.json gives {name} unit {unit!r}, the benchmark prints {run.unit_of(name)!r}"
        for trace in (False, True)
        for name, unit in run.declared_metrics(trace).items()
        if run.unit_of(name) != unit
    ]


def main() -> int:
    problems = check_units()
    with tempfile.TemporaryDirectory(prefix=".work-", dir=run.BENCH_DIR) as tmp:
        for case in CASES:
            problems += check(case, Path(tmp))
    for line in problems:
        print(f"FAIL {line}")
    if problems:
        return 1
    print(f"selftest ok: {len(CASES)} cases, one flipped byte detected in each")
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""The CLI reproduces the benchmark's golden outputs byte for byte.

Each workload in ``perfbench/workloads.py`` runs once untraced and once
under the benchmark's tracer, on its pinned synthetic table.  Every output
unit must match the digest stored in ``perfbench/goldens.json``, and the
traced run's exact counters (training steps, forward rows, candidates
scanned, iterations, fit Adam steps) must match the stored counters.  A
refactor that moves a float by one ulp, or that changes how much work a
run does, shows here first.
"""

import json
import sys
from pathlib import Path

import pytest

from powerlaw_hpo import cli
from powerlaw_hpo.benchmarks import generate_synthetic, save_benchmark

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
sys.path.insert(0, str(PERFBENCH))
from tracer import Tracer  # noqa: E402
from workloads import WORKLOADS, collect_outputs, mismatches  # noqa: E402

GOLDENS = json.loads((PERFBENCH / "goldens.json").read_text())


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_cli_outputs_match_goldens(name, tmp_path):
    workload = WORKLOADS[name]
    table_path = tmp_path / "table.json"
    save_benchmark(generate_synthetic(**workload.synth), table_path)
    out_path = tmp_path / ("out.csv" if workload.is_forecast else "out")
    assert cli.main(workload.argv(table_path, out_path)) == 0
    assert mismatches(collect_outputs(workload, out_path), GOLDENS[name]["digests"]) == []


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_traced_run_matches_goldens_and_counters(name, tmp_path):
    workload = WORKLOADS[name]
    table_path = tmp_path / "table.json"
    save_benchmark(generate_synthetic(**workload.synth), table_path)
    out_path = tmp_path / ("out.csv" if workload.is_forecast else "out")
    tracer = Tracer()
    assert tracer.call(cli.main, workload.argv(table_path, out_path)) == 0
    assert mismatches(collect_outputs(workload, out_path), GOLDENS[name]["digests"]) == []
    golden = GOLDENS[name]["counters"]
    metrics = tracer.metrics()
    assert {counter: metrics[counter] for counter in golden} == golden

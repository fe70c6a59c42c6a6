"""Workload definitions, output digests and quality read from the CLI outputs.

Each workload pins the synthetic table it runs on, so output digests,
exact counters and quality repeat bit-for-bit from run to run.  The
sizes are cut down from the full experiments so that one call takes a
few seconds and a run can take its timings at their best over several
calls.  The DPL cells stop after a prefix of the full-budget trajectory,
so their work mix differs from the full run's: see README.md for the
split.

``predicted_share`` is the interaction table: each layer's share of the
workload's traced wall time (self time unless stated; measured with
``--trace 1`` on a 2-core x86_64 KVM guest with OpenBLAS at one thread)
and the end-to-end metrics it should move there.  A layer at 0 on a
workload predicts no change on it, so an optimisation of a layer can
state up front "moves X on W, no change on V".
"""

from __future__ import annotations

import csv
import hashlib
import io
from dataclasses import dataclass, field
from pathlib import Path


@dataclass(frozen=True)
class Workload:
    name: str
    synth: dict                # generate_synthetic keyword arguments
    command: tuple[str, ...]   # CLI arguments after the table and before --out
    predicted_share: dict = field(default_factory=dict)

    @property
    def is_forecast(self) -> bool:
        return self.command[0] == "forecast"

    def argv(self, table_path: Path, out_path: Path) -> list[str]:
        if self.is_forecast:
            return [self.command[0], "--benchmark", str(table_path), *self.command[1:],
                    "--out", str(out_path)]
        return [self.command[0], "--benchmarks", str(table_path), *self.command[1:],
                "--out", str(out_path)]


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="dpl_c7",
            synth=dict(seed=42, n_configs=200, hp_dim=2, b_max=12, noise_std=0.01),
            command=("run", "--methods", "dpl,rs,sh,hb,asha", "--seeds", "0",
                     "--budget-multiplier", "6"),
            predicted_share={
                "neural_core": "70%: wall_s, latency_ms_p50 and latency_ms_p90",
                "surrogate": "29% self (23% head and loss in train_batch): wall_s; fits and the "
                             "restarts set latency_ms_p90",
                "acquisition": "4% with its posterior_batch child, 0.4% EI self",
                "hpo_loop": "<1%",
                "curve_models": "0",
                "forecasting": "0",
                "baselines": "<0.1% (four cells of under 1 ms each)",
                "benchmarks": "<0.1%",
                "cli": "<0.2%",
            },
        ),
        Workload(
            name="forecast",
            synth=dict(seed=606, n_configs=10, hp_dim=2, b_max=25, noise_std=0.01),
            command=("forecast", "--fractions", "0.2,0.5", "--models", "pl,dpl,condnn",
                     "--seeds", "0"),
            predicted_share={
                "neural_core": "39%: 25% curve_models Adam steps, 14% dpl/condnn training",
                "surrogate": "4% self (dpl and condnn cells)",
                "acquisition": "0",
                "hpo_loop": "0",
                "curve_models": "57% self (per-curve fits, 6,000 Adam steps per curve): wall_s "
                                "and latency_ms_p50",
                "forecasting": "<0.1% self",
                "baselines": "0",
                "benchmarks": "0",
                "cli": "<0.1%",
            },
        ),
    )
}


def collect_outputs(workload: Workload, out_path: Path) -> dict[str, bytes]:
    """The CLI outputs split into checked units.

    ``run`` gives one unit per trajectory CSV (one cell) plus the
    aggregate; ``forecast`` gives one unit per CSV row (one cell) plus the
    header line.
    """
    if not workload.is_forecast:
        return {p.name: p.read_bytes() for p in sorted(out_path.glob("*.csv"))}
    lines = out_path.read_bytes().splitlines(keepends=True)
    outputs = {"header": lines[0]} if lines else {}
    for line in lines[1:]:
        model, fraction, seed = line.decode().split(",")[:3]
        outputs[f"{model}__{fraction}__seed{seed}"] = line
    return outputs


def digests(outputs: dict[str, bytes]) -> dict[str, str]:
    return {name: hashlib.sha256(data).hexdigest() for name, data in outputs.items()}


def mismatches(outputs: dict[str, bytes], golden: dict[str, str]) -> list[str]:
    """Names of expected units that are missing or differ, and unexpected extras."""
    got = digests(outputs)
    bad = [name for name, digest in golden.items() if got.get(name) != digest]
    bad += [name for name in got if name not in golden]
    return sorted(bad)


def quality(workload: Workload, outputs: dict[str, bytes]) -> dict[str, float]:
    """Quality figures read from the outputs the user receives.

    ``quality_loss`` is never zero: the mean final incumbent loss of the
    DPL cells for ``run`` workloads (their normalized regret can reach
    exactly 0), and the mean absolute relative error of the forecast
    final losses for ``forecast``.
    """
    if workload.is_forecast:
        rows = [
            next(csv.reader(io.StringIO(data.decode())))
            for name, data in outputs.items() if name != "header"
        ]
        spearman = [float(r[3]) for r in rows]
        rel_error = [float(r[4]) for r in rows]
        return {
            "quality_loss": sum(rel_error) / len(rel_error),
            "forecast_spearman": sum(spearman) / len(spearman),
        }
    finals = []
    for name, data in outputs.items():
        if not name.startswith("dpl__"):
            continue
        last = list(csv.DictReader(io.StringIO(data.decode())))[-1]
        finals.append((float(last["incumbent_loss"]), float(last["normalized_regret"])))
    return {
        "quality_loss": sum(f[0] for f in finals) / len(finals),
        "final_nregret": sum(f[1] for f in finals) / len(finals),
    }

"""Learning-curve forecasting harness: given a prefix of every curve,
predict final values and score rank correlation plus relative error."""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, replace

import numpy as np

from .benchmarks import BenchmarkFormatError, BenchmarkTable, count
from .curve_models import FitConfig, eval_power_law, fit_single_curve
from .surrogate import (
    ConditionedNetwork,
    DplNetwork,
    TrainerSchedule,
    TrainingData,
    train_member_epochs,
)


def average_ranks(values) -> np.ndarray:
    """1-based ranks; tied values receive the average of their positions."""
    a = np.asarray(values, dtype=float)
    order = np.argsort(a, kind="stable")
    ranks = np.empty(a.size, dtype=float)
    i = 0
    while i < a.size:
        j = i
        while j + 1 < a.size and a[order[j + 1]] == a[order[i]]:
            j += 1
        ranks[order[i : j + 1]] = 0.5 * (i + j) + 1.0
        i = j + 1
    return ranks


def spearman(xs, ys) -> float:
    """Rank correlation: Pearson correlation of average-ranked data."""
    x = np.asarray(xs, dtype=float)
    y = np.asarray(ys, dtype=float)
    if x.shape != y.shape or x.ndim != 1 or x.size < 2:
        raise ValueError("need two equal-length 1-D arrays with >= 2 entries")
    rx = average_ranks(x)
    ry = average_ranks(y)
    rx = rx - rx.mean()
    ry = ry - ry.mean()
    denom = math.sqrt(float(np.sum(rx * rx)) * float(np.sum(ry * ry)))
    if denom <= 0:
        raise ValueError("zero-variance ranks (all values tied)")
    rho = float(np.sum(rx * ry) / denom)
    return max(-1.0, min(1.0, rho))


class ForecastModel(enum.Enum):
    DPL = "dpl"                    # shared power-law network over all configs
    PER_CURVE_POWER_LAW = "pl"     # one 3-parameter fit per curve
    CONDITIONED_NN = "condnn"      # shared plain regressor on (config, budget)


@dataclass(frozen=True)
class ForecastReport:
    predicted_final: np.ndarray
    true_final: np.ndarray
    spearman: float
    mean_abs_rel_error: float


def _prefix_training_data(table: BenchmarkTable, observed_steps: int) -> TrainingData:
    n = table.n_configs
    steps = np.arange(1, observed_steps + 1, dtype=float)
    configs = np.repeat(table.scaled_values, observed_steps, axis=0)
    budgets = np.tile(steps / table.b_max, n)
    losses = table.loss_curves[:, :observed_steps].reshape(-1)
    return TrainingData(configs=configs, budgets=budgets, losses=losses)


def run_forecast_experiment(
    table: BenchmarkTable,
    observed_fraction: float,
    model: ForecastModel,
    seed: int = 0,
    fit_config: FitConfig | None = None,
    schedule: TrainerSchedule | None = None,
) -> ForecastReport:
    """Train one forecasting model on curve prefixes and score final values.

    The first ceil(fraction * b_max) steps of every curve are observed;
    predictions target the loss at full budget.  The shared models (DPL and
    the conditioned NN) train once over all configs with the initial-fit
    epoch count; the per-curve power law fits each curve independently.

    Tables with fewer than 2 configs (nothing to rank) or curves shorter
    than 2 steps (nothing to fit) raise BenchmarkFormatError.  When all
    predictions tie, or all true final losses tie, no ranking exists and
    the report carries ``spearman = nan``.
    """
    if not 0.0 < observed_fraction < 1.0:
        raise ValueError(f"observed_fraction must be in (0, 1), got {observed_fraction}")
    count(seed, "seed")
    if table.n_configs < 2:
        raise BenchmarkFormatError(
            f"configs: forecasting ranks configurations and needs at least 2, got {table.n_configs}"
        )
    if table.b_max < 2:
        raise BenchmarkFormatError(
            f"b_max: forecasting needs curves of at least 2 steps, got {table.b_max}"
        )
    observed_steps = max(2, math.ceil(observed_fraction * table.b_max))
    true_final = table.loss_curves[:, -1].copy()

    if model is ForecastModel.PER_CURVE_POWER_LAW:
        cfg = fit_config or FitConfig()
        base = cfg.seed if isinstance(cfg.seed, tuple) else (cfg.seed,)
        preds = np.empty(table.n_configs)
        for i in range(table.n_configs):
            result = fit_single_curve(
                table.loss_curves[i, :observed_steps],
                max_budget=table.b_max,
                fit_config=replace(cfg, seed=base + (seed, i)),
            )
            preds[i] = eval_power_law(result.coefficients, 1.0)
    else:
        schedule = schedule or TrainerSchedule.for_curve_length(table.b_max)
        data = _prefix_training_data(table, observed_steps)
        net_cls = DplNetwork if model is ForecastModel.DPL else ConditionedNetwork
        net = net_cls(table.hp_dim, [seed, 11, 0])
        rng = np.random.default_rng([seed, 12])
        train_member_epochs(net, data, schedule.initial_epochs, schedule.batch_size, rng)
        preds = net.predict(table.scaled_values, 1.0)

    # a diverged shared model may emit non-finite predictions; keep the
    # ranking well-defined by pinning those to a huge loss
    preds = np.nan_to_num(preds, nan=1e30, posinf=1e30, neginf=-1e30)
    rel_err = np.abs(preds - true_final) / np.maximum(np.abs(true_final), 1e-12)
    return ForecastReport(
        predicted_final=preds,
        true_final=true_final,
        spearman=(
            math.nan
            if np.ptp(preds) == 0 or np.ptp(true_final) == 0
            else spearman(preds, true_final)
        ),
        mean_abs_rel_error=float(np.mean(rel_err)),
    )

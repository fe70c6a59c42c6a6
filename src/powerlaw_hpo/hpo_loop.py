"""Main multi-fidelity optimization loop and shared run bookkeeping.

One HPO iteration = one surrogate fit/refine plus one step-block
evaluation on the benchmark.  Budgets cross into the surrogate and
acquisition as step / b_max in (0, 1]; the benchmark side works in raw
integer steps.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import accumulate

import numpy as np

from . import acquisition
from .benchmarks import (
    BenchmarkFormatError,
    BenchmarkTable,
    count,
    evaluate,
    oracle,
)
from .history import History, Observation
from .surrogate import DplEnsemble, Stagnation, TrainerSchedule, TrainingData, should_restart

TRAJECTORY_COLUMNS = (
    "seed",
    "method",
    "dataset",
    "steps",
    "wall_time_s",
    "incumbent_loss",
    "regret",
    "normalized_regret",
)


@dataclass(frozen=True)
class RunSettings:
    """Shared run parameters for the DPL loop and every baseline.

    ``total_step_budget`` defaults to budget_multiplier * b_max (the cost
    of fully evaluating that many configurations).  The seed and the step
    counts are checked here, once, so every method rejects the same
    settings with the same error: each must be an ``int`` (a bool, a float
    or a numpy integer fails), the seed >= 0 and the counts >= 1.
    """

    seed: int = 0
    total_step_budget: int | None = None
    budget_multiplier: int = 20

    def __post_init__(self):
        count(self.seed, "seed")
        count(self.budget_multiplier, "budget_multiplier", floor=1)
        if self.total_step_budget is not None:
            count(self.total_step_budget, "total_step_budget", floor=1)

    def resolve_budget(self, table: BenchmarkTable) -> int:
        if self.total_step_budget is not None:
            return self.total_step_budget
        return self.budget_multiplier * table.b_max


@dataclass(frozen=True)
class TrajectoryPoint:
    steps_consumed: int
    incumbent_loss: float
    incumbent_regret: float


def incumbent_regret(history: History, table: BenchmarkTable) -> float:
    """Best observed loss at any budget minus the benchmark-wide oracle."""
    if len(history) == 0:
        raise ValueError("history is empty")
    return history.best_loss - oracle(table)


def regret_span(table: BenchmarkTable) -> float:
    """The best-to-worst span of per-config best losses, which normalizes regret.

    A lone config's span is 1.0.  BenchmarkFormatError names the benchmark
    when several configs share one best loss (the span is 0), or when the
    largest normalized regret, (worst loss - oracle) / span, is not finite:
    the span or that difference overflows, or the span is so small that
    the quotient does.  Every run's normalized regret is then finite.
    """
    best = table.loss_curves.min(axis=1)
    lowest = float(best.min())
    span = float(best.max()) - lowest
    if span <= 0 and table.n_configs > 1:
        raise BenchmarkFormatError(
            f"benchmark {table.name!r} is degenerate: all configurations share "
            "the same best loss, so regret cannot be normalized"
        )
    span = span if span > 0 else 1.0
    # Python floats overflow to inf quietly, where numpy scalars would warn
    largest = (float(table.loss_curves.max()) - lowest) / span
    if not math.isfinite(largest):
        raise BenchmarkFormatError(
            f"benchmark {table.name!r} cannot normalize regret: the largest normalized "
            f"regret, (worst loss - oracle) / span, is {largest}"
        )
    return span


class RunContext:
    """One run: its method and seed, budget accounting, history and trajectory.

    Step costs are incremental: advancing a configuration charges only the
    steps beyond its previous high-water mark (its highest budget in the
    history), and a lookup at or below that mark is free (the curve prefix
    was already paid for).  No evaluation may exceed the total step budget.
    The history holds the run's state; the step count and the trajectory
    are read from it.
    """

    def __init__(self, table: BenchmarkTable, settings: RunSettings, method: str):
        self.table = table
        self.method = method
        self.seed = settings.seed
        self.total_step_budget = settings.resolve_budget(table)
        self.history = History()
        self.normalization_span = regret_span(table)
        self.oracle_loss = oracle(table)

    @property
    def points(self) -> list[TrajectoryPoint]:
        """One point per record: steps so far, the best loss so far and its regret."""
        steps = accumulate(self.history.costs)
        best = accumulate((obs.loss for obs in self.history), min)
        return [TrajectoryPoint(s, b, b - self.oracle_loss) for s, b in zip(steps, best)]

    def to_rows(self) -> list[tuple]:
        return [
            (
                self.seed,
                self.method,
                self.table.name,
                p.steps_consumed,
                0.0,  # wall_time_s: kept so the file format does not change
                p.incumbent_loss,
                p.incumbent_regret,
                p.incumbent_regret / self.normalization_span,
            )
            for p in self.points
        ]

    @property
    def steps_consumed(self) -> int:
        return self.history.steps

    def cost_of(self, config_id: int, budget: int) -> int:
        return max(0, budget - self.history.max_budget_for(config_id))

    def can_afford(self, config_id: int, budget: int) -> bool:
        return self.steps_consumed + self.cost_of(config_id, budget) <= self.total_step_budget

    @property
    def remaining(self) -> int:
        return self.total_step_budget - self.steps_consumed

    def observe(self, config_id: int, budget: int) -> float:
        """Evaluate a config at a budget, charging incremental steps.

        New observations (budget above the high-water mark) enter the
        history and extend the trajectory; re-reads of already-paid curve
        points are free and leave both untouched.
        """
        cost = self.cost_of(config_id, budget)
        loss = evaluate(self.table, config_id, budget)
        if cost == 0:
            return loss
        if self.steps_consumed + cost > self.total_step_budget:
            raise RuntimeError(
                f"evaluation of config {config_id} at budget {budget} would exceed "
                f"the step budget ({self.steps_consumed}+{cost}>{self.total_step_budget})"
            )
        self.history.append(Observation(config_id=config_id, budget=budget, loss=loss))
        return loss

    def candidate_pool(self) -> list[int]:
        """Table rows of the configs not yet fully evaluated."""
        return [
            row for row, cid in enumerate(self.table.config_ids)
            if self.history.max_budget_for(cid) < self.table.b_max
        ]


def seed_initial_design(ctx: RunContext) -> int:
    """Evaluate one configuration, drawn uniformly from the run's seed, for one step."""
    rng = np.random.default_rng([ctx.seed, 0])
    cid = ctx.table.config_ids[rng.integers(0, ctx.table.n_configs)]
    ctx.observe(cid, 1)
    return cid


def _training_data(ctx: RunContext) -> TrainingData:
    table = ctx.table
    configs = table.scaled_values[[table.index_of(o.config_id) for o in ctx.history]]
    budgets = np.array([o.budget for o in ctx.history], dtype=float) / float(table.b_max)
    losses = np.array([o.loss for o in ctx.history], dtype=float)
    return TrainingData(configs=configs, budgets=budgets, losses=losses)


def run_dpl(
    table: BenchmarkTable,
    settings: RunSettings,
    schedule: TrainerSchedule | None = None,
) -> RunContext:
    """Run the power-law-surrogate HPO loop until the step budget is spent.

    Per iteration: train the ensemble (full retrain during the first 10
    iterations and after a stagnation restart, 20-epoch refinement
    otherwise), pick the candidate maximizing Expected Improvement at full
    budget, advance it by one budget step, and record the observation.
    Fully deterministic for a given seed.
    """
    ctx = RunContext(table, settings, method="dpl")
    if schedule is None:
        schedule = TrainerSchedule.for_curve_length(table.b_max)
    seed_initial_design(ctx)

    ensemble = DplEnsemble(hp_dim=table.hp_dim, seed=settings.seed)

    restart_pending = False
    stagnation = Stagnation(schedule.restart_threshold_iterations)
    while ctx.remaining > 0:
        data = _training_data(ctx)
        # the history length is the iteration number: the initial design
        # adds one record, and each iteration adds one more, since it
        # advances a config below b_max by one step while steps remain;
        # the first iteration has no fit to refine, so it fits from scratch
        if len(ctx.history) <= max(1, schedule.initial_phase_iterations):
            fit_loss = ensemble.fit_initial(data, schedule)
        elif restart_pending:
            fit_loss = ensemble.restart(data, schedule)
            stagnation = Stagnation(schedule.restart_threshold_iterations)
        else:
            fit_loss = ensemble.refine(data, schedule)
        restart_pending = should_restart(stagnation, fit_loss)

        rows = ctx.candidate_pool()
        if not rows:
            break
        # one step: the pool holds only configs below b_max, and steps remain
        cid = acquisition.select_next([table.config_ids[r] for r in rows],
                                      table.scaled_values[rows], ensemble, ctx.history.best_loss)
        ctx.observe(cid, ctx.history.max_budget_for(cid) + 1)
    return ctx

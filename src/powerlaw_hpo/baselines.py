"""Canonical in-repo baselines sharing the DPL loop's budget accounting.

These are deterministic desk-scale re-implementations of the textbook
algorithm definitions (no external tuning libraries): random search at
full budget, successive halving, Hyperband's bracket schedule and a
single-worker simulation of asynchronous successive halving.  All of
them resume configurations from their last trained budget, since the
tabular benchmarks store full curves.
"""

from __future__ import annotations

import math

import numpy as np

from .benchmarks import BenchmarkTable, count
from .hpo_loop import RunContext, RunSettings, seed_initial_design

DEFAULT_ETA = 3


def geometric_rungs(b_max: int, eta: int) -> tuple[int, ...]:
    """Budget ladder 1, eta, eta^2, ... capped/topped at b_max."""
    count(eta, "eta", floor=2)
    rungs = []
    b = 1
    while b < b_max:
        rungs.append(b)
        b *= eta
    rungs.append(b_max)
    return tuple(rungs)


def run_random_search(table: BenchmarkTable, settings: RunSettings) -> RunContext:
    """Evaluate uniformly sampled unseen configurations at full budget."""
    ctx = RunContext(table, settings, method="rs")
    rng = np.random.default_rng([settings.seed, 1])
    unevaluated = list(table.config_ids)
    while unevaluated and ctx.remaining >= table.b_max:
        pick = int(rng.integers(0, len(unevaluated)))
        cid = unevaluated.pop(pick)
        ctx.observe(cid, table.b_max)
    return ctx


def _sample_cohort(rng: np.random.Generator, pool: list[int], n: int) -> list[int]:
    """n distinct configs drawn uniformly (whole pool if it is smaller)."""
    if n >= len(pool):
        return list(pool)
    picks = rng.choice(len(pool), size=n, replace=False)
    return [pool[int(i)] for i in picks]


def successive_halving_bracket(
    ctx: RunContext, cohort: list[int], rungs: tuple[int, ...], eta: int
) -> bool:
    """Run one SH bracket; returns False when the step budget ran dry.

    The top 1/eta of each rung (by loss, ties to the lowest config id)
    advances to the next rung budget; evaluations resume from each
    configuration's previous budget.
    """
    for level, budget in enumerate(rungs):
        losses = []
        for cid in cohort:
            if not ctx.can_afford(cid, budget):
                return False
            losses.append((ctx.observe(cid, budget), cid))
        if level == len(rungs) - 1:
            break
        keep = max(1, len(cohort) // eta)
        losses.sort()
        cohort = [cid for _, cid in losses[:keep]]
    return True


def hyperband_brackets(b_max: int, eta: int = DEFAULT_ETA) -> list[tuple[int, tuple[int, ...]]]:
    """Bracket plan: (n_configs, rung budgets) for s = s_max .. 0.

    s_max = floor(log_eta(b_max)); bracket s starts n_s =
    ceil((s_max+1)/(s+1) * eta^s) configs at budget b_max / eta^s.
    """
    count(eta, "eta", floor=2)
    s_max = int(math.floor(math.log(b_max, eta) + 1e-12))
    plan = []
    for s in range(s_max, -1, -1):
        n = math.ceil((s_max + 1) / (s + 1) * eta**s)
        rungs = tuple(max(1, b_max // eta ** (s - i)) for i in range(s + 1))
        plan.append((n, rungs))
    return plan


def _run_brackets(
    table: BenchmarkTable, settings: RunSettings, method: str, plan: list, eta: int
) -> RunContext:
    """Cycle through a bracket plan of (n_configs, rungs) until the budget is spent."""
    ctx = RunContext(table, settings, method=method)
    rng = np.random.default_rng([settings.seed, 1])
    seed_initial_design(ctx)
    pool = list(table.config_ids)
    alive = True
    while alive and ctx.remaining > 0:
        before = ctx.steps_consumed
        for n, rungs in plan:
            cohort = _sample_cohort(rng, pool, n)
            if not successive_halving_bracket(ctx, cohort, rungs, eta):
                alive = False
                break
        if alive and ctx.steps_consumed == before:  # pool too small to make progress
            break
    return ctx


def run_successive_halving(
    table: BenchmarkTable, settings: RunSettings, eta: int = DEFAULT_ETA
) -> RunContext:
    """Hyperband with the one bracket (eta^(len(rungs)-1), geometric_rungs):
    repeat SH brackets until the budget is spent."""
    rungs = geometric_rungs(table.b_max, eta)
    return _run_brackets(table, settings, "sh", [(eta ** (len(rungs) - 1), rungs)], eta)


def run_hyperband(
    table: BenchmarkTable, settings: RunSettings, eta: int = DEFAULT_ETA
) -> RunContext:
    """Cycle through the Hyperband bracket plan until the budget is spent."""
    return _run_brackets(table, settings, "hb", hyperband_brackets(table.b_max, eta), eta)


def run_asha(table: BenchmarkTable, settings: RunSettings, eta: int = DEFAULT_ETA) -> RunContext:
    """Single-worker simulation of asynchronous successive halving.

    Each tick runs one job: the best not-yet-promoted configuration in the
    top 1/eta of the highest rung that has one, else a fresh configuration
    at the bottom rung.  Ties break toward the lowest config id.
    """
    ctx = RunContext(table, settings, method="asha")
    rng = np.random.default_rng([settings.seed, 1])
    seed_initial_design(ctx)
    rungs = geometric_rungs(table.b_max, eta)
    completions: list[list[tuple[float, int]]] = [[] for _ in rungs]
    promoted: list[set[int]] = [set() for _ in rungs]
    unsampled = list(table.config_ids)

    def run_job(cid: int, level: int) -> bool:
        budget = rungs[level]
        if not ctx.can_afford(cid, budget):
            return False
        loss = ctx.observe(cid, budget)
        completions[level].append((loss, cid))
        return True

    while ctx.remaining > 0:
        job = None
        for level in range(len(rungs) - 2, -1, -1):
            done = completions[level]
            k = len(done) // eta
            if k == 0:
                continue
            top = sorted(done)[:k]
            ready = [cid for _, cid in top if cid not in promoted[level]]
            if ready:
                job = (ready[0], level + 1)
                break
        if job is not None:
            cid, level = job
            promoted[level - 1].add(cid)
            if not run_job(cid, level):
                break
        elif unsampled:
            pick = int(rng.integers(0, len(unsampled)))
            cid = unsampled.pop(pick)
            if not run_job(cid, 0):
                break
        else:
            break
    return ctx


BASELINE_RUNNERS = {
    "rs": run_random_search,
    "sh": run_successive_halving,
    "hb": run_hyperband,
    "asha": run_asha,
}

"""Observation history shared by the HPO loop and the baselines."""

from __future__ import annotations

import math
from dataclasses import dataclass

from .benchmarks import count


@dataclass(frozen=True)
class Observation:
    """One evaluated (configuration, budget) pair and its loss."""

    config_id: int
    budget: int
    loss: float


class History:
    """Append-only log of observations, the one record of a run's state.

    Per configuration, budgets must arrive strictly increasing, which also
    rules out duplicate (config, budget) pairs.  Each record's cost is the
    steps beyond its config's previous budget: ``costs`` lists them,
    ``steps`` is their sum and ``best_loss`` the lowest loss (inf while
    empty).  A rejected append changes none of them.
    """

    def __init__(self):
        self._records: list[Observation] = []
        self._max_budget: dict[int, int] = {}
        self.costs: list[int] = []
        self.steps = 0
        self.best_loss = math.inf

    def append(self, obs: Observation) -> None:
        count(obs.budget, "budget", floor=1)
        if not math.isfinite(obs.loss):
            raise ValueError(f"loss must be finite, got {obs.loss}")
        prev = self._max_budget.get(obs.config_id, 0)
        if obs.budget <= prev:
            raise ValueError(
                f"config {obs.config_id}: budget {obs.budget} not above previous {prev}"
            )
        self._records.append(obs)
        self._max_budget[obs.config_id] = obs.budget
        self.costs.append(obs.budget - prev)
        self.steps += obs.budget - prev
        self.best_loss = min(self.best_loss, obs.loss)

    def max_budget_for(self, config_id: int) -> int:
        """Highest evaluated budget for a config, 0 if unseen."""
        return self._max_budget.get(config_id, 0)

    def __len__(self) -> int:
        return len(self._records)

    def __iter__(self):
        return iter(self._records)

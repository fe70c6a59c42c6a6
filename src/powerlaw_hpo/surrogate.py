"""Probabilistic power-law surrogate: an ensemble of small networks whose
heads emit power-law coefficients, plus the fit/refine/restart schedule.

Budgets entering this module are already normalized to (0, 1]; a DPL member's
body sees only the (scaled) hyperparameter vector, its head the budget.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields

import numpy as np

from .benchmarks import count
from .neural_core import (
    AdamState,
    DenseNetwork,
    adam_step,
    backward,
    forward,
    init_weights,
    l1_loss,
    sigmoid,
)

HIDDEN_WIDTH = 128
N_HIDDEN_LAYERS = 2
DEFAULT_ENSEMBLE_SIZE = 5


@dataclass(frozen=True)
class TrainerSchedule:
    """Epoch counts, batch size and the restart threshold.

    The restart threshold is measured in HPO iterations: a restart fires
    once the surrogate fitting loss has not improved for more than
    ceil(1.2 * learning-curve length) iterations.  The schedule holds no
    run state, so one schedule may be shared between runs.  Every field is
    an ``int`` (not a bool) and none is negative; ``batch_size`` is >= 1.
    """

    initial_epochs: int = 250
    refine_epochs: int = 20
    initial_phase_iterations: int = 10
    restart_threshold_iterations: int = 60
    batch_size: int = 64

    def __post_init__(self):
        for f in fields(self):
            count(getattr(self, f.name), f.name, floor=1 if f.name == "batch_size" else 0)

    @classmethod
    def for_curve_length(cls, lc_length: int, **kwargs) -> "TrainerSchedule":
        threshold = max(1, math.ceil(1.2 * lc_length))
        return cls(restart_threshold_iterations=threshold, **kwargs)


@dataclass
class Stagnation:
    """Fit-loss stagnation counter of one run; a restart starts a new one."""

    threshold: int
    iterations_since_improvement: int = 0
    best_fit_loss: float = math.inf


def should_restart(stagnation: Stagnation, current_fit_loss: float) -> bool:
    """Tick the stagnation counter with this iteration's fit loss.

    Improvement (loss below best by more than 1e-9) resets the counter; a
    non-finite loss requests a restart immediately.
    """
    if not math.isfinite(current_fit_loss):
        return True
    if current_fit_loss < stagnation.best_fit_loss - 1e-9:
        stagnation.best_fit_loss = current_fit_loss
        stagnation.iterations_since_improvement = 0
    else:
        stagnation.iterations_since_improvement += 1
    return stagnation.iterations_since_improvement > stagnation.threshold


def _rows_and_budgets(configs, b_norm) -> tuple[np.ndarray, np.ndarray]:
    """``configs`` as float rows, and ``b_norm`` broadcast to one budget per
    row; a budget outside (0, 1], NaN included, raises ValueError."""
    configs = np.atleast_2d(np.asarray(configs, dtype=float))
    b = np.broadcast_to(np.asarray(b_norm, dtype=float), (configs.shape[0],))
    if not np.all((b > 0) & (b <= 1)):
        raise ValueError("normalized budgets must lie in (0, 1]")
    return configs, b


@dataclass(frozen=True)
class TrainingData:
    """Observed (config vector, normalized budget, loss) triples."""

    configs: np.ndarray   # (n, hp_dim), min-max scaled
    budgets: np.ndarray   # (n,), in (0, 1]
    losses: np.ndarray    # (n,)

    def __post_init__(self):
        object.__setattr__(self, "configs", np.asarray(self.configs, dtype=float))
        object.__setattr__(self, "budgets", np.asarray(self.budgets, dtype=float))
        object.__setattr__(self, "losses", np.asarray(self.losses, dtype=float))
        n = self.configs.shape[0]
        if self.budgets.shape != (n,) or self.losses.shape != (n,):
            raise ValueError("configs/budgets/losses row counts differ")
        _rows_and_budgets(self.configs, self.budgets)

    def __len__(self) -> int:
        return self.configs.shape[0]


def _power_law_head(raw: np.ndarray, b_norm: np.ndarray):
    """Map raw 5-unit output to alpha + beta * b^(-gamma).

    beta and gamma are pair-gated GLUs (value unit times the sigmoid of its
    gate unit); alpha is left unconstrained.
    """
    sig_b = sigmoid(raw[:, 2])
    sig_g = sigmoid(raw[:, 4])
    beta = raw[:, 1] * sig_b
    gamma = raw[:, 3] * sig_g
    lnb = np.log(b_norm)
    power = np.exp(-gamma * lnb)
    pred = raw[:, 0] + beta * power
    cache = (raw, sig_b, sig_g, beta, power, lnb)
    return pred, cache


def _power_law_head_backward(cache, d_pred: np.ndarray) -> np.ndarray:
    raw, sig_b, sig_g, beta, power, lnb = cache
    d_raw = np.empty_like(raw)
    d_beta = d_pred * power
    d_gamma = d_pred * beta * (-lnb) * power
    d_raw[:, 0] = d_pred
    d_raw[:, 1] = d_beta * sig_b
    d_raw[:, 2] = d_beta * raw[:, 1] * sig_b * (1.0 - sig_b)
    d_raw[:, 3] = d_gamma * sig_g
    d_raw[:, 4] = d_gamma * raw[:, 3] * sig_g * (1.0 - sig_g)
    return d_raw


def _linear_head(raw: np.ndarray, b_norm: np.ndarray):
    """The single raw unit is the prediction; the budget entered as an input."""
    return raw[:, 0], None


def _linear_head_backward(cache, d_pred: np.ndarray) -> np.ndarray:
    return d_pred[:, None]


class DplNetwork:
    """One ensemble member: dense body conditioned on the configuration,
    with a power-law head combining the raw outputs with the budget.  A
    member type sets only its head, its widths and its input builder."""

    HEAD_WIDTH = 5  # alpha, (beta, beta-gate), (gamma, gamma-gate)
    BUDGET_INPUTS = 0
    _head = staticmethod(_power_law_head)
    _head_backward = staticmethod(_power_law_head_backward)

    def _inputs(self, configs: np.ndarray, b: np.ndarray) -> np.ndarray:
        return configs

    def __init__(self, hp_dim: int, seed, hidden_width: int = HIDDEN_WIDTH):
        dims = ((int(hp_dim) + self.BUDGET_INPUTS,) + (hidden_width,) * N_HIDDEN_LAYERS
                + (self.HEAD_WIDTH,))
        self.body = DenseNetwork.create(dims, seed)
        # optimizing the whole network as one flat vector keeps updates cheap
        self.adam = AdamState.for_params(self.body.flat_params)
        self._grad = DenseNetwork.zeros(self.body.layer_dims)

    def reinitialize(self, seed) -> None:
        init_weights(self.body, seed)
        self.adam = AdamState.for_params(self.body.flat_params)

    def predict(self, configs: np.ndarray, b_norm) -> np.ndarray:
        configs, b = _rows_and_budgets(configs, b_norm)
        raw, _ = forward(self.body, self._inputs(configs, b))
        with np.errstate(over="ignore", invalid="ignore"):
            pred, _ = self._head(raw, b)
        return pred

    def train_batch(self, data: TrainingData, idx: np.ndarray) -> float:
        """One Adam step on the L1 loss over a batch; returns the batch loss."""
        b = data.budgets[idx]
        y = data.losses[idx]
        raw, cache = forward(self.body, self._inputs(data.configs[idx], b))
        with np.errstate(over="ignore", invalid="ignore"):
            pred, head_cache = self._head(raw, b)
            loss, d_pred = l1_loss(pred, y)
            if not math.isfinite(loss):
                return loss
            d_raw = self._head_backward(head_cache, d_pred)
        backward(self.body, cache, d_raw, out=self._grad)
        adam_step(self.body.flat_params, self._grad.flat_params, self.adam)
        return loss

    def full_loss(self, data: TrainingData) -> float:
        pred = self.predict(data.configs, data.budgets)
        with np.errstate(invalid="ignore"):
            return l1_loss(pred, data.losses)[0]


class ConditionedNetwork(DplNetwork):
    """Ablation variant: plain regression on (config, budget) with a linear
    output and no power-law structure.  Trained with the same schedule."""

    HEAD_WIDTH = 1
    BUDGET_INPUTS = 1
    _head = staticmethod(_linear_head)
    _head_backward = staticmethod(_linear_head_backward)

    def _inputs(self, configs: np.ndarray, b: np.ndarray) -> np.ndarray:
        return np.column_stack([configs, b])

    # the benchmark's tracer hooks these in each member class's own __dict__
    train_batch, full_loss = DplNetwork.train_batch, DplNetwork.full_loss


def member_init_seed(ensemble_seed: int, member_index: int, init_round: int) -> list[int]:
    """Seed material for (re)initializing one member's weights."""
    return [int(ensemble_seed), 1, int(member_index), int(init_round)]


def _batch_rng_seed(ensemble_seed: int, member_index: int, fit_round: int) -> list[int]:
    return [int(ensemble_seed), 2, int(member_index), int(fit_round)]


def train_member_epochs(
    member,
    data: TrainingData,
    epochs: int,
    batch_size: int,
    rng: np.random.Generator,
    oversample_index: int | None = None,
) -> float:
    """Mini-batch training loop shared by all member types.

    When ``oversample_index`` is given, that row is appended to every
    mini-batch so the newest observation is learned as fast as old ones.
    Returns the final full-data L1 loss (inf if training diverged).
    """
    n = len(data)
    if n == 0:
        raise ValueError("cannot train on an empty dataset")
    bs = min(batch_size, n)
    for _ in range(epochs):
        perm = rng.permutation(n)
        for start in range(0, n, bs):
            idx = perm[start : start + bs]
            if oversample_index is not None:
                idx = np.append(idx, oversample_index)
            loss = member.train_batch(data, idx)
            if not math.isfinite(loss):
                return math.inf
    final = member.full_loss(data)
    return final if math.isfinite(final) else math.inf


class DplEnsemble:
    """K independently initialized surrogate members plus trainer state.

    All randomness is derived from the ensemble seed, a per-member index
    and monotone round counters, so fits, refinements and restarts are
    reproducible.  The four shape arguments must be ``int`` (not bool,
    float or a numpy integer); ``seed`` is >= 0 and the others are >= 1.
    """

    def __init__(
        self,
        hp_dim: int,
        seed: int,
        n_members: int = DEFAULT_ENSEMBLE_SIZE,
        hidden_width: int = HIDDEN_WIDTH,
    ):
        count(hp_dim, "hp_dim", floor=1)
        self.seed = count(seed, "seed")
        count(n_members, "n_members", floor=1)
        count(hidden_width, "hidden_width", floor=1)
        self.init_round = 0
        self.fit_round = 0
        self.members = [
            DplNetwork(hp_dim, member_init_seed(seed, k, 0), hidden_width)
            for k in range(n_members)
        ]

    def fit_initial(self, data: TrainingData, schedule: TrainerSchedule) -> float:
        """Re-initialize every member and train for the initial epoch count.

        Each member draws fresh weights from its own seed and sees its own
        shuffled mini-batch sequence.  Returns the member-averaged final L1
        loss (inf signals a restart, never an exception).
        """
        self.init_round += 1
        for k, member in enumerate(self.members):
            member.reinitialize(member_init_seed(self.seed, k, self.init_round))
        return self._train_members(data, schedule.initial_epochs, schedule.batch_size)

    def refine(self, data: TrainingData, schedule: TrainerSchedule) -> float:
        """Continue training every member, oversampling the newest (last) row."""
        if self.init_round == 0:
            raise RuntimeError("refine called before fit_initial")
        return self._train_members(
            data, schedule.refine_epochs, schedule.batch_size, oversample_index=len(data) - 1
        )

    def _train_members(
        self, data: TrainingData, epochs: int, batch_size: int, oversample_index: int | None = None
    ) -> float:
        """The one member loop: every member trains on its own batch stream,
        and nothing crosses between members until the mean of their losses."""
        losses = []
        for k, member in enumerate(self.members):
            rng = np.random.default_rng(_batch_rng_seed(self.seed, k, self.fit_round))
            losses.append(
                train_member_epochs(member, data, epochs, batch_size, rng, oversample_index)
            )
        self.fit_round += 1
        return float(np.mean(losses))

    def restart(self, data: TrainingData, schedule: TrainerSchedule) -> float:
        """Replay the initial fit with fresh weights after stagnation."""
        return self.fit_initial(data, schedule)

    def posterior_batch(self, configs, b_norm) -> tuple[np.ndarray, np.ndarray]:
        """Ensemble mean and population variance (divisor K) per config row.

        Computed relative to the first member's prediction so identical
        members yield exactly zero variance.
        """
        configs = np.atleast_2d(np.asarray(configs, dtype=float))
        preds = np.stack([m.predict(configs, b_norm) for m in self.members])
        dev = preds - preds[0]
        dev_mean = dev.mean(axis=0)
        mean = preds[0] + dev_mean
        var = np.maximum(np.mean(dev * dev, axis=0) - dev_mean**2, 0.0)
        return mean, var

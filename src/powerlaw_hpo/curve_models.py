"""Parametric learning-curve models and per-curve fitting.

All models consume budgets normalized to (0, 1] (step / max_budget), so
the decay term stays well scaled and curves of different lengths are
comparable.  Curves are loss-oriented: lower is better.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field

import numpy as np

from .neural_core import ADAM_BETA1, ADAM_BETA2, ADAM_EPSILON


class CurveDomainError(ValueError):
    """Raised when a formulation is evaluated outside its valid domain."""


class Formulation(enum.Enum):
    """Learning-curve shapes; fit_single_curve fits POWER_LAW only, the rest are evaluated."""

    POWER_LAW = "power-law"                  # alpha + beta * b^(-gamma)
    SHIFTED_POWER_LAW = "shifted"            # alpha - beta * (b + d)^(-gamma)
    SCALED_POWER_LAW = "scaled"              # alpha - beta * (e*b + d)^(-gamma)
    BROKEN_POWER_LAW = "broken"              # power law with one breaking point


@dataclass(frozen=True)
class PowerLawCoefficients:
    """(alpha, beta, gamma): asymptote, scale, decay exponent."""

    alpha: float
    beta: float
    gamma: float


@dataclass(frozen=True)
class ExtendedCoefficients:
    """Power-law coefficients plus shift d, budget scale e, break strength c
    and break sharpness f used by the richer formulations."""

    alpha: float
    beta: float
    gamma: float
    d: float = 0.0
    e: float = 1.0
    c: float = 0.0
    f: float = 1.0


@dataclass(frozen=True)
class LearningCurve:
    """Loss per budget step; step index starts at 1 and runs to max_budget."""

    values: tuple[float, ...]
    max_budget: int

    def __post_init__(self):
        object.__setattr__(self, "values", tuple(float(v) for v in self.values))
        if len(self.values) != self.max_budget:
            raise ValueError(
                f"curve length {len(self.values)} != max_budget {self.max_budget}"
            )
        if not all(math.isfinite(v) for v in self.values):
            raise ValueError("curve contains non-finite values")

    @classmethod
    def from_values(cls, values) -> "LearningCurve":
        values = tuple(float(v) for v in values)
        return cls(values=values, max_budget=len(values))


def eval_power_law(c: PowerLawCoefficients, b: float) -> float:
    """alpha + beta * b^(-gamma) for a normalized budget b in (0, 1]."""
    if b <= 0:
        raise CurveDomainError(f"budget must be positive, got {b}")
    return c.alpha + c.beta * b ** (-c.gamma)


def eval_shifted_power_law(c: ExtendedCoefficients, b: float) -> float:
    """alpha - beta * (b + d)^(-gamma); the shift d must keep the base positive."""
    base = b + c.d
    if base <= 0:
        raise CurveDomainError(f"b + d = {base} must be positive")
    return c.alpha - c.beta * base ** (-c.gamma)


def eval_scaled_power_law(c: ExtendedCoefficients, b: float) -> float:
    """alpha - beta * (e*b + d)^(-gamma); with e=1 this is the shifted form."""
    base = c.e * b + c.d
    if base <= 0:
        raise CurveDomainError(f"e*b + d = {base} must be positive")
    return c.alpha - c.beta * base ** (-c.gamma)


# Break-factor bases below this are treated as degenerate rather than
# exponentiated into overflow.
_BREAK_BASE_FLOOR = 1e-12


def eval_broken_power_law(c: ExtendedCoefficients, b: float) -> float:
    """alpha + beta * b^(-gamma) * (1 + (b/d)^(1/f))^(-c*f).

    Requires b > 0, d != 0, f != 0 and b/d > 0 so the inner root is real.
    """
    if b <= 0:
        raise CurveDomainError(f"budget must be positive, got {b}")
    if c.d == 0 or c.f == 0:
        raise CurveDomainError("break shift d and sharpness f must be nonzero")
    ratio = b / c.d
    if ratio <= 0:
        raise CurveDomainError(f"b/d = {ratio} must be positive")
    base = 1.0 + ratio ** (1.0 / c.f)
    base = max(base, _BREAK_BASE_FLOOR)
    return c.alpha + c.beta * b ** (-c.gamma) * base ** (-c.c * c.f)


def min_smooth(curve: LearningCurve) -> LearningCurve:
    """Prefix minimum of a curve: output[i] = min(values[0..i])."""
    if len(curve.values) == 0:
        raise ValueError("cannot smooth an empty curve")
    smoothed = np.minimum.accumulate(np.asarray(curve.values, dtype=float))
    return LearningCurve(values=tuple(smoothed.tolist()), max_budget=curve.max_budget)


@dataclass(frozen=True)
class FitConfig:
    """Adam settings for per-curve fits.

    Each restart starts from a data-driven guess (asymptote from the curve
    extremes, decay rate from a two-point ratio), jittered after the first
    attempt, and runs Adam with a cosine-decayed learning rate; the best
    coefficients by training MAE win.  Deterministic for a given seed.
    """

    lr: float = 0.05
    max_epochs: int = 2000
    restarts: int = 3
    seed: int | tuple[int, ...] = 0

    def __post_init__(self):
        for name in ("max_epochs", "restarts"):
            value = getattr(self, name)
            if value < 1:
                raise ValueError(f"{name} must be >= 1, got {value}")


@dataclass(frozen=True)
class FitResult:
    coefficients: PowerLawCoefficients
    train_mae: float
    diverged: bool


# Fits run in the internal parameter space (alpha, u = log beta, gamma):
# a log-space beta conditions Adam across decades and keeps beta positive.
def _initial_guess(
    y: np.ndarray, b: np.ndarray, rng: np.random.Generator, jitter: bool
) -> np.ndarray:
    span = max(float(y.max() - y.min()), 1e-12)
    frac = rng.uniform(0.0, 0.5) if jitter else 0.05
    alpha = float(y.min()) - frac * span
    d1 = max(float(y[0]) - alpha, 1e-9)
    dm = max(float(y[-1]) - alpha, 1e-9)
    denom = math.log(b[-1] / b[0]) if b[-1] > b[0] else 1.0
    gamma = float(np.clip(math.log(d1 / dm) / denom, 0.01, 10.0))
    if jitter:
        gamma *= rng.uniform(0.6, 1.6)
    u = math.log(d1) + gamma * math.log(b[0])
    return np.array([alpha, u, gamma])


def _internal_values_jac(
    alpha: float, u: float, gamma: float, *,
    lnb: np.ndarray, neg_lnb: np.ndarray, jac: np.ndarray,
) -> tuple[np.ndarray, np.ndarray]:
    """Model values and jacobian in the internal fit space.

    The caller passes the per-fit invariants ``lnb = log(b)`` and
    ``neg_lnb = -lnb`` and an ``(n, 3)`` ``jac`` buffer whose column 0
    already holds 1.0; the returned jacobian is that buffer, overwritten
    by the next call.
    """
    power = jac[:, 1]
    np.multiply(lnb, gamma, out=power)
    np.subtract(u, power, out=power)
    np.exp(power, out=power)
    vals = power + alpha
    np.multiply(neg_lnb, power, out=jac[:, 2])
    return vals, jac


@dataclass(slots=True)
class _CoefficientAdam:
    """Adam moments of the fit's three coefficients, as Python floats."""

    lr: float
    first_moment: list[float] = field(default_factory=lambda: [0.0, 0.0, 0.0])
    second_moment: list[float] = field(default_factory=lambda: [0.0, 0.0, 0.0])
    step_count: int = 0


def adam_step(params: list[float], grad: list[float], state: _CoefficientAdam) -> None:
    """``neural_core.adam_step`` on three Python floats, applied in place.

    The same operations on the same operands in the same order, so every
    value is bit-identical to the vector update, without numpy's per-call
    overhead on a length-3 array.
    """
    state.step_count += 1
    t = state.step_count
    bc1 = 1.0 - ADAM_BETA1**t
    bc2 = 1.0 - ADAM_BETA2**t
    scale = state.lr / bc1
    m, v = state.first_moment, state.second_moment
    for i in range(3):
        g = grad[i]
        m[i] = mi = m[i] * ADAM_BETA1 + g * (1.0 - ADAM_BETA1)
        v[i] = vi = v[i] * ADAM_BETA2 + g * g * (1.0 - ADAM_BETA2)
        params[i] -= mi / (math.sqrt(vi / bc2) + ADAM_EPSILON) * scale


def predict(formulation: Formulation, coefficients, b: float) -> float:
    """Evaluate any formulation at a normalized budget."""
    if formulation is Formulation.POWER_LAW:
        return eval_power_law(coefficients, b)
    if formulation is Formulation.SHIFTED_POWER_LAW:
        return eval_shifted_power_law(coefficients, b)
    if formulation is Formulation.SCALED_POWER_LAW:
        return eval_scaled_power_law(coefficients, b)
    return eval_broken_power_law(coefficients, b)


def fit_single_curve(
    observed_values, max_budget: int, fit_config: FitConfig | None = None
) -> FitResult:
    """Fit the power law to an observed curve prefix by Adam on the MAE.

    ``observed_values`` are the losses at steps 1..len(observed_values) of a
    curve whose full length is ``max_budget``; budgets are normalized to
    (0, 1] before fitting.  The power law models curves decaying toward
    the asymptote (min-smooth diverging curves first).

    A non-finite training loss aborts the offending restart; the best
    coefficients across restarts are returned, with ``diverged=True`` when
    any restart aborted that way.
    """
    y = np.asarray(observed_values, dtype=float)
    if y.ndim != 1 or y.size < 2:
        raise ValueError("need at least two observed points to fit")
    if max_budget < y.size:
        raise ValueError(f"max_budget {max_budget} shorter than observations {y.size}")
    cfg = fit_config or FitConfig()
    b = np.arange(1, y.size + 1, dtype=float) / float(max_budget)
    seed_base = cfg.seed if isinstance(cfg.seed, tuple) else (cfg.seed,)
    best_params: tuple[float, float, float] | None = None
    best_loss = math.inf
    diverged = False
    # per-fit invariants, hoisted out of the restarts x epochs Adam loop
    n = y.size
    lnb = np.log(b)
    neg_lnb = -lnb
    jac = np.empty((n, 3))
    jac[:, 0] = 1.0
    buf = np.empty(n)  # |resid|, then the loss gradient sign(resid) / n
    lrs = [
        cfg.lr * 0.5 * (1.0 + math.cos(math.pi * epoch / cfg.max_epochs))
        for epoch in range(cfg.max_epochs)
    ]
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        for attempt in range(cfg.restarts):
            rng = np.random.default_rng(seed_base + (attempt,))
            params = _initial_guess(y, b, rng, jitter=attempt > 0)
            # extreme observations can push a guess out of float range
            params = np.clip(np.nan_to_num(params), -1e3, 1e3).tolist()
            state = _CoefficientAdam(lr=cfg.lr)
            for lr in lrs:
                state.lr = lr
                resid, _ = _internal_values_jac(*params, lnb=lnb, neg_lnb=neg_lnb, jac=jac)
                resid -= y
                # np.mean's own sum-then-divide, without its wrapper
                loss = float(np.add.reduce(np.abs(resid, out=buf))) / n
                if not math.isfinite(loss):
                    diverged = True
                    break
                if loss < best_loss:
                    best_loss = loss
                    best_params = tuple(params)
                if loss < 1e-12:
                    break
                np.sign(resid, out=buf)
                buf /= n
                grad = (buf @ jac).tolist()
                if not all(map(math.isfinite, grad)):
                    diverged = True
                    break
                adam_step(params, grad, state)
            if best_loss < 1e-10:
                break
    if best_params is None:
        # no restart ever produced a finite loss; report the plain guess
        guess = _initial_guess(y, b, np.random.default_rng(seed_base + (0,)), jitter=False)
        best_params = tuple(np.clip(np.nan_to_num(guess), -1e3, 1e3).tolist())
        best_loss = float("nan")
        diverged = True
    alpha, u, gamma = best_params
    return FitResult(
        coefficients=PowerLawCoefficients(alpha=alpha, beta=math.exp(u), gamma=gamma),
        train_mae=best_loss,
        diverged=diverged,
    )

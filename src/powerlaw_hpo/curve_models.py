"""Parametric learning-curve models and per-curve fitting.

All models consume budgets normalized to (0, 1] (step / max_budget), so
the decay term stays well scaled and curves of different lengths are
comparable.  Curves are loss-oriented: lower is better.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .benchmarks import count, require
from .neural_core import ADAM_BETA1, ADAM_BETA2, ADAM_EPSILON


class CurveDomainError(ValueError):
    """Raised when a formulation is evaluated outside its valid domain."""


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
    ``lr`` must be a finite number > 0, ``max_epochs`` and ``restarts``
    ``int``s >= 1, and ``seed`` an ``int`` >= 0 or a tuple of them (a bool,
    a float or a numpy integer fails); BenchmarkFormatError names the field.
    """

    lr: float = 0.05
    max_epochs: int = 2000
    restarts: int = 3
    seed: int | tuple[int, ...] = 0

    def __post_init__(self):
        lr = self.lr
        require(not isinstance(lr, bool) and isinstance(lr, (int, float)) and 0.0 < lr < math.inf,
                "lr", f"must be finite and > 0, got {lr!r}")
        count(self.max_epochs, "max_epochs", floor=1)
        count(self.restarts, "restarts", floor=1)
        if isinstance(self.seed, tuple):
            for i, s in enumerate(self.seed):
                count(s, f"seed[{i}]")
        else:
            count(self.seed, "seed")


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
    alpha, u, gamma, *, lnb: np.ndarray, neg_lnb: np.ndarray, jac: np.ndarray,
) -> tuple[np.ndarray, np.ndarray]:
    """Model values and jacobian in the internal fit space.

    The caller passes the per-fit invariants ``lnb = log(b)`` and
    ``neg_lnb = -lnb`` and a ``jac`` buffer whose column 0 already holds
    1.0; the returned jacobian is that buffer, overwritten by the next
    call.  It is called in two layouts, with the same values row for row:

    - one restart: floats ``alpha``, ``u``, ``gamma``, length-n ``lnb``
      and an ``(n, 3)`` buffer;
    - R restarts flat, as the fit calls it: length ``R*n`` coefficient
      columns, ``lnb`` tiled R times and an ``(R*n, 3)`` buffer, whose row
      ``r*n + i`` is restart r at point i.  Every operand then has one
      shape, so each step is a single same-shape ufunc call.
    """
    power = jac[..., 1]
    np.multiply(lnb, gamma, out=power)
    np.subtract(u, power, out=power)
    np.exp(power, out=power)
    vals = power + alpha
    np.multiply(neg_lnb, power, out=jac[..., 2])
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
    g0, g1, g2 = grad
    # the loop over the three coefficients, unrolled
    m[0] = m0 = m[0] * ADAM_BETA1 + g0 * (1.0 - ADAM_BETA1)
    v[0] = v0 = v[0] * ADAM_BETA2 + g0 * g0 * (1.0 - ADAM_BETA2)
    params[0] -= m0 / (math.sqrt(v0 / bc2) + ADAM_EPSILON) * scale
    m[1] = m1 = m[1] * ADAM_BETA1 + g1 * (1.0 - ADAM_BETA1)
    v[1] = v1 = v[1] * ADAM_BETA2 + g1 * g1 * (1.0 - ADAM_BETA2)
    params[1] -= m1 / (math.sqrt(v1 / bc2) + ADAM_EPSILON) * scale
    m[2] = m2 = m[2] * ADAM_BETA1 + g2 * (1.0 - ADAM_BETA1)
    v[2] = v2 = v[2] * ADAM_BETA2 + g2 * g2 * (1.0 - ADAM_BETA2)
    params[2] -= m2 / (math.sqrt(v2 / bc2) + ADAM_EPSILON) * scale


@dataclass(slots=True)
class _Restart:
    """One restart of a fit: its coefficients, its Adam and its best point."""

    params: list[float]
    adam: _CoefficientAdam
    best_loss: float = math.inf
    best_params: tuple[float, float, float] | None = None
    diverged: bool = False


def _merge(restarts: list[_Restart]) -> tuple[float, tuple[float, float, float] | None, bool]:
    """Best (loss, params) over the restarts in order, and whether one diverged.

    A later restart wins only with a strictly lower loss, and the merge
    stops at the first restart that brings the best below 1e-10: the
    restarts after it are discarded, as a loop running them one after
    another would never have started them.
    """
    best_loss, best_params, diverged = math.inf, None, False
    for restart in restarts:
        if restart.best_loss < best_loss:
            best_loss, best_params = restart.best_loss, restart.best_params
        diverged |= restart.diverged
        if best_loss < 1e-10:
            break
    return best_loss, best_params, diverged


def fit_single_curve(
    observed_values, max_budget: int, fit_config: FitConfig | None = None
) -> FitResult:
    """Fit the power law to an observed curve prefix by Adam on the MAE.

    ``observed_values`` are the losses at steps 1..len(observed_values) of a
    curve whose full length is ``max_budget``, an ``int``; budgets are
    normalized to (0, 1] before fitting.  The power law models curves
    decaying toward the asymptote (min-smooth diverging curves first).

    The restarts run in lockstep.  Each epoch computes every restart's
    model values, loss and gradient in one set of numpy calls on flat
    ``restarts * n`` arrays, then steps each live restart's own Adam.
    A restart ends at a loss below 1e-12, or at a non-finite loss or
    gradient, which marks it diverged.  The result is bit-identical to
    running the restarts one after another: each restart keeps its first
    strictly lowest loss, and ``_merge`` combines them in order.  Once
    restarts 0..r have all ended with a merged best below 1e-10, the later
    restarts are discarded before their next step.  Steps they took while
    running ahead of restart r are thrown away; a sequential loop would
    never have taken them.

    The best coefficients across the merged restarts are returned, with
    ``diverged=True`` when any merged restart diverged.
    """
    y = np.asarray(observed_values, dtype=float)
    if y.ndim != 1 or y.size < 2:
        raise ValueError("need at least two observed points to fit")
    count(max_budget, "max_budget", floor=1)
    if max_budget < y.size:
        raise ValueError(f"max_budget {max_budget} shorter than observations {y.size}")
    cfg = fit_config or FitConfig()
    b = np.arange(1, y.size + 1, dtype=float) / float(max_budget)
    seed_base = cfg.seed if isinstance(cfg.seed, tuple) else (cfg.seed,)
    # per-fit invariants and buffers, hoisted out of the epoch loop, in one
    # flat layout: row r*n + i of each buffer is restart r at point i
    n, n_restarts = y.size, cfg.restarts
    lnb = np.tile(np.log(b), n_restarts)
    neg_lnb = -lnb
    y_rows = np.tile(y, n_restarts)
    q = np.empty((n_restarts, 3))
    qx = np.empty((n_restarts * n, 3))  # q's row r repeated n times
    qx_restarts = qx.reshape(n_restarts, n, 3)
    alphas, us, gammas = qx[:, 0], qx[:, 1], qx[:, 2]
    jac = np.empty((n_restarts * n, 3))
    jac[:, 0] = 1.0
    buf = np.empty(n_restarts * n)  # |resid|, then the loss gradient sign(resid) / n
    buf_restarts = buf.reshape(n_restarts, n)
    # restart r's gradient is the (1, n) @ (n, 3) product of its rows of
    # buf and jac; an (R, 3, n) jacobian would pick another BLAS kernel
    grad_lhs = buf.reshape(n_restarts, 1, n)
    jac_restarts = jac.reshape(n_restarts, n, 3)
    grad_out = np.empty((n_restarts, 1, 3))
    grad_rows = grad_out[:, 0]
    lrs = [
        cfg.lr * 0.5 * (1.0 + math.cos(math.pi * epoch / cfg.max_epochs))
        for epoch in range(cfg.max_epochs)
    ]
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        restarts = []
        for attempt in range(n_restarts):
            rng = np.random.default_rng(seed_base + (attempt,))
            guess = _initial_guess(y, b, rng, jitter=attempt > 0)
            # extreme observations can push a guess out of float range
            params = np.clip(np.nan_to_num(guess), -1e3, 1e3).tolist()
            restarts.append(_Restart(params, _CoefficientAdam(lr=cfg.lr)))
        live = list(range(n_restarts))  # the restarts still stepping, in order
        # adam_step updates each list in place; ended restarts keep their
        # rows, whose values go unused
        rows = [restart.params for restart in restarts]
        for lr in lrs:
            q[...] = rows
            qx_restarts[...] = q[:, None, :]
            resid, _ = _internal_values_jac(alphas, us, gammas, lnb=lnb, neg_lnb=neg_lnb, jac=jac)
            resid -= y_rows
            np.abs(resid, out=buf)
            # np.mean's own sum-then-divide, without its wrapper, row by row
            sums = np.add.reduce(buf_restarts, axis=1).tolist()
            np.sign(resid, out=buf)
            buf /= n
            np.matmul(grad_lhs, jac_restarts, out=grad_out)
            grads = grad_rows.tolist()
            stepping = []
            for r in live:
                restart = restarts[r]
                loss = sums[r] / n
                if not math.isfinite(loss):
                    restart.diverged = True
                    continue
                if loss < restart.best_loss:
                    restart.best_loss = loss
                    restart.best_params = tuple(restart.params)
                if loss < 1e-12:
                    continue
                g0, g1, g2 = grads[r]
                if not (math.isfinite(g0) and math.isfinite(g1) and math.isfinite(g2)):
                    restart.diverged = True
                    continue
                stepping.append(r)
            live = stepping
            ended = live[0] if live else n_restarts  # restarts 0..ended-1 have ended
            if not live or (ended and _merge(restarts[:ended])[0] < 1e-10):
                break
            for r in live:
                restart = restarts[r]
                restart.adam.lr = lr
                adam_step(restart.params, grads[r], restart.adam)
    best_loss, best_params, diverged = _merge(restarts)
    if best_params is None:
        # no restart ever produced a finite loss: restart 0 diverged at its
        # first epoch (which _merge reports), so it still holds the plain guess
        best_params = tuple(restarts[0].params)
        best_loss = float("nan")
    alpha, u, gamma = best_params
    return FitResult(
        coefficients=PowerLawCoefficients(alpha=alpha, beta=math.exp(u), gamma=gamma),
        train_mae=best_loss,
        diverged=diverged,
    )

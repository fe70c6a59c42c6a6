"""Parametric learning-curve models and per-curve fitting.

All models consume budgets normalized to (0, 1] (step / max_budget), so
the decay term stays well scaled and curves of different lengths are
comparable.  Curves are loss-oriented: lower is better.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np

from .neural_core import AdamState, adam_step


class CurveDomainError(ValueError):
    """Raised when a formulation is evaluated outside its valid domain."""


class Formulation(enum.Enum):
    """Supported learning-curve shapes."""

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


@dataclass(frozen=True)
class FitResult:
    coefficients: PowerLawCoefficients | ExtendedCoefficients
    train_mae: float
    diverged: bool


# Fits run in an internal parameter space chosen for optimizer
# conditioning: scale-like parameters (beta for the decaying forms, the
# break shift d and sharpness f) live in log space, which also keeps them
# inside the formulation's domain.  The shifted/scaled forms keep a linear
# (sign-free) beta since their base never spans decades.
_N_INTERNAL_PARAMS = {
    Formulation.POWER_LAW: 3,          # alpha, log beta, gamma
    Formulation.SHIFTED_POWER_LAW: 4,  # alpha, beta, gamma, d
    Formulation.SCALED_POWER_LAW: 5,   # alpha, beta, gamma, d, e
    Formulation.BROKEN_POWER_LAW: 6,   # alpha, log beta, gamma, c, log d, log f
}


def _initial_guess(
    formulation: Formulation,
    y: np.ndarray,
    b: np.ndarray,
    rng: np.random.Generator,
    jitter: bool,
) -> np.ndarray:
    span = max(float(y.max() - y.min()), 1e-12)
    frac = rng.uniform(0.0, 0.5) if jitter else 0.05
    if formulation in (Formulation.POWER_LAW, Formulation.BROKEN_POWER_LAW):
        alpha = float(y.min()) - frac * span
        d1 = max(float(y[0]) - alpha, 1e-9)
        dm = max(float(y[-1]) - alpha, 1e-9)
        denom = math.log(b[-1] / b[0]) if b[-1] > b[0] else 1.0
        gamma = float(np.clip(math.log(d1 / dm) / denom, 0.01, 10.0))
        if jitter:
            gamma *= rng.uniform(0.6, 1.6)
        u = math.log(d1) + gamma * math.log(b[0])
        if formulation is Formulation.POWER_LAW:
            return np.array([alpha, u, gamma])
        c = rng.uniform(0.0, 0.5) if jitter else 0.0
        log_d = math.log(float(np.median(b))) + (rng.normal(0.0, 0.5) if jitter else 0.0)
        log_f = rng.normal(0.0, 0.5) if jitter else 0.0
        return np.array([alpha, u, gamma, c, log_d, log_f])
    # shifted / scaled: saturating toward alpha from below
    alpha = float(y.max()) + frac * span
    d = rng.uniform(0.01, 1.0) if jitter else 0.1
    r1 = max(alpha - float(y[0]), 1e-9)
    rm = max(alpha - float(y[-1]), 1e-9)
    denom = math.log((b[-1] + d) / (b[0] + d))
    gamma = float(np.clip(math.log(r1 / rm) / denom, 0.01, 10.0)) if denom > 0 else 1.0
    if jitter:
        gamma *= rng.uniform(0.6, 1.6)
    beta = r1 * (b[0] + d) ** gamma
    if formulation is Formulation.SHIFTED_POWER_LAW:
        return np.array([alpha, beta, gamma, d])
    e = rng.uniform(0.5, 1.5) if jitter else 1.0
    return np.array([alpha, beta, gamma, d, e])


def _internal_values_jac(
    formulation: Formulation,
    q: np.ndarray,
    b: np.ndarray,
    *,
    lnb: np.ndarray | None = None,
    neg_lnb: np.ndarray | None = None,
    jac: np.ndarray | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Model values and jacobian in the internal fit space.

    Invalid bases for the shifted/scaled forms are clamped (with zero
    gradient) instead of raising, so Adam can wander through bad regions
    and recover.

    A fit loop passes the per-fit invariants ``lnb = log(b)`` and
    ``neg_lnb = -lnb`` and an ``(n, n_params)`` ``jac`` buffer whose
    column 0 already holds 1.0; the returned jacobian is then that buffer,
    overwritten by the next call.  Without ``jac`` a fresh one is returned.
    """
    if jac is None:
        jac = np.empty((b.shape[0], q.shape[0]))
        jac[:, 0] = 1.0
    if formulation is Formulation.POWER_LAW:
        if lnb is None:
            lnb = np.log(b)
        if neg_lnb is None:
            neg_lnb = -lnb
        alpha, u, gamma = q.tolist()
        power = jac[:, 1]
        np.multiply(lnb, gamma, out=power)
        np.subtract(u, power, out=power)
        np.exp(power, out=power)
        vals = power + alpha
        np.multiply(neg_lnb, power, out=jac[:, 2])
        return vals, jac
    if formulation in (Formulation.SHIFTED_POWER_LAW, Formulation.SCALED_POWER_LAW):
        if formulation is Formulation.SHIFTED_POWER_LAW:
            alpha, beta, gamma, d = q
            e = 1.0
        else:
            alpha, beta, gamma, d, e = q
        raw_base = e * b + d
        valid = raw_base > _BREAK_BASE_FLOOR
        base = np.maximum(raw_base, _BREAK_BASE_FLOOR)
        lnbase = np.log(base)
        power = np.exp(-gamma * lnbase)
        vals = alpha - beta * power
        dpower_dbase = -gamma * power / base * valid
        jac[:, 1] = -power
        jac[:, 2] = beta * lnbase * power
        jac[:, 3] = -beta * dpower_dbase
        if formulation is Formulation.SCALED_POWER_LAW:
            jac[:, 4] = -beta * dpower_dbase * b
        return vals, jac
    if lnb is None:
        lnb = np.log(b)
    alpha, u, gamma, c, log_d, log_f = q
    f = math.exp(log_f)
    power = np.exp(u - gamma * lnb)
    t = np.exp((lnb - log_d) / f)  # (b/d)^(1/f)
    base = 1.0 + t
    lnbase = np.log(base)
    qfac = np.exp(-c * f * lnbase)
    vals = alpha + power * qfac
    pq = power * qfac
    jac[:, 1] = pq
    jac[:, 2] = -lnb * pq
    jac[:, 3] = pq * (-f * lnbase)
    jac[:, 4] = pq * c * t / base            # via d(t)/d(log_d) = -t/f, times -c*f/base
    jac[:, 5] = pq * c * (t * (lnb - log_d) / base - f * lnbase)
    return vals, jac


def _external_coefficients(formulation: Formulation, q: np.ndarray):
    p = [float(x) for x in q]
    if formulation is Formulation.POWER_LAW:
        return PowerLawCoefficients(alpha=p[0], beta=math.exp(p[1]), gamma=p[2])
    if formulation is Formulation.SHIFTED_POWER_LAW:
        return ExtendedCoefficients(alpha=p[0], beta=p[1], gamma=p[2], d=p[3])
    if formulation is Formulation.SCALED_POWER_LAW:
        return ExtendedCoefficients(alpha=p[0], beta=p[1], gamma=p[2], d=p[3], e=p[4])
    return ExtendedCoefficients(
        alpha=p[0], beta=math.exp(p[1]), gamma=p[2], c=p[3], d=math.exp(p[4]), f=math.exp(p[5])
    )


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
    observed_values,
    max_budget: int,
    formulation: Formulation = Formulation.POWER_LAW,
    fit_config: FitConfig | None = None,
) -> FitResult:
    """Fit one formulation to an observed curve prefix by Adam on the MAE.

    ``observed_values`` are the losses at steps 1..len(observed_values) of a
    curve whose full length is ``max_budget``; budgets are normalized to
    (0, 1] before fitting.  The power-law and broken forms model curves
    decaying toward the asymptote (min-smooth diverging curves first); the
    shifted/scaled forms carry a sign-free scale and can saturate from
    either side.

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
    best_params: np.ndarray | None = None
    best_loss = math.inf
    diverged = False
    # per-fit invariants, hoisted out of the restarts x epochs Adam loop
    n = y.size
    lnb = np.log(b)
    neg_lnb = -lnb
    jac = np.empty((n, _N_INTERNAL_PARAMS[formulation]))
    jac[:, 0] = 1.0
    buf = np.empty(n)  # |resid|, then the loss gradient sign(resid) / n
    lrs = [
        cfg.lr * 0.5 * (1.0 + math.cos(math.pi * epoch / cfg.max_epochs))
        for epoch in range(cfg.max_epochs)
    ]
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        for attempt in range(max(1, cfg.restarts)):
            rng = np.random.default_rng(seed_base + (attempt,))
            params = _initial_guess(formulation, y, b, rng, jitter=attempt > 0)
            # extreme observations can push a guess out of float range
            params = np.clip(np.nan_to_num(params), -1e3, 1e3)
            state = AdamState.for_params(params, lr=cfg.lr)
            for lr in lrs:
                state.lr = lr
                resid, _ = _internal_values_jac(
                    formulation, params, b, lnb=lnb, neg_lnb=neg_lnb, jac=jac
                )
                resid -= y
                # np.mean's own sum-then-divide, without its wrapper
                loss = float(np.add.reduce(np.abs(resid, out=buf)) / n)
                if not math.isfinite(loss):
                    diverged = True
                    break
                if loss < best_loss:
                    best_loss = loss
                    best_params = params.copy()
                if loss < 1e-12:
                    break
                np.sign(resid, out=buf)
                buf /= n
                grad = buf @ jac
                if not all(map(math.isfinite, grad.tolist())):
                    diverged = True
                    break
                adam_step(params, grad, state)
            if best_loss < 1e-10:
                break
    if best_params is None:
        # no restart ever produced a finite loss; report the plain guess
        guess = _initial_guess(
            formulation, y, b, np.random.default_rng(seed_base + (0,)), jitter=False
        )
        best_params = np.clip(np.nan_to_num(guess), -1e3, 1e3)
        best_loss = float("nan")
        diverged = True
    return FitResult(
        coefficients=_external_coefficients(formulation, best_params),
        train_mae=best_loss,
        diverged=diverged,
    )

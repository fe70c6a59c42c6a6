"""Shared test utilities: finite-difference, reference-fit and reference-member
oracles, error metrics."""

from __future__ import annotations

import math

import numpy as np

from powerlaw_hpo.curve_models import FitResult, PowerLawCoefficients, _initial_guess
from powerlaw_hpo.neural_core import (
    AdamState,
    DenseNetwork,
    adam_step,
    backward,
    forward,
    l1_loss,
)
from powerlaw_hpo.surrogate import _power_law_head, _power_law_head_backward


def numeric_gradient(loss_fn, flat: np.ndarray, h: float = 1e-6) -> np.ndarray:
    """Central finite differences of loss_fn w.r.t. every entry of flat."""
    grad = np.empty_like(flat)
    for i in range(flat.size):
        orig = flat[i]
        flat[i] = orig + h
        up = loss_fn()
        flat[i] = orig - h
        down = loss_fn()
        flat[i] = orig
        grad[i] = (up - down) / (2.0 * h)
    return grad


def dpl_loss(member, x, b, y) -> float:
    """L1 loss of a power-law-head member on a batch."""
    raw, _ = forward(member.body, x)
    pred, _ = _power_law_head(raw, b)
    return float(np.mean(np.abs(pred - y)))


def dpl_analytic_gradient(member, x, b, y) -> np.ndarray:
    """Hand-derived gradient of dpl_loss w.r.t. the member's flat parameters."""
    raw, cache = forward(member.body, x)
    pred, head_cache = _power_law_head(raw, b)
    diff = pred - y
    d_pred = np.sign(diff) / diff.size
    d_raw = _power_law_head_backward(head_cache, d_pred)
    bundle = backward(member.body, cache, d_raw, out=DenseNetwork.zeros(member.body.layer_dims))
    return bundle.flat_params


def reference_dpl_step(body, adam, grad, data, idx) -> float:
    """Bit-identity oracle for ``DplNetwork.train_batch``, as the power-law
    member's step was written before both member types shared one: forward,
    power-law head, L1 loss, head backward, backward into ``grad``, Adam."""
    x = data.configs[idx]
    b = data.budgets[idx]
    y = data.losses[idx]
    raw, cache = forward(body, x)
    with np.errstate(over="ignore", invalid="ignore"):
        pred, head_cache = _power_law_head(raw, b)
        loss, d_pred = l1_loss(pred, y)
        if not math.isfinite(loss):
            return loss
        d_raw = _power_law_head_backward(head_cache, d_pred)
    backward(body, cache, d_raw, out=grad)
    adam_step(body.flat_params, grad.flat_params, adam)
    return loss


def reference_conditioned_step(body, adam, grad, data, idx) -> float:
    """Bit-identity oracle for ``ConditionedNetwork.train_batch``, as first
    written: the budget appended as the last input column, the single output
    unit as the prediction, its gradient as a one-column output gradient."""
    x = np.column_stack([data.configs[idx], data.budgets[idx]])
    y = data.losses[idx]
    out, cache = forward(body, x)
    loss, d_pred = l1_loss(out[:, 0], y)
    if not math.isfinite(loss):
        return loss
    backward(body, cache, d_pred[:, None], out=grad)
    adam_step(body.flat_params, grad.flat_params, adam)
    return loss


def reference_dpl_predict(body, configs, b) -> np.ndarray:
    raw, _ = forward(body, configs)
    with np.errstate(over="ignore", invalid="ignore"):
        return _power_law_head(raw, b)[0]


def reference_conditioned_predict(body, configs, b) -> np.ndarray:
    return forward(body, np.column_stack([configs, b]))[0][:, 0]


def max_relative_error(analytic: np.ndarray, numeric: np.ndarray, floor: float = 1e-4) -> float:
    """Worst elementwise relative error.

    The denominator floor sits well above the central-difference noise
    floor (~1e-9 absolute at h=1e-6 on O(1) losses), so near-zero entries
    are effectively compared at absolute precision instead of dividing
    noise by noise; any real defect still trips the 1e-5 threshold.
    """
    denom = np.maximum(np.maximum(np.abs(analytic), np.abs(numeric)), floor)
    return float(np.max(np.abs(analytic - numeric) / denom))


def reference_internal_values_jac(q, b):
    """The per-curve power-law fit's model values and jacobian as first
    written: a fresh jacobian and a fresh ``np.log(b)`` on every call."""
    n = b.shape[0]
    jac = np.empty((n, q.shape[0]))
    lnb = np.log(b)
    alpha, u, gamma = q
    power = np.exp(u - gamma * lnb)
    vals = alpha + power
    jac[:, 0] = 1.0
    jac[:, 1] = power
    jac[:, 2] = -lnb * power
    return vals, jac


def reference_fit_single_curve(observed_values, max_budget, fit_config):
    """Bit-identity oracle for ``curve_models.fit_single_curve``: the same
    restarts and Adam steps, with every per-step quantity (learning rate,
    ``np.log(b)``, jacobian, ``np.mean``) recomputed inside the loop."""
    y = np.asarray(observed_values, dtype=float)
    cfg = fit_config
    b = np.arange(1, y.size + 1, dtype=float) / float(max_budget)
    seed_base = cfg.seed if isinstance(cfg.seed, tuple) else (cfg.seed,)
    best_params = None
    best_loss = math.inf
    diverged = False
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        for attempt in range(cfg.restarts):
            rng = np.random.default_rng(seed_base + (attempt,))
            params = _initial_guess(y, b, rng, jitter=attempt > 0)
            params = np.clip(np.nan_to_num(params), -1e3, 1e3)
            state = AdamState.for_params(params, lr=cfg.lr)
            for epoch in range(cfg.max_epochs):
                state.lr = cfg.lr * 0.5 * (1.0 + math.cos(math.pi * epoch / cfg.max_epochs))
                vals, jac = reference_internal_values_jac(params, b)
                resid = vals - y
                loss = float(np.mean(np.abs(resid)))
                if not math.isfinite(loss):
                    diverged = True
                    break
                if loss < best_loss:
                    best_loss = loss
                    best_params = params.copy()
                if loss < 1e-12:
                    break
                grad = (np.sign(resid) / resid.size) @ jac
                if not np.all(np.isfinite(grad)):
                    diverged = True
                    break
                adam_step(params, grad, state)
            if best_loss < 1e-10:
                break
    if best_params is None:
        guess = _initial_guess(y, b, np.random.default_rng(seed_base + (0,)), jitter=False)
        best_params = np.clip(np.nan_to_num(guess), -1e3, 1e3)
        best_loss = float("nan")
        diverged = True
    p = [float(x) for x in best_params]
    return FitResult(
        coefficients=PowerLawCoefficients(alpha=p[0], beta=math.exp(p[1]), gamma=p[2]),
        train_mae=best_loss,
        diverged=diverged,
    )

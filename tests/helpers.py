"""Shared test utilities: finite-difference oracles and error metrics."""

from __future__ import annotations

import numpy as np

from powerlaw_hpo.neural_core import backward, forward
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
    bundle = backward(member.body, cache, d_raw)
    return bundle.flat


def max_relative_error(analytic: np.ndarray, numeric: np.ndarray, floor: float = 1e-4) -> float:
    """Worst elementwise relative error.

    The denominator floor sits well above the central-difference noise
    floor (~1e-9 absolute at h=1e-6 on O(1) losses), so near-zero entries
    are effectively compared at absolute precision instead of dividing
    noise by noise; any real defect still trips the 1e-5 threshold.
    """
    denom = np.maximum(np.maximum(np.abs(analytic), np.abs(numeric)), floor)
    return float(np.max(np.abs(analytic - numeric) / denom))

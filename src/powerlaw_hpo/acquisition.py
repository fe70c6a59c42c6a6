"""Expected Improvement at full budget and the exhaustive EI scan."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

SQRT2 = math.sqrt(2.0)
INV_SQRT_2PI = 1.0 / math.sqrt(2.0 * math.pi)


@dataclass(frozen=True)
class Candidate:
    config_id: int
    scaled_vector: np.ndarray


def _norm_cdf(z: float) -> float:
    return 0.5 * (1.0 + math.erf(z / SQRT2))


def _norm_pdf(z: float) -> float:
    return INV_SQRT_2PI * math.exp(-0.5 * z * z)


def expected_improvement(mean: float, std: float, f_best: float) -> float:
    """Minimization-form EI of a Gaussian belief against the incumbent loss.

    With z = (f_best - mean) / std this is (f_best - mean) * cdf(z) +
    std * pdf(z); a degenerate std collapses to max(f_best - mean, 0).
    Non-finite inputs score 0 so a diverged surrogate never wins.
    """
    if std < 0:
        raise ValueError(f"std must be non-negative, got {std}")
    if not (math.isfinite(mean) and math.isfinite(std) and math.isfinite(f_best)):
        return 0.0
    improvement = f_best - mean
    if std == 0.0:
        return max(improvement, 0.0)
    z = improvement / std
    return max(improvement * _norm_cdf(z) + std * _norm_pdf(z), 0.0)


def select_next(candidates: list[Candidate], ensemble, f_best: float) -> Candidate:
    """Exhaustive EI scan over the candidate pool at full budget (b_norm = 1).

    EI is scored against ``f_best``, the incumbent loss.  Ties (including
    the all-zero-EI case) break toward the lowest config id, so the choice
    is deterministic and pool-order independent.
    """
    if not candidates:
        raise ValueError("candidate pool is empty")
    xs = np.stack([c.scaled_vector for c in candidates])
    means, variances = ensemble.posterior_batch(xs, 1.0)
    best_cand = None
    best_score = -math.inf
    for cand, mean, var in zip(candidates, means, variances):
        std = math.sqrt(var) if var > 0 else 0.0
        ei = expected_improvement(float(mean), std, f_best)
        if ei > best_score or (ei == best_score and cand.config_id < best_cand.config_id):
            best_cand = cand
            best_score = ei
    return best_cand


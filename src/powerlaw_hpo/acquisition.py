"""Expected Improvement at full budget and the exhaustive EI scan."""

from __future__ import annotations

import math

SQRT2 = math.sqrt(2.0)
INV_SQRT_2PI = 1.0 / math.sqrt(2.0 * math.pi)


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


def select_next(config_ids: list[int], vectors, ensemble, f_best: float) -> int:
    """Exhaustive EI scan over the candidate pool at full budget (b_norm = 1).

    ``vectors`` holds one scaled configuration row per id.  EI is scored
    against ``f_best``, the incumbent loss.  Ties (including the
    all-zero-EI case) break toward the lowest config id, so the choice is
    deterministic and pool-order independent.
    """
    if not config_ids:
        raise ValueError("candidate pool is empty")
    means, variances = ensemble.posterior_batch(vectors, 1.0)
    best_id = None
    best_score = -math.inf
    for cid, mean, var in zip(config_ids, means, variances):
        std = math.sqrt(var) if var > 0 else 0.0
        ei = expected_improvement(float(mean), std, f_best)
        if ei > best_score or (ei == best_score and cid < best_id):
            best_id = cid
            best_score = ei
    return best_id

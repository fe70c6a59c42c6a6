import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from powerlaw_hpo.acquisition import (
    Candidate,
    expected_improvement,
    select_next,
)


class TestExpectedImprovement:
    def test_at_incumbent_equals_standard_normal_density(self):
        assert expected_improvement(0.5, 1.0, 0.5) == pytest.approx(
            1.0 / math.sqrt(2 * math.pi), abs=1e-9
        )

    def test_hopeless_candidate(self):
        assert expected_improvement(5.5, 1e-12, 0.5) == 0.0
        assert expected_improvement(5.5, 0.0, 0.5) == 0.0

    def test_deterministic_improvement(self):
        assert expected_improvement(0.2, 0.0, 0.5) == pytest.approx(0.3)

    def test_negative_std_rejected(self):
        with pytest.raises(ValueError):
            expected_improvement(0.0, -1.0, 0.0)

    def test_non_finite_inputs_score_zero(self):
        assert expected_improvement(math.inf, 1.0, 0.5) == 0.0
        assert expected_improvement(math.nan, 1.0, 0.5) == 0.0
        assert expected_improvement(0.1, math.inf, 0.5) == 0.0

    def test_grid_nonnegative_and_monotone(self):
        means = np.linspace(-3, 3, 100)
        stds = np.linspace(0, 2, 100)
        grid = np.array([[expected_improvement(m, s, 0.0) for s in stds] for m in means])
        assert np.all(grid >= 0)
        # non-increasing in mean (rows), non-decreasing in std (columns)
        assert np.all(np.diff(grid, axis=0) <= 1e-12)
        assert np.all(np.diff(grid, axis=1) >= -1e-12)

    def test_continuity_at_degenerate_std(self):
        for mean in np.linspace(-2, 2, 41):
            limit = expected_improvement(mean, 0.0, 0.0)
            near = expected_improvement(mean, 1e-9, 0.0)
            assert abs(limit - near) < 1e-6

    @settings(max_examples=300, derandomize=True)
    @given(
        mean=st.floats(-1e6, 1e6),
        std=st.floats(0, 1e6),
        f_best=st.floats(-1e6, 1e6),
    )
    def test_always_nonnegative(self, mean, std, f_best):
        assert expected_improvement(mean, std, f_best) >= 0.0


class _StubEnsemble:
    """Posterior lookup keyed by the first vector component."""

    def __init__(self, mapping):
        self.mapping = mapping  # key -> (mean, variance)

    def posterior_batch(self, configs, b_norm):
        configs = np.atleast_2d(configs)
        means = np.array([self.mapping[round(float(v[0]), 6)][0] for v in configs])
        variances = np.array([self.mapping[round(float(v[0]), 6)][1] for v in configs])
        return means, variances


class TestSelectNext:
    def test_single_candidate_pool(self):
        pool = [Candidate(config_id=3, scaled_vector=np.array([0.1]))]
        ens = _StubEnsemble({0.1: (0.4, 0.01)})
        assert select_next(pool, ens, 0.5) is pool[0]

    def test_lower_mean_wins_at_equal_std(self):
        pool = [
            Candidate(config_id=1, scaled_vector=np.array([0.1])),
            Candidate(config_id=2, scaled_vector=np.array([0.2])),
        ]
        ens = _StubEnsemble({0.1: (0.45, 0.04), 0.2: (0.05, 0.04)})
        assert select_next(pool, ens, 0.5).config_id == 2

    def test_all_zero_ei_breaks_tie_by_lowest_id(self):
        pool = [
            Candidate(config_id=7, scaled_vector=np.array([0.1])),
            Candidate(config_id=3, scaled_vector=np.array([0.2])),
            Candidate(config_id=5, scaled_vector=np.array([0.3])),
        ]
        ens = _StubEnsemble({0.1: (0.9, 0.0), 0.2: (0.8, 0.0), 0.3: (0.7, 0.0)})
        assert select_next(pool, ens, 0.5).config_id == 3

    def test_pool_permutation_invariant(self):
        rng = np.random.default_rng(0)
        keys = [round(k, 6) for k in rng.uniform(0, 1, 10)]
        mapping = {k: (rng.uniform(0, 1), rng.uniform(0, 0.1)) for k in keys}
        pool = [Candidate(config_id=i, scaled_vector=np.array([k])) for i, k in enumerate(keys)]
        ens = _StubEnsemble(mapping)
        chosen = select_next(pool, ens, 0.5)
        for perm_seed in range(5):
            shuffled = list(pool)
            np.random.default_rng(perm_seed).shuffle(shuffled)
            assert select_next(shuffled, ens, 0.5).config_id == chosen.config_id

    def test_empty_pool_rejected(self):
        with pytest.raises(ValueError):
            select_next([], _StubEnsemble({}), 0.5)


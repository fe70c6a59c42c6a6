import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats

from powerlaw_hpo import forecasting
from powerlaw_hpo.benchmarks import BenchmarkFormatError, generate_synthetic
from powerlaw_hpo.forecasting import (
    ForecastModel,
    average_ranks,
    run_forecast_experiment,
    spearman,
)


class TestAverageRanks:
    def test_simple_order(self):
        assert np.array_equal(average_ranks([10.0, 30.0, 20.0]), [1.0, 3.0, 2.0])

    def test_ties_get_average_positions(self):
        assert np.array_equal(average_ranks([5.0, 1.0, 5.0]), [2.5, 1.0, 2.5])

    def test_matches_scipy(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            vals = rng.integers(0, 5, size=15).astype(float)  # plenty of ties
            assert np.allclose(average_ranks(vals), stats.rankdata(vals))


class TestSpearman:
    def test_identity(self):
        xs = [3.0, 1.0, 4.0, 1.5, 9.0]
        assert spearman(xs, xs) == pytest.approx(1.0)

    def test_reversal(self):
        xs = [1.0, 2.0, 3.0, 4.0]
        assert spearman(xs, xs[::-1]) == pytest.approx(-1.0)

    def test_hand_computed_half(self):
        assert spearman([1.0, 2.0, 3.0], [1.0, 3.0, 2.0]) == pytest.approx(0.5)

    def test_zero_variance_rejected(self):
        with pytest.raises(ValueError):
            spearman([1.0, 1.0, 1.0], [1.0, 2.0, 3.0])

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError):
            spearman([1.0, 2.0], [1.0])

    def test_matches_scipy_with_ties(self):
        rng = np.random.default_rng(4)
        for _ in range(25):
            xs = rng.integers(0, 6, size=20).astype(float)
            ys = rng.normal(size=20)
            if np.all(xs == xs[0]):
                continue
            ours = spearman(xs, ys)
            ref = stats.spearmanr(xs, ys).statistic
            assert ours == pytest.approx(ref, abs=1e-12)

    @settings(max_examples=100, derandomize=True)
    @given(st.lists(st.integers(-1000, 1000), min_size=3, max_size=20, unique=True))
    def test_invariant_under_monotone_transforms(self, xs):
        # integer-valued inputs keep the transforms injective in floats
        xs = [float(x) for x in xs]
        ys = list(np.random.default_rng(1).normal(size=len(xs)))
        base = spearman(xs, ys)
        assert spearman([3.0 * x + 7.0 for x in xs], ys) == pytest.approx(base, abs=1e-12)
        assert spearman([np.exp(x / 100.0) for x in xs], ys) == pytest.approx(base, abs=1e-12)


@pytest.fixture(scope="module")
def noiseless_table():
    return generate_synthetic(seed=21, n_configs=40, hp_dim=2, b_max=20, noise_std=0.0)


class TestForecastExperiment:
    def test_per_curve_power_law_ranks_nearly_perfectly(self, noiseless_table):
        report = run_forecast_experiment(
            noiseless_table, 0.5, ForecastModel.PER_CURVE_POWER_LAW, seed=0
        )
        assert report.spearman >= 0.99

    def test_near_full_observation_small_error(self, noiseless_table):
        report = run_forecast_experiment(
            noiseless_table, 0.99, ForecastModel.PER_CURVE_POWER_LAW, seed=0
        )
        assert report.mean_abs_rel_error < 1e-2

    def test_shared_models_run_and_report(self, noiseless_table):
        for model in (ForecastModel.DPL, ForecastModel.CONDITIONED_NN):
            report = run_forecast_experiment(noiseless_table, 0.3, model, seed=0)
            assert -1.0 <= report.spearman <= 1.0
            assert report.predicted_final.shape == (40,)
            assert np.all(np.isfinite(report.predicted_final))

    def test_fraction_validated(self, noiseless_table):
        for bad in (0.0, 1.0, -0.5, 2.0):
            with pytest.raises(ValueError):
                run_forecast_experiment(noiseless_table, bad, ForecastModel.DPL)
        with pytest.raises(BenchmarkFormatError) as info:
            run_forecast_experiment(noiseless_table, 1.5, ForecastModel.DPL)
        assert str(info.value) == "observed_fraction: must be in (0, 1), got 1.5"

    @pytest.mark.parametrize("fraction", ["0.5", True, np.float64(0.5), None])
    def test_fraction_must_be_a_number(self, noiseless_table, fraction):
        with pytest.raises(BenchmarkFormatError) as info:
            run_forecast_experiment(noiseless_table, fraction, ForecastModel.PER_CURVE_POWER_LAW)
        assert str(info.value) == f"observed_fraction: must be a number, got {fraction!r}"

    @pytest.mark.parametrize("model", list(ForecastModel))
    def test_negative_seed_rejected(self, noiseless_table, model):
        with pytest.raises(ValueError, match=r"^seed: must be >= 0, got -1$"):
            run_forecast_experiment(noiseless_table, 0.5, model, seed=-1)

    def test_deterministic(self, noiseless_table):
        a = run_forecast_experiment(noiseless_table, 0.4, ForecastModel.DPL, seed=3)
        b = run_forecast_experiment(noiseless_table, 0.4, ForecastModel.DPL, seed=3)
        assert np.array_equal(a.predicted_final, b.predicted_final)
        assert a.spearman == b.spearman

    def test_tied_predictions_report_nan(self, noiseless_table, monkeypatch):
        # a diverged shared model predicts NaN everywhere; pinned to 1e30,
        # every prediction ties and no ranking exists
        def diverge(member, *args, **kwargs):
            member.body.flat_params[...] = np.nan
            return math.inf

        monkeypatch.setattr(forecasting, "train_member_epochs", diverge)
        report = run_forecast_experiment(noiseless_table, 0.3, ForecastModel.DPL, seed=0)
        assert np.all(report.predicted_final == 1e30)
        assert math.isnan(report.spearman)

    def test_tied_true_finals_report_nan(self, noiseless_table):
        # every curve identical: the targets tie, so no ranking exists
        curve = noiseless_table.loss_curves[0]
        tied = dataclasses.replace(
            noiseless_table,
            raw_curves=np.tile(curve, (noiseless_table.n_configs, 1)),
        )
        report = run_forecast_experiment(tied, 0.5, ForecastModel.PER_CURVE_POWER_LAW, seed=0)
        assert np.ptp(report.true_final) == 0
        assert math.isnan(report.spearman)
        with pytest.raises(ValueError):
            spearman(report.predicted_final, report.true_final)

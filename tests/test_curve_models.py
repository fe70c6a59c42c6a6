import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from powerlaw_hpo import curve_models, neural_core
from powerlaw_hpo.curve_models import (
    CurveDomainError,
    ExtendedCoefficients,
    FitConfig,
    LearningCurve,
    PowerLawCoefficients,
    _CoefficientAdam,
    _initial_guess,
    _internal_values_jac,
    _merge,
    eval_broken_power_law,
    eval_power_law,
    eval_scaled_power_law,
    eval_shifted_power_law,
    fit_single_curve,
    min_smooth,
)

from helpers import reference_fit_single_curve


class TestPowerLaw:
    def test_unit_budget(self):
        assert eval_power_law(PowerLawCoefficients(0.1, 0.9, 1.0), 1.0) == pytest.approx(1.0)

    def test_sqrt_decay(self):
        assert eval_power_law(PowerLawCoefficients(0.0, 1.0, 0.5), 0.25) == pytest.approx(2.0)

    def test_zero_beta_is_constant(self):
        assert eval_power_law(PowerLawCoefficients(0.3, 0.0, 7.0), 0.5) == pytest.approx(0.3)

    def test_domain_error(self):
        with pytest.raises(CurveDomainError):
            eval_power_law(PowerLawCoefficients(0.1, 0.9, 1.0), 0.0)

    def test_strictly_decreasing_for_positive_beta_gamma(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            c = PowerLawCoefficients(rng.uniform(-1, 1), rng.uniform(0.01, 2), rng.uniform(0.01, 3))
            bs = np.sort(rng.uniform(0.01, 1.0, size=10))
            vals = [eval_power_law(c, b) for b in bs]
            assert all(a > b for a, b in zip(vals, vals[1:]))


class TestShiftedPowerLaw:
    def test_zero_shift(self):
        c = ExtendedCoefficients(1.0, 0.5, 1.0, d=0.0)
        assert eval_shifted_power_law(c, 1.0) == pytest.approx(0.5)

    def test_unit_shift(self):
        c = ExtendedCoefficients(1.0, 0.5, 1.0, d=1.0)
        assert eval_shifted_power_law(c, 1.0) == pytest.approx(0.75)

    def test_inverse_square(self):
        c = ExtendedCoefficients(0.0, 1.0, 2.0, d=3.0)
        assert eval_shifted_power_law(c, 1.0) == pytest.approx(-0.0625)

    def test_domain_error(self):
        with pytest.raises(CurveDomainError):
            eval_shifted_power_law(ExtendedCoefficients(1.0, 0.5, 1.0, d=-2.0), 1.0)


class TestScaledPowerLaw:
    def test_unit_scale_matches_shifted(self):
        c = ExtendedCoefficients(1.0, 0.5, 1.0, d=1.0, e=1.0)
        assert eval_scaled_power_law(c, 1.0) == pytest.approx(0.75)

    def test_scale_only(self):
        c = ExtendedCoefficients(1.0, 1.0, 1.0, d=0.0, e=2.0)
        assert eval_scaled_power_law(c, 0.5) == pytest.approx(0.0)

    def test_negative_shift_positive_base(self):
        c = ExtendedCoefficients(0.0, 1.0, 1.0, d=-3.0, e=4.0)
        assert eval_scaled_power_law(c, 1.0) == pytest.approx(-1.0)

    def test_equals_shifted_for_unit_scale_exactly(self):
        rng = np.random.default_rng(1)
        for _ in range(100):
            c = ExtendedCoefficients(
                alpha=rng.uniform(-1, 1),
                beta=rng.uniform(-1, 1),
                gamma=rng.uniform(0, 3),
                d=rng.uniform(0.01, 2),
                e=1.0,
            )
            b = rng.uniform(0.01, 1)
            assert abs(eval_scaled_power_law(c, b) - eval_shifted_power_law(c, b)) <= 1e-12

    def test_domain_error(self):
        with pytest.raises(CurveDomainError):
            eval_scaled_power_law(ExtendedCoefficients(0.0, 1.0, 1.0, d=0.0, e=0.0), 1.0)


class TestBrokenPowerLaw:
    def test_no_break_collapses_to_power_law(self):
        c = ExtendedCoefficients(0.1, 0.9, 1.0, c=0.0, d=1.0, f=1.0)
        assert eval_broken_power_law(c, 1.0) == pytest.approx(1.0)

    def test_single_break(self):
        c = ExtendedCoefficients(0.0, 1.0, 0.0, c=1.0, d=1.0, f=1.0)
        assert eval_broken_power_law(c, 1.0) == pytest.approx(0.5)

    def test_break_exponent_product(self):
        c = ExtendedCoefficients(0.0, 1.0, 1.0, c=2.0, d=1.0, f=0.5)
        assert eval_broken_power_law(c, 1.0) == pytest.approx(0.5)

    def test_matches_power_law_when_c_zero_exactly(self):
        rng = np.random.default_rng(2)
        for _ in range(100):
            alpha, beta, gamma = rng.uniform(-1, 1), rng.uniform(-1, 1), rng.uniform(0, 3)
            ext = ExtendedCoefficients(
                alpha, beta, gamma, c=0.0, d=rng.uniform(0.1, 2), f=rng.uniform(0.2, 2)
            )
            b = rng.uniform(0.01, 1)
            plain = eval_power_law(PowerLawCoefficients(alpha, beta, gamma), b)
            assert abs(eval_broken_power_law(ext, b) - plain) <= 1e-12

    @pytest.mark.parametrize(
        "coeffs",
        [
            ExtendedCoefficients(0.0, 1.0, 1.0, c=1.0, d=0.0, f=1.0),   # division by zero
            ExtendedCoefficients(0.0, 1.0, 1.0, c=1.0, d=1.0, f=0.0),   # zero sharpness
            ExtendedCoefficients(0.0, 1.0, 1.0, c=1.0, d=-1.0, f=1.0),  # negative root base
        ],
    )
    def test_domain_errors(self, coeffs):
        with pytest.raises(CurveDomainError):
            eval_broken_power_law(coeffs, 1.0)


class TestMinSmooth:
    def test_prefix_minimum(self):
        out = min_smooth(LearningCurve.from_values([0.9, 0.5, 0.7, 0.4]))
        assert out.values == (0.9, 0.5, 0.5, 0.4)

    def test_already_monotone(self):
        out = min_smooth(LearningCurve.from_values([0.3, 0.3, 0.3]))
        assert out.values == (0.3, 0.3, 0.3)

    def test_increasing_clamps_to_first(self):
        out = min_smooth(LearningCurve.from_values([0.1, 0.2, 0.3]))
        assert out.values == (0.1, 0.1, 0.1)

    @settings(max_examples=200, derandomize=True)
    @given(
        st.lists(
            st.floats(min_value=-1e6, max_value=1e6, allow_nan=False, allow_infinity=False),
            min_size=1,
            max_size=40,
        )
    )
    def test_idempotent_and_non_increasing(self, values):
        curve = LearningCurve.from_values(values)
        once = min_smooth(curve)
        assert all(a >= b for a, b in zip(once.values, once.values[1:]))
        assert all(s <= v for s, v in zip(once.values, curve.values))
        assert min_smooth(once).values == once.values


class TestLearningCurve:
    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            LearningCurve(values=(0.1, 0.2), max_budget=3)

    def test_non_finite_rejected(self):
        with pytest.raises(ValueError):
            LearningCurve.from_values([0.1, math.nan])


def _values_jac(q, b):
    """One call on fresh buffers, set up as the fit loop sets up its own."""
    lnb = np.log(b)
    jac = np.empty((b.size, 3))
    jac[:, 0] = 1.0
    return _internal_values_jac(*q, lnb=lnb, neg_lnb=-lnb, jac=jac)


class TestFitJacobians:
    """The fitter's analytic jacobian against central finite differences."""

    def test_matches_finite_differences(self):
        rng = np.random.default_rng(5)
        b = np.arange(1, 9) / 8.0
        y = rng.uniform(0.1, 1.0, size=8)
        for trial in range(20):
            q = _initial_guess(y, b, np.random.default_rng([trial]), jitter=True)
            _, jac = _values_jac(q, b)
            h = 1e-7
            for j in range(q.size):
                stepped = q.copy()
                stepped[j] += h
                up, _ = _values_jac(stepped, b)
                stepped[j] -= 2 * h
                down, _ = _values_jac(stepped, b)
                numeric = (up - down) / (2 * h)
                assert np.allclose(jac[:, j], numeric, rtol=1e-4, atol=1e-6), (trial, j)

    def test_restart_rows_match_single_calls(self):
        # the (R, n, 3) call and the fit's flat (R*n, 3) call, whose row
        # r*n + i is restart r at point i, against one (n, 3) call per
        # restart, with ==
        rng = np.random.default_rng(6)
        for n in (2, 5, 13, 25):
            b = np.arange(1, n + 1) / (n + 3.0)
            lnb = np.log(b)
            q = rng.uniform(-3.0, 3.0, (4, 3))
            jac = np.empty((4, n, 3))
            jac[:, :, 0] = 1.0
            vals, _ = _internal_values_jac(
                q[:, 0:1], q[:, 1:2], q[:, 2:3], lnb=lnb, neg_lnb=-lnb, jac=jac
            )
            flat_lnb = np.tile(lnb, 4)
            qx = np.empty((4 * n, 3))
            qx.reshape(4, n, 3)[...] = q[:, None, :]
            flat_jac = np.empty((4 * n, 3))
            flat_jac[:, 0] = 1.0
            flat_vals, _ = _internal_values_jac(
                qx[:, 0], qx[:, 1], qx[:, 2], lnb=flat_lnb, neg_lnb=-flat_lnb, jac=flat_jac
            )
            for r in range(4):
                want_vals, want_jac = _values_jac(q[r], b)
                assert vals[r].tolist() == want_vals.tolist()
                assert jac[r].tolist() == want_jac.tolist()
                assert flat_vals[r * n:(r + 1) * n].tolist() == want_vals.tolist()
                assert flat_jac[r * n:(r + 1) * n].tolist() == want_jac.tolist()


class TestFitSingleCurve:
    def test_recovers_generated_power_law(self):
        # oracle: the generating coefficients evaluated at the final step
        alpha, beta, gamma = 0.2, 0.8, 1.5
        steps = np.arange(1, 51, dtype=float)
        curve = alpha + beta * steps ** (-gamma)
        result = fit_single_curve(curve[:10], max_budget=50, fit_config=FitConfig(seed=0))
        pred = eval_power_law(result.coefficients, 1.0)
        assert abs(pred - curve[-1]) < 1e-2
        assert not result.diverged

    def test_constant_curve(self):
        result = fit_single_curve([0.5] * 5, max_budget=10, fit_config=FitConfig(seed=1))
        pred = eval_power_law(result.coefficients, 1.0)
        assert abs(pred - 0.5) < 1e-3

    def test_two_point_interpolation(self):
        # exact interpolant exists (alpha=0, beta=0.5, gamma=1); check residuals
        result = fit_single_curve([1.0, 0.5], max_budget=2, fit_config=FitConfig(seed=2))
        for b, y in ((0.5, 1.0), (1.0, 0.5)):
            assert abs(eval_power_law(result.coefficients, b) - y) < 1e-2

    def test_same_formulation_reaches_low_mae(self):
        coeffs = PowerLawCoefficients(0.25, 0.4, 1.2)
        b = np.arange(1, 11) / 10.0
        y = [eval_power_law(coeffs, x) for x in b]
        result = fit_single_curve(
            y, max_budget=10, fit_config=FitConfig(max_epochs=3000, restarts=5, seed=0)
        )
        assert result.train_mae < 1e-3
        for field in vars(result.coefficients).values():
            assert math.isfinite(field)

    def test_deterministic_given_seed(self):
        curve = [0.9, 0.6, 0.5, 0.45, 0.42]
        a = fit_single_curve(curve, max_budget=10, fit_config=FitConfig(seed=7))
        b = fit_single_curve(curve, max_budget=10, fit_config=FitConfig(seed=7))
        assert a.coefficients == b.coefficients
        assert a.train_mae == b.train_mae

    def test_divergence_reported_not_raised(self):
        # values near the float ceiling overflow the loss on every restart
        curve = [1e308, 1e307, 1e306, 1e305, 1e304]
        result = fit_single_curve(
            curve, max_budget=10,
            fit_config=FitConfig(max_epochs=50, restarts=2, seed=0),
        )
        assert result.diverged
        for field in vars(result.coefficients).values():
            assert math.isfinite(field)

    def test_too_few_points_rejected(self):
        with pytest.raises(ValueError):
            fit_single_curve([0.5], max_budget=10)


class TestFitConfig:
    @pytest.mark.parametrize("field", ["max_epochs", "restarts"])
    @pytest.mark.parametrize("value", [0, -1])
    def test_non_positive_counts_rejected(self, field, value):
        with pytest.raises(ValueError, match=field):
            FitConfig(**{field: value})

    @pytest.mark.parametrize("field", ["max_epochs", "restarts"])
    @pytest.mark.parametrize("value", [True, 2.5, np.int64(2), "3"])
    def test_non_int_counts_rejected(self, field, value):
        message = rf"^{field}: must be an integer, got {re.escape(repr(value))}$"
        with pytest.raises(ValueError, match=message):
            FitConfig(**{field: value})

    @pytest.mark.parametrize(
        "value, rule",
        [
            (math.nan, "must be finite and > 0"),
            (math.inf, "must be finite and > 0"),
            (0.0, "must be finite and > 0"),
            (-0.05, "must be finite and > 0"),
            (True, "must be a number"),
            ("0.05", "must be a number"),
            (np.float64(0.05), "must be a number"),
        ],
        ids=["nan", "inf", "zero", "negative", "bool", "str", "numpy"],
    )
    def test_bad_learning_rate_rejected(self, value, rule):
        message = rf"^lr: {rule}, got {re.escape(repr(value))}$"
        with pytest.raises(ValueError, match=message):
            FitConfig(lr=value)

    def test_single_epoch_single_restart_fits(self):
        result = fit_single_curve(
            [0.9, 0.6, 0.5], max_budget=10, fit_config=FitConfig(max_epochs=1, restarts=1)
        )
        assert math.isfinite(result.train_mae)
        assert not result.diverged


def _same_fit(a, b) -> bool:
    mae_equal = a.train_mae == b.train_mae or (math.isnan(a.train_mae) and math.isnan(b.train_mae))
    return a.coefficients == b.coefficients and mae_equal and a.diverged == b.diverged


class TestFitBitIdentity:
    """fit_single_curve against a reference loop that recomputes every
    per-step quantity; both run in this process, so equality is exact."""

    CURVES = [
        ([0.9, 0.6, 0.5, 0.45, 0.42, 0.41, 0.405], 20),
        # the first power-law guess interpolates exactly: the loss < 1e-12 exit
        ([1.0, 0.5], 2),
        ([0.7, 0.71, 0.65, 0.66, 0.6, 0.58, 0.59, 0.55, 0.52, 0.53, 0.5, 0.49, 0.48], 40),
        ([0.5] * 5, 10),                                    # constant
        ([1e308, 1e307, 1e306, 1e305, 1e304], 10),          # overflows: diverged
        # every restart's first loss overflows, so the plain guess is returned
        ([1e308] * 5, 10),
    ]

    def test_matches_reference_loop(self):
        for i, (curve, max_budget) in enumerate(self.CURVES):
            cfg = FitConfig(max_epochs=200, restarts=3, seed=(4, i))
            got = fit_single_curve(curve, max_budget, cfg)
            want = reference_fit_single_curve(curve, max_budget, cfg)
            assert _same_fit(got, want), (curve, got, want)


_LENGTHS = st.integers(2, 25)
_VALUES = st.floats(0.01, 2.0)
# random curves, exact interpolants (a falling two-point curve, which the
# first guess fits to rounding), constant curves and overflowing curves
_FIT_CURVES = st.one_of(
    _LENGTHS.flatmap(lambda n: st.lists(_VALUES, min_size=n, max_size=n)),
    st.tuples(_VALUES, _VALUES).map(lambda p: [max(p), min(p)]),
    st.tuples(_VALUES, _LENGTHS).map(lambda p: [p[0]] * p[1]),
    _LENGTHS.map(lambda n: [10.0 ** (308 - i) for i in range(n)]),
)


class TestFitLockstepProperty:
    """The lockstep fit against the sequential reference loop, with ==."""

    @settings(max_examples=150, deadline=None)
    @given(
        curve=_FIT_CURVES,
        extra_budget=st.integers(0, 30),
        max_epochs=st.integers(1, 60),
        restarts=st.integers(1, 5),
        seed=st.integers(0, 2**16),
    )
    def test_matches_sequential_reference(self, curve, extra_budget, max_epochs, restarts, seed):
        max_budget = len(curve) + extra_budget
        cfg = FitConfig(max_epochs=max_epochs, restarts=restarts, seed=seed)
        got = fit_single_curve(curve, max_budget, cfg)
        want = reference_fit_single_curve(curve, max_budget, cfg)
        assert _same_fit(got, want), (got, want)


class TestMerge:
    """``_merge`` on hand-built restarts: strict improvement in order, and
    nothing after the first restart that brings the best below 1e-10."""

    def _restart(self, best_loss, diverged=False):
        best_params = (best_loss, 0.0, 0.0) if math.isfinite(best_loss) else None
        return curve_models._Restart(
            [0.0] * 3, _CoefficientAdam(lr=0.05), best_loss, best_params, diverged
        )

    def test_first_of_equal_bests_wins(self):
        first, second = self._restart(0.5), self._restart(0.5)
        assert _merge([first, second])[1] is first.best_params

    def test_stops_after_the_first_best_below_threshold(self):
        restarts = [self._restart(0.5, diverged=True), self._restart(5e-11),
                    self._restart(1e-13, diverged=True)]
        assert _merge(restarts) == (5e-11, (5e-11, 0.0, 0.0), True)
        assert _merge(restarts[1:]) == (5e-11, (5e-11, 0.0, 0.0), False)

    def test_no_finite_restart_merges_to_none(self):
        assert _merge([self._restart(math.inf, diverged=True)] * 2) == (math.inf, None, True)


class TestFitStepCount:
    """One Adam step per epoch and restart, through the module global
    ``curve_models.adam_step`` (the benchmark counts calls there)."""

    def _count_steps(self, monkeypatch, curve, max_budget, cfg):
        calls = []
        real = curve_models.adam_step

        def counting(param, grad, state):
            calls.append(1)
            real(param, grad, state)

        monkeypatch.setattr(curve_models, "adam_step", counting)
        fit_single_curve(curve, max_budget=max_budget, fit_config=cfg)
        return len(calls)

    def test_no_early_exit_takes_restarts_times_epochs(self, monkeypatch):
        cfg = FitConfig(max_epochs=150, restarts=3, seed=0)
        steps = self._count_steps(monkeypatch, [0.9, 0.7, 0.65, 0.5, 0.52, 0.4], 20, cfg)
        assert steps == cfg.restarts * cfg.max_epochs

    def test_exact_first_guess_takes_no_step(self, monkeypatch):
        cfg = FitConfig(max_epochs=150, restarts=3, seed=0)
        assert self._count_steps(monkeypatch, [1.0, 0.5], 2, cfg) == 0


class TestCoefficientAdam:
    """The fit's float-by-float Adam against ``neural_core.adam_step`` on a
    length-3 array: equal with ``==`` after every step."""

    # 0, subnormal and tiny gradients underflow their squares; 1e300
    # overflows its square, after which that coefficient stops moving
    TINY = (0.0, 5e-324, -5e-324, 1e-300, -1e-300)

    def test_matches_vector_adam_bit_for_bit(self):
        cfg = FitConfig()
        lrs = [
            cfg.lr * 0.5 * (1.0 + math.cos(math.pi * epoch / cfg.max_epochs))
            for epoch in range(cfg.max_epochs)
        ]
        rng = np.random.default_rng(0)
        # 3 restarts x 2000 epochs = 6,000 steps, a fresh state per restart as in the fit
        for restart in range(3):
            start = rng.uniform(-3.0, 3.0, 3)
            floats, vec = start.tolist(), start.copy()
            float_state = _CoefficientAdam(lr=cfg.lr)
            vec_state = neural_core.AdamState.for_params(vec, lr=cfg.lr)
            for epoch, lr in enumerate(lrs):
                grad = rng.normal(size=3) * 10.0 ** rng.uniform(-6.0, 6.0, 3)
                if epoch % 2:
                    grad[1] = self.TINY[epoch // 2 % len(self.TINY)]
                if epoch in (1700, 1901):  # +1e300, then -1e300 after the flip
                    grad[2] = 1e300
                grad *= (-1.0) ** epoch  # the sign flips every step
                float_state.lr = vec_state.lr = lr
                curve_models.adam_step(floats, grad.tolist(), float_state)
                with np.errstate(over="ignore"):
                    neural_core.adam_step(vec, grad, vec_state)
                assert floats == vec.tolist(), (restart, epoch)
                assert float_state.first_moment == vec_state.first_moment.tolist(), (restart, epoch)
                assert float_state.second_moment == vec_state.second_moment.tolist(), (restart, epoch)
                assert float_state.step_count == vec_state.step_count

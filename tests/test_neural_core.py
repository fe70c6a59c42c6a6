import numpy as np
import pytest

from powerlaw_hpo.neural_core import (
    AdamState,
    DenseNetwork,
    adam_step,
    backward,
    forward,
    init_weights,
    l1_loss,
    leaky_relu,
    sigmoid,
)

from helpers import max_relative_error, numeric_gradient


def _zeroed(dims):
    net = DenseNetwork.create(dims, seed=0)
    net.flat_params[...] = 0.0
    return net


class TestForward:
    def test_zero_network_maps_to_zero(self):
        net = _zeroed((3, 4, 4, 2))
        out, _ = forward(net, np.array([[1.0, -2.0, 3.0]]))
        assert np.array_equal(out, np.zeros((1, 2)))

    def test_identity_positive_input(self):
        net = _zeroed((1, 1, 1))
        net.weights[0][0, 0] = 1.0
        net.weights[1][0, 0] = 1.0
        out, _ = forward(net, np.array([[2.5]]))
        assert out[0, 0] == pytest.approx(2.5)

    def test_leaky_relu_negative_input(self):
        net = _zeroed((1, 1, 1))
        net.weights[0][0, 0] = 1.0
        net.weights[1][0, 0] = 1.0
        out, _ = forward(net, np.array([[-1.0]]))
        assert out[0, 0] == pytest.approx(-0.01)

    def test_shape_mismatch_rejected(self):
        net = _zeroed((3, 2))
        with pytest.raises(ValueError):
            forward(net, np.zeros((1, 4)))
        with pytest.raises(ValueError):
            forward(net, np.zeros(3))  # a lone vector is not a batch

    def test_deterministic(self):
        net = DenseNetwork.create((4, 8, 8, 2), seed=5)
        x = np.linspace(-1, 1, 4)[None, :]
        a, _ = forward(net, x)
        b, _ = forward(net, x)
        assert np.array_equal(a, b)

    def test_batch_matches_single(self):
        net = DenseNetwork.create((3, 6, 2), seed=1)
        xs = np.random.default_rng(0).normal(size=(5, 3))
        batch_out, _ = forward(net, xs)
        for i in range(5):
            single, _ = forward(net, xs[i : i + 1])
            assert np.allclose(single[0], batch_out[i])


class TestBackward:
    def test_zero_output_gradient_gives_zero(self):
        net = DenseNetwork.create((3, 4, 2), seed=2)
        _, cache = forward(net, np.ones((1, 3)))
        bundle = backward(net, cache, np.zeros((1, 2)))
        assert np.all(bundle.flat == 0)

    def test_matches_finite_differences_through_l1(self):
        # invariant: forward -> L1 -> backward agrees with central differences
        worst = 0.0
        for seed in range(100):
            rng = np.random.default_rng(seed)
            net = DenseNetwork.create((3, 4, 2), seed=[seed, 1])
            x = rng.normal(size=(1, 3))
            y = rng.normal(size=(1, 2))

            def loss():
                out, _ = forward(net, x)
                return l1_loss(out, y)[0]

            out, cache = forward(net, x)
            _, dl = l1_loss(out, y)
            bundle = backward(net, cache, dl)
            analytic = bundle.flat
            numeric = numeric_gradient(loss, net.flat_params)
            worst = max(worst, max_relative_error(analytic, numeric))
        assert worst < 1e-5

    def test_stale_cache_rejected(self):
        net = DenseNetwork.create((3, 4, 2), seed=0)
        other = DenseNetwork.create((3, 5, 2), seed=0)
        _, cache = forward(other, np.ones((1, 3)))
        with pytest.raises(ValueError):
            backward(net, cache, np.zeros((1, 2)))

    def test_exact_fit_contributes_zero_under_sign_convention(self):
        net = DenseNetwork.create((2, 3, 1), seed=4)
        x = np.array([[0.3, 0.7]])
        out, cache = forward(net, x)
        _, dl = l1_loss(out, out.copy())
        bundle = backward(net, cache, dl)
        assert np.all(bundle.flat == 0)


class TestL1Loss:
    def test_exact_match(self):
        loss, grad = l1_loss([1.0, 2.0], [1.0, 2.0])
        assert loss == 0.0
        assert np.array_equal(grad, [0.0, 0.0])

    def test_single_element(self):
        loss, grad = l1_loss([2.0], [1.0])
        assert loss == 1.0
        assert np.array_equal(grad, [1.0])

    def test_mean_and_sign(self):
        loss, grad = l1_loss([0.0, 4.0], [1.0, 1.0])
        assert loss == 2.0
        assert np.array_equal(grad, [-0.5, 0.5])

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            l1_loss([1.0], [1.0, 2.0])


class TestAdam:
    def test_zero_gradient_is_noop(self):
        p = np.array([1.0, -2.0])
        state = AdamState.for_params(p)
        before = p.copy()
        adam_step(p, np.zeros(2), state)
        assert np.array_equal(p, before)
        assert state.step_count == 1

    def test_first_step_moves_by_lr(self):
        # hand-computed: m_hat = g, v_hat = g^2 -> update lr*g/(|g|+eps)
        p = np.array([0.0])
        state = AdamState.for_params(p, lr=1e-3)
        adam_step(p, np.array([1.0]), state)
        assert p[0] == pytest.approx(-1e-3, abs=1e-9)

    def test_decreases_quadratic(self):
        p = np.array([3.0])
        state = AdamState.for_params(p, lr=0.1)
        losses = []
        for _ in range(200):
            losses.append(0.5 * p[0] ** 2)
            adam_step(p, p.copy(), state)
        assert losses[-1] < losses[0]
        assert abs(p[0]) < 3.0

    def test_sign_symmetry_of_first_moment(self):
        g = np.array([0.37, -1.2])
        pa, pb = np.zeros(2), np.zeros(2)
        sa = AdamState.for_params(pa)
        sb = AdamState.for_params(pb)
        adam_step(pa, g, sa)
        adam_step(pb, -g, sb)
        assert np.allclose(np.abs(sa.first_moment), np.abs(sb.first_moment))
        assert np.allclose(pa, -pb)

    def test_shape_mismatch_rejected(self):
        p = np.zeros(3)
        state = AdamState.for_params(p)
        with pytest.raises(ValueError):
            adam_step(p, np.zeros(4), state)


class TestInitWeights:
    def test_same_seed_bit_identical(self):
        a = DenseNetwork.create((3, 8, 2), seed=11)
        b = DenseNetwork.create((3, 8, 2), seed=11)
        assert np.array_equal(a.flat_params, b.flat_params)

    def test_different_seeds_differ(self):
        a = DenseNetwork.create((3, 8, 2), seed=11)
        b = DenseNetwork.create((3, 8, 2), seed=12)
        assert not np.array_equal(a.flat_params, b.flat_params)

    def test_bounds_and_zero_biases(self):
        net = DenseNetwork.create((9, 16, 4), seed=3)
        for fan_in, w in zip(net.layer_dims[:-1], net.weights):
            assert np.all(np.abs(w) <= np.sqrt(1.0 / fan_in))
        for b in net.biases:
            assert np.all(b == 0.0)

    def test_reinit_keeps_flat_views(self):
        net = DenseNetwork.create((2, 4, 1), seed=0)
        flat = net.flat_params
        init_weights(net, seed=99)
        assert net.flat_params is flat
        assert net.weights[0].base is flat or net.weights[0].base is net.flat_params


def test_leaky_relu_values():
    assert leaky_relu(2.0) == 2.0
    assert leaky_relu(-2.0) == pytest.approx(-0.02)


def _old_sigmoid(x):
    # the boolean-index formulation that sigmoid() replaced
    out = np.empty_like(x)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)
    return out


def _old_leaky_relu(x):
    return np.where(x >= 0, x, 0.01 * x)


def _bits(a):
    # NaNs compare by position only; every other entry bit for bit
    a = np.asarray(a, dtype=float)
    return np.isnan(a), np.where(np.isnan(a), 0.0, a).view(np.int64)


def test_activations_bit_identical_to_old_formulas():
    special = np.array([0.0, -0.0, np.inf, -np.inf, np.nan, 1e-300, -1e-300, 745.0, -745.0,
                        5e-324, -5e-324, 36.0, -36.0, 710.0, -710.0, 1.0, -1.0])
    rng = np.random.default_rng(0)
    grid = np.concatenate([special, rng.normal(0.0, 5.0, 4000), rng.normal(0.0, 300.0, 1000)])
    with np.errstate(over="ignore", invalid="ignore"):
        for new, old in ((sigmoid, _old_sigmoid), (leaky_relu, _old_leaky_relu)):
            for x in (grid, grid[:5000].reshape(-1, 10), grid[::3]):
                got_nan, got = _bits(new(x))
                want_nan, want = _bits(old(x))
                assert np.array_equal(got_nan, want_nan), new.__name__
                assert np.array_equal(got, want), new.__name__

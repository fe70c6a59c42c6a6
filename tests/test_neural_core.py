import ctypes
import shutil
import subprocess
import tempfile
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from powerlaw_hpo import neural_core
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
from powerlaw_hpo.surrogate import ConditionedNetwork, DplNetwork

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
        bundle = backward(net, cache, np.zeros((1, 2)), out=DenseNetwork.zeros(net.layer_dims))
        assert np.all(bundle.flat_params == 0)

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
            bundle = backward(net, cache, dl, out=DenseNetwork.zeros(net.layer_dims))
            analytic = bundle.flat_params
            numeric = numeric_gradient(loss, net.flat_params)
            worst = max(worst, max_relative_error(analytic, numeric))
        assert worst < 1e-5

    def test_stale_cache_rejected(self):
        net = DenseNetwork.create((3, 4, 2), seed=0)
        other = DenseNetwork.create((3, 5, 2), seed=0)
        _, cache = forward(other, np.ones((1, 3)))
        with pytest.raises(ValueError):
            backward(net, cache, np.zeros((1, 2)), out=DenseNetwork.zeros(net.layer_dims))

    def test_exact_fit_contributes_zero_under_sign_convention(self):
        net = DenseNetwork.create((2, 3, 1), seed=4)
        x = np.array([[0.3, 0.7]])
        out, cache = forward(net, x)
        _, dl = l1_loss(out, out.copy())
        bundle = backward(net, cache, dl, out=DenseNetwork.zeros(net.layer_dims))
        assert np.all(bundle.flat_params == 0)


class TestZeros:
    def test_layout_matches_create(self):
        net = DenseNetwork.zeros((3, 5, 2))
        made = DenseNetwork.create((3, 5, 2), seed=0)
        assert net.flat_params.shape == made.flat_params.shape == (3 * 5 + 5 + 5 * 2 + 2,)
        assert np.all(net.flat_params == 0)
        for a, b in zip(net.weights + net.biases, made.weights + made.biases):
            assert a.shape == b.shape and a.base is net.flat_params

    @pytest.mark.parametrize("dims", [(3,), (3, 0, 2), (3, -1, 2), ()])
    def test_bad_layer_dims_rejected(self, dims):
        with pytest.raises(ValueError, match=r"^layer_dims must be >= 2 positive entries"):
            DenseNetwork.zeros(dims)


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


def _passes_step(param, grad, state, codes=None):
    """``adam_step`` through its numpy passes; ``codes`` is left as it is, so
    that both helpers take the same arguments."""
    with mock.patch.object(neural_core, "adam_kernel", lambda: None):
        adam_step(param, grad, state)


def _kernel_step(param, grad, state, codes=None) -> list[int]:
    """``adam_step`` as it runs; appends the kernel's return code to ``codes``,
    which it returns: empty when the passes ran alone, [1] when the kernel
    handed the step back to them."""
    kernel = neural_core.adam_kernel()
    codes = [] if codes is None else codes

    def spy(*args):
        codes.append(kernel(*args))
        return codes[-1]

    with mock.patch.object(neural_core, "adam_kernel", lambda: spy):
        adam_step(param, grad, state)
    return codes


def _same_bits(a, b) -> bool:
    """Equal bit patterns, except that any NaN matches any NaN."""
    nan = np.isnan(a)
    return (a.shape == b.shape and np.array_equal(nan, np.isnan(b))
            and np.array_equal(a[~nan].view(np.uint64), b[~nan].view(np.uint64)))


_EXTREMES = np.array([0.0, -0.0, 5e-324, -5e-324, 2.2e-308, 1e-300, -1e-300, 1.0,
                      1e300, -1e300, np.inf, -np.inf, np.nan])


@st.composite
def _adam_cases(draw):
    """Parameters, moments and a few gradients, with magnitudes from ordinary
    to the float limits and a share of zeros, subnormals, infinities and NaNs."""
    # 17,541 is a DPL member's size; 1-70 covers every vector remainder
    n = draw(st.one_of(st.integers(1, 70), st.just(17541)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    spread = draw(st.sampled_from([0, 3, 320]))
    share = draw(st.sampled_from([0.0, 0.05, 0.5, 1.0]))

    def vector():
        x = rng.standard_normal(n) * 10.0 ** rng.integers(-spread, min(spread, 300) + 1, n)
        pick = rng.random(n) < share
        x[pick] = rng.choice(_EXTREMES, int(pick.sum()))
        return x

    param, first = vector(), vector()
    second = np.abs(vector()) if draw(st.booleans()) else vector()
    grads = [vector() for _ in range(draw(st.integers(1, 4)))]
    lr = draw(st.floats(1e-6, 10.0))
    # from step 37,412 on, 1 - 0.999**t rounds to 1.0
    step_count = draw(st.integers(0, 40_000))
    return param, first, second, grads, lr, step_count


needs_compiler = pytest.mark.skipif(shutil.which("cc") is None, reason="no C compiler")


@pytest.fixture
def fresh_kernel():
    """The next ``adam_kernel()`` call builds again, and so does the first
    one after the test."""
    neural_core.adam_kernel.cache_clear()
    yield
    neural_core.adam_kernel.cache_clear()


class TestAdamKernel:
    def test_kernel_loads_when_a_compiler_is_found(self):
        # a broken build would otherwise pass every test, only slower
        assert (neural_core.adam_kernel() is not None) == (shutil.which("cc") is not None)

    @needs_compiler
    @settings(max_examples=150, derandomize=True, deadline=None)
    @given(_adam_cases())
    def test_matches_numpy_passes_bit_for_bit(self, case):
        param, first, second, grads, lr, step_count = case
        runs, codes = [], []
        for step in (_kernel_step, _passes_step):
            p = param.copy()
            state = AdamState(first.copy(), second.copy(), step_count=step_count, lr=lr)
            with np.errstate(all="ignore"):
                for g in grads:
                    step(p, g, state, codes)
            runs.append((p, state.first_moment, state.second_moment))
        assert codes == [0] * len(grads)
        for kernel_array, passes_array in zip(*runs):
            assert _same_bits(kernel_array, passes_array)

    @needs_compiler
    def test_kernel_runs_on_member_operands(self):
        # the operands of DplNetwork.train_batch
        net = DplNetwork(hp_dim=2, seed=0)
        assert net.body.flat_params.size == 17541
        assert _kernel_step(net.body.flat_params, net._grad.flat_params, net.adam) == [0]

    @pytest.mark.parametrize("make_operands", [
        # read-only param: the passes update the moments, then refuse the write
        lambda: (np.arange(5.0), np.ones(5), AdamState.for_params(np.zeros(5)), "read-only"),
        # a moment vector one entry long: the passes' broadcast fails
        lambda: (np.arange(5.0), np.ones(5),
                 AdamState(np.zeros(6), np.zeros(6)), None),
        # a strided gradient: the passes take it as it is
        lambda: (np.arange(5.0), np.linspace(-1.0, 1.0, 10)[::2],
                 AdamState.for_params(np.zeros(5)), None),
        # a float32 moment
        lambda: (np.arange(5.0), np.ones(5),
                 AdamState(np.zeros(5, np.float32), np.zeros(5)), None),
    ], ids=["read-only-param", "long-moment", "strided-grad", "float32-moment"])
    def test_other_operands_take_the_numpy_passes(self, make_operands):
        outcomes, codes = [], []
        for step in (_kernel_step, _passes_step):
            param, grad, state, lock = make_operands()
            if lock:
                param.flags.writeable = False
            try:
                step(param, grad, state, codes)
                error = None
            except ValueError as exc:
                error = str(exc)
            outcomes.append((error, param.copy(), state.first_moment.copy(),
                             state.second_moment.copy(), state.step_count))
        assert codes == []  # the kernel was never called
        (error, *arrays), (passes_error, *passes_arrays) = outcomes
        assert error == passes_error
        assert all(np.array_equal(a, b) for a, b in zip(arrays, passes_arrays))

    @needs_compiler
    def test_overlapping_buffers_are_handed_to_the_numpy_passes(self):
        # the gradient is the first moment itself: the passes scale it before
        # they read it, which one sweep element by element would not do
        runs, codes = [], []
        for step in (_kernel_step, _passes_step):
            param, state = np.arange(6.0), AdamState.for_params(np.zeros(6))
            state.first_moment[...] = np.linspace(-1.0, 1.0, 6)
            step(param, state.first_moment, state, codes)
            runs.append((param, state.first_moment, state.second_moment))
        assert codes == [1]
        assert all(np.array_equal(a, b) for a, b in zip(*runs))

    @pytest.mark.parametrize("failure", [
        "compiler-error", "compiler-timeout", "compiler-missing", "load-error",
    ])
    def test_failed_build_falls_back_and_cleans_up(
        self, monkeypatch, tmp_path, fresh_kernel, failure
    ):
        def fail(*args, **kwargs):
            raise {"compiler-error": subprocess.CalledProcessError(1, "cc"),
                   "compiler-timeout": subprocess.TimeoutExpired("cc", 60),
                   "compiler-missing": FileNotFoundError("cc"),
                   "load-error": OSError("cannot load")}[failure]

        monkeypatch.setattr(tempfile, "tempdir", str(tmp_path))
        monkeypatch.setattr(shutil, "which", lambda name: "cc")
        if failure == "load-error":
            monkeypatch.setattr(subprocess, "run", lambda *args, **kwargs: None)
            monkeypatch.setattr(ctypes, "CDLL", fail)
        else:
            monkeypatch.setattr(subprocess, "run", fail)
        assert neural_core.adam_kernel() is None
        assert list(tmp_path.iterdir()) == []
        p, q = np.linspace(-1.0, 1.0, 7), np.linspace(-1.0, 1.0, 7)
        sp, sq = AdamState.for_params(p), AdamState.for_params(q)
        for g in (np.full(7, 0.3), np.linspace(2.0, -2.0, 7)):
            adam_step(p, g, sp)
            _passes_step(q, g, sq)
        assert np.array_equal(p, q) and np.array_equal(sp.second_moment, sq.second_moment)

    @needs_compiler
    def test_bad_flag_falls_back(self, monkeypatch, tmp_path, fresh_kernel):
        monkeypatch.setattr(tempfile, "tempdir", str(tmp_path))
        monkeypatch.setattr(neural_core, "_ADAM_BUILD",
                            neural_core._ADAM_BUILD + ("-fno-such-flag",))
        assert neural_core.adam_kernel() is None
        assert list(tmp_path.iterdir()) == []

    @needs_compiler
    def test_build_leaves_no_file(self, monkeypatch, tmp_path, fresh_kernel):
        monkeypatch.setattr(tempfile, "tempdir", str(tmp_path))
        assert neural_core.adam_kernel() is not None
        assert list(tmp_path.iterdir()) == []


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


def _old_backward(net, cache, g, out):
    # backward() as first written, with np.sum for the bias gradient
    for i in range(len(net.weights) - 1, -1, -1):
        np.matmul(cache.inputs[i].T, g, out=out.weights[i])
        np.sum(g, axis=0, out=out.biases[i])
        if i > 0:
            g = g @ net.weights[i].T
            g *= np.where(cache.pre_activations[i - 1] >= 0, 1.0, 0.01)
    return out


def _same_bits(a, b):
    (a_nan, a_bits), (b_nan, b_bits) = _bits(a), _bits(b)
    return np.array_equal(a_nan, b_nan) and np.array_equal(a_bits, b_bits)


@pytest.mark.parametrize("rows", [1, 7, 65])
def test_leaky_relu_gradient_bit_identical_on_special_pre_activations(rows):
    # backward's leaky-ReLU gradient against g * np.where(z >= 0, 1.0, 0.01) on
    # hidden pre-activations z salted with NaN, +-0.0 and +-inf: a NaN z keeps
    # the 0.01 factor, so a mask written as z < 0 fails here
    special = np.array([np.nan, 0.0, -0.0, np.inf, -np.inf])
    net = DenseNetwork.create((3, 16, 16, 2), seed=[rows])
    with np.errstate(over="ignore", invalid="ignore"):
        for seed in range(5):
            rng = np.random.default_rng([seed, rows])
            _, cache = forward(net, rng.uniform(-1.0, 1.0, (rows, 3)))
            for z in cache.pre_activations[:-1]:
                z[...] = rng.normal(0.0, 2.0, z.shape)
                k = z.size // 3 + 1
                z.flat[rng.integers(0, z.size, k)] = rng.choice(special, k)
            d_out = rng.normal(0.0, 1.0, (rows, 2))
            got = backward(net, cache, d_out, out=DenseNetwork.zeros(net.layer_dims))
            want = _old_backward(net, cache, d_out, DenseNetwork.zeros(net.layer_dims))
            assert _same_bits(got.flat_params, want.flat_params), (rows, seed)


@pytest.mark.parametrize("rows", [1, 10, 65, 240])
def test_reductions_bit_identical_to_old_formulas(rows):
    # batches as the members train on them, up to a full 240-row table;
    # seeds 2 and 3 put non-finite and extreme entries into every input
    special = np.array([np.inf, -np.inf, np.nan, 1e300, -1e300, 5e-324, -0.0])
    with np.errstate(over="ignore", invalid="ignore"):
        for seed in range(4):
            rng = np.random.default_rng([seed, rows])
            for member in (DplNetwork(3, seed=[seed]), ConditionedNetwork(3, seed=[seed])):
                net = member.body
                x = rng.uniform(0.0, 1.0, (rows, net.layer_dims[0]))
                d_out = rng.normal(0.0, 1.0 / rows, (rows, net.layer_dims[-1]))
                pred, y = rng.normal(size=rows), rng.normal(size=rows)
                if seed >= 2:
                    for a in (x, d_out, pred, y):
                        a.flat[rng.integers(0, a.size, 3)] = rng.choice(special, 3)
                assert _same_bits(l1_loss(pred, y)[0], float(np.mean(np.abs(pred - y))))
                _, cache = forward(net, x)
                got = backward(net, cache, d_out, out=DenseNetwork.zeros(net.layer_dims))
                want = _old_backward(net, cache, d_out, DenseNetwork.zeros(net.layer_dims))
                assert _same_bits(got.flat_params, want.flat_params), (rows, seed, net.layer_dims)

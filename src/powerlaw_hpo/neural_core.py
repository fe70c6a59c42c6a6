"""Minimal dense-network machinery with hand-written gradients.

Everything runs in float64: the networks involved are tiny, and exact
reproducibility plus finite-difference-checkable gradients matter far
more here than raw speed.  Hidden layers use Leaky ReLU, the output
layer is linear.

All parameters of a network live in one flat buffer; the per-layer
weight matrices and bias vectors are views into it, so optimizer updates
can run as a few whole-buffer operations.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

DEFAULT_LEAKY_SLOPE = 0.01
# Adam's standard moment decay rates and denominator guard
ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPSILON = 1e-8


def sigmoid(x: np.ndarray) -> np.ndarray:
    """Numerically stable logistic sigmoid of an array."""
    x = np.asarray(x, dtype=float)
    # exp(-|x|) never overflows: 1 / (1 + e^-x) for x >= 0, e^x / (1 + e^x) below
    e = np.exp(-np.abs(x))
    return np.where(x >= 0, 1.0, e) / (1.0 + e)


def leaky_relu(x):
    return np.maximum(x, DEFAULT_LEAKY_SLOPE * x)


def _leaky_relu_grad(x):
    return np.where(x >= 0, 1.0, DEFAULT_LEAKY_SLOPE)


def _layer_slices(layer_dims: tuple[int, ...]) -> tuple[list[tuple], int]:
    """(weight_slice_and_shape, bias_slice) bookkeeping for the flat buffer."""
    slices = []
    offset = 0
    for fan_in, fan_out in zip(layer_dims[:-1], layer_dims[1:]):
        w = (offset, offset + fan_in * fan_out, (fan_in, fan_out))
        offset = w[1]
        b = (offset, offset + fan_out)
        offset = b[1]
        slices.append((w, b))
    return slices, offset


def _views(flat: np.ndarray, layer_dims) -> tuple[list[np.ndarray], list[np.ndarray]]:
    slices, _ = _layer_slices(layer_dims)
    weights = [flat[a:b].reshape(shape) for (a, b, shape), _ in slices]
    biases = [flat[a:b] for _, (a, b) in slices]
    return weights, biases


@dataclass
class DenseNetwork:
    """Fully connected network: ``layer_dims[0] -> ... -> layer_dims[-1]``.

    ``weights[i]`` has shape (layer_dims[i], layer_dims[i+1]) so batches
    are row vectors; biases are 1-D.  ``weights``/``biases`` are views
    into ``flat_params``.
    """

    layer_dims: tuple[int, ...]
    flat_params: np.ndarray
    weights: list[np.ndarray]
    biases: list[np.ndarray]

    @classmethod
    def create(cls, layer_dims, seed) -> "DenseNetwork":
        dims = tuple(int(d) for d in layer_dims)
        if len(dims) < 2 or any(d <= 0 for d in dims):
            raise ValueError(f"layer_dims must be >= 2 positive entries, got {dims}")
        _, size = _layer_slices(dims)
        flat = np.zeros(size)
        weights, biases = _views(flat, dims)
        net = cls(layer_dims=dims, flat_params=flat, weights=weights, biases=biases)
        init_weights(net, seed)
        return net


def init_weights(net: DenseNetwork, seed) -> DenseNetwork:
    """Re-draw parameters in place: weights uniform in +-sqrt(1/fan_in), biases zero.

    Deterministic for a given seed (int or sequence of ints).
    """
    rng = np.random.default_rng(seed)
    for fan_in, w, b in zip(net.layer_dims[:-1], net.weights, net.biases):
        bound = float(np.sqrt(1.0 / fan_in))
        w[...] = rng.uniform(-bound, bound, size=w.shape)
        b[...] = 0.0
    return net


@dataclass
class ForwardCache:
    """Activation record from one forward pass, consumed by backward()."""

    inputs: list[np.ndarray]          # layer inputs, inputs[0] is the network input
    pre_activations: list[np.ndarray]


def forward(net: DenseNetwork, inputs) -> tuple[np.ndarray, ForwardCache]:
    """Run the network on a batch (rows = samples)."""
    x = np.asarray(inputs, dtype=float)
    if x.ndim != 2 or x.shape[1] != net.layer_dims[0]:
        raise ValueError(
            f"input shape {x.shape} is not (rows, layer_dims[0]={net.layer_dims[0]})"
        )
    layer_inputs = [x]
    pre_activations = []
    n_layers = len(net.weights)
    for i, (w, b) in enumerate(zip(net.weights, net.biases)):
        z = x @ w
        z += b
        pre_activations.append(z)
        x = leaky_relu(z) if i < n_layers - 1 else z
        if i < n_layers - 1:
            layer_inputs.append(x)
    return x, ForwardCache(layer_inputs, pre_activations)


@dataclass
class GradientBundle:
    """Per-parameter gradients, shape-congruent with a DenseNetwork.

    ``weights``/``biases`` are views into ``flat``, laid out like the
    network's ``flat_params``, so optimizers see the whole gradient as
    one vector.
    """

    weights: list[np.ndarray]
    biases: list[np.ndarray]
    flat: np.ndarray

    @classmethod
    def zeros_for(cls, net: DenseNetwork) -> "GradientBundle":
        flat = np.zeros_like(net.flat_params)
        weights, biases = _views(flat, net.layer_dims)
        return cls(weights=weights, biases=biases, flat=flat)


def backward(
    net: DenseNetwork, cache: ForwardCache, output_gradient, out: GradientBundle | None = None
) -> GradientBundle:
    """Backpropagate a gradient w.r.t. the network output through the cache.

    The output gradient must match the shape produced by the paired
    forward() call; batch gradients are summed over the batch (loss
    functions already fold in any 1/n factor).  Passing ``out`` reuses its
    buffers instead of allocating.
    """
    g = np.asarray(output_gradient, dtype=float)
    n_layers = len(net.weights)
    if len(cache.pre_activations) != n_layers or g.shape != cache.pre_activations[-1].shape:
        raise ValueError("cache does not match this network/output gradient")
    bundle = out if out is not None else GradientBundle.zeros_for(net)
    for i in range(n_layers - 1, -1, -1):
        # g is the gradient w.r.t. pre-activation z_i here
        np.matmul(cache.inputs[i].T, g, out=bundle.weights[i])
        np.sum(g, axis=0, out=bundle.biases[i])
        if i > 0:
            g = g @ net.weights[i].T
            g *= _leaky_relu_grad(cache.pre_activations[i - 1])
    return bundle


def l1_loss(predictions, targets) -> tuple[float, np.ndarray]:
    """Mean absolute error and its (sub)gradient, with sign(0) = 0."""
    p = np.asarray(predictions, dtype=float)
    t = np.asarray(targets, dtype=float)
    if p.shape != t.shape or p.size == 0:
        raise ValueError(f"shape mismatch or empty input: {p.shape} vs {t.shape}")
    diff = p - t
    loss = float(np.mean(np.abs(diff)))
    grad = np.sign(diff) / diff.size
    return loss, grad


@dataclass
class AdamState:
    """Adam optimizer moments for one flat parameter vector."""

    first_moment: np.ndarray
    second_moment: np.ndarray
    step_count: int = 0
    lr: float = 1e-3
    _scratch: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        self._scratch = np.empty_like(self.first_moment)

    @classmethod
    def for_params(cls, param: np.ndarray, lr: float = 1e-3) -> "AdamState":
        return cls(first_moment=np.zeros_like(param), second_moment=np.zeros_like(param), lr=lr)


def adam_step(param: np.ndarray, grad: np.ndarray, state: AdamState) -> None:
    """One bias-corrected Adam update, applied to ``param`` in place."""
    if param.shape != grad.shape:
        raise ValueError(f"gradient shape {grad.shape} does not match parameter {param.shape}")
    state.step_count += 1
    t = state.step_count
    bc1 = 1.0 - ADAM_BETA1**t
    bc2 = 1.0 - ADAM_BETA2**t
    scale = state.lr / bc1
    m, v, s = state.first_moment, state.second_moment, state._scratch
    m *= ADAM_BETA1
    np.multiply(grad, 1.0 - ADAM_BETA1, out=s)
    m += s
    v *= ADAM_BETA2
    np.multiply(grad, grad, out=s)
    s *= 1.0 - ADAM_BETA2
    v += s
    np.divide(v, bc2, out=s)
    np.sqrt(s, out=s)
    s += ADAM_EPSILON
    np.divide(m, s, out=s)
    s *= scale
    param -= s

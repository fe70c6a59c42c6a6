"""Minimal dense-network machinery with hand-written gradients.

Everything runs in float64: the networks involved are tiny, and exact
reproducibility plus finite-difference-checkable gradients matter far
more here than raw speed.  Hidden layers use Leaky ReLU, the output
layer is linear.

All parameters of a network live in one flat buffer; the per-layer
weight matrices and bias vectors are views into it, so optimizer updates
can run as a few whole-buffer operations.  A gradient shares that
layout: it is itself a ``DenseNetwork`` (see ``DenseNetwork.zeros``),
and ``backward`` writes into its parameters.
"""

from __future__ import annotations

import ctypes
import functools
import shutil
import subprocess
import tempfile
from dataclasses import dataclass, field
from pathlib import Path

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
    def zeros(cls, layer_dims) -> "DenseNetwork":
        """A network whose parameters are all zero (also the layout of a gradient)."""
        dims = tuple(int(d) for d in layer_dims)
        if len(dims) < 2 or any(d <= 0 for d in dims):
            raise ValueError(f"layer_dims must be >= 2 positive entries, got {dims}")
        flat = np.zeros(sum((fan_in + 1) * fan_out for fan_in, fan_out in zip(dims, dims[1:])))
        weights, biases = [], []
        offset = 0
        for fan_in, fan_out in zip(dims, dims[1:]):
            weights.append(flat[offset : offset + fan_in * fan_out].reshape(fan_in, fan_out))
            offset += fan_in * fan_out
            biases.append(flat[offset : offset + fan_out])
            offset += fan_out
        return cls(layer_dims=dims, flat_params=flat, weights=weights, biases=biases)

    @classmethod
    def create(cls, layer_dims, seed) -> "DenseNetwork":
        net = cls.zeros(layer_dims)
        init_weights(net, seed)
        return net


def init_weights(net: DenseNetwork, seed) -> None:
    """Re-draw parameters in place: weights uniform in +-sqrt(1/fan_in), biases zero.

    Deterministic for a given seed (int or sequence of ints).
    """
    rng = np.random.default_rng(seed)
    for fan_in, w, b in zip(net.layer_dims[:-1], net.weights, net.biases):
        bound = float(np.sqrt(1.0 / fan_in))
        w[...] = rng.uniform(-bound, bound, size=w.shape)
        b[...] = 0.0


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


def backward(
    net: DenseNetwork, cache: ForwardCache, output_gradient, out: DenseNetwork
) -> DenseNetwork:
    """Backpropagate a gradient w.r.t. the network output through the cache
    into the parameters of ``out`` (a network of the same ``layer_dims``),
    which is returned.

    The output gradient must match the shape produced by the paired
    forward() call; batch gradients are summed over the batch (loss
    functions already fold in any 1/n factor).
    """
    g = np.asarray(output_gradient, dtype=float)
    n_layers = len(net.weights)
    if len(cache.pre_activations) != n_layers or g.shape != cache.pre_activations[-1].shape:
        raise ValueError("cache does not match this network/output gradient")
    for i in range(n_layers - 1, -1, -1):
        # g is the gradient w.r.t. pre-activation z_i here
        np.matmul(cache.inputs[i].T, g, out=out.weights[i])
        np.add.reduce(g, axis=0, out=out.biases[i])  # np.sum without its wrapper
        if i > 0:
            g = g @ net.weights[i].T
            g *= _leaky_relu_grad(cache.pre_activations[i - 1])
    return out


def l1_loss(predictions, targets) -> tuple[float, np.ndarray]:
    """Mean absolute error and its (sub)gradient, with sign(0) = 0."""
    p = np.asarray(predictions, dtype=float)
    t = np.asarray(targets, dtype=float)
    if p.shape != t.shape or p.size == 0:
        raise ValueError(f"shape mismatch or empty input: {p.shape} vs {t.shape}")
    diff = p - t
    # np.mean's own sum-then-divide, without its wrapper
    loss = float(np.add.reduce(np.abs(diff), axis=None) / diff.size)
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


# adam_step's element loop as one sweep, with the numpy passes' operations in
# their order.  When two buffers overlap it touches nothing and returns 1:
# the passes, which finish each operation on all elements before the next,
# then do the step.
_ADAM_SOURCE = r"""
#include <math.h>
#include <stddef.h>
#include <stdint.h>

static int apart(const double *a, const double *b, size_t n) {
    uintptr_t x = (uintptr_t)a, y = (uintptr_t)b, len = n * sizeof(double);
    return x + len <= y || y + len <= x;
}

int adam_update(double *p, const double *g, double *m, double *v, size_t n,
                double b1, double c1, double b2, double c2, double bc2, double eps,
                double scale) {
    if (!(apart(p, g, n) && apart(p, m, n) && apart(p, v, n) && apart(g, m, n)
          && apart(g, v, n) && apart(m, v, n)))
        return 1;
    for (size_t i = 0; i < n; i++) {
        double gi = g[i], mi = m[i] * b1 + gi * c1, vi = v[i] * b2 + (gi * gi) * c2;
        m[i] = mi;
        v[i] = vi;
        p[i] = p[i] - mi / (sqrt(vi / bc2) + eps) * scale;
    }
    return 0;
}
"""
# no FMA contraction and no fast-math, so every operation rounds as numpy's does;
# without errno, sqrt vectorizes
_ADAM_BUILD = ("-O3", "-march=native", "-ffp-contract=off", "-fno-math-errno", "-shared", "-fPIC")


@functools.cache
def adam_kernel():
    """The compiled Adam loop, built by the first call in each process, or
    None when no C compiler builds and loads it (``adam_step`` then runs its
    numpy passes).  The library lives in a temporary directory that is
    removed once it is loaded."""
    cc = shutil.which("cc")
    if cc is None:
        return None
    with tempfile.TemporaryDirectory() as tmp:
        lib = Path(tmp) / "adam.so"
        try:
            subprocess.run([cc, *_ADAM_BUILD, "-x", "c", "-", "-o", str(lib)],
                           input=_ADAM_SOURCE, text=True, capture_output=True,
                           check=True, timeout=60)
            kernel = ctypes.CDLL(str(lib)).adam_update
        except (OSError, subprocess.SubprocessError):
            return None
    kernel.argtypes = [ctypes.c_void_p] * 4 + [ctypes.c_size_t] + [ctypes.c_double] * 7
    kernel.restype = ctypes.c_int
    return kernel


def adam_step(param: np.ndarray, grad: np.ndarray, state: AdamState) -> None:
    """One bias-corrected Adam update, applied to ``param`` in place.

    The compiled loop of ``adam_kernel`` does the update when every operand
    is an aligned, writeable, C-contiguous float64 array of ``param``'s
    shape and no two overlap; otherwise, or without a compiler, the numpy
    passes below do.  Both give the same bits.
    """
    if param.shape != grad.shape:
        raise ValueError(f"gradient shape {grad.shape} does not match parameter {param.shape}")
    state.step_count += 1
    t = state.step_count
    bc1 = 1.0 - ADAM_BETA1**t
    bc2 = 1.0 - ADAM_BETA2**t
    scale = state.lr / bc1
    m, v, s = state.first_moment, state.second_moment, state._scratch
    kernel = adam_kernel()
    if kernel is not None and all(
        isinstance(a, np.ndarray) and a.dtype == np.float64 and a.shape == param.shape
        and a.flags.carray for a in (param, grad, m, v)
    ) and kernel(param.ctypes.data, grad.ctypes.data, m.ctypes.data, v.ctypes.data,
                 param.size, ADAM_BETA1, 1.0 - ADAM_BETA1, ADAM_BETA2, 1.0 - ADAM_BETA2,
                 bc2, ADAM_EPSILON, float(scale)) == 0:
        return
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

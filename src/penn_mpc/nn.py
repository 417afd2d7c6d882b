"""Minimal dense-network engine: forward pass, exact backprop, Adam.

Sized for small MLPs with no ML-framework dependency. Training runs in
double precision; the forward pass follows the parameters' dtype, so the
controller's rollouts run it in float32 on a cast copy of the members while
every float64 network computes exactly as before. Every operation is pure:
inputs are never mutated and fresh arrays are returned, so read-only
parameter sharing across concurrent evaluations is safe by construction.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, ShapeError, TrainingError

ACTIVATIONS = ("tanh", "relu", "identity")


@dataclass
class LayerParams:
    """One affine layer: ``y = W x + b`` with W of shape (out_dim, in_dim)."""

    weights: np.ndarray
    biases: np.ndarray

    @property
    def in_dim(self) -> int:
        return self.weights.shape[1]

    @property
    def out_dim(self) -> int:
        return self.weights.shape[0]

    def copy(self) -> "LayerParams":
        return LayerParams(self.weights.copy(), self.biases.copy())


@dataclass
class MlpParams:
    """Stack of affine layers with one hidden activation applied between them.

    The final layer is always linear; ``activation`` applies to every hidden
    layer. ``seed`` records the value used at initialization.
    """

    layers: list[LayerParams]
    activation: str = "tanh"
    seed: int = 0

    @property
    def layer_sizes(self) -> list[int]:
        sizes = [self.layers[0].in_dim]
        sizes.extend(layer.out_dim for layer in self.layers)
        return sizes

    def copy(self) -> "MlpParams":
        return MlpParams([l.copy() for l in self.layers], self.activation, self.seed)


@dataclass
class ForwardCache:
    """Per-layer activations from one forward pass, enough for exact backprop.

    ``inputs[k]`` is the input to layer k, so ``inputs[k + 1]`` is hidden
    layer k's activation, from which ``mlp_backward`` takes the activation's
    derivative. ``output`` is the final (linear) layer's batch output.
    Every array is one the pass computes anyway.
    """

    inputs: list[np.ndarray]
    output: np.ndarray


# Adam hyperparameters; only the learning rate is configurable.
ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPSILON = 1e-8


@dataclass
class AdamState:
    """Adam accumulators: one flat float64 vector each for m and v, laid out
    as the layers' weights then biases, layer by layer."""

    m: np.ndarray
    v: np.ndarray
    step: int = 0
    lr: float = 1e-3

    @classmethod
    def init(cls, params: MlpParams, lr: float = 1e-3) -> "AdamState":
        n = sum(l.weights.size + l.biases.size for l in params.layers)
        return cls(m=np.zeros(n), v=np.zeros(n), step=0, lr=lr)


def _flatten(layers: list[LayerParams]) -> np.ndarray:
    return np.concatenate([a.ravel() for l in layers for a in (l.weights, l.biases)])


def _unflatten(flat: np.ndarray, like: list[LayerParams]) -> list[LayerParams]:
    """Per-layer views of ``flat`` shaped like ``like``."""
    layers, lo = [], 0
    for l in like:
        w_hi = lo + l.weights.size
        b_hi = w_hi + l.biases.size
        layers.append(LayerParams(flat[lo:w_hi].reshape(l.weights.shape),
                                  flat[w_hi:b_hi]))
        lo = b_hi
    return layers


def init_params(layer_sizes: list[int], activation: str = "tanh",
                seed: int = 0) -> MlpParams:
    """Initialize an MLP with fan-in scaled uniform weights and zero biases.

    Weights are drawn from U(-sqrt(3/fan_in), +sqrt(3/fan_in)), which has
    variance exactly 1/fan_in. Deterministic given ``seed``.
    """
    if len(layer_sizes) < 2:
        raise ConfigError(f"need at least input and output sizes, got {layer_sizes}")
    if any(int(s) < 1 for s in layer_sizes):
        raise ConfigError(f"all layer sizes must be >= 1, got {layer_sizes}")
    if activation not in ACTIVATIONS:
        raise ConfigError(f"unknown activation {activation!r}, expected one of {ACTIVATIONS}")
    rng = np.random.default_rng(seed)
    layers = []
    for fan_in, fan_out in zip(layer_sizes[:-1], layer_sizes[1:]):
        limit = np.sqrt(3.0 / fan_in)
        w = rng.uniform(-limit, limit, size=(fan_out, fan_in))
        layers.append(LayerParams(w, np.zeros(fan_out)))
    return MlpParams(layers=layers, activation=activation, seed=seed)


def mlp_forward(params: MlpParams, x: np.ndarray) -> tuple[np.ndarray, ForwardCache]:
    """Run the network on a (batch, in_dim) matrix.

    The input is cast to the first layer's weight dtype, so float32
    parameters give a float32 pass and float64 parameters a float64 one.
    Returns the (batch, out_dim) output and a cache for ``mlp_backward``.
    """
    x = np.asarray(x, dtype=params.layers[0].weights.dtype)
    if x.ndim != 2 or x.shape[1] != params.layers[0].in_dim:
        raise ShapeError(f"expected a (batch, {params.layers[0].in_dim}) "
                         f"input, got shape {x.shape}")
    inputs = []
    h = x
    last = len(params.layers) - 1
    for k, layer in enumerate(params.layers):
        inputs.append(h)
        h = h @ layer.weights.T
        h += layer.biases
        if k != last:
            if params.activation == "tanh":
                np.tanh(h, out=h)
            elif params.activation == "relu":
                np.maximum(h, 0.0, out=h)
    return h, ForwardCache(inputs=inputs, output=h)


def mlp_backward(params: MlpParams, cache: ForwardCache,
                 output_grad: np.ndarray) -> list[LayerParams]:
    """Exact reverse-mode gradients for the scalar whose output gradient is given.

    ``output_grad`` has the shape of the forward output; the parameter
    gradients are summed over the batch. The activation's derivative
    comes from the activations the cache holds: ``1 - a*a`` for tanh,
    ``a > 0`` for relu and one for identity. Returns per-layer grads (in
    LayerParams containers); the gradient w.r.t. the input is not computed.
    """
    g = np.asarray(output_grad, dtype=np.float64)
    n_layers = len(params.layers)
    if len(cache.inputs) != n_layers:
        raise ShapeError("cache does not match network depth")
    if g.shape != cache.output.shape:
        raise ShapeError(
            f"output_grad shape {g.shape} != output shape {cache.output.shape}")
    grads: list[LayerParams] = [None] * n_layers  # type: ignore[list-item]
    for k in range(n_layers - 1, -1, -1):
        layer = params.layers[k]
        if cache.inputs[k].shape[1] != layer.in_dim:
            raise ShapeError("cache does not match layer shapes")
        if k != n_layers - 1:
            # g is the fresh product from the layer above, never the caller's
            a = cache.inputs[k + 1]
            if params.activation == "tanh":
                d = a * a
                np.subtract(1.0, d, out=d)
                g *= d
            elif params.activation == "relu":
                g *= a > 0.0
        grads[k] = LayerParams(g.T @ cache.inputs[k], g.sum(axis=0))
        if k:
            g = g @ layer.weights
    return grads


def adam_step(params: MlpParams, grads: list[LayerParams],
              state: AdamState) -> tuple[MlpParams, AdamState]:
    """One Adam update with bias correction. Pure: returns new params/state.

    The update runs on the flattened parameters and gradients, so the new
    parameters' layers are views of one fresh flat vector. Raises
    TrainingError on non-finite gradients rather than clamping them.
    """
    if len(grads) != len(params.layers):
        raise ShapeError("gradient list does not match layer count")
    for g, p in zip(grads, params.layers):
        if g.weights.shape != p.weights.shape or g.biases.shape != p.biases.shape:
            raise ShapeError("gradient shapes do not mirror parameter shapes")
    g = _flatten(grads)
    if not np.isfinite(g).all():
        raise TrainingError("non-finite gradient passed to adam_step")
    t = state.step + 1
    b1, b2 = ADAM_BETA1, ADAM_BETA2
    corr1 = 1.0 - b1 ** t
    corr2 = 1.0 - b2 ** t
    m = b1 * state.m + (1 - b1) * g
    v = b2 * state.v + (1 - b2) * g ** 2
    flat = _flatten(params.layers) - state.lr * (m / corr1) / (np.sqrt(v / corr2)
                                                              + ADAM_EPSILON)
    new_params = MlpParams(_unflatten(flat, params.layers), params.activation,
                           params.seed)
    return new_params, AdamState(m=m, v=v, step=t, lr=state.lr)

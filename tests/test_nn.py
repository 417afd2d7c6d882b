"""Dense-network engine: init, forward, exact backprop, Adam."""

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from penn_mpc import nn
from penn_mpc.errors import ConfigError, ShapeError, TrainingError


def test_init_deterministic():
    a = nn.init_params([2, 1], seed=7)
    b = nn.init_params([2, 1], seed=7)
    for la, lb in zip(a.layers, b.layers):
        assert np.array_equal(la.weights, lb.weights)
        assert np.array_equal(la.biases, lb.biases)


def test_init_shapes():
    p = nn.init_params([3, 64, 64, 6], seed=0)
    assert p.layer_sizes == [3, 64, 64, 6]
    assert len(p.layers) == 3
    assert p.layers[0].weights.shape == (64, 3)
    assert p.layers[-1].out_dim == 6
    assert all(np.all(l.biases == 0.0) for l in p.layers)


def test_init_variance_scaled_by_fan_in():
    # fan-in 64, > 1e4 draws: weight variance within 20% of 1/64
    p = nn.init_params([64, 200], seed=3)
    var = p.layers[0].weights.var()
    assert abs(var - 1.0 / 64.0) < 0.2 / 64.0


def test_init_rejects_bad_sizes():
    with pytest.raises(ConfigError):
        nn.init_params([4], seed=0)
    with pytest.raises(ConfigError):
        nn.init_params([4, 0, 2], seed=0)
    with pytest.raises(ConfigError):
        nn.init_params([4, 2], activation="softplus", seed=0)


def _identity_net(n):
    p = nn.init_params([n, n], activation="identity", seed=0)
    p.layers[0].weights = np.eye(n)
    p.layers[0].biases = np.zeros(n)
    return p


# The forward and backward passes take (batch, in_dim) inputs only; the
# cases below that once passed a vector pass a one-row batch, which covers the
# same arithmetic (test_forward_rejects_vector_input covers the rejection).


def test_forward_identity_net():
    p = _identity_net(3)
    x = np.array([[0.3, -1.2, 4.0]])
    y, _ = nn.mlp_forward(p, x)
    assert np.allclose(y, x, atol=0)


def test_forward_single_tanh_unit():
    p = nn.init_params([1, 1, 1], activation="tanh", seed=0)
    p.layers[0].weights[:] = 1.0
    p.layers[0].biases[:] = 0.0
    p.layers[1].weights[:] = 1.0
    p.layers[1].biases[:] = 0.0
    y, _ = nn.mlp_forward(p, np.array([[0.5]]))
    assert y[0, 0] == pytest.approx(0.46211716, abs=1e-8)


def test_forward_zero_weights_gives_bias():
    p = nn.init_params([4, 8, 2], seed=1)
    for layer in p.layers:
        layer.weights[:] = 0.0
    p.layers[-1].biases[:] = [1.5, -2.0]
    y, _ = nn.mlp_forward(p, np.array([[9.0, -3.0, 2.0, 7.0]]))
    assert np.allclose(y, [[1.5, -2.0]])


def test_forward_dim_mismatch():
    p = nn.init_params([4, 2], seed=0)
    with pytest.raises(ShapeError):
        nn.mlp_forward(p, np.zeros((1, 5)))


def test_forward_rejects_vector_input():
    p = nn.init_params([4, 2], seed=0)
    with pytest.raises(ShapeError):
        nn.mlp_forward(p, np.zeros(4))


def test_forward_batch_matches_rowwise():
    p = nn.init_params([5, 16, 4], seed=2)
    x = np.random.default_rng(0).normal(size=(11, 5))
    batch, _ = nn.mlp_forward(p, x)
    for i in range(11):
        row, _ = nn.mlp_forward(p, x[i:i + 1])
        assert np.all(np.abs(batch[i] - row[0]) < 1e-12)


def test_affine_with_identity_activation():
    p = nn.init_params([4, 6, 3], activation="identity", seed=5)
    rng = np.random.default_rng(1)
    x = rng.normal(size=(1, 4))
    f = lambda v: nn.mlp_forward(p, v)[0]
    alpha = 2.7
    lhs = f(alpha * x) - f(np.zeros((1, 4)))
    rhs = alpha * (f(x) - f(np.zeros((1, 4))))
    assert np.all(np.abs(lhs - rhs) < 1e-9)


def test_backward_linear_chain_rule():
    # y = v (w x + b) + c with w=2, v=5, x=3: dL/dv=w x=6, dL/dc=1, and the
    # chain through v reaches the first layer: dL/dw=v x=15, dL/db=v=5
    p = nn.init_params([1, 1, 1], activation="identity", seed=0)
    p.layers[0].weights[:] = 2.0
    p.layers[1].weights[:] = 5.0
    _, cache = nn.mlp_forward(p, np.array([[3.0]]))
    grads = nn.mlp_backward(p, cache, np.array([[1.0]]))
    assert len(grads) == 2
    assert grads[1].weights[0, 0] == pytest.approx(6.0)
    assert grads[1].biases[0] == pytest.approx(1.0)
    assert grads[0].weights[0, 0] == pytest.approx(15.0)
    assert grads[0].biases[0] == pytest.approx(5.0)


def test_backward_zero_grad():
    p = nn.init_params([3, 5, 2], seed=0)
    x = np.ones((1, 3))
    _, cache = nn.mlp_forward(p, x)
    grads = nn.mlp_backward(p, cache, np.zeros((1, 2)))
    assert [g.weights.shape for g in grads] == [(5, 3), (2, 5)]
    assert all(np.all(g.weights == 0) and np.all(g.biases == 0) for g in grads)


def _fd_check(p, x, proj, rel_tol=1e-4, h=1e-5):
    """Central finite differences on L = sum(proj * f(x)) for every param."""
    y, cache = nn.mlp_forward(p, x)
    grads = nn.mlp_backward(p, cache, proj)
    worst = 0.0
    for li, layer in enumerate(p.layers):
        for arr, g in ((layer.weights, grads[li].weights),
                       (layer.biases, grads[li].biases)):
            flat = arr.reshape(-1)
            gflat = g.reshape(-1)
            for j in range(flat.size):
                orig = flat[j]
                flat[j] = orig + h
                yp, _ = nn.mlp_forward(p, x)
                flat[j] = orig - h
                ym, _ = nn.mlp_forward(p, x)
                flat[j] = orig
                fd = (np.sum(proj * yp) - np.sum(proj * ym)) / (2 * h)
                denom = max(abs(fd), abs(gflat[j]), 1e-8)
                worst = max(worst, abs(fd - gflat[j]) / denom)
    assert worst < rel_tol, f"worst rel error {worst}"


@pytest.mark.parametrize("activation", ["tanh", "relu", "identity"])
def test_backward_matches_finite_differences(activation):
    rng = np.random.default_rng(hash(activation) % 2**31)
    p = nn.init_params([5, 8, 4], activation=activation, seed=11)
    # keep relu pre-activations away from the kink
    x = rng.normal(size=(3, 5))
    proj = rng.normal(size=(3, 4))
    _fd_check(p, x, proj)


def test_backward_fd_larger_net():
    rng = np.random.default_rng(42)
    p = nn.init_params([10, 16, 16, 6], activation="tanh", seed=9)
    x = rng.normal(size=(2, 10))
    proj = rng.normal(size=(2, 6))
    _fd_check(p, x, proj)


def test_backward_stale_cache_rejected():
    p = nn.init_params([3, 4, 2], seed=0)
    _, cache = nn.mlp_forward(p, np.ones((1, 3)))
    other = nn.init_params([3, 5, 2], seed=0)
    with pytest.raises(ShapeError):
        nn.mlp_backward(other, cache, np.ones((1, 2)))
    with pytest.raises(ShapeError):
        nn.mlp_backward(p, cache, np.ones((1, 3)))
    with pytest.raises(ShapeError):
        nn.mlp_backward(p, cache, np.ones(2))


def test_adam_zero_grads_leave_params():
    p = nn.init_params([2, 3], seed=4)
    g = [nn.LayerParams(np.zeros_like(l.weights), np.zeros_like(l.biases))
         for l in p.layers]
    state = nn.AdamState.init(p)
    p2, state2 = nn.adam_step(p, g, state)
    assert state2.step == 1
    for l1, l2 in zip(p.layers, p2.layers):
        assert np.array_equal(l1.weights, l2.weights)
        assert np.array_equal(l1.biases, l2.biases)


def test_adam_first_step_magnitude():
    # with g=1 the bias corrections cancel and the step is ~ -lr
    p = nn.init_params([1, 1], activation="identity", seed=0)
    w0 = p.layers[0].weights[0, 0]
    g = [nn.LayerParams(np.array([[1.0]]), np.array([0.0]))]
    p2, _ = nn.adam_step(p, g, nn.AdamState.init(p))
    delta = p2.layers[0].weights[0, 0] - w0
    assert delta == pytest.approx(-9.99999e-4, abs=1e-9)


def test_adam_pure_function():
    p = nn.init_params([3, 2], seed=8)
    g = [nn.LayerParams(np.full_like(p.layers[0].weights, 0.3),
                        np.full_like(p.layers[0].biases, -0.2))]
    state = nn.AdamState.init(p)
    a1, s1 = nn.adam_step(p, g, state)
    a2, s2 = nn.adam_step(p, g, state)
    assert np.array_equal(a1.layers[0].weights, a2.layers[0].weights)
    assert s1.step == s2.step == 1
    # the accumulators are flat vectors, weights then biases
    assert np.array_equal(s1.m, s2.m) and np.array_equal(s1.v, s2.v)
    assert not state.m.any() and not state.v.any() and state.step == 0


def _reference_adam(layers, grads, ms, vs, t, lr):
    """One Adam step array by array, with the update's operand order; the
    accumulators are per-layer (weights, biases) pairs."""
    b1, b2, eps = nn.ADAM_BETA1, nn.ADAM_BETA2, nn.ADAM_EPSILON
    corr1 = 1.0 - b1 ** t
    corr2 = 1.0 - b2 ** t
    out, out_m, out_v = [], [], []
    for p, g, m, v in zip(layers, grads, ms, vs):
        new_p, new_m, new_v = [], [], []
        for pa, ga, ma, va in zip(p, g, m, v):
            ma = b1 * ma + (1 - b1) * ga
            va = b2 * va + (1 - b2) * ga ** 2
            new_p.append(pa - lr * (ma / corr1) / (np.sqrt(va / corr2) + eps))
            new_m.append(ma)
            new_v.append(va)
        out.append(new_p)
        out_m.append(new_m)
        out_v.append(new_v)
    return out, out_m, out_v


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 2**32 - 1),
       sizes=st.lists(st.integers(1, 9), min_size=2, max_size=4),
       lr=st.sampled_from([1e-3, 0.05]), scale=st.sampled_from([1e-6, 1.0, 1e4]))
def test_adam_matches_per_layer_reference(seed, sizes, lr, scale):
    """Five chained ``adam_step`` calls equal the per-layer update bit for
    bit, leave their inputs untouched, and return each network's layers as
    views of one flat vector."""
    rng = np.random.default_rng(seed)
    p = nn.init_params(sizes, seed=seed)
    state = nn.AdamState.init(p, lr=lr)
    ref = [(l.weights, l.biases) for l in p.layers]
    ref_m = [(np.zeros_like(w), np.zeros_like(b)) for w, b in ref]
    ref_v = [(np.zeros_like(w), np.zeros_like(b)) for w, b in ref]
    for t in range(1, 6):
        grads = [nn.LayerParams(rng.normal(scale=scale, size=l.weights.shape),
                                rng.normal(scale=scale, size=l.biases.shape))
                 for l in p.layers]
        before = [(l.weights.copy(), l.biases.copy()) for l in p.layers]
        prev = state
        m_before, v_before = prev.m.copy(), prev.v.copy()
        p_next, state = nn.adam_step(p, grads, prev)
        for l, (w, b) in zip(p.layers, before):
            assert np.array_equal(l.weights, w) and np.array_equal(l.biases, b)
        assert np.array_equal(prev.m, m_before) and np.array_equal(prev.v, v_before)
        assert state.step == t
        ref, ref_m, ref_v = _reference_adam(
            ref, [(g.weights, g.biases) for g in grads], ref_m, ref_v, t, lr)
        flat_m = np.concatenate([a.ravel() for pair in ref_m for a in pair])
        flat_v = np.concatenate([a.ravel() for pair in ref_v for a in pair])
        assert np.array_equal(state.m, flat_m) and np.array_equal(state.v, flat_v)
        base = p_next.layers[0].weights.base
        for l, (w, b) in zip(p_next.layers, ref):
            assert np.array_equal(l.weights, w) and np.array_equal(l.biases, b)
            assert l.weights.base is base and l.biases.base is base
        p = p_next


def test_adam_rejects_nan_grads():
    p = nn.init_params([2, 2], seed=0)
    g = [nn.LayerParams(np.full((2, 2), np.nan), np.zeros(2))]
    with pytest.raises(TrainingError):
        nn.adam_step(p, g, nn.AdamState.init(p))


def test_forward_determinism_bitwise():
    p = nn.init_params([6, 12, 3], seed=123)
    x = np.random.default_rng(5).normal(size=(4, 6))
    y1, _ = nn.mlp_forward(p, x)
    y2, _ = nn.mlp_forward(p, x)
    assert np.array_equal(y1, y2)


def _reference_forward(params, x):
    """The forward pass with pre-activations cached and each activation
    applied out of place, as ``mlp_forward`` computed it before it cached
    activations; returns (output, layer inputs, pre-activations)."""
    x = np.asarray(x, dtype=np.float64)
    inputs, pre_acts = [], []
    h = x
    last = len(params.layers) - 1
    for k, layer in enumerate(params.layers):
        inputs.append(h)
        z = h @ layer.weights.T + layer.biases
        pre_acts.append(z)
        if k == last or params.activation == "identity":
            h = z
        elif params.activation == "tanh":
            h = np.tanh(z)
        else:
            h = np.maximum(z, 0.0)
    return h, inputs, pre_acts


def _reference_backward(params, inputs, pre_acts, output_grad):
    """Backprop re-deriving each activation from the cached pre-activations;
    per-layer (weights, biases) gradients."""
    g = np.asarray(output_grad, dtype=np.float64)
    grads = [None] * len(params.layers)
    for k in range(len(params.layers) - 1, -1, -1):
        if k != len(params.layers) - 1:
            z = pre_acts[k]
            if params.activation == "tanh":
                a = np.tanh(z)
                g = g * (1.0 - a * a)
            elif params.activation == "relu":
                g = g * (z > 0.0).astype(z.dtype)
            else:
                g = g * np.ones_like(z)
        grads[k] = (g.T @ inputs[k], g.sum(axis=0))
        g = g @ params.layers[k].weights
    return grads


_SPECIAL = np.array([0.0, -0.0, 1e-300, -1e3, 40.0, np.inf, -np.inf, np.nan])


@settings(max_examples=80, deadline=None)
@given(seed=st.integers(0, 2**32 - 1),
       activation=st.sampled_from(nn.ACTIVATIONS),
       hidden=st.lists(st.integers(1, 24), min_size=0, max_size=3),
       in_dim=st.integers(1, 20), out_dim=st.integers(1, 6),
       rows=st.sampled_from([1, 2, 33, 512]),
       specials=st.booleans())
def test_forward_backward_match_reference(seed, activation, hidden, in_dim,
                                          out_dim, rows, specials):
    """``mlp_forward`` and ``mlp_backward`` are bit-identical to the
    pre-activation formulas, NaN-equal, on batches of one row (where the
    vector inputs went) up to 512 rows, and mutate neither the input nor the
    output gradient."""
    rng = np.random.default_rng(seed)
    p = nn.init_params([in_dim] + hidden + [out_dim], activation, seed=seed)
    for layer in p.layers:
        layer.biases[:] = rng.normal(size=layer.biases.shape)
    x = rng.normal(scale=3.0, size=(rows, in_dim))
    if specials:
        x.reshape(-1)[:_SPECIAL.size] = _SPECIAL[:x.size]
    x_before = x.copy()
    with np.errstate(invalid="ignore"):
        out, cache = nn.mlp_forward(p, x)
        want_out, inputs, pre_acts = _reference_forward(p, x)
    assert out.shape == want_out.shape
    assert np.array_equal(out, want_out, equal_nan=True)

    g_out = rng.normal(size=out.shape)
    g_before = g_out.copy()
    with np.errstate(invalid="ignore"):
        grads = nn.mlp_backward(p, cache, g_out)
        want_grads = _reference_backward(p, inputs, pre_acts, g_out)
    assert len(grads) == len(want_grads)
    for got, (w, b) in zip(grads, want_grads):
        assert np.array_equal(got.weights, w, equal_nan=True)
        assert np.array_equal(got.biases, b, equal_nan=True)
    assert np.array_equal(x, x_before, equal_nan=True)
    assert np.array_equal(g_out, g_before)


def test_forward_cache_holds_activations():
    p = nn.init_params([4, 6, 5, 2], activation="tanh", seed=3)
    x = np.random.default_rng(1).normal(size=(7, 4))
    out, cache = nn.mlp_forward(p, x)
    assert "pre_acts" not in {f.name for f in dataclasses.fields(nn.ForwardCache)}
    assert not hasattr(cache, "pre_acts")
    _, _, pre_acts = _reference_forward(p, x)
    assert np.array_equal(cache.inputs[0], x)
    for k in range(2):
        assert np.array_equal(cache.inputs[k + 1], np.tanh(pre_acts[k]))
    assert cache.output is out

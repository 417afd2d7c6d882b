"""Probabilistic ensemble dynamics model: heads, losses, training,
evaluation pooling, and checkpoint persistence."""

import numpy as np
import pytest

from penn_mpc import commands, config, mppi, nn
from penn_mpc import dynamics as dyn
from penn_mpc.errors import (CheckpointError, ConfigError, ModelError, ShapeError,
                             TrainingError)

LOG_2PI = np.log(2.0 * np.pi)


@pytest.fixture
def window():
    rng = np.random.default_rng(0)
    return dyn.HistoryWindow(rng.normal(size=(4, 3)),
                             rng.uniform(-1, 1, size=(4, 2)))


def _stub_model(h=2, b=3, mode="probabilistic", stats=None, seed=0):
    return dyn.build_model(h=h, b=b, hidden=[8], mode=mode, seed=seed,
                           stats=stats)


def _one(window):
    """A single window as the (1, H, 3) and (1, H, 2) batch delta_batch takes."""
    return window.states[None], window.actions[None]


def _zero_member(model, i=0):
    m = model.members[i]
    for layer in m.layers:
        layer.weights[:] = 0.0
        layer.biases[:] = 0.0
    return m


def test_build_input_identity_stats(window):
    # delta_batch feeds the network the window interleaved oldest first
    flat = window.flat()
    assert flat.shape == (20,)
    assert np.array_equal(flat[:3], window.states[0])
    assert np.array_equal(flat[3:5], window.actions[0])
    model = _stub_model(h=4, b=1)
    means, _ = model.delta_batch(*_one(window))
    out, _ = nn.mlp_forward(model.members[0], flat[None])
    assert np.array_equal(means[0], out[:, :3])


def test_build_input_constant_feature_floored():
    states = np.ones((3, 3)) * 2.0
    actions = np.zeros((3, 2))
    w = dyn.HistoryWindow(states, actions)
    samples_flat = np.stack([w.flat(), w.flat()])
    stats = dyn.NormStats.from_arrays(samples_flat, np.zeros((2, 3)))
    assert np.all(stats.input_std == dyn.STD_FLOOR)
    # a floored constant feature normalizes to exactly zero
    model = _stub_model(h=3, b=1, stats=stats)
    means, varis = model.delta_batch(*_one(w))
    out, _ = nn.mlp_forward(model.members[0], np.zeros((1, 15)))
    mu_n, var_n = model._split_head(out)
    assert np.array_equal(means[0], mu_n * stats.target_std + stats.target_mean)
    assert np.array_equal(varis[0], var_n * stats.target_std**2)


def test_build_input_wrong_h():
    # a network whose input width does not match 5H is rejected
    members = _stub_model(h=4).members
    with pytest.raises(ShapeError):
        dyn.PennModel(members=members, stats=dyn.NormStats.identity(6), h=6)


def test_predict_member_variance_clamps():
    model = _stub_model()
    # force the variance head to huge negative / positive raw outputs
    w = dyn.HistoryWindow(np.zeros((2, 3)), np.zeros((2, 2)))
    for raw, expect in ((-1e3, model.var_min), (1e3, model.var_max)):
        m = _zero_member(model)
        m.layers[-1].biases[3:] = raw
        _, varis = model.delta_batch(*_one(w))
        assert varis[0, 0] == pytest.approx(np.full(3, expect), rel=1e-12)


def test_predict_member_denormalizes_mean():
    stats = dyn.NormStats(np.zeros(10), np.ones(10),
                          np.zeros(3), np.full(3, 2.0))
    model = _stub_model(stats=stats)
    _zero_member(model).layers[-1].biases[:3] = 1.0  # normalized mean head = 1
    w = dyn.HistoryWindow(np.zeros((2, 3)), np.zeros((2, 2)))
    means, varis = model.delta_batch(*_one(w))
    assert np.allclose(means[0], 2.0)  # mu_raw = mu_hat * std + mean
    # variance de-normalizes with std^2
    norm_var = dyn.bound_variance(np.zeros(3), model.var_min, model.var_max)[0]
    assert np.allclose(varis[0], norm_var * 4.0)


def test_predict_member_index_and_shape_guards():
    model = _stub_model()
    other = _stub_model(b=1, mode="deterministic").members
    with pytest.raises(ShapeError):  # members of different architectures
        dyn.PennModel(members=model.members + other, stats=model.stats, h=2)
    with pytest.raises(ShapeError):  # 3 outputs in probabilistic mode
        dyn.PennModel(members=other, stats=model.stats, h=2)


def test_predict_ensemble_additive_increment():
    # a rollout step adds each member's increment to the current state
    model = _stub_model(h=2, b=2)
    for i in range(model.b):
        _zero_member(model, i).layers[-1].biases[:3] = [0.5, 0.0, 0.0]
    w = dyn.HistoryWindow(np.array([[1.0, 0, 0], [1.0, 0, 0]]), np.zeros((2, 2)))
    for member in (0, 1):
        _, _, traj, invalid = mppi._rollout_batch(
            model, w, np.zeros((1, 1, 2)), mppi.CostSpec(mode="explore"),
            np.array([member]))
        assert not invalid[0]
        assert np.allclose(traj[0, 1], [1.5, 0.0, 0.0])


def test_predict_ensemble_identical_members_agree():
    model = _stub_model(b=3, seed=4)
    src = model.members[0]
    model.members = [src.copy() for _ in range(3)]
    w = dyn.HistoryWindow(np.zeros((2, 3)), np.zeros((2, 2)))
    means, varis = model.delta_batch(*_one(w))
    for i in (1, 2):
        assert np.array_equal(means[i], means[0])
        assert np.array_equal(varis[i], varis[0])


def test_predict_ensemble_member_order():
    model = _stub_model(b=4, seed=9)
    w = dyn.HistoryWindow(np.zeros((2, 3)), np.zeros((2, 2)))
    means, varis = model.delta_batch(*_one(w))
    for i in range(4):
        out, _ = nn.mlp_forward(model.members[i], w.flat()[None])
        mu_n, var_n = model._split_head(out)
        assert np.array_equal(means[i], mu_n)  # identity stats
        assert np.array_equal(varis[i], var_n)


def _head_loss(mode, mu, raw_or_none, target, var_min=1e-6, var_max=10.0):
    """Training loss and head gradient of one (1, 3) output row."""
    model = dyn.build_model(h=1, b=1, hidden=[2], mode=mode,
                            var_min=var_min, var_max=var_max)
    out = mu if raw_or_none is None else np.concatenate([mu, raw_or_none], axis=1)
    return dyn._head_loss_and_grad(model, out, target)


def _raw_for_variance(var, var_min=1e-6, var_max=10.0):
    p = (var - var_min) / (var_max - var_min)
    return np.log(p / (1.0 - p))


def test_nll_at_mean_unit_variance():
    mu = np.full((1, 3), 0.7)
    raw = np.full((1, 3), _raw_for_variance(1.0))
    loss, grad = _head_loss("probabilistic", mu, raw, mu.copy())
    assert loss == pytest.approx(1.5 * LOG_2PI, abs=1e-12)  # ~0.918939 a dim
    assert np.all(np.abs(grad[:, :3]) < 1e-15)


def test_nll_unit_residual():
    raw = np.full((1, 3), _raw_for_variance(1.0))
    loss, _ = _head_loss("probabilistic", np.zeros((1, 3)), raw, np.ones((1, 3)))
    assert loss == pytest.approx(1.5 * (1.0 + LOG_2PI), abs=1e-12)  # ~1.418939


def test_nll_rejects_nonpositive_variance():
    # the bounded head keeps the variance >= var_min > 0, so extreme raw
    # outputs still give a finite loss and gradient
    for raw in (-1e3, 1e3):
        loss, grad = _head_loss("probabilistic", np.zeros((1, 3)),
                                np.full((1, 3), raw), np.ones((1, 3)))
        assert np.isfinite(loss) and np.all(np.isfinite(grad))


def test_nll_gradients_match_fd():
    rng = np.random.default_rng(1)
    out = np.concatenate([rng.normal(size=(1, 3)),
                          _raw_for_variance(rng.uniform(0.3, 2.0, (1, 3)))],
                         axis=1)
    target = rng.normal(size=(1, 3))
    model = dyn.build_model(h=1, b=1, hidden=[2])
    _, grad = dyn._head_loss_and_grad(model, out, target)
    h = 1e-6
    for i in range(6):
        d = np.zeros_like(out)
        d[0, i] = h
        fd = (dyn._head_loss_and_grad(model, out + d, target)[0]
              - dyn._head_loss_and_grad(model, out - d, target)[0]) / (2 * h)
        assert fd == pytest.approx(grad[0, i], rel=1e-5)


def test_l2_loss_values_and_grad():
    pred = np.array([[1.0, 0.0, 0.0]])
    target = np.zeros((1, 3))
    loss, grad = _head_loss("deterministic", pred, None, target)
    assert loss == pytest.approx(1.0 / 3.0)
    assert np.allclose(grad, 2.0 * pred / 3.0)
    loss0, _ = _head_loss("deterministic", target, None, target)
    assert loss0 == 0.0


def test_bound_variance_range_and_derivative():
    raw = np.linspace(-40, 40, 101)
    var, dvar = dyn.bound_variance(raw, 1e-6, 10.0)
    assert np.all(var >= 1e-6) and np.all(var <= 10.0)
    h = 1e-6
    fd = (dyn.bound_variance(raw + h, 1e-6, 10.0)[0]
          - dyn.bound_variance(raw - h, 1e-6, 10.0)[0]) / (2 * h)
    assert np.allclose(fd, dvar, atol=1e-5)


def _masked_bound_variance(raw, var_min, var_max):
    """Sigmoid bounding with each sign branch scattered through a mask."""
    sig = np.empty_like(raw)
    pos = raw >= 0
    sig[pos] = 1.0 / (1.0 + np.exp(-raw[pos]))
    e = np.exp(raw[~pos])
    sig[~pos] = e / (1.0 + e)
    span = var_max - var_min
    return var_min + span * sig, span * sig * (1.0 - sig)


def test_bound_variance_matches_masked_formula():
    edge = np.array([0.0, -0.0, 1e-300, -1e-300, 700.0, -700.0, 1e3, -1e3,
                     np.inf, -np.inf, np.nan])
    sample = np.random.default_rng(11).normal(scale=30.0, size=(64, 3))
    for raw in (edge, sample):
        with np.errstate(over="raise"):
            got = dyn.bound_variance(raw, 1e-6, 10.0)
        want = _masked_bound_variance(raw, 1e-6, 10.0)
        for g, w in zip(got, want):
            assert g.shape == raw.shape
            assert np.array_equal(g, w, equal_nan=True)


def test_full_network_nll_gradient_fd():
    """FD through the whole pipeline: features -> heads -> bounded variance
    -> NLL, checking both the mean and variance heads (rel err < 1e-4)."""
    rng = np.random.default_rng(7)
    model = _stub_model(h=2, b=1, seed=3)
    feats = rng.normal(size=(4, 10))
    targets = rng.normal(size=(4, 3))
    params = model.members[0]

    def loss_of(p):
        out, _ = nn.mlp_forward(p, feats)
        return dyn._head_loss_and_grad(model, out, targets)[0]

    out, cache = nn.mlp_forward(params, feats)
    _, head_grad = dyn._head_loss_and_grad(model, out, targets)
    grads, _ = nn.mlp_backward(params, cache, head_grad)
    h = 1e-5
    worst = 0.0
    for li, layer in enumerate(params.layers):
        flat = layer.weights.reshape(-1)
        gflat = grads[li].weights.reshape(-1)
        for j in range(0, flat.size, 7):
            orig = flat[j]
            flat[j] = orig + h
            lp = loss_of(params)
            flat[j] = orig - h
            lm = loss_of(params)
            flat[j] = orig
            fd = (lp - lm) / (2 * h)
            denom = max(abs(fd), abs(gflat[j]), 1e-8)
            worst = max(worst, abs(fd - gflat[j]) / denom)
    assert worst < 1e-4


def _linear_samples(n, h, seed, drift=0.9):
    """Synthetic learnable dynamics: delta = A @ last_state + B @ action."""
    rng = np.random.default_rng(seed)
    a = np.array([[-0.05, 0.02, 0.0], [0.0, -0.1, 0.01], [0.01, 0.0, -0.08]])
    b = np.array([[0.0, 0.3], [0.2, 0.0], [0.5, 0.1]])
    samples = []
    for _ in range(n):
        states = rng.normal(scale=drift, size=(h, 3))
        actions = rng.uniform(-1, 1, size=(h, 2))
        target = a @ states[-1] + b @ actions[-1]
        samples.append(type("S", (), {
            "window": dyn.HistoryWindow(states, actions), "target": target})())
    return samples


def test_train_learns_linear_system():
    train_set = _linear_samples(300, 2, seed=0)
    test_set = _linear_samples(80, 2, seed=1)
    model0 = dyn.build_model(h=2, b=2, hidden=[16], seed=0)
    best, hist = dyn.train(model0, train_set, test_set,
                           dyn.TrainConfig(epochs=150, batch_size=64, seed=0))
    assert hist.train_loss[-1] < hist.train_loss[0]
    assert hist.reports[-1].rmse_total < 0.3 * hist.reports[0].rmse_total


def test_train_deterministic_same_seed():
    train_set = _linear_samples(120, 2, seed=2)
    test_set = _linear_samples(40, 2, seed=3)
    cfg = dyn.TrainConfig(epochs=10, batch_size=32, seed=5)
    m1, h1 = dyn.train(dyn.build_model(h=2, b=2, hidden=[8], seed=1),
                       train_set, test_set, cfg)
    m2, h2 = dyn.train(dyn.build_model(h=2, b=2, hidden=[8], seed=1),
                       train_set, test_set, cfg)
    assert h1.train_loss == h2.train_loss
    assert [r.rmse_total for r in h1.reports] == [r.rmse_total for r in h2.reports]
    for a, b in zip(m1.members, m2.members):
        for la, lb in zip(a.layers, b.layers):
            assert np.array_equal(la.weights, lb.weights)


def test_train_best_checkpoint_not_worse_than_last():
    train_set = _linear_samples(200, 2, seed=4)
    test_set = _linear_samples(60, 2, seed=5)
    best, hist = dyn.train(dyn.build_model(h=2, b=2, hidden=[8], seed=2),
                           train_set, test_set,
                           dyn.TrainConfig(epochs=40, batch_size=64, seed=0))
    best_rmse = dyn.evaluate_rmse(best, test_set).rmse_total
    assert best_rmse <= hist.reports[-1].rmse_total + 1e-12
    assert best_rmse == pytest.approx(min(r.rmse_total for r in hist.reports))


def test_train_rejects_empty():
    model0 = dyn.build_model(h=2, b=1, hidden=[4], seed=0)
    with pytest.raises(TrainingError):
        dyn.train(model0, [], [], dyn.TrainConfig(epochs=1))


def test_train_stats_from_train_only():
    train_set = _linear_samples(150, 2, seed=6)
    test_set = _linear_samples(50, 2, seed=7, drift=5.0)  # different scale
    best, _ = dyn.train(dyn.build_model(h=2, b=1, hidden=[8], seed=0),
                        train_set, test_set, dyn.TrainConfig(epochs=3))
    inputs = np.stack([s.window.flat() for s in train_set])
    targets = np.stack([s.target for s in train_set])
    assert np.allclose(best.stats.input_mean, inputs.mean(axis=0))
    assert np.allclose(best.stats.target_std,
                       np.maximum(targets.std(axis=0), dyn.STD_FLOOR))


def test_evaluate_rmse_perfect_predictor():
    samples = _linear_samples(50, 2, seed=8)
    model = dyn.build_model(h=2, b=1, hidden=[4], seed=0)
    for layer in model.members[0].layers:
        layer.weights[:] = 0.0
        layer.biases[:] = 0.0
    for s in samples:
        s.target = np.zeros(3)  # model predicts zero increment exactly
    rep = dyn.evaluate_rmse(model, samples)
    assert rep.rmse_total == 0.0 and rep.rmse_vx == 0.0


def test_evaluate_rmse_rejects_nonfinite_output():
    samples = _linear_samples(5, 2, seed=8)
    model = dyn.build_model(h=2, b=2, hidden=[4], seed=0)
    model.members[1].layers[-1].biases[0] = np.nan
    with pytest.raises(ModelError):
        dyn.evaluate_rmse(model, samples)


def test_rmse_pooling_matches_model_comparison_table():
    # constant per-dim errors reproduce the published per-dim/Total relation
    n = 400
    errs = np.tile([0.0990, 0.0651, 0.0707], (n, 1))
    rep = dyn.rmse_report(errs, np.zeros((n, 3)))
    assert rep.rmse_total == pytest.approx(0.0796607, abs=1e-6)
    assert abs(rep.rmse_total - 0.0802) < 6e-4  # printed Total, within rounding


def test_rmse_pooling_matches_history_table():
    n = 250
    errs = np.tile([0.0548, 0.0373, 0.0319], (n, 1))
    rep = dyn.rmse_report(errs, np.zeros((n, 3)))
    assert rep.rmse_total == pytest.approx(0.0424733, abs=1e-6)
    assert abs(rep.rmse_total - 0.0423) < 6e-4


def test_rmse_pooling_identity():
    rng = np.random.default_rng(9)
    rep = dyn.rmse_report(rng.normal(size=(33, 3)), rng.normal(size=(33, 3)))
    pooled = (rep.rmse_vx**2 + rep.rmse_vy**2 + rep.rmse_r**2) / 3.0
    assert rep.rmse_total**2 == pytest.approx(pooled, abs=1e-12)


def test_normalization_consistency():
    # predicting on raw inputs equals de-normalized prediction on normalized
    rng = np.random.default_rng(10)
    inputs = rng.normal(loc=2.0, scale=3.0, size=(50, 10))
    targets = rng.normal(loc=0.1, scale=0.02, size=(50, 3))
    stats = dyn.NormStats.from_arrays(inputs, targets)
    model = _stub_model(h=2, b=1, stats=stats, seed=11)
    raw_window = dyn.HistoryWindow(inputs[0, :6].reshape(2, 3)[:, :3],
                                   inputs[0, [3, 4, 8, 9]].reshape(2, 2))
    means, varis = model.delta_batch(*_one(raw_window))
    feats = (raw_window.flat() - stats.input_mean) / stats.input_std
    out, _ = nn.mlp_forward(model.members[0], feats[None])
    mu_n, var_n = model._split_head(out)
    assert np.all(np.abs(means[0] - (mu_n * stats.target_std
                                     + stats.target_mean)) < 1e-9)
    assert np.all(np.abs(varis[0] - var_n * stats.target_std**2) < 1e-9)


def test_member_permutation_only_permutes_output():
    model = _stub_model(h=2, b=3, seed=12)
    w = dyn.HistoryWindow(np.ones((2, 3)) * 0.2, np.ones((2, 2)) * 0.1)
    base, _ = model.delta_batch(*_one(w))
    permuted = dyn.PennModel(members=[model.members[i] for i in (2, 0, 1)],
                             stats=model.stats, h=model.h, mode=model.mode,
                             var_min=model.var_min, var_max=model.var_max)
    out, _ = permuted.delta_batch(*_one(w))
    for i, j in enumerate((2, 0, 1)):
        assert np.array_equal(out[i], base[j])


def test_checkpoint_round_trip_bitwise(tmp_path):
    samples = _linear_samples(60, 2, seed=13)
    model, _ = dyn.train(dyn.build_model(h=2, b=2, hidden=[6], seed=3),
                         samples[:40], samples[40:], dyn.TrainConfig(epochs=2))
    path = tmp_path / "model.json"
    dyn.save_checkpoint(model, path)
    loaded = dyn.load_checkpoint(path)
    assert loaded.h == model.h and loaded.b == model.b
    assert loaded.mode == model.mode
    states = np.stack([s.window.states for s in samples])
    actions = np.stack([s.window.actions for s in samples])
    for a, b in zip(model.delta_batch(states, actions),
                    loaded.delta_batch(states, actions)):
        assert np.array_equal(a, b)


def test_checkpoint_truncated_file(tmp_path):
    model = _stub_model()
    path = tmp_path / "model.json"
    dyn.save_checkpoint(model, path)
    blob = path.read_text()
    path.write_text(blob[: len(blob) // 2])
    with pytest.raises(CheckpointError):
        dyn.load_checkpoint(path)


def test_checkpoint_version_guard(tmp_path):
    model = _stub_model()
    path = tmp_path / "model.json"
    dyn.save_checkpoint(model, path)
    blob = path.read_text().replace('"format_version": 1', '"format_version": 9')
    path.write_text(blob)
    with pytest.raises(CheckpointError):
        dyn.load_checkpoint(path)


def test_deterministic_l2_learns_linear_system():
    # single deterministic network with L2 fits learnable dynamics to well
    # under 5% of the target scale
    train_set = _linear_samples(400, 2, seed=20)
    test_set = _linear_samples(120, 2, seed=21)
    model0 = dyn.build_model(h=2, b=1, hidden=[16], mode="deterministic",
                             seed=0)
    best, _ = dyn.train(model0, train_set, test_set,
                        dyn.TrainConfig(epochs=800, batch_size=128, seed=0,
                                        lr=3e-3))
    rep = dyn.evaluate_rmse(best, test_set)
    _, targets = dyn.stack_samples(test_set)
    target_scale = float(np.sqrt(np.mean(targets**2)))
    assert rep.rmse_total < 0.05 * target_scale


@pytest.mark.slow
def test_capacity_sanity_on_plant_data():
    # trained pooled test RMSE well below the predict-zero-increment
    # baseline on plant-generated driving data (smooth regimes; slides are
    # chaotic and intrinsically harder)
    from penn_mpc import data as data_mod
    from penn_mpc import sim
    track = sim.build_track(sim.TrackSpec())
    p = sim.PlantParams(drag=40.0)
    episodes = []
    i = 0
    while sum(e.n_rows for e in episodes) < 9000:
        kind = ("zigzag_low_speed", "high_speed_laps")[i % 2]
        episodes.append(sim.scripted_maneuver(
            kind, 40.0, "ccw" if i % 2 == 0 else "cw", seed=4000 + i,
            track=track, params=p))
        i += 1
    samples = data_mod.window_episodes(episodes, 4)
    ds = data_mod.split(samples, 0.7, seed=0)
    model0 = dyn.build_model(h=4, b=5, hidden=[64, 64], seed=0)
    best, _ = dyn.train(model0, ds.train, ds.test,
                        dyn.TrainConfig(epochs=200, batch_size=512, seed=0,
                                        lr=2e-3))
    rep = dyn.evaluate_rmse(best, ds.test)
    _, targets = dyn.stack_samples(ds.test)
    baseline = dyn.rmse_report(np.zeros_like(targets), targets)
    assert rep.rmse_total < 0.2 * baseline.rmse_total


def test_checkpoint_deterministic_mode_guard(tmp_path):
    # a reloaded deterministic checkpoint carries no uncertainty, and safe
    # deployment refuses it
    model = _stub_model(mode="deterministic")
    path = tmp_path / "model.json"
    dyn.save_checkpoint(model, path)
    loaded = dyn.load_checkpoint(path)
    assert loaded.mode == "deterministic"
    w = dyn.HistoryWindow(np.zeros((2, 3)), np.zeros((2, 2)))
    _, varis = loaded.delta_batch(*_one(w))
    assert np.all(varis == loaded.var_min)
    with pytest.raises(ConfigError):
        commands.cmd_deploy(config.ExperimentConfig(), tmp_path / "deploy",
                            checkpoint_path=path, mode="safe")

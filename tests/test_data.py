"""Windowing, splitting, normalization statistics, and dataset persistence."""

import json

import numpy as np
import pytest

from penn_mpc import data
from penn_mpc.dynamics import (STD_FLOOR, NormStats, TrainConfig, build_model,
                               stack_samples, train)
from penn_mpc.errors import DataError
from penn_mpc.sim import EpisodeLog


def make_episode(n, seed=0, tag="test", constant=False):
    rng = np.random.default_rng(seed)
    states = np.zeros((n, 3)) if constant else rng.normal(size=(n, 3))
    actions = np.zeros((n, 2)) if constant else rng.uniform(-1, 1, (n, 2))
    poses = rng.normal(size=(n, 3))
    return EpisodeLog(t=np.arange(n) * 0.1, states=states, actions=actions,
                      poses=poses, dt=0.1, tag=tag, seed=seed)


def test_window_count():
    samples = data.window_episodes([make_episode(100)], h=4)
    assert len(samples) == 96


def test_window_no_cross_boundary():
    eps = [make_episode(50, seed=1), make_episode(30, seed=2)]
    samples = data.window_episodes(eps, h=4)
    assert len(samples) == (50 - 4) + (30 - 4)
    assert {s.episode_id for s in samples} == {0, 1}


def test_window_constant_episode_zero_targets():
    samples = data.window_episodes([make_episode(20, constant=True)], h=3)
    for s in samples:
        assert np.array_equal(s.target, np.zeros(3))


def test_window_alignment_reconstructs_episode():
    ep = make_episode(40, seed=3)
    samples = data.window_episodes([ep], h=5)
    for s in samples:
        next_state = s.window.states[-1] + s.target
        assert np.allclose(next_state, ep.states[s.t_index + 5], atol=0)
        assert np.array_equal(s.window.states[0], ep.states[s.t_index])


def test_window_skips_short_episode(caplog):
    eps = [make_episode(4, seed=1), make_episode(30, seed=2)]
    samples = data.window_episodes(eps, h=4)
    assert len(samples) == 26
    assert all(s.episode_id == 1 for s in samples)


def test_split_counts():
    samples = data.window_episodes([make_episode(104)], h=4)
    ds = data.split(samples, ratio=0.7, seed=0)
    assert len(ds.train) == 70 and len(ds.test) == 30


def test_split_deterministic_and_disjoint():
    samples = data.window_episodes([make_episode(60)], h=2)
    a = data.split(samples, 0.7, seed=9)
    b = data.split(samples, 0.7, seed=9)
    key = lambda s: (s.episode_id, s.t_index)
    assert [key(s) for s in a.train] == [key(s) for s in b.train]
    train_keys = {key(s) for s in a.train}
    test_keys = {key(s) for s in a.test}
    assert not train_keys & test_keys
    assert len(train_keys | test_keys) == len(samples)


def test_split_union_is_input():
    samples = data.window_episodes([make_episode(40)], h=3)
    ds = data.split(samples, 0.7, seed=1)
    assert sorted(id(s) for s in ds.train + ds.test) == \
        sorted(id(s) for s in samples)


def test_split_needs_enough_samples():
    samples = data.window_episodes([make_episode(8)], h=2)
    with pytest.raises(DataError):
        data.split(samples, 0.7, seed=0)


def trained_stats(train_samples, test_samples=None):
    """Normalization statistics of a model trained for one epoch; they are
    those of the stacked train samples."""
    model0 = build_model(h=train_samples[0].window.h, b=1, hidden=[4])
    model, _ = train(model0, train_samples, test_samples or train_samples[:1],
                     TrainConfig(epochs=1, batch_size=len(train_samples)))
    expect = NormStats.from_arrays(*stack_samples(train_samples))
    for name in ("input_mean", "input_std", "target_mean", "target_std"):
        assert np.array_equal(getattr(model.stats, name), getattr(expect, name))
    return model.stats


def test_norm_stats_floor():
    samples = data.window_episodes([make_episode(20, constant=True)], h=2)
    stats = trained_stats(samples)
    assert np.all(stats.input_std == STD_FLOOR)
    assert np.all(stats.target_std == STD_FLOOR)
    assert np.all(stats.input_mean == 0.0)


def test_norm_stats_standard_normal():
    rng = np.random.default_rng(0)
    n = 100_000
    eps = [EpisodeLog(t=np.arange(n) * 0.1, states=rng.normal(size=(n, 3)),
                      actions=rng.normal(size=(n, 2)),
                      poses=np.zeros((n, 3)), dt=0.1)]
    samples = data.window_episodes(eps, h=1)
    stats = trained_stats(samples)
    assert np.all(np.abs(stats.input_mean) < 0.02)
    assert np.all(np.abs(stats.input_std - 1.0) < 0.02)


def test_norm_stats_order_independent():
    samples = data.window_episodes([make_episode(50, seed=5)], h=3)
    a = trained_stats(samples)
    b = trained_stats(list(reversed(samples)))
    assert np.allclose(a.input_mean, b.input_mean, atol=1e-12)
    assert np.allclose(a.input_std, b.input_std, atol=1e-12)


def test_dataset_round_trip(tmp_path):
    eps = [make_episode(1000, seed=6, tag="zigzag_low_speed"),
           make_episode(500, seed=7, tag="slide")]
    data.save_dataset(eps, tmp_path / "ds", h=4)
    back, manifest = data.load_dataset(tmp_path / "ds")
    assert manifest["h"] == 4
    assert len(back) == 2
    assert back[0].tag == "zigzag_low_speed"
    assert back[1].n_rows == 500
    # to written precision (9 significant digits)
    assert np.allclose(back[0].states, eps[0].states, rtol=1e-8, atol=1e-11)
    # saving the loaded dataset again is byte-identical
    data.save_dataset(back, tmp_path / "ds2", h=4)
    for name in ("manifest.json", "episode_0000.csv", "episode_0001.csv"):
        assert (tmp_path / "ds" / name).read_bytes() == \
            (tmp_path / "ds2" / name).read_bytes()


def test_dataset_sidecar_h_reproduces_samples(tmp_path):
    eps = [make_episode(80, seed=8)]
    original = data.window_episodes(eps, h=6)
    data.save_dataset(eps, tmp_path / "ds", h=6)
    back, manifest = data.load_dataset(tmp_path / "ds")
    again = data.window_episodes(back, h=manifest["h"])
    assert len(again) == len(original)
    for a, b in zip(original, again):
        assert np.allclose(a.window.flat(), b.window.flat(), rtol=1e-8, atol=1e-11)
        assert (a.episode_id, a.t_index) == (b.episode_id, b.t_index)


def test_dataset_missing_manifest(tmp_path):
    with pytest.raises(DataError):
        data.load_dataset(tmp_path)


def test_dataset_row_count_mismatch(tmp_path):
    eps = [make_episode(30, seed=9)]
    data.save_dataset(eps, tmp_path / "ds")
    manifest_path = tmp_path / "ds" / "manifest.json"
    doc = json.loads(manifest_path.read_text())
    doc["episodes"][0]["rows"] = 99
    manifest_path.write_text(json.dumps(doc))
    with pytest.raises(DataError):
        data.load_dataset(tmp_path / "ds")


def test_dataset_interrupted_save_keeps_old_dataset(tmp_path, monkeypatch):
    first = make_episode(30, seed=1)
    data.save_dataset([first], tmp_path, h=4)
    before = {p.name: p.read_bytes() for p in tmp_path.iterdir()}
    real_dump = data.json.dump

    def torn_dump(doc, f, **kw):
        real_dump({"format_version": 1}, f)
        f.flush()
        raise KeyboardInterrupt

    monkeypatch.setattr(data.json, "dump", torn_dump)
    with pytest.raises(KeyboardInterrupt):
        data.save_dataset([first, make_episode(20, seed=2)], tmp_path, h=4)
    monkeypatch.undo()
    after = {p.name: p.read_bytes() for p in tmp_path.iterdir()}
    assert sorted(after) == ["episode_0000.csv", "episode_0001.csv",
                             "manifest.json"]
    assert after["manifest.json"] == before["manifest.json"]
    assert after["episode_0000.csv"] == before["episode_0000.csv"]
    episodes, _ = data.load_dataset(tmp_path)
    assert len(episodes) == 1 and episodes[0].n_rows == 30


def test_no_leakage_recomputation():
    # stats computed on the split's train part only
    samples = data.window_episodes([make_episode(200, seed=10)], h=2)
    ds = data.split(samples, 0.7, seed=3)
    stats = trained_stats(ds.train, ds.test)
    all_inputs, _ = stack_samples(samples)
    assert not np.allclose(stats.input_mean, all_inputs.mean(axis=0), atol=1e-9)

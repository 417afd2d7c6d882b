"""Windowing, splitting, normalization statistics, and dataset persistence."""

import json
import logging
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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
    windows = data.window_episodes(eps, h=4)
    assert len(windows) == (50 - 4) + (30 - 4)
    # episode by episode, each windowed on its own
    alone = [data.window_episodes([ep], h=4) for ep in eps]
    assert np.array_equal(windows.pairs,
                          np.concatenate([w.pairs for w in alone]))
    assert np.array_equal(windows.targets,
                          np.concatenate([w.targets for w in alone]))


def test_window_constant_episode_zero_targets():
    windows = data.window_episodes([make_episode(20, constant=True)], h=3)
    assert np.array_equal(windows.targets, np.zeros((17, 3)))


def test_window_alignment_reconstructs_episode():
    ep = make_episode(40, seed=3)
    windows = data.window_episodes([ep], h=5)
    for i in range(len(windows)):
        next_state = windows.pairs[i, -1, :3] + windows.targets[i]
        assert np.allclose(next_state, ep.states[i + 5], atol=0)
        assert np.array_equal(windows.pairs[i, 0, :3], ep.states[i])
        assert np.array_equal(windows.pairs[i, 0, 3:], ep.actions[i])


def test_window_skips_short_episode(caplog):
    eps = [make_episode(4, seed=1), make_episode(30, seed=2)]
    with caplog.at_level(logging.WARNING, logger=data.__name__):
        windows = data.window_episodes(eps, h=4)
    assert len(windows) == 26
    assert np.array_equal(windows.pairs,
                          data.window_episodes(eps[1:], h=4).pairs)
    assert "too short for H=4" in caplog.text


def test_window_all_short_gives_empty_arrays():
    windows = data.window_episodes([make_episode(3), make_episode(0)], h=3)
    assert len(windows) == 0
    assert windows.pairs.shape == (0, 3, 5)
    assert windows.targets.shape == (0, 3)
    with pytest.raises(DataError):
        data.split(windows)


def _reference_windows(episodes, h):
    """Per-row loop: window i of an episode is its states and actions at
    rows i..i+H-1 side by side, and its target is the state at row i+H
    minus the state at row i+H-1."""
    pairs, targets = [], []
    for ep in episodes:
        for i in range(ep.n_rows - h):
            pairs.append(np.concatenate([ep.states[i:i + h],
                                         ep.actions[i:i + h]], axis=1))
            targets.append(ep.states[i + h] - ep.states[i + h - 1])
    return pairs, targets


@st.composite
def episode_sets(draw):
    h = draw(st.integers(1, 10))
    lengths = draw(st.lists(st.integers(0, h + 6), min_size=1, max_size=4))
    seed = draw(st.integers(0, 2**32 - 1))
    return h, [make_episode(n, seed=seed + i) for i, n in enumerate(lengths)]


@settings(max_examples=150, deadline=None)
@given(case=episode_sets())
def test_window_episodes_matches_per_row_reference(case):
    h, eps = case
    windows = data.window_episodes(eps, h)
    pairs, targets = _reference_windows(eps, h)
    # L - H windows per episode, none for an episode shorter than H + 1
    assert len(windows) == sum(max(ep.n_rows - h, 0) for ep in eps)
    assert len(windows) == len(pairs)
    assert windows.pairs.shape == (len(pairs), h, 5)
    assert windows.targets.shape == (len(pairs), 3)
    assert windows.pairs.flags.c_contiguous
    assert windows.pairs.dtype == windows.targets.dtype == np.float64
    # each window is rows of exactly one episode, in episode then time order
    for i, (p, t) in enumerate(zip(pairs, targets)):
        assert np.array_equal(windows.pairs[i], p)
        assert np.array_equal(windows.targets[i], t)
    if not pairs:
        with pytest.raises(DataError):
            data.split(windows)


def test_split_counts():
    samples = data.window_episodes([make_episode(104)], h=4)
    ds = data.split(samples, ratio=0.7, seed=0)
    assert len(ds.train) == 70 and len(ds.test) == 30


def _rows(windows):
    """One key per window: the bytes of its pairs and its target."""
    return [p.tobytes() + t.tobytes()
            for p, t in zip(windows.pairs, windows.targets)]


def test_split_deterministic_and_disjoint():
    windows = data.window_episodes([make_episode(60)], h=2)
    a = data.split(windows, 0.7, seed=9)
    b = data.split(windows, 0.7, seed=9)
    assert _rows(a.train) == _rows(b.train)
    assert not set(_rows(a.train)) & set(_rows(a.test))
    assert len(set(_rows(a.train)) | set(_rows(a.test))) == len(windows)


def test_split_union_is_input():
    windows = data.window_episodes([make_episode(40)], h=3)
    ds = data.split(windows, 0.7, seed=1)
    assert sorted(_rows(ds.train) + _rows(ds.test)) == sorted(_rows(windows))
    assert ds.train.pairs.flags.c_contiguous and ds.test.pairs.flags.c_contiguous


def test_split_needs_enough_samples():
    samples = data.window_episodes([make_episode(8)], h=2)
    with pytest.raises(DataError):
        data.split(samples, 0.7, seed=0)


def trained_stats(train_samples, test_samples=None):
    """Normalization statistics of a model trained for one epoch; they are
    those of the stacked train samples."""
    model0 = build_model(h=train_samples.pairs.shape[1], b=1, hidden=[4])
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
    b = trained_stats(samples[np.arange(len(samples))[::-1]])
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
    assert np.allclose(again.pairs, original.pairs, rtol=1e-8, atol=1e-11)


@settings(max_examples=25, deadline=None)
@given(lengths=st.lists(st.integers(1, 30), min_size=1, max_size=3),
       seed=st.integers(0, 2**31 - 1), scale=st.sampled_from([1e-3, 1.0, 1e4]),
       tags=st.lists(st.text("abc_xyz", max_size=6), min_size=3, max_size=3),
       truncated=st.lists(st.booleans(), min_size=3, max_size=3),
       h=st.one_of(st.none(), st.integers(1, 10)))
def test_dataset_round_trip_property(lengths, seed, scale, tags, truncated, h):
    """A saved dataset loads back with its tags, seeds, flags and row counts,
    the values to the 9 written significant digits, and saving what was
    loaded writes the same bytes."""
    rng = np.random.default_rng(seed)
    eps = [EpisodeLog(t=np.arange(n) * 0.1,
                      states=rng.normal(scale=scale, size=(n, 3)),
                      actions=rng.uniform(-1, 1, (n, 2)),
                      poses=rng.normal(scale=scale, size=(n, 3)), dt=0.1,
                      tag=tags[i], seed=seed + i, truncated=truncated[i])
           for i, n in enumerate(lengths)]
    with tempfile.TemporaryDirectory() as tmp:
        first, second = Path(tmp) / "a", Path(tmp) / "b"
        data.save_dataset(eps, first, h=h)
        back, manifest = data.load_dataset(first)
        assert manifest["h"] == h and manifest["dt"] == 0.1
        assert len(back) == len(eps)
        for a, b in zip(eps, back):
            assert (b.tag, b.seed, b.truncated, b.n_rows, b.dt) == \
                (a.tag, a.seed, a.truncated, a.n_rows, a.dt)
            for name in ("t", "states", "actions", "poses"):
                assert np.allclose(getattr(b, name), getattr(a, name),
                                   rtol=1e-8, atol=1e-300)
        data.save_dataset(back, second, h=h)
        names = sorted(p.name for p in first.iterdir())
        assert names == sorted(p.name for p in second.iterdir())
        for name in names:
            assert (first / name).read_bytes() == (second / name).read_bytes()


_BAD_MANIFESTS = {
    "not_an_object": [1, 2],
    "no_episodes": {"format_version": 1, "dt": 0.1},
    "no_dt": {"format_version": 1,
              "episodes": [{"file": "episode_0000.csv", "rows": 30}]},
    "entry_without_file": {"format_version": 1, "dt": 0.1,
                           "episodes": [{"rows": 30}]},
    "entry_without_rows": {"format_version": 1, "dt": 0.1,
                           "episodes": [{"file": "episode_0000.csv"}]},
    "entry_not_an_object": {"format_version": 1, "dt": 0.1,
                            "episodes": ["episode_0000.csv"]},
}


@pytest.mark.parametrize("case", sorted(_BAD_MANIFESTS))
def test_dataset_malformed_manifest(tmp_path, case):
    data.save_dataset([make_episode(30, seed=9)], tmp_path)
    (tmp_path / "manifest.json").write_text(json.dumps(_BAD_MANIFESTS[case]))
    with pytest.raises(DataError):
        data.load_dataset(tmp_path)


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

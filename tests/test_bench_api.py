"""The benchmark in ``perfbench/`` drives the package's public API and
times it through ``perfbench/spans.py`` shims. These tests walk that API on
a tiny dataset with the shims installed, and run one short explore_loop
from ``perfbench/workloads.py``, so renaming or reshaping a name the
benchmark uses fails here instead of in a benchmark run."""

import importlib.util
import json
import sys
from collections import Counter
from pathlib import Path

import numpy as np

from penn_mpc import commands, config, data, dynamics, mppi, sim

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def _load(monkeypatch, name):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}",
                                                  PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    # dataclasses look their module up by name while the module executes
    monkeypatch.setitem(sys.modules, spec.name, module)
    spec.loader.exec_module(module)
    return module


def _episode(n, seed):
    rng = np.random.default_rng(seed)
    return sim.EpisodeLog(t=np.arange(n) * 0.1,
                          states=rng.normal(size=(n, 3)) + [5.0, 0.0, 0.0],
                          actions=rng.uniform(-1, 1, (n, 2)),
                          poses=np.zeros((n, 3)), dt=0.1, tag="t", seed=seed)


def test_benchmark_api_under_tracer(tmp_path, monkeypatch):
    spans = _load(monkeypatch, "spans")
    originals = [(owner, attr, owner.__dict__[attr])
                 for owner, attr, *_ in spans._TARGETS]
    episodes = [_episode(30, 1), _episode(25, 2)]
    data.save_dataset(episodes, tmp_path / "data", h=2)
    tr = spans.Tracer()
    tr.install()
    try:
        windows = data.window_episodes(episodes, 2)
        ds = data.split(windows, 0.7, seed=0)
        model0 = dynamics.build_model(h=2, b=2, hidden=[4], seed=0)
        tc = dynamics.TrainConfig(epochs=2, batch_size=16, seed=0)
        model, history = dynamics.train(model0, ds.train, ds.test, tc)
        _, targets = dynamics.stack_samples(ds.test)
        threshold = commands.train_set_jrd_percentile(model, tmp_path / "data")
        window = dynamics.HistoryWindow(episodes[0].states[:2],
                                        episodes[0].actions[:2], dt=0.1)
        cfg = mppi.MppiConfig(k=4, horizon=3, seed=0)
        state = mppi.MpcState(cfg=cfg, spec=mppi.CostSpec(mode="explore"))
        action, state, _ = mppi.mpc_step(state, model, window)
        exec_jrd = commands.executed_jrd(model, window)
        window = window.shifted(np.array([5.0, 0.0, 0.0]), action)
        manifest = commands.cmd_collect(
            config.load_config(None, ["collect.minutes=0.05"]), tmp_path / "c")
    finally:
        tr.uninstall()
    for owner, attr, original in originals:
        assert owner.__dict__[attr] is original

    assert len(ds.train) + len(ds.test) == len(windows) == 28 + 23
    assert targets.shape == (len(ds.test), 3)
    assert np.isfinite(history.reports[history.best_epoch].rmse_total)
    assert np.isfinite(threshold) and np.isfinite(exec_jrd)
    assert window.states.shape == (2, 3) and window.actions.shape == (2, 2)
    assert window.dt == 0.1 and np.array_equal(window.actions[-1], action)

    # the work counts the benchmark gates on
    names = Counter(s.name for s in tr.spans)
    assert names["data.window_episodes"] == 2  # here and in the percentile
    in_train = Counter(s.name for i, s in enumerate(tr.spans)
                       if tr.inside(i, "dynamics.train"))
    assert in_train["dynamics.stack_samples"] == 1 + tc.epochs
    assert in_train["dynamics.evaluate_rmse"] == tc.epochs
    # one backward pass and one Adam step per member minibatch
    per_train = model.b * -(-len(ds.train) // tc.batch_size) * tc.epochs
    assert in_train["nn.mlp_backward"] == in_train["nn.adam_step"] == per_train
    # the scripted maneuvers reach the plant through the sim module global,
    # one step per logged row
    in_collect = Counter(s.name for i, s in enumerate(tr.spans)
                         if tr.inside(i, "commands.cmd_collect"))
    total_rows = json.loads(manifest.read_text())["total_rows"]
    assert in_collect["sim.plant_step"] == total_rows > 0
    rows = [s.rows for i, s in enumerate(tr.spans)
            if s.name == "dynamics.delta_batch" and tr.inside(i, "mppi.mpc_step")]
    assert rows == [cfg.k] * cfg.horizon
    mlp_rows = [s.rows for i, s in enumerate(tr.spans)
                if s.name == "nn.mlp_forward" and tr.inside(i, "mppi.mpc_step")]
    assert mlp_rows == [cfg.k] * (cfg.horizon * model.b)


def test_workloads_run_on_the_package(tmp_path, monkeypatch):
    workloads = _load(monkeypatch, "workloads")
    st = workloads.setup_explore(0, tmp_path)
    assert np.isfinite(st.heldout_rmse) and st.heldout_rmse < st.zero_rmse
    res = workloads.run_loop(st, 0.0)
    assert len(res.call_ms) == workloads.MIN_STEPS
    assert res.gates and all(res.gates.values()), res.gates

    cfg = config.load_config(None, workloads.DEPLOY_OVERRIDES)
    for seed in (0, 3):
        assert workloads._mppi_cfg(cfg, seed) == cfg.mppi_config(seed)
    plant, track = cfg.plant_params(), cfg.track_spec()
    assert isinstance(plant, sim.PlantParams) and plant == cfg.plant
    assert isinstance(track, sim.TrackSpec) and track == cfg.track
    assert plant is not cfg.plant and track is not cfg.track

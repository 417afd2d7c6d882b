"""Config handling, command outputs, determinism, and the CLI entry point."""

import csv
import filecmp
import json
import math
import subprocess
import sys
import tracemalloc
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from penn_mpc import cli, commands, config, dynamics, jrd
from penn_mpc.errors import ConfigError, DataError

TINY = [
    "collect.minutes=0.8", "collect.episode_seconds=20",
    "model.b=2", "model.hidden=16,16", "train.epochs=3", "train.batch=128",
    "mppi.k=16", "mppi.t=5",
    "explore.n_rounds=2", "explore.steps_per_round=20", "explore.warmup_steps=40",
    "explore.retrain_epochs=3", "explore.eval_seconds=36",
    "deploy.laps=1", "deploy.max_steps=25",
]


def tiny_cfg(*extra):
    return config.load_config(None, TINY + list(extra))


@pytest.fixture(scope="module")
def collected(tmp_path_factory):
    out = tmp_path_factory.mktemp("collect")
    cfg = tiny_cfg()
    commands.cmd_collect(cfg, out)
    return out / "data"


# --- config


def test_config_defaults_resolve():
    cfg = config.ExperimentConfig()
    assert cfg.model.h == 4
    assert cfg.mppi.k == 512
    assert cfg.costs.jrd_threshold == "auto"


def _defaults():
    """Every config key with its default value."""
    cfg = config.ExperimentConfig()
    keys = {"seed": cfg.seed}
    for name, section in config._sections(cfg).items():
        for f in fields(section):
            keys[f"{name}.{f.name}"] = getattr(section, f.name)
    return keys


def _values_like(default):
    if isinstance(default, bool):
        return st.booleans()
    if isinstance(default, int):
        return st.integers(-2**63, 2**63)
    if isinstance(default, float):
        return st.floats()
    if isinstance(default, (list, tuple)):
        return st.lists(_values_like(default[0]), max_size=4).map(type(default))
    return st.text(max_size=12)


@settings(max_examples=50, deadline=None)
@given(data=st.data())
def test_config_round_trip(data):
    """Any value of a key's type is either read back exactly from the dump,
    or, for a string holding '#' or a line break or a non-finite float,
    rejected when set."""
    cfg = config.ExperimentConfig()
    for key, default in _defaults().items():
        value = data.draw(_values_like(default), label=key)
        text = config._format_value(value)
        clean = text.strip()
        items = value if isinstance(value, (list, tuple)) else [value]
        non_finite = any(isinstance(v, float) and not math.isfinite(v)
                         for v in items)
        if non_finite or isinstance(default, str) and (
                "#" in clean or len(clean.splitlines()) > 1):
            with pytest.raises(ConfigError):
                config.set_key(cfg, key, text)
            continue
        config.set_key(cfg, key, text)
        section, _, name = key.rpartition(".")
        value = getattr(getattr(cfg, section) if section else cfg, name)
        assert config._format_value(value) == clean
    dumped = config.dump_config(cfg)
    assert config.dump_config(config.parse_config_text(dumped)) == dumped


# Float keys whose NaN once reached an int() deep in a command.
_NAN_KEYS = ("collect.minutes", "collect.episode_seconds", "collect.rate",
             "explore.eval_seconds", "train.split_ratio",
             "track.moderate_radius", "track.sharp_radius",
             "track.sharp_angle_deg", "track.straights")


def test_config_rejects_values_that_do_not_read_back():
    nan_items = [f"{key}={v}" for key in _NAN_KEYS for v in ("nan", "inf")]
    for item in ("io.out=runs/a#b", "collect.mix=zigzag:1\nslide:1",
                 "mppi.sigma=0.3,nan", "plant.mu=-inf", *nan_items):
        with pytest.raises(ConfigError):
            config.load_config(None, [item])


def test_config_unknown_keys_rejected():
    with pytest.raises(ConfigError):
        config.load_config(None, ["model.depth=3"])
    with pytest.raises(ConfigError):
        config.load_config(None, ["optimizer.lr=1"])
    with pytest.raises(ConfigError):
        config.parse_config_text("nonsense line\n")


def test_config_case_insensitive_keys():
    cfg = config.load_config(None, ["model.H=6", "mppi.K=32", "mppi.Lambda=0.5"])
    assert cfg.model.h == 6
    assert cfg.mppi.k == 32
    assert cfg.mppi.lam == 0.5


def test_config_file_loading(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text("# comment\nmodel.h = 7\nmppi.sigma = 0.2,0.4\n")
    cfg = config.load_config(path, ["model.h=8"])  # overrides beat the file
    assert cfg.model.h == 8
    assert cfg.mppi.sigma == [0.2, 0.4]
    # an emptied list key keeps its element type when set again
    path.write_text("model.hidden =\ntrack.straights =\n")
    cfg = config.load_config(path, ["model.hidden=16,16", "track.straights=5,6"])
    assert cfg.model.hidden == [16, 16]
    assert all(type(v) is int for v in cfg.model.hidden)
    assert cfg.track.straights == (5.0, 6.0)
    assert all(type(v) is float for v in cfg.track.straights)
    cfg = config.load_config(None, ["model.hidden=", "model.hidden=16,16"])
    assert all(type(v) is int for v in cfg.model.hidden)


def test_config_hash_stable():
    a = config.config_hash(tiny_cfg())
    b = config.config_hash(tiny_cfg())
    c = config.config_hash(tiny_cfg("seed=99"))
    assert a == b != c


# --- collect


def test_collect_row_budget(collected):
    doc = json.loads((collected / "manifest.json").read_text())
    assert doc["target_rows"] == 480  # 0.8 min * 60 * 10 Hz
    assert doc["total_rows"] >= doc["target_rows"]
    assert sum(e["rows"] for e in doc["episodes"]) == doc["total_rows"]


def test_collect_mix_tags(tmp_path):
    cfg = tiny_cfg("collect.mix=zigzag:1", "collect.minutes=0.3")
    commands.cmd_collect(cfg, tmp_path)
    doc = json.loads((tmp_path / "data" / "manifest.json").read_text())
    assert {e["tag"] for e in doc["episodes"]} == {"zigzag_low_speed"}


def test_collect_deterministic(tmp_path):
    cfg = tiny_cfg("collect.minutes=0.4")
    commands.cmd_collect(cfg, tmp_path / "a")
    commands.cmd_collect(cfg, tmp_path / "b")
    _assert_trees_identical(tmp_path / "a", tmp_path / "b")


def test_collect_rejects_mismatched_rate(tmp_path):
    with pytest.raises(ConfigError):
        commands.cmd_collect(tiny_cfg("collect.rate=20"), tmp_path / "out")


# --- train / eval


@pytest.fixture(scope="module")
def trained(tmp_path_factory, collected):
    out = tmp_path_factory.mktemp("train")
    cfg = tiny_cfg()
    result = commands.cmd_train(cfg, out, data_dir=collected)
    return out, result


def test_train_outputs(trained):
    out, result = trained
    assert (out / "checkpoint.json").exists()
    with open(out / "metrics.csv") as f:
        rows = list(csv.DictReader(f))
    assert len(rows) == 3  # exactly `epochs` rows
    report_text = (out / "eval_report.txt").read_text()
    for label in ("Total", "vx [m/s]", "vy [m/s]", "r [rad/s]"):
        assert label in report_text


def test_eval_reproduces_train_report(trained, collected, tmp_path):
    out, result = trained
    cfg = tiny_cfg()
    rep = commands.cmd_eval(cfg, tmp_path, checkpoint_path=out / "checkpoint.json",
                            data_dir=collected)
    assert rep.rmse_total == result["report"].rmse_total
    assert rep.rmse_vx == result["report"].rmse_vx
    with open(tmp_path / "eval_report.csv") as f:
        rows = list(csv.DictReader(f))
    units = {r["metric"]: r["unit"] for r in rows}
    assert units["vx"] == "m/s" and units["vy"] == "m/s" and units["r"] == "rad/s"


def test_eval_h_mismatch_names_both(trained, tmp_path):
    out, _ = trained
    from penn_mpc import data, sim
    import numpy as np
    rng = np.random.default_rng(0)
    ep = sim.EpisodeLog(t=np.arange(30) * 0.1, states=rng.normal(size=(30, 3)),
                        actions=rng.uniform(-1, 1, (30, 2)),
                        poses=np.zeros((30, 3)))
    data.save_dataset([ep], tmp_path / "ds", h=9)
    with pytest.raises(DataError) as err:
        commands.cmd_eval(tiny_cfg(), tmp_path / "out",
                          checkpoint_path=out / "checkpoint.json",
                          data_dir=tmp_path / "ds")
    assert "H=4" in str(err.value) and "H=9" in str(err.value)


def test_train_deterministic(tmp_path, collected):
    cfg = tiny_cfg()
    commands.cmd_train(cfg, tmp_path / "a", data_dir=collected)
    commands.cmd_train(cfg, tmp_path / "b", data_dir=collected)
    _assert_trees_identical(tmp_path / "a", tmp_path / "b")


# --- ablation


def test_ablation_report_shape(tmp_path, collected):
    cfg = tiny_cfg("train.epochs=2")
    rep = commands.cmd_ablate_history(cfg, tmp_path, data_dir=collected,
                                      h_min=1, h_max=3)
    assert rep.h_values == [1, 2, 3]
    assert len(rep.reports) == 3
    with open(tmp_path / "ablation.csv") as f:
        rows = list(csv.DictReader(f))
    assert len(rows) == 3
    assert sum(int(r["is_best"]) for r in rows) == 1
    # pooling identity is exact on the reports; CSV rounds to 9 digits
    for rep_h in rep.reports:
        pooled = (rep_h.rmse_vx**2 + rep_h.rmse_vy**2 + rep_h.rmse_r**2) / 3.0
        assert abs(rep_h.rmse_total**2 - pooled) < 1e-12
    for row, rep_h in zip(rows, rep.reports):
        assert float(row["rmse_total"]) == pytest.approx(rep_h.rmse_total,
                                                         rel=1e-8)
    table = (tmp_path / "ablation.txt").read_text().splitlines()
    assert len(table) == 5  # header + Total/vx/vy/r rows


# --- explore


def test_explore_curve_and_resume(tmp_path, collected):
    cfg = tiny_cfg()
    full = commands.cmd_explore(cfg, tmp_path / "full")
    assert len(full["rows"]) == 2
    steps = [r["cumulative_steps"] for r in full["rows"]]
    assert steps == sorted(steps) and steps[0] > 0
    # interrupted run: first round only, then resume to the full horizon
    cfg1 = tiny_cfg("explore.n_rounds=1")
    commands.cmd_explore(cfg1, tmp_path / "resume")
    commands.cmd_explore(cfg, tmp_path / "resume")
    assert (tmp_path / "full" / "learning_curve.csv").read_bytes() == \
        (tmp_path / "resume" / "learning_curve.csv").read_bytes()
    for name in ("ckpt_round_00.json", "ckpt_round_01.json"):
        assert (tmp_path / "full" / name).read_bytes() == \
            (tmp_path / "resume" / name).read_bytes()


def test_curve_interrupted_write_keeps_old_file(tmp_path, monkeypatch):
    row = {"round": 0, "cumulative_steps": 40, "rmse_total": 0.5,
           "rmse_vx": 0.4, "rmse_vy": 0.3, "rmse_r": 0.2, "mean_pre_jrd": 0.1}
    path = tmp_path / "learning_curve.csv"
    commands._write_curve([row], path)
    before = path.read_bytes()
    real_fmt = commands._fmt
    calls = []

    def failing_fmt(v):
        calls.append(v)
        if len(calls) > 7:  # midway through the second row
            raise OSError("disk full")
        return real_fmt(v)

    monkeypatch.setattr(commands, "_fmt", failing_fmt)
    with pytest.raises(OSError):
        commands._write_curve([row, {**row, "round": 1}], path)
    assert path.read_bytes() == before
    assert [p.name for p in tmp_path.iterdir()] == [path.name]


def test_explore_random_policy(tmp_path):
    cfg = tiny_cfg("explore.n_rounds=1")
    out = commands.cmd_explore(cfg, tmp_path, policy="random")
    assert out["policy"] == "random"
    assert len(out["rows"]) == 1
    diag = (tmp_path / "diagnostics_round_00.csv").read_text().splitlines()
    assert diag[0] == ",".join(commands.DIAG_COLUMNS)
    assert len(diag) == 1 + 20  # header + steps_per_round


# --- deploy


def test_deploy_outputs_and_modes(tmp_path, trained, collected):
    out, _ = trained
    cfg = tiny_cfg()
    summary = commands.cmd_deploy(cfg, tmp_path / "safe",
                                  checkpoint_path=out / "checkpoint.json",
                                  mode="safe", data_dir=collected)
    assert summary["mode"] == "safe"
    assert summary["jrd_threshold"] is not None
    with open(tmp_path / "safe" / "diagnostics.csv") as f:
        rows = list(csv.reader(f))
    assert len(rows) - 1 == summary["steps"]
    direct = commands.cmd_deploy(cfg, tmp_path / "direct",
                                 checkpoint_path=out / "checkpoint.json",
                                 mode="direct")
    assert direct["jrd_threshold"] is None  # no dataset needed in direct mode


def test_deploy_summary_interrupted_write_keeps_old_file(tmp_path, trained,
                                                        monkeypatch):
    # C7 resumes from summary.json, so a killed write must not tear it
    out, _ = trained
    run = tmp_path / "deploy"

    def deploy():
        commands.cmd_deploy(tiny_cfg(), run,
                            checkpoint_path=out / "checkpoint.json",
                            mode="direct")

    deploy()
    before = (run / "summary.json").read_bytes()
    names = sorted(p.name for p in run.iterdir())
    real_dump = commands.json.dump

    def torn_dump(doc, f, **kw):
        real_dump({"mode": "direct"}, f)
        f.flush()
        raise KeyboardInterrupt

    monkeypatch.setattr(commands.json, "dump", torn_dump)
    with pytest.raises(KeyboardInterrupt):
        deploy()
    assert (run / "summary.json").read_bytes() == before
    assert sorted(p.name for p in run.iterdir()) == names


def test_deploy_safe_requires_ensemble(tmp_path, collected):
    cfg = tiny_cfg("model.mode=deterministic")
    result = commands.cmd_train(cfg, tmp_path / "train", data_dir=collected)
    with pytest.raises(ConfigError):
        commands.cmd_deploy(cfg, tmp_path / "deploy",
                            checkpoint_path=result["checkpoint"], mode="safe",
                            data_dir=collected)
    assert not (tmp_path / "deploy").exists()


def test_deploy_deterministic(tmp_path, trained, collected):
    out, _ = trained
    cfg = tiny_cfg()
    for name in ("a", "b"):
        commands.cmd_deploy(cfg, tmp_path / name,
                            checkpoint_path=out / "checkpoint.json",
                            mode="safe", data_dir=collected)
    _assert_trees_identical(tmp_path / "a", tmp_path / "b")


# Row counts around the block size: below it, at it, one past it, and tails
# that a plain split would leave short (4,700 is the deploy benchmark's
# training set, which a plain split leaves with a 92-row tail).
_JRD_ROWS = (1, 2, 200, 255, 511, 512, 513, 1023, 1024, 1025, 1600, 4700,
             5000)


@settings(max_examples=40, deadline=None)
@example(n=4700, b=5, hidden=64, seed=0, n_bad=2)
@given(n=st.sampled_from(_JRD_ROWS), b=st.integers(2, 5),
       hidden=st.integers(8, 64), seed=st.integers(0, 2**32 - 1),
       n_bad=st.integers(0, 3))
def test_ensemble_jrd_blocks_match_whole_pass(n, b, hidden, seed, n_bad):
    """The blocked disagreement behind the auto threshold equals one
    whole-array ``delta_batch`` + ``jrd_batch`` bit for bit, NaN equal to
    NaN, NaN and inf rows included. This holds only because no block is
    short: OpenBLAS switches to small-matrix kernels for short inputs, and
    those round the same rows differently from a long call."""
    rng = np.random.default_rng(seed)
    model = dynamics.build_model(h=4, b=b, hidden=[hidden, hidden], seed=seed)
    model.stats = dynamics.NormStats(rng.normal(size=20),
                                     rng.uniform(0.5, 3.0, 20),
                                     rng.normal(size=3), rng.uniform(0.1, 2.0, 3))
    pairs = rng.normal(scale=3.0, size=(n, 4, 5))
    bad = rng.choice(n, size=min(n_bad, n), replace=False)
    pairs[bad, rng.integers(0, 4, bad.size), rng.integers(0, 5, bad.size)] = \
        rng.choice([np.nan, np.inf, -np.inf], size=bad.size)
    with np.errstate(invalid="ignore", over="ignore"):
        got = commands._ensemble_jrd(model, pairs)
        means, varis = model.delta_batch(pairs)
        want = jrd.jrd_batch(means.transpose(1, 0, 2), varis.transpose(1, 0, 2))
    assert got.shape == (n,)
    assert np.array_equal(got, want, equal_nan=True)


def test_ensemble_jrd_memory_does_not_grow_with_rows():
    """20,000 histories through a default-size ensemble (B=5, hidden 64,64):
    the blocked pass peaks under 8 MB, where one whole-array pass peaks at
    about 52 MB."""
    model = dynamics.build_model(h=4, b=5, hidden=[64, 64], seed=0)
    pairs = np.random.default_rng(0).normal(size=(20_000, 4, 5))
    tracemalloc.start()
    try:
        commands._ensemble_jrd(model, pairs)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 8e6, peak


# --- CLI entry point


def test_cli_collect_and_exit_codes(tmp_path):
    base = [sys.executable, "-m", "penn_mpc.cli"]
    out = tmp_path / "run"
    proc = subprocess.run(
        base + ["collect", "--minutes", "0.2", "--seed", "3",
                "--out", str(out), "collect.episode_seconds=10"],
        capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert (out / "data" / "manifest.json").exists()
    manifest = json.loads((out / "run_manifest.json").read_text())
    assert manifest["command"] == "collect" and manifest["seed"] == 3

    proc = subprocess.run(base + ["collect", "--out", str(out), "bogus.key=1"],
                          capture_output=True, text=True)
    assert proc.returncode == 2

    proc = subprocess.run(
        base + ["eval", "--checkpoint", "/nonexistent.json",
                "--data", str(out / "data"), "--out", str(tmp_path / "e")],
        capture_output=True, text=True)
    assert proc.returncode == 3
    assert (tmp_path / "e" / "FAILED").exists()


def test_cli_success_clears_stale_failed_flag(tmp_path):
    out = tmp_path / "run"
    code = cli.main(["eval", "--checkpoint", str(tmp_path / "missing.json"),
                     "--data", str(tmp_path / "nodata"), "--out", str(out)])
    assert code == 3 and (out / "FAILED").exists()
    code = cli.main(["collect", "--minutes", "0.05", "--out", str(out),
                     "collect.episode_seconds=3"])
    assert code == 0
    assert not (out / "FAILED").exists()


def test_cli_malformed_manifest_exits_3(tmp_path, capsys):
    data_dir = tmp_path / "data"
    data_dir.mkdir()
    (data_dir / "manifest.json").write_text('{"format_version": 1, "dt": 0.1}')
    out = tmp_path / "run"
    code = cli.main(["train", "--data", str(data_dir), "--out", str(out)])
    assert code == 3
    assert (out / "FAILED").exists()
    assert "malformed manifest" in capsys.readouterr().err


def test_cli_os_error_exits_3(tmp_path, capsys):
    # --out names an existing file, so the output directory cannot be made
    blocker = tmp_path / "taken"
    blocker.write_text("keep\n")
    code = cli.main(["collect", "--minutes", "0.05", "--out", str(blocker)])
    assert code == 3
    assert blocker.read_text() == "keep\n"
    assert "error:" in capsys.readouterr().err


def test_cli_geometry_error_exits_3_with_full_flag(tmp_path, capsys):
    """A track that cannot be built is a runtime failure; the FAILED flag
    holds the whole message and is written without a temporary left over."""
    for i, override in enumerate(["track.straights=", "track.half_width=-1"]):
        out = tmp_path / f"run{i}"
        code = cli.main(["collect", "--minutes", "0.05", "--out", str(out),
                         override])
        assert code == 3, override
        err = capsys.readouterr().err
        assert err.startswith("error: ")
        assert (out / "FAILED").read_text() == err[len("error: "):]
        assert not (out / ".FAILED.tmp").exists()


# Each call fails a check that needs no file: the named checkpoint and
# dataset paths do not exist and must not be opened.
_CONFIG_ERRORS = {
    "collect_rate": lambda out: commands.cmd_collect(
        tiny_cfg("collect.rate=20"), out),
    "collect_mix": lambda out: commands.cmd_collect(
        tiny_cfg("collect.mix=drift"), out),
    "collect_plant_mass": lambda out: commands.cmd_collect(
        tiny_cfg("plant.mass=0"), out),
    "collect_plant_wheelbase": lambda out: commands.cmd_collect(
        tiny_cfg("plant.lf=0", "plant.lr=0"), out),
    "collect_plant_steer_tau": lambda out: commands.cmd_collect(
        tiny_cfg("plant.steer_tau=0"), out),
    "collect_plant_mu": lambda out: commands.cmd_collect(
        tiny_cfg("plant.mu=-1"), out),
    "explore_plant_accel_tau": lambda out: commands.cmd_explore(
        tiny_cfg("plant.accel_tau=-0.1"), out),
    "deploy_plant_yaw_inertia": lambda out: commands.cmd_deploy(
        tiny_cfg("plant.yaw_inertia=0"), out, checkpoint_path="no-ckpt.json",
        mode="direct"),
    "train_no_data": lambda out: commands.cmd_train(tiny_cfg(), out),
    "eval_no_checkpoint": lambda out: commands.cmd_eval(
        tiny_cfg(), out, data_dir="no-data"),
    "eval_split": lambda out: commands.cmd_eval(
        tiny_cfg(), out, checkpoint_path="no-ckpt.json", data_dir="no-data",
        split_part="validation"),
    "ablate_no_data": lambda out: commands.cmd_ablate_history(tiny_cfg(), out),
    "ablate_h_range": lambda out: commands.cmd_ablate_history(
        tiny_cfg(), out, data_dir="no-data", h_min=3, h_max=2),
    "explore_policy": lambda out: commands.cmd_explore(
        tiny_cfg(), out, policy="greedy"),
    "deploy_mode": lambda out: commands.cmd_deploy(
        tiny_cfg(), out, checkpoint_path="no-ckpt.json", mode="fast"),
    "deploy_no_checkpoint": lambda out: commands.cmd_deploy(tiny_cfg(), out),
    "deploy_auto_threshold_no_data": lambda out: commands.cmd_deploy(
        tiny_cfg(), out, checkpoint_path="no-ckpt.json", mode="safe"),
    "deploy_sigma": lambda out: commands.cmd_deploy(
        tiny_cfg("mppi.sigma=0.3"), out, checkpoint_path="no-ckpt.json",
        mode="direct"),
    "train_model_b_zero": lambda out: commands.cmd_train(
        tiny_cfg("model.b=0"), out, data_dir="no-data"),
    "train_model_b_negative": lambda out: commands.cmd_train(
        tiny_cfg("model.b=-1"), out, data_dir="no-data"),
    "train_batch_zero": lambda out: commands.cmd_train(
        tiny_cfg("train.batch=0"), out, data_dir="no-data"),
    "train_batch_negative": lambda out: commands.cmd_train(
        tiny_cfg("train.batch=-5"), out, data_dir="no-data"),
    "deploy_max_steps_negative": lambda out: commands.cmd_deploy(
        tiny_cfg("deploy.max_steps=-1"), out, checkpoint_path="no-ckpt.json",
        mode="direct"),
    "deploy_threshold_empty": lambda out: commands.cmd_deploy(
        tiny_cfg("costs.jrd_threshold="), out, checkpoint_path="no-ckpt.json",
        data_dir="no-data", mode="safe"),
    "explore_warmup_steps_negative": lambda out: commands.cmd_explore(
        tiny_cfg("explore.warmup_steps=-1"), out),
    "explore_steps_per_round_negative": lambda out: commands.cmd_explore(
        tiny_cfg("explore.steps_per_round=-1"), out),
    "train_lr_negative": lambda out: commands.cmd_train(
        tiny_cfg("train.lr=-1"), out, data_dir="no-data"),
    "train_lr_zero": lambda out: commands.cmd_train(
        tiny_cfg("train.lr=0"), out, data_dir="no-data"),
    "train_split_ratio_one": lambda out: commands.cmd_train(
        tiny_cfg("train.split_ratio=1"), out, data_dir="no-data"),
    "train_split_ratio_zero": lambda out: commands.cmd_train(
        tiny_cfg("train.split_ratio=0"), out, data_dir="no-data"),
    "deploy_penalty_big_negative": lambda out: commands.cmd_deploy(
        tiny_cfg("costs.penalty_big=-1"), out, checkpoint_path="no-ckpt.json",
        data_dir="no-data", mode="safe"),
    "deploy_w_track_negative": lambda out: commands.cmd_deploy(
        tiny_cfg("costs.w_track=-0.5"), out, checkpoint_path="no-ckpt.json",
        mode="direct"),
    "deploy_laps_negative": lambda out: commands.cmd_deploy(
        tiny_cfg("deploy.laps=-1"), out, checkpoint_path="no-ckpt.json",
        mode="direct"),
}


@pytest.mark.parametrize("case", sorted(_CONFIG_ERRORS))
def test_config_error_leaves_no_output_dir(tmp_path, case):
    out = tmp_path / "out"
    with pytest.raises(ConfigError):
        _CONFIG_ERRORS[case](out)
    assert not out.exists()


def test_cli_config_error_leaves_no_output_dir(tmp_path):
    out = tmp_path / "out"
    assert cli.main(["collect", "--rate", "20", "--out", str(out)]) == 2
    assert not out.exists()
    for override in ("plant.mu=-1", "collect.episode_seconds=nan"):
        assert cli.main(["collect", "--minutes", "0.5", "--out", str(out),
                         override]) == 2, override
        assert not out.exists()


def test_cli_effective_config_round_trips(tmp_path):
    cfg = tiny_cfg("seed=5")
    commands.cmd_collect(cfg, tmp_path)
    text = (tmp_path / "config.txt").read_text()
    again = config.parse_config_text(text)
    assert config.dump_config(again) == text
    assert config.config_hash(again) == config.config_hash(cfg)


def _assert_trees_identical(a: Path, b: Path):
    ca = sorted(p.relative_to(a) for p in a.rglob("*") if p.is_file())
    cb = sorted(p.relative_to(b) for p in b.rglob("*") if p.is_file())
    assert ca == cb
    for rel in ca:
        assert (a / rel).read_bytes() == (b / rel).read_bytes(), rel


# --- lap counting


def _laps(s_trace, length):
    """Fold ``_net_laps`` over a trace as ``_run_closed_loop`` does: lap k
    completes at the first step whose net crossing count reaches k."""
    net = laps = 0
    steps = []
    for i in range(1, len(s_trace)):
        net = commands._net_laps(net, s_trace[i - 1], s_trace[i], length)
        if net > laps:
            laps = net
            steps.append(i)
    return steps


def test_laps_not_counted_for_backing_across_start():
    length = 100.0
    backing = [2.0, 1.0, 0.4, 99.6, 99.0]         # reverse over the start
    forward = [99.5, 0.3, 1.0]                     # forward over it again
    lap = list(np.arange(2.0, 100.0, 0.9)) + [0.2, 1.1]
    s_trace = backing + forward + lap
    assert _laps(s_trace, length) == [len(s_trace) - 2]


@settings(max_examples=50, deadline=None)
@given(s0=st.floats(0.0, 99.99), steps=st.lists(st.floats(0.0, 24.0),
                                                min_size=1, max_size=400))
def test_forward_laps_match_wrap_rule(s0, steps):
    """For forward-only traces (steps under a quarter lap) laps fall on the
    same steps as the wrap rule: s goes from above 0.75 L to below 0.25 L."""
    length = 100.0
    s_trace = list(np.mod(s0 + np.cumsum([0.0] + steps), length))
    wrap = [i for i in range(1, len(s_trace))
            if s_trace[i] < 0.25 * length and s_trace[i - 1] > 0.75 * length]
    assert _laps(s_trace, length) == wrap


def test_one_forward_lap():
    length = 50.0
    s_trace = list(np.mod(np.arange(0.0, 60.0, 0.7), length))
    want = int(np.ceil(length / 0.7))
    assert _laps(s_trace, length) == [want]

"""Config handling, command outputs, determinism, and the CLI entry point."""

import csv
import filecmp
import json
import subprocess
import sys
from pathlib import Path

import pytest

from penn_mpc import cli, commands, config
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


def test_config_round_trip():
    cfg = tiny_cfg("seed=11", "mppi.lambda=0.5", "track.straights=30,15,25")
    text = config.dump_config(cfg)
    again = config.parse_config_text(text)
    assert config.dump_config(again) == text
    assert again.mppi.lam == 0.5
    assert again.track.straights == [30.0, 15.0, 25.0]
    assert again.seed == 11


def test_config_unknown_keys_rejected():
    with pytest.raises(ConfigError):
        config.load_config(None, ["model.depth=3"])
    with pytest.raises(ConfigError):
        config.load_config(None, ["optimizer.lr=1"])
    with pytest.raises(ConfigError):
        config.parse_config_text("nonsense line\n")


def test_config_case_insensitive_keys():
    cfg = config.load_config(None, ["model.H=6", "mppi.K=32"])
    assert cfg.model.h == 6
    assert cfg.mppi.k == 32


def test_config_file_loading(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text("# comment\nmodel.h = 7\nmppi.sigma = 0.2,0.4\n")
    cfg = config.load_config(path, ["model.h=8"])  # overrides beat the file
    assert cfg.model.h == 8
    assert cfg.mppi.sigma == [0.2, 0.4]


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


def test_cli_os_error_exits_3(tmp_path, capsys):
    # --out names an existing file, so the output directory cannot be made
    blocker = tmp_path / "taken"
    blocker.write_text("keep\n")
    code = cli.main(["collect", "--minutes", "0.05", "--out", str(blocker)])
    assert code == 3
    assert blocker.read_text() == "keep\n"
    assert "error:" in capsys.readouterr().err


# Each call fails a check that needs no file: the named checkpoint and
# dataset paths do not exist and must not be opened.
_CONFIG_ERRORS = {
    "collect_rate": lambda out: commands.cmd_collect(
        tiny_cfg("collect.rate=20"), out),
    "collect_mix": lambda out: commands.cmd_collect(
        tiny_cfg("collect.mix=drift"), out),
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

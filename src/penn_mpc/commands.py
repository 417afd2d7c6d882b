"""Experiment commands behind the CLI: data collection, training, the history
ablation, the active-exploration loop, deployment runs, and evaluation.

Every command is deterministic given (config, seed): all randomness flows
through seeds derived from the experiment seed with fixed tags, outputs carry
no timestamps, and floats are formatted identically on every run.
"""

from __future__ import annotations

import csv
import json
import logging
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import __version__
from .config import ExperimentConfig, config_hash, dump_config
from .data import load_dataset, save_dataset, split, window_episodes
from .dynamics import (EvalReport, HistoryWindow, PennModel, TrainConfig,
                       build_model, evaluate_rmse, load_checkpoint,
                       save_checkpoint, train)
from .errors import ConfigError, DataError
from .jrd import jrd_batch
from .mppi import CostSpec, MpcState, MppiConfig, mpc_step
from .sim import (EpisodeLog, MANEUVER_KINDS, PlantState, build_track,
                  plant_step, save_track_csv, scripted_maneuver,
                  track_frame_batch)

log = logging.getLogger(__name__)

DIAG_COLUMNS = ("t", "mode", "applied_steer", "applied_throttle", "best_cost",
                "mean_jrd", "max_jrd", "n_invalid")

_MIX_NAMES = {"zigzag": "zigzag_low_speed", "zigzag_low_speed": "zigzag_low_speed",
              "high_speed": "high_speed_laps", "high_speed_laps": "high_speed_laps",
              "slide": "slide"}


def derive_seed(*parts: int) -> int:
    """Stable 32-bit seed from an integer path, for namespaced RNG streams."""
    return int(np.random.SeedSequence(list(parts)).generate_state(1)[0])


def _write_run_manifest(out: Path, command: str, cfg: ExperimentConfig) -> None:
    doc = {"command": command, "config_hash": config_hash(cfg),
           "seed": cfg.seed, "version": __version__}
    (out / "run_manifest.json").write_text(
        json.dumps(doc, sort_keys=True, indent=1) + "\n")
    (out / "config.txt").write_text(dump_config(cfg))


def _fmt(v: float) -> str:
    return f"{v:.9g}"


def _write_eval_report(report: EvalReport, stem: Path) -> None:
    lines = [f"RMSE report (n={report.n_samples} samples)"]
    for name, unit, value in report.rows():
        label = f"{name} [{unit}]" if unit else name
        lines.append(f"  {label:<11} {value:.6f}")
    stem.with_suffix(".txt").write_text("\n".join(lines) + "\n")
    with open(stem.with_suffix(".csv"), "w", newline="") as f:
        writer = csv.writer(f)
        writer.writerow(["metric", "unit", "value"])
        for name, unit, value in report.rows():
            writer.writerow([name.lower(), unit, _fmt(value)])
        writer.writerow(["n_samples", "", str(report.n_samples)])


def parse_mix(mix: str) -> list[str]:
    schedule: list[str] = []
    for part in mix.split(","):
        part = part.strip()
        if not part:
            continue
        if ":" in part:
            name, _, weight = part.partition(":")
            count = int(weight)
        else:
            name, count = part, 1
        kind = _MIX_NAMES.get(name.strip())
        if kind is None or kind not in MANEUVER_KINDS:
            raise ConfigError(f"unknown maneuver {name!r} in mix {mix!r}")
        schedule.extend([kind] * count)
    if not schedule:
        raise ConfigError(f"empty maneuver mix {mix!r}")
    return schedule


def cmd_collect(cfg: ExperimentConfig, out_dir) -> Path:
    """Run the scripted-maneuver mix in both directions until the requested
    minutes of rows are logged; returns the dataset manifest path."""
    if abs(cfg.collect.rate * cfg.plant.dt - 1.0) > 1e-9:
        raise ConfigError(
            f"collect.rate {cfg.collect.rate} does not match plant.dt {cfg.plant.dt}")
    schedule = parse_mix(cfg.collect.mix)
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    track = build_track(cfg.track_spec())
    params = cfg.plant_params()
    target_rows = int(round(cfg.collect.minutes * 60.0 * cfg.collect.rate))
    ep_rows = max(2, int(round(cfg.collect.episode_seconds * cfg.collect.rate)))
    episodes = []
    rows = 0
    i = 0
    max_episodes = 20 * math.ceil(target_rows / ep_rows) + 20
    while rows < target_rows and i < max_episodes:
        kind = schedule[i % len(schedule)]
        direction = "ccw" if i % 2 == 0 else "cw"
        duration = min(ep_rows, target_rows - rows) / cfg.collect.rate
        ep = scripted_maneuver(kind, duration, direction,
                               seed=derive_seed(cfg.seed, 101, i),
                               track=track, params=params)
        episodes.append(ep)
        rows += ep.n_rows
        i += 1
    if rows < target_rows:
        log.warning("collected %d of %d requested rows", rows, target_rows)
    manifest = save_dataset(episodes, out / "data",
                            extra={"rate": cfg.collect.rate,
                                   "target_rows": target_rows,
                                   "total_rows": rows})
    save_track_csv(track, out / "track.csv")
    _write_run_manifest(out, "collect", cfg)
    return manifest


def _train_from_samples(cfg: ExperimentConfig, samples, seed: int, h: int,
                        dt: float, epochs: int | None = None):
    ds = split(samples, cfg.train.split_ratio, seed=seed)
    model0 = build_model(h=h, b=cfg.model.b, hidden=list(cfg.model.hidden),
                         mode=cfg.model.mode, activation=cfg.model.activation,
                         seed=seed, var_min=cfg.model.var_min,
                         var_max=cfg.model.var_max, dt=dt)
    tc = TrainConfig(epochs=epochs if epochs is not None else cfg.train.epochs,
                     batch_size=cfg.train.batch, seed=seed, lr=cfg.train.lr,
                     bootstrap=cfg.train.bootstrap)
    best, history = train(model0, ds.train, ds.test, tc)
    return best, history, ds


def _write_metrics_csv(history, path: Path) -> None:
    with open(path, "w", newline="") as f:
        writer = csv.writer(f)
        writer.writerow(["epoch", "train_loss", "rmse_vx", "rmse_vy", "rmse_r",
                         "rmse_total"])
        for row in history.rows():
            writer.writerow([row["epoch"]] + [_fmt(row[k]) for k in
                                              ("train_loss", "rmse_vx", "rmse_vy",
                                               "rmse_r", "rmse_total")])


def cmd_train(cfg: ExperimentConfig, out_dir, data_dir=None) -> dict:
    """Window, split 70/30, train the ensemble, save the best checkpoint plus
    per-epoch metrics and the four-row RMSE report."""
    data_dir = data_dir or cfg.io.data
    if not data_dir:
        raise ConfigError("cmd_train needs a dataset (io.data or --data)")
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    episodes, manifest = load_dataset(data_dir)
    samples = window_episodes(episodes, cfg.model.h)
    best, history, ds = _train_from_samples(cfg, samples, cfg.seed,
                                            h=cfg.model.h, dt=manifest["dt"])
    ckpt = out / "checkpoint.json"
    save_checkpoint(best, ckpt)
    _write_metrics_csv(history, out / "metrics.csv")
    report = evaluate_rmse(best, ds.test)
    _write_eval_report(report, out / "eval_report")
    _write_run_manifest(out, "train", cfg)
    return {"checkpoint": ckpt, "report": report, "history": history}


def cmd_eval(cfg: ExperimentConfig, out_dir, checkpoint_path=None,
             data_dir=None, split_part: str = "test") -> EvalReport:
    """Four-row RMSE report of a checkpoint on a dataset split."""
    checkpoint_path = checkpoint_path or cfg.io.checkpoint
    data_dir = data_dir or cfg.io.data
    if not checkpoint_path or not data_dir:
        raise ConfigError("cmd_eval needs a checkpoint and a dataset")
    if split_part not in ("train", "test", "all"):
        raise ConfigError(f"split must be train, test, or all, got {split_part!r}")
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    model = load_checkpoint(checkpoint_path)
    episodes, manifest = load_dataset(data_dir)
    declared_h = manifest.get("h")
    if declared_h is not None and int(declared_h) != model.h:
        raise DataError(
            f"checkpoint was trained with H={model.h} but the dataset declares "
            f"H={declared_h}")
    samples = window_episodes(episodes, model.h)
    if split_part != "all":
        ds = split(samples, cfg.train.split_ratio, seed=cfg.seed)
        samples = ds.train if split_part == "train" else ds.test
    report = evaluate_rmse(model, samples)
    _write_eval_report(report, out / "eval_report")
    _write_run_manifest(out, "eval", cfg)
    return report


@dataclass
class AblationReport:
    h_values: list[int]
    reports: list[EvalReport]
    best_h: int


def cmd_ablate_history(cfg: ExperimentConfig, out_dir, data_dir=None,
                       h_min: int = 1, h_max: int = 10) -> AblationReport:
    """Identical train/eval protocol per history length; emits one RMSE row
    per H (CSV) and a transposed text table with per-dimension rows."""
    data_dir = data_dir or cfg.io.data
    if not data_dir:
        raise ConfigError("cmd_ablate_history needs a dataset")
    if h_min < 1 or h_max < h_min:
        raise ConfigError(f"bad history range [{h_min}, {h_max}]")
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    episodes, manifest = load_dataset(data_dir)
    h_values = list(range(h_min, h_max + 1))
    reports = []
    for h in h_values:
        samples = window_episodes(episodes, h)
        best, _, ds = _train_from_samples(cfg, samples, cfg.seed, h=h,
                                          dt=manifest["dt"])
        reports.append(evaluate_rmse(best, ds.test))
        log.info("ablation H=%d: pooled RMSE %.5f", h, reports[-1].rmse_total)
    best_idx = int(np.argmin([r.rmse_total for r in reports]))
    report = AblationReport(h_values=h_values, reports=reports,
                            best_h=h_values[best_idx])

    with open(out / "ablation.csv", "w", newline="") as f:
        writer = csv.writer(f)
        writer.writerow(["h", "rmse_total", "rmse_vx", "rmse_vy", "rmse_r",
                         "is_best"])
        for h, r in zip(h_values, reports):
            writer.writerow([h, _fmt(r.rmse_total), _fmt(r.rmse_vx),
                             _fmt(r.rmse_vy), _fmt(r.rmse_r),
                             int(h == report.best_h)])

    header = ["History length"] + [
        f"{h}*" if h == report.best_h else str(h) for h in h_values]
    rows = [("Total", [r.rmse_total for r in reports]),
            ("vx [m/s]", [r.rmse_vx for r in reports]),
            ("vy [m/s]", [r.rmse_vy for r in reports]),
            ("r [rad/s]", [r.rmse_r for r in reports])]
    width = 9
    lines = ["".join([f"{header[0]:<15}"] + [f"{hdr:>{width}}" for hdr in header[1:]])]
    for label, values in rows:
        lines.append("".join([f"{label:<15}"] + [f"{v:>{width}.4f}" for v in values]))
    (out / "ablation.txt").write_text("\n".join(lines) + "\n")
    _write_run_manifest(out, "ablate-history", cfg)
    return report


# ---------------------------------------------------------------------------
# Closed-loop running (shared by explore and deploy)


def executed_jrd(model: PennModel, window: HistoryWindow) -> float:
    """Ensemble disagreement at one executed (history, action) point."""
    if model.mode != "probabilistic" or model.b < 2:
        return 0.0
    means, varis = model.delta_batch(window.states[None], window.actions[None])
    return float(jrd_batch(means.transpose(1, 0, 2), varis.transpose(1, 0, 2))[0])


def _hold_throttle(v: float, params) -> float:
    return float(np.clip(params.drag * v / (params.mass * params.max_accel),
                         -1.0, 1.0))


def _warm_window(state: PlantState, params, h: int) -> tuple[PlantState, HistoryWindow]:
    """Fill an H-pair window by driving straight at roughly constant speed."""
    states = []
    actions = []
    for _ in range(h):
        action = np.array([0.0, _hold_throttle(state.vx, params)])
        states.append(state.state_triple())
        actions.append(action)
        state = plant_step(state, action, params)
    return state, HistoryWindow(np.array(states), np.array(actions), dt=params.dt)


@dataclass
class ClosedLoopResult:
    episode: EpisodeLog
    exec_jrd: np.ndarray
    s_trace: np.ndarray
    e_lat_trace: np.ndarray
    diag_rows: list[dict]
    laps: int
    lap_steps: list[int]
    failed: bool


def _run_closed_loop(model: PennModel, params, track, mppi_cfg: MppiConfig | None,
                     spec: CostSpec | None, n_steps: int, policy: str,
                     seed: int, v_start: float, tag: str,
                     envelope: float | None = None,
                     lap_target: int | None = None) -> ClosedLoopResult:
    """Drive the plant with MPPI (policy="mpc") or uniform random actions.

    The model never sees plant internals: it is fed only the logged
    state/action history. Stops after n_steps, lap_target completed laps, or
    (when an envelope is set) on leaving the track.
    """
    pos, head, _ = track.point_at(0.0)
    state = PlantState(vx=v_start, x=float(pos[0]), y=float(pos[1]), yaw=head)
    state, window = _warm_window(state, params, model.h)
    rng = np.random.default_rng([seed, 17]) if policy == "random" else None
    mpc_state = MpcState(cfg=mppi_cfg, spec=spec) if policy == "mpc" else None

    t_arr = np.empty(n_steps)
    states = np.empty((n_steps, 3))
    actions = np.empty((n_steps, 2))
    poses = np.empty((n_steps, 3))
    jrds = np.empty(n_steps)
    s_trace = np.empty(n_steps)
    e_trace = np.empty(n_steps)
    diag_rows: list[dict] = []
    laps = 0
    lap_steps: list[int] = []
    failed = False
    prev_s = None
    n = 0
    for i in range(n_steps):
        s_arr, e_arr, _, dist = track_frame_batch(
            np.array([[state.x, state.y]]), np.array([state.yaw]), track)
        s_here, e_here = float(s_arr[0]), float(e_arr[0])
        if envelope is not None and abs(e_here) > envelope:
            failed = True
            break
        if prev_s is not None and s_here < 0.25 * track.total_length \
                and prev_s > 0.75 * track.total_length:
            laps += 1
            lap_steps.append(i)
            if lap_target is not None and laps >= lap_target:
                break
        prev_s = s_here

        if policy == "mpc":
            action, mpc_state, diag = mpc_step(mpc_state, model, window,
                                               pose=state.pose())
        else:
            action = rng.uniform(-1.0, 1.0, size=2)
            diag = {"best_cost": 0.0, "mean_jrd": 0.0, "max_jrd": 0.0,
                    "n_invalid": 0, "all_invalid": False}
        window = HistoryWindow(window.states,
                               np.vstack([window.actions[:-1], action]),
                               dt=window.dt)
        jrd_here = executed_jrd(model, window)
        t_arr[n] = i * params.dt
        states[n] = state.state_triple()
        actions[n] = action
        poses[n] = state.pose()
        jrds[n] = jrd_here
        s_trace[n] = s_here
        e_trace[n] = e_here
        diag_rows.append({"t": i * params.dt, "applied_steer": float(action[0]),
                          "applied_throttle": float(action[1]), **diag})
        n += 1
        state = plant_step(state, action, params)
        window = window.shifted(state.state_triple(), action)

    episode = EpisodeLog(t=t_arr[:n].copy(), states=states[:n].copy(),
                         actions=actions[:n].copy(), poses=poses[:n].copy(),
                         dt=params.dt, tag=tag, seed=seed, truncated=failed)
    return ClosedLoopResult(episode=episode, exec_jrd=jrds[:n].copy(),
                            s_trace=s_trace[:n].copy(),
                            e_lat_trace=e_trace[:n].copy(), diag_rows=diag_rows,
                            laps=laps, lap_steps=lap_steps, failed=failed)


def _write_diagnostics(rows: list[dict], mode: str, path: Path) -> None:
    with open(path, "w", newline="") as f:
        writer = csv.writer(f)
        writer.writerow(DIAG_COLUMNS)
        for row in rows:
            writer.writerow([_fmt(row["t"]), mode, _fmt(row["applied_steer"]),
                             _fmt(row["applied_throttle"]),
                             _fmt(row["best_cost"]), _fmt(row["mean_jrd"]),
                             _fmt(row["max_jrd"]), row["n_invalid"]])


def train_set_jrd_percentile(model: PennModel, data_dir, q: float = 95.0) -> float:
    """Disagreement distribution of a dataset under a checkpoint, q-th pct."""
    episodes, _ = load_dataset(data_dir)
    samples = window_episodes(episodes, model.h)
    states = np.stack([s.window.states for s in samples])
    actions = np.stack([s.window.actions for s in samples])
    means, varis = model.delta_batch(states, actions)
    vals = jrd_batch(means.transpose(1, 0, 2), varis.transpose(1, 0, 2))
    return float(np.percentile(vals, q))


def cmd_deploy(cfg: ExperimentConfig, out_dir, checkpoint_path=None,
               mode: str = "safe", laps: int | None = None,
               data_dir=None) -> dict:
    """Closed-loop laps on the plant with the learned model inside MPPI.

    mode="direct" ignores disagreement; mode="safe" penalizes it and applies
    the big penalty above the threshold (configured value, or the 95th
    percentile of the training set's disagreement when set to "auto")."""
    if mode not in ("direct", "safe"):
        raise ConfigError(f"deploy mode must be direct or safe, got {mode!r}")
    checkpoint_path = checkpoint_path or cfg.io.checkpoint
    if not checkpoint_path:
        raise ConfigError("cmd_deploy needs a checkpoint")
    data_dir = data_dir or cfg.io.data
    if mode == "safe" and cfg.costs.jrd_threshold == "auto" and not data_dir:
        raise ConfigError("costs.jrd_threshold=auto needs the training dataset "
                          "(io.data or --data)")
    model = load_checkpoint(checkpoint_path)
    if mode == "safe" and (model.mode != "probabilistic" or model.b < 2):
        raise ConfigError("safe deployment needs a probabilistic ensemble "
                          "checkpoint with B >= 2")
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    laps = laps if laps is not None else cfg.deploy.laps
    track = build_track(cfg.track_spec())
    params = cfg.plant_params()

    threshold = math.inf
    if mode == "safe":
        raw = cfg.costs.jrd_threshold
        if raw == "auto":
            threshold = train_set_jrd_percentile(model, data_dir)
        else:
            threshold = float(raw)
    spec = CostSpec(mode="deploy_safe" if mode == "safe" else "deploy_direct",
                    w_track=cfg.costs.w_track, w_speed=cfg.costs.w_speed,
                    w_ctrl=cfg.costs.w_ctrl,
                    w_unc=cfg.costs.w_unc if mode == "safe" else 0.0,
                    jrd_threshold=threshold, penalty_big=cfg.costs.penalty_big,
                    v_target=cfg.costs.v_target, track=track)
    result = _run_closed_loop(model, params, track, cfg.mppi_config(cfg.seed),
                              spec, n_steps=cfg.deploy.max_steps, policy="mpc",
                              seed=cfg.seed, v_start=cfg.deploy.v_start,
                              tag=f"deploy_{mode}",
                              envelope=2.5 * track.half_width, lap_target=laps)

    with open(out / "trajectory.csv", "w", newline="") as f:
        writer = csv.writer(f)
        writer.writerow(["t", "vx", "vy", "r", "steer", "throttle", "x", "y",
                         "yaw", "s", "e_lat", "jrd"])
        ep = result.episode
        for i in range(ep.n_rows):
            writer.writerow([_fmt(v) for v in
                             (ep.t[i], *ep.states[i], *ep.actions[i], *ep.poses[i],
                              result.s_trace[i], result.e_lat_trace[i],
                              result.exec_jrd[i])])
    _write_diagnostics(result.diag_rows, f"deploy_{mode}", out / "diagnostics.csv")
    lap_times = [float(params.dt * (b - a)) for a, b in
                 zip([0] + result.lap_steps[:-1], result.lap_steps)]
    summary = {
        "mode": mode,
        "laps_requested": laps,
        "laps_completed": result.laps,
        "completion": result.laps / laps if laps else 1.0,
        "steps": int(result.episode.n_rows),
        "mean_jrd": float(np.mean(result.exec_jrd)) if result.episode.n_rows else 0.0,
        "max_jrd": float(np.max(result.exec_jrd)) if result.episode.n_rows else 0.0,
        "lap_times": lap_times,
        "max_abs_e_lat": float(np.max(np.abs(result.e_lat_trace)))
        if result.episode.n_rows else 0.0,
        "jrd_threshold": threshold if math.isfinite(threshold) else None,
        "failed": result.failed,
    }
    (out / "summary.json").write_text(json.dumps(summary, sort_keys=True, indent=1)
                                      + "\n")
    _write_run_manifest(out, "deploy", cfg)
    return summary


# ---------------------------------------------------------------------------
# Active exploration loop


def _random_warmup(cfg: ExperimentConfig, track, params) -> EpisodeLog:
    rng = np.random.default_rng([cfg.seed, 8001])
    pos, head, _ = track.point_at(0.0)
    state = PlantState(vx=2.0, x=float(pos[0]), y=float(pos[1]), yaw=head)
    n = cfg.explore.warmup_steps
    t = np.arange(n) * params.dt
    states = np.empty((n, 3))
    actions = rng.uniform(-1.0, 1.0, size=(n, 2))
    poses = np.empty((n, 3))
    for i in range(n):
        states[i] = state.state_triple()
        poses[i] = state.pose()
        state = plant_step(state, actions[i], params)
    return EpisodeLog(t=t, states=states, actions=actions, poses=poses,
                      dt=params.dt, tag="warmup", seed=cfg.seed)


def _retrain(cfg: ExperimentConfig, buffer_episodes, seed: int, dt: float):
    samples = window_episodes(buffer_episodes, cfg.model.h)
    best, _, _ = _train_from_samples(cfg, samples, seed, h=cfg.model.h, dt=dt,
                                     epochs=cfg.explore.retrain_epochs)
    return best


_CURVE_COLUMNS = ("round", "cumulative_steps", "rmse_total", "rmse_vx",
                  "rmse_vy", "rmse_r", "mean_pre_jrd")


def _write_curve(rows: list[dict], path: Path) -> None:
    with open(path, "w", newline="") as f:
        writer = csv.writer(f)
        writer.writerow(_CURVE_COLUMNS)
        for row in rows:
            writer.writerow([row["round"], row["cumulative_steps"]]
                            + [_fmt(row[k]) for k in _CURVE_COLUMNS[2:]])


def _read_curve(path: Path) -> list[dict]:
    rows = []
    with open(path, newline="") as f:
        reader = csv.DictReader(f)
        for rec in reader:
            rows.append({"round": int(rec["round"]),
                         "cumulative_steps": int(rec["cumulative_steps"]),
                         **{k: float(rec[k]) for k in _CURVE_COLUMNS[2:]}})
    return rows


def cmd_explore(cfg: ExperimentConfig, out_dir, policy: str | None = None) -> dict:
    """Alternate acting and retraining: each round runs the exploration MPC
    (or the uniform-random baseline) on the plant, appends the episode to the
    buffer, retrains from scratch, and logs held-out RMSE against cumulative
    interaction steps. Rounds are checkpointed, so an interrupted run resumes
    to identical final outputs."""
    policy = policy or cfg.explore.policy
    if policy not in ("explore", "random"):
        raise ConfigError(f"explore policy must be explore or random, got {policy!r}")
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    track = build_track(cfg.track_spec())
    params = cfg.plant_params()
    dt = params.dt

    # Fixed held-out evaluation set covering all three maneuver regimes.
    eval_dir = out / "eval_data"
    if not (eval_dir / "manifest.json").exists():
        per = cfg.explore.eval_seconds / 6.0
        eval_eps = []
        idx = 0
        for kind in MANEUVER_KINDS:
            for direction in ("ccw", "cw"):
                eval_eps.append(scripted_maneuver(
                    kind, per, direction, seed=derive_seed(cfg.seed, 9001, idx),
                    track=track, params=params))
                idx += 1
        save_dataset(eval_eps, eval_dir, h=cfg.model.h)
    eval_episodes, _ = load_dataset(eval_dir)
    eval_samples = window_episodes(eval_episodes, cfg.model.h)

    buffer_dir = out / "buffer"
    curve_path = out / "learning_curve.csv"
    rows = _read_curve(curve_path) if curve_path.exists() else []
    done_rounds = len(rows)
    if done_rounds > cfg.explore.n_rounds:
        rows = rows[:cfg.explore.n_rounds]
        done_rounds = cfg.explore.n_rounds

    warmup_ckpt = out / "ckpt_warmup.json"
    if done_rounds and warmup_ckpt.exists():
        buffer_episodes, _ = load_dataset(buffer_dir)
        buffer_episodes = buffer_episodes[:1 + done_rounds]
        model = load_checkpoint(out / f"ckpt_round_{done_rounds - 1:02d}.json")
    else:
        rows = []
        done_rounds = 0
        warm = _random_warmup(cfg, track, params)
        save_dataset([warm], buffer_dir, h=cfg.model.h)
        # retrain from the saved files so an interrupted run resumes to
        # bit-identical results (episode CSVs round to 9 significant digits)
        buffer_episodes, _ = load_dataset(buffer_dir)
        model = _retrain(cfg, buffer_episodes, derive_seed(cfg.seed, 300, 999), dt)
        save_checkpoint(model, warmup_ckpt)

    cumulative = sum(ep.n_rows for ep in buffer_episodes)
    for k in range(done_rounds, cfg.explore.n_rounds):
        if policy == "explore":
            mppi_cfg = cfg.mppi_config(derive_seed(cfg.seed, 400, k))
            spec = CostSpec(mode="explore", w_ctrl=cfg.costs.w_ctrl)
            result = _run_closed_loop(model, params, track, mppi_cfg, spec,
                                      n_steps=cfg.explore.steps_per_round,
                                      policy="mpc", seed=derive_seed(cfg.seed, 401, k),
                                      v_start=3.0, tag=f"explore_{k}")
        else:
            result = _run_closed_loop(model, params, track, None, None,
                                      n_steps=cfg.explore.steps_per_round,
                                      policy="random",
                                      seed=derive_seed(cfg.seed, 401, k),
                                      v_start=3.0, tag=f"random_{k}")
        _write_diagnostics(result.diag_rows, policy,
                           out / f"diagnostics_round_{k:02d}.csv")
        buffer_episodes.append(result.episode)
        save_dataset(buffer_episodes, buffer_dir, h=cfg.model.h)
        buffer_episodes, _ = load_dataset(buffer_dir)
        cumulative += result.episode.n_rows
        model = _retrain(cfg, buffer_episodes, derive_seed(cfg.seed, 300, k), dt)
        save_checkpoint(model, out / f"ckpt_round_{k:02d}.json")
        report = evaluate_rmse(model, eval_samples)
        rows.append({"round": k, "cumulative_steps": cumulative,
                     "rmse_total": report.rmse_total, "rmse_vx": report.rmse_vx,
                     "rmse_vy": report.rmse_vy, "rmse_r": report.rmse_r,
                     "mean_pre_jrd": float(np.mean(result.exec_jrd))})
        _write_curve(rows, curve_path)
        log.info("round %d (%s): heldout RMSE %.5f, pre-round jrd %.4f",
                 k, policy, report.rmse_total, rows[-1]["mean_pre_jrd"])
    _write_run_manifest(out, "explore", cfg)
    return {"policy": policy, "rows": rows, "curve": curve_path}

"""The benchmark's workloads, driven through penn_mpc's public functions.

Each workload has a setup (data, windowing, training, threshold), which the
benchmark repeats and times as a whole, and a timed closed loop: the next
call starts when the previous one returns.

- explore_loop: exploration MPPI acting with the round-0 model of
  ``explore`` (a retrain on the random warm-up buffer). Forward pass and JRD
  dominate; track projection is never called.
- deploy_loop: deploy_safe MPPI with a checkpoint trained in setup on
  collected zigzag and high-speed maneuvers and the 95th-percentile
  training-set JRD threshold, as in acceptance criterion C7. Track projection
  dominates the step; the setup's training runs backprop, Adam and the
  per-epoch evaluation at C7's data size.
"""

from __future__ import annotations

import hashlib
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from penn_mpc import commands, config, data, dynamics, mppi, sim

# C7's data, optimizer and costs at the default K and T, with half of C7's
# 80 epochs so that three setups fit the run budget.
DEPLOY_OVERRIDES = [
    "collect.minutes=8", "collect.mix=zigzag:1,high_speed:1",
    "collect.episode_seconds=40",
    "train.epochs=40", "train.batch=512", "train.lr=0.002",
    "costs.v_target=10.0", "deploy.v_start=5.0",
]

# Deterministic outputs (fingerprints, e_lat, executed JRD) cover exactly the
# first MIN_STEPS control steps, so they do not depend on how many steps fit
# in the measured time.
MIN_STEPS = 20
ENVELOPE_FACTOR = 2.5
EXPLORE_V_START = 3.0


@dataclass
class Setup:
    """What one setup built, what the timed phase needs, and what setup
    measured about its own training."""

    cfg: config.ExperimentConfig
    fingerprint: str        # must repeat across setups of one run
    plant_calls: int        # analytic count of sim.plant_step calls
    train_s: float          # wall time of dynamics.train
    n_train: int            # training samples of that call
    epochs: int
    heldout_rmse: float     # best-epoch pooled RMSE on the held-out split
    zero_rmse: float        # zero-increment predictor on the same split
    checkpoint_sha: str
    model: dynamics.PennModel
    mppi_cfg: mppi.MppiConfig
    spec: mppi.CostSpec
    track: sim.Track
    v_start: float


def _zero_rmse(test_samples) -> float:
    _, targets = dynamics.stack_samples(test_samples)
    return dynamics.rmse_report(np.zeros_like(targets), targets).rmse_total


def _checkpoint_sha(model, work: Path) -> str:
    path = work / "checkpoint.json"
    dynamics.save_checkpoint(model, path)
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _train(cfg, samples, seed: int, epochs: int) -> dict:
    """Split, build and train as ``train`` does; returns the best model and
    what the Setup records about the training."""
    ds = data.split(samples, cfg.train.split_ratio, seed=seed)
    model0 = dynamics.build_model(
        h=cfg.model.h, b=cfg.model.b, hidden=list(cfg.model.hidden),
        mode=cfg.model.mode, activation=cfg.model.activation, seed=seed,
        var_min=cfg.model.var_min, var_max=cfg.model.var_max, dt=cfg.plant.dt)
    tc = dynamics.TrainConfig(epochs=epochs, batch_size=cfg.train.batch,
                              seed=seed, lr=cfg.train.lr,
                              bootstrap=cfg.train.bootstrap)
    t0 = time.perf_counter()
    best, history = dynamics.train(model0, ds.train, ds.test, tc)
    seconds = time.perf_counter() - t0
    return {"model": best, "train_s": seconds, "n_train": len(ds.train),
            "epochs": epochs,
            "heldout_rmse": history.reports[history.best_epoch].rmse_total,
            "zero_rmse": _zero_rmse(ds.test)}


def _mppi_cfg(cfg, seed: int) -> mppi.MppiConfig:
    m = cfg.mppi
    return mppi.MppiConfig(k=m.k, horizon=m.t, lam=m.lam, sigma=tuple(m.sigma),
                           seed=seed, smoothing=m.smoothing,
                           smoothing_window=m.smoothing_window)


def setup_explore(seed: int, work: Path) -> Setup:
    # package defaults: K=512, T=25, B=5, H=4, hidden 64,64, 150 warm-up
    # steps and 100 retrain epochs
    cfg = config.load_config(None, [f"seed={seed}"])
    track = sim.build_track(cfg.track_spec())
    params = cfg.plant_params()
    # the random warm-up buffer of explore round 0
    rng = np.random.default_rng([seed, 8001])
    pos, head, _ = track.point_at(0.0)
    state = sim.PlantState(vx=2.0, x=float(pos[0]), y=float(pos[1]), yaw=head)
    n = cfg.explore.warmup_steps
    actions = rng.uniform(-1.0, 1.0, size=(n, 2))
    states = np.empty((n, 3))
    poses = np.empty((n, 3))
    for i in range(n):
        states[i] = state.state_triple()
        poses[i] = state.pose()
        state = sim.plant_step(state, actions[i], params)
    warm = sim.EpisodeLog(t=np.arange(n) * params.dt, states=states,
                          actions=actions, poses=poses, dt=params.dt,
                          tag="warmup", seed=seed)
    samples = data.window_episodes([warm], cfg.model.h)
    trained = _train(cfg, samples, commands.derive_seed(seed, 300, 999),
                     cfg.explore.retrain_epochs)
    ckpt = _checkpoint_sha(trained["model"], work)
    return Setup(
        cfg=cfg, fingerprint=ckpt, plant_calls=n,
        checkpoint_sha=ckpt, **trained,
        mppi_cfg=_mppi_cfg(cfg, commands.derive_seed(seed, 400, 0)),
        spec=mppi.CostSpec(mode="explore", w_ctrl=cfg.costs.w_ctrl),
        track=track, v_start=EXPLORE_V_START)


def setup_deploy(seed: int, work: Path) -> Setup:
    cfg = config.load_config(None, DEPLOY_OVERRIDES + [f"seed={seed}"])
    data_dir = work / "collect" / "data"
    commands.cmd_collect(cfg, work / "collect")
    episodes, manifest = data.load_dataset(data_dir)
    samples = data.window_episodes(episodes, cfg.model.h)
    trained = _train(cfg, samples, seed, cfg.train.epochs)
    threshold = commands.train_set_jrd_percentile(trained["model"], data_dir)
    track = sim.build_track(cfg.track_spec())
    c = cfg.costs
    spec = mppi.CostSpec(mode="deploy_safe", w_track=c.w_track,
                         w_speed=c.w_speed, w_ctrl=c.w_ctrl, w_unc=c.w_unc,
                         jrd_threshold=threshold, penalty_big=c.penalty_big,
                         v_target=c.v_target, track=track)
    ckpt = _checkpoint_sha(trained["model"], work)
    fingerprint = hashlib.sha256(f"{ckpt}:{threshold.hex()}".encode())
    return Setup(
        cfg=cfg, fingerprint=fingerprint.hexdigest(),
        plant_calls=int(manifest["total_rows"]), checkpoint_sha=ckpt,
        **trained, mppi_cfg=_mppi_cfg(cfg, seed), spec=spec, track=track,
        v_start=cfg.deploy.v_start)


SETUPS = {"explore_loop": setup_explore, "deploy_loop": setup_deploy}


# ---------------------------------------------------------------------------
# Timed phases


@dataclass
class TimedResult:
    """Per-call wall times plus what the correctness gates and the
    deterministic metrics need."""

    call_ms: list[float] = field(default_factory=list)
    failed: int = 0
    gates: dict = field(default_factory=dict)
    values: dict = field(default_factory=dict)  # e_lat, executed JRD, ...
    fingerprints: dict = field(default_factory=dict)


def combine(parts: list[TimedResult]) -> TimedResult:
    """Pool timed segments run from repeated setups of one seed. Every
    segment must pass its gates and reproduce the first one's fingerprints;
    the deterministic values are the first segment's."""
    first = parts[0]
    out = TimedResult(call_ms=[ms for p in parts for ms in p.call_ms],
                      failed=sum(p.failed for p in parts),
                      values=first.values, fingerprints=first.fingerprints)
    out.gates = {k: all(p.gates[k] for p in parts) for k in first.gates}
    out.gates["segments_repeat_bit_identical"] = all(
        p.fingerprints == first.fingerprints for p in parts)
    return out


def _warm_window(state, params, h: int):
    """Fill an H-pair history by driving straight at a drag-holding throttle."""
    states, actions = [], []
    for _ in range(h):
        hold = params.drag * state.vx / (params.mass * params.max_accel)
        action = np.array([0.0, float(np.clip(hold, -1.0, 1.0))])
        states.append(state.state_triple())
        actions.append(action)
        state = sim.plant_step(state, action, params)
    return state, dynamics.HistoryWindow(np.array(states), np.array(actions),
                                         dt=params.dt)


def _project(state, track):
    s, e_lat, _, _ = sim.track_frame_batch(np.array([[state.x, state.y]]),
                                           np.array([state.yaw]), track)
    return float(s[0]), float(e_lat[0])


def run_loop(st: Setup, seconds: float) -> TimedResult:
    """Closed loop of mpc_step then plant_step, for at least ``seconds`` and
    at least MIN_STEPS steps (deploy stops early on leaving the envelope)."""
    deploy = st.spec.needs_pose
    params = st.cfg.plant_params()
    model, track = st.model, st.track
    pos, head, _ = track.point_at(0.0)
    state = sim.PlantState(vx=st.v_start, x=float(pos[0]), y=float(pos[1]),
                           yaw=head)
    state, window = _warm_window(state, params, model.h)
    mpc_state = mppi.MpcState(cfg=st.mppi_cfg, spec=st.spec)
    envelope = ENVELOPE_FACTOR * track.half_width
    s_prev, _ = _project(state, track)
    res = TimedResult()
    actions, exec_jrd, e_lat, n_invalid = [], [], [], []
    progress = 0.0
    left_envelope = False
    t_start = time.perf_counter()
    while len(actions) < MIN_STEPS or time.perf_counter() - t_start < seconds:
        t0 = time.perf_counter()
        action, mpc_state, diag = mppi.mpc_step(mpc_state, model, window,
                                                pose=state.pose())
        res.call_ms.append(1e3 * (time.perf_counter() - t0))
        ok = (not diag["all_invalid"] and bool(np.all(np.isfinite(action)))
              and bool(np.all(np.abs(action) <= 1.0)))
        window = dynamics.HistoryWindow(
            window.states, np.vstack([window.actions[:-1], action]), dt=window.dt)
        exec_jrd.append(commands.executed_jrd(model, window))
        actions.append(np.asarray(action, dtype=np.float64))
        n_invalid.append(diag["n_invalid"])
        state = sim.plant_step(state, action, params)
        window = window.shifted(state.state_triple(), action)
        if deploy:
            s_now, e_now = _project(state, track)
            half = 0.5 * track.total_length
            progress += (s_now - s_prev + half) % track.total_length - half
            s_prev = s_now
            e_lat.append(e_now)
            if abs(e_now) > envelope:
                ok = False
                left_envelope = True
        res.failed += int(not ok)
        if left_envelope:
            break

    acts = np.array(actions)
    first = acts[:MIN_STEPS]
    res.gates["actions_finite_in_range"] = bool(
        np.all(np.isfinite(acts)) and np.all(np.abs(acts) <= 1.0))
    res.gates["no_failed_steps"] = res.failed == 0
    res.values["exec_jrd_mean"] = float(np.mean(exec_jrd[:MIN_STEPS]))
    res.values["invalid_rollout_frac"] = float(
        np.sum(n_invalid) / (len(n_invalid) * st.mppi_cfg.k))
    res.fingerprints["actions_sha256"] = hashlib.sha256(
        np.ascontiguousarray(first).tobytes()).hexdigest()
    if deploy:
        e = np.array(e_lat[:MIN_STEPS])
        res.values["e_lat_rms_m"] = float(np.sqrt(np.mean(e * e)))
        res.values["progress_m"] = progress
        # a tracking car covers well over a quarter of the start speed's
        # distance; a stalled or reversing one does not
        need = 0.25 * st.v_start * params.dt * len(actions)
        res.gates["inside_envelope"] = not left_envelope
        res.gates["advances_along_track"] = progress > need
    return res

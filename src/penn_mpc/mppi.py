"""Sampling-based MPC over the learned ensemble dynamics.

Classic path-integral scheme: sample K perturbed action sequences, roll each
out through the model, weight by exponentiated negative cost, and average the
perturbations into the nominal sequence. One controller serves two modes:
exploration (maximize accumulated ensemble disagreement) and deployment
(track the centerline at a target speed, optionally penalizing disagreement).

Rollouts propagate each particle with one fixed ensemble member's mean
increment while all members are consulted every step for the disagreement
mixture; the K rollouts are evaluated as one vectorized batch, which is
order-insensitive and deterministically reduced by construction. Sample k
of control step t draws its noise from ``default_rng([seed, t, k])``, so
results never depend on scheduling; ``sample_perturbations`` builds that
entropy for all K samples at once, as SeedSequence would from the list.

Precision: only the members' forward passes run in float32, on a copy of the
model cast once per control step. Their outputs are upcast before the
variance head, so the increments, the disagreement, states, poses and costs
are float64, as are training, evaluation and checkpoints.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .errors import ConfigError, ControlError, ShapeError
from .jrd import jrd_batch
from .sim import Track, track_frame_batch

# A control sequence is a plain (T, 2) array of (steer, throttle) in [-1, 1].


@dataclass
class MppiConfig:
    k: int = 512
    horizon: int = 25
    lam: float = 1.0
    sigma: tuple = (0.3, 0.3)
    seed: int = 0
    smoothing: str = "moving_average"  # or "none"
    smoothing_window: int = 3

    def __post_init__(self) -> None:
        if self.k < 2:
            raise ConfigError(f"need K >= 2 samples, got {self.k}")
        if self.horizon < 1:
            raise ConfigError(f"need horizon >= 1, got {self.horizon}")
        if not self.lam > 0:
            raise ConfigError(f"temperature must be positive, got {self.lam}")
        if self.smoothing not in ("none", "moving_average"):
            raise ConfigError(f"unknown smoothing {self.smoothing!r}")
        if len(self.sigma) != 2:
            raise ConfigError(f"sigma needs one std per action, got {self.sigma!r}")


@dataclass
class CostSpec:
    """Rollout objective. Modes:

    explore       negated accumulated disagreement plus control effort.
    deploy_direct centerline/speed tracking, disagreement ignored (w_unc
                  forced to zero, no threshold indicator).
    deploy_safe   tracking plus w_unc * jrd and a big penalty above the
                  jrd threshold.
    custom        per-step callable (vectorized), for stubs and toys.
    """

    mode: str = "explore"
    w_track: float = 2.0
    w_speed: float = 0.5
    w_ctrl: float = 0.1
    w_unc: float = 5.0
    jrd_threshold: float = math.inf
    penalty_big: float = 1000.0
    v_target: float = 8.0
    track: Track | None = None
    custom_step_cost: object = None

    def __post_init__(self) -> None:
        if self.mode not in ("explore", "deploy_direct", "deploy_safe", "custom"):
            raise ConfigError(f"unknown cost mode {self.mode!r}")
        if self.mode == "deploy_safe" and not self.w_unc > 0:
            raise ConfigError("deploy_safe needs a positive uncertainty weight")
        if self.mode.startswith("deploy") and self.track is None:
            raise ConfigError(f"{self.mode} needs a track reference")
        if self.mode == "custom" and self.custom_step_cost is None:
            raise ConfigError("custom mode needs a step-cost callable")
        if self.mode == "deploy_direct":
            self.w_unc = 0.0

    @property
    def needs_pose(self) -> bool:
        return self.mode in ("deploy_direct", "deploy_safe")


def sample_perturbations(cfg: MppiConfig, step_index: int = 0) -> np.ndarray:
    """(K, T, 2) zero-mean Gaussian noise with per-channel std cfg.sigma.

    Sample k draws from ``default_rng([cfg.seed, step_index, k])``, so any
    degree of per-sample parallelism reproduces the same tensor. The K
    entropy rows are built at once, as ``SeedSequence`` builds each from
    that list: the little-endian 32-bit words of each int (0 gives one word).
    """
    if cfg.seed < 0 or step_index < 0:
        raise ValueError(f"expected non-negative seed and step, got "
                         f"{cfg.seed} and {step_index}")
    words = [(x >> i) & 0xFFFFFFFF for x in (int(cfg.seed), int(step_index))
             for i in range(0, max(x.bit_length(), 1), 32)]
    entropy = np.empty((cfg.k, len(words) + 1), dtype=np.uint32)
    entropy[:, :-1] = words
    entropy[:, -1] = np.arange(cfg.k)
    noise = np.empty((cfg.k, cfg.horizon, 2))
    for row, out in zip(entropy, noise):
        np.random.Generator(np.random.PCG64(np.random.SeedSequence(row))
                            ).standard_normal(out=out)
    noise *= np.asarray(cfg.sigma, dtype=np.float64)
    return noise


def rollout_cost(spec: CostSpec, seqs: np.ndarray, prev_u0: np.ndarray,
                 traj: np.ndarray, jrd: np.ndarray,
                 e_lat: np.ndarray | None) -> np.ndarray:
    """Cost of K simulated rollouts, (K,).

    ``seqs`` (K, T, 2) are the applied actions, ``prev_u0`` (2,) the action
    applied before the first one, ``traj`` (K, T+1, 3) the simulated states
    with traj[:, 0] the start, ``jrd`` (K, T) the per-step disagreement and
    ``e_lat`` (K, T) the lateral offset after each step (deploy modes only).
    With x_t = traj[:, t+1] and u_{-1} = prev_u0, summed over t:

    explore        -jrd_t + w_ctrl * |u_t|^2
    deploy_direct  w_track * e_lat_t^2 + w_speed * (vx_t - v_target)^2
                   + w_ctrl * |u_t - u_{t-1}|^2
    deploy_safe    the deploy_direct terms + w_unc * jrd_t
                   + penalty_big * [jrd_t > jrd_threshold]
    custom         custom_step_cost(x_t, u_t, u_{t-1}, jrd_t)

    Deploy and custom costs accumulate step by step, the tracking and the
    disagreement terms as separate additions.
    """
    if spec.mode == "explore":
        return -np.sum(jrd, axis=1) + spec.w_ctrl * np.sum(seqs**2, axis=(1, 2))
    k, t_hor = seqs.shape[0], seqs.shape[1]
    prev = np.concatenate(
        [np.broadcast_to(prev_u0, (k, 1, 2)), seqs[:, :-1]], axis=1)
    cost = np.zeros(k)
    if spec.mode == "custom":
        for t in range(t_hor):
            cost += spec.custom_step_cost(traj[:, t + 1], seqs[:, t],
                                          prev[:, t], jrd[:, t])
        return cost
    track = (spec.w_track * e_lat**2
             + spec.w_speed * (traj[:, 1:, 0] - spec.v_target) ** 2
             + spec.w_ctrl * np.sum((seqs - prev) ** 2, axis=2))
    unc = None
    if spec.mode == "deploy_safe":
        unc = spec.w_unc * jrd + spec.penalty_big * (jrd > spec.jrd_threshold)
    for t in range(t_hor):
        cost += track[:, t]
        if unc is not None:
            cost += unc[:, t]
    return cost


def _rollout_batch(model, window, seqs: np.ndarray, spec: CostSpec,
                   members: np.ndarray, pose=None):
    """Vectorized rollouts of K action sequences from one shared history.

    ``members`` (K,) assigns one ensemble member per rollout. The rollouts
    share one (K, H, 5) history of (state, action) pairs: each step writes
    seqs[:, t] into the newest action, predicts, shifts once and writes the
    new state into the newest pair; the window's own newest action seeds
    the control-rate cost. A rollout is invalid, with infinite cost, when
    its state turns non-finite or (deploy modes) its pose ends a step more
    than 5 track half-widths from the centerline.
    Returns (costs (K,), jrd (K, T), states (K, T+1, 3), invalid (K,)).
    """
    seqs = np.asarray(seqs, dtype=np.float64)
    k, t_hor = seqs.shape[0], seqs.shape[1]
    hist = np.repeat(window.pairs[None], k, axis=0)
    cur = hist[:, -1, :3].copy()
    traj = np.empty((k, t_hor + 1, 3))
    traj[:, 0] = cur
    jrd_vals = np.zeros((k, t_hor))
    invalid = np.zeros(k, dtype=bool)
    e_lat = None
    if spec.needs_pose:
        if pose is None:
            raise ControlError(f"{spec.mode} rollouts need the current pose")
        poses = np.repeat(np.asarray(pose, dtype=np.float64)[None, :], k, axis=0)
        e_lat = np.empty((k, t_hor))

    for t in range(t_hor):
        hist[:, -1, 3:] = seqs[:, t]
        means, varis = model.delta_batch(hist)
        if model.b >= 2:
            next_means = cur[None, :, :] + means
            jrd_t = jrd_batch(next_means.transpose(1, 0, 2),
                              varis.transpose(1, 0, 2))
        else:
            jrd_t = np.zeros(k)
        jrd_vals[:, t] = jrd_t
        new = cur + means[members, np.arange(k)]
        bad = ~np.all(np.isfinite(new), axis=1) | ~np.isfinite(jrd_t)
        if bad.any():
            invalid |= bad
            new[bad] = cur[bad]  # freeze so downstream math stays finite
        if spec.needs_pose:
            dtm = window.dt
            yaw = poses[:, 2]
            poses[:, 0] += (new[:, 0] * np.cos(yaw) - new[:, 1] * np.sin(yaw)) * dtm
            poses[:, 1] += (new[:, 0] * np.sin(yaw) + new[:, 1] * np.cos(yaw)) * dtm
            poses[:, 2] += new[:, 2] * dtm
            _, e_lat_t, _, dist = track_frame_batch(poses[:, :2], poses[:, 2],
                                                    spec.track)
            e_lat[:, t] = e_lat_t
            invalid |= dist > 5.0 * spec.track.half_width
        hist[:, :-1] = hist[:, 1:]
        hist[:, -1, :3] = new
        cur = new
        traj[:, t + 1] = cur
    cost = rollout_cost(spec, seqs, window.actions[-1], traj, jrd_vals, e_lat)
    cost = np.where(invalid, np.inf, cost)
    return cost, jrd_vals, traj, invalid


def mppi_weights(costs: np.ndarray, lam: float) -> np.ndarray:
    """Exponentially reweighted costs: w_k ~ exp(-(S_k - min S) / lam).

    Invalid (+inf) rollouts get weight zero; raises ControlError when every
    cost is infinite.
    """
    costs = np.asarray(costs, dtype=np.float64)
    finite = np.isfinite(costs)
    if not finite.any():
        raise ControlError("every rollout was invalid; holding previous nominal")
    base = np.min(costs[finite])
    w = np.zeros_like(costs)
    w[finite] = np.exp(-(costs[finite] - base) / lam)
    return w / np.sum(w)


def _moving_average(seq: np.ndarray, window: int) -> np.ndarray:
    window = min(window, seq.shape[0])  # a longer kernel adds rows
    if window <= 1:
        return seq
    kernel = np.ones(window)
    counts = np.convolve(np.ones(seq.shape[0]), kernel, mode="same")
    out = np.empty_like(seq)
    for c in range(seq.shape[1]):
        out[:, c] = np.convolve(seq[:, c], kernel, mode="same") / counts
    return out


def mppi_update(nominal: np.ndarray, perturbations: np.ndarray,
                weights: np.ndarray, smoothing_window: int = 0) -> np.ndarray:
    """Weighted-noise update, clamped to [-1, 1], optionally smoothed."""
    nominal = np.asarray(nominal, dtype=np.float64)
    perturbations = np.asarray(perturbations, dtype=np.float64)
    weights = np.asarray(weights, dtype=np.float64)
    if perturbations.shape[:1] != weights.shape or \
            perturbations.shape[1:] != nominal.shape:
        raise ShapeError("nominal, perturbations, and weights shapes disagree")
    updated = nominal + np.einsum("k,ktc->tc", weights, perturbations)
    updated = np.clip(updated, -1.0, 1.0)
    if smoothing_window > 1:
        updated = _moving_average(updated, smoothing_window)
    return updated


@dataclass
class MpcState:
    """Controller state owned by a single logical control loop."""

    cfg: MppiConfig
    spec: CostSpec
    nominal: np.ndarray = None  # (T, 2)
    step_index: int = 0

    def __post_init__(self) -> None:
        if self.nominal is None:
            self.nominal = np.zeros((self.cfg.horizon, 2))
        self.nominal = np.asarray(self.nominal, dtype=np.float64)
        if self.nominal.shape != (self.cfg.horizon, 2):
            raise ShapeError("nominal sequence must be (horizon, 2)")


def mpc_step(state: MpcState, model, window, pose=None):
    """One control period: sample, roll out, reweight, update, emit.

    The rollouts use ``model.astype(np.float32)``, cast once per call, so
    the members' forward passes run in float32; the caller's model is not
    changed. Returns (action (2,), next MpcState, diagnostics). The emitted
    action is the first step of the updated nominal; the stored nominal is
    shifted left with the last step repeated. If every rollout is invalid
    the action is zero and diagnostics["all_invalid"] is set.
    """
    cfg = state.cfg
    noise = sample_perturbations(cfg, state.step_index)
    seqs = np.clip(state.nominal[None, :, :] + noise, -1.0, 1.0)
    members = np.arange(cfg.k) % max(model.b, 1)
    costs, jrd_vals, _, invalid = _rollout_batch(
        model.astype(np.float32), window, seqs, state.spec, members, pose)
    n_invalid = int(invalid.sum())
    diagnostics = {
        "n_invalid": n_invalid,
        "all_invalid": False,
        "best_cost": math.inf,
        "mean_jrd": 0.0,
        "max_jrd": 0.0,
    }
    valid = ~invalid
    if valid.any():
        diagnostics["best_cost"] = float(np.min(costs[valid]))
        diagnostics["mean_jrd"] = float(np.mean(jrd_vals[valid]))
        diagnostics["max_jrd"] = float(np.max(jrd_vals[valid]))
    try:
        weights = mppi_weights(costs, cfg.lam)
    except ControlError:
        diagnostics["all_invalid"] = True
        next_nominal = np.vstack([state.nominal[1:], state.nominal[-1:]])
        return (np.zeros(2),
                replace(state, nominal=next_nominal,
                        step_index=state.step_index + 1),
                diagnostics)
    smoothing = cfg.smoothing_window if cfg.smoothing == "moving_average" else 0
    updated = mppi_update(state.nominal, noise, weights, smoothing)
    action = updated[0].copy()
    next_nominal = np.vstack([updated[1:], updated[-1:]])
    return (action,
            replace(state, nominal=next_nominal, step_index=state.step_index + 1),
            diagnostics)

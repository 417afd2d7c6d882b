"""Probabilistic ensemble dynamics model for vehicle states.

B independent MLPs map a normalized state-action history to a diagonal
Gaussian over the one-step state increment (vx, vy, r). Members are
diversified by distinct init seeds and bootstrap resamples of the training
set. Training minimizes the Gaussian negative log-likelihood (or L2 for the
deterministic single-network variant); evaluation reports per-dimension and
pooled RMSE of the ensemble-mean next-state prediction.
"""

from __future__ import annotations

import json
import logging
from dataclasses import dataclass, field, replace

import numpy as np

from . import nn
from .errors import (CheckpointError, ModelError, ShapeError, TrainingError)
from .jrd import LOG_2PI

log = logging.getLogger(__name__)

STATE_DIM = 3
ACTION_DIM = 2
PAIR_DIM = STATE_DIM + ACTION_DIM

# Sanity bounds for (vx, vy, r); the plant clamps to these with a warning.
DEFAULT_STATE_BOUNDS = np.array([100.0, 50.0, 20.0])

STD_FLOOR = 1e-6

CHECKPOINT_VERSION = 1


@dataclass
class HistoryWindow:
    """Last H (state, action) pairs, oldest first, sampled every ``dt`` seconds."""

    states: np.ndarray   # (H, 3)
    actions: np.ndarray  # (H, 2)
    dt: float = 0.1

    def __post_init__(self) -> None:
        self.states = np.asarray(self.states, dtype=np.float64)
        self.actions = np.asarray(self.actions, dtype=np.float64)
        if self.states.ndim != 2 or self.states.shape[1] != STATE_DIM:
            raise ShapeError(f"states must be (H, {STATE_DIM})")
        if self.actions.shape != (self.states.shape[0], ACTION_DIM):
            raise ShapeError("actions must be (H, 2) matching states")

    @property
    def h(self) -> int:
        return self.states.shape[0]

    def flat(self) -> np.ndarray:
        """Interleave pairs oldest-first: (s0, a0, s1, a1, ...), length 5H."""
        return np.concatenate([self.states, self.actions], axis=1).reshape(-1)

    def shifted(self, state: np.ndarray, action: np.ndarray) -> "HistoryWindow":
        """Functional shift: drop the oldest pair, append (state, action)."""
        return HistoryWindow(
            np.vstack([self.states[1:], state]),
            np.vstack([self.actions[1:], action]),
            self.dt,
        )


@dataclass
class NormStats:
    """Per-coordinate z-scoring statistics, in raw units, stds floored."""

    input_mean: np.ndarray   # (5H,)
    input_std: np.ndarray    # (5H,)
    target_mean: np.ndarray  # (3,)
    target_std: np.ndarray   # (3,)

    def __post_init__(self) -> None:
        for name in ("input_mean", "input_std", "target_mean", "target_std"):
            setattr(self, name, np.asarray(getattr(self, name), dtype=np.float64))
        self.input_std = np.maximum(self.input_std, STD_FLOOR)
        self.target_std = np.maximum(self.target_std, STD_FLOOR)

    @classmethod
    def identity(cls, h: int) -> "NormStats":
        n = h * PAIR_DIM
        return cls(np.zeros(n), np.ones(n), np.zeros(STATE_DIM), np.ones(STATE_DIM))

    @classmethod
    def from_arrays(cls, inputs: np.ndarray, targets: np.ndarray) -> "NormStats":
        return cls(inputs.mean(axis=0), inputs.std(axis=0),
                   targets.mean(axis=0), targets.std(axis=0))


@dataclass
class PennModel:
    """Ensemble of Gaussian-output MLPs over normalized history features.

    Probabilistic members output 6 values (3 increment means, 3 raw variance
    parameters squashed into [var_min, var_max] in normalized space);
    deterministic mode uses 3 outputs and a fixed var_min variance.
    """

    members: list[nn.MlpParams]
    stats: NormStats
    h: int
    mode: str = "probabilistic"
    var_min: float = 1e-6
    var_max: float = 10.0
    dt: float = 0.1

    def __post_init__(self) -> None:
        if self.mode not in ("probabilistic", "deterministic"):
            raise ModelError(f"unknown mode {self.mode!r}")
        want_out = 2 * STATE_DIM if self.mode == "probabilistic" else STATE_DIM
        sizes = self.members[0].layer_sizes
        for m in self.members:
            if m.layer_sizes != sizes:
                raise ShapeError("ensemble members must share one architecture")
        if sizes[-1] != want_out:
            raise ShapeError(
                f"{self.mode} mode needs {want_out} outputs, members have {sizes[-1]}")
        if sizes[0] != self.h * PAIR_DIM:
            raise ShapeError(
                f"first layer expects {sizes[0]} inputs but H={self.h} gives "
                f"{self.h * PAIR_DIM}")

    @property
    def b(self) -> int:
        return len(self.members)

    @property
    def layer_sizes(self) -> list[int]:
        return self.members[0].layer_sizes

    @property
    def activation(self) -> str:
        return self.members[0].activation

    def delta_batch(self, states: np.ndarray,
                    actions: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Batched prediction surface: raw history arrays (N, H, 3) and
        (N, H, 2) to per-member raw increment means/variances (B, N, 3).
        Finiteness is the caller's concern (controllers mark bad particles
        invalid)."""
        states = np.asarray(states, dtype=np.float64)
        actions = np.asarray(actions, dtype=np.float64)
        n = states.shape[0]
        flat = np.concatenate([states, actions], axis=2).reshape(n, -1)
        feats = (flat - self.stats.input_mean) / self.stats.input_std
        means = np.empty((self.b, n, STATE_DIM))
        varis = np.empty_like(means)
        for i, params in enumerate(self.members):
            out, _ = nn.mlp_forward(params, feats)
            mu_n, var_n = self._split_head(out)
            means[i] = mu_n * self.stats.target_std + self.stats.target_mean
            varis[i] = var_n * self.stats.target_std**2
        return means, varis

    def _split_head(self, out: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        if self.mode == "deterministic":
            return out, np.full_like(out, self.var_min)
        mu = out[..., :STATE_DIM]
        raw = out[..., STATE_DIM:]
        var, _ = bound_variance(raw, self.var_min, self.var_max)
        return mu, var


def bound_variance(raw: np.ndarray, var_min: float = 1e-6,
                   var_max: float = 10.0) -> tuple[np.ndarray, np.ndarray]:
    """Squash a raw head output into [var_min, var_max] via a sigmoid.

    Returns the bounded variance and its derivative w.r.t. the raw value,
    so the likelihood gradient can be chained through the bounding.
    """
    raw = np.asarray(raw, dtype=np.float64)
    pos = raw >= 0
    # the exponent is never positive, so exp cannot overflow
    e = np.exp(np.where(pos, -raw, raw))
    sig = np.where(pos, 1.0 / (1.0 + e), e / (1.0 + e))
    span = var_max - var_min
    return var_min + span * sig, span * sig * (1.0 - sig)


@dataclass
class EvalReport:
    """RMSE per state dimension and pooled over all dimensions, in raw units."""

    rmse_vx: float
    rmse_vy: float
    rmse_r: float
    rmse_total: float
    n_samples: int

    def rows(self) -> list[tuple[str, str, float]]:
        return [("Total", "", self.rmse_total),
                ("vx", "m/s", self.rmse_vx),
                ("vy", "m/s", self.rmse_vy),
                ("r", "rad/s", self.rmse_r)]


def rmse_report(pred_next: np.ndarray, true_next: np.ndarray) -> EvalReport:
    """Pool per-dimension RMSEs: total = sqrt(mean over all 3N squared errors)."""
    err = np.asarray(pred_next, dtype=np.float64) - np.asarray(true_next, dtype=np.float64)
    if err.ndim != 2 or err.shape[1] != STATE_DIM:
        raise ShapeError("expected (N, 3) prediction and truth arrays")
    per_dim = np.sqrt(np.mean(err**2, axis=0))
    total = float(np.sqrt(np.mean(err**2)))
    return EvalReport(rmse_vx=float(per_dim[0]), rmse_vy=float(per_dim[1]),
                      rmse_r=float(per_dim[2]), rmse_total=total,
                      n_samples=err.shape[0])


def stack_samples(samples) -> tuple[np.ndarray, np.ndarray]:
    """Flattened raw window features (N, 5H) and raw increment targets (N, 3).

    Accepts any sequence of objects with ``window`` and ``target`` attributes.
    """
    if not samples:
        raise TrainingError("empty sample list")
    inputs = np.stack([s.window.flat() for s in samples])
    targets = np.stack([np.asarray(s.target, dtype=np.float64) for s in samples])
    return inputs, targets


def evaluate_rmse(model: PennModel, samples) -> EvalReport:
    """One-step next-state RMSE of the ensemble mean versus ground truth.

    Raises ModelError on non-finite member outputs.
    """
    inputs, targets = stack_samples(samples)
    pairs = inputs.reshape(inputs.shape[0], model.h, PAIR_DIM)
    means, varis = model.delta_batch(pairs[:, :, :STATE_DIM],
                                     pairs[:, :, STATE_DIM:])
    if not (np.all(np.isfinite(means)) and np.all(np.isfinite(varis))):
        raise ModelError("ensemble produced non-finite output")
    delta = means.mean(axis=0)
    # next = last window state + increment on both sides, so states cancel
    return rmse_report(delta, targets)


@dataclass
class TrainingHistory:
    """Per-epoch train loss and test RMSE, plus which epoch won."""

    epochs: list[int] = field(default_factory=list)
    train_loss: list[float] = field(default_factory=list)
    reports: list[EvalReport] = field(default_factory=list)
    best_epoch: int = -1

    def rows(self) -> list[dict]:
        return [
            {"epoch": e, "train_loss": l, "rmse_vx": r.rmse_vx, "rmse_vy": r.rmse_vy,
             "rmse_r": r.rmse_r, "rmse_total": r.rmse_total}
            for e, l, r in zip(self.epochs, self.train_loss, self.reports)
        ]


@dataclass
class TrainConfig:
    epochs: int = 200
    batch_size: int = 256
    seed: int = 0
    lr: float = 1e-3
    bootstrap: bool = True


def _member_seed(seed: int, idx: int) -> int:
    return int(np.random.SeedSequence([seed, idx]).generate_state(1)[0])


def build_model(h: int, b: int, hidden: list[int], mode: str = "probabilistic",
                activation: str = "tanh", seed: int = 0, var_min: float = 1e-6,
                var_max: float = 10.0, dt: float = 0.1,
                stats: NormStats | None = None) -> PennModel:
    """Fresh ensemble with per-member init seeds derived from ``seed``."""
    out_dim = 2 * STATE_DIM if mode == "probabilistic" else STATE_DIM
    sizes = [h * PAIR_DIM] + list(hidden) + [out_dim]
    members = [nn.init_params(sizes, activation, seed=_member_seed(seed, i))
               for i in range(b)]
    return PennModel(members=members, stats=stats or NormStats.identity(h),
                     h=h, mode=mode, var_min=var_min, var_max=var_max, dt=dt)


def _head_loss_and_grad(model: PennModel, out: np.ndarray,
                        targets_n: np.ndarray) -> tuple[float, np.ndarray]:
    """Mean per-sample loss over a batch and gradient w.r.t. the head outputs."""
    n = out.shape[0]
    if model.mode == "deterministic":
        diff = out - targets_n
        loss = float(np.mean(diff**2))
        return loss, 2.0 * diff / diff.size
    mu = out[:, :STATE_DIM]
    raw = out[:, STATE_DIM:]
    var, dvar_draw = bound_variance(raw, model.var_min, model.var_max)
    diff = targets_n - mu
    loss = float(np.mean(0.5 * np.sum(diff**2 / var + np.log(var) + LOG_2PI, axis=1)))
    g_mu = -diff / var / n
    g_raw = 0.5 * (1.0 / var - diff**2 / var**2) * dvar_draw / n
    return loss, np.concatenate([g_mu, g_raw], axis=1)


def train(model: PennModel, train_set, test_set,
          cfg: TrainConfig) -> tuple[PennModel, TrainingHistory]:
    """Minibatch Adam on each member's own bootstrap resample of the train set.

    Normalization statistics are computed from the train set only. The best
    checkpoint is the epoch with minimal pooled test RMSE of the ensemble.
    Deterministic given cfg.seed.
    """
    inputs, targets = stack_samples(train_set)
    if not test_set:
        raise TrainingError("empty test set")
    stats = NormStats.from_arrays(inputs, targets)
    model = replace(model, members=[m.copy() for m in model.members], stats=stats)
    feats = (inputs - stats.input_mean) / stats.input_std
    targets_n = (targets - stats.target_mean) / stats.target_std
    n = feats.shape[0]

    rngs = [np.random.default_rng([cfg.seed, 7919, i]) for i in range(model.b)]
    if cfg.bootstrap:
        member_idx = [rng.integers(0, n, size=n) for rng in rngs]
    else:
        member_idx = [np.arange(n) for _ in rngs]
    states = [nn.AdamState.init(m, lr=cfg.lr) for m in model.members]

    history = TrainingHistory()
    best_rmse = np.inf
    best_members = [m.copy() for m in model.members]
    best_epoch = -1
    batch = max(1, int(cfg.batch_size))

    for epoch in range(cfg.epochs):
        losses = []
        for i in range(model.b):
            order = rngs[i].permutation(member_idx[i])
            params = model.members[i]
            state = states[i]
            for lo in range(0, n, batch):
                sel = order[lo:lo + batch]
                out, cache = nn.mlp_forward(params, feats[sel])
                loss, head_grad = _head_loss_and_grad(model, out, targets_n[sel])
                if not np.isfinite(loss):
                    raise TrainingError(
                        f"non-finite loss at epoch {epoch}, member {i}")
                grads, _ = nn.mlp_backward(params, cache, head_grad)
                params, state = nn.adam_step(params, grads, state)
                losses.append(loss)
            model.members[i] = params
            states[i] = state
        report = evaluate_rmse(model, test_set)
        history.epochs.append(epoch)
        history.train_loss.append(float(np.mean(losses)))
        history.reports.append(report)
        if report.rmse_total < best_rmse:
            best_rmse = report.rmse_total
            best_members = [m.copy() for m in model.members]
            best_epoch = epoch

    history.best_epoch = best_epoch
    best = replace(model, members=best_members)
    return best, history


def _hex_list(a: np.ndarray) -> list:
    return [float(x).hex() for x in np.asarray(a, dtype=np.float64).reshape(-1)]


def _from_hex(vals, shape) -> np.ndarray:
    return np.array([float.fromhex(v) for v in vals], dtype=np.float64).reshape(shape)


def save_checkpoint(model: PennModel, path) -> None:
    """Self-describing JSON checkpoint; floats stored as hex for bit-exact
    round trips."""
    doc = {
        "format_version": CHECKPOINT_VERSION,
        "mode": model.mode,
        "h": model.h,
        "b": model.b,
        "layer_sizes": model.layer_sizes,
        "activation": model.activation,
        "dt": float(model.dt).hex(),
        "var_min": float(model.var_min).hex(),
        "var_max": float(model.var_max).hex(),
        "norm_stats": {
            "input_mean": _hex_list(model.stats.input_mean),
            "input_std": _hex_list(model.stats.input_std),
            "target_mean": _hex_list(model.stats.target_mean),
            "target_std": _hex_list(model.stats.target_std),
        },
        "members": [
            {
                "seed": int(m.seed),
                "layers": [
                    {"weights": _hex_list(l.weights), "biases": _hex_list(l.biases)}
                    for l in m.layers
                ],
            }
            for m in model.members
        ],
    }
    with open(path, "w") as f:
        json.dump(doc, f, sort_keys=True)
        f.write("\n")


def load_checkpoint(path) -> PennModel:
    """Load and validate a checkpoint; predictions round trip bit-for-bit."""
    try:
        with open(path) as f:
            doc = json.load(f)
    except (json.JSONDecodeError, UnicodeDecodeError) as e:
        raise CheckpointError(f"corrupt checkpoint file {path}: {e}") from e
    except OSError as e:
        raise CheckpointError(f"cannot read checkpoint {path}: {e}") from e
    try:
        version = doc["format_version"]
        if version != CHECKPOINT_VERSION:
            raise CheckpointError(
                f"checkpoint version {version} not supported (expected "
                f"{CHECKPOINT_VERSION})")
        sizes = [int(s) for s in doc["layer_sizes"]]
        ns = doc["norm_stats"]
        stats = NormStats(
            _from_hex(ns["input_mean"], (sizes[0],)),
            _from_hex(ns["input_std"], (sizes[0],)),
            _from_hex(ns["target_mean"], (STATE_DIM,)),
            _from_hex(ns["target_std"], (STATE_DIM,)),
        )
        members = []
        for m in doc["members"]:
            layers = [
                nn.LayerParams(
                    _from_hex(l["weights"], (out_d, in_d)),
                    _from_hex(l["biases"], (out_d,)),
                )
                for l, in_d, out_d in zip(m["layers"], sizes[:-1], sizes[1:])
            ]
            if len(m["layers"]) != len(sizes) - 1:
                raise CheckpointError("layer count does not match layer_sizes")
            members.append(nn.MlpParams(layers, doc["activation"], int(m["seed"])))
        if len(members) != int(doc["b"]):
            raise CheckpointError("member count does not match header")
        return PennModel(
            members=members, stats=stats, h=int(doc["h"]), mode=doc["mode"],
            var_min=float.fromhex(doc["var_min"]),
            var_max=float.fromhex(doc["var_max"]),
            dt=float.fromhex(doc["dt"]),
        )
    except (KeyError, IndexError, TypeError, ValueError) as e:
        raise CheckpointError(f"malformed checkpoint {path}: {e}") from e

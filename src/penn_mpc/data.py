"""Episode ingestion: history windowing, shuffled splitting, and dataset
persistence (episode CSVs plus a JSON manifest)."""

from __future__ import annotations

import json
import logging
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .dynamics import HistoryWindow
from .errors import DataError
from .fileio import atomic_open
from .sim import EpisodeLog

log = logging.getLogger(__name__)

MANIFEST_NAME = "manifest.json"


@dataclass
class Sample:
    """One training example: an H-pair window and the raw one-step increment
    of the state after the window. Windows never span episode boundaries."""

    window: HistoryWindow
    target: np.ndarray  # (3,) next state - last window state
    episode_id: int
    t_index: int


@dataclass
class SplitDataset:
    train: list
    test: list
    ratio: float
    seed: int


def window_episodes(episodes, h: int) -> list[Sample]:
    """Slice every episode into windows of H pairs with one-step targets.

    An episode of length L yields exactly L - H samples; episodes shorter than
    H + 1 are skipped with a warning.
    """
    if h < 1:
        raise DataError(f"history length must be >= 1, got {h}")
    samples: list[Sample] = []
    for ep_id, ep in enumerate(episodes):
        n = ep.n_rows
        if n < h + 1:
            log.warning("episode %d (%s) has %d rows, too short for H=%d; skipped",
                        ep_id, ep.tag, n, h)
            continue
        for i in range(n - h):
            window = HistoryWindow(ep.states[i:i + h].copy(),
                                   ep.actions[i:i + h].copy(), dt=ep.dt)
            target = ep.states[i + h] - ep.states[i + h - 1]
            samples.append(Sample(window=window, target=target,
                                  episode_id=ep_id, t_index=i))
    return samples


def split(samples, ratio: float = 0.7, seed: int = 0) -> SplitDataset:
    """Uniform shuffle then prefix split; deterministic given the seed."""
    if len(samples) < 10:
        raise DataError(f"need at least 10 samples to split, got {len(samples)}")
    perm = np.random.default_rng(seed).permutation(len(samples))
    n_train = int(round(ratio * len(samples)))
    train = [samples[i] for i in perm[:n_train]]
    test = [samples[i] for i in perm[n_train:]]
    return SplitDataset(train=train, test=test, ratio=ratio, seed=seed)


def save_dataset(episodes, directory, h: int | None = None,
                 extra: dict | None = None) -> Path:
    """Write episode CSVs plus a manifest carrying dt, optional H, and tags.

    Every file is replaced atomically and the manifest last, so an
    interrupted save (``explore`` re-saves its growing buffer each round)
    leaves the previous dataset loadable."""
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    entries = []
    for i, ep in enumerate(episodes):
        name = f"episode_{i:04d}.csv"
        ep.to_csv(directory / name)
        entries.append({"file": name, "tag": ep.tag, "seed": int(ep.seed),
                        "truncated": bool(ep.truncated), "rows": int(ep.n_rows)})
    manifest = {
        "format_version": 1,
        "dt": episodes[0].dt if episodes else 0.1,
        "h": h,
        "episodes": entries,
    }
    if extra:
        manifest.update(extra)
    path = directory / MANIFEST_NAME
    with atomic_open(path) as f:
        json.dump(manifest, f, sort_keys=True, indent=1)
        f.write("\n")
    return path


def load_dataset(directory) -> tuple[list[EpisodeLog], dict]:
    """Load every episode listed in the manifest, in manifest order."""
    directory = Path(directory)
    path = directory / MANIFEST_NAME
    if not path.exists():
        raise DataError(f"no {MANIFEST_NAME} in {directory}")
    try:
        with open(path) as f:
            manifest = json.load(f)
    except json.JSONDecodeError as e:
        raise DataError(f"malformed manifest {path}: {e}") from e
    if manifest.get("format_version") != 1:
        raise DataError(f"unsupported dataset version in {path}")
    episodes = []
    for entry in manifest["episodes"]:
        ep = EpisodeLog.from_csv(directory / entry["file"], tag=entry.get("tag", ""),
                                 seed=entry.get("seed", 0),
                                 truncated=entry.get("truncated", False),
                                 dt=manifest["dt"])
        if ep.n_rows != entry["rows"]:
            raise DataError(
                f"{entry['file']}: manifest says {entry['rows']} rows, "
                f"file has {ep.n_rows}")
        episodes.append(ep)
    return episodes, manifest

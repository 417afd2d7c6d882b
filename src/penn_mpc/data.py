"""Episode ingestion: history windowing, shuffled splitting, and dataset
persistence (episode CSVs plus a JSON manifest)."""

from __future__ import annotations

import json
import logging
from dataclasses import dataclass
from pathlib import Path

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .dynamics import PAIR_DIM, STATE_DIM
from .errors import DataError
from .fileio import atomic_open
from .sim import EpisodeLog

log = logging.getLogger(__name__)

MANIFEST_NAME = "manifest.json"


@dataclass
class Windows:
    """N training windows: ``pairs`` (N, H, 5), each window's H (state,
    action) pairs oldest first, and ``targets`` (N, 3), the raw increment of
    the state after it. Both are C-contiguous float64, so reductions over
    them run in one order. Supports ``len()`` and integer-array indexing."""

    pairs: np.ndarray
    targets: np.ndarray

    def __post_init__(self) -> None:
        self.pairs = np.ascontiguousarray(self.pairs, dtype=np.float64)
        self.targets = np.ascontiguousarray(self.targets, dtype=np.float64)

    def __len__(self) -> int:
        return self.pairs.shape[0]

    def __getitem__(self, idx) -> "Windows":
        return Windows(self.pairs[idx], self.targets[idx])


@dataclass
class SplitDataset:
    train: Windows
    test: Windows


def window_episodes(episodes, h: int) -> Windows:
    """Slice every episode into windows of H pairs with one-step targets.

    An episode of length L yields exactly L - H windows, taken in order with
    one ``sliding_window_view``, so none spans an episode boundary. Episodes
    shorter than H + 1 are skipped with a warning; with none left the arrays
    are (0, H, 5) and (0, 3).
    """
    if h < 1:
        raise DataError(f"history length must be >= 1, got {h}")
    pairs = [np.empty((0, h, PAIR_DIM))]
    targets = [np.empty((0, STATE_DIM))]
    for ep_id, ep in enumerate(episodes):
        if ep.n_rows < h + 1:
            log.warning("episode %d (%s) has %d rows, too short for H=%d; skipped",
                        ep_id, ep.tag, ep.n_rows, h)
            continue
        joined = np.concatenate([ep.states, ep.actions], axis=1)
        pairs.append(sliding_window_view(joined, (h, PAIR_DIM))[:-1, 0])
        targets.append(ep.states[h:] - ep.states[h - 1:-1])
    return Windows(np.concatenate(pairs), np.concatenate(targets))


def split(windows: Windows, ratio: float = 0.7, seed: int = 0) -> SplitDataset:
    """Uniform shuffle then prefix split; deterministic given the seed."""
    if len(windows) < 10:
        raise DataError(f"need at least 10 samples to split, got {len(windows)}")
    perm = np.random.default_rng(seed).permutation(len(windows))
    n_train = int(round(ratio * len(windows)))
    return SplitDataset(train=windows[perm[:n_train]],
                        test=windows[perm[n_train:]])


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
    if not isinstance(manifest, dict):
        raise DataError(f"manifest {path} is not a JSON object")
    if manifest.get("format_version") != 1:
        raise DataError(f"unsupported dataset version in {path}")
    try:
        dt = manifest["dt"]
        entries = [(e["file"], e["rows"], e) for e in manifest["episodes"]]
    except (KeyError, TypeError) as e:
        raise DataError(f"malformed manifest {path}: {e!r}") from e
    episodes = []
    for name, rows, entry in entries:
        ep = EpisodeLog.from_csv(directory / name, tag=entry.get("tag", ""),
                                 seed=entry.get("seed", 0),
                                 truncated=entry.get("truncated", False), dt=dt)
        if ep.n_rows != rows:
            raise DataError(
                f"{name}: manifest says {rows} rows, file has {ep.n_rows}")
        episodes.append(ep)
    return episodes, manifest

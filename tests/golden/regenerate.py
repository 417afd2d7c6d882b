"""Golden fingerprints: sha256 hashes of outputs that a bit-identical change
must leave as they are, with the environment they were computed in.

    PYTHONPATH=src python tests/golden/regenerate.py

rewrites ``fingerprints.json`` beside this file; ``tests/test_golden.py``
recomputes every entry. A change that leaves every output bit as it is
leaves the file as it is. A change that moves bits regenerates it and says
so, with the reason, in ``CHANGES.md``.

The entries:

- ``mpc_explore_actions`` and ``mpc_deploy_safe_actions``: the actions of a
  short closed loop of ``mpc_step`` at production shape (K=512, T=25, B=5,
  hidden 64,64), on a seeded untrained model with non-identity
  normalization statistics. The tiny C9 tree runs K=16 and hidden 16, which
  OpenBLAS sends to its small-matrix kernels, so it alone would miss a
  change that only moves the bits of 512-row calls.
- ``train_checkpoint``: the checkpoint file of a 2-epoch, batch-512 training
  run on fixed synthetic windows.
- ``train_set_jrd``: that checkpoint's disagreement at 1100 of those windows,
  as the training-set threshold computes it: in row blocks of 512 and 588.
  Blocks of 512, 512 and 76 would change bits, since OpenBLAS rounds a short
  block differently.
- ``c9_tree/<path>``: every file of the acceptance C9 ``run_all`` tree
  (its tiny overrides, seed 7).
"""

from __future__ import annotations

import hashlib
import json
import sys
import tempfile
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
GOLDEN = HERE / "fingerprints.json"
sys.path.insert(0, str(HERE.parent))

from test_acceptance import TINY_OVERRIDES, run_all  # noqa: E402

from penn_mpc import commands, config, data, dynamics, mppi, sim  # noqa: E402

H, B, HIDDEN = 4, 5, [64, 64]
LOOP_STEPS = 3


def environment() -> dict:
    """What the recorded bits depend on besides the code: numpy, its BLAS,
    and the SIMD extensions numpy found on this CPU."""
    cfg = np.show_config(mode="dicts")
    blas = cfg["Build Dependencies"]["blas"]
    simd = cfg["SIMD Extensions"]
    return {"numpy": np.__version__,
            "blas": f"{blas['name']} {blas['version']}",
            "simd_baseline": list(simd["baseline"]),
            "simd_found": list(simd["found"])}


def _sha(raw: bytes) -> str:
    return hashlib.sha256(raw).hexdigest()


def _stats() -> dynamics.NormStats:
    """Normalization statistics of roughly the plant's scale, far from the
    identity, so the z-scoring and the de-normalization both act."""
    pair_mean = np.array([6.0, 0.1, 0.05, 0.0, 0.3])
    pair_std = np.array([3.0, 0.5, 0.8, 0.5, 0.5])
    return dynamics.NormStats(np.tile(pair_mean, H), np.tile(pair_std, H),
                              np.array([0.02, 0.0, 0.01]),
                              np.array([0.3, 0.1, 0.2]))


def _loop_actions(model, spec, track, seed: int) -> str:
    """sha256 of LOOP_STEPS closed-loop actions from the track's start."""
    params = config.ExperimentConfig().plant_params()
    pos, head, _ = track.point_at(0.0)
    state = sim.PlantState(vx=5.0, x=float(pos[0]), y=float(pos[1]), yaw=head)
    states, acts = [], []
    for _ in range(H):
        states.append(state.state_triple())
        acts.append(np.array([0.0, 0.2]))
        state = sim.plant_step(state, acts[-1], params)
    window = dynamics.HistoryWindow(np.array(states), np.array(acts),
                                    dt=params.dt)
    mpc = mppi.MpcState(cfg=mppi.MppiConfig(k=512, horizon=25, seed=seed),
                        spec=spec)
    actions = []
    for _ in range(LOOP_STEPS):
        action, mpc, _ = mppi.mpc_step(mpc, model, window, pose=state.pose())
        actions.append(action)
        state = sim.plant_step(state, action, params)
        window = window.shifted(state.state_triple(), action)
    return _sha(np.ascontiguousarray(actions, dtype=np.float64).tobytes())


def _synthetic_windows(n: int) -> data.Windows:
    rng = np.random.default_rng(20261020)
    pairs = rng.normal(size=(n, H, 5)) * [3.0, 0.5, 0.8, 0.5, 0.5] + \
        [6.0, 0.1, 0.05, 0.0, 0.3]
    last = pairs[:, -1]
    targets = np.stack([0.1 * last[:, 4] - 0.004 * last[:, 0],
                        0.05 * np.tanh(last[:, 3] * last[:, 0] / 5.0),
                        0.2 * last[:, 3] - 0.1 * last[:, 2]], axis=1)
    return data.Windows(pairs, targets + 0.01 * rng.normal(size=targets.shape))


def fingerprints(work: Path) -> dict:
    """Every golden entry, computed in the scratch directory ``work``."""
    out = {}
    track = sim.build_track(sim.TrackSpec())
    model = dynamics.build_model(h=H, b=B, hidden=HIDDEN, seed=11,
                                 stats=_stats())
    out["mpc_explore_actions"] = _loop_actions(
        model, mppi.CostSpec(mode="explore"), track, seed=3)
    out["mpc_deploy_safe_actions"] = _loop_actions(
        model, mppi.CostSpec(mode="deploy_safe", jrd_threshold=0.06,
                             track=track), track, seed=4)

    windows = _synthetic_windows(1500)
    ds = data.split(windows, 0.7, seed=5)
    fresh = dynamics.build_model(h=H, b=B, hidden=HIDDEN, seed=6)
    trained, _ = dynamics.train(fresh, ds.train, ds.test, dynamics.TrainConfig(
        epochs=2, batch_size=512, seed=6))
    dynamics.save_checkpoint(trained, work / "checkpoint.json")
    out["train_checkpoint"] = _sha((work / "checkpoint.json").read_bytes())
    out["train_set_jrd"] = _sha(
        commands._ensemble_jrd(trained, windows.pairs[:1100]).tobytes())

    tree = work / "c9"
    run_all(config.load_config(None, TINY_OVERRIDES + ["seed=7"]), tree)
    for path in sorted(tree.rglob("*")):
        if path.is_file():
            out[f"c9_tree/{path.relative_to(tree).as_posix()}"] = \
                _sha(path.read_bytes())
    return out


def main() -> None:
    with tempfile.TemporaryDirectory() as work:
        doc = {"environment": environment(),
               "fingerprints": fingerprints(Path(work))}
    GOLDEN.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")
    print(f"wrote {len(doc['fingerprints'])} fingerprints to {GOLDEN}")


if __name__ == "__main__":
    main()

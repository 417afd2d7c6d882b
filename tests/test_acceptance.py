"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line
(run with ``pytest tests/test_acceptance.py -v -rA`` to see the lines).

Criteria:
 1. pooled-RMSE metric definition reproduces published per-dim/Total pairs
 2. divergence closed form vs numeric-integration oracle (plus a literal
    fixture constant that is KNOWN-INCONSISTENT with the oracle; that
    sub-test fails by design and documents the discrepancy)
 3. analytic gradients vs central finite differences, 20+ configurations
 4. history-length ablation: best H in {3,4,5}, >= 10% better than H=1
 5. MPPI weight properties, softmin limit, quadratic-toy closed loop
 6. active exploration beats the random-collection baseline at equal budget
 7. uncertainty-aware deployment lowers executed disagreement vs direct
 8. simulator physics properties
 9. end-to-end determinism and persistence round trips

The heavy directional criteria (4, 6, 7) use 5-seed medians and run the real
CLI command implementations; expect roughly 35-45 minutes total.
"""

import hashlib
import json
import math
import os
import tempfile
from pathlib import Path

import numpy as np
import pytest
from jrd_oracle import jrd_oracle_1d

from penn_mpc import commands, config, data, dynamics, jrd, mppi, nn, sim

SEEDS = (0, 1, 2, 3, 4)

# Expensive directional runs (criteria 4, 6, 7) cache their artifacts under
# this base so a rerun of the suite does not repeat finished seeds. Each
# criterion's tree is keyed on the package source and its overrides (see
# _cache_dir), so a code or config change starts a fresh tree; point the
# variable at a fresh directory (or delete it) to force clean runs anyway.
CACHE = Path(os.environ.get("PENN_MPC_ACCEPT_CACHE",
                            tempfile.gettempdir())) / "penn_mpc_acceptance"
SRC_DIR = Path(commands.__file__).parent


def _cache_dir(criterion: str, overrides: list[str]) -> Path:
    """``CACHE/<criterion>/<sha256>`` of the sorted ``penn_mpc/*.py`` files
    (name and bytes) and the criterion's override list."""
    digest = hashlib.sha256()
    for path in sorted(SRC_DIR.glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes() + b"\0")
    digest.update(json.dumps(overrides).encode())
    return CACHE / criterion / digest.hexdigest()


def test_cache_dir_keyed_on_source_and_overrides(tmp_path, monkeypatch):
    """A changed source byte or override list names a different cache tree."""
    src = tmp_path / "src"
    src.mkdir()
    for path in SRC_DIR.glob("*.py"):
        (src / path.name).write_bytes(path.read_bytes())
    monkeypatch.setitem(globals(), "SRC_DIR", src)
    base = _cache_dir("c4", ["a=1"])
    assert base == _cache_dir("c4", ["a=1"])
    assert base.parent == CACHE / "c4"
    assert _cache_dir("c4", ["a=2"]) != base
    assert _cache_dir("c6", ["a=1"]).name == base.name
    (src / "nn.py").write_bytes((src / "nn.py").read_bytes() + b"\n")
    assert _cache_dir("c4", ["a=1"]) != base


def _report(cid: str, ok: bool, detail: str) -> None:
    print(f"ACCEPTANCE {cid}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"criterion {cid}: {detail}"


# -------------------------------------------------------------------- C1


def test_c1_metric_definition_consistency():
    """Pooling per-dim RMSEs reproduces the published Total values to 1e-4."""
    cases = [((0.0990, 0.0651, 0.0707), 0.0802),
             ((0.0548, 0.0373, 0.0319), 0.0423)]
    details = []
    for dims, printed in cases:
        derived = math.sqrt(sum(d * d for d in dims) / 3.0)
        errs = np.tile(dims, (100, 1))
        rep = dynamics.rmse_report(errs, np.zeros((100, 3)))
        assert abs(rep.rmse_total - derived) < 1e-4
        assert abs(rep.rmse_total - printed) < 6e-4  # printed-table rounding
        details.append(f"{dims} -> {rep.rmse_total:.4f} (printed {printed})")
    _report("1", True, "; ".join(details))


# -------------------------------------------------------------------- C2


def test_c2a_jrd_oracle_agreement():
    """Closed form matches the 1-D integration oracle within 1e-6 on 100
    random mixtures with B <= 5."""
    rng = np.random.default_rng(20240914)
    worst = 0.0
    for _ in range(100):
        b = int(rng.integers(2, 6))
        draws = np.array([(rng.uniform(-3, 3), rng.uniform(0.1, 4.0))
                          for _ in range(b)])
        means, varis = draws[:, 0], draws[:, 1]
        closed = jrd.jrd_batch(means[None, :, None], varis[None, :, None])[0]
        worst = max(worst, abs(closed - jrd_oracle_1d(means, varis)))
    _report("2a", worst < 1e-6, f"max |closed - oracle| = {worst:.2e}")


def test_c2b_jrd_fixture_literal_value():
    """Literal fixture: B=2, means (0, 2), unit variances -> 0.3801441 within
    1e-6. The two independent implementations here (closed form and the
    integration oracle) agree with each other to 3e-16 but give 0.3798855,
    so this required constant cannot be met by any implementation that
    passes test_c2a; it fails by design to document the discrepancy."""
    means, varis = np.array([0.0, 2.0]), np.array([1.0, 1.0])
    closed = jrd.jrd_batch(means[None, :, None], varis[None, :, None])[0]
    oracle = jrd_oracle_1d(means, varis)
    assert abs(closed - oracle) < 1e-9  # the two routes agree
    ok = abs(closed - 0.3801441) < 1e-6
    _report("2b", ok,
            f"closed form {closed:.7f}, oracle {oracle:.7f}, required "
            f"constant 0.3801441 differs by {abs(closed - 0.3801441):.2e}")


# -------------------------------------------------------------------- C3


def _fd_worst(params, x, loss_and_head_grad, stride=5, h=1e-5):
    out, cache = nn.mlp_forward(params, x)
    _, head_grad = loss_and_head_grad(out)
    grads = nn.mlp_backward(params, cache, head_grad)
    worst = 0.0
    for li, layer in enumerate(params.layers):
        for arr, g in ((layer.weights, grads[li].weights),
                       (layer.biases, grads[li].biases)):
            flat = arr.reshape(-1)
            gflat = g.reshape(-1)
            for j in range(0, flat.size, stride):
                orig = flat[j]
                flat[j] = orig + h
                lp = loss_and_head_grad(nn.mlp_forward(params, x)[0])[0]
                flat[j] = orig - h
                lm = loss_and_head_grad(nn.mlp_forward(params, x)[0])[0]
                flat[j] = orig
                fd = (lp - lm) / (2 * h)
                denom = max(abs(fd), abs(gflat[j]), 1e-8)
                worst = max(worst, abs(fd - gflat[j]) / denom)
    return worst


def test_c3_gradient_suite():
    """MLP, Gaussian-NLL (mean and variance heads), and L2 gradients all
    match central finite differences within 1e-4 on 24 random configs."""
    rng = np.random.default_rng(77)
    worst = 0.0
    n_cfg = 0
    for i in range(8):  # 8 x 3 loss kinds = 24 configurations
        sizes = [int(rng.integers(4, 11)), int(rng.integers(6, 17)),
                 int(rng.integers(6, 17))]
        act = ("tanh", "relu", "identity")[i % 3]
        x = rng.normal(size=(3, sizes[0]))

        proj_p = nn.init_params(sizes + [4], act, seed=100 + i)
        proj = rng.normal(size=(3, 4))
        worst = max(worst, _fd_worst(
            proj_p, x, lambda out: (float(np.sum(proj * out)), proj)))
        n_cfg += 1

        targets = rng.normal(size=(3, 3))
        head_cfg = dynamics.PennModel(
            members=[nn.init_params([5, 4, 6], act, seed=0)],
            stats=dynamics.NormStats.identity(1), h=1, mode="probabilistic")

        def nll_loss_grad(out, m=head_cfg, t=targets):
            return dynamics._head_loss_and_grad(m, out, t)

        nll_params = nn.init_params(sizes + [6], act, seed=200 + i)
        worst = max(worst, _fd_worst(nll_params, x, nll_loss_grad))
        n_cfg += 1

        det_cfg = dynamics.PennModel(
            members=[nn.init_params([5, 4, 3], act, seed=0)],
            stats=dynamics.NormStats.identity(1), h=1, mode="deterministic")

        def l2_loss_grad(out, m=det_cfg, t=targets):
            return dynamics._head_loss_and_grad(m, out, t)

        l2_params = nn.init_params(sizes + [3], act, seed=300 + i)
        worst = max(worst, _fd_worst(l2_params, x, l2_loss_grad))
        n_cfg += 1
    _report("3", worst < 1e-4,
            f"{n_cfg} configurations, worst relative error {worst:.2e}")


# -------------------------------------------------------------------- C4


ABLATION_OVERRIDES = [
    "collect.minutes=30", "collect.episode_seconds=40",
    # all three maneuver regimes, weighted toward the smooth ones: slides are
    # chaotic, and their share would otherwise dominate the pooled metric
    "collect.mix=zigzag:2,high_speed:2,slide:1",
    "model.b=5", "model.hidden=64,64",
    "train.epochs=60", "train.batch=512", "train.lr=0.002",
]


@pytest.mark.slow
def test_c4_history_ablation():
    """30 simulated minutes of mixed maneuvers per seed; the 5-seed median
    pooled RMSE must bottom out at H in {3,4,5}, at least 10% below H=1."""
    root = _cache_dir("c4", ABLATION_OVERRIDES)
    totals = {h: [] for h in range(1, 11)}
    for seed in SEEDS:
        cfg = config.load_config(None, ABLATION_OVERRIDES + [f"seed={seed}"])
        out = root / f"seed{seed}"
        if not (out / "ablate" / "ablation.csv").exists():
            commands.cmd_collect(cfg, out / "collect")
            commands.cmd_ablate_history(cfg, out / "ablate",
                                        data_dir=out / "collect" / "data",
                                        h_min=1, h_max=10)
        import csv as csv_mod
        with open(out / "ablate" / "ablation.csv") as f:
            for row in csv_mod.DictReader(f):
                totals[int(row["h"])].append(float(row["rmse_total"]))
    med = {h: float(np.median(v)) for h, v in totals.items()}
    best_h = min(med, key=med.get)
    improvement = (med[1] - med[best_h]) / med[1]
    curve = " ".join(f"H{h}:{med[h]:.4f}" for h in sorted(med))
    ok = best_h in (3, 4, 5) and med[best_h] <= 0.9 * med[1]
    _report("4", ok,
            f"median curve {curve}; best H={best_h}, "
            f"{improvement:.1%} better than H=1")


# -------------------------------------------------------------------- C5


def test_c5_mppi_properties():
    """Weight normalization/offset-invariance/monotonicity at 1e-12, the
    softmin -> argmin limit, and the quadratic-toy closed loop."""
    rng = np.random.default_rng(5)
    costs = rng.uniform(0.0, 7.0, 128)
    w = mppi.mppi_weights(costs, lam=0.9)
    assert np.all(w >= 0.0)
    assert abs(w.sum() - 1.0) <= 1e-12
    w_shift = mppi.mppi_weights(costs + 512.75, lam=0.9)
    assert np.max(np.abs(w - w_shift)) <= 1e-12
    order = np.argsort(costs)
    assert np.all(np.diff(w[order]) <= 1e-15)

    lam = 1.0
    prev = 0.0
    argmin = int(np.argmin(costs))
    for _ in range(8):
        wl = mppi.mppi_weights(costs, lam)
        assert wl[argmin] >= prev - 1e-15
        prev = wl[argmin]
        lam *= 0.1
    assert prev > 1.0 - 1e-9

    class ZeroModel:
        b, h, mode, dt = 2, 2, "probabilistic", 0.1

        def delta_batch(self, pairs):
            n = pairs.shape[0]
            return np.zeros((2, n, 3)), np.full((2, n, 3), 1e-4)

        def astype(self, dtype):
            return self

    u_star = np.array([0.9, -0.8])

    def step_cost(states, actions, prev_actions, jrd_vals):
        return np.sum((actions - u_star) ** 2, axis=1)

    cfg = mppi.MppiConfig(k=256, horizon=1, lam=0.01, sigma=(0.025, 0.025),
                          seed=0, smoothing="none")
    state = mppi.MpcState(cfg=cfg,
                          spec=mppi.CostSpec(mode="custom",
                                             custom_step_cost=step_cost))
    window = dynamics.HistoryWindow(np.zeros((2, 3)), np.zeros((2, 2)))
    gap0 = float(np.linalg.norm(u_star))
    gap = gap0
    for _ in range(50):
        action, state, _ = mppi.mpc_step(state, ZeroModel(), window)
        gap = float(np.linalg.norm(action - u_star))
    ok = gap < 0.05 * gap0
    _report("5", ok,
            f"weights exact; argmin weight -> {prev:.6f}; toy suboptimality "
            f"{gap / gap0:.2%} after 50 steps")


# -------------------------------------------------------------------- C6


EXPLORE_OVERRIDES = [
    "model.b=5", "model.hidden=64,64", "train.batch=256", "train.lr=0.002",
    "mppi.k=192", "mppi.t=15",
    "explore.n_rounds=5", "explore.steps_per_round=300",
    "explore.warmup_steps=120", "explore.retrain_epochs=80",
    "explore.eval_seconds=240",
]


@pytest.mark.slow
def test_c6_active_exploration_efficacy():
    """Equal interaction budget, 5-seed medians: exploration-collected data
    must give strictly lower held-out pooled RMSE than the uniform-random
    baseline, and its executed trajectories must show higher disagreement
    under the pre-round model."""
    root = _cache_dir("c6", EXPLORE_OVERRIDES)
    rmse = {"explore": [], "random": []}
    jrd_means = {"explore": [], "random": []}
    for seed in SEEDS:
        for policy in ("explore", "random"):
            cfg = config.load_config(None, EXPLORE_OVERRIDES + [f"seed={seed}"])
            out = root / f"seed{seed}" / policy
            result = commands.cmd_explore(cfg, out, policy=policy)
            rows = result["rows"]
            rmse[policy].append(rows[-1]["rmse_total"])
            jrd_means[policy].append(float(np.mean([r["mean_pre_jrd"]
                                                    for r in rows])))
    med_rmse_e = float(np.median(rmse["explore"]))
    med_rmse_r = float(np.median(rmse["random"]))
    med_jrd_e = float(np.median(jrd_means["explore"]))
    med_jrd_r = float(np.median(jrd_means["random"]))
    ok = med_rmse_e < med_rmse_r and med_jrd_e > med_jrd_r
    _report("6", ok,
            f"held-out RMSE median {med_rmse_e:.4f} (explore) vs "
            f"{med_rmse_r:.4f} (random); pre-round disagreement median "
            f"{med_jrd_e:+.3f} vs {med_jrd_r:+.3f}")


# -------------------------------------------------------------------- C7


DEPLOY_OVERRIDES = [
    "collect.minutes=8", "collect.mix=zigzag:1,high_speed:1",
    "collect.episode_seconds=40",
    "model.b=5", "model.hidden=64,64",
    "train.epochs=80", "train.batch=512", "train.lr=0.002",
    "mppi.k=192", "mppi.t=18",
    "costs.v_target=10.0", "deploy.laps=1", "deploy.max_steps=250",
    "deploy.v_start=5.0",
]


@pytest.mark.slow
def test_c7_uncertainty_aware_deployment():
    """Same checkpoint and seeds: safe mode's executed mean per-step
    disagreement is strictly lower than direct mode's (5-seed median) and it
    never goes off track more often."""
    root = _cache_dir("c7", DEPLOY_OVERRIDES)
    cfg = config.load_config(None, DEPLOY_OVERRIDES + ["seed=0"])
    ckpt = root / "train" / "checkpoint.json"
    if not ckpt.exists():
        commands.cmd_collect(cfg, root / "collect")
        commands.cmd_train(cfg, root / "train",
                           data_dir=root / "collect" / "data")
    jrd_by_mode = {"direct": [], "safe": []}
    fails = {"direct": 0, "safe": 0}
    for seed in SEEDS:
        for mode in ("direct", "safe"):
            out = root / f"{mode}_{seed}"
            if (out / "summary.json").exists():
                summary = json.loads((out / "summary.json").read_text())
            else:
                cfg = config.load_config(None,
                                         DEPLOY_OVERRIDES + [f"seed={seed}"])
                summary = commands.cmd_deploy(
                    cfg, out, checkpoint_path=ckpt, mode=mode,
                    data_dir=root / "collect" / "data")
            jrd_by_mode[mode].append(summary["mean_jrd"])
            fails[mode] += int(summary["failed"])
    med_safe = float(np.median(jrd_by_mode["safe"]))
    med_direct = float(np.median(jrd_by_mode["direct"]))
    ok = med_safe < med_direct and fails["safe"] <= fails["direct"]
    _report("7", ok,
            f"executed disagreement median {med_safe:+.3f} (safe) vs "
            f"{med_direct:+.3f} (direct); off-track failures "
            f"{fails['safe']} vs {fails['direct']}")


# -------------------------------------------------------------------- C8


def test_c8_simulator_physics(monkeypatch):
    """Straight-line invariance, drag dissipation, mirror symmetry (1e-9),
    and RK4 substep convergence (1e-6 over 10 s)."""
    p = sim.PlantParams()
    s = sim.PlantState(vx=8.0)
    for _ in range(50):
        s = sim.plant_step(s, np.array([0.0, 0.2]), p)
        assert s.vy == 0.0 and s.r == 0.0

    s = sim.PlantState(vx=10.0)
    prev = s.vx
    for _ in range(20):
        s = sim.plant_step(s, np.array([0.0, 0.0]), p)
        assert s.vx < prev
        prev = s.vx

    rng = np.random.default_rng(8)
    worst_mirror = 0.0
    for _ in range(5):
        steer, throttle = rng.uniform(-1, 1), rng.uniform(-1, 1)
        a = sim.PlantState(vx=rng.uniform(3, 10), vy=0.2, r=0.1)
        b = sim.PlantState(vx=a.vx, vy=-0.2, r=-0.1)
        for _ in range(20):
            a = sim.plant_step(a, np.array([steer, throttle]), p)
            b = sim.plant_step(b, np.array([-steer, throttle]), p)
        worst_mirror = max(worst_mirror, abs(a.vy + b.vy), abs(a.r + b.r),
                           abs(a.vx - b.vx))
    assert worst_mirror < 1e-9

    def drive():
        s = sim.PlantState(vx=5.0)
        for i in range(100):
            act = np.array([0.2 * np.sin(2 * np.pi * i * 0.1 / 3.0), 0.2])
            s = sim.plant_step(s, act, p)
        return s

    a = drive()
    monkeypatch.setattr(sim, "N_SUBSTEPS", 20)
    b = drive()
    worst_rk4 = 0.0
    for name in ("vx", "vy", "r", "x", "y", "yaw"):
        worst_rk4 = max(worst_rk4, abs(getattr(a, name) - getattr(b, name)))
    assert worst_rk4 < 1e-6
    _report("8", True,
            f"mirror error {worst_mirror:.1e}, substep convergence "
            f"{worst_rk4:.1e}")


# -------------------------------------------------------------------- C9


TINY_OVERRIDES = [
    "collect.minutes=0.5", "collect.episode_seconds=15",
    "model.b=2", "model.hidden=16,16", "train.epochs=3", "train.batch=128",
    "mppi.k=16", "mppi.t=5",
    "explore.n_rounds=2", "explore.steps_per_round=20",
    "explore.warmup_steps=40", "explore.retrain_epochs=3",
    "explore.eval_seconds=36",
    "deploy.laps=1", "deploy.max_steps=20",
]


def _tree_bytes(root: Path) -> dict:
    return {str(p.relative_to(root)): p.read_bytes()
            for p in sorted(root.rglob("*")) if p.is_file()}


def run_all(cfg, base: Path) -> None:
    """Every command on the tiny config, writing one tree under ``base``
    (also the tree whose file hashes ``tests/golden`` records)."""
    commands.cmd_collect(cfg, base / "collect")
    data_dir = base / "collect" / "data"
    commands.cmd_train(cfg, base / "train", data_dir=data_dir)
    commands.cmd_eval(cfg, base / "eval",
                      checkpoint_path=base / "train" / "checkpoint.json",
                      data_dir=data_dir)
    commands.cmd_ablate_history(cfg, base / "ablate", data_dir=data_dir,
                                h_min=1, h_max=2)
    commands.cmd_explore(cfg, base / "explore")
    commands.cmd_deploy(cfg, base / "deploy",
                        checkpoint_path=base / "train" / "checkpoint.json",
                        mode="safe", data_dir=data_dir)


@pytest.mark.slow
def test_c9_determinism_and_persistence(tmp_path):
    """Every command byte-identical across reruns with a fixed seed;
    checkpoint and dataset round trips exact."""
    cfg = config.load_config(None, TINY_OVERRIDES + ["seed=7"])
    run_all(cfg, tmp_path / "a")
    run_all(cfg, tmp_path / "b")
    ta = _tree_bytes(tmp_path / "a")
    tb = _tree_bytes(tmp_path / "b")
    assert ta.keys() == tb.keys()
    diffs = [k for k in ta if ta[k] != tb[k]]
    assert not diffs, f"non-deterministic outputs: {diffs}"

    model = dynamics.load_checkpoint(tmp_path / "a" / "train" / "checkpoint.json")
    dynamics.save_checkpoint(model, tmp_path / "resaved.json")
    reload = dynamics.load_checkpoint(tmp_path / "resaved.json")
    for ma, mb in zip(model.members, reload.members):
        for la, lb in zip(ma.layers, mb.layers):
            assert np.array_equal(la.weights, lb.weights)

    episodes, manifest = data.load_dataset(tmp_path / "a" / "collect" / "data")
    data.save_dataset(episodes, tmp_path / "ds2", h=manifest["h"],
                      extra={k: manifest[k] for k in
                             ("rate", "target_rows", "total_rows")})
    orig = _tree_bytes(tmp_path / "a" / "collect" / "data")
    resaved = _tree_bytes(tmp_path / "ds2")
    assert orig == resaved
    _report("9", True, f"{len(ta)} files byte-identical across reruns; "
                       "checkpoint and dataset round trips exact")

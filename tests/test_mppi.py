"""Sampling-based MPC: perturbations, rollouts, costs, weighting, update,
and the full control step on stub models."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from penn_mpc import mppi
from penn_mpc.dynamics import HistoryWindow, build_model
from penn_mpc.errors import ConfigError, ControlError
from penn_mpc.jrd import jrd_batch
from penn_mpc.sim import TrackSpec, build_track

TRACK = build_track(TrackSpec())


class StubModel:
    """Duck-typed model: fixed per-member increment means/variances."""

    def __init__(self, deltas, variances=None, h=2, dt=0.1):
        self.deltas = np.asarray(deltas, dtype=float)      # (B, 3)
        self.b = self.deltas.shape[0]
        if variances is None:
            variances = np.full((self.b, 3), 1e-4)
        self.variances = np.asarray(variances, dtype=float)
        self.h = h
        self.mode = "probabilistic"
        self.dt = dt

    def delta_batch(self, pairs):
        n = pairs.shape[0]
        means = np.repeat(self.deltas[:, None, :], n, axis=1)
        varis = np.repeat(self.variances[:, None, :], n, axis=1)
        return means, varis

    def astype(self, dtype):
        return self


def zero_window(h=2, state=None):
    states = np.tile(state if state is not None else np.zeros(3), (h, 1))
    return HistoryWindow(states, np.zeros((h, 2)))


JRD_PAIR = 0.3798854930417224  # two unit-variance members, means 2 apart


def rollout_one(model, window, seq, spec, member=0, pose=None):
    """One (T, 2) sequence through the batched rollout: (cost, jrd (T,),
    states (T+1, 3), valid)."""
    costs, jrd_vals, traj, invalid = mppi._rollout_batch(
        model, window, np.asarray(seq, dtype=float)[None], spec,
        np.array([member]), pose)
    return costs[0], jrd_vals[0], traj[0], not invalid[0]


def cost_of(spec, seq, jrd_vals, vx=None, e_lat=None, prev_u0=(0.0, 0.0)):
    """rollout_cost of one rollout from per-step vx, e_lat and jrd."""
    seq = np.atleast_2d(np.asarray(seq, dtype=float))
    t_hor = seq.shape[0]
    traj = np.zeros((1, t_hor + 1, 3))
    if vx is not None:
        traj[0, 1:, 0] = vx
    e = None if e_lat is None else np.asarray(e_lat, dtype=float)[None]
    return float(mppi.rollout_cost(spec, seq[None], np.asarray(prev_u0), traj,
                                   np.asarray(jrd_vals, dtype=float)[None], e)[0])


def test_sample_perturbations_zero_sigma():
    cfg = mppi.MppiConfig(k=8, horizon=5, sigma=(0.0, 0.0), seed=1)
    assert np.array_equal(mppi.sample_perturbations(cfg), np.zeros((8, 5, 2)))


def test_sample_perturbations_std():
    cfg = mppi.MppiConfig(k=10_000, horizon=1, sigma=(0.3, 0.6), seed=2)
    noise = mppi.sample_perturbations(cfg)
    std = noise.std(axis=0)[0]
    assert abs(std[0] - 0.3) / 0.3 < 0.03
    assert abs(std[1] - 0.6) / 0.6 < 0.03


def test_sample_perturbations_per_sample_streams():
    cfg = mppi.MppiConfig(k=64, horizon=7, sigma=(0.5, 0.5), seed=3)
    noise = mppi.sample_perturbations(cfg, step_index=9)
    # re-running sample k alone reproduces its slice
    for k in (0, 13, 63):
        rng = np.random.default_rng([3, 9, k])
        slice_k = rng.standard_normal((7, 2)) * np.array([0.5, 0.5])
        assert np.array_equal(noise[k], slice_k)


@settings(max_examples=30, deadline=None)
@given(seed=st.sampled_from([0, 1, 2**32 - 1, 2**32, 2**64 + 5]),
       step=st.one_of(st.integers(0, 3), st.integers(0, 2**33)),
       k=st.sampled_from([2, 17, 512]), horizon=st.sampled_from([1, 3, 25]))
def test_sample_perturbations_match_default_rng_streams(seed, step, k,
                                                        horizon):
    """The entropy rows built at once give, bit for bit, the tensor of a
    per-sample ``default_rng([seed, step, k])`` loop, for seeds and step
    indices of one, two and three 32-bit words."""
    sigma = (0.3, 0.7)
    cfg = mppi.MppiConfig(k=k, horizon=horizon, sigma=sigma, seed=seed)
    want = np.stack([np.random.default_rng([seed, step, j]).standard_normal(
        (horizon, 2)) * np.array(sigma) for j in range(k)])
    assert np.array_equal(mppi.sample_perturbations(cfg, step), want)


def test_sample_perturbations_reject_negative_seed():
    with pytest.raises(ValueError):
        mppi.sample_perturbations(mppi.MppiConfig(k=2, seed=-1))
    with pytest.raises(ValueError):
        mppi.sample_perturbations(mppi.MppiConfig(k=2), step_index=-3)


def test_config_validation():
    with pytest.raises(ConfigError):
        mppi.MppiConfig(k=1)
    with pytest.raises(ConfigError):
        mppi.MppiConfig(horizon=0)
    with pytest.raises(ConfigError):
        mppi.MppiConfig(lam=0.0)
    for sigma in ((0.3,), (0.3, 0.3, 0.3)):
        with pytest.raises(ConfigError):
            mppi.MppiConfig(sigma=sigma)


def test_rollout_zero_delta_constant_trajectory():
    model = StubModel(np.zeros((3, 3)))
    window = zero_window(state=np.array([2.0, 0.1, -0.3]))
    seq = np.zeros((6, 2))
    cost, jrd_vals, states, valid = rollout_one(
        model, window, seq, mppi.CostSpec(mode="explore"))
    assert valid
    assert np.allclose(states, np.tile([2.0, 0.1, -0.3], (7, 1)))
    assert np.allclose(jrd_vals, 0.0)  # identical members agree
    assert cost == pytest.approx(0.0)


def test_rollout_jrd_from_member_disagreement():
    # two members whose next-state means sit 2 apart with unit variances
    model = StubModel(np.array([[0.0, 0.0, 0.0], [2.0, 0.0, 0.0]]),
                      variances=np.ones((2, 3)))
    window = zero_window()
    cost, jrd_vals, _, _ = rollout_one(model, window, np.zeros((4, 2)),
                                       mppi.CostSpec(mode="explore"))
    # per-dim mixture: one dim separated (jrd_pair), two identical; the
    # 3-d divergence of the product mixture is the oracle-checked value below
    means = np.array([[[0.0, 0, 0], [2.0, 0, 0]]])
    expect = jrd_batch(means, np.ones((1, 2, 3)))[0]
    assert np.allclose(jrd_vals, expect)
    assert cost == pytest.approx(-4 * expect)


def test_rollout_member_assignment_fixed():
    model = StubModel(np.array([[0.1, 0.0, 0.0], [-0.1, 0.0, 0.0]]))
    window = zero_window()
    spec = mppi.CostSpec(mode="explore")
    _, _, s0, _ = rollout_one(model, window, np.zeros((5, 2)), spec, member=0)
    _, _, s1, _ = rollout_one(model, window, np.zeros((5, 2)), spec, member=1)
    assert s0[-1][0] == pytest.approx(0.5)
    assert s1[-1][0] == pytest.approx(-0.5)


def test_rollout_invalid_on_nonfinite():
    model = StubModel(np.array([[np.nan, 0.0, 0.0]]))
    cost, _, _, valid = rollout_one(model, zero_window(), np.zeros((3, 2)),
                                    mppi.CostSpec(mode="explore"))
    assert not valid
    assert cost == math.inf


def test_deploy_rollout_far_off_track_invalid():
    # a pose more than 5 half-widths from the centerline marks the rollout
    # invalid with infinite cost; the same rollout on the centerline is not
    model = StubModel(np.zeros((1, 3)))
    window = zero_window(state=np.array([8.0, 0.0, 0.0]))
    spec = mppi.CostSpec(mode="deploy_direct", track=TRACK)
    pos, head, _ = TRACK.point_at(0.0)
    on_track = np.array([pos[0], pos[1], head])
    cost, _, _, valid = rollout_one(model, window, np.zeros((3, 2)), spec,
                                    pose=on_track)
    assert valid and math.isfinite(cost)
    far = on_track + np.array([0.0, -500.0, 0.0])
    cost, _, _, valid = rollout_one(model, window, np.zeros((3, 2)), spec,
                                    pose=far)
    assert not valid
    assert cost == math.inf


def test_exploration_cost_values():
    spec = mppi.CostSpec(mode="explore", w_ctrl=0.0)
    assert cost_of(spec, np.zeros((2, 2)), [0.0, 0.0]) == 0.0
    base = cost_of(spec, np.zeros((2, 2)), [0.3, 0.2])
    doubled = cost_of(spec, np.zeros((2, 2)), [0.6, 0.4])
    assert doubled == pytest.approx(2 * base)
    v = cost_of(spec, np.zeros((2, 2)), [JRD_PAIR, JRD_PAIR])
    assert v == pytest.approx(-2 * JRD_PAIR)  # ~-0.76 for the pair fixture
    with_ctrl = cost_of(mppi.CostSpec(mode="explore", w_ctrl=2.0),
                        np.array([[0.5, -0.5]]), [0.0])
    assert with_ctrl == pytest.approx(2.0 * 0.5)


def test_deployment_cost_tracking_terms():
    spec = make_deploy_spec("deploy_direct", w_track=2.0, w_speed=0.0, w_ctrl=0.0)
    cost = cost_of(spec, np.zeros((5, 2)), np.zeros(5),
                   vx=np.full(5, spec.v_target), e_lat=np.ones(5))
    assert cost == pytest.approx(10.0)  # e_lat=1 for 5 steps, w_track=2


def test_deployment_cost_zero_on_reference():
    spec = make_deploy_spec("deploy_direct")
    cost = cost_of(spec, np.zeros((4, 2)), np.zeros(4),
                   vx=np.full(4, spec.v_target), e_lat=np.zeros(4))
    assert cost == 0.0


def test_deploy_direct_ignores_jrd():
    spec = make_deploy_spec("deploy_direct")
    vx = np.full(4, spec.v_target)
    a = cost_of(spec, np.zeros((4, 2)), np.zeros(4), vx=vx, e_lat=np.zeros(4))
    b = cost_of(spec, np.zeros((4, 2)), np.full(4, 10.0), vx=vx,
                e_lat=np.zeros(4))
    assert a == b


def test_deploy_safe_threshold_penalty_once_per_step():
    spec = make_deploy_spec("deploy_safe", w_unc=1.0, jrd_threshold=0.1,
                            penalty_big=100.0, w_track=0.0, w_speed=0.0,
                            w_ctrl=0.0)
    jrd_vals = np.array([0.2, 0.05, 0.2])
    cost = cost_of(spec, np.zeros((3, 2)), jrd_vals,
                   vx=np.full(3, spec.v_target), e_lat=np.zeros(3))
    assert cost == pytest.approx(1.0 * jrd_vals.sum() + 2 * 100.0)


def test_deploy_safe_rollout_counts_violations():
    # two-member stub disagreeing by 2 with unit variances: known jrd
    model = StubModel(np.array([[0.0, 0.0, 0.0], [2.0, 0.0, 0.0]]),
                      variances=np.ones((2, 3)))
    pos, head, _ = TRACK.point_at(0.0)
    window = zero_window(state=np.array([8.0, 0.0, 0.0]))
    spec = mppi.CostSpec(mode="deploy_safe", w_track=0.0, w_speed=0.0,
                         w_ctrl=0.0, w_unc=0.0001, jrd_threshold=0.1,
                         penalty_big=1000.0, v_target=8.0, track=TRACK)
    t_hor = 4
    cost, jrd_vals, _, _ = rollout_one(model, window, np.zeros((t_hor, 2)),
                                       spec,
                                       pose=np.array([pos[0], pos[1], head]))
    per_step = jrd_vals[0]
    assert per_step > 0.1
    expect = t_hor * (0.0001 * per_step + 1000.0)
    assert cost == pytest.approx(expect, rel=1e-6)


def make_deploy_spec(mode, **kw):
    defaults = dict(w_track=2.0, w_speed=0.5, w_ctrl=0.1, v_target=8.0)
    defaults.update(kw)
    return mppi.CostSpec(mode=mode, track=TRACK, **defaults)


def test_weights_uniform_for_equal_costs():
    w = mppi.mppi_weights(np.full(8, 3.0), lam=1.0)
    assert np.allclose(w, 1.0 / 8.0, atol=1e-15)


def test_weights_closed_form_pair():
    lam = 0.7
    w = mppi.mppi_weights(np.array([0.0, lam]), lam=lam)
    e = math.exp(-1.0)
    assert w[0] == pytest.approx(1.0 / (1.0 + e), abs=1e-12)   # ~0.73106
    assert w[1] == pytest.approx(e / (1.0 + e), abs=1e-12)     # ~0.26894


def _finite(lo, hi):
    return st.floats(lo, hi, allow_nan=False, allow_infinity=False)


@st.composite
def rollout_costs(draw):
    """1-300 costs in [-1e3, 1e3], some +inf (invalid rollouts), at least
    one finite; repeated values make ties common."""
    n = draw(st.integers(1, 300))
    pool = draw(st.lists(_finite(-1e3, 1e3), min_size=1, max_size=8))
    costs = draw(arrays(np.float64, n, elements=st.one_of(
        st.sampled_from(pool), _finite(-1e3, 1e3), st.just(math.inf))))
    costs[draw(st.integers(0, n - 1))] = pool[0]
    return costs


_LAMBDAS = _finite(0.01, 100.0)


@settings(max_examples=200, deadline=None)
@given(costs=rollout_costs(), lam=_LAMBDAS, offset=_finite(-1e3, 1e3))
def test_weights_offset_invariant(costs, lam, offset):
    a = mppi.mppi_weights(costs, lam)
    b = mppi.mppi_weights(costs + offset, lam)
    # shifting rounds each cost by at most an ulp of 2e3 (4.5e-13), which
    # moves a weight by at most that over lam, relative
    assert np.all(np.abs(a - b) <= 1e-12 + 4 * 4.6e-13 / lam * a)


@settings(max_examples=200, deadline=None)
@given(costs=rollout_costs(), lam=_LAMBDAS)
def test_weights_properties(costs, lam):
    w = mppi.mppi_weights(costs, lam)
    finite = np.isfinite(costs)
    assert np.all(w[~finite] == 0.0)
    assert np.all(w[finite] >= 0.0)
    assert abs(w.sum() - 1.0) < 1e-12
    assert w[np.argmin(costs)] == w.max() >= 1.0 / costs.size
    order = np.argsort(costs, kind="stable")
    assert np.all(np.diff(w[order]) <= 1e-15)  # lower cost, higher weight


def test_weights_infinite_rollouts_zeroed():
    costs = np.array([1.0, math.inf, 2.0])
    w = mppi.mppi_weights(costs, lam=1.0)
    assert w[1] == 0.0
    assert abs(w.sum() - 1.0) < 1e-12
    with pytest.raises(ControlError):
        mppi.mppi_weights(np.full(4, math.inf), lam=1.0)


def test_weights_softmin_limit():
    costs = np.array([3.0, 1.0, 2.0, 5.0])
    prev = 0.0
    lam = 1.0
    for _ in range(6):
        w = mppi.mppi_weights(costs, lam)
        assert w[1] >= prev
        prev = w[1]
        lam /= 10.0
    assert prev > 1.0 - 1e-9


def test_update_zero_perturbations():
    nominal = np.array([[0.2, -0.3], [0.1, 0.0]])
    out = mppi.mppi_update(nominal, np.zeros((4, 2, 2)), np.full(4, 0.25))
    assert np.array_equal(out, nominal)


def test_update_single_weight_selects_sample():
    nominal = np.zeros((3, 2))
    eps = np.zeros((4, 3, 2))
    eps[2] = 0.4
    w = np.array([0.0, 0.0, 1.0, 0.0])
    out = mppi.mppi_update(nominal, eps, w)
    assert np.allclose(out, 0.4)


def test_update_clamped():
    nominal = np.full((3, 2), 0.9)
    eps = np.full((2, 3, 2), 0.9)
    out = mppi.mppi_update(nominal, eps, np.array([0.5, 0.5]))
    assert np.all(out <= 1.0) and np.all(out >= -1.0)


def test_update_smoothing_preserves_bounds_and_mean():
    rng = np.random.default_rng(7)
    nominal = rng.uniform(-1, 1, (9, 2))
    out = mppi.mppi_update(nominal, np.zeros((2, 9, 2)), np.array([0.5, 0.5]),
                           smoothing_window=3)
    assert np.all(np.abs(out) <= 1.0)
    # interior points are plain 3-point averages
    for t in range(1, 8):
        assert np.allclose(out[t], nominal[t - 1:t + 2].mean(axis=0))


def quadratic_spec(u_star):
    u_star = np.asarray(u_star)

    def step_cost(states, actions, prev_actions, jrd_vals):
        return np.sum((actions - u_star) ** 2, axis=1)

    return mppi.CostSpec(mode="custom", custom_step_cost=step_cost)


def test_mpc_step_argmin_limit():
    # near-zero temperature: emitted action approaches the best sample's
    # first action
    model = StubModel(np.zeros((2, 3)))
    window = zero_window()
    u_star = np.array([0.5, -0.3])
    cfg = mppi.MppiConfig(k=256, horizon=4, lam=1e-9, sigma=(0.3, 0.3), seed=8,
                          smoothing="none")
    state = mppi.MpcState(cfg=cfg, spec=quadratic_spec(u_star))
    noise = mppi.sample_perturbations(cfg, 0)
    seqs = np.clip(state.nominal[None] + noise, -1, 1)
    costs = ((seqs - u_star) ** 2).sum(axis=(1, 2))
    best_first = seqs[np.argmin(costs), 0]
    action, _, _ = mppi.mpc_step(state, model, window)
    assert np.all(np.abs(action - best_first) < 0.3 * 1e-3)


def test_mpc_step_deterministic():
    model = StubModel(np.zeros((2, 3)))
    window = zero_window()
    cfg = mppi.MppiConfig(k=64, horizon=5, lam=0.5, sigma=(0.2, 0.2), seed=9)
    s0 = mppi.MpcState(cfg=cfg, spec=quadratic_spec([0.2, 0.2]))
    a1, s1, d1 = mppi.mpc_step(s0, model, window)
    a2, s2, d2 = mppi.mpc_step(mppi.MpcState(cfg=cfg, spec=s0.spec), model,
                               window)
    assert np.array_equal(a1, a2)
    assert np.array_equal(s1.nominal, s2.nominal)
    assert d1 == d2


@pytest.mark.parametrize("horizon", [1, 2])
def test_mpc_step_horizon_shorter_than_smoothing_window(horizon):
    """The moving average narrows to the horizon; at T=1 it is a no-op."""
    model = StubModel(np.zeros((2, 3)))
    spec = quadratic_spec([0.2, 0.2])
    steps = {}
    for smoothing in ("moving_average", "none"):
        cfg = mppi.MppiConfig(k=32, horizon=horizon, sigma=(0.2, 0.2), seed=12,
                              smoothing=smoothing, smoothing_window=3)
        action, state, _ = mppi.mpc_step(mppi.MpcState(cfg=cfg, spec=spec),
                                         model, zero_window())
        assert state.nominal.shape == (horizon, 2)
        assert np.all(np.abs(action) <= 1.0)
        steps[smoothing] = (action, state.nominal)
    if horizon == 1:
        assert np.array_equal(steps["moving_average"][0], steps["none"][0])
        assert np.array_equal(steps["moving_average"][1], steps["none"][1])


def test_mpc_step_converges_on_quadratic_toy():
    # single-step horizon keeps the selection pressure on the applied action,
    # so the approach is strictly monotone until well past 20 iterations
    model = StubModel(np.zeros((2, 3)))
    window = zero_window()
    u_star = np.array([0.9, -0.8])
    cfg = mppi.MppiConfig(k=256, horizon=1, lam=0.01, sigma=(0.025, 0.025),
                          seed=10, smoothing="none")
    state = mppi.MpcState(cfg=cfg, spec=quadratic_spec(u_star))
    gaps = []
    for _ in range(50):
        action, state, _ = mppi.mpc_step(state, model, window)
        gaps.append(np.linalg.norm(action - u_star))
    assert all(b <= a + 1e-12 for a, b in zip(gaps[:20], gaps[1:20]))
    assert gaps[-1] < 0.05 * np.linalg.norm(-u_star)


def test_mpc_step_all_invalid_emits_zero():
    model = StubModel(np.array([[np.nan, 0.0, 0.0]]))
    window = zero_window()
    cfg = mppi.MppiConfig(k=8, horizon=3, sigma=(0.1, 0.1), seed=11)
    state = mppi.MpcState(cfg=cfg, spec=mppi.CostSpec(mode="explore"))
    action, state2, diag = mppi.mpc_step(state, model, window)
    assert np.array_equal(action, np.zeros(2))
    assert diag["all_invalid"] is True
    assert diag["n_invalid"] == 8
    assert state2.step_index == 1


def _toy_step_cost(states, actions, prev_actions, jrd_vals):
    # touches every argument, so a misaligned step shows in the cost
    return (np.sum((actions - 0.3) ** 2, axis=1)
            + 0.5 * states[:, 0] * prev_actions[:, 1] + jrd_vals)


def _reference_cost(spec, seqs, prev_u0, traj, jrd, e_lat):
    """Per-rollout, per-step transcription of the rollout_cost docstring.

    Returns each rollout's cost and the summed magnitude of its terms.
    """
    costs, scales = [], []
    for i in range(seqs.shape[0]):
        terms = []
        prev = prev_u0
        for t in range(seqs.shape[1]):
            u, x, j = seqs[i, t], traj[i, t + 1], float(jrd[i, t])
            if spec.mode == "explore":
                terms += [-j, spec.w_ctrl * (u[0] ** 2 + u[1] ** 2)]
            elif spec.mode == "custom":
                terms.append(float(_toy_step_cost(
                    x[None], u[None], prev[None], np.array([j]))[0]))
            else:
                du = u - prev
                terms += [spec.w_track * e_lat[i, t] ** 2,
                          spec.w_speed * (x[0] - spec.v_target) ** 2,
                          spec.w_ctrl * (du[0] ** 2 + du[1] ** 2)]
                if spec.mode == "deploy_safe":
                    terms += [spec.w_unc * j,
                              spec.penalty_big if j > spec.jrd_threshold else 0.0]
            prev = u
        costs.append(sum(terms))
        scales.append(sum(abs(v) for v in terms))
    return costs, scales


MODES = ("explore", "deploy_direct", "deploy_safe", "custom")


# shared values make ties and near-ties with the jrd threshold common
_JRD = st.one_of(st.sampled_from([-0.5, 0.0, 0.001, 0.1, 0.5]), _finite(-2, 2))


@st.composite
def cost_specs(draw):
    w = _finite(0.0, 10.0)
    return mppi.CostSpec(
        mode=draw(st.sampled_from(MODES)), w_track=draw(w), w_speed=draw(w),
        w_ctrl=draw(w), w_unc=draw(_finite(0.01, 10.0)),
        jrd_threshold=draw(_JRD),
        penalty_big=draw(_finite(0.0, 1000.0)),
        v_target=draw(_finite(0.0, 15.0)), track=TRACK,
        custom_step_cost=_toy_step_cost)


@st.composite
def rollout_records(draw):
    k, t_hor = draw(st.integers(1, 4)), draw(st.integers(1, 6))
    return (draw(arrays(np.float64, (k, t_hor, 2), elements=_finite(-1, 1))),
            draw(arrays(np.float64, (2,), elements=_finite(-1, 1))),
            draw(arrays(np.float64, (k, t_hor + 1, 3),
                        elements=_finite(-20, 20))),
            draw(arrays(np.float64, (k, t_hor), elements=_JRD)),
            draw(arrays(np.float64, (k, t_hor), elements=_finite(-20, 20))))


@settings(max_examples=200, deadline=None)
@given(spec=cost_specs(), record=rollout_records())
def test_rollout_cost_matches_reference(spec, record):
    seqs, prev_u0, traj, jrd_vals, e_lat = record
    got = mppi.rollout_cost(spec, seqs, prev_u0, traj, jrd_vals, e_lat)
    assert got.shape == (seqs.shape[0],)
    want, scales = _reference_cost(spec, seqs, prev_u0, traj, jrd_vals, e_lat)
    for g, w, scale in zip(got, want, scales):
        assert abs(g - w) <= 1e-12 * scale


def _check_batched_matches_single(seed, k, mode, dtype, tol):
    """A K-row batch gives each row what a one-row call gives it, within
    rel/abs ``tol``, on a real 3-member ensemble cast to ``dtype``."""
    rng = np.random.default_rng(seed)
    model = build_model(h=2, b=3, hidden=[8], seed=seed).astype(dtype)
    window = HistoryWindow(
        np.array([6.0, 0.0, 0.0]) + rng.normal(scale=0.5, size=(2, 3)),
        rng.uniform(-1, 1, (2, 2)))
    seqs = rng.uniform(-1, 1, size=(k, 5, 2))
    members = rng.integers(0, model.b, size=k)
    spec = mppi.CostSpec(mode=mode, jrd_threshold=0.05, track=TRACK,
                         custom_step_cost=_toy_step_cost)
    pos, head, _ = TRACK.point_at(rng.uniform(0.0, TRACK.total_length))
    pose = np.array([pos[0], pos[1], head])
    costs, jrd_vals, traj, invalid = mppi._rollout_batch(
        model, window, seqs, spec, members, pose)
    for i in range(k):
        c1, j1, t1, inv1 = mppi._rollout_batch(
            model, window, seqs[i:i + 1], spec, members[i:i + 1], pose)
        assert inv1[0] == invalid[i]
        assert c1[0] == pytest.approx(costs[i], rel=tol[0], abs=tol[1])
        np.testing.assert_allclose(j1[0], jrd_vals[i], rtol=tol[0], atol=tol[1])
        np.testing.assert_allclose(t1[0], traj[i], rtol=tol[0], atol=tol[1])


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), k=st.integers(2, 6),
       mode=st.sampled_from(MODES))
def test_batched_rollout_matches_single(seed, k, mode):
    _check_batched_matches_single(seed, k, mode, np.float64, (1e-12, 1e-12))


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), k=st.integers(2, 40),
       mode=st.sampled_from(MODES))
def test_batched_rollout_matches_single_float32(seed, k, mode):
    # float32 matmuls round differently for one row and for K rows; over 200
    # random cases the rows differed by at most 1.4e-6 in the states, 1.1e-7
    # in the disagreement and 1.7e-5 in the costs (absolute)
    _check_batched_matches_single(seed, k, mode, np.float32, (1e-4, 1e-5))


def test_mpc_step_leaves_model_float64_and_unmodified():
    model = build_model(h=2, b=3, hidden=[8], seed=12)
    members = list(model.members)
    before = [(l.weights.copy(), l.biases.copy())
              for m in members for l in m.layers]
    cfg = mppi.MppiConfig(k=16, horizon=4, seed=12)
    state = mppi.MpcState(cfg=cfg, spec=mppi.CostSpec(mode="explore"))
    window = zero_window(state=np.array([5.0, 0.0, 0.0]))
    for _ in range(2):
        _, state, _ = mppi.mpc_step(state, model, window)
    assert all(a is b for a, b in zip(model.members, members))
    after = [(l.weights, l.biases) for m in model.members for l in m.layers]
    for (w0, b0), (w1, b1) in zip(before, after):
        assert w1.dtype == b1.dtype == np.float64
        assert np.array_equal(w0, w1) and np.array_equal(b0, b1)


def test_rollout_replaces_newest_action():
    # the first sequence action replaces the window's newest (placeholder)
    # action before the first prediction
    class ActionEcho(StubModel):
        def delta_batch(self, pairs):
            n = pairs.shape[0]
            means = np.zeros((self.b, n, 3))
            means[:, :, 0] = pairs[None, :, -1, 3]  # newest steer
            return means, np.full((self.b, n, 3), 1e-4)

    model = ActionEcho(np.zeros((1, 3)))
    window = HistoryWindow(np.zeros((2, 3)), np.full((2, 2), 0.7))
    seq = np.zeros((1, 2))
    _, _, states, _ = rollout_one(model, window, seq,
                                  mppi.CostSpec(mode="explore"))
    assert states[-1][0] == pytest.approx(0.0)  # saw 0.0, not 0.7

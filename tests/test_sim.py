"""Ground-truth plant, track geometry, and scripted maneuvers."""

import logging
import math
from unittest.mock import patch

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from penn_mpc import sim
from penn_mpc.errors import ConfigError, DataError, GeometryError


@pytest.fixture(scope="module")
def track():
    return sim.build_track(sim.TrackSpec())


@pytest.fixture
def params():
    return sim.PlantParams()


# --- tire model


def test_tire_zero_slip(params):
    assert sim.tire_lateral_force(0.0, 10.0, 1.9, 1.0, 900.0) == 0.0


def test_tire_odd_in_slip(params):
    for s in (0.01, 0.1, 0.5, 2.0):
        fp = sim.tire_lateral_force(s, 10.0, 1.9, 1.0, 900.0)
        fm = sim.tire_lateral_force(-s, 10.0, 1.9, 1.0, 900.0)
        assert fp == -fm
        assert fp > 0.0


def test_tire_small_slip_linear():
    s = 1e-4
    f = sim.tire_lateral_force(s, 10.0, 1.9, 1.0, 900.0)
    linear = 1.0 * 900.0 * 1.9 * 10.0 * s
    assert abs(f - linear) / linear < 1e-3


# --- plant dynamics


def test_straight_line_invariant(params):
    s = sim.PlantState(vx=8.0)
    for _ in range(50):
        s = sim.plant_step(s, np.array([0.0, 0.2]), params)
        assert s.vy == 0.0 and s.r == 0.0 and s.y == 0.0 and s.yaw == 0.0


def test_drag_dissipation(params):
    s = sim.PlantState(vx=10.0)
    prev = s.vx
    for _ in range(30):
        s = sim.plant_step(s, np.array([0.0, 0.0]), params)
        assert s.vx < prev
        prev = s.vx


# Valid plants around the kart defaults: every field positive where it must
# be, grip and drag from slippery to sticky.
PLANTS = st.builds(
    sim.PlantParams,
    mass=st.floats(50.0, 400.0), yaw_inertia=st.floats(10.0, 200.0),
    lf=st.floats(0.2, 1.2), lr=st.floats(0.2, 1.2),
    b_stiff=st.floats(2.0, 15.0), c_shape=st.floats(1.0, 2.0),
    mu=st.floats(0.05, 1.5), mu_rear_scale=st.floats(0.5, 1.2),
    drag=st.floats(0.0, 60.0), max_steer=st.floats(0.1, 0.6),
    max_accel=st.floats(1.0, 8.0), dt=st.floats(0.02, 0.2),
    steer_tau=st.floats(0.05, 0.5), accel_tau=st.floats(0.05, 0.5))


@settings(max_examples=40, deadline=None)
@given(params=PLANTS, vx=st.floats(0.0, 12.0), vy=st.floats(-1.0, 1.0),
       r=st.floats(-1.0, 1.0), steer_act=st.floats(-0.45, 0.45),
       steer=st.floats(-1.0, 1.0), throttle=st.floats(-1.0, 1.0))
def test_mirror_symmetry(params, vx, vy, r, steer_act, steer, throttle):
    """Mirroring the lateral state and the steering mirrors the trajectory."""
    a = sim.PlantState(vx=vx, vy=vy, r=r, steer_act=steer_act)
    b = sim.PlantState(vx=vx, vy=-vy, r=-r, steer_act=-steer_act)
    for _ in range(20):
        a = sim.plant_step(a, np.array([steer, throttle]), params)
        b = sim.plant_step(b, np.array([-steer, throttle]), params)
    assert abs(a.vy + b.vy) < 1e-9
    assert abs(a.r + b.r) < 1e-9
    assert abs(a.vx - b.vx) < 1e-9


def _drive(params):
    s = sim.PlantState(vx=5.0)
    for i in range(100):  # 10 s
        act = np.array([0.2 * np.sin(2 * np.pi * i * 0.1 / 3.0), 0.2])
        s = sim.plant_step(s, act, params)
    return s


def test_rk4_substep_convergence(params, monkeypatch):
    # grip-regime trajectory: inside the slide threshold the dynamics are
    # non-chaotic and halving the substep moves a 10 s rollout by < 1e-6;
    # spins are sensitive-dependent and excluded by design
    a = _drive(params)
    monkeypatch.setattr(sim, "N_SUBSTEPS", 20)
    b = _drive(params)
    for name in ("vx", "vy", "r", "x", "y", "yaw"):
        assert abs(getattr(a, name) - getattr(b, name)) < 1e-6, name


def _reference_derivs(y, steer_cmd, accel_cmd, p):
    """The plant's right-hand side on an (8,) float64 state array."""
    vx, vy, r, _, _, yaw, delta, ax = y
    vx_safe = vx if vx > sim.V_EPS else sim.V_EPS
    alpha_f = delta - math.atan2(vy + p.lf * r, vx_safe)
    alpha_r = -math.atan2(vy - p.lr * r, vx_safe)
    fzf = p.mass * sim.GRAVITY * p.lr / p.wheelbase
    fzr = p.mass * sim.GRAVITY * p.lf / p.wheelbase
    fyf = sim.tire_lateral_force(alpha_f, p.b_stiff, p.c_shape, p.mu, fzf)
    fyr = sim.tire_lateral_force(alpha_r, p.b_stiff, p.c_shape,
                                 p.mu * p.mu_rear_scale, fzr)
    cd = math.cos(delta)
    sd = math.sin(delta)
    cy = math.cos(yaw)
    sy = math.sin(yaw)
    return np.array([
        ax + vy * r - p.drag * vx / p.mass - fyf * sd / p.mass,
        (fyf * cd + fyr) / p.mass - vx * r,
        (p.lf * fyf * cd - p.lr * fyr) / p.yaw_inertia,
        vx * cy - vy * sy,
        vx * sy + vy * cy,
        r,
        (steer_cmd - delta) / p.steer_tau,
        (accel_cmd - ax) / p.accel_tau,
    ])


def _reference_step(s, action, p):
    """``plant_step`` as whole-array RK4 on an (8,) float64 state; returns
    the next state's 8 fields and the clamped triple it warns about, or
    None when it does not clamp."""
    steer_cmd = min(1.0, max(-1.0, float(action[0]))) * p.max_steer
    accel_cmd = min(1.0, max(-1.0, float(action[1]))) * p.max_accel
    y = np.array([s.vx, s.vy, s.r, s.x, s.y, s.yaw, s.steer_act, s.accel_act])
    h = p.dt / sim.N_SUBSTEPS
    for _ in range(sim.N_SUBSTEPS):
        k1 = _reference_derivs(y, steer_cmd, accel_cmd, p)
        k2 = _reference_derivs(y + 0.5 * h * k1, steer_cmd, accel_cmd, p)
        k3 = _reference_derivs(y + 0.5 * h * k2, steer_cmd, accel_cmd, p)
        k4 = _reference_derivs(y + h * k3, steer_cmd, accel_cmd, p)
        y = y + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
    triple = y[:3]
    clipped = np.clip(triple, -sim.DEFAULT_STATE_BOUNDS, sim.DEFAULT_STATE_BOUNDS)
    warned = None if np.array_equal(triple, clipped) else triple
    fields = [*clipped, y[3], y[4], sim.wrap_angle(y[5]), y[6], y[7]]
    return [float(v) for v in fields], warned


_FIELDS = ("vx", "vy", "r", "x", "y", "yaw", "steer_act", "accel_act")
# plain values plus speeds far outside the sanity bounds and values just
# inside them, so a step can start, or end, clamped
_STATE_VALUES = st.floats(-30.0, 30.0) | st.sampled_from(
    [0.0, -0.0, 0.5, 99.99, -99.99, 49.99, 19.99, 150.0, -400.0, 1e4])
_ACTIONS = st.floats(-3.0, 3.0) | st.sampled_from(
    [float("nan"), float("inf"), -float("inf"), -0.0])


@settings(max_examples=60, deadline=None)
@given(params=PLANTS, state=st.tuples(*[_STATE_VALUES] * 8),
       actions=st.lists(st.tuples(_ACTIONS, _ACTIONS), min_size=1, max_size=3),
       substeps=st.sampled_from([1, 10]))
def test_plant_step_matches_array_rk4(params, state, actions, substeps):
    """``plant_step`` gives every field of the whole-array RK4 bit for bit
    (NaN equal to NaN) and warns about the same clamped triple, over chained
    steps with NaN and out-of-range actions."""
    s = sim.PlantState(*state)
    with patch.object(sim, "N_SUBSTEPS", substeps), \
            patch.object(sim.log, "warning") as warning, \
            np.errstate(all="ignore"):
        for action in actions:
            want, warned = _reference_step(s, np.array(action), params)
            warning.reset_mock()
            s = sim.plant_step(s, np.array(action), params)
            got = [getattr(s, name) for name in _FIELDS]
            assert np.array_equal(got, want, equal_nan=True), (got, want)
            assert all(type(v) is float for v in got)
            if warned is None:
                warning.assert_not_called()
            else:
                (_, triple), _ = warning.call_args
                assert np.array_equal(triple, warned, equal_nan=True)


@pytest.mark.parametrize("name", ["mass", "yaw_inertia", "mu", "dt",
                                  "steer_tau", "accel_tau", "lf+lr"])
@pytest.mark.parametrize("value", [0.0, -1.0, float("nan")])
def test_plant_params_reject_non_positive(name, value):
    # a zero mass or wheelbase divides by zero; a zero lag writes NaN rows;
    # a negative grip takes the square root of a negative speed cap
    kw = {"lf": value, "lr": value} if name == "lf+lr" else {name: value}
    with pytest.raises(ConfigError):
        sim.PlantParams(**kw)


def test_action_clamped(params):
    s = sim.PlantState(vx=5.0)
    a = sim.plant_step(s, np.array([3.0, 2.0]), params)
    b = sim.plant_step(s, np.array([1.0, 1.0]), params)
    assert a.vx == b.vx and a.r == b.r


def test_sanity_bound_clamp_logged(params, caplog):
    s = sim.PlantState(vx=99.9, vy=49.9, r=19.99)
    with caplog.at_level(logging.WARNING, logger="penn_mpc.sim"):
        out = sim.plant_step(s, np.array([1.0, 1.0]), params)
    assert abs(out.vx) <= 100.0 and abs(out.vy) <= 50.0 and abs(out.r) <= 20.0


def test_yaw_wrapped(params):
    s = sim.PlantState(vx=6.0, yaw=3.1)
    for _ in range(40):
        s = sim.plant_step(s, np.array([0.8, 0.3]), params)
        assert -np.pi < s.yaw <= np.pi


# --- track geometry


def test_circle_track_constant_curvature():
    radius = 20.0
    t = sim.build_track_from_segments([("arc", 2 * np.pi, radius)], 4.0)
    assert np.allclose(t.curvature, 1.0 / radius)
    assert t.total_length == pytest.approx(2 * np.pi * radius, rel=1e-12)
    radii = np.hypot(t.xy[:, 0], t.xy[:, 1] - radius)
    assert np.allclose(radii, radius, atol=1e-9)


def test_default_track_has_six_curves(track):
    segs = sim.TrackSpec().segments()
    assert sum(1 for s in segs if s[0] == "arc") == 6
    # two moderate + four sharp
    spec = sim.TrackSpec()
    radii = sorted(s[2] for s in segs if s[0] == "arc")
    assert radii.count(spec.sharp_radius) == 4
    assert radii.count(spec.moderate_radius) == 2


def test_default_track_closed(track):
    assert np.hypot(*(track.xy[0] - track.xy[-1])) < 1e-9
    assert np.all(np.diff(track.s) > 0)


def test_track_length_matches_segments(track):
    segs = sim.TrackSpec().segments()
    expect = sum(s[1] if s[0] == "straight" else abs(s[1]) * s[2] for s in segs)
    assert abs(track.total_length - expect) / expect < 1e-3


def test_non_closing_spec_rejected():
    with pytest.raises(GeometryError) as err:
        sim.build_track_from_segments(
            [("straight", 50.0), ("arc", np.pi, 10.0)], 4.0)
    assert "gap" in str(err.value)
    for spec in (sim.TrackSpec(straights=()), sim.TrackSpec(n_moderate=0),
                 sim.TrackSpec(half_width=-1.0), sim.TrackSpec(half_width=0.0)):
        with pytest.raises(GeometryError):
            spec.segments()


def frame(pose, track):
    """Arc length, signed lateral offset and heading error of one pose."""
    s, e_lat, e_psi, _ = sim.track_frame_batch(pose[None, :2], pose[2:3], track)
    return {"s": s[0], "e_lat": e_lat[0], "e_psi": e_psi[0]}


def test_track_frame_on_centerline(track):
    for i in (5, 100, 300):
        pose = np.array([*track.xy[i], sim.wrap_angle(track.heading[i])])
        f = frame(pose, track)
        assert abs(f["e_lat"]) < 1e-9
        assert abs(f["e_psi"]) < 1e-9
        assert f["s"] == pytest.approx(track.s[i], abs=1e-6)


def test_track_frame_left_offset_positive(track):
    i = 40
    head = track.heading[i]
    left = np.array([-np.sin(head), np.cos(head)])
    pose = np.array([*(track.xy[i] + 1.0 * left), sim.wrap_angle(head)])
    f = frame(pose, track)
    assert f["e_lat"] == pytest.approx(1.0, abs=1e-6)


def test_track_frame_idempotent(track):
    rng = np.random.default_rng(4)
    for _ in range(10):
        q = track.xy[rng.integers(0, track.n_points)] + rng.normal(size=2)
        f = frame(np.array([*q, 0.0]), track)
        pos, head, _ = track.point_at(f["s"])
        f2 = frame(np.array([*pos, head]), track)
        assert abs(f2["s"] - f["s"]) < 1e-6 or \
            abs(abs(f2["s"] - f["s"]) - track.total_length) < 1e-6


def test_track_frame_continuous_across_seam(track):
    pos, head, _ = track.point_at(track.total_length - 0.01)
    f = frame(np.array([*pos, head]), track)
    assert f["s"] > track.total_length - 0.5 or f["s"] < 0.5


def _reference_frame(xy, yaw, track):
    """Brute-force projection: one (K, M, 2) distance broadcast per call."""
    pts = track.xy[:-1]
    m = pts.shape[0]
    d2 = np.sum((xy[:, None, :] - pts[None, :, :]) ** 2, axis=2)
    nearest = np.argmin(d2, axis=1)

    def project(i):
        a = track.xy[i]
        b = track.xy[i + 1]
        seg = b - a
        seg_len2 = np.sum(seg**2, axis=1)
        t = np.clip(np.sum((xy - a) * seg, axis=1) / seg_len2, 0.0, 1.0)
        proj = a + t[:, None] * seg
        dist = np.hypot(*(xy - proj).T)
        return dist, t, proj, seg

    i_prev = (nearest - 1) % m
    d0, t0, p0, s0 = project(i_prev)
    d1, t1, p1, s1 = project(nearest)
    use0 = d0 < d1
    dist = np.where(use0, d0, d1)
    i = np.where(use0, i_prev, nearest).astype(int)
    t = np.where(use0, t0, t1)
    proj = np.where(use0[:, None], p0, p1)
    seg = np.where(use0[:, None], s0, s1)
    s = (i + t) * track.ds
    s = np.where(s >= track.total_length, s - track.total_length, s)
    tangent = seg / np.hypot(*seg.T)[:, None]
    rel = xy - proj
    e_lat = tangent[:, 0] * rel[:, 1] - tangent[:, 1] * rel[:, 0]
    head = (1 - t) * track.heading[i] + t * track.heading[i + 1]
    e_psi = sim.wrap_angle(yaw - head)
    return s, e_lat, e_psi, dist


_ROW_KINDS = ("near", "waypoint", "midpoint", "seam", "far", "nan")


def _poses(rng, track, k, kinds):
    """k poses, each of a kind drawn from kinds: within 6 half-widths of the
    centerline, exactly on a waypoint, halfway between two (on straights
    often equidistant from both), within a metre of the seam, 1e3 m away,
    or NaN."""
    idx = rng.integers(0, track.n_points, k)
    xy = track.xy[idx].copy()
    kind = rng.choice(kinds, size=k)
    mid = kind == "midpoint"
    xy[mid] = 0.5 * (xy[mid] + track.xy[idx[mid] + 1])
    near = kind == "near"
    xy[near] += rng.uniform(-6, 6, (near.sum(), 2)) * track.half_width
    seam = kind == "seam"
    xy[seam] = track.xy[rng.choice([0, 1, -2], seam.sum())] \
        + rng.uniform(-1, 1, (seam.sum(), 2))
    far = kind == "far"
    ang = rng.uniform(0, 2 * np.pi, far.sum())
    xy[far] += 1e3 * np.column_stack([np.cos(ang), np.sin(ang)])
    xy[kind == "nan"] = np.nan
    yaw = rng.uniform(-2 * np.pi, 2 * np.pi, k)
    return xy, yaw


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**32 - 1),
       k=st.sampled_from([1, sim._NEAREST_CHUNK - 1, sim._NEAREST_CHUNK,
                          sim._NEAREST_CHUNK + 1, 512]),
       kinds=st.lists(st.sampled_from(_ROW_KINDS), min_size=1, unique=True),
       reverse=st.booleans())
def test_track_frame_batch_matches_brute_force(track, seed, k, kinds, reverse):
    track = track.reversed() if reverse else track
    xy, yaw = _poses(np.random.default_rng(seed), track, k, kinds)
    got = sim.track_frame_batch(xy, yaw, track)
    want = _reference_frame(xy, yaw, track)
    for g, w in zip(got, want):
        assert g.shape == (k,) and g.dtype == w.dtype
        assert np.array_equal(g, w, equal_nan=True)
    rows = [sim.track_frame_batch(xy[j:j + 1], yaw[j:j + 1], track)
            for j in range(k)]
    for g, one in zip(got, zip(*rows)):
        assert np.array_equal(g, np.concatenate(one), equal_nan=True)


def test_reversed_track_flips_curvature(track):
    rev = track.reversed()
    assert rev.total_length == track.total_length
    assert np.allclose(sorted(rev.curvature), sorted(-track.curvature))


# --- scripted maneuvers


def test_zigzag_steer_zero_crossings(track, params):
    ep = sim.scripted_maneuver("zigzag_low_speed", 8.0, "ccw", seed=5,
                               track=track, params=params)
    steer = ep.actions[:, 0]
    crossings = np.where(np.diff(np.sign(steer + 1e-12)) != 0)[0]
    gaps = np.diff(crossings) * params.dt
    expect = sim.ZIGZAG_PERIOD / 2.0
    assert np.all(np.abs(gaps - expect) <= params.dt + 1e-9)


def test_high_speed_direction_flips_yaw_sign(track, params):
    ccw = sim.scripted_maneuver("high_speed_laps", 30.0, "ccw", seed=6,
                                track=track, params=params)
    cw = sim.scripted_maneuver("high_speed_laps", 30.0, "cw", seed=6,
                               track=track, params=params)
    assert ccw.states[:, 2].mean() > 0.05
    assert cw.states[:, 2].mean() < -0.05


def test_slide_reaches_high_slip(track, params):
    # regression fixture: defaults must witness body slip above 0.15 rad
    for seed in (0, 1, 2):
        ep = sim.scripted_maneuver("slide", 40.0, "ccw", seed=seed,
                                   track=track, params=params)
        slip = np.abs(np.arctan2(ep.states[:, 1],
                                 np.maximum(ep.states[:, 0], 0.5)))
        assert slip.max() > 0.15


def test_maneuver_deterministic(track, params, tmp_path):
    a = sim.scripted_maneuver("slide", 15.0, "cw", seed=7, track=track,
                              params=params)
    b = sim.scripted_maneuver("slide", 15.0, "cw", seed=7, track=track,
                              params=params)
    pa, pb = tmp_path / "a.csv", tmp_path / "b.csv"
    a.to_csv(pa)
    b.to_csv(pb)
    assert pa.read_bytes() == pb.read_bytes()


def test_maneuver_unknown_kind(track, params):
    with pytest.raises(ValueError):
        sim.scripted_maneuver("donuts", 5.0, "ccw", 0, track, params)


def test_truncation_flagged(track):
    # undriveable plant tuning: no grip, so pure sinusoid leaves the envelope
    p = sim.PlantParams(mu=0.05)
    ep = sim.scripted_maneuver("zigzag_low_speed", 60.0, "ccw", seed=8,
                               track=track, params=p)
    assert ep.truncated
    assert ep.n_rows < 600


# --- episode CSV round trip


def test_episode_csv_round_trip(tmp_path, track, params):
    ep = sim.scripted_maneuver("high_speed_laps", 10.0, "ccw", seed=9,
                               track=track, params=params)
    path = tmp_path / "ep.csv"
    ep.to_csv(path)
    back = sim.EpisodeLog.from_csv(path, tag=ep.tag, seed=ep.seed)
    assert back.n_rows == ep.n_rows
    assert np.allclose(back.states, ep.states, rtol=1e-8)
    # writing the loaded log again is byte-identical (9-digit fixed point)
    path2 = tmp_path / "ep2.csv"
    back.to_csv(path2)
    assert path.read_bytes() == path2.read_bytes()


def test_episode_csv_schema_error(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("a,b,c\n1,2,3\n")
    with pytest.raises(DataError):
        sim.EpisodeLog.from_csv(path)


def test_episode_csv_parse_error_has_line_number(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("t,vx,vy,r,steer,throttle,x,y,yaw\n"
                    "0,1,2,3,4,5,6,7,8\n"
                    "0.1,oops,2,3,4,5,6,7,8\n")
    with pytest.raises(DataError) as err:
        sim.EpisodeLog.from_csv(path)
    assert ":3:" in str(err.value)

"""Ground-truth vehicle plant and desk-scale track environment.

Dynamic bicycle model with nonlinear lateral tire forces, first-order
steering/throttle actuator lag (hidden from the logged state, which is what
makes action history informative to a learned model), fixed-substep RK4
integration for bitwise reproducibility, a closed arc/straight track, and
scripted data-collection maneuvers logged at a fixed rate.
"""

from __future__ import annotations

import csv
import logging
import math
from dataclasses import dataclass, field

import numpy as np

from .dynamics import DEFAULT_STATE_BOUNDS
from .errors import DataError, GeometryError

log = logging.getLogger(__name__)

EPISODE_COLUMNS = ("t", "vx", "vy", "r", "steer", "throttle", "x", "y", "yaw")


def wrap_angle(a):
    """Wrap an angle (or array) to (-pi, pi]."""
    return np.pi - (np.pi - a) % (2.0 * np.pi)


@dataclass
class PlantState:
    """Plant state: body velocities, yaw rate, world pose, actuator states.

    ``steer_act`` (rad) and ``accel_act`` (m/s^2) are internal first-order
    actuator states; they never appear in logs, so the learned model can only
    infer them from command history.
    """

    vx: float = 0.0
    vy: float = 0.0
    r: float = 0.0
    x: float = 0.0
    y: float = 0.0
    yaw: float = 0.0
    steer_act: float = 0.0
    accel_act: float = 0.0

    def state_triple(self) -> np.ndarray:
        return np.array([self.vx, self.vy, self.r])

    def pose(self) -> np.ndarray:
        return np.array([self.x, self.y, self.yaw])


@dataclass
class PlantParams:
    """Kart-scale defaults; every field is config-overridable."""

    mass: float = 200.0
    yaw_inertia: float = 80.0
    lf: float = 0.7
    lr: float = 0.6
    b_stiff: float = 10.0
    c_shape: float = 1.9
    mu: float = 1.0
    # rear axle runs at mu * mu_rear_scale; slightly loose rear grip makes
    # sliding maneuvers reachable at kart scale
    mu_rear_scale: float = 0.85
    drag: float = 1.5
    max_steer: float = 0.45
    max_accel: float = 4.0
    dt: float = 0.1
    steer_tau: float = 0.12
    accel_tau: float = 0.12
    v_eps: float = 0.5
    n_substeps: int = 10
    gravity: float = 9.81

    @property
    def wheelbase(self) -> float:
        return self.lf + self.lr


def tire_lateral_force(slip_angle: float, b_stiff: float, c_shape: float,
                       mu: float, normal_load: float) -> float:
    """Simplified magic-formula lateral force, odd in the slip angle."""
    return mu * normal_load * math.sin(c_shape * math.atan(b_stiff * slip_angle))


def _derivs(y, steer_cmd, accel_cmd, p: PlantParams):
    vx, vy, r, _, _, yaw, delta, ax = y
    vx_safe = vx if vx > p.v_eps else p.v_eps
    alpha_f = delta - math.atan2(vy + p.lf * r, vx_safe)
    alpha_r = -math.atan2(vy - p.lr * r, vx_safe)
    fzf = p.mass * p.gravity * p.lr / p.wheelbase
    fzr = p.mass * p.gravity * p.lf / p.wheelbase
    fyf = tire_lateral_force(alpha_f, p.b_stiff, p.c_shape, p.mu, fzf)
    fyr = tire_lateral_force(alpha_r, p.b_stiff, p.c_shape,
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


def plant_step(s: PlantState, action, p: PlantParams) -> PlantState:
    """Advance one control period (p.dt) under a zero-order-hold action.

    Integrates with RK4 at dt / n_substeps fixed substeps. States outside the
    sanity bounds are clamped with a logged warning.
    """
    steer, throttle = float(action[0]), float(action[1])
    steer_cmd = min(1.0, max(-1.0, steer)) * p.max_steer
    accel_cmd = min(1.0, max(-1.0, throttle)) * p.max_accel
    y = np.array([s.vx, s.vy, s.r, s.x, s.y, s.yaw, s.steer_act, s.accel_act])
    h = p.dt / p.n_substeps
    for _ in range(p.n_substeps):
        k1 = _derivs(y, steer_cmd, accel_cmd, p)
        k2 = _derivs(y + 0.5 * h * k1, steer_cmd, accel_cmd, p)
        k3 = _derivs(y + 0.5 * h * k2, steer_cmd, accel_cmd, p)
        k4 = _derivs(y + h * k3, steer_cmd, accel_cmd, p)
        y = y + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
    triple = y[:3]
    clipped = np.clip(triple, -DEFAULT_STATE_BOUNDS, DEFAULT_STATE_BOUNDS)
    if not np.array_equal(triple, clipped):
        log.warning("plant state clamped to sanity bounds: %s", triple)
    return PlantState(vx=float(clipped[0]), vy=float(clipped[1]), r=float(clipped[2]),
                      x=float(y[3]), y=float(y[4]), yaw=float(wrap_angle(y[5])),
                      steer_act=float(y[6]), accel_act=float(y[7]))


# ---------------------------------------------------------------------------
# Track geometry


@dataclass
class Track:
    """Closed centerline resampled at uniform arc-length spacing.

    ``xy`` holds M+1 waypoints with xy[0] == xy[-1]; ``heading`` is the
    unwrapped tangent heading at each waypoint, so in-segment interpolation
    never crosses a branch cut.
    """

    s: np.ndarray          # (M+1,) arc length, s[0] = 0, s[-1] = total_length
    xy: np.ndarray         # (M+1, 2)
    curvature: np.ndarray  # (M+1,) signed, left turn positive
    heading: np.ndarray    # (M+1,) unwrapped
    half_width: float
    total_length: float

    @property
    def n_points(self) -> int:
        return self.xy.shape[0] - 1

    @property
    def ds(self) -> float:
        return self.total_length / self.n_points

    def point_at(self, s: float) -> tuple[np.ndarray, float, float]:
        """Centerline position, wrapped heading, and curvature at arc length s."""
        sm = float(s) % self.total_length
        f = sm / self.ds
        i = min(int(f), self.n_points - 1)
        t = f - i
        pos = (1 - t) * self.xy[i] + t * self.xy[i + 1]
        head = (1 - t) * self.heading[i] + t * self.heading[i + 1]
        kappa = self.curvature[i]
        return pos, float(wrap_angle(head)), float(kappa)

    def max_curvature_ahead(self, s: float, dist: float) -> float:
        n = max(1, int(math.ceil(dist / self.ds)))
        f = (float(s) % self.total_length) / self.ds
        i0 = int(f)
        idx = (i0 + np.arange(n + 1)) % self.n_points
        return float(np.max(np.abs(self.curvature[idx])))

    def reversed(self) -> "Track":
        """Same geometry traversed the opposite way (curvatures negated)."""
        xy = self.xy[::-1].copy()
        curv = -self.curvature[::-1].copy()
        head = np.unwrap(wrap_angle(self.heading[::-1] + np.pi))
        return Track(s=self.s.copy(), xy=xy, curvature=curv, heading=head,
                     half_width=self.half_width, total_length=self.total_length)


@dataclass
class TrackSpec:
    """Arc/straight loop built from a half-sequence repeated twice.

    Each half turns exactly 180 degrees, which guarantees exact closure:
    straights and sharp/moderate arcs alternate as
    [straight, sharp, straight, sharp, ..., straight, moderate]. Curve counts
    must be even so the two halves match.
    """

    n_moderate: int = 2
    n_sharp: int = 4
    sharp_radius: float = 8.0
    moderate_radius: float = 25.0
    sharp_angle_deg: float = 75.0
    straights: tuple = (40.0, 20.0, 30.0)
    half_width: float = 4.0

    def segments(self) -> list[tuple]:
        if self.n_moderate % 2 or self.n_sharp % 2:
            raise GeometryError("curve counts must be even for the symmetric layout")
        n_sharp_half = self.n_sharp // 2
        n_mod_half = self.n_moderate // 2
        sharp = math.radians(self.sharp_angle_deg)
        remaining = math.pi - n_sharp_half * sharp
        if remaining <= 0:
            raise GeometryError("sharp curves exceed a half-turn; reduce angle or count")
        moderate = remaining / n_mod_half
        half: list[tuple] = []
        curves = [("arc", sharp, self.sharp_radius)] * n_sharp_half + \
                 [("arc", moderate, self.moderate_radius)] * n_mod_half
        for i, curve in enumerate(curves):
            half.append(("straight", self.straights[i % len(self.straights)]))
            half.append(curve)
        return half + half


def build_track_from_segments(segments, half_width: float,
                              spacing: float = 0.5) -> Track:
    """Resample an arc/straight segment list into a closed Track.

    ``segments`` entries are ("straight", length) or ("arc", angle_rad, radius)
    with positive angle turning left. Raises GeometryError with the end gap if
    the sequence does not close.
    """
    lengths = []
    for seg in segments:
        if seg[0] == "straight":
            lengths.append(float(seg[1]))
        elif seg[0] == "arc":
            lengths.append(abs(float(seg[1])) * float(seg[2]))
        else:
            raise GeometryError(f"unknown segment kind {seg[0]!r}")
        if lengths[-1] <= 0:
            raise GeometryError(f"segment {seg} has non-positive length")
    total = float(sum(lengths))
    bounds = np.concatenate([[0.0], np.cumsum(lengths)])

    def locate(sq: float) -> tuple[np.ndarray, float, float]:
        # analytic pose at arc length sq, walking the segments from the origin
        x = y = head = 0.0
        for idx, seg in enumerate(segments):
            s0, s1 = bounds[idx], bounds[idx + 1]
            seg_len = s1 - s0
            u = min(max(sq - s0, 0.0), seg_len)
            stop = sq <= s1 or idx == len(segments) - 1
            if seg[0] == "straight":
                if stop:
                    return (np.array([x + u * math.cos(head),
                                      y + u * math.sin(head)]), head, 0.0)
                x += seg_len * math.cos(head)
                y += seg_len * math.sin(head)
            else:
                ang, radius = float(seg[1]), float(seg[2])
                sign = 1.0 if ang >= 0 else -1.0
                cx = x - sign * radius * math.sin(head)
                cy = y + sign * radius * math.cos(head)
                if stop:
                    phi = head + sign * u / radius
                    return (np.array([cx + sign * radius * math.sin(phi),
                                      cy - sign * radius * math.cos(phi)]),
                            phi, sign / radius)
                head += ang
                x = cx + sign * radius * math.sin(head)
                y = cy - sign * radius * math.cos(head)
        raise GeometryError("arc length outside track")  # pragma: no cover

    end_pos, end_head, _ = locate(total)
    gap = np.hypot(end_pos[0], end_pos[1])
    head_gap = abs(wrap_angle(end_head))
    if gap > 1e-6 or head_gap > 1e-9:
        raise GeometryError(
            f"segment sequence does not close: position gap {gap:.3e} m, "
            f"heading gap {head_gap:.3e} rad")

    m = max(8, int(round(total / spacing)))
    ds = total / m
    pts = np.empty((m + 1, 2))
    heads = np.empty(m + 1)
    curvs = np.empty(m + 1)
    for i in range(m + 1):
        pos, head, kappa = locate(min(i * ds, total))
        pts[i] = pos
        heads[i] = head
        curvs[i] = kappa
    pts[m] = pts[0]  # snap the sub-1e-6 closure gap
    heads = np.unwrap(heads)
    s = np.arange(m + 1) * ds
    s[m] = total
    return Track(s=s, xy=pts, curvature=curvs, heading=heads,
                 half_width=float(half_width), total_length=total)


def build_track(spec: TrackSpec, spacing: float = 0.5) -> Track:
    return build_track_from_segments(spec.segments(), spec.half_width, spacing)


# Rows per block of the nearest-waypoint search: small enough that the
# (rows, M) temporaries stay in cache inside a rollout, large enough that the
# per-block overhead is amortized.
_NEAREST_CHUNK = 32


def track_frame_batch(xy: np.ndarray, yaw: np.ndarray, track: Track):
    """Project poses onto the centerline.

    Each pose is projected onto the segments either side of its nearest
    waypoint. That waypoint is found by an exact search over all waypoints
    (the lowest index wins a tie), done in blocks of ``_NEAREST_CHUNK`` rows
    so the temporaries are bounded by the block, not by the batch.

    Returns (s, e_lat, e_psi, dist) arrays; e_lat is positive left of the
    travel direction. Callers decide what distance counts as off-track.
    """
    xy = np.atleast_2d(np.asarray(xy, dtype=np.float64))
    yaw = np.atleast_1d(np.asarray(yaw, dtype=np.float64))
    px = track.xy[:-1, 0]
    py = track.xy[:-1, 1]
    m = px.shape[0]
    nearest = np.empty(xy.shape[0], dtype=np.intp)
    for c in range(0, xy.shape[0], _NEAREST_CHUNK):
        rows = slice(c, c + _NEAREST_CHUNK)
        dx = xy[rows, 0, None] - px
        dy = xy[rows, 1, None] - py
        np.argmin(dx * dx + dy * dy, axis=1, out=nearest[rows])

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
    e_psi = wrap_angle(yaw - head)
    return s, e_lat, e_psi, dist


# ---------------------------------------------------------------------------
# Episode logs


@dataclass
class EpisodeLog:
    """Fixed-rate run of (state, action, pose) rows plus a maneuver tag."""

    t: np.ndarray        # (N,)
    states: np.ndarray   # (N, 3) vx, vy, r
    actions: np.ndarray  # (N, 2) steer, throttle
    poses: np.ndarray    # (N, 3) x, y, yaw
    dt: float = 0.1
    tag: str = ""
    seed: int = 0
    truncated: bool = False

    @property
    def n_rows(self) -> int:
        return self.t.shape[0]

    def to_csv(self, path) -> None:
        with open(path, "w", newline="") as f:
            writer = csv.writer(f)
            writer.writerow(EPISODE_COLUMNS)
            for i in range(self.n_rows):
                row = [self.t[i], *self.states[i], *self.actions[i], *self.poses[i]]
                writer.writerow([f"{v:.9g}" for v in row])

    @classmethod
    def from_csv(cls, path, tag: str = "", seed: int = 0,
                 truncated: bool = False, dt: float | None = None) -> "EpisodeLog":
        rows = []
        with open(path, newline="") as f:
            reader = csv.reader(f)
            header = next(reader, None)
            if header is None or tuple(h.strip() for h in header) != EPISODE_COLUMNS:
                raise DataError(
                    f"{path}: expected columns {','.join(EPISODE_COLUMNS)}, "
                    f"got {header}")
            for lineno, row in enumerate(reader, start=2):
                if len(row) != len(EPISODE_COLUMNS):
                    raise DataError(f"{path}:{lineno}: expected "
                                    f"{len(EPISODE_COLUMNS)} fields, got {len(row)}")
                try:
                    rows.append([float(v) for v in row])
                except ValueError as e:
                    raise DataError(f"{path}:{lineno}: {e}") from e
        if not rows:
            raise DataError(f"{path}: no data rows")
        arr = np.array(rows)
        if dt is None:
            dt = float(arr[1, 0] - arr[0, 0]) if arr.shape[0] > 1 else 0.1
        return cls(t=arr[:, 0], states=arr[:, 1:4], actions=arr[:, 4:6],
                   poses=arr[:, 6:9], dt=dt, tag=tag, seed=seed, truncated=truncated)


def save_track_csv(track: Track, path) -> None:
    with open(path, "w", newline="") as f:
        writer = csv.writer(f)
        writer.writerow(["s", "x", "y", "curvature", "half_width"])
        for i in range(track.xy.shape[0]):
            writer.writerow([f"{v:.9g}" for v in
                             (track.s[i], track.xy[i, 0], track.xy[i, 1],
                              track.curvature[i], track.half_width)])


# ---------------------------------------------------------------------------
# Scripted maneuvers


@dataclass
class ManeuverOptions:
    """Tuned driving defaults; the slide settings are regression-pinned so the
    maneuver reliably reaches body slip above 0.15 rad."""

    envelope_factor: float = 2.5
    zigzag_period: float = 2.0
    zigzag_amplitude: float = 0.55
    zigzag_speed: float = 3.0
    high_speed_target: float = 11.0
    lat_accel_frac: float = 0.85
    slide_speed: float = 5.0
    slide_cycle: float = 5.0
    slide_burst: float = 1.0
    slide_steer: float = 1.0
    speed_gain: float = 0.6
    lookahead_min: float = 2.5
    lookahead_gain: float = 0.55


MANEUVER_KINDS = ("zigzag_low_speed", "high_speed_laps", "slide")


def _pure_pursuit(state: PlantState, track: Track, s_here: float,
                  params: PlantParams, opts: ManeuverOptions) -> float:
    ld = max(opts.lookahead_min, opts.lookahead_gain * state.vx)
    target, _, _ = track.point_at(s_here + ld)
    alpha = wrap_angle(math.atan2(target[1] - state.y, target[0] - state.x) - state.yaw)
    angle = math.atan2(2.0 * params.wheelbase * math.sin(alpha), ld)
    return float(np.clip(angle / params.max_steer, -1.0, 1.0))


def _speed_throttle(vx: float, v_des: float, opts: ManeuverOptions) -> float:
    return float(np.clip(opts.speed_gain * (v_des - vx), -1.0, 1.0))


def scripted_maneuver(kind: str, duration: float, direction: str, seed: int,
                      track: Track, params: PlantParams,
                      opts: ManeuverOptions | None = None) -> EpisodeLog:
    """Run one scripted data-collection episode, logging at 1/dt Hz.

    zigzag_low_speed: open-loop sinusoidal steering at a low speed setpoint.
    high_speed_laps: pure-pursuit centerline tracking with a curvature-aware
    speed cap. slide: pure pursuit interrupted by periodic step-steer plus
    full-throttle bursts. Episodes are truncated (and flagged) when the
    vehicle leaves the track envelope. Deterministic given the seed.
    """
    if kind not in MANEUVER_KINDS:
        raise ValueError(f"unknown maneuver {kind!r}, expected one of {MANEUVER_KINDS}")
    if direction not in ("cw", "ccw"):
        raise ValueError(f"direction must be cw or ccw, got {direction!r}")
    opts = opts or ManeuverOptions()
    guide = track if direction == "ccw" else track.reversed()
    rng = np.random.default_rng(seed)
    s0 = float(rng.uniform(0.0, guide.total_length))
    phase = float(rng.uniform(0.0, 2.0 * np.pi))
    burst_sign = 1.0 if rng.uniform() < 0.5 else -1.0
    pos, head, _ = guide.point_at(s0)
    v0 = {"zigzag_low_speed": opts.zigzag_speed,
          "high_speed_laps": 0.6 * opts.high_speed_target,
          "slide": opts.slide_speed}[kind]
    state = PlantState(vx=v0, x=float(pos[0]), y=float(pos[1]), yaw=head)

    n_steps = max(1, int(round(duration / params.dt)))
    t = np.empty(n_steps)
    states = np.empty((n_steps, 3))
    actions = np.empty((n_steps, 2))
    poses = np.empty((n_steps, 3))
    truncated = False
    n_logged = 0
    for i in range(n_steps):
        s_arr, e_lat, _, dist = track_frame_batch(
            np.array([[state.x, state.y]]), np.array([state.yaw]), guide)
        if abs(e_lat[0]) > opts.envelope_factor * guide.half_width:
            truncated = True
            log.warning("%s episode (seed %d) left the track envelope at step %d",
                        kind, seed, i)
            break
        s_here = float(s_arr[0])
        now = i * params.dt
        if kind == "zigzag_low_speed":
            steer = opts.zigzag_amplitude * math.sin(
                2.0 * np.pi * now / opts.zigzag_period)
            throttle = _speed_throttle(state.vx, opts.zigzag_speed, opts)
        elif kind == "high_speed_laps":
            steer = _pure_pursuit(state, guide, s_here, params, opts)
            look = max(state.vx, 1.0) * 1.5
            kmax = guide.max_curvature_ahead(s_here, look)
            v_cap = math.sqrt(opts.lat_accel_frac * params.mu * params.gravity
                              / max(kmax, 1e-6))
            throttle = _speed_throttle(state.vx, min(opts.high_speed_target, v_cap),
                                       opts)
        else:  # slide
            cyc = (now + phase / (2.0 * np.pi) * opts.slide_cycle) % opts.slide_cycle
            n_cyc = int((now + phase / (2.0 * np.pi) * opts.slide_cycle)
                        // opts.slide_cycle)
            sign = burst_sign * (1.0 if n_cyc % 2 == 0 else -1.0)
            if cyc < opts.slide_burst:
                steer = sign * opts.slide_steer
                throttle = 1.0
            else:
                steer = _pure_pursuit(state, guide, s_here, params, opts)
                throttle = _speed_throttle(state.vx, opts.slide_speed, opts)
        action = np.array([steer, throttle])
        t[i] = now
        states[i] = state.state_triple()
        actions[i] = action
        poses[i] = state.pose()
        n_logged = i + 1
        state = plant_step(state, action, params)
    return EpisodeLog(t=t[:n_logged].copy(), states=states[:n_logged].copy(),
                      actions=actions[:n_logged].copy(),
                      poses=poses[:n_logged].copy(), dt=params.dt, tag=kind,
                      seed=seed, truncated=truncated)

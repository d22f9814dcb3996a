"""Reduced radial / polar / Cartesian equations of motion and the integrator.

The radial ODE is rddot = L3^2/r^3 - dV/dr, equivalently -dU/dr with
U = V + L3^2/(2r^2); theta is carried as a third component via
thetadot = L3/r^2.  The stepper is a hand-rolled Dormand-Prince 5(4)
embedded pair with PI step-size control, FSAL, and the standard quartic
dense-output interpolant, so trajectories are sampled on a fixed stride
without constraining the step sequence.  Radius collapse (r < r_min)
terminates the trajectory with a recorded reason instead of raising.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, StepLimitExceeded

__all__ = [
    "PolarState", "IntegratorConfig", "Trajectory", "integrate",
    "cartesian_crosscheck", "drift_report", "drift_series", "write_csv",
]

# Dormand-Prince 5(4) tableau (exact rationals)
_C = (0.0, 1 / 5, 3 / 10, 4 / 5, 8 / 9, 1.0, 1.0)
_A = (
    (),
    (1 / 5,),
    (3 / 40, 9 / 40),
    (44 / 45, -56 / 15, 32 / 9),
    (19372 / 6561, -25360 / 2187, 64448 / 6561, -212 / 729),
    (9017 / 3168, -355 / 33, 46732 / 5247, 49 / 176, -5103 / 18656),
)
_B = (35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84)
# fifth-order minus embedded fourth-order weights
_E = (71 / 57600, 0.0, -71 / 16695, 71 / 1920, -17253 / 339200, 22 / 525, -1 / 40)
# dense-output polynomial: y(t0 + x h) = y0 + h * (K^T P) @ (x, x^2, x^3, x^4)
_P = np.array([
    [1.0, -8048581381 / 2820520608, 8663915743 / 2820520608, -12715105075 / 11282082432],
    [0.0, 0.0, 0.0, 0.0],
    [0.0, 131558114200 / 32700410799, -68118460800 / 10900136933, 87487479700 / 32700410799],
    [0.0, -1754552775 / 470086768, 14199869525 / 1410260304, -10690763975 / 1880347072],
    [0.0, 127303824393 / 49829197408, -318862633887 / 49829197408, 701980252875 / 199316789632],
    [0.0, -282668133 / 205662961, 2019193451 / 616988883, -1453857185 / 822651844],
    [0.0, 40617522 / 29380423, -110615467 / 29380423, 69997945 / 29380423],
])

_SAFETY = 0.9
_MIN_FACTOR = 0.2
_MAX_FACTOR = 10.0
# PI controller exponents for a 5th-order pair
_ALPHA = 0.7 / 5.0
_BETA = 0.4 / 5.0


@dataclass(frozen=True)
class PolarState:
    t: float
    r: float
    rdot: float
    theta: float = 0.0

    def __post_init__(self):
        if not self.r > 0.0:
            raise DomainError("polar state requires r > 0")


@dataclass(frozen=True)
class IntegratorConfig:
    rtol: float = 1e-10
    atol: float = 1e-10
    h_init: float = 1e-3
    h_max: float = 0.5
    max_steps: int = 500_000
    stride: float = 0.01
    r_min: float = 1e-9

    def __post_init__(self):
        for name in ("rtol", "atol", "h_init", "h_max", "stride", "r_min"):
            if not getattr(self, name) > 0.0:
                raise ValueError(f"{name} must be positive")
        if self.max_steps < 1:
            raise ValueError("max_steps must be positive")
        if self.rtol < 1e-14:
            raise ValueError("rtol below 1e-14 is not resolvable at double precision")


@dataclass(frozen=True)
class Trajectory:
    """Dense samples (strictly increasing |t - t0|) plus termination reason."""

    t: np.ndarray
    r: np.ndarray
    rdot: np.ndarray
    theta: np.ndarray
    h_accepted: np.ndarray
    termination: str = "completed"
    label: str = ""

    def __len__(self):
        return len(self.t)

    def state(self, i: int) -> PolarState:
        return PolarState(float(self.t[i]), float(self.r[i]),
                          float(self.rdot[i]), float(self.theta[i]))

    def to_csv(self, path):
        write_csv(self, path)


@dataclass(frozen=True)
class CrosscheckResult:
    trajectory: Trajectory
    position_deviation: float
    l3_drift: float


def _core_integrate(rhs, t0, y0, t_end, cfg, sample_times, r_index=None,
                    r_min=0.0):
    """Adaptive DP5(4) over [t0, t_end] (either direction).

    Emits dense samples at `sample_times` (ordered from t0 toward t_end).
    If r_index is given, component r_index falling below r_min terminates
    with reason "radius_collapse".  Returns (samples, h_list, termination).
    """
    n = len(y0)
    direction = 1.0 if t_end >= t0 else -1.0
    span = abs(t_end - t0)
    t = t0
    y = np.asarray(y0, dtype=float)
    h = min(cfg.h_init, cfg.h_max, span) if span > 0 else cfg.h_init
    k1 = rhs(t, y)
    err_prev = 1.0
    samples = []
    hs = []
    si = 0
    if sample_times and sample_times[0] == t0:
        samples.append((t0, y.copy()))
        hs.append(0.0)
        si = 1
    steps = 0
    K = np.empty((7, n))
    while direction * (t_end - t) > 0.0:
        if steps >= cfg.max_steps:
            raise StepLimitExceeded(
                f"no convergence within {cfg.max_steps} step attempts at t={t!r}")
        steps += 1
        h = min(h, cfg.h_max, abs(t_end - t))
        if h <= 1e-14 * max(1.0, abs(t)):
            # non-extendable solution; a small radius means a collision
            if r_index is not None and y[r_index] <= 1000.0 * r_min:
                return samples, hs, "radius_collapse"
            raise StepLimitExceeded(f"step size underflow at t={t!r}")
        hd = direction * h
        try:
            K[0] = k1
            for i in range(1, 6):
                yi = y + hd * sum(_A[i][j] * K[j] for j in range(i))
                K[i] = rhs(t + _C[i] * hd, yi)
            y_new = y + hd * sum(_B[j] * K[j] for j in range(6))
            t_new = t + hd
            K[6] = rhs(t_new, y_new)
        except DomainError:
            # a stage left the admissible region; retry shorter
            h *= 0.5
            if h < 1e-12:
                if r_index is not None and y[r_index] <= 1000.0 * r_min:
                    return samples, hs, "radius_collapse"
                raise
            continue
        err_vec = hd * sum(_E[j] * K[j] for j in range(7))
        scale = cfg.atol + cfg.rtol * np.maximum(np.abs(y), np.abs(y_new))
        err = math.sqrt(float(np.mean((err_vec / scale) ** 2)))
        if err > 1.0 or not math.isfinite(err):
            if not math.isfinite(err):
                factor = _MIN_FACTOR
            else:
                factor = max(_MIN_FACTOR, _SAFETY * err ** -_ALPHA)
            h *= factor
            continue
        # accepted: dense-emit every sample inside (t, t_new]
        Q = K.T @ _P
        collapsed = False
        while si < len(sample_times) and direction * (sample_times[si] - t_new) <= 1e-14 * max(1.0, abs(t_new)):
            ts = sample_times[si]
            x = (ts - t) / hd
            px = np.array([x, x * x, x**3, x**4])
            ysamp = y + hd * (Q @ px)
            if r_index is not None and ysamp[r_index] < r_min:
                collapsed = True
                break
            samples.append((ts, ysamp))
            hs.append(h)
            si += 1
        if collapsed or (r_index is not None and
                         (y_new[r_index] < r_min or not np.all(np.isfinite(y_new)))):
            return samples, hs, "radius_collapse"
        # PI step-size update
        err = max(err, 1e-10)  # keep the controller finite on exact hits
        factor = min(_MAX_FACTOR, _SAFETY * err ** -_ALPHA * err_prev ** _BETA)
        err_prev = err
        t, y, k1 = t_new, y_new, K[6]
        h *= factor
    return samples, hs, "completed"


def _sample_grid(t0: float, t_end: float, stride: float) -> list[float]:
    direction = 1.0 if t_end >= t0 else -1.0
    out = [t0]
    k = 1
    while True:
        ts = t0 + direction * k * stride
        if direction * (ts - t_end) >= 0.0:
            break
        out.append(ts)
        k += 1
    out.append(t_end)
    return out


def integrate(fam, s0: PolarState, t_end: float, cfg: IntegratorConfig | None = None) -> Trajectory:
    """Propagate (r, rdot, theta) from s0 to t_end on the family's dynamics."""
    if cfg is None:
        cfg = IntegratorConfig()
    if t_end == s0.t:
        raise ValueError("t_end must differ from the initial time")
    L3 = fam.L3
    guard = getattr(fam, "radial", True)

    def rhs(t, y):
        r = y[0]
        if guard and r <= 0.0:
            raise DomainError("r <= 0 during step")
        return np.array([y[1], -fam.dU_dr(t, r), L3 * r**-2 if L3 else 0.0])

    grid = _sample_grid(s0.t, t_end, cfg.stride)
    y0 = np.array([s0.r, s0.rdot, s0.theta])
    samples, hs, term = _core_integrate(
        rhs, s0.t, y0, t_end, cfg, grid,
        r_index=0 if guard else None, r_min=cfg.r_min)
    ts = np.array([s[0] for s in samples])
    ys = np.array([s[1] for s in samples])
    return Trajectory(ts, ys[:, 0], ys[:, 1], ys[:, 2], np.array(hs),
                      termination=term, label=getattr(fam, "label", ""))


def cartesian_crosscheck(fam, s0: PolarState, t_end: float,
                         cfg: IntegratorConfig | None = None) -> CrosscheckResult:
    """Integrate the planar Cartesian system and compare with `integrate`.

    Returns the polar-converted Cartesian trajectory, the maximum position
    deviation between the two integrations, and the maximum drift of the
    angular momentum x vy - y vx along the Cartesian run.
    """
    if cfg is None:
        cfg = IntegratorConfig()
    ref = integrate(fam, s0, t_end, cfg)

    def rhs(t, y):
        r = math.hypot(y[0], y[1])
        if r <= 0.0:
            raise DomainError("r <= 0 during step")
        a = -fam.dV_dr(t, r) / r
        return np.array([y[2], y[3], a * y[0], a * y[1]])

    thdot0 = fam.L3 / s0.r**2
    c, s = math.cos(s0.theta), math.sin(s0.theta)
    y0 = np.array([
        s0.r * c,
        s0.r * s,
        s0.rdot * c - s0.r * thdot0 * s,
        s0.rdot * s + s0.r * thdot0 * c,
    ])
    grid = _sample_grid(s0.t, t_end, cfg.stride)
    samples, hs, term = _core_integrate(rhs, s0.t, y0, t_end, cfg, grid)
    ts = np.array([p[0] for p in samples])
    ys = np.array([p[1] for p in samples])
    x, yy, vx, vy = ys[:, 0], ys[:, 1], ys[:, 2], ys[:, 3]
    r = np.hypot(x, yy)
    rdot = (x * vx + yy * vy) / r
    theta = np.unwrap(np.arctan2(yy, x))
    theta += s0.theta - theta[0]
    cart = Trajectory(ts, r, rdot, theta, np.array(hs), termination=term,
                      label=getattr(fam, "label", ""))

    m = min(len(ref), len(cart))
    xr = ref.r[:m] * np.cos(ref.theta[:m])
    yr = ref.r[:m] * np.sin(ref.theta[:m])
    dev = float(np.max(np.hypot(x[:m] - xr, yy[:m] - yr))) if m else math.inf
    l3 = x * vy - yy * vx
    l3_drift = float(np.max(np.abs(l3 - l3[0])))
    return CrosscheckResult(cart, dev, l3_drift)


def drift_series(traj: Trajectory, fi) -> np.ndarray:
    """I(t_i) along the trajectory for a (t, r, rdot) first integral,
    evaluated once on the sample arrays."""
    vals = np.asarray(fi(traj.t, traj.r, traj.rdot), dtype=float)
    return np.broadcast_to(vals, traj.t.shape).copy()


def drift_report(traj: Trajectory, fi) -> float:
    """max_t |I(t) - I(0)| / max(1, |I(0)|)."""
    vals = drift_series(traj, fi)
    return float(np.max(np.abs(vals - vals[0])) / max(1.0, abs(vals[0])))


def write_csv(traj: Trajectory, path):
    """Full-precision CSV: t,r,rdot,theta,h_accepted."""
    with open(path, "w", newline="") as fh:
        fh.write("t,r,rdot,theta,h_accepted\n")
        for i in range(len(traj)):
            row = (traj.t[i], traj.r[i], traj.rdot[i], traj.theta[i],
                   traj.h_accepted[i])
            fh.write(",".join(repr(float(v)) for v in row) + "\n")

"""Reduced radial / polar / Cartesian equations of motion and the integrator.

The radial ODE is rddot = L3^2/r^3 - dV/dr, equivalently -dU/dr with
U = V + L3^2/(2r^2); theta is carried as a third component via
thetadot = L3/r^2.  The stepper is a hand-rolled Dormand-Prince 5(4)
embedded pair with PI step-size control, FSAL, and the standard quartic
dense-output interpolant, so trajectories are sampled on a fixed stride
without constraining the step sequence.  Radius collapse (r < r_min)
terminates the trajectory with a recorded reason instead of raising.

The stepper runs on Python floats: the state, the seven stages and every
weighted sum are lists of floats, accumulated per component in tableau
order, and numpy is used only to assemble the returned Trajectory.  Each
run also counts its work (IntegratorStats, on Trajectory.stats).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, StepLimitExceeded

__all__ = [
    "PolarState", "IntegratorConfig", "IntegratorStats", "Trajectory", "integrate",
    "check_horizon", "cartesian_crosscheck", "drift_report", "drift_series", "write_csv",
]

MAX_SAMPLES = 10**6  # longest sample grid of a run: |t_end - t0| / stride

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
_P = (
    (1.0, -8048581381 / 2820520608, 8663915743 / 2820520608, -12715105075 / 11282082432),
    (0.0, 0.0, 0.0, 0.0),
    (0.0, 131558114200 / 32700410799, -68118460800 / 10900136933, 87487479700 / 32700410799),
    (0.0, -1754552775 / 470086768, 14199869525 / 1410260304, -10690763975 / 1880347072),
    (0.0, 127303824393 / 49829197408, -318862633887 / 49829197408, 701980252875 / 199316789632),
    (0.0, -282668133 / 205662961, 2019193451 / 616988883, -1453857185 / 822651844),
    (0.0, 40617522 / 29380423, -110615467 / 29380423, 69997945 / 29380423),
)
_P_COLS = tuple(zip(*_P))

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
class IntegratorStats:
    """Work counters of one integration; h_min/h_max span the accepted
    steps (None when no step was accepted)."""

    accepted: int
    rejected: int
    domain_retries: int
    rhs_evals: int
    h_min: float | None
    h_max: float | None


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
    stats: IntegratorStats | None = None

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


def _dot(weights, ks, c):
    """0 + w0 ks[0][c] + w1 ks[1][c] + ..., summed in order."""
    acc = 0.0
    for w, k in zip(weights, ks):
        acc += w * k[c]
    return acc


def _core_integrate(rhs, t0, y0, t_end, cfg, sample_times, r_index=None,
                    r_min=0.0):
    """Adaptive DP5(4) over [t0, t_end] (either direction).

    The state and the stages are lists of floats and `rhs(t, y)` returns a
    list.  Emits dense samples at `sample_times` (ordered from t0 toward
    t_end).  If r_index is given, component r_index falling below r_min
    terminates with reason "radius_collapse".  Returns the sample columns
    [t, h_accepted, y_0, ..., y_{n-1}] as lists of floats (no container per
    sample, so samples add no work for the cyclic GC), the termination
    reason and IntegratorStats.
    """
    n = len(y0)
    direction = 1.0 if t_end >= t0 else -1.0
    span = abs(t_end - t0)
    t = t0
    y = [float(v) for v in y0]
    h = min(cfg.h_init, cfg.h_max, span) if span > 0 else cfg.h_init
    k1 = rhs(t, y)
    evals = 1
    accepted = rejected = retries = 0
    h_lo = h_hi = None
    err_prev = 1.0
    samples = [[] for _ in range(n + 2)]
    si = 0

    def emit(*row):
        for col, v in zip(samples, row):
            col.append(v)

    if sample_times and sample_times[0] == t0:
        emit(t0, 0.0, *y)
        si = 1

    def stats():
        return IntegratorStats(accepted, rejected, retries, evals, h_lo, h_hi)

    while direction * (t_end - t) > 0.0:
        if accepted + rejected + retries >= cfg.max_steps:
            raise StepLimitExceeded(
                f"no convergence within {cfg.max_steps} step attempts at t={t!r}")
        h = min(h, cfg.h_max, abs(t_end - t))
        if h <= 1e-14 * max(1.0, abs(t)):
            # non-extendable solution; a small radius means a collision
            if r_index is not None and y[r_index] <= 1000.0 * r_min:
                return samples, "radius_collapse", stats()
            raise StepLimitExceeded(f"step size underflow at t={t!r}")
        hd = direction * h
        K = [k1]
        try:
            for i in range(1, 6):
                evals += 1
                K.append(rhs(t + _C[i] * hd,
                             [yc + hd * _dot(_A[i], K, c) for c, yc in enumerate(y)]))
            y_new = [yc + hd * _dot(_B, K, c) for c, yc in enumerate(y)]
            t_new = t + hd
            evals += 1
            K.append(rhs(t_new, y_new))
        except DomainError:
            # a stage left the admissible region; retry shorter
            retries += 1
            h *= 0.5
            if h < 1e-12:
                if r_index is not None and y[r_index] <= 1000.0 * r_min:
                    return samples, "radius_collapse", stats()
                raise
            continue
        sq = 0.0
        for c in range(n):
            a, b = abs(y[c]), abs(y_new[c])
            q = hd * _dot(_E, K, c) / (cfg.atol + cfg.rtol * (a if a > b else b))
            sq += q * q
        err = math.sqrt(sq / n)
        if err > 1.0 or not math.isfinite(err):
            if not math.isfinite(err):
                factor = _MIN_FACTOR
            else:
                factor = max(_MIN_FACTOR, _SAFETY * err ** -_ALPHA)
            rejected += 1
            h *= factor
            continue
        accepted += 1
        h_lo = h if h_lo is None else min(h_lo, h)
        h_hi = h if h_hi is None else max(h_hi, h)
        # accepted: dense-emit every sample inside (t, t_new]
        Q = None
        collapsed = False
        while si < len(sample_times) and direction * (sample_times[si] - t_new) <= 1e-14 * max(1.0, abs(t_new)):
            if Q is None:
                Q = [[_dot(col, K, c) for col in _P_COLS] for c in range(n)]
            ts = sample_times[si]
            x = (ts - t) / hd
            px = (x, x * x, x**3, x**4)
            ysamp = [yc + hd * (q[0] * px[0] + q[1] * px[1] + q[2] * px[2] + q[3] * px[3])
                     for yc, q in zip(y, Q)]
            if r_index is not None and ysamp[r_index] < r_min:
                collapsed = True
                break
            emit(ts, h, *ysamp)
            si += 1
        if collapsed or (r_index is not None and
                         (y_new[r_index] < r_min or not all(map(math.isfinite, y_new)))):
            return samples, "radius_collapse", stats()
        # PI step-size update
        err = max(err, 1e-10)  # keep the controller finite on exact hits
        factor = min(_MAX_FACTOR, _SAFETY * err ** -_ALPHA * err_prev ** _BETA)
        err_prev = err
        t, y, k1 = t_new, y_new, K[6]
        h *= factor
    return samples, "completed", stats()


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


def check_horizon(t0: float, t_end: float, stride: float) -> None:
    """Raise ValueError unless 0 < |t_end - t0| <= MAX_SAMPLES * stride (NaN
    and infinite spans fail); `integrate` checks it before listing samples."""
    if t_end == t0:
        raise ValueError("t_end must differ from the initial time")
    if not abs(t_end - t0) <= MAX_SAMPLES * stride:
        raise ValueError(f"the run from t = {t0!r} to {t_end!r} needs more than "
                         f"MAX_SAMPLES = {MAX_SAMPLES} samples of stride {stride!r}")


def integrate(fam, s0: PolarState, t_end: float, cfg: IntegratorConfig | None = None) -> Trajectory:
    """Propagate (r, rdot, theta) from s0 to t_end on the family's dynamics."""
    if cfg is None:
        cfg = IntegratorConfig()
    check_horizon(s0.t, t_end, cfg.stride)
    L3 = fam.L3
    guard = getattr(fam, "radial", True)

    def rhs(t, y):
        r = y[0]
        if guard and r <= 0.0:
            raise DomainError("r <= 0 during step")
        return [y[1], -fam.dU_dr(t, r), L3 * r**-2 if L3 else 0.0]

    grid = _sample_grid(s0.t, t_end, cfg.stride)
    samples, term, stats = _core_integrate(
        rhs, s0.t, (s0.r, s0.rdot, s0.theta), t_end, cfg, grid,
        r_index=0 if guard else None, r_min=cfg.r_min)
    ts, hs, r, rdot, theta = map(np.array, samples)
    return Trajectory(ts, r, rdot, theta, hs, termination=term,
                      label=getattr(fam, "label", ""), stats=stats)


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
        return [y[2], y[3], a * y[0], a * y[1]]

    thdot0 = fam.L3 / s0.r**2
    c, s = math.cos(s0.theta), math.sin(s0.theta)
    y0 = (
        s0.r * c,
        s0.r * s,
        s0.rdot * c - s0.r * thdot0 * s,
        s0.rdot * s + s0.r * thdot0 * c,
    )
    grid = _sample_grid(s0.t, t_end, cfg.stride)
    samples, term, stats = _core_integrate(rhs, s0.t, y0, t_end, cfg, grid)
    ts, hs, x, yy, vx, vy = map(np.array, samples)
    r = np.hypot(x, yy)
    rdot = (x * vx + yy * vy) / r
    theta = np.unwrap(np.arctan2(yy, x))
    theta += s0.theta - theta[0]
    cart = Trajectory(ts, r, rdot, theta, hs, termination=term,
                      label=getattr(fam, "label", ""), stats=stats)

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

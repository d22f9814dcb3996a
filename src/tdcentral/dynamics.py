"""Reduced radial / polar / Cartesian equations of motion and the integrator.

The radial ODE is rddot = L3^2/r^3 - dV/dr, equivalently -dU/dr with
U = V + L3^2/(2r^2); theta is carried as a third component via
thetadot = L3/r^2.  The stepper is a hand-rolled Dormand-Prince 5(4)
embedded pair with PI step-size control, FSAL, and the standard quartic
dense-output interpolant, so trajectories are sampled on a fixed stride
without constraining the step sequence.  Radius collapse (r < r_min)
terminates the trajectory with a recorded reason instead of raising.

The stepper runs on Python floats and is unrolled: every stage, solution
and error sum is one expression per component, 0 + w1 k1 + w2 k2 + ... in
tableau order over the tableau unpacked into locals.  `integrate` runs its
own kernel of that stepper on three float locals (r, rdot, theta): the
right-hand side is inlined, one dU_dr call and L3 r^-2 per stage, and
theta's stage sums are skipped, since no right-hand side reads theta.  Its
other sums are the generic stepper's, so its samples are bit-identical to
the generic stepper's on the same right-hand side; only the kernel ends a
run on radius collapse.  The generic n-component stepper stays for the
Cartesian cross-check (n = 4); the tests hold the kernel to a summation
loop over the polar right-hand side.  Dense output is a blocked numpy
pass: accepted steps are recorded, and their samples are evaluated about
a thousand at a time with the same sums in the same order, elementwise,
so every sample is bit-identical to the per-sample summation loop it
replaced.  The samples stay float64 arrays from end to end: the sample
grid is one array, each run writes its samples into one preallocated
array whose rows become the Trajectory's fields, and the CSV writer
formats them a block of rows at a time.  Each run also counts its work
(IntegratorStats, on Trajectory.stats).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import chain, repeat

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
_P_COLS = tuple(zip(*_P))  # the weights of q0 .. q3, each over k1 .. k7

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
    reference: Trajectory  # the polar run of `integrate` it is compared with


def _core_integrate(rhs, t0, y0, t_end, cfg, sample_times):
    """Adaptive DP5(4) over [t0, t_end] (either direction).

    The state and the stages are lists of floats and `rhs(t, y)` returns a
    list.  Emits dense samples at `sample_times`, a float64 array ordered
    from t0 toward t_end.  Returns the samples as one float64 array with
    rows t, h_accepted, y_0, ..., y_{n-1} and a column per sample, the
    termination reason ("completed") and IntegratorStats.

    An accepted step only counts the samples it covers and records itself;
    `_DenseBlock` evaluates the recorded steps' samples in blocked numpy
    passes.
    """
    c2, c3, c4, c5, c6 = _C[1:6]
    (a21,), (a31, a32), (a41, a42, a43), (a51, a52, a53, a54), \
        (a61, a62, a63, a64, a65) = _A[1:]
    b1, b2, b3, b4, b5, b6 = _B
    e1, e2, e3, e4, e5, e6, e7 = _E
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
    dense = _DenseBlock(sample_times, (t0, 0.0, *y), None)
    si = dense.start
    nst = len(sample_times)
    grid_at = sample_times.item
    while direction * (t_end - t) > 0.0:
        if accepted + rejected + retries >= cfg.max_steps:
            raise StepLimitExceeded(
                f"no convergence within {cfg.max_steps} step attempts at t={t!r}")
        h = min(h, cfg.h_max, abs(t_end - t))
        if h <= 1e-14 * max(1.0, abs(t)):
            raise StepLimitExceeded(f"step size underflow at t={t!r}")
        hd = direction * h
        try:
            evals += 1
            k2 = rhs(t + c2 * hd, [v + hd * (0.0 + a21 * a) for v, a in zip(y, k1)])
            evals += 1
            k3 = rhs(t + c3 * hd, [v + hd * (0.0 + a31 * a + a32 * b)
                                   for v, a, b in zip(y, k1, k2)])
            evals += 1
            k4 = rhs(t + c4 * hd, [v + hd * (0.0 + a41 * a + a42 * b + a43 * c)
                                   for v, a, b, c in zip(y, k1, k2, k3)])
            evals += 1
            k5 = rhs(t + c5 * hd, [v + hd * (0.0 + a51 * a + a52 * b + a53 * c + a54 * d)
                                   for v, a, b, c, d in zip(y, k1, k2, k3, k4)])
            evals += 1
            k6 = rhs(t + c6 * hd, [v + hd * (0.0 + a61 * a + a62 * b + a63 * c + a64 * d
                                             + a65 * e)
                                   for v, a, b, c, d, e in zip(y, k1, k2, k3, k4, k5)])
            y_new = [v + hd * (0.0 + b1 * a + b2 * b + b3 * c + b4 * d + b5 * e + b6 * f)
                     for v, a, b, c, d, e, f in zip(y, k1, k2, k3, k4, k5, k6)]
            t_new = t + hd
            evals += 1
            k7 = rhs(t_new, y_new)
        except DomainError:
            # a stage left the admissible region; retry shorter
            retries += 1
            h *= 0.5
            if h < 1e-12:
                raise
            continue
        sq = 0.0
        for v, w, a, b, c, d, e, f, g in zip(y, y_new, k1, k2, k3, k4, k5, k6, k7):
            v, w = abs(v), abs(w)
            q = (hd * (0.0 + e1 * a + e2 * b + e3 * c + e4 * d + e5 * e + e6 * f + e7 * g)
                 / (cfg.atol + cfg.rtol * (v if v > w else w)))
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
        # accepted: the samples inside (t, t_new] are this step's
        reach = 1e-14 * max(1.0, abs(t_new))
        s_end = si
        while s_end < nst and direction * (grid_at(s_end) - t_new) <= reach:
            s_end += 1
        if s_end > si:
            si = s_end
            dense.record(si, (accepted, rejected, retries, evals, h_lo, h_hi),
                         (t, hd, h, *y, *k1, *k2, *k3, *k4, *k5, *k6, *k7))
        # PI step-size update
        err = max(err, 1e-10)  # keep the controller finite on exact hits
        factor = min(_MAX_FACTOR, _SAFETY * err ** -_ALPHA * err_prev ** _BETA)
        err_prev = err
        t, y, k1 = t_new, y_new, k7
        h *= factor
    dense.flush()
    return dense.filled(), "completed", IntegratorStats(accepted, rejected, retries, evals, h_lo, h_hi)


def _collided(r, rdot, h, direction):
    """At a step-size floor: r falls and would reach 0 within 1000 steps of h."""
    rate = direction * rdot
    return rate < 0.0 and r <= 1000.0 * h * -rate


def _polar_kernel(dU_dr, L3, guard, t0, y0, t_end, cfg, sample_times):
    """`_core_integrate` of the reduced polar system on three float locals.

    The right-hand side of (r, rdot, theta) is (rdot, -dU_dr(t, r), L3 r^-2),
    with L3 = 0 giving theta' = 0.0.  It is inlined: the stage rdot is k_r
    as it is, each stage makes one dU_dr call, and theta's stage sums are
    left out, since no right-hand side reads theta.  Every other sum, the
    error norm included, is `_core_integrate`'s, in tableau order from 0.0,
    so until a radius check below ends a run, its samples and counters are
    bit-identical to `_core_integrate`'s on that right-hand side.

    With `guard` set, r is a radius: a stage with r <= 0 raises DomainError
    (and is retried shorter), and the run ends with reason
    "radius_collapse" when r falls below cfg.r_min, at a non-finite state,
    or at a step-size floor reached while r falls fast enough to reach 0
    within 1000 steps.  A sample below r_min, found when `_DenseBlock`
    evaluates it, ends the run at its step, also when the stepper went on
    past that step and raised.
    """
    c2, c3, c4, c5, c6 = _C[1:6]
    (a21,), (a31, a32), (a41, a42, a43), (a51, a52, a53, a54), \
        (a61, a62, a63, a64, a65) = _A[1:]
    b1, b2, b3, b4, b5, b6 = _B
    e1, e2, e3, e4, e5, e6, e7 = _E
    atol, rtol, h_max, max_steps, r_min = cfg.atol, cfg.rtol, cfg.h_max, cfg.max_steps, cfg.r_min
    isfinite = math.isfinite
    direction = 1.0 if t_end >= t0 else -1.0
    span = abs(t_end - t0)
    t = t0
    r, v, th = map(float, y0)
    h = min(cfg.h_init, h_max, span) if span > 0 else cfg.h_init
    # stage i: (r_i, v_i) the stage state, k_i = (v_i, f_i, w_i)
    if guard and r <= 0.0:
        raise DomainError("r <= 0 during step")
    f1 = -dU_dr(t, r)
    w1 = L3 * r**-2 if L3 else 0.0
    evals = 1
    accepted = rejected = retries = 0
    h_lo = h_hi = None
    err_prev = 1.0
    dense = _DenseBlock(sample_times, (t0, 0.0, r, v, th), r_min if guard else None)
    si = dense.start
    nst = len(sample_times)
    grid_at = sample_times.item
    term = "completed"
    try:
        while direction * (t_end - t) > 0.0:
            if accepted + rejected + retries >= max_steps:
                raise StepLimitExceeded(
                    f"no convergence within {max_steps} step attempts at t={t!r}")
            h = min(h, h_max, abs(t_end - t))
            if h <= 1e-14 * max(1.0, abs(t)):
                # non-extendable solution: a collision, or a singular profile
                if guard and _collided(r, v, h, direction):
                    term = "radius_collapse"
                    break
                raise StepLimitExceeded(f"step size underflow at t={t!r}")
            hd = direction * h
            try:
                evals += 1
                r2 = r + hd * (0.0 + a21 * v)
                v2 = v + hd * (0.0 + a21 * f1)
                if guard and r2 <= 0.0:
                    raise DomainError("r <= 0 during step")
                f2 = -dU_dr(t + c2 * hd, r2)
                w2 = L3 * r2**-2 if L3 else 0.0
                evals += 1
                r3 = r + hd * (0.0 + a31 * v + a32 * v2)
                v3 = v + hd * (0.0 + a31 * f1 + a32 * f2)
                if guard and r3 <= 0.0:
                    raise DomainError("r <= 0 during step")
                f3 = -dU_dr(t + c3 * hd, r3)
                w3 = L3 * r3**-2 if L3 else 0.0
                evals += 1
                r4 = r + hd * (0.0 + a41 * v + a42 * v2 + a43 * v3)
                v4 = v + hd * (0.0 + a41 * f1 + a42 * f2 + a43 * f3)
                if guard and r4 <= 0.0:
                    raise DomainError("r <= 0 during step")
                f4 = -dU_dr(t + c4 * hd, r4)
                w4 = L3 * r4**-2 if L3 else 0.0
                evals += 1
                r5 = r + hd * (0.0 + a51 * v + a52 * v2 + a53 * v3 + a54 * v4)
                v5 = v + hd * (0.0 + a51 * f1 + a52 * f2 + a53 * f3 + a54 * f4)
                if guard and r5 <= 0.0:
                    raise DomainError("r <= 0 during step")
                f5 = -dU_dr(t + c5 * hd, r5)
                w5 = L3 * r5**-2 if L3 else 0.0
                evals += 1
                r6 = r + hd * (0.0 + a61 * v + a62 * v2 + a63 * v3 + a64 * v4 + a65 * v5)
                v6 = v + hd * (0.0 + a61 * f1 + a62 * f2 + a63 * f3 + a64 * f4 + a65 * f5)
                if guard and r6 <= 0.0:
                    raise DomainError("r <= 0 during step")
                f6 = -dU_dr(t + c6 * hd, r6)
                w6 = L3 * r6**-2 if L3 else 0.0
                rn = r + hd * (0.0 + b1 * v + b2 * v2 + b3 * v3 + b4 * v4 + b5 * v5 + b6 * v6)
                vn = v + hd * (0.0 + b1 * f1 + b2 * f2 + b3 * f3 + b4 * f4 + b5 * f5 + b6 * f6)
                thn = th + hd * (0.0 + b1 * w1 + b2 * w2 + b3 * w3 + b4 * w4 + b5 * w5 + b6 * w6)
                t_new = t + hd
                evals += 1
                if guard and rn <= 0.0:
                    raise DomainError("r <= 0 during step")
                f7 = -dU_dr(t_new, rn)
                w7 = L3 * rn**-2 if L3 else 0.0
            except DomainError:
                # a stage left the admissible region; retry shorter
                retries += 1
                h *= 0.5
                if h < 1e-12:
                    if guard and _collided(r, v, h, direction):
                        term = "radius_collapse"
                        break
                    raise
                continue
            x, z = abs(r), abs(rn)
            q1 = (hd * (0.0 + e1 * v + e2 * v2 + e3 * v3 + e4 * v4 + e5 * v5 + e6 * v6 + e7 * vn)
                  / (atol + rtol * (x if x > z else z)))
            x, z = abs(v), abs(vn)
            q2 = (hd * (0.0 + e1 * f1 + e2 * f2 + e3 * f3 + e4 * f4 + e5 * f5 + e6 * f6 + e7 * f7)
                  / (atol + rtol * (x if x > z else z)))
            x, z = abs(th), abs(thn)
            q3 = (hd * (0.0 + e1 * w1 + e2 * w2 + e3 * w3 + e4 * w4 + e5 * w5 + e6 * w6 + e7 * w7)
                  / (atol + rtol * (x if x > z else z)))
            err = math.sqrt((0.0 + q1 * q1 + q2 * q2 + q3 * q3) / 3)
            if err > 1.0 or not isfinite(err):
                if not isfinite(err):
                    factor = _MIN_FACTOR
                else:
                    factor = max(_MIN_FACTOR, _SAFETY * err ** -_ALPHA)
                rejected += 1
                h *= factor
                continue
            accepted += 1
            h_lo = h if h_lo is None else min(h_lo, h)
            h_hi = h if h_hi is None else max(h_hi, h)
            # accepted: the samples inside (t, t_new] are this step's
            reach = 1e-14 * max(1.0, abs(t_new))
            s_end = si
            while s_end < nst and direction * (grid_at(s_end) - t_new) <= reach:
                s_end += 1
            if s_end > si:
                si = s_end
                hit = dense.record(si, (accepted, rejected, retries, evals, h_lo, h_hi),
                                   (t, hd, h, r, v, th, v, f1, w1, v2, f2, w2, v3, f3, w3,
                                    v4, f4, w4, v5, f5, w5, v6, f6, w6, vn, f7, w7))
                if hit is not None:
                    return dense.filled(), "radius_collapse", hit
            if guard and (rn < r_min or not (isfinite(rn) and isfinite(vn) and isfinite(thn))):
                term = "radius_collapse"
                break
            # PI step-size update
            err = max(err, 1e-10)  # keep the controller finite on exact hits
            factor = min(_MAX_FACTOR, _SAFETY * err ** -_ALPHA * err_prev ** _BETA)
            err_prev = err
            t, r, v, th, f1, w1 = t_new, rn, vn, thn, f7, w7
            h *= factor
    except Exception:
        # whatever a later step raised, a pending sample below r_min ended
        # the run before that step
        hit = dense.flush()
        if hit is None:
            raise
        return dense.filled(), "radius_collapse", hit
    hit = dense.flush()
    if hit is not None:
        return dense.filled(), "radius_collapse", hit
    return dense.filled(), term, IntegratorStats(accepted, rejected, retries, evals, h_lo, h_hi)


_BLOCK = 1024  # dense samples evaluated in one numpy pass, CSV rows formatted in one pass


class _DenseBlock:
    """The samples of a run, and the accepted steps whose samples are not
    yet evaluated.

    The samples are one float64 array of rows t, h_accepted, y_0, ...,
    y_{n-1} and one column per time of `times`.  It is built with the
    run's first row (t0, 0.0, y(t0)), written as sample 0 when times[0] is
    t0.  `record` keeps a step's end sample index, its counters and its
    (t, hd, h, y, k1, ..., k7).  `flush` evaluates the pending samples in
    numpy, writes them by slices up to the first one whose radius y_0 is
    below r_min (none is, when r_min is None) and returns the
    IntegratorStats of that sample's step, or None.  A sample below r_min
    is found only when its block is flushed: once _BLOCK samples are
    pending, or when the run ends or raises.  `filled` is the written
    prefix; the array is left uninitialised, so the unwritten tail of a run
    that ends early is never touched.

    The interpolant sums run elementwise in the order of the float stepper,
    0 + p1 k1 + ... + p7 k7 and then v + hd (q0 x + q1 x^2 + q2 x^3 + q3 x^4),
    with x^3 and x^4 from libm `pow` (numpy's `power` may differ from it in
    the last bit), so every sample is bit-identical to evaluating it in
    Python floats.
    """

    def __init__(self, times, first, r_min):
        self.times = times
        self.out = np.empty((len(first), len(times)))
        self.start = 0  # samples written: out[:, :start]; pending: up to ends[-1]
        if len(times) and times.item(0) == first[0]:
            self.out[:, 0] = first
            self.start = 1
        self.r_min = r_min
        self.ends, self.counters, self.steps = [], [], []

    def filled(self):
        return self.out[:, :self.start]

    def record(self, end, counters, step):
        """Add a step (counters: the IntegratorStats fields); once _BLOCK
        samples are pending, flush them and return what flush does."""
        self.ends.append(end)
        self.counters.append(counters)
        self.steps.append(step)
        return self.flush() if end - self.start >= _BLOCK else None

    def flush(self):
        if not self.steps:
            return None
        ends, counters, A = self.ends, self.counters, np.array(self.steps)
        self.ends, self.counters, self.steps = [], [], []
        out, n = self.out, len(self.out) - 2
        k1, k2, k3, k4, k5, k6, k7 = (A[:, n * j + 3:n * j + n + 3] for j in range(1, 8))
        with np.errstate(all="ignore"):  # inf and nan pass silently, as in floats
            Q = [0.0 + p1 * k1 + p2 * k2 + p3 * k3 + p4 * k4 + p5 * k5 + p6 * k6 + p7 * k7
                 for p1, p2, p3, p4, p5, p6, p7 in _P_COLS]
            # at most _BLOCK samples at a time, however many one step holds
            for c0 in range(self.start, ends[-1], _BLOCK):
                c1 = min(c0 + _BLOCK, ends[-1])
                at = np.searchsorted(ends, np.arange(c0, c1), side="right")  # their steps
                ts = self.times[c0:c1]
                x = (ts - A[at, 0]) / A[at, 1]
                xs = x.tolist()
                x3 = np.array(list(map(pow, xs, repeat(3))))[:, None]
                x4 = np.array(list(map(pow, xs, repeat(4))))[:, None]
                x, hd = x[:, None], A[at, 1:2]
                q0, q1, q2, q3 = (q[at] for q in Q)
                ysamp = A[at, 3:3 + n] + hd * (q0 * x + q1 * (x * x) + q2 * x3 + q3 * x4)
                m = c1 - c0
                if self.r_min is not None:
                    below = np.flatnonzero(ysamp[:, 0] < self.r_min)
                    if below.size:
                        m = int(below[0])
                out[0, c0:c0 + m] = ts[:m]
                out[1, c0:c0 + m] = A[at[:m], 2]
                out[2:, c0:c0 + m] = ysamp[:m].T
                self.start = c0 + m
                if m < c1 - c0:
                    return IntegratorStats(*counters[at[m]])
        return None


def _sample_grid(t0: float, t_end: float, stride: float) -> np.ndarray:
    """[t0, t0 + stride, ..., t_end]: the inner times t0 + (±k) stride, k =
    1, 2, ..., that fall short of t_end, from one numpy pass."""
    direction = 1.0 if t_end >= t0 else -1.0
    # k runs two strides past t_end; the times are monotone, so the ones
    # short of t_end (t0 among them) are a prefix
    ts = t0 + (direction * np.arange(abs(t_end - t0) // stride + 3.0)) * stride
    m = int(np.count_nonzero(direction * (ts - t_end) < 0.0))
    ts[0] = t0  # t0 + 0.0 would turn t0 = -0.0 into 0.0
    ts[m] = t_end
    return ts[:m + 1]


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
    grid = _sample_grid(s0.t, t_end, cfg.stride)
    (ts, hs, r, rdot, theta), term, stats = _polar_kernel(
        fam.dU_dr, fam.L3, getattr(fam, "radial", True), s0.t, (s0.r, s0.rdot, s0.theta),
        t_end, cfg, grid)
    return Trajectory(ts, r, rdot, theta, hs, termination=term,
                      label=getattr(fam, "label", ""), stats=stats)


def cartesian_crosscheck(fam, s0: PolarState, t_end: float,
                         cfg: IntegratorConfig | None = None) -> CrosscheckResult:
    """Integrate the planar Cartesian system and compare with `integrate`.

    Returns the polar-converted Cartesian trajectory, the maximum position
    deviation between the two integrations, the maximum drift of the
    angular momentum x vy - y vx along the Cartesian run, and the polar
    reference run.
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
    (ts, hs, x, yy, vx, vy), term, stats = _core_integrate(rhs, s0.t, y0, t_end, cfg, grid)
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
    return CrosscheckResult(cart, dev, l3_drift, ref)


def drift_series(traj: Trajectory, fi) -> np.ndarray:
    """I(t_i) along the trajectory for a (t, r, rdot) first integral,
    evaluated once on the sample arrays; inf or nan where a state leaves
    the double range."""
    with np.errstate(all="ignore"):
        vals = np.asarray(fi(traj.t, traj.r, traj.rdot), dtype=float)
    return np.broadcast_to(vals, traj.t.shape).copy()


def drift_report(traj: Trajectory, fi) -> float:
    """max_t |I(t) - I(0)| / max(1, |I(0)|); inf or nan (which fail any
    tolerance) where the series leaves the double range."""
    vals = drift_series(traj, fi)
    with np.errstate(all="ignore"):
        return float(np.max(np.abs(vals - vals[0])) / max(1.0, abs(vals[0])))


def write_csv(traj: Trajectory, path):
    """Full-precision CSV: t,r,rdot,theta,h_accepted, formatted _BLOCK rows
    at a time."""
    cols = [np.asarray(col, dtype=float)
            for col in (traj.t, traj.r, traj.rdot, traj.theta, traj.h_accepted)]
    with open(path, "w", newline="") as fh:
        fh.write("t,r,rdot,theta,h_accepted\n")
        for i in range(0, len(cols[0]), _BLOCK):
            *block, h = (col[i:i + _BLOCK] for col in cols)
            # h changes once per step: one repr per run of bit-equal values
            # (the int64 view keeps 0.0 and -0.0 apart)
            bits = h.view(np.int64)
            starts = np.flatnonzero(np.r_[True, bits[1:] != bits[:-1]])
            hs = chain.from_iterable(map(repeat, map(repr, h[starts].tolist()),
                                         np.diff(starts, append=len(h)).tolist()))
            lines = list(map(",".join, zip(*(map(repr, col.tolist()) for col in block), hs)))
            lines.append("")
            fh.write("\n".join(lines))

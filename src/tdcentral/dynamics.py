"""Reduced radial / polar / Cartesian equations of motion and the integrator.

The radial ODE is rddot = L3^2/r^3 - dV/dr, equivalently -dU/dr with
U = V + L3^2/(2r^2); theta is carried as a third component via
thetadot = L3/r^2.  The stepper is a hand-rolled Dormand-Prince 5(4)
embedded pair with PI step-size control, FSAL, and the standard quartic
dense-output interpolant, so trajectories are sampled on a fixed stride
without constraining the step sequence.  The family knows its domain:
its dU_dr (and dV_dr) refuses r <= 0 with a DomainError, and the stepper
retries such a step shorter.  A PolarState is four floats and tests none:
a radial family refuses a start at r <= 0 at its first stage, which
`integrate` raises, and the coordinate of a one-dimensional system
(radial = False) takes either sign.  The stepper itself makes no radius
test before a right-hand side; it only decides radius collapse
(r < r_min), which terminates the trajectory with a recorded reason
instead of raising.

The stepper's source is written once, as a template, and compiled per
system into unrolled Python-float code: every stage, solution and error
sum is one expression per component, 0 + w1 k1 + w2 k2 + ... in tableau
order with the zero weights kept.  It has two instances.  `integrate`
runs the polar kernel on (r, rdot, theta), its right-hand side inlined as
one dU_dr call and L3 r^-2 per stage, with no theta stage sums, since no
right-hand side reads theta; only it ends a run on radius collapse.  The
Cartesian cross-check runs the generic instance, built once per number
of components, on rhs(t, y).  The tests hold both to a summation loop.
Dense output is a blocked numpy pass over the recorded steps with the
same sums in the same order, elementwise, so every sample is
bit-identical to that loop's.  The samples stay float64 arrays from the
sample grid to the CSV, and each run counts its work (IntegratorStats,
on Trajectory.stats).
"""

from __future__ import annotations

import functools
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
    stats: IntegratorStats | None = None

    def __len__(self):
        return len(self.t)


@dataclass(frozen=True)
class CrosscheckResult:
    trajectory: Trajectory
    position_deviation: float
    l3_drift: float
    reference: Trajectory  # the polar run of `integrate` it is compared with


def _collided(r, rdot, h, direction):
    """At a step-size floor: r falls and would reach 0 within 1000 steps of h."""
    rate = direction * rdot
    return rate < 0.0 and r <= 1000.0 * h * -rate


# the DP5(4) step control, written once; `_stepper` fills in one system's sums
_STEPPER = '''\
def {name}({params}t0, y0, t_end, cfg, sample_times):
    atol, rtol, h_max, max_steps, r_min = cfg.atol, cfg.rtol, cfg.h_max, cfg.max_steps, cfg.r_min
    isfinite = math.isfinite
    direction = 1.0 if t_end >= t0 else -1.0
    span = abs(t_end - t0)
    t = t0
    {y}, = map(float, y0)
    h = min(cfg.h_init, h_max, span) if span > 0 else cfg.h_init
    {first}
    evals = 1
    accepted = rejected = retries = 0
    h_lo = h_hi = None
    err_prev = 1.0
    dense = _DenseBlock(sample_times, (t0, 0.0, {y}), {dense_r_min})
    si = dense.start
    nst = len(sample_times)
    grid_at = sample_times.item
    term = "completed"
    hit = failure = None
    try:
        while direction * (t_end - t) > 0.0:
            if accepted + rejected + retries >= max_steps:
                raise StepLimitExceeded(
                    f"no convergence within {{max_steps}} step attempts at t={{t!r}}")
            h = min(h, h_max, abs(t_end - t))
            if h <= 1e-14 * max(1.0, abs(t)):
                # non-extendable solution: a collision, or a singular profile
                if {collided}:
                    term = "radius_collapse"
                    break
                raise StepLimitExceeded(f"step size underflow at t={{t!r}}")
            hd = direction * h
            try:
                {stages}
            except DomainError:
                # a stage left the admissible region; retry shorter
                retries += 1
                h *= 0.5
                if h < 1e-12:
                    if {collided}:
                        term = "radius_collapse"
                        break
                    raise
                continue
            {norm}
            err = math.sqrt(({sq}) / {n})
            if err > 1.0 or not isfinite(err):
                rejected += 1
                h *= max(_MIN_FACTOR, _SAFETY * err ** -_ALPHA) if isfinite(err) else _MIN_FACTOR
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
                                   (t, hd, h, {y}, {ks}))
                if hit is not None:
                    break
            if {collapsed}:
                term = "radius_collapse"
                break
            # PI step-size update
            err = max(err, 1e-10)  # keep the controller finite on exact hits
            factor = min(_MAX_FACTOR, _SAFETY * err ** -_ALPHA * err_prev ** _BETA)
            err_prev = err
            {advance}
            h *= factor
    except Exception as e:  # raised after the flush below, unless a sample ends the run first
        failure = e
    hit = hit or dense.flush()
    if hit is not None:  # a sample below r_min ends the run at its step
        return dense.filled(), "radius_collapse", hit
    if failure is not None:
        raise failure
    return dense.filled(), term, IntegratorStats(accepted, rejected, retries, evals, h_lo, h_hi)
'''


def _stepper(name, params, n, stage, read=None, collapse=False):
    """Compile `name(*params, t0, y0, t_end, cfg, sample_times)`, the DP5(4)
    stepper of an n-component system, from the template above.

    It integrates over [t0, t_end] (either direction) and returns the samples
    at `sample_times` (a float64 array from t0 toward t_end) as one array of
    rows t, h_accepted, y_0, ..., y_{n-1}, the termination reason and
    IntegratorStats; `_DenseBlock` evaluates the samples of recorded steps.
    The state is the locals s0 .. s{n-1}, and each weight is written as the
    repr of its float.  `stage(i, t, s)` gives the source lines of stage
    i = 1 .. 7 at time t and stage state s, and the names of its n
    derivatives; stage sums are made only for the components in `read`.
    With `collapse`, a run with `guard` set ends in "radius_collapse" (y_0
    being the radius) below cfg.r_min, at a non-finite state, at a step-size
    floor reached while the radius would reach 0 within 1000 steps, or at a
    sample below r_min, also one found after the stepper went on and raised.
    Any other failure is raised after the last dense flush.
    """
    rows = range(n)
    read = rows if read is None else read

    def states(i):  # the stage state of stage i: s at 1, the new state at 7
        return [f"s{c}" if i == 1 else f"s{c}n" if i == 7 else f"s{c}_{i}" for c in rows]

    def wsum(weights, c):
        return " + ".join(["0.0", *(f"{w!r} * {k[c]}" for w, k in zip(weights, K))])

    first, ks = stage(1, "t", states(1))
    K, stages = [ks], []
    for i in range(2, 8):
        s = states(i)
        stages.append("evals += 1")
        stages += [f"{s[c]} = s{c} + hd * ({wsum(_A[i - 1] if i < 7 else _B, c)})"
                   for c in (read if i < 7 else rows)]
        if i == 7:
            stages.append("t_new = t + hd")
        lines, ks = stage(i, f"t + {_C[i - 1]!r} * hd" if i < 7 else "t_new", s)
        stages += lines
        K.append(ks)
    norm = [line for c in rows for line in (
        f"x, z = abs(s{c}), abs(s{c}n)",
        f"q{c} = hd * ({wsum(_E, c)}) / (atol + rtol * (x if x > z else z))")]
    # carry the new state and its stage into the next step (a derivative
    # that is a state component moves with it)
    advance = dict(zip(["t", *states(1), *K[0]], ["t_new", *states(7), *K[6]]))
    new = " and ".join(f"isfinite({v})" for v in states(7))
    src = _STEPPER.format(
        name=name, params=params, n=n, y=", ".join(states(1)), first="\n    ".join(first),
        dense_r_min="r_min if guard else None" if collapse else "None",
        collided=f"guard and _collided(s0, {K[0][0]}, h, direction)" if collapse else "False",
        collapsed=f"guard and (s0n < r_min or not ({new}))" if collapse else "False",
        stages="\n                ".join(stages), norm="\n            ".join(norm),
        sq=" + ".join(["0.0", *(f"q{c} * q{c}" for c in rows)]),
        ks=", ".join(k for ks in K for k in ks),
        advance=f"{', '.join(advance)} = {', '.join(advance.values())}")
    scope = {}
    exec(compile(src, f"<{name}>", "exec"), globals(), scope)
    return scope[name]


def _polar_stage(i, t, s):
    """(r, rdot, theta)' = (rdot, -dU_dr(t, r), L3 r^-2), with theta' = 0.0
    when L3 = 0: k_r is the stage rdot as it is, one dU_dr call per stage."""
    return [f"k1_{i} = -dU_dr({t}, {s[0]})",
            f"k2_{i} = L3 * {s[0]}**-2 if L3 else 0.0"], [s[1], f"k1_{i}", f"k2_{i}"]


# `integrate`'s kernel: theta has no stage sums, since no right-hand side
# reads it.  Stage radii are the family's to refuse: dU_dr raises
# DomainError outside its domain (r <= 0 for a radial family, whose
# `radial` is the guard), and the step is retried shorter.
_polar_kernel = _stepper("_polar_kernel", "dU_dr, L3, guard, ", 3, _polar_stage,
                         read=(0, 1), collapse=True)


@functools.cache
def _generic_stepper(n):
    def stage(i, t, s):
        ks = [f"k{c}_{i}" for c in range(n)]
        return [f"{', '.join(ks)}, = rhs({t}, [{', '.join(s)}])"], ks
    return _stepper("_core_integrate", "rhs, ", n, stage)


def _core_integrate(rhs, t0, y0, t_end, cfg, sample_times):
    """The stepper of the n = len(y0) component system y' = rhs(t, y), with
    y a list of floats and rhs returning n values; it ends only with
    "completed" or by raising."""
    return _generic_stepper(len(y0))(rhs, t0, y0, t_end, cfg, sample_times)


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
    and infinite spans fail); `integrate` checks it before listing samples,
    after refusing a non-finite t0 with DomainError."""
    if t_end == t0:
        raise ValueError("t_end must differ from the initial time")
    if not abs(t_end - t0) <= MAX_SAMPLES * stride:
        raise ValueError(f"the run from t = {t0!r} to {t_end!r} needs more than "
                         f"MAX_SAMPLES = {MAX_SAMPLES} samples of stride {stride!r}")


def integrate(fam, s0: PolarState, t_end: float, cfg: IntegratorConfig | None = None) -> Trajectory:
    """Propagate (r, rdot, theta) from s0 to t_end on the family's dynamics.
    The family's dU_dr refuses r <= 0 (a stage retried shorter, a start
    raised as DomainError); the kernel only decides radius collapse, the
    termination "radius_collapse".  A non-finite start raises DomainError."""
    for name in ("t", "r", "rdot", "theta"):
        if not math.isfinite(getattr(s0, name)):
            raise DomainError(f"initial {name} must be finite, is {getattr(s0, name)!r}")
    if cfg is None:
        cfg = IntegratorConfig()
    check_horizon(s0.t, t_end, cfg.stride)
    grid = _sample_grid(s0.t, t_end, cfg.stride)
    (ts, hs, r, rdot, theta), term, stats = _polar_kernel(
        fam.dU_dr, fam.L3, fam.radial, s0.t, (s0.r, s0.rdot, s0.theta), t_end, cfg, grid)
    return Trajectory(ts, r, rdot, theta, hs, termination=term, stats=stats)


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
    cart = Trajectory(ts, r, rdot, theta, hs, termination=term, stats=stats)

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

"""Numerical certification of the analytic structure behind the two families.

Checks implemented:

  * defining-condition residuals of the potential/invariant pair (three
    coupled PDE residuals that vanish identically for admissible families),
  * the gauged Noether conditions for the quadratic invariant, with the
    generator eta1 = -2 g1 rdot + g1' r - g2 and gauge function
    f = -g1 rdot^2 + F(s) + (g1' r - g2)^2/(4 g1),
  * recovery of the rescaled-shape potential -(phi''/2phi) r^2
    + phi^{-2} Fbar(r/phi) - L3^2/(2r^2) from the quadratic family with
    g1 = phi^2/2,
  * closed-form r(t) for the linear family and theta(t) by quadrature,
  * the orbit-angle formula theta = +/- (L3/k) sqrt(2(I + k phi/r)) + theta0
    for the Kepler potential with time-dependent scale,
  * a report variant for the 1d system recording both bracket readings of
    its invariant.

Every verdict is built by `check`: the largest |value| against a tolerance,
where a NaN value fails.  Every sampled check is driven by a seeded
SamplingPlan and assembled into a VerificationReport.  `dumps` writes every
JSON artifact of the package deterministically and strictly (RFC 8259): a
non-finite float is written as null.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np
from scipy.integrate import cumulative_simpson

from . import dynamics as dyn
from . import scalarfn as sf
from .errors import BranchAmbiguity
from .potentials import FamilyA, FamilyB, LewisLeach1d, _CentralFamily, \
    check_profile, ermakov_residuals
from .scalarfn import as_fn

__all__ = [
    "SamplingPlan", "CheckResult", "VerificationReport", "check", "dumps",
    "pde_residuals", "noether_check", "rescaled_shape_recovery",
    "closed_form_r", "closed_form_theta", "orbit_angle_check",
    "lewis_leach_report", "PerturbedPotential", "MismatchedShapeFamily",
]


@dataclass(frozen=True)
class SamplingPlan:
    """Seeded random phase-space samples inside the family's validity box."""

    t_range: tuple = (0.0, 3.0)
    r_range: tuple = (0.5, 3.0)
    rdot_range: tuple = (-2.0, 2.0)
    count: int = 200
    seed: int = 0

    def __post_init__(self):
        if self.count < 1:
            raise ValueError("count must be at least 1")
        for name in ("t_range", "r_range", "rdot_range"):
            lo, hi = getattr(self, name)
            if not lo <= hi:
                raise ValueError(f"{name} must be ordered")
        if self.r_range[0] <= 0.0:
            raise ValueError("r_range must be positive")

    def samples(self):
        rng = np.random.default_rng(self.seed)
        t = rng.uniform(*self.t_range, self.count)
        r = rng.uniform(*self.r_range, self.count)
        rdot = rng.uniform(*self.rdot_range, self.count)
        return t, r, rdot


@dataclass(frozen=True)
class CheckResult:
    max_residual: float
    tolerance: float
    passed: bool
    required: bool = True  # informational entries do not gate the report


@dataclass(frozen=True)
class VerificationReport:
    checks: dict
    plan: SamplingPlan | None = None

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks.values() if c.required)

    def to_json(self) -> str:
        return dumps({name: {"max_residual": float(c.max_residual),
                             "tolerance": float(c.tolerance),
                             "pass": bool(c.passed)}
                      for name, c in self.checks.items()})

    def merged(self, other: "VerificationReport") -> "VerificationReport":
        both = dict(self.checks)
        both.update(other.checks)
        return VerificationReport(both, self.plan or other.plan)


# tolerances of the sampled checks
_PDE_TOL = 1e-9
_NOETHER_CONFIG_TOL = 1e-9
_NOETHER_VELOCITY_TOL = 1e-13
_DRIFT_TOL = 1e-7
_PROFILE_TOL = 1e-10


def check(values, tol, required=True) -> CheckResult:
    """The verdict max|values| <= tol over a number or an array (0.0 when
    empty); a NaN value propagates to max_residual and fails."""
    worst = float(np.max(np.abs(values), initial=0.0))
    return CheckResult(worst, tol, worst <= tol, required)


def _finite(obj):
    """obj with every non-finite float, at any depth, replaced by None."""
    if isinstance(obj, float):
        return obj if math.isfinite(obj) else None
    if isinstance(obj, dict):
        return {key: _finite(value) for key, value in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_finite(value) for value in obj]
    return obj


def dumps(obj) -> str:
    """Deterministic, strict JSON text of obj: sorted keys, two-space indent,
    a non-finite float written as null."""
    return json.dumps(_finite(obj), indent=2, sort_keys=True, allow_nan=False)


def pde_residuals(fam, plan: SamplingPlan | None = None) -> VerificationReport:
    """Residuals of the three defining conditions linking U, K and profiles.

    R1 = K_r - 2 g1 U_r - g1'' r + g2'
    R2 = K_t - (g2 - g1' r) U_r
    R3 = (g1' r - g2) U_rr + 2 g1 U_tr + 3 g1' U_r + g1''' r - g2''

    The linear family satisfies the same system with g1 identically zero.
    R3 is implied by R1 and R2 for exact solutions but is evaluated
    independently; an instance passing R1, R2 and failing R3 would signal
    an inconsistency in the derivative trees.
    """
    plan = plan or SamplingPlan()
    t, r, _ = plan.samples()
    g1 = fam.g1(t)
    g1d = fam.g1_d(t)
    g1dd = fam.g1_dd(t)
    g1ddd = fam.g1_ddd(t)
    g2 = fam.g2(t)
    g2d = fam.g2_d(t)
    g2dd = fam.g2_dd(t)
    ur = fam.dU_dr(t, r)
    r1 = fam.dK_dr(t, r) - 2.0 * g1 * ur - g1dd * r + g2d
    r2 = fam.dK_dt(t, r) - (g2 - g1d * r) * ur
    r3 = ((g1d * r - g2) * fam.d2U_dr2(t, r)
          + 2.0 * g1 * fam.d2U_dtdr(t, r) + 3.0 * g1d * ur
          + g1ddd * r - g2dd)
    return VerificationReport({
        "pde-r1": check(r1, _PDE_TOL),
        "pde-r2": check(r2, _PDE_TOL),
        "pde-r3": check(r3, _PDE_TOL),
    }, plan)


def noether_check(fam, plan: SamplingPlan | None = None) -> VerificationReport:
    """Gauged Noether conditions for L = rdot^2/2 - U with gauge xi = 0.

    velocity condition: (d eta1/d rdot)(dL/d rdot) - df/d rdot  (identity)
    configuration condition: eta1 dL/dr + (eta1_t + rdot eta1_r) dL/d rdot
                             - f_t - rdot f_r
    """
    plan = plan or SamplingPlan()
    t, r, rd = plan.samples()
    g1 = fam.g1(t)
    g1d = fam.g1_d(t)
    g1dd = fam.g1_dd(t)
    g2 = fam.g2(t)
    g2d = fam.g2_d(t)
    eta1 = -2.0 * g1 * rd + g1d * r - g2
    deta1_dt = -2.0 * g1d * rd + g1dd * r - g2d
    df_dt = -g1d * rd * rd + fam.dK_dt(t, r)
    df_dr = fam.dK_dr(t, r)
    vel_res = (-2.0 * g1) * rd - (-2.0 * g1 * rd)
    cfg_res = (eta1 * (-fam.dU_dr(t, r)) + (deta1_dt + rd * g1d) * rd
               - df_dt - rd * df_dr)
    return VerificationReport({
        "noether-config": check(cfg_res, _NOETHER_CONFIG_TOL),
        "noether-velocity": check(vel_res, _NOETHER_VELOCITY_TOL),
    }, plan)


def rescaled_shape_recovery(phi, Fbar, L3: float, grid=None) -> float:
    """Max grid difference between the quadratic family with g1 = phi^2/2,
    g2 = 0 and the rescaled-shape potential
    -(phi''/2 phi) r^2 + phi^{-2} Fbar(r/phi) - L3^2/(2 r^2).

    The family's shape function is Fbar composed with u/sqrt(2), which
    makes the equality exact; the centrifugal term appears identically on
    both sides.  Each side is evaluated once on the (ts, rs) meshgrid.
    Raises InvalidParameters when phi vanishes on the grid's time span.
    """
    phi = as_fn(phi)
    Fbar = as_fn(Fbar)
    if grid is None:
        grid = (np.linspace(0.0, 2.0, 20), np.linspace(0.5, 3.0, 20))
    t, r = np.meshgrid(np.asarray(grid[0], dtype=float),
                       np.asarray(grid[1], dtype=float), indexing="ij")
    check_profile(phi, t.min(), t.max(), False, "scale profile phi")
    g1 = sf.mul(0.5, sf.power(phi, 2))
    fam = FamilyB(g1, 0.0, sf.compose(Fbar, sf.poly(0.0, 2.0 ** -0.5)), L3)
    with np.errstate(all="ignore"):  # a singular shape fails as a nan difference
        pv = np.broadcast_to(phi(t), t.shape)
        direct = (-0.5 * phi.d().d()(t) / pv * r * r + Fbar(r / pv) / (pv * pv)
                  - 0.5 * L3 * L3 / (r * r))
        return float(np.max(np.abs(fam.V(t, r) - direct)))


def closed_form_r(fam: FamilyA, I: float, c: float, t, t0: float = 0.0):
    """Closed-form radius of the linear family at t (a float or an array).

    r(t) = g2(t) * (int_{t0}^{t} (I - g)/g2^2 dtau + c); the integration
    constant multiplies g2, which is the placement that actually solves
    rdot = (g2' r + I - g)/g2 (differentiate r/g2 to confirm).  The
    additive placement g2 * integral + c solves it only when g2' c = 0.
    """
    integrand = sf.div(sf.sub(sf.const(I), fam.g), sf.power(fam.g2, 2))
    return fam.g2(t) * (sf.antiderivative(integrand, t0)(t) + c)


def closed_form_theta(traj: dyn.Trajectory, L3: float,
                      theta0: float | None = None) -> float:
    """Max deviation between the trajectory's theta and the quadrature
    theta(t) = theta0 + int L3 / r(t)^2 dt over the same samples."""
    if theta0 is None:
        theta0 = float(traj.theta[0])
    if len(traj) < 2:
        return 0.0
    rebuilt = theta0 + cumulative_simpson(L3 / traj.r**2, x=traj.t, initial=0.0)
    return float(np.max(np.abs(rebuilt - traj.theta)))


@np.errstate(all="ignore")  # a state beyond the double range gives a nan deviation
def orbit_angle_check(phi, k: float, L3: float, traj: dyn.Trajectory) -> float:
    """Orbit-angle formula for the Kepler potential with scale profile phi:

        theta = sigma (L3/k) sqrt(2 (I + k phi/r)) + theta0

    I is the quadratic invariant of that potential evaluated at the first
    sample.  The branch sign sigma flips at turning points of phi/r, so it
    and theta0 are fitted per monotone branch.  A turning point landing on
    a sample (in particular, a circular orbit, where every sample is one)
    leaves sigma undetermined there and raises BranchAmbiguity.
    """
    phi = as_fn(phi)
    pv = np.broadcast_to(np.asarray(phi(traj.t), dtype=float), traj.t.shape)
    pd = np.broadcast_to(np.asarray(phi.d()(traj.t), dtype=float), traj.t.shape)
    B = pv * traj.rdot - pd * traj.r
    I0 = 0.5 * B[0] ** 2 - k * pv[0] / traj.r[0]
    if L3 == 0.0:
        return float(np.max(np.abs(traj.theta - traj.theta[0])))
    scale = max(1.0, float(np.max(np.abs(B))))
    if np.any(np.abs(B) <= 1e-12 * scale):
        raise BranchAmbiguity(
            "turning point of phi/r falls on a sample; perturb the stride")
    amp = (L3 / k) * np.sqrt(np.maximum(2.0 * (I0 + k * pv / traj.r), 0.0))
    sgn = np.sign(B)
    worst = [0.0]  # the better sigma's deviation per branch; numpy keeps a nan
    start = 0
    while start < len(B):
        stop = start + 1
        while stop < len(B) and sgn[stop] == sgn[start]:
            stop += 1
        th = traj.theta[start:stop]
        a = amp[start:stop]
        if len(th) > 1:
            worst.append(np.min([np.max(np.abs(sigma * a + (th[0] - sigma * a[0]) - th))
                                 for sigma in (1.0, -1.0)]))
        start = stop
    return float(np.max(worst))


def lewis_leach_report(fam: LewisLeach1d, s0: dyn.PolarState,
                       t_end: float) -> VerificationReport:
    """Profile-condition residuals plus invariant drift for the 1d system.

    Both bracket readings of the invariant are evaluated along the same
    trajectory: the coordinate-rate reading gates the report, the
    profile-rate reading is recorded as informational evidence that it is
    not conserved.  Profiles that fail their conditions carry no conserved
    invariant, so such a report holds the two condition checks alone and
    nothing is integrated.
    """
    ts = np.linspace(min(s0.t, t_end), max(s0.t, t_end), 41)
    with np.errstate(all="ignore"):  # an inf or nan residual fails its check
        res1, res2 = ermakov_residuals(fam.rho, fam.alpha, fam.Omega, fam.F1,
                                       fam.k, ts)
    checks = {"ermakov-profile": check(res1, _PROFILE_TOL),
              "ermakov-center": check(res2, _PROFILE_TOL)}
    if not all(c.passed for c in checks.values()):
        return VerificationReport(checks)
    traj = dyn.integrate(fam, s0, t_end)
    drift = dyn.drift_report(traj, fam.fi)
    literal = dyn.drift_report(traj, fam.fi_profile_rate)
    return VerificationReport({
        **checks,
        "invariant-drift": check(drift, _DRIFT_TOL),
        "literal-bracket-drift": check(literal, _DRIFT_TOL, required=False),
    })


class PerturbedPotential(_CentralFamily):
    """Negative control: adds eps * r^3 to the effective potential while
    keeping the invariant-side data (profiles, K) untouched, so every
    defining-condition check must fail by a commensurate margin."""

    def __init__(self, fam, eps: float = 1e-3):
        self._fam = fam
        self.eps = float(eps)
        self.label = f"{getattr(fam, 'label', 'family')}-perturbed"

    def __getattr__(self, name):
        return getattr(self._fam, name)

    @property
    def radial(self):
        return self._fam.radial

    def U(self, t, r):
        return self._fam.U(t, r) + self.eps * r**3

    def dU_dr(self, t, r):
        return self._fam.dU_dr(t, r) + 3.0 * self.eps * r * r

    def d2U_dr2(self, t, r):
        return self._fam.d2U_dr2(t, r) + 6.0 * self.eps * r

    def d2U_dtdr(self, t, r):
        return self._fam.d2U_dtdr(t, r)


class MismatchedShapeFamily(FamilyB):
    """Negative control: rescales the shape argument on the invariant side
    only (K and its partials), leaving the potential of `fam` untouched."""

    def __init__(self, fam: FamilyB, scale: float = 1.01):
        super().__init__(fam.g1, fam.g2, sf.compose(fam.F, sf.poly(0.0, scale)),
                         fam.L3, fam.t0, label=f"{fam.label}-mismatched")
        self._fam = fam

    def U(self, t, r):
        return self._fam.U(t, r)

    def dU_dr(self, t, r):
        return self._fam.dU_dr(t, r)

    def d2U_dr2(self, t, r):
        return self._fam.d2U_dr2(t, r)

    def d2U_dtdr(self, t, r):
        return self._fam.d2U_dtdr(t, r)

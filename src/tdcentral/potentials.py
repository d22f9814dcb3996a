"""The two integrable families of time-dependent central potentials.

Family with a linear first integral (profile g2(t) != 0, free g(t)):

    V(t,r) = -(g2''/2g2) r^2 + (g'/g2) r - L3^2/(2r^2)

Family with a quadratic first integral (profile g1(t) > 0, g2(t), shape F):

    V(t,r) = [ (g1'/g1)^2/8 - g1''/(4g1) ] r^2
             + (1/2g1) (g2' - g2 g1'/(2g1)) r
             + (1/2g1) F(s) - L3^2/(2r^2),
    s(t,r) = g1^{-1/2} r + (1/2) int_{t0}^{t} g1^{-3/2} g2 dtau.

A one-dimensional companion system (LewisLeach1d) with

    U(t,q) = (1/2) Omega^2 q^2 - F1 q + rho^{-2} G((q - alpha)/rho)

is included; its profiles must satisfy the Ermakov-Pinney pair checked by
`ermakov_residuals`.

All three share the shape of the effective potential U = V + L3^2/(2r^2)
(the centrifugal term cancels exactly for these families):

    U(t,r) = A(t) r^2 + B(t) r + C(t) F(P(t) r + Q(t)),

with C = 0 for the linear family.  Each family hands its trees A, B, C, P,
Q and shape F to `_CentralFamily`, the one place that evaluates U, V and
the exact partials the residual checks and the integrator need.  Each
family also carries its invariant `fi(t, r, rdot)` and, for the two
central families, the auxiliary function K(t,r) with its partials.  All
time profiles are ScalarFn trees, so every partial is evaluated from an
exact derivative tree rather than finite differences.  dU_dr, the
integrator's right-hand side, is one compiled function of (t, r) per
family, with the subtrees its five coefficient trees share computed once.

A family exists only where its defining profile is regular (g2 != 0,
g1 > 0, rho > 0); `fam.check_span(lo, hi)` raises InvalidParameters when
that fails on the closed span a caller integrates or samples.

`preset(name, ...)` builds the named physical instances (oscillator,
generalized Kepler, shrinking/expanding Kepler orbit family, variable-mass
binary, screened Coulomb, pair potential, ...) on top of the two families;
it checks parameter types, not profiles.
"""

from __future__ import annotations

import inspect
import math
import numbers
import sys
from dataclasses import dataclass
from functools import cached_property, reduce

import numpy as np
from numpy.polynomial import polynomial as npoly

from . import scalarfn as sf
from .errors import DomainError, InvalidParameters, UnknownPreset
from .scalarfn import ScalarFn, _is_number, as_fn

__all__ = [
    "FamilyA", "FamilyB", "LewisLeach1d", "Preset", "preset", "catalog", "check_profile",
    "ermakov_residuals", "mass_profile", "classify_mass_profile", "omega_profile",
    "oscillator_shape", "kepler_shape", "scaled_kepler_shape",
    "yukawa_shape", "interatomic_shape",
]

_U = sf.T  # shape functions are trees over their own single argument


def _check_radius(r):
    bad = (r <= 0.0) if isinstance(r, (int, float)) else bool(np.any(np.asarray(r) <= 0.0))
    if bad:
        raise DomainError("radius must be positive")


_MAX_DEGREE = 32  # a larger polynomial takes the sampled test


def _coeffs(f: ScalarFn):
    """Coefficients of f, lowest order first, when f is a polynomial in t of
    degree at most _MAX_DEGREE with finite coefficients: constants, t and
    Poly nodes joined by sums, products and integer powers; otherwise None."""
    if isinstance(f, sf.Const):
        c = [f.value]
    elif isinstance(f, (sf.Var, sf.Poly)):
        c = getattr(f, "coeffs", [0.0, 1.0])  # Var is the polynomial t
    elif isinstance(f, (sf.Sum, sf.Product)):
        parts = [_coeffs(g) for g in f._children()]
        if any(c is None for c in parts):
            return None
        c = reduce(npoly.polyadd if isinstance(f, sf.Sum) else npoly.polymul, parts)
    elif isinstance(f, sf.Power) and f.expo in range(2, _MAX_DEGREE + 1) \
            and (f.lo, f.hi) == (-math.inf, math.inf):
        c = _coeffs(f.base)
        if c is None:
            return None
        c = npoly.polypow(c, int(f.expo), _MAX_DEGREE)
    else:
        return None
    c = np.array(c, dtype=float)
    return c if len(c) <= _MAX_DEGREE + 1 and np.isfinite(c).all() else None


def check_profile(f: ScalarFn, lo, hi, positive: bool, where: str) -> None:
    """Raise InvalidParameters, its message starting with `where`, if profile f
    has a zero (or, when `positive`, a negative value) on the closed span
    between lo and hi: a polynomial is tested at the span ends and its real
    roots, any other tree at 65 samples, where a DomainError or a value
    beyond the double range also counts."""
    lo, hi = sorted((float(lo), float(hi)))
    where = f"{where} = {sf.to_text(f)} on [{lo:.12g}, {hi:.12g}]"
    c = _coeffs(f)
    ts = np.linspace(lo, hi, 65) if c is None else np.sort(
        [lo, hi, *(x.real for x in npoly.polyroots(c) if lo <= x.real <= hi)])
    with np.errstate(all="ignore"):
        try:
            vals = np.broadcast_to(f(ts), ts.shape)
        except DomainError as e:
            raise InvalidParameters(f"{where}: {e}") from e
        tol = 0.0 if c is None else 1e-12 * npoly.polyval(np.abs(ts), np.abs(c))
    huge = ~(np.isfinite(vals) & np.isfinite(tol))
    if huge.any():
        raise InvalidParameters(f"{where}: is not finite at t = {ts[huge.argmax()] + 0.0:.12g}")
    bad = (np.abs(vals) <= tol) | (np.sign(vals) != np.sign(vals[0]))
    if bad.any():
        at = "at or before" if c is None else "at"
        raise InvalidParameters(f"{where}: vanishes {at} t = {ts[bad.argmax()] + 0.0:.12g}")
    if positive and vals[0] < 0.0:
        raise InvalidParameters(
            f"{where}: must be positive, is {vals[0]:.12g} at t = {lo:.12g}")


class _CentralFamily:
    """U = A(t) r^2 + B(t) r + C(t) F(P(t) r + Q(t)) with its exact partials,
    and V = U - L3^2/(2 r^2); each family supplies its trees to `_potential`.
    """

    radial = True  # coordinate restricted to r > 0

    def check_span(self, lo, hi):
        """`check_profile` of the profile named by `defining`."""
        name, positive = self.defining
        check_profile(getattr(self, name), lo, hi, positive, f"{self.label}: profile {name}")

    def _potential(self, A, B, C, F, P, Q):
        A, B, C, self.F, P, Q = map(as_fn, (A, B, C, F, P, Q))
        self._A, self._B, self._C, self._P, self._Q = A, B, C, P, Q
        self.F_d = self.F.d()
        # a constant-zero C leaves U quadratic in r: skip the shape term
        self._shaped = not (isinstance(C, sf.Const) and C.value == 0.0)

    # the trees only d2U_dr2, d2U_dtdr and dK_dt read, built on first use
    _A_d = cached_property(lambda self: self._A.d())
    _B_d = cached_property(lambda self: self._B.d())
    _C_d = cached_property(lambda self: self._C.d())
    _P_d = cached_property(lambda self: self._P.d())
    _Q_d = cached_property(lambda self: self._Q.d())
    F_dd = cached_property(lambda self: self.F_d.d())

    def _guard(self, r):
        if self.radial:
            _check_radius(r)

    def arg(self, t, r):
        """Shape-function argument s(t,r)."""
        return self._P(t) * r + self._Q(t)

    def U(self, t, r):
        self._guard(r)
        u = self._A(t) * r * r + self._B(t) * r
        return u + self._C(t) * self.F(self.arg(t, r)) if self._shaped else u

    # compiled dU_dr, built on the first call with two numbers / with anything else
    _dU_dr_scalar = _dU_dr_array = None

    def dU_dr(self, t, r):
        if type(t) is float and type(r) is float:  # the integrator's call: the lean path
            if r <= 0.0 and self.radial:
                raise DomainError("radius must be positive")
            return (self._dU_dr_scalar or self._compile_dU_dr(False))(t, r)
        self._guard(r)
        if _is_number(t) and _is_number(r):
            return (self._dU_dr_scalar or self._compile_dU_dr(False))(float(t), float(r))
        return (self._dU_dr_array or self._compile_dU_dr(True))(np.asarray(t, dtype=float), r)

    def _compile_dU_dr(self, array: bool):
        """2 A r + B + C F'(P r + Q) P in U's order and association, by one _Compiler;
        the array version calls F' by its own dispatch (s is a number at 0-d t, r)."""
        cc = sf._Compiler(array)
        u = f"{cc.bind(2.0)} * {cc.value(self._A, 't')} * r + {cc.value(self._B, 't')}"
        if self._shaped:
            c, p, q = (cc.value(f, "t") for f in (self._C, self._P, self._Q))
            cc.lines.append(f"s = {p} * r + {q}")
            fd = f"{cc.bind(self.F_d)}(s)" if array else cc.value(self.F_d, "s")
            u = f"{u} + {c} * {fd} * {p}"
        fn = cc.define("t, r", u)
        setattr(self, "_dU_dr_array" if array else "_dU_dr_scalar", fn)
        return fn

    def d2U_dr2(self, t, r):
        self._guard(r)
        u = 2.0 * self._A(t)
        if not self._shaped:
            return u + 0.0 * r  # broadcast to the shape of r
        return u + self._C(t) * self.F_dd(self.arg(t, r)) * self._P(t)**2

    def d2U_dtdr(self, t, r):
        self._guard(r)
        u = 2.0 * self._A_d(t) * r + self._B_d(t)
        if not self._shaped:
            return u
        s = self.arg(t, r)
        st = self._P_d(t) * r + self._Q_d(t)  # ds/dt at fixed r
        return (u + self._C_d(t) * self.F_d(s) * self._P(t)
                + self._C(t) * self.F_dd(s) * st * self._P(t)
                + self._C(t) * self.F_d(s) * self._P_d(t))

    def V(self, t, r):
        self._guard(r)
        c = 0.5 * self.L3**2
        return self.U(t, r) - c * r**-2 if c else self.U(t, r)

    def dV_dr(self, t, r):
        self._guard(r)
        c = self.L3**2
        return self.dU_dr(t, r) + c * r**-3 if c else self.dU_dr(t, r)


class FamilyA(_CentralFamily):
    """Potential admitting a linear invariant g2*rdot - g2'*r + g.

    g2 must not vanish on the span of a run (`check_span`); evaluation
    raises DomainError at a zero of g2 whenever a division by g2 survives in
    the coefficient trees (a zero numerator folds to the exact zero limit).
    """

    kind = "linear-invariant"
    defining = ("g2", False)

    def __init__(self, g2, g=0.0, L3: float = 0.0, label: str = "family-a"):
        self.g2 = as_fn(g2)
        self.g = as_fn(g)
        self.L3 = float(L3)
        self.label = label
        # uniform protocol with the quadratic family: g1 identically zero
        self.g1 = sf.const(0.0)
        self.g1_d = sf.const(0.0)
        self.g1_dd = sf.const(0.0)
        self.g1_ddd = sf.const(0.0)
        self.g2_d = self.g2.d()
        self.g2_dd = self.g2_d.d()
        self.g_d = self.g.d()
        self._potential(sf.mul(-0.5, sf.div(self.g2_dd, self.g2)),
                        sf.div(self.g_d, self.g2), 0.0, 0.0, 0.0, 0.0)

    def fi(self, t, r, rdot):
        """Linear invariant of the g2/g family."""
        return self.g2(t) * rdot - self.g2_d(t) * r + self.g(t)

    def K(self, t, r):
        return -self.g2_d(t) * r + self.g(t)

    def dK_dr(self, t, r):
        return -self.g2_d(t) + 0.0 * r

    def dK_dt(self, t, r):
        return -self.g2_dd(t) * r + self.g_d(t)


class FamilyB(_CentralFamily):
    """Potential admitting a quadratic invariant, built from g1 > 0, g2, F.

    t0 fixes the lower limit of the profile integral entering the shape
    argument s(t,r); shifting t0 shifts s by a constant absorbable into F.
    """

    kind = "quadratic-invariant"
    defining = ("g1", True)

    def __init__(self, g1, g2=0.0, F=0.0, L3: float = 0.0, t0: float = 0.0,
                 label: str = "family-b"):
        self.g1 = as_fn(g1)
        self.g2 = as_fn(g2)
        self.L3 = float(L3)
        self.t0 = float(t0)
        self.label = label
        self.g1_d = self.g1.d()
        self.g1_dd = self.g1_d.d()
        self.g1_ddd = self.g1_dd.d()
        self.g2_d = self.g2.d()
        self.g2_dd = self.g2_d.d()
        ratio = sf.div(self.g1_d, self.g1)
        self._potential(
            sf.sub(sf.mul(0.125, sf.power(ratio, 2)),
                   sf.div(self.g1_dd, sf.mul(4.0, self.g1))),
            sf.div(sf.sub(self.g2_d,
                          sf.div(sf.mul(self.g2, self.g1_d), sf.mul(2.0, self.g1))),
                   sf.mul(2.0, self.g1)),
            sf.div(1.0, sf.mul(2.0, self.g1)),
            F,
            sf.power(self.g1, -0.5),
            sf.antiderivative(sf.mul(0.5, sf.power(self.g1, -1.5), self.g2),
                              self.t0))

    def fi(self, t, r, rdot):
        """Quadratic invariant of the g1/g2/F family (same s(t,r) as the potential)."""
        g1 = self.g1(t)
        w = self.g1_d(t) * r - self.g2(t)
        return (g1 * rdot * rdot + (self.g2(t) - self.g1_d(t) * r) * rdot
                + self.F(self.arg(t, r)) + w * w / (4.0 * g1))

    def K(self, t, r):
        w = self.g1_d(t) * r - self.g2(t)
        return self.F(self.arg(t, r)) + w * w / (4.0 * self.g1(t))

    def dK_dr(self, t, r):
        w = self.g1_d(t) * r - self.g2(t)
        return self.F_d(self.arg(t, r)) * self._P(t) + w * self.g1_d(t) / (2.0 * self.g1(t))

    def dK_dt(self, t, r):
        g1 = self.g1(t)
        w = self.g1_d(t) * r - self.g2(t)
        st = self._P_d(t) * r + self._Q_d(t)
        return (self.F_d(self.arg(t, r)) * st
                + w * (self.g1_dd(t) * r - self.g2_d(t)) / (2.0 * g1)
                - w * w * self.g1_d(t) / (4.0 * g1 * g1))


class LewisLeach1d(_CentralFamily):
    """One-dimensional oscillator-type system with a quadratic invariant.

    U(t,q) = (1/2) Omega^2 q^2 - F1 q + rho^{-2} G((q-alpha)/rho); the
    profiles must satisfy the Ermakov-Pinney conditions (see
    ermakov_residuals) for the invariant to be conserved.  The bracket in
    the invariant is sometimes written with the profile rate rho' where
    only the coordinate rate q' keeps it conserved; `fi` uses the
    conserved q' reading and `fi_profile_rate` keeps the profile-rate
    variant for comparison.
    """

    kind = "lewis-leach-invariant"
    defining = ("rho", True)
    radial = False

    def __init__(self, rho, alpha=0.0, Omega=0.0, F1=0.0, G=0.0, k: float = 0.0,
                 label: str = "lewis-leach"):
        self.rho = as_fn(rho)
        self.alpha = as_fn(alpha)
        self.Omega = as_fn(Omega)
        self.F1 = as_fn(F1)
        self.G = as_fn(G)
        self.k = float(k)
        self.L3 = 0.0
        self.label = label
        self.rho_d = self.rho.d()
        self.alpha_d = self.alpha.d()
        # shape argument w = (q - alpha)/rho = q/rho - alpha/rho
        self._potential(sf.mul(0.5, sf.power(self.Omega, 2)), sf.neg(self.F1),
                        sf.power(self.rho, -2), self.G, sf.div(1.0, self.rho),
                        sf.neg(sf.div(self.alpha, self.rho)))

    def fi(self, t, q, qdot):
        """Conserved invariant (coordinate-rate reading of the bracket)."""
        w = self.arg(t, q)
        bracket = self.rho(t) * (qdot - self.alpha_d(t)) - self.rho_d(t) * (q - self.alpha(t))
        return 0.5 * bracket**2 + 0.5 * self.k * w * w + self.G(w)

    def fi_profile_rate(self, t, q, qdot):
        """Literal variant with the profile rate in the bracket; not conserved."""
        w = self.arg(t, q)
        bracket = self.rho(t) * (self.rho_d(t) - self.alpha_d(t)) \
            - self.rho_d(t) * (q - self.alpha(t))
        return 0.5 * bracket**2 + 0.5 * self.k * w * w + self.G(w)


def ermakov_residuals(rho, alpha, Omega, F1, k: float, t):
    """Residuals of the two profile conditions of the 1d system.

    Returns (rho'' + Omega^2 rho - k/rho^3, alpha'' + Omega^2 alpha - F1)
    at time t; both vanish for admissible profiles.
    """
    rho = as_fn(rho)
    alpha = as_fn(alpha)
    Omega = as_fn(Omega)
    F1 = as_fn(F1)
    # numpy values, so that a power beyond the double range is inf, not OverflowError
    rv = np.broadcast_to(np.asarray(rho(t), dtype=float), np.shape(t))
    if np.any(rv == 0.0):
        raise DomainError("rho vanishes at the requested time")
    om2 = Omega(t) ** 2
    res1 = rho.d().d()(t) + om2 * rv - k / rv**3
    res2 = alpha.d().d()(t) + om2 * alpha(t) - F1(t)
    return res1, res2


# ---------------------------------------------------------------------------
# shape functions (single-argument trees over u)
# ---------------------------------------------------------------------------

_POS = (0.0, math.inf)


def _inv_power(p: float) -> ScalarFn:
    return sf.power(_U, -float(p), _POS)


def oscillator_shape(c0: float, L3: float) -> ScalarFn:
    """F(u) = (c0/2) u^2 + L3^2 u^{-2}."""
    return sf.add(sf.mul(0.5 * c0, sf.power(_U, 2)), sf.mul(L3**2, _inv_power(2)))


def kepler_shape(nu: float, k: float, b0: float, b1: float, b2: float,
                 L3: float) -> ScalarFn:
    """Shape reproducing -omega_nu(t)/r^nu with quadratic profile g1 = G/2."""
    k1 = 0.5 * b0 * b2 - b1**2 / 8.0
    return sf.add(sf.mul(0.5 * k1, sf.power(_U, 2)),
                  sf.mul(-k * 2.0 ** (0.5 * nu), _inv_power(nu)),
                  sf.mul(L3**2, _inv_power(2)))


def scaled_kepler_shape(k: float) -> ScalarFn:
    """F(u) = -k sqrt(2)/u; the orbit family's shape (no centrifugal part)."""
    return sf.mul(-k * math.sqrt(2.0), _inv_power(1))


def yukawa_shape(k: float, c1: float, L3: float) -> ScalarFn:
    """F(u) = -(c1/4) u^2 + L3^2 u^{-2} + 2k e^{-u}/u."""
    return sf.add(sf.mul(-0.25 * c1, sf.power(_U, 2)),
                  sf.mul(L3**2, _inv_power(2)),
                  sf.div(sf.mul(2.0 * k, sf.exp(sf.neg(_U))), _U, _POS))


def interatomic_shape(k1: float, k2: float, m: float, n: float, c1: float,
                      L3: float) -> ScalarFn:
    """F(u) = -(c1/4) u^2 + L3^2 u^{-2} + 2 k1 u^{-m} - 2 k2 u^{-n}."""
    return sf.add(sf.mul(-0.25 * c1, sf.power(_U, 2)),
                  sf.mul(L3**2, _inv_power(2)),
                  sf.mul(2.0 * k1, _inv_power(m)),
                  sf.mul(-2.0 * k2, _inv_power(n)))


# ---------------------------------------------------------------------------
# profile helpers for the variable-mass binary
# ---------------------------------------------------------------------------

def omega_profile(nu: float, k: float, b0: float, b1: float, b2: float) -> ScalarFn:
    """omega_nu(t) = k (b0 + b1 t + b2 t^2)^{(nu-2)/2}."""
    quad = sf.poly(b0, b1, b2)
    return sf.mul(k, sf.power(quad, 0.5 * (nu - 2.0)))


def mass_profile(b0: float, b1: float, b2: float) -> ScalarFn:
    """m(t) = (b0 + b1 t + b2 t^2)^{-1/2}."""
    return sf.power(sf.poly(b0, b1, b2), -0.5)


def classify_mass_profile(b0: float, b1: float, b2: float, tol: float = 1e-12) -> str:
    """Which degenerate form the mass law takes."""
    if abs(b2) <= tol and abs(b1) <= tol:
        return "constant"
    disc = b1 * b1 - 4.0 * b0 * b2
    if abs(b2) <= tol:
        return "inverse-sqrt-linear"
    if abs(disc) <= tol:
        return "inverse-linear"
    return "inverse-sqrt-quadratic"


# ---------------------------------------------------------------------------
# presets
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Preset:
    name: str
    family: object
    params: dict
    description: str


def _build_free_particle(L3=0.0):
    return FamilyA(1.0, 0.0, L3, label="free-particle")


def _build_linear_lfi(g2="(poly 1 0 0.1)", g="0", L3=0.0):
    return FamilyA(g2, g, L3, label="linear-lfi")


def _build_oscillator(g1="(poly 1 0 1)", c0=0.0, L3=0.0):
    return FamilyB(g1, 0.0, oscillator_shape(c0, L3), L3, label="oscillator")


def _build_generalized_kepler(nu=1.0, k=1.0, b0=1.0, b1=0.0, b2=0.0, L3=0.0,
                              label="generalized-kepler"):
    g1 = sf.poly(0.5 * b0, 0.5 * b1, 0.5 * b2)
    return FamilyB(g1, 0.0, kepler_shape(nu, k, b0, b1, b2, L3), L3, label=label)


def _build_scaled_kepler(phi="(sqrt (poly 1 0 1))", k=1.0, L3=0.0):
    g1 = sf.mul(0.5, sf.power(as_fn(phi), 2))
    return FamilyB(g1, 0.0, scaled_kepler_shape(k), L3, label="scaled-kepler")


def _build_binary(G=1.0, b0=1.0, b1=0.0, b2=0.0, L3=0.0):
    return _build_generalized_kepler(1.0, G, b0, b1, b2, L3, label="binary")


def _build_yukawa(k=1.0, b0=1.0, b1=0.0, b2=0.0, L3=0.0):
    c1 = b1 * b1 - 4.0 * b2 * b0
    g1 = sf.poly(b0, b1, b2)
    return FamilyB(g1, 0.0, yukawa_shape(k, c1, L3), L3, label="yukawa")


def _build_interatomic(k1=1.0, k2=1.0, m=12.0, n=6.0, b0=1.0, b1=0.0, b2=0.0,
                       L3=0.0):
    if m <= 0 or n <= 0:
        raise InvalidParameters("interatomic: exponents m, n must be positive")
    c1 = b1 * b1 - 4.0 * b2 * b0
    g1 = sf.poly(b0, b1, b2)
    return FamilyB(g1, 0.0, interatomic_shape(k1, k2, m, n, c1, L3), L3,
                   label="interatomic")


def _build_lewis_leach(rho="(sqrt (poly 1 0 1))", alpha="0", Omega="0", F1="0",
                       G="(* 0.5 (pow t -2 0 inf))", k=1.0):
    return LewisLeach1d(rho, alpha, Omega, F1, G, k)


_REGISTRY = {
    "free-particle": (
        _build_free_particle,
        "no force; pure centrifugal V = -L3^2/(2r^2) with a conserved radial momentum",
    ),
    "linear-lfi": (
        _build_linear_lfi,
        "general linear-invariant family: V = -(g2''/2g2) r^2 + (g'/g2) r - L3^2/(2r^2)",
    ),
    "oscillator": (
        _build_oscillator,
        "time-dependent harmonic r^2 potential driven by a positive profile g1(t)",
    ),
    "generalized-kepler": (
        _build_generalized_kepler,
        "power-law potential -omega(t)/r^nu with omega = k (b0+b1 t+b2 t^2)^{(nu-2)/2}",
    ),
    "scaled-kepler": (
        _build_scaled_kepler,
        "Kepler potential -k/(phi r) plus an r^2 term from the scale profile phi(t)",
    ),
    "binary": (
        _build_binary,
        "two-body problem with variable mass m(t) = (b0+b1 t+b2 t^2)^{-1/2}, V = -G m(t)/r",
    ),
    "yukawa": (
        _build_yukawa,
        "screened Coulomb potential k e^{-r/sqrt(g1)}/(sqrt(g1) r) with quadratic g1(t)",
    ),
    "interatomic": (
        _build_interatomic,
        "pair potential k1 g1^{(m-2)/2}/r^m - k2 g1^{(n-2)/2}/r^n (Lennard-Jones at 12,6)",
    ),
    "lewis-leach": (
        _build_lewis_leach,
        "1d oscillator-type system with Ermakov-Pinney profiles and a quadratic invariant",
    ),
}


def preset(name: str, **params) -> Preset:
    """Instantiate a named preset; raises UnknownPreset / InvalidParameters."""
    try:
        builder, description = _REGISTRY[name]
    except KeyError:
        raise UnknownPreset(name) from None
    sig = inspect.signature(builder).parameters
    unknown = set(params) - set(sig)
    if unknown:
        raise InvalidParameters(f"{name}: unknown parameters {sorted(unknown)}")
    for key, value in params.items():  # a numeric default takes a finite double
        if isinstance(sig[key].default, float) and (
                isinstance(value, bool) or not isinstance(value, numbers.Real)
                or not abs(value) <= sys.float_info.max):
            raise InvalidParameters(f"{name}: parameter {key!r} must be a finite number")
    try:
        family = builder(**params)
    except DomainError as e:  # a constant profile outside its domain
        raise InvalidParameters(f"{name}: {e}") from e
    return Preset(name, family, params, description)


def catalog() -> list[tuple[str, str]]:
    """(name, description) pairs for every registered preset."""
    return [(name, desc) for name, (_, desc) in sorted(_REGISTRY.items())]

"""Scalar functions of one real variable, represented as expression trees.

The rest of the package manipulates time profiles such as g1(t), g2(t) or
shape functions F(u) both numerically and structurally: it needs exact
derivatives up to third order (finite differencing would poison residual
checks near 1e-13) and definite integrals of combinations of profiles.
A small closed expression language covers everything required:

    Const, Var (the argument itself), Poly, Sum, Product, Quotient,
    Power (real exponent), Exp, Compose, Antiderivative.

Every node can evaluate itself at a float or an ndarray, and can produce
its derivative as another tree (``.d()``), so n-th derivatives are exact
up to rounding in evaluation.  Trees are immutable; building functions
goes through the folding constructors (``add``, ``mul``, ``div``, ...)
which collapse constants and keep a canonical shape, so structural
equality is usable in tests.

Domains are explicit: Quotient and Power carry an optional open interval
for their *input value*; evaluation outside it, or at a zero denominator
or invalid base, raises DomainError rather than returning NaN/Inf.

Definite integration uses an adaptive Gauss-Legendre pair (10 and 21
nodes per panel, bisection on the worst panel) and raises ToleranceNotMet
instead of silently returning a bad value.  Antiderivative nodes make
t -> integral_{t0}^{t} f of a tree.  They fill a short table of spectral
panels outward from t0, each accepted by the same 10/21-node gauge and
twice as wide as the last where f is smooth, and hold the Chebyshev series
of the integral on each panel.  A lookup is one Clenshaw pass for a float
or an ndarray alike, its cost does not grow with |t - t0|, and values do
not depend on evaluation order.

Expressions serialise to a small s-expression text form (``to_text`` /
``parse``) with an exact round trip for canonical trees.
"""

from __future__ import annotations

import bisect
import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, ParseError, ToleranceNotMet

__all__ = [
    "ScalarFn", "Const", "Var", "Poly", "Sum", "Product", "Quotient",
    "Power", "Exp", "Compose", "Antiderivative",
    "T", "const", "poly", "add", "sub", "mul", "neg", "div",
    "power", "sqrt", "exp", "compose", "antiderivative", "as_fn",
    "deriv", "integrate", "QuadratureConfig", "to_text", "parse",
]


def _is_number(x) -> bool:
    return isinstance(x, (int, float, np.integer, np.floating)) and not isinstance(x, bool)


def _fmt(c: float) -> str:
    # repr of a float round-trips exactly; integers print without the dot
    f = float(c)
    if f.is_integer() and abs(f) < 1e16:
        return str(int(f))
    return repr(f)


class ScalarFn:
    """Base class for expression nodes. Instances are immutable."""

    __array_ufunc__ = None  # keep ndarray ops from swallowing our overloads

    def _eval(self, t):
        raise NotImplementedError

    def _diff(self) -> "ScalarFn":
        raise NotImplementedError

    def __call__(self, t):
        if _is_number(t):
            return self._eval(float(t))
        return self._eval(np.asarray(t, dtype=float))

    def d(self) -> "ScalarFn":
        """Derivative as a new tree. Cached per node."""
        dt = getattr(self, "_dtree", None)
        if dt is None:
            dt = self._diff()
            object.__setattr__(self, "_dtree", dt)
        return dt

    # -- structural equality ------------------------------------------------

    def _signature(self):
        """(scalar fields...) excluding children; children via _children."""
        return ()

    def _children(self):
        return ()

    def __eq__(self, other):
        if type(self) is not type(other):
            return NotImplemented if not isinstance(other, ScalarFn) else False
        if self._signature() != other._signature():
            return False
        ca, cb = self._children(), other._children()
        return len(ca) == len(cb) and all(x == y for x, y in zip(ca, cb))

    __hash__ = None

    def __repr__(self):
        return to_text(self)

    # -- operator sugar ------------------------------------------------------

    def __add__(self, other):
        return add(self, as_fn(other))

    __radd__ = __add__

    def __sub__(self, other):
        return sub(self, as_fn(other))

    def __rsub__(self, other):
        return sub(as_fn(other), self)

    def __mul__(self, other):
        return mul(self, as_fn(other))

    __rmul__ = __mul__

    def __truediv__(self, other):
        return div(self, as_fn(other))

    def __rtruediv__(self, other):
        return div(as_fn(other), self)

    def __neg__(self):
        return neg(self)

    def __pow__(self, p):
        if not _is_number(p):
            return NotImplemented
        return power(self, float(p))


@dataclass(frozen=True, eq=False)
class Const(ScalarFn):
    value: float

    def _eval(self, t):
        return self.value

    def _diff(self):
        return Const(0.0)

    def _signature(self):
        return (self.value,)


@dataclass(frozen=True, eq=False)
class Var(ScalarFn):
    """The identity map t -> t."""

    def _eval(self, t):
        return t

    def _diff(self):
        return Const(1.0)


@dataclass(frozen=True, eq=False)
class Poly(ScalarFn):
    """c0 + c1 t + c2 t^2 + ... evaluated by Horner's rule."""

    coeffs: tuple

    def _eval(self, t):
        acc = self.coeffs[-1]
        for c in reversed(self.coeffs[:-1]):
            acc = acc * t + c
        return acc

    def _diff(self):
        dc = [i * c for i, c in enumerate(self.coeffs)][1:]
        return poly(*dc)

    def _signature(self):
        return (self.coeffs,)


@dataclass(frozen=True, eq=False)
class Sum(ScalarFn):
    terms: tuple

    def _eval(self, t):
        acc = self.terms[0]._eval(t)
        for f in self.terms[1:]:
            acc = acc + f._eval(t)
        return acc

    def _diff(self):
        return add(*(f.d() for f in self.terms))

    def _children(self):
        return self.terms


@dataclass(frozen=True, eq=False)
class Product(ScalarFn):
    factors: tuple

    def _eval(self, t):
        acc = self.factors[0]._eval(t)
        for f in self.factors[1:]:
            acc = acc * f._eval(t)
        return acc

    def _diff(self):
        fs = self.factors
        terms = []
        for i in range(len(fs)):
            terms.append(mul(*(fs[j] if j != i else fs[j].d() for j in range(len(fs)))))
        return add(*terms)

    def _children(self):
        return self.factors


def _interval_ok(x, lo, hi) -> bool:
    if isinstance(x, float):
        return lo < x < hi
    return bool(np.all((x > lo) & (x < hi)))


@dataclass(frozen=True, eq=False)
class Quotient(ScalarFn):
    """num/den with an optional open interval constraint on the *argument*."""

    num: ScalarFn
    den: ScalarFn
    lo: float = -math.inf
    hi: float = math.inf

    def _eval(self, t):
        if not _interval_ok(t, self.lo, self.hi):
            raise DomainError(f"argument outside ({self.lo}, {self.hi}) for {self!r}")
        dv = self.den._eval(t)
        if (dv == 0.0) if isinstance(dv, float) else bool(np.any(dv == 0.0)):
            raise DomainError(f"zero denominator in {self!r}")
        return self.num._eval(t) / dv

    def _diff(self):
        n, dn = self.num, self.den
        return Quotient(sub(mul(n.d(), dn), mul(n, dn.d())),
                        Product((dn, dn)), self.lo, self.hi)

    def _signature(self):
        return (self.lo, self.hi)

    def _children(self):
        return (self.num, self.den)


@dataclass(frozen=True, eq=False)
class Power(ScalarFn):
    """base(t)**expo for a fixed real expo, optional interval on the argument.

    Non-integer exponents require base > 0; negative exponents require
    base != 0.  Violations raise DomainError.
    """

    base: ScalarFn
    expo: float
    lo: float = -math.inf
    hi: float = math.inf

    def _eval(self, t):
        if not _interval_ok(t, self.lo, self.hi):
            raise DomainError(f"argument outside ({self.lo}, {self.hi}) for {self!r}")
        b = self.base._eval(t)
        p = self.expo
        scalar = isinstance(b, float)
        if not float(p).is_integer():
            bad = (b <= 0.0) if scalar else bool(np.any(b <= 0.0))
            if bad:
                raise DomainError(f"non-positive base under exponent {p} in {self!r}")
        elif p < 0:
            bad = (b == 0.0) if scalar else bool(np.any(b == 0.0))
            if bad:
                raise DomainError(f"zero base under exponent {p} in {self!r}")
        return b ** p

    def _diff(self):
        return mul(Const(self.expo),
                   Power(self.base, self.expo - 1.0, self.lo, self.hi),
                   self.base.d())

    def _signature(self):
        return (self.expo, self.lo, self.hi)

    def _children(self):
        return (self.base,)


@dataclass(frozen=True, eq=False)
class Exp(ScalarFn):
    arg: ScalarFn

    def _eval(self, t):
        x = self.arg._eval(t)
        return math.exp(x) if isinstance(x, float) else np.exp(x)

    def _diff(self):
        return mul(self, self.arg.d())

    def _children(self):
        return (self.arg,)


@dataclass(frozen=True, eq=False)
class Compose(ScalarFn):
    """outer(inner(t)). Domain checks of outer apply to inner's value."""

    outer: ScalarFn
    inner: ScalarFn

    def _eval(self, t):
        return self.outer._eval(self.inner._eval(t))

    def _diff(self):
        return mul(compose(self.outer.d(), self.inner), self.inner.d())

    def _children(self):
        return (self.outer, self.inner)


# ---------------------------------------------------------------------------
# adaptive quadrature
# ---------------------------------------------------------------------------

_GL_LOW_X, _GL_LOW_W = np.polynomial.legendre.leggauss(10)
_GL_HIGH_X, _GL_HIGH_W = np.polynomial.legendre.leggauss(21)


@dataclass(frozen=True)
class QuadratureConfig:
    """Tolerances and work limit of adaptive quadrature: `integrate`
    bisects at most max_subdivisions times, and an Antiderivative holds at
    most max_subdivisions panels on each side of t0."""

    rtol: float = 1e-12
    atol: float = 1e-13
    max_subdivisions: int = 200

    def __post_init__(self):
        if self.rtol <= 0 or self.atol <= 0:
            raise ValueError("quadrature tolerances must be positive")
        if self.max_subdivisions < 1:
            raise ValueError("max_subdivisions must be at least 1")


def _panel(f: ScalarFn, a: float, b: float):
    """21-node Gauss-Legendre estimate, |21-node - 10-node| error gauge and
    the integrand's values at the 21 nodes."""
    h = 0.5 * (b - a)
    m = 0.5 * (a + b)
    hi = f(m + h * _GL_HIGH_X)
    hi = np.broadcast_to(np.asarray(hi, dtype=float), _GL_HIGH_X.shape)
    val = h * float(_GL_HIGH_W @ hi)
    lo = f(m + h * _GL_LOW_X)
    lo = np.broadcast_to(np.asarray(lo, dtype=float), _GL_LOW_X.shape)
    return val, abs(val - h * float(_GL_LOW_W @ lo)), hi


def integrate(f: ScalarFn, a: float, b: float, cfg: QuadratureConfig | None = None) -> float:
    """Definite integral of f over [a, b] to the configured tolerance.

    Bisects the panel with the largest error estimate until the summed
    estimate meets max(atol, rtol*|integral|); raises ToleranceNotMet at
    the subdivision limit.  b < a gives the signed value.
    """
    if cfg is None:
        cfg = QuadratureConfig()
    a = float(a)
    b = float(b)
    if a == b:
        return 0.0
    sign = 1.0
    if b < a:
        a, b = b, a
        sign = -1.0
    val, err, _ = _panel(f, a, b)
    panels = [(err, a, b, val)]
    for _ in range(cfg.max_subdivisions):
        total = math.fsum(p[3] for p in panels)
        toterr = math.fsum(p[0] for p in panels)
        if toterr <= max(cfg.atol, cfg.rtol * abs(total)):
            return sign * total
        panels.sort(key=lambda p: p[0])
        _, x0, x1, _ = panels.pop()
        xm = 0.5 * (x0 + x1)
        vl, el, _ = _panel(f, x0, xm)
        vr, er, _ = _panel(f, xm, x1)
        panels.append((el, x0, xm, vl))
        panels.append((er, xm, x1, vr))
    total = math.fsum(p[3] for p in panels)
    toterr = math.fsum(p[0] for p in panels)
    if toterr <= max(cfg.atol, cfg.rtol * abs(total)):
        return sign * total
    raise ToleranceNotMet(
        f"quadrature error {toterr:.3e} over [{a}, {b}] after "
        f"{cfg.max_subdivisions} subdivisions (target {max(cfg.atol, cfg.rtol * abs(total)):.3e})")


# 21 Gauss-Legendre node values -> Chebyshev coefficients (on [-1, 1]) of the
# antiderivative of their degree-20 interpolant, vanishing at -1
_CUMSUM = np.polynomial.chebyshev.chebint(
    np.linalg.inv(np.polynomial.chebyshev.chebvander(_GL_HIGH_X, 20)), lbnd=-1)
_FIRST_WIDTH = 0.25     # width of the first panel on each side of t0
_MIN_WIDTH = 1e-12      # width floor, relative to max(1, |panel edge|)


def _clenshaw(c, x):
    """sum_k c[k] T_k(x): c[k] are floats for a float x, or arrays shaped like x."""
    b1 = b2 = 0.0
    x2 = x + x
    for ck in c[:0:-1]:
        b1, b2 = ck + x2 * b1 - b2, b1
    return c[0] + x * b1 - b2


class _Front:
    """One side of a panel table: where it ends and how it continues."""

    def __init__(self, direction: float, t0: float):
        self.direction = direction
        self.edge = t0          # far edge of the last accepted panel
        self.value = 0.0        # integral from t0 to edge
        self.width = _FIRST_WIDTH
        self.panels = 0
        self.block = None       # (end, message) of the nearest panel beyond
                                # edge on which the integrand raised DomainError
        self.failure = None     # (exception type, message) that ended the fill


class _PanelTable:
    """Spectral panels of t -> integral_{t0}^{t} f, filled outward from t0.

    Each panel holds the Chebyshev coefficients of the antiderivative of
    f's 21-node Gauss-Legendre interpolant, offset so that it continues the
    accumulated value at the panel's edge nearer t0.  A panel is accepted
    when the 10/21-node gauge meets the quadrature tolerance; a rejected
    panel, or one on which f raises DomainError, is halved, and after an
    accept the next panel tries double the width.  The sequence of panels
    depends only on f, t0 and the tolerances, so values do not depend on
    evaluation order.

    A side stops for good when a panel would fall below the width floor or
    when it already holds cfg.max_subdivisions panels.  If the integrand
    raised DomainError on a panel reaching past the last edge (a profile
    zero ahead), that DomainError is raised, otherwise ToleranceNotMet;
    every later request beyond the last edge raises the same.
    """

    def __init__(self, f: ScalarFn, t0: float, cfg: QuadratureConfig):
        self.f = f
        self.t0 = t0
        self.cfg = cfg
        self.fronts = (_Front(-1.0, t0), _Front(1.0, t0))
        self.edges = [t0]       # sorted panel boundaries
        self.rows = []          # antiderivative coefficients, panel by panel
        self._arrays = None

    def cover(self, lo: float, hi: float) -> None:
        left, right = self.fronts
        while left.edge > lo:
            self._extend(left)
        while right.edge < hi:
            self._extend(right)

    def _extend(self, front: _Front) -> None:
        if front.failure is None:
            try:
                self._add_panel(front)
                return
            except (DomainError, ToleranceNotMet) as e:
                front.failure = (type(e), str(e))
        kind, message = front.failure
        raise kind(message)

    def _add_panel(self, front: _Front) -> None:
        a, w, d = front.edge, front.width, front.direction
        if front.panels >= self.cfg.max_subdivisions:
            self._raise_blocked(front)
            raise ToleranceNotMet(f"antiderivative from t0={self.t0!r} needs "
                                  f"more than {front.panels} panels to pass {a!r}")
        floor = _MIN_WIDTH * max(1.0, abs(a))
        while True:
            b = a + d * w
            lo, hi = min(a, b), max(a, b)
            try:
                val, err, fvals = _panel(self.f, lo, hi)
            except DomainError as e:
                if front.block is None or d * (b - front.block[0]) < 0.0:
                    front.block = (b, str(e))
            else:
                target = max(self.cfg.atol, self.cfg.rtol * abs(val))
                if err <= target:
                    break
            w *= 0.5
            if w < floor:
                self._raise_blocked(front)
                raise ToleranceNotMet(f"antiderivative panel [{lo!r}, {hi!r}]: "
                                      f"error {err:.3e} above target "
                                      f"{target:.3e} at the width floor")
        half = 0.5 * (hi - lo)
        row = half * (_CUMSUM @ fvals)
        whole = float(row.sum())  # integral over the panel, as T_k(1) = 1
        if d > 0:
            row[0] += front.value
            front.value += whole
            self.edges.append(hi)
            self.rows.append(row.tolist())
        else:
            row[0] += front.value - whole
            front.value -= whole
            self.edges.insert(0, lo)
            self.rows.insert(0, row.tolist())
        self._arrays = None
        front.edge = b
        front.width = 2.0 * w
        front.panels += 1
        if front.block is not None and d * (b - front.block[0]) >= 0.0:
            front.block = None

    @staticmethod
    def _raise_blocked(front: _Front) -> None:
        if front.block is not None:
            raise DomainError(front.block[1])

    def value(self, t: float) -> float:
        i = min(max(bisect.bisect_right(self.edges, t) - 1, 0), len(self.rows) - 1)
        lo, hi = self.edges[i], self.edges[i + 1]
        return _clenshaw(self.rows[i], (t - 0.5 * (lo + hi)) / (0.5 * (hi - lo)))

    def values(self, t: np.ndarray) -> np.ndarray:
        if self._arrays is None:
            self._arrays = (np.array(self.edges), np.array(self.rows))
        edges, rows = self._arrays
        i = np.clip(np.searchsorted(edges, t, side="right") - 1, 0, len(rows) - 1)
        lo, hi = edges[i], edges[i + 1]
        return _clenshaw(np.moveaxis(rows[i], -1, 0),
                         (t - 0.5 * (lo + hi)) / (0.5 * (hi - lo)))


@dataclass(frozen=True, eq=False)
class Antiderivative(ScalarFn):
    """t -> integral of `integrand` from t0 to t.

    The integral is represented by adaptive spectral panels filled outward
    from t0 on first need (see _PanelTable): an evaluation finds each
    point's panel and sums that panel's Chebyshev series by one Clenshaw
    pass, for a float and an ndarray alike.  The panel widths grow
    geometrically where the integrand is smooth, so the cost of reaching
    |t - t0| grows with the number of panels, not with |t - t0|.  F(t0) is
    exactly 0.  A DomainError or ToleranceNotMet that stops the fill before
    t is raised again for every later t beyond that point.
    """

    integrand: ScalarFn
    t0: float = 0.0
    cfg: QuadratureConfig = QuadratureConfig()

    def __post_init__(self):
        object.__setattr__(self, "_table", _PanelTable(self.integrand, self.t0, self.cfg))

    def _eval(self, t):
        tab = self._table
        if isinstance(t, float):
            if not math.isfinite(t):
                raise DomainError(f"non-finite argument {t!r} for {self!r}")
            tab.cover(t, t)
            return 0.0 if t == self.t0 else tab.value(t)
        if not t.size:
            return np.zeros(t.shape)
        if not np.all(np.isfinite(t)):
            raise DomainError(f"non-finite argument for {self!r}")
        tab.cover(float(t.min()), float(t.max()))
        if not tab.rows:
            return np.zeros(t.shape)
        return np.where(t == self.t0, 0.0, tab.values(t))

    def _diff(self):
        return self.integrand

    def _signature(self):
        return (self.t0,)

    def _children(self):
        return (self.integrand,)


# ---------------------------------------------------------------------------
# folding constructors
# ---------------------------------------------------------------------------

T = Var()


def as_fn(x) -> ScalarFn:
    """Coerce a number, expression string, or ScalarFn to a ScalarFn."""
    if isinstance(x, ScalarFn):
        return x
    if _is_number(x):
        return Const(float(x))
    if isinstance(x, str):
        return parse(x)
    raise TypeError(f"cannot interpret {x!r} as a scalar function")


def const(c: float) -> Const:
    return Const(float(c))


def poly(*coeffs: float) -> ScalarFn:
    cs = [float(c) for c in coeffs]
    while cs and cs[-1] == 0.0:
        cs.pop()
    if not cs:
        return Const(0.0)
    if len(cs) == 1:
        return Const(cs[0])
    if cs == [0.0, 1.0]:
        return T
    return Poly(tuple(cs))


def add(*terms) -> ScalarFn:
    flat: list[ScalarFn] = []
    c = 0.0
    for f in terms:
        f = as_fn(f)
        if isinstance(f, Sum):
            flat.extend(f.terms)
        else:
            flat.append(f)
    rest = []
    for f in flat:
        if isinstance(f, Const):
            c += f.value
        else:
            rest.append(f)
    if c != 0.0 or not rest:
        rest.append(Const(c))
    if len(rest) == 1:
        return rest[0]
    # constants last: deterministic canonical order
    rest.sort(key=lambda f: isinstance(f, Const))
    return Sum(tuple(rest))


def neg(f) -> ScalarFn:
    return mul(-1.0, f)


def sub(a, b) -> ScalarFn:
    return add(a, neg(b))


def mul(*factors) -> ScalarFn:
    flat: list[ScalarFn] = []
    c = 1.0
    for f in factors:
        f = as_fn(f)
        if isinstance(f, Product):
            flat.extend(f.factors)
        else:
            flat.append(f)
    rest = []
    for f in flat:
        if isinstance(f, Const):
            c *= f.value
        else:
            rest.append(f)
    if c == 0.0:
        return Const(0.0)
    if c != 1.0 or not rest:
        rest.insert(0, Const(c))
    if len(rest) == 1:
        return rest[0]
    return Product(tuple(rest))


def div(num, den, interval=None) -> ScalarFn:
    num = as_fn(num)
    den = as_fn(den)
    lo, hi = interval if interval is not None else (-math.inf, math.inf)
    if isinstance(den, Const) and interval is None:
        if den.value == 0.0:
            raise DomainError("division by constant zero")
        return mul(1.0 / den.value, num)
    if isinstance(num, Const) and num.value == 0.0 and interval is None:
        return Const(0.0)
    return Quotient(num, den, lo, hi)


def power(base, p: float, interval=None) -> ScalarFn:
    base = as_fn(base)
    p = float(p)
    lo, hi = interval if interval is not None else (-math.inf, math.inf)
    if p == 0.0:
        return Const(1.0)
    if p == 1.0 and interval is None:
        return base
    if isinstance(base, Const) and interval is None:
        b = base.value
        if not p.is_integer() and b <= 0.0:
            raise DomainError(f"constant base {b} invalid under exponent {p}")
        if p < 0 and b == 0.0:
            raise DomainError("zero base under negative exponent")
        return Const(b ** p)
    return Power(base, p, lo, hi)


def sqrt(f, interval=None) -> ScalarFn:
    return power(f, 0.5, interval)


def exp(f) -> ScalarFn:
    f = as_fn(f)
    if isinstance(f, Const):
        return Const(math.exp(f.value))
    return Exp(f)


def compose(outer, inner) -> ScalarFn:
    outer = as_fn(outer)
    inner = as_fn(inner)
    if isinstance(inner, Var):
        return outer
    if isinstance(outer, Var):
        return inner
    if isinstance(outer, Const):
        return outer
    if isinstance(inner, Const):
        return Const(float(outer(inner.value)))
    if isinstance(outer, Poly) and len(outer.coeffs) == 2:
        c0, c1 = outer.coeffs
        return add(c0, mul(c1, inner))
    return Compose(outer, inner)


def antiderivative(integrand, t0: float = 0.0,
                   cfg: QuadratureConfig | None = None) -> ScalarFn:
    integrand = as_fn(integrand)
    if isinstance(integrand, Const) and integrand.value == 0.0:
        return Const(0.0)
    return Antiderivative(integrand, float(t0),
                          cfg if cfg is not None else QuadratureConfig())


def deriv(f: ScalarFn, order: int, t):
    """Evaluate the order-th derivative (order in {1, 2, 3}) of f at t."""
    if order not in (1, 2, 3):
        raise ValueError(f"derivative order must be 1, 2 or 3, got {order}")
    g = f
    for _ in range(order):
        g = g.d()
    return g(t)


# ---------------------------------------------------------------------------
# s-expression serialisation
# ---------------------------------------------------------------------------

def to_text(f: ScalarFn) -> str:
    """Canonical textual form; parse(to_text(f)) == f for constructed trees."""
    if isinstance(f, Const):
        return _fmt(f.value)
    if isinstance(f, Var):
        return "t"
    if isinstance(f, Poly):
        return "(poly " + " ".join(_fmt(c) for c in f.coeffs) + ")"
    if isinstance(f, Sum):
        return "(+ " + " ".join(to_text(g) for g in f.terms) + ")"
    if isinstance(f, Product):
        return "(* " + " ".join(to_text(g) for g in f.factors) + ")"
    if isinstance(f, Quotient):
        dom = _dom_text(f.lo, f.hi)
        return f"(/ {to_text(f.num)} {to_text(f.den)}{dom})"
    if isinstance(f, Power):
        dom = _dom_text(f.lo, f.hi)
        return f"(pow {to_text(f.base)} {_fmt(f.expo)}{dom})"
    if isinstance(f, Exp):
        return f"(exp {to_text(f.arg)})"
    if isinstance(f, Compose):
        return f"(compose {to_text(f.outer)} {to_text(f.inner)})"
    if isinstance(f, Antiderivative):
        return f"(integral {to_text(f.integrand)} {_fmt(f.t0)})"
    raise TypeError(f"unknown node type {type(f).__name__}")


def _dom_text(lo: float, hi: float) -> str:
    if lo == -math.inf and hi == math.inf:
        return ""
    return f" {_fmt(lo)} {_fmt(hi)}"


def _tokenize(text: str) -> list[str]:
    out: list[str] = []
    cur = []
    for ch in text:
        if ch in "()":
            if cur:
                out.append("".join(cur))
                cur = []
            out.append(ch)
        elif ch.isspace():
            if cur:
                out.append("".join(cur))
                cur = []
        else:
            cur.append(ch)
    if cur:
        out.append("".join(cur))
    return out


def _num(tok: str):
    try:
        return float(tok)
    except ValueError:
        return None


def parse(text: str, params: dict | None = None) -> ScalarFn:
    """Parse the s-expression form. `params` maps bare symbols to numbers.

    Heads: poly + - * / pow sqrt exp compose integral; atoms: numbers,
    `t`, `inf`, `-inf`, and names bound in params.
    """
    toks = _tokenize(text)
    if not toks:
        raise ParseError("empty expression")
    pos = 0

    def atom(tok: str) -> ScalarFn:
        if tok == "t":
            return T
        v = _num(tok)
        if v is not None:
            return Const(v)
        if params is not None and tok in params:
            return Const(float(params[tok]))
        raise ParseError(f"unknown symbol {tok!r}")

    def number(tok: str) -> float:
        v = _num(tok)
        if v is None:
            if params is not None and tok in params:
                return float(params[tok])
            raise ParseError(f"expected a number, got {tok!r}")
        return v

    def expr() -> ScalarFn:
        nonlocal pos
        if pos >= len(toks):
            raise ParseError("unexpected end of expression")
        tok = toks[pos]
        pos += 1
        if tok == ")":
            raise ParseError("unexpected ')'")
        if tok != "(":
            return atom(tok)
        if pos >= len(toks):
            raise ParseError("unexpected end after '('")
        head = toks[pos]
        pos += 1
        args: list[ScalarFn] = []
        while True:
            if pos >= len(toks):
                raise ParseError("missing ')'")
            if toks[pos] == ")":
                pos += 1
                break
            args.append(expr())
        return build(head, args)

    def build(head: str, args: list[ScalarFn]) -> ScalarFn:
        if head == "poly":
            cs = []
            for a in args:
                if not isinstance(a, Const):
                    raise ParseError("poly takes numeric coefficients")
                cs.append(a.value)
            if not cs:
                raise ParseError("poly needs at least one coefficient")
            return poly(*cs)
        if head == "+":
            if not args:
                raise ParseError("+ needs arguments")
            return add(*args)
        if head == "-":
            if len(args) == 1:
                return neg(args[0])
            if len(args) == 2:
                return sub(args[0], args[1])
            raise ParseError("- takes one or two arguments")
        if head == "*":
            if not args:
                raise ParseError("* needs arguments")
            return mul(*args)
        if head == "/":
            if len(args) == 2:
                return div(args[0], args[1])
            if len(args) == 4:
                return div(args[0], args[1], _interval(args[2], args[3]))
            raise ParseError("/ takes (num den) or (num den lo hi)")
        if head == "pow":
            if len(args) == 2:
                return power(args[0], _const_val(args[1]))
            if len(args) == 4:
                return power(args[0], _const_val(args[1]),
                             _interval(args[2], args[3]))
            raise ParseError("pow takes (base expo) or (base expo lo hi)")
        if head == "sqrt":
            if len(args) != 1:
                raise ParseError("sqrt takes one argument")
            return sqrt(args[0])
        if head == "exp":
            if len(args) != 1:
                raise ParseError("exp takes one argument")
            return exp(args[0])
        if head == "compose":
            if len(args) != 2:
                raise ParseError("compose takes two arguments")
            return compose(args[0], args[1])
        if head == "integral":
            if len(args) != 2:
                raise ParseError("integral takes (integrand t0)")
            return antiderivative(args[0], _const_val(args[1]))
        raise ParseError(f"unknown operator {head!r}")

    def _const_val(a: ScalarFn) -> float:
        if not isinstance(a, Const):
            raise ParseError("expected a numeric argument")
        return a.value

    def _interval(a: ScalarFn, b: ScalarFn):
        return (_const_val(a), _const_val(b))

    out = expr()
    if pos != len(toks):
        raise ParseError(f"trailing tokens after expression: {toks[pos:]}")
    return out

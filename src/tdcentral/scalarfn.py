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
up to rounding in evaluation.  One evaluator serves both: on its first call
with a number, and again with an array, a node compiles its tree into
straight-line Python code (``_Compiler``) and keeps it, as ``.d()`` keeps
its tree; a constant keeps a function returning its value instead.  The
two versions differ only in ``exp`` and in reducing each domain test over
the array.  Trees are immutable and are built only by the folding
constructors (``add``, ``mul``, ``div``, ``power``, ...), which collapse
constants and keep a canonical shape, so structural equality is usable in
tests, and by ``parse``, which calls them; nodes have no arithmetic
operators.

Domains are explicit: Quotient and Power carry an optional open interval
for their *input value*; evaluation outside it, or at a zero denominator
or invalid base, raises DomainError rather than returning NaN/Inf.

Integration has one adaptive scheme.  Antiderivative nodes make
t -> integral_{t0}^{t} f of a tree: a short table of spectral panels,
filled outward from t0, each accepted by a 10/21-node Gauss-Legendre gauge
and twice as wide as the last where f is smooth, holds the Chebyshev series
of the integral.  A lookup is one Clenshaw pass for a float or an ndarray,
its cost does not grow with |t - t0|, and values do not depend on
evaluation order.  ``integrate`` is one lookup of a fresh Antiderivative;
a panel that misses the tolerance raises ToleranceNotMet.

Expressions serialise to a small s-expression text form (``to_text`` /
``parse``) with an exact round trip for canonical trees.
"""

from __future__ import annotations

import bisect
import math
import re
import sys
import weakref
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, ParseError, ToleranceNotMet

__all__ = [
    "ScalarFn", "Const", "Var", "Poly", "Sum", "Product", "Quotient",
    "Power", "Exp", "Compose", "Antiderivative",
    "T", "const", "poly", "add", "sub", "mul", "neg", "div",
    "power", "sqrt", "exp", "compose", "antiderivative", "as_fn",
    "integrate", "to_text", "parse",
]


def _is_number(x) -> bool:
    return type(x) is float or isinstance(x, (int, float, np.integer, np.floating)) \
        and not isinstance(x, bool)


def _fmt(c: float) -> str:
    # repr of a float round-trips exactly; integers print without the dot
    f = float(c)
    if f.is_integer() and abs(f) < 1e16:
        return str(int(f))
    return repr(f)


class ScalarFn:
    """Base class for expression nodes. Instances are immutable."""

    def _eval(self, t):
        """Value of a node compiled code cannot inline (Antiderivative, subclasses)."""
        raise NotImplementedError

    def _diff(self) -> "ScalarFn":
        raise NotImplementedError

    # compiled evaluators, built on the first call with a number / an array
    _scalar = _array = None

    def __call__(self, t):
        if _is_number(t):
            return (self._scalar or self._compile("_scalar", False))(float(t))
        return (self._array or self._compile("_array", True))(np.asarray(t, dtype=float))

    def _compile(self, slot: str, array: bool):
        fn = _Compiler(array).function(self)
        object.__setattr__(self, slot, fn)
        return fn

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


@dataclass(frozen=True, eq=False)
class Const(ScalarFn):
    value: float

    def _diff(self):
        return Const(0.0)

    def _signature(self):
        return (self.value,)

    def _compile(self, slot: str, array: bool):
        # no compiler: its code would return the value itself, at a number or an array
        value = self.value
        fn = lambda t: value
        object.__setattr__(self, slot, fn)
        return fn


@dataclass(frozen=True, eq=False)
class Var(ScalarFn):
    """The identity map t -> t."""

    def _diff(self):
        return Const(1.0)


@dataclass(frozen=True, eq=False)
class Poly(ScalarFn):
    """c0 + c1 t + c2 t^2 + ... evaluated by Horner's rule."""

    coeffs: tuple

    def _diff(self):
        dc = [i * c for i, c in enumerate(self.coeffs)][1:]
        return poly(*dc)

    def _signature(self):
        return (self.coeffs,)


@dataclass(frozen=True, eq=False)
class Sum(ScalarFn):
    terms: tuple

    def _diff(self):
        return add(*(f.d() for f in self.terms))

    def _children(self):
        return self.terms


@dataclass(frozen=True, eq=False)
class Product(ScalarFn):
    factors: tuple

    def _diff(self):
        fs = self.factors
        terms = []
        for i in range(len(fs)):
            terms.append(mul(*(fs[j] if j != i else fs[j].d() for j in range(len(fs)))))
        return add(*terms)

    def _children(self):
        return self.factors


# DomainError messages of Quotient and Power, formatted with the node as f
_OUTSIDE = "argument outside ({f.lo}, {f.hi}) for {f!r}"
_ZERO_DENOMINATOR = "zero denominator in {f!r}"
_NON_POSITIVE_BASE = "non-positive base under exponent {f.expo} in {f!r}"
_ZERO_BASE = "zero base under exponent {f.expo} in {f!r}"


@dataclass(frozen=True, eq=False)
class Quotient(ScalarFn):
    """num/den with an optional open interval constraint on the *argument*."""

    num: ScalarFn
    den: ScalarFn
    lo: float = -math.inf
    hi: float = math.inf

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

    def _diff(self):
        return mul(self, self.arg.d())

    def _children(self):
        return (self.arg,)


@dataclass(frozen=True, eq=False)
class Compose(ScalarFn):
    """outer(inner(t)). Domain checks of outer apply to inner's value."""

    outer: ScalarFn
    inner: ScalarFn

    def _diff(self):
        return mul(compose(self.outer.d(), self.inner), self.inner.d())

    def _children(self):
        return (self.outer, self.inner)


# ---------------------------------------------------------------------------
# adaptive quadrature
# ---------------------------------------------------------------------------

_GL_LOW_X, _GL_LOW_W = np.polynomial.legendre.leggauss(10)
_GL_HIGH_X, _GL_HIGH_W = np.polynomial.legendre.leggauss(21)
# a panel passes when its error gauge is at most max(_ATOL, _RTOL |value|);
# an Antiderivative holds at most _MAX_PANELS panels on each side of t0
_RTOL = 1e-12
_ATOL = 1e-13
_MAX_PANELS = 200


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


# 21 Gauss-Legendre node values -> Chebyshev coefficients (on [-1, 1]) of
# their degree-20 interpolant, and of its antiderivative vanishing at -1
_CHEB = np.linalg.inv(np.polynomial.chebyshev.chebvander(_GL_HIGH_X, 20))
_CUMSUM = np.polynomial.chebyshev.chebint(_CHEB, lbnd=-1)
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
    when it already holds _MAX_PANELS panels.  If the integrand
    raised DomainError on a panel reaching past the last edge (a profile
    zero ahead), that DomainError is raised, otherwise ToleranceNotMet;
    every later request beyond the last edge raises the same.
    """

    def __init__(self, f: ScalarFn, t0: float):
        self.f = f
        self.t0 = t0
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
        if front.panels >= _MAX_PANELS:
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
                target = max(_ATOL, _RTOL * abs(val))
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
    |t - t0| grows with the number of panels, not with |t - t0|.  t0 must
    be finite, and F(t0) is exactly 0.  A DomainError or ToleranceNotMet
    that stops the fill before t is raised again for every later t beyond
    that point.
    """

    integrand: ScalarFn
    t0: float = 0.0

    def __post_init__(self):
        if not math.isfinite(self.t0):
            raise DomainError(f"non-finite lower limit {self.t0!r} of an integral")
        object.__setattr__(self, "_table", _PanelTable(self.integrand, self.t0))

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
# compiled evaluation
# ---------------------------------------------------------------------------

_CODE: dict = {}  # source text -> code object, shared by every tree of that text


class _Compiler:
    """Translates one tree into a Python function of a float, or of an
    ndarray when `array` is set: the only evaluator of the structural nodes.
    A caller may walk several trees with one compiler and `define` one
    function over their values, as a family does for dU_dr of (t, r).

    The function is straight-line code with one temporary per distinct
    subtree (a subtree's structure, signed zeros told apart, and the
    argument it is evaluated at).  Children are evaluated in order (a
    quotient's denominator first), sums and products associate to the left,
    and each domain test precedes the value it guards, so the first test
    that fails raises its DomainError.  Array code differs in four
    templates: np.exp, and each domain test reduced over the array (np.all
    for the interval, np.any for a zero denominator or an invalid base).
    Numbers, nodes and messages are bound by name in the function's
    namespace; no user text enters the source, so trees of one shape share
    one code object.  Antiderivative nodes and ScalarFn subclasses unknown
    here are keyed by identity and called through `_eval`, looked up at
    call time.
    """

    def __init__(self, array: bool):
        self.array = array
        self.ns = {"DomainError": DomainError, "_exp": np.exp if array else math.exp,
                   "_all": np.all, "_any": np.any, "_OUTSIDE": _OUTSIDE,
                   "_ZERO_DENOMINATOR": _ZERO_DENOMINATOR,
                   "_NON_POSITIVE_BASE": _NON_POSITIVE_BASE, "_ZERO_BASE": _ZERO_BASE}
        self.lines, self.tests = [], set()
        self.names, self.shapes, self.numbers, self.values = {}, {}, {}, {}

    def function(self, root: ScalarFn):
        return self.define("t", self.value(root, "t"))

    def define(self, args: str, result: str):
        """Function of `args` running the lines emitted so far, returning `result`."""
        body = "".join(f"    {line}\n" for line in self.lines)
        source = f"def f({args}):\n{body}    return {result}\n"
        code = _CODE.get(source)
        if code is None:
            code = _CODE[source] = compile(source, "<scalarfn>", "exec")
        exec(code, self.ns)
        return self.ns.pop("f")  # the namespace must not hold the function

    def bind(self, obj) -> str:
        """Name of a number (keyed by repr, which tells 0.0 from -0.0 and 1
        from 1.0) or an expression calling a weak reference to a node.  No
        strong reference may lead back to the root that keeps the function,
        or each compiled tree would be garbage only the cyclic GC frees."""
        if isinstance(obj, ScalarFn):
            key, obj, call = id(obj), weakref.ref(obj), "()"
        else:
            key, call = (type(obj), repr(obj)), ""
        if key not in self.names:
            self.names[key] = f"c{len(self.ns)}"
            self.ns[self.names[key]] = obj
        return self.names[key] + call

    def number(self, f: ScalarFn) -> int:
        """Structural identity of a subtree (object identity for opaque nodes)."""
        if id(f) not in self.numbers:
            if type(f) in _STRUCTURAL:
                sig = tuple(tuple(map(self.bind, v)) if isinstance(v, tuple) else self.bind(v)
                            for v in f._signature())
                shape = (type(f), sig, tuple(map(self.number, f._children())))
            else:
                shape = id(f)
            self.numbers[id(f)] = self.shapes.setdefault(shape, len(self.shapes))
        return self.numbers[id(f)]

    def check(self, test: str, message: str, f: ScalarFn) -> None:
        # a test that passed once passes again: emit each distinct test once
        if test not in self.tests:
            self.tests.add(test)
            self.lines.append(f"if {test}: raise DomainError({message}.format(f={self.bind(f)}))")

    def any(self, test: str) -> str:
        """An elementwise test that holds for some element of an array."""
        return f"_any({test})" if self.array else test

    def value(self, f: ScalarFn, x: str) -> str:
        """Name holding f's value at the argument named x."""
        kind = type(f)
        if kind is Const:
            return self.bind(f.value)
        if kind is Var:
            return x
        if kind is Compose:
            return self.value(f.outer, self.value(f.inner, x))
        key = (self.number(f), x)
        if key in self.values:
            return self.values[key]
        if kind in (Quotient, Power):
            lo, hi = self.bind(f.lo), self.bind(f.hi)
            self.check(f"not _all(({x} > {lo}) & ({x} < {hi}))" if self.array
                       else f"not {lo} < {x} < {hi}", "_OUTSIDE", f)
        if kind is Poly:
            expr = self.bind(f.coeffs[-1])
            for c in reversed(f.coeffs[:-1]):
                expr = f"({expr} * {x} + {self.bind(c)})"
        elif kind in (Sum, Product):
            expr = (" + " if kind is Sum else " * ").join(
                [self.value(g, x) for g in f._children()])
        elif kind is Quotient:
            den = self.value(f.den, x)
            self.check(self.any(f"{den} == 0.0"), "_ZERO_DENOMINATOR", f)
            expr = f"{self.value(f.num, x)} / {den}"
        elif kind is Power:
            base = self.value(f.base, x)
            if not float(f.expo).is_integer():
                self.check(self.any(f"{base} <= 0.0"), "_NON_POSITIVE_BASE", f)
            elif f.expo < 0:
                self.check(self.any(f"{base} == 0.0"), "_ZERO_BASE", f)
            expr = f"{base} ** {self.bind(f.expo)}"
        elif kind is Exp:
            expr = f"_exp({self.value(f.arg, x)})"
        else:
            expr = f"{self.bind(f)}._eval({x})"
        self.values[key] = name = f"v{len(self.values)}"
        self.lines.append(f"{name} = {expr}")
        return name


_STRUCTURAL = (Const, Var, Poly, Sum, Product, Quotient, Power, Exp, Compose)


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


def antiderivative(integrand, t0: float = 0.0) -> ScalarFn:
    """t -> integral of integrand from t0 to t.  A constant c folds to the
    polynomial c t - c t0 (to 0 when c is 0) while c t0 is finite; any other
    integrand, a non-finite constant among them, is an Antiderivative."""
    integrand, t0 = as_fn(integrand), float(t0)
    if isinstance(integrand, Const):
        c = integrand.value
        if c == 0.0:
            return Const(0.0)
        if math.isfinite(c * t0):
            return poly(-c * t0, c)
    return Antiderivative(integrand, t0)


def integrate(f: ScalarFn, a: float, b: float) -> float:
    """Definite integral of f over [a, b] (signed when b < a): one lookup of
    the Antiderivative of f from a.  A panel touching an integrable endpoint
    singularity such as t^-1/2 at 0 never meets the relative tolerance, so
    such an integral raises ToleranceNotMet."""
    return float(antiderivative(f, a)(float(b)))


# ---------------------------------------------------------------------------
# s-expression serialisation
# ---------------------------------------------------------------------------

# head -> (builder, allowed argument counts, the arguments that must be
# numbers, node type printed with this head); "-" and "sqrt" only parse
_ANY = range(1, sys.maxsize)
_HEADS = {
    "poly": (poly, _ANY, slice(None), Poly),
    "+": (add, _ANY, slice(0), Sum),
    "-": (lambda a, b=None: neg(a) if b is None else sub(a, b), (1, 2), slice(0), None),
    "*": (mul, _ANY, slice(0), Product),
    "/": (lambda n, d, *dom: div(n, d, dom or None), (2, 4), slice(2, None), Quotient),
    "pow": (lambda b, p, *dom: power(b, p, dom or None), (2, 4), slice(1, None), Power),
    "sqrt": (sqrt, (1,), slice(0), None),
    "exp": (exp, (1,), slice(0), Exp),
    "compose": (compose, (2,), slice(0), Compose),
    "integral": (antiderivative, (2,), slice(1, None), Antiderivative),
}
_HEAD_OF = {node: head for head, (*_, node) in _HEADS.items() if node}
_TOKEN = re.compile(r"[()]|[^\s()]+")


def to_text(f: ScalarFn) -> str:
    """Canonical textual form; parse(to_text(f)) == f for constructed trees:
    the children, then the numbers of the node's signature, with an
    unbounded domain left out."""
    if isinstance(f, Const):
        return _fmt(f.value)
    if isinstance(f, Var):
        return "t"
    head = next((_HEAD_OF[c] for c in type(f).__mro__ if c in _HEAD_OF), None)
    if head is None:
        raise TypeError(f"unknown node type {type(f).__name__}")
    numbers = [c for v in f._signature() for c in (v if isinstance(v, tuple) else (v,))]
    if isinstance(f, (Quotient, Power)) and f.lo == -math.inf and f.hi == math.inf:
        numbers = numbers[:-2]
    return f"({head} " + " ".join([*map(to_text, f._children()), *map(_fmt, numbers)]) + ")"


def parse(text: str) -> ScalarFn:
    """Parse the s-expression form.

    Heads: the keys of _HEADS; atoms: numbers, `t`, `inf` and `-inf`.
    """
    toks = _TOKEN.findall(text)[::-1]  # a stack: the next token is last
    if not toks:
        raise ParseError("empty expression")

    def expr() -> ScalarFn:
        if not toks:
            raise ParseError("unexpected end of expression")
        tok = toks.pop()
        if tok == ")":
            raise ParseError("unexpected ')'")
        if tok == "(":
            if not toks:
                raise ParseError("unexpected end after '('")
            head = toks.pop()
            args = []
            while toks[-1:] != [")"]:
                if not toks:
                    raise ParseError("missing ')'")
                args.append(expr())
            toks.pop()
            if head not in _HEADS:
                raise ParseError(f"unknown operator {head!r}")
            build, counts, numeric, _ = _HEADS[head]
            if len(args) not in counts:
                allowed = "one or more" if counts is _ANY else " or ".join(map(str, counts))
                raise ParseError(f"{head}: {len(args)} arguments, expected {allowed}")
            for i in range(len(args))[numeric]:
                if not isinstance(args[i], Const):
                    raise ParseError(f"{head}: argument {i + 1} must be a number, "
                                     f"got {to_text(args[i])}")
                args[i] = args[i].value
            return build(*args)
        if tok == "t":
            return T
        try:
            return Const(float(tok))
        except ValueError:
            raise ParseError(f"unknown symbol {tok!r}") from None

    out = expr()
    if toks:
        raise ParseError(f"trailing tokens after expression: {toks[::-1]}")
    return out


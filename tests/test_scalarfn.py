"""Scalar-function algebra: evaluation, exact derivatives, quadrature, text form."""

import gc
import math
import re
import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tdcentral import scalarfn as sf
from tdcentral.errors import DomainError, ParseError, ToleranceNotMet


def richardson_d1(f, t, h=1e-3):
    """Central difference with one Richardson step, O(h^4)."""
    coarse = (f(t + h) - f(t - h)) / (2 * h)
    fine = (f(t + h / 2) - f(t - h / 2)) / h
    return (4 * fine - coarse) / 3


def simpson_oracle(fn, a, b, n=4096):
    """Fixed-grid composite Simpson; n even. Independent of the adaptive code."""
    ts = np.linspace(a, b, n + 1)
    ys = fn(ts)
    h = (b - a) / n
    return h / 3 * (ys[0] + ys[-1] + 4 * ys[1:-1:2].sum() + 2 * ys[2:-1:2].sum())


_GL_LOW_X, _GL_LOW_W = np.polynomial.legendre.leggauss(10)
_GL_HIGH_X, _GL_HIGH_W = np.polynomial.legendre.leggauss(21)


def _gl_panel(f, a, b):
    """21-node Gauss-Legendre estimate over [a, b] and |21-node - 10-node|."""
    h, m = 0.5 * (b - a), 0.5 * (a + b)
    hi = h * float(_GL_HIGH_W @ np.broadcast_to(f(m + h * _GL_HIGH_X), _GL_HIGH_X.shape))
    lo = h * float(_GL_LOW_W @ np.broadcast_to(f(m + h * _GL_LOW_X), _GL_LOW_X.shape))
    return hi, abs(hi - lo)


def bisection_integrate(f, a, b, rtol=1e-12, atol=1e-13, max_subdivisions=200):
    """Reference quadrature independent of the Antiderivative panel table.

    Bisects the panel with the largest error estimate until the summed
    estimate meets max(atol, rtol*|integral|); raises ToleranceNotMet at
    the subdivision limit.  b < a gives the signed value.
    """
    a, b = float(a), float(b)
    if a == b:
        return 0.0
    sign = 1.0
    if b < a:
        a, b, sign = b, a, -1.0
    val, err = _gl_panel(f, a, b)
    panels = [(err, a, b, val)]
    for _ in range(max_subdivisions):
        total = math.fsum(p[3] for p in panels)
        toterr = math.fsum(p[0] for p in panels)
        if toterr <= max(atol, rtol * abs(total)):
            return sign * total
        panels.sort(key=lambda p: p[0])
        _, x0, x1, _ = panels.pop()
        xm = 0.5 * (x0 + x1)
        vl, el = _gl_panel(f, x0, xm)
        vr, er = _gl_panel(f, xm, x1)
        panels.append((el, x0, xm, vl))
        panels.append((er, xm, x1, vr))
    total = math.fsum(p[3] for p in panels)
    toterr = math.fsum(p[0] for p in panels)
    if toterr <= max(atol, rtol * abs(total)):
        return sign * total
    raise ToleranceNotMet(f"quadrature error {toterr:.3e} over [{a}, {b}] after "
                          f"{max_subdivisions} subdivisions")


# pool of (function, valid evaluation window) pairs covering every node type
def fn_pool():
    return [
        (sf.poly(1.0, -2.0, 0.5, 3.0), (-2.0, 2.0)),
        (sf.sqrt(sf.poly(1, 0, 1)), (-3.0, 3.0)),
        (sf.exp(sf.mul(-0.5, sf.T)), (-2.0, 2.0)),
        (sf.div(1, sf.poly(1, 0, 1)), (-3.0, 3.0)),
        (sf.power(sf.poly(2, 1), -1.5), (-1.5, 3.0)),
        (sf.compose(sf.power(sf.T, -2, (0, math.inf)), sf.poly(1.5, 0.3)), (0.0, 2.0)),
        (sf.mul(sf.T, sf.exp(sf.neg(sf.T))), (-1.0, 2.0)),
        (sf.div(sf.exp(sf.neg(sf.T)), sf.T, (0, math.inf)), (0.1, 2.0)),
        (sf.add(sf.poly(0, 1), sf.mul(2, sf.sqrt(sf.poly(4, 1)))), (-2.0, 2.0)),
        (sf.antiderivative(sf.div(1, sf.poly(1, 0, 1)), 0.0), (-2.0, 2.0)),
    ]


class TestEval:
    def test_square(self):
        f = sf.poly(0, 0, 1)
        assert f(3) == 9.0

    def test_sqrt_radicand_identity(self):
        f = sf.sqrt(sf.poly(1, 0, 1))
        assert f(0.0) == 1.0

    def test_excluded_point_raises(self):
        f = sf.div(sf.exp(sf.neg(sf.T)), sf.T, (0, math.inf))
        with pytest.raises(DomainError):
            f(0.0)

    def test_zero_denominator_raises(self):
        f = sf.div(1, sf.poly(0, 1))
        with pytest.raises(DomainError):
            f(0.0)

    def test_negative_radicand_raises(self):
        with pytest.raises(DomainError):
            sf.sqrt(sf.T)(-1.0)

    def test_negative_base_negative_integer_exponent_ok(self):
        assert sf.power(sf.T, -2)(-2.0) == 0.25

    def test_array_matches_scalar(self):
        # scalar path uses math.*, array path numpy ufuncs; agree to ~1 ulp
        f = sf.mul(sf.T, sf.exp(sf.neg(sf.T)))
        ts = np.linspace(-1, 2, 17)
        vals = f(ts)
        assert vals.shape == ts.shape
        for x, v in zip(ts, vals):
            assert math.isclose(f(float(x)), v, rel_tol=1e-14, abs_tol=1e-300)

    def test_repeated_eval_bit_identical(self):
        for f, (lo, hi) in fn_pool():
            t = 0.5 * (lo + hi) + 0.1237
            assert f(t) == f(t)


class TestDeriv:
    def test_cubic_third_derivative(self):
        f = sf.poly(0, 0, 0, 1)
        for t in (-2.0, 0.0, 5.5):
            assert f.d().d().d()(t) == 6.0

    def test_exp_chain_rule(self):
        f = sf.exp(sf.neg(sf.T))
        assert f.d()(0.0) == -1.0

    def test_sqrt_second_derivative_vs_fd(self):
        # d2/dt2 sqrt(1+t^2) at 0 is 1; cross-check with central differences.
        # Plain h=1e-5 stencils sit on a ~1e-7 roundoff floor (eps/h^2), so the
        # oracle uses h=1e-3 with one Richardson step to actually reach 1e-8.
        f = sf.sqrt(sf.poly(1, 0, 1))
        got = f.d().d()(0.0)

        def d2(h):
            return (f(h) - 2.0 * f(0.0) + f(-h)) / h**2

        h = 1e-3
        fd = (4.0 * d2(h / 2) - d2(h)) / 3.0
        assert got == pytest.approx(1.0, abs=1e-12)
        assert got == pytest.approx(fd, abs=1e-8)

    def test_poly_derivative_coefficients_exact(self):
        f = sf.poly(1, 2, 3, 4)
        assert f.d() == sf.poly(2, 6, 12)
        assert f.d().d() == sf.poly(6, 24)
        assert f.d().d().d() == sf.const(24)

    def test_first_derivative_vs_richardson_pool(self):
        rng = np.random.default_rng(20260815)
        for f, (lo, hi) in fn_pool():
            df = f.d()
            # sample away from window edges so FD stencils stay valid
            pad = 0.05 * (hi - lo)
            ts = rng.uniform(lo + pad, hi - pad, size=100)
            for t in ts:
                approx = richardson_d1(f, float(t))
                exact = df(float(t))
                scale = max(1.0, abs(exact))
                assert abs(exact - approx) <= 1e-7 * scale

    def test_domain_error_propagates(self):
        f = sf.sqrt(sf.T)
        with pytest.raises(DomainError):
            f.d()(-1.0)


class TestIntegrate:
    def test_linear(self):
        assert sf.integrate(sf.poly(0, 1), 0, 1) == pytest.approx(0.5, abs=1e-14)

    def test_constant_combination(self):
        g1 = sf.const(1.0)
        g2 = sf.const(1.0)
        f = sf.mul(sf.power(g1, -1.5), g2)
        assert sf.integrate(f, 0, 1) == pytest.approx(1.0, abs=1e-14)

    def test_arctan_quarter_pi(self):
        f = sf.div(1, sf.poly(1, 0, 1))
        oracle = simpson_oracle(lambda t: 1.0 / (1.0 + t * t), 0.0, 1.0)
        got = sf.integrate(f, 0, 1)
        assert abs(got - oracle) <= 1e-12
        assert abs(got - math.pi / 4) <= 1e-12

    def test_empty_interval(self):
        assert sf.integrate(sf.exp(sf.T), 2.0, 2.0) == 0.0

    def test_reversed_limits_negate(self):
        f = sf.exp(sf.neg(sf.T))
        a, b = 0.25, 1.75
        assert sf.integrate(f, b, a) == pytest.approx(-sf.integrate(f, a, b), abs=1e-14)

    def test_fundamental_theorem_pool(self):
        for f, (lo, hi) in fn_pool():
            a = lo + 0.07 * (hi - lo)
            b = hi - 0.11 * (hi - lo)
            got = sf.integrate(f.d(), a, b)
            assert got == pytest.approx(f(b) - f(a), abs=5e-11, rel=5e-11)

    def test_linearity(self):
        f = sf.sqrt(sf.poly(1, 0, 1))
        g = sf.exp(sf.mul(-0.5, sf.T))
        c = -2.75
        lhs = sf.integrate(sf.add(sf.mul(c, f), g), 0, 2)
        rhs = c * sf.integrate(f, 0, 2) + sf.integrate(g, 0, 2)
        assert lhs == pytest.approx(rhs, abs=1e-12)

    def test_endpoint_singularity_not_integrable(self):
        # bisection reaches int_0^1 t^-1/2 = 2; a panel of the table that
        # touches t = 0 keeps its relative error however often it is halved
        f = sf.power(sf.T, -0.5, (0, math.inf))
        assert bisection_integrate(f, 0.0, 1.0) == pytest.approx(2.0, rel=1e-12)
        with pytest.raises(ToleranceNotMet):
            sf.integrate(f, 0.0, 1.0)

    def test_matches_bisection_reference_pool(self):
        for f, (lo, hi) in fn_pool():
            a = lo + 0.07 * (hi - lo)
            b = hi - 0.11 * (hi - lo)
            ref = bisection_integrate(f, a, b)
            assert sf.integrate(f, a, b) == pytest.approx(ref, rel=1e-12)
            assert sf.integrate(f, b, a) == pytest.approx(-ref, rel=1e-12)


class TestAntiderivative:
    def test_matches_direct_quadrature(self):
        f = sf.div(1, sf.poly(1, 0, 1))
        F = sf.antiderivative(f, 0.0)
        for t in (-2.0, -0.3, 0.0, 0.4, 1.0, 3.7):
            assert F(t) == pytest.approx(math.atan(t), abs=1e-12)

    def test_derivative_recovers_integrand(self):
        f = sf.exp(sf.mul(-0.5, sf.T))
        assert sf.antiderivative(f, 1.0).d() == f

    def test_history_independence(self):
        f = sf.sqrt(sf.poly(1, 0, 1))
        pts = [3.9, 0.2, -1.7, 2.2, 0.9]
        a = sf.antiderivative(f, 0.0)
        b = sf.antiderivative(f, 0.0)
        va = [a(t) for t in pts]
        vb = [b(t) for t in reversed(pts)]
        for x, y in zip(va, reversed(vb)):
            assert x == pytest.approx(y, abs=1e-13)

    def test_base_point(self):
        F = sf.antiderivative(sf.exp(sf.T), -0.5)
        assert F(-0.5) == 0.0
        assert F(np.array([-0.5, 0.5, -0.5]))[[0, 2]].tolist() == [0.0, 0.0]


def cross_integrand():
    """0.5 g1^{-3/2} g2 of the cross-profile family (g1 = 1 + t^2/4, g2 = 0.3 + 0.1 t)."""
    return sf.mul(0.5, sf.power(sf.poly(1, 0, 0.25), -1.5), sf.poly(0.3, 0.1))


class CountingFn(sf.ScalarFn):
    """Wraps a tree and counts its evaluations."""

    def __init__(self, f):
        self.f = f
        self.calls = 0

    def _eval(self, t):
        self.calls += 1
        return self.f(t)


class TestSpectralPanels:
    def test_array_equals_scalar_elementwise(self):
        F = sf.antiderivative(cross_integrand(), 0.0)
        ts = np.concatenate([np.linspace(-1000.0, 1000.0, 401), [0.0, 1e-9, -0.25]])
        vals = F(ts)
        assert vals.shape == ts.shape
        assert [F(float(t)) for t in ts] == vals.tolist()
        grid = ts[:400].reshape(20, 20)
        assert np.array_equal(F(grid), vals[:400].reshape(20, 20))

    @pytest.mark.parametrize("t", [1000.0, -1000.0])
    def test_far_values_match_direct_quadrature(self, t):
        f = cross_integrand()
        direct = bisection_integrate(f, 0.0, t)
        assert sf.antiderivative(f, 0.0)(t) == pytest.approx(direct, rel=1e-12)

    def test_history_independence_far_point_first(self):
        f = cross_integrand()
        a = sf.antiderivative(f, 0.0)
        b = sf.antiderivative(f, 0.0)
        far_first = [a(1000.0), a(0.3), a(-2.5)]
        near_first = [b(0.3), b(-2.5), b(1000.0)]
        assert far_first == [near_first[2], near_first[0], near_first[1]]

    def test_profile_zero_ahead(self):
        # g1 = 1 - 0.1 t vanishes at t = 10, where the integrand blows up
        f = sf.mul(0.5, sf.power(sf.poly(1, -0.1), -1.5), sf.poly(0.3, 0.1))
        F = sf.antiderivative(f, 0.0)
        assert F(9.9) == pytest.approx(bisection_integrate(f, 0.0, 9.9), rel=1e-12)
        for _ in range(2):
            with pytest.raises(DomainError):
                F(10.5)
        assert F(-3.0) == pytest.approx(bisection_integrate(f, 0.0, -3.0), rel=1e-12)

    def test_fill_is_bounded(self):
        f = CountingFn(cross_integrand())
        F = sf.antiderivative(f, 0.0)
        F(np.array([-1000.0, 1000.0]))
        attempts = f.calls // 2  # each panel attempt evaluates f twice
        assert attempts <= 64
        calls = f.calls
        F(np.linspace(-1000.0, 1000.0, 501))
        F(999.5)
        assert f.calls == calls  # lookups inside the filled span evaluate no f

    def test_non_finite_argument(self):
        F = sf.antiderivative(cross_integrand(), 0.0)
        with pytest.raises(DomainError):
            F(math.inf)
        with pytest.raises(DomainError):
            F(np.array([0.5, math.nan]))


class TestTextForm:
    def test_documented_syntax_with_params(self):
        txt = "(sqrt (+ 1 (* b1 t) (* b2 t t)))"
        f = sf.parse(txt, params={"b1": 2.0, "b2": 0.5})
        for t in (0.0, 0.7, 2.0):
            assert f(t) == pytest.approx(math.sqrt(1 + 2 * t + 0.5 * t * t), abs=1e-15)

    def test_round_trip_examples(self):
        cases = [
            sf.poly(1, 0, 1),
            sf.T,
            sf.const(-2.5),
            sf.add(sf.mul(2, sf.power(sf.poly(1, 0, 1), -1.5)), sf.exp(sf.mul(-0.25, sf.T))),
            sf.div(sf.exp(sf.neg(sf.T)), sf.T, (0, math.inf)),
            sf.compose(sf.power(sf.T, -2, (0, math.inf)), sf.poly(1.5, 0.3)),
            sf.antiderivative(sf.mul(0.5, sf.power(sf.poly(1, 0, 1), -1.5)), 0.0),
        ]
        for f in cases:
            assert sf.parse(sf.to_text(f)) == f

    def test_parse_errors(self):
        # each message names the head or the token at fault
        bad = {"": "empty", "(": "'('", "(+ 1": "')'", "(+ )": "+", "(pow t)": "pow",
               "nosuch": "'nosuch'", "(frob 1 2)": "'frob'", "1 2": "'2'",
               "(poly t)": "poly", "(/ 1 t 0 t)": "/", "(integral t t)": "integral"}
        for txt, named in bad.items():
            with pytest.raises(ParseError, match=re.escape(named)):
                sf.parse(txt)

    def test_unary_minus(self):
        f = sf.parse("(- (exp t))")
        assert f(0.0) == -1.0

    def test_float_repr_round_trip(self):
        c = 0.1 + 0.2  # not exactly 0.3
        f = sf.const(c)
        g = sf.parse(sf.to_text(f))
        assert g(0.0) == c


# random trees for the round-trip property: atoms and a few combinator layers
_atoms = st.sampled_from([
    sf.T,
    sf.const(2.0),
    sf.const(-0.75),
    sf.poly(1, 0, 1),
    sf.poly(0.5, -1.5),
    sf.exp(sf.mul(-0.5, sf.T)),
])


def _safe(build, *args):
    # constant folding may legitimately reject (exp overflow, 0**-p, ...);
    # fall back to the first operand so the strategy always yields a tree
    try:
        return build(*args)
    except (DomainError, OverflowError):
        return args[0]


def _combine(children):
    return st.one_of(
        st.tuples(children, children).map(lambda ab: sf.add(*ab)),
        st.tuples(children, children).map(lambda ab: sf.mul(*ab)),
        st.tuples(children, children).map(lambda ab: _safe(sf.div, ab[0], ab[1])),
        children.map(lambda f: _safe(sf.power, f, -1.5, (0.0, math.inf))),
        children.map(lambda f: _safe(sf.exp, f)),
        st.tuples(children, children).map(lambda ab: _safe(sf.compose, ab[0], ab[1])),
    )


_trees = st.recursive(_atoms, _combine, max_leaves=8)


@settings(max_examples=80, deadline=None)
@given(_trees)
def test_round_trip_random_trees(f):
    assert sf.parse(sf.to_text(f)) == f


class TestOperators:
    def test_arithmetic_sugar(self):
        f = 2 * sf.T + 1
        assert f(3.0) == 7.0
        g = (sf.T - 1) / (sf.T + 1)
        assert g(3.0) == 0.5
        h = sf.T**2
        assert h(4.0) == 16.0
        k = 1 - sf.T
        assert k(0.25) == 0.75

    def test_folding_keeps_constants_canonical(self):
        assert sf.add(sf.const(2), sf.const(3)) == sf.const(5)
        assert sf.mul(sf.const(0), sf.exp(sf.T)) == sf.const(0)
        assert sf.mul(sf.const(1), sf.T) == sf.T
        assert sf.poly(3.0) == sf.const(3.0)
        assert sf.poly(0, 1) == sf.T


# -- compiled scalar evaluation against the recursive float walk -------------

def walk(f, t):
    """The recursive float evaluation the compiled code replaced, with its
    DomainError messages; Antiderivative keeps its own float lookup."""
    kind = type(f)
    if kind is sf.Const:
        return f.value
    if kind is sf.Var:
        return t
    if kind is sf.Poly:
        acc = f.coeffs[-1]
        for c in reversed(f.coeffs[:-1]):
            acc = acc * t + c
        return acc
    if kind in (sf.Sum, sf.Product):
        parts = f.terms if kind is sf.Sum else f.factors
        acc = walk(parts[0], t)
        for g in parts[1:]:
            acc = acc + walk(g, t) if kind is sf.Sum else acc * walk(g, t)
        return acc
    if kind is sf.Quotient:
        if not f.lo < t < f.hi:
            raise DomainError(f"argument outside ({f.lo}, {f.hi}) for {f!r}")
        dv = walk(f.den, t)
        if dv == 0.0:
            raise DomainError(f"zero denominator in {f!r}")
        return walk(f.num, t) / dv
    if kind is sf.Power:
        if not f.lo < t < f.hi:
            raise DomainError(f"argument outside ({f.lo}, {f.hi}) for {f!r}")
        b = walk(f.base, t)
        p = f.expo
        if not float(p).is_integer():
            if b <= 0.0:
                raise DomainError(f"non-positive base under exponent {p} in {f!r}")
        elif p < 0:
            if b == 0.0:
                raise DomainError(f"zero base under exponent {p} in {f!r}")
        return b ** p
    if kind is sf.Exp:
        return math.exp(walk(f.arg, t))
    if kind is sf.Compose:
        return walk(f.outer, walk(f.inner, t))
    if kind is sf.Antiderivative:
        return f._eval(t)
    raise TypeError(kind)


def array_walk(f, t):
    """The recursive ndarray evaluation the compiled array code replaced
    (the nodes' former `_eval` methods), with their DomainError messages;
    Antiderivative and unknown subclasses keep their own `_eval`."""
    kind = type(f)
    if kind is sf.Const:
        return f.value
    if kind is sf.Var:
        return t
    if kind is sf.Poly:
        acc = f.coeffs[-1]
        for c in reversed(f.coeffs[:-1]):
            acc = acc * t + c
        return acc
    if kind in (sf.Sum, sf.Product):
        parts = f.terms if kind is sf.Sum else f.factors
        acc = array_walk(parts[0], t)
        for g in parts[1:]:
            acc = acc + array_walk(g, t) if kind is sf.Sum else acc * array_walk(g, t)
        return acc
    if kind is sf.Quotient:
        if not np.all((t > f.lo) & (t < f.hi)):
            raise DomainError(f"argument outside ({f.lo}, {f.hi}) for {f!r}")
        dv = array_walk(f.den, t)
        if np.any(dv == 0.0):
            raise DomainError(f"zero denominator in {f!r}")
        return array_walk(f.num, t) / dv
    if kind is sf.Power:
        if not np.all((t > f.lo) & (t < f.hi)):
            raise DomainError(f"argument outside ({f.lo}, {f.hi}) for {f!r}")
        b = array_walk(f.base, t)
        p = f.expo
        if not float(p).is_integer():
            if np.any(b <= 0.0):
                raise DomainError(f"non-positive base under exponent {p} in {f!r}")
        elif p < 0 and np.any(b == 0.0):
            raise DomainError(f"zero base under exponent {p} in {f!r}")
        return b ** p
    if kind is sf.Exp:
        return np.exp(array_walk(f.arg, t))
    if kind is sf.Compose:
        return array_walk(f.outer, array_walk(f.inner, t))
    return f._eval(t)


def outcome(evaluate, t):
    """repr of the value (tells -0.0 and nan apart), or the error raised."""
    try:
        return repr(evaluate(t))
    except (DomainError, ToleranceNotMet, ArithmeticError) as e:
        return type(e), str(e)


def assert_compiled_matches_walk(f, points):
    for t in points:
        assert outcome(f, t) == outcome(lambda x: walk(f, x), t), (f, t)


def array_outcome(evaluate, t):
    """Type, shape and repr of the values (tells -0.0 and nan apart), or
    the error raised."""
    try:
        with np.errstate(all="ignore"):
            v = evaluate(t)
    except (DomainError, ToleranceNotMet, ArithmeticError) as e:
        return type(e), str(e)
    return type(v), np.shape(v), repr(np.asarray(v).tolist())


def assert_array_matches_walk(f, arrays):
    for t in arrays:
        got = array_outcome(f, t)
        assert got == array_outcome(lambda x: array_walk(f, x), t), (f, t)


def family_trees():
    """A, B, C, P, Q and F of every preset, the CLI's default cross-profile
    family (whose Q holds an Antiderivative) and the driven 1-d system, with
    their derivatives to third order."""
    from tdcentral import potentials as pot
    from tdcentral.cli import _default_driven_1d, _default_family, _family_from
    fams = [(name, pot.preset(name).family) for name, _ in pot.catalog()]
    fams += [("cross-profile", _default_family()),
             ("driven-1d", _family_from(_default_driven_1d()["system"], (0.0, 5.0)))]
    out = []
    for name, fam in fams:
        for attr in ("_A", "_B", "_C", "_P", "_Q", "F"):
            g = getattr(fam, attr)
            for order in range(4):
                out.append(pytest.param(g, id=f"{name}-{attr}-d{order}"))
                g = g.d()
    return out


POINTS = [float(t) for t in np.linspace(-3.0, 12.0, 31)] + [
    0.0, -0.0, 1e-300, 0.5, 1.0, 2.0, math.nan, math.inf, -math.inf]


# a few points alone, so that a value outside one node's domain does not
# hide every other value, then whole arrays of several shapes
ARRAYS = [np.array([t]) for t in (-2.5, 0.0, -0.0, 1e-300, 0.5, 7.0)] + [
    np.linspace(-3.0, 12.0, 31), np.linspace(0.05, 2.95, 30).reshape(5, 6),
    np.array(POINTS), np.array(0.7), np.empty(0)]


class TestCompiledScalar:
    @pytest.mark.parametrize("f", family_trees())
    def test_family_trees_bit_identical(self, f):
        assert_compiled_matches_walk(f, POINTS)

    @pytest.mark.parametrize("f", [f for f, _ in fn_pool()])
    def test_pool_bit_identical(self, f):
        assert_compiled_matches_walk(f, POINTS)

    def test_signed_zero_subtrees_not_merged(self):
        # (t * 0.0) * (t * -0.0): merging the factors would give +0.0
        pos = sf.Product((sf.T, sf.Const(0.0)))
        neg = sf.Product((sf.T, sf.Const(-0.0)))
        f = sf.Product((pos, neg))
        assert repr(f(1.0)) == repr(walk(f, 1.0)) == "-0.0"
        g = sf.Sum((sf.Exp(pos), sf.Quotient(sf.Const(1.0), sf.Exp(neg))))
        assert_compiled_matches_walk(g, POINTS)

    @pytest.mark.parametrize("f,t", [
        (sf.div(1, sf.poly(-1, 1)), 1.0),                        # zero denominator
        (sf.sqrt(sf.poly(0, 1)), -1.0),                          # non-positive base
        (sf.sqrt(sf.poly(0, 1)), 0.0),
        (sf.power(sf.T, -2), 0.0),                               # zero base
        (sf.div(1, sf.T, (0, 2)), 2.0),                          # interval bounds
        (sf.power(sf.T, 0.5, (0, 2)), 0.0),
        (sf.compose(sf.power(sf.T, -2, (0, math.inf)), sf.poly(-1, 1)), 0.5),
        (sf.div(1, sf.poly(1, 0, 1)), math.nan),                 # NaN argument
        (sf.antiderivative(sf.div(1, sf.poly(1, 0, 1))), math.nan),
    ])
    def test_domain_edges_raise_the_walks_error(self, f, t):
        got = outcome(f, t)
        assert got[0] is DomainError
        assert got == outcome(lambda x: walk(f, x), t)

    def test_repeated_subtrees_evaluated_once(self):
        a = sf.poly(1, 0, 1)
        f = sf.add(sf.mul(a, sf.sqrt(a)), sf.div(a, sf.sqrt(a)))
        for array in (False, True):
            compiler = sf._Compiler(array)
            compiler.function(f)
            assert sum("* t +" in line for line in compiler.lines) == 1  # one Horner line
        assert f(0.7) == walk(f, 0.7)
        assert f(np.array([0.7])).tolist() == [walk(f, 0.7)]

    def test_same_shape_shares_code(self):
        # numbers are bound by name, so trees differing only in their
        # constants run one code object, each in its own namespace
        f = sf.sqrt(sf.poly(1, 0, 2), (0, math.inf))
        g = sf.sqrt(sf.poly(3, 0, 5), (-1, math.inf))
        ts = np.array([0.5, 1.0])
        assert (f(1.0), g(1.0)) == (math.sqrt(3.0), math.sqrt(8.0))
        assert (f(ts).tolist(), g(ts).tolist()) == ([f(0.5), f(1.0)], [g(0.5), g(1.0)])
        assert f._scalar is not g._scalar and f._array is not g._array
        assert f._scalar.__code__ is g._scalar.__code__
        assert f._array.__code__ is g._array.__code__
        assert f._array.__code__ is not f._scalar.__code__
        with pytest.raises(DomainError, match="argument outside"):
            f(np.array([0.5, 0.0]))
        assert g(np.array([0.0])).tolist() == [math.sqrt(3.0)]

    def test_constant_needs_no_compiler(self, monkeypatch):
        # a constant returns what its compiled code returned, the value
        # itself at a number or an array, through ScalarFn.__call__
        assert "__call__" not in vars(sf.Const)
        for value in (0.5, -0.0, 3):
            ts = (1.0, np.array([0.5, 1.5]), np.float64(2.0), 4)
            want = [sf._Compiler(not sf._is_number(t)).function(sf.Const(value))(t)
                    for t in ts]
            monkeypatch.setattr(sf, "_Compiler", None)
            c = sf.Const(value)
            got = [c(t) for t in ts]
            monkeypatch.undo()
            assert all(g is value and w is value for g, w in zip(got, want))
        c = sf.Const(1.0)
        c(0.0)
        fn = c._scalar
        c(1.0)
        assert c._scalar is fn and c._array is None

    def test_compiled_once_per_node(self):
        f = sf.sqrt(sf.poly(1, 0, 1))
        f(1.0)
        fn = f._scalar
        f(2.0)
        assert f._scalar is fn and sf.sqrt(sf.poly(1, 0, 1))._scalar is None

    @pytest.mark.parametrize("slot,t", [("_scalar", 0.5), ("_array", np.array([0.5, 1.5]))],
                             ids=["scalar", "array"])
    @pytest.mark.parametrize("build", [lambda: sf.div(1, sf.poly(1, 0, 1)),
                                       lambda: sf.antiderivative(cross_integrand())],
                             ids=["quotient", "antiderivative"])
    def test_compiled_tree_freed_by_reference_counting(self, build, slot, t):
        # the compiled function must not lead back to its root: a cycle
        # leaves every op's trees to the cyclic GC, whose pauses set the tail
        f = build()
        f(t)
        refs = [weakref.ref(f), weakref.ref(getattr(f, slot))]
        gc.disable()
        try:
            del f
            assert [r() for r in refs] == [None, None]
        finally:
            gc.enable()

    def test_antiderivative_lookup_resolved_at_call_time(self, monkeypatch):
        F = sf.antiderivative(cross_integrand(), 0.0)
        f = sf.mul(2.0, F)
        want = f(1.5)
        seen = []
        original = sf.Antiderivative._eval

        def spy(self, t):
            seen.append(t)
            return original(self, t)
        monkeypatch.setattr(sf.Antiderivative, "_eval", spy)
        assert f(1.5) == want and seen == [1.5]

    def test_unknown_subclass_uses_its_eval(self):
        inner = CountingFn(sf.poly(0, 2))
        f = sf.add(sf.exp(inner), 1.0)
        assert f(0.25) == math.exp(0.5) + 1.0
        assert inner.calls == 1


@settings(max_examples=80, deadline=None)
@given(_trees, st.floats(-4.0, 4.0))
def test_compiled_random_trees_match_walk(f, t):
    assert_compiled_matches_walk(f, [t, 0.0, -0.0])


class TestCompiledArray:
    """Array evaluation runs the compiled code too; it must return the
    former tree walk's values bit for bit and raise its first DomainError."""

    @pytest.mark.parametrize("f", family_trees())
    def test_family_trees_bit_identical(self, f):
        assert_array_matches_walk(f, ARRAYS)

    @pytest.mark.parametrize("f,window", fn_pool())
    def test_pool_bit_identical(self, f, window):
        assert_array_matches_walk(f, ARRAYS + [np.linspace(*window, 23)])

    @pytest.mark.parametrize("f,t", [
        (sf.div(1, sf.poly(-1, 1)), [0.5, 1.0]),                 # zero denominator
        (sf.sqrt(sf.poly(0, 1)), [1.0, -1.0]),                   # non-positive base
        (sf.power(sf.T, -2), [2.0, 0.0]),                        # zero base
        (sf.div(1, sf.T, (0, 2)), [1.0, 2.0]),                   # interval bounds
        (sf.compose(sf.power(sf.T, -2, (0, math.inf)), sf.poly(-1, 1)), [2.0, 0.5]),
        (sf.div(1, sf.poly(1, 0, 1)), [0.0, math.nan]),          # NaN argument
        (sf.antiderivative(sf.div(1, sf.poly(1, 0, 1))), [0.0, math.nan]),
    ])
    def test_domain_edges_raise_the_walks_error(self, f, t):
        got = array_outcome(f, np.array(t))
        assert got[0] is DomainError
        assert got == array_outcome(lambda x: array_walk(f, x), np.array(t))

    def test_unknown_subclass_uses_its_eval(self):
        inner = CountingFn(sf.poly(0, 2))
        f = sf.add(sf.exp(inner), sf.mul(inner, inner))
        ts = np.array([0.25, -0.5])
        got = f(ts).tolist()
        assert inner.calls == 1  # one call for the three uses
        assert got == array_walk(f, ts).tolist()


@settings(max_examples=80, deadline=None)
@given(_trees, st.lists(st.floats(-4.0, 4.0), min_size=1, max_size=6))
def test_compiled_random_trees_match_array_walk(f, ts):
    assert_array_matches_walk(f, [np.array(ts), np.array(ts + [0.0, -0.0])])

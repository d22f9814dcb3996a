"""Scalar-function algebra: evaluation, exact derivatives, quadrature, text form."""

import math

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
            assert sf.deriv(f, 3, t) == 6.0

    def test_exp_chain_rule(self):
        f = sf.exp(sf.neg(sf.T))
        assert sf.deriv(f, 1, 0.0) == -1.0

    def test_sqrt_second_derivative_vs_fd(self):
        # d2/dt2 sqrt(1+t^2) at 0 is 1; cross-check with central differences.
        # Plain h=1e-5 stencils sit on a ~1e-7 roundoff floor (eps/h^2), so the
        # oracle uses h=1e-3 with one Richardson step to actually reach 1e-8.
        f = sf.sqrt(sf.poly(1, 0, 1))
        got = sf.deriv(f, 2, 0.0)

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

    def test_order_validation(self):
        f = sf.poly(0, 1)
        with pytest.raises(ValueError):
            sf.deriv(f, 0, 1.0)
        with pytest.raises(ValueError):
            sf.deriv(f, 4, 1.0)

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
            sf.deriv(f, 1, -1.0)


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

    def test_tolerance_not_met(self):
        # integrable endpoint singularity starves a tiny subdivision budget
        f = sf.power(sf.T, -0.5, (0, math.inf))
        cfg = sf.QuadratureConfig(rtol=1e-13, atol=1e-14, max_subdivisions=3)
        with pytest.raises(ToleranceNotMet):
            sf.integrate(f, 0.0, 1.0, cfg)

    def test_config_validation(self):
        with pytest.raises(ValueError):
            sf.QuadratureConfig(rtol=0.0)
        with pytest.raises(ValueError):
            sf.QuadratureConfig(max_subdivisions=0)


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
        return self.f._eval(t)


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
        direct = sf.integrate(f, 0.0, t)
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
        assert F(9.9) == pytest.approx(sf.integrate(f, 0.0, 9.9), rel=1e-12)
        for _ in range(2):
            with pytest.raises(DomainError):
                F(10.5)
        assert F(-3.0) == pytest.approx(sf.integrate(f, 0.0, -3.0), rel=1e-12)

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
        bad = ["", "(", "(+ 1", "(+ )", "(pow t)", "nosuch", "(frob 1 2)", "1 2"]
        for txt in bad:
            with pytest.raises(ParseError):
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

"""Potential families: values, exact partials, presets, profile laws."""

import math
import warnings

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from tdcentral import potentials as pot
from tdcentral import scalarfn as sf
from tdcentral.errors import DomainError, InvalidParameters, ToleranceNotMet, UnknownPreset
from tdcentral.potentials import FamilyA, FamilyB, LewisLeach1d
from test_scalarfn import _trees

U = sf.T  # shape-argument variable


def central_diff(f, x, h):
    return (f(x + h) - f(x - h)) / (2 * h)


def preset_pool():
    """One representative instance per registered preset, with a sampling box."""
    entries = [
        ("free-particle", dict(L3=0.8), (0.0, 3.0), (0.5, 3.0)),
        ("linear-lfi", dict(g2="(poly 1 0.2 0.1)", g="(poly 0 0.3)", L3=0.5),
         (0.0, 3.0), (0.5, 3.0)),
        ("oscillator", dict(g1="(poly 1 0 1)", c0=0.4, L3=1.0), (0.0, 3.0), (0.5, 3.0)),
        ("generalized-kepler", dict(nu=1.5, k=0.8, b0=1.0, b1=0.3, b2=0.2, L3=0.7),
         (0.0, 3.0), (0.5, 3.0)),
        ("scaled-kepler", dict(phi="(sqrt (poly 1 0 1))", k=1.0, L3=0.5),
         (0.0, 3.0), (0.5, 3.0)),
        ("binary", dict(G=1.0, b0=1.0, b1=0.5, b2=0.25, L3=0.6), (0.0, 3.0), (0.5, 3.0)),
        ("yukawa", dict(k=1.0, b0=1.0, b1=0.5, b2=0.25, L3=0.6), (0.0, 3.0), (0.5, 3.0)),
        ("interatomic", dict(k1=1.0, k2=1.0, m=12.0, n=6.0, b0=1.0, b1=0.2, b2=0.1,
                             L3=0.4), (0.0, 2.0), (0.8, 2.5)),
        ("lewis-leach", dict(rho="(sqrt (poly 1 0 1))", alpha="(poly 0 0.1)",
                             k=1.0), (0.0, 3.0), (0.5, 3.0)),
        # the CLI's driven-1d fixture: nonzero Omega and F1 reach every term
        ("lewis-leach", dict(rho="(sqrt (poly 1 0 1))", alpha="(poly 0 0.1)",
                             Omega="(pow (poly 1 0 1) -1)",
                             F1="(* 0.1 t (pow (poly 1 0 1) -2))",
                             G="(pow t 4)", k=2.0), (0.0, 3.0), (0.5, 3.0)),
    ]
    return [(pot.preset(name, **params).family, trange, rrange)
            for name, params, trange, rrange in entries]


class TestFamilyAPotential:
    def test_pure_centrifugal(self):
        fam = FamilyA(1.0, 0.0, L3=1.0)
        assert fam.V(0.0, 1.0) == -0.5

    def test_quadratic_profile(self):
        # g2 = t^2 has constant second derivative 2, so V = -r^2/t^2
        fam = FamilyA(sf.poly(0, 0, 1), 0.0, 0.0)
        assert math.isclose(fam.V(1.0, 1.0), -1.0, rel_tol=1e-14)

    def test_linear_gauge_term(self):
        fam = FamilyA(1.0, sf.T, 0.0)
        for t in (0.0, 1.0, 7.5):
            assert math.isclose(fam.V(t, 2.0), 2.0, rel_tol=1e-14)

    def test_rejects_nonpositive_radius(self):
        fam = FamilyA(1.0, 0.0, 1.0)
        with pytest.raises(DomainError):
            fam.V(0.0, 0.0)
        with pytest.raises(DomainError):
            fam.V(0.0, np.array([1.0, -2.0]))

    def test_profile_zero_raises(self):
        # g2 = t vanishes at t = 0 and the linear coefficient g'/g2 survives
        fam = FamilyA(sf.poly(0, 1), sf.poly(0, 0, 1), 0.0)
        with pytest.raises(DomainError):
            fam.V(0.0, 1.0)
        assert math.isclose(fam.V(1.0, 3.0), 6.0, rel_tol=1e-14)

    def test_degenerate_zero_coefficients_fold(self):
        # g2 = t with g''2 = 0 and constant g: both coefficients fold to the
        # exact zero limit, so evaluation succeeds even at the profile zero
        fam = FamilyA(sf.poly(0, 1), 0.0, 0.0)
        assert fam.V(0.0, 1.0) == 0.0


class TestFamilyBPotential:
    def test_pure_centrifugal(self):
        fam = FamilyB(0.5, 0.0, 0.0, L3=1.0)
        assert fam.V(0.0, 1.0) == -0.5

    def test_quadratic_profile_with_shape(self):
        # g1 = 1+t^2, F(u) = u^2 at t = 0, r = 2: the r^2 term gives -2,
        # the shape term +2; they cancel exactly
        fam = FamilyB(sf.poly(1, 0, 1), 0.0, sf.power(U, 2), 0.0)
        assert abs(fam.V(0.0, 2.0)) < 1e-14

    def test_rescaled_shape_instance(self):
        # constant profile g1 = 1/2 turns the family into a plain shape
        # potential: with F(u) = Fbar(u/sqrt(2)), V(t,r) = Fbar(r) - L3^2/(2r^2)
        fbar = sf.power(U, 2)
        shape = sf.compose(fbar, sf.poly(0.0, 2.0 ** -0.5))
        fam = FamilyB(0.5, 0.0, shape, L3=1.0)
        for r in (0.5, 1.0, 2.3):
            want = r * r - 0.5 / (r * r)
            assert math.isclose(fam.V(0.7, r), want, rel_tol=1e-13)

    def test_argument_includes_profile_integral(self):
        # g2 != 0 shifts the shape argument by a time-dependent offset
        fam = FamilyB(1.0, 1.0, 0.0, 0.0, t0=0.0)
        assert math.isclose(fam.arg(2.0, 1.5), 1.5 + 1.0, rel_tol=1e-12)

    def test_t0_shifts_argument_constant(self):
        fam0 = FamilyB(1.0, 1.0, 0.0, 0.0, t0=0.0)
        fam1 = FamilyB(1.0, 1.0, 0.0, 0.0, t0=1.0)
        d = fam0.arg(3.0, 1.0) - fam1.arg(3.0, 1.0)
        assert math.isclose(d, 0.5, rel_tol=1e-12)

    def test_array_radius(self):
        fam = FamilyB(sf.poly(1, 0, 1), 0.0, sf.power(U, 2), 0.5)
        rs = np.array([0.5, 1.0, 2.0])
        vals = fam.V(1.3, rs)
        assert vals.shape == rs.shape
        for i, r in enumerate(rs):
            assert math.isclose(vals[i], fam.V(1.3, float(r)), rel_tol=1e-14)


def central_families():
    """Every preset, the CLI's default cross-profile family (whose Q holds an
    Antiderivative), the driven 1-d system, and a cross-profile family whose
    g1 vanishes at t = 1, so that A, P and Q raise there."""
    from tdcentral.cli import _default_driven_1d, _default_family, _family_from
    fams = [(name, pot.preset(name).family) for name, _ in pot.catalog()]
    shape = sf.add(sf.power(U, 2), sf.mul(2.0, sf.power(U, -2, (0, math.inf))))
    fams += [("cross-profile", _default_family()),
             ("driven-1d", _family_from(_default_driven_1d()["system"], (0.0, 5.0))),
             ("vanishing-g1", FamilyB(sf.poly(1, -1), sf.poly(0.3, 0.1), shape, L3=0.7))]
    return [pytest.param(fam, id=name) for name, fam in fams]


def per_tree_dU_dr(fam, t, r):
    """dU_dr with each coefficient tree called on its own: the expression the
    compiled per-family function replaced."""
    fam._guard(r)
    u = 2.0 * fam._A(t) * r + fam._B(t)
    if not fam._shaped:
        return u
    return u + fam._C(t) * fam.F_d(fam.arg(t, r)) * fam._P(t)


def outcome(f, t, r):
    try:
        v = f(t, r)
    except (DomainError, ToleranceNotMet, ArithmeticError) as e:
        return type(e), str(e)
    return type(v), np.shape(v), repr(np.asarray(v).tolist())


_TIMES = [float(t) for t in np.linspace(-3.0, 12.0, 16)] + [
    0.0, -0.0, 1e-300, 0.5, 1, 1.5, math.nan, math.inf, -math.inf]
_RADII = [1e-3, 0.4, 1, 2.5, 0.0, -1.0]
_ARRAYS = [
    (np.linspace(-3.0, 12.0, 31), np.linspace(0.2, 3.0, 31)),
    (np.linspace(0.05, 0.95, 30).reshape(5, 6), np.linspace(0.3, 2.0, 30).reshape(5, 6)),
    (np.array([0.5, 2.0]), np.array([1.0])),             # broadcast radii
    (np.array([0.25, 1.0]), np.array([1.0, 1.0])),       # g1 = 1 - t vanishes at 1
    (np.array([0.5, math.nan]), np.array([1.0, 1.0])),
    (np.array([0.5, 0.7]), np.array([1.0, 0.0])),        # a radius at zero
    (np.array(-0.0), np.array(0.5)), (np.empty(0), np.empty(0)),
] + [  # 0-d arrays make s a number, which F' evaluates as the per-tree call did
    (np.array(t), np.array(r)) for t, r in zip(np.linspace(0.05, 0.95, 256),
                                               np.linspace(5.0, 0.1, 256))]


class TestCompiledDUdr:
    """dU_dr is one compiled function of (t, r) per family; it returns the
    per-tree expression's values bit for bit and raises its first error."""

    @pytest.mark.parametrize("fam", central_families())
    def test_numbers_bit_identical(self, fam):
        for t in _TIMES:
            for r in _RADII:
                want = outcome(lambda t, r: per_tree_dU_dr(fam, t, r), t, r)
                assert outcome(fam.dU_dr, t, r) == want, (t, r)

    @pytest.mark.parametrize("fam", central_families())
    def test_arrays_bit_identical(self, fam):
        for t, r in _ARRAYS:
            want = outcome(lambda t, r: per_tree_dU_dr(fam, t, r), t, r)
            assert outcome(fam.dU_dr, t, r) == want, (t, r)

    @pytest.mark.parametrize("fam", central_families())
    def test_numpy_scalars_equal(self, fam):
        # two numbers run the scalar function on Python floats: a double
        # result, equal to the per-tree value
        for t, r in ((np.float64(0.5), np.float64(1.2)), (np.int64(0), np.int64(1))):
            assert fam.dU_dr(t, r) == per_tree_dU_dr(fam, t, r)

    @pytest.mark.parametrize("t,r,message", [
        (1.0, 1.0, "zero denominator"),                 # g1 = 1 - t in A
        (1.5, 1.0, "non-positive base"),                # g1^-1/2 in A
        (math.nan, 1.0, "argument outside"),
        (0.5, 0.0, "radius must be positive"),
        (-2.5, 1e-3, "argument outside"),               # s = P r + Q < 0 in F'
        (np.array([0.5, 1.0]), np.array([1.0, 1.0]), "zero denominator"),
        (np.array([-2.5]), np.array([1e-3]), "argument outside"),
    ])
    def test_domain_edges(self, t, r, message):
        fam = central_families()[-1].values[0]
        got = outcome(fam.dU_dr, t, r)
        assert got[0] is DomainError and message in got[1]
        assert got == outcome(lambda t, r: per_tree_dU_dr(fam, t, r), t, r)

    def test_one_code_object_per_shape(self, monkeypatch):
        a = pot.preset("scaled-kepler", k=1.0).family
        b = pot.preset("scaled-kepler", k=2.5, L3=0.5).family  # same shape, other numbers
        for t, r in ((0.5, 1.2), (np.array([0.5]), np.array([1.2]))):
            a.dU_dr(t, r)
            compiled = []
            monkeypatch.setattr(sf, "compile", lambda *args: compiled.append(args) or
                                compile(*args), raising=False)
            b.dU_dr(t, r)
            monkeypatch.undo()
            assert compiled == []  # numbers are bound by name, not written in the text
        assert a._dU_dr_scalar is not b._dU_dr_scalar
        assert a._dU_dr_scalar.__code__ is b._dU_dr_scalar.__code__
        assert a._dU_dr_array.__code__ is b._dU_dr_array.__code__
        assert a._dU_dr_array.__code__ is not a._dU_dr_scalar.__code__

    def test_shared_subtrees_computed_once(self, monkeypatch):
        # g1 = 1 + t^2 enters A, C and P; one Horner line evaluates it
        lines = []
        define = sf._Compiler.define

        def spy(self, args, result):
            lines.extend(self.lines)
            return define(self, args, result)
        monkeypatch.setattr(sf._Compiler, "define", spy)
        fam = pot.preset("oscillator", g1="(poly 1 0 1)", c0=0.4, L3=1.0).family
        fam.dU_dr(0.5, 1.2)
        assert sum(") * t +" in line for line in lines) == 1
        assert fam.dU_dr(0.5, 1.2) == per_tree_dU_dr(fam, 0.5, 1.2)

    def test_compiled_once_per_family(self):
        fam = pot.preset("yukawa").family
        fam.dU_dr(0.5, 1.2)
        fn = fam._dU_dr_scalar
        fam.dU_dr(1.5, 0.7)
        assert fam._dU_dr_scalar is fn and fam._dU_dr_array is None


def guarded_families():
    """central_families() and the perturbed negative control of two of them."""
    from tdcentral.cli import _default_family
    from tdcentral.verify import PerturbedPotential
    return central_families() + [
        pytest.param(PerturbedPotential(pot.preset("oscillator").family),
                     id="perturbed-oscillator"),
        pytest.param(PerturbedPotential(_default_family()), id="perturbed-cross-profile")]


# r = 0 and r < 0 as a float, a 0-d array and an array with one bad radius; and no radius
_BAD_RADII = [0.0, -1.0, np.array(0.0), np.array(-0.5), np.array([1.0, 0.0, 2.0]),
              np.array([0.5, -1.0]), np.empty(0)]


class TestRadiusGuard:
    """U and dU_dr are the only radius checks; V and dV_dr reach them first,
    so they raise exactly what U and dU_dr raise."""

    @pytest.mark.parametrize("fam", guarded_families())
    def test_V_and_dV_dr_raise_as_U_and_dU_dr(self, fam):
        for r in _BAD_RADII:
            for f, base in ((fam.V, fam.U), (fam.dV_dr, fam.dU_dr)):
                want = outcome(base, 0.5, r)
                if fam.radial and np.size(r):
                    assert want == (DomainError, "radius must be positive"), (f, r)
                got = outcome(f, 0.5, r)
                assert got == want if want[0] is DomainError else got[:2] == want[:2], (f, r)

    def test_V_and_dV_dr_make_no_check_of_their_own(self, monkeypatch):
        fam = pot.preset("generalized-kepler", nu=1.0, k=1.0, b0=1.0, L3=0.5).family
        calls = []
        monkeypatch.setattr(fam, "_guard", calls.append, raising=False)
        fam.V(0.5, 1.5)
        fam.dV_dr(0.5, np.array([1.5]))
        # one check each: U's and dU_dr's (which checks two floats inline)
        assert [np.asarray(r).tolist() for r in calls] == [1.5, [1.5]]


_LAZY = ("_A_d", "_B_d", "_C_d", "_P_d", "_Q_d", "F_dd")


class TestLazyDerivativeTrees:
    """The derivative trees that only d2U_dr2, d2U_dtdr and dK_dt read are
    built on first use, and building them cannot raise where building the
    family did not."""

    @pytest.mark.parametrize("fam", central_families())
    def test_built_on_first_use(self, fam):
        fam.U(0.5, 1.2)
        fam.dU_dr(0.5, 1.2)
        assert not set(_LAZY) & set(vars(fam))
        fam.d2U_dtdr(0.5, 1.2)
        assert {"_A_d", "_B_d"} <= set(vars(fam))
        for name, base in zip(_LAZY, ("_A", "_B", "_C", "_P", "_Q", "F_d")):
            assert getattr(fam, name) is getattr(fam, base).d()

    @settings(max_examples=60, deadline=None)
    @given(st.sampled_from([FamilyA, FamilyB, LewisLeach1d]), st.lists(_trees, min_size=5,
                                                                       max_size=5))
    def test_never_raise_once_the_family_builds(self, cls, trees):
        try:
            fam = cls(*trees[:{FamilyA: 2, FamilyB: 3, LewisLeach1d: 5}[cls]])
        except (DomainError, ArithmeticError):
            assume(False)
        for name in _LAZY:
            assert isinstance(getattr(fam, name), sf.ScalarFn)


class TestPartials:
    def test_inverse_square_slope(self):
        fam = FamilyB(0.5, 0.0, 0.0, L3=1.0)
        assert math.isclose(fam.dV_dr(0.0, 1.0), 1.0, rel_tol=1e-14)

    def test_flat_family_partials_vanish(self):
        fam = FamilyA(1.0, 0.0, 0.0)
        for t, r in ((0.0, 1.0), (2.0, 0.3), (-1.0, 5.0)):
            assert fam.dV_dr(t, r) == 0.0
            assert fam.d2U_dr2(t, r) == 0.0
            assert fam.d2U_dtdr(t, r) == 0.0

    def test_oscillator_slope_at_origin_time(self):
        fam = pot.preset("oscillator", g1="(poly 1 0 1)", c0=0.0, L3=0.0).family
        assert math.isclose(fam.dV_dr(0.0, 1.0), -1.0, rel_tol=1e-12)

    def test_partials_match_finite_differences(self):
        # dV_dr vs central differences of V, the second partials of U vs
        # central differences of dU_dr; 100 samples per pool entry
        rng = np.random.default_rng(20260815)
        for fam, (tlo, thi), (rlo, rhi) in preset_pool():
            for _ in range(100):
                t = float(rng.uniform(tlo, thi))
                r = float(rng.uniform(rlo, rhi))
                hr = 1e-6 * max(1.0, r)
                ht = 1e-6 * max(1.0, abs(t))
                fd_r = central_diff(lambda x: fam.V(t, x), r, hr)
                fd_rr = central_diff(lambda x: fam.dU_dr(t, x), r, hr)
                fd_tr = central_diff(lambda x: fam.dU_dr(x, r), t, ht)
                got_r = fam.dV_dr(t, r)
                got_rr = fam.d2U_dr2(t, r)
                got_tr = fam.d2U_dtdr(t, r)
                scale_r = max(1.0, abs(got_r))
                scale_rr = max(1.0, abs(got_rr))
                scale_tr = max(1.0, abs(got_tr))
                assert abs(got_r - fd_r) <= 1e-7 * scale_r
                assert abs(got_rr - fd_rr) <= 1e-7 * scale_rr
                assert abs(got_tr - fd_tr) <= 1e-7 * scale_tr


class TestEffectivePotential:
    def test_exact_cancellation(self):
        for L3 in (0.0, 1.0, 7.0):
            fam = FamilyB(0.5, 0.0, 0.0, L3=L3)
            assert fam.U(0.3, 1.0) == 0.0

    def test_linear_family_value(self):
        fam = FamilyA(1.0, sf.T, L3=5.0)
        assert math.isclose(fam.U(0.0, 2.0), 2.0, rel_tol=1e-14)

    def test_static_kepler_value(self):
        fam = pot.preset("generalized-kepler", nu=1.0, k=1.0, b0=1.0, L3=0.0).family
        assert math.isclose(fam.U(0.0, 2.0), -0.5, rel_tol=1e-12)

    def test_no_angular_momentum_dependence(self):
        # U is independent of the family's L3 field when the shape is held fixed
        shape = sf.add(sf.power(U, 2), sf.power(U, -2, (0, math.inf)))
        g1 = sf.poly(1, 0, 0.25)
        g2 = sf.poly(0.3, 0.1)
        rng = np.random.default_rng(7)
        fam0 = FamilyB(g1, g2, shape, L3=0.0)
        fam7 = FamilyB(g1, g2, shape, L3=7.0)
        ga0 = FamilyA(sf.poly(1, 0.2), sf.T, L3=0.0)
        ga7 = FamilyA(sf.poly(1, 0.2), sf.T, L3=7.0)
        for _ in range(25):
            t = float(rng.uniform(0.0, 3.0))
            r = float(rng.uniform(0.5, 3.0))
            assert fam0.U(t, r) == fam7.U(t, r)
            assert ga0.U(t, r) == ga7.U(t, r)


class TestShapes:
    def test_oscillator_shape(self):
        F = pot.oscillator_shape(0.4, 1.0)
        assert math.isclose(F(2.0), 0.2 * 4.0 + 0.25, rel_tol=1e-14)

    def test_scaled_kepler_shape(self):
        F = pot.scaled_kepler_shape(1.0)
        assert math.isclose(F(2.0), -math.sqrt(2.0) / 2.0, rel_tol=1e-14)

    def test_shapes_reject_origin(self):
        for F in (pot.oscillator_shape(0.0, 1.0),
                  pot.yukawa_shape(1.0, 0.0, 0.5),
                  pot.interatomic_shape(1.0, 1.0, 12.0, 6.0, 0.0, 0.5)):
            with pytest.raises(DomainError):
                F(0.0)
            with pytest.raises(DomainError):
                F(-1.0)


class TestStructuralIdentity:
    # the screened-Coulomb and pair presets reduce to a pure rescaled shape:
    # V(t,r) = (1/2 g1) Fbar(g1^{-1/2} r), the r^2 pieces cancel for any L3

    def test_yukawa(self):
        k, b = 1.3, (1.0, 0.5, 0.25)
        fam = pot.preset("yukawa", k=k, b0=b[0], b1=b[1], b2=b[2], L3=0.6).family
        g1 = sf.poly(*b)
        for t in (0.0, 0.7, 2.5):
            for r in (0.5, 1.0, 3.0):
                gv = g1(t)
                s = r / math.sqrt(gv)
                want = (1.0 / (2.0 * gv)) * (2.0 * k * math.exp(-s) / s)
                assert math.isclose(fam.V(t, r), want, rel_tol=1e-12, abs_tol=1e-12)

    def test_interatomic(self):
        k1, k2, m, n, b = 2.0, 1.5, 12.0, 6.0, (1.0, 0.2, 0.1)
        fam = pot.preset("interatomic", k1=k1, k2=k2, m=m, n=n,
                         b0=b[0], b1=b[1], b2=b[2], L3=0.9).family
        g1 = sf.poly(*b)
        for t in (0.0, 1.1, 2.8):
            for r in (0.8, 1.2, 2.0):
                gv = g1(t)
                s = r / math.sqrt(gv)
                want = (1.0 / (2.0 * gv)) * (2.0 * k1 * s**-m - 2.0 * k2 * s**-n)
                assert math.isclose(fam.V(t, r), want, rel_tol=1e-12, abs_tol=1e-12)

    def test_static_screened_coulomb(self):
        fam = pot.preset("yukawa", k=1.0, b0=1.0, b1=0.0, b2=0.0).family
        for r in (0.5, 1.0, 2.0):
            assert math.isclose(fam.V(5.0, r), math.exp(-r) / r, rel_tol=1e-13)


class TestProfileLaws:
    def test_constant_frequency_exponent(self):
        # exponent (nu-2)/2 vanishes at nu = 2
        om = pot.omega_profile(2.0, 1.7, 1.0, 0.5, 0.25)
        for t in (0.0, 1.0, 4.0):
            assert om(t) == 1.7

    def test_frequency_tracks_mass(self):
        om = pot.omega_profile(1.0, 2.5, 1.0, 0.5, 0.25)
        mass = pot.mass_profile(1.0, 0.5, 0.25)
        ts = np.linspace(0.0, 2.0, 41)
        assert np.allclose(om(ts), 2.5 * mass(ts), rtol=1e-12, atol=0)

    def test_mass_degenerate_forms(self):
        ts = np.linspace(0.0, 2.0, 41)
        # b2 = 0: inverse square root of a linear function
        m2 = pot.mass_profile(1.0, 0.5, 0.0)
        assert np.allclose(m2(ts), 1.0 / np.sqrt(1.0 + 0.5 * ts), rtol=1e-12, atol=0)
        # zero discriminant: plain inverse linear
        m1 = pot.mass_profile(1.0, 2.0, 1.0)
        assert np.allclose(m1(ts), 1.0 / (1.0 + ts), rtol=1e-12, atol=0)
        m1b = pot.mass_profile(4.0, 4.0, 1.0)
        assert np.allclose(m1b(ts), 1.0 / (2.0 + ts), rtol=1e-12, atol=0)

    def test_classification(self):
        assert pot.classify_mass_profile(1.0, 0.0, 0.0) == "constant"
        assert pot.classify_mass_profile(1.0, 0.5, 0.0) == "inverse-sqrt-linear"
        assert pot.classify_mass_profile(1.0, 2.0, 1.0) == "inverse-linear"
        assert pot.classify_mass_profile(1.0, 0.5, 0.25) == "inverse-sqrt-quadratic"


class TestPresets:
    def test_catalog_sorted_and_described(self):
        cat = pot.catalog()
        names = [n for n, _ in cat]
        assert names == sorted(names)
        assert {"free-particle", "oscillator", "generalized-kepler", "binary",
                "yukawa", "interatomic", "scaled-kepler", "linear-lfi",
                "lewis-leach"} <= set(names)
        assert all(desc for _, desc in cat)

    def test_unknown_name(self):
        with pytest.raises(UnknownPreset):
            pot.preset("coulomb")

    def test_unknown_parameter(self):
        with pytest.raises(InvalidParameters):
            pot.preset("oscillator", omega=2.0)

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf, 10**400])
    def test_non_finite_parameter(self, value):
        with pytest.raises(InvalidParameters, match="scaled-kepler: parameter 'k'"):
            pot.preset("scaled-kepler", k=value)

    def test_invalid_profile(self):
        with pytest.raises(InvalidParameters):
            pot.preset("yukawa", b0=-1.0).family.check_span(0.0, 10.0)
        with pytest.raises(InvalidParameters):
            pot.preset("generalized-kepler", b0=1.0, b1=-4.0,
                       b2=1.0).family.check_span(0.0, 10.0)
        with pytest.raises(InvalidParameters):
            pot.preset("interatomic", m=0.0).family.check_span(0.0, 10.0)
        with pytest.raises(InvalidParameters):  # vanishes at t = 0
            pot.preset("linear-lfi", g2="(poly 0 1)").family.check_span(0.0, 10.0)

    def test_preset_does_not_check_profiles(self):
        fam = pot.preset("oscillator", g1="(poly 1 -1)").family
        fam.check_span(0.0, 0.5)  # the zero at t = 1 lies outside
        with pytest.raises(InvalidParameters, match="t = 1"):
            fam.check_span(0.0, 2.0)

    def test_binary_is_kepler_with_unit_exponent(self):
        pb = pot.preset("binary", G=2.0, b0=1.0, b1=0.5, b2=0.25, L3=0.6)
        pk = pot.preset("generalized-kepler", nu=1.0, k=2.0, b0=1.0, b1=0.5,
                        b2=0.25, L3=0.6)
        for t in (0.0, 1.0, 2.0):
            for r in (0.5, 2.0):
                assert pb.family.V(t, r) == pk.family.V(t, r)

    def test_preset_echoes_parameters(self):
        p = pot.preset("oscillator", c0=0.4, L3=1.0)
        assert p.name == "oscillator"
        assert p.params == {"c0": 0.4, "L3": 1.0}


class TestCheckSpan:
    """Each family checks its defining profile on a closed span."""

    def fails(self, fam, lo, hi):
        with pytest.raises(InvalidParameters) as info:
            fam.check_span(lo, hi)
        return str(info.value)

    def test_zero_at_either_end(self):
        fam = FamilyB(sf.poly(-2, 1), label="edge")
        msg = self.fails(fam, 2.0, 5.0)
        assert "edge: profile g1 = (poly -2 1) on [2, 5]" in msg
        assert "vanishes at t = 2" in msg
        assert "vanishes at t = 2" in self.fails(FamilyB(sf.poly(2, -1)), 0.0, 2.0)
        FamilyB(sf.poly(2, -1)).check_span(0.0, 1.999)

    def test_double_root(self):
        # (1 - t)^2 touches zero without changing sign
        assert "vanishes at t = 1" in self.fails(FamilyB(sf.poly(1, -2, 1)), 0.0, 3.0)
        squared = sf.power(sf.poly(1, -1), 2)
        assert "vanishes at t = 1" in self.fails(FamilyA(squared), 0.0, 3.0)
        FamilyB(sf.poly(1, -2, 1)).check_span(1.5, 3.0)

    def test_within_rounding_of_zero_at_span_start(self):
        # t stays positive on [1e-30, 1], but the first panel's edge, formed
        # at the scale of the span, rounds to the zero at t = 0: the panel
        # reaches the width floor and is refused with how close f came to
        # zero there; a start above the rounding of the span is resolved
        msg = self.fails(FamilyA(sf.T), 1e-30, 1.0)
        assert msg.endswith("vanishes at t = 2.84118385917e-15 to within 2.84e-15")
        FamilyA(sf.T).check_span(1e-15, 1.0)

    def test_constant_profile(self):
        FamilyB(2.0).check_span(-5.0, 5.0)
        FamilyA(-2.0).check_span(-5.0, 5.0)  # g2 only has to be nonzero
        msg = self.fails(LewisLeach1d(-2.0), 0.0, 1.0)
        assert "profile rho = -2" in msg and "must be positive" in msg

    def test_span_excludes_zero(self):
        fam = FamilyB(sf.poly(12, -1), label="osc")
        fam.check_span(0.0, 11.5)
        assert "vanishes at t = 12" in self.fails(fam, 0.0, 14.0)

    def test_backward_span(self):
        fam = FamilyA(sf.poly(12, -1))
        assert self.fails(fam, 14.0, 0.0) == self.fails(fam, 0.0, 14.0)
        fam.check_span(11.5, 0.0)

    def test_domain_error_inside_span(self):
        fam = FamilyB(sf.sqrt(sf.poly(1, -1)))  # undefined beyond t = 1
        fam.check_span(0.0, 0.9)
        with pytest.raises(InvalidParameters, match="profile g1 = .* on \\[0, 2\\]"):
            fam.check_span(0.0, 2.0)

    def test_sampled_sign_change(self):
        fam = FamilyA(sf.add(sf.exp(sf.T), -2.0))  # e^t - 2 crosses zero at ln 2
        fam.check_span(1.0, 3.0)
        assert "vanishes at t = 0.69314718056" in self.fails(fam, 0.0, 3.0)

    # the first point beyond the double range, bisected to adjacent floats
    @pytest.mark.parametrize("profile,span,where", [
        # 0.1 t^2 overflows from t = 4.24e154 on
        (sf.poly(1, 0, 0.1), (0.0, 1e300), "(poly 1 0 0.1) on [0, 1e+300]: "
                                           "is not finite at t = 4.23992114887e+154"),
        # t^2 overflows from sqrt(DBL_MAX) = 1.34e154 on
        (sf.sqrt(sf.poly(1, 0, 1)), (0.0, 1e300), "is not finite at t = 1.34078079299e+154"),
        (sf.exp(sf.T), (0.0, 1000.0), "is not finite at t = 709.782712893"),  # ln DBL_MAX
    ])
    def test_value_beyond_double_range(self, profile, span, where):
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            assert where in self.fails(FamilyA(profile), *span)


# a zero placed at z: (profile, tolerance of the located t relative to
# max(1, |z|), unit of the lift off a double zero); rounding flattens a double
# zero into a band of zeros, so it is located less closely than a simple one
_PLACED = {
    "poly": (lambda z: sf.poly(-z, 1.0), 1e-9, None),
    "poly-double": (lambda z: sf.poly(z * z, -2.0 * z, 1.0), 1e-6, lambda z: 1.0),
    "exp": (lambda z: sf.add(sf.exp(sf.T), -math.exp(z)), 1e-9, None),
    "exp-double": (lambda z: sf.power(sf.add(sf.exp(sf.T), -math.exp(z)), 2), 1e-6,
                   lambda z: math.exp(2.0 * z)),
}


@settings(max_examples=80, deadline=None)
@given(kind=st.sampled_from(sorted(_PLACED)), m=st.integers(-1280, 1280),
       left=st.floats(1e-3, 10.0), right=st.floats(1e-3, 10.0), k=st.integers(-20, 20),
       lift=st.floats(1e-6, 1.0))
def test_check_profile_locates_a_placed_zero(kind, m, left, right, k, lift):
    profile, tol, unit = _PLACED[kind]
    # z on a grid where z^2 and 2z are exact, so the zero of a polynomial is
    # too; that of e^t - e^z lies within an ulp of z, inside the span
    z = m / 64.0
    lo, hi, scale = z - left, z + right, math.ldexp(1.0, k)
    with pytest.raises(InvalidParameters, match="vanishes at t = ") as info:
        pot.check_profile(sf.mul(scale, profile(z)), lo, hi, False, "f")
    at = float(str(info.value).rsplit("at t = ", 1)[1].split()[0])
    assert abs(at - z) <= tol * max(1.0, abs(z))
    if unit is None:  # a simple zero moved beyond the span passes
        pot.check_profile(sf.mul(scale, profile(hi + lift * max(1.0, abs(hi)))), lo, hi,
                          False, "f")
    else:  # a double zero lifted off the axis passes
        pot.check_profile(sf.mul(scale, sf.add(profile(z), lift * unit(z))), lo, hi, True, "f")


class TestLewisLeach1d:
    def test_plain_oscillator_form(self):
        fam = LewisLeach1d(1.0, 0.0, 1.0, 0.0, 0.0, k=0.0)
        for q in (-2.0, 0.0, 1.5):
            assert math.isclose(fam.U(0.0, q), 0.5 * q * q, rel_tol=1e-14, abs_tol=1e-15)

    def test_coordinate_not_restricted(self):
        fam = LewisLeach1d(1.0, 0.0, 1.0, 0.0, 0.0)
        assert fam.U(0.0, -1.0) == 0.5  # q < 0 is admissible for the 1d system

    def test_shape_argument(self):
        fam = LewisLeach1d(sf.poly(2.0), sf.poly(0, 1), 0.0, 0.0, 0.0)
        assert math.isclose(fam.arg(3.0, 5.0), 1.0, rel_tol=1e-14)


class TestErmakovResiduals:
    def test_constant_solution(self):
        r1, r2 = pot.ermakov_residuals(1.0, 0.0, 1.0, 0.0, 1.0, 0.5)
        assert r1 == 0.0 and r2 == 0.0

    def test_pythagorean_profile(self):
        # rho = sqrt(1+t^2) solves rho'' = 1/rho^3 with no restoring term
        rho = sf.sqrt(sf.poly(1, 0, 1))
        for t in (0.0, 0.5, 2.0):
            r1, _ = pot.ermakov_residuals(rho, 0.0, 0.0, 0.0, 1.0, t)
            assert abs(r1) < 1e-13

    def test_violated_condition(self):
        r1, _ = pot.ermakov_residuals(1.0, 0.0, 0.0, 0.0, 1.0, 0.0)
        assert r1 == -1.0

    def test_vanishing_rho(self):
        with pytest.raises(DomainError):
            pot.ermakov_residuals(sf.poly(0, 1), 0.0, 0.0, 0.0, 1.0, 0.0)

    def test_driven_center(self):
        # alpha = t^2/2 under Omega = 0 needs F1 = 1
        alpha = sf.poly(0, 0, 0.5)
        _, r2 = pot.ermakov_residuals(1.0, alpha, 0.0, 1.0, 1.0, 0.7)
        assert abs(r2) < 1e-13

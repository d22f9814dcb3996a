"""First-integral evaluators: pinned values, cross-evaluator identities, drift."""

import math

import numpy as np
import pytest

from tdcentral import dynamics as dyn
from tdcentral import integrals as fi
from tdcentral import potentials as pot
from tdcentral import scalarfn as sf
from tdcentral.errors import DomainError
from tdcentral.potentials import FamilyA, FamilyB, LewisLeach1d

U = sf.T


class TestLinearInvariant:
    def test_constant_profile_is_momentum(self):
        fam = FamilyA(1.0, 0.0)
        for rdot in (-1.0, 0.0, 2.5):
            assert fam.fi(0.3, 1.7, rdot) == rdot

    def test_linear_profile(self):
        fam = FamilyA(sf.poly(0, 1), 0.0)
        assert fam.fi(2.0, 3.0, 1.0) == -1.0

    def test_gauge_term(self):
        fam = FamilyA(1.0, sf.T)
        assert fam.fi(5.0, 0.0, 0.0) == 5.0


class TestQuadraticInvariant:
    def test_shape_only_state(self):
        fam = FamilyB(sf.poly(1, 0, 1), 0.0, sf.power(U, 2), 0.0)
        assert math.isclose(fam.fi(0.0, 1.0, 0.0), 1.0, rel_tol=1e-14)

    def test_moving_state(self):
        # kinetic 18, cross term -12, shape 2, completion 2
        fam = FamilyB(sf.poly(1, 0, 1), 0.0, sf.power(U, 2), 0.0)
        assert math.isclose(fam.fi(1.0, 2.0, 3.0), 10.0, rel_tol=1e-13)

    def test_free_reduction(self):
        fam = FamilyB(0.5, 0.0, 0.0, 0.0)
        rng = np.random.default_rng(3)
        for _ in range(20):
            t, r, rd = rng.uniform(0.0, 3.0), rng.uniform(0.5, 3.0), rng.uniform(-2, 2)
            assert math.isclose(fam.fi(t, r, rd), 0.5 * rd * rd,
                                rel_tol=1e-14, abs_tol=1e-15)

    def test_t0_shift_with_rebased_shape(self):
        # moving t0 shifts the shape argument by a constant; composing the
        # shape with that shift leaves the invariant unchanged
        g1 = sf.poly(1, 0, 0.25)
        g2 = sf.poly(0.3, 0.1)
        F = sf.add(sf.power(U, 2), sf.mul(2.0, sf.power(U, -2, (0, math.inf))))
        fam0 = FamilyB(g1, g2, F, L3=0.7, t0=0.0)
        delta = fam0.arg(1.0, 0.0)  # offset accumulated on [0, 1]
        F1 = sf.compose(F, sf.poly(delta, 1.0))
        fam1 = FamilyB(g1, g2, F1, L3=0.7, t0=1.0)
        rng = np.random.default_rng(11)
        for _ in range(30):
            t = float(rng.uniform(0.0, 4.0))
            r = float(rng.uniform(0.5, 3.0))
            rd = float(rng.uniform(-2.0, 2.0))
            a = fam0.fi(t, r, rd)
            b = fam1.fi(t, r, rd)
            assert math.isclose(a, b, rel_tol=1e-12, abs_tol=1e-12)

    def test_quadratic_in_velocity(self):
        # at fixed (t, r) the invariant is degree-2 in rdot with leading
        # coefficient g1(t); recovered by exact 3-point differencing
        g1 = sf.poly(1, 0.3, 0.5)
        fam = FamilyB(g1, 0.0, sf.power(U, 2), L3=0.4)
        rng = np.random.default_rng(5)
        for _ in range(25):
            t = float(rng.uniform(0.0, 3.0))
            r = float(rng.uniform(0.5, 3.0))
            i_m = fam.fi(t, r, -1.0)
            i_0 = fam.fi(t, r, 0.0)
            i_p = fam.fi(t, r, 1.0)
            lead = 0.5 * (i_p + i_m) - i_0
            lin = 0.5 * (i_p - i_m)
            assert math.isclose(lead, g1(t), rel_tol=1e-12)
            assert math.isclose(lin, -g1.d()(t) * r, rel_tol=1e-12, abs_tol=1e-12)


class TestPowerLawInvariant:
    def test_autonomous_limit_is_energy(self):
        rng = np.random.default_rng(9)
        for _ in range(20):
            r = float(rng.uniform(0.5, 3.0))
            rd = float(rng.uniform(-2.0, 2.0))
            td = float(rng.uniform(-1.0, 1.0))
            got = fi.j_nu(1.0, 1.0, 1.0, 0.0, 0.0, 0.7, r, rd, td)
            want = 0.5 * (rd * rd + r * r * td * td) - 1.0 / r
            assert math.isclose(got, want, rel_tol=1e-13, abs_tol=1e-14)

    def test_circular_orbit_value(self):
        assert math.isclose(fi.j_nu(1.0, 1.0, 1.0, 0.0, 0.0, 0.0, 1.0, 0.0, 1.0),
                            -0.5, rel_tol=1e-14)

    def test_quadratic_time_profile(self):
        got = fi.j_nu(2.0, 0.0, 0.0, 0.0, 1.0, 1.0, 1.0, 1.0, 0.0)
        assert abs(got) < 1e-14

    def test_reduced_form_matches_polar(self):
        params = dict(nu=1.5, k=0.8, b0=1.0, b1=0.3, b2=0.2)
        L3 = 0.7
        rng = np.random.default_rng(13)
        for _ in range(30):
            t = float(rng.uniform(0.0, 3.0))
            r = float(rng.uniform(0.5, 3.0))
            rd = float(rng.uniform(-2.0, 2.0))
            td = L3 / (r * r)
            a = fi.j_nu(t=t, r=r, rdot=rd, thetadot=td, **params)
            b = fi.j_nu_integral(L3=L3, **params)(t, r, rd)
            assert math.isclose(a, b, rel_tol=1e-13, abs_tol=1e-14)

    def test_matches_family_invariant(self):
        # the power-law preset's invariant is the same quadratic invariant
        # the family machinery evaluates through its shape function
        params = dict(nu=1.5, k=0.8, b0=1.0, b1=0.3, b2=0.2)
        L3 = 0.7
        fam = pot.preset("generalized-kepler", L3=L3, **params).family
        rng = np.random.default_rng(17)
        for _ in range(100):
            t = float(rng.uniform(0.0, 3.0))
            r = float(rng.uniform(0.5, 3.0))
            rd = float(rng.uniform(-2.0, 2.0))
            a = fi.j_nu_integral(L3=L3, **params)(t, r, rd)
            b = fam.fi(t, r, rd)
            assert math.isclose(a, b, rel_tol=1e-12, abs_tol=1e-12)


class TestScaleOscillatorInvariant:
    def test_static_limit_is_kinetic(self):
        rng = np.random.default_rng(21)
        for _ in range(10):
            r = float(rng.uniform(0.5, 3.0))
            rd = float(rng.uniform(-2.0, 2.0))
            td = float(rng.uniform(-1.0, 1.0))
            got = fi.scale_oscillator(1.0, 0.0, 0.0, r, rd, td)
            assert math.isclose(got, 0.5 * rd * rd + 0.5 * r * r * td * td,
                                rel_tol=1e-14, abs_tol=1e-15)

    def test_restoring_term(self):
        assert fi.scale_oscillator(1.0, 1.0, 0.0, 1.0, 0.0, 0.0) == 0.5

    def test_vanishing_scale_raises(self):
        with pytest.raises(DomainError):
            fi.scale_oscillator(sf.poly(0, 1), 1.0, 0.0, 1.0, 0.0, 0.0)

    def test_matches_family_invariant(self):
        # same invariant through the family machinery: profile phi^2/2,
        # restoring constant K maps to shape coefficient K/2
        phi = sf.sqrt(sf.poly(1, 0, 0.5))
        K, L3 = 0.8, 0.6
        g1 = sf.mul(0.5, sf.power(phi, 2))
        fam = FamilyB(g1, 0.0, pot.oscillator_shape(0.5 * K, L3), L3=L3)
        rng = np.random.default_rng(23)
        for _ in range(100):
            t = float(rng.uniform(0.0, 3.0))
            r = float(rng.uniform(0.5, 3.0))
            rd = float(rng.uniform(-2.0, 2.0))
            td = L3 / (r * r)
            a = fi.scale_oscillator(phi, K, t, r, rd, td)
            b = fam.fi(t, r, rd)
            assert math.isclose(a, b, rel_tol=1e-12, abs_tol=1e-12)


class TestLewisLeachInvariant:
    def test_free_limit(self):
        fam = LewisLeach1d(1.0, 0.0, 0.0, 0.0, 0.0, k=0.0)
        for qd in (-1.0, 0.5, 2.0):
            assert fam.fi(0.0, 3.0, qd) == 0.5 * qd * qd

    def test_restoring_term(self):
        fam = LewisLeach1d(1.0, 0.0, 0.0, 0.0, 0.0, k=1.0)
        assert fam.fi(0.0, 2.0, 0.0) == 2.0

    def test_profile_rate_variant_differs(self):
        # the variant carrying the profile rate in the bracket is kept for
        # comparison; it coincides with the conserved reading only when
        # qdot equals rho'
        fam = LewisLeach1d(sf.sqrt(sf.poly(1, 0, 1)), 0.0, 0.0, 0.0, 0.0, k=1.0)
        a = fam.fi(1.0, 2.0, 0.3)
        b = fam.fi_profile_rate(1.0, 2.0, 0.3)
        assert not math.isclose(a, b, rel_tol=1e-6)
        rd = fam.rho_d(1.0)
        assert math.isclose(fam.fi(1.0, 2.0, rd), fam.fi_profile_rate(1.0, 2.0, rd),
                            rel_tol=1e-14)


class TestAngularMomentum:
    def test_values(self):
        assert fi.angular_momentum(1.0, 1.0) == 1.0
        assert fi.angular_momentum(2.0, 0.25) == 1.0
        assert fi.angular_momentum(3.0, -1.0) == -9.0


class TestReducedEnergy:
    def test_autonomous_value(self):
        fam = FamilyB(0.5, 0.0, 0.0, 0.0)
        assert fi.reduced_energy(fam, 0.0, 1.0, 2.0) == 2.0


class TestDispatch:
    def test_kinds(self):
        assert fi.first_integral(FamilyA(1.0)).kind == "linear-invariant"
        assert fi.first_integral(FamilyB(0.5)).kind == "quadratic-invariant"
        assert fi.first_integral(LewisLeach1d(1.0)).kind == "lewis-leach-invariant"

    def test_unknown_family(self):
        with pytest.raises(TypeError):
            fi.first_integral(object())

    def test_bound_evaluator_matches_free_function(self):
        fam = FamilyA(sf.poly(1, 0.2), sf.T, L3=0.5)
        bound = fi.first_integral(fam)
        assert bound(1.0, 2.0, 0.3) == fam.fi(1.0, 2.0, 0.3)


class TestDriftAlongTrajectories:
    # conservation along the matching dynamics is the defining property;
    # integrator tolerances 1e-10 must keep relative drift below 1e-7

    def test_linear_family(self):
        fam = FamilyA(sf.poly(1, 0, 0.1), sf.mul(0.2, sf.T), L3=0.8)
        traj = dyn.integrate(fam, dyn.PolarState(0.0, 2.0, 0.1), 5.0)
        assert traj.termination == "completed"
        assert dyn.drift_report(traj, fi.first_integral(fam)) <= 1e-7

    def test_quadratic_family_with_cross_profile(self):
        F = sf.add(sf.power(U, 2), sf.mul(2.0, sf.power(U, -2, (0, math.inf))))
        fam = FamilyB(sf.poly(1, 0, 0.25), sf.poly(0.3, 0.1), F, L3=0.7)
        traj = dyn.integrate(fam, dyn.PolarState(0.0, 1.2, 0.1), 5.0)
        assert dyn.drift_report(traj, fi.first_integral(fam)) <= 1e-7

    def test_power_law_preset(self):
        params = dict(nu=1.5, k=0.8, b0=1.0, b1=0.3, b2=0.2)
        L3 = 0.7
        fam = pot.preset("generalized-kepler", L3=L3, **params).family
        traj = dyn.integrate(fam, dyn.PolarState(0.0, 1.0, 0.2), 5.0)
        assert dyn.drift_report(
            traj, fi.j_nu_integral(L3=L3, **params)) <= 1e-7

    def test_one_dimensional_system(self):
        # rho = sqrt(1+t^2) with Omega = 1/(1+t^2) satisfies the profile
        # condition for k = 2; alpha = 0.1 t forced by F1 = 0.1 t/(1+t^2)^2
        quad = sf.poly(1, 0, 1)
        rho = sf.sqrt(quad)
        Omega = sf.power(quad, -1.0)
        alpha = sf.poly(0, 0.1)
        F1 = sf.mul(0.1, sf.T, sf.power(quad, -2.0))
        for t in (0.0, 0.5, 2.0):
            r1, r2 = pot.ermakov_residuals(rho, alpha, Omega, F1, 2.0, t)
            assert abs(r1) < 1e-13 and abs(r2) < 1e-13
        fam = LewisLeach1d(rho, alpha, Omega, F1, sf.power(U, 4), k=2.0)
        traj = dyn.integrate(fam, dyn.PolarState(0.0, 1.5, 0.2), 5.0)
        assert traj.termination == "completed"
        assert dyn.drift_report(traj, fi.first_integral(fam)) <= 1e-7

    def test_profile_rate_variant_not_conserved(self):
        # the literal profile-rate bracket drifts by orders of magnitude more
        quad = sf.poly(1, 0, 1)
        fam = LewisLeach1d(sf.sqrt(quad), 0.0, 0.0, 0.0, sf.power(U, 4), k=1.0)
        traj = dyn.integrate(fam, dyn.PolarState(0.0, 1.5, 0.2), 5.0)
        good = dyn.drift_report(traj, fi.first_integral(fam))
        bad = dyn.drift_report(
            traj, fi.FirstIntegral("literal", "literal", fam.fi_profile_rate))
        assert good <= 1e-7
        assert bad > 1e-3

"""Equations of motion, adaptive integration, cross-checks, drift reports."""

import csv
import math

import numpy as np
import pytest
from scipy.integrate import cumulative_simpson

from tdcentral import dynamics as dyn
from tdcentral import integrals as fi
from tdcentral import potentials as pot
from tdcentral import scalarfn as sf
from tdcentral.dynamics import IntegratorConfig, PolarState
from tdcentral.errors import DomainError, StepLimitExceeded
from tdcentral.potentials import FamilyA, FamilyB
from tdcentral.verify import PerturbedPotential
from test_acceptance import _families as acceptance_families

U = sf.T


def cross_profile_family():
    # quadratic-invariant family with a nonzero cross profile; bounded orbits
    F = sf.add(sf.power(U, 2), sf.mul(2.0, sf.power(U, -2, (0, math.inf))))
    return FamilyB(sf.poly(1, 0, 0.25), sf.poly(0.3, 0.1), F, L3=0.7)


def eccentric_kepler():
    return pot.preset("generalized-kepler", nu=1.0, k=1.0, b0=1.0, L3=1.0).family


class TestStates:
    def test_radius_must_be_positive(self):
        with pytest.raises(DomainError):
            PolarState(0.0, -1.0, 0.0)

    def test_config_validation(self):
        with pytest.raises(ValueError):
            IntegratorConfig(rtol=1e-15)
        with pytest.raises(ValueError):
            IntegratorConfig(stride=-0.1)
        with pytest.raises(ValueError):
            IntegratorConfig(max_steps=0)


class TestRadialRhs:
    """The radial acceleration `integrate` steps on: -dU/dr, which equals
    L3^2/r^3 - dV/dr for these families."""

    def test_linear_family_centrifugal_cancels(self):
        # the family potential already carries -L3^2/(2r^2), so the apparent
        # centrifugal acceleration cancels against dV/dr
        fam = FamilyA(1.0, 0.0, L3=1.0)
        assert fam.dU_dr(0.0, 1.0) == 0.0
        assert fam.L3**2 - fam.dV_dr(0.0, 1.0) == 0.0
        traj = dyn.integrate(fam, PolarState(0.0, 1.0, 0.3), 2.0)
        assert np.max(np.abs(traj.r - (1.0 + 0.3 * traj.t))) <= 1e-9

    def test_pure_centrifugal(self):
        # shape u^{-2} makes V vanish identically; only L3^2/r^3 remains,
        # so the orbit is the straight line r = sqrt(1 + t^2)
        fam = FamilyB(0.5, 0.0, pot.oscillator_shape(0.0, 1.0), L3=1.0)
        assert abs(fam.V(0.0, 1.0)) < 1e-15
        assert math.isclose(-fam.dU_dr(0.0, 1.0), 1.0, rel_tol=1e-13)
        traj = dyn.integrate(fam, PolarState(0.0, 1.0, 0.0), 2.0)
        assert np.max(np.abs(traj.r - np.sqrt(1.0 + traj.t**2))) <= 1e-8
        assert abs(traj.theta[-1] - math.atan(2.0)) <= 1e-8

    def test_circular_orbit_balance(self):
        fam = pot.preset("generalized-kepler", nu=1.0, k=1.0, b0=1.0, L3=1.0).family
        assert abs(fam.dU_dr(0.0, 1.0)) < 1e-13
        traj = dyn.integrate(fam, PolarState(0.0, 1.0, 0.0), 2.0 * math.pi)
        assert np.max(np.abs(traj.r - 1.0)) <= 1e-8

    def test_free_family(self):
        fam = FamilyB(0.5, 0.0, 0.0, 0.0)
        for t, r in ((0.0, 1.0), (2.0, 0.4)):
            assert fam.dU_dr(t, r) == 0.0


class TestIntegrate:
    def test_free_particle_linear_motion(self):
        fam = FamilyA(1.0, 0.0, 0.0)
        traj = dyn.integrate(fam, PolarState(0.0, 1.0, 1.0), 2.0)
        assert traj.termination == "completed"
        assert abs(traj.r[-1] - 3.0) <= 1e-9
        assert np.all(np.diff(traj.t) > 0)
        assert traj.t[0] == 0.0 and traj.t[-1] == 2.0
        assert traj.h_accepted[0] == 0.0

    def test_static_oscillator_cosine(self):
        fam = pot.preset("oscillator", g1="0.5", c0=0.5, L3=0.0).family
        traj = dyn.integrate(fam, PolarState(0.0, 1.0, 0.0), 1.0)
        assert abs(traj.r[-1] - math.cos(1.0)) <= 1e-8
        # dense samples follow the analytic solution, not just the endpoint
        assert np.max(np.abs(traj.r - np.cos(traj.t))) <= 1e-8

    def test_circular_orbit_stays_circular(self):
        fam = eccentric_kepler()
        traj = dyn.integrate(fam, PolarState(0.0, 1.0, 0.0), 10.0)
        assert np.max(np.abs(traj.r - 1.0)) <= 1e-7
        assert abs(traj.theta[-1] - 10.0) <= 1e-7  # thetadot = 1 on this orbit

    def test_rejects_degenerate_horizon(self):
        fam = FamilyA(1.0, 0.0, 0.0)
        with pytest.raises(ValueError):
            dyn.integrate(fam, PolarState(1.0, 1.0, 0.0), 1.0)

    def test_backward_integration(self):
        fam = FamilyA(1.0, 0.0, 0.0)
        traj = dyn.integrate(fam, PolarState(2.0, 3.0, 1.0), 0.0)
        assert traj.t[0] == 2.0 and traj.t[-1] == 0.0
        assert abs(traj.r[-1] - 1.0) <= 1e-9

    def test_time_symmetry(self):
        fam = cross_profile_family()
        s0 = PolarState(0.0, 1.2, 0.1, 0.0)
        fw = dyn.integrate(fam, s0, 4.0)
        back = dyn.integrate(
            fam, PolarState(4.0, float(fw.r[-1]), float(fw.rdot[-1]),
                            float(fw.theta[-1])), 0.0)
        assert abs(back.r[-1] - s0.r) <= 1e-6
        assert abs(back.rdot[-1] - s0.rdot) <= 1e-6
        assert abs(back.theta[-1] - s0.theta) <= 1e-6

    def test_stride_controls_sampling(self):
        fam = FamilyA(1.0, 0.0, 0.0)
        traj = dyn.integrate(fam, PolarState(0.0, 1.0, 1.0), 1.0,
                             IntegratorConfig(stride=0.25))
        assert np.allclose(traj.t, [0.0, 0.25, 0.5, 0.75, 1.0])

    def test_radius_collapse_termination(self):
        # radial free fall reaches the center in finite time
        fam = pot.preset("generalized-kepler", nu=1.0, k=1.0, b0=1.0, L3=0.0).family
        traj = dyn.integrate(fam, PolarState(0.0, 1.0, 0.0), 2.0)
        assert traj.termination == "radius_collapse"
        assert traj.t[-1] < 1.2  # the plunge ends near t = pi/(2 sqrt(2))
        assert np.all(traj.r > 0)

    def test_step_limit(self):
        fam = eccentric_kepler()
        with pytest.raises(StepLimitExceeded):
            dyn.integrate(fam, PolarState(0.0, 1.4, 0.0), 10.0,
                          IntegratorConfig(max_steps=5))

    def test_convergence_under_step_halving(self):
        # with loose tolerances the cap h_max binds, so halving it must cut
        # the endpoint error by at least 4x (the local order is 5)
        fam = pot.preset("oscillator", g1="0.5", c0=0.5, L3=0.0).family
        s0 = PolarState(0.0, 1.0, 0.0)
        ref = dyn.integrate(fam, s0, 1.2, IntegratorConfig(rtol=1e-12, atol=1e-12))
        errs = []
        for hm in (0.2, 0.1):
            cfg = IntegratorConfig(rtol=1e-3, atol=1e-3, h_max=hm, h_init=hm)
            tr = dyn.integrate(fam, s0, 1.2, cfg)
            errs.append(abs(float(tr.r[-1]) - float(ref.r[-1])))
        assert errs[0] / errs[1] >= 4.0

    def test_theta_matches_quadrature(self):
        # theta is carried as an ODE component; re-deriving it from the r(t)
        # samples by quadrature must agree
        fam = eccentric_kepler()
        traj = dyn.integrate(fam, PolarState(0.0, 1.4, 0.0, 0.2), 6.0)
        quad = cumulative_simpson(fam.L3 / traj.r**2, x=traj.t, initial=0.0)
        assert np.max(np.abs(0.2 + quad - traj.theta)) <= 1e-7

    def test_trajectory_accessors(self):
        fam = FamilyA(1.0, 0.0, 0.0)
        traj = dyn.integrate(fam, PolarState(0.0, 1.0, 1.0), 1.0)
        assert len(traj) == len(traj.t)
        st = traj.state(0)
        assert (st.t, st.r, st.rdot) == (0.0, 1.0, 1.0)


class TestCartesianCrosscheck:
    def test_eccentric_orbit_agreement(self):
        fam = eccentric_kepler()
        res = dyn.cartesian_crosscheck(fam, PolarState(0.0, 1.4, 0.0, 0.2), 6.0)
        assert res.position_deviation <= 1e-6
        assert res.l3_drift <= 1e-9
        assert res.trajectory.termination == "completed"

    def test_linear_motion_identical(self):
        fam = FamilyA(1.0, 0.0, 0.0)
        res = dyn.cartesian_crosscheck(fam, PolarState(0.0, 1.0, 0.3, 0.5), 2.0)
        assert res.position_deviation <= 1e-12
        assert res.l3_drift <= 1e-12

    def test_time_dependent_family(self):
        fam = cross_profile_family()
        res = dyn.cartesian_crosscheck(fam, PolarState(0.0, 1.2, 0.1), 4.0)
        assert res.position_deviation <= 1e-6


class TestDriftReport:
    def test_constant_series(self):
        fam = FamilyA(1.0, 0.0, 0.0)
        traj = dyn.integrate(fam, PolarState(0.0, 1.0, 1.0), 1.0)
        const = fi.FirstIntegral("synthetic", "constant", lambda t, r, rd: 3.0)
        assert dyn.drift_report(traj, const) == 0.0

    def test_matching_family_conserved(self):
        fam = FamilyA(sf.poly(1, 0, 0.1), sf.mul(0.2, sf.T), L3=0.8)
        traj = dyn.integrate(fam, PolarState(0.0, 2.0, 0.1), 5.0)
        assert dyn.drift_report(traj, fi.first_integral(fam)) <= 1e-7

    def test_mismatched_family_detected(self):
        # evaluating the invariant of a different potential must show drift
        fam = FamilyA(sf.poly(1, 0, 0.1), sf.mul(0.2, sf.T), L3=0.8)
        other = FamilyA(sf.exp(sf.mul(-0.25, sf.T)), 0.0, L3=0.8)
        traj = dyn.integrate(fam, PolarState(0.0, 2.0, 0.1), 5.0)
        assert dyn.drift_report(traj, fi.first_integral(other)) > 1e-3

    def test_drift_series_shape(self):
        fam = cross_profile_family()
        traj = dyn.integrate(fam, PolarState(0.0, 1.2, 0.1), 1.0)
        series = dyn.drift_series(traj, fi.first_integral(fam))
        assert series.shape == traj.t.shape


def drift_fixtures():
    """The six acceptance fixtures plus the perturbed negative control."""
    fams = acceptance_families()
    _, osc, s0 = fams[2]
    fams.append(("perturbed", PerturbedPotential(osc, eps=1e-3), s0))
    return fams


class TestDriftSeriesVectorised:
    @pytest.mark.parametrize("name,fam,s0", drift_fixtures())
    def test_matches_scalar_loop(self, name, fam, s0):
        traj = dyn.integrate(fam, s0, 2.0)
        inv = fi.first_integral(fam)
        ref = np.array([inv(float(t), float(r), float(rd))
                        for t, r, rd in zip(traj.t, traj.r, traj.rdot)])
        got = dyn.drift_series(traj, inv)
        assert got.shape == ref.shape
        assert np.max(np.abs(got - ref) / np.maximum(1.0, np.abs(ref))) <= 1e-14


class TestCsv:
    def test_round_trip(self, tmp_path):
        fam = cross_profile_family()
        traj = dyn.integrate(fam, PolarState(0.0, 1.2, 0.1), 0.5)
        path = tmp_path / "traj.csv"
        traj.to_csv(path)
        with open(path) as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["t", "r", "rdot", "theta", "h_accepted"]
        assert len(rows) == len(traj) + 1
        # full-precision decimals round-trip exactly
        got_r = np.array([float(row[1]) for row in rows[1:]])
        assert np.array_equal(got_r, traj.r)

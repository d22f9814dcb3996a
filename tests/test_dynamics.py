"""Equations of motion, adaptive integration, cross-checks, drift reports."""

import csv
import math
import sys
import tracemalloc
import warnings
from dataclasses import replace

import numpy as np
import pytest
from scipy.integrate import cumulative_simpson

from tdcentral import dynamics as dyn
from tdcentral import integrals as fi
from tdcentral import potentials as pot
from tdcentral import scalarfn as sf
from tdcentral.cli import _default_driven_1d, _family_from
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
        # the state holds four floats; a radial family refuses r <= 0 at the
        # first stage, and the coordinate of the 1d system takes either sign
        for r in (0.0, -0.0, -1.0):
            s0 = PolarState(0.0, r, 0.0)
            with pytest.raises(DomainError, match="radius must be positive"):
                dyn.integrate(FamilyA(1.0, 0.0, 0.0), s0, 1.0)
            with pytest.raises(DomainError, match="radius must be positive"):
                dyn.integrate(cross_profile_family(), s0, 1.0)
        driven = _family_from(_default_driven_1d()["system"], (0.0, 1.0))
        traj = dyn.integrate(driven, PolarState(0.0, -1.5, 0.2), 1.0)
        assert traj.termination == "completed" and traj.r[0] == -1.5

    @pytest.mark.parametrize("name", ["oscillator", "lewis-leach"])
    @pytest.mark.parametrize("field,value", [("r", math.nan), ("r", math.inf),
                                             ("rdot", math.nan), ("theta", math.inf),
                                             ("t", math.nan)])
    def test_non_finite_start_refused(self, name, field, value):
        # refused once before the kernel runs, for the radial and the 1d
        # system; a non-finite t before check_horizon's ValueError
        s0 = replace(PolarState(0.0, 1.0, 0.0), **{field: value})
        with pytest.raises(DomainError, match=f"initial {field} must be finite"):
            dyn.integrate(pot.preset(name).family, s0, 1.0)

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

    @pytest.mark.parametrize("t_end", [1e4 + 1e-9, -1e300, math.inf, math.nan])
    def test_rejects_horizon_beyond_max_samples(self, t_end):
        # stride 0.01: MAX_SAMPLES samples span exactly 1e4
        dyn.check_horizon(0.0, 1e4, 0.01)
        fam = FamilyA(1.0, 0.0, 0.0)
        with pytest.raises(ValueError, match="MAX_SAMPLES"):
            dyn.integrate(fam, PolarState(0.0, 1.0, 0.0), t_end)

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

    @pytest.mark.parametrize("r_min", [1e-12, 1e-100, 1e-300])
    def test_collision_decided_from_the_state(self, r_min):
        # the plunge reaches the step-size floor at r = 6.5e-9, rdot = -1.8e4
        # whatever r_min is: r falls and would reach 0 within 1000 such steps
        fam = pot.preset("generalized-kepler", nu=1.0, k=1.0, b0=1.0, L3=0.0).family
        s0 = PolarState(0.0, 1.0, 0.0)
        want = dyn.integrate(fam, s0, 2.0)
        got = dyn.integrate(fam, s0, 2.0, IntegratorConfig(r_min=r_min))
        assert got.termination == want.termination == "radius_collapse"
        assert got.stats == want.stats
        assert got.t.tolist() == want.t.tolist() and got.r.tolist() == want.r.tolist()

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
        assert (traj.t[0], traj.r[0], traj.rdot[0], traj.theta[0]) == (0.0, 1.0, 1.0, 0.0)


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
        dyn.write_csv(traj, path)
        with open(path) as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["t", "r", "rdot", "theta", "h_accepted"]
        assert len(rows) == len(traj) + 1
        # full-precision decimals round-trip exactly
        got_r = np.array([float(row[1]) for row in rows[1:]])
        assert np.array_equal(got_r, traj.r)


# -- the float stepper against the numpy stage arithmetic it replaced --------

def _collided(y, k1, h, direction, r_index):
    """The stepper's collision test at a step-size floor: r falls and would
    reach 0 within 1000 steps of h."""
    rate = direction * k1[r_index]
    return rate < 0.0 and y[r_index] <= 1000.0 * h * -rate


def _reference_core(rhs, t0, y0, t_end, cfg, sample_times, r_index=None,
                    r_min=0.0):
    """DP5(4) with the state and the stages as numpy vectors: the loop the
    float stepper must reproduce step for step."""
    n = len(y0)
    direction = 1.0 if t_end >= t0 else -1.0
    span = abs(t_end - t0)
    t = t0
    y = np.asarray(y0, dtype=float)
    h = min(cfg.h_init, cfg.h_max, span) if span > 0 else cfg.h_init
    k1 = rhs(t, y)
    err_prev = 1.0
    samples, hs = [], []
    si = 0
    if sample_times and sample_times[0] == t0:
        samples.append((t0, y.copy()))
        hs.append(0.0)
        si = 1
    P = np.array(dyn._P)
    K = np.empty((7, n))
    while direction * (t_end - t) > 0.0:
        h = min(h, cfg.h_max, abs(t_end - t))
        if h <= 1e-14 * max(1.0, abs(t)):
            assert r_index is not None and _collided(y, k1, h, direction, r_index)
            return samples, hs, "radius_collapse"
        hd = direction * h
        try:
            K[0] = k1
            for i in range(1, 6):
                yi = y + hd * sum(dyn._A[i][j] * K[j] for j in range(i))
                K[i] = rhs(t + dyn._C[i] * hd, yi)
            y_new = y + hd * sum(dyn._B[j] * K[j] for j in range(6))
            t_new = t + hd
            K[6] = rhs(t_new, y_new)
        except DomainError:
            h *= 0.5
            if h < 1e-12:
                assert r_index is not None and _collided(y, k1, h, direction, r_index)
                return samples, hs, "radius_collapse"
            continue
        err_vec = hd * sum(dyn._E[j] * K[j] for j in range(7))
        scale = cfg.atol + cfg.rtol * np.maximum(np.abs(y), np.abs(y_new))
        err = math.sqrt(float(np.mean((err_vec / scale) ** 2)))
        if err > 1.0 or not math.isfinite(err):
            h *= (dyn._MIN_FACTOR if not math.isfinite(err) else
                  max(dyn._MIN_FACTOR, dyn._SAFETY * err ** -dyn._ALPHA))
            continue
        Q = K.T @ P
        collapsed = False
        while si < len(sample_times) and direction * (sample_times[si] - t_new) \
                <= 1e-14 * max(1.0, abs(t_new)):
            ts = sample_times[si]
            x = (ts - t) / hd
            ysamp = y + hd * (Q @ np.array([x, x * x, x**3, x**4]))
            if r_index is not None and ysamp[r_index] < r_min:
                collapsed = True
                break
            samples.append((ts, ysamp))
            hs.append(h)
            si += 1
        if collapsed or (r_index is not None and
                         (y_new[r_index] < r_min or not np.all(np.isfinite(y_new)))):
            return samples, hs, "radius_collapse"
        err = max(err, 1e-10)
        factor = min(dyn._MAX_FACTOR,
                     dyn._SAFETY * err ** -dyn._ALPHA * err_prev ** dyn._BETA)
        err_prev = err
        # a copy: a view of K[6] would turn into a rejected attempt's last
        # stage, the stale FSAL stage the numpy loop started retries from
        t, y, k1 = t_new, y_new, K[6].copy()
        h *= factor
    return samples, hs, "completed"


def _reference_integrate(fam, s0, t_end, cfg):
    def rhs(t, y):
        r = y[0]
        if r <= 0.0:
            raise DomainError("r <= 0 during step")
        return np.array([y[1], -fam.dU_dr(t, r),
                         fam.L3 * r**-2 if fam.L3 else 0.0])

    grid = dyn._sample_grid(s0.t, t_end, cfg.stride).tolist()
    samples, hs, term = _reference_core(
        rhs, s0.t, np.array([s0.r, s0.rdot, s0.theta]), t_end, cfg, grid,
        r_index=0, r_min=cfg.r_min)
    ys = np.array([s[1] for s in samples])
    return np.array([s[0] for s in samples]), ys, np.array(hs), term


# the simulate-ensemble presets, with the acceptance fixtures' parameters
ENSEMBLE = (
    ("scaled-kepler", {"phi": "(sqrt (poly 1 0 1))", "k": 1.0, "L3": 0.5}, 1.2, 0.2),
    ("oscillator", {"g1": "(poly 1 0 1)", "c0": 0.0, "L3": 1.0}, 1.0, 0.0),
    ("yukawa", {"k": 1.0, "b0": 1.0, "b1": 0.5, "b2": 0.25, "L3": 0.6}, 1.5, 0.1),
    ("interatomic", {"k1": 1.0, "k2": 1.0, "m": 12.0, "n": 6.0, "b0": 1.0,
                     "b1": 0.5, "b2": 0.25, "L3": 0.2}, 1.12, 0.0),
    ("generalized-kepler", {"nu": 1.0, "k": 1.0, "b0": 1.0, "L3": 1.0}, 1.4, 0.0),
    ("linear-lfi", {"g2": "(poly 1 0 0.1)", "g": "(* 0.2 t)", "L3": 0.8}, 2.0, 0.1),
)


# r_min between the eccentric Kepler orbit's pericentre sample (r =
# 0.77777781 at t = 3.57) and the ends of the step that holds it
DIP = IntegratorConfig(r_min=0.7777779)


def stepper_cases():
    cases = [pytest.param(pot.preset(name, **params).family,
                          PolarState(0.0, r, rdot), 8.0, IntegratorConfig(),
                          id=name)
             for name, params, r, rdot in ENSEMBLE]
    kepler = pot.preset("generalized-kepler", nu=1.0, k=1.0, b0=1.0, L3=0.1).family
    plunge = pot.preset("generalized-kepler", nu=1.0, k=1.0, b0=1.0, L3=0.0).family
    return cases + [
        pytest.param(cross_profile_family(), PolarState(500.0, 1.0, 0.0), 505.0,
                     IntegratorConfig(), id="cross-profile-from-500"),
        pytest.param(cross_profile_family(), PolarState(3.0, 1.0, 0.1), 0.0,
                     IntegratorConfig(), id="backward"),
        # loose tolerance and a long first step: stages cross r = 0 near
        # pericentre, so the run retries on DomainError and rejects steps
        pytest.param(kepler, PolarState(0.0, 1.0, 0.0), 3.0,
                     IntegratorConfig(rtol=1e-3, atol=1e-3, h_init=0.5),
                     id="domain-retry"),
        pytest.param(plunge, PolarState(0.0, 1.0, 0.0), 2.0, IntegratorConfig(),
                     id="radius-collapse"),
        # r_min between the pericentre sample at t = 3.57 and both ends of its
        # step (3.5688, 3.5910]: the interpolant, not a step end, collapses
        pytest.param(eccentric_kepler(), PolarState(0.0, 1.4, 0.0), 4.0, DIP,
                     id="dip-inside-step"),
        # the dip is step 80; the stepper goes on and raises two steps later
        pytest.param(eccentric_kepler(), PolarState(0.0, 1.4, 0.0), 4.0,
                     replace(DIP, max_steps=82), id="dip-then-step-limit"),
        # the same step, with 3500 samples before it: the dip is in block 4,
        # which fills before the run ends
        pytest.param(eccentric_kepler(), PolarState(0.0, 1.4, 0.0), 6.0,
                     replace(DIP, stride=0.001), id="dip-in-later-block"),
        # the dip is the first sample after t0 and the block does not fill:
        # the stepper goes on to the next pericentre, where a step end falls
        # below r_min, and the run still ends at the dip
        pytest.param(eccentric_kepler(), PolarState(0.0, 1.4, 0.0), 400.0,
                     replace(DIP, stride=3.57), id="dip-then-step-end-below"),
    ]


class _RecordedFamily:
    """A family whose dU_dr calls append (t, r) to `calls`: one call per
    evaluation of the radial right-hand side."""

    def __init__(self, fam, calls):
        self._fam, self._calls = fam, calls

    def __getattr__(self, name):
        return getattr(self._fam, name)

    def dU_dr(self, t, r):
        self._calls.append((t, r))
        return self._fam.dU_dr(t, r)


class TestDipCases:
    """The collapse cases of stepper_cases() test what their ids say."""

    @pytest.mark.parametrize("case", ["dip-inside-step", "dip-then-step-limit",
                                      "dip-in-later-block", "dip-then-step-end-below"])
    def test_sample_dips_while_step_ends_stay_above(self, case):
        fam, s0, t_end, cfg = {p.id: p.values for p in stepper_cases()}[case]
        calls = []
        traj = dyn.integrate(_RecordedFamily(fam, calls), s0, t_end, cfg)
        st = traj.stats
        assert traj.termination == "radius_collapse"
        assert st.rejected == st.domain_retries == 0
        # every attempt was accepted, so rhs call 6 s is the end of step s;
        # the collapse step is the last accepted one
        (t_a, r_a), (t_b, r_b) = calls[6 * (st.accepted - 1)], calls[6 * st.accepted]
        assert r_a > cfg.r_min and r_b > cfg.r_min
        full = dyn.integrate(fam, s0, t_end, replace(cfg, r_min=1e-9, max_steps=500_000))
        dip = len(traj)
        assert full.termination == "completed"
        assert t_a < full.t[dip] <= t_b and full.r[dip] < cfg.r_min
        assert np.array_equal(full.r[:dip], traj.r)
        if case == "dip-then-step-limit":
            assert st.accepted == cfg.max_steps - 2
            with pytest.raises(StepLimitExceeded):
                dyn.integrate(fam, s0, t_end, replace(cfg, r_min=1e-9))
        if case == "dip-in-later-block":
            assert dip > 3 * dyn._BLOCK and len(full) > dip + dyn._BLOCK
        if case == "dip-then-step-end-below":
            # the last rhs call is the step end that stopped the stepper
            assert dip == 1 and len(calls) > 6 * st.accepted + 1
            assert calls[-1][1] < cfg.r_min


class TestFloatStepper:
    @pytest.mark.parametrize("fam,s0,t_end,cfg", stepper_cases())
    def test_matches_numpy_reference(self, fam, s0, t_end, cfg):
        traj = dyn.integrate(fam, s0, t_end, cfg)
        ts, ys, hs, term = _reference_integrate(fam, s0, t_end, cfg)
        # the step sequence is bit-identical ...
        assert traj.t.tobytes() == ts.tobytes()
        assert traj.h_accepted.tobytes() == hs.tobytes()
        assert traj.termination == term
        # ... and only the dense output's sums are reassociated
        for got, want in ((traj.r, ys[:, 0]), (traj.rdot, ys[:, 1]),
                          (traj.theta, ys[:, 2])):
            assert np.all(np.abs(got - want) <= 1e-15 * np.maximum(1.0, np.abs(want)))

    def test_rejected_step_leaves_first_stage_intact(self):
        # a retry must start from rhs(t, y), not from the rejected attempt's
        # last stage; with that stale stage this run drifted 0.118
        fam = pot.preset("generalized-kepler", nu=1.0, k=1.0, b0=1.0, L3=0.1).family
        traj = dyn.integrate(fam, PolarState(0.0, 1.0, 0.0), 3.0,
                             IntegratorConfig(rtol=1e-5, atol=1e-5, h_init=0.5))
        assert traj.stats.rejected > 0
        assert dyn.drift_report(traj, fi.first_integral(fam)) <= 1e-2

    def test_reference_cases_cover_retries_and_rejections(self):
        params = {p.id: p.values for p in stepper_cases()}
        stats = dyn.integrate(*params["domain-retry"]).stats
        assert stats.domain_retries > 0 and stats.rejected > 0
        assert dyn.integrate(*params["radius-collapse"]).termination == "radius_collapse"


class TestIntegratorStats:
    def test_rhs_evals_without_retries(self):
        fam = pot.preset("generalized-kepler", nu=1.0, k=1.0, b0=1.0, L3=0.1).family
        traj = dyn.integrate(fam, PolarState(0.0, 1.0, 0.0), 3.0,
                             IntegratorConfig(rtol=1e-5, atol=1e-5))
        st = traj.stats
        assert st.domain_retries == 0 and st.rejected > 0
        assert st.rhs_evals == 6 * (st.accepted + st.rejected) + 1
        steps = traj.h_accepted[1:]
        assert st.h_min <= steps.min() and st.h_max >= steps.max()

    def test_deterministic(self):
        fam = cross_profile_family()
        runs = [dyn.integrate(fam, PolarState(0.0, 1.2, 0.1), 2.0).stats
                for _ in range(2)]
        assert runs[0] == runs[1]
        assert runs[0].accepted > 0 and runs[0].h_min <= runs[0].h_max

    def test_crosscheck_carries_stats(self):
        res = dyn.cartesian_crosscheck(eccentric_kepler(), PolarState(0.0, 1.4, 0.0), 2.0)
        st = res.trajectory.stats
        assert st.domain_retries == 0
        assert st.rhs_evals == 6 * (st.accepted + st.rejected) + 1

    def test_plunge_retries_through_dU_dr_alone(self):
        # radial free fall with loose tolerances and a long first step: stages
        # cross r = 0, the kernel hands each such radius to the family's dU_dr,
        # which refuses it, and the step is retried shorter
        plunge = pot.preset("generalized-kepler", nu=1.0, k=1.0, b0=1.0, L3=0.0).family
        calls = []
        traj = dyn.integrate(_RecordedFamily(plunge, calls), PolarState(0.0, 1.0, 0.0), 2.0,
                             IntegratorConfig(rtol=1e-3, atol=1e-3, h_init=0.5))
        refused = [r for _, r in calls if r <= 0.0]
        assert traj.termination == "radius_collapse"
        assert traj.stats.rhs_evals == len(calls)
        assert traj.stats.domain_retries == len(refused) > 0
        for r in refused:
            with pytest.raises(DomainError, match="radius must be positive"):
                plunge.dU_dr(0.5, r)


# -- the unrolled step against the _dot loop it replaced ---------------------

_P_COLS = tuple(zip(*dyn._P))


def _dot(weights, ks, c):
    """0 + w0 ks[0][c] + w1 ks[1][c] + ..., summed in order."""
    acc = 0.0
    for w, k in zip(weights, ks):
        acc += w * k[c]
    return acc


def _dot_reference_core(rhs, t0, y0, t_end, cfg, sample_times, r_index=None,
                        r_min=0.0):
    """The float stepper with a `_dot` loop per weighted sum: the unrolled
    step must reproduce its samples, termination and counters bit for bit.
    The samples come back as lists, one per row of the stepper's array."""
    sample_times = sample_times.tolist()  # Python floats, as grid.item gives them
    n = len(y0)
    direction = 1.0 if t_end >= t0 else -1.0
    span = abs(t_end - t0)
    t = t0
    y = [float(v) for v in y0]
    h = min(cfg.h_init, cfg.h_max, span) if span > 0 else cfg.h_init
    k1 = rhs(t, y)
    evals = 1
    accepted = rejected = retries = 0
    h_lo = h_hi = None
    err_prev = 1.0
    samples = [[] for _ in range(n + 2)]
    si = 0

    def emit(*row):
        for col, v in zip(samples, row):
            col.append(v)

    if sample_times and sample_times[0] == t0:
        emit(t0, 0.0, *y)
        si = 1

    def stats():
        return dyn.IntegratorStats(accepted, rejected, retries, evals, h_lo, h_hi)

    while direction * (t_end - t) > 0.0:
        if accepted + rejected + retries >= cfg.max_steps:
            raise StepLimitExceeded(
                f"no convergence within {cfg.max_steps} step attempts at t={t!r}")
        h = min(h, cfg.h_max, abs(t_end - t))
        if h <= 1e-14 * max(1.0, abs(t)):
            if r_index is not None and _collided(y, k1, h, direction, r_index):
                return samples, "radius_collapse", stats()
            raise StepLimitExceeded(f"step size underflow at t={t!r}")
        hd = direction * h
        K = [k1]
        try:
            for i in range(1, 6):
                evals += 1
                K.append(rhs(t + dyn._C[i] * hd,
                             [yc + hd * _dot(dyn._A[i], K, c) for c, yc in enumerate(y)]))
            y_new = [yc + hd * _dot(dyn._B, K, c) for c, yc in enumerate(y)]
            t_new = t + hd
            evals += 1
            K.append(rhs(t_new, y_new))
        except DomainError:
            retries += 1
            h *= 0.5
            if h < 1e-12:
                if r_index is not None and _collided(y, k1, h, direction, r_index):
                    return samples, "radius_collapse", stats()
                raise
            continue
        sq = 0.0
        for c in range(n):
            a, b = abs(y[c]), abs(y_new[c])
            q = hd * _dot(dyn._E, K, c) / (cfg.atol + cfg.rtol * (a if a > b else b))
            sq += q * q
        err = math.sqrt(sq / n)
        if err > 1.0 or not math.isfinite(err):
            if not math.isfinite(err):
                factor = dyn._MIN_FACTOR
            else:
                factor = max(dyn._MIN_FACTOR, dyn._SAFETY * err ** -dyn._ALPHA)
            rejected += 1
            h *= factor
            continue
        accepted += 1
        h_lo = h if h_lo is None else min(h_lo, h)
        h_hi = h if h_hi is None else max(h_hi, h)
        Q = None
        collapsed = False
        while si < len(sample_times) and \
                direction * (sample_times[si] - t_new) <= 1e-14 * max(1.0, abs(t_new)):
            if Q is None:
                Q = [[_dot(col, K, c) for col in _P_COLS] for c in range(n)]
            ts = sample_times[si]
            x = (ts - t) / hd
            px = (x, x * x, x**3, x**4)
            ysamp = [yc + hd * (q[0] * px[0] + q[1] * px[1] + q[2] * px[2] + q[3] * px[3])
                     for yc, q in zip(y, Q)]
            if r_index is not None and ysamp[r_index] < r_min:
                collapsed = True
                break
            emit(ts, h, *ysamp)
            si += 1
        if collapsed or (r_index is not None and
                         (y_new[r_index] < r_min or not all(map(math.isfinite, y_new)))):
            return samples, "radius_collapse", stats()
        err = max(err, 1e-10)
        factor = min(dyn._MAX_FACTOR, dyn._SAFETY * err ** -dyn._ALPHA * err_prev ** dyn._BETA)
        err_prev = err
        t, y, k1 = t_new, y_new, K[6]
        h *= factor
    return samples, "completed", stats()


def _reference_kernel(dU_dr, L3, guard, t0, y0, t_end, cfg, sample_times):
    """`_polar_kernel` as the `_dot` loop over the polar right-hand side
    that `integrate` used to hand the generic stepper."""
    def rhs(t, y):
        r = y[0]
        if guard and r <= 0.0:
            raise DomainError("r <= 0 during step")
        return [y[1], -dU_dr(t, r), L3 * r**-2 if L3 else 0.0]
    return _dot_reference_core(rhs, t0, y0, t_end, cfg, sample_times,
                               r_index=0 if guard else None, r_min=cfg.r_min)


def _run_key(out):
    """A stepper's (samples, termination, stats) as comparable values: the
    samples' shape and float64 bytes (which keep -0.0 and each NaN apart)."""
    samples, term, stats = out
    samples = np.asarray(samples, dtype=float)
    return samples.shape, samples.tobytes(), term, repr(stats)


def _recorded_runs(monkeypatch, name, core, run):
    """_run_key of every (samples, termination, stats) that `core` returns
    while `run()` executes with it in place of `dyn.<name>`."""
    runs = []

    def recording(*args, **kwargs):
        out = core(*args, **kwargs)
        runs.append(_run_key(out))
        return np.asarray(out[0], dtype=float), *out[1:]
    monkeypatch.setattr(dyn, name, recording)
    run()
    monkeypatch.undo()
    return runs


def kernel_cases():
    """stepper_cases() and the paths only the polar kernel has."""
    ermakov = _default_driven_1d()
    return stepper_cases() + [
        # non-radial: no r <= 0 guard and no radius checks
        pytest.param(_family_from(ermakov["system"], (0.0, 5.0)),
                     PolarState(0.0, 1.5, 0.2), 5.0, IntegratorConfig(), id="ermakov"),
        # L3 = 0: theta' is 0.0 at every stage, never L3 r^-2
        pytest.param(pot.preset("oscillator", g1="(poly 1 0 1)", c0=0.5).family,
                     PolarState(0.0, 1.0, 0.3, 0.25), 6.0, IntegratorConfig(), id="L3-zero"),
        # a stage with q < 0 makes G's argument leave (0, inf): the
        # DomainError comes from inside dU_dr, and the step is retried
        pytest.param(pot.preset("lewis-leach").family, PolarState(0.0, 0.3, -5.0), 2.0,
                     IntegratorConfig(rtol=1e-3, atol=1e-3, h_init=0.5),
                     id="domain-error-in-dU_dr"),
    ]


class TestUnrolledStepper:
    """Same sums in the same order as the _dot loop, zero weights kept: the
    sample columns (signed zeros included), the termination and the
    counters are bit-identical, for the polar kernel and for the generic
    stepper on the Cartesian system."""

    def assert_same_run(self, monkeypatch, name, reference, run):
        got = _recorded_runs(monkeypatch, name, getattr(dyn, name), run)
        want = _recorded_runs(monkeypatch, name, reference, run)
        assert len(got) == 1 and got == want

    @pytest.mark.parametrize("fam,s0,t_end,cfg", kernel_cases())
    def test_integrate_bit_identical(self, monkeypatch, fam, s0, t_end, cfg):
        self.assert_same_run(monkeypatch, "_polar_kernel", _reference_kernel,
                             lambda: dyn.integrate(fam, s0, t_end, cfg))

    def test_kernel_cases_reach_their_paths(self):
        params = {p.id: p.values for p in kernel_cases()}
        fam, s0, t_end, cfg = params["ermakov"]
        assert fam.radial is False and fam.L3 == 0.0
        traj = dyn.integrate(*params["L3-zero"])
        assert traj.termination == "completed" and np.all(traj.theta == 0.25)
        fam, s0, t_end, cfg = params["domain-error-in-dU_dr"]
        assert fam.radial is False
        with pytest.raises(DomainError):  # q < 0 is outside G's domain
            fam.dU_dr(0.0, -0.1)
        stats = dyn.integrate(fam, s0, t_end, cfg).stats
        assert stats.domain_retries > 0

    def test_crosscheck_bit_identical(self, monkeypatch):
        # the polar reference on the kernel, the n = 4 Cartesian system on
        # the generic stepper
        def run():
            return dyn.cartesian_crosscheck(eccentric_kepler(),
                                            PolarState(0.0, 1.4, 0.0, 0.2), 4.0)
        self.assert_same_run(monkeypatch, "_polar_kernel", _reference_kernel, run)
        self.assert_same_run(monkeypatch, "_core_integrate", _dot_reference_core, run)

    @pytest.mark.parametrize("n", [1, 2, 5, 6])
    @pytest.mark.parametrize("t_end", [4.0, -4.0])
    def test_generic_stepper_any_n(self, n, t_end):
        # the generic stepper is emitted once per n: a coupled, driven linear
        # system, with a long first step so that some steps are rejected
        def rhs(t, y):
            return [-0.5 * y[c] + 0.8 * y[(c + 1) % n] - 0.3 * c * y[c - 1] + math.cos(5.0 * t + c)
                    for c in range(n)]
        cfg = IntegratorConfig(rtol=1e-7, atol=1e-9, h_init=0.5)
        y0 = tuple(1.0 - 0.25 * c for c in range(n))
        runs = [core(rhs, 0.0, y0, t_end, cfg, dyn._sample_grid(0.0, t_end, cfg.stride))
                for core in (dyn._core_integrate, _dot_reference_core)]
        assert _run_key(runs[0]) == _run_key(runs[1])
        assert runs[0][0].shape == (n + 2, 401) and runs[0][2].rejected > 0

    def test_signed_zero_components_kept(self):
        # a component that stays a signed zero and steers another: each sum
        # must start from 0.0 as the _dot loop did, or the zero's sign flips
        def rhs(t, y):
            return [y[1], -y[0] + 1e-3 * math.copysign(1.0, y[2]), -0.0]
        runs = [_run_key(core(rhs, 0.0, (1.0, 0.0, -0.0), 1.0, IntegratorConfig(),
                              dyn._sample_grid(0.0, 1.0, 0.01)))
                for core in (dyn._core_integrate, _dot_reference_core)]
        assert runs[0] == runs[1]

    def test_quadrature_samples_bit_identical(self):
        # y' = f(t) from y = 0: the first step's samples are hd (q0 x + ...)
        # with no state to absorb the rounding, so a last-bit change in x^3
        # or x^4 shows; loose tolerances give steps of 2000 samples, more
        # than one block each
        def rhs(t, y):
            return [1.0 + t * (3.0 + t * (-5.0 + t * 2.0)), t * t * (7.0 - 9.0 * t * t)]
        cfg = IntegratorConfig(rtol=1e-6, atol=1e-6, h_init=0.5, stride=1e-4)
        grid = dyn._sample_grid(0.0, 0.5, cfg.stride)
        got, want = (_run_key(core(rhs, 0.0, (0.0, 0.0), 0.5, cfg, grid))
                     for core in (dyn._core_integrate, _dot_reference_core))
        assert got == want
        h = dyn._core_integrate(rhs, 0.0, (0.0, 0.0), 0.5, cfg, grid)[0][1]
        assert np.unique(h, return_counts=True)[1].max() > dyn._BLOCK

    def test_non_finite_stages_silent(self):
        # stages near the double limit: the interpolant weights overflow
        # them to inf and inf - inf gives nan in every y_0 sample; y_1
        # starts infinite.  Float arithmetic is silent, so the numpy pass
        # must be too, with the same samples.
        def rhs(t, y):
            return [1.7e308, 1.0]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            runs = [core(rhs, 0.0, (1e308, math.inf), 2.0, IntegratorConfig(),
                         dyn._sample_grid(0.0, 2.0, 0.01))
                    for core in (dyn._core_integrate, _dot_reference_core)]
        assert _run_key(runs[0]) == _run_key(runs[1])
        y0, y1 = runs[0][0][2:]
        assert np.isnan(y0[1:]).all() and np.isposinf(y1).all()


def _loop_sample_grid(t0, t_end, stride):
    """The per-time loop _sample_grid replaced."""
    direction = 1.0 if t_end >= t0 else -1.0
    out = [t0]
    k = 1
    while True:
        ts = t0 + direction * k * stride
        if direction * (ts - t_end) >= 0.0:
            break
        out.append(ts)
        k += 1
    out.append(t_end)
    return out


class TestSampleGrid:
    @pytest.mark.parametrize("t0,t_end,stride", [
        (0.0, 8.0, 0.01),                     # forward
        (3.0, 0.0, 0.01),                     # backward
        (500.0, 505.0, 0.01),                 # far from 0: t0 + k stride rounds
        (-2.5, 1.2345678, 0.1),               # end not a multiple of the stride
        (1.0, -6.789, 0.25),                  # backward, same
        (0.0, 0.004, 0.01),                   # span shorter than one stride
        (7.0, 6.999, 0.01),                   # backward, same
        (0.0, 8193.0, 1.0),                   # a whole number of strides
        (-0.0, 100.0, 0.01),                  # t0 = -0.0 kept
        (0.1, 0.1 + 3 * 0.1, 0.1),            # an inner time lands on t_end
        (1e4, 1e4 - 0.7 * dyn.MAX_SAMPLES * 0.01, 0.01),  # long, backward, far from 0
    ])
    def test_matches_loop(self, t0, t_end, stride):
        got = dyn._sample_grid(t0, t_end, stride)
        assert got.dtype == np.float64 and got.ndim == 1
        assert got.tobytes() == np.array(_loop_sample_grid(t0, t_end, stride)).tobytes()

    def test_matches_loop_on_random_spans(self):
        rng = np.random.default_rng(17)
        for _ in range(300):
            stride = float(10.0 ** rng.uniform(-3, 0))
            t0 = float(rng.uniform(-600.0, 600.0))
            t_end = t0 + float(rng.uniform(-1, 1)) * stride * float(rng.integers(1, 400))
            if t_end == t0:
                continue
            got = dyn._sample_grid(t0, t_end, stride)
            want = np.array(_loop_sample_grid(t0, t_end, stride))
            assert got.tobytes() == want.tobytes(), (t0, t_end, stride)


def _row_writer(traj, path):
    """The row-by-row CSV writer write_csv replaced."""
    with open(path, "w", newline="") as fh:
        fh.write("t,r,rdot,theta,h_accepted\n")
        for i in range(len(traj)):
            row = (traj.t[i], traj.r[i], traj.rdot[i], traj.theta[i],
                   traj.h_accepted[i])
            fh.write(",".join(repr(float(v)) for v in row) + "\n")


class TestCsvBytes:
    EDGES = np.array([0.0, -0.0, 5e-324, -5e-324, 1e-300, 1e300, -1e300, 0.1,
                      1.0 / 3.0, 2.0**53 + 2.0, 123456789.0])

    def assert_same_bytes(self, tmp_path, traj):
        dyn.write_csv(traj, tmp_path / "new.csv")
        _row_writer(traj, tmp_path / "old.csv")
        assert (tmp_path / "new.csv").read_bytes() == (tmp_path / "old.csv").read_bytes()

    def test_edge_values(self, tmp_path):
        v = self.EDGES
        traj = dyn.Trajectory(v, v[::-1].copy(), -v, 0.5 * v, 2.0 * v[::-1])
        self.assert_same_bytes(tmp_path, traj)

    def test_integrated_and_empty(self, tmp_path):
        traj = dyn.integrate(cross_profile_family(), PolarState(0.0, 1.2, 0.1), 0.5)
        self.assert_same_bytes(tmp_path, traj)
        empty = np.empty(0)
        self.assert_same_bytes(tmp_path, dyn.Trajectory(empty, empty, empty, empty, empty))

    def test_h_runs(self, tmp_path):
        # long runs of one step, NaN runs (two payloads, one negative) next to
        # each other, and the adjacent signed zeros of EDGES
        nan2 = np.array([0x7FF8000000000001], dtype=np.int64).view(float)[0]
        values = [*self.EDGES, np.nan, -np.nan, nan2, np.nan, 0.1, 0.0, -0.0, 0.1]
        h = np.repeat(values, [1 + 37 * (i % 3) for i in range(len(values))])
        t = np.arange(len(h)) * 0.1
        col = np.where(np.arange(len(h)) % 5 == 0, np.nan, t / 3.0)
        self.assert_same_bytes(tmp_path, dyn.Trajectory(t, -t, col, t * t, h))
        # a strided h column (every other value of a longer array)
        wide = np.repeat(h, 2)
        self.assert_same_bytes(tmp_path, dyn.Trajectory(t, t, t, t, wide[::2]))

    def test_crosscheck_trajectory(self, tmp_path):
        res = dyn.cartesian_crosscheck(eccentric_kepler(), PolarState(0.0, 1.4, 0.0, 0.2), 4.0)
        self.assert_same_bytes(tmp_path, res.trajectory)


@pytest.fixture(scope="module")
def long_run_peaks(tmp_path_factory):
    """A 200,001-sample run: (its trajectory's array bytes, the traced peak
    of `integrate`, the traced peak of `write_csv` with the trajectory
    live)."""
    fam = pot.preset("oscillator", g1="(poly 1 0 0.0001)", L3=1.0).family
    s0 = PolarState(0.0, 1.0, 0.0)
    dyn.integrate(fam, s0, 1.0)  # compile the family's evaluators untraced
    # with a profile hook set, even a no-op one, tracemalloc runs this about
    # 7x faster on CPython 3.11 (12 s without one on 2 vCPUs)
    hook = sys.getprofile()
    sys.setprofile(hook or (lambda *args: None))
    tracemalloc.start()
    try:
        traj = dyn.integrate(fam, s0, 2000.0)
        integrate_peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.reset_peak()
        dyn.write_csv(traj, tmp_path_factory.mktemp("long") / "trajectory.csv")
        csv_peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
        sys.setprofile(hook)
    assert len(traj) == 200_001 and traj.termination == "completed"
    nbytes = sum(a.nbytes for a in (traj.t, traj.r, traj.rdot, traj.theta, traj.h_accepted))
    return nbytes, integrate_peak, csv_peak


class TestLongRunMemory:
    """A run holds its samples once, as float64 arrays, and the CSV writer
    formats a block of rows at a time: each peak stays near the
    trajectory's own bytes."""

    def test_integrate_peak(self, long_run_peaks):
        nbytes, peak, _ = long_run_peaks
        assert peak < 1.5 * nbytes

    def test_write_csv_peak(self, long_run_peaks):
        nbytes, _, peak = long_run_peaks
        assert peak < 1.5 * nbytes

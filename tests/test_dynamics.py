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


# -- the float stepper against the numpy stage arithmetic it replaced --------

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
            assert r_index is not None and y[r_index] <= 1000.0 * r_min
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
                assert r_index is not None and y[r_index] <= 1000.0 * r_min
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

    grid = dyn._sample_grid(s0.t, t_end, cfg.stride)
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
    ]


class TestFloatStepper:
    @pytest.mark.parametrize("fam,s0,t_end,cfg", stepper_cases())
    def test_matches_numpy_reference(self, fam, s0, t_end, cfg):
        traj = dyn.integrate(fam, s0, t_end, cfg)
        ts, ys, hs, term = _reference_integrate(fam, s0, t_end, cfg)
        # the step sequence is bit-identical ...
        assert traj.t.tolist() == ts.tolist()
        assert traj.h_accepted.tolist() == hs.tolist()
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

"""Residual suites, closed-form reconstructions, and their negative controls."""

import json
from dataclasses import replace

import numpy as np
import pytest

import tdcentral.scalarfn as sf
from tdcentral import dynamics as dyn
from tdcentral import integrals as fi
from tdcentral import potentials as pot
from tdcentral import verify as vf
from tdcentral.errors import BranchAmbiguity, InvalidParameters
from tdcentral.potentials import FamilyA, FamilyB, LewisLeach1d
from test_acceptance import _families as acceptance_families


def fam_linear():
    return FamilyA(sf.poly(1, 0, 0.1), sf.mul(0.2, sf.T), L3=0.8)


def fam_oscillator():
    return FamilyB(sf.poly(1, 0, 1), 0.0, pot.oscillator_shape(0.8, 1.0), L3=1.0)


def fam_cross():
    # g2 != 0 exercises the quadrature-backed shape argument
    shape = sf.add(sf.power(sf.T, 2), sf.mul(2.0, sf.power(sf.T, -2)))
    return FamilyB(sf.poly(1, 0, 0.25), sf.poly(0.3, 0.1), shape, L3=0.7)


def sample_families():
    return [fam_linear(), fam_oscillator(), fam_cross()]


PLAN = vf.SamplingPlan(count=250, seed=7)


class TestSamplingPlan:
    def test_validation(self):
        with pytest.raises(ValueError):
            vf.SamplingPlan(count=0)
        with pytest.raises(ValueError):
            vf.SamplingPlan(r_range=(-1.0, 2.0))
        with pytest.raises(ValueError):
            vf.SamplingPlan(t_range=(3.0, 0.0))

    def test_seeded_determinism(self):
        a = vf.SamplingPlan(count=64, seed=11).samples()
        b = vf.SamplingPlan(count=64, seed=11).samples()
        for x, y in zip(a, b):
            assert np.array_equal(x, y)

    def test_samples_inside_box(self):
        plan = vf.SamplingPlan(t_range=(1.0, 2.0), r_range=(0.5, 0.6),
                               rdot_range=(-1.0, 1.0), count=128, seed=3)
        ts, rs, rds = plan.samples()
        assert ts.shape == (128,)
        assert ts.min() >= 1.0 and ts.max() <= 2.0
        assert rs.min() >= 0.5 and rs.max() <= 0.6
        assert abs(rds).max() <= 1.0


class TestPdeResiduals:
    def test_admissible_families_vanish(self):
        """All three defining-condition residuals stay at rounding level."""
        for fam in sample_families():
            rep = vf.pde_residuals(fam, PLAN)
            assert rep.passed, fam.label
            for name in ("pde-r1", "pde-r2", "pde-r3"):
                assert rep.checks[name].max_residual <= 1e-12, (fam.label, name)

    def test_free_particle_identically_zero(self):
        rep = vf.pde_residuals(FamilyA(1.0, 0.0), PLAN)
        for name in ("pde-r1", "pde-r2", "pde-r3"):
            assert rep.checks[name].max_residual == 0.0

    def test_perturbed_potential_fails(self):
        bad = vf.PerturbedPotential(fam_oscillator(), eps=1e-3)
        rep = vf.pde_residuals(bad, PLAN)
        assert not rep.passed
        worst = max(c.max_residual for c in rep.checks.values())
        assert worst >= 1e-4

    def test_check_names_and_shape(self):
        rep = vf.pde_residuals(fam_linear(), PLAN)
        assert set(rep.checks) == {"pde-r1", "pde-r2", "pde-r3"}
        payload = json.loads(rep.to_json())
        for entry in payload.values():
            assert set(entry) == {"max_residual", "tolerance", "pass"}


class TestNoetherCheck:
    def test_velocity_condition_is_exact(self):
        """The rdot-gradient condition cancels algebraically, not just numerically."""
        for fam in sample_families():
            rep = vf.noether_check(fam, PLAN)
            assert rep.checks["noether-velocity"].max_residual == 0.0

    def test_config_condition_rounding_level(self):
        for fam in sample_families():
            rep = vf.noether_check(fam, PLAN)
            assert rep.passed, fam.label
            assert rep.checks["noether-config"].max_residual <= 1e-12

    def test_mismatched_shape_fails(self):
        bad = vf.MismatchedShapeFamily(fam_oscillator(), scale=1.01)
        rep = vf.noether_check(bad, PLAN)
        assert not rep.passed
        assert rep.checks["noether-config"].max_residual >= 1e-4
        # the velocity condition is structural and survives the mismatch
        assert rep.checks["noether-velocity"].passed


class TestRescaledShapeRecovery:
    def test_trivial_scale(self):
        assert vf.rescaled_shape_recovery(1.0, 0.0, 0.0) == 0.0

    def test_quadratic_shape(self):
        phi = sf.sqrt(sf.poly(1, 0, 1))
        diff = vf.rescaled_shape_recovery(phi, sf.power(sf.T, 2), 1.0)
        assert diff <= 1e-12

    def test_inverse_shape(self):
        diff = vf.rescaled_shape_recovery(sf.poly(1, 0, 1),
                                          sf.power(sf.T, -1.0), 2.0)
        assert diff <= 1e-12

    def test_custom_grid(self):
        grid = (np.linspace(0.0, 1.0, 5), np.linspace(1.0, 2.0, 5))
        diff = vf.rescaled_shape_recovery(sf.poly(1, 0.2), sf.power(sf.T, 2),
                                          0.5, grid=grid)
        assert diff <= 1e-12

    def test_scale_profile_zero_on_grid(self):
        # phi = t vanishes at the first grid time, where phi''/phi is 0/0
        with pytest.raises(InvalidParameters, match=r"phi = t on \[0, 2\]: vanishes at t = 0"):
            vf.rescaled_shape_recovery(sf.T, sf.power(sf.T, 2), 1.0)


def rescaling_reference(phi, Fbar, L3, grid=None):
    """Per-grid-point scalar loop of rescaled_shape_recovery: its result and
    the largest |V| it met."""
    phi, Fbar = sf.as_fn(phi), sf.as_fn(Fbar)
    if grid is None:
        grid = (np.linspace(0.0, 2.0, 20), np.linspace(0.5, 3.0, 20))
    ts, rs = grid
    g1 = sf.mul(0.5, sf.power(phi, 2))
    fam = FamilyB(g1, 0.0, sf.compose(Fbar, sf.poly(0.0, 2.0 ** -0.5)), L3)
    phidd = phi.d().d()
    worst = scale = 0.0
    for t in np.asarray(ts, dtype=float):
        pv = phi(t)
        pdd = phidd(t)
        for r in np.asarray(rs, dtype=float):
            direct = (-0.5 * pdd / pv * r * r + Fbar(r / pv) / (pv * pv)
                      - 0.5 * L3 * L3 / (r * r))
            v = fam.V(t, float(r))
            worst = max(worst, abs(v - direct))
            scale = max(scale, abs(v))
    return float(worst), scale


def rescaling_cases():
    from tdcentral.cli import _default_rescaling_cases
    cases = [(sf.parse(c["phi"]), sf.parse(c["shape"]), c["L3"], None)
             for c in _default_rescaling_cases()]
    return cases + [  # the TestRescaledShapeRecovery cases
        (1.0, 0.0, 0.0, None),
        (sf.sqrt(sf.poly(1, 0, 1)), sf.power(sf.T, 2), 1.0, None),
        (sf.poly(1, 0, 1), sf.power(sf.T, -1.0), 2.0, None),
        (sf.poly(1, 0.2), sf.power(sf.T, 2), 0.5,
         (np.linspace(0.0, 1.0, 5), np.linspace(1.0, 2.0, 5)))]


@pytest.mark.parametrize("phi,Fbar,L3,grid", rescaling_cases())
def test_rescaled_shape_recovery_matches_scalar_loop(phi, Fbar, L3, grid):
    # the meshgrid evaluation differs from the loop only where numpy and libm
    # round a function differently in the last bit: 4 ulps of the largest |V|
    want, scale = rescaling_reference(phi, Fbar, L3, grid)
    got = vf.rescaled_shape_recovery(phi, Fbar, L3, grid)
    assert abs(got - want) <= 4 * np.finfo(float).eps * scale


class TestClosedFormR:
    def test_free_particle_value(self):
        # g2 = 1, g = 0: r(t) = I t + c, so I = c = 1 gives r(2) = 3
        fam = FamilyA(1.0, 0.0)
        assert abs(vf.closed_form_r(fam, I=1.0, c=1.0, t=2.0) - 3.0) <= 1e-12

    def test_pure_scaling_value(self):
        # I = g = 0 leaves r = c g2
        fam = FamilyA(sf.poly(0, 1), 0.0)
        got = vf.closed_form_r(fam, I=0.0, c=2.0, t=2.0, t0=1.0)
        assert abs(got - 4.0) <= 1e-12

    def test_matches_integrated_trajectory(self):
        fam = fam_linear()
        s0 = dyn.PolarState(0.0, 2.0, 0.1)
        traj = dyn.integrate(fam, s0, 5.0)
        I0 = fam.fi(s0.t, s0.r, s0.rdot)
        c0 = s0.r / fam.g2(s0.t)
        worst = max(abs(vf.closed_form_r(fam, I0, c0, float(t)) - r)
                    for t, r in zip(traj.t[::25], traj.r[::25]))
        assert worst <= 1e-8

    def test_array_equals_scalar_calls(self):
        fam = fam_linear()
        ts = np.linspace(-1.0, 6.0, 71)
        got = vf.closed_form_r(fam, 0.4, 1.3, ts)
        want = [vf.closed_form_r(fam, 0.4, 1.3, float(t)) for t in ts]
        assert got.shape == ts.shape
        np.testing.assert_allclose(got, want, rtol=1e-14, atol=0.0)

    def test_constant_placement_matters(self):
        fam = fam_linear()
        inside = vf.closed_form_r(fam, I=0.5, c=2.0, t=3.0)
        outside = vf.closed_form_r(fam, I=0.5, c=0.0, t=3.0) + 2.0
        assert abs(inside - outside) > 0.1

    def test_placements_agree_for_constant_g2(self):
        fam = FamilyA(1.0, 0.0)
        inside = vf.closed_form_r(fam, I=0.3, c=1.5, t=4.0)
        outside = vf.closed_form_r(fam, I=0.3, c=0.0, t=4.0) + 1.5
        assert inside == pytest.approx(outside, abs=1e-14)


class TestClosedFormTheta:
    def test_circular_orbit(self):
        fam = pot.preset("generalized-kepler", nu=1.0, k=1.0, b0=1.0,
                         L3=1.0).family
        traj = dyn.integrate(fam, dyn.PolarState(0.0, 1.0, 0.0), 10.0)
        assert vf.closed_form_theta(traj, 1.0) <= 1e-12

    def test_eccentric_orbit(self):
        fam = pot.preset("generalized-kepler", nu=1.0, k=1.0, b0=1.0,
                         L3=1.0).family
        traj = dyn.integrate(fam, dyn.PolarState(0.0, 1.4, 0.0, 0.2), 6.0)
        assert vf.closed_form_theta(traj, 1.0) <= 1e-8

    def test_no_angular_momentum(self):
        fam = pot.preset("generalized-kepler", nu=1.0, k=1.0, b0=1.0,
                         L3=0.0).family
        traj = dyn.integrate(fam, dyn.PolarState(0.0, 1.0, 1.2), 3.0)
        assert vf.closed_form_theta(traj, 0.0) == 0.0

    def test_explicit_offset_shifts_deviation(self):
        fam = pot.preset("generalized-kepler", nu=1.0, k=1.0, b0=1.0,
                         L3=1.0).family
        traj = dyn.integrate(fam, dyn.PolarState(0.0, 1.0, 0.0), 4.0)
        dev = vf.closed_form_theta(traj, 1.0, theta0=traj.theta[0] + 0.5)
        assert 0.49 < dev < 0.51


class TestOrbitAngleCheck:
    def test_static_scale(self):
        """phi = 1 reduces the relation to theta + (L3/k) rdot = const."""
        fam = pot.preset("scaled-kepler", phi="1", k=1.0, L3=0.5).family
        traj = dyn.integrate(fam, dyn.PolarState(0.0, 1.2, 0.2, 0.1), 1.5)
        assert traj.termination == "completed"
        # two monotone branches: outbound then plunge
        flips = np.sum(np.sign(traj.rdot[:-1]) != np.sign(traj.rdot[1:]))
        assert flips == 1
        assert vf.orbit_angle_check("1", 1.0, 0.5, traj) <= 1e-8

    def test_growing_scale(self):
        phi = sf.sqrt(sf.poly(1, 0, 1))
        fam = pot.preset("scaled-kepler", phi="(sqrt (poly 1 0 1))",
                         k=1.0, L3=0.5).family
        traj = dyn.integrate(fam, dyn.PolarState(0.0, 1.2, 0.2, 0.1), 6.0)
        assert traj.termination == "completed"
        assert vf.orbit_angle_check(phi, 1.0, 0.5, traj) <= 1e-8

    def test_circular_orbit_is_ambiguous(self):
        # the branch variable phi rdot - phi' r vanishes on every sample
        fam = pot.preset("scaled-kepler", phi="1", k=1.0, L3=1.0).family
        traj = dyn.integrate(fam, dyn.PolarState(0.0, 1.0, 0.0), 3.0)
        with pytest.raises(BranchAmbiguity):
            vf.orbit_angle_check("1", 1.0, 1.0, traj)

    def test_no_angular_momentum(self):
        fam = pot.preset("scaled-kepler", phi="1", k=1.0, L3=0.0).family
        traj = dyn.integrate(fam, dyn.PolarState(0.0, 1.0, 1.5), 4.0)
        assert vf.orbit_angle_check("1", 1.0, 0.0, traj) == 0.0

    @pytest.mark.parametrize("nan_at", [[], [5], [5, 6], [0], [-1], [3, 4, 5, 40, 41]])
    @pytest.mark.parametrize("field", ["rdot", "theta"])
    def test_branches_match_sign_run_loop(self, field, nan_at):
        # np.split at the sign changes of B gives the bits of the loop that
        # walked its sign runs; a nan sign is a one-sample branch in both
        phi = sf.sqrt(sf.poly(1, 0, 1))
        fam = pot.preset("scaled-kepler", phi="(sqrt (poly 1 0 1))", k=1.0, L3=0.5).family
        traj = dyn.integrate(fam, dyn.PolarState(0.0, 1.2, 0.2, 0.1), 6.0)
        values = getattr(traj, field).copy()
        values[nan_at] = np.nan
        traj = replace(traj, **{field: values})
        want = sign_run_orbit_check(phi, 1.0, 0.5, traj)
        assert np.array_equal(vf.orbit_angle_check(phi, 1.0, 0.5, traj), want, equal_nan=True)
        if not nan_at:
            assert want.hex() == "0x1.0b47f44000000p-28"


@np.errstate(all="ignore")
def sign_run_orbit_check(phi, k, L3, traj):
    """`orbit_angle_check` (L3 != 0, no ambiguous sample) as the loop over
    the sign runs of B that np.split replaced."""
    pv = np.broadcast_to(phi(traj.t), traj.t.shape)
    pd = np.broadcast_to(phi.d()(traj.t), traj.t.shape)
    B = pv * traj.rdot - pd * traj.r
    I0 = 0.5 * B[0] ** 2 - k * pv[0] / traj.r[0]
    amp = (L3 / k) * np.sqrt(np.maximum(2.0 * (I0 + k * pv / traj.r), 0.0))
    sgn = np.sign(B)
    worst = [0.0]
    start = 0
    while start < len(B):
        stop = start + 1
        while stop < len(B) and sgn[stop] == sgn[start]:
            stop += 1
        th, a = traj.theta[start:stop], amp[start:stop]
        if len(th) > 1:
            worst.append(np.min([np.max(np.abs(sigma * a + (th[0] - sigma * a[0]) - th))
                                 for sigma in (1.0, -1.0)]))
        start = stop
    return float(np.max(worst))


def driven_1d_system():
    quad = sf.poly(1, 0, 1)
    return LewisLeach1d(sf.sqrt(quad), sf.poly(0, 0.1), sf.power(quad, -1.0),
                        sf.mul(0.1, sf.T, sf.power(quad, -2.0)),
                        sf.power(sf.T, 4), k=2.0)


class TestLewisLeachReport:
    def test_report_structure(self):
        rep = vf.lewis_leach_report(driven_1d_system(),
                                    dyn.PolarState(0.0, 1.5, 0.2), 5.0)
        assert set(rep.checks) == {"ermakov-profile", "ermakov-center",
                                   "invariant-drift", "literal-bracket-drift"}
        assert rep.passed

    def test_profile_conditions_hold(self):
        rep = vf.lewis_leach_report(driven_1d_system(),
                                    dyn.PolarState(0.0, 1.5, 0.2), 5.0)
        assert rep.checks["ermakov-profile"].max_residual <= 1e-12
        assert rep.checks["ermakov-center"].max_residual <= 1e-12
        assert rep.checks["invariant-drift"].max_residual <= 1e-7

    def test_literal_bracket_recorded_but_not_gating(self):
        """The profile-rate reading of the invariant drifts by order unity;
        the report keeps the evidence without failing on it."""
        rep = vf.lewis_leach_report(driven_1d_system(),
                                    dyn.PolarState(0.0, 1.5, 0.2), 5.0)
        literal = rep.checks["literal-bracket-drift"]
        assert not literal.passed
        assert not literal.required
        assert literal.max_residual > 0.1
        assert rep.passed

    def test_broken_center_condition_gates(self):
        # alpha = 0.1 t with no drive violates the center condition
        quad = sf.poly(1, 0, 1)
        bad = LewisLeach1d(sf.sqrt(quad), sf.poly(0, 0.1),
                           sf.power(quad, -1.0), 0.0, sf.power(sf.T, 4), k=2.0)
        rep = vf.lewis_leach_report(bad, dyn.PolarState(0.0, 1.5, 0.2), 5.0)
        assert not rep.checks["ermakov-center"].passed
        assert not rep.passed
        # without its profile conditions the invariant is not conserved:
        # nothing is integrated
        assert set(rep.checks) == {"ermakov-profile", "ermakov-center"}


class TestVerificationReport:
    def test_json_is_deterministic(self):
        a = vf.pde_residuals(fam_oscillator(), PLAN).to_json()
        b = vf.pde_residuals(fam_oscillator(), PLAN).to_json()
        assert a == b

    def test_json_roundtrip_fields(self):
        payload = json.loads(vf.noether_check(fam_cross(), PLAN).to_json())
        assert set(payload) == {"noether-config", "noether-velocity"}
        for entry in payload.values():
            assert isinstance(entry["pass"], bool)
            assert entry["max_residual"] >= 0.0

    def test_merged_reports(self):
        fam = fam_oscillator()
        rep = vf.pde_residuals(fam, PLAN).merged(vf.noether_check(fam, PLAN))
        assert set(rep.checks) == {"pde-r1", "pde-r2", "pde-r3",
                                   "noether-config", "noether-velocity"}
        assert rep.passed

    def test_merged_failure_propagates(self):
        fam = fam_oscillator()
        good = vf.pde_residuals(fam, PLAN)
        bad = vf.pde_residuals(vf.PerturbedPotential(fam, eps=1e-3), PLAN)
        assert not good.merged(bad).passed

    @pytest.mark.parametrize("values,worst,passed", [
        ([-3e-10, 2e-10], 3e-10, True),
        (-2e-9, 2e-9, False),
        ([], 0.0, True),
        ([[1e-12], [0.0]], 1e-12, True),
        ([0.0, np.nan, 1.0], None, False),
        ([np.inf], np.inf, False),
    ], ids=["array", "scalar", "empty", "nested", "nan", "inf"])
    def test_check(self, values, worst, passed):
        c = vf.check(values, 1e-9)
        assert (np.isnan(c.max_residual) if worst is None else c.max_residual == worst)
        assert c.passed is passed and c.tolerance == 1e-9

    def test_non_finite_residual_is_null(self):
        rep = vf.VerificationReport({"a": vf.check([np.nan], 1e-9),
                                     "b": vf.check([np.inf], 1e-9)})
        payload = json.loads(rep.to_json(), parse_constant=pytest.fail)
        assert payload == {name: {"max_residual": None, "pass": False, "tolerance": 1e-9}
                           for name in ("a", "b")}

    def test_dumps_nested_non_finite(self):
        assert vf.dumps({"b": [1.5, -np.inf], "a": {"x": float("nan"), "n": 2}}) == \
            '{\n  "a": {\n    "n": 2,\n    "x": null\n  },\n  "b": [\n    1.5,\n    null\n  ]\n}'


def pde_reference(fam, plan):
    """Per-sample scalar loop of the three defining-condition residuals."""
    ts, rs, _ = plan.samples()
    res = np.empty((3, plan.count))
    for i in range(plan.count):
        t, r = float(ts[i]), float(rs[i])
        g1, g1d, g1dd, g1ddd = fam.g1(t), fam.g1_d(t), fam.g1_dd(t), fam.g1_ddd(t)
        g2, g2d, g2dd = fam.g2(t), fam.g2_d(t), fam.g2_dd(t)
        ur = fam.dU_dr(t, r)
        res[0, i] = fam.dK_dr(t, r) - 2.0 * g1 * ur - g1dd * r + g2d
        res[1, i] = fam.dK_dt(t, r) - (g2 - g1d * r) * ur
        res[2, i] = ((g1d * r - g2) * fam.d2U_dr2(t, r)
                     + 2.0 * g1 * fam.d2U_dtdr(t, r) + 3.0 * g1d * ur
                     + g1ddd * r - g2dd)
    return dict(zip(("pde-r1", "pde-r2", "pde-r3"), np.max(np.abs(res), axis=1)))


def noether_reference(fam, plan):
    """Per-sample scalar loop of the gauged Noether conditions."""
    ts, rs, rds = plan.samples()
    res = np.empty((2, plan.count))
    for i in range(plan.count):
        t, r, rd = float(ts[i]), float(rs[i]), float(rds[i])
        g1, g1d, g1dd = fam.g1(t), fam.g1_d(t), fam.g1_dd(t)
        g2, g2d = fam.g2(t), fam.g2_d(t)
        eta1 = -2.0 * g1 * rd + g1d * r - g2
        deta1_dt = -2.0 * g1d * rd + g1dd * r - g2d
        df_dt = -g1d * rd * rd + fam.dK_dt(t, r)
        df_dr = fam.dK_dr(t, r)
        res[0, i] = (eta1 * (-fam.dU_dr(t, r)) + (deta1_dt + rd * g1d) * rd
                     - df_dt - rd * df_dr)
        res[1, i] = (-2.0 * g1) * rd - (-2.0 * g1 * rd)
    return dict(zip(("noether-config", "noether-velocity"),
                    np.max(np.abs(res), axis=1)))


def sweep_families():
    """The six acceptance fixtures plus the perturbed negative control."""
    fams = [(name, fam) for name, fam, _ in acceptance_families()]
    fams.append(("perturbed", vf.PerturbedPotential(fams[2][1], eps=1e-3)))
    return fams


class TestVectorisedSweeps:
    """The array-valued sweeps agree with a per-sample scalar loop; the
    only differences are last-digit ones between libm and numpy ufuncs."""

    PLAN = vf.SamplingPlan(count=300, seed=2026)

    @pytest.mark.parametrize("name,fam", sweep_families())
    def test_pde_residuals_match_scalar_loop(self, name, fam):
        report = vf.pde_residuals(fam, self.PLAN)
        for check, worst in pde_reference(fam, self.PLAN).items():
            assert abs(report.checks[check].max_residual - worst) <= 1e-14, check

    @pytest.mark.parametrize("name,fam", sweep_families())
    def test_noether_check_matches_scalar_loop(self, name, fam):
        report = vf.noether_check(fam, self.PLAN)
        for check, worst in noether_reference(fam, self.PLAN).items():
            assert abs(report.checks[check].max_residual - worst) <= 1e-14, check

"""Laguerre recurrence, radial amplitude, mode residual, wavefunction assembly."""

import cmath
import itertools
import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import eval_genlaguerre

import tdcentral.scalarfn as sf
from tdcentral import potentials as pot
from tdcentral import quantum as qm
from tdcentral.errors import DomainError, InvalidParameters


def laguerre_by_coefficients(a, b, R):
    # explicit expansion sum_i (-1)^i C(b+a, b-i) R^i / i! with the
    # generalized binomial written as a falling product so real a works
    tot = 0.0
    for i in range(b + 1):
        binom = 1.0
        for j in range(1, b - i + 1):
            binom *= (a + i + j) / j
        tot += (-1.0) ** i * binom * R**i / math.factorial(i)
    return tot


# -- scalar references: the per-radius code the array path replaced ----------

def laguerre_scalar(a, b, R):
    prev = 1.0
    if b == 0:
        return prev
    cur = 1.0 + a - R
    for n in range(1, b):
        prev, cur = cur, ((2.0 * n + 1.0 + a - R) * cur
                          - (n + a) * prev) / (n + 1.0)
    return cur


def residual_terms_scalar(p, R):
    """(A'', coef * A) at one float R with libm exp and pow; the mode
    residual is their sum."""
    c = 0.5 * (p.a + 1.0)
    L = laguerre_scalar(p.a, p.b, R)
    L1 = -laguerre_scalar(p.a + 1.0, p.b - 1, R) if p.b >= 1 else 0.0
    L2 = laguerre_scalar(p.a + 2.0, p.b - 2, R) if p.b >= 2 else 0.0
    pref = math.exp(-0.5 * R) * R**c
    g = c / R - 0.5
    M = L1 + g * L
    Mp = L2 + g * L1 - (c / (R * R)) * L
    h2 = p.hbar * p.hbar
    coef = (2.0 * p.lam / h2 + 2.0 * p.k / (h2 * R)
            - (p.m2 - 0.25 - (p.L3 / p.hbar) ** 2) / (R * R))
    return pref * (Mp + g * M), coef * (pref * L)


def worst_residual_scalar(p, Rs):
    """The verify suite's per-radius loop: the largest |residual| over Rs, or
    None when the mode leaves the double range."""
    try:
        res = [abs(sum(residual_terms_scalar(p, float(R)))) for R in Rs]
    except ArithmeticError:  # OverflowError, ZeroDivisionError
        return None
    return max(res) if all(map(math.isfinite, res)) else None


def mode_grid_worst(a_values, b, hbar_values, L3, Rs):
    """The suite's array pass: largest |residual| over Rs of each (a, hbar)
    pair at node count b, inf or nan outside the double range."""
    p = qm.WavefunctionParams(a=np.array(a_values, dtype=float)[:, None, None], b=b,
                              hbar=np.array(hbar_values, dtype=float)[:, None], L3=L3)
    with np.errstate(all="ignore"):
        return np.max(np.abs(qm.radial_mode_residual(p, Rs)), axis=-1)


RS = np.logspace(math.log10(0.01), math.log10(50.0), 50)  # the verify suite's radii
# numpy's exp and power may differ from libm's in the last bit, and the
# prefactor multiplies both terms; 4 ulps of their magnitudes covers that
# (1 ulp is the largest seen over 150k samples)
TERM_ULPS = 4 * np.finfo(float).eps


class TestLaguerre:
    def test_degree_zero_is_one(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            a = rng.uniform(-0.9, 4.0)
            R = rng.uniform(0.0, 30.0)
            assert qm.laguerre(a, 0, R) == 1.0

    def test_degree_one_root(self):
        assert qm.laguerre(0.0, 1, 1.0) == 0.0

    def test_degree_two_value(self):
        assert qm.laguerre(0.0, 2, 2.0) == -1.0

    def test_matches_coefficient_expansion(self):
        rng = np.random.default_rng(5)
        for _ in range(200):
            a = rng.uniform(-0.9, 3.0)
            b = int(rng.integers(0, 7))
            R = rng.uniform(0.0, 20.0)
            got = qm.laguerre(a, b, R)
            want = laguerre_by_coefficients(a, b, R)
            assert abs(got - want) <= 1e-11 * max(1.0, abs(want))

    def test_matches_scipy(self):
        rng = np.random.default_rng(6)
        for _ in range(200):
            a = rng.uniform(-0.9, 3.0)
            b = int(rng.integers(0, 9))
            R = rng.uniform(0.0, 20.0)
            got = qm.laguerre(a, b, R)
            want = float(eval_genlaguerre(b, a, R))
            assert abs(got - want) <= 1e-11 * max(1.0, abs(want))

    @pytest.mark.parametrize("b", [0, 1, 2, 7])
    def test_array_matches_scalar_recurrence(self, b):
        got = qm.laguerre(1.5, b, RS)
        assert isinstance(got, np.ndarray) and got.shape == RS.shape
        assert got.tolist() == [laguerre_scalar(1.5, b, float(R)) for R in RS]
        orders = np.array([[-0.5], [1.5], [3.0]])  # broadcast against RS
        got = qm.laguerre(orders, b, RS)
        assert got.shape == (3, RS.size)
        assert got.tolist() == [[laguerre_scalar(a, b, float(R)) for R in RS]
                                for a in (-0.5, 1.5, 3.0)]

    def test_bad_degree(self):
        with pytest.raises(InvalidParameters):
            qm.laguerre(0.0, -1, 1.0)
        with pytest.raises(InvalidParameters):
            qm.laguerre(0.0, 1.5, 1.0)


class TestWavefunctionParams:
    def test_derived_constants(self):
        p = qm.WavefunctionParams(a=1.0, b=1, hbar=1.0)
        assert p.lam == -0.125
        assert p.k == 1.0
        assert p.m2 == 0.25
        assert p.m == 0.5
        assert not p.m_is_integer

    def test_angular_index_with_rotation(self):
        p = qm.WavefunctionParams(a=0.0, b=0, hbar=1.0, L3=1.0)
        assert p.m == 1.0
        assert p.m_is_integer

    def test_coupling_matches_orbit_preset(self):
        """(a, b, hbar) = (1, 1, 1) yields the k = 1 used by the classical
        orbit fixture, so both checks share one constant."""
        p = qm.WavefunctionParams(a=1.0, b=1, hbar=1.0)
        preset = pot.preset("scaled-kepler", phi="1", k=p.k, L3=0.5)
        assert preset.params["k"] == p.k

    def test_validation(self):
        with pytest.raises(InvalidParameters):
            qm.WavefunctionParams(a=-1.0, b=0)
        with pytest.raises(InvalidParameters):
            qm.WavefunctionParams(a=0.0, b=-1)
        with pytest.raises(InvalidParameters):
            qm.WavefunctionParams(a=0.0, b=0, hbar=0.0)

    def test_node_count_cap(self):
        assert qm.WavefunctionParams(a=0.0, b=qm.MAX_NODES).b == qm.MAX_NODES
        with pytest.raises(InvalidParameters, match=str(qm.MAX_NODES)):
            qm.WavefunctionParams(a=0.0, b=qm.MAX_NODES + 1)
        for b in (math.inf, math.nan):
            with pytest.raises(InvalidParameters):
                qm.WavefunctionParams(a=0.0, b=b)

    def test_scaled_time_quadrature(self):
        # phi = sqrt(1+t^2) gives T(t) = arctan t exactly
        p = qm.WavefunctionParams(a=0.0, b=0, phi=sf.sqrt(sf.poly(1, 0, 1)))
        assert abs(p.scaled_time(1.0) - math.atan(1.0)) <= 1e-12
        assert abs(p.scaled_time(3.0) - math.atan(3.0)) <= 1e-12
        assert p.scaled_time(0.0) == 0.0


class TestRadialAmplitude:
    def test_ground_value(self):
        p = qm.WavefunctionParams(a=0.0, b=0)
        assert qm.radial_amplitude(p, 1.0) == pytest.approx(math.exp(-0.5),
                                                            abs=1e-15)

    def test_first_order_value(self):
        p = qm.WavefunctionParams(a=1.0, b=0)
        assert qm.radial_amplitude(p, 4.0) == pytest.approx(
            4.0 * math.exp(-2.0), abs=1e-15)

    def test_vanishes_at_origin(self):
        for a in (0.0, 0.5, 2.0):
            p = qm.WavefunctionParams(a=a, b=2)
            assert 0.0 < abs(qm.radial_amplitude(p, 1e-8)) < 1e-3

    def test_domain(self):
        p = qm.WavefunctionParams(a=0.0, b=0)
        with pytest.raises(DomainError):
            qm.radial_amplitude(p, 0.0)
        with pytest.raises(DomainError):
            qm.radial_amplitude(p, -1.0)

    def test_second_derivative_against_finite_differences(self):
        h = 1e-4
        for a, b, R in [(0.0, 0, 1.0), (2.0, 3, 1.0), (1.5, 5, 7.0),
                        (0.5, 2, 0.3)]:
            p = qm.WavefunctionParams(a=a, b=b)
            _, a2 = qm._amplitude_with_d2(p, R)
            fd = (qm.radial_amplitude(p, R + h)
                  - 2.0 * qm.radial_amplitude(p, R)
                  + qm.radial_amplitude(p, R - h)) / h**2
            assert abs(a2 - fd) <= 1e-6 * max(1.0, abs(a2))


class TestModeResidual:
    def test_residual_grid(self):
        """Analytic-residual sweep over the full parameter box."""
        Rs = np.logspace(math.log10(0.01), math.log10(50.0), 50)
        for a in (0.0, 1.0, 2.0):
            for b in range(6):
                for hbar in (0.5, 1.0, 2.0):
                    p = qm.WavefunctionParams(a=a, b=b, hbar=hbar, L3=0.3)
                    worst = max(abs(qm.radial_mode_residual(p, float(R)))
                                for R in Rs)
                    assert worst <= 1e-12, (a, b, hbar, worst)

    def test_rotation_does_not_enter(self):
        # L3 cancels between m^2 and the explicit subtraction
        p0 = qm.WavefunctionParams(a=1.0, b=2, L3=0.0)
        p1 = qm.WavefunctionParams(a=1.0, b=2, L3=2.0)
        for R in (0.1, 1.0, 10.0):
            assert qm.radial_mode_residual(p0, R) == pytest.approx(
                qm.radial_mode_residual(p1, R), abs=1e-14)

    def test_wrong_coupling_fails(self):
        p = qm.WavefunctionParams(a=0.0, b=0, hbar=1.0)
        assert abs(qm.radial_mode_residual(p, 1.0, k=p.k * 1.1)) >= 1e-2

    def test_domain(self):
        p = qm.WavefunctionParams(a=0.0, b=0)
        with pytest.raises(DomainError):
            qm.radial_mode_residual(p, 0.0)
        with pytest.raises(DomainError, match="got -1.0"):
            qm.radial_mode_residual(p, np.array([0.5, -1.0, 2.0]))

    def test_suite_grid_matches_scalar_loop(self):
        a_values, hbar_values = [0.0, 1.0, 2.0], [0.5, 1.0, 2.0]
        for b in range(6):
            grid = mode_grid_worst(a_values, b, hbar_values, 0.3, RS)
            assert grid.shape == (3, 3)
            for (i, a), (j, hbar) in itertools.product(enumerate(a_values),
                                                       enumerate(hbar_values)):
                p = qm.WavefunctionParams(a=a, b=b, hbar=hbar, L3=0.3)
                scale = max(abs(A2) + abs(cA) for A2, cA in
                            (residual_terms_scalar(p, float(R)) for R in RS))
                assert abs(grid[i, j] - worst_residual_scalar(p, RS)) \
                    <= TERM_ULPS * scale, (a, b, hbar)

    @pytest.mark.parametrize("a,b,hbar,L3", [
        (1e300, 0, 1.0, 0.3), (0.0, 0, 1e-300, 0.3), (0.0, 0, 1.0, 1e300),
        (300.0, 1000, 0.5, 0.3), (0.0, 3, 1.0, 0.3)])
    def test_double_range_verdict_matches_scalar_loop(self, a, b, hbar, L3):
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            # next to a good mode, which keeps a finite value
            grid = mode_grid_worst([a, 1.0], b, [hbar, 1.0], L3, RS)
        assert np.isfinite(grid[0, 0]) == ((a, b, hbar, L3) == (0.0, 3, 1.0, 0.3))
        for (i, ai), (j, hj) in itertools.product(enumerate([a, 1.0]), enumerate([hbar, 1.0])):
            p = qm.WavefunctionParams(a=ai, b=b, hbar=hj, L3=L3)
            assert np.isfinite(grid[i, j]) == (worst_residual_scalar(p, RS) is not None)

    def test_mode_grid_validation(self):
        with pytest.raises(InvalidParameters, match="a must exceed -1"):
            qm.WavefunctionParams(a=np.array([0.0, -1.0]), b=0)
        with pytest.raises(InvalidParameters, match="hbar must be positive"):
            qm.WavefunctionParams(a=0.0, b=0, hbar=np.array([[1.0], [0.0]]))


@settings(max_examples=60, deadline=None)
@given(a=st.floats(-1.0, 4.0, exclude_min=True), b=st.integers(0, 30),
       hbar=st.floats(0.25, 4.0), L3=st.floats(0.0, 2.0))
def test_array_residual_matches_scalar_reference(a, b, hbar, L3):
    p = qm.WavefunctionParams(a=a, b=b, hbar=hbar, L3=L3)
    got = qm.radial_mode_residual(p, RS)
    assert got.shape == RS.shape
    for R, value in zip(RS, got):
        A2, cA = residual_terms_scalar(p, float(R))
        assert abs(value - (A2 + cA)) <= TERM_ULPS * (abs(A2) + abs(cA)), R


class TestWavefunction:
    def test_modulus_fixture(self):
        p = qm.WavefunctionParams(a=0.0, b=0, hbar=1.0)
        for theta, t in [(0.0, 0.0), (0.7, 2.0), (-1.3, 5.0)]:
            assert abs(abs(qm.wavefunction(p, 1.0, theta, t))
                       - math.exp(-0.5)) <= 1e-12

    def test_real_at_reference_time(self):
        # constant scale, theta = 0: every phase factor is 1 at t = t0
        p = qm.WavefunctionParams(a=0.0, b=0)
        z = qm.wavefunction(p, 1.0, 0.0, 0.0)
        assert z.imag == 0.0
        assert z.real == pytest.approx(math.exp(-0.5), abs=1e-15)

    def test_angular_periodicity(self):
        for a, L3 in [(2.0, 0.0), (1.0, 0.0), (0.0, 1.0)]:
            p = qm.WavefunctionParams(a=a, b=1, hbar=1.0, L3=L3)
            ratio = (qm.wavefunction(p, 1.3, 0.4 + 2.0 * math.pi, 0.5)
                     / qm.wavefunction(p, 1.3, 0.4, 0.5))
            assert abs(ratio - cmath.exp(2.0j * math.pi * p.m)) <= 1e-12

    def test_phase_assembly(self):
        phi = sf.sqrt(sf.poly(1, 0, 1))
        p = qm.WavefunctionParams(a=2.0, b=1, hbar=1.0, L3=0.0, phi=phi)
        r, theta, t = 1.3, 0.4, 1.0
        # phi'/phi = t/(1+t^2); T = arctan t
        want = (0.5 * (1.0 / 2.0) * r * r + math.atan(1.0) / 8.0
                + p.m * theta)
        z = qm.wavefunction(p, r, theta, t)
        got = cmath.phase(z / abs(z))
        lag = qm.laguerre(p.a, p.b, r / phi(t))
        if lag < 0:
            got += math.pi  # prefactor sign folds into the phase
        assert abs((got - want + math.pi) % (2.0 * math.pi) - math.pi) <= 1e-12

    def test_domain(self):
        p = qm.WavefunctionParams(a=0.0, b=0, phi=sf.poly(1, -1))
        with pytest.raises(DomainError):
            qm.wavefunction(p, 0.0, 0.0, 0.0)
        with pytest.raises(DomainError):
            qm.wavefunction(p, 1.0, 0.0, 2.0)

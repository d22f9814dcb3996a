"""Separable wave modes of the scale-deformed Coulomb potential.

The quadratic-invariant family with g1 = phi(t)^2/2 and an attractive 1/r
shape admits stationary modes in the stretched radius R = r/phi.  Their
radial amplitude A(R) = e^{-R/2} R^{(a+1)/2} L_b^{(a)}(R) solves a mode
equation whose coupling, separation constant, and angular index are tied
together by

    lam = -hbar^2/8,   k = (hbar^2/4)(2b + a + 1),   m^2 = a^2/4 + L3^2/hbar^2.

This module evaluates the generalized Laguerre recurrence, the amplitude and
its fully analytic second derivative, the mode-equation residual, and the
assembled complex wavefunction with its quadrature time phase
T(t) = int_{t0}^{t} phi^{-2} dtau.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from . import scalarfn as sf
from .errors import DomainError, InvalidParameters
from .scalarfn import ScalarFn, as_fn

__all__ = ["laguerre", "WavefunctionParams", "radial_amplitude",
           "radial_mode_residual", "wavefunction"]

MAX_NODES = 1000  # largest node count b: the recurrence costs b steps per radius


def laguerre(a, b: int, R):
    """Generalized Laguerre value L_b^{(a)}(R) by the three-term recurrence,
    at a float R or elementwise over ndarrays of a and R that broadcast.

    Valid for real order parameter a; b must be a nonnegative integer.
    """
    if b < 0 or float(b) != int(b):
        raise InvalidParameters("laguerre degree must be a nonnegative integer")
    b = int(b)
    if b == 0:
        shape = np.broadcast(a, R).shape
        return np.ones(shape) if shape else 1.0
    prev = 1.0
    cur = 1.0 + a - R
    for n in range(1, b):
        prev, cur = cur, ((2.0 * n + 1.0 + a - R) * cur
                          - (n + a) * prev) / (n + 1.0)
    return cur


def _laguerre_d1(a, b: int, R):
    # d/dR L_b^{(a)} = -L_{b-1}^{(a+1)}
    if b < 1:
        return 0.0
    return -laguerre(a + 1.0, b - 1, R)


def _laguerre_d2(a, b: int, R):
    if b < 2:
        return 0.0
    return laguerre(a + 2.0, b - 2, R)


def _check_stretched(R) -> None:
    if not np.all(np.greater(R, 0.0)):
        raise DomainError(
            f"stretched radius must be positive, got {float(np.min(R))!r}")


@dataclass(frozen=True)
class WavefunctionParams:
    """Mode parameters plus the scale profile phi(t).

    a is any real > -1 (keeps the amplitude regular at R = 0); b counts
    radial nodes, at most MAX_NODES.  The derived coupling k is what the
    matching potential preset must use, so classical and quantum checks
    share one constant.  a and hbar may also be ndarrays that broadcast
    against each other and against R: a grid of modes with one node count,
    whose constants and residuals `radial_mode_residual` evaluates in one
    pass; `m`, `scaled_time` and `wavefunction` take a single mode.
    """

    a: float
    b: int
    hbar: float = 1.0
    L3: float = 0.0
    phi: ScalarFn = 1.0
    t0: float = 0.0

    def __post_init__(self):
        if np.any(np.less_equal(self.a, -1.0)):
            raise InvalidParameters("order parameter a must exceed -1")
        if not 0 <= self.b <= MAX_NODES or float(self.b) != int(self.b):
            raise InvalidParameters(
                f"node count b must be an integer in [0, {MAX_NODES}]")
        if np.any(np.less_equal(self.hbar, 0.0)):
            raise InvalidParameters("hbar must be positive")
        object.__setattr__(self, "b", int(self.b))
        object.__setattr__(self, "phi", as_fn(self.phi))

    # built on first use: the radial checks never read the time dependence
    @functools.cached_property
    def _phi_d(self) -> ScalarFn:
        return self.phi.d()

    @functools.cached_property
    def _T(self) -> ScalarFn:
        return sf.antiderivative(sf.power(self.phi, -2), self.t0)

    @property
    def lam(self) -> float:
        return -0.125 * self.hbar * self.hbar

    @property
    def k(self) -> float:
        return 0.25 * self.hbar * self.hbar * (2.0 * self.b + self.a + 1.0)

    @property
    def m2(self) -> float:
        return 0.25 * self.a * self.a + (self.L3 / self.hbar) ** 2

    @property
    def m(self) -> float:
        # positive root; the sign only flips the rotation sense of the phase
        return math.sqrt(self.m2)

    @property
    def m_is_integer(self) -> bool:
        return abs(self.m - round(self.m)) <= 1e-12

    def scaled_time(self, t: float) -> float:
        """T(t) = int_{t0}^{t} phi^{-2} dtau from the shared Antiderivative."""
        return self._T(float(t))


def radial_amplitude(p: WavefunctionParams, R: float) -> float:
    """A(R) = e^{-R/2} R^{(a+1)/2} L_b^{(a)}(R) for R > 0."""
    _check_stretched(R)
    c = 0.5 * (p.a + 1.0)
    return math.exp(-0.5 * R) * R**c * laguerre(p.a, p.b, R)


def _amplitude_with_d2(p: WavefunctionParams, R) -> tuple:
    """(A, A'') at a float R or an ndarray of R (over every mode of p), with
    both Laguerre derivatives taken analytically."""
    c = 0.5 * (p.a + 1.0)
    L = laguerre(p.a, p.b, R)
    L1 = _laguerre_d1(p.a, p.b, R)
    L2 = _laguerre_d2(p.a, p.b, R)
    pref = np.exp(-0.5 * R) * R**c
    # A' = pref * M with M = L' + (c/R - 1/2) L; differentiate once more
    g = c / R - 0.5
    M = L1 + g * L
    Mp = L2 + g * L1 - (c / (R * R)) * L
    return pref * L, pref * (Mp + g * M)


def radial_mode_residual(p: WavefunctionParams, R, k: float | None = None):
    """Residual of A'' + (2 lam/hbar^2 + 2k/(hbar^2 R) - (m^2 - 1/4
    - L3^2/hbar^2)/R^2) A at a float R, or elementwise over an ndarray of R
    and every mode of p.

    Passing k overrides the derived coupling; useful as a negative control.
    """
    _check_stretched(R)
    A, A2 = _amplitude_with_d2(p, R)
    kk = p.k if k is None else float(k)
    h2 = p.hbar * p.hbar
    coef = (2.0 * p.lam / h2 + 2.0 * kk / (h2 * R)
            - (p.m2 - 0.25 - (p.L3 / p.hbar) ** 2) / (R * R))
    return A2 + coef * A


def wavefunction(p: WavefunctionParams, r: float, theta: float,
                 t: float) -> complex:
    """Complex mode value at (r, theta, t).

    psi = |phi|^{-1/2} e^{(i/2 hbar)(phi'/phi) r^2} e^{i hbar T/8}
          e^{i m theta} (phi/r)^{1/2} e^{-R/2} R^{(a+1)/2} L_b^{(a)}(R)
    with R = r/phi(t); the modulus is |A(R)/sqrt(R)| up to the phi^{-1/2}
    normalization.
    """
    if r <= 0.0:
        raise DomainError(f"radius must be positive, got {r!r}")
    pv = p.phi(t)
    if pv <= 0.0:
        raise DomainError(f"scale profile must be positive, got {pv!r}")
    pd = p._phi_d(t)
    R = r / pv
    prefactor = (abs(pv) ** -0.5 * pv**0.5 * r**-0.5
                 * math.exp(-0.5 * R) * R ** (0.5 * (p.a + 1.0))
                 * laguerre(p.a, p.b, R))
    phase = (0.5 / p.hbar * (pd / pv) * r * r
             + 0.125 * p.hbar * p.scaled_time(t)
             + p.m * theta)
    return prefactor * complex(math.cos(phase), math.sin(phase))

"""First-integral evaluators on the extended phase space.

Each family carries a conserved quantity along its own dynamics, its `fi`
method (`first_integral(fam)` binds it):

    FamilyA:      I = g2 rdot - g2' r + g
    FamilyB:      I = g1 rdot^2 + (g2 - g1' r) rdot + F(s) + (g1' r - g2)^2/(4 g1)
    LewisLeach1d: I = [rho(qdot - alpha') - rho'(q - alpha)]^2/2
                      + (k/2) w^2 + G(w),  w = (q - alpha)/rho

Evaluated here from explicit profiles:

    power-law:  J = G [ (rdot^2 + r^2 thdot^2)/2 - omega/r^nu ]
                    - (G'/2) r rdot + (b2/2) r^2,  G = b0 + b1 t + b2 t^2
    scale-oscillator: I = (phi rdot - phi' r)^2/2 + r^2 phi^2 thdot^2/2
                    + K r^2/(2 phi^2)

plus the angular momentum L3 = r^2 thdot and the reduced energy
rdot^2/2 + U(t,r).  j_nu and scale_oscillator take thetadot explicitly;
j_nu_integral binds L3 and evaluates j_nu at thetadot = L3/r^2.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from .errors import DomainError
from .potentials import _CentralFamily, omega_profile
from .scalarfn import as_fn

__all__ = [
    "j_nu", "scale_oscillator", "angular_momentum",
    "reduced_energy", "FirstIntegral", "first_integral",
    "j_nu_integral", "reduced_energy_integral",
]


def j_nu(nu: float, k: float, b0: float, b1: float, b2: float,
         t, r, rdot, thetadot):
    """Power-law-family invariant."""
    G = b0 + b1 * t + b2 * t * t
    omega = omega_profile(nu, k, b0, b1, b2)(t)
    return (G * (0.5 * (rdot * rdot + r * r * thetadot * thetadot)
                 - omega * r ** (-float(nu)))
            - 0.5 * (b1 + 2.0 * b2 * t) * r * rdot + 0.5 * b2 * r * r)


def scale_oscillator(phi, K: float, t, r, rdot, thetadot):
    """Oscillator invariant built from a scale profile."""
    phi = as_fn(phi)
    pv = phi(t)
    if (pv == 0.0) if isinstance(pv, float) else bool((pv == 0.0).any()):
        raise DomainError("scale profile vanishes at the requested time")
    pd = phi.d()(t)
    return (0.5 * (pv * rdot - pd * r) ** 2
            + 0.5 * r * r * pv * pv * thetadot * thetadot
            + 0.5 * K * r * r / (pv * pv))


def angular_momentum(r, thetadot):
    """L3 = r^2 thetadot."""
    return r * r * thetadot


def reduced_energy(fam, t, r, rdot):
    """rdot^2/2 + U(t,r); conserved only for autonomous instances."""
    return 0.5 * rdot * rdot + fam.U(t, r)


@dataclass(frozen=True)
class FirstIntegral:
    """A bound, pure evaluator of (t, r, rdot)."""

    kind: str
    label: str
    fn: Callable

    def __call__(self, *state):
        return self.fn(*state)


def first_integral(fam) -> FirstIntegral:
    """The invariant that the family's own dynamics conserves.

    A wrapper that forwards to a base family (the PerturbedPotential
    control) gets the base family's invariant, evaluated along its own
    dynamics.
    """
    if not isinstance(fam, _CentralFamily):
        raise TypeError(f"no first integral known for {type(fam).__name__}")
    return FirstIntegral(fam.kind, fam.label, fam.fi)


def j_nu_integral(nu, k, b0, b1, b2, L3) -> FirstIntegral:
    return FirstIntegral(
        "power-law-invariant", f"j_nu(nu={nu})",
        lambda t, r, rd: j_nu(nu, k, b0, b1, b2, t, r, rd, L3 / r**2))


def reduced_energy_integral(fam) -> FirstIntegral:
    return FirstIntegral("reduced-energy", fam.label,
                         lambda t, r, rd: reduced_energy(fam, t, r, rd))

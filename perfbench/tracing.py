"""Outside-in layer tracing of tdcentral's public entry points.

``Tracer.install()`` replaces each traced function or method with a
wrapper that aggregates, per layer, the number of calls, the inclusive
(busy) time of the outermost call and the self time (duration minus the
time of traced calls nested inside it).  ``uninstall()`` puts every
original back.  Nothing in ``src/`` is edited, and no per-call span is
kept, so memory stays bounded however many ``ScalarFn`` calls an op makes.

Exact work counters ride on the same wrappers:

- ``scalarfn.eval.scalar_calls`` / ``.array_calls``: ``ScalarFn.__call__``
  on a number / on anything else (an ndarray);
- ``scalarfn.integrate.integrand_evals``: ``ScalarFn`` calls made directly
  by ``scalarfn.integrate`` (two per panel, so two per call means no
  bisection);
- ``verify.samples``: sampling-plan counts of the residual/Noether sweeps;
- ``dynamics.rhs_evals``: family ``dU_dr`` calls made directly by the
  integrator's right-hand side inside ``dynamics.integrate``;
- ``dynamics.samples``: samples in the returned trajectories.
"""

from __future__ import annotations

import functools
import time

import numpy as np

LAYERS = (
    "scalarfn.eval", "scalarfn.integrate", "scalarfn.antiderivative",
    "verify.pde_residuals", "verify.noether_check", "verify.other",
    "potentials.partials", "potentials.preset",
    "dynamics.integrate", "dynamics.drift_report", "dynamics.write_csv",
    "integrals.fi", "quantum", "cli.main",
)
COUNTERS = (
    "scalarfn.eval.scalar_calls", "scalarfn.eval.array_calls",
    "scalarfn.integrate.integrand_evals", "verify.samples",
    "dynamics.rhs_evals", "dynamics.samples",
)

_PARTIALS = ("U", "dU_dr", "d2U_dr2", "d2U_dtdr", "V", "dV_dr", "d2V_dr2",
             "d2V_dtdr", "K", "dK_dr", "dK_dt")
_VERIFY_OTHER = ("rescaled_shape_recovery", "closed_form_r",
                 "closed_form_theta", "orbit_angle_check",
                 "lewis_leach_report")


class Stats:
    """Per-layer [calls, busy_s, self_s] plus named counters."""

    def __init__(self):
        self.layers = {name: [0, 0.0, 0.0] for name in LAYERS}
        self.counters = dict.fromkeys(COUNTERS, 0)

    def add(self, other: "Stats") -> None:
        for name, rec in other.layers.items():
            mine = self.layers[name]
            for i in range(3):
                mine[i] += rec[i]
        for name, value in other.counters.items():
            self.counters[name] += value


class Tracer:
    """Installs aggregating wrappers on tdcentral's layer entry points."""

    def __init__(self, tdcentral_modules: dict):
        self._mods = tdcentral_modules
        self._saved = []        # (owner, attribute, original) in patch order
        self._stack = []        # [layer, nested traced time] per open call
        self._depth = dict.fromkeys(LAYERS, 0)
        self.stats = Stats()

    # -- lifecycle ------------------------------------------------------------

    def install(self) -> None:
        if self._saved:
            raise RuntimeError("tracer already installed")
        m = self._mods
        sf, pot, vf = m["scalarfn"], m["potentials"], m["verify"]
        dyn, fi, qm, cli = m["dynamics"], m["integrals"], m["quantum"], m["cli"]

        self._span(sf.ScalarFn, "__call__", "scalarfn.eval", eval_counts=True)
        self._span(sf.Antiderivative, "_eval", "scalarfn.antiderivative")
        self._span(sf, "integrate", "scalarfn.integrate")

        def plan_samples(args, kwargs, result):
            plan = result.plan
            self.stats.counters["verify.samples"] += plan.count if plan else 0
        self._span(vf, "pde_residuals", "verify.pde_residuals", plan_samples)
        self._span(vf, "noether_check", "verify.noether_check", plan_samples)
        for name in _VERIFY_OTHER:
            self._span(vf, name, "verify.other")

        families = (pot.FamilyA, pot.FamilyB, pot.LewisLeach1d,
                    vf.PerturbedPotential, vf.MismatchedShapeFamily)
        for method in _PARTIALS:
            for cls in families:
                for owner in cls.__mro__:
                    if method in owner.__dict__:
                        self._span(owner, method, "potentials.partials",
                                   rhs=method == "dU_dr")
                        break
        self._span(pot, "preset", "potentials.preset")
        for cls in (pot.FamilyA, pot.FamilyB, pot.LewisLeach1d):
            self._span(cls, "__init__", "potentials.preset")

        def traj_samples(args, kwargs, result):
            self.stats.counters["dynamics.samples"] += len(result)
        self._span(dyn, "integrate", "dynamics.integrate", traj_samples)
        self._span(dyn, "drift_report", "dynamics.drift_report")
        self._span(dyn, "write_csv", "dynamics.write_csv")
        self._span(fi.FirstIntegral, "__call__", "integrals.fi")
        for name in qm.__all__:
            if not isinstance(getattr(qm, name), type):
                self._span(qm, name, "quantum")
        self._span(cli, "main", "cli.main")

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def take(self) -> Stats:
        """Statistics gathered since the last take; starts a fresh record."""
        out, self.stats = self.stats, Stats()
        return out

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()

    @property
    def patched(self) -> list:
        return [(owner, attr) for owner, attr, _ in self._saved]

    # -- wrappers -------------------------------------------------------------

    def _span(self, owner, attr, layer, on_exit=None, rhs=False,
              eval_counts=False):
        """Wrap owner.attr (once; a method shared through a base class is
        reached from several families) and remember the original."""
        if any(o is owner and a == attr for o, a, _ in self._saved):
            return
        original = owner.__dict__[attr] if isinstance(owner, type) \
            else getattr(owner, attr)
        self._saved.append((owner, attr, original))
        wrapper = self._span_wrapper(original, layer, on_exit, rhs, eval_counts)
        setattr(owner, attr, functools.wraps(original)(wrapper))

    def _span_wrapper(self, fn, layer, on_exit, rhs, eval_counts):
        stack, depth, clock = self._stack, self._depth, time.perf_counter
        number = (int, float, np.integer, np.floating)
        tracer = self

        def wrapper(*args, **kwargs):
            stats = tracer.stats
            caller = stack[-1][0] if stack else None
            if eval_counts:
                # ScalarFn.__call__(node, t): count by argument kind
                t = args[1]
                scalar = isinstance(t, number) and not isinstance(t, bool)
                stats.counters["scalarfn.eval.scalar_calls" if scalar
                               else "scalarfn.eval.array_calls"] += 1
                if caller == "scalarfn.integrate":
                    stats.counters["scalarfn.integrate.integrand_evals"] += 1
            elif rhs and caller == "dynamics.integrate":
                stats.counters["dynamics.rhs_evals"] += 1
            frame = [layer, 0.0]
            stack.append(frame)
            depth[layer] += 1
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                stack.pop()
                depth[layer] -= 1
                rec = stats.layers[layer]
                rec[0] += 1
                if not depth[layer]:
                    rec[1] += elapsed
                rec[2] += elapsed - frame[1]
                if stack:
                    stack[-1][1] += elapsed
            if on_exit is not None:
                on_exit(args, kwargs, result)
            return result
        return wrapper

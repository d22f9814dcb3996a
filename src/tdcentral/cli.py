"""Command-line front end: presets, simulation, verification suites, wave
modes, and the constant-mass two-body sanity run.

Every subcommand prints a JSON payload (list-presets prints text unless
--json) and exits 0 on success, 1 when a verification tolerance is missed,
and 2 on usage or configuration errors.  Identical config and seed produce
byte-identical output; all floats are serialized through repr.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import functools
import inspect
import itertools
import json
import math
import sys
from pathlib import Path

import numpy as np

from . import dynamics as dyn
from . import integrals as fi
from . import potentials as pot
from . import quantum as qm
from . import scalarfn as sf
from . import verify as vf
from .errors import (ConfigError, DomainError, InvalidParameters, ParseError,
                     StepLimitExceeded, ToleranceNotMet)

__all__ = ["main", "build_parser"]

_MISSING = object()
_FLOAT_MAX = sys.float_info.max  # a JSON number beyond it (or NaN) is not finite


@contextlib.contextmanager
def _keyed(prefix: str, faults, suffix: str = ""):
    """Raise a fault of kind `faults` in the block as the ConfigError whose
    text is prefix, the fault's text and suffix."""
    try:
        yield
    except faults as e:
        raise ConfigError(f"{prefix}{_fault_text(e)}{suffix}") from e


def _load_config(path: str) -> dict:
    with (_keyed(f"cannot read config {path!r}: ", OSError),
          open(path, "r", encoding="utf-8") as fh,
          _keyed(f"config {path!r} is not valid JSON: ", json.JSONDecodeError)):
        cfg = json.load(fh)
    if not isinstance(cfg, dict):
        raise ConfigError(f"config {path!r} must be a JSON object")
    return cfg


def _get(node: dict, key: str, kind, default=_MISSING, where: str = "config"):
    """Typed lookup that names the offending key on failure."""
    if key not in node:
        if default is _MISSING:
            raise ConfigError(f"{where}: missing required key {key!r}")
        return default
    value = node[key]
    if kind is float and isinstance(value, (int, float)) \
            and not isinstance(value, bool):
        if not abs(value) <= _FLOAT_MAX:
            raise ConfigError(f"{where}: key {key!r} must be a finite number")
        return float(value)
    if kind is int and isinstance(value, int) and not isinstance(value, bool):
        return value
    if not isinstance(value, kind) or isinstance(value, bool) and kind is not bool:
        raise ConfigError(f"{where}: key {key!r} has the wrong type")
    return value


def _numbers(raw: list, count: int) -> bool:
    """Whether raw holds exactly `count` finite numbers (bools excluded)."""
    return len(raw) == count and all(
        isinstance(v, (int, float)) and not isinstance(v, bool)
        and abs(v) <= _FLOAT_MAX for v in raw)


def _scalar(node: dict, key: str, where: str):
    """A scalar function given as an expression string or a bare number."""
    value = _get(node, key, object, where=where)
    if isinstance(value, str):  # a parse fault, or a constant folded outside its domain
        with _keyed(f"{where}: key {key!r}: ", _FAULTS):
            return sf.parse(value)
    if isinstance(value, (int, float)) and not isinstance(value, bool):
        return sf.as_fn(_get(node, key, float, where=where))
    raise ConfigError(f"{where}: key {key!r} must be a number or expression text")


def _only(node: dict, keys, where: str) -> None:
    """Reject the first key of node that is not one of `keys`, naming it."""
    extra = set(node) - set(keys)
    if extra:
        raise ConfigError(f"{where}: unknown key {sorted(extra)[0]!r}")


@functools.cache
def _params(cls) -> tuple:
    """The config keys of the class cls: (name, kind, has a default) of each
    parameter of its signature, in order; `label` is never a key."""
    return tuple((name, p.annotation, p.default is not p.empty)
                 for name, p in inspect.signature(cls, eval_str=True).parameters.items()
                 if name != "label")


def _read(node: dict, key: str, kind, where: str):
    """The value of a present or required key by its parameter's kind: a
    float or int number, a tuple as [lo, hi], any other kind a scalar."""
    if kind in (float, int):
        return _get(node, key, kind, where=where)
    if kind is tuple:
        raw = _get(node, key, list, where=where)
        if not _numbers(raw, 2):
            raise ConfigError(f"{where}: key {key!r} must be [lo, hi]")
        return float(raw[0]) + 0.0, float(raw[1]) + 0.0  # numpy refuses [0.0, -0.0]
    return _scalar(node, key, where=where)


def _fields(node, cls, where: str, extra=(), **defaults) -> dict:
    """The keyword arguments of cls that config object `node` gives; its keys
    are the parameters of cls and `extra`.  An absent key takes its entry in
    `defaults`, else the default of cls; with neither it is required."""
    if not isinstance(node, dict):
        raise ConfigError(f"{where}: must be an object")
    params = _params(cls)
    _only(node, (*(key for key, _, _ in params), *extra), where)
    fields = {}
    for key, kind, optional in params:
        if key in node or not (optional or key in defaults):
            fields[key] = _read(node, key, kind, where)
        elif key in defaults:
            fields[key] = defaults[key]
    return fields


# inline kinds: the class each builds, its keys the parameters of the class
_KINDS = {"linear": pot.FamilyA, "quadratic": pot.FamilyB, "driven-1d": pot.LewisLeach1d}


def _family_from(node, span, where: str = "config.family"):
    """The family a config node describes, its defining profile checked on
    the closed time span (a pair, in either order) that the command uses."""
    if not isinstance(node, dict):
        raise ConfigError(f"{where}: must be an object")
    if "preset" in node:
        _only(node, ("preset", "params", "perturb"), where)
        name = _get(node, "preset", str, where=where)
        if name not in dict(pot.catalog()):
            raise ConfigError(f"{where}: key 'preset': unknown preset {name!r}")
        given = _get(node, "params", dict, {}, where)
        build = lambda kw: pot.preset(name, **kw).family
    else:
        kind = _get(node, "kind", str, where=where)
        if kind not in _KINDS:
            raise ConfigError(f"{where}: key 'kind': unknown kind {kind!r}")
        given = _fields(node, _KINDS[kind], where, ("kind", "perturb"))
        build = lambda kw: _KINDS[kind](**kw)
    try:
        fam = build(given)
        fam.check_span(*span)
    except _FAULTS as e:  # name the key at fault unless the message does
        named = any(repr(key) in str(e) for key in given)
        raise ConfigError(f"{where}: {'' if named else _culprit(build, given, span)}"
                          f"{_fault_text(e)}") from e
    # deliberate cubic defect for negative-control runs
    if "perturb" in node:
        fam = vf.PerturbedPotential(fam, _get(node, "perturb", float,
                                              where=where))
    return fam


# a family's bad values; RecursionError: an expression nested too deeply to parse or build;
# ArithmeticError: say a constant folded beyond the double range while the family is built
_FAULTS = (InvalidParameters, DomainError, ParseError, TypeError, RecursionError,
           ArithmeticError)


def _fault_text(e: Exception) -> str:
    if isinstance(e, RecursionError):
        return "expression nested too deeply"
    return "a constant beyond the double range" if isinstance(e, OverflowError) else str(e)


def _culprit(build, given: dict, span) -> str:
    """The first given key that fails alone, the others set to 1, else all of
    them; none when 1 everywhere fails too (an unknown parameter, say)."""
    def fails(kw):
        try:
            build(kw).check_span(*span)
        except _FAULTS:
            return True
        return False
    ones = dict.fromkeys(given, 1.0)
    if fails(ones):
        return ""
    key = next((k for k in given if fails({**ones, k: given[k]})), None)
    return f"key {key!r}: " if key else f"keys {', '.join(map(repr, given))}: "


def _state_from(node, where: str = "config.initial") -> dyn.PolarState:
    return dyn.PolarState(**_fields(node, dyn.PolarState, where, t=0.0))


def _start(fam, s0: dyn.PolarState, where: str) -> None:
    """Refuse, naming its keys, a start the family refuses: r <= 0 of a radial
    family (a 1d coordinate takes either sign), or outside its force's domain."""
    if fam.radial and s0.r <= 0.0:
        raise ConfigError(f"{where}: key 'r' must be positive")
    with _keyed(f"{where}: keys 't', 'r': ", DomainError):
        fam.dU_dr(s0.t, s0.r)


def _horizon(t0: float, t_end: float, icfg, keys: str) -> None:
    """Reject, naming `keys` (the keys the span comes from), a span that
    dynamics.check_horizon refuses, and one that max_steps steps of at most
    h_max cannot cover."""
    icfg = icfg or dyn.IntegratorConfig()
    with _keyed(f"{keys}: ", ValueError):
        dyn.check_horizon(t0, t_end, icfg.stride)
    if abs(t_end - t0) / icfg.h_max > icfg.max_steps:
        raise ConfigError(f"config.integrator: keys 'h_max', 'max_steps': {icfg.max_steps} steps "
                          f"of at most {icfg.h_max!r} cannot cover t = {t0!r} to {t_end!r}")


def _integrator_from(node, where: str = "config.integrator"):
    if node is None:
        return None
    fields = _fields(node, dyn.IntegratorConfig, where)
    with _keyed(f"{where}: ", ValueError):
        return dyn.IntegratorConfig(**fields)


def _plan_from(node, seed, where: str = "config.plan") -> vf.SamplingPlan:
    fields = _fields({} if node is None else node, vf.SamplingPlan, where,
                     count=1000, seed=seed)
    if not 1 <= fields["count"] <= dyn.MAX_SAMPLES:
        raise ConfigError(f"{where}: key 'count' must be in [1, {dyn.MAX_SAMPLES}]")
    if fields["seed"] < 0:
        raise ConfigError(f"{where}: key 'seed' must be non-negative")
    with _keyed(f"{where}: ", ValueError):
        return vf.SamplingPlan(**fields)


def _emit(args, filename: str, text: str, to_stdout: bool = True) -> None:
    if to_stdout:
        sys.stdout.write(text)
    if args.out:
        outdir = Path(args.out)
        outdir.mkdir(parents=True, exist_ok=True)
        (outdir / filename).write_text(text, encoding="utf-8")


# default fixtures for bare `verify` runs; every one is also reachable
# through a config file, and identical inputs reproduce identical bytes

def _default_family():
    shape = sf.add(sf.power(sf.T, 2), sf.mul(2.0, sf.power(sf.T, -2)))
    return pot.FamilyB(sf.poly(1, 0, 0.25), sf.poly(0.3, 0.1), shape, L3=0.7,
                       label="cross-profile")


def _default_rescaling_cases():
    return [{"phi": "1", "shape": "0", "L3": 0.0},
            {"phi": "(sqrt (poly 1 0 1))", "shape": "(pow t 2)", "L3": 1.0},
            {"phi": "(poly 1 0 1)", "shape": "(pow t -1 0 inf)", "L3": 2.0}]


def _default_orbit_cases():
    initial = {"t": 0.0, "r": 1.2, "rdot": 0.2, "theta": 0.1}
    return [{"name": "static-scale", "phi": "1", "k": 1.0, "L3": 0.5,
             "initial": initial, "t_end": 1.5, "tolerance": vf._ORBIT_TOL},
            {"name": "growing-scale", "phi": "(sqrt (poly 1 0 1))", "k": 1.0,
             "L3": 0.5, "initial": initial, "t_end": 6.0, "tolerance": vf._ORBIT_TOL}]


def _default_driven_1d():
    return {"system": {"kind": "driven-1d", "rho": "(sqrt (poly 1 0 1))",
                       "alpha": "(poly 0 0.1)", "Omega": "(pow (poly 1 0 1) -1)",
                       "F1": "(* 0.1 t (pow (poly 1 0 1) -2))",
                       "G": "(pow t 4)", "k": 2.0},
            "initial": {"t": 0.0, "r": 1.5, "rdot": 0.2},
            "t_end": 5.0}


def _sweep_inputs(cfg, seed):
    """The family and plan that the verify sweeps share, and the keys of the
    integral in the family's shape argument: (1/2) int_{t0}^{t} g1^-3/2 g2
    over t in t_range.  The sweeps read the profiles g1 and g2 of a linear
    or quadratic family."""
    plan = _plan_from(cfg.get("plan"), seed)
    keys = "config.plan: key 't_range'"
    if "family" not in cfg:
        return _default_family(), plan, keys
    fam = _family_from(cfg["family"], plan.t_range)
    if fam.kind not in (pot.FamilyA.kind, pot.FamilyB.kind):
        key = "preset" if "preset" in cfg["family"] else "kind"
        raise ConfigError(f"config.family: key {key!r}: the pde and noether sweeps need a "
                          f"linear or quadratic family, not {cfg['family'][key]!r}")
    return fam, plan, f"{keys}, config.family: keys 'g1', 'g2', 't0'"


def _sweep(check, fam, plan, keys):
    """The verify sweep `check` on fam and plan; a shape argument whose
    profile integral cannot be filled on t_range names `keys`."""
    with _keyed(f"{keys}: ", ToleranceNotMet), np.errstate(all="ignore"):
        return check(fam, plan)  # an inf or nan residual fails its check


def _section(cfg: dict, name: str, keys) -> dict:
    """A suite's config section: an object, empty when absent, with no key
    outside `keys`."""
    node = cfg.get(name, {})
    if not isinstance(node, dict):
        raise ConfigError(f"config.{name}: must be an object")
    _only(node, keys, f"config.{name}")
    return node


def _cases(cfg: dict, section: str, default: list, keys) -> list:
    """The `cases` list of a suite's config section; each case an object
    with no key outside `keys`."""
    where = f"config.{section}"
    cases = _get(_section(cfg, section, ("cases",)), "cases", list, default, where)
    for i, case in enumerate(cases):
        if not isinstance(case, dict):
            raise ConfigError(f"{where}.cases[{i}]: must be an object")
        _only(case, keys, f"{where}.cases[{i}]")
    return cases


def _suite_rescaling(cfg, seed):
    cases = _cases(cfg, "rescaling", _default_rescaling_cases(),
                   ("phi", "shape", "L3"))
    checks = {}
    for i, case in enumerate(cases, start=1):
        where = f"config.rescaling.cases[{i - 1}]"
        with _keyed(f"{where}: key 'phi': ", InvalidParameters):
            diff = vf.rescaled_shape_recovery(_scalar(case, "phi", where=where),
                                              _scalar(case, "shape", where=where),
                                              _get(case, "L3", float, 0.0, where))
        checks[f"rescaling-{i}"] = vf.check(diff, vf._RESCALING_TOL)
    return vf.VerificationReport(checks)


def _suite_closed_form(cfg, seed):
    fam = pot.FamilyA(sf.poly(1, 0, 0.1), sf.mul(0.2, sf.T), L3=0.8,
                      label="linear-fixture")
    s0 = dyn.PolarState(0.0, 2.0, 0.1)
    traj = dyn.integrate(fam, s0, 5.0)
    I0 = fam.fi(s0.t, s0.r, s0.rdot)
    c0 = s0.r / fam.g2(s0.t)
    radius_dev = vf.closed_form_r(fam, I0, c0, traj.t[::10]) - traj.r[::10]
    kc = pot.preset("generalized-kepler", nu=1.0, k=1.0, b0=1.0, L3=1.0).family
    ecc = dyn.integrate(kc, dyn.PolarState(0.0, 1.4, 0.0, 0.2), 6.0)
    return vf.VerificationReport({
        "radius-form": vf.check(radius_dev, vf._RADIUS_FORM_TOL),
        "angle-form": vf.check(vf.closed_form_theta(ecc, 1.0), vf._ANGLE_FORM_TOL),
    })


def _suite_ermakov(cfg, seed):
    spec = {**_default_driven_1d(),
            **_section(cfg, "ermakov", ("system", "initial", "t_end"))}
    where = "config.ermakov"
    s0 = _state_from(spec["initial"], where + ".initial")
    t_end = _get(spec, "t_end", float, where=where)
    _horizon(s0.t, t_end, None, f"{where}: key 't_end', {where}.initial: key 't'")
    fam = _family_from(spec["system"], (s0.t, t_end), where + ".system")
    if not isinstance(fam, pot.LewisLeach1d):
        raise ConfigError(f"{where}.system: must have kind 'driven-1d' and no key 'perturb'")
    _start(fam, s0, where + ".initial")
    return vf.lewis_leach_report(fam, s0, t_end)


def _suite_orbit(cfg, seed):
    cases = _cases(cfg, "orbit", _default_orbit_cases(),
                   ("name", "phi", "k", "L3", "initial", "t_end", "tolerance"))
    checks = {}
    for i, case in enumerate(cases, start=1):
        where = f"config.orbit.cases[{i - 1}]"
        name = _get(case, "name", str, f"case-{i}", where)
        if f"orbit-{name}" in checks:
            raise ConfigError(f"{where}: key 'name': {name!r} names an earlier case")
        phi = _scalar(case, "phi", where=where)
        k = _get(case, "k", float, 1.0, where)
        if k == 0.0:
            raise ConfigError(f"{where}: key 'k' must be nonzero")
        L3 = _get(case, "L3", float, 0.0, where)
        s0 = _state_from(case.get("initial", {}), where + ".initial")
        t_end = _get(case, "t_end", float, where=where)
        _horizon(s0.t, t_end, None, f"{where}: key 't_end', {where}.initial: key 't'")
        fam = _family_from({"preset": "scaled-kepler", "params": {"phi": phi, "k": k, "L3": L3}},
                           (s0.t, t_end), where)
        _start(fam, s0, where + ".initial")
        traj = dyn.integrate(fam, s0, t_end)
        tol = _get(case, "tolerance", float, vf._ORBIT_TOL, where)
        dev = vf.orbit_angle_check(phi, k, L3, traj)
        if traj.termination != "completed":  # stopped short of t_end: the case fails
            dev = math.nan
        checks[f"orbit-{name}"] = vf.check(dev, tol)
    return vf.VerificationReport(checks)


def _suite_radial_mode(cfg, seed):
    spec = _section(cfg, "radial-mode", ("a_values", "b_values", "hbar_values", "L3"))
    where = "config.radial-mode"
    def values(key, field, default):
        raw = _get(spec, key, list, default, where)
        if not _numbers(raw, len(raw)):
            raise ConfigError(f"{where}: key {key!r} must be a list of numbers")
        with _keyed(f"{where}: key {key!r}: ", InvalidParameters):
            for value in raw:
                qm.WavefunctionParams(**{"a": 0.0, "b": 0, field: value})
        return raw
    a_values = values("a_values", "a", [0.0, 1.0, 2.0])
    b_values = values("b_values", "b", list(range(6)))
    hbar_values = values("hbar_values", "hbar", [0.5, 1.0, 2.0])
    L3 = _get(spec, "L3", float, 0.3, where)
    Rs = np.logspace(math.log10(0.01), math.log10(50.0), 50)
    if len(a_values) * len(b_values) * len(hbar_values) * len(Rs) > dyn.MAX_SAMPLES:
        raise ConfigError(f"{where}: keys 'a_values', 'b_values', 'hbar_values': "
                          f"more than {dyn.MAX_SAMPLES} samples at {len(Rs)} radii per mode")

    def worst(a_list, b, hbar_list):
        """Largest |mode residual| over Rs of each (a, hbar) pair at node count
        b, from one array pass; inf or nan where the mode leaves the double range."""
        p = qm.WavefunctionParams(a=np.array(a_list, dtype=float)[:, None, None], b=b,
                                  hbar=np.array(hbar_list, dtype=float)[:, None], L3=L3)
        with np.errstate(all="ignore"):
            return np.max(np.abs(qm.radial_mode_residual(p, Rs)), axis=-1)

    by_b = {b: worst(a_values, b, hbar_values) for b in b_values}
    for (i, a), b, (j, hbar) in itertools.product(enumerate(a_values), b_values,
                                                  enumerate(hbar_values)):
        w = float(by_b[b][i, j])
        if not math.isfinite(w):  # name the first key whose value fails on its own
            alone = {"L3": ([0.0], 0, [1.0]), "a_values": ([a], 0, [1.0]),
                     "b_values": ([0.0], b, [1.0]), "hbar_values": ([0.0], 0, [hbar])}
            keys = [k for k, mode in alone.items() if not np.isfinite(worst(*mode)).all()][:1]
            raise ConfigError(
                f"{where}: key {', '.join(map(repr, keys or list(alone)[1:]))}: "
                f"the mode a={a!r}, b={b!r}, hbar={hbar!r} with L3={L3!r} "
                f"leaves the double-precision range")
    ground = qm.WavefunctionParams(a=0.0, b=0, hbar=1.0)
    mod_dev = abs(abs(qm.wavefunction(ground, 1.0, 0.4, 0.7))
                  - math.exp(-0.5))
    return vf.VerificationReport({
        "mode-residual": vf.check(list(by_b.values()), vf._MODE_RESIDUAL_TOL),
        "mode-modulus": vf.check(mod_dev, vf._MODE_MODULUS_TOL),
    })


# the sweeps share one family and plan per run; each looks its check up by name when it runs
_SWEEPS = {"pde": lambda fam, plan: vf.pde_residuals(fam, plan),
           "noether": lambda fam, plan: vf.noether_check(fam, plan)}
_SUITES = {
    "rescaling": _suite_rescaling,
    "closed-form": _suite_closed_form,
    "ermakov": _suite_ermakov,
    "orbit": _suite_orbit,
    "radial-mode": _suite_radial_mode,
}


def cmd_list_presets(args) -> int:
    entries = pot.catalog()
    if args.json:
        payload = {"presets": [{"name": n, "description": d}
                               for n, d in entries]}
        _emit(args, "presets.json", vf.dumps(payload) + "\n")
    else:
        lines = "".join(f"{name}: {desc}\n" for name, desc in entries)
        _emit(args, "presets.txt", lines)
    return 0


def cmd_simulate(args) -> int:
    if not args.config:
        raise ConfigError("simulate requires --config")
    cfg = _load_config(args.config)
    _only(cfg, ("family", "initial", "t_end", "integrator", "drift_tolerance"),
          "config")
    s0 = _state_from(_get(cfg, "initial", dict))
    t_end = _get(cfg, "t_end", float)
    icfg = _integrator_from(cfg.get("integrator"))
    _horizon(s0.t, t_end, icfg, "config: key 't_end', config.initial: key 't', "
                                "config.integrator: key 'stride'")
    fam = _family_from(_get(cfg, "family", dict), (s0.t, t_end))
    _start(fam, s0, "config.initial")
    tol = _get(cfg, "drift_tolerance", float, vf._DRIFT_TOL)
    traj = dyn.integrate(fam, s0, t_end, icfg)
    invariant = fi.first_integral(fam)
    drift = dyn.drift_report(traj, invariant)
    ok = vf.check(drift, tol).passed and traj.termination == "completed"
    payload = {"invariant": invariant.kind, "family": fam.label,
               "drift": drift, "tolerance": tol,
               "termination": traj.termination, "samples": len(traj),
               "integrator": dataclasses.asdict(traj.stats), "pass": ok}
    _emit(args, "drift.json", vf.dumps(payload) + "\n")  # makes the --out directory
    if args.out:
        dyn.write_csv(traj, Path(args.out) / "trajectory.csv")
    return 0 if ok else 1


def cmd_verify(args) -> int:
    if args.seed < 0:
        raise ConfigError("--seed must be non-negative")
    cfg = _load_config(args.config) if args.config else {}
    _only(cfg, ("family", "plan", "rescaling", "orbit", "ermakov", "radial-mode"), "config")
    names = [*_SWEEPS, *_SUITES] if args.suite == "all" else [args.suite]
    sweep = None  # the sweeps' family, plan and keys: one family per run
    report = None
    for name in names:
        if name in _SWEEPS:
            sweep = sweep or _sweep_inputs(cfg, args.seed)
            part = _sweep(_SWEEPS[name], *sweep)
        else:
            part = _SUITES[name](cfg, args.seed)
        report = part if report is None else report.merged(part)
    _emit(args, "report.json", report.to_json() + "\n")
    return 0 if report.passed else 1


def cmd_wavefunction(args) -> int:
    if not args.config:
        raise ConfigError("wavefunction requires --config")
    if not args.out:
        raise ConfigError("wavefunction requires --out")
    cfg = _load_config(args.config)
    fields = _fields(cfg, qm.WavefunctionParams, "config", ("grid",))
    with _keyed("config: ", InvalidParameters):
        p = qm.WavefunctionParams(**fields)
    if not math.isfinite(p.m):
        raise ConfigError("config: keys 'a', 'L3', 'hbar': the angular index m is not finite")
    grid = _get(cfg, "grid", dict)
    _only(grid, ("r", "theta", "t"), "config.grid")
    def axis(key):
        raw = _get(grid, key, list, where="config.grid")
        if not (_numbers(raw, 3) and float(raw[2]).is_integer()
                and raw[2] >= 1):
            raise ConfigError(f"config.grid: key {key!r} must be [lo, hi, count]")
        return float(raw[0]), float(raw[1]), int(raw[2])
    axes = [axis("r"), axis("theta"), axis("t")]
    if not min(axes[0][:2]) > 0.0:
        raise ConfigError("config.grid: key 'r' must be positive")
    if math.prod(count for _, _, count in axes) > dyn.MAX_SAMPLES:
        raise ConfigError(f"config.grid: keys 'r', 'theta', 't': more than "
                          f"{dyn.MAX_SAMPLES} points")
    t_lo, t_hi = sorted(axes[2][:2])  # the time phase integrates phi^-2 from t0
    span = ", the span of config: key 't0' and config.grid: key 't'"
    with _keyed("config: key 'phi': ", InvalidParameters, span):
        pot.check_profile(p.phi, min(p.t0, t_lo), max(p.t0, t_hi), True, "profile phi")
    r_axis, theta_axis, t_axis = (np.linspace(*spec) for spec in axes)
    with _keyed("config: key 'phi': ", ToleranceNotMet, span):
        for t in (t_lo, t_hi):  # the time phase fills the integral of phi^-2 out to both ends
            p.scaled_time(t)
    rows = ["r,theta,t,re_psi,im_psi,abs_psi"]
    for r in r_axis:
        for theta in theta_axis:
            for t in t_axis:
                z = qm.wavefunction(p, float(r), float(theta), float(t))
                rows.append(",".join(map(repr, (float(r), float(theta),
                                                float(t), z.real, z.imag,
                                                abs(z)))))
    _emit(args, "wavefunction.csv", "\n".join(rows) + "\n", to_stdout=False)
    sys.stdout.write(vf.dumps({"rows": len(rows) - 1, "pass": True}) + "\n")
    return 0


def cmd_binary(args) -> int:
    cfg = _load_config(args.config) if args.config else {}
    where = "config"
    _only(cfg, ("G", "b", "r0", "periods", "tolerance", "L3"), where)
    G = _get(cfg, "G", float, 1.0, where)
    braw = _get(cfg, "b", list, [1.0, 0.0, 0.0], where)
    if not _numbers(braw, 3):
        raise ConfigError("config: key 'b' must be [b0, b1, b2]")
    r0 = _get(cfg, "r0", float, 1.0, where)
    periods = _get(cfg, "periods", float, 10.0, where)
    tol = _get(cfg, "tolerance", float, vf._BINARY_TOL, where)
    for key, value in (("G", G), ("r0", r0)):
        if not value > 0.0:
            raise ConfigError(f"config: key {key!r} must be positive")
    try:
        t_end = periods * 2.0 * math.pi * math.sqrt(r0**3 / G)
    except OverflowError:
        t_end = math.inf
    _horizon(0.0, t_end, None, "config: key 'periods', 'G' or 'r0'")
    with _keyed("config: key 'b': ", InvalidParameters):  # the mass law; g1 is half of it
        pot.check_profile(sf.poly(*braw), 0.0, t_end, True, "mass law b0 + b1 t + b2 t^2")
    fam = _family_from({"preset": "binary", "params": {
        "G": G, "b0": float(braw[0]), "b1": float(braw[1]), "b2": float(braw[2]),
        "L3": _get(cfg, "L3", float, math.sqrt(G * r0), where)}},
        (0.0, t_end), where)
    # circular speed for the t = 0 mass; exact when the mass is constant
    cross = dyn.cartesian_crosscheck(fam, dyn.PolarState(0.0, r0, 0.0), t_end)
    energy = fi.reduced_energy_integral(fam)
    report = vf.VerificationReport({
        "energy-drift": vf.check(dyn.drift_report(cross.reference, energy), tol),
        "l3-drift": vf.check(cross.l3_drift, tol),
    })
    _emit(args, "binary.json", report.to_json() + "\n")
    return 0 if report.passed else 1


def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", help="path to a JSON run configuration")
    common.add_argument("--out", help="directory for CSV/JSON artifacts")
    common.add_argument("--seed", type=int, default=0,
                        help="sampling seed (default 0)")
    parser = argparse.ArgumentParser(
        prog="tdcentral",
        description="Integrable time-dependent central potentials: simulate, "
                    "verify, and evaluate closed forms.")
    sub = parser.add_subparsers(dest="command", required=True)
    p_list = sub.add_parser("list-presets", parents=[common])
    p_list.add_argument("--json", action="store_true",
                        help="machine-readable catalog output")
    p_list.set_defaults(func=cmd_list_presets)
    sub.add_parser("simulate", parents=[common]).set_defaults(func=cmd_simulate)
    p_verify = sub.add_parser("verify", parents=[common])
    p_verify.add_argument("--suite", default="all",
                          choices=[*_SWEEPS, *_SUITES, "all"])
    p_verify.set_defaults(func=cmd_verify)
    sub.add_parser("wavefunction", parents=[common]) \
        .set_defaults(func=cmd_wavefunction)
    sub.add_parser("binary", parents=[common]).set_defaults(func=cmd_binary)
    return parser


_PARSER = None  # built by the first main() call, so importing stays cheap


def main(argv=None) -> int:
    global _PARSER
    if _PARSER is None:
        _PARSER = build_parser()
    try:
        args = _PARSER.parse_args(argv)
    except SystemExit as e:
        return int(e.code or 0)
    try:
        return args.func(args)
    except ConfigError as e:
        print(f"config error: {e}", file=sys.stderr)
        return 2
    except (DomainError, ToleranceNotMet, StepLimitExceeded) as e:
        print(f"run failed: {e}", file=sys.stderr)
        return 1
    except ArithmeticError as e:  # a float overflow or division by zero mid-run
        print(f"run failed: {type(e).__name__}: {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())

"""Seeded inputs for the tdcentral benchmark workloads and the per-op gate.

An op is one in-process ``tdcentral.cli.main(argv)`` call.  Each workload
turns its seed into a fixed list of ops (same seed, same list, same config
bytes); the benchmark cycles through that list.  ``check_op`` decides
whether one op's exit code, stdout and artifacts are correct.

This module imports nothing from tdcentral, so generating inputs costs the
same whichever version of the package is under test.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from pathlib import Path

WORKLOADS = ("verify-sweep", "simulate-ensemble", "far-horizon")

# ops per generated list; the runner cycles through it
_VERIFY_OPS = 64
_ENSEMBLE_ROUNDS = 8
_FAR_OPS = 40

_FAR_T_RANGE = (100.0, 1000.0)
_FAR_SPAN = 5.0
# ends spread over (5, 10], inside the presets' validation interval (0, 10):
# with one fixed span the op times form one cluster per preset and the
# median jumps between clusters from run to run
_ENSEMBLE_T_END = (5.0, 10.0)
_STRIDE = 0.01  # IntegratorConfig.stride default

# the verify fixture family (cli._default_family) has g2 = 0.3 + 0.1 t,
# sampled on t in [0, 3]; its closed-form and orbit cases run to t = 6
_VERIFY_T_SPAN = 6.0
_VERIFY_SAMPLES = 2000  # 1000-sample pde sweep + 1000-sample noether sweep

# presets with g2 = 0; parameters and states follow the acceptance fixtures
_PRESETS = (
    ("scaled-kepler", {"phi": "(sqrt (poly 1 0 1))", "k": 1.0, "L3": 0.5},
     1.2, 0.2),
    ("oscillator", {"g1": "(poly 1 0 1)", "c0": 0.0, "L3": 1.0}, 1.0, 0.0),
    ("yukawa", {"k": 1.0, "b0": 1.0, "b1": 0.5, "b2": 0.25, "L3": 0.6},
     1.5, 0.1),
    ("interatomic", {"k1": 1.0, "k2": 1.0, "m": 12.0, "n": 6.0, "b0": 1.0,
                     "b1": 0.5, "b2": 0.25, "L3": 0.2}, 1.12, 0.0),
    ("generalized-kepler", {"nu": 1.0, "k": 1.0, "b0": 1.0, "L3": 1.0},
     1.4, 0.0),
    ("linear-lfi", {"g2": "(poly 1 0 0.1)", "g": "(* 0.2 t)", "L3": 0.8},
     2.0, 0.1),
)

# the verify fixture's cross-profile FamilyB, given inline, with t0 = 0
_CROSS_PROFILE = {"kind": "quadratic", "g1": "(poly 1 0 0.25)",
                  "g2": "(poly 0.3 0.1)",
                  "F": "(+ (pow t 2) (* 2 (pow t -2)))", "L3": 0.7, "t0": 0.0}

# every check `verify --suite all` reports, with the verdict it must carry;
# literal-bracket-drift is an informational negative control that must fail
VERIFY_VERDICTS = {
    "pde-r1": True, "pde-r2": True, "pde-r3": True,
    "noether-config": True, "noether-velocity": True,
    "rescaling-1": True, "rescaling-2": True, "rescaling-3": True,
    "radius-form": True, "angle-form": True,
    "ermakov-profile": True, "ermakov-center": True,
    "invariant-drift": True, "literal-bracket-drift": False,
    "orbit-static-scale": True, "orbit-growing-scale": True,
    "mode-residual": True, "mode-modulus": True,
}


@dataclass(frozen=True)
class Op:
    """One CLI call; the runner appends ``--out <dir>`` to ``args``."""

    args: tuple
    outputs: tuple         # artifact names compared byte for byte
    antiderivative: bool   # a FamilyB with g2 != 0 evaluates its Antiderivative
    t_span: float          # largest |t - t0| at which the op evaluates a family
    samples: int           # phase-space samples the op evaluates
    t_start: float = 0.0   # simulate: initial time
    t_end: float = 0.0     # simulate: final time


def make_ops(workload: str, seed: int, workdir: Path) -> list[Op]:
    """The op list for `workload` and `seed`; writes config files to workdir."""
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}")
    rng = random.Random(f"{workload}/{seed}")
    workdir.mkdir(parents=True, exist_ok=True)
    if workload == "verify-sweep":
        return [Op(("verify", "--suite", "all",
                    "--seed", str(rng.randrange(2**31))),
                   ("report.json",), True, _VERIFY_T_SPAN, _VERIFY_SAMPLES)
                for _ in range(_VERIFY_OPS)]
    if workload == "simulate-ensemble":
        configs = []
        lo, hi = _ENSEMBLE_T_END
        for k in range(_ENSEMBLE_ROUNDS):  # round k ends in stratum k
            for name, params, r, rdot in _PRESETS:
                t_end = hi - (hi - lo) * (k + rng.random()) / _ENSEMBLE_ROUNDS
                configs.append(({"preset": name, "params": params},
                                _jitter(rng, 0.0, r, rdot, 0.05), t_end))
        return _simulate_ops(configs, workdir, antiderivative=False)
    # far-horizon: one start per stratum of [100, 1000], in seeded order
    lo, hi = _FAR_T_RANGE
    starts = [lo + (hi - lo) * (k + rng.random()) / _FAR_OPS
              for k in range(_FAR_OPS)]
    rng.shuffle(starts)
    configs = [(_CROSS_PROFILE, _jitter(rng, t, 1.0, 0.0, 0.1), t + _FAR_SPAN)
               for t in starts]
    return _simulate_ops(configs, workdir, antiderivative=True)


def _jitter(rng, t, r, rdot, rel):
    return {"t": t, "r": r * (1.0 + rng.uniform(-rel, rel)),
            "rdot": rdot + rng.uniform(-rel, rel),
            "theta": rng.uniform(0.0, 1.0)}


def _simulate_ops(configs, workdir: Path, antiderivative: bool) -> list[Op]:
    ops = []
    for i, (family, initial, t_end) in enumerate(configs):
        path = workdir / f"op-{i:03d}.json"
        cfg = {"family": family, "initial": initial, "t_end": t_end}
        path.write_text(json.dumps(cfg, sort_keys=True), encoding="utf-8")
        span = t_end - initial["t"]
        ops.append(Op(("simulate", "--config", str(path)),
                      ("drift.json", "trajectory.csv"), antiderivative,
                      t_end, round(span / _STRIDE) + 1, initial["t"], t_end))
    return ops


def input_properties(ops: list[Op]) -> dict:
    """Shares of the input properties an optimisation may depend on."""
    spans = [op.t_span for op in ops]
    return {"antiderivative_share": sum(op.antiderivative for op in ops) / len(ops),
            "t_span_min": min(spans), "t_span_max": max(spans),
            "samples_per_op": sum(op.samples for op in ops) / len(ops)}


def check_op(op: Op, rc: int, stdout: str, files: dict) -> str | None:
    """None when the op's outputs are correct, else the reason they are not."""
    if rc != 0:
        return f"exit code {rc}"
    missing = [name for name in op.outputs if files.get(name) is None]
    if missing:
        return f"missing artifact {missing[0]}"
    first = op.outputs[0]
    if files[first].decode("utf-8") != stdout:
        return f"stdout differs from {first}"
    try:
        payload = json.loads(stdout)
    except ValueError:
        return "stdout is not JSON"
    if op.args[0] == "verify":
        return _check_report(payload)
    return _check_simulation(op, payload, files["trajectory.csv"])


def _check_report(report: dict) -> str | None:
    if set(report) != set(VERIFY_VERDICTS):
        return f"report checks {sorted(set(report) ^ set(VERIFY_VERDICTS))} differ"
    for name, want in VERIFY_VERDICTS.items():
        if report[name].get("pass") is not want:
            return f"check {name} has pass={report[name].get('pass')}"
    return None


def _check_simulation(op: Op, payload: dict, csv: bytes) -> str | None:
    if payload.get("pass") is not True:
        return f"pass={payload.get('pass')} (drift {payload.get('drift')})"
    if payload.get("termination") != "completed":
        return f"termination {payload.get('termination')}"
    rows = csv.decode("utf-8").splitlines()
    if rows[0] != "t,r,rdot,theta,h_accepted":
        return "trajectory.csv header"
    if len(rows) - 1 != payload.get("samples") or len(rows) - 1 < op.samples:
        return f"trajectory.csv has {len(rows) - 1} samples"
    if (float(rows[1].split(",")[0]) != op.t_start
            or float(rows[-1].split(",")[0]) != op.t_end):
        return "trajectory does not span [t_start, t_end]"
    return None

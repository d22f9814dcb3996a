"""Exit codes, artifact layout, and byte determinism of the command line."""

import copy
import inspect
import json
import math
import re
import tempfile
import time
import warnings
from contextlib import redirect_stderr, redirect_stdout
from io import StringIO
from pathlib import Path

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from tdcentral import cli
from tdcentral import dynamics as dyn
from tdcentral import potentials as pot
from tdcentral.cli import main
from tdcentral.dynamics import MAX_SAMPLES
from tdcentral.quantum import MAX_NODES


def write_config(tmp_path, payload, name="cfg.json"):
    path = tmp_path / name
    path.write_text(json.dumps(payload), encoding="utf-8")
    return str(path)


def _refuse_constant(name):
    raise ValueError(f"{name} is not RFC 8259 JSON")


def strict_json(text):
    """The value of JSON text that holds no NaN, Infinity or -Infinity."""
    return json.loads(text, parse_constant=_refuse_constant)


def oscillator_config(**extra):
    cfg = {
        "family": {"preset": "oscillator",
                   "params": {"g1": "(poly 1 0 1)", "c0": 0.0, "L3": 1.0}},
        "initial": {"t": 0.0, "r": 1.0, "rdot": 0.0, "theta": 0.0},
        "t_end": 10.0,
        "drift_tolerance": 1e-7,
    }
    cfg.update(extra)
    return cfg


class TestConfigKeysNamed:
    """Malformed values exit 2 with the offending key on stderr."""

    @pytest.mark.parametrize("argv,section", [
        (["verify", "--suite", "rescaling"], "rescaling"),
        (["verify", "--suite", "orbit"], "orbit"),
        (["verify", "--suite", "all"], "orbit"),
    ])
    def test_non_object_case(self, tmp_path, capsys, argv, section):
        path = write_config(tmp_path, {section: {"cases": [1]}})
        assert main([*argv, "--config", path]) == 2
        assert f"config.{section}.cases[0]" in capsys.readouterr().err

    def test_non_list_cases(self, tmp_path, capsys):
        path = write_config(tmp_path, {"orbit": {"cases": 3}})
        assert main(["verify", "--suite", "orbit", "--config", path]) == 2
        assert "config.orbit: key 'cases'" in capsys.readouterr().err

    def test_preset_interval_is_unknown(self, tmp_path, capsys):
        # profiles are checked on the run span; there is no interval knob
        cfg = oscillator_config()
        cfg["family"]["params"]["interval"] = [0, 10]
        path = write_config(tmp_path, cfg)
        assert main(["simulate", "--config", path]) == 2
        err = capsys.readouterr().err
        assert "config.family: oscillator: unknown parameters ['interval']" in err

    @pytest.mark.parametrize("section,key", [
        (None, "tolerance"),
        ("family", "bogus"),
        ("family", "kind"),
        ("initial", "thetadot"),
        ("integrator", "tol"),
    ])
    def test_simulate_unknown_key(self, tmp_path, capsys, section, key):
        cfg = oscillator_config()
        (cfg if section is None else cfg.setdefault(section, {}))[key] = 1
        path = write_config(tmp_path, cfg)
        assert main(["simulate", "--config", path]) == 2
        where = "config" if section is None else f"config.{section}"
        assert f"{where}: unknown key {key!r}" in capsys.readouterr().err

    @pytest.mark.parametrize("family,key", [
        ({"kind": "linear", "g2": "1", "g1": "1"}, "g1"),
        ({"kind": "linear", "g2": "1", "bogus": 1}, "bogus"),
        ({"kind": "quadratic", "g1": "1", "rho": "1"}, "rho"),
        ({"kind": "driven-1d", "rho": "1", "L3": 0.5}, "L3"),
    ])
    def test_inline_family_unknown_key(self, tmp_path, capsys, family, key):
        cfg = oscillator_config(family=family)
        path = write_config(tmp_path, cfg)
        assert main(["simulate", "--config", path]) == 2
        assert f"config.family: unknown key {key!r}" in capsys.readouterr().err

    def test_inline_family_keys_accepted(self, tmp_path, capsys):
        cfg = oscillator_config(t_end=1.0, family={
            "kind": "quadratic", "g1": "(poly 1 0 1)", "g2": "0", "F": "0",
            "L3": 0.5, "t0": 0.0, "perturb": 0.0})
        path = write_config(tmp_path, cfg)
        assert main(["simulate", "--config", path]) == 0
        capsys.readouterr()

    def test_preset_profile_not_parsed(self, tmp_path, capsys):
        cfg = oscillator_config()
        cfg["family"]["params"]["g1"] = "(poly 1"
        path = write_config(tmp_path, cfg)
        assert main(["simulate", "--config", path]) == 2
        err = capsys.readouterr().err
        assert "config.family:" in err and "Traceback" not in err

    @pytest.mark.parametrize("preset,key,value", [
        ("oscillator", "c0", "abc"),
        ("generalized-kepler", "nu", [1]),
    ])
    def test_preset_parameter_not_a_number(self, tmp_path, capsys, preset,
                                           key, value):
        cfg = oscillator_config()
        cfg["family"] = {"preset": preset, "params": {key: value}}
        path = write_config(tmp_path, cfg)
        assert main(["simulate", "--config", path]) == 2
        err = capsys.readouterr().err
        assert f"config.family: {preset}: parameter {key!r}" in err

    @pytest.mark.parametrize("text", ["NaN", "1e400", "1" + "0" * 400])
    def test_preset_parameter_not_finite(self, tmp_path, capsys, text):
        # JSON reads these as nan, inf and an int beyond every double
        cfg = oscillator_config(t_end=1.0, family={
            "preset": "scaled-kepler",
            "params": {"phi": "1", "k": "@K@", "L3": 0.5}})
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(cfg).replace('"@K@"', text), encoding="utf-8")
        assert main(["simulate", "--config", str(path)]) == 2
        err = capsys.readouterr().err
        assert "config.family: scaled-kepler: parameter 'k' must be a finite number" in err
        assert "Traceback" not in err

    def test_preset_unknown_parameter(self, tmp_path, capsys):
        cfg = oscillator_config()
        cfg["family"] = {"preset": "free-particle",
                         "params": {"L3": 0.5, "bogus": "x"}}
        path = write_config(tmp_path, cfg)
        assert main(["simulate", "--config", path]) == 2
        err = capsys.readouterr().err
        assert "config.family: free-particle: unknown parameters" in err
        assert "'bogus'" in err

    def test_radial_mode_node_cap(self, tmp_path, capsys):
        spec = {"b_values": [MAX_NODES + 1]}
        path = write_config(tmp_path, {"radial-mode": spec})
        assert main(["verify", "--suite", "radial-mode", "--config", path]) == 2
        err = capsys.readouterr().err
        assert "config.radial-mode: key 'b_values'" in err
        assert str(MAX_NODES) in err

    def test_radial_mode_sample_cap(self, tmp_path, capsys):
        # 101 x 2 x 100 modes at 50 radii each: just over MAX_SAMPLES samples
        spec = {"a_values": [0.0] * 101, "b_values": [0, 1], "hbar_values": [1.0] * 100}
        path = write_config(tmp_path, {"radial-mode": spec})
        assert main(["verify", "--suite", "radial-mode", "--config", path]) == 2
        err = capsys.readouterr().err
        assert "config.radial-mode: keys 'a_values', 'b_values', 'hbar_values'" in err
        assert f"more than {MAX_SAMPLES} samples" in err

    def test_wavefunction_node_cap(self, tmp_path, capsys):
        path = write_config(tmp_path, {
            "a": 1.0, "b": MAX_NODES + 1,
            "grid": {"r": [0.5, 3, 2], "theta": [0.0, 6.0, 3], "t": [0.0, 2.0, 3]}})
        assert main(["wavefunction", "--config", path,
                     "--out", str(tmp_path / "wf")]) == 2
        err = capsys.readouterr().err
        assert "node count b" in err and str(MAX_NODES) in err

    @pytest.mark.parametrize("key,value", [("G", 0), ("r0", -1.0)])
    def test_binary_non_positive(self, tmp_path, capsys, key, value):
        path = write_config(tmp_path, {key: value})
        assert main(["binary", "--config", path]) == 2
        err = capsys.readouterr().err
        assert f"config: key {key!r} must be positive" in err

    @pytest.mark.parametrize("spec,key", [
        ({"a_values": 5}, "a_values"),
        ({"hbar_values": ["x"]}, "hbar_values"),
        ({"b_values": [0.5]}, "b_values"),
        # well typed, but the residual overflows or divides by hbar^2 = 0
        ({"a_values": [1e300]}, "a_values"),
        ({"hbar_values": [1e-300]}, "hbar_values"),
        # the failing value after a good one: the first failing mode is named
        ({"a_values": [0.0, 1e300]}, "a_values"),
        ({"hbar_values": [1.0, 1e-300]}, "hbar_values"),
    ])
    def test_radial_mode_values(self, tmp_path, capsys, spec, key):
        path = write_config(tmp_path, {"radial-mode": spec})
        with warnings.catch_warnings(record=True) as seen:
            warnings.simplefilter("always")
            assert main(["verify", "--suite", "radial-mode", "--config", path]) == 2
        err = capsys.readouterr().err
        assert f"config.radial-mode: key {key!r}" in err
        assert "Traceback" not in err and "RuntimeWarning" not in err
        assert not [w for w in seen if issubclass(w.category, RuntimeWarning)]

    @pytest.mark.parametrize("section", ["ermakov", "radial-mode"])
    def test_non_object_section(self, tmp_path, capsys, section):
        path = write_config(tmp_path, {section: 5})
        assert main(["verify", "--suite", section, "--config", path]) == 2
        err = capsys.readouterr().err
        assert f"config.{section}: must be an object" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("axis", [[0.5, 3, "x"], ["x", 3, 4], [0.5, 3, 0],
                                      [0.0, 3, 4], [0.5, -1.0, 2]])
    def test_wavefunction_grid_axis(self, tmp_path, capsys, axis):
        path = write_config(tmp_path, {
            "a": 1.0, "b": 1,
            "grid": {"r": axis, "theta": [0.0, 6.0, 3], "t": [0.0, 2.0, 3]}})
        out = str(tmp_path / "wf")
        assert main(["wavefunction", "--config", path, "--out", out]) == 2
        err = capsys.readouterr().err
        assert "config.grid: key 'r'" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("argv,cfg,where,key", [
        (["verify", "--suite", "pde"], {"plans": {}}, "config", "plans"),
        (["verify", "--suite", "pde"], {"plan": {"count": 10, "seeds": 1}},
         "config.plan", "seeds"),
        (["verify", "--suite", "rescaling"], {"rescaling": {"case": []}},
         "config.rescaling", "case"),
        (["verify", "--suite", "rescaling"],
         {"rescaling": {"cases": [{"phi": "1", "shape": "0", "l3": 1.0}]}},
         "config.rescaling.cases[0]", "l3"),
        (["verify", "--suite", "orbit"],
         {"orbit": {"cases": [{"t_end": 1.0, "tol": 1e-7}]}},
         "config.orbit.cases[0]", "tol"),
        (["verify", "--suite", "ermakov"], {"ermakov": {"stride": 0.1}},
         "config.ermakov", "stride"),
        (["verify", "--suite", "radial-mode"], {"radial-mode": {"L": 0.3}},
         "config.radial-mode", "L"),
        (["binary"], {"tolerence": 1e-15, "periods": 2.0}, "config", "tolerence"),
        (["wavefunction"], {"a": 1.0, "b": 1, "c": 0, "grid": {}}, "config", "c"),
        (["wavefunction"], {"a": 1.0, "b": 1, "grid": {
            "r": [0.5, 3.0, 2], "theta": [0.0, 6.0, 3], "t": [0.0, 2.0, 3],
            "phi": [0.0, 1.0, 2]}}, "config.grid", "phi"),
    ])
    def test_section_unknown_key(self, tmp_path, capsys, argv, cfg, where, key):
        path = write_config(tmp_path, cfg)
        out = str(tmp_path / "out")
        assert main([*argv, "--config", path, "--out", out]) == 2
        err = capsys.readouterr().err
        assert f"{where}: unknown key {key!r}" in err and "Traceback" not in err

    @pytest.mark.parametrize("argv,cfg,message", [
        (["simulate"], oscillator_config(t_end=float("nan")), "config: key 't_end'"),
        (["simulate"], oscillator_config(t_end=10**400), "config: key 't_end'"),
        (["simulate"], oscillator_config(initial={"r": float("inf"), "rdot": 0.0}),
         "config.initial: key 'r'"),
        (["verify", "--suite", "pde"], {"plan": {"t_range": [0.0, float("nan")]}},
         "config.plan: key 't_range'"),
        (["binary"], {"periods": float("-inf")}, "config: key 'periods'"),
        (["wavefunction"], {"a": 1.0, "b": 1, "phi": float("nan"), "grid": {}},
         "config: key 'phi'"),
        (["wavefunction"], {"a": 1.0, "b": 1, "grid": {
            "r": [0.5, float("inf"), 2], "theta": [0.0, 6.0, 3], "t": [0.0, 2.0, 3]}},
         "config.grid: key 'r'"),
    ])
    def test_non_finite_number(self, tmp_path, capsys, argv, cfg, message):
        path = write_config(tmp_path, cfg)
        out = str(tmp_path / "out")
        assert main([*argv, "--config", path, "--out", out]) == 2
        err = capsys.readouterr().err
        assert message in err and "Traceback" not in err

    @pytest.mark.parametrize("count", [10**12, MAX_SAMPLES + 1])
    def test_plan_count_bounded(self, tmp_path, capsys, count):
        path = write_config(tmp_path, {"plan": {"count": count}})
        start = time.perf_counter()
        assert main(["verify", "--suite", "pde", "--config", path]) == 2
        assert time.perf_counter() - start < 5.0
        err = capsys.readouterr().err
        assert "config.plan: key 'count'" in err and str(MAX_SAMPLES) in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("counts", [(10**12, 1, 1), (1, 1, MAX_SAMPLES + 1),
                                        (1001, 1000, 1)])
    def test_wavefunction_grid_bounded(self, tmp_path, capsys, counts):
        grid = {key: [0.5, 3.0, n] for key, n in zip(("r", "theta", "t"), counts)}
        path = write_config(tmp_path, {"a": 1.0, "b": 1, "grid": grid})
        start = time.perf_counter()
        assert main(["wavefunction", "--config", path,
                     "--out", str(tmp_path / "wf")]) == 2
        assert time.perf_counter() - start < 5.0
        err = capsys.readouterr().err
        assert "config.grid:" in err and str(MAX_SAMPLES) in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("argv,cfg,message", [
        (["--seed", "-1"], {}, "--seed must be non-negative"),
        ([], {"plan": {"seed": -1}}, "config.plan: key 'seed'"),
    ])
    def test_negative_seed(self, tmp_path, capsys, argv, cfg, message):
        path = write_config(tmp_path, cfg)
        assert main(["verify", "--suite", "pde", "--config", path, *argv]) == 2
        err = capsys.readouterr().err
        assert message in err and "Traceback" not in err

    def test_plan_error_prefixed_once(self, tmp_path, capsys):
        path = write_config(tmp_path, {"plan": {"t_range": [1]}})
        assert main(["verify", "--suite", "pde", "--config", path]) == 2
        err = capsys.readouterr().err
        assert "config error: config.plan: key 't_range' must be [lo, hi]" in err
        assert err.count("config.plan") == 1


class TestRunSpan:
    """Each family's defining profile is checked on the span the command
    uses, not on a fixed interval."""

    def run(self, tmp_path, capsys, argv, cfg):
        path = write_config(tmp_path, cfg)
        rc = main([*argv, "--config", path])
        err = capsys.readouterr().err
        assert "Traceback" not in err
        return rc, err

    def test_zero_after_t_end(self, tmp_path, capsys):
        cfg = oscillator_config(t_end=0.5)
        cfg["family"]["params"]["g1"] = "(poly 1 -1)"
        rc, _ = self.run(tmp_path, capsys, ["simulate"], cfg)
        assert rc == 0

    def test_zero_inside_span(self, tmp_path, capsys):
        cfg = oscillator_config(t_end=14.0)
        cfg["family"]["params"]["g1"] = "(poly 12 -1)"
        rc, err = self.run(tmp_path, capsys, ["simulate"], cfg)
        assert rc == 2
        assert "config.family" in err and "t = 12" in err

    def test_backward_run_span(self, tmp_path, capsys):
        cfg = oscillator_config(t_end=0.0)
        cfg["initial"]["t"] = 14.0
        cfg["family"]["params"]["g1"] = "(poly 12 -1)"
        rc, err = self.run(tmp_path, capsys, ["simulate"], cfg)
        assert rc == 2 and "on [0, 14]" in err

    def test_inline_family_checked(self, tmp_path, capsys):
        cfg = oscillator_config(t_end=2.0, family={"kind": "quadratic",
                                                   "g1": "(poly 1 -1)"})
        rc, err = self.run(tmp_path, capsys, ["simulate"], cfg)
        assert rc == 2
        assert "config.family" in err and "g1" in err and "t = 1" in err

    def test_root_outside_short_run(self, tmp_path, capsys):
        # g1 = (1 - 4t + t^2)/2 vanishes at 2 - sqrt 3 ~ 0.268, after t_end
        cfg = oscillator_config(t_end=0.2, family={
            "preset": "generalized-kepler",
            "params": {"nu": 1.0, "k": 1.0, "b0": 1.0, "b1": -4.0, "b2": 1.0,
                       "L3": 1.0}})
        cfg["initial"]["r"] = 1.4
        rc, _ = self.run(tmp_path, capsys, ["simulate"], cfg)
        assert rc == 0

    def test_plan_range_is_the_span(self, tmp_path, capsys):
        family = {"preset": "oscillator", "params": {"g1": "(poly 5 -1)"}}
        rc, _ = self.run(tmp_path, capsys, ["verify", "--suite", "pde"],
                         {"family": family, "plan": {"count": 50}})
        assert rc == 0
        rc, err = self.run(tmp_path, capsys, ["verify", "--suite", "noether"],
                           {"family": family, "plan": {"t_range": [0, 6]}})
        assert rc == 2 and "config.family" in err and "t = 5" in err

    @pytest.mark.parametrize("suite", ["pde", "noether"])
    def test_plan_range_the_shape_argument_cannot_reach(self, tmp_path, capsys, suite):
        # the default family's s(t, r) integrates g1^-3/2 g2 from t = 0: 200
        # panels of doubling width end near 4e59, far short of 1e300
        with warnings.catch_warnings(record=True) as seen:
            warnings.simplefilter("always")
            rc, err = self.run(tmp_path, capsys, ["verify", "--suite", suite],
                               {"plan": {"t_range": [0, 1e300], "count": 3}})
        assert rc == 2 and "config.plan: key 't_range'" in err and "200 panels" in err
        assert "Warning" not in err
        assert not [w for w in seen if issubclass(w.category, RuntimeWarning)]

    def test_profile_beyond_double_range(self, tmp_path, capsys):
        # g2 = 1 + 0.1 t^2 overflows at t = 1e300 before any residual is taken
        with warnings.catch_warnings(record=True) as seen:
            warnings.simplefilter("always")
            rc, err = self.run(tmp_path, capsys, ["verify", "--suite", "pde"],
                               {"family": {"preset": "linear-lfi"},
                                "plan": {"t_range": [0, 1e300], "count": 3}})
        assert rc == 2 and "config.family: linear-lfi: profile g2" in err
        assert "on [0, 1e+300]: is not finite at t = 1e+300" in err
        assert "Warning" not in err
        assert not [w for w in seen if issubclass(w.category, RuntimeWarning)]

    def test_wavefunction_phase_time_unfillable(self, tmp_path, capsys):
        # phi = 1 + t is finite at 1e100, but the integral of phi^-2 out to it
        # takes more than the Antiderivative's 200 panels
        cfg = {"a": 1.0, "b": 1, "phi": "(poly 1 1)",
               "grid": {"r": [0.5, 2.0, 2], "theta": [0.0, 1.0, 2], "t": [0.0, 1e100, 2]}}
        path = write_config(tmp_path, cfg)
        with warnings.catch_warnings(record=True) as seen:
            warnings.simplefilter("always")
            rc = main(["wavefunction", "--config", path, "--out", str(tmp_path / "wf")])
        err = capsys.readouterr().err
        assert rc == 2 and "config: key 'phi'" in err and "200 panels" in err
        assert "config.grid: key 't'" in err
        assert "Traceback" not in err and "Warning" not in err
        assert not [w for w in seen if issubclass(w.category, RuntimeWarning)]

    def test_rescaling_phi_zero_on_grid(self, tmp_path, capsys):
        case = {"phi": "(poly 0 1)", "shape": "(pow t 2)", "L3": 1.0}
        rc, err = self.run(tmp_path, capsys, ["verify", "--suite", "rescaling"],
                           {"rescaling": {"cases": [{"phi": "1", "shape": "0"}, case]}})
        assert rc == 2
        assert ("config.rescaling.cases[1]: key 'phi': scale profile phi = t on [0, 2]: "
                "vanishes at t = 0") in err

    @pytest.mark.parametrize("phi,t0,t_axis,rc,span", [
        ("(poly 1 -1)", 0.0, [0.0, 2.0, 3], 2, "on [0, 2]: vanishes at t = 1"),
        # the time phase integrates phi^-2 from t0 to each grid time
        ("(poly 2 -1)", 3.0, [0.0, 1.0, 3], 2, "on [0, 3]: vanishes at t = 2"),
        ("(poly -1 -1)", 0.0, [0.0, 1.0, 2], 2, "on [0, 1]: must be positive"),
        ("(poly 2 -1)", 0.0, [0.0, 1.0, 3], 0, None),
    ], ids=["zero-on-grid", "zero-between-t0-and-grid", "negative", "zero-beyond-span"])
    def test_wavefunction_phi_span(self, tmp_path, capsys, phi, t0, t_axis, rc, span):
        cfg = {"a": 1.0, "b": 1, "phi": phi, "t0": t0,
               "grid": {"r": [0.5, 2.0, 2], "theta": [0.0, 1.0, 2], "t": t_axis}}
        path = write_config(tmp_path, cfg)
        assert main(["wavefunction", "--config", path, "--out", str(tmp_path / "wf")]) == rc
        err = capsys.readouterr().err
        assert "Traceback" not in err
        if span:
            assert f"config: key 'phi': profile phi = {phi} {span}" in err

    def test_orbit_case_span(self, tmp_path, capsys):
        case = {"phi": "(poly 1 -0.1)", "L3": 0.5, "t_end": 12.0,
                "initial": {"t": 0.0, "r": 1.2, "rdot": 0.2}}
        rc, err = self.run(tmp_path, capsys, ["verify", "--suite", "orbit"],
                           {"orbit": {"cases": [case]}})
        assert rc == 2 and "config.orbit.cases[0]" in err and "t = 10" in err

    def test_ermakov_span(self, tmp_path, capsys):
        rc, err = self.run(tmp_path, capsys, ["verify", "--suite", "ermakov"],
                           {"ermakov": {"system": {"kind": "driven-1d",
                                                  "rho": "(poly 1 -0.5)"}}})
        assert rc == 2 and "config.ermakov.system" in err and "t = 2" in err

    def test_rescaling_phi_zero_between_grid_times(self, tmp_path, capsys):
        # g1 = phi^2/2 vanishes at t = 1, which no grid time hits exactly
        case = {"phi": "(poly 1 -1)", "shape": "(pow t 2)", "L3": 1.0}
        rc, err = self.run(tmp_path, capsys, ["verify", "--suite", "rescaling"],
                           {"rescaling": {"cases": [case]}})
        assert rc == 2
        assert ("config.rescaling.cases[0]: key 'phi': scale profile phi = (poly 1 -1) "
                "on [0, 2]: vanishes at t = 1") in err

    def test_binary_span(self, tmp_path, capsys):
        # the mass law 1 - t/30 fails at t = 30, inside ten periods (62.8)
        rc, err = self.run(tmp_path, capsys, ["binary"],
                           {"b": [1.0, -1.0 / 30.0, 0.0]})
        assert rc == 2 and "config: key 'b': mass law" in err and "t = 30" in err


    @pytest.mark.parametrize("argv,cfg,message", [
        (["binary"], {"periods": 1e300}, "config: key 'periods'"),
        (["binary"], {"r0": 1e200}, "config: key 'periods'"),
        (["verify", "--suite", "ermakov"], {"ermakov": {"t_end": 1e300}},
         "config.ermakov: key 't_end'"),
        (["verify", "--suite", "orbit"],
         {"orbit": {"cases": [{"phi": "1", "t_end": 1e300,
                               "initial": {"r": 1.2, "rdot": 0.2}}]}},
         "config.orbit.cases[0]: key 't_end'"),
    ])
    def test_horizon_bounded(self, tmp_path, capsys, argv, cfg, message):
        rc, err = self.run(tmp_path, capsys, argv, cfg)
        assert rc == 2 and message in err


class TestRunFailures:
    """Runs at the edges of their inputs; the overflow repros are @examples
    of test_one_changed_key_keeps_exit_contract."""

    def test_inline_quadratic_takes_a_large_L3(self, tmp_path, capsys):
        # the oscillator preset squares L3 in its shape; F given inline does not
        cfg = oscillator_config(t_end=2.0, family={"kind": "quadratic", "g1": "(poly 1 0 1)",
                                                   "L3": 1e200})
        assert main(["simulate", "--config", write_config(tmp_path, cfg)]) == 0
        capsys.readouterr()

    def test_steps_cannot_reach_t_end(self, tmp_path, capsys):
        # 500000 steps of at most 1e-6 cover 0.5 of the 2.0 asked for
        cfg = oscillator_config(t_end=2.0, integrator={"h_max": 1e-6})
        start = time.perf_counter()
        assert main(["simulate", "--config", write_config(tmp_path, cfg)]) == 2
        assert time.perf_counter() - start < 5.0
        assert "config error: config.integrator: keys 'h_max', 'max_steps'" in \
            capsys.readouterr().err

    @pytest.mark.parametrize("r_min", [1e-12, 1e-100, 1e-300])
    def test_plunge_collides_at_any_r_min(self, tmp_path, capsys, r_min):
        # radial free fall: the run ends in radius_collapse and writes the same
        # artifacts as with the default r_min
        plunge = oscillator_config(t_end=2.0, family={
            "preset": "generalized-kepler",
            "params": {"nu": 1.0, "k": 1.0, "b0": 1.0, "L3": 0.0}})
        runs = []
        for integrator in ({}, {"r_min": r_min}):
            out = tmp_path / f"out-{len(runs)}"
            cfg = write_config(tmp_path, {**plunge, "integrator": integrator})
            assert main(["simulate", "--config", cfg, "--out", str(out)]) == 1
            assert capsys.readouterr().err == ""
            runs.append([(out / name).read_bytes() for name in ("drift.json", "trajectory.csv")])
        assert runs[0] == runs[1]
        assert json.loads(runs[1][0])["termination"] == "radius_collapse"

    @pytest.mark.parametrize("depth", [165, 600])
    @pytest.mark.parametrize("family", ["preset", "kind"])
    @pytest.mark.parametrize("argv", [["simulate"], ["verify", "--suite", "pde"]])
    def test_deeply_nested_profile_names_its_key(self, tmp_path, capsys, argv, family, depth):
        # 165 deep, building the family exceeds the recursion limit; 600
        # deep, parsing the text does
        g1 = "(poly 2 0 1)"
        for _ in range(depth):
            g1 = f"(+ 1 (* 0.5 {g1}))"
        fam = ({"preset": "oscillator", "params": {"g1": g1, "L3": 1.0}} if family == "preset"
               else {"kind": "quadratic", "g1": g1})
        cfg = oscillator_config(t_end=1.0, family=fam) if argv == ["simulate"] else {"family": fam}
        assert main([*argv, "--config", write_config(tmp_path, cfg)]) == 2
        err = capsys.readouterr().err
        assert err == "config error: config.family: key 'g1': expression nested too deeply\n"

    @pytest.mark.parametrize("argv,cfg", [
        # I overflows in FamilyB.fi, reached through drift_series
        (["simulate"], oscillator_config(t_end=1.0, initial={"t": 0.0, "r": 1e200, "rdot": 0.0})),
        # the same overflow, then inf - inf in drift_report
        (["simulate"], oscillator_config(t_end=1.0, initial={"t": 0.0, "r": 1.0, "rdot": 1e200})),
        # Omega^2 overflows in the profile residuals of lewis_leach_report
        (["verify", "--suite", "ermakov"],
         {"ermakov": {"system": {**cli._default_driven_1d()["system"],
                                 "Omega": "(exp (poly 0 800))"}}}),
        # a constant rho cubed overflows; the invariant drift is nan
        (["verify", "--suite", "ermakov"],
         {"ermakov": {"system": {"kind": "driven-1d", "rho": "1e200"}}}),
        # the orbit invariant overflows, so every branch deviation is nan
        (["verify", "--suite", "orbit"],
         {"orbit": {"cases": [{"name": "s", "phi": "1", "k": 1.0, "L3": 0.5, "t_end": 1.5,
                               "initial": {"t": 0.0, "r": 1.2, "rdot": 1e200}}]}}),
        # t^900 overflows in the shape, so every pde residual is nan
        (["verify", "--suite", "pde"],
         {"family": {"kind": "quadratic", "g1": "(poly 1 0 1)", "g2": "0",
                     "F": "(pow t 900)", "L3": 0.5}, "plan": {"t_range": [0, 3]}}),
    ], ids=["r-1e200", "rdot-1e200", "ermakov-omega-overflow", "ermakov-rho-1e200",
            "orbit-rdot-1e200", "pde-shape-overflow"])
    def test_state_beyond_double_range_fails_silently(self, tmp_path, capsys, argv, cfg):
        # a non-finite drift or residual fails its check: exit 1, no warning,
        # and the artifact writes it as null
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            rc = main([*argv, "--config", write_config(tmp_path, cfg),
                       "--out", str(tmp_path / "out")])
        assert rc == 1 and capsys.readouterr().err == ""
        artifacts = list((tmp_path / "out").glob("*.json"))
        assert artifacts and all(strict_json(a.read_text()) for a in artifacts)


class TestListPresets:
    def test_text_catalog(self, capsys):
        assert main(["list-presets"]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert len(lines) >= 8
        assert all(": " in line for line in lines)

    def test_json_only_on_list_presets(self, tmp_path, capsys):
        path = write_config(tmp_path, oscillator_config())
        assert main(["simulate", "--json", "--config", path]) == 2
        assert "--json" in capsys.readouterr().err

    def test_json_catalog(self, capsys):
        assert main(["list-presets", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        names = [p["name"] for p in payload["presets"]]
        assert "oscillator" in names and "binary" in names
        assert names == sorted(names)


class TestSimulate:
    def test_conserving_run(self, tmp_path, capsys):
        cfg = write_config(tmp_path, oscillator_config())
        out = tmp_path / "run"
        assert main(["simulate", "--config", cfg, "--out", str(out)]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["pass"] is True
        assert payload["drift"] <= 1e-7
        assert payload["invariant"] == "quadratic-invariant"
        csv = (out / "trajectory.csv").read_text().splitlines()
        assert csv[0] == "t,r,rdot,theta,h_accepted"
        assert len(csv) == payload["samples"] + 1
        assert json.loads((out / "drift.json").read_text()) == payload
        counts = payload["integrator"]
        assert counts["accepted"] > 0 and counts["domain_retries"] == 0
        assert counts["rhs_evals"] == 6 * (counts["accepted"] + counts["rejected"]) + 1
        assert 0.0 < counts["h_min"] <= counts["h_max"]

    def test_byte_identical_reruns(self, tmp_path):
        cfg = write_config(tmp_path, oscillator_config())
        a, b = tmp_path / "a", tmp_path / "b"
        assert main(["simulate", "--config", cfg, "--out", str(a)]) == 0
        assert main(["simulate", "--config", cfg, "--out", str(b)]) == 0
        for name in ("trajectory.csv", "drift.json"):
            assert (a / name).read_bytes() == (b / name).read_bytes()

    def test_perturbed_family_fails(self, tmp_path, capsys):
        cfg = oscillator_config()
        cfg["family"]["perturb"] = 1e-3
        path = write_config(tmp_path, cfg)
        assert main(["simulate", "--config", path]) == 1
        assert json.loads(capsys.readouterr().out)["drift"] >= 1e-4

    def test_malformed_json(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        assert main(["simulate", "--config", str(path)]) == 2
        assert "config error" in capsys.readouterr().err

    def test_missing_key_is_named(self, tmp_path, capsys):
        cfg = oscillator_config()
        del cfg["t_end"]
        path = write_config(tmp_path, cfg)
        assert main(["simulate", "--config", path]) == 2
        assert "t_end" in capsys.readouterr().err

    def test_config_required(self, capsys):
        assert main(["simulate"]) == 2
        capsys.readouterr()

    @pytest.mark.parametrize("extra", [
        {"t_end": 1e300},
        {"t_end": float("inf")},
        {"t_end": float("nan")},
        {"t_end": 0.0},                          # empty span
        {"integrator": {"stride": 1e-9}},        # 1e10 samples
        {"t_end": -MAX_SAMPLES * 0.01 - 1.0},    # one stride too long
    ])
    def test_unbounded_run_returns_at_once(self, tmp_path, capsys, extra):
        path = write_config(tmp_path, oscillator_config(**extra))
        start = time.perf_counter()
        assert main(["simulate", "--config", path]) == 2
        assert time.perf_counter() - start < 5.0
        err = capsys.readouterr().err
        assert "config: key 't_end'" in err and "Traceback" not in err


class TestVerify:
    def test_pde_suite(self, capsys):
        assert main(["verify", "--suite", "pde"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert set(payload) == {"pde-r1", "pde-r2", "pde-r3"}
        assert all(entry["pass"] for entry in payload.values())

    def test_all_suites_merge(self, capsys):
        assert main(["verify", "--suite", "all"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert len(payload) >= 15
        # the profile-rate bracket reading is recorded as informational
        assert payload["literal-bracket-drift"]["pass"] is False

    def test_report_bytes_reproducible(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        assert main(["verify", "--suite", "noether", "--seed", "5",
                     "--out", str(a)]) == 0
        assert main(["verify", "--suite", "noether", "--seed", "5",
                     "--out", str(b)]) == 0
        assert (a / "report.json").read_bytes() == (b / "report.json").read_bytes()

    def test_perturbed_config_fails_with_named_residual(self, tmp_path, capsys):
        cfg = {"family": {"preset": "oscillator",
                          "params": {"g1": "(poly 1 0 1)"},
                          "perturb": 1e-3}}
        path = write_config(tmp_path, cfg)
        assert main(["verify", "--suite", "pde", "--config", path]) == 1
        payload = json.loads(capsys.readouterr().out)
        assert any(not entry["pass"] for entry in payload.values())

    @pytest.mark.parametrize("key", ["a_values", "b_values", "hbar_values"])
    def test_radial_mode_empty_list_reads_zero(self, tmp_path, capsys, key):
        path = write_config(tmp_path, {"radial-mode": {key: []}})
        assert main(["verify", "--suite", "radial-mode", "--config", path]) == 0
        entry = json.loads(capsys.readouterr().out)["mode-residual"]
        assert entry["max_residual"] == 0.0 and entry["pass"] is True

    def test_unknown_suite(self, capsys):
        assert main(["verify", "--suite", "nonsense"]) == 2
        assert "invalid choice: 'nonsense'" in capsys.readouterr().err

    @pytest.mark.parametrize("cfg", [{}, {"family": {"preset": "oscillator",
                                                     "params": {"g1": "(poly 1 0 1)"}}}],
                             ids=["default", "configured"])
    def test_sweeps_share_one_family(self, tmp_path, capsys, monkeypatch, cfg):
        # pde and noether read one family: one panel fill, one set of
        # compiled evaluators per run; each check is looked up on the verify
        # module when it runs, so a wrapper put there sees the call
        swept = []
        for name in ("pde_residuals", "noether_check"):
            def spy(fam, plan, check=getattr(cli.vf, name)):
                swept.append((fam, plan))
                return check(fam, plan)
            monkeypatch.setattr(cli.vf, name, spy)
        assert main(["verify", "--config", write_config(tmp_path, cfg)]) == 0
        assert len(swept) == 2 and swept[0][0] is swept[1][0] and swept[0][1] == swept[1][1]


class TestOrbit:
    def test_default_cases(self, capsys):
        assert main(["verify", "--suite", "orbit"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert set(payload) == {"orbit-static-scale", "orbit-growing-scale"}
        for entry in payload.values():
            assert entry["max_residual"] <= 1e-7

    def test_nan_deviation_fails(self, tmp_path, capsys):
        # rdot = 1e200 overflows the invariant, so every branch deviation is
        # nan; a reduction that drops nan would report 0.0 and pass
        path = write_config(tmp_path, {"orbit": {"cases": [self.case(
            name="s", initial={"t": 0.0, "r": 1.2, "rdot": 1e200})]}})
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            assert main(["verify", "--suite", "orbit", "--config", path]) == 1
        entry = json.loads(capsys.readouterr().out)["orbit-s"]
        assert entry["max_residual"] is None and entry["pass"] is False

    def test_subcommand_removed(self, capsys):
        # `verify --suite orbit` is the one way to run the orbit cases
        assert main(["orbit"]) == 2
        assert "invalid choice: 'orbit'" in capsys.readouterr().err

    def case(self, **extra):
        return {"phi": "1", "L3": 0.5, "t_end": 1.5,
                "initial": {"t": 0.0, "r": 1.2, "rdot": 0.2}, **extra}

    @pytest.mark.parametrize("cases,message", [
        # the failing first case would vanish behind the second's report entry
        ([{"name": "a", "tolerance": 1e-30}, {"name": "a"}],
         "config.orbit.cases[1]: key 'name': 'a' names an earlier case"),
        ([{"name": "case-2"}, {}],
         "config.orbit.cases[1]: key 'name': 'case-2' names an earlier case"),
        ([{"name": [1]}], "config.orbit.cases[0]: key 'name' has the wrong type"),
    ], ids=["repeated", "default-name", "not-a-string"])
    def test_case_keys(self, tmp_path, capsys, cases, message):
        path = write_config(tmp_path, {"orbit": {"cases": [self.case(**c) for c in cases]}})
        assert main(["verify", "--suite", "orbit", "--config", path]) == 2
        err = capsys.readouterr().err
        assert message in err and "Traceback" not in err


class TestWavefunction:
    def grid_config(self, tmp_path):
        return write_config(tmp_path, {
            "a": 1.0, "b": 1, "hbar": 1.0, "L3": 0.0,
            "phi": "(sqrt (poly 1 0 1))", "t0": 0.0,
            "grid": {"r": [0.5, 2.0, 4], "theta": [0.0, 6.0, 3],
                     "t": [0.0, 2.0, 3]}})

    def test_grid_csv(self, tmp_path, capsys):
        cfg = self.grid_config(tmp_path)
        out = tmp_path / "wf"
        assert main(["wavefunction", "--config", cfg, "--out", str(out)]) == 0
        lines = (out / "wavefunction.csv").read_text().splitlines()
        assert lines[0] == "r,theta,t,re_psi,im_psi,abs_psi"
        assert len(lines) == 1 + 4 * 3 * 3
        re_v, im_v, abs_v = map(float, lines[1].split(",")[3:])
        assert abs((re_v**2 + im_v**2) ** 0.5 - abs_v) <= 1e-15
        capsys.readouterr()

    def test_out_required(self, tmp_path, capsys):
        cfg = self.grid_config(tmp_path)
        assert main(["wavefunction", "--config", cfg]) == 2
        capsys.readouterr()


class TestBinary:
    def test_constant_mass_conserves(self, capsys):
        assert main(["binary"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["energy-drift"]["pass"] is True
        assert payload["l3-drift"]["pass"] is True
        assert payload["l3-drift"]["max_residual"] <= 1e-9

    def test_tolerance_override(self, tmp_path, capsys):
        path = write_config(tmp_path, {"tolerance": 1e-15, "periods": 2.0})
        assert main(["binary", "--config", path]) == 1
        capsys.readouterr()

    def test_polar_run_integrated_once(self, capsys, monkeypatch):
        # the energy drift reads the cross-check's own polar reference run
        runs = []
        integrate = dyn.integrate
        monkeypatch.setattr(dyn, "integrate", lambda *a: runs.append(a) or integrate(*a))
        assert main(["binary"]) == 0
        assert len(runs) == 1
        capsys.readouterr()


# -- property: any one changed key exits 0, 1 or 2, never a traceback ------

_junk = st.one_of(st.none(), st.booleans(), st.text(max_size=3),
                  st.just([]), st.just({}))
_number = st.one_of(st.integers(-10, 10), st.floats(allow_nan=True, allow_infinity=True),
                    st.sampled_from([0, 1e-300, -1e-300, 1e200, -1e200, 1e300, -1e300,
                                     10**400]))
# counts stay small, apart from the values beyond the cap, so that no drawn
# case starts unbounded work
_count = st.one_of(st.integers(-2, 2000),
                   st.sampled_from([MAX_SAMPLES + 1, 10**12, 10**400]))
_value = st.one_of(st.integers(-3, 3), _number, _count, _junk, st.lists(_number, max_size=4),
                   st.tuples(_number, _number, _count).map(list),
                   st.sampled_from(["(poly 1 -1)", "(pow t 400)", "(poly 0 1)", "t",
                                    "(exp (poly 0 800))", "(pow t -1 0 inf)"]))


def _span(lo, hi):
    return st.lists(st.floats(lo, hi), min_size=2, max_size=2).map(sorted)


# valid objects; each example then sets one key (or none) to any value
_plans = st.fixed_dictionaries({}, optional={
    "t_range": _span(-5.0, 5.0), "r_range": _span(0.1, 5.0),
    "rdot_range": _span(-5.0, 5.0), "count": st.integers(1, 2000),
    "seed": st.integers(0, 2**64)})
_grids = st.fixed_dictionaries({
    key: st.tuples(_span(*span), st.integers(1, 12)).map(lambda a: [*a[0], a[1]])
    for key, span in (("r", (0.1, 5.0)), ("theta", (0.0, 7.0)), ("t", (-5.0, 5.0)))})

_INITIAL = {"t": 0.0, "r": 1.0, "rdot": 0.0, "theta": 0.0}
_INLINE = {
    "linear": {"kind": "linear", "g2": "(poly 1 0 0.1)", "g": "(* 0.2 t)", "L3": 0.8},
    "quadratic": {"kind": "quadratic", "g1": "(poly 1 0 0.25)", "g2": "(poly 0.3 0.1)",
                  "F": "(+ (pow t 2) (* 2 (pow t -2)))", "L3": 0.7, "t0": 0.0},
    "driven-1d": {**cli._default_driven_1d()["system"]},
}


def _simulate(family):
    # short runs: t_end <= 2 and at most 5000 steps, whose h_max covers
    # every span the horizon check lets through
    return {"family": family, "initial": dict(_INITIAL), "t_end": 2.0,
            "integrator": {"max_steps": 5000, "h_max": 2.0}}


_ORBIT = {**cli._default_orbit_cases()[0], "initial": {"t": 0.0, "r": 1.2, "rdot": 0.2}}


def _targets():
    """name -> (argv, base config, path to the changed object, its config
    location, its keys); a key outside them tests the unknown-key message."""
    osc = oscillator_config()["family"]
    orbit = _ORBIT
    ermakov = {**cli._default_driven_1d(), "t_end": 2.0}
    wave = {"a": 1.0, "b": 1, "phi": "(sqrt (poly 1 0 1))",
            "grid": {"r": [0.5, 2.0, 3], "theta": [0.0, 1.0, 2], "t": [0.0, 1.0, 2]}}
    out = {
        "simulate": (["simulate"], _simulate(osc), (), "config",
                     ["family", "initial", "t_end", "integrator", "drift_tolerance"]),
        "family": (["simulate"], _simulate(osc), ("family",), "config.family",
                   ["preset", "params", "perturb"]),
        "initial": (["simulate"], _simulate(osc), ("initial",), "config.initial",
                    list(_INITIAL)),
        "integrator": (["simulate"], _simulate(osc), ("integrator",), "config.integrator",
                       ["rtol", "atol", "h_init", "h_max", "max_steps", "stride", "r_min"]),
        "verify": (["verify"], {}, (), "config",
                   ["family", "plan", "rescaling", "orbit", "ermakov", "radial-mode"]),
        "plan": (["verify", "--suite", "pde"], {"plan": {}}, ("plan",), "config.plan",
                 ["t_range", "r_range", "rdot_range", "count", "seed"]),
        "rescaling": (["verify", "--suite", "rescaling"],
                      {"rescaling": {"cases": [cli._default_rescaling_cases()[1]]}},
                      ("rescaling", "cases", 0), "config.rescaling.cases[0]",
                      ["phi", "shape", "L3"]),
        "orbit": (["verify", "--suite", "orbit"], {"orbit": {"cases": [orbit]}},
                  ("orbit", "cases", 0), "config.orbit.cases[0]", list(orbit)),
        "orbit-initial": (["verify", "--suite", "orbit"], {"orbit": {"cases": [orbit]}},
                          ("orbit", "cases", 0, "initial"), "config.orbit.cases[0].initial",
                          list(_INITIAL)),
        "ermakov": (["verify", "--suite", "ermakov"], {"ermakov": ermakov}, ("ermakov",),
                    "config.ermakov", ["system", "initial", "t_end"]),
        "ermakov-system": (["verify", "--suite", "ermakov"], {"ermakov": ermakov},
                           ("ermakov", "system"), "config.ermakov.system",
                           list(ermakov["system"]) + ["perturb"]),
        "ermakov-initial": (["verify", "--suite", "ermakov"], {"ermakov": ermakov},
                            ("ermakov", "initial"), "config.ermakov.initial", list(_INITIAL)),
        "radial-mode": (["verify", "--suite", "radial-mode"], {"radial-mode": {}},
                        ("radial-mode",), "config.radial-mode",
                        ["a_values", "b_values", "hbar_values", "L3"]),
        "wavefunction": (["wavefunction"], wave, (), "config",
                         ["a", "b", "hbar", "L3", "phi", "t0", "grid"]),
        "grid": (["wavefunction"], wave, ("grid",), "config.grid", ["r", "theta", "t"]),
        "binary": (["binary"], {"periods": 1.0}, (), "config",
                   ["G", "b", "r0", "periods", "tolerance", "L3"]),
    }
    for name, _ in pot.catalog():
        params = [k for k in inspect.signature(pot._REGISTRY[name][0]).parameters
                  if k != "label"]
        out[f"preset-{name}"] = (["simulate"], _simulate({"preset": name, "params": {}}),
                                 ("family", "params"), "config.family", params)
    for kind, family in _INLINE.items():
        out[f"kind-{kind}"] = (["simulate"], _simulate(family), ("family",),
                               "config.family", list(family) + ["perturb"])
    return out


_TARGETS = _targets()
# the verify subcommand runs the one suite that reads the changed top-level key
_SUITE_OF = {"family": "pde", "plan": "pde", "rescaling": "rescaling", "orbit": "orbit",
             "ermakov": "ermakov", "radial-mode": "radial-mode"}


@st.composite
def _changes(draw):
    """(target, object to place at its path or None, key or None, value)."""
    name = draw(st.sampled_from(sorted(_TARGETS)))
    obj = draw({"plan": _plans, "grid": _grids}.get(name, st.none()))
    key = draw(st.one_of(st.none(), st.just("bogus"), st.sampled_from(_TARGETS[name][4])))
    return name, obj, key, draw(_value)


def _run_cli(argv, cfg):
    """Exit code and stderr of one in-process run on a config object; an
    exception escaping main is what the command line shows as a traceback.
    Every JSON artifact of the run must be strict JSON."""
    err = StringIO()
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "cfg.json"
        path.write_text(json.dumps(cfg), encoding="utf-8")
        with redirect_stdout(StringIO()), redirect_stderr(err):
            rc = main([*argv, "--config", str(path), "--out", str(Path(tmp) / "out")])
        for artifact in (Path(tmp) / "out").glob("*.json"):
            strict_json(artifact.read_text(encoding="utf-8"))
    return rc, err.getvalue()


def _names(err, where, key):
    """Whether a config error names `key` of the object at `where`: as the
    object `where.key`, or as `where: ` and the key as a word."""
    word = re.compile(rf"(?<![\w-]){re.escape(key)}(?![\w-])")
    return err.startswith("config error: ") and (
        f"{where}.{key}" in err or f"{where}: " in err and word.search(err) is not None)


def assert_exit_contract(argv, cfg, where, key):
    start = time.perf_counter()
    rc, err = _run_cli(argv, cfg)
    assert time.perf_counter() - start < 5.0
    assert rc in (0, 1, 2) and "Traceback" not in err
    if rc == 1:  # a failed check says nothing; a run that stopped says why
        assert err == "" or err.startswith(("run failed: ", "verification failed: ")), err
    if rc == 2:  # only the changed key can be at fault, and the message names it
        assert key is not None and _names(err, where, key), err


def _heavy(name, cfg):
    """Whether a config asks for seconds of valid work: a binary span of 100
    to 10^4 (MAX_SAMPLES strides), or an ermakov start of |q| or |qdot|
    above 100, where the default system's G = w^4 makes the motion stiff
    (at q = 2000 it takes 4.7 s to reach t = 2 on two cores)."""
    try:
        if name == "binary":
            g = {"G": 1.0, "r0": 1.0, **cfg}
            span = float(g["periods"]) * 2.0 * math.pi * math.sqrt(
                float(g["r0"]) ** 3 / float(g["G"]))
            return 100.0 < span <= 1e4
        if name == "ermakov-initial":
            s0 = cfg["ermakov"]["initial"]
            return not (abs(float(s0["r"])) <= 100.0 and abs(float(s0["rdot"])) <= 100.0)
    except (KeyError, TypeError, ValueError, ArithmeticError):
        pass
    return False


_PLUNGE = {**_simulate({"preset": "generalized-kepler",
                        "params": {"nu": 1.0, "k": 1.0, "b0": 1.0, "L3": 0.0}}),
           "integrator": {"max_steps": 5000, "h_max": 2.0, "r_min": 1e-100}}


@settings(max_examples=150, deadline=None)
@given(_changes())
@example(("plan", {"t_range": [0.0, -0.0]}, None, None))
# values that ended in a traceback: a division by k, an infinite phase, and
# float ** overflowing in a potential, a preset shape and the right-hand side
@example(("orbit", None, "k", 0.0))
@example(("wavefunction", None, "a", 1e300))
@example(("rescaling", None, "L3", 1e200))
@example(("preset-oscillator", None, "L3", 1e200))
@example(("binary", None, "L3", 1e300))
@example(("wavefunction", None, "L3", 1e300))
@example(("simulate", {**_simulate({"preset": "interatomic", "params": {}}),
                       "initial": {**_INITIAL, "r": 1e-30}}, None, None))
@example(("simulate", {**_simulate({"preset": "generalized-kepler", "params": {"nu": 400}}),
                       "initial": {**_INITIAL, "r": 0.1}}, None, None))
@example(("preset-yukawa", None, "b1", 1e200))
# orbit case names: repeated, equal to a default name, not a string
@example(("verify", None, "orbit", {"cases": [{**_ORBIT, "name": "a", "tolerance": 1e-30},
                                              {**_ORBIT, "name": "a"}]}))
@example(("verify", None, "orbit", {"cases": [{**_ORBIT, "name": "case-2"}, _ORBIT]}))
@example(("orbit", None, "name", [1]))
# a scale profile that vanishes between the rescaling grid's times
@example(("rescaling", None, "phi", "(poly 1 -1)"))
# a collision with a tiny r_min, and a step bound that cannot reach t_end
@example(("simulate", _PLUNGE, None, None))
@example(("integrator", None, "h_max", 1e-6))
def test_one_changed_key_keeps_exit_contract(change):
    name, obj, key, value = change
    argv, cfg, path, where, _ = copy.deepcopy(_TARGETS[name])
    if not path and obj is not None:
        cfg = copy.deepcopy(obj)
    node = cfg
    for step in path[:-1]:
        node = node[step]
    if path and obj is not None:
        node[path[-1]] = obj
    if path:
        node = node[path[-1]]
    if key is not None:
        node[key] = value
    if argv == ["verify"]:
        argv = ["verify", "--suite", _SUITE_OF.get(key, "pde")]
    assume(not _heavy(name, cfg))
    assert_exit_contract(argv, cfg, where, key)


@settings(max_examples=50, deadline=None)
@given(_plans, st.sampled_from([None, "t_range", "r_range", "rdot_range", "count",
                                "seed", "bogus"]), _value)
@example({}, "count", 10**12)
@example({}, "count", MAX_SAMPLES + 1)
@example({}, "seed", -1)
@example({}, "r_range", [0.0, 1.0])
def test_plan_objects_keep_exit_contract(plan, key, value):
    if key is not None:
        plan[key] = value
    assert_exit_contract(["verify", "--suite", "pde"], {"plan": plan},
                         "config.plan", key)


@settings(max_examples=50, deadline=None)
@given(_grids, st.sampled_from([None, "r", "theta", "t", "phi"]), _value)
@example({"r": [0.5, 1.0, 2], "theta": [0.0, 1.0, 2]}, "t", [0.0, 1.0, 10**12])
@example({"r": [0.5, 1.0, 1001], "theta": [0.0, 1.0, 1000]}, "t", [0.0, 1.0, 1])
def test_grid_objects_keep_exit_contract(grid, key, value):
    if key is not None:
        grid[key] = value
    assert_exit_contract(["wavefunction"], {"a": 1.0, "b": 1, "grid": grid},
                         "config.grid", key)


class TestUsage:
    def test_unknown_subcommand(self, capsys):
        assert main(["frobnicate"]) == 2
        capsys.readouterr()

    def test_no_arguments(self, capsys):
        assert main([]) == 2
        capsys.readouterr()

    def test_reused_parser_matches_first_call(self, tmp_path, capsys, monkeypatch):
        # one process: the parser built by a failing call serves the next
        # calls, and each call prints and exits as it does on a fresh parser
        cfg = write_config(tmp_path, oscillator_config(t_end=2.0))
        calls = [["simulate", "--no-such-option"], ["verify", "--suite", "pde"],
                 ["simulate", "--config", cfg]]

        def run(argv):
            rc = main(argv)
            out = capsys.readouterr()
            return rc, out.out, out.err

        monkeypatch.setattr(cli, "_PARSER", None)
        reused = [run(calls[0])]
        parser = cli._PARSER
        reused += [run(argv) for argv in calls[1:]]
        assert parser is not None and cli._PARSER is parser
        assert [rc for rc, _, _ in reused] == [2, 0, 0]
        first = []
        for argv in calls:
            monkeypatch.setattr(cli, "_PARSER", None)
            first.append(run(argv))
        assert reused == first

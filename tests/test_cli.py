"""Exit codes, artifact layout, and byte determinism of the command line."""

import json
import time

import pytest

from tdcentral.cli import main
from tdcentral.dynamics import MAX_SAMPLES
from tdcentral.quantum import MAX_NODES


def write_config(tmp_path, payload, name="cfg.json"):
    path = tmp_path / name
    path.write_text(json.dumps(payload), encoding="utf-8")
    return str(path)


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
    ])
    def test_radial_mode_values(self, tmp_path, capsys, spec, key):
        path = write_config(tmp_path, {"radial-mode": spec})
        assert main(["verify", "--suite", "radial-mode", "--config", path]) == 2
        err = capsys.readouterr().err
        assert f"config.radial-mode: key {key!r}" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("section", ["ermakov", "radial-mode"])
    def test_non_object_section(self, tmp_path, capsys, section):
        path = write_config(tmp_path, {section: 5})
        assert main(["verify", "--suite", section, "--config", path]) == 2
        err = capsys.readouterr().err
        assert f"config.{section}: must be an object" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("axis", [[0.5, 3, "x"], ["x", 3, 4], [0.5, 3, 0]])
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

    def test_binary_span(self, tmp_path, capsys):
        # the mass law 1 - t/30 fails at t = 30, inside ten periods (62.8)
        rc, err = self.run(tmp_path, capsys, ["binary"],
                           {"b": [1.0, -1.0 / 30.0, 0.0]})
        assert rc == 2 and "config: binary" in err and "t = 30" in err


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

    def test_unknown_suite(self, capsys):
        assert main(["verify", "--suite", "nonsense"]) == 2
        assert "invalid choice: 'nonsense'" in capsys.readouterr().err


class TestOrbit:
    def test_default_cases(self, capsys):
        assert main(["verify", "--suite", "orbit"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert set(payload) == {"orbit-static-scale", "orbit-growing-scale"}
        for entry in payload.values():
            assert entry["max_residual"] <= 1e-7

    def test_subcommand_removed(self, capsys):
        # `verify --suite orbit` is the one way to run the orbit cases
        assert main(["orbit"]) == 2
        assert "invalid choice: 'orbit'" in capsys.readouterr().err


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


class TestUsage:
    def test_unknown_subcommand(self, capsys):
        assert main(["frobnicate"]) == 2
        capsys.readouterr()

    def test_no_arguments(self, capsys):
        assert main([]) == 2
        capsys.readouterr()

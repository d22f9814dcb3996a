"""Exit codes, artifact layout, and byte determinism of the command line."""

import json

import pytest

from tdcentral.cli import main


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
        (["orbit"], "orbit"),
    ])
    def test_non_object_case(self, tmp_path, capsys, argv, section):
        path = write_config(tmp_path, {section: {"cases": [1]}})
        assert main([*argv, "--config", path]) == 2
        assert f"config.{section}.cases[0]" in capsys.readouterr().err

    def test_non_list_cases(self, tmp_path, capsys):
        path = write_config(tmp_path, {"orbit": {"cases": 3}})
        assert main(["verify", "--suite", "orbit", "--config", path]) == 2
        assert "config.orbit: key 'cases'" in capsys.readouterr().err

    def test_preset_interval_not_a_pair(self, tmp_path, capsys):
        cfg = oscillator_config()
        cfg["family"]["params"]["interval"] = 5
        path = write_config(tmp_path, cfg)
        assert main(["simulate", "--config", path]) == 2
        err = capsys.readouterr().err
        assert "config.family" in err and "'interval'" in err

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

    @pytest.mark.parametrize("spec,key", [
        ({"a_values": 5}, "a_values"),
        ({"hbar_values": ["x"]}, "hbar_values"),
        ({"b_values": [0.5]}, "b_values"),
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

    def test_plan_error_prefixed_once(self, tmp_path, capsys):
        path = write_config(tmp_path, {"plan": {"t_range": [1]}})
        assert main(["verify", "--suite", "pde", "--config", path]) == 2
        err = capsys.readouterr().err
        assert "config error: config.plan: key 't_range' must be [lo, hi]" in err
        assert err.count("config.plan") == 1


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
        assert main(["orbit"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert set(payload) == {"orbit-static-scale", "orbit-growing-scale"}
        for entry in payload.values():
            assert entry["max_residual"] <= 1e-7


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

"""Tests of the benchmark itself: seeded inputs, the gate, the tracer.

    python3 -m pytest -q perfbench/tests
"""

import json
import shutil
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(BENCH))

import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

MODS = run.import_tdcentral()


def _inputs(workload, seed, workdir):
    """The op list with each config path replaced by the config's text."""
    out = []
    for op in workloads.make_ops(workload, seed, workdir):
        args = [Path(a).read_text() if a.startswith(str(workdir)) else a
                for a in op.args]
        out.append((args, replace(op, args=())))
    return out


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_generator_gives_identical_inputs_for_a_seed(workload, tmp_path):
    first = _inputs(workload, 7, tmp_path / "a")
    assert _inputs(workload, 7, tmp_path / "b") == first
    assert _inputs(workload, 8, tmp_path / "c") != first


def test_input_properties_match_the_workload_design(tmp_path):
    props = {w: workloads.input_properties(
        workloads.make_ops(w, 1, tmp_path / w)) for w in workloads.WORKLOADS}
    assert [props[w]["antiderivative_share"] for w in workloads.WORKLOADS] \
        == [1.0, 0.0, 1.0]
    far = props["far-horizon"]
    assert 100.0 < far["t_span_min"] and far["t_span_max"] <= 1005.0


def _snapshot():
    """Identity of every attribute of the tdcentral modules and classes."""
    snap = {}
    for mod in MODS.values():
        for name, value in vars(mod).items():
            snap[(mod.__name__, name)] = value
            if isinstance(value, type) and value.__module__.startswith("tdcentral"):
                for attr, member in vars(value).items():
                    snap[(value.__module__, value.__qualname__, attr)] = member
    return snap


def test_tracer_removes_every_wrapper():
    before = _snapshot()
    tracer = tracing.Tracer(MODS)
    with tracer:
        assert len(tracer.patched) > 20
        during = _snapshot()
        changed = [k for k in before if during.get(k) is not before[k]]
        assert len(changed) == len(tracer.patched)
    after = _snapshot()
    assert after.keys() == before.keys()
    assert all(after[k] is before[k] for k in before)
    assert tracer.patched == []


def _first_op(workload, tmp_path):
    return workloads.make_ops(workload, 3, tmp_path / "inputs")[0]


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_traced_and_untraced_ops_emit_identical_bytes(workload, tmp_path):
    op = _first_op(workload, tmp_path)
    plain = run.run_op(MODS["cli"], op, tmp_path / "out")
    with tracing.Tracer(MODS) as tracer:
        traced = run.run_op(MODS["cli"], op, tmp_path / "out")
    assert plain.failure is None and traced.failure is None
    assert plain.files == traced.files
    assert tracer.stats.layers["cli.main"][0] == 1


def test_work_counters_repeat_exactly(tmp_path):
    ops = workloads.make_ops("simulate-ensemble", 5, tmp_path / "inputs")[:3]

    def traced_run():
        tracer = tracing.Tracer(MODS)
        for op in ops:
            with tracer:
                assert run.run_op(MODS["cli"], op, tmp_path / "out").failure is None
        stats = tracer.take()
        return stats.counters, {k: v[0] for k, v in stats.layers.items()}

    first, second = traced_run(), traced_run()
    assert first == second
    counters = first[0]
    assert counters["dynamics.samples"] >= sum(op.samples for op in ops)
    assert counters["dynamics.rhs_evals"] > 0
    assert counters["scalarfn.integrate.integrand_evals"] == 0


def _good_outputs(workload, tmp_path):
    op = _first_op(workload, tmp_path)
    outcome = run.run_op(MODS["cli"], op, tmp_path / "out")
    assert outcome.failure is None
    return op, outcome.files


def test_gate_rejects_wrong_verify_reports(tmp_path):
    op, files = _good_outputs("verify-sweep", tmp_path)
    report = json.loads(files["report.json"])
    assert workloads.check_op(op, 1, files["report.json"].decode(), files)
    for name, verdict in (("pde-r1", False), ("literal-bracket-drift", True)):
        bad = json.loads(json.dumps(report))
        bad[name]["pass"] = verdict
        text = json.dumps(bad)
        assert name in workloads.check_op(
            op, 0, text, {"report.json": text.encode()})


def test_gate_rejects_wrong_simulations(tmp_path):
    op, files = _good_outputs("far-horizon", tmp_path)
    payload = json.loads(files["drift.json"])
    for key, value in (("pass", False), ("termination", "radius_collapse")):
        text = json.dumps({**payload, key: value})
        assert workloads.check_op(op, 0, text, {**files,
                                                "drift.json": text.encode()})
    short = b"\n".join(files["trajectory.csv"].splitlines()[:-1]) + b"\n"
    text = files["drift.json"].decode()
    assert workloads.check_op(op, 0, text, {**files, "trajectory.csv": short})
    assert workloads.check_op(op, 0, text, {**files, "trajectory.csv": None})


def test_tail_has_ten_ops_beyond_it():
    seconds, pct = run.tail([float(i) for i in range(40)])
    assert seconds == 29.0 and pct == 75.0


def test_run_prints_one_result_line(tmp_path):
    proc = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload",
         "simulate-ensemble", "--seed", "2", "--seconds", "0.5", "--trace", "0"],
        capture_output=True, text=True, timeout=300, cwd=BENCH.parent)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    names = {m["name"] for m in json.loads(
        (BENCH.parent / "BENCHMARK.json").read_text())["end_to_end"]}
    assert set(result["metrics"]) == names


def test_run_without_src_exits_nonzero(tmp_path):
    shutil.copytree(BENCH, tmp_path / BENCH.name,
                    ignore=shutil.ignore_patterns("__pycache__", "tests"))
    shutil.copy(BENCH.parent / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, f"{BENCH.name}/run.py", "--workload", "far-horizon",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        capture_output=True, text=True, timeout=180, cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout == ""

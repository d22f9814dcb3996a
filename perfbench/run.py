"""tdcentral benchmark: one workload, one process, one closed-loop client.

    python3 perfbench/run.py --workload verify-sweep --seed 1 --seconds 30 --trace 0

Run from the root of a checkout.  ``tdcentral`` is imported from that
checkout's ``src/``; without it the benchmark exits 2 and prints no result.

An op is one in-process ``tdcentral.cli.main([...])`` call on inputs that
``workloads.make_ops`` generated from the seed.  Ops run back to back with
no threads, each building its families fresh as a CLI run does.  Every op
is checked by ``workloads.check_op``; the first op is run once more (as the
first timed op) and its artifacts must repeat byte for byte.

--trace 0 measures the end-to-end metrics with tracing off:
  op_s.p50      median wall seconds per op
  op_s.tail     seconds at the highest percentile with >= 10 ops beyond it
  setup_s       median over fresh interpreters of start -> inputs ready
  peak_rss_mb   peak resident memory of this process
--trace 1 alternates an untraced and a traced op on the same input and
reports the per-layer metrics of ``tracing.Tracer``, the exact work
counters (per op, over the first ops of the seed's list), the import times
of ``python -X importtime`` and trace.overhead (traced / untraced p50).

The last stdout line is the result object; the line before it carries the
details (op count, tail percentile, failures, input properties, src lines).
"""

from __future__ import annotations

import argparse
import importlib
import io
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass
from pathlib import Path

import tracing
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

TAIL_BEYOND = 10            # ops beyond the reported tail percentile
MIN_OPS = TAIL_BEYOND + 1   # so that the tail is defined
SETUP_PROBES = 5
IMPORT_PROBES = 3
PROBE_TIMEOUT_S = 60
# ops whose traced counters are reported, per workload: a fixed prefix of
# the seed's op list, so the counters repeat exactly for a seed
WORK_OPS = {"verify-sweep": 2, "simulate-ensemble": 6, "far-horizon": 8}
IMPORTED = ("numpy", "scipy.integrate", "tdcentral.scalarfn",
            "tdcentral.potentials", "tdcentral.dynamics", "tdcentral.integrals",
            "tdcentral.verify", "tdcentral.quantum", "tdcentral.cli")
MODULES = ("scalarfn", "potentials", "verify", "dynamics", "integrals",
           "quantum", "cli")


def fail(message: str):
    """Stop with exit code 2 and no result line."""
    print(f"benchmark: {message}", file=sys.stderr)
    raise SystemExit(2)


@dataclass
class Outcome:
    seconds: float
    failure: str | None
    files: dict


def import_tdcentral() -> dict:
    """The tdcentral modules, imported from this checkout's src/."""
    if not (SRC / "tdcentral" / "__init__.py").is_file():
        fail(f"no tdcentral package under {SRC}")
    sys.path.insert(0, str(SRC))
    mods = {name: importlib.import_module(f"tdcentral.{name}")
            for name in MODULES}
    origin = Path(mods["cli"].__file__).resolve()
    if SRC.resolve() not in origin.parents:
        fail(f"tdcentral imported from {origin}, not from {SRC}")
    return mods


def run_op(cli, op: workloads.Op, outdir: Path) -> Outcome:
    argv = [*op.args, "--out", str(outdir)]
    out, err = io.StringIO(), io.StringIO()
    start = time.perf_counter()
    try:
        with redirect_stdout(out), redirect_stderr(err):
            rc = cli.main(argv)
    except Exception as e:  # a traceback fails the op, not the benchmark
        rc = None
        failure = f"raised {type(e).__name__}: {e}"
    seconds = time.perf_counter() - start
    files = {}
    for name in op.outputs:
        path = outdir / name
        files[name] = path.read_bytes() if path.exists() else None
        path.unlink(missing_ok=True)
    if rc is not None:
        failure = workloads.check_op(op, rc, out.getvalue(), files)
    if failure and err.getvalue():
        failure += f" ({err.getvalue().strip().splitlines()[-1]})"
    return Outcome(seconds, failure, files)


class Ledger:
    """Attempted ops and the reasons of the failed ones."""

    def __init__(self):
        self.attempted = 0
        self.failures = []

    def record(self, index: int, outcome: Outcome) -> Outcome:
        self.attempted += 1
        if outcome.failure:
            self.failures.append(f"op {index}: {outcome.failure}")
        return outcome

    def same_bytes(self, index: int, a: Outcome, b: Outcome, what: str):
        if not a.failure and not b.failure and a.files != b.files:
            self.failures.append(f"op {index}: {what} differ")


def probe_setup(workload: str, seed: int, workdir: Path) -> float:
    """Median seconds from a fresh interpreter's start to inputs ready."""
    times = []
    for k in range(SETUP_PROBES):
        probe_dir = workdir / f"probe-{k}"
        cmd = [sys.executable, str(HERE / "setup_probe.py"), "--root",
               str(ROOT), "--workload", workload, "--seed", str(seed),
               "--workdir", str(probe_dir)]
        start = time.perf_counter()
        with subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True) as proc:
            try:
                line = proc.stdout.readline()
                times.append(time.perf_counter() - start)
                proc.wait(timeout=PROBE_TIMEOUT_S)
            finally:
                if proc.poll() is None:
                    proc.kill()
                    proc.wait()
        if line.strip() != "ready" or proc.returncode != 0:
            fail(f"set-up probe failed: {' '.join(cmd)}")
        shutil.rmtree(probe_dir, ignore_errors=True)
    return statistics.median(times)


def probe_imports() -> dict:
    """Median cumulative import seconds per module (python -X importtime)."""
    code = f"import sys; sys.path.insert(0, {str(SRC)!r}); import tdcentral.cli"
    samples = {name: [] for name in IMPORTED}
    for _ in range(IMPORT_PROBES):
        proc = subprocess.run([sys.executable, "-X", "importtime", "-c", code],
                              capture_output=True, text=True,
                              timeout=PROBE_TIMEOUT_S, check=True)
        seen = {}
        for line in proc.stderr.splitlines():
            parts = line.split("|")
            if len(parts) == 3 and parts[1].strip().isdigit():
                seen[parts[2].strip()] = int(parts[1]) * 1e-6
        for name in IMPORTED:
            samples[name].append(seen[name])
    return {name: statistics.median(v) for name, v in samples.items()}


def src_lines() -> int:
    return sum(len(p.read_text(encoding="utf-8").splitlines())
               for p in sorted(SRC.rglob("*.py")))


def tail(times: list) -> tuple:
    """(seconds, percentile) with TAIL_BEYOND ops beyond it."""
    ordered = sorted(times)
    n = len(ordered)
    return ordered[n - TAIL_BEYOND - 1], 100.0 * (n - TAIL_BEYOND) / n


def measure(cli, ops, seconds, outdir, ledger) -> dict:
    warm = ledger.record(0, run_op(cli, ops[0], outdir))
    times = []
    deadline = time.perf_counter() + seconds
    while time.perf_counter() < deadline or len(times) < MIN_OPS:
        i = len(times)
        outcome = ledger.record(i, run_op(cli, ops[i % len(ops)], outdir))
        if i == 0:
            ledger.same_bytes(0, warm, outcome, "re-run artifacts")
        times.append(outcome.seconds)
    tail_s, pct = tail(times)
    return {"metrics": {"op_s.p50": (statistics.median(times), "s"),
                        "op_s.tail": (tail_s, "s")},
            "detail": {"timed_ops": len(times),
                       "tail_percentile": round(pct, 2),
                       "tail_ops_beyond": TAIL_BEYOND}}


def measure_traced(mods, ops, workload, seconds, outdir, ledger) -> dict:
    cli = mods["cli"]
    warm = ledger.record(0, run_op(cli, ops[0], outdir))
    tracer = tracing.Tracer(mods)
    work, timing = tracing.Stats(), tracing.Stats()
    work_ops = WORK_OPS[workload]
    plain, traced = [], []
    deadline = time.perf_counter() + seconds
    while time.perf_counter() < deadline or len(traced) < work_ops:
        i = len(traced)
        op = ops[i % len(ops)]
        a = ledger.record(i, run_op(cli, op, outdir))
        with tracer:
            b = ledger.record(i, run_op(cli, op, outdir))
        stats = tracer.take()
        timing.add(stats)
        if i < work_ops:
            work.add(stats)
        if i == 0:
            ledger.same_bytes(0, warm, a, "re-run artifacts")
        ledger.same_bytes(i, a, b, "traced and untraced artifacts")
        plain.append(a.seconds)
        traced.append(b.seconds)
    n = len(traced)
    metrics = {}
    for layer in tracing.LAYERS:
        calls, _, _ = work.layers[layer]
        _, busy, self_s = timing.layers[layer]
        metrics[f"{layer}.calls"] = (calls / work_ops, "count")
        metrics[f"{layer}.busy_s"] = (busy / n, "s")
        metrics[f"{layer}.self_s"] = (self_s / n, "s")
    for name, value in work.counters.items():
        metrics[name] = (value / work_ops, "count")
    quad_calls = work.layers["scalarfn.integrate"][0]
    evals = work.counters["scalarfn.integrate.integrand_evals"]
    metrics["scalarfn.integrate.evals_per_call"] = (
        evals / quad_calls if quad_calls else 0.0, "ratio")
    for name, value in probe_imports().items():
        metrics[f"{name}.import_s"] = (value, "s")
    metrics["trace.overhead"] = (statistics.median(traced)
                                 / statistics.median(plain), "ratio")
    return {"metrics": metrics,
            "detail": {"traced_ops": n, "work_ops": work_ops,
                       "op_s.p50.untraced": statistics.median(plain),
                       "op_s.p50.traced": statistics.median(traced)}}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    mods = import_tdcentral()
    workdir = ROOT / ".bench_work" / f"run-{os.getpid()}"
    try:
        ops = workloads.make_ops(args.workload, args.seed, workdir / "inputs")
        outdir = workdir / "out"
        ledger = Ledger()
        if args.trace:
            result = measure_traced(mods, ops, args.workload, args.seconds,
                                    outdir, ledger)
        else:
            result = measure(mods["cli"], ops, args.seconds, outdir, ledger)
            result["metrics"]["setup_s"] = (
                probe_setup(args.workload, args.seed, workdir), "s")
            peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
            result["metrics"]["peak_rss_mb"] = (peak, "MiB")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            (ROOT / ".bench_work").rmdir()
        except OSError:
            pass

    failed = len(ledger.failures)
    detail = {"workload": args.workload, "seed": args.seed,
              "trace": args.trace, "error_rate": failed / ledger.attempted,
              "failures": ledger.failures[:10],
              "inputs": workloads.input_properties(ops),
              "src_lines": src_lines(), **result["detail"]}
    print(json.dumps({"detail": detail}, sort_keys=True))
    print(json.dumps({
        "correct": failed == 0, "attempted": ledger.attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in result["metrics"].items()}}))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())

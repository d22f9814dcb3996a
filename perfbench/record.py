"""Run the benchmark over several seeds and summarise the spread.

    python3 perfbench/record.py --seeds 1-10 --seconds 30
    python3 perfbench/record.py --workloads far-horizon --seeds 1-2 \
        --repeat 2 --trace 1 --out perfbench/results/trace.json

Each run is ``run.py`` in its own process, one after another.  For every
workload and metric it prints the median and the quartile spread
(Q3 - Q1) / median of ``statistics.quantiles(values, n=4)``, and with
``--repeat`` it checks that each work counter reads exactly the same in
every run of one seed.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

import workloads

HERE = Path(__file__).resolve().parent


def seed_list(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def run_once(workload: str, seed: int, seconds: float, trace: int) -> dict:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=900,
                          cwd=HERE.parent)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or len(lines) < 2:
        raise SystemExit(f"{' '.join(cmd)} exited {proc.returncode}:\n"
                         f"{proc.stdout}{proc.stderr}")
    result = json.loads(lines[-1])
    result["detail"] = json.loads(lines[-2])["detail"]
    return result


def summarise(runs: list) -> dict:
    out = {}
    for name in runs[0]["metrics"]:
        values = [r["metrics"][name]["value"] for r in runs]
        med = statistics.median(values)
        q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 \
            else (med, med, med)
        out[name] = {"median": med, "q1": q1, "q3": q3,
                     "spread": (q3 - q1) / med if med else 0.0,
                     "unit": runs[0]["metrics"][name]["unit"]}
    return out


def counter_mismatches(runs: list) -> list:
    """Counters that differ between runs of the same seed."""
    by_seed, bad = {}, []
    for r in runs:
        by_seed.setdefault(r["detail"]["seed"], []).append(r["metrics"])
    for seed, group in by_seed.items():
        for name, m in group[0].items():
            if m["unit"] == "count" and any(
                    g[name]["value"] != m["value"] for g in group[1:]):
                bad.append(f"seed {seed}: {name}")
    return bad


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workloads", default=",".join(workloads.WORKLOADS))
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--repeat", type=int, default=1)
    parser.add_argument("--out")
    args = parser.parse_args()

    report = {}
    for workload in args.workloads.split(","):
        runs = [run_once(workload, seed, args.seconds, args.trace)
                for seed in seed_list(args.seeds) for _ in range(args.repeat)]
        summary = summarise(runs)
        report[workload] = {
            "runs": len(runs),
            "attempted": sum(r["attempted"] for r in runs),
            "failed": sum(r["failed"] for r in runs),
            "inputs": runs[0]["detail"]["inputs"],
            "src_lines": runs[0]["detail"]["src_lines"],
            "metrics": summary,
            "counter_mismatches": counter_mismatches(runs),
            "values": {name: [r["metrics"][name]["value"] for r in runs]
                       for name in summary},
        }
        print(f"{workload}: {len(runs)} runs, "
              f"{report[workload]['failed']}/{report[workload]['attempted']} "
              f"ops failed, counter mismatches "
              f"{report[workload]['counter_mismatches'] or 'none'}")
        for name, s in summary.items():
            print(f"  {name:42s} {s['median']:12.6g} {s['unit']:6s} "
                  f"spread {100 * s['spread']:6.2f}%")
        sys.stdout.flush()
    if args.out:
        Path(args.out).write_text(json.dumps(report, indent=1, sort_keys=True)
                                  + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())

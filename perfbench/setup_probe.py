"""Set-up probe: what a fresh interpreter does before the first op.

Imports ``tdcentral.cli`` from the checkout's ``src/``, generates the
workload's inputs into ``--workdir`` and prints ``ready``.  ``run.py``
times it from process start to that line.

    python3 perfbench/setup_probe.py --root . --workload far-horizon \
        --seed 1 --workdir .bench_work/probe
"""

import argparse
import sys
from pathlib import Path


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--root", required=True)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--workdir", required=True)
    args = parser.parse_args()
    sys.path.insert(0, str(Path(args.root) / "src"))
    import tdcentral.cli  # noqa: F401  (the import is what is timed)
    import workloads
    workloads.make_ops(args.workload, args.seed, Path(args.workdir))
    print("ready", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())

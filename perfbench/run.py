#!/usr/bin/env python3
"""Run the bnsl benchmark.

    python3 perfbench/run.py --workload alarm-ci --seed 1 --seconds 20 --trace 0

prints a table of the workload's metrics and, as its last line, the JSON
result. Without --workload it runs every workload, each in a fresh process,
one after the other. It exits non-zero when an output check fails or when
bnsl cannot be imported from this checkout's src/ directory.
"""

from __future__ import annotations

import argparse
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("alarm-ci", "alarm-hc", "gauss40", "mc-tests")


def _import_bnsl():
    """Import bnsl from this checkout only, with OpenBLAS held to one thread.

    The run is serial. On a 2-core machine a second BLAS thread spent CPU
    time spinning and made gauss40's passes 5-10% slower, not faster.
    """
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS"):
        os.environ[var] = "1"
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    try:
        import bnsl
    except ImportError as exc:
        sys.exit(f"error: cannot import bnsl from {src}: {exc}")
    if Path(bnsl.__file__).resolve().parent != src / "bnsl":
        sys.exit(f"error: bnsl was imported from {bnsl.__file__}, not from {src}")


def _run_all(args) -> int:
    status = 0
    for workload in WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        done = subprocess.run(cmd, check=False)
        status = status or done.returncode
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS,
                        help="one workload (default: all, each in its own process)")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0,
                        help="measuring time of the run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1: per-layer metrics from a traced run")
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be non-negative")
    if args.workload is None:
        return _run_all(args)

    _import_bnsl()
    import bench

    out = ROOT / ".perfbench"
    tag = f"{args.workload}-{args.seed}"
    result = bench.run(args.workload, args.seed, args.seconds, bool(args.trace),
                       out / f"{tag}-{os.getpid()}",
                       out / f"spans-{tag}.npz" if args.trace else None)
    print(result.table())
    print(result.line(), flush=True)
    return 0 if result.correct else 1


if __name__ == "__main__":
    sys.exit(main())

"""psygat benchmark: one workload, one seed, one fixed-length measurement.

    python3 perfbench/run.py --workload {train_short,screen_long,explain} \
        --seed N --seconds S --trace {0,1}

Run from the root of a checkout; the program is imported from its `src/`.
See perfbench/README.md for the workloads and metrics.
"""

from __future__ import annotations

import os

# Pinned before numpy loads: at this model size a second BLAS thread on a
# 2-core machine only adds scheduler noise.
BLAS_THREADS = "1"
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS

import argparse  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("train_short", "screen_long", "explain")


def parse_args(argv):
    p = argparse.ArgumentParser(description="psygat benchmark")
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def main(argv=None):
    args = parse_args(argv)
    if args.seconds <= 0:
        print("perfbench: --seconds must be positive", file=sys.stderr)
        return 2
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    try:
        import psygat
    except ImportError as exc:
        print(f"perfbench: cannot import psygat from {ROOT / 'src'}: {exc}", file=sys.stderr)
        return 2
    if Path(psygat.__file__).resolve().parent != ROOT / "src" / "psygat":
        print(f"perfbench: psygat resolved to {psygat.__file__}, not this checkout",
              file=sys.stderr)
        return 2
    from perfbench import bench

    return bench.run(args, ROOT / "perfbench" / "out", int(BLAS_THREADS))


if __name__ == "__main__":
    sys.exit(main())

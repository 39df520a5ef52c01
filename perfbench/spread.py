"""Run every workload once per seed and report the run-to-run spread.

    python3 perfbench/spread.py [--workload NAME ...] [--seeds 10] [--first-seed 0] [--batches 1]

Runs perfbench/run.py with the BENCHMARK.json command and run length, one
run at a time, for each workload (all of them by default) and seed. It
prints each run's end-to-end metrics with units, then per workload and
batch each metric's median and quartile spread (third minus first
quartile over the median) next to the metric's bound. With `--batches 2`
or more, batch b takes the next `--seeds` seeds after batch b-1, the
batches' runs alternate so that slow drift of the host's speed falls on
all of them alike, and each later batch's median is compared with the
first one's: `shift` is how much worse it is, as a share of the first
median. Exits non-zero if a run fails.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT))

from perfbench import stats  # noqa: E402


def run_once(spec, workload, seed):
    cmd = [*spec["command"], "--workload", workload, "--seed", str(seed),
           "--seconds", str(spec["run_seconds"]), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if lines and lines[-1].startswith("{") else None
    if proc.returncode != 0 or result is None or not result["correct"]:
        raise RuntimeError(f"{workload} seed {seed}: exit {proc.returncode}\n"
                           f"{proc.stdout[-2000:]}{proc.stderr[-2000:]}")
    return result["metrics"]


def worse_by(metric, first, later):
    """How much worse `later` is than `first`, as a share of `first`."""
    change = (later - first) / first
    return change if metric["better"] == "lower" else -change


def main(argv=None):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    names = [w["name"] for w in spec["workloads"]]
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", action="append", choices=names)
    p.add_argument("--seeds", type=int, default=10)
    p.add_argument("--first-seed", type=int, default=0)
    p.add_argument("--batches", type=int, default=1)
    args = p.parse_args(argv)
    for workload in args.workload or names:
        values = [{m["name"]: [] for m in spec["end_to_end"]} for _ in range(args.batches)]
        for i in range(args.seeds):
            for b, batch in enumerate(values):
                seed = args.first_seed + b * args.seeds + i
                try:
                    metrics = run_once(spec, workload, seed)
                except RuntimeError as exc:
                    print(exc, file=sys.stderr)
                    return 1
                for name in batch:
                    batch[name].append(metrics[name]["value"])
                print(f"{workload} batch {b} seed {seed}: " + " ".join(
                    f"{k}={m['value']:.6g}{m['unit']}" for k, m in metrics.items()), flush=True)
        if args.seeds < 2:
            continue
        for b, batch in enumerate(values):
            for metric in spec["end_to_end"]:
                v = batch[metric["name"]]
                median = statistics.median(v)
                line = (f"{workload:12s} batch {b} {metric['name']:18s} median {median:12.6g} "
                        f"{metric['unit']:4s} spread {stats.quartile_spread(v):.4f}")
                if b:
                    first = statistics.median(values[0][metric["name"]])
                    line += f" shift {worse_by(metric, first, median):+.4f}"
                print(f"{line} bound {metric['bound']}", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())

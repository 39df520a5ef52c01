"""Set up, measure, reduce and report one benchmark run.

With trace off the run reports the end-to-end metrics. With trace on it
runs the workload once untraced and once traced, and reports the
per-layer metrics plus the tracing overhead between the two runs.

The set-up is timed SETUPS times: once before the run, and then at even
intervals of the untraced run's measured time, between two operations.
The host's speed changes from second to second, and set-ups spread over
the run sample those changes the way the run itself does, where set-ups
made back to back would all land in one of them.
"""

from __future__ import annotations

import contextlib
import json
import os
import platform
import resource
import shutil
import statistics
import time

import numpy as np

from perfbench import stats, tracing, workloads

SETUPS = 7


def _cpu_model():
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.machine()


def environment(seed, blas_threads):
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": blas_threads,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "seed": seed,
    }


def end_to_end(setup_times, outcome):
    """The BENCHMARK.json end-to-end metrics of an untraced run."""
    return {
        "setup_s": (statistics.median(setup_times), "s"),
        "throughput_per_s": (outcome.items / outcome.busy_s if outcome.busy_s else 0.0, "1/s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }


def latency(outcome):
    """Median and tail operation latency, printed and recorded but not gated."""
    p95, _ = stats.tail_percentile(outcome.latencies)
    return {
        "latency_p50_ms": (1000.0 * statistics.median(outcome.latencies), "ms"),
        "latency_p95_ms": (1000.0 * p95, "ms"),
    }


def _is_operation(op):
    return op.startswith(workloads.OPERATIONS)


def per_layer(tracer, traced, untraced, peak_mb):
    """Per-layer metrics of a traced run.

    `.fwd_s`, `.bwd_s`, `tensor.backward_s` and `tensor.ops_per_step` are
    self times and counts inside operations only, so on train_short they
    leave out model initialisation and validation scoring. Other `_s`
    metrics are the inclusive time of every call into that function during
    the traced run. Both are per operation of the traced run, except the
    set-up layers (datagen and checkpoint save/load), which are per set-up.
    A layer that the workload does not call reads 0.
    """
    ops = len(traced.latencies)
    inside = tracer.layer_times(_is_operation)
    run = tracer.layer_times(lambda op: not op.startswith("setup"))
    setup = tracer.layer_times(lambda op: op.startswith("setup"))

    def get(name, field, table=inside):
        return table.get(name, {}).get(field, 0)

    tensors = sum(n for op, n in tracer.tensors.items() if _is_operation(op))
    m = {
        "tensor.ops_per_step": (tensors / ops, "count/op"),
        "tensor.backward_s": (get("tensor.backward", "self") / ops, "s/op"),
        "tensor.step_peak_mb": (peak_mb, "MB"),
    }
    for layer, span in (("project_inputs", "model.project_inputs"),
                        ("gat_layer", "model.gat_layer"),
                        ("set2set_readout", "model.set2set_readout"),
                        ("head", "model.forward")):
        m[f"model.{layer}.fwd_s"] = (get(span, "self") / ops, "s/op")
        m[f"model.{layer}.bwd_s"] = (get(span + ".bwd", "self") / ops, "s/op")
    m["model.forward_calls"] = (get("model.forward", "calls") / ops, "count/op")
    for name in ("train.focal_loss", "train.info_nce", "causal.edge_logits"):
        m[f"{name}.fwd_s"] = (get(name, "self") / ops, "s/op")
        m[f"{name}.bwd_s"] = (get(name + ".bwd", "self") / ops, "s/op")
    for name in ("train.clip_gradients", "train.adamw_step", "train.predict_probs",
                 "metrics.pr_auc", "embed.embed_sessions", "peu.build_peu_tensor",
                 "graph.build_graph", "checkpoints.hash", "causal.session_node_reps",
                 "causal.extract_instances", "causal.train_scorer", "causal.rank_and_evaluate"):
        m[f"{name}_s"] = (get(name, "total", run) / ops, "s/op")
    for name in ("datagen.generate_corpus", "checkpoints.save", "checkpoints.load"):
        m[f"{name}_s"] = (get(name, "total", setup) / SETUPS, "s")
    # fit calls clip_gradients exactly once per step, and nothing else calls it
    m["train.steps"] = (get("train.clip_gradients", "calls", run), "count")
    m["embed.utterances"] = (tracer.counts.get("embed.utterances", 0) / ops, "count/op")
    m["causal.edges_scored"] = (tracer.counts.get("causal.edges_scored", 0) / ops, "count/op")
    overhead = (untraced.items / untraced.busy_s) / (traced.items / traced.busy_s) - 1.0
    m["trace.overhead_pct"] = (100.0 * overhead, "%")
    return m


@contextlib.contextmanager
def _recording(tracer, op=None):
    if tracer is None:
        yield
        return
    if op is not None:
        tracer.op = op
    with tracer.instrument():
        yield


def measure(workload, seed, seconds, trace, workdir):
    """Set up SETUPS times and run; returns (outcome, set-up times, end-to-end,
    per-layer, tracer)."""
    tracer = tracing.Tracer() if trace else None
    setup_times = []

    def timed_setup():
        k = len(setup_times)
        with _recording(tracer, f"setup{k}"):
            start = time.perf_counter()
            state = workload.setup(seed, workdir / f"setup{k}")
            setup_times.append(time.perf_counter() - start)
        return state

    def between(elapsed):
        # set-up k of the run falls at (k - 1/2) / (SETUPS - 1) of its seconds
        k = len(setup_times)
        if k < SETUPS and elapsed >= (k - 0.5) / (SETUPS - 1) * seconds:
            timed_setup()

    state = timed_setup()
    outcome = workload.run(state, workloads.Clock(seconds, between))
    while len(setup_times) < SETUPS:  # the run ended before the last set-ups were due
        timed_setup()
    e2e = end_to_end(setup_times, outcome)
    if workload.check is not None:
        workload.check(state, outcome)
    layers = None
    if tracer is not None:
        tracer.tensors, tracer.counts = {}, {}  # counts cover the traced run only
        tracer.op = "run"
        with _recording(tracer):
            traced = workload.run(state, workloads.Clock(seconds), tracer)
        if workload.check is not None:
            workload.check(state, traced)
        layers = per_layer(tracer, traced, outcome, workload.memory_probe(state))
        outcome.attempted += traced.attempted
        outcome.failed += traced.failed
        outcome.checks.update({f"traced.{k}": v for k, v in traced.checks.items()})
    return outcome, setup_times, e2e, layers, tracer


def run(args, out_dir, blas_threads):
    workload = workloads.WORKLOADS[args.workload]
    workdir = out_dir / f"work-{args.workload}-{os.getpid()}"
    try:
        outcome, setup_times, e2e, layers, tracer = measure(
            workload, args.seed, args.seconds, args.trace, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    env = environment(args.seed, blas_threads)
    rate = stats.error_rate(outcome.attempted, outcome.failed)
    correct = outcome.failed == 0 and all(outcome.checks.values())
    _, tail_level = stats.tail_percentile(outcome.latencies)

    table = dict(e2e)
    table.update(latency(outcome))
    table.update({workload.names[k]: v for k, v in table.items() if k in workload.names})
    table.update(outcome.named)
    table["error_rate"] = (rate, "ratio")
    table.update(layers or {})
    print(f"# psygat benchmark: {args.workload} seed={args.seed} seconds={args.seconds} "
          f"trace={args.trace}")
    print("# env " + " ".join(f"{k}={v}" for k, v in env.items()))
    for name, (value, unit) in table.items():
        print(f"{name:34s} {value:14.6g} {unit}")
    print(f"# {len(outcome.latencies)} operations, tail latency at p{tail_level:.1f}; "
          f"attempted {outcome.attempted}, failed {outcome.failed}; checks {outcome.checks}")

    def as_json(metrics):
        return {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}

    result = {
        "correct": correct,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": as_json(layers if args.trace else e2e),
    }
    out_dir.mkdir(parents=True, exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    record = dict(result, workload=args.workload, seconds=args.seconds, env=env,
                  operations=len(outcome.latencies), tail_level=tail_level,
                  setup_times_s=setup_times,
                  latencies_ms=[1000.0 * x for x in outcome.latencies],
                  checks=outcome.checks, all_metrics=as_json(table))
    (out_dir / f"{stem}.json").write_text(json.dumps(record, indent=2) + "\n", encoding="utf-8")
    if tracer is not None:
        tracer.dump(out_dir / f"{stem}-spans.json")
    print(json.dumps(result))
    return 0 if correct else 1

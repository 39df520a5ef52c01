"""Layer spans recorded from outside psygat.

`Tracer.instrument()` rebinds psygat's public functions, wherever a psygat
module holds a reference to them, to wrappers that open a span around the
call. It also wraps the `psygat.tensor` op functions so that each backward
closure runs timed and is charged to the layer that created its tensor,
which splits backward time by layer. Everything is restored on exit.

`patched()` is the same rebinding for a single function; the workloads
use it for the light probes they need without tracing (step boundaries
and the per-step loss check).
"""

from __future__ import annotations

import contextlib
import json
import sys
from time import perf_counter

from psygat import causal, checkpoints, datagen, embed, graph, model, peu
from psygat import tensor as T
from psygat import train

from perfbench import stats

# (owner, attribute, span name, counter name, count(args, result))
LAYERS = (
    (datagen, "generate_corpus", "datagen.generate_corpus", None, None),
    (embed, "embed_sessions", "embed.embed_sessions", "embed.utterances",
     lambda args, out: sum(s.T for s in args[0])),
    (peu, "build_peu_tensor", "peu.build_peu_tensor", None, None),
    (graph, "build_graph", "graph.build_graph", None, None),
    (model, "forward", "model.forward", None, None),
    (model, "project_inputs", "model.project_inputs", None, None),
    (model, "gat_layer", "model.gat_layer", None, None),
    (model, "set2set_readout", "model.set2set_readout", None, None),
    (train, "focal_loss", "train.focal_loss", None, None),
    (train, "info_nce", "train.info_nce", None, None),
    (train, "clip_gradients", "train.clip_gradients", None, None),
    (train.AdamW, "step", "train.adamw_step", None, None),
    (train, "predict_probs", "train.predict_probs", None, None),
    (train, "pr_auc", "metrics.pr_auc", None, None),
    (T, "backward", "tensor.backward", None, None),
    (checkpoints, "save_checkpoint", "checkpoints.save", None, None),
    (checkpoints, "load_checkpoint", "checkpoints.load", None, None),
    (checkpoints, "checkpoint_hash", "checkpoints.hash", None, None),
    (causal, "session_node_reps", "causal.session_node_reps", None, None),
    (causal, "extract_instances", "causal.extract_instances", None, None),
    (causal, "train_scorer", "causal.train_scorer", None, None),
    (causal, "rank_and_evaluate", "causal.rank_and_evaluate", None, None),
    (causal, "edge_logits", "causal.edge_logits", "causal.edges_scored",
     lambda args, out: args[0].shape[0]),
)

# psygat.tensor functions that return a new Tensor with a backward closure.
TENSOR_OPS = (
    "add", "sub", "mul", "matmul", "add_bias", "scale_rows", "leaky_relu", "elu",
    "sigmoid", "tanh", "softplus", "log", "exp", "pow_const", "dropout",
    "layer_norm", "segment_softmax", "segment_sum", "gather_rows", "concat_cols",
    "concat_rows", "slice_cols", "reshape", "transpose", "tsum", "tmean",
    "l2_normalize_rows",
)

@contextlib.contextmanager
def patched(owner, attr, make_wrapper):
    """Replace owner.attr by make_wrapper(original) in owner and in every
    psygat module that imported the same object by name; restore on exit."""
    original = getattr(owner, attr)
    wrapper = make_wrapper(original)
    sites = [(owner, attr)]
    if not isinstance(owner, type):
        for name, mod in list(sys.modules.items()):
            if (name == "psygat" or name.startswith("psygat.")) and mod is not owner:
                for key, value in vars(mod).items():
                    if value is original:
                        sites.append((mod, key))
    for obj, key in sites:
        setattr(obj, key, wrapper)
    try:
        yield
    finally:
        for obj, key in sites:
            setattr(obj, key, original)


class Tracer:
    """Spans kept in memory: [name, start, end, parent index, op id]."""

    def __init__(self):
        self.spans = []
        self.stack = []  # indices of the open spans, innermost last
        self.bwd_names = []  # "<name>.bwd" of the open spans, innermost last
        self.charged = {}  # (parent span, "<layer>.bwd") -> [seconds, calls]
        self.counts = {}
        self.tensors = {}  # op id -> Tensors created while it ran
        self.op = "setup0"

    # -- recording --

    def _span_wrapper(self, name, counter, count):
        bwd_name = name + ".bwd"

        def make(fn):
            def wrapper(*args, **kwargs):
                parent = self.stack[-1] if self.stack else None
                record = [name, perf_counter(), None, parent, self.op]
                self.stack.append(len(self.spans))
                self.bwd_names.append(bwd_name)
                self.spans.append(record)
                try:
                    out = fn(*args, **kwargs)
                finally:
                    record[2] = perf_counter()
                    self.stack.pop()
                    self.bwd_names.pop()
                if counter is not None:
                    self.counts[counter] = self.counts.get(counter, 0) + count(args, out)
                return out

            return wrapper

        return make

    def _op_wrapper(self, fn):
        def op(*args, **kwargs):
            out = fn(*args, **kwargs)
            closure = out._backward
            if closure is not None and not (args and out is args[0]):
                layer = self.bwd_names[-1] if self.bwd_names else "unattributed.bwd"
                out._backward = self._timed_closure(closure, layer)
            return out

        return op

    def _timed_closure(self, closure, key_name):
        def backward(g):
            start = perf_counter()
            closure(g)
            elapsed = perf_counter() - start
            key = (self.stack[-1] if self.stack else None, key_name)
            acc = self.charged.get(key)
            if acc is None:
                self.charged[key] = [elapsed, 1]
            else:
                acc[0] += elapsed
                acc[1] += 1

        return backward

    def _counting_init(self, init):
        def __init__(tensor, *args, **kwargs):
            self.tensors[self.op] = self.tensors.get(self.op, 0) + 1
            init(tensor, *args, **kwargs)

        return __init__

    @contextlib.contextmanager
    def instrument(self):
        """Record spans, backward time and counts until the context exits."""
        with contextlib.ExitStack() as stack:
            for owner, attr, name, counter, count in LAYERS:
                stack.enter_context(patched(owner, attr, self._span_wrapper(name, counter, count)))
            for attr in TENSOR_OPS:
                stack.enter_context(patched(T, attr, self._op_wrapper))
            stack.enter_context(patched(T.Tensor, "__init__", self._counting_init))
            yield self

    # -- reduction --

    def layer_times(self, measured):
        """Per span name: {"self": s, "total": s, "calls": n} over spans whose
        op satisfies measured(op); backward closures appear as "<layer>.bwd"."""
        spans = [(r[0], r[1], r[2], r[3]) for r in self.spans]
        charged = [(parent, acc[0]) for (parent, _), acc in self.charged.items()
                   if parent is not None]
        selfs = stats.self_times(spans, charged)
        out = {}
        for record, own in zip(self.spans, selfs):
            if not measured(record[4]):
                continue
            entry = out.setdefault(record[0], {"self": 0.0, "total": 0.0, "calls": 0})
            entry["self"] += own
            entry["total"] += record[2] - record[1]
            entry["calls"] += 1
        for (parent, name), (seconds, calls) in self.charged.items():
            op = self.spans[parent][4] if parent is not None else self.op
            if not measured(op):
                continue
            entry = out.setdefault(name, {"self": 0.0, "total": 0.0, "calls": 0})
            entry["self"] += seconds
            entry["total"] += seconds
            entry["calls"] += calls
        return out

    def dump(self, path):
        """Write every span and charged backward total as JSON."""
        payload = {
            "fields": ["name", "start", "end", "parent", "op"],
            "spans": self.spans,
            "charged": [
                {"name": name, "parent": parent, "seconds": seconds, "calls": calls}
                for (parent, name), (seconds, calls) in self.charged.items()
            ],
        }
        path.write_text(json.dumps(payload), encoding="utf-8")

"""The three workloads: inputs from a seed, a closed loop with one caller
for a fixed time, and correctness checks on every output.

Each workload has `setup(seed, workdir)` returning its state, `run(state,
clock, tracer)` returning an `Outcome`, an optional `check(state,
outcome)` for checks too costly to run inside the timed loop, and
`memory_probe(state)` returning the tracemalloc peak in MB of one
operation. Operations are train steps (train_short), screened sessions
(screen_long) and explain passes (explain); `tracer`, when given, is told
which operation is running so its spans carry that id. Work between two
train steps (model initialisation, validation scoring) runs under the id
`between<k>`; ids that start with one of OPERATIONS are operations.
"""

from __future__ import annotations

import contextlib
import json
import statistics
import tracemalloc
from dataclasses import dataclass, field
from time import perf_counter

import numpy as np

from psygat import causal, checkpoints, datagen, embed, graph, model, peu, pipeline, train
from psygat import tensor as T
from psygat.sessions import Session

from perfbench import stats
from perfbench.tracing import patched

TRAIN_EPOCHS = 2
SCREEN_SESSIONS = 120
SCREEN_UTTERANCES = (40, 56)
SCREEN_MEMBERS = 5
PROB_TOLERANCE = 1e-6
OPERATIONS = ("step", "request", "pass")


@dataclass
class Outcome:
    latencies: list = field(default_factory=list)  # seconds per operation
    items: int = 0  # graphs trained, sessions screened or sessions explained
    busy_s: float = 0.0  # time spent on the operations that produced them
    attempted: int = 0
    failed: int = 0
    checks: dict = field(default_factory=dict)  # whole-run check name -> passed
    named: dict = field(default_factory=dict)  # workload-specific metric -> (value, unit)
    outputs: object = None  # what `check` inspects after the timed loop


class Clock:
    """The measured time of a run loop.

    `running()` first calls `between(elapsed)`, whose own time is not
    measured, then tells whether the loop has used up its `seconds`.
    """

    def __init__(self, seconds, between=None):
        self.seconds = seconds
        self.between = between
        self.paused = 0.0
        self.start = perf_counter()

    def elapsed(self):
        return perf_counter() - self.start - self.paused

    def running(self):
        if self.between is not None:
            start = perf_counter()
            self.between(self.elapsed())
            self.paused += perf_counter() - start
        return self.elapsed() < self.seconds


def _mark(tracer, op):
    if tracer is not None:
        tracer.op = op


def _untrained_checkpoint(seed):
    """A seeded, untrained session model; forward cost does not depend on the weights."""
    return train.Checkpoint(params=model.ModelParams(model.ModelConfig(), seed=seed),
                            train_config=train.TrainConfig(), best_val_pr_auc=0.0,
                            threshold=0.5, seed=seed, epoch=0)


# -- train_short --------------------------------------------------------


class StepProbe:
    """Step boundaries and the loss check, hooked onto the calls `fit` makes
    once per step: ModelParams.zero_grad, tensor.backward and AdamW.step."""

    def __init__(self, tracer=None, memory_step=None):
        self.tracer = tracer
        self.memory_step = memory_step
        self.outcome = Outcome()
        self.started = None
        self.step_failed = False
        self.peak_bytes = None

    def _begin(self, zero_grad):
        def wrapper(params):
            self.outcome.attempted += 1
            self.step_failed = False
            _mark(self.tracer, f"step{self.outcome.attempted}")
            if self.outcome.attempted == self.memory_step:
                tracemalloc.start()
            self.started = perf_counter()
            return zero_grad(params)

        return wrapper

    def _check_loss(self, backward):
        def wrapper(loss):
            if not np.all(np.isfinite(loss.data)):
                self.fail_step()
            return backward(loss)

        return wrapper

    def _end(self, step):
        def wrapper(opt, named_params):
            out = step(opt, named_params)
            self.outcome.latencies.append(perf_counter() - self.started)
            _mark(self.tracer, f"between{self.outcome.attempted}")
            if self.outcome.attempted == self.memory_step:
                self.peak_bytes = tracemalloc.get_traced_memory()[1]
                tracemalloc.stop()
            return out

        return wrapper

    def fail_step(self):
        if not self.step_failed:
            self.step_failed = True
            self.outcome.failed += 1

    @contextlib.contextmanager
    def installed(self):
        with patched(model.ModelParams, "zero_grad", self._begin), \
                patched(T, "backward", self._check_loss), \
                patched(train.AdamW, "step", self._end):
            yield self


def _train_config(epochs):
    return train.TrainConfig(max_epochs=epochs, early_stop_patience=epochs + 1, seeds=(0,))


def setup_train(seed, workdir):
    splits = datagen.generate_corpus(datagen.GenConfig(seed=seed))
    return {name: pipeline.graphs_from_sessions(split) for name, split in splits.items()}


def _fit(graphs, epochs, probe):
    try:
        return train.fit(graphs["train"], graphs["val"], _train_config(epochs),
                         model.ModelConfig(), seed=0)
    except train.NumericalError:
        probe.fail_step()
        return None


def run_train(graphs, clock, tracer=None):
    probe = StepProbe(tracer)
    out = probe.outcome
    val_labels = np.array([g.label for g in graphs["val"]])
    aucs = []
    with probe.installed():
        while clock.running():
            start = perf_counter()
            ck = _fit(graphs, TRAIN_EPOCHS, probe)
            if ck is not None:
                out.busy_s += perf_counter() - start
                out.items += TRAIN_EPOCHS * len(graphs["train"])
                aucs.append(ck.best_val_pr_auc)
    # a model that learned ranks validation sessions better than chance,
    # whose average precision is the positive rate
    out.checks["val_pr_auc_above_chance"] = bool(aucs) and min(aucs) > float(val_labels.mean())
    out.named["train_val_pr_auc"] = (aucs[-1] if aucs else float("nan"), "score")
    return out


def memory_train(graphs):
    probe = StepProbe(memory_step=2)
    with probe.installed():
        _fit(graphs, 1, probe)
    return probe.peak_bytes / 2**20


# -- screen_long --------------------------------------------------------


@dataclass
class ScreenState:
    requests: list  # raw session records, one JSON text per request
    members: list


def setup_screen(seed, workdir):
    lo, hi = SCREEN_UTTERANCES
    splits = datagen.generate_corpus(datagen.GenConfig(
        seed=seed, n_sessions=SCREEN_SESSIONS, utterances_min=lo, utterances_max=hi))
    requests = [json.dumps(s.to_json()) for split in splits.values() for s in split]
    workdir.mkdir(parents=True, exist_ok=True)
    members = []
    for k in range(SCREEN_MEMBERS):
        prefix = workdir / f"member{k}"
        checkpoints.save_checkpoint(prefix, _untrained_checkpoint(seed=k))
        members.append(checkpoints.load_checkpoint(prefix))
    return ScreenState(requests, members)


def screen(raw, members):
    """One request: raw session text to graph to ensemble probability and label."""
    session = Session.from_json(json.loads(raw))
    table = embed.embed_sessions([session])
    g = graph.build_graph(session, table, peu.build_peu_tensor(session))
    prob = train.ensemble_predict(members, g)
    return g, prob, prob >= members[0].threshold


def run_screen(state, clock, tracer=None):
    out = Outcome()
    scored = {}  # request index -> (graph, [probabilities in screening order])
    while clock.running():
        k = out.attempted % len(state.requests)
        out.attempted += 1
        _mark(tracer, f"request{out.attempted}")
        start = perf_counter()
        g, prob, _ = screen(state.requests[k], state.members)
        out.latencies.append(perf_counter() - start)
        scored.setdefault(k, (g, []))[1].append(prob)
    out.items = out.attempted
    out.busy_s = sum(out.latencies)
    out.outputs = scored
    return out


def check_screen(state, out):
    """Each probability is in [0, 1], equals the mean of the members'
    predict_probs and repeats exactly when the session is screened again."""
    for k, (g, probs) in out.outputs.items():
        if len(probs) == 1:  # never rescored in the loop
            probs = probs + [screen(state.requests[k], state.members)[1]]
        expected = float(np.mean([train.predict_probs(m.params, [g])[0] for m in state.members]))
        good = [0.0 <= p <= 1.0 and abs(p - expected) <= PROB_TOLERANCE and p == probs[0]
                for p in probs]
        out.failed += good.count(False)


def memory_screen(state):
    tracemalloc.start()
    try:
        screen(state.requests[0], state.members)
        return tracemalloc.get_traced_memory()[1] / 2**20
    finally:
        tracemalloc.stop()


# -- explain ------------------------------------------------------------


@dataclass
class ExplainState:
    splits: dict
    graphs: list
    peu_tensors: dict
    peu_rows: dict
    prefix: object
    member: train.Checkpoint


def setup_explain(seed, workdir):
    splits = datagen.generate_corpus(datagen.GenConfig(seed=seed))
    sessions = [s for split in splits.values() for s in split]
    workdir.mkdir(parents=True, exist_ok=True)
    prefix = workdir / "session-model"
    checkpoints.save_checkpoint(prefix, _untrained_checkpoint(seed=0))
    return ExplainState(
        splits=splits,
        graphs=pipeline.graphs_from_sessions(sessions),
        peu_tensors={s.id: peu.build_peu_tensor(s) for s in sessions},
        peu_rows=pipeline.peu_rows_by_session(sessions),
        prefix=prefix,
        member=checkpoints.load_checkpoint(prefix),
    )


def explain_pass(state):
    """Node representations, instances, scorer fit and ranking, as `psygat explain`."""
    before = checkpoints.checkpoint_hash(state.prefix)
    reps = {g.session_id: causal.session_node_reps(g, state.member.params) for g in state.graphs}
    config = causal.CausalConfig()

    def instances(split):
        return [inst for s in split
                for inst in causal.extract_instances(s, state.peu_tensors[s.id], config.window,
                                                     config.past_only)]

    scorer = causal.train_scorer(instances(state.splits["train"]), reps, state.peu_rows, config,
                                 seed=0)
    evaluated = instances(state.splits["test"] or state.splits["val"])
    report, explanations, _ = causal.rank_and_evaluate(evaluated, reps, state.peu_rows, scorer)
    unchanged = checkpoints.checkpoint_hash(state.prefix) == before
    return evaluated, report, explanations, unchanged


def _explanation_ok(inst, record):
    ranked = record["ranked"]
    return (sorted(r["utt"] for r in ranked) == sorted(inst.candidate_indices)
            and all(0.0 <= r["prob"] <= 1.0 for r in ranked))


def run_explain(state, clock, tracer=None):
    out = Outcome()
    mrr = chance = float("nan")
    while clock.running():
        _mark(tracer, f"pass{len(out.latencies) + 1}")
        start = perf_counter()
        evaluated, report, explanations, unchanged = explain_pass(state)
        elapsed = perf_counter() - start
        out.latencies.append(elapsed)
        out.busy_s += elapsed
        out.items += len(state.graphs)
        scores = [report.mrr, *report.hit_at.values()]
        pass_ok = unchanged and all(0.0 <= s <= 1.0 for s in scores)
        out.attempted += len(evaluated)
        out.failed += sum(not (pass_ok and _explanation_ok(inst, rec))
                          for inst, rec in zip(evaluated, explanations))
        mrr = report.mrr
        chance = stats.random_order_mrr(
            [(len(i.labels), sum(i.labels)) for i in evaluated if i.has_cause])
    out.checks["mrr_above_random_order"] = mrr > chance
    out.named["explain_s"] = (statistics.median(out.latencies), "s")
    out.named["explain_mrr"] = (mrr, "score")
    return out


def memory_explain(state):
    tracemalloc.start()
    try:
        explain_pass(state)
        return tracemalloc.get_traced_memory()[1] / 2**20
    finally:
        tracemalloc.stop()


@dataclass(frozen=True)
class Workload:
    setup: object
    run: object
    check: object
    memory_probe: object
    # generic end-to-end metric -> the name this workload's output uses for it
    names: dict


WORKLOADS = {
    "train_short": Workload(setup_train, run_train, None, memory_train, {
        "throughput_per_s": "train_graphs_per_s",
        "latency_p50_ms": "train_step_p50_ms",
        "latency_p95_ms": "train_step_p95_ms",
    }),
    "screen_long": Workload(setup_screen, run_screen, check_screen, memory_screen, {
        "throughput_per_s": "screen_sessions_per_s",
        "latency_p50_ms": "screen_p50_ms",
        "latency_p95_ms": "screen_p95_ms",
    }),
    "explain": Workload(setup_explain, run_explain, None, memory_explain, {
        "throughput_per_s": "explain_sessions_per_s",
        "latency_p50_ms": "explain_pass_p50_ms",
        "latency_p95_ms": "explain_pass_p95_ms",
    }),
}

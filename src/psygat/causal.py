"""Post-hoc causal attribution: windowed star graphs per PEU instance,
an edge scorer over frozen session-model representations, and ranked
explanations evaluated with Hit@K / MRR.

The scorer only ever sees detached node representations, so training it
cannot touch the session model.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import model as M
from . import tensor as T
from .config import Config
from .errors import ConfigError, DataError, NumericalError
from .graph import GraphBatch
from .metrics import ranking_metrics
from .peu import CATEGORIES, NUM_CATEGORIES
from .pipeline import graphs_from_sessions
from .train import AdamW


@dataclass
class CausalConfig(Config):
    window: int = 3
    past_only: bool = False
    hidden: int = 64
    focal_gamma: float = 2.0
    lr: float = 1e-3
    weight_decay: float = 0.0
    epochs: int = 40
    batch_instances: int = 32

    def __post_init__(self):
        super().__post_init__()
        self._check(lambda v: v >= 1, ">= 1", "window", "epochs", "batch_instances", "hidden")
        self._check(lambda v: v > 0, "positive", "lr")
        self._check(lambda v: v >= 0, ">= 0", "weight_decay", "focal_gamma")

    @property
    def position_dim(self):
        return 2 * self.window + 1


@dataclass
class CausalInstance:
    session_id: str
    target_index: int
    target_category: int
    candidate_indices: list
    labels: list  # binary, aligned with candidates

    @property
    def has_cause(self):
        return any(self.labels)


def extract_instances(session, peus, window, past_only=False):
    """One instance per (utterance, active PEU category) pair of the
    session's (T, 8) PEU array.

    Candidates are the in-window utterances around the target; labels come
    from the session's causal annotations, defaulting to all-zero.
    """
    if window < 1:
        raise DataError(f"window must be >= 1, got {window}")
    sources_by_key = {}
    for rec in session.causes:
        sources_by_key.setdefault((rec["target"], rec["category"]), set()).update(rec["sources"])
    instances = []
    last = len(peus) - 1
    targets, categories = np.nonzero(peus)  # row-major: by utterance, then category
    for t, cat in zip(targets.tolist(), categories.tolist()):
        hi = t if past_only else min(last, t + window)
        candidates = [j for j in range(max(0, t - window), hi + 1) if j != t]
        if not candidates:
            continue
        sources = sources_by_key.get((t, CATEGORIES[cat]), set())
        instances.append(
            CausalInstance(
                session_id=session.id,
                target_index=t,
                target_category=cat,
                candidate_indices=candidates,
                labels=[1 if j in sources else 0 for j in candidates],
            )
        )
    return instances


class ScorerParams(T.Params):
    """Pairwise MLP over [h_target, h_candidate, target PEU, relative position].

    The scorer is one contiguous block: w1, b1, w2 and b2 are views, in
    that order, of flat.data, and grads holds their views of flat.grad,
    which scorer_loss writes in place. So one AdamW step over flat steps
    every parameter.
    """

    def __init__(self, config, model_hidden=128, seed=0, dtype=np.float32):
        self.config = config
        self.input_dim = 2 * model_hidden + NUM_CATEGORIES + config.position_dim
        shapes = {"w1": (self.input_dim, config.hidden), "b1": (config.hidden,),
                  "w2": (config.hidden, 1), "b2": (1,)}
        self.flat = T.Tensor(np.zeros(sum(map(math.prod, shapes.values())), dtype), name="scorer")
        self.flat.grad = np.zeros_like(self.flat.data)
        self.tensors, self.grads = {}, {}
        offset = 0
        for name, shape in shapes.items():
            span = slice(offset, offset + math.prod(shape))
            offset = span.stop
            self.tensors[name] = T.Tensor(self.flat.data[span].reshape(shape), name=name)
            self.grads[name] = self.flat.grad[span].reshape(shape)
        rng = np.random.default_rng(seed)
        self["w1"].data[...] = T.xavier(rng, self.input_dim, config.hidden, dtype)
        self["w2"].data[...] = T.xavier(rng, config.hidden, 1, dtype)


def instance_features(instance, node_reps, peu_rows, window, out):
    """Write the instance's feature rows into out, a (candidates, input_dim)
    block, and return it: one row per candidate edge,
    [h_target, h_candidate, target PEU, one-hot relative position].
    """
    t = instance.target_index
    n_nodes, hidden = node_reps.shape
    if t >= n_nodes:
        raise DataError(f"no node representation for target utterance {t}")
    cand = np.asarray(instance.candidate_indices, dtype=np.int64)
    if cand.size and cand.max() >= n_nodes:
        bad = int(cand[cand >= n_nodes][0])
        raise DataError(f"no node representation for candidate utterance {bad}")
    peu = np.asarray(peu_rows[t])
    pos = 2 * hidden + peu.shape[0]
    out[:, :hidden] = node_reps[t]
    out[:, hidden:2 * hidden] = node_reps[cand]
    out[:, 2 * hidden:pos] = peu
    out[:, pos:] = np.eye(2 * window + 1, dtype=out.dtype)[cand - t + window]
    return out


def edge_logits(features, scorer):
    """The scorer MLP, the one forward of training and ranking: one logit
    per feature row, with the hidden activations h and the ELU's negative
    part neg, which scorer_loss's backward reuses. The float operations
    are those of tensor.matmul, add_bias and elu, some done in place."""
    w = scorer.tensors
    x = features.astype(w["w1"].dtype, copy=False)
    z = x @ w["w1"].data
    z += w["b1"].data
    neg = np.minimum(z, 0.0)
    np.exp(neg, out=neg)
    neg -= 1.0
    h = np.maximum(z, 0.0, out=z)
    h += neg
    out = h @ w["w2"].data + w["b2"].data
    return out.reshape(features.shape[0]), h, neg


def session_node_reps(graph, params):
    """Detached per-utterance representations from a frozen session model:
    the encoder that forward shares, without readout or head."""
    with T.no_grad():
        return M.encode(GraphBatch.from_graphs([graph]), params).data


def train_scorer(instances, reps_by_session, peus_by_session, config, seed=0):
    """Fit the edge scorer on labeled instances; session model stays untouched.

    Each minibatch is one AdamW step over the scorer's contiguous block,
    with the float operations of a step per parameter. A non-finite
    gradient raises NumericalError naming the first parameter, in creation
    order, that holds one, as a step per parameter would.
    """
    train_set = [i for i in instances if i.candidate_indices]
    if not train_set:
        raise DataError("no causal instances to train on")
    scorer = ScorerParams(config, model_hidden=next(iter(reps_by_session.values())).shape[1],
                          seed=seed)
    opt = AdamW(config.lr, config.weight_decay)
    rng = np.random.default_rng(seed)
    features, starts, counts = _feature_block(train_set, reps_by_session, peus_by_session,
                                              scorer)
    labels = np.concatenate([i.labels for i in train_set])
    sign = np.where(labels == 1, 1.0, -1.0).astype(features.dtype)
    every, block = config.batch_instances, [("scorer", scorer.flat)]
    for _ in range(config.epochs):
        order = rng.permutation(len(train_set))
        rows, ends = _block_rows(starts[order], counts[order])
        # a minibatch's rows end where the block of its last instance ends
        cuts = [0, *ends[every - 1:-1:every].tolist(), len(rows)]
        for a, b in zip(cuts, cuts[1:]):
            batch = rows[a:b]
            scorer_loss(scorer, features[batch], sign[batch], config.focal_gamma)
            try:
                opt.step(block)
            except NumericalError:
                name = next(k for k, g in scorer.grads.items() if not np.all(np.isfinite(g)))
                raise NumericalError(f"non-finite gradient for parameter {name}") from None
    return scorer


def _feature_block(instances, reps_by_session, peus_by_session, scorer):
    """Every instance's rows in one matrix in the scorer dtype, filled in
    place (per-instance blocks joined afterwards would hold the features
    twice at the peak), with each instance's first row and row count."""
    counts = np.array([len(i.candidate_indices) for i in instances], dtype=np.int64)
    starts = np.concatenate(([0], np.cumsum(counts)[:-1]))
    features = np.empty((int(counts.sum()), scorer.input_dim), dtype=scorer.tensors["w1"].dtype)
    for i, a, n in zip(instances, starts, counts):
        instance_features(i, reps_by_session[i.session_id], peus_by_session[i.session_id],
                          scorer.config.window, features[a:a + n])
    return features, starts, counts


def _block_rows(starts, counts):
    """Row indices of the blocks [start, start + count), block after block,
    and where each block ends among them."""
    ends = np.cumsum(counts)
    return np.arange(ends[-1]) + np.repeat(starts - (ends - counts), counts), ends


def scorer_loss(scorer, x, sign, gamma):
    """Focal loss mean((1 - p_t)^gamma * -log p_t) of the scorer on the rows
    of x, with p_t = sigmoid(sign * logit) and sign +1 for a cause, -1
    otherwise. Writes each parameter's gradient into its view of
    scorer.flat.grad, points the parameter's .grad at that view, and
    returns the loss.

    This is what tensor.backward computes through edge_logits' ops,
    tensor.focal and tensor.tmean, without that graph of tensors and
    closures. Every value comes from the float operations the composition
    computes it with, in the same order, so results are bit-identical to
    it.
    """
    p, grads = scorer.tensors, scorer.grads
    dtype = p["w1"].dtype
    x, sign = x.astype(dtype, copy=False), sign.astype(dtype, copy=False)
    logits, h, neg = edge_logits(x, scorer)
    terms, focal_grad = T.focal_parts(logits * sign, gamma)
    # d loss / d term is alike for every row: tmean's share of backward's 1
    g_out = (focal_grad(np.asarray(1.0, dtype=dtype) / terms.size) * sign).reshape(-1, 1)
    np.sum(g_out, axis=-2, out=grads["b2"])
    np.matmul(h.T, g_out, out=grads["w2"])
    # each entry of g_out @ w2.T is one product, which matmul adds to a
    # zero; 0.0 + product has the same bits, a -0.0 product included
    g_z1 = neg
    g_z1 += 1.0
    g_z1 *= 0.0 + g_out * p["w2"].data.T
    np.sum(g_z1, axis=-2, out=grads["b1"])
    np.matmul(x.T, g_z1, out=grads["w1"])
    for name, g in grads.items():
        p[name].grad = g
    return np.asarray(terms.mean(), dtype=dtype)


def rank_candidates(instance, probs):
    """Candidate order by descending probability; ties go to the earlier utterance."""
    order = sorted(range(len(probs)), key=lambda k: (-probs[k], instance.candidate_indices[k]))
    return order


def rank_and_evaluate(instances, reps_by_session, peus_by_session, scorer):
    """Ranking metrics over instances with at least one annotated cause.

    Returns (RankingReport, per-instance explanation records, skipped count).
    """
    ranked_labels = []
    explanations = []
    skipped = 0
    features, starts, counts = _feature_block(instances, reps_by_session, peus_by_session,
                                              scorer)
    for inst, a, n in zip(instances, starts, counts):
        # each instance on its own rows: the logits then have the bits of a
        # matmul over that instance alone
        probs = T.stable_sigmoid(edge_logits(features[a:a + n], scorer)[0])
        order = rank_candidates(inst, probs)
        explanations.append(
            {
                "session": inst.session_id,
                "target": inst.target_index,
                "category": CATEGORIES[inst.target_category],
                "ranked": [
                    {"utt": inst.candidate_indices[k], "prob": float(probs[k]),
                     "is_cause": bool(inst.labels[k])}
                    for k in order
                ],
            }
        )
        if inst.has_cause:
            ranked_labels.append([inst.labels[k] for k in order])
        else:
            skipped += 1
    if not ranked_labels:
        raise DataError("no instances with annotated causes to evaluate")
    return ranking_metrics(ranked_labels), explanations, skipped


def explain(splits, params, config, seed=0):
    """Fit the edge scorer on the train split and rank the evaluated split
    (test, or val when test is empty) under a frozen session model.

    Only those sessions get graphs, built in one call, so an id that both
    share is a DataError; their PEU rows are the graphs' node_peu arrays.
    Returns (scorer, RankingReport, explanation records, skipped count).
    """
    evaluated = splits["test"] or splits["val"]
    read = splits["train"] + evaluated
    graphs = graphs_from_sessions(read)
    reps = {s.id: session_node_reps(g, params) for s, g in zip(read, graphs)}
    peus = {s.id: g.node_peu for s, g in zip(read, graphs)}

    def instances(split):
        return [inst for s in split
                for inst in extract_instances(s, peus[s.id], config.window, config.past_only)]

    scorer = train_scorer(instances(splits["train"]), reps, peus, config, seed)
    return (scorer, *rank_and_evaluate(instances(evaluated), reps, peus, scorer))

"""Optimization: losses, AdamW, plateau scheduling, early stopping,
seed ensembling and decision-threshold selection.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import model as M
from . import tensor as T
from .config import KINDS, Config
from .errors import ConfigError, DataError, NumericalError
from .graph import GraphBatch
from .metrics import _prf, pr_auc

# Graphs per eval-mode forward in predict_probs. Scoring 40 default-corpus
# graphs took the same time at 8 to 40 graphs per forward (3.4x faster than
# one per forward). Under no_grad a forward holds only the intermediates in
# use, which still grow with the chunk: scoring the 80 default val+test
# graphs peaked at 3.0 MB traced at 16 per forward and 7.5 MB at 64, in the
# same time.
PREDICT_CHUNK = 16


@dataclass
class TrainConfig(Config):
    lr: float = 2e-4
    weight_decay: float = 2e-4
    max_epochs: int = 50
    early_stop_patience: int = 8
    plateau_factor: float = 0.5
    plateau_patience: int = 2
    clip_norm: float = 1.0
    focal_gamma: float = 2.0  # 0 is plain BCE
    contrastive_weight: float = 0.1  # 0 turns InfoNCE off
    contrastive_temperature: float = 0.2
    seeds: tuple = (0, 1, 2, 3, 4)
    batch_size: int = 8

    def __post_init__(self):
        super().__post_init__()
        self._check(lambda v: v > 0, "positive",
                    "lr", "clip_norm", "contrastive_temperature")
        self._check(lambda v: v >= 0, ">= 0",
                    "weight_decay", "max_epochs", "focal_gamma", "contrastive_weight")
        self._check(lambda v: v >= 1, ">= 1",
                    "early_stop_patience", "plateau_patience", "batch_size")
        self._check(lambda v: 0 < v <= 1, "in (0, 1]", "plateau_factor")
        self._check(lambda v: all(s >= 0 for s in v), "all >= 0", "seeds")
        self._check(lambda v: len(set(v)) == len(v), "distinct", "seeds")
        if not self.seeds:
            raise ConfigError("seeds must name at least one seed")


@dataclass
class Checkpoint:
    params: M.ModelParams
    train_config: TrainConfig
    best_val_pr_auc: float
    threshold: float
    seed: int
    epoch: int


def focal_loss(logit, y, gamma=2.0):
    """(1 - p_t)^gamma * (-log p_t), elementwise.

    logit is a scalar with one label y, or a (B,) vector with B labels.
    gamma=0 recovers plain BCE exactly.
    """
    sign = np.where(np.asarray(y) == 1, 1.0, -1.0).astype(logit.dtype)
    return T.focal(T.mul(logit, T.Tensor(sign, requires_grad=False)), gamma)


def info_nce(session_reps, labels, temperature=0.2):
    """Supervised contrastive loss over L2-normalized session representations.

    session_reps: (B, d) Tensor. Anchors without a same-label partner are
    skipped; batches where no anchor has a positive contribute zero.
    """
    labels = np.asarray(labels, dtype=int)
    B = session_reps.shape[0]
    same = labels[:, None] == labels[None, :]
    np.fill_diagonal(same, False)
    pos_counts = same.sum(axis=1)
    anchors = pos_counts > 0
    if not anchors.any():
        return T.Tensor(np.asarray(0.0, dtype=session_reps.dtype), requires_grad=False)
    dtype = session_reps.dtype
    normed = T.l2_normalize_rows(session_reps)
    sims = T.mul(
        T.matmul(normed, T.transpose(normed)),
        T.Tensor(np.asarray(1.0 / temperature, dtype=dtype), requires_grad=False),
    )
    mask = np.zeros((B, B), dtype=dtype)
    np.fill_diagonal(mask, -1e9)
    masked = T.add(sims, T.Tensor(mask, requires_grad=False))
    e = T.exp(masked)
    log_den = T.log(T.matmul(e, T.Tensor(np.ones((B, 1), dtype=dtype), requires_grad=False)))
    weights = np.zeros((B, B), dtype=dtype)
    n_anchors = int(anchors.sum())
    for i in np.flatnonzero(anchors):
        weights[i, same[i]] = 1.0 / (n_anchors * pos_counts[i])
    row_w = weights.sum(axis=1, keepdims=True).astype(dtype)
    term_den = T.tsum(T.mul(log_den, T.Tensor(row_w, requires_grad=False)))
    term_pos = T.tsum(T.mul(masked, T.Tensor(weights, requires_grad=False)))
    return T.sub(term_den, term_pos)


class AdamW:
    """Decoupled weight decay Adam (Loshchilov & Hutter 2019) over one
    tensor.Params block.

    Each step updates m, v and the block in place, allocating nothing.
    Every operation is the one the textbook formula

        m = b1 * m + (1 - b1) * g;  v = b2 * v + (1 - b2) * (g * g)
        p -= (lr * (m / c1)) / (sqrt(v / c2) + eps)

    evaluates, in the same order, so results are bit-identical to it, and
    to a step per parameter; folding lr / c1 into one scalar would not be.

    From the first step on it keeps t, and m, v and one scratch array of
    the block's size: three times the parameters' memory. Once read, the
    gradient block serves as the second scratch array, so after a step
    .grad holds no gradient. A non-finite gradient is refused before
    anything changes, naming the first tensor, in creation order, that
    holds one.
    """

    def __init__(self, lr, weight_decay=0.0, beta1=0.9, beta2=0.999, eps=1e-8):
        self.lr = lr
        self.weight_decay = weight_decay
        self.beta1 = beta1
        self.beta2 = beta2
        self.eps = eps
        self.t = 0
        self.m = self.v = self.scratch = None

    def step(self, params):
        p, g = params.flat.data, params.flat.grad
        if not np.isfinite(g).all():
            name = next(name for name, view in params.views(g) if not np.isfinite(view).all())
            raise NumericalError(f"non-finite gradient for parameter {name}")
        if self.m is None:
            self.m, self.v, self.scratch = np.zeros_like(p), np.zeros_like(p), np.empty_like(p)
        m, v, s = self.m, self.v, self.scratch
        b1, b2 = self.beta1, self.beta2
        # decoupled decay, applied before the Adam update
        if self.weight_decay:
            p *= 1.0 - self.lr * self.weight_decay
        self.t += 1
        np.multiply(m, b1, out=m)
        np.multiply(g, 1 - b1, out=s)
        np.add(m, s, out=m)
        np.multiply(g, g, out=s)
        np.multiply(s, 1 - b2, out=s)
        np.multiply(v, b2, out=v)
        np.add(v, s, out=v)
        np.divide(m, 1 - b1 ** self.t, out=s)
        np.multiply(s, self.lr, out=s)
        np.divide(v, 1 - b2 ** self.t, out=g)  # g is read: from here on it is scratch
        np.sqrt(g, out=g)
        np.add(g, self.eps, out=g)
        np.divide(s, g, out=s)
        p -= s


def clip_gradients(named_params, max_norm):
    """Scale all grads so the global norm is at most max_norm; returns pre-clip norm."""
    total = 0.0
    grads = []
    for _, p in named_params:
        if p.grad is not None:
            total += float((p.grad * p.grad).sum())
            grads.append(p)
    norm = float(np.sqrt(total))
    if norm > max_norm and norm > 0:
        scale = max_norm / norm
        for p in grads:
            p.grad *= scale
    return norm


def select_threshold(probs, labels):
    """The threshold of highest positive-class F1 (metrics._prf). Scans
    midpoints of sorted unique probs plus {0, 1}; lowest threshold wins ties."""
    probs = np.asarray(probs, dtype=float)
    labels = np.asarray(labels, dtype=int)
    if labels.sum() in (0, labels.size):
        raise DataError("threshold selection needs both classes in validation")
    uniq = np.unique(probs)
    candidates = [0.0] + [(a + b) / 2 for a, b in zip(uniq, uniq[1:])] + [1.0]
    best = None
    for thr in candidates:
        pred = probs >= thr
        tp = int(np.sum(pred & (labels == 1)))
        fp = int(np.sum(pred & (labels == 0)))
        fn = int(np.sum(~pred & (labels == 1)))
        key = (_prf(tp, fp, fn)[2], -thr)
        if best is None or key > best[0]:
            best = (key, thr)
    return best[1]


def is_threshold(value):
    """Whether value can be a decision threshold: a number, not a bool,
    finite, in [0, 1]."""
    return KINDS["float"][0](value) and 0 <= value <= 1


def _chunks(graphs):
    return [GraphBatch.from_graphs(graphs[i : i + PREDICT_CHUNK])
            for i in range(0, len(graphs), PREDICT_CHUNK)]


def predict_probs(params, graphs):
    """Eval-mode probabilities, one batched forward per PREDICT_CHUNK graphs."""
    with T.no_grad():
        probs = [M.forward(b, params).probs for b in _chunks(graphs)]
    return np.concatenate(probs) if probs else np.zeros(0)


def _train_step(params, opt, batch, config, rng):
    """One AdamW step on a GraphBatch. The autodiff graph is local to this
    call, so refcounting frees it on return."""
    params.zero_grad()
    out = M.forward(batch, params, rng=rng)
    loss = T.tmean(focal_loss(out.logits, batch.labels, config.focal_gamma))
    if config.contrastive_weight > 0 and batch.num_graphs >= 2:
        aux = info_nce(out.session_reps, batch.labels, config.contrastive_temperature)
        loss = T.add(
            loss,
            T.mul(aux, T.Tensor(np.asarray(config.contrastive_weight, dtype=loss.dtype),
                                requires_grad=False)),
        )
    T.backward(loss)
    clip_gradients(params.named(), config.clip_norm)
    opt.step(params)


def fit(train_graphs, val_graphs, config, model_config, seed=0):
    """Train one model; returns the checkpoint with the best validation PR-AUC."""
    if not train_graphs or not val_graphs:
        raise ConfigError("fit requires non-empty train and validation splits")
    val_labels = np.array([g.label for g in val_graphs])
    if val_labels.sum() in (0, val_labels.size):
        raise ConfigError("validation split must contain both classes")
    params = M.ModelParams(model_config, seed=seed)
    opt = AdamW(config.lr, config.weight_decay)
    rng = np.random.default_rng(seed + 1)
    best_auc = -1.0
    best = params.flat.data.copy()
    best_probs = None
    best_epoch = 0
    since_improve = 0
    plateau_wait = 0

    for epoch in range(1, config.max_epochs + 1):
        order = rng.permutation(len(train_graphs))
        for start in range(0, len(order), config.batch_size):
            batch = [train_graphs[i] for i in order[start : start + config.batch_size]]
            _train_step(params, opt, GraphBatch.from_graphs(batch), config, rng)

        probs = predict_probs(params, val_graphs)
        auc = pr_auc(probs, val_labels)
        if auc > best_auc + 1e-12:
            best_auc = auc
            best_probs = probs  # the restored parameters score exactly these
            best[...] = params.flat.data  # in place: one snapshot, not two at once
            best_epoch = epoch
            since_improve = 0
            plateau_wait = 0
        else:
            since_improve += 1
            plateau_wait += 1
            if plateau_wait >= config.plateau_patience:
                opt.lr *= config.plateau_factor
                plateau_wait = 0
            if since_improve >= config.early_stop_patience:
                break

    params.flat.data[...] = best
    if best_probs is None:  # max_epochs = 0
        best_probs = predict_probs(params, val_graphs)
    threshold = select_threshold(best_probs, val_labels)
    return Checkpoint(
        params=params,
        train_config=config,
        best_val_pr_auc=best_auc,
        threshold=threshold,
        seed=seed,
        epoch=best_epoch,
    )


def ensemble_probs(checkpoints, graphs):
    """Arithmetic mean of member probabilities, one value per graph.

    All members run in one forward per chunk, over parameters stacked along
    a member axis (tensor.stack_params, kept on the members between calls).
    Members must share model config (persona use included) and dtype.
    """
    if not checkpoints:
        raise ConfigError("ensemble needs at least one checkpoint")
    arch = checkpoints[0].params.config
    for ck in checkpoints[1:]:
        if ck.params.config != arch:
            raise ConfigError("ensemble members have mismatched architectures")
    if len({ck.params.flat.dtype for ck in checkpoints}) > 1:
        raise ConfigError("ensemble members have mixed parameter dtypes")
    stacked = T.stack_params([ck.params for ck in checkpoints])
    with T.no_grad():
        chunks = [M.forward(b, stacked).probs for b in _chunks(graphs)]
    probs = np.concatenate(chunks, axis=1) if chunks else np.zeros((len(checkpoints), 0))
    return probs.mean(axis=0)


def ensemble_predict(checkpoints, graph):
    """ensemble_probs of one graph."""
    return float(ensemble_probs(checkpoints, [graph])[0])


def train_ensemble(train_graphs, val_graphs, config, model_config):
    """Fit one member per seed and select the ensemble threshold on validation."""
    members = [fit(train_graphs, val_graphs, config, model_config, seed=s) for s in config.seeds]
    val_probs = ensemble_probs(members, val_graphs)
    val_labels = np.array([g.label for g in val_graphs])
    threshold = select_threshold(val_probs, val_labels)
    return members, threshold

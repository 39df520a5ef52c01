"""Classification and ranking metrics.

F1 uses the 0/0 -> 0 convention per class. PR-AUC is step-wise average
precision over a descending-probability sweep with tied scores grouped.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DataError

HIT_KS = (1, 3, 5)  # the Hit@K cut-offs every ranking report carries


@dataclass
class ClassificationReport:
    precision: dict  # class -> float
    recall: dict
    f1: dict
    macro_f1: float
    pr_auc: float | None
    threshold: float
    counts: dict  # tp/fp/fn/tn

    def to_json(self):
        return {
            "precision": {str(k): v for k, v in self.precision.items()},
            "recall": {str(k): v for k, v in self.recall.items()},
            "f1": {str(k): v for k, v in self.f1.items()},
            "macro_f1": self.macro_f1,
            "pr_auc": self.pr_auc,
            "threshold": self.threshold,
            "counts": self.counts,
        }


@dataclass
class RankingReport:
    hit_at: dict  # k in HIT_KS -> float
    mrr: float
    instances: int

    def to_json(self):
        return {**{f"hit@{k}": self.hit_at[k] for k in HIT_KS},
                "mrr": self.mrr, "instances": self.instances}


def _prf(tp, fp, fn):
    p = tp / (tp + fp) if tp + fp else 0.0
    r = tp / (tp + fn) if tp + fn else 0.0
    f = 2 * p * r / (p + r) if p + r else 0.0
    return p, r, f


def classification_report(probs, labels, threshold):
    probs = np.asarray(probs, dtype=float)
    labels = np.asarray(labels, dtype=int)
    if probs.size == 0:
        raise DataError("empty prediction set")
    pred = (probs >= threshold).astype(int)
    tp = int(np.sum((pred == 1) & (labels == 1)))
    fp = int(np.sum((pred == 1) & (labels == 0)))
    fn = int(np.sum((pred == 0) & (labels == 1)))
    tn = int(np.sum((pred == 0) & (labels == 0)))
    p1, r1, f1_pos = _prf(tp, fp, fn)
    p0, r0, f1_neg = _prf(tn, fn, fp)
    auc = pr_auc(probs, labels) if 0 < labels.sum() < labels.size else None
    return ClassificationReport(
        precision={1: p1, 0: p0},
        recall={1: r1, 0: r0},
        f1={1: f1_pos, 0: f1_neg},
        macro_f1=(f1_pos + f1_neg) / 2,
        pr_auc=auc,
        threshold=float(threshold),
        counts={"tp": tp, "fp": fp, "fn": fn, "tn": tn},
    )


def pr_auc(probs, labels):
    """Average precision for the positive class."""
    probs = np.asarray(probs, dtype=float)
    labels = np.asarray(labels, dtype=int)
    npos = int(labels.sum())
    if npos == 0 or npos == labels.size:
        raise DataError("pr_auc needs both classes present")
    order = np.argsort(-probs, kind="stable")
    sorted_probs = probs[order]
    sorted_labels = labels[order]
    ap = 0.0
    tp = 0
    seen = 0
    prev_recall = 0.0
    i = 0
    n = probs.size
    while i < n:
        j = i
        while j < n and sorted_probs[j] == sorted_probs[i]:
            j += 1
        tp += int(sorted_labels[i:j].sum())
        seen = j
        recall = tp / npos
        precision = tp / seen
        ap += (recall - prev_recall) * precision
        prev_recall = recall
        i = j
    return ap


def ranking_metrics(ranked_labels):
    """Hit@K for K in HIT_KS and MRR from per-instance candidate label lists,
    best rank first.

    Each list must be non-empty and is expected to contain at least one
    true label (instances without a true cause are filtered upstream).
    """
    if not ranked_labels:
        raise DataError("no ranking instances")
    ranks = []
    for i, labels in enumerate(ranked_labels):
        if not labels:
            raise DataError(f"instance {i} has zero candidates")
        rank = next((k + 1 for k, y in enumerate(labels) if y), None)
        if rank is None:
            raise DataError(f"instance {i} has no true candidate")
        ranks.append(rank)
    ranks = np.asarray(ranks, dtype=float)
    hit_at = {k: float(np.mean(ranks <= k)) for k in HIT_KS}
    return RankingReport(hit_at=hit_at, mrr=float(np.mean(1.0 / ranks)), instances=len(ranks))

"""Train a small classifier ensemble end to end.

Generates a synthetic corpus, trains a two-seed ensemble of the
persona-conditioned graph model, selects the decision threshold on
validation and reports held-out metrics.
"""

# psygat first: importing it pins BLAS to one thread, which holds only
# if numpy has not loaded yet
from psygat.datagen import GenConfig, generate_corpus
from psygat.metrics import classification_report
from psygat.model import ModelConfig
from psygat.pipeline import graphs_from_sessions
from psygat.train import TrainConfig, ensemble_probs, train_ensemble

import numpy as np

splits = generate_corpus(GenConfig(seed=0, n_sessions=80, peu_dropout=0.3))
graphs = {name: graphs_from_sessions(split) for name, split in splits.items()}
print({name: len(g) for name, g in graphs.items()})

config = TrainConfig(seeds=(0, 1), max_epochs=20)
members, threshold = train_ensemble(graphs["train"], graphs["val"], config, ModelConfig())
for m in members:
    print(f"seed {m.seed}: best val PR-AUC {m.best_val_pr_auc:.3f} at epoch {m.epoch}")
print(f"ensemble threshold (max-F1 on validation): {threshold:.3f}")

probs = ensemble_probs(members, graphs["test"])
labels = np.array([g.label for g in graphs["test"]])
report = classification_report(probs, labels, threshold)
print(f"test macro-F1 {report.macro_f1:.3f}  PR-AUC {report.pr_auc:.3f}")
print("confusion:", report.counts)

# persona ablation on the same corpus: swap the embedding for zeros
members_off, thr_off = train_ensemble(graphs["train"], graphs["val"], config,
                                      ModelConfig(persona=False))
probs_off = ensemble_probs(members_off, graphs["test"])
rep_off = classification_report(probs_off, labels, thr_off)
print(f"persona off: test macro-F1 {rep_off.macro_f1:.3f}")

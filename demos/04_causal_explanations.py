"""Rank the conversational antecedents of detected symptoms.

Trains a session model, freezes it, fits the post-hoc edge scorer on
windowed star graphs, and prints ranked explanations with Hit@K / MRR.
"""

from psygat import causal
from psygat.datagen import GenConfig, generate_corpus
from psygat.model import ModelConfig
from psygat.pipeline import graphs_from_sessions
from psygat.train import TrainConfig, fit

splits = generate_corpus(GenConfig(seed=0, n_sessions=80))
train, val = (graphs_from_sessions(splits[name]) for name in ("train", "val"))
checkpoint = fit(train, val, TrainConfig(seeds=(0,)), ModelConfig())

# explain builds the graphs of the train and test sessions only, and the
# scorer reads their frozen, detached node representations
config = causal.CausalConfig(window=3)
scorer, report, explanations, skipped = causal.explain(splits, checkpoint.params, config)
print(f"instances {report.instances} (skipped {skipped} without annotated cause)")
print(f"Hit@1 {report.hit_at[1]:.3f}  Hit@3 {report.hit_at[3]:.3f}  "
      f"Hit@5 {report.hit_at[5]:.3f}  MRR {report.mrr:.3f}")

print("\nsample explanation:")
rec = next(e for e in explanations if any(r["is_cause"] for r in e["ranked"]))
print(f"  session {rec['session']}, utterance {rec['target']} ({rec['category']})")
for row in rec["ranked"][:4]:
    mark = "<-- cause" if row["is_cause"] else ""
    print(f"    utt {row['utt']:>2}  p={row['prob']:.3f} {mark}")

"""The psygat names perfbench looks up by name stay in place.

perfbench/tracing.py and perfbench/workloads.py rebind psygat functions
with getattr and setattr, so deleting or renaming one of them breaks
`perfbench/run.py --trace 1` and the benchmark's step probe. These tests
enter and exit both hooks, run a tiny fit and an ensemble screen under
them, and check that every rebinding is undone.
"""

import numpy as np

from perfbench import tracing, workloads
from psygat import model as M
from psygat import tensor as T
from psygat import train as TR
from psygat.verify import _tiny_graph


def _bound():
    """Every attribute the two hooks rebind, as currently bound."""
    names = [(owner, attr) for owner, attr, *_ in tracing.LAYERS]
    names += [(T, attr) for attr in tracing.TENSOR_OPS]
    names += [(T.Tensor, "__init__"), (M.ModelParams, "zero_grad"), (T, "backward"),
              (TR.AdamW, "step")]
    return [getattr(owner, attr) for owner, attr in names]


def _tiny_inputs():
    rng = np.random.default_rng(0)
    graphs = [_tiny_graph(rng, n) for n in (3, 1, 4, 2)]
    for k, g in enumerate(graphs):
        g.label = k % 2
    cfg = M.ModelConfig(text_dim=12, hidden=16, heads=2, persona_dim=4, head_hidden=8)
    return graphs, cfg


def test_tracer_instruments_and_restores_every_name():
    before = _bound()
    graphs, cfg = _tiny_inputs()
    members = [TR.Checkpoint(params=M.ModelParams(cfg, seed=k), train_config=TR.TrainConfig(),
                             best_val_pr_auc=0.0, threshold=0.5, seed=k, epoch=0)
               for k in range(2)]
    want = TR.ensemble_predict(members, graphs[0])
    tracer = tracing.Tracer()
    with tracer.instrument():
        got = TR.ensemble_predict(members, graphs[0])
        TR.predict_probs(members[0].params, graphs)
    assert got == want
    names = {record[0] for record in tracer.spans}
    assert {"model.forward", "model.gat_layer", "model.set2set_readout",
            "train.predict_probs"} <= names
    assert all(a is b for a, b in zip(_bound(), before))


def test_step_probe_counts_every_training_step_and_restores():
    before = _bound()
    graphs, cfg = _tiny_inputs()
    config = TR.TrainConfig(max_epochs=2, early_stop_patience=3, seeds=(0,), batch_size=2)
    probe = workloads.StepProbe()
    with probe.installed():
        TR.fit(graphs, graphs, config, cfg, seed=0)
    assert probe.outcome.attempted == 4 and probe.outcome.failed == 0
    assert len(probe.outcome.latencies) == 4
    assert all(a is b for a, b in zip(_bound(), before))

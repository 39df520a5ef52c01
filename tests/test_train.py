"""Losses, optimizer, gradient clipping and threshold selection."""

import numpy as np
import pytest

from psygat import tensor as T
from psygat import train as TR


def logit_of_prob(p):
    return T.Tensor(np.asarray(np.log(p / (1 - p)), dtype=np.float64))


class TestFocalLoss:
    def test_hand_value_quarter_ln_two(self):
        # p_t = 0.5: focal(gamma=2) = 0.25 * ln 2
        loss = TR.focal_loss(T.Tensor(np.asarray(0.0)), 1, gamma=2.0)
        assert float(loss.data) == pytest.approx(0.25 * np.log(2.0), abs=1e-6)

    def test_hand_value_confident_correct(self):
        # p_t = 0.9: (1 - 0.9)^2 * (-ln 0.9) = 0.01 * (-ln 0.9)
        loss = TR.focal_loss(logit_of_prob(0.9), 1, gamma=2.0)
        assert float(loss.data) == pytest.approx(0.01 * -np.log(0.9), abs=1e-6)

    def test_negative_class_mirrors_positive(self):
        a = TR.focal_loss(logit_of_prob(0.2), 0)
        b = TR.focal_loss(logit_of_prob(0.8), 1)
        assert float(a.data) == pytest.approx(float(b.data), rel=1e-6)

    def test_gamma_zero_equals_bce(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            z = T.Tensor(np.asarray(rng.standard_normal() * 4, dtype=np.float64))
            y = int(rng.integers(0, 2))
            f = float(TR.focal_loss(z, y, gamma=0.0).data)
            p = 1 / (1 + np.exp(-float(z.data)))
            ref = -np.log(p) if y == 1 else -np.log(1 - p)
            assert f == pytest.approx(ref, abs=1e-10)

    def test_extreme_logits_stay_finite(self):
        for z in (-80.0, 80.0):
            for y in (0, 1):
                loss = TR.focal_loss(T.Tensor(np.asarray(z)), y)
                assert np.isfinite(float(loss.data))
                T.backward(loss)

    def test_gradient_matches_finite_differences(self):
        z = T.Tensor(np.asarray(0.7, dtype=np.float64))
        err = T.grad_check(lambda: TR.focal_loss(z, 1, gamma=2.0), [z])
        assert err < 1e-6


class TestInfoNce:
    def reps(self, rng, b, d=6):
        return T.Tensor(rng.standard_normal((b, d)), dtype=np.float64)

    def test_matches_direct_formula(self):
        rng = np.random.default_rng(1)
        reps = self.reps(rng, 6)
        labels = np.array([0, 1, 0, 1, 1, 0])
        loss = float(TR.info_nce(reps, labels, temperature=0.2).data)

        z = reps.data / np.linalg.norm(reps.data, axis=1, keepdims=True)
        sims = z @ z.T / 0.2
        total = 0.0
        for i in range(6):
            pos = [j for j in range(6) if j != i and labels[j] == labels[i]]
            den = np.log(sum(np.exp(sims[i, j]) for j in range(6) if j != i))
            total += -np.mean([sims[i, j] - den for j in pos])
        assert loss == pytest.approx(total / 6, rel=1e-6)

    def test_single_sample_contributes_zero(self):
        rng = np.random.default_rng(2)
        assert float(TR.info_nce(self.reps(rng, 1), [1]).data) == 0.0

    def test_no_positive_pairs_contributes_zero(self):
        rng = np.random.default_rng(3)
        assert float(TR.info_nce(self.reps(rng, 2), [0, 1]).data) == 0.0

    def test_pulls_same_label_reps_together(self):
        # identical same-label reps with distinct other-label reps score
        # lower than the reverse arrangement
        base = np.array([[1.0, 0.0], [1.0, 0.0], [-1.0, 0.0], [-1.0, 0.0]])
        tight = float(TR.info_nce(T.Tensor(base, dtype=np.float64), [1, 1, 0, 0]).data)
        loose = float(TR.info_nce(T.Tensor(base, dtype=np.float64), [1, 0, 1, 0]).data)
        assert tight < loose

    def test_gradient_flows(self):
        rng = np.random.default_rng(4)
        reps = self.reps(rng, 4)
        err = T.grad_check(lambda: TR.info_nce(reps, [0, 0, 1, 1]), [reps])
        assert err < 1e-6


class TestAdamW:
    def test_first_step_magnitude(self):
        # bias-corrected first step is lr * g / (|g| + eps) = -lr * sign(g)
        p = T.Tensor(np.zeros(3))
        p.grad = np.array([1.0, -2.0, 0.5], dtype=np.float32)
        opt = TR.AdamW(lr=0.1)
        opt.step([("p", p)])
        np.testing.assert_allclose(p.data, [-0.1, 0.1, -0.1], atol=1e-6)

    def test_decoupled_weight_decay(self):
        # zero gradient: pure decay p *= (1 - lr * wd)
        p = T.Tensor(np.asarray([10.0]))
        p.grad = np.zeros(1, dtype=np.float32)
        opt = TR.AdamW(lr=0.1, weight_decay=0.5)
        opt.step([("p", p)])
        assert p.data[0] == pytest.approx(10.0 * (1 - 0.05), rel=1e-5)

    def test_non_finite_gradient_rejected(self):
        p = T.Tensor(np.zeros(2))
        p.grad = np.array([np.nan, 0.0], dtype=np.float32)
        with pytest.raises(TR.NumericalError, match="p"):
            TR.AdamW(lr=0.1).step([("p", p)])

    @pytest.mark.parametrize("weight_decay", [0.0, 0.05])
    def test_bit_equal_to_reference_formula(self, weight_decay):
        def reference(p, grads, lr, wd, b1=0.9, b2=0.999, eps=1e-8):
            m, v = np.zeros_like(p), np.zeros_like(p)
            for t, g in enumerate(grads, 1):
                g = np.zeros_like(p) if g is None else g
                if wd:
                    p *= 1.0 - lr * wd
                m = b1 * m + (1 - b1) * g
                v = b2 * v + (1 - b2) * (g * g)
                mhat = m / (1 - b1**t)
                vhat = v / (1 - b2**t)
                p -= lr * mhat / (np.sqrt(vhat) + eps)
            return p

        rng = np.random.default_rng(5)
        # a zero start keeps the updates' last bits in the parameter
        start = {"a": np.zeros((40, 30)), "b": rng.standard_normal(6)}
        grads = {name: [(rng.standard_normal(x.shape) * 10.0 ** k).astype(np.float32)
                        for k in range(-3, 2)]
                 for name, x in start.items()}
        grads["b"][2] = None  # a parameter the step's loss did not reach
        params = {name: T.Tensor(x.astype(np.float32)) for name, x in start.items()}
        opt = TR.AdamW(lr=3e-3, weight_decay=weight_decay)
        for step in range(5):
            for name, p in params.items():
                p.grad = grads[name][step]
            opt.step(params.items())
        for name, x in start.items():
            expected = reference(x.astype(np.float32), grads[name], 3e-3, weight_decay)
            np.testing.assert_array_equal(params[name].data, expected)

    def test_state_holds_moments_and_one_scratch_pair_fits_the_largest_parameter(self):
        # smallest first: the float32 pair grows twice, re-pointing the
        # views taken before; each run matches an optimizer per parameter,
        # whose scratch is exactly its own size
        rng = np.random.default_rng(6)
        start = {"b": rng.standard_normal(3).astype(np.float32),
                 "w": rng.standard_normal((4, 5)).astype(np.float32),
                 "c": rng.standard_normal((2, 2)).astype(np.float32),
                 "d": rng.standard_normal(7)}
        grads = [{name: rng.standard_normal(x.shape).astype(x.dtype)
                  for name, x in start.items()} for _ in range(4)]
        shared = {name: T.Tensor(x.copy()) for name, x in start.items()}
        alone = {name: T.Tensor(x.copy()) for name, x in start.items()}
        opt = TR.AdamW(lr=0.01, weight_decay=0.1)
        opts = {name: TR.AdamW(lr=0.01, weight_decay=0.1) for name in start}
        for step_grads in grads:
            for name, g in step_grads.items():
                shared[name].grad, alone[name].grad = g, g
            opt.step(shared.items())
            for name, p in alone.items():
                opts[name].step([(name, p)])
        for name in start:
            assert shared[name].data.tobytes() == alone[name].data.tobytes()
        assert all(set(st) == {"t", "m", "v"} for st in opt.state.values())
        assert {dtype: [b.size for b in pair] for dtype, pair in opt.scratch.items()} == {
            np.dtype(np.float32): [20, 20], np.dtype(np.float64): [7, 7]}
        for name, views in opt._views.items():
            pair = opt.scratch[views[0].dtype]
            assert all(v.base is b for v, b in zip(views, pair)), name

    def test_converges_on_quadratic(self):
        p = T.Tensor(np.asarray([5.0], dtype=np.float64))
        opt = TR.AdamW(lr=0.1)
        for _ in range(500):
            p.zero_grad()
            T.backward(T.tsum(T.mul(p, p)))
            opt.step([("p", p)])
        assert abs(p.data[0]) < 1e-2


class TestClipGradients:
    def test_large_gradients_rescaled_to_max_norm(self):
        p = T.Tensor(np.zeros(4))
        p.grad = np.full(4, 3.0, dtype=np.float32)
        pre = TR.clip_gradients([("p", p)], 1.0)
        assert pre == pytest.approx(6.0)
        assert np.linalg.norm(p.grad) == pytest.approx(1.0, rel=1e-5)

    def test_small_gradients_untouched(self):
        p = T.Tensor(np.zeros(2))
        p.grad = np.array([0.3, 0.4], dtype=np.float32)
        TR.clip_gradients([("p", p)], 1.0)
        np.testing.assert_allclose(p.grad, [0.3, 0.4])

    def test_global_norm_spans_parameters(self):
        a, b = T.Tensor(np.zeros(1)), T.Tensor(np.zeros(1))
        a.grad = np.array([3.0], dtype=np.float32)
        b.grad = np.array([4.0], dtype=np.float32)
        pre = TR.clip_gradients([("a", a), ("b", b)], 1.0)
        assert pre == pytest.approx(5.0)
        assert a.grad[0] == pytest.approx(0.6, rel=1e-5)
        assert b.grad[0] == pytest.approx(0.8, rel=1e-5)


def f1_at(probs, labels, thr):
    pred = np.asarray(probs) >= thr
    labels = np.asarray(labels)
    tp = np.sum(pred & (labels == 1))
    fp = np.sum(pred & (labels == 0))
    fn = np.sum(~pred & (labels == 1))
    p = tp / (tp + fp) if tp + fp else 0.0
    r = tp / (tp + fn) if tp + fn else 0.0
    return 2 * p * r / (p + r) if p + r else 0.0


def brute_force_f1(probs, labels):
    """Best positive-class F1 over a dense threshold grid: an oracle for
    select_threshold."""
    return max(f1_at(probs, labels, thr) for thr in np.linspace(0.0, 1.0, 10_001))


class TestSelectThreshold:
    def test_matches_brute_force_f1_on_random_sets(self):
        rng = np.random.default_rng(0)
        for _ in range(25):
            n = int(rng.integers(5, 40))
            labels = rng.integers(0, 2, n)
            if labels.sum() in (0, n):
                labels[0] = 1 - labels[0]
            probs = np.round(rng.random(n), 3)
            thr = TR.select_threshold(probs, labels)
            assert f1_at(probs, labels, thr) == pytest.approx(brute_force_f1(probs, labels),
                                                              abs=1e-9)

    def test_ties_resolve_to_lowest_threshold(self):
        # any threshold in (0.4, 0.6) gives the same confusion; the scan
        # must return the lowest candidate achieving the best score
        probs = np.array([0.2, 0.4, 0.6, 0.8])
        labels = np.array([0, 0, 1, 1])
        thr = TR.select_threshold(probs, labels)
        assert thr == pytest.approx(0.5)

    def test_selected_threshold_reports_the_best_positive_f1(self):
        # select_threshold and classification_report share one F1
        from psygat.metrics import classification_report

        rng = np.random.default_rng(1)
        labels = rng.integers(0, 2, 30)
        labels[:2] = (1, 0)
        probs = np.round(rng.random(30), 3)
        thr = TR.select_threshold(probs, labels)
        uniq = np.unique(probs)
        best = max(classification_report(probs, labels, t).f1[1]
                   for t in [0.0, *((uniq[1:] + uniq[:-1]) / 2), 1.0])
        assert classification_report(probs, labels, thr).f1[1] == best

    def test_single_class_rejected(self):
        with pytest.raises(TR.DataError):
            TR.select_threshold(np.array([0.1, 0.9]), np.array([1, 1]))

    def test_tie_between_different_cuts_resolves_to_the_lowest(self):
        # calling all four positive and only the top one positive both score
        # F1 2/3; the 0.0 cut must win over 0.7
        probs = np.array([0.2, 0.4, 0.6, 0.8])
        labels = np.array([1, 0, 0, 1])
        assert f1_at(probs, labels, 0.0) == f1_at(probs, labels, 0.7) == pytest.approx(2 / 3)
        assert TR.select_threshold(probs, labels) == 0.0


class TestTrainConfig:
    def test_defaults_are_valid(self):
        TR.TrainConfig()

    def test_json_round_trip(self):
        c = TR.TrainConfig(lr=1e-3, seeds=(7, 8))
        assert TR.TrainConfig.from_json(c.to_json()) == c

    def test_invalid_values_rejected(self):
        with pytest.raises(TR.ConfigError):
            TR.TrainConfig(lr=0)
        with pytest.raises(TR.ConfigError):
            TR.TrainConfig(contrastive_temperature=0.0)
        with pytest.raises(TR.ConfigError, match="batch_size"):
            TR.TrainConfig(batch_size=0)
        with pytest.raises(TR.ConfigError, match="focal_gamma"):
            TR.TrainConfig(focal_gamma=-0.5)


    def test_fields(self):
        assert list(TR.TrainConfig.__dataclass_fields__) == [
            "lr", "weight_decay", "max_epochs", "early_stop_patience", "plateau_factor",
            "plateau_patience", "clip_norm", "focal_gamma", "contrastive_weight",
            "contrastive_temperature", "seeds", "batch_size"]

    @pytest.mark.parametrize("field,value", [
        ("contrastive_weight", -1.0), ("clip_norm", -1.0), ("clip_norm", 0.0),
        ("plateau_factor", 2.0), ("plateau_factor", 0.0), ("max_epochs", -3), ("seeds", ()),
        ("seeds", (1, 1)),
    ])
    def test_values_that_invert_or_freeze_training_rejected(self, field, value):
        with pytest.raises(TR.ConfigError, match=field) as info:
            TR.TrainConfig(**{field: value})
        assert len(str(info.value).splitlines()) == 1

    def test_boundary_values_accepted(self):
        TR.TrainConfig(contrastive_weight=0.0, plateau_factor=1.0, max_epochs=0, seeds=(3,))


class TestFit:
    def test_steps_per_epoch_cover_every_graph_once(self, monkeypatch):
        from psygat import model as M
        from psygat.verify import _tiny_graph

        rng = np.random.default_rng(1)
        graphs = [_tiny_graph(rng, int(n)) for n in rng.integers(1, 6, 11)]
        for k, g in enumerate(graphs):
            g.label = k % 2
        seen = []
        step = TR._train_step
        monkeypatch.setattr(TR, "_train_step",
                            lambda params, opt, batch, *a: seen.append(batch.num_graphs)
                            or step(params, opt, batch, *a))
        cfg = M.ModelConfig(text_dim=12, hidden=16, heads=2, persona_dim=4, head_hidden=8)
        config = TR.TrainConfig(max_epochs=3, early_stop_patience=5, seeds=(0,), batch_size=4)
        TR.fit(graphs, graphs, config, cfg, seed=0)
        assert seen == [4, 4, 3] * 3

    def test_predict_probs_match_per_graph_forward_across_chunks(self, monkeypatch):
        from psygat import model as M
        from psygat.graph import GraphBatch
        from psygat.verify import _tiny_graph

        rng = np.random.default_rng(2)
        graphs = [_tiny_graph(rng, int(n)) for n in rng.integers(1, 7, 9)]
        cfg = M.ModelConfig(text_dim=12, hidden=16, heads=2, persona_dim=4, head_hidden=8)
        params = M.ModelParams(cfg, seed=2)
        single = [M.forward(GraphBatch.from_graphs([g]), params).probs[0] for g in graphs]
        monkeypatch.setattr(TR, "PREDICT_CHUNK", 4)
        np.testing.assert_allclose(TR.predict_probs(params, graphs), single, atol=1e-6)
        assert TR.predict_probs(params, []).shape == (0,)

    def test_constants_leave_parameter_gradients_bit_equal(self, monkeypatch):
        # one train step's clipped gradients, with the inputs, zero states and
        # loss constants marked as needing no gradient, and with every leaf
        # requiring one
        from psygat import model as M
        from psygat.graph import GraphBatch
        from psygat.verify import _tiny_graph

        rng = np.random.default_rng(3)
        graphs = [_tiny_graph(rng, int(n)) for n in (4, 1, 6, 3)]
        for k, g in enumerate(graphs):
            g.label, g.persona = k % 2, k % 4
        batch = GraphBatch.from_graphs(graphs)
        cfg = M.ModelConfig(text_dim=12, hidden=16, heads=2, persona_dim=4, head_hidden=8)
        config = TR.TrainConfig(seeds=(0,))

        class Recorder:
            def step(self, named_params):
                self.grads = {name: p.grad.copy() for name, p in named_params}

        def step_grads():
            opt = Recorder()
            TR._train_step(M.ModelParams(cfg, seed=1), opt, batch, config,
                           np.random.default_rng(7))
            return opt.grads

        marked = step_grads()
        init = T.Tensor.__init__
        monkeypatch.setattr(T.Tensor, "__init__",
                            lambda self, *args, requires_grad=True, **kwargs:
                            init(self, *args, **kwargs))
        unmarked = step_grads()
        assert marked.keys() == unmarked.keys()
        for name in marked:
            np.testing.assert_array_equal(marked[name], unmarked[name], err_msg=name)

    @pytest.mark.parametrize("max_epochs", [0, 1, 6])
    def test_threshold_and_auc_match_a_rescore_of_the_restored_params(self, monkeypatch,
                                                                       max_epochs):
        # fit selects the threshold from the best epoch's validation
        # probabilities instead of scoring validation once more after
        # restoring that epoch's parameters
        from psygat import model as M
        from psygat.metrics import pr_auc
        from psygat.verify import _tiny_graph

        rng = np.random.default_rng(14)
        graphs = [_tiny_graph(rng, int(n)) for n in rng.integers(1, 7, 14)]
        for k, g in enumerate(graphs):
            g.label, g.persona = k % 2, k % 4
        train, val = graphs[:8], graphs[8:]
        steps, scored = [], []
        step, predict = TR._train_step, TR.predict_probs
        monkeypatch.setattr(TR, "_train_step", lambda *a: steps.append(1) or step(*a))
        monkeypatch.setattr(TR, "predict_probs", lambda *a: scored.append(1) or predict(*a))
        cfg = M.ModelConfig(text_dim=12, hidden=16, heads=2, persona_dim=4, head_hidden=8)
        config = TR.TrainConfig(lr=5e-3, max_epochs=max_epochs, early_stop_patience=2,
                                seeds=(0,), batch_size=4)
        ck = TR.fit(train, val, config, cfg, seed=0)
        epochs = len(steps) // 2  # two minibatches of 4 per epoch
        assert len(scored) == max(epochs, 1)  # one validation pass per epoch
        assert max_epochs < 6 or 0 < ck.epoch < epochs  # the restored epoch is not the last
        labels = np.array([g.label for g in val])
        probs = predict(ck.params, val)
        assert ck.threshold == TR.select_threshold(probs, labels)
        if max_epochs:
            assert ck.best_val_pr_auc == pr_auc(probs, labels)

    def test_freed_graph_leaves_parameter_gradients_bit_equal(self, monkeypatch):
        # one train step's gradients, from the backward that frees the graph
        # as it goes and from one that keeps every node's state
        from psygat import model as M
        from psygat.graph import GraphBatch
        from psygat.verify import _tiny_graph

        def keeping_backward(loss):
            topo, seen = [], set()
            stack = [(loss, False)]
            while stack:
                node, done = stack.pop()
                if done:
                    topo.append(node)
                elif id(node) not in seen:
                    seen.add(id(node))
                    stack.append((node, True))
                    stack.extend((p, False) for p in node.parents if p.requires_grad)
            loss.accumulate(np.ones_like(loss.data))
            for node in reversed(topo):
                if node._backward is not None:
                    node._backward(node.grad)
            kept.append(sum(1 for node in topo if node.parents and node.grad is not None))

        rng = np.random.default_rng(4)
        graphs = [_tiny_graph(rng, int(n)) for n in (5, 2, 4, 1)]
        for k, g in enumerate(graphs):
            g.label, g.persona = k % 2, k % 4
        batch = GraphBatch.from_graphs(graphs)
        cfg = M.ModelConfig(text_dim=12, hidden=16, heads=2, persona_dim=4, head_hidden=8)

        def step_grads():
            params = M.ModelParams(cfg, seed=1)
            TR._train_step(params, TR.AdamW(1e-3), batch, TR.TrainConfig(seeds=(0,)),
                           np.random.default_rng(7))
            return {name: p.grad.tobytes() for name, p in params.named()}

        freed, kept = step_grads(), []
        monkeypatch.setattr(T, "backward", keeping_backward)
        assert step_grads() == freed
        assert kept[0] > 50  # the reference did keep the intermediates' gradients

    def test_best_snapshot_is_refreshed_in_place(self, monkeypatch):
        from psygat import model as M
        from psygat.verify import _tiny_graph

        rng = np.random.default_rng(14)
        graphs = [_tiny_graph(rng, int(n)) for n in rng.integers(1, 7, 14)]
        for k, g in enumerate(graphs):
            g.label, g.persona = k % 2, k % 4
        snaps = []
        snapshot = M.ModelParams.snapshot
        monkeypatch.setattr(M.ModelParams, "snapshot",
                            lambda self, into=None: snaps.append(snapshot(self, into))
                            or snaps[-1])
        cfg = M.ModelConfig(text_dim=12, hidden=16, heads=2, persona_dim=4, head_hidden=8)
        config = TR.TrainConfig(lr=5e-3, max_epochs=6, early_stop_patience=6, seeds=(0,),
                                batch_size=4)
        ck = TR.fit(graphs[:8], graphs[8:], config, cfg, seed=0)
        assert ck.epoch >= 2 and len(snaps) >= 3  # the start and two improving epochs
        first = snaps[0]
        for snap in snaps[1:]:
            assert snap.keys() == first.keys()
            assert all(snap[name] is first[name] for name in first)
        for name, t in ck.params.named():
            assert t.data.tobytes() == first[name].tobytes()

    def test_step_graphs_leave_no_cyclic_garbage(self):
        # op closures capture only their parents, so refcounting alone frees
        # each step's autodiff graph; nothing is left for the cycle collector
        import gc

        from psygat import model as M
        from psygat.verify import _tiny_graph

        rng = np.random.default_rng(0)
        graphs = [_tiny_graph(rng) for _ in range(6)]
        for k, g in enumerate(graphs):
            g.label = k % 2
        cfg = M.ModelConfig(text_dim=12, hidden=16, heads=2, persona_dim=4, head_hidden=8)
        config = TR.TrainConfig(max_epochs=2, seeds=(0,), batch_size=3)
        TR.fit(graphs, graphs, config, cfg, seed=0)  # first calls leave one-off import garbage
        gc.collect()
        gc.disable()
        try:
            TR.fit(graphs, graphs, config, cfg, seed=0)
            assert gc.collect() == 0
        finally:
            gc.enable()


class TestSchedule:
    """fit's epoch schedule against a scripted validation PR-AUC. One
    minibatch per epoch, so the recorded learning rates are one per epoch."""

    def fit(self, monkeypatch, aucs, n_train=4, **overrides):
        from psygat import model as M
        from psygat.verify import _tiny_graph

        rng = np.random.default_rng(4)
        graphs = [_tiny_graph(rng, 2) for _ in range(n_train)]
        for k, g in enumerate(graphs):
            g.label = k % 2
        script = iter(aucs)
        monkeypatch.setattr(TR, "pr_auc", lambda probs, labels: next(script))
        lrs = []

        class Recording(TR.AdamW):
            def step(self, named_params):
                lrs.append(self.lr)
                super().step(named_params)

        monkeypatch.setattr(TR, "AdamW", Recording)
        cfg = M.ModelConfig(text_dim=12, hidden=8, heads=2, num_layers=1, set2set_iters=1,
                            persona_dim=2, head_hidden=4)
        settings = dict(lr=1e-3, max_epochs=len(aucs), early_stop_patience=50,
                        plateau_patience=50, seeds=(0,), batch_size=4)
        ck = TR.fit(graphs, graphs[:2], TR.TrainConfig(**{**settings, **overrides}), cfg)
        return ck, lrs

    def test_early_stop_after_exactly_patience_epochs_without_gain(self, monkeypatch):
        ck, lrs = self.fit(monkeypatch, [0.5] * 10, early_stop_patience=3)
        assert len(lrs) == 4  # the improving epoch, then three without gain
        assert ck.epoch == 1

    def test_plateau_scales_lr_after_exactly_patience_epochs_without_gain(self, monkeypatch):
        ck, lrs = self.fit(monkeypatch, [0.5] * 8, plateau_patience=2)
        assert lrs == [1e-3] * 3 + [5e-4] * 2 + [2.5e-4] * 2 + [1.25e-4]

    def test_an_improvement_just_above_rounding_counts(self, monkeypatch):
        aucs = [0.5 + 1e-9 * k for k in range(6)]
        ck, lrs = self.fit(monkeypatch, aucs, early_stop_patience=1, plateau_patience=1)
        assert ck.epoch == 6 and ck.best_val_pr_auc == aucs[-1]
        assert lrs == [1e-3] * 6

    def test_a_two_graph_remainder_batch_gets_the_contrastive_term(self, monkeypatch):
        sizes = []
        nce = TR.info_nce
        monkeypatch.setattr(TR, "info_nce",
                            lambda reps, *a: sizes.append(reps.shape[0]) or nce(reps, *a))
        self.fit(monkeypatch, [0.5], n_train=10, batch_size=8)
        assert sorted(sizes) == [2, 8]

    def test_empty_split_and_single_class_validation_rejected(self):
        from psygat import model as M

        graphs = tiny_graphs(4)
        cfg = M.ModelConfig(text_dim=12, hidden=8, heads=2, persona_dim=2, head_hidden=4)
        config = TR.TrainConfig(max_epochs=1, seeds=(0,))
        for train, val in ((graphs, []), ([], graphs)):
            with pytest.raises(TR.ConfigError, match="non-empty train and validation"):
                TR.fit(train, val, config, cfg)
        for g in graphs:
            g.label = 1
        with pytest.raises(TR.ConfigError, match="both classes"):
            TR.fit(graphs, graphs, config, cfg)


def tiny_checkpoint(seed, dtype=np.float32, **model_overrides):
    from psygat import model as M

    base = dict(text_dim=12, hidden=16, heads=2, persona_dim=4, head_hidden=8)
    cfg = M.ModelConfig(**{**base, **model_overrides})
    return TR.Checkpoint(params=M.ModelParams(cfg, seed=seed, dtype=dtype),
                         train_config=TR.TrainConfig(),
                         best_val_pr_auc=0.0, threshold=0.5, seed=seed, epoch=0)


def tiny_graphs(count, seed=0):
    """count graphs of 1 to 6 nodes, single-node ones among them."""
    from psygat.verify import _tiny_graph

    rng = np.random.default_rng(seed)
    graphs = [_tiny_graph(rng, int(n)) for n in rng.integers(1, 7, count)]
    graphs[0] = _tiny_graph(rng, 1)
    for k, g in enumerate(graphs):
        g.persona = k % 4
    return graphs


def member_mean(members, graphs):
    """The ensemble mean as member-by-member predict_probs gives it."""
    return np.mean([TR.predict_probs(ck.params, graphs) for ck in members], axis=0)


class TestEnsembleStack:
    @pytest.mark.parametrize("members", [1, 2, 5])
    @pytest.mark.parametrize("count", [1, 16])
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("persona", [True, False], ids=["on", "off"])
    def test_bit_equal_to_member_by_member_mean(self, members, count, dtype, persona):
        ensemble = [tiny_checkpoint(k, dtype, persona=persona) for k in range(members)]
        graphs = tiny_graphs(count, seed=members + count)
        want = member_mean(ensemble, graphs)
        got = TR.ensemble_probs(ensemble, graphs)
        assert got.dtype == np.float64 and got.shape == (count,)
        assert got.tobytes() == want.tobytes()
        # and again from the kept stack, now that the members are views of it
        assert TR.ensemble_probs(ensemble, graphs).tobytes() == want.tobytes()
        assert member_mean(ensemble, graphs).tobytes() == want.tobytes()

    def test_members_are_views_of_one_stack(self):
        ensemble = [tiny_checkpoint(k) for k in range(3)]
        TR.ensemble_probs(ensemble, tiny_graphs(2))
        members = [ck.params for ck in ensemble]
        stacked = T.stack_params(members)
        assert stacked is T.stack_params(members)  # unchanged members keep their stack
        assert stacked.stacked is None
        assert [m.stacked for m in members] == [(stacked, k) for k in range(3)]
        for name, t in stacked.named():
            for k, m in enumerate(members):
                assert m[name].data.base is t.data
                assert np.shares_memory(m[name].data, t.data[k])

    @pytest.mark.parametrize("change", ["in-place edit", "load_snapshot", "rebound tensor",
                                        "reordered", "subset", "prefix", "duplicates"])
    def test_next_call_sees_the_members_as_they_are(self, change):
        ensemble = [tiny_checkpoint(k) for k in range(3)]
        graphs = tiny_graphs(5)
        TR.ensemble_probs(ensemble, graphs)
        if change == "in-place edit":
            for _, p in ensemble[1].params.named():
                p.data *= 1.5
        elif change == "load_snapshot":
            ensemble[2].params.load_snapshot(tiny_checkpoint(7).params.snapshot())
        elif change == "rebound tensor":
            t = ensemble[1].params["text_w"]
            t.data = t.data * 2
        elif change == "reordered":
            ensemble = ensemble[::-1]
        elif change == "subset":
            ensemble = ensemble[1:]
        elif change == "prefix":  # tagged (stack, 0) and (stack, 1), but the stack holds 3
            ensemble = ensemble[:2]
        else:
            ensemble = [ensemble[0], ensemble[1], ensemble[0]]
        want = member_mean(ensemble, graphs)
        for _ in range(2):  # the first call after the change, then one on the kept stack
            assert TR.ensemble_probs(ensemble, graphs).tobytes() == want.tobytes()

    def test_alternating_ensembles_keep_their_own_stacks(self):
        graphs = tiny_graphs(4)
        ensembles = [[tiny_checkpoint(k) for k in (0, 1, 2)], [tiny_checkpoint(k) for k in (3, 4)]]
        want = [member_mean(e, graphs) for e in ensembles]
        stacks = []
        for e in ensembles:
            TR.ensemble_probs(e, graphs)
            stacks.append(e[0].params["text_w"].data.base)
        for _ in range(2):
            for e, w, stack in zip(ensembles, want, stacks):
                assert TR.ensemble_probs(e, graphs).tobytes() == w.tobytes()
                assert all(ck.params["text_w"].data.base is stack for ck in e)  # not restacked

    def test_dropping_the_members_frees_their_stack(self):
        import weakref

        ensemble = [tiny_checkpoint(k) for k in range(2)]
        TR.ensemble_probs(ensemble, tiny_graphs(2))
        stack = weakref.ref(ensemble[0].params["text_w"].data.base)
        del ensemble
        assert stack() is None

    def test_mixed_persona_modes_rejected(self):
        ensemble = [tiny_checkpoint(0), tiny_checkpoint(1, persona=False)]
        with pytest.raises(TR.ConfigError, match="architectures"):
            TR.ensemble_probs(ensemble, tiny_graphs(2))

    def test_mixed_parameter_dtypes_rejected(self):
        ensemble = [tiny_checkpoint(0), tiny_checkpoint(1, dtype=np.float64)]
        with pytest.raises(TR.ConfigError, match="dtypes"):
            TR.ensemble_probs(ensemble, tiny_graphs(2))

    def test_mismatched_architectures_rejected(self):
        ensemble = [tiny_checkpoint(0), tiny_checkpoint(1, hidden=32)]
        with pytest.raises(TR.ConfigError, match="architectures"):
            TR.ensemble_probs(ensemble, tiny_graphs(2))


def test_ensemble_probs_match_pinned_digest():
    """Ensemble probabilities of seeded members on the default corpus, pinned
    to the bytes: persona on and persona off, scored in 16-graph chunks and
    one graph at a time."""
    import hashlib

    from psygat import model as M
    from psygat.datagen import GenConfig, generate_corpus
    from psygat.pipeline import graphs_from_sessions

    corpus = generate_corpus(GenConfig(seed=0))
    graphs = graphs_from_sessions([s for split in ("train", "val", "test") for s in corpus[split]])

    def members(model_config):
        return [TR.Checkpoint(params=M.ModelParams(model_config, seed=k),
                              train_config=TR.TrainConfig(),
                              best_val_pr_auc=0.0, threshold=0.5, seed=k, epoch=0)
                for k in range(5)]

    h = hashlib.sha256()
    for ensemble in (members(M.ModelConfig()), members(M.ModelConfig(persona=False))):
        h.update(TR.ensemble_probs(ensemble, graphs).tobytes())
        h.update(np.array([TR.ensemble_predict(ensemble, g) for g in graphs[:20]]).tobytes())
    assert len(graphs) == 200 and TR.PREDICT_CHUNK == 16
    assert h.hexdigest() == "a9f030e2051fc47eda75eb7dbc9a2b32c5a2d5ab564e19cd5cb7d2ec66b02fb0"


def test_trained_parameters_match_pinned_digest():
    """A 2-epoch single-seed fit on the default corpus, every trained
    parameter pinned to the bytes in creation order: the dropout draws, the
    attention layout and every update step must leave them unchanged."""
    import hashlib

    from psygat import model as M
    from psygat.datagen import GenConfig, generate_corpus
    from psygat.pipeline import graphs_from_sessions

    corpus = generate_corpus(GenConfig(seed=0))
    train, val = (graphs_from_sessions(corpus[split]) for split in ("train", "val"))
    member = TR.fit(train, val, TR.TrainConfig(max_epochs=2, seeds=(0,)), M.ModelConfig(), seed=0)
    h = hashlib.sha256()
    for _, t in member.params.named():
        h.update(t.data.tobytes())
    assert h.hexdigest() == "86767c48721155686a9047411324ff52ca67a4369e28e14b2c9f583c5da95829"

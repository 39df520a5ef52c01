"""Causal instance extraction, edge scoring and ranked explanations."""

import dataclasses
import hashlib
import tracemalloc

import numpy as np
import pytest

from psygat import causal as C
from psygat import tensor as T
from psygat.datagen import GenConfig, generate_corpus
from psygat.errors import NumericalError
from psygat.peu import build_peu_tensor
from psygat.sessions import Session, Utterance
from psygat.train import AdamW


def make_session(active, causes=(), n=8, sid="c"):
    """active: {utterance -> category index}; causes: raw cause records."""
    peus = []
    for t in range(n):
        entries = []
        if t in active:
            entries.append({"category": C.CATEGORIES[active[t]], "value": 1, "spans": []})
        peus.append({"utt": t, "peus": entries})
    return Session(id=sid, persona=0, label=1,
                   utterances=[Utterance(i, "q", f"a{i}") for i in range(n)],
                   peus=peus, causes=list(causes))


def reference_instance_features(instance, node_reps, peu_rows, window):
    """One concatenated row per candidate, in node_reps' dtype."""
    t = instance.target_index
    dtype = node_reps.dtype
    target_peu = np.asarray(peu_rows[t], dtype=dtype)
    rows = []
    for j in instance.candidate_indices:
        pos = np.zeros(2 * window + 1, dtype=dtype)
        pos[j - t + window] = 1.0
        rows.append(np.concatenate([node_reps[t], node_reps[j], target_peu, pos]))
    return np.stack(rows)


def block(instance, node_reps, window):
    """An uninitialised (candidates, input_dim) block for instance_features,
    in node_reps' dtype."""
    width = 2 * node_reps.shape[1] + C.NUM_CATEGORIES + 2 * window + 1
    return np.empty((len(instance.candidate_indices), width), dtype=node_reps.dtype)


def reference_loss(logits, labels):
    """The scorer's focal loss as an op composition over a logits Tensor:
    mean((1 - p_t)^gamma * -log p_t), gamma the scorer's FOCAL_GAMMA, p_t
    the sigmoid of the logit signed by its label, -log p_t as softplus(-z)
    and the focal weight as pow_const(1 - sigmoid(z), gamma)."""
    dtype = logits.dtype

    def const(value):
        return T.Tensor(np.asarray(value, dtype=dtype), requires_grad=False)

    sign = np.where(np.asarray(labels) == 1, 1.0, -1.0).astype(dtype)
    z = T.mul(logits, const(sign))
    terms = T.softplus(T.mul(z, const(-1.0)))
    weight = T.pow_const(T.sub(const(1.0), T.sigmoid(z)), C.FOCAL_GAMMA)
    return T.tmean(T.mul(weight, terms))


def reference_scorer_loss(scorer, x, labels):
    """C.scorer_loss through the autodiff graph: the scorer MLP composed of
    tensor ops, reference_loss, and tensor.backward into fresh gradients."""
    p = scorer.tensors
    scorer.zero_grad()
    xt = T.Tensor(x.astype(p["w1"].dtype, copy=False), requires_grad=False)
    h = T.elu(T.add_bias(T.matmul(xt, p["w1"]), p["b1"]))
    logits = T.reshape(T.add_bias(T.matmul(h, p["w2"]), p["b2"]), (x.shape[0],))
    loss = reference_loss(logits, labels)
    T.backward(loss)
    return loss.data


def reference_train_scorer(instances, reps_by, peus_by, config, seed=0):
    """train_scorer with each minibatch concatenated from per-instance blocks
    and its gradients from reference_scorer_loss."""
    train_set = [i for i in instances if i.candidate_indices]
    scorer = C.ScorerParams(config, model_hidden=next(iter(reps_by.values())).shape[1],
                            seed=seed)
    opt = AdamW(C.LR)
    rng = np.random.default_rng(seed)
    feats = {id(i): reference_instance_features(i, reps_by[i.session_id], peus_by[i.session_id],
                                                config.window)
             for i in train_set}
    for _ in range(config.epochs):
        order = rng.permutation(len(train_set))
        for start in range(0, len(order), config.batch_instances):
            batch = [train_set[k] for k in order[start:start + config.batch_instances]]
            x = np.concatenate([feats[id(i)] for i in batch])
            y = np.concatenate([np.asarray(i.labels) for i in batch])
            reference_scorer_loss(scorer, x, y)
            opt.step(scorer)
    return scorer


def planted_instances(config, sessions, hidden=8, n=8, target=4):
    """Sessions whose one cause of the target carries a planted signature;
    returns (instances, reps by session, PEU rows by session)."""
    rng = np.random.default_rng(0)
    reps_by, peus_by, instances = {}, {}, []
    for k in range(sessions):
        cause = int(rng.integers(1, 4))
        causes = [{"target": target, "category": C.CATEGORIES[1], "sources": [cause]}]
        s = make_session({target: 1}, causes, n=n, sid=f"s{k}")
        peus = build_peu_tensor(s)
        reps = rng.standard_normal((n, hidden)).astype(np.float32) * 0.1
        reps[cause, :4] = 2.0  # planted signature
        reps_by[s.id] = reps
        peus_by[s.id] = peus
        instances += C.extract_instances(s, peus, config.window, config.past_only)
    return instances, reps_by, peus_by


class TestCausalConfig:
    @pytest.mark.parametrize("change", [{"epochs": 0}, {"batch_instances": 0}, {"hidden": 0}])
    def test_invalid_fields_rejected(self, change):
        with pytest.raises(C.ConfigError):
            C.CausalConfig(**change)

    def test_bad_window_is_a_config_error(self):
        with pytest.raises(C.ConfigError, match="window must be >= 1"):
            C.CausalConfig(window=0)


class TestExtractInstances:
    def test_one_instance_per_active_category(self):
        s = make_session({2: 1, 5: 3})
        instances = C.extract_instances(s, build_peu_tensor(s), window=3)
        assert [(i.target_index, i.target_category) for i in instances] == [(2, 1), (5, 3)]

    def test_instances_follow_rows_then_categories_as_python_ints(self):
        corpus = generate_corpus(GenConfig(seed=1, n_sessions=20))
        sessions = [s for split in corpus.values() for s in split]
        peus = {s.id: build_peu_tensor(s) for s in sessions}
        assert max(np.count_nonzero(p, axis=1).max() for p in peus.values()) >= 2
        for s in sessions:
            rows = peus[s.id]
            want = [(t, c) for t in range(s.T) for c in range(C.NUM_CATEGORIES)
                    if rows[t, c] != 0 and s.T > 1]
            got = [(i.target_index, i.target_category)
                   for i in C.extract_instances(s, rows, window=3)]
            assert got == want
            assert all(type(x) is int for pair in got for x in pair)

    def test_candidates_are_window_neighbours_without_target(self):
        s = make_session({3: 0}, n=10)
        (inst,) = C.extract_instances(s, build_peu_tensor(s), window=2)
        assert inst.candidate_indices == [1, 2, 4, 5]

    def test_window_clipped_at_session_bounds(self):
        s = make_session({0: 0}, n=4)
        (inst,) = C.extract_instances(s, build_peu_tensor(s), window=3)
        assert inst.candidate_indices == [1, 2, 3]

    def test_past_only_restricts_candidates(self):
        s = make_session({3: 0}, n=10)
        (inst,) = C.extract_instances(s, build_peu_tensor(s), window=2, past_only=True)
        assert inst.candidate_indices == [1, 2]

    def test_labels_follow_cause_records(self):
        causes = [{"target": 4, "category": C.CATEGORIES[2], "sources": [2, 3]}]
        s = make_session({4: 2}, causes, n=8)
        (inst,) = C.extract_instances(s, build_peu_tensor(s), window=3)
        assert inst.candidate_indices == [1, 2, 3, 5, 6, 7]
        assert inst.labels == [0, 1, 1, 0, 0, 0]
        assert inst.has_cause

    def test_unannotated_instance_has_all_zero_labels(self):
        s = make_session({4: 2}, n=8)
        (inst,) = C.extract_instances(s, build_peu_tensor(s), window=3)
        assert not inst.has_cause

    def test_bad_window_rejected(self):
        s = make_session({1: 0})
        with pytest.raises(C.DataError):
            C.extract_instances(s, build_peu_tensor(s), window=0)


class TestScorer:
    def test_feature_layout(self):
        s = make_session({3: 2}, n=6)
        peus = build_peu_tensor(s)
        (inst,) = C.extract_instances(s, peus, window=2)
        reps = np.arange(6 * 4, dtype=np.float32).reshape(6, 4)
        feats = C.instance_features(inst, reps, peus, 2, block(inst, reps, 2))
        assert feats.shape == (4, 4 + 4 + 8 + 5)
        # first candidate is utterance 1, relative position -2
        np.testing.assert_array_equal(feats[0, :4], reps[3])
        np.testing.assert_array_equal(feats[0, 4:8], reps[1])
        np.testing.assert_array_equal(feats[0, 8:16], peus[3])
        np.testing.assert_array_equal(feats[0, 16:], [1, 0, 0, 0, 0])

    @pytest.mark.parametrize("past_only", [False, True])
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_features_match_the_per_candidate_loop(self, past_only, dtype):
        # targets at both ends clip the window; past_only drops later candidates
        rng = np.random.default_rng(4)
        clipped = 0
        for window in (1, 2, 3):
            s = make_session({0: 1, 1: 2, 4: 0, 8: 3, 9: 1}, n=10)
            peus = build_peu_tensor(s)
            reps = rng.standard_normal((10, 6)).astype(dtype)
            instances = C.extract_instances(s, peus, window, past_only)
            clipped += sum(len(i.candidate_indices) < (window if past_only else 2 * window)
                           for i in instances)
            for inst in instances:
                got = C.instance_features(inst, reps, peus, window, block(inst, reps, window))
                want = reference_instance_features(inst, reps, peus, window)
                assert got.dtype == want.dtype and got.shape == want.shape
                assert got.tobytes() == want.tobytes()
        assert clipped

    def test_features_written_into_a_given_block(self):
        s = make_session({3: 2}, n=6)
        peus = build_peu_tensor(s)
        (inst,) = C.extract_instances(s, peus, window=2)
        reps = np.random.default_rng(0).standard_normal((6, 4))
        block = np.full((4, 4 + 4 + 8 + 5), np.nan, dtype=np.float32)
        assert C.instance_features(inst, reps, peus, 2, out=block) is block
        want = reference_instance_features(inst, reps, peus, 2).astype(np.float32)
        assert block.tobytes() == want.tobytes()

    def test_feature_memory_does_not_grow_with_the_square_of_the_window(self):
        # 6 candidates at window 2000: the block is 6 x 4017 float32, about
        # 0.1 MB; an identity of the 4001 positions would take 64 MB
        s = make_session({3: 2}, n=7)
        peus = build_peu_tensor(s)
        (inst,) = C.extract_instances(s, peus, window=2000)
        reps = np.random.default_rng(0).standard_normal((7, 4)).astype(np.float32)
        out = block(inst, reps, 2000)
        tracemalloc.start()
        try:
            C.instance_features(inst, reps, peus, 2000, out)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4 * 2**20
        want = reference_instance_features(inst, reps, peus, 2000)
        assert out.tobytes() == want.tobytes()

    @pytest.mark.parametrize("n_reps,message", [(3, "target utterance 3"),
                                                (5, "candidate utterance 5")])
    def test_features_need_every_node_representation(self, n_reps, message):
        s = make_session({3: 2}, n=6)
        peus = build_peu_tensor(s)
        (inst,) = C.extract_instances(s, peus, window=2)
        reps = np.zeros((n_reps, 4), np.float32)
        with pytest.raises(C.DataError, match=message):
            C.instance_features(inst, reps, peus, 2, block(inst, reps, 2))

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_ranked_probabilities_are_each_instance_scored_alone(self, dtype):
        # rank_and_evaluate scores each instance on its own rows of one
        # block; every probability has the bits of scoring that instance's
        # features by themselves, a single candidate included
        rng = np.random.default_rng(2)
        window = 2
        scorer = C.ScorerParams(C.CausalConfig(window=window), model_hidden=4, seed=0)
        instances, reps_by, peus_by = [], {}, {}
        for sid in ("a", "b"):
            s = make_session({1: 2, 4: 0, 5: 1},
                             [{"target": 4, "category": C.CATEGORIES[0], "sources": [3]}],
                             n=6, sid=sid)
            peus_by[sid] = build_peu_tensor(s)
            reps_by[sid] = rng.standard_normal((6, 4)).astype(dtype)
            instances += C.extract_instances(s, peus_by[sid], window, past_only=True)
        assert [len(i.candidate_indices) for i in instances] == [1, 2, 2] * 2
        _, explanations, _ = C.rank_and_evaluate(instances, reps_by, peus_by, scorer)
        for inst, rec in zip(instances, explanations):
            reps = reps_by[inst.session_id]
            feats = C.instance_features(inst, reps, peus_by[inst.session_id], window,
                                        block(inst, reps, window))
            want = T.stable_sigmoid(C.edge_logits(feats, scorer)[0])
            got = {r["utt"]: r["prob"] for r in rec["ranked"]}
            assert [got[j] for j in inst.candidate_indices] == want.tolist()

    def test_rank_candidates_ties_prefer_earlier_utterance(self):
        s = make_session({3: 2}, n=6)
        peus = build_peu_tensor(s)
        (inst,) = C.extract_instances(s, peus, window=2)
        order = C.rank_candidates(inst, np.array([0.5, 0.9, 0.5, 0.9]))
        # probs tie pairwise; earlier utterances win within each tie
        assert [inst.candidate_indices[k] for k in order] == [2, 5, 1, 4]

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_parameters_and_gradients_are_views_of_one_block(self, dtype):
        from tests.test_tensor import assert_views_of_block

        config = C.CausalConfig(window=2, hidden=16)
        got, want = (C.ScorerParams(config, model_hidden=8, seed=1, dtype=dtype)
                     for _ in range(2))
        assert list(got.shapes) == ["w1", "b1", "w2", "b2"]
        assert got.flat.data.dtype == dtype and got.flat.data.flags.c_contiguous
        assert_views_of_block(got)

        rng = np.random.default_rng(2)
        x = rng.standard_normal((30, got.input_dim)).astype(dtype)
        labels = rng.integers(0, 2, 30)
        sign = np.where(labels == 1, 1.0, -1.0).astype(dtype)
        for _ in range(2):  # a second call overwrites, never adds to, the first
            for _, t in got.named():
                t.zero_grad()  # as grad_check leaves them: scorer_loss re-points them
            C.scorer_loss(got, x, sign)
        reference_scorer_loss(want, x, labels)
        for (name, a), (_, b), (_, g) in zip(got.named(), want.named(),
                                             got.views(got.flat.grad)):
            assert a.grad.base is got.flat.grad and a.grad.ctypes.data == g.ctypes.data, name
            assert a.grad.tobytes() == b.grad.tobytes(), name

    def test_rejected_step_changes_nothing(self):
        config = C.CausalConfig(window=2, hidden=8)
        scorer = C.ScorerParams(config, model_hidden=4, seed=0)
        rng = np.random.default_rng(3)
        x = rng.standard_normal((10, scorer.input_dim))
        sign = np.where(np.arange(10) % 2 == 0, 1.0, -1.0)
        opt = AdamW(C.LR)
        C.scorer_loss(scorer, x, sign)
        opt.step(scorer)
        C.scorer_loss(scorer, x, sign)
        scorer["b2"].grad[0] = np.inf
        before = [a.copy() for a in (scorer.flat.data, scorer.flat.grad, opt.m, opt.v)]
        with pytest.raises(NumericalError, match="parameter b2$"):
            opt.step(scorer)
        for want, got in zip(before, (scorer.flat.data, scorer.flat.grad, opt.m, opt.v)):
            assert got.tobytes() == want.tobytes()
        assert opt.t == 1

    def test_causal_loss_focal_shape_and_identity(self):
        # a one-unit scorer whose logits are x[:, 0] - 3: [2, -2, 0]
        assert C.FOCAL_GAMMA == 2.0
        scorer = C.ScorerParams(C.CausalConfig(window=1, hidden=1), model_hidden=2,
                                dtype=np.float64)
        scorer["w1"].data[:] = 0.0
        scorer["w1"].data[0, 0] = 1.0
        scorer["w2"].data[:] = 1.0
        scorer["b2"].data[:] = -3.0
        x = np.zeros((3, scorer.input_dim))
        x[:, 0] = [5.0, 1.0, 3.0]
        labels = np.array([1, 0, 1])
        sign = np.where(labels == 1, 1.0, -1.0)
        logits = T.Tensor(np.array([2.0, -2.0, 0.0]), dtype=np.float64)
        np.testing.assert_array_equal(C.edge_logits(x, scorer)[0], logits.data)
        p_t = 1 / (1 + np.exp(-logits.data * sign))
        ref = np.mean((1 - p_t) ** 2 * -np.log(p_t))
        got = float(C.scorer_loss(scorer, x, sign))
        assert got == pytest.approx(ref, rel=1e-9)
        assert got == float(reference_loss(logits, labels).data)

    # one row: a minibatch of one single-candidate instance
    @pytest.mark.parametrize("rows", [40, 1])
    @pytest.mark.parametrize("saturated", [False, True])
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_scorer_loss_is_bit_equal_to_the_op_composition(self, dtype, saturated, rows):
        rng = np.random.default_rng(5)
        config = C.CausalConfig(window=2, hidden=16)
        got, want = (C.ScorerParams(config, model_hidden=8, seed=1, dtype=dtype)
                     for _ in range(2))
        # rows of both signs of logit and label
        x = (rng.standard_normal((40, got.input_dim)) * rng.uniform(0.1, 4.0, (40, 1)))[:rows]
        labels = rng.integers(0, 2, 40)[:rows]
        if saturated:
            # every row a cause with a logit near 50, so sigmoid rounds to
            # 1 and the gradient of each row is a signed zero
            for scorer in (got, want):
                scorer["b2"].data[:] = 50.0
            labels[:] = 1
        loss = C.scorer_loss(got, x.astype(dtype),
                             np.where(labels == 1, 1.0, -1.0).astype(dtype))
        ref = reference_scorer_loss(want, x.astype(dtype), labels)
        assert np.asarray(loss).dtype == ref.dtype == dtype
        assert np.asarray(loss).tobytes() == ref.tobytes()
        for (name, a), (_, b) in zip(got.named(), want.named()):
            assert a.grad.dtype == b.grad.dtype and a.grad.shape == b.grad.shape, name
            assert a.grad.tobytes() == b.grad.tobytes(), name

    def test_non_finite_features_stop_training_naming_the_parameter(self):
        config = C.CausalConfig(window=2, epochs=1, batch_instances=4, hidden=8)
        instances, reps_by, peus_by = planted_instances(config, sessions=6)
        reps_by["s0"][2, 0] = np.inf
        with np.errstate(all="ignore"), pytest.raises(NumericalError,
                                                      match="parameter w1"):
            C.train_scorer(instances, reps_by, peus_by, config, seed=0)

    @pytest.mark.parametrize("poisoned,named", [
        (("w2",), "w2"), (("b2",), "b2"), (("b1", "b2"), "b1"), (("w1", "b2"), "w1"),
    ])
    def test_non_finite_gradient_of_a_later_tensor_is_named(self, monkeypatch, poisoned,
                                                             named):
        # gradients non-finite only in the poisoned tensors: the step over
        # the whole block names the first of them in creation order, as a
        # step per tensor does
        scorer_loss = C.scorer_loss

        def poisoning_loss(scorer, *args):
            loss = scorer_loss(scorer, *args)
            for name in poisoned:
                scorer[name].grad.flat[0] = np.nan
            return loss

        monkeypatch.setattr(C, "scorer_loss", poisoning_loss)
        config = C.CausalConfig(window=2, epochs=1, batch_instances=4, hidden=8)
        instances, reps_by, peus_by = planted_instances(config, sessions=6)
        with pytest.raises(NumericalError, match=f"parameter {named}$"):
            C.train_scorer(instances, reps_by, peus_by, config, seed=0)
        scorer = C.ScorerParams(config, model_hidden=8)
        x = C._feature_block(instances, reps_by, peus_by, scorer)[0]
        poisoning_loss(scorer, x, np.ones(len(x), np.float32))
        with pytest.raises(NumericalError, match=f"parameter {named}$"):
            AdamW(C.LR).step(scorer)

    def test_training_learns_planted_signal(self):
        # candidates whose representation matches a fixed pattern are the
        # causes; the scorer should rank them first after training
        config = C.CausalConfig(window=3, epochs=30, batch_instances=16)
        instances, reps_by, peus_by = planted_instances(config, sessions=30)
        train, test = instances[:24], instances[24:]
        scorer = C.train_scorer(train, reps_by, peus_by, config, seed=0)
        report, explanations, skipped = C.rank_and_evaluate(test, reps_by, peus_by, scorer)
        assert skipped == 0
        assert report.hit_at[1] == pytest.approx(1.0)
        assert report.mrr == pytest.approx(1.0)
        for rec in explanations:
            assert rec["ranked"][0]["is_cause"]

    # 12 instances: minibatches of 4 divide them, of 5 leave a short last
    # one, and 20 is more than there are; each instance holds window rows,
    # twice that without past_only, which moves where a minibatch's rows
    # end in the feature block
    @pytest.mark.parametrize("batch_instances", [5, 4, 20])
    @pytest.mark.parametrize("past_only", [False, True])
    @pytest.mark.parametrize("window", [1, 2, 3])
    def test_trained_scorer_is_bit_equal_to_per_batch_concatenation(self, window, past_only,
                                                                    batch_instances):
        config = C.CausalConfig(window=window, past_only=past_only, epochs=3,
                                batch_instances=batch_instances, hidden=16)
        instances, reps_by, peus_by = planted_instances(config, sessions=12)
        assert len(instances) == 12
        assert all(len(i.candidate_indices) == window * (1 if past_only else 2)
                   for i in instances)
        got = C.train_scorer(instances, reps_by, peus_by, config, seed=3)
        want = reference_train_scorer(instances, reps_by, peus_by, config, seed=3)
        for (name, a), (_, b) in zip(got.named(), want.named()):
            assert a.data.tobytes() == b.data.tobytes(), name

    def test_rank_and_evaluate_skips_causeless_instances(self):
        s = make_session({2: 1, 5: 3},
                         [{"target": 2, "category": C.CATEGORIES[1], "sources": [1]}], n=8)
        peus = build_peu_tensor(s)
        instances = C.extract_instances(s, peus, window=3)
        scorer = C.ScorerParams(C.CausalConfig(window=3), model_hidden=4, seed=0)
        reps = {"c": np.zeros((8, 4), dtype=np.float32)}
        rows = {"c": peus}
        report, explanations, skipped = C.rank_and_evaluate(instances, reps, rows, scorer)
        assert report.instances == 1
        assert skipped == 1
        assert len(explanations) == 2

    def test_evaluate_without_any_causes_rejected(self):
        s = make_session({2: 1}, n=6)
        peus = build_peu_tensor(s)
        instances = C.extract_instances(s, peus, window=3)
        scorer = C.ScorerParams(C.CausalConfig(window=3), model_hidden=4, seed=0)
        with pytest.raises(C.DataError):
            C.rank_and_evaluate(instances, {"c": np.zeros((6, 4), dtype=np.float32)},
                                {"c": peus}, scorer)


def test_session_node_reps_equal_forward_node_reps():
    from psygat import model as M
    from tests.test_model import make_graph, run, small_config

    rng = np.random.default_rng(0)
    cfg = small_config()
    params = M.ModelParams(cfg, seed=0)
    for n in (1, 2, 9):
        g = make_graph(rng, n, cfg)
        np.testing.assert_array_equal(C.session_node_reps(g, params),
                                      run(g, params).node_reps.data)


@pytest.fixture(scope="module")
def small_explain_inputs():
    from psygat import model as M
    from psygat.datagen import GenConfig, generate_corpus
    from psygat.pipeline import graphs_from_sessions

    corpus = generate_corpus(GenConfig(seed=1, n_sessions=30))
    sessions = [s for split in ("train", "val", "test") for s in corpus[split]]
    graphs = {g.session_id: g for g in graphs_from_sessions(sessions)}
    return corpus, graphs, M.ModelParams(M.ModelConfig(), seed=0)


@pytest.mark.parametrize("evaluated", ["test", "val"])
def test_explain_encodes_and_annotates_train_and_the_evaluated_split_once(
        small_explain_inputs, evaluated, monkeypatch):
    corpus, _, params = small_explain_inputs
    splits = dict(corpus, test=corpus["test"] if evaluated == "test" else [])
    from psygat import peu, pipeline

    built, encoded, annotated, scored_peus = [], [], [], []
    graphs_from, reps = C.graphs_from_sessions, C.session_node_reps
    peus, train = peu.build_peu_tensor, C.train_scorer
    monkeypatch.setattr(C, "graphs_from_sessions",
                        lambda ss: built.append(graphs_from(ss)) or built[-1])
    monkeypatch.setattr(C, "session_node_reps",
                        lambda g, p: encoded.append(g.session_id) or reps(g, p))
    for owner in (peu, pipeline):
        monkeypatch.setattr(owner, "build_peu_tensor", lambda s: annotated.append(s.id) or peus(s))
    monkeypatch.setattr(C, "train_scorer", lambda insts, reps_by, peus_by, *rest:
                        scored_peus.append(peus_by) or train(insts, reps_by, peus_by, *rest))
    _, _, explanations, _ = C.explain(splits, params, C.CausalConfig(epochs=1))
    read = [s.id for s in corpus["train"] + corpus[evaluated]]
    (graphs,) = built  # one call, so an id shared across the splits is caught
    assert [g.session_id for g in graphs] == read
    assert encoded == read
    # each PEU array is parsed once, for its graph, and the scorer reads it there
    assert annotated == read
    (peus_by,) = scored_peus
    assert list(peus_by) == read
    assert all(peus_by[g.session_id] is g.node_peu for g in graphs)
    assert {rec["session"] for rec in explanations} <= {s.id for s in corpus[evaluated]}


def test_explain_rejects_an_id_train_and_the_evaluated_split_share(small_explain_inputs):
    corpus, _, params = small_explain_inputs
    clash = dataclasses.replace(corpus["test"][0], id=corpus["train"][0].id)
    splits = dict(corpus, test=[clash, *corpus["test"][1:]])
    with pytest.raises(C.DataError, match=f"session id {clash.id!r} occurs more than once"):
        C.explain(splits, params, C.CausalConfig(epochs=1))


def test_explain_equals_its_components(small_explain_inputs):
    corpus, graphs, params = small_explain_inputs
    config = C.CausalConfig(epochs=1)
    scorer, report, explanations, skipped = C.explain(corpus, params, config, seed=3)
    read = corpus["train"] + corpus["test"]
    reps = {s.id: C.session_node_reps(graphs[s.id], params) for s in read}
    rows = {s.id: build_peu_tensor(s) for s in read}

    def instances(split):
        return [i for s in split
                for i in C.extract_instances(s, rows[s.id], config.window, config.past_only)]

    want = C.train_scorer(instances(corpus["train"]), reps, rows, config, seed=3)
    assert [n for n, _ in scorer.named()] == [n for n, _ in want.named()]
    for (name, got), (_, ref) in zip(scorer.named(), want.named()):
        assert got.data.tobytes() == ref.data.tobytes(), name
    assert (report, explanations, skipped) == C.rank_and_evaluate(
        instances(corpus["test"]), reps, rows, want)


def test_explain_outputs_match_pinned_digest():
    """Scorer parameters and explanation probabilities of a seed-0 explain
    run, pinned to the bytes: the scorer's training must not move under a
    refactor."""
    from psygat import model as M
    from psygat.datagen import GenConfig, generate_corpus

    corpus = generate_corpus(GenConfig(seed=0))
    params = M.ModelParams(M.ModelConfig(), seed=0)
    scorer, _, explanations, _ = C.explain(corpus, params, C.CausalConfig(epochs=2))
    h = hashlib.sha256()
    for name, t in scorer.named():
        h.update(name.encode())
        h.update(t.data.tobytes())
    h.update(np.array([r["prob"] for rec in explanations for r in rec["ranked"]]).tobytes())
    assert len(explanations) == 299
    assert h.hexdigest() == "1109b36bc4ec6defd42f28beae00f2c9b04c8da0d7f17f561c2a998ccd8d96a3"

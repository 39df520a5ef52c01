"""Causal instance extraction, edge scoring and ranked explanations."""

import numpy as np
import pytest

from psygat import causal as C
from psygat.peu import build_peu_tensor
from psygat.sessions import Session, Utterance


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


class TestExtractInstances:
    def test_one_instance_per_active_category(self):
        s = make_session({2: 1, 5: 3})
        instances = C.extract_instances(s, build_peu_tensor(s), window=3)
        assert [(i.target_index, i.target_category) for i in instances] == [(2, 1), (5, 3)]

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
        feats = C.instance_features(inst, reps, peus.as_array(), window=2)
        assert feats.shape == (4, 4 + 4 + 8 + 5)
        # first candidate is utterance 1, relative position -2
        np.testing.assert_array_equal(feats[0, :4], reps[3])
        np.testing.assert_array_equal(feats[0, 4:8], reps[1])
        np.testing.assert_array_equal(feats[0, 8:16], peus.as_array()[3])
        np.testing.assert_array_equal(feats[0, 16:], [1, 0, 0, 0, 0])

    def test_score_edges_probabilities(self):
        s = make_session({3: 2}, n=6)
        peus = build_peu_tensor(s)
        (inst,) = C.extract_instances(s, peus, window=2)
        scorer = C.ScorerParams(C.CausalConfig(window=2), model_hidden=4, seed=0)
        probs = C.score_edges(inst, np.zeros((6, 4), dtype=np.float32),
                              peus.as_array(), scorer)
        assert probs.shape == (4,)
        assert np.all((probs > 0) & (probs < 1))

    def test_rank_candidates_ties_prefer_earlier_utterance(self):
        s = make_session({3: 2}, n=6)
        peus = build_peu_tensor(s)
        (inst,) = C.extract_instances(s, peus, window=2)
        order = C.rank_candidates(inst, np.array([0.5, 0.9, 0.5, 0.9]))
        # probs tie pairwise; earlier utterances win within each tie
        assert [inst.candidate_indices[k] for k in order] == [2, 5, 1, 4]

    def test_causal_loss_focal_shape_and_identity(self):
        logits = C.T.Tensor(np.array([2.0, -2.0, 0.0]), dtype=np.float64)
        labels = [1, 0, 1]
        plain = float(C.causal_loss(logits, labels, alpha=1.0, gamma=0.0).data)
        probs = 1 / (1 + np.exp(-logits.data))
        ref = np.mean([-np.log(probs[0]), -np.log(1 - probs[1]), -np.log(probs[2])])
        assert plain == pytest.approx(ref, rel=1e-9)
        scaled = float(C.causal_loss(logits, labels, alpha=0.75, gamma=0.0).data)
        assert scaled == pytest.approx(0.75 * plain, rel=1e-9)

    def test_training_learns_planted_signal(self):
        # candidates whose representation matches a fixed pattern are the
        # causes; the scorer should rank them first after training
        rng = np.random.default_rng(0)
        hidden = 8
        config = C.CausalConfig(window=3, epochs=30, batch_instances=16)
        sessions, reps_by, peus_by, instances = [], {}, {}, []
        for k in range(30):
            n = 8
            target = 4
            cause = int(rng.integers(1, 4))
            causes = [{"target": target, "category": C.CATEGORIES[1], "sources": [cause]}]
            s = make_session({target: 1}, causes, n=n, sid=f"s{k}")
            peus = build_peu_tensor(s)
            reps = rng.standard_normal((n, hidden)).astype(np.float32) * 0.1
            reps[cause, :4] = 2.0  # planted signature
            reps_by[s.id] = reps
            peus_by[s.id] = peus.as_array()
            instances += C.extract_instances(s, peus, config.window)
        train, test = instances[:24], instances[24:]
        scorer = C.train_scorer(train, reps_by, peus_by, config, seed=0)
        report, explanations, skipped = C.rank_and_evaluate(test, reps_by, peus_by, scorer)
        assert skipped == 0
        assert report.hit_at[1] == pytest.approx(1.0)
        assert report.mrr == pytest.approx(1.0)
        for rec in explanations:
            assert rec["ranked"][0]["is_cause"]

    def test_rank_and_evaluate_skips_causeless_instances(self):
        s = make_session({2: 1, 5: 3},
                         [{"target": 2, "category": C.CATEGORIES[1], "sources": [1]}], n=8)
        peus = build_peu_tensor(s)
        instances = C.extract_instances(s, peus, window=3)
        scorer = C.ScorerParams(C.CausalConfig(window=3), model_hidden=4, seed=0)
        reps = {"c": np.zeros((8, 4), dtype=np.float32)}
        rows = {"c": peus.as_array()}
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
                                {"c": peus.as_array()}, scorer)


def test_session_node_reps_equal_forward_node_reps():
    from psygat import model as M
    from tests.test_model import make_graph, small_config

    rng = np.random.default_rng(0)
    cfg = small_config()
    params = M.ModelParams(cfg, seed=0)
    for n in (1, 2, 9):
        g = make_graph(rng, n, cfg)
        np.testing.assert_array_equal(C.session_node_reps(g, params),
                                      M.forward(g, g.persona, params).node_reps.data)

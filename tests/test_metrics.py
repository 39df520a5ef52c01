"""Classification and ranking metrics against hand-worked values."""

import numpy as np
import pytest

from psygat import metrics as MX


class TestClassificationReport:
    def test_hand_worked_confusion(self):
        probs = [0.9, 0.8, 0.3, 0.2]
        labels = [1, 0, 1, 0]
        rep = MX.classification_report(probs, labels, 0.5)
        assert rep.counts == {"tp": 1, "fp": 1, "fn": 1, "tn": 1}
        assert rep.precision[1] == pytest.approx(0.5)
        assert rep.recall[1] == pytest.approx(0.5)
        assert rep.f1[1] == pytest.approx(0.5)
        assert rep.macro_f1 == pytest.approx(0.5)

    def test_zero_over_zero_f1_convention(self):
        # no positive predictions and no positive labels in the class
        rep = MX.classification_report([0.1, 0.2], [0, 0], 0.5)
        assert rep.f1[1] == 0.0
        assert rep.f1[0] == pytest.approx(1.0)
        assert rep.pr_auc is None

    def test_perfect_separation(self):
        rep = MX.classification_report([0.9, 0.8, 0.1], [1, 1, 0], 0.5)
        assert rep.macro_f1 == pytest.approx(1.0)
        assert rep.pr_auc == pytest.approx(1.0)

    def test_empty_input_rejected(self):
        with pytest.raises(MX.DataError):
            MX.classification_report([], [], 0.5)

    def test_json_serializable(self):
        import json

        rep = MX.classification_report([0.9, 0.1], [1, 0], 0.5)
        json.dumps(rep.to_json())


class TestPrAuc:
    def test_two_point_hand_case(self):
        # descending sweep: first point is a negative, second the positive.
        # AP = (1 - 0) * (1/2) = 0.5
        assert MX.pr_auc([0.9, 0.8], [0, 1]) == pytest.approx(0.5)

    def test_four_point_hand_case(self):
        # order: 1, 0, 1, 0 -> AP = 0.5*1 + 0.5*(2/3) = 5/6
        probs = [0.9, 0.8, 0.7, 0.1]
        labels = [1, 0, 1, 0]
        assert MX.pr_auc(probs, labels) == pytest.approx(5.0 / 6.0)

    def test_tied_scores_grouped(self):
        # both predictions tied: one group with P = 1/2 at R = 1
        assert MX.pr_auc([0.5, 0.5], [1, 0]) == pytest.approx(0.5)
        # grouping differs from any serial tie-break of the same scores
        probs = [0.9, 0.5, 0.5]
        labels = [0, 1, 1]
        assert MX.pr_auc(probs, labels) == pytest.approx(2.0 / 3.0)

    def test_single_class_rejected(self):
        with pytest.raises(MX.DataError):
            MX.pr_auc([0.5, 0.6], [1, 1])
        with pytest.raises(MX.DataError):
            MX.pr_auc([0.5, 0.6], [0, 0])

    def test_monotone_in_separation(self):
        rng = np.random.default_rng(0)
        labels = rng.integers(0, 2, 100)
        noise = rng.random(100)
        weak = MX.pr_auc(labels + 4.0 * noise, labels)
        strong = MX.pr_auc(labels + 1.5 * noise, labels)
        assert strong > weak


class TestRankingMetrics:
    def test_hand_worked_ranks(self):
        # best true ranks: 1, 3, 6 -> MRR = (1 + 1/3 + 1/6) / 3 = 0.5
        rep = MX.ranking_metrics([
            [1, 0, 0, 0, 0, 0],
            [0, 0, 1, 0, 0, 0],
            [0, 0, 0, 0, 0, 1],
        ])
        assert rep.mrr == pytest.approx(0.5)
        assert rep.hit_at[1] == pytest.approx(1 / 3)
        assert rep.hit_at[3] == pytest.approx(2 / 3)
        assert rep.hit_at[5] == pytest.approx(2 / 3)
        assert rep.instances == 3

    def test_first_true_rank_used_when_multiple(self):
        rep = MX.ranking_metrics([[0, 1, 1, 0]])
        assert rep.mrr == pytest.approx(0.5)

    def test_empty_inputs_rejected(self):
        with pytest.raises(MX.DataError):
            MX.ranking_metrics([])
        with pytest.raises(MX.DataError):
            MX.ranking_metrics([[]])
        with pytest.raises(MX.DataError):
            MX.ranking_metrics([[0, 0, 0]])

    def test_every_report_carries_exactly_the_hit_cut_offs(self):
        # one constant feeds ranking_metrics, to_json and the explain summary
        rep = MX.ranking_metrics([[0, 1], [1, 0]])
        assert tuple(rep.hit_at) == MX.HIT_KS
        assert rep.to_json() == {**{f"hit@{k}": 1.0 if k > 1 else 0.5 for k in MX.HIT_KS},
                                 "mrr": 0.75, "instances": 2}
        with pytest.raises(TypeError):
            MX.ranking_metrics([[1]], ks=(1, 10))

"""Procedural corpus generator: determinism, planted structure,
noise knobs and split hygiene."""

import hashlib
import json

import numpy as np
import pytest

from psygat import datagen as D
from psygat.peu import COPING, DEFAULT_LEXICON, build_peu_tensor, keyword_extract


class TestPersonaProfile:
    def test_builtin_pools_are_valid(self):
        assert len(D.DEFAULT_PERSONAS) == 4
        assert len(D.EXTENDED_PERSONAS) == 12
        spread = [p.expressiveness for p in D.DEFAULT_PERSONAS]
        assert max(spread) - min(spread) >= 0.5

    def test_bad_prominence_rejected(self):
        with pytest.raises(D.ConfigError):
            D.PersonaProfile(0, "x", (0.5,) * 8, 0.5, 0.0)

    def test_bad_expressiveness_rejected(self):
        with pytest.raises(D.ConfigError):
            D.PersonaProfile(0, "x", D.DEFAULT_PERSONAS[0].prominence, 1.5, 0.0)

    def test_zero_negative_weights_reject_depressed_sessions(self):
        # all weight on coping: controls still generate, a depressed session
        # has no negative category to draw
        p = D.PersonaProfile(0, "x", (0,) * 7 + (1,), 0.5, 0.0)
        assert D.generate_session(0, p, 0).causes == []
        with pytest.raises(D.ConfigError, match="sum to zero"):
            D.generate_session(0, p, 1)


class TestGenConfig:
    def test_defaults_valid(self):
        D.GenConfig()

    def test_fraction_bounds(self):
        with pytest.raises(D.ConfigError):
            D.GenConfig(label_flip=1.5)
        with pytest.raises(D.ConfigError):
            D.GenConfig(augmentation_ratio=1.0)

    def test_bad_ranges(self):
        with pytest.raises(D.ConfigError):
            D.GenConfig(utterances_min=1)
        with pytest.raises(D.ConfigError):
            D.GenConfig(causal_lag_min=2, causal_lag_max=1)

    def test_lag_min_must_leave_a_cause_target(self):
        with pytest.raises(D.ConfigError, match="causal_lag_min"):
            D.GenConfig(utterances_min=3, causal_lag_min=3, causal_lag_max=4)
        D.GenConfig(utterances_min=4, causal_lag_min=3, causal_lag_max=4)

    def test_json_round_trip(self):
        c = D.GenConfig(seed=5, augmentation_ratio=0.3, persona_set="extended")
        assert D.GenConfig.from_json(c.to_json()) == c


class TestGenerateSession:
    def test_deterministic_for_same_seed(self):
        p = D.DEFAULT_PERSONAS[2]
        a = D.generate_session(11, p, 1)
        b = D.generate_session(11, p, 1)
        assert a == b

    def test_different_seeds_differ(self):
        p = D.DEFAULT_PERSONAS[2]
        assert D.generate_session(1, p, 1) != D.generate_session(2, p, 1)

    def test_depressed_sessions_carry_symptoms_and_causes(self):
        for seed in range(10):
            s = D.generate_session(seed, D.DEFAULT_PERSONAS[seed % 4], 1)
            negatives = build_peu_tensor(s)[:, :COPING].sum()
            assert negatives >= 1
            assert s.causes
            for rec in s.causes:
                assert rec["sources"]
                for src in rec["sources"]:
                    assert 0 <= src < rec["target"]

    def test_zero_noise_controls_have_no_negative_activations(self):
        for seed in range(10):
            s = D.generate_session(seed, D.DEFAULT_PERSONAS[seed % 4], 0)
            peus = build_peu_tensor(s)
            assert peus[:, :COPING].sum() == 0
            assert np.all(peus[:, COPING] >= 0)
            assert s.causes == []

    def test_causal_sources_within_configured_lag(self):
        config = D.GenConfig(causal_lag_min=1, causal_lag_max=3)
        for seed in range(20):
            s = D.generate_session(seed, D.DEFAULT_PERSONAS[3], 1, config)
            for rec in s.causes:
                for src in rec["sources"]:
                    assert 1 <= rec["target"] - src <= 3

    @pytest.mark.parametrize("lag_min,lag_max", [(2, 2), (2, 3), (3, 3)])
    def test_cause_indices_stay_inside_the_session_at_long_lags(self, lag_min, lag_max):
        # targets come from [causal_lag_min, T), so a target's fallback source
        # t - causal_lag_min is never negative
        config = D.GenConfig(causal_lag_min=lag_min, causal_lag_max=lag_max,
                             utterances_min=lag_min + 1, utterances_max=lag_min + 6)
        for seed in range(200):
            s = D.generate_session(seed, D.DEFAULT_PERSONAS[3], 1, config)
            assert s.causes
            for rec in s.causes:
                assert lag_min <= rec["target"] < s.T
                for src in rec["sources"]:
                    assert 0 <= src and lag_min <= rec["target"] - src <= lag_max

    def test_text_round_trips_through_keyword_extraction(self):
        # planted annotations must be recoverable from the rendered text
        for seed in range(8):
            s = D.generate_session(seed, D.DEFAULT_PERSONAS[seed % 4], seed % 2)
            planted = build_peu_tensor(s)
            for t, utt in enumerate(s.utterances):
                row, _ = keyword_extract(utt.answer, DEFAULT_LEXICON)
                assert np.array_equal(row, planted[t]), (seed, t)

    def test_expressiveness_raises_symptom_density(self):
        def density(persona):
            total, n = 0, 0
            for seed in range(40):
                s = D.generate_session(seed, persona, 1)
                arr = build_peu_tensor(s)
                total += (arr[:, :COPING] != 0).any(axis=1).sum()
                n += s.T
            return total / n

        assert density(D.DEFAULT_PERSONAS[3]) > density(D.DEFAULT_PERSONAS[0])

    def test_persona_id_mapped_into_model_range(self):
        config = D.GenConfig(persona_set="extended")
        s = D.generate_session(0, D.EXTENDED_PERSONAS[9], 1, config)
        assert s.persona == 9 % 4

    def test_label_flip_noise(self):
        config = D.GenConfig(label_flip=0.5)
        flipped = sum(
            D.generate_session(seed, D.DEFAULT_PERSONAS[0], 1, config).label == 0
            for seed in range(60)
        )
        assert 10 < flipped < 50

    def test_peu_dropout_thins_annotations_and_prunes_causes(self):
        p = D.DEFAULT_PERSONAS[3]
        clean = sum(
            build_peu_tensor(D.generate_session(s, p, 1)).sum()
            for s in range(20)
        )
        noisy_sessions = [
            D.generate_session(s, p, 1, D.GenConfig(peu_dropout=0.6)) for s in range(20)
        ]
        noisy = sum(build_peu_tensor(s).sum() for s in noisy_sessions)
        assert noisy < clean
        for s in noisy_sessions:
            planted = build_peu_tensor(s)
            for rec in s.causes:
                cat = D.CATEGORIES.index(rec["category"])
                assert planted[rec["target"], cat] != 0
                for src in rec["sources"]:
                    assert planted[src].any()

    def test_augmented_sessions_ignore_noise_knobs(self):
        config = D.GenConfig(label_flip=1.0, peu_dropout=1.0)
        s = D.generate_session(0, D.DEFAULT_PERSONAS[1], 1, config, source="augmented")
        assert s.label == 1
        assert build_peu_tensor(s)[:, :COPING].sum() >= 1


class TestGenerateCorpus:
    def test_split_sizes_and_balance(self):
        splits = D.generate_corpus(D.GenConfig(seed=0, n_sessions=100))
        assert len(splits["train"]) == 60
        assert len(splits["val"]) == 20
        assert len(splits["test"]) == 20
        for name in ("train", "val", "test"):
            labels = [s.label for s in splits[name]]
            assert 0 < sum(labels) < len(labels)

    def test_deterministic_across_calls(self):
        a = D.generate_corpus(D.GenConfig(seed=3, n_sessions=40))
        b = D.generate_corpus(D.GenConfig(seed=3, n_sessions=40))
        assert a == b

    def test_session_ids_unique(self):
        splits = D.generate_corpus(D.GenConfig(seed=0, n_sessions=60, augmentation_ratio=0.3))
        ids = [s.id for split in splits.values() for s in split]
        assert len(ids) == len(set(ids))

    def test_augmented_sessions_confined_to_train(self):
        splits = D.generate_corpus(D.GenConfig(seed=1, n_sessions=60, augmentation_ratio=0.4))
        assert all(s.source == "base" for s in splits["val"] + splits["test"])
        n_aug = sum(s.source == "augmented" for s in splits["train"])
        n_train = len(splits["train"])
        # augmented fraction of the train split approximates the ratio
        assert n_aug / n_train == pytest.approx(0.4, abs=0.05)

    def test_too_small_corpus_rejected(self):
        with pytest.raises(D.ConfigError):
            D.generate_corpus(D.GenConfig(n_sessions=5))

    def test_manifest_counts(self):
        config = D.GenConfig(seed=0, n_sessions=50, augmentation_ratio=0.2)
        splits = D.generate_corpus(config)
        manifest = D.corpus_manifest(config, splits)
        assert manifest["splits"]["train"]["sessions"] == len(splits["train"])
        assert manifest["splits"]["train"]["augmented"] == sum(
            s.source == "augmented" for s in splits["train"]
        )
        assert manifest["splits"]["test"]["augmented"] == 0


def corpus_digest(splits):
    h = hashlib.sha256()
    for name in ("train", "val", "test"):
        for s in splits[name]:
            h.update((json.dumps(s.to_json(), sort_keys=True) + "\n").encode())
    return h.hexdigest()


# sha256 of every session's JSON line, train then val then test, as the
# generator wrote them with one RNG call per draw
@pytest.mark.parametrize("config,digest", [
    (D.GenConfig(seed=0),
     "f241ca2903b0026688d1cf9912c2891a449f65de6ebe43440a2a5d8a35f2ddda"),
    (D.GenConfig(seed=0, n_sessions=120, utterances_min=40, utterances_max=56),
     "d3eb89519036aa0923133d8e81d510ed1db4c289f5609ad5ee163d8af4e10f7b"),
    (D.GenConfig(seed=1, n_sessions=100, augmentation_ratio=0.5, label_flip=0.1,
                 peu_dropout=0.2, echo_rate=0.3, persona_set="extended", causal_lag_max=4),
     "f92a420c2134a9be142321785d9d7b03f5886c9c2b755d9047080ebf8413105e"),
], ids=["default", "screen_long", "every_knob"])
def test_corpus_matches_pinned_digest(config, digest):
    assert corpus_digest(D.generate_corpus(config)) == digest


class TestDrawForms:
    """The generator's batched draws against the calls they replace, so a
    numpy change that breaks one fails here and not only at a digest.
    Verified on numpy 2.4.6."""

    def test_array_bounds_draw_like_successive_scalar_calls(self):
        filler = D._FILLER_BOUNDS
        phrases = sorted({len(t) for t in D._PHRASES.values()})
        for seed in range(200):
            rng = np.random.default_rng(seed)
            bounds = [int(b) for b in rng.choice(filler + phrases + [len(D.QUESTIONS)],
                                                 size=int(rng.integers(1, 60)))]
            scalar = np.random.default_rng(seed + 1000)
            batched = np.random.default_rng(seed + 1000)
            expected = [int(scalar.integers(b)) for b in bounds]
            assert batched.integers(np.array(bounds)).tolist() == expected
            # both streams stand at the same place afterwards
            assert batched.random() == scalar.random()
            assert batched.integers(7) == scalar.integers(7)

    def test_inverse_cdf_draws_like_choice_with_weights(self):
        for persona in D.EXTENDED_PERSONAS:
            w = np.asarray(persona.prominence[:D.COPING], dtype=float)
            w = w / w.sum()
            for seed in range(100):
                by_choice = np.random.default_rng(seed)
                by_cdf = np.random.default_rng(seed)
                for _ in range(20):
                    expected = int(by_choice.choice(D.COPING, p=w))
                    got = int(persona.negative_cdf.searchsorted(by_cdf.random(), "right"))
                    assert got == expected, (persona.id, seed)
                assert by_cdf.random() == by_choice.random()

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 6])
    def test_list_shuffle_draws_like_permutation(self, n):
        # lag orders shuffle a list, sentence orders shuffle indices; a
        # one-item shuffle draws nothing, so the generator skips it
        for seed in range(50):
            by_permutation = np.random.default_rng(seed)
            by_list = np.random.default_rng(seed)
            order = list(range(n))
            by_list.shuffle(order)
            assert order == by_permutation.permutation(np.arange(n)).tolist()
            assert by_list.integers(10) == by_permutation.integers(10)
        untouched = np.random.default_rng(0)
        skipped = np.random.default_rng(0)
        skipped.shuffle(["only"])
        assert skipped.random() == untouched.random()

"""Hash embedding: one (T, dim) block per session, bit-identical to adding
one feature at a time."""

import hashlib

import numpy as np
import pytest

from psygat import embed
from psygat.datagen import GenConfig, generate_corpus
from psygat.errors import DataError
from psygat.sessions import Session, Utterance


def reference_hash_embed(text, dim, seed):
    """One utterance's vector in the per-feature form, frozen as the
    reference: one salted blake2b digest and one float32 += per unigram and
    bigram."""
    tokens = embed._TOKEN_RE.findall(text.lower())
    vec = np.zeros(dim, dtype=np.float32)
    if not tokens:
        return vec
    features = list(tokens) + [f"{a}_{b}" for a, b in zip(tokens, tokens[1:])]
    for feat in features:
        h = hashlib.blake2b(feat.encode("utf-8"), digest_size=8,
                            salt=seed.to_bytes(8, "little")).digest()
        h = int.from_bytes(h, "little")
        vec[h % dim] += 1.0 if (h >> 1) & 1 else -1.0
    norm = float(np.linalg.norm(vec))
    if norm > 0:
        vec /= norm
    return vec


def make_session(sid="s", n=2):
    return Session(id=sid, persona=0, label=0,
                   utterances=[Utterance(i, f"q{i}", f"hello world {i}") for i in range(n)])


def rows_of(texts, dim, seed=0):
    """The (len(texts), dim) block of one session whose answers are texts."""
    s = Session(id="t", persona=0, label=0,
                utterances=[Utterance(i, "", text) for i, text in enumerate(texts)])
    return embed.embed_sessions([s], dim, seed)["t"]


class TestHashEmbed:
    def test_deterministic_across_calls(self):
        a = rows_of(["the lazy dog"], 64, seed=3)
        b = rows_of(["the lazy dog"], 64, seed=3)
        np.testing.assert_array_equal(a, b)

    def test_seed_changes_projection(self):
        a = rows_of(["the lazy dog"], 64, seed=0)
        b = rows_of(["the lazy dog"], 64, seed=1)
        assert not np.allclose(a, b)

    def test_unit_norm_for_nonempty_text(self):
        (v,) = rows_of(["a short sentence about nothing"], 128)
        assert np.linalg.norm(v) == pytest.approx(1.0, abs=1e-6)

    def test_empty_text_is_zero_vector(self):
        np.testing.assert_array_equal(rows_of(["", "?!.,"], 32), np.zeros((2, 32)))

    def test_word_order_matters_through_bigrams(self):
        a, b = rows_of(["dog bites man", "man bites dog"], 256)
        assert not np.allclose(a, b)

    def test_tiny_dim_rejected(self):
        with pytest.raises(embed.FormatError):
            rows_of(["text"], 4)


def test_embed_sessions_covers_all_utterances():
    sessions = [make_session("a", 3), make_session("b", 2)]
    blocks = embed.embed_sessions(sessions, dim=32)
    assert {sid: b.shape for sid, b in blocks.items()} == {"a": (3, 32), "b": (2, 32)}
    assert all(b.dtype == np.float32 for b in blocks.values())


def test_a_block_does_not_depend_on_the_other_sessions_of_the_call():
    # shared words and bigrams across sessions reuse one feature-code dict
    sessions = [make_session("a", 4), make_session("b", 3)]
    sessions[1].utterances[0].answer = "hello world hello world again"
    together = embed.embed_sessions(sessions, dim=64, seed=2)
    for s in sessions:
        alone = embed.embed_sessions([s], dim=64, seed=2)
        assert together[s.id].tobytes() == alone[s.id].tobytes()


def test_question_text_reaches_the_block():
    s = Session(id="q", persona=0, label=0,
                utterances=[Utterance(0, "how are you", "fine"), Utterance(1, "", "fine")])
    block = embed.embed_sessions([s], dim=64)["q"]
    assert not np.array_equal(block[0], block[1])
    assert block[0].tobytes() == reference_hash_embed("Q: how are you A: fine", 64, 0).tobytes()
    # an empty question adds nothing, so the answer is embedded alone
    assert block[1].tobytes() == reference_hash_embed("fine", 64, 0).tobytes()


def test_session_without_utterances_gets_an_empty_block():
    blocks = embed.embed_sessions([Session(id="e", persona=0, label=0, utterances=[])], dim=16)
    assert blocks["e"].shape == (0, 16) and blocks["e"].dtype == np.float32


EDGE_CASE_ANSWERS = (
    "",  # tokenless
    "?!., --",  # tokenless after tokenization
    "alone",  # one token, no bigrams
    "again again again again",  # a unigram and a bigram repeated in one utterance
    "hello world",  # shared with the other sessions
    "World HELLO, world!",
)


def edge_case_sessions():
    sessions = []
    for k in range(3):
        utts = [Utterance(i, "" if i % 2 else f"question {k}", a)
                for i, a in enumerate(EDGE_CASE_ANSWERS)]
        sessions.append(Session(id=f"e{k}", persona=0, label=0, utterances=utts))
    return sessions


@pytest.mark.parametrize("dim", [8, 9, 100, 384])
def test_vectors_are_bit_identical_to_the_per_feature_reference(dim):
    sessions = edge_case_sessions()
    for seed in (0, 1, 2):
        sessions += generate_corpus(GenConfig(seed=seed, n_sessions=10))["train"]
    for hash_seed in (0, 5):
        blocks = embed.embed_sessions(sessions, dim, hash_seed)
        assert len(blocks) == len(sessions)
        for s in sessions:
            assert blocks[s.id].shape == (s.T, dim)
            for u in s.utterances:
                text = s.text(u.index)
                want = reference_hash_embed(text, dim, hash_seed).tobytes()
                assert blocks[s.id][u.index].tobytes() == want


def test_features_of_opposite_sign_cancel_in_a_shared_bucket():
    # when 4 divides dim, bit 1 of a hash sets both its sign and part of its
    # bucket, so every bucket has one sign; an odd dim lets signs meet
    dim, words = 9, [f"w{k}" for k in range(64)]
    signed = dict(zip(words, rows_of(words, dim)))
    a, b = next((a, b) for a in words for b in words
                if np.array_equal(signed[a], -signed[b]))
    (vec,) = rows_of([f"{a} {b}"], dim)
    assert vec.tobytes() == reference_hash_embed(f"{a} {b}", dim, 0).tobytes()
    # the unigrams cancel, so only the bigram's unit count is left
    assert np.count_nonzero(vec) == 1 and np.abs(vec).max() == 1.0


def test_repeated_session_id_rejected():
    # one block per id: the second session's text would silently stand in
    # for the first's, both having two utterances
    first, second = make_session("dup"), make_session("dup")
    second.utterances[0].answer = "something else entirely"
    with pytest.raises(DataError, match="session id 'dup' occurs more than once"):
        embed.embed_sessions([make_session("a"), first, second])

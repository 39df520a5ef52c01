"""Embedding tables, the text file format and the hashing fallback."""

import hashlib

import numpy as np
import pytest

from psygat import embed
from psygat.datagen import GenConfig, generate_corpus
from psygat.sessions import Session, Utterance


def reference_hash_embed(text, dim, seed):
    """The per-feature form of hash_embed, frozen as the reference: one
    salted blake2b digest and one float32 += per unigram and bigram."""
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


class TestEmbeddingTable:
    def test_put_get(self):
        t = embed.EmbeddingTable(4)
        t.put("s", 0, [1, 2, 3, 4])
        np.testing.assert_array_equal(t.get("s", 0), [1, 2, 3, 4])

    def test_wrong_dim_rejected(self):
        t = embed.EmbeddingTable(4)
        with pytest.raises(embed.FormatError):
            t.put("s", 0, [1, 2, 3])

    def test_non_finite_rejected(self):
        t = embed.EmbeddingTable(2)
        with pytest.raises(embed.FormatError):
            t.put("s", 0, [np.nan, 0.0])

    def test_missing_lookup_fails(self):
        with pytest.raises(KeyError):
            embed.EmbeddingTable(2).get("s", 0)

    def test_coverage_check_names_first_gap(self):
        t = embed.EmbeddingTable(4)
        t.put("s", 0, np.zeros(4))
        with pytest.raises(KeyError, match="s/1"):
            t.check_coverage([make_session("s", 2)])


class TestFileFormat:
    def test_save_load_round_trip(self, tmp_path):
        t = embed.EmbeddingTable(3)
        t.put("a", 0, [0.5, -1.25, 3e-7])
        t.put("a", 1, [1.0, 2.0, 3.0])
        path = tmp_path / "emb.tsv"
        embed.save_embeddings(path, t)
        loaded = embed.load_embeddings(path)
        assert loaded.dim == 3
        np.testing.assert_allclose(loaded.get("a", 0), [0.5, -1.25, 3e-7], rtol=1e-6)

    def test_missing_header_rejected(self, tmp_path):
        path = tmp_path / "bad.tsv"
        path.write_text("a\t0\t1 2 3\n")
        with pytest.raises(embed.FormatError, match="dim"):
            embed.load_embeddings(path)

    def test_row_dim_mismatch_rejected(self, tmp_path):
        path = tmp_path / "bad.tsv"
        path.write_text("#dim=3\na\t0\t1 2\n")
        with pytest.raises(embed.FormatError):
            embed.load_embeddings(path)


class TestHashEmbed:
    def test_deterministic_across_calls(self):
        a = embed.hash_embed("the lazy dog", 64, seed=3)
        b = embed.hash_embed("the lazy dog", 64, seed=3)
        np.testing.assert_array_equal(a, b)

    def test_seed_changes_projection(self):
        a = embed.hash_embed("the lazy dog", 64, seed=0)
        b = embed.hash_embed("the lazy dog", 64, seed=1)
        assert not np.allclose(a, b)

    def test_unit_norm_for_nonempty_text(self):
        v = embed.hash_embed("a short sentence about nothing", 128)
        assert np.linalg.norm(v) == pytest.approx(1.0, abs=1e-6)

    def test_empty_text_is_zero_vector(self):
        np.testing.assert_array_equal(embed.hash_embed("", 32), np.zeros(32))
        np.testing.assert_array_equal(embed.hash_embed("?!.,", 32), np.zeros(32))

    def test_word_order_matters_through_bigrams(self):
        a = embed.hash_embed("dog bites man", 256)
        b = embed.hash_embed("man bites dog", 256)
        assert not np.allclose(a, b)

    def test_tiny_dim_rejected(self):
        with pytest.raises(embed.FormatError):
            embed.hash_embed("text", 4)


def test_embed_sessions_covers_all_utterances():
    sessions = [make_session("a", 3), make_session("b", 2)]
    table = embed.embed_sessions(sessions, dim=32)
    table.check_coverage(sessions)
    assert len(table.vectors) == 5


def test_embed_sessions_vectors_equal_hash_embed_per_utterance():
    # shared words and bigrams across utterances and sessions reuse hashes
    sessions = [make_session("a", 4), make_session("b", 3)]
    sessions[1].utterances[0].answer = "hello world hello world again"
    table = embed.embed_sessions(sessions, dim=64, seed=2)
    for s in sessions:
        for u in s.utterances:
            np.testing.assert_array_equal(table.get(s.id, u.index),
                                          embed.hash_embed(s.text(u.index, True), 64, seed=2))


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
@pytest.mark.parametrize("prepend_question", [True, False])
def test_vectors_are_bit_identical_to_the_per_feature_reference(dim, prepend_question):
    sessions = edge_case_sessions()
    for seed in (0, 1, 2):
        sessions += generate_corpus(GenConfig(seed=seed, n_sessions=10))["train"]
    for hash_seed in (0, 5):
        table = embed.embed_sessions(sessions, dim, hash_seed, prepend_question)
        assert len(table.vectors) == sum(s.T for s in sessions)
        for s in sessions:
            for u in s.utterances:
                text = s.text(u.index, prepend_question)
                want = reference_hash_embed(text, dim, hash_seed).tobytes()
                assert table.get(s.id, u.index).tobytes() == want
                assert embed.hash_embed(text, dim, hash_seed).tobytes() == want


def test_features_of_opposite_sign_cancel_in_a_shared_bucket():
    # when 4 divides dim, bit 1 of a hash sets both its sign and part of its
    # bucket, so every bucket has one sign; an odd dim lets signs meet
    dim, words = 9, [f"w{k}" for k in range(64)]
    signed = {w: embed.hash_embed(w, dim) for w in words}
    a, b = next((a, b) for a in words for b in words
                if np.array_equal(signed[a], -signed[b]))
    vec = embed.hash_embed(f"{a} {b}", dim)
    assert vec.tobytes() == reference_hash_embed(f"{a} {b}", dim, 0).tobytes()
    # the unigrams cancel, so only the bigram's unit count is left
    assert np.count_nonzero(vec) == 1 and np.abs(vec).max() == 1.0


class TestPutRows:
    def test_rows_stored_under_their_utterance_indices(self):
        t = embed.EmbeddingTable(2)
        t.put_rows("s", [3, 7], [[1, 2], [3, 4]])
        np.testing.assert_array_equal(t.get("s", 7), [3, 4])
        assert t.get("s", 3).dtype == np.float32

    def test_wrong_shape_rejected(self):
        t = embed.EmbeddingTable(2)
        with pytest.raises(embed.FormatError, match="shape"):
            t.put_rows("s", [0, 1], np.zeros((2, 3)))
        with pytest.raises(embed.FormatError, match="shape"):
            t.put_rows("s", [0], np.zeros((2, 2)))

    def test_non_finite_row_named(self):
        t = embed.EmbeddingTable(2)
        with pytest.raises(embed.FormatError, match="s/5"):
            t.put_rows("s", [4, 5], [[0.0, 1.0], [np.inf, 0.0]])
        assert t.vectors == {}

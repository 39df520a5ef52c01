"""Embedding tables, the text file format and the hashing fallback."""

import numpy as np
import pytest

from psygat import embed
from psygat.sessions import Session, Utterance


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

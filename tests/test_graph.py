"""Session graph assembly and PEU-difference edge attributes."""

import hashlib

import numpy as np
import pytest

from psygat import graph as G
from psygat.datagen import GenConfig, generate_corpus
from psygat.embed import embed_sessions
from psygat.peu import COPING, build_peu_tensor
from psygat.pipeline import graphs_from_sessions
from psygat.sessions import Session, Utterance


def rows(*peus):
    return np.array(peus, dtype=np.float32)


class TestEdgeAttr:
    def test_difference_with_coping_halved(self):
        diff = G.edge_attrs(rows([1, 0, 0, 0, 0, 0, 0, -1], [0, 1, 0, 0, 0, 0, 0, 1]))
        assert diff.dtype == np.float32
        np.testing.assert_array_equal(diff, [[-1, 1, 0, 0, 0, 0, 0, 1.0]])

    def test_range_norm_stays_within_unit_interval(self):
        rng = np.random.default_rng(0)
        for _ in range(200):
            va = [*rng.integers(0, 2, 7), rng.integers(-1, 2)]
            vb = [*rng.integers(0, 2, 7), rng.integers(-1, 2)]
            assert np.all(np.abs(G.edge_attrs(rows(va, vb))) <= 1.0)

    def test_one_row_has_no_edges(self):
        diff = G.edge_attrs(rows([1, 0, 0, 0, 0, 0, 0, -1]))
        assert diff.dtype == np.float32 and diff.shape == (0, 8)


def make_session(n=3, sid="g"):
    peus = []
    rng = np.random.default_rng(7)
    for i in range(n):
        cats = []
        if rng.random() < 0.5:
            cats.append({"category": "self_negativity", "value": 1, "spans": []})
        peus.append({"utt": i, "peus": cats})
    return Session(id=sid, persona=2, label=1,
                   utterances=[Utterance(i, "q", f"text {i}") for i in range(n)],
                   peus=peus)


class TestBuildGraph:
    def test_shapes_and_metadata(self):
        s = make_session(4)
        g = G.build_graph(s, embed_sessions([s], dim=16), build_peu_tensor(s))
        assert g.T == 4
        assert g.node_text.shape == (4, 16)
        assert g.node_peu.shape == (4, 8)
        assert G.GraphBatch.from_graphs([g]).edge_attr.shape == (3, 8)
        assert g.persona == 2 and g.label == 1

    def test_single_utterance_has_no_edges(self):
        s = make_session(1)
        g = G.build_graph(s, embed_sessions([s], dim=16), build_peu_tensor(s))
        assert G.GraphBatch.from_graphs([g]).edge_attr.shape == (0, 8)

    def test_empty_session_rejected(self):
        s = Session(id="e", persona=0, label=0, utterances=[])
        with pytest.raises(G.EmptySessionError):
            G.build_graph(s, embed_sessions([s], dim=16), build_peu_tensor(s))

    def test_peu_row_count_mismatch_rejected(self):
        s = make_session(3)
        with pytest.raises(G.DataError, match="2 PEU rows for 3 utterances"):
            G.build_graph(s, embed_sessions([s], dim=16), build_peu_tensor(make_session(2)))

    def test_embedding_row_count_mismatch_rejected(self):
        s = make_session(3)
        shorter = embed_sessions([make_session(2)], dim=16)  # same session id
        with pytest.raises(G.DataError, match="2 embedding rows for 3 utterances"):
            G.build_graph(s, shorter, build_peu_tensor(s))

    def test_node_text_is_the_session_embedding_block(self):
        s = make_session(3)
        blocks = embed_sessions([make_session(1, sid="other"), s], dim=16)
        g = G.build_graph(s, blocks, build_peu_tensor(s))
        assert g.node_text is blocks[s.id]

    def test_session_without_an_embedding_block_rejected(self):
        s = make_session(3)
        with pytest.raises(KeyError, match=s.id):
            G.build_graph(s, embed_sessions([make_session(3, sid="other")], dim=16),
                          build_peu_tensor(s))


def reference_edge_attr(p_t, p_next):
    """One edge's attribute computed on its own, as a frozen reference."""
    diff = p_next.astype(np.float64) - p_t.astype(np.float64)
    diff[COPING] /= 2.0
    return diff.astype(np.float32)


def peu_session(rows, sid="p"):
    return Session(id=sid, persona=0, label=0,
                   utterances=[Utterance(i, "q", f"text {i}") for i in range(len(rows))],
                   peus=[{"utt": i, "peus": [{"category": c, "value": v, "spans": []}
                                             for c, v in row]}
                         for i, row in enumerate(rows)])


def test_build_graph_edge_attr_equals_per_edge_rows():
    corpus = generate_corpus(GenConfig(seed=3, n_sessions=10, utterances_min=2, utterances_max=6))
    sessions = [s for split in corpus.values() for s in split]
    sad = [("self_negativity", 1), ("protective_positive_coping", -1)]
    # repeated rows give zero differences
    sessions += [peu_session([sad]), peu_session([sad, sad, [], [], sad], "r")]
    assert {1, 2, 5} <= {s.T for s in sessions}
    table = embed_sessions(sessions, dim=16)
    for s in sessions:
        peus = build_peu_tensor(s)
        want = np.zeros((0, 8), np.float32) if s.T == 1 else np.stack(
            [reference_edge_attr(peus[t], peus[t + 1]) for t in range(s.T - 1)])
        got = G.edge_attrs(peus)
        assert got.dtype == np.float32 and got.shape == (s.T - 1, 8)
        assert got.tobytes() == want.tobytes()
        for t in range(s.T - 1):
            assert G.edge_attrs(peus[t:t + 2]).tobytes() == got[t].tobytes()
        g = G.build_graph(s, table, peus)
        assert g.node_peu is peus
        assert G.GraphBatch.from_graphs([g]).edge_attr.tobytes() == got.tobytes()


def test_default_corpus_graphs_match_pinned_digest():
    """Every graph input of the default corpus, pinned to the bytes: hash
    embedding, PEU rows and the edge attributes batches derive from them
    must not move under a refactor."""
    corpus = generate_corpus(GenConfig(seed=0))
    sessions = [s for split in ("train", "val", "test") for s in corpus[split]]
    h = hashlib.sha256()
    for g in graphs_from_sessions(sessions):
        for a in (g.node_text, g.node_peu, G.edge_attrs(g.node_peu)):
            h.update(f"{a.dtype.str}{a.shape}".encode())
            h.update(a.tobytes())
    assert len(sessions) == 200
    assert h.hexdigest() == "d546c030f5f51404caa2c09d9d0639139b91dcdbbd3cc39763d1370ddc354393"


class TestBatchEdges:
    """A batch derives its edges from its concatenated PEU rows; they must be
    each graph's own edge_attrs(node_peu), concatenated, to the bit."""

    def graph(self, peu):
        return G.SessionGraph("b", np.zeros((peu.shape[0], 4), np.float32), peu, persona=0)

    def check(self, graphs):
        batch = G.GraphBatch.from_graphs(graphs)
        want = np.concatenate([G.edge_attrs(g.node_peu) for g in graphs])
        assert batch.edge_attr.dtype == np.float32
        assert batch.edge_attr.shape == (sum(g.T for g in graphs) - len(graphs), 8)
        assert batch.edge_attr.tobytes() == want.tobytes()

    def test_mixed_sizes_with_one_node_graphs(self):
        rng = np.random.default_rng(0)
        sizes = (1, 5, 1, 1, 3, 2, 1)
        peus = []
        for n in sizes:
            peu = rng.integers(0, 2, (n, 8)).astype(np.float32)
            peu[:, COPING] = rng.integers(-1, 2, n)
            peus.append(peu)
        self.check([self.graph(p) for p in peus])

    def test_only_one_node_graphs_have_no_edges(self):
        self.check([self.graph(rows([1, 0, 0, 0, 0, 0, 0, -1])) for _ in range(3)])

    def test_float64_rows_alone_and_mixed_with_float32(self):
        rng = np.random.default_rng(1)
        wide = [rng.standard_normal((n, 8)) for n in (4, 1, 6)]
        self.check([self.graph(p) for p in wide])
        narrow = [self.graph(rng.standard_normal((n, 8)).astype(np.float32)) for n in (3, 2)]
        self.check([narrow[0], self.graph(wide[0]), narrow[1], self.graph(wide[2])])

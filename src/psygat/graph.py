"""Directed temporal session graphs and their disjoint-union minibatches.

Nodes are participant utterances carrying semantic and PEU features;
edges are the adjacent-utterance chain, whose attributes are the PEU
differences of their endpoints, derived per batch from node_peu.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DataError, EmptySessionError
from .peu import COPING


@dataclass
class SessionGraph:
    session_id: str
    node_text: np.ndarray  # (T, d_s)
    node_peu: np.ndarray  # (T, 8)
    persona: int
    label: int | None = None

    @property
    def T(self):
        return self.node_text.shape[0]


@dataclass
class GraphBatch:
    """Several SessionGraphs as one disjoint graph, in the order given.

    Node rows are concatenated graph by graph, so every index array below
    is global and non-decreasing. Chain edge k runs from node edge_dst[k] - 1
    to edge_dst[k]; its attributes are edge_attrs of the concatenated PEU
    rows at that pair, the same rows each graph's own node_peu gives.
    """

    node_text: np.ndarray  # (N, d_s)
    node_peu: np.ndarray  # (N, 8)
    edge_attr: np.ndarray  # (E, 8), E = N - B
    edge_dst: np.ndarray  # (E,) destination node of each chain edge, increasing
    node_graph: np.ndarray  # (N,) graph index of each node, non-decreasing
    sizes: np.ndarray  # (B,) nodes per graph
    personas: np.ndarray  # (B,)
    labels: np.ndarray | None  # (B,), None when any graph is unlabeled

    @classmethod
    def from_graphs(cls, graphs):
        if not graphs:
            raise DataError("a graph batch needs at least one graph")
        sizes = np.array([g.T for g in graphs])
        n = int(sizes.sum())
        head = np.zeros(n, dtype=bool)
        head[np.cumsum(sizes) - sizes] = True
        labels = [g.label for g in graphs]
        node_peu = np.concatenate([g.node_peu for g in graphs])
        edge_dst = np.flatnonzero(~head)
        return cls(
            node_text=np.concatenate([g.node_text for g in graphs]),
            node_peu=node_peu,
            edge_attr=edge_attrs(node_peu)[edge_dst - 1],
            edge_dst=edge_dst,
            node_graph=np.repeat(np.arange(len(graphs)), sizes),
            sizes=sizes,
            personas=np.array([g.persona for g in graphs], dtype=np.int64),
            labels=None if None in labels else np.array(labels, dtype=np.int64),
        )

    @property
    def num_graphs(self):
        return self.sizes.shape[0]


def edge_attrs(peu_rows):
    """(T - 1, 8) float32 changes between consecutive rows of a (T, 8) PEU
    array, each normalized into [-1, 1] by its range: the coping dim is
    ternary, so its raw difference spans [-2, 2] and is halved."""
    vals = np.asarray(peu_rows, dtype=np.float64)
    diff = vals[1:] - vals[:-1]
    diff[:, COPING] /= 2.0
    return diff.astype(np.float32)


def build_graph(session, embeddings, peus):
    """Assemble one SessionGraph from a session, its (T, 8) PEU array as
    peu.build_peu_tensor returns, and embeddings, a dict of session id ->
    (T, d_s) block as embed.embed_sessions returns."""
    T = session.T
    if T == 0:
        raise EmptySessionError(f"session {session.id} has no participant utterances")
    if peus.shape[0] != T:
        raise DataError(f"session {session.id}: {peus.shape[0]} PEU rows for {T} utterances")
    node_text = embeddings[session.id]
    if node_text.shape[0] != T:
        raise DataError(
            f"session {session.id}: {node_text.shape[0]} embedding rows for {T} utterances")
    return SessionGraph(
        session_id=session.id,
        node_text=node_text,
        node_peu=peus,
        persona=session.persona,
        label=session.label,
    )

"""Directed temporal session graphs.

Nodes are participant utterances carrying semantic and PEU features;
edges are the adjacent-utterance chain with PEU-difference attributes.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, DataError, EmptySessionError
from .peu import COPING, NUM_CATEGORIES

EDGE_NORMS = ("range", "l2", "none")


@dataclass
class SessionGraph:
    session_id: str
    node_text: np.ndarray  # (T, d_s)
    node_peu: np.ndarray  # (T, 8)
    edge_attr: np.ndarray  # (T-1, 8)
    persona: int
    label: int | None = None

    @property
    def T(self):
        return self.node_text.shape[0]

    @property
    def edges(self):
        return [(t, t + 1) for t in range(self.T - 1)]


def peu_edge_attr(p_t, p_next, norm="range"):
    """Componentwise change p_next - p_t, normalized into [-1, 1].

    The coping dim is ternary so its raw difference spans [-2, 2]; range
    normalization halves it. "l2" rescales the whole vector to unit norm
    (zero stays zero); "none" returns the raw difference.
    """
    if norm not in EDGE_NORMS:
        raise ConfigError(f"unknown edge norm {norm!r}, expected one of {EDGE_NORMS}")
    diff = p_next.as_array(np.float64) - p_t.as_array(np.float64)
    if norm == "range":
        diff[COPING] /= 2.0
    elif norm == "l2":
        n = np.linalg.norm(diff)
        if n > 0:
            diff = diff / n
    return diff.astype(np.float32)


def build_graph(session, embeddings, peus, norm="range"):
    """Assemble one SessionGraph from a session, its embeddings and PEUs."""
    T = session.T
    if T == 0:
        raise EmptySessionError(f"session {session.id} has no participant utterances")
    if peus.T != T:
        raise DataError(f"session {session.id}: {peus.T} PEU rows for {T} utterances")
    node_text = np.stack([embeddings.get(session.id, u.index) for u in session.utterances])
    node_peu = peus.as_array(np.float32)
    if T > 1:
        edge_attr = np.stack(
            [peu_edge_attr(peus.rows[t], peus.rows[t + 1], norm) for t in range(T - 1)]
        )
    else:
        edge_attr = np.zeros((0, NUM_CATEGORIES), dtype=np.float32)
    return SessionGraph(
        session_id=session.id,
        node_text=node_text,
        node_peu=node_peu,
        edge_attr=edge_attr,
        persona=session.persona,
        label=session.label,
    )

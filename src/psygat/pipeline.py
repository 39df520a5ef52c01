"""Glue from session records to model-ready graphs."""

from __future__ import annotations

from .embed import embed_sessions
from .graph import build_graph
from .peu import build_peu_tensor


def graphs_from_sessions(sessions):
    """Build one hash-embedded SessionGraph per session."""
    embeddings = embed_sessions(sessions)
    return [build_graph(s, embeddings, build_peu_tensor(s)) for s in sessions]


def peu_rows_by_session(sessions):
    """session id -> (T, 8) float32 array of PEU values."""
    return {s.id: build_peu_tensor(s) for s in sessions}

"""Glue from session records to model-ready graphs."""

from __future__ import annotations

from .embed import embed_sessions
from .graph import build_graph
from .peu import build_peu_tensor


def graphs_from_sessions(sessions, embeddings=None, dim=384, hash_seed=0,
                         prepend_question=True, edge_norm="range"):
    """Build one SessionGraph per session, hash-embedding unless a table is given."""
    table = embeddings
    if table is None:
        table = embed_sessions(sessions, dim, hash_seed, prepend_question)
    else:
        table.check_coverage(sessions)
    return [
        build_graph(s, table, build_peu_tensor(s), edge_norm)
        for s in sessions
    ]


def peu_rows_by_session(sessions):
    """session id -> (T, 8) float array of PEU values."""
    return {s.id: build_peu_tensor(s).as_array() for s in sessions}

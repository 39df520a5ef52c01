"""Per-utterance semantic vectors: precomputed tables or a hashing fallback.

The hashing fallback feature-hashes token unigrams and bigrams with a
seeded blake2b, so vectors are stable across runs and platforms without
any model service.
"""

from __future__ import annotations

import hashlib
import re
from pathlib import Path

import numpy as np

from .errors import EmbeddingLookupError, FormatError

DEFAULT_DIM = 384

_TOKEN_RE = re.compile(r"[a-z0-9]+")


class EmbeddingTable:
    def __init__(self, dim=DEFAULT_DIM):
        self.dim = dim
        self.vectors = {}  # (session_id, utt_index) -> np.ndarray

    def put(self, session_id, utt_index, vec):
        vec = np.asarray(vec, dtype=np.float32)
        if vec.shape != (self.dim,):
            raise FormatError(f"vector for {session_id}/{utt_index} has dim {vec.shape[0]}, table dim {self.dim}")
        if not np.all(np.isfinite(vec)):
            raise FormatError(f"non-finite vector for {session_id}/{utt_index}")
        self.vectors[(str(session_id), int(utt_index))] = vec

    def get(self, session_id, utt_index):
        key = (str(session_id), int(utt_index))
        if key not in self.vectors:
            raise EmbeddingLookupError(f"no embedding for session {session_id} utterance {utt_index}")
        return self.vectors[key]

    def check_coverage(self, sessions):
        """Fail loudly before training if any utterance lacks a vector."""
        missing = []
        for s in sessions:
            for u in s.utterances:
                if (s.id, u.index) not in self.vectors:
                    missing.append(f"{s.id}/{u.index}")
        if missing:
            raise EmbeddingLookupError(f"{len(missing)} utterances without embeddings, first: {missing[0]}")


def save_embeddings(path, table):
    path = Path(path)
    tmp = path.with_suffix(path.suffix + ".tmp")
    with tmp.open("w", encoding="utf-8") as f:
        f.write(f"#dim={table.dim}\n")
        for (sid, idx), vec in sorted(table.vectors.items()):
            floats = " ".join(np.format_float_scientific(x, unique=True) for x in vec)
            f.write(f"{sid}\t{idx}\t{floats}\n")
    tmp.replace(path)


def load_embeddings(path):
    with Path(path).open("r", encoding="utf-8") as f:
        header = f.readline().strip()
        if not header.startswith("#dim="):
            raise FormatError(f"{path}: missing #dim= header")
        dim = int(header[len("#dim=") :])
        table = EmbeddingTable(dim)
        for lineno, line in enumerate(f, 2):
            line = line.rstrip("\n")
            if not line:
                continue
            parts = line.split("\t")
            if len(parts) != 3:
                raise FormatError(f"{path}:{lineno}: expected 3 tab-separated fields")
            vec = np.array(parts[2].split(), dtype=np.float32)
            if vec.shape[0] != dim:
                raise FormatError(f"{path}:{lineno}: row dim {vec.shape[0]} != header dim {dim}")
            table.put(parts[0], int(parts[1]), vec)
    return table


def _bucket(token, seed):
    h = hashlib.blake2b(token.encode("utf-8"), digest_size=8, salt=seed.to_bytes(8, "little")).digest()
    return int.from_bytes(h, "little")


def hash_embed(text, dim=DEFAULT_DIM, seed=0, buckets=None):
    """Signed feature hashing of unigrams + bigrams, L2-normalized.

    Empty/tokenless text maps to the zero vector (exempt from normalization).
    buckets, a dict from feature to hash, lets calls that share it hash
    each distinct feature once; it must only be shared under one seed.
    """
    if dim < 8:
        raise FormatError(f"hash_embed dim must be >= 8, got {dim}")
    tokens = _TOKEN_RE.findall(text.lower())
    vec = np.zeros(dim, dtype=np.float32)
    if not tokens:
        return vec
    if buckets is None:
        buckets = {}
    features = list(tokens) + [f"{a}_{b}" for a, b in zip(tokens, tokens[1:])]
    for feat in features:
        h = buckets.get(feat)
        if h is None:
            h = buckets[feat] = _bucket(feat, seed)
        sign = 1.0 if (h >> 1) & 1 else -1.0
        vec[h % dim] += sign
    norm = float(np.linalg.norm(vec))
    if norm > 0:
        vec /= norm
    return vec


def embed_sessions(sessions, dim=DEFAULT_DIM, seed=0, prepend_question=True):
    """Hash-embed every utterance of the given sessions into a table.

    Feature hashes are shared across the call's utterances and dropped
    when it returns.
    """
    table = EmbeddingTable(dim)
    buckets = {}
    for s in sessions:
        for u in s.utterances:
            text = s.text(u.index, prepend_question)
            table.put(s.id, u.index, hash_embed(text, dim, seed, buckets))
    return table

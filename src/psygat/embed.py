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

    def put_rows(self, session_id, utt_indices, block):
        """put() for the rows of a (len(utt_indices), dim) block, checked once."""
        block = np.asarray(block, dtype=np.float32)
        if block.shape != (len(utt_indices), self.dim):
            raise FormatError(f"vectors for session {session_id} have shape {block.shape}, "
                              f"expected ({len(utt_indices)}, {self.dim})")
        finite = np.isfinite(block).all(axis=1)
        if not finite.all():
            raise FormatError(f"non-finite vector for {session_id}/{utt_indices[int(np.argmin(finite))]}")
        sid = str(session_id)
        for idx, vec in zip(utt_indices, block):
            self.vectors[(sid, int(idx))] = vec

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


def _hash_rows(texts, dim, seed, codes):
    """(len(texts), dim) float32 block of signed unigram + bigram bucket
    counts, each row L2-normalized; rows without features stay zero.

    codes maps each feature to 2 * bucket + sign bit, so a feature is hashed
    once per dict; it must only be shared under one dim and seed. All counts
    go through one bincount. They are small integers, so the sums and norms
    are exact and equal those of adding each feature in turn.
    """
    if dim < 8:
        raise FormatError(f"hash_embed dim must be >= 8, got {dim}")
    feats, counts = [], []
    for text in texts:
        tokens = _TOKEN_RE.findall(text.lower())
        feats += tokens
        feats += map("_".join, zip(tokens, tokens[1:]))
        counts.append(max(2 * len(tokens) - 1, 0))
    new = list(set(feats).difference(codes))
    if new:
        base = hashlib.blake2b(digest_size=8, salt=seed.to_bytes(8, "little"))

        def digest(feat):
            h = base.copy()
            h.update(feat.encode("utf-8"))
            return h.digest()

        v = np.frombuffer(b"".join(map(digest, new)), dtype="<u8")
        codes.update(zip(new, (2 * (v % dim) + ((v >> 1) & 1)).tolist()))
    n = len(texts)
    flat = np.fromiter(map(codes.__getitem__, feats), dtype=np.int64, count=len(feats))
    rows = np.repeat(np.arange(n, dtype=np.int64), counts)
    sums = np.bincount(rows * dim + (flat >> 1), weights=2.0 * (flat & 1) - 1.0, minlength=n * dim)
    vecs = sums.reshape(n, dim).astype(np.float32)
    norm = np.sqrt((vecs * vecs).sum(axis=1))
    norm[norm == 0] = 1
    return vecs / norm[:, None]


def hash_embed(text, dim=DEFAULT_DIM, seed=0):
    """Signed feature hashing of unigrams + bigrams, L2-normalized.

    Empty/tokenless text maps to the zero vector (exempt from normalization).
    """
    return _hash_rows([text], dim, seed, {})[0]


def embed_sessions(sessions, dim=DEFAULT_DIM, seed=0, prepend_question=True):
    """Hash-embed every utterance of the given sessions into a table.

    Each session is embedded as one block. Feature hashes are shared
    across the call's utterances and dropped when it returns.
    """
    table = EmbeddingTable(dim)
    codes = {}
    for s in sessions:
        texts = [s.text(u.index, prepend_question) for u in s.utterances]
        table.put_rows(s.id, [u.index for u in s.utterances], _hash_rows(texts, dim, seed, codes))
    return table

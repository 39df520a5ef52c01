"""Per-utterance semantic vectors by seeded feature hashing.

Token unigrams and bigrams are hashed with a seeded blake2b, so vectors
are stable across runs and platforms without any model service. Each
session's vectors are one (T, dim) array, one row per utterance.
"""

from __future__ import annotations

import hashlib
import re

import numpy as np

from .errors import DataError, FormatError

DEFAULT_DIM = 384

_TOKEN_RE = re.compile(r"[a-z0-9]+")


def _hash_rows(texts, dim, seed, codes):
    """(len(texts), dim) float32 block of signed unigram + bigram bucket
    counts, each row L2-normalized; rows without features stay zero.

    codes maps each feature to 2 * bucket + sign bit, so a feature is hashed
    once per dict; it must only be shared under one dim and seed. All counts
    go through one bincount. They are small integers, so the sums and norms
    are exact and equal those of adding each feature in turn.
    """
    if dim < 8:
        raise FormatError(f"embedding dim must be >= 8, got {dim}")
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


def embed_sessions(sessions, dim=DEFAULT_DIM, seed=0):
    """session id -> float32 (T, dim) block of its utterances' hashed vectors.

    Feature hashes are shared across the call's utterances and dropped
    when it returns. An id that two sessions share is a DataError: one
    block per id would give both sessions the same text.
    """
    codes, blocks = {}, {}
    for s in sessions:
        if s.id in blocks:
            raise DataError(f"session id {s.id!r} occurs more than once")
        blocks[s.id] = _hash_rows([s.text(u.index) for u in s.utterances], dim, seed, codes)
    return blocks

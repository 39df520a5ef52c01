"""Checkpoint persistence: a JSON header plus a raw little-endian float32
parameter blob, with an ordered parameter index in the header.

Every header carries FORMAT_VERSION. A header of another version, or of
none, is rejected rather than read with the current defaults.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

import numpy as np

from .causal import CausalConfig, ScorerParams
from .config import KINDS
from .errors import CheckpointError
from .model import ModelConfig, ModelParams
from .train import Checkpoint, TrainConfig

# Changes whenever the meaning of a header changes. Headers written before
# it existed, persona use then in train_config, carry none; version-1 headers
# index each attention head as its own gat{l}_attn{h} entry.
FORMAT_VERSION = 2


def _load_arrays(params, arrays, prefix):
    """Copy name -> array into every tensor of params, checking names and
    shapes; an array the config does not create is rejected, not ignored.
    Each tensor keeps its own array, so a scorer's tensors stay views of
    its flat block, and none is ever a view of the blob."""
    for name, t in params.named():
        if name not in arrays:
            raise CheckpointError(f"{prefix}: missing parameter {name}")
        if arrays[name].shape != t.data.shape:
            raise CheckpointError(
                f"{prefix}: shape mismatch for {name}: {arrays[name].shape} vs {t.data.shape}"
            )
        t.data[...] = arrays[name]
    for name in arrays:
        if name not in params.tensors:
            raise CheckpointError(f"{prefix}: unexpected parameter {name}; "
                                  "the config does not create it")


def _write_pair(prefix, header, arrays):
    prefix = Path(prefix)
    index = []
    offset = 0
    chunks = []
    for name, arr in arrays:
        flat = np.ascontiguousarray(arr, dtype="<f4").reshape(-1)
        index.append({"name": name, "shape": list(arr.shape), "offset": offset, "size": flat.size})
        offset += flat.size
        chunks.append(flat.tobytes())
    header = dict(header, format_version=FORMAT_VERSION, params=index)
    tmp_json = prefix.with_suffix(".json.tmp")
    tmp_bin = prefix.with_suffix(".bin.tmp")
    tmp_json.write_text(json.dumps(header, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    tmp_bin.write_bytes(b"".join(chunks))
    tmp_json.replace(prefix.with_suffix(".json"))
    tmp_bin.replace(prefix.with_suffix(".bin"))


def _read_pair(prefix, kind):
    """Header and name -> array of a checkpoint of the given kind. The
    index must lay the entries end to end from offset 0, as _write_pair
    does, with int offsets and sizes, and cover the blob exactly. The
    arrays are read-only views of the blob; _load_arrays copies them."""
    prefix = Path(prefix)
    try:
        header = json.loads(prefix.with_suffix(".json").read_text(encoding="utf-8"))
    except ValueError as exc:
        raise CheckpointError(f"{prefix}: header is not valid JSON: {exc}") from exc
    if not isinstance(header, dict) or "params" not in header:
        raise CheckpointError(f"{prefix}: header has no parameter index")
    version = header.get("format_version")
    if type(version) is not int or version != FORMAT_VERSION:
        raise CheckpointError(f"{prefix}: format version {version!r}, expected {FORMAT_VERSION}")
    if header.get("kind") != kind:
        raise CheckpointError(f"{prefix}: not a {kind.replace('_', '-')} checkpoint")
    raw = prefix.with_suffix(".bin").read_bytes()
    try:
        total = 0
        for entry in header["params"]:
            shape, offset, size = entry["shape"], entry["offset"], entry["size"]
            if not isinstance(shape, list) or any(type(d) is not int or d < 0 for d in shape):
                raise CheckpointError(f"{prefix}: index entry {entry['name']} has shape "
                                      f"{shape!r}, not a list of non-negative ints")
            if type(offset) is not int or type(size) is not int:
                raise CheckpointError(f"{prefix}: index entry {entry['name']} has offset "
                                      f"{offset!r} and size {size!r}, not ints")
            if offset != total or size != int(np.prod(shape)):
                raise CheckpointError(f"{prefix}: index entry {entry['name']} does not fit the "
                                      f"blob: offset {offset} and size {size}, expected offset "
                                      f"{total} and size {int(np.prod(shape))}")
            total += size
        if len(raw) != 4 * total:
            raise CheckpointError(
                f"{prefix}: blob holds {len(raw)} bytes, index expects {4 * total}")
        blob = np.frombuffer(raw, dtype="<f4")
        arrays = {entry["name"]: blob[entry["offset"]:entry["offset"] + entry["size"]]
                  .reshape(entry["shape"]) for entry in header["params"]}
    except (KeyError, TypeError) as exc:
        raise CheckpointError(f"{prefix}: malformed parameter index: {exc!r}") from exc
    return header, arrays


def _header_field(prefix, header, key):
    if key not in header:
        raise CheckpointError(f"{prefix}: header has no {key}")
    return header[key]


def _header_config(prefix, header, key, cls):
    """The config dataclass stored under key, rejected as a CheckpointError
    when absent or when cls does not accept it."""
    obj = _header_field(prefix, header, key)
    try:
        return cls.from_json(obj)
    except (TypeError, ValueError) as exc:
        raise CheckpointError(f"{prefix}: invalid {key}: {exc}") from exc


def save_checkpoint(prefix, checkpoint):
    header = {
        "kind": "session_model",
        "model_config": checkpoint.params.config.to_json(),
        "train_config": checkpoint.train_config.to_json(),
        "seed": checkpoint.seed,
        "epoch": checkpoint.epoch,
        "best_val_pr_auc": checkpoint.best_val_pr_auc,
        "threshold": checkpoint.threshold,
    }
    _write_pair(prefix, header, [(n, t.data) for n, t in checkpoint.params.named()])


def load_checkpoint(prefix):
    header, arrays = _read_pair(prefix, "session_model")
    model_config = _header_config(prefix, header, "model_config", ModelConfig)
    train_config = _header_config(prefix, header, "train_config", TrainConfig)
    fields = {key: _header_field(prefix, header, key)
              for key in ("best_val_pr_auc", "threshold", "seed", "epoch")}
    for key, value in fields.items():
        accepts, must_be, _ = KINDS["int" if key in ("seed", "epoch") else "float"]
        if not accepts(value):
            raise CheckpointError(f"{prefix}: {key} {value!r} is not {must_be}")
    params = ModelParams(model_config, seed=0)
    _load_arrays(params, arrays, prefix)
    return Checkpoint(params=params, train_config=train_config, **fields)


def save_scorer(prefix, scorer, extra=None):
    header = {
        "kind": "causal_scorer",
        "causal_config": scorer.config.to_json(),
        "model_hidden": scorer.model_hidden,
    }
    if extra:
        header.update(extra)
    _write_pair(prefix, header, [(n, t.data) for n, t in scorer.named()])


def load_scorer(prefix):
    header, arrays = _read_pair(prefix, "causal_scorer")
    config = _header_config(prefix, header, "causal_config", CausalConfig)
    model_hidden = _header_field(prefix, header, "model_hidden")
    if not KINDS["int"][0](model_hidden) or model_hidden < 1:
        raise CheckpointError(f"{prefix}: model_hidden {model_hidden!r} is not an integer >= 1")
    scorer = ScorerParams(config, model_hidden=model_hidden, seed=0)
    _load_arrays(scorer, arrays, prefix)
    return scorer


def checkpoint_hash(prefix):
    """Stable digest over header and blob, for post-hoc no-mutation checks."""
    prefix = Path(prefix)
    h = hashlib.sha256()
    h.update(prefix.with_suffix(".json").read_bytes())
    h.update(prefix.with_suffix(".bin").read_bytes())
    return h.hexdigest()

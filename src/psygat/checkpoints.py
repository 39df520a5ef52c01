"""Session-model checkpoint persistence: a JSON header plus a raw
little-endian float32 parameter blob, with an ordered parameter index in
the header. The session model is the only checkpoint kind.

Every header carries FORMAT_VERSION. A header of another version, or of
none, is rejected rather than read with the current defaults.
"""

from __future__ import annotations

import hashlib
import json
import math
from pathlib import Path

import numpy as np

from .config import KINDS
from .errors import CheckpointError, ConfigError
from .model import ModelConfig, ModelParams
from .train import Checkpoint, TrainConfig, is_threshold

# Changes whenever the meaning of a header changes. Headers written before
# it existed, persona use then in train_config, carry none; version-1 headers
# index each attention head as its own gat{l}_attn{h} entry; version-2
# headers carry a train_config key since removed: a uniform scale of the
# focal loss, which AdamW's update divides out.
FORMAT_VERSION = 3


def _load_arrays(params, arrays, prefix):
    """Copy name -> array into every tensor of params, checking names and
    shapes; an array the config does not create is rejected, not ignored.
    Each tensor stays a view of params' block, so none is ever a view of
    the blob."""
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


def _read_pair(prefix):
    """Header and name -> array of a session-model checkpoint. The index
    must lay the entries end to end from offset 0, as _write_pair does,
    with int offsets and sizes, cover the blob exactly and name each
    tensor once. The arrays are read-only views of the blob; _load_arrays
    copies them."""
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
    if header.get("kind") != "session_model":
        raise CheckpointError(f"{prefix}: not a session-model checkpoint")
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
            # exact: numpy's int64 product wraps, (2**32, 2**32) to 0
            if offset != total or size != math.prod(shape):
                raise CheckpointError(f"{prefix}: index entry {entry['name']} does not fit the "
                                      f"blob: offset {offset} and size {size}, expected offset "
                                      f"{total} and size {math.prod(shape)}")
            total += size
        if len(raw) != 4 * total:
            raise CheckpointError(
                f"{prefix}: blob holds {len(raw)} bytes, index expects {4 * total}")
        blob = np.frombuffer(raw, dtype="<f4")
        arrays = {}
        for entry in header["params"]:
            if entry["name"] in arrays:
                raise CheckpointError(f"{prefix}: index entry {entry['name']} occurs twice")
            view = blob[entry["offset"]:entry["offset"] + entry["size"]]
            try:
                arrays[entry["name"]] = view.reshape(entry["shape"])
            except ValueError as exc:  # size 0, but a dimension past numpy's limit
                raise CheckpointError(f"{prefix}: index entry {entry['name']} has shape "
                                      f"{entry['shape']}, which numpy cannot hold") from exc
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
    except ConfigError as exc:
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
    header, arrays = _read_pair(prefix)
    model_config = _header_config(prefix, header, "model_config", ModelConfig)
    train_config = _header_config(prefix, header, "train_config", TrainConfig)
    checks = {"best_val_pr_auc": KINDS["float"][:2],
              "threshold": (is_threshold, "a finite number in [0, 1]"),
              "seed": KINDS["int"][:2], "epoch": KINDS["int"][:2]}
    fields = {key: _header_field(prefix, header, key) for key in checks}
    for key, value in fields.items():
        accepts, must_be = checks[key]
        if not accepts(value):
            raise CheckpointError(f"{prefix}: {key} {value!r} is not {must_be}")
    params = ModelParams(model_config, seed=0)
    _load_arrays(params, arrays, prefix)
    return Checkpoint(params=params, train_config=train_config, **fields)


def checkpoint_hash(prefix):
    """Stable digest over header and blob, for post-hoc no-mutation checks."""
    prefix = Path(prefix)
    h = hashlib.sha256()
    h.update(prefix.with_suffix(".json").read_bytes())
    h.update(prefix.with_suffix(".bin").read_bytes())
    return h.hexdigest()

"""Checkpoint persistence: round-trips, validation and hashing."""

import json
from dataclasses import replace

import numpy as np
import pytest

from psygat import checkpoints as CK
from psygat.model import ModelConfig, ModelParams
from psygat.train import Checkpoint, TrainConfig


def small_checkpoint(seed=0):
    config = ModelConfig(text_dim=16, hidden=8, heads=2, num_layers=1,
                         persona_dim=4, head_hidden=4, dropout=0.0)
    return Checkpoint(
        params=ModelParams(config, seed=seed),
        train_config=TrainConfig(seeds=(seed,)),
        best_val_pr_auc=0.87,
        threshold=0.4375,
        seed=seed,
        epoch=12,
    )


def edit_header(path, change):
    header = json.loads(path.read_text())
    change(header)
    path.write_text(json.dumps(header))


def append_entry(prefix, name, shape=(1,), size=1):
    """Add a parameter the config does not create to the end of a saved
    pair's index, and size zeros to its blob."""
    header = json.loads(prefix.with_suffix(".json").read_text())
    offset = sum(entry["size"] for entry in header["params"])
    header["params"].append({"name": name, "shape": list(shape), "offset": offset, "size": size})
    prefix.with_suffix(".json").write_text(json.dumps(header))
    with prefix.with_suffix(".bin").open("ab") as f:
        f.write(np.zeros(size, dtype="<f4").tobytes())


def alias_ln_beta(header):
    """Point text_ln_beta at text_ln_gamma's bytes; both have one size."""
    entries = {entry["name"]: entry for entry in header["params"]}
    entries["text_ln_beta"]["offset"] = entries["text_ln_gamma"]["offset"]


class TestSessionModelCheckpoints:
    def test_round_trip_preserves_everything(self, tmp_path):
        ck = small_checkpoint()
        prefix = tmp_path / "ckpt"
        CK.save_checkpoint(prefix, ck)
        loaded = CK.load_checkpoint(prefix)
        assert loaded.train_config == ck.train_config
        assert loaded.params.config == ck.params.config
        assert loaded.threshold == ck.threshold
        assert loaded.best_val_pr_auc == ck.best_val_pr_auc
        assert loaded.seed == ck.seed and loaded.epoch == ck.epoch
        for (n1, t1), (n2, t2) in zip(ck.params.named(), loaded.params.named()):
            assert n1 == n2
            np.testing.assert_array_equal(t1.data, t2.data)

    def test_persona_off_round_trips_through_model_config(self, tmp_path):
        ck = small_checkpoint()
        ck.params.config = replace(ck.params.config, persona=False)
        CK.save_checkpoint(tmp_path / "ckpt", ck)
        header = json.loads((tmp_path / "ckpt.json").read_text())
        assert header["model_config"]["persona"] is False
        assert "persona_mode" not in header["train_config"]
        assert CK.load_checkpoint(tmp_path / "ckpt").params.config.persona is False

    def test_loaded_parameters_are_writable_copies_of_the_blob(self, tmp_path):
        ck = small_checkpoint()
        CK.save_checkpoint(tmp_path / "ckpt", ck)
        _, arrays = CK._read_pair(tmp_path / "ckpt")
        blob = next(iter(arrays.values())).base
        loaded = CK.load_checkpoint(tmp_path / "ckpt")
        for (_, t), (_, want) in zip(loaded.params.named(), ck.params.named()):
            assert t.data.flags.writeable and t.data.flags.owndata
            assert t.data.dtype == np.float32 and t.data.tobytes() == want.data.tobytes()
            assert not np.shares_memory(t.data, blob)
            t.data += 1.0  # an AdamW step updates in place

    def test_save_is_byte_deterministic(self, tmp_path):
        ck = small_checkpoint()
        CK.save_checkpoint(tmp_path / "a", ck)
        CK.save_checkpoint(tmp_path / "b", ck)
        assert (tmp_path / "a.bin").read_bytes() == (tmp_path / "b.bin").read_bytes()
        assert (tmp_path / "a.json").read_bytes() == (tmp_path / "b.json").read_bytes()

    @pytest.mark.parametrize("kind", ["causal_scorer", None, "missing"])
    def test_wrong_kind_rejected(self, tmp_path, kind):
        # causal_scorer is the kind of the scorer headers older explain runs wrote
        CK.save_checkpoint(tmp_path / "ckpt", small_checkpoint())
        edit_header(tmp_path / "ckpt.json", lambda header: header.pop("kind")
                    if kind == "missing" else header.update(kind=kind))
        with pytest.raises(CK.CheckpointError, match="not a session-model checkpoint"):
            CK.load_checkpoint(tmp_path / "ckpt")

    @pytest.mark.parametrize("field,value,message", [
        ("name", "head_w3", "missing parameter head_w2"),
        ("shape", [1, 4], r"shape mismatch for head_w2: \(1, 4\) vs \(4, 1\)"),
    ])
    def test_bad_tensor_entry_rejected(self, tmp_path, field, value, message):
        # the index fits the blob; the config's parameters do not fit the index
        CK.save_checkpoint(tmp_path / "ckpt", small_checkpoint())

        def change(header):
            (entry,) = [e for e in header["params"] if e["name"] == "head_w2"]
            entry[field] = value

        edit_header(tmp_path / "ckpt.json", change)
        with pytest.raises(CK.CheckpointError, match=message):
            CK.load_checkpoint(tmp_path / "ckpt")

    @pytest.mark.parametrize("version", ["missing", 1, 2, CK.FORMAT_VERSION + 1, "3", True,
                                         3.0])
    def test_other_format_version_rejected(self, tmp_path, version):
        # a header from before the version, persona use then in train_config,
        # fails here and never loads as a persona-on model; nor does a
        # version-1 header, which indexed each attention head on its own, or
        # a version-2 one, whose train_config carries focal_alpha
        CK.save_checkpoint(tmp_path / "ckpt", small_checkpoint())
        edit_header(tmp_path / "ckpt.json", lambda header: header.pop("format_version")
                    if version == "missing" else header.update(format_version=version))
        with pytest.raises(CK.CheckpointError, match="format version .*, expected 3") as info:
            CK.load_checkpoint(tmp_path / "ckpt")
        assert len(str(info.value).splitlines()) == 1

    def test_header_records_the_format_version(self, tmp_path):
        CK.save_checkpoint(tmp_path / "ckpt", small_checkpoint())
        header = json.loads((tmp_path / "ckpt.json").read_text())
        assert header["format_version"] == CK.FORMAT_VERSION == 3

    def test_blob_is_float32_little_endian(self, tmp_path):
        ck = small_checkpoint()
        CK.save_checkpoint(tmp_path / "ckpt", ck)
        header = json.loads((tmp_path / "ckpt.json").read_text())
        total = sum(entry["size"] for entry in header["params"])
        assert (tmp_path / "ckpt.bin").stat().st_size == 4 * total

    def test_truncated_blob_rejected(self, tmp_path):
        CK.save_checkpoint(tmp_path / "ckpt", small_checkpoint())
        blob = tmp_path / "ckpt.bin"
        blob.write_bytes(blob.read_bytes()[:-4])
        with pytest.raises(CK.CheckpointError, match="bytes"):
            CK.load_checkpoint(tmp_path / "ckpt")

    def test_out_of_range_offset_rejected(self, tmp_path):
        CK.save_checkpoint(tmp_path / "ckpt", small_checkpoint())
        path = tmp_path / "ckpt.json"
        header = json.loads(path.read_text())
        header["params"][-1]["offset"] += 1
        path.write_text(json.dumps(header))
        with pytest.raises(CK.CheckpointError, match="does not fit"):
            CK.load_checkpoint(tmp_path / "ckpt")

    def test_blob_cut_inside_a_value_rejected(self, tmp_path):
        CK.save_checkpoint(tmp_path / "ckpt", small_checkpoint())
        blob = tmp_path / "ckpt.bin"
        blob.write_bytes(blob.read_bytes()[:-1])
        with pytest.raises(CK.CheckpointError, match="bytes"):
            CK.load_checkpoint(tmp_path / "ckpt")

    @pytest.mark.parametrize("change,message", [
        (alias_ln_beta, "text_ln_beta does not fit"),
        (lambda header: header["params"][1].update(offset=header["params"][1]["offset"] + 1),
         "does not fit"),
        (lambda header: header["params"][0].update(offset=False), "offset False .* not ints"),
        (lambda header: header["params"][0].update(offset=0.0), "offset 0.0 .* not ints"),
        (lambda header: header["params"][0].update(size=float(header["params"][0]["size"])),
         "not ints"),
    ], ids=["aliased", "gap", "bool-offset", "float-offset", "float-size"])
    def test_index_not_laid_end_to_end_rejected(self, tmp_path, change, message):
        # every entry starts where the one before it ends, as _write_pair
        # lays them out; anything else reads some other parameter's bytes
        CK.save_checkpoint(tmp_path / "ckpt", small_checkpoint())
        edit_header(tmp_path / "ckpt.json", change)
        with pytest.raises(CK.CheckpointError, match=message):
            CK.load_checkpoint(tmp_path / "ckpt")

    @pytest.mark.parametrize("text", ["{not json", "[1, 2]", '{"kind": "session_model"}',
                                      '{"params": []}'])
    def test_malformed_header_rejected(self, tmp_path, text):
        CK.save_checkpoint(tmp_path / "ckpt", small_checkpoint())
        (tmp_path / "ckpt.json").write_text(text)
        with pytest.raises(CK.CheckpointError):
            CK.load_checkpoint(tmp_path / "ckpt")

    @pytest.mark.parametrize("shape", [[-1, -12], [-3, 4], [2.0, 6], [True, 12], "12", 12, None])
    def test_index_entry_with_a_malformed_shape_rejected(self, tmp_path, shape):
        CK.save_checkpoint(tmp_path / "ckpt", small_checkpoint())
        edit_header(tmp_path / "ckpt.json", lambda header: header["params"][0].update(shape=shape))
        with pytest.raises(CK.CheckpointError, match="not a list of non-negative ints"):
            CK.load_checkpoint(tmp_path / "ckpt")

    @pytest.mark.parametrize("shape,message", [
        # numpy's int64 product of this shape wraps to 0, the entry's size
        ([2**32, 2**32], "does not fit the blob: .* and size 18446744073709551616"),
        # the product is exactly 0, but numpy cannot hold the middle dimension
        ([0, 2**62, 4], r"has shape \[0, 4611686018427387904, 4\], which numpy cannot hold"),
    ], ids=["wraps-to-zero", "too-big-for-numpy"])
    def test_index_entry_with_an_overflowing_shape_rejected(self, tmp_path, shape, message):
        CK.save_checkpoint(tmp_path / "ckpt", small_checkpoint())
        append_entry(tmp_path / "ckpt", "huge", shape=shape, size=0)
        with pytest.raises(CK.CheckpointError, match=message) as info:
            CK.load_checkpoint(tmp_path / "ckpt")
        assert len(str(info.value).splitlines()) == 1

    def test_index_entry_without_offset_rejected(self, tmp_path):
        CK.save_checkpoint(tmp_path / "ckpt", small_checkpoint())
        path = tmp_path / "ckpt.json"
        header = json.loads(path.read_text())
        del header["params"][0]["offset"]
        path.write_text(json.dumps(header))
        with pytest.raises(CK.CheckpointError, match="malformed"):
            CK.load_checkpoint(tmp_path / "ckpt")


    @pytest.mark.parametrize("key", ["model_config", "train_config", "seed", "epoch",
                                     "best_val_pr_auc", "threshold"])
    def test_missing_header_field_rejected(self, tmp_path, key):
        CK.save_checkpoint(tmp_path / "ckpt", small_checkpoint())
        edit_header(tmp_path / "ckpt.json", lambda header: header.pop(key))
        with pytest.raises(CK.CheckpointError, match=f"header has no {key}"):
            CK.load_checkpoint(tmp_path / "ckpt")

    @pytest.mark.parametrize("key,change", [
        ("model_config", {"width": 3}),  # unknown key
        ("model_config", {"hidden": 7}),  # not divisible by heads
        # as written before the readout, dropout-site and slope switches went
        ("model_config", {"attn_dropout": True, "leaky_slope": 0.2, "out_dropout": True,
                          "readout": "set2set"}),
        ("train_config", {"optimizer": "sgd"}),
        ("train_config", {"lr": -1.0}),
        ("model_config", {"persona": "off"}),
        # keys that moved or went: persona use now lives in model_config
        ("train_config", {"persona_mode": "off"}),
        ("train_config", {"loss": "bce"}),
    ])
    def test_config_rejected_by_its_dataclass(self, tmp_path, key, change):
        CK.save_checkpoint(tmp_path / "ckpt", small_checkpoint())
        edit_header(tmp_path / "ckpt.json", lambda header: header[key].update(change))
        with pytest.raises(CK.CheckpointError, match=f"invalid {key}"):
            CK.load_checkpoint(tmp_path / "ckpt")

    @pytest.mark.parametrize("key,value,message", [
        ("threshold", "abc", "not a finite number"),
        ("threshold", float("nan"), "not a finite number"),
        ("threshold", None, "not a finite number"),
        ("best_val_pr_auc", float("inf"), "not a finite number"),
        ("best_val_pr_auc", True, "not a finite number"),
        ("best_val_pr_auc", [0.5], "not a finite number"),
        ("seed", 1.0, "not an integer"),
        ("seed", "0", "not an integer"),
        ("epoch", True, "not an integer"),
        ("epoch", None, "not an integer"),
    ])
    def test_header_scalar_of_the_wrong_kind_rejected(self, tmp_path, key, value, message):
        CK.save_checkpoint(tmp_path / "ckpt", small_checkpoint())
        edit_header(tmp_path / "ckpt.json", lambda header: header.update({key: value}))
        with pytest.raises(CK.CheckpointError, match=f"{key} .* is {message}"):
            CK.load_checkpoint(tmp_path / "ckpt")

    def test_integral_scores_accepted(self, tmp_path):
        CK.save_checkpoint(tmp_path / "ckpt", small_checkpoint())
        edit_header(tmp_path / "ckpt.json", lambda header: header.update(
            threshold=0, best_val_pr_auc=1))
        loaded = CK.load_checkpoint(tmp_path / "ckpt")
        assert (loaded.threshold, loaded.best_val_pr_auc) == (0, 1)

    def test_blob_of_a_deeper_model_rejected(self, tmp_path):
        ck = small_checkpoint()
        ck.params = ModelParams(replace(ck.params.config, num_layers=2), seed=0)
        CK.save_checkpoint(tmp_path / "ckpt", ck)
        edit_header(tmp_path / "ckpt.json", lambda header: header["model_config"].update(
            num_layers=1))
        with pytest.raises(CK.CheckpointError, match="unexpected parameter gat1_.*the config "
                                                     "does not create it"):
            CK.load_checkpoint(tmp_path / "ckpt")

    def test_extra_index_entry_rejected(self, tmp_path):
        CK.save_checkpoint(tmp_path / "ckpt", small_checkpoint())
        append_entry(tmp_path / "ckpt", "stray")
        with pytest.raises(CK.CheckpointError, match="unexpected parameter stray"):
            CK.load_checkpoint(tmp_path / "ckpt")

    def test_config_that_is_not_an_object_rejected(self, tmp_path):
        CK.save_checkpoint(tmp_path / "ckpt", small_checkpoint())
        edit_header(tmp_path / "ckpt.json", lambda header: header.update(model_config=[1, 2]))
        with pytest.raises(CK.CheckpointError, match="invalid model_config"):
            CK.load_checkpoint(tmp_path / "ckpt")


class TestHash:
    def test_hash_stable_and_sensitive(self, tmp_path):
        CK.save_checkpoint(tmp_path / "a", small_checkpoint(0))
        h1 = CK.checkpoint_hash(tmp_path / "a")
        assert CK.checkpoint_hash(tmp_path / "a") == h1
        CK.save_checkpoint(tmp_path / "b", small_checkpoint(1))
        assert CK.checkpoint_hash(tmp_path / "b") != h1

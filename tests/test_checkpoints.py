"""Checkpoint persistence: round-trips, validation and hashing."""

import json
from dataclasses import replace

import numpy as np
import pytest

from psygat import checkpoints as CK
from psygat.causal import CausalConfig, ScorerParams
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


def append_entry(prefix, name):
    """Add a one-value parameter the config does not create to a saved pair."""
    header = json.loads(prefix.with_suffix(".json").read_text())
    offset = sum(entry["size"] for entry in header["params"])
    header["params"].append({"name": name, "shape": [1], "offset": offset, "size": 1})
    prefix.with_suffix(".json").write_text(json.dumps(header))
    with prefix.with_suffix(".bin").open("ab") as f:
        f.write(np.zeros(1, dtype="<f4").tobytes())


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
        _, arrays = CK._read_pair(tmp_path / "ckpt", "session_model")
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

    def test_wrong_kind_rejected(self, tmp_path):
        scorer = ScorerParams(CausalConfig(), model_hidden=8, seed=0)
        CK.save_scorer(tmp_path / "s", scorer)
        with pytest.raises(CK.CheckpointError):
            CK.load_checkpoint(tmp_path / "s")

    @pytest.mark.parametrize("version", ["missing", 1, CK.FORMAT_VERSION + 1, "2", True, 2.0])
    def test_other_format_version_rejected(self, tmp_path, version):
        # a header from before the version, persona use then in train_config,
        # fails here and never loads as a persona-on model; nor does a
        # version-1 header, which indexed each attention head on its own
        CK.save_checkpoint(tmp_path / "ckpt", small_checkpoint())
        edit_header(tmp_path / "ckpt.json", lambda header: header.pop("format_version")
                    if version == "missing" else header.update(format_version=version))
        with pytest.raises(CK.CheckpointError, match="format version .*, expected 2") as info:
            CK.load_checkpoint(tmp_path / "ckpt")
        assert len(str(info.value).splitlines()) == 1

    def test_header_records_the_format_version(self, tmp_path):
        CK.save_checkpoint(tmp_path / "ckpt", small_checkpoint())
        header = json.loads((tmp_path / "ckpt.json").read_text())
        assert header["format_version"] == CK.FORMAT_VERSION == 2

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


class TestScorerCheckpoints:
    def test_round_trip(self, tmp_path):
        scorer = ScorerParams(CausalConfig(window=5, hidden=32), model_hidden=16, seed=3)
        CK.save_scorer(tmp_path / "s", scorer, extra={"session_checkpoint_sha256": "x"})
        loaded = CK.load_scorer(tmp_path / "s")
        assert loaded.config == scorer.config
        assert loaded.model_hidden == 16
        for (n1, t1), (n2, t2) in zip(scorer.named(), loaded.named()):
            assert n1 == n2
            np.testing.assert_array_equal(t1.data, t2.data)

    def test_loaded_tensors_stay_views_of_the_scorer_block(self, tmp_path):
        scorer = ScorerParams(CausalConfig(window=2, hidden=8), model_hidden=4, seed=3)
        CK.save_scorer(tmp_path / "s", scorer)
        _, arrays = CK._read_pair(tmp_path / "s", "causal_scorer")
        blob = next(iter(arrays.values())).base
        loaded = CK.load_scorer(tmp_path / "s")
        assert loaded.flat.data.tobytes() == scorer.flat.data.tobytes()
        for (name, t), (_, want) in zip(loaded.named(), scorer.named()):
            assert t.data.base is loaded.flat.data, name
            assert np.shares_memory(t.data, loaded.flat.data), name
            assert not np.shares_memory(t.data, blob), name
            assert t.data.tobytes() == want.data.tobytes(), name

    def test_wrong_kind_rejected(self, tmp_path):
        CK.save_checkpoint(tmp_path / "m", small_checkpoint())
        with pytest.raises(CK.CheckpointError):
            CK.load_scorer(tmp_path / "m")

    @pytest.mark.parametrize("field,value,message", [
        ("name", "w3", "missing parameter w2"),
        ("shape", [1, 32], "shape mismatch for w2"),
    ])
    def test_bad_tensor_entry_rejected(self, tmp_path, field, value, message):
        CK.save_scorer(tmp_path / "s", ScorerParams(CausalConfig(hidden=32), model_hidden=8))
        path = tmp_path / "s.json"
        header = json.loads(path.read_text())
        (entry,) = [e for e in header["params"] if e["name"] == "w2"]
        entry[field] = value
        path.write_text(json.dumps(header))
        with pytest.raises(CK.CheckpointError, match=message):
            CK.load_scorer(tmp_path / "s")


    def test_extra_index_entry_rejected(self, tmp_path):
        CK.save_scorer(tmp_path / "s", ScorerParams(CausalConfig(hidden=32), model_hidden=8))
        append_entry(tmp_path / "s", "w3")
        with pytest.raises(CK.CheckpointError, match="unexpected parameter w3"):
            CK.load_scorer(tmp_path / "s")

    @pytest.mark.parametrize("version", ["missing", 1, CK.FORMAT_VERSION + 1])
    def test_other_format_version_rejected(self, tmp_path, version):
        CK.save_scorer(tmp_path / "s", ScorerParams(CausalConfig(), model_hidden=8))
        assert json.loads((tmp_path / "s.json").read_text())["format_version"] == 2
        edit_header(tmp_path / "s.json", lambda header: header.pop("format_version")
                    if version == "missing" else header.update(format_version=version))
        with pytest.raises(CK.CheckpointError, match="format version .*, expected 2"):
            CK.load_scorer(tmp_path / "s")

    @pytest.mark.parametrize("key", ["causal_config", "model_hidden"])
    def test_missing_header_field_rejected(self, tmp_path, key):
        CK.save_scorer(tmp_path / "s", ScorerParams(CausalConfig(), model_hidden=8))
        edit_header(tmp_path / "s.json", lambda header: header.pop(key))
        with pytest.raises(CK.CheckpointError, match=f"header has no {key}"):
            CK.load_scorer(tmp_path / "s")

    @pytest.mark.parametrize("value", [8.0, "8", True, 0, -2])
    def test_model_hidden_not_a_positive_int_rejected(self, tmp_path, value):
        # a missing model_hidden is test_missing_header_field_rejected's case
        CK.save_scorer(tmp_path / "s", ScorerParams(CausalConfig(), model_hidden=8))
        edit_header(tmp_path / "s.json", lambda header: header.update(model_hidden=value))
        with pytest.raises(CK.CheckpointError, match="model_hidden .* is not an integer >= 1") as info:
            CK.load_scorer(tmp_path / "s")
        assert len(str(info.value).splitlines()) == 1

    @pytest.mark.parametrize("change", [
        {"depth": 2}, {"window": 0}, {"epochs": 0}, {"batch_instances": 0}, {"hidden": 0},
        {"lr": 0.0}, {"weight_decay": -1.0},
    ])
    def test_config_rejected_by_its_dataclass(self, tmp_path, change):
        CK.save_scorer(tmp_path / "s", ScorerParams(CausalConfig(), model_hidden=8))
        edit_header(tmp_path / "s.json", lambda header: header["causal_config"].update(change))
        with pytest.raises(CK.CheckpointError, match="invalid causal_config"):
            CK.load_scorer(tmp_path / "s")


class TestHash:
    def test_hash_stable_and_sensitive(self, tmp_path):
        CK.save_checkpoint(tmp_path / "a", small_checkpoint(0))
        h1 = CK.checkpoint_hash(tmp_path / "a")
        assert CK.checkpoint_hash(tmp_path / "a") == h1
        CK.save_checkpoint(tmp_path / "b", small_checkpoint(1))
        assert CK.checkpoint_hash(tmp_path / "b") != h1

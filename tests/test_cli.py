"""Command-line surface: subcommands, artifacts and exit codes. Training
here uses a deliberately tiny corpus and epoch budget; learning quality
is covered elsewhere."""

import hashlib
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from psygat import cli
from psygat.datagen import GenConfig
from psygat.sessions import read_sessions
from psygat.train import TrainConfig


@pytest.fixture(scope="module")
def workspace(tmp_path_factory):
    """Tiny end-to-end run shared by the subcommand tests."""
    root = tmp_path_factory.mktemp("cli")
    gen_cfg = root / "gen.cfg"
    gen_cfg.write_text("n_sessions = 24\nutterances_min = 5\nutterances_max = 7\n")
    train_cfg = root / "train.cfg"
    train_cfg.write_text("max_epochs = 2\nseeds = 0\nbatch_size = 8\n")
    corpus_dir = root / "corpus"
    train_dir = root / "train"
    assert cli.main(["generate", "--config", str(gen_cfg), "--seed", "5",
                     "--out", str(corpus_dir)]) == 0
    corpus = corpus_dir / "sessions.jsonl"
    assert cli.main(["train", "--corpus", str(corpus), "--config", str(train_cfg),
                     "--out", str(train_dir)]) == 0
    return {"root": root, "corpus": corpus, "corpus_dir": corpus_dir,
            "train_dir": train_dir, "gen_cfg": gen_cfg, "train_cfg": train_cfg}


class TestGenerate:
    def test_artifacts_written(self, workspace):
        d = workspace["corpus_dir"]
        assert (d / "sessions.jsonl").exists()
        manifest = json.loads((d / "corpus_manifest.json").read_text())
        assert manifest["seed"] == 5
        assert manifest["splits"]["train"]["sessions"] > 0
        run = json.loads((d / "run_manifest.json").read_text())
        assert run["command"] == "generate"
        assert run["seeds"] == [5]
        env = run["environment"]
        assert env["numpy"] == np.__version__ and env["cpu_count"] == os.cpu_count()
        assert env["python"].count(".") == 2
        assert env["blas_threads"] == {name: os.environ.get(name) for name in
                                       ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                                        "MKL_NUM_THREADS")}

    def test_manifest_git_describes_the_package_checkout(self, workspace, tmp_path,
                                                         monkeypatch):
        try:
            want = subprocess.run(["git", "describe", "--always", "--dirty"],
                                  cwd=Path(cli.__file__).parent, capture_output=True,
                                  text=True, timeout=5).stdout.strip() or "unknown"
        except OSError:
            want = "unknown"
        monkeypatch.chdir(tmp_path)  # not a checkout
        assert cli.main(["generate", "--config", str(workspace["gen_cfg"]), "--out", "o"]) == 0
        assert json.loads((tmp_path / "o" / "run_manifest.json").read_text())["git"] == want

    def test_reruns_are_byte_identical(self, workspace, tmp_path):
        out = tmp_path / "again"
        cli.main(["generate", "--config", str(workspace["gen_cfg"]), "--seed", "5",
                  "--out", str(out)])
        assert (out / "sessions.jsonl").read_bytes() == workspace["corpus"].read_bytes()

    GEN_LINES = {
        "seed": ("7", 7), "n_sessions": ("30", 30), "class_balance": ("0.4", 0.4),
        "utterances_min": ("5", 5), "utterances_max": ("7", 7), "val_fraction": ("0.25", 0.25),
        "test_fraction": ("0.3", 0.3), "augmentation_ratio": ("0.1", 0.1),
        "label_flip": ("0.05", 0.05), "peu_dropout": ("0.2", 0.2), "causal_lag_min": ("2", 2),
        "causal_lag_max": ("3", 3), "echo_rate": ("0.1", 0.1),
        "persona_set": ("extended", "extended"),
    }

    def test_every_config_field_set_from_a_config_line(self, tmp_path):
        assert set(self.GEN_LINES) == set(GenConfig.__dataclass_fields__)
        config = tmp_path / "gen.cfg"
        config.write_text("".join(f"{k} = {raw}\n" for k, (raw, _) in self.GEN_LINES.items()))
        out = tmp_path / "corpus"
        assert cli.main(["generate", "--config", str(config), "--out", str(out)]) == 0
        run = json.loads((out / "run_manifest.json").read_text())
        want = {key: value for key, (_, value) in self.GEN_LINES.items()}
        assert run["config"] == want and run["seeds"] == [7]

    def test_bad_config_exits_two(self, tmp_path):
        bad = tmp_path / "bad.cfg"
        bad.write_text("n_sessions = 4\n")
        assert cli.main(["generate", "--config", str(bad), "--out", str(tmp_path / "o")]) == 2

    def test_unknown_key_exits_two(self, tmp_path):
        bad = tmp_path / "bad.cfg"
        bad.write_text("sessions = 40\n")
        assert cli.main(["generate", "--config", str(bad), "--out", str(tmp_path / "o")]) == 2

    def test_removed_model_persona_count_exits_two(self, tmp_path, capsys):
        # a persona's label is its id mod ModelConfig.persona_count; the
        # key that set another modulus wrote corpora train refused
        bad = tmp_path / "bad.cfg"
        bad.write_text("persona_set = extended\nmodel_persona_count = 12\n")
        capsys.readouterr()
        assert cli.main(["generate", "--config", str(bad), "--out", str(tmp_path / "o")]) == 2
        assert capsys.readouterr().err == (
            "config error: unknown GenConfig field 'model_persona_count'\n")
        assert not (tmp_path / "o").exists()

    def test_negative_seed_exits_two_without_traceback(self, tmp_path, capsys):
        capsys.readouterr()
        assert cli.main(["generate", "--seed", "-1", "--out", str(tmp_path / "o")]) == 2
        assert capsys.readouterr().err == "config error: seed must be >= 0, got -1\n"
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("lines,message", [
        ("n_sessions = 20\nval_fraction = 0.05\n", "split fractions leave too few"),
        ("n_sessions = 20\nclass_balance = 0.0\n", "class balance infeasible"),
    ])
    def test_infeasible_splits_exit_two_without_traceback(self, tmp_path, capsys, lines,
                                                          message):
        cfg = tmp_path / "gen.cfg"
        cfg.write_text(lines)
        capsys.readouterr()
        assert cli.main(["generate", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 2
        err = capsys.readouterr().err
        assert len(err.splitlines()) == 1
        assert message in err and "Traceback" not in err
        assert not (tmp_path / "o").exists()


class TestTrain:
    def test_blas_defaults_to_one_thread_unless_the_caller_sets_it(self, workspace, tmp_path):
        # a fresh interpreter, so psygat's import comes before numpy's
        env = {k: v for k, v in os.environ.items()
               if k not in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")}
        env["OMP_NUM_THREADS"] = "3"
        src = Path(cli.__file__).resolve().parents[1]
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(src), env.get("PYTHONPATH")]))
        config = tmp_path / "train.cfg"
        config.write_text("max_epochs = 1\nseeds = 0\nbatch_size = 8\n")
        out = tmp_path / "run"
        subprocess.run([sys.executable, "-m", "psygat.cli", "train",
                        "--corpus", str(workspace["corpus"]), "--config", str(config),
                        "--out", str(out)], env=env, check=True, capture_output=True)
        run = json.loads((out / "run_manifest.json").read_text())
        assert run["environment"]["blas_threads"] == {
            "OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "3", "MKL_NUM_THREADS": "1"}

    # every TrainConfig field, a non-default value as a config line gives it
    TRAIN_LINES = {
        "lr": ("0.001", 0.001), "weight_decay": ("0.0005", 0.0005), "max_epochs": ("1", 1),
        "early_stop_patience": ("3", 3), "plateau_factor": ("0.25", 0.25),
        "plateau_patience": ("4", 4), "clip_norm": ("2.5", 2.5), "focal_gamma": ("0", 0.0),
        "contrastive_weight": ("0", 0.0),
        "contrastive_temperature": ("0.5", 0.5), "seeds": ("3,4", (3, 4)),
        "batch_size": ("5", 5),
    }

    def test_every_config_field_survives_the_checkpoint(self, workspace, tmp_path):
        from psygat import checkpoints

        assert set(self.TRAIN_LINES) == set(TrainConfig.__dataclass_fields__)
        config = tmp_path / "train.cfg"
        config.write_text("".join(f"{k} = {raw}\n" for k, (raw, _) in self.TRAIN_LINES.items()))
        out = tmp_path / "run"
        assert cli.main(["train", "--corpus", str(workspace["corpus"]), "--config", str(config),
                         "--out", str(out)]) == 0
        for seed in (3, 4):
            loaded = checkpoints.load_checkpoint(out / f"ckpt-seed{seed}").train_config
            for key, (_, value) in self.TRAIN_LINES.items():
                assert getattr(loaded, key) == value and type(getattr(loaded, key)) is type(value)

    def test_manifest_records_the_model_config(self, workspace, tmp_path):
        out = tmp_path / "off"
        assert cli.main(["train", "--corpus", str(workspace["corpus"]),
                         "--config", str(workspace["train_cfg"]), "--persona-mode", "off",
                         "--out", str(out)]) == 0
        run = json.loads((out / "run_manifest.json").read_text())
        assert run["model_config"]["persona"] is False
        assert run["config"] == TrainConfig(max_epochs=2, seeds=(0,)).to_json()
        on = json.loads((workspace["train_dir"] / "run_manifest.json").read_text())
        assert on["model_config"]["persona"] is True
        header = json.loads((out / "ckpt-seed0.json").read_text())
        assert header["model_config"] == run["model_config"]

    def test_checkpoints_and_report_written(self, workspace):
        d = workspace["train_dir"]
        assert (d / "ckpt-seed0.json").exists()
        assert (d / "ckpt-seed0.bin").exists()
        report = json.loads((d / "report.json").read_text())
        assert report["split"] == "val"
        assert 0.0 <= report["ensemble_threshold"] <= 1.0
        assert report["members"][0]["seed"] == 0
        assert "macro_f1" in report["metrics"]

    def test_leaky_corpus_exits_one(self, workspace, tmp_path):
        sessions = read_sessions(workspace["corpus"])
        sessions[0].source = "augmented"
        sessions[0].split = "val"
        from psygat.sessions import write_sessions

        leaky = tmp_path / "leaky.jsonl"
        write_sessions(leaky, sessions)
        assert cli.main(["train", "--corpus", str(leaky),
                         "--config", str(workspace["train_cfg"]),
                         "--out", str(tmp_path / "o")]) == 1

    def test_missing_peu_annotation_exits_one_without_traceback(self, workspace, tmp_path,
                                                               capsys):
        sessions = read_sessions(workspace["corpus"])
        sessions[0].peus = sessions[0].peus[1:]
        from psygat.sessions import write_sessions

        gappy = tmp_path / "gappy.jsonl"
        write_sessions(gappy, sessions)
        capsys.readouterr()
        assert cli.main(["train", "--corpus", str(gappy),
                         "--config", str(workspace["train_cfg"]),
                         "--out", str(tmp_path / "o")]) == 1
        err = capsys.readouterr().err
        assert len(err.strip().splitlines()) == 1
        assert "no PEU annotation" in err and "Traceback" not in err

    def test_annotation_without_utterance_index_exits_one_without_traceback(
            self, workspace, tmp_path, capsys):
        sessions = read_sessions(workspace["corpus"])
        del sessions[0].peus[0]["utt"]
        from psygat.sessions import write_sessions

        bad = tmp_path / "no-utt.jsonl"
        write_sessions(bad, sessions)
        capsys.readouterr()
        assert cli.main(["train", "--corpus", str(bad),
                         "--config", str(workspace["train_cfg"]),
                         "--out", str(tmp_path / "o")]) == 1
        err = capsys.readouterr().err
        assert len(err.strip().splitlines()) == 1
        assert "'utt'" in err and "Traceback" not in err

    @pytest.mark.parametrize("malform,message", [
        (lambda recs: recs[0].update(peus=["self_negativity"]), "not a record"),
        (lambda recs: recs[0].update(peus="self_negativity"), "not a list"),
        (lambda recs: recs.__setitem__(0, "self_negativity"), "not a record"),
        (lambda recs: recs[0].update(utt=0.0), "has utt 0.0, not an int"),
    ], ids=["entry", "entries", "record", "utt-float"])
    def test_malformed_annotation_exits_one_without_traceback(self, workspace, tmp_path, capsys,
                                                              malform, message):
        sessions = read_sessions(workspace["corpus"])
        malform(sessions[0].peus)
        from psygat.sessions import write_sessions

        bad = tmp_path / "malformed.jsonl"
        write_sessions(bad, sessions)
        capsys.readouterr()
        assert cli.main(["train", "--corpus", str(bad),
                         "--config", str(workspace["train_cfg"]),
                         "--out", str(tmp_path / "o")]) == 1
        err = capsys.readouterr().err
        assert len(err.strip().splitlines()) == 1
        assert message in err and f"session {sessions[0].id}" in err and "Traceback" not in err

    @pytest.mark.parametrize("malform", [
        lambda rec: [1, 2],
        lambda rec: {**rec, "utterances": 5},
        lambda rec: {**rec, "causes": ["x"]},
        lambda rec: {**rec, "label": 2},
        lambda rec: {**rec, "peus": 5},
        lambda rec: {**rec, "utterances": [{**rec["utterances"][0], "q": "", "a": 5},
                                           *rec["utterances"][1:]]},
        lambda rec: {**rec, "persona": 2.9},
        lambda rec: {**rec, "persona": True},
        lambda rec: {**rec, "utterances": [{**rec["utterances"][0], "i": 0.6},
                                           *rec["utterances"][1:]]},
        lambda rec: {**rec, "causes": [{"target": 1.7, "category": "self_negativity",
                                        "sources": [0]}]},
        lambda rec: {**rec, "causes": [{"target": 1, "category": "self_negativity",
                                        "sources": [0.2]}]},
        lambda rec: {**rec, "split": []},
        lambda rec: {**rec, "split": {}},
        lambda rec: {**rec, "source": None},
    ], ids=["not-an-object", "utterances", "cause", "label", "peus", "text", "persona",
            "persona-bool", "utterance-index", "cause-target", "cause-source", "split-list",
            "split-object", "source-null"])
    def test_malformed_corpus_line_exits_one_naming_it(self, workspace, tmp_path, capsys,
                                                       malform):
        lines = workspace["corpus"].read_text(encoding="utf-8").splitlines()
        lines[2] = json.dumps(malform(json.loads(lines[2])))
        bad = tmp_path / "malformed.jsonl"
        bad.write_text("\n".join(lines) + "\n", encoding="utf-8")
        capsys.readouterr()
        assert cli.main(["train", "--corpus", str(bad),
                         "--config", str(workspace["train_cfg"]),
                         "--out", str(tmp_path / "o")]) == 1
        err = capsys.readouterr().err
        assert len(err.strip().splitlines()) == 1
        assert f"{bad}:3:" in err and "Traceback" not in err

    @pytest.mark.parametrize("command", ["train", "evaluate", "explain"])
    def test_repeated_session_id_exits_one_naming_it(self, workspace, tmp_path, capsys,
                                                     command):
        # two test sessions under one id would share one text embedding, and a
        # test session under a train id would replace that train session's graph
        from psygat.sessions import write_sessions

        args = {"train": ["--config", str(workspace["train_cfg"])],
                "evaluate": ["--checkpoint", str(workspace["train_dir"] / "ckpt-seed0.json")],
                "explain": ["--checkpoint", str(workspace["train_dir"] / "ckpt-seed0.json")]}
        for first_split in ("test", "train"):
            sessions = read_sessions(workspace["corpus"])
            first = next(s for s in sessions if s.split == first_split)
            second = next(s for s in sessions if s.split == "test" and s is not first)
            second.id = first.id
            corpus = tmp_path / f"repeated-{first_split}.jsonl"
            write_sessions(corpus, sessions)
            capsys.readouterr()
            assert cli.main([command, "--corpus", str(corpus), *args[command],
                             "--out", str(tmp_path / "o")]) == 1, first_split
            err = capsys.readouterr().err
            assert err == f"error: session id {first.id!r} occurs more than once\n"
            assert not (tmp_path / "o").exists()

    def test_zero_batch_size_exits_two_without_traceback(self, workspace, tmp_path, capsys):
        bad = tmp_path / "bad.cfg"
        bad.write_text("max_epochs = 1\nseeds = 0\nbatch_size = 0\n")
        capsys.readouterr()
        assert cli.main(["train", "--corpus", str(workspace["corpus"]), "--config", str(bad),
                         "--out", str(tmp_path / "o")]) == 2
        err = capsys.readouterr().err
        assert len(err.strip().splitlines()) == 1
        assert "batch_size" in err and "Traceback" not in err

    @pytest.mark.parametrize("line", ["clip_norm = nan", "contrastive_weight = nan",
                                      "lr = inf"])
    def test_non_finite_value_exits_two_without_traceback(self, workspace, tmp_path, capsys,
                                                          line):
        bad = tmp_path / "bad.cfg"
        bad.write_text(f"max_epochs = 1\nseeds = 0\n{line}\n")
        capsys.readouterr()
        assert cli.main(["train", "--corpus", str(workspace["corpus"]), "--config", str(bad),
                         "--out", str(tmp_path / "o")]) == 2
        err = capsys.readouterr().err
        assert len(err.strip().splitlines()) == 1
        assert "must be a finite number" in err and "Traceback" not in err
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("args", [["--config", "seeds.cfg"], ["--seed", "-1"]])
    def test_negative_seed_exits_two_without_traceback(self, workspace, tmp_path, capsys, args):
        (tmp_path / "seeds.cfg").write_text("max_epochs = 1\nseeds = 2, -1\n")
        args = [str(tmp_path / a) if a.endswith(".cfg") else a for a in args]
        capsys.readouterr()
        assert cli.main(["train", "--corpus", str(workspace["corpus"]), *args,
                         "--out", str(tmp_path / "o")]) == 2
        err = capsys.readouterr().err
        assert len(err.strip().splitlines()) == 1
        assert "seeds must be all >= 0" in err and "Traceback" not in err
        assert not (tmp_path / "o").exists()

    def test_duplicate_seeds_exit_two_before_training(self, workspace, tmp_path, capsys,
                                                      monkeypatch):
        (tmp_path / "seeds.cfg").write_text("max_epochs = 1\nseeds = 1,1\n")
        monkeypatch.setattr(cli.TR, "train_ensemble", never_called)
        capsys.readouterr()
        assert cli.main(["train", "--corpus", str(workspace["corpus"]),
                         "--config", str(tmp_path / "seeds.cfg"),
                         "--out", str(tmp_path / "o")]) == 2
        assert capsys.readouterr().err == "config error: seeds must be distinct, got (1, 1)\n"
        assert not (tmp_path / "o").exists()

    def test_unparsable_epoch_count_exits_two_without_traceback(self, workspace, tmp_path,
                                                               capsys):
        bad = tmp_path / "bad.cfg"
        bad.write_text("max_epochs = abc\n")
        capsys.readouterr()
        assert cli.main(["train", "--corpus", str(workspace["corpus"]), "--config", str(bad),
                         "--out", str(tmp_path / "o")]) == 2
        err = capsys.readouterr().err
        assert len(err.strip().splitlines()) == 1
        assert "abc" in err and "Traceback" not in err

    @pytest.mark.parametrize("change,message", [
        ("drop_val", "config error: corpus must provide train and val splits"),
        ("one_class_val", "config error: validation split must contain both classes"),
    ])
    def test_unusable_validation_split_exits_two(self, workspace, tmp_path, capsys, change,
                                                 message):
        from psygat.sessions import write_sessions

        sessions = read_sessions(workspace["corpus"])
        if change == "drop_val":
            sessions = [s for s in sessions if s.split != "val"]
        else:
            for s in sessions:
                if s.split == "val":
                    s.label = 1
        corpus = tmp_path / "corpus.jsonl"
        write_sessions(corpus, sessions)
        capsys.readouterr()
        assert cli.main(["train", "--corpus", str(corpus),
                         "--config", str(workspace["train_cfg"]),
                         "--out", str(tmp_path / "o")]) == 2
        assert capsys.readouterr().err == message + "\n"
        assert not (tmp_path / "o").exists()


class TestEvaluate:
    def test_report_written(self, workspace, tmp_path):
        out = tmp_path / "eval"
        code = cli.main(["evaluate",
                         "--checkpoint", str(workspace["train_dir"] / "ckpt-seed0.json"),
                         "--corpus", str(workspace["corpus"]),
                         "--split", "test", "--out", str(out)])
        assert code == 0
        report = json.loads((out / "eval-test.json").read_text())
        assert report["split"] == "test"
        assert set(report["metrics"]["counts"]) == {"tp", "fp", "fn", "tn"}
        # a single checkpoint is scored at its own threshold
        trained = json.loads((workspace["train_dir"] / "report.json").read_text())
        assert report["metrics"]["threshold"] == trained["members"][0]["threshold"]

    def test_threshold_override(self, workspace, tmp_path):
        out = tmp_path / "eval2"
        cli.main(["evaluate",
                  "--checkpoint", str(workspace["train_dir"] / "ckpt-seed0.json"),
                  "--corpus", str(workspace["corpus"]),
                  "--split", "val", "--threshold", "0.25", "--out", str(out)])
        report = json.loads((out / "eval-val.json").read_text())
        assert report["metrics"]["threshold"] == 0.25

    @pytest.mark.parametrize("value", ["nan", "inf", "-0.1", "7"])
    def test_threshold_outside_unit_interval_exits_two_before_reading_a_file(
            self, tmp_path, capsys, value):
        # neither the checkpoint nor the corpus exists: the threshold is refused first
        capsys.readouterr()
        code = cli.main(["evaluate", "--checkpoint", str(tmp_path / "none.json"),
                         "--corpus", str(tmp_path / "none.jsonl"), "--threshold", value,
                         "--out", str(tmp_path / "o")])
        assert code == 2
        assert capsys.readouterr().err == (
            f"config error: --threshold must be in [0, 1], got {float(value)}\n")
        assert not (tmp_path / "o").exists()

    def test_empty_split_exits_one(self, workspace, tmp_path, capsys):
        from psygat.sessions import write_sessions

        corpus = tmp_path / "no-test.jsonl"
        write_sessions(corpus, [s for s in read_sessions(workspace["corpus"])
                                if s.split != "test"])
        capsys.readouterr()
        code = cli.main(["evaluate",
                         "--checkpoint", str(workspace["train_dir"] / "ckpt-seed0.json"),
                         "--corpus", str(corpus), "--split", "test",
                         "--out", str(tmp_path / "o")])
        assert code == 1
        assert capsys.readouterr().err == "error: corpus has no sessions in split 'test'\n"
        assert not (tmp_path / "o").exists()

    def test_missing_checkpoint_exits_one_without_traceback(self, workspace, tmp_path, capsys):
        capsys.readouterr()
        code = cli.main(["evaluate", "--checkpoint", str(tmp_path / "nope.json"),
                         "--corpus", str(workspace["corpus"]), "--out", str(tmp_path / "o")])
        assert code == 1
        err = capsys.readouterr().err
        assert len(err.strip().splitlines()) == 1
        assert "nope.json" in err and "Traceback" not in err

    def test_checkpoint_header_without_threshold_exits_one(self, workspace, tmp_path, capsys):
        for suffix in (".json", ".bin"):
            shutil.copy(workspace["train_dir"] / f"ckpt-seed0{suffix}", tmp_path / f"c{suffix}")
        header = json.loads((tmp_path / "c.json").read_text())
        del header["threshold"]
        (tmp_path / "c.json").write_text(json.dumps(header))
        capsys.readouterr()
        code = cli.main(["evaluate", "--checkpoint", str(tmp_path / "c.json"),
                         "--corpus", str(workspace["corpus"]), "--out", str(tmp_path / "o")])
        assert code == 1
        err = capsys.readouterr().err
        assert len(err.strip().splitlines()) == 1
        assert "header has no threshold" in err and "Traceback" not in err

    @pytest.mark.parametrize("value", ["abc", float("nan"), 7.5, -0.1, True])
    def test_checkpoint_header_with_a_bad_threshold_exits_one(self, workspace, tmp_path, capsys,
                                                              value):
        for suffix in (".json", ".bin"):
            shutil.copy(workspace["train_dir"] / f"ckpt-seed0{suffix}", tmp_path / f"c{suffix}")
        header = json.loads((tmp_path / "c.json").read_text())
        header["threshold"] = value
        (tmp_path / "c.json").write_text(json.dumps(header))
        capsys.readouterr()
        code = cli.main(["evaluate", "--checkpoint", str(tmp_path / "c.json"),
                         "--corpus", str(workspace["corpus"]), "--out", str(tmp_path / "o")])
        assert code == 1
        assert capsys.readouterr().err == (
            f"error: {tmp_path / 'c'}: threshold {value!r} is not a finite number in [0, 1]\n")
        assert not (tmp_path / "o").exists()

    def test_checkpoint_header_with_an_unknown_model_config_key_exits_one(
            self, workspace, tmp_path, capsys):
        for suffix in (".json", ".bin"):
            shutil.copy(workspace["train_dir"] / f"ckpt-seed0{suffix}", tmp_path / f"c{suffix}")
        header = json.loads((tmp_path / "c.json").read_text())
        header["model_config"]["depth"] = 2
        (tmp_path / "c.json").write_text(json.dumps(header))
        capsys.readouterr()
        code = cli.main(["evaluate", "--checkpoint", str(tmp_path / "c.json"),
                         "--corpus", str(workspace["corpus"]), "--out", str(tmp_path / "o")])
        assert code == 1
        assert capsys.readouterr().err == (
            f"error: {tmp_path / 'c'}: invalid model_config: unknown ModelConfig field 'depth'\n")

    def test_checkpoint_header_missing_a_train_config_key_exits_one(
            self, workspace, tmp_path, capsys):
        # read as it was written, not with today's default for the key
        for suffix in (".json", ".bin"):
            shutil.copy(workspace["train_dir"] / f"ckpt-seed0{suffix}", tmp_path / f"c{suffix}")
        header = json.loads((tmp_path / "c.json").read_text())
        del header["train_config"]["lr"]
        (tmp_path / "c.json").write_text(json.dumps(header))
        capsys.readouterr()
        code = cli.main(["evaluate", "--checkpoint", str(tmp_path / "c.json"),
                         "--corpus", str(workspace["corpus"]), "--out", str(tmp_path / "o")])
        assert code == 1
        assert capsys.readouterr().err == (
            f"error: {tmp_path / 'c'}: invalid train_config: missing TrainConfig field 'lr'\n")
        assert not (tmp_path / "o").exists()

    def test_checkpoint_index_with_a_negative_shape_exits_one(self, workspace, tmp_path, capsys):
        for suffix in (".json", ".bin"):
            shutil.copy(workspace["train_dir"] / f"ckpt-seed0{suffix}", tmp_path / f"c{suffix}")
        header = json.loads((tmp_path / "c.json").read_text())
        entry = header["params"][0]
        entry["shape"] = [-1, -entry["size"]]
        (tmp_path / "c.json").write_text(json.dumps(header))
        capsys.readouterr()
        code = cli.main(["evaluate", "--checkpoint", str(tmp_path / "c.json"),
                         "--corpus", str(workspace["corpus"]), "--out", str(tmp_path / "o")])
        assert code == 1
        err = capsys.readouterr().err
        assert len(err.strip().splitlines()) == 1
        assert f"index entry {entry['name']} has shape" in err and "Traceback" not in err

    def test_checkpoint_index_naming_a_tensor_twice_exits_one(self, workspace, tmp_path,
                                                              capsys):
        for suffix in (".json", ".bin"):
            shutil.copy(workspace["train_dir"] / f"ckpt-seed0{suffix}", tmp_path / f"c{suffix}")
        header = json.loads((tmp_path / "c.json").read_text())
        first = header["params"][0]
        offset = sum(entry["size"] for entry in header["params"])
        header["params"].append(dict(first, offset=offset))
        (tmp_path / "c.json").write_text(json.dumps(header))
        with (tmp_path / "c.bin").open("ab") as f:
            f.write(np.ones(first["size"], dtype="<f4").tobytes())
        capsys.readouterr()
        code = cli.main(["evaluate", "--checkpoint", str(tmp_path / "c.json"),
                         "--corpus", str(workspace["corpus"]), "--out", str(tmp_path / "o")])
        assert code == 1
        assert capsys.readouterr().err == (
            f"error: {tmp_path / 'c'}: index entry {first['name']} occurs twice\n")
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("shape", [[2**32, 2**32], [0, 2**62, 4]],
                             ids=["wraps-to-zero", "too-big-for-numpy"])
    def test_checkpoint_index_with_an_overflowing_shape_exits_one(self, workspace, tmp_path,
                                                                 capsys, shape):
        # a zero-size entry at the end leaves every other entry and the blob as they were
        for suffix in (".json", ".bin"):
            shutil.copy(workspace["train_dir"] / f"ckpt-seed0{suffix}", tmp_path / f"c{suffix}")
        header = json.loads((tmp_path / "c.json").read_text())
        offset = sum(entry["size"] for entry in header["params"])
        header["params"].append({"name": "huge", "shape": shape, "offset": offset, "size": 0})
        (tmp_path / "c.json").write_text(json.dumps(header))
        capsys.readouterr()
        code = cli.main(["evaluate", "--checkpoint", str(tmp_path / "c.json"),
                         "--corpus", str(workspace["corpus"]), "--out", str(tmp_path / "o")])
        assert code == 1
        err = capsys.readouterr().err
        assert len(err.strip().splitlines()) == 1
        assert "index entry huge" in err and "Traceback" not in err
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("key,value,message", [
        ("hidden", 128.0, "hidden must be an integer"),
        ("text_dim", "384", "text_dim must be an integer"),
        ("heads", 0, "heads must be >= 1"),
        ("hidden", -2, "hidden must be >= 1"),
        # a 2-layer blob under a 1-layer config: its second layer is not ignored
        ("num_layers", 1, "unexpected parameter gat1_"),
    ])
    def test_checkpoint_model_config_it_cannot_build_exits_one(self, workspace, tmp_path,
                                                               capsys, key, value, message):
        for suffix in (".json", ".bin"):
            shutil.copy(workspace["train_dir"] / f"ckpt-seed0{suffix}", tmp_path / f"c{suffix}")
        header = json.loads((tmp_path / "c.json").read_text())
        header["model_config"][key] = value
        (tmp_path / "c.json").write_text(json.dumps(header))
        capsys.readouterr()
        code = cli.main(["evaluate", "--checkpoint", str(tmp_path / "c.json"),
                         "--corpus", str(workspace["corpus"]), "--out", str(tmp_path / "o")])
        assert code == 1
        err = capsys.readouterr().err
        assert len(err.strip().splitlines()) == 1
        assert message in err and "Traceback" not in err

    def test_missing_corpus_exits_one_without_traceback(self, workspace, tmp_path, capsys):
        capsys.readouterr()
        code = cli.main(["evaluate",
                         "--checkpoint", str(workspace["train_dir"] / "ckpt-seed0.json"),
                         "--corpus", str(tmp_path / "absent.jsonl"), "--out", str(tmp_path / "o")])
        assert code == 1
        err = capsys.readouterr().err
        assert len(err.strip().splitlines()) == 1
        assert "absent.jsonl" in err and "Traceback" not in err

    @pytest.fixture(scope="class")
    def pair_dir(self, workspace):
        """A two-member ensemble trained on the workspace corpus."""
        cfg = workspace["root"] / "pair.cfg"
        cfg.write_text("max_epochs = 1\nseeds = 0,1\nbatch_size = 8\n")
        out = workspace["root"] / "pair"
        assert cli.main(["train", "--corpus", str(workspace["corpus"]), "--config", str(cfg),
                         "--out", str(out)]) == 0
        return out

    def _evaluate_pair(self, folder, corpus, out, *extra):
        return cli.main(["evaluate", "--checkpoint", str(folder / "ckpt-seed0.json"),
                         str(folder / "ckpt-seed1.json"), "--corpus", str(corpus),
                         "--split", "val", "--out", str(out), *extra])

    def test_ensemble_uses_the_threshold_train_selected(self, workspace, pair_dir, tmp_path):
        assert self._evaluate_pair(pair_dir, workspace["corpus"], tmp_path) == 0
        report = json.loads((pair_dir / "report.json").read_text())
        evaluated = json.loads((tmp_path / "eval-val.json").read_text())
        assert evaluated["metrics"]["threshold"] == report["ensemble_threshold"]
        assert evaluated["metrics"] == report["metrics"]

    @pytest.mark.parametrize("report", ["missing", "other seeds"])
    def test_ensemble_without_its_report_exits_two(self, workspace, pair_dir, tmp_path,
                                                   capsys, report):
        folder = tmp_path / "members"
        folder.mkdir()
        for name in ("ckpt-seed0.json", "ckpt-seed0.bin", "ckpt-seed1.json", "ckpt-seed1.bin"):
            shutil.copy(pair_dir / name, folder / name)
        if report == "other seeds":
            shutil.copy(workspace["train_dir"] / "report.json", folder / "report.json")
        capsys.readouterr()
        assert self._evaluate_pair(folder, workspace["corpus"], tmp_path / "o") == 2
        err = capsys.readouterr().err
        assert len(err.strip().splitlines()) == 1
        assert "--threshold" in err and "Traceback" not in err
        assert self._evaluate_pair(folder, workspace["corpus"], tmp_path / "o",
                                   "--threshold", "0.3") == 0
        evaluated = json.loads((tmp_path / "o" / "eval-val.json").read_text())
        assert evaluated["metrics"]["threshold"] == 0.3

    @pytest.mark.parametrize("value", [float("nan"), 7.5, -0.1, True])
    def test_report_threshold_outside_the_unit_interval_exits_one(self, workspace, pair_dir,
                                                                  tmp_path, capsys, value):
        folder = tmp_path / "members"
        folder.mkdir()
        for name in ("ckpt-seed0.json", "ckpt-seed0.bin", "ckpt-seed1.json", "ckpt-seed1.bin"):
            shutil.copy(pair_dir / name, folder / name)
        report = json.loads((pair_dir / "report.json").read_text())
        report["ensemble_threshold"] = value
        (folder / "report.json").write_text(json.dumps(report))
        capsys.readouterr()
        assert self._evaluate_pair(folder, workspace["corpus"], tmp_path / "o") == 1
        assert capsys.readouterr().err == (
            f"error: {folder / 'report.json'}: ensemble_threshold {value!r} "
            "is not a finite number in [0, 1]\n")
        assert not (tmp_path / "o").exists()

    def test_ensemble_scores_match_per_graph_ensemble_predict(self, workspace):
        from psygat import checkpoints, train
        from psygat.pipeline import graphs_from_sessions

        member = checkpoints.load_checkpoint(workspace["train_dir"] / "ckpt-seed0")
        graphs = graphs_from_sessions(read_sessions(workspace["corpus"]))
        batched = train.ensemble_probs([member, member], graphs)
        single = [train.ensemble_predict([member, member], g) for g in graphs]
        np.testing.assert_allclose(batched, single, atol=1e-6)

    def test_mixed_persona_modes_exit_two(self, workspace, tmp_path, capsys):
        from dataclasses import replace

        from psygat import checkpoints

        on = workspace["train_dir"] / "ckpt-seed0"
        member = checkpoints.load_checkpoint(on)
        member.params.config = replace(member.params.config, persona=False)
        off = tmp_path / "ckpt-off"
        checkpoints.save_checkpoint(off, member)
        capsys.readouterr()
        code = cli.main(["evaluate", "--checkpoint", f"{on}.json", f"{off}.json",
                         "--corpus", str(workspace["corpus"]), "--threshold", "0.5",
                         "--out", str(tmp_path / "o")])
        assert code == 2
        err = capsys.readouterr().err
        assert len(err.strip().splitlines()) == 1
        assert "mismatched architectures" in err and "Traceback" not in err

    @pytest.mark.parametrize("version", ["missing", 1, 2, 4])
    def test_checkpoint_of_another_format_version_exits_one(self, workspace, tmp_path, capsys,
                                                             version):
        # a header written before the version, persona use then in
        # train_config, is refused rather than scored as a persona-on model;
        # so is a version-1 header, which indexed each attention head alone,
        # and a version-2 one, whose train_config carries focal_alpha
        for suffix in (".json", ".bin"):
            shutil.copy(workspace["train_dir"] / f"ckpt-seed0{suffix}", tmp_path / f"c{suffix}")
        header = json.loads((tmp_path / "c.json").read_text())
        if version == "missing":
            del header["format_version"]
            header["train_config"]["persona_mode"] = "off"
        else:
            header["format_version"] = version
        (tmp_path / "c.json").write_text(json.dumps(header))
        capsys.readouterr()
        code = cli.main(["evaluate", "--checkpoint", str(tmp_path / "c.json"),
                         "--corpus", str(workspace["corpus"]), "--out", str(tmp_path / "o")])
        assert code == 1
        err = capsys.readouterr().err
        assert len(err.strip().splitlines()) == 1
        assert "format version" in err and "expected 3" in err and "Traceback" not in err


class TestExplain:
    def test_artifacts_and_frozen_checkpoint(self, workspace, tmp_path):
        out = tmp_path / "explain"
        from psygat.checkpoints import checkpoint_hash

        prefix = workspace["train_dir"] / "ckpt-seed0"
        before = checkpoint_hash(prefix)
        code = cli.main(["explain",
                         "--checkpoint", str(prefix) + ".json",
                         "--corpus", str(workspace["corpus"]),
                         "--window", "3", "--out", str(out)])
        assert code == 0
        assert checkpoint_hash(prefix) == before
        report = json.loads((out / "ranking_report.json").read_text())
        assert 0.0 <= report["mrr"] <= 1.0
        assert report["instances"] > 0
        lines = (out / "explanations.jsonl").read_text().splitlines()
        rec = json.loads(lines[0])
        assert {"session", "target", "category", "ranked"} <= set(rec)
        assert sorted(p.name for p in out.iterdir()) == [
            "explanations.jsonl", "ranking_report.json", "run_manifest.json"]

    def test_encodes_and_annotates_only_the_sessions_it_reads(self, workspace, tmp_path,
                                                              monkeypatch):
        from psygat.sessions import split_sessions

        from psygat import peu, pipeline

        # the whole command parses each read session's PEU annotations once,
        # for its graph, and the scorer reads the rows that graph holds
        encoded, annotated = [], []
        reps, peus = cli.C.session_node_reps, peu.build_peu_tensor
        monkeypatch.setattr(cli.C, "session_node_reps",
                            lambda g, params: encoded.append(g.session_id) or reps(g, params))
        for owner in (peu, pipeline):
            monkeypatch.setattr(owner, "build_peu_tensor",
                                lambda s: annotated.append(s.id) or peus(s))
        code = cli.main(["explain",
                         "--checkpoint", str(workspace["train_dir"] / "ckpt-seed0.json"),
                         "--corpus", str(workspace["corpus"]), "--out", str(tmp_path / "o")])
        assert code == 0
        splits = split_sessions(read_sessions(workspace["corpus"]))
        assert splits["val"] and splits["test"]
        read = [s.id for s in splits["train"] + splits["test"]]
        assert encoded == read
        assert annotated == read

    def test_checkpoint_rewritten_during_explain_is_a_bug(self, workspace, tmp_path,
                                                          monkeypatch):
        for suffix in (".json", ".bin"):
            shutil.copy(workspace["train_dir"] / f"ckpt-seed0{suffix}", tmp_path / f"c{suffix}")
        blob = tmp_path / "c.bin"
        explain = cli.C.explain

        def rewriting_explain(*args, **kwargs):
            result = explain(*args, **kwargs)
            data = bytearray(blob.read_bytes())
            data[0] ^= 1
            blob.write_bytes(bytes(data))
            return result

        monkeypatch.setattr(cli.C, "explain", rewriting_explain)
        with pytest.raises(RuntimeError, match="session checkpoint changed during explain"):
            cli.main(["explain", "--checkpoint", str(tmp_path / "c.json"),
                      "--corpus", str(workspace["corpus"]), "--out", str(tmp_path / "o")])
        assert not (tmp_path / "o").exists()  # no output that looks like a finished run

    def test_corpus_without_causes_exits_one(self, workspace, tmp_path):
        sessions = read_sessions(workspace["corpus"])
        for s in sessions:
            s.causes = []
        from psygat.sessions import write_sessions

        bare = tmp_path / "bare.jsonl"
        write_sessions(bare, sessions)
        code = cli.main(["explain",
                         "--checkpoint", str(workspace["train_dir"] / "ckpt-seed0.json"),
                         "--corpus", str(bare), "--out", str(tmp_path / "o")])
        assert code == 1

    def test_manifest_names_the_session_checkpoint_by_path_and_content(self, workspace,
                                                                       tmp_path, monkeypatch):
        from psygat.checkpoints import checkpoint_hash

        prefix = workspace["train_dir"] / "ckpt-seed0"
        runs = []
        for cwd, given in ((workspace["root"], prefix.relative_to(workspace["root"])),
                           (tmp_path, prefix)):
            monkeypatch.chdir(cwd)
            out = tmp_path / f"x{len(runs)}"
            assert cli.main(["explain", "--checkpoint", str(given),
                             "--corpus", str(workspace["corpus"]), "--out", str(out)]) == 0
            run = json.loads((out / "run_manifest.json").read_text())
            assert run["session_checkpoint"] == str(given)
            runs.append(run)
        assert runs[0]["session_checkpoint"] != runs[1]["session_checkpoint"]
        assert ({run["session_checkpoint_sha256"] for run in runs}
                == {checkpoint_hash(prefix)})

    @pytest.mark.parametrize("window", ["0", "-1"])
    def test_window_below_one_exits_two(self, workspace, tmp_path, capsys, window):
        capsys.readouterr()
        code = cli.main(["explain",
                         "--checkpoint", str(workspace["train_dir"] / "ckpt-seed0.json"),
                         "--corpus", str(workspace["corpus"]), "--window", window,
                         "--out", str(tmp_path / "o")])
        assert code == 2
        assert capsys.readouterr().err == f"config error: window must be >= 1, got {window}\n"

    def test_outsized_window_exits_one_out_of_memory(self, workspace, tmp_path, capsys):
        # the scorer's first weight matrix alone would take about 466 TiB,
        # beyond the address space, so numpy refuses it without allocating
        capsys.readouterr()
        code = cli.main(["explain",
                         "--checkpoint", str(workspace["train_dir"] / "ckpt-seed0.json"),
                         "--corpus", str(workspace["corpus"]), "--window", "1000000000000",
                         "--out", str(tmp_path / "o")])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error: out of memory: ") and len(err.splitlines()) == 1
        assert not (tmp_path / "o").exists()

    def test_window_below_one_exits_two_before_reading_a_file(self, tmp_path, capsys):
        # neither the checkpoint nor the corpus exists: the window is refused first
        capsys.readouterr()
        code = cli.main(["explain", "--checkpoint", str(tmp_path / "none.json"),
                         "--corpus", str(tmp_path / "none.jsonl"), "--window", "0",
                         "--out", str(tmp_path / "o")])
        assert code == 2
        assert capsys.readouterr().err == "config error: window must be >= 1, got 0\n"
        assert not (tmp_path / "o").exists()

    def test_negative_seed_exits_two_before_reading_a_file(self, tmp_path, capsys):
        # neither the checkpoint nor the corpus exists: the seed is refused first
        capsys.readouterr()
        code = cli.main(["explain", "--checkpoint", str(tmp_path / "none.json"),
                         "--corpus", str(tmp_path / "none.jsonl"), "--seed", "-3",
                         "--out", str(tmp_path / "o")])
        assert code == 2
        assert capsys.readouterr().err == "config error: --seed must be >= 0, got -3\n"
        assert not (tmp_path / "o").exists()

    def test_second_checkpoint_exits_two(self, workspace, tmp_path):
        ck = str(workspace["train_dir"] / "ckpt-seed0.json")
        with pytest.raises(SystemExit) as exc:
            cli.main(["explain", "--checkpoint", ck, ck,
                      "--corpus", str(workspace["corpus"]), "--out", str(tmp_path / "o")])
        assert exc.value.code == 2


@pytest.mark.parametrize("command,built", [
    ("train", [["train"], ["val"]]), ("evaluate", [["val"]]), ("explain", [["train", "test"]])])
def test_each_command_builds_only_the_graphs_it_reads(workspace, tmp_path, monkeypatch, command,
                                                      built):
    from psygat.sessions import split_sessions

    splits = split_sessions(read_sessions(workspace["corpus"]))
    assert all(splits.values())
    calls = []
    graphs_from = cli.graphs_from_sessions
    for owner in (cli, cli.C):
        monkeypatch.setattr(owner, "graphs_from_sessions",
                            lambda ss: calls.append([s.id for s in ss]) or graphs_from(ss))
    checkpoint = ["--checkpoint", str(workspace["train_dir"] / "ckpt-seed0.json")]
    args = {"train": ["--config", str(workspace["train_cfg"])],
            "evaluate": [*checkpoint, "--split", "val"],
            "explain": checkpoint}
    assert cli.main([command, "--corpus", str(workspace["corpus"]), *args[command],
                     "--out", str(tmp_path / "o")]) == 0
    assert calls == [[s.id for name in names for s in splits[name]] for names in built]


@pytest.mark.parametrize("command", ["generate", "train", "evaluate", "explain"])
def test_manifest_outputs_are_exactly_the_files_written(workspace, tmp_path, command):
    checkpoint = ["--checkpoint", str(workspace["train_dir"] / "ckpt-seed0.json")]
    corpus = ["--corpus", str(workspace["corpus"])]
    args = {"generate": ["--config", str(workspace["gen_cfg"])],
            "train": [*corpus, "--config", str(workspace["train_cfg"])],
            "evaluate": [*corpus, *checkpoint],
            "explain": [*corpus, *checkpoint]}
    out = tmp_path / "o"
    assert cli.main([command, *args[command], "--out", str(out)]) == 0
    run = json.loads((out / "run_manifest.json").read_text())
    assert run["outputs"] == sorted(str(p) for p in out.iterdir()
                                    if p.name != "run_manifest.json")


@pytest.mark.parametrize("persona", [2**63, 2**70])
@pytest.mark.parametrize("command", ["train", "evaluate", "explain"])
def test_persona_past_int64_exits_one_naming_the_session(workspace, tmp_path, capsys, command,
                                                         persona):
    # on a test session, which train reads but builds no graph for
    lines = workspace["corpus"].read_text(encoding="utf-8").splitlines()
    k, rec = next((k, rec) for k, rec in enumerate(map(json.loads, lines))
                  if rec["split"] == "test")
    lines[k] = json.dumps({**rec, "persona": persona})
    bad = tmp_path / "outsized.jsonl"
    bad.write_text("\n".join(lines) + "\n", encoding="utf-8")
    checkpoint = ["--checkpoint", str(workspace["train_dir"] / "ckpt-seed0.json")]
    args = {"train": ["--config", str(workspace["train_cfg"])],
            "evaluate": checkpoint, "explain": checkpoint}
    capsys.readouterr()
    assert cli.main([command, "--corpus", str(bad), *args[command],
                     "--out", str(tmp_path / "o")]) == 1
    err = capsys.readouterr().err
    assert len(err.strip().splitlines()) == 1
    assert f"session {rec['id']}: persona {persona} does not fit in int64" in err
    assert "Traceback" not in err and not (tmp_path / "o").exists()


def never_called(*args, **kwargs):
    raise AssertionError("ran before the arguments were checked")


@pytest.mark.parametrize("command,owner,work", [
    ("generate", "D", "generate_corpus"), ("train", "TR", "train_ensemble"),
    ("evaluate", "ckpt", "load_checkpoint"), ("explain", "ckpt", "checkpoint_hash")])
@pytest.mark.parametrize("under", [False, True], ids=["a file", "under a file"])
def test_out_that_cannot_become_a_directory_exits_one_before_any_work(
        workspace, tmp_path, capsys, monkeypatch, command, owner, work, under):
    blocker = tmp_path / "taken"
    blocker.write_text("kept\n")
    out = blocker / "run" if under else blocker
    inputs = {"generate": [],
              "train": ["--corpus", str(workspace["corpus"]),
                        "--config", str(workspace["train_cfg"])],
              "evaluate": ["--checkpoint", str(workspace["train_dir"] / "ckpt-seed0.json"),
                           "--corpus", str(workspace["corpus"])],
              "explain": ["--checkpoint", str(workspace["train_dir"] / "ckpt-seed0.json"),
                          "--corpus", str(workspace["corpus"])]}
    monkeypatch.setattr(getattr(cli, owner), work, never_called)
    capsys.readouterr()
    assert cli.main([command, *inputs[command], "--out", str(out)]) == 1
    assert capsys.readouterr().err == (
        f"error: --out {out}: {blocker} exists and is not a directory\n")
    assert [p.name for p in tmp_path.iterdir()] == ["taken"]
    assert blocker.read_text() == "kept\n"


def test_same_seed_artifacts_match_pinned_digest(tmp_path):
    """generate -> train -> evaluate -> explain at fixed seeds, pinned to
    the bytes of every output but the run manifests, which record
    wall-clock time and paths."""
    config = tmp_path / "train.cfg"
    config.write_text("max_epochs = 2\nseeds = 0,1\n")
    corpus = str(tmp_path / "corpus" / "sessions.jsonl")
    members = [str(tmp_path / "train" / f"ckpt-seed{s}.json") for s in (0, 1)]
    for argv in (["generate", "--seed", "0", "--out", "corpus"],
                 ["train", "--corpus", corpus, "--config", str(config), "--out", "train"],
                 ["evaluate", "--checkpoint", *members, "--corpus", corpus, "--out", "eval"],
                 ["explain", "--checkpoint", members[0], "--corpus", corpus, "--window", "3",
                  "--out", "explain"]):
        argv[-1] = str(tmp_path / argv[-1])
        assert cli.main(argv) == 0
    h = hashlib.sha256()
    outputs = sorted(p for p in tmp_path.glob("*/*") if p.name != "run_manifest.json")
    assert [p.relative_to(tmp_path).as_posix() for p in outputs] == [
        "corpus/corpus_manifest.json", "corpus/sessions.jsonl", "eval/eval-test.json",
        "explain/explanations.jsonl", "explain/ranking_report.json", "train/ckpt-seed0.bin",
        "train/ckpt-seed0.json", "train/ckpt-seed1.bin", "train/ckpt-seed1.json",
        "train/report.json"]
    for p in outputs:
        h.update(p.relative_to(tmp_path).as_posix().encode())
        h.update(p.read_bytes())
    assert h.hexdigest() == "7e91335be0d2fea5b7564b857254a093cdb3dac0009ccf9329d1ee23cc778581"


class TestGradcheck:
    def test_passes_with_small_trial_budget(self, capsys):
        assert cli.main(["gradcheck", "--trials", "2"]) == 0
        out = capsys.readouterr().out
        assert "PASS" in out and "FAIL" not in out
        assert "full_model_forward" in out
        assert "batched_model_forward" in out

    @pytest.mark.parametrize("trials", ["0", "-3"])
    def test_fewer_than_one_trial_exits_two(self, capsys, trials):
        capsys.readouterr()
        assert cli.main(["gradcheck", "--trials", trials]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"config error: --trials must be >= 1, got {trials}\n"

    def test_negative_seed_exits_two(self, capsys):
        capsys.readouterr()
        assert cli.main(["gradcheck", "--trials", "1", "--seed", "-1"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "config error: --seed must be >= 0, got -1\n"

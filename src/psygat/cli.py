"""Command-line surface: generate / train / evaluate / explain / gradcheck.

Config files are plain ``key = value`` text (# comments allowed). No
setting is read from environment variables; run manifests only record the
BLAS thread-count variables.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import platform
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

from . import BLAS_THREAD_VARS
from . import causal as C
from . import checkpoints as ckpt
from . import datagen as D
from . import train as TR
from . import verify
from .errors import ConfigError, CorpusError, DataError, PsygatError
from .metrics import HIT_KS, classification_report
from .model import ModelConfig
from .pipeline import graphs_from_sessions
from .sessions import read_sessions, split_sessions, write_jsonl, write_sessions

EXIT_DATA = 1
EXIT_CONFIG = 2


def load_config(path, cls):
    return cls.from_text(Path(path).read_text(encoding="utf-8"))


def _git_describe():
    try:
        out = subprocess.run(
            ["git", "describe", "--always", "--dirty"], cwd=Path(__file__).parent,
            capture_output=True, text=True, timeout=5, check=False,
        )
        return out.stdout.strip() or "unknown"
    except OSError:
        return "unknown"


def write_manifest(out_dir, command, seeds, outputs, started, **configs):
    """run_manifest.json: one command's resolved configs (each a top-level
    entry), seeds, outputs and the environment its timings depend on."""
    manifest = {
        "command": command,
        **configs,
        "seeds": list(seeds),
        "git": _git_describe(),
        "wall_clock_s": round(time.time() - started, 3),
        "outputs": sorted(str(p) for p in outputs),
        # what run-to-run timings depend on
        "environment": {
            "python": platform.python_version(),
            "numpy": np.__version__,
            "cpu_count": os.cpu_count(),
            "blas_threads": {name: os.environ.get(name) for name in BLAS_THREAD_VARS},
        },
    }
    path = Path(out_dir) / "run_manifest.json"
    _write_json(path, manifest)
    return path


def _write_json(path, obj):
    path = Path(path)
    tmp = path.with_suffix(".tmp")
    tmp.write_text(json.dumps(obj, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    tmp.replace(path)


def _check_out(out):
    """Refuse an --out that cannot become a directory: it, or its nearest
    existing ancestor, exists and is not one. Creates nothing."""
    path = Path(out).absolute()
    while not os.path.lexists(path):
        path = path.parent
    if not path.is_dir():
        raise NotADirectoryError(f"--out {out}: {path} exists and is not a directory")


def cmd_generate(args):
    started = time.time()
    config = load_config(args.config, D.GenConfig) if args.config else D.GenConfig()
    if args.seed is not None:
        config = dataclasses.replace(config, seed=args.seed)
    splits = D.generate_corpus(config)
    sessions = splits["train"] + splits["val"] + splits["test"]
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    corpus_path = out_dir / "sessions.jsonl"
    write_sessions(corpus_path, sessions)
    manifest_path = out_dir / "corpus_manifest.json"
    _write_json(manifest_path, D.corpus_manifest(config, splits))
    write_manifest(out_dir, "generate", [config.seed], [corpus_path, manifest_path], started,
                   config=config.to_json())
    print(f"wrote {len(sessions)} sessions to {corpus_path}")
    return 0


def cmd_train(args):
    started = time.time()
    config = load_config(args.config, TR.TrainConfig) if args.config else TR.TrainConfig()
    if args.seed is not None:
        config = dataclasses.replace(config, seeds=(args.seed,))
    model_config = ModelConfig(persona=args.persona_mode == "on")
    splits = split_sessions(read_sessions(args.corpus))
    if not splits["train"] or not splits["val"]:
        raise ConfigError("corpus must provide train and val splits")
    train_graphs, val_graphs = (graphs_from_sessions(splits[name]) for name in ("train", "val"))
    members, threshold = TR.train_ensemble(train_graphs, val_graphs, config, model_config)
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    outputs = []
    for member in members:
        prefix = out_dir / f"ckpt-seed{member.seed}"
        ckpt.save_checkpoint(prefix, member)
        outputs += [prefix.with_suffix(".json"), prefix.with_suffix(".bin")]
    val_probs = TR.ensemble_probs(members, val_graphs)
    val_labels = np.array([g.label for g in val_graphs])
    report = {
        "split": "val",
        "ensemble_threshold": threshold,
        "members": [
            {"seed": m.seed, "best_val_pr_auc": m.best_val_pr_auc,
             "threshold": m.threshold, "epoch": m.epoch}
            for m in members
        ],
        "metrics": classification_report(val_probs, val_labels, threshold).to_json(),
    }
    report_path = out_dir / "report.json"
    _write_json(report_path, report)
    outputs.append(report_path)
    write_manifest(out_dir, "train", config.seeds, outputs, started,
                   config=config.to_json(), model_config=model_config.to_json())
    print(f"trained {len(members)} members; val macro-F1 "
          f"{report['metrics']['macro_f1']:.4f} at threshold {threshold:.4f}")
    return 0


def _ensemble_threshold(paths, members):
    """The ensemble threshold train selected for these members, from the
    report.json it wrote beside their checkpoints."""
    seeds = sorted(m.seed for m in members)
    folders = {Path(p).parent for p in paths}
    if len(folders) == 1:
        report_path = folders.pop() / "report.json"
        try:
            report = json.loads(report_path.read_text(encoding="utf-8"))
            listed = sorted(m["seed"] for m in report["members"]) == seeds
            threshold = report["ensemble_threshold"]
        except (OSError, ValueError, KeyError, TypeError):
            listed = False
        if listed:
            if not TR.is_threshold(threshold):
                raise DataError(f"{report_path}: ensemble_threshold {threshold!r} "
                                "is not a finite number in [0, 1]")
            return float(threshold)
    raise ConfigError(f"no train report.json beside the checkpoints lists exactly seeds {seeds}; "
                      "pass --threshold for this ensemble")


def cmd_evaluate(args):
    started = time.time()
    # before any file is read; NaN would also write invalid JSON reports
    if args.threshold is not None and not TR.is_threshold(args.threshold):
        raise ConfigError(f"--threshold must be in [0, 1], got {args.threshold}")
    members = [ckpt.load_checkpoint(Path(p).with_suffix("")) for p in args.checkpoint]
    if args.threshold is not None:
        threshold = args.threshold
    elif len(members) == 1:
        threshold = members[0].threshold
    else:
        threshold = _ensemble_threshold(args.checkpoint, members)
    split = split_sessions(read_sessions(args.corpus))[args.split]
    if not split:
        raise CorpusError(f"corpus has no sessions in split {args.split!r}")
    graphs = graphs_from_sessions(split)
    probs = TR.ensemble_probs(members, graphs)
    labels = np.array([g.label for g in graphs])
    report = {"split": args.split,
              "metrics": classification_report(probs, labels, threshold).to_json()}
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    report_path = out_dir / f"eval-{args.split}.json"
    _write_json(report_path, report)
    write_manifest(out_dir, "evaluate", [m.seed for m in members], [report_path], started,
                   config={"threshold": threshold})
    print(f"{args.split} macro-F1 {report['metrics']['macro_f1']:.4f}")
    return 0


def _check_seed(args):
    """Reject a negative --seed, which numpy's generators refuse, before
    any file is read."""
    if args.seed is not None and args.seed < 0:
        raise ConfigError(f"--seed must be >= 0, got {args.seed}")


def cmd_explain(args):
    started = time.time()
    _check_seed(args)
    # before any file is read, as --seed
    causal_config = C.CausalConfig(window=args.window, past_only=args.past_only)
    prefix = Path(args.checkpoint).with_suffix("")
    hash_before = ckpt.checkpoint_hash(prefix)
    member = ckpt.load_checkpoint(prefix)
    sessions = read_sessions(args.corpus)
    splits = split_sessions(sessions)
    if not any(s.causes for s in sessions):
        raise CorpusError(
            "corpus carries no causal annotations; regenerate it with the generate command"
        )
    _, report, explanations, skipped = C.explain(splits, member.params, causal_config,
                                                 seed=args.seed or 0)
    if ckpt.checkpoint_hash(prefix) != hash_before:
        raise RuntimeError("session checkpoint changed during explain; this is a bug")
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    explain_path = out_dir / "explanations.jsonl"
    write_jsonl(explain_path, explanations)
    report_path = out_dir / "ranking_report.json"
    _write_json(report_path, {**report.to_json(), "instances_without_cause": skipped})
    # the path as given, and a digest of what it named that no working directory changes
    write_manifest(out_dir, "explain", [args.seed or 0], [explain_path, report_path], started,
                   config=causal_config.to_json(), session_checkpoint=str(prefix),
                   session_checkpoint_sha256=hash_before)
    print(*(f"Hit@{k} {report.hit_at[k]:.3f}" for k in HIT_KS), f"MRR {report.mrr:.3f}")
    return 0


def cmd_gradcheck(args):
    if args.trials < 1:
        raise ConfigError(f"--trials must be >= 1, got {args.trials}")
    _check_seed(args)
    rows = verify.run_suite(trials=args.trials, seed=args.seed or 0)
    failed = 0
    for name, err, tol, ok in rows:
        status = "PASS" if ok else "FAIL"
        print(f"{status}  {name:24s} max_rel_err={err:.3e}  tol={tol:.0e}")
        failed += 0 if ok else 1
    return 1 if failed else 0


def build_parser():
    parser = argparse.ArgumentParser(prog="psygat")
    sub = parser.add_subparsers(dest="command", required=True)

    g = sub.add_parser("generate", help="generate a synthetic corpus")
    g.add_argument("--config", default=None)
    g.add_argument("--seed", type=int, default=None)
    g.add_argument("--out", required=True)
    g.set_defaults(func=cmd_generate)

    t = sub.add_parser("train", help="train the session-level ensemble")
    t.add_argument("--corpus", required=True)
    t.add_argument("--config", default=None)
    t.add_argument("--seed", type=int, default=None)
    t.add_argument("--out", required=True)
    t.add_argument("--persona-mode", choices=("on", "off"), default="on")
    t.set_defaults(func=cmd_train)

    e = sub.add_parser("evaluate", help="evaluate checkpoints on a split")
    e.add_argument("--checkpoint", nargs="+", required=True)
    e.add_argument("--corpus", required=True)
    e.add_argument("--split", choices=("train", "val", "test"), default="test")
    e.add_argument("--threshold", type=float, default=None)
    e.add_argument("--out", required=True)
    e.set_defaults(func=cmd_evaluate)

    x = sub.add_parser("explain", help="train the causal scorer and rank antecedents")
    x.add_argument("--checkpoint", required=True)
    x.add_argument("--corpus", required=True)
    x.add_argument("--window", type=int, default=3)
    x.add_argument("--past-only", action="store_true")
    x.add_argument("--seed", type=int, default=None)
    x.add_argument("--out", required=True)
    x.set_defaults(func=cmd_explain)

    c = sub.add_parser("gradcheck", help="finite-difference verification suite")
    c.add_argument("--trials", type=int, default=100)
    c.add_argument("--seed", type=int, default=None)
    c.set_defaults(func=cmd_gradcheck)
    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if "out" in args:
            _check_out(args.out)
        return args.func(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (PsygatError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except MemoryError as exc:
        print(f"error: out of memory: {exc}", file=sys.stderr)
        return EXIT_DATA


if __name__ == "__main__":
    sys.exit(main())

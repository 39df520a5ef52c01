"""Acceptance suite: one test per release-gating property, each printing
a single pass/fail line. Run with -v (or -s) to see the lines.

These tests retrain models and are intentionally heavy; the fast module
tests live in the other files.
"""

import math
import time

import numpy as np
import pytest

from psygat import causal as C
from psygat import model as M
from psygat import tensor as T
from psygat import train as TR
from psygat import verify
from psygat.datagen import GenConfig, generate_corpus
from psygat.graph import edge_attrs
from psygat.metrics import classification_report
from psygat.peu import NUM_CATEGORIES, build_peu_tensor
from psygat.pipeline import graphs_from_sessions, peu_rows_by_session
from psygat.sessions import CorpusError, check_no_augmented_leakage


def report_line(name, ok, detail):
    line = f"[{'PASS' if ok else 'FAIL'}] {name}: {detail}"
    print(line)
    assert ok, line


def random_peu(rng):
    return np.array([*rng.integers(0, 2, 7), rng.integers(-1, 2)], dtype=np.float32)


# -- 1: gradient fidelity ---------------------------------------------------


def test_gradient_fidelity():
    t0 = time.time()
    rows = verify.run_suite(trials=100)
    elapsed = time.time() - t0
    worst = max(err / tol for _, err, tol, _ in rows)
    ok = all(passed for *_, passed in rows) and elapsed < 60
    report_line(
        "gradient fidelity",
        ok,
        f"{len(rows)} checks, worst err/tol {worst:.3f}, {elapsed:.1f}s (budget 60s)",
    )


# -- 2: loss identities -----------------------------------------------------


def test_loss_identities():
    rng = np.random.default_rng(0)
    worst = 0.0
    for _ in range(1000):
        z = T.Tensor(np.asarray(rng.standard_normal() * 6, dtype=np.float64))
        y = int(rng.integers(0, 2))
        focal = float(TR.focal_loss(z, y, gamma=0.0).data)
        zz = float(z.data) if y == 1 else -float(z.data)
        bce = math.log1p(math.exp(-abs(zz))) + max(-zz, 0.0)
        worst = max(worst, abs(focal - bce))

    half = float(TR.focal_loss(T.Tensor(np.asarray(0.0, dtype=np.float64)), 1).data)
    err_half = abs(half - 0.25 * math.log(2.0))
    z9 = T.Tensor(np.asarray(math.log(9.0), dtype=np.float64))  # p_t = 0.9
    nine = float(TR.focal_loss(z9, 1).data)
    err_nine = abs(nine - 0.01 * -math.log(0.9))

    ok = worst < 1e-7 and err_half < 1e-6 and err_nine < 1e-6
    report_line(
        "loss identities",
        ok,
        f"focal==bce max dev {worst:.2e} (1000 samples), "
        f"0.25*ln2 dev {err_half:.2e}, 0.01*(-ln0.9) dev {err_nine:.2e}",
    )


# -- 3: structural invariants -----------------------------------------------


def test_attention_normalization():
    recorded = []
    original = T.segment_softmax

    def recording(logits, segment_ids):
        out = original(logits, segment_ids)
        recorded.append((out.data.copy(), np.asarray(segment_ids)))
        return out

    rng = np.random.default_rng(0)
    cfg = M.ModelConfig(text_dim=32, hidden=16, heads=2, persona_dim=4,
                        head_hidden=8, dropout=0.0)
    params = M.ModelParams(cfg, seed=0)
    T.segment_softmax = recording
    try:
        for k in range(20):
            n = int(rng.integers(1, 12))
            peu = rng.integers(0, 2, (n, 8)).astype(np.float32)
            peu[:, 7] = rng.integers(-1, 2, n)
            from psygat.graph import GraphBatch, SessionGraph

            g = SessionGraph("a", rng.standard_normal((n, 32)).astype(np.float32),
                             peu, persona=0, label=1)
            M.forward(GraphBatch.from_graphs([g]), params)
    finally:
        T.segment_softmax = original

    worst = 0.0
    for alpha, seg in recorded:
        sums = np.zeros(int(seg.max()) + 1)
        np.add.at(sums, seg, alpha)
        worst = max(worst, float(np.abs(sums - 1.0).max()))
    ok = bool(recorded) and worst < 1e-6
    report_line("attention normalization", ok,
                f"{len(recorded)} softmax calls, worst |sum-1| {worst:.2e}")


def test_set2set_permutation_invariance():
    rng = np.random.default_rng(1)
    cfg = M.ModelConfig(text_dim=32, hidden=16, heads=2, persona_dim=4, head_hidden=8)
    params = M.ModelParams(cfg, seed=1)
    worst = 0.0
    for _ in range(50):
        n = int(rng.integers(2, 15))
        reps = rng.standard_normal((n, cfg.hidden)).astype(np.float32)
        base = M.set2set_readout(T.Tensor(reps), params).data
        shuffled = M.set2set_readout(T.Tensor(reps[rng.permutation(n)]), params).data
        worst = max(worst, float(np.abs(base - shuffled).max()))
    ok = worst < 1e-5
    report_line("set2set permutation invariance", ok, f"worst deviation {worst:.2e} (tol 1e-5)")


def test_edge_attr_antisymmetry_and_telescoping():
    rng = np.random.default_rng(2)
    cases = 1000
    for _ in range(cases):
        a, b = random_peu(rng), random_peu(rng)
        fwd = edge_attrs([a, b])[0]
        bwd = edge_attrs([b, a])[0]
        np.testing.assert_allclose(fwd, -bwd, atol=1e-7)
    for _ in range(cases):
        chain = [random_peu(rng) for _ in range(int(rng.integers(2, 9)))]
        total = sum(edge_attrs(chain))
        direct = edge_attrs([chain[0], chain[-1]])[0]
        np.testing.assert_allclose(total, direct, atol=1e-6)
    report_line("edge-attr antisymmetry and telescoping", True,
                f"{cases} antisymmetry + {cases} telescoping cases")


# -- 4: learning sanity -----------------------------------------------------


def build_graph_splits(config):
    splits = generate_corpus(config)
    return splits, {k: graphs_from_sessions(v) for k, v in splits.items()}


def test_learning_sanity():
    t0 = time.time()
    _, g = build_graph_splits(GenConfig(seed=0, n_sessions=200))
    assert len(g["train"]) == 120 and len(g["val"]) == 40
    members, thr = TR.train_ensemble(g["train"], g["val"], TR.TrainConfig(), M.ModelConfig())
    probs = np.array([TR.ensemble_predict(members, x) for x in g["test"]])
    labels = np.array([x.label for x in g["test"]])
    macro = classification_report(probs, labels, thr).macro_f1
    elapsed = time.time() - t0
    ok = macro >= 0.95 and elapsed < 600
    report_line("learning sanity", ok,
                f"held-out macro-F1 {macro:.3f} (>=0.95), {elapsed:.0f}s (budget 600s)")


# -- 5: persona effect direction --------------------------------------------


def test_persona_effect_direction():
    def run(corpus_seed, persona):
        _, g = build_graph_splits(GenConfig(seed=corpus_seed, n_sessions=100,
                                            peu_dropout=0.5))
        cfg = TR.TrainConfig(seeds=(0, 1, 2))
        members, thr = TR.train_ensemble(g["train"], g["val"], cfg,
                                         M.ModelConfig(persona=persona))
        probs = np.array([TR.ensemble_predict(members, x) for x in g["test"]])
        labels = np.array([x.label for x in g["test"]])
        return classification_report(probs, labels, thr).macro_f1

    diffs = [run(cs, True) - run(cs, False) for cs in range(5)]
    mean = float(np.mean(diffs))
    ok = mean > 0
    report_line("persona effect direction", ok,
                "paired diffs " + " ".join(f"{d:+.3f}" for d in diffs)
                + f", mean {mean:+.4f} (> 0)")


# -- 6 and 7: causal ranking ------------------------------------------------


def causal_stack(corpus_seed, echo_rate=0.0):
    """Corpus, frozen node representations and PEU rows for the scorer."""
    splits, g = build_graph_splits(GenConfig(seed=corpus_seed, n_sessions=100,
                                             echo_rate=echo_rate))
    ck = TR.fit(g["train"], g["val"], TR.TrainConfig(seeds=(0,)), M.ModelConfig(), seed=0)
    graphs = {x.session_id: x for split in g.values() for x in split}
    reps = {sid: C.session_node_reps(gr, ck.params) for sid, gr in graphs.items()}
    rows = peu_rows_by_session(splits["train"] + splits["val"] + splits["test"])
    return splits, reps, rows


def split_instances(sessions, window):
    out = []
    for s in sessions:
        out += C.extract_instances(s, build_peu_tensor(s), window)
    return out


def expected_random_mrr(n, m):
    """E[1 / min rank] of m relevant among n under a uniform random order.

    Reduces to H_n / n when m == 1.
    """
    return sum((1.0 / r) * math.comb(n - r, m - 1) / math.comb(n, m)
               for r in range(1, n - m + 2))


def test_causal_ranking():
    t0 = time.time()
    splits, reps, rows = causal_stack(0)
    cfg = C.CausalConfig(window=3)
    scorer = C.train_scorer(split_instances(splits["train"], 3), reps, rows, cfg, seed=0)
    test_instances = split_instances(splits["test"], 3)
    rep, _, _ = C.rank_and_evaluate(test_instances, reps, rows, scorer)
    elapsed = time.time() - t0

    evaluable = [i for i in test_instances if i.has_cause]
    analytic = float(np.mean([expected_random_mrr(len(i.labels), sum(i.labels))
                              for i in evaluable]))
    rng = np.random.default_rng(0)
    draws = []
    for _ in range(500):
        vals = []
        for inst in evaluable:
            perm = rng.permutation(len(inst.labels))
            rank = 1 + int(np.flatnonzero(np.asarray(inst.labels)[perm] == 1).min())
            vals.append(1.0 / rank)
        draws.append(np.mean(vals))
    measured = float(np.mean(draws))

    ok = (rep.hit_at[5] >= 0.95 and rep.mrr >= 0.60
          and abs(measured - analytic) <= 0.02 and elapsed < 300)
    report_line(
        "causal ranking",
        ok,
        f"Hit@5 {rep.hit_at[5]:.3f} (>=0.95), MRR {rep.mrr:.3f} (>=0.60), "
        f"random ranker {measured:.4f} vs analytic {analytic:.4f} (+-0.02), "
        f"{elapsed:.0f}s (budget 300s)",
    )


def test_span_ablation_trend():
    windows = (3, 5, 10)
    means = {w: [] for w in windows}
    for corpus_seed in range(3):
        splits, reps, rows = causal_stack(corpus_seed, echo_rate=0.7)
        for w in windows:
            cfg = C.CausalConfig(window=w)
            train = split_instances(splits["train"], w)
            test = split_instances(splits["test"], w)
            mrrs = []
            for scorer_seed in range(5):
                scorer = C.train_scorer(train, reps, rows, cfg, seed=scorer_seed)
                rep, _, _ = C.rank_and_evaluate(test, reps, rows, scorer)
                mrrs.append(rep.mrr)
            means[w].append(float(np.mean(mrrs)))
    curve = {w: float(np.mean(v)) for w, v in means.items()}
    ok = curve[3] >= curve[5] >= curve[10]
    report_line(
        "span ablation trend",
        ok,
        f"MRR over 3 corpus seeds: w3 {curve[3]:.4f} >= w5 {curve[5]:.4f} "
        f">= w10 {curve[10]:.4f}",
    )


# -- 8: augmentation-ratio trend --------------------------------------------


def test_augmentation_ratio_trend():
    ratios = (0.1, 0.3, 0.5, 0.7, 0.9)

    def run(corpus_seed, ratio):
        _, g = build_graph_splits(GenConfig(seed=corpus_seed, n_sessions=100,
                                            label_flip=0.12, peu_dropout=0.45,
                                            augmentation_ratio=ratio))
        cfg = TR.TrainConfig(seeds=(0,))
        members, thr = TR.train_ensemble(g["train"], g["val"], cfg, M.ModelConfig())
        probs = np.array([TR.ensemble_predict(members, x) for x in g["test"]])
        labels = np.array([x.label for x in g["test"]])
        return classification_report(probs, labels, thr).macro_f1

    interior = 0
    details = []
    for corpus_seed in range(3):
        scores = [run(corpus_seed, r) for r in ratios]
        arg = ratios[int(np.argmax(scores))]
        interior += 0.1 < arg < 0.9
        details.append(f"seed {corpus_seed} argmax {arg}")
    ok = interior >= 2
    report_line("augmentation ratio trend", ok,
                f"interior argmax on {interior}/3 seeds (need >=2); " + "; ".join(details))


# -- 9: reproducibility and hygiene -----------------------------------------


def test_reproducibility_and_hygiene(tmp_path):
    from psygat import cli

    gen_cfg = tmp_path / "gen.cfg"
    gen_cfg.write_text("n_sessions = 24\nutterances_min = 5\nutterances_max = 7\n")
    train_cfg = tmp_path / "train.cfg"
    train_cfg.write_text("max_epochs = 2\nseeds = 0\n")
    runs = []
    for tag in ("one", "two"):
        cdir, tdir = tmp_path / f"c{tag}", tmp_path / f"t{tag}"
        assert cli.main(["generate", "--config", str(gen_cfg), "--seed", "3",
                         "--out", str(cdir)]) == 0
        assert cli.main(["train", "--corpus", str(cdir / "sessions.jsonl"),
                         "--config", str(train_cfg), "--out", str(tdir)]) == 0
        runs.append((cdir, tdir))
    (c1, t1), (c2, t2) = runs
    identical = (
        (c1 / "sessions.jsonl").read_bytes() == (c2 / "sessions.jsonl").read_bytes()
        and (t1 / "report.json").read_bytes() == (t2 / "report.json").read_bytes()
        and (t1 / "ckpt-seed0.bin").read_bytes() == (t2 / "ckpt-seed0.bin").read_bytes()
    )

    from tests.test_sessions import make_session

    leaked = False
    try:
        check_no_augmented_leakage([make_session("x", split="val", source="augmented")])
    except CorpusError:
        leaked = True

    from tests.test_train import brute_force_f1, f1_at

    rng = np.random.default_rng(5)
    thr_ok = True
    for _ in range(50):
        n = int(rng.integers(5, 60))
        labels = rng.integers(0, 2, n)
        if labels.sum() in (0, n):
            labels[0] = 1 - labels[0]
        probs = np.round(rng.random(n), 3)
        thr = TR.select_threshold(probs, labels)
        if abs(f1_at(probs, labels, thr) - brute_force_f1(probs, labels)) > 1e-9:
            thr_ok = False
            break

    ok = identical and leaked and thr_ok
    report_line(
        "reproducibility and hygiene",
        ok,
        f"byte-identical reruns {identical}, leakage guard aborts {leaked}, "
        f"threshold matches brute force over 50 random sets {thr_ok}",
    )

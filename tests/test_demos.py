"""The narrative demos run to the end and print their headline line."""

import ast
import os
import re
import subprocess
import sys
from pathlib import Path

import psygat

ROOT = Path(__file__).resolve().parents[1]


def run_demo(name):
    env = dict(os.environ)
    src = str(Path(psygat.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    done = subprocess.run([sys.executable, str(ROOT / "demos" / name)], env=env,
                          capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    return done.stdout.splitlines()


def imported_packages(path):
    """Top-level package of every import in a source file, in source order."""
    nodes = [node for node in ast.walk(ast.parse(path.read_text()))
             if isinstance(node, (ast.Import, ast.ImportFrom))]
    packages = []
    for node in sorted(nodes, key=lambda node: (node.lineno, node.col_offset)):
        names = [a.name for a in node.names] if isinstance(node, ast.Import) else [node.module]
        packages += [name.split(".")[0] for name in names]
    return packages


def test_demos_import_psygat_before_numpy():
    # psygat's import pins BLAS to one thread, which holds only if numpy
    # has not loaded yet; the suite's own pin would hide a late import here
    for path in sorted((ROOT / "demos").glob("*.py")):
        packages = imported_packages(path)
        assert "psygat" in packages, path.name
        assert "numpy" not in packages[:packages.index("psygat")], path.name


def test_autodiff_and_gradcheck_demo():
    lines = run_demo("01_autodiff_and_gradcheck.py")
    assert re.fullmatch(r"y = -?\d+\.\d{4}", lines[0])
    suite = lines[lines.index("verification suite (10 trials per op):") + 1:]
    rows = [re.fullmatch(r"  (PASS|FAIL)  (\w+) +\S+", line) for line in suite]
    assert all(rows), suite
    assert [r.group(2) for r in rows][-4:] == [
        "full_model_forward", "batched_model_forward", "stacked_model_forward", "causal_scorer"]


def test_sessions_and_graphs_demo():
    lines = run_demo("02_sessions_and_graphs.py")
    assert lines[0] == "session g42: 8 utterances, label=1, persona=3"
    assert "graph: 8 nodes, text (8, 64), edges (7, 8)" in lines


def test_causal_explanations_demo():
    lines = run_demo("04_causal_explanations.py")
    pattern = re.compile(r"Hit@1 (\S+)  Hit@3 (\S+)  Hit@5 (\S+)  MRR (\S+)")
    (hits,) = [pattern.fullmatch(line) for line in lines if pattern.fullmatch(line)]
    h1, h3, h5, mrr = map(float, hits.groups())
    assert 0.0 <= h1 <= h3 <= h5 <= 1.0 and h1 <= mrr <= 1.0


def test_train_and_evaluate_demo():
    lines = run_demo("03_train_and_evaluate.py")
    assert lines[0] == "{'train': 48, 'val': 16, 'test': 16}"
    for headline in (r"seed 0: best val PR-AUC \S+ at epoch \d+",
                     r"seed 1: best val PR-AUC \S+ at epoch \d+",
                     r"ensemble threshold \(max-F1 on validation\): \S+",
                     r"test macro-F1 \S+  PR-AUC \S+", r"persona off: test macro-F1 \S+"):
        assert any(re.fullmatch(headline, line) for line in lines), headline

"""The narrative demos run to the end and print their headline line."""

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

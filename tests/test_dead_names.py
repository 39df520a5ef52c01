"""No top-level name in psygat lives without a reader.

The scan parses `src/psygat` and `demos/` with `ast`. A top-level function,
class or assigned name of a psygat module counts as read when a Name node
loads it, or an Attribute node names it, anywhere in those files outside
its own definition. Reads in `verify.py` keep only verify's own names
alive, and tests are not scanned, so a name that only `verify` or the tests
call shows up. Docstrings and comments mention names but are not nodes of
either kind, so they keep nothing alive. An Attribute matches by its last
name alone, which can only keep a name alive, never flag one wrongly.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

# Names without a reader today, each with why it stays. A name leaves this
# table when it is deleted or gains a reader; the test fails until it does.
# "FOUND n" is the FOUND line at line n of CHANGES.md.
ALLOWED = {
    ("tensor", "scale_rows"): "FOUND 18: only verify and tests call it; perfbench's "
                              "TENSOR_OPS looks it up",
    ("tensor", "leaky_relu"): "FOUND 18: only verify and tests call it; perfbench's "
                              "TENSOR_OPS looks it up",
    ("tensor", "pow_const"): "FOUND 24: only verify and tests call it; perfbench's "
                             "TENSOR_OPS looks it up",
    ("tensor", "softplus"): "only verify and tests call it; perfbench's TENSOR_OPS looks "
                            "it up (ROADMAP item 3)",
    ("tensor", "concat_rows"): "only verify and tests call it; perfbench's TENSOR_OPS "
                               "looks it up (ROADMAP item 3)",
    ("pipeline", "peu_rows_by_session"): "FOUND 47: only perfbench's explain set-up and "
                                         "test_acceptance call it",
    ("train", "ensemble_predict"): "perfbench's screen workload calls it; only tests "
                                   "call it otherwise (ROADMAP item 8)",
}


def definitions(tree):
    """(name, node) for each top-level function, class and assigned name."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            yield node.name, node
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for target in targets:
                if isinstance(target, ast.Name):
                    yield target.id, node


def reads(tree):
    """(name, node) for each Name node that loads a name and each Attribute node."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            yield node.id, node
        elif isinstance(node, ast.Attribute):
            yield node.attr, node


def unread_names(root=ROOT):
    """(module, name) of every top-level name of root's psygat package
    without a reader."""
    package = root / "src" / "psygat"
    verify = package / "verify.py"
    trees = {path: ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
             for path in sorted(package.glob("*.py")) + sorted((root / "demos").glob("*.py"))}
    readers = {}  # name -> [(file, node)]
    for path, tree in trees.items():
        for name, node in reads(tree):
            readers.setdefault(name, []).append((path, node))
    unread = set()
    for path, tree in trees.items():
        if path.parent != package:
            continue
        for name, definition in definitions(tree):
            if name.startswith("__") and name.endswith("__"):
                continue  # read by the interpreter
            own = {id(n) for n in ast.walk(definition)}
            if not any(id(node) not in own and (where != verify or path == verify)
                       for where, node in readers.get(name, ())):
                unread.add((path.stem, name))
    return unread


def test_every_top_level_name_has_a_reader_or_a_reason():
    unread = unread_names()
    assert unread - ALLOWED.keys() == set(), (
        "top-level names that nothing outside verify.py and tests reads: delete them, "
        "or add each to ALLOWED with its reason")
    assert ALLOWED.keys() - unread == set(), (
        "ALLOWED lists names that are gone or have a reader now: remove them from it")
    assert all(reason.strip() for reason in ALLOWED.values())


def test_the_scan_flags_names_read_only_by_themselves_verify_or_text(tmp_path):
    package = tmp_path / "src" / "psygat"
    package.mkdir(parents=True)
    (tmp_path / "demos").mkdir()
    (package / "a.py").write_text(
        "LIMIT = 3\n"
        "def used(): pass\n"
        "def demo_only(): pass\n"
        "def verify_only(): pass\n"
        "def in_text(): pass\n"
        "def recursive(n): return recursive(n - 1)\n"
        "class Base: pass\n"
        "class Leaf(Base): pass\n")
    (package / "b.py").write_text(
        '"""in_text is named here only in text."""\n'
        "from .a import LIMIT, used  # and in_text in a comment\n"
        "used(LIMIT)\n")
    (package / "verify.py").write_text(
        "from . import a\n"
        "def _helper(): return a.verify_only()\n"
        "_helper()\n")
    (tmp_path / "demos" / "d.py").write_text("import psygat.a as a\na.demo_only()\n")
    assert unread_names(tmp_path) == {("a", "verify_only"), ("a", "in_text"),
                                      ("a", "recursive"), ("a", "Leaf")}

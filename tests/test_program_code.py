"""Guards on the shape of the program: ``src/`` holds only code it runs."""

import ast
import re
from collections import Counter
from pathlib import Path

REPO = Path(__file__).resolve().parents[1]
SRC = REPO / "src" / "mi_sco_lab"
DEFS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


def _names_used(tree) -> Counter:
    """Every name read as a variable or an attribute in ``tree``."""
    used = Counter()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            used[node.id] += 1
        elif isinstance(node, ast.Attribute):
            used[node.attr] += 1
    return used


def _benchmark_names() -> set:
    """Names the benchmark reaches: identifiers, plus the words of its string
    constants other than docstrings (the tracer looks methods up by name)."""
    names = set()
    for path in sorted((REPO / "perfbench").glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        docstrings = {id(node.value) for node in ast.walk(tree)
                      if isinstance(node, ast.Expr) and isinstance(node.value, ast.Constant)}
        names |= set(_names_used(tree))
        for node in ast.walk(tree):
            if (isinstance(node, ast.Constant) and isinstance(node.value, str)
                    and id(node) not in docstrings):
                names |= set(re.findall(r"[A-Za-z_]\w*", node.value))
    return names


def test_no_test_only_code_in_src():
    """Every function, class and method in ``src/mi_sco_lab`` other than a
    dunder is referenced by name somewhere in ``src/`` outside its own
    definition, or in ``perfbench/*.py``.

    The match is by name only, so a test-only name that some used name shares
    slips through: a classmethod ``uniform`` would pass on the strength of
    ``rng.uniform``.
    """
    trees = {path.name: ast.parse(path.read_text(), filename=str(path))
             for path in sorted(SRC.glob("*.py"))}
    used = sum((_names_used(tree) for tree in trees.values()), Counter())
    benchmark = _benchmark_names()
    unused = []
    for filename, tree in trees.items():
        for node in ast.walk(tree):
            if not isinstance(node, DEFS):
                continue
            name = node.name
            if name.startswith("__") and name.endswith("__"):
                continue
            own = _names_used(node)[name]
            if used[name] - own <= 0 and name not in benchmark:
                unused.append(f"{filename}:{node.lineno} {name}")
    assert not unused, f"no program caller; move to tests/oracles.py or delete: {unused}"


def test_learners_have_one_fit_path():
    """Learners compute outputs only through ``fit_batch``."""
    tree = ast.parse((SRC / "learners.py").read_text())
    with_fit = [node.name for node in ast.walk(tree) if isinstance(node, ast.ClassDef)
                and any(isinstance(item, DEFS) and item.name == "fit" for item in node.body)]
    assert not with_fit, f"learner classes defining fit: {with_fit}"

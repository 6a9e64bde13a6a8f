"""Guards on the shape of the program: ``src/`` holds only code it runs."""

import ast
import re
from collections import Counter
from pathlib import Path

import pytest

from mi_sco_lab import learners
from mi_sco_lab.harness import _xu_learner_menu
from mi_sco_lab.sco import HardInstance

REPO = Path(__file__).resolve().parents[1]
SRC = REPO / "src" / "mi_sco_lab"
DEFS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
FUNCS = (ast.FunctionDef, ast.AsyncFunctionDef)
# (file, function, parameter) defaults that no program call sets: the CLI's
# argv, which tests pass to drive the CLI in-process
UNSET_DEFAULTS_ALLOWED = {("cli.py", "main", "argv")}


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


def _definitions(tree):
    """(name, node) for every function, class and method, and for every
    module-level constant, of a module; the node is the definition or the
    assignment."""
    for node in ast.walk(tree):
        if isinstance(node, DEFS):
            yield node.name, node
    for node in tree.body:
        targets = (node.targets if isinstance(node, ast.Assign)
                   else [node.target] if isinstance(node, ast.AnnAssign) else [])
        for target in targets:
            if isinstance(target, ast.Name):
                yield target.id, node


def test_no_test_only_code_in_src():
    """Every function, class, method and module-level constant in
    ``src/mi_sco_lab`` other than a dunder is referenced by name somewhere in
    ``src/`` outside its own definition, or in ``perfbench/*.py``.

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
        for name, node in _definitions(tree):
            if name.startswith("__") and name.endswith("__"):
                continue
            own = _names_used(node)[name]
            if used[name] - own <= 0 and name not in benchmark:
                unused.append(f"{filename}:{node.lineno} {name}")
    assert not unused, f"no program caller; move to tests/oracles.py or delete: {unused}"


def test_learners_have_one_fit_path():
    """Learners compute outputs only through ``fit_batch``: no learner class
    defines ``fit`` or ``coord_outputs``."""
    tree = ast.parse((SRC / "learners.py").read_text())
    second = [f"{node.name}.{item.name}" for node in ast.walk(tree)
              if isinstance(node, ast.ClassDef) for item in node.body
              if isinstance(item, DEFS) and item.name in ("fit", "coord_outputs")]
    assert not second, f"learner classes with a second output route: {second}"


def _defaulted_parameters(tree):
    """(function name, parameter, position in a call or None) for every
    parameter with a default; a method's position skips self or cls."""
    methods = {id(item) for node in ast.walk(tree) if isinstance(node, ast.ClassDef)
               for item in node.body if isinstance(item, FUNCS)
               and not any(isinstance(dec, ast.Name) and dec.id == "staticmethod"
                           for dec in item.decorator_list)}
    for node in ast.walk(tree):
        if not isinstance(node, FUNCS):
            continue
        args = node.args
        positional = args.posonlyargs + args.args
        offset = 1 if id(node) in methods else 0
        first = len(positional) - len(args.defaults)
        for i, arg in enumerate(positional[first:], start=first):
            yield node.name, arg.arg, i - offset
        for arg, default in zip(args.kwonlyargs, args.kw_defaults):
            if default is not None:
                yield node.name, arg.arg, None


def _sets_parameter(call, name, position) -> bool:
    """Whether ``call`` passes the parameter by keyword or by position; a
    ``*args`` or ``**kwargs`` argument counts as passing every parameter."""
    if any(kw.arg in (name, None) for kw in call.keywords):
        return True
    if any(isinstance(arg, ast.Starred) for arg in call.args):
        return True
    return position is not None and position < len(call.args)


def test_every_default_is_set_by_some_call():
    """Every defaulted parameter of a function or method in ``src/mi_sco_lab``
    is passed, by keyword or by position, by some call in ``src/`` or
    ``perfbench/*.py``; a default that no call overrides is a constant.

    Calls match the function by name only, like the guard above. The one
    exception is ``cli.main(argv)``: the console script calls ``main()``
    bare, and tests pass ``argv`` to drive the CLI in-process.
    """
    trees = {path.name: ast.parse(path.read_text(), filename=str(path))
             for path in sorted(SRC.glob("*.py"))}
    callers = list(trees.values()) + [ast.parse(path.read_text(), filename=str(path))
                                      for path in sorted((REPO / "perfbench").glob("*.py"))]
    calls = {}
    for tree in callers:
        for node in ast.walk(tree):
            if isinstance(node, ast.Call):
                func = node.func
                callee = (func.id if isinstance(func, ast.Name)
                          else func.attr if isinstance(func, ast.Attribute) else None)
                calls.setdefault(callee, []).append(node)
    unset = [f"{filename} {fn}({param})"
             for filename, tree in trees.items()
             for fn, param, position in _defaulted_parameters(tree)
             if (filename, fn, param) not in UNSET_DEFAULTS_ALLOWED
             and not any(_sets_parameter(call, param, position) for call in calls.get(fn, ()))]
    assert not unset, f"defaults no program call sets; make them constants: {unset}"


def test_every_learner_declares_reads_counts():
    """Every learner class of ``learners`` (a class with ``fit_batch``) sets
    ``reads_counts`` in its own body to a bool, as it sets ``deterministic``:
    no learner inherits or omits the route choice of exact channels."""
    tree = ast.parse((SRC / "learners.py").read_text())
    classes = [node for node in ast.walk(tree) if isinstance(node, ast.ClassDef)
               and any(isinstance(item, FUNCS) and item.name == "fit_batch"
                       for item in node.body)]
    assert ({node.name for node in classes}
            == {cls.__name__ for cls in learners.LEARNER_KINDS.values()} | {"RandomizedResponse"})
    missing = [node.name for node in classes
               if not any(isinstance(item, ast.Assign) and any(
                   isinstance(t, ast.Name) and t.id == "reads_counts" for t in item.targets)
                          for item in node.body)]
    assert not missing, f"learner classes without reads_counts: {missing}"
    for node in classes:
        assert isinstance(getattr(learners, node.name).reads_counts, bool), node.name


# learners whose output depends on the order of the sample points
ORDER_LEARNERS = (learners.SgdLearner, learners.SubsampleLearner)


@pytest.mark.parametrize("m", [1, 2, 4])
def test_exact_channel_enumerates_once(monkeypatch, m):
    """``exact_channel`` never enumerates the sign space for a count learner
    or randomized response over one, and enumerates it once per call for
    SGD and subsample, the learners that read the order of the points."""
    real = learners.enumerate_sign_space
    calls = []

    def spy(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(learners, "enumerate_sign_space", spy)
    inst = HardInstance.zero(2)
    menu = _xu_learner_menu(m)
    assert {type(l) for l in menu} >= ({learners.SgdLearner, learners.RandomizedResponse}
                                       | ({learners.SubsampleLearner} if m >= 2 else set()))
    for learner in menu:
        calls.clear()
        learners.exact_channel(learner, inst, m)
        expected = [(m, 2)] if isinstance(learner, ORDER_LEARNERS) else []
        assert calls == expected, learner.kind

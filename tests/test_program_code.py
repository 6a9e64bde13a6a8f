"""Guards on the shape of the program: ``src/`` holds only code it runs."""

import ast
import re
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

from mi_sco_lab import bounds, learners, sco
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


def _learner_classes(tree):
    """The learner classes of ``learners``: each class with a ``fit_batch``."""
    return [node for node in ast.walk(tree) if isinstance(node, ast.ClassDef)
            and any(isinstance(item, FUNCS) and item.name == "fit_batch"
                    for item in node.body)]


def test_count_learners_fit_through_fit_counts():
    """Every ``reads_counts = True`` learner class defines ``fit_counts``, and
    its ``fit_batch`` body is one ``return self.fit_counts(...)``: a count
    learner has one computation, whatever it is handed."""
    tree = ast.parse((SRC / "learners.py").read_text())
    count_classes = [node for node in _learner_classes(tree)
                     if getattr(learners, node.name).reads_counts]
    assert {node.name for node in count_classes} == {
        "MeanLearner", "QuantizedMeanLearner", "EpsilonNetErm", "RegularizedErm"}
    for node in count_classes:
        methods = {item.name: item for item in node.body if isinstance(item, FUNCS)}
        assert "fit_counts" in methods, node.name
        body = [stmt for stmt in methods["fit_batch"].body
                if not (isinstance(stmt, ast.Expr) and isinstance(stmt.value, ast.Constant))]
        assert len(body) == 1 and isinstance(body[0], ast.Return), node.name
        call = body[0].value
        assert (isinstance(call, ast.Call) and isinstance(call.func, ast.Attribute)
                and call.func.attr == "fit_counts"
                and isinstance(call.func.value, ast.Name) and call.func.value.id == "self"), \
            node.name
        inner = [n for n in ast.walk(call) if isinstance(n, ast.Call)][1:]
        assert not any(isinstance(n.func, ast.Attribute) and n.func.attr.startswith("fit")
                       for n in inner), node.name


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
    classes = _learner_classes(tree)
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


COUNT_LEARNERS = (learners.MeanLearner(), learners.QuantizedMeanLearner(),
                  learners.QuantizedMeanLearner(delta=0.3), learners.EpsilonNetErm(),
                  learners.RegularizedErm(lam=0.5))


def _spy_sign_routes(monkeypatch):
    """Record every sign tensor made from sampled plus booleans, sign
    enumeration and ``fit_batch`` row count, wherever the program looks those
    names up."""
    calls = {"signs_of_plus": [], "enumerate_sign_space": [], "fit_batch_rows": []}
    for module, name in ((sco, "signs_of_plus"), (bounds, "signs_of_plus"),
                         (learners, "enumerate_sign_space")):
        real = getattr(module, name)

        def spy(*args, real=real, name=name, **kwargs):
            calls[name].append(args)
            return real(*args, **kwargs)

        monkeypatch.setattr(module, name, spy)
    for cls in {type(learner) for learner in COUNT_LEARNERS}:
        real_fit = cls.fit_batch

        def fit_spy(self, signs, real_fit=real_fit):
            calls["fit_batch_rows"].append(signs.shape[0])
            return real_fit(self, signs)

        monkeypatch.setattr(cls, "fit_batch", fit_spy)
    return calls


@pytest.mark.parametrize("learner", COUNT_LEARNERS, ids=lambda l: repr(l))
def test_count_learners_take_no_sign_route(monkeypatch, learner):
    """For a count learner (and randomized response over one, in the CMI),
    ``cmi_exact`` and the Monte Carlo estimators never sample or enumerate
    signs, and never fit more rows than the (m+1)^d lattice points."""
    calls = _spy_sign_routes(monkeypatch)
    d, m = 2, 3
    inst = HardInstance(d, np.array([0.1, -0.2]))
    bounds.cmi_exact(learner, inst, m)
    bounds.cmi_exact(learners.RandomizedResponse(base=learner, rho=0.5), inst, m)
    bounds.good_coordinates(inst, learner, m, trials=500, seed=1, pilot_trials=300)
    bounds.measured_excess_risk(learner, d, m, 500, 2)
    bounds.genbound_chain_report(learner, d, m, 500, 3)
    bounds.second_moment_report(learner, d, m, 5, 4)
    assert calls["signs_of_plus"] == [] and calls["enumerate_sign_space"] == []
    assert all(rows <= (m + 1) ** d for rows in calls["fit_batch_rows"])


def test_sign_route_spy_sees_sgd(monkeypatch):
    """The spy above does see the sign routes: SGD's CMI enumerates and its
    Monte Carlo samples signs."""
    calls = _spy_sign_routes(monkeypatch)
    inst = HardInstance.zero(2)
    bounds.cmi_exact(learners.SgdLearner(), inst, 2)
    bounds.measured_excess_risk(learners.SgdLearner(), 2, 2, 100, 1)
    assert calls["enumerate_sign_space"] and calls["signs_of_plus"]


@pytest.mark.parametrize("learner", [learners.SgdLearner(),
                                     learners.RandomizedResponse(learners.SgdLearner(), 0.5)],
                         ids=lambda l: l.kind)
def test_sgd_cmi_fits_each_pattern_once(monkeypatch, learner):
    """``cmi_exact`` fits SGD once, on the 2^(m d) patterns of one sample, at
    a point whose supersamples take more than one chunk; no selection of a
    supersample is fit again."""
    d, m = 2, 4
    assert 1 << (2 * m * d) > bounds.CMI_CHUNK_CELLS // ((1 << m) * m * d)  # two chunks
    rows = []
    real_fit = learners.SgdLearner.fit_batch

    def fit_spy(self, signs):
        rows.append(signs.shape[0])
        return real_fit(self, signs)

    monkeypatch.setattr(learners.SgdLearner, "fit_batch", fit_spy)
    bounds.cmi_exact(learner, HardInstance(d, np.array([0.1, -0.2])), m)
    assert rows == [1 << (m * d)]


def _calls_named(tree, name):
    """Every call in ``tree`` of ``name``, as a function or as a method."""
    return [node for node in ast.walk(tree) if isinstance(node, ast.Call)
            and (node.func.id if isinstance(node.func, ast.Name)
                 else getattr(node.func, "attr", None)) == name]


def _fits_on_enumeration(tree):
    """``fit_batch`` calls whose argument holds an ``enumerate_sign_space``
    call, directly or through a name its function assigns from one."""
    def derived(expr, enumerated):
        return bool(_calls_named(expr, "enumerate_sign_space")
                    or {n.id for n in ast.walk(expr) if isinstance(n, ast.Name)} & enumerated)

    found = []
    for func in (node for node in ast.walk(tree) if isinstance(node, FUNCS)):
        assigns = [node for node in ast.walk(func) if isinstance(node, ast.Assign)]
        enumerated, grown = set(), True
        while grown:  # names assigned from an enumeration, however indirectly
            new = {target.id for node in assigns if derived(node.value, enumerated)
                   for target in node.targets if isinstance(target, ast.Name)}
            grown, enumerated = bool(new - enumerated), enumerated | new
        found += [call for call in _calls_named(func, "fit_batch")
                  if any(derived(arg, enumerated) for arg in call.args)]
    return found


def test_sign_route_only_in_learners():
    """``enumerate_sign_space`` and ``fit_batch`` on an enumerated tensor have
    program call sites only in ``learners``, and ``bounds`` holds no
    sign-route code: it names none of the sign route's helpers, and its one
    ``fit_batch`` call is ``_fit_plus``'s, on sampled signs."""
    trees = {path.name: ast.parse(path.read_text(), filename=str(path))
             for path in sorted(SRC.glob("*.py"))}
    enumerations = {name for name, tree in trees.items()
                    if _calls_named(tree, "enumerate_sign_space")}
    fits = {name for name, tree in trees.items() if _fits_on_enumeration(tree)}
    assert enumerations == fits == {"learners.py"}
    bounds_tree = trees["bounds.py"]
    names = _names_used(bounds_tree)
    assert not [name for name in ("enumerate_sign_space", "_index_in_codebook", "take",
                                  "lattice_samples") if names[name]]
    fitters = [func.name for func in ast.walk(bounds_tree) if isinstance(func, FUNCS)
               and any(_calls_named(stmt, "fit_batch") for stmt in func.body)]
    assert fitters == ["_fit_plus"]

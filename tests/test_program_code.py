"""Guards on the shape of the program: ``src/`` holds only code it runs."""

import ast
import re
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

from mi_sco_lab import bounds, learners
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


def test_infotheory_takes_plain_arrays():
    """``infotheory`` defines no class: its functions take and return numpy
    arrays, and the pmf wrapper types, their validation and its tolerance
    are gone from ``src/``."""
    trees = {path.name: ast.parse(path.read_text(), filename=str(path))
             for path in sorted(SRC.glob("*.py"))}
    assert not [node.name for node in ast.walk(trees["infotheory.py"])
                if isinstance(node, ast.ClassDef)]
    gone = {"FinitePmf", "JointPmf", "PmfValidationError", "_as_prob_array", "STRUCT_TOL"}
    found = [f"{filename}:{name}" for filename, tree in trees.items()
             for name in (*(n for n, _ in _definitions(tree)), *_names_used(tree))
             if name in gone]
    assert not found, f"pmf wrapper names in the program: {found}"


def test_learners_have_one_fit_path():
    """Learners compute outputs only through ``learners.fit``: no learner
    class defines ``fit`` or ``coord_outputs``."""
    tree = ast.parse((SRC / "learners.py").read_text())
    second = [f"{node.name}.{item.name}" for node in ast.walk(tree)
              if isinstance(node, ast.ClassDef) for item in node.body
              if isinstance(item, DEFS) and item.name in ("fit", "coord_outputs")]
    assert not second, f"learner classes with a second output route: {second}"


def _learner_classes(tree):
    """The learner classes of ``learners``: each class whose body sets the
    contract attribute ``deterministic``."""
    return [node for node in ast.walk(tree) if isinstance(node, ast.ClassDef)
            and any(isinstance(item, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "deterministic" for t in item.targets)
                    for item in node.body)]


def test_one_learner_protocol():
    """The learner protocol of the ``learners`` docstring. Every learner class
    (a class that sets ``deterministic``) sets ``reads_counts`` to a bool in
    its own body, and every base learner (all but the two wrappers) defines
    one coordinate's ``levels`` and its row map ``finish``, a method or
    None. SGD alone defines ``fit_batch``; no class defines ``fit_counts``
    or ``column_levels``, and ``src/`` never names ``factorized`` or
    ``count_levels``. Every base learner's exact atoms come from one route:
    ``output_atoms`` is the only caller of ``_column_atoms``."""
    trees = {path.name: ast.parse(path.read_text(), filename=str(path))
             for path in sorted(SRC.glob("*.py"))}
    classes = {node.name: vars(getattr(learners, node.name))
               for node in _learner_classes(trees["learners.py"])}
    assert set(classes) == ({cls.__name__ for cls in learners.LEARNER_KINDS.values()}
                            | {"RandomizedResponse"})
    assert all(isinstance(own.get("reads_counts"), bool) for own in classes.values())
    for name in set(classes) - {"SubsampleLearner", "RandomizedResponse"}:
        own = classes[name]
        assert "levels" in own and "finish" in own, name
        assert own["finish"] is None or callable(own["finish"]), name
    assert {name for name, own in classes.items() if "fit_batch" in own} == {"SgdLearner"}
    assert not [f"{node.name}.{item.name}" for tree in trees.values() for node in ast.walk(tree)
                if isinstance(node, ast.ClassDef) for item in node.body
                if isinstance(item, FUNCS) and item.name in ("fit_counts", "column_levels")]
    named = [f"{path.name}:{n + 1}" for path in sorted(SRC.glob("*.py"))
             for n, line in enumerate(path.read_text().splitlines())
             if re.search(r"\b(factorized|count_levels)\b", line)]
    assert not named, f"src/ names the old learner flags: {named}"
    sites = {(name, top.name) for name, tree in trees.items() for top in tree.body
             if _calls_named(top, "_column_atoms")}
    assert sites == {("learners.py", "output_atoms")}


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


def test_no_add_at_in_src():
    """Every exact probability sum in ``src/`` is one ``np.bincount`` over
    labels and weights: no ``np.add.at`` scatter is left."""
    found = [f"{path.name}:{node.lineno}" for path in sorted(SRC.glob("*.py"))
             for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
             if isinstance(node, ast.Attribute) and node.attr == "at"
             and isinstance(node.value, ast.Attribute) and node.value.attr == "add"]
    assert not found, f"np.add.at in the program; use np.bincount: {found}"


def _spy_sgd_exact_fits(monkeypatch):
    """Record SGD's exact fits, its column passes (``SgdLearner.levels``),
    each as ("column", m, d)."""
    calls, real_column = [], learners.SgdLearner.levels

    def column_spy(self, m, d):
        calls.append(("column", m, d))
        return real_column(self, m, d)

    monkeypatch.setattr(learners.SgdLearner, "levels", column_spy)
    return calls


@pytest.mark.parametrize("m", [1, 2, 4])
def test_exact_channel_enumerates_once(monkeypatch, m):
    """``exact_channel`` builds no per-pattern outputs for a count learner,
    randomized response over one, or a subsample of one. For SGD it runs one
    column pass per call, a subsample of SGD at its k, whatever wraps it."""
    calls = _spy_sgd_exact_fits(monkeypatch)
    inst = HardInstance.zero(2)
    menu = _xu_learner_menu(m)
    assert {type(l) for l in menu} >= ({learners.SgdLearner, learners.RandomizedResponse}
                                       | ({learners.SubsampleLearner} if m >= 2 else set()))
    sgd_k = learners.SubsampleLearner(k=max(1, m // 2), base=learners.SgdLearner())
    for learner in menu + [learners.RandomizedResponse(learners.SgdLearner(), 0.5), sgd_k,
                           learners.RandomizedResponse(sgd_k, 0.5)]:
        calls.clear()
        learners.exact_channel(learner, inst, m)
        base, k = learners.reduce_subsample(
            learner if learner.deterministic else learner.base, m)
        expected = [("column", k, 2)] if isinstance(base, learners.SgdLearner) else []
        assert calls == expected, learner.kind


def test_exact_channel_takes_the_column_pass_outside_the_shell(monkeypatch):
    """Where a projected pass projects rows before its end, at
    (d, m) = (6, 3), SGD's channel too runs the one column pass and nothing
    else."""
    calls = _spy_sgd_exact_fits(monkeypatch)
    learners.exact_channel(learners.SgdLearner(), HardInstance.zero(6), 3)
    assert calls == [("column", 3, 6)]


COUNT_LEARNERS = (learners.MeanLearner(), learners.QuantizedMeanLearner(),
                  learners.QuantizedMeanLearner(delta=0.3), learners.EpsilonNetErm(),
                  learners.RegularizedErm(lam=0.5))


def _spy_sign_routes(monkeypatch):
    """Record every fit on all sign patterns, and the row count of every
    ``fit`` on plus booleans, wherever the program looks those names up."""
    calls = {"sgd_exact": _spy_sgd_exact_fits(monkeypatch), "fit_rows": []}
    real_fit = learners.fit

    def fit_spy(learner, plus, rng=None):
        calls["fit_rows"].append(plus.shape[0])
        return real_fit(learner, plus, rng)

    for module in (learners, bounds):
        monkeypatch.setattr(module, "fit", fit_spy)
    return calls


@pytest.mark.parametrize("learner", COUNT_LEARNERS, ids=lambda l: repr(l))
def test_count_learners_take_no_sign_route(monkeypatch, learner):
    """For a count learner (and randomized response over one, in the CMI),
    ``cmi_exact`` and the Monte Carlo estimators (the second-moment report
    for a learner whose outputs are its levels, the only ones it takes)
    never enumerate signs and never reach ``fit_batch``: every output comes
    from its m+1 ``levels``, built at the sample's (m, d), and a row map's
    exact route maps no more rows than the (m+1)^d lattice points."""
    calls = _spy_sgd_exact_fits(monkeypatch)
    batch, levels, rows = [], [], []
    real_batch, real_levels, real_finish = (learners.SgdLearner.fit_batch, learner.levels,
                                            learner.finish)

    def batch_spy(self, plus):
        batch.append(plus.shape[0])
        return real_batch(self, plus)

    def levels_spy(self, m, d):
        levels.append((m, d))
        return real_levels(m, d)

    def finish_spy(self, w, m):
        rows.append(w.shape[0])
        return real_finish(w, m)

    monkeypatch.setattr(learners.SgdLearner, "fit_batch", batch_spy)
    monkeypatch.setattr(type(learner), "levels", levels_spy)
    if real_finish is not None:
        monkeypatch.setattr(type(learner), "finish", finish_spy)
    d, m = 2, 3
    inst = HardInstance(d, np.array([0.1, -0.2]))
    bounds.cmi_exact(learner, inst, m)
    bounds.cmi_exact(learners.RandomizedResponse(base=learner, rho=0.5), inst, m)
    assert levels == [(m, d)] * 2 and all(n <= (m + 1) ** d for n in rows)
    bounds.good_coordinates(inst, learner, m, trials=500, seed=1, pilot_trials=300)
    bounds.measured_excess_risk(learner, d, m, 500, 2)
    bounds.genbound_chain_report(learner, d, m, 500, 3)
    if learners.level_table(learner, m, d) is not None:
        bounds.second_moment_report(learner, d, m, 5, 4)
    assert set(levels) == {(m, d)} and bool(rows) == (real_finish is not None)
    assert calls == [] and batch == []


@pytest.mark.parametrize("learner", COUNT_LEARNERS[:3] + (
    learners.SubsampleLearner(k=2, base=learners.QuantizedMeanLearner()),), ids=repr)
def test_factorized_mi_takes_no_sign_route(monkeypatch, learner):
    """The per-coordinate MI of a factorized learner, a subsample of one
    included, neither enumerates signs nor calls ``fit``."""
    calls = _spy_sign_routes(monkeypatch)
    for d, m in ((1, 6), (3, 5)):
        assert learners.exact_mutual_information(learner, d, m)(HardInstance.zero(d)) > 0
    assert calls == {"sgd_exact": [], "fit_rows": []}


def test_sign_route_spy_sees_sgd(monkeypatch):
    """The spy above does see the sign routes: SGD's CMI runs one column
    pass, and its Monte Carlo fits the 100 sampled booleans through
    ``fit``."""
    calls = _spy_sign_routes(monkeypatch)
    inst = HardInstance.zero(2)
    bounds.cmi_exact(learners.SgdLearner(), inst, 2)
    assert calls == {"sgd_exact": [("column", 2, 2)], "fit_rows": []}
    bounds.measured_excess_risk(learners.SgdLearner(), 2, 2, 100, 1)
    assert calls == {"sgd_exact": [("column", 2, 2)], "fit_rows": [100]}


@pytest.mark.parametrize("learner", [learners.SgdLearner(),
                                     learners.RandomizedResponse(learners.SgdLearner(), 0.5)],
                         ids=lambda l: l.kind)
def test_sgd_cmi_fits_each_pattern_once(monkeypatch, learner):
    """``cmi_exact`` builds SGD's atoms once, from one column pass over the
    2^m column patterns of one sample, at a point whose supersamples take
    more than one chunk; no pattern is fit, no selection of a supersample is
    fit again, and nothing goes through the per-sample ``fit_batch``."""
    d, m = 2, 4
    assert 1 << (2 * m * d) > bounds.CMI_CHUNK_CELLS // ((1 << m) * m * d)  # two chunks
    calls = _spy_sgd_exact_fits(monkeypatch)
    batch = []
    real_batch = learners.SgdLearner.fit_batch

    def batch_spy(self, plus):
        batch.append(plus.shape[0])
        return real_batch(self, plus)

    monkeypatch.setattr(learners.SgdLearner, "fit_batch", batch_spy)
    bounds.cmi_exact(learner, HardInstance(d, np.array([0.1, -0.2])), m)
    assert calls == [("column", m, d)] and batch == []


def _calls_named(tree, name):
    """Every call in ``tree`` of ``name``, as a function or as a method."""
    return [node for node in ast.walk(tree) if isinstance(node, ast.Call)
            and (node.func.id if isinstance(node.func, ast.Name)
                 else getattr(node.func, "attr", None)) == name]


def test_sign_route_only_in_learners():
    """No sign tensor is built in ``src/``: it never names
    ``enumerate_sign_space``, the oracle in ``tests/oracles.py``. SGD has
    one exact route: ``src/`` names neither the fit on all sign patterns,
    ``fit_patterns``, nor the shell test, ``in_shell``, both oracles now;
    SGD's column pass is its ``levels``, which ``_column_atoms`` reads
    (``test_one_learner_protocol``). ``bounds`` holds no sign-route code:
    it names none of the sign route's helpers nor a learner's ``levels``,
    calls no ``fit_batch``, calls ``fit`` only on sampled plus booleans, in
    ``_fit_sample``, and reads a ``level_table`` only at sampled plus-counts,
    in ``_coordinate_trials`` and ``second_moment_report``."""
    trees = {path.name: ast.parse(path.read_text(), filename=str(path))
             for path in sorted(SRC.glob("*.py"))}
    named = [f"{name}:{node.lineno}" for name, tree in trees.items()
             for node in ast.walk(tree)
             if getattr(node, "id", getattr(node, "attr", getattr(node, "name", None)))
             == "enumerate_sign_space"
             or isinstance(node, ast.alias) and node.name == "enumerate_sign_space"]
    assert not named, f"the program names the sign enumeration: {named}"
    gone = [f"{name}:{node.lineno}" for name, tree in trees.items() for node in ast.walk(tree)
            if getattr(node, "id", getattr(node, "attr", getattr(node, "name", None)))
            in ("fit_patterns", "in_shell")]
    assert not gone, f"the program names a second exact SGD route: {gone}"
    bounds_tree = trees["bounds.py"]
    names = _names_used(bounds_tree)
    assert not [name for name in ("fit_patterns", "levels", "_index_in_codebook",
                                  "take", "lattice_samples") if names[name]]
    assert not _calls_named(bounds_tree, "fit_batch")
    fitters = [func.name for func in ast.walk(bounds_tree) if isinstance(func, FUNCS)
               and any(_calls_named(stmt, "fit") for stmt in func.body)]
    assert fitters == ["_fit_sample"]
    tables = [func.name for func in ast.walk(bounds_tree) if isinstance(func, FUNCS)
              and any(_calls_named(stmt, "level_table") for stmt in func.body)]
    assert tables == ["_coordinate_trials", "second_moment_report"]


def test_one_count_route():
    """A count learner's plus-counts turn into outputs in one place,
    ``learners.count_statistic``: outside the learner classes ``src/`` maps
    rows of levels (``finish``) only there and in ``_column_atoms``, the
    exact atoms, and reads ``levels`` only in those two and in
    ``level_table``; ``bounds`` names neither and defines no count route of
    its own. The (m+1, d) level table is written once, in
    ``learners.level_table``, the one test for a learner whose outputs are
    its levels, which only ``count_statistic``,
    ``exact_mutual_information``, ``bounds._coordinate_trials`` and
    ``bounds.second_moment_report`` call. The pattern
    probability q^c (1 - q)^(m - c) is written once, in
    ``learners.count_probs``: no other power in ``learners`` has an exponent
    m - c."""
    trees = {path.name: ast.parse(path.read_text(), filename=str(path))
             for path in sorted(SRC.glob("*.py"))}
    for method, callers in (("finish", {"_column_atoms", "count_statistic"}),
                            ("levels", {"_column_atoms", "count_statistic", "level_table"})):
        sites = {(name, top.name) for name, tree in trees.items() for top in tree.body
                 if not isinstance(top, ast.ClassDef) and _calls_named(top, method)}
        assert sites == {("learners.py", caller) for caller in callers}, method
    sites = {(name, top.name) for name, tree in trees.items() for top in tree.body
             if _calls_named(top, "level_table")}
    assert sites == {("learners.py", "count_statistic"),
                     ("learners.py", "exact_mutual_information"),
                     ("bounds.py", "_coordinate_trials"), ("bounds.py", "second_moment_report")}
    names = _names_used(trees["bounds.py"])
    assert not names["finish"] and not names["levels"]
    defined = {name for name, _ in _definitions(trees["bounds.py"])}
    assert not defined & {"_count_statistic", "_fit_plus", "keep_outputs"}
    powers = [top.name for top in trees["learners.py"].body for node in ast.walk(top)
              if isinstance(node, ast.BinOp) and isinstance(node.op, ast.Pow)
              and isinstance(node.right, ast.BinOp) and isinstance(node.right.op, ast.Sub)
              and getattr(node.right.left, "id", None) == "m"]
    assert powers == ["count_probs"]


def test_one_fit_on_plus_booleans():
    """Outside the learner classes, ``learners.fit`` is the only call that
    fits on plus booleans: every ``fit_batch`` call in ``src/`` sits in the
    module function ``learners.fit``. No sample takes another form: ``src/``
    names no ``int8``."""
    sites, int8 = set(), []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        for top in tree.body:
            if _calls_named(top, "fit_batch"):
                sites.add((path.name, top.name))
        int8 += [f"{path.name}:{node.lineno}" for node in ast.walk(tree)
                 if isinstance(node, ast.Attribute) and node.attr == "int8"
                 or isinstance(node, ast.Constant) and node.value == "int8"]
    assert sites == {("learners.py", "fit")}
    assert not int8, f"int8 sign tensors in the program: {int8}"


def test_codebooks_grouped_by_value():
    """Codebooks and per-atom sums group by value with numpy's own
    primitives: ``src/`` holds no ufunc scatter (``.at``), ``reduceat`` or
    ``lexsort``; ``output_atoms`` and ``_selection_counts`` sort nothing
    themselves; and the chain rule labels an output coordinate with
    ``np.unique``, not ``unique_rows``."""
    trees = {path.name: ast.parse(path.read_text(), filename=str(path))
             for path in sorted(SRC.glob("*.py"))}
    found = [f"{name}:{node.lineno}" for name, tree in trees.items()
             for node in ast.walk(tree)
             if isinstance(node, ast.Attribute) and node.attr in ("at", "reduceat", "lexsort")]
    assert not found, f"scatter or reduceat in the program: {found}"
    funcs = {(name, func.name): func for name, tree in trees.items()
             for func in tree.body if isinstance(func, FUNCS)}
    for site in (("learners.py", "output_atoms"), ("bounds.py", "_selection_counts")):
        assert not [call for word in ("sort", "argsort", "searchsorted")
                    for call in _calls_named(funcs[site], word)], site
    chain_rule = funcs["bounds.py", "chain_rule_decomposition"]
    assert not _calls_named(chain_rule, "unique_rows")
    assert _calls_named(chain_rule, "unique")

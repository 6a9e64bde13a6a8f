"""Span recorder for the traced run, wrapped around the program from outside.

``Recorder.install()`` replaces every public function of ``harness``,
``learners``, ``bounds``, ``mc``, ``sco`` and ``infotheory`` at every module
attribute it is looked up under (``bounds`` and ``harness`` import
``exact_channel`` and friends by name), the learners' ``fit_batch`` and
``coord_outputs`` methods, the ``Channel``/``CoordinateChannel`` reductions,
and ``numpy.unique``. Each call becomes a span (id, name, start, end,
parent, thread, counts) kept in memory; ``write`` dumps them as JSON and
``layer_metrics`` reduces them to the per-layer metrics.

Only ``numpy.unique(..., axis=0)`` calls become spans, recorded as
``learners.codebook_unique`` under whatever span encloses them. That name
covers every row dedup, wherever it is called from: the codebook in
``learners.exact_channel``, but also ``bounds.cmi_exact``'s own dedup of the
supersample outputs (most of ``cmi``'s time), ``bounds._group_labels``,
``learners.aggregated_mi``, ``learners.reachable_outputs`` and
``learners.epsilon_net``. Monte Carlo chunks run in worker threads; each becomes a
``mc.chunk`` span whose parent is the ``mc.chunked_trials`` call that owns it.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import itertools
import json
import threading
import time
from pathlib import Path

import numpy as np

from workloads import SHIPPED_EXPERIMENTS

LAYERS = ("harness", "learners", "bounds", "mc", "sco", "infotheory")
LEARNER_METHODS = ("fit_batch", "coord_outputs")
REDUCTIONS = {
    "Channel": ("output_marginal", "mutual_information", "output_entropy",
                "expected_generalization_gap", "expected_excess_risk"),
    "CoordinateChannel": ("mutual_information", "mi_value_vs_sum"),
}

# span tuple fields
ID, NAME, START, END, PARENT, THREAD, COUNTS = range(7)


def _enumeration_counts(args, kwargs, result):
    """Sizes of enumerate_sign_space(m, d), computed from array shapes.

    Bytes: the int64 index (8n), the two (n, m*d) int64 temporaries of the
    shift-and-mask (16 n m d), and the int8 result (n m d). These are
    computed, not measured.
    """
    n, m, d = result.shape
    cells = m * d
    return {"patterns": n, "lattice_points": (m + 1) ** d,
            "bytes_computed": 8 * n + 16 * n * cells + n * cells}


def _sample_signs_counts(args, kwargs, result):
    return {"draws": int(result.size)}


def _fit_batch_counts(args, kwargs, result):
    return {"rows": int(args[1].shape[0])}


COUNTERS = {"learners.enumerate_sign_space": _enumeration_counts,
            "sco.sample_signs": _sample_signs_counts}


def _run_label(args, kwargs):
    return Path(args[0]).stem  # the benchmark names each config <experiment>.ini


class Recorder:
    def __init__(self):
        self.spans = []
        self._ids = itertools.count(1)
        self._lock = threading.Lock()
        self._local = threading.local()
        self._patches = []  # (owner, attribute, original)
        self._wrapped = {}  # id(original function) -> wrapper

    # -- spans -------------------------------------------------------------

    def _open(self, name, parent=None):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        if parent is None and stack:
            parent = stack[-1][ID]
        with self._lock:
            span = [next(self._ids), name, time.perf_counter(), None, parent,
                    threading.get_ident(), None]
            self.spans.append(span)
        stack.append(span)
        return span

    def _close(self, span):
        span[END] = time.perf_counter()
        self._local.stack.pop()

    def _wrap(self, fn, name, counts=None, label=None):
        rec = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = rec._open(name if label is None else f"{name}[{label(args, kwargs)}]")
            try:
                result = fn(*args, **kwargs)
            finally:
                rec._close(span)
            if counts is not None:
                span[COUNTS] = counts(args, kwargs, result)
            return result

        return wrapper

    def _wrap_chunked_trials(self, fn, worker_count):
        rec = self

        @functools.wraps(fn)
        def wrapper(chunk_fn, n_trials, *args, **kwargs):
            span = rec._open("mc.chunked_trials")
            chunks = itertools.count()

            def timed_chunk(rng, size):
                next(chunks)
                inner = rec._open("mc.chunk", parent=span[ID])
                try:
                    return chunk_fn(rng, size)
                finally:
                    rec._close(inner)

            cpu = time.process_time()
            try:
                result = fn(timed_chunk, n_trials, *args, **kwargs)
            finally:
                rec._close(span)
            n_chunks = next(chunks)
            span[COUNTS] = {"trials": int(n_trials), "chunks": n_chunks,
                            "workers": max(1, min(worker_count(), n_chunks)),
                            "cpu_s": time.process_time() - cpu}
            return result

        return wrapper

    def _unique(self, fn):
        rec = self

        @functools.wraps(fn)
        def unique(ar, *args, **kwargs):
            if kwargs.get("axis") != 0:
                return fn(ar, *args, **kwargs)
            span = rec._open("learners.codebook_unique")
            try:
                result = fn(ar, *args, **kwargs)
            finally:
                rec._close(span)
            atoms = result[0] if isinstance(result, tuple) else result
            span[COUNTS] = {"rows": int(np.shape(ar)[0]), "atoms": int(atoms.shape[0])}
            return result

        return unique

    # -- install / uninstall -----------------------------------------------

    def _patch(self, owner, attr, new):
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, new)

    def _function_wrapper(self, fn, worker_count):
        if id(fn) in self._wrapped:
            return self._wrapped[id(fn)]
        layer = fn.__module__.rsplit(".", 1)[1]
        name = f"{layer}.{fn.__name__}"
        if name == "mc.chunked_trials":
            wrapper = self._wrap_chunked_trials(fn, worker_count)
        else:
            wrapper = self._wrap(fn, name, counts=COUNTERS.get(name),
                                 label=_run_label if name == "harness.run" else None)
        self._wrapped[id(fn)] = wrapper
        return wrapper

    def install(self):
        modules = {name: importlib.import_module(f"mi_sco_lab.{name}") for name in LAYERS}
        worker_count = modules["mc"].worker_count  # unwrapped: no stray spans
        for module in modules.values():
            for attr, obj in list(vars(module).items()):
                if (attr.startswith("_") or not inspect.isfunction(obj)
                        or not obj.__module__.startswith("mi_sco_lab.")):
                    continue
                self._patch(module, attr, self._function_wrapper(obj, worker_count))
        learners = modules["learners"]
        for cls in vars(learners).values():
            if not inspect.isclass(cls) or cls.__module__ != learners.__name__:
                continue
            for meth in LEARNER_METHODS:
                if meth in vars(cls):
                    counts = _fit_batch_counts if meth == "fit_batch" else None
                    self._patch(cls, meth, self._wrap(vars(cls)[meth],
                                                      f"learners.{meth}", counts=counts))
            for meth in REDUCTIONS.get(cls.__name__, ()):
                self._patch(cls, meth, self._wrap(vars(cls)[meth],
                                                  f"learners.{cls.__name__}.{meth}"))
        self._patch(np, "unique", self._unique(np.unique))

    def uninstall(self):
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def write(self, path):
        fields = ("id", "name", "start", "end", "parent", "thread", "counts")
        with open(path, "w") as fh:
            json.dump({"fields": fields, "spans": self.spans}, fh)

    # -- reduction ---------------------------------------------------------

    def layer_metrics(self) -> dict:
        return LayerMetrics(self.spans).compute()


def _union_length(intervals) -> float:
    total, reach = 0.0, float("-inf")
    for start, end in sorted(intervals):
        start = max(start, reach)
        if end > start:
            total += end - start
        reach = max(reach, end)
    return total


class LayerMetrics:
    """Reduce closed spans to the per-layer metrics (seconds, counts)."""

    def __init__(self, spans):
        self.spans = [s for s in spans if s[END] is not None]
        self.by_id = {s[ID]: s for s in self.spans}
        self.children = {}
        for s in self.spans:
            self.children.setdefault(s[PARENT], []).append(s)

    @staticmethod
    def _dur(s) -> float:
        return s[END] - s[START]

    def _ancestors(self, s):
        parent = self.by_id.get(s[PARENT])
        while parent is not None:
            yield parent
            parent = self.by_id.get(parent[PARENT])

    def outermost(self, pred) -> list:
        """Spans matching pred with no matching ancestor (no double count)."""
        return [s for s in self.spans
                if pred(s) and not any(pred(a) for a in self._ancestors(s))]

    def named(self, name) -> list:
        return self.outermost(lambda s: s[NAME] == name)

    def spans_named(self, name) -> list:
        """Every span with this name, nested or not (for counts)."""
        return [s for s in self.spans if s[NAME] == name]

    def seconds(self, spans) -> float:
        return sum(self._dur(s) for s in spans)

    @staticmethod
    def count_sum(spans, key) -> int | float:
        return sum((s[COUNTS] or {}).get(key, 0) for s in spans)

    def self_seconds(self, spans, same_layer=None) -> float:
        """Duration minus the union of the child intervals.

        With ``same_layer``, children in that layer count as self time and
        their own children are looked through instead.
        """
        total = 0.0
        for s in spans:
            covered, todo = [], list(self.children.get(s[ID], ()))
            while todo:
                c = todo.pop()
                if same_layer is not None and c[NAME].startswith(same_layer + "."):
                    todo.extend(self.children.get(c[ID], ()))
                else:
                    covered.append((max(c[START], s[START]), min(c[END], s[END])))
            total += self._dur(s) - _union_length(covered)
        return total

    def compute(self) -> dict:
        named, seconds, count_sum = self.named, self.seconds, self.count_sum
        out = {}
        for exp in SHIPPED_EXPERIMENTS:
            out[f"harness.run.{exp}_s"] = seconds(named(f"harness.run[{exp}]"))
        harness = self.outermost(lambda s: s[NAME].startswith("harness."))
        out["harness.self_s"] = self.self_seconds(harness, same_layer="harness")

        enum = self.spans_named("learners.enumerate_sign_space")
        out["learners.enumerate_s"] = seconds(named("learners.enumerate_sign_space"))
        patterns = count_sum(enum, "patterns")
        out["learners.patterns"] = patterns
        out["learners.enum_bytes_computed"] = count_sum(enum, "bytes_computed")
        out["learners.sign_space_probs_s"] = seconds(named("learners.sign_space_probs"))
        unique = self.spans_named("learners.codebook_unique")
        rows, atoms = count_sum(unique, "rows"), count_sum(unique, "atoms")
        out["learners.codebook_unique_s"] = seconds(named("learners.codebook_unique"))
        out["learners.codebook_rows"] = rows
        out["learners.codebook_atoms"] = atoms
        out["learners.dedup_ratio"] = atoms / rows if rows else 0.0
        lattice = count_sum(enum, "lattice_points")
        out["learners.counts_per_pattern"] = lattice / patterns if patterns else 0.0
        fits = named("learners.fit_batch")
        out["learners.fit_batch_s"] = seconds(fits)
        out["learners.fit_batch_calls"] = len(fits)
        out["learners.fit_batch_rows"] = count_sum(fits, "rows")
        out["learners.coord_outputs_s"] = seconds(named("learners.coord_outputs"))
        reductions = {f"learners.{cls}.{m}" for cls, ms in REDUCTIONS.items() for m in ms}
        out["learners.channel_reductions_s"] = seconds(
            self.outermost(lambda s: s[NAME] in reductions))

        cmi = named("bounds.cmi_exact")
        out["bounds.cmi_exact_s"] = seconds(cmi)
        out["bounds.cmi_exact_calls"] = len(cmi)
        for metric, fn in (("chain_rule", "bounds.chain_rule_decomposition"),
                           ("good_coordinates", "bounds.good_coordinates"),
                           ("pilot_normalizers", "bounds.pilot_normalizers"),
                           ("measured_excess_risk", "bounds.measured_excess_risk"),
                           ("fingerprint_expectation", "bounds.fingerprint_expectation"),
                           ("exact_mi", "learners.exact_mutual_information")):
            out[f"bounds.{metric}_s"] = seconds(named(fn))
        out["bounds.theorem1_self_s"] = self.self_seconds(
            self.spans_named("bounds.theorem1_certificate"))

        trials = named("mc.chunked_trials")
        wall = seconds(trials)
        busy = seconds(self.spans_named("mc.chunk"))
        n_trials = count_sum(trials, "trials")
        capacity = sum(self._dur(s) * s[COUNTS]["workers"] for s in trials)
        out["mc.chunked_trials_s"] = wall
        out["mc.chunks"] = count_sum(trials, "chunks")
        out["mc.trials"] = n_trials
        out["mc.trials_per_s"] = n_trials / wall if wall else 0.0
        out["mc.chunk_busy_s"] = busy
        out["mc.parallel_eff"] = busy / capacity if capacity else 0.0
        out["mc.cpu_per_wall"] = count_sum(trials, "cpu_s") / wall if wall else 0.0

        out["sco.sample_signs_s"] = seconds(named("sco.sample_signs"))
        out["sco.sample_signs_draws"] = count_sum(self.spans_named("sco.sample_signs"), "draws")
        out["sco.sample_s"] = seconds(named("sco.sample"))

        info = [s for s in self.spans if s[NAME].startswith("infotheory.")]
        out["infotheory.s"] = seconds(
            self.outermost(lambda s: s[NAME].startswith("infotheory.")))
        out["infotheory.calls"] = len(info)
        return out

"""Per-layer tracing of the engine, from outside it.

:meth:`Tracer.install` replaces the public functions and methods of the
``vertexbound`` modules with wrappers, and :meth:`Tracer.uninstall` puts
the originals back, so untraced passes run the unmodified engine.  A
wrapper either records a span (name, start, end, parent span, op) or,
on the two hottest methods, only counts calls.  Spans stay in memory
until :meth:`Tracer.write` dumps them as JSON lines; per-layer metrics
are derived per pass from the spans and counts, with self times taken
from the span tree.

The layers are the engine's module names.  Module-level functions are
patched in every namespace that imported them by name, including the
benchmark's own ``workloads`` module.
"""

from __future__ import annotations

import functools
import itertools
import json
import sys
import threading
import weakref
from collections import Counter, defaultdict
from time import perf_counter

from vertexbound import cache, cli, cofinite, config, frobenius, fusion, laurent, linalg, modes, reduction, voa

# (owner, attribute, span name); two functions may share one span name
SPANNED = (
    (modes, "mode_action", "modes.mode_action"),
    (modes, "run_identity_suite", "modes.run_identity_suite"),
    (linalg.RowSpan, "add", "linalg.rowspan_add"),
    (reduction, "reduce", "reduction.reduce"),
    (reduction, "assemble_ode", "reduction.assemble_ode"),
    (cofinite, "build_cm", "cofinite.build_cm"),
    (cofinite, "choose_complement", "cofinite.choose_complement"),
    (cofinite, "cm_quotient_dims", "cofinite.cm_quotient_dims"),
    (cofinite, "graded_dims", "cofinite.graded_dims"),
    (fusion, "heisenberg_intertwiner", "fusion.heisenberg_intertwiner"),
    (fusion, "join", "fusion.join"),
    (fusion, "compare", "fusion.compare"),
    (frobenius, "indicial_exponents", "frobenius.indicial_exponents"),
    (frobenius, "frobenius_series", "frobenius.frobenius_series"),
    (voa, "realize_voa", "voa.realize"),
    (voa, "realize_module", "voa.realize"),
    (cli, "main", "cli.main"),
    (config.RunConfig, "from_file", "config.from_file"),
    (cache.ModeMatrixCache, "load_or_build", "cache.load_or_build"),
)

# thread switch interval while traced: longer than any traced pass
UNPREEMPTED_SWITCH_S = 1000.0

# the eliminating ExactMatrix methods; only the outermost call is a span
ELIMINATING = ("rref", "rank", "solve", "nullspace")

# per-layer metric name -> unit, in report order
PER_LAYER_UNITS = {
    "modes.apply_word.calls": "count",
    "modes.apply_word.repeat_ratio": "ratio",
    "modes.mode_action.calls": "count",
    "modes.mode_action_s": "s",
    "modes.run_identity_suite_s": "s",
    "modes.checks": "count",
    "linalg.elim.calls": "count",
    "linalg.elim_s": "s",
    "linalg.elim_cells": "count",
    "linalg.elim_max_rows": "count",
    "linalg.elim_max_cols": "count",
    "linalg.rowspan_add.calls": "count",
    "linalg.rowspan_add_s": "s",
    "linalg.rowspan_add.useful_ratio": "ratio",
    "reduction.reduce.calls": "count",
    "reduction.reduce_s": "s",
    "reduction.mode_actions_per_pair": "count",
    "reduction.solves_per_pair": "count",
    "reduction.assemble_ode_s": "s",
    "cofinite.build_cm.calls": "count",
    "cofinite.build_cm_s": "s",
    "cofinite.choose_complement_s": "s",
    "cofinite.cm_quotient_dims_s": "s",
    "cofinite.graded_dims_s": "s",
    "fusion.heisenberg_intertwiner_s": "s",
    "fusion.join_s": "s",
    "fusion.compare_s": "s",
    "fusion.compare.elim_cells": "count",
    "fusion.compare.max_rows": "count",
    "fusion.compare.max_cols": "count",
    "frobenius.indicial_exponents_s": "s",
    "frobenius.frobenius_series_s": "s",
    "voa.realize.calls": "count",
    "voa.realize_s": "s",
    "cli.main.calls": "count",
    "cli.main.self_s": "s",
    "config.from_file_s": "s",
    "cache.load_or_build.calls": "count",
    "cache.load_or_build_s": "s",
    "cache.hit_ratio": "ratio",
    "laurent.mul.calls": "count",
    "trace.overhead_ratio": "ratio",
}

# self-time metrics: metric name -> span name
SELF_TIMES = {
    "modes.mode_action_s": "modes.mode_action",
    "modes.run_identity_suite_s": "modes.run_identity_suite",
    "linalg.elim_s": "linalg.elim",
    "linalg.rowspan_add_s": "linalg.rowspan_add",
    "reduction.reduce_s": "reduction.reduce",
    "reduction.assemble_ode_s": "reduction.assemble_ode",
    "cofinite.build_cm_s": "cofinite.build_cm",
    "cofinite.choose_complement_s": "cofinite.choose_complement",
    "cofinite.cm_quotient_dims_s": "cofinite.cm_quotient_dims",
    "cofinite.graded_dims_s": "cofinite.graded_dims",
    "fusion.heisenberg_intertwiner_s": "fusion.heisenberg_intertwiner",
    "fusion.join_s": "fusion.join",
    "fusion.compare_s": "fusion.compare",
    "frobenius.indicial_exponents_s": "frobenius.indicial_exponents",
    "frobenius.frobenius_series_s": "frobenius.frobenius_series",
    "voa.realize_s": "voa.realize",
    "cli.main.self_s": "cli.main",
    "config.from_file_s": "config.from_file",
    "cache.load_or_build_s": "cache.load_or_build",
}


def _ratio(part, whole) -> float:
    return part / whole if whole else 0.0


class Tracer:
    """Spans and counters for one traced process.

    ``op`` names the op in progress; the workload runner sets it, and
    every span records it.  Counts are per pass (:meth:`begin_pass`
    clears them); spans accumulate over the whole run.  Spans are timed
    by ``clock``, so they can leave out time the benchmark spends on its
    own measurements.
    """

    def __init__(self, clock=perf_counter):
        self.clock = clock
        self.op = None
        self.spans = []  # (id, name, start, end, parent id, op)
        self.counts = Counter()
        self.maxima = Counter()
        self._pass_start = 0
        self._epoch = clock()
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._switch_interval = None
        self._seen_words = set()
        self._engines = weakref.WeakKeyDictionary()
        self._patches = []

    # -- span bookkeeping ----------------------------------------------

    def _state(self):
        local = self._local
        if not hasattr(local, "stack"):
            local.stack = []
            local.open = Counter()
            local.elim_depth = 0
        return local

    def _span(self, name, call, args, kwargs, after=None):
        local = self._state()
        stack = local.stack
        sid = next(self._ids)
        parent = stack[-1] if stack else None
        stack.append(sid)
        local.open[name] += 1
        self.counts[name + ".calls"] += 1
        start = self.clock()
        try:
            result = call(*args, **kwargs)
        finally:
            end = self.clock()
            stack.pop()
            local.open[name] -= 1
            self.spans.append((sid, name, start, end, parent, self.op))
        if after is not None:
            after(result)
        return result

    def _spanned(self, name, fn):
        after = {
            "modes.run_identity_suite": lambda report: self._add("modes.checks", report.total_checked),
            "linalg.rowspan_add": lambda grew: self._add("linalg.rowspan_add.useful", bool(grew)),
            "cache.load_or_build": lambda out: self._add("cache.hits", out[1] == "hit"),
        }.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if name == "modes.mode_action" and self._state().open["reduction.reduce"]:
                self.counts["reduction.mode_actions"] += 1
            return self._span(name, fn, args, kwargs, after)
        return wrapper

    def _add(self, key, amount):
        self.counts[key] += amount

    def _shape(self, cells, max_rows, max_cols, rows, cols):
        self.counts[cells] += rows * cols
        self.maxima[max_rows] = max(self.maxima[max_rows], rows)
        self.maxima[max_cols] = max(self.maxima[max_cols], cols)

    def _eliminating(self, method, fn):
        @functools.wraps(fn)
        def wrapper(matrix, *args, **kwargs):
            local = self._state()
            if method == "solve" and local.open["reduction.reduce"]:
                self.counts["reduction.solves"] += 1
            if local.elim_depth:
                return fn(matrix, *args, **kwargs)
            rows, cols = matrix.rows, matrix.cols
            self._shape("linalg.elim_cells", "linalg.elim_max_rows", "linalg.elim_max_cols", rows, cols)
            if local.open["fusion.compare"]:
                self._shape("fusion.compare.elim_cells", "fusion.compare.max_rows",
                            "fusion.compare.max_cols", rows, cols)
            local.elim_depth += 1
            try:
                return self._span("linalg.elim", fn, (matrix, *args), kwargs)
            finally:
                local.elim_depth -= 1
        return wrapper

    def _apply_word(self, fn):
        counts, seen, engines, serials = self.counts, self._seen_words, self._engines, self._ids

        @functools.wraps(fn)
        def wrapper(engine, v_word, k, w_key):
            serial = engines.get(engine)
            if serial is None:
                serial = engines[engine] = next(serials)
            key = (serial, v_word, k, w_key)
            counts["modes.apply_word.calls"] += 1
            if key in seen:
                counts["modes.apply_word.repeats"] += 1
            else:
                seen.add(key)
            return fn(engine, v_word, k, w_key)
        return wrapper

    def _laurent_mul(self, fn):
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(left, right):
            counts["laurent.mul.calls"] += 1
            return fn(left, right)
        return wrapper

    # -- installing the wrappers ---------------------------------------

    def _patch(self, owner, attr, replacement):
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, replacement)

    def install(self, *extra_modules) -> None:
        """Wrap every traced function and method, here and in ``extra_modules``.

        Also raises the interpreter's thread switch interval until
        :meth:`uninstall`.  The identity suite's worker threads then run
        their task blocks without preemption (under the GIL they never
        ran in parallel anyway), so two threads never race to fill the
        same ModeEngine memo entry and the call counts, unlike the
        untraced schedule, do not depend on thread interleaving.
        """
        self._switch_interval = sys.getswitchinterval()
        sys.setswitchinterval(UNPREEMPTED_SWITCH_S)
        namespaces = [m for n, m in sorted(sys.modules.items()) if n.startswith("vertexbound")]
        namespaces.extend(extra_modules)
        for owner, attr, name in SPANNED:
            original = owner.__dict__[attr]
            if isinstance(original, classmethod):
                self._patch(owner, attr, classmethod(self._spanned(name, original.__func__)))
            elif isinstance(owner, type):
                self._patch(owner, attr, self._spanned(name, original))
            else:
                wrapper = self._spanned(name, original)
                for namespace in namespaces:
                    for key, value in list(vars(namespace).items()):
                        if value is original:
                            self._patch(namespace, key, wrapper)
        for method in ELIMINATING:
            self._patch(linalg.ExactMatrix, method,
                        self._eliminating(method, linalg.ExactMatrix.__dict__[method]))
        self._patch(modes.ModeEngine, "apply_word", self._apply_word(modes.ModeEngine.apply_word))
        self._patch(laurent.LaurentPoly, "__mul__", self._laurent_mul(laurent.LaurentPoly.__mul__))

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)
        if self._switch_interval is not None:
            sys.setswitchinterval(self._switch_interval)
            self._switch_interval = None

    # -- per-pass metrics ----------------------------------------------

    def begin_pass(self) -> None:
        self._pass_start = len(self.spans)
        self.counts.clear()
        self.maxima.clear()
        self._seen_words.clear()

    def pass_metrics(self) -> dict:
        """Per-layer metrics of the spans and counts since :meth:`begin_pass`."""
        spans = self.spans[self._pass_start:]
        covered = defaultdict(float)
        for _sid, _name, start, end, parent, _op in spans:
            if parent is not None:
                covered[parent] += end - start
        self_time = defaultdict(float)
        for sid, name, start, end, _parent, _op in spans:
            self_time[name] += end - start - covered[sid]
        c, mx = self.counts, self.maxima
        pairs = c["reduction.reduce.calls"]
        out = {
            "modes.apply_word.calls": c["modes.apply_word.calls"],
            "modes.apply_word.repeat_ratio": _ratio(c["modes.apply_word.repeats"], c["modes.apply_word.calls"]),
            "modes.mode_action.calls": c["modes.mode_action.calls"],
            "modes.checks": c["modes.checks"],
            "linalg.elim.calls": c["linalg.elim.calls"],
            "linalg.elim_cells": c["linalg.elim_cells"],
            "linalg.elim_max_rows": mx["linalg.elim_max_rows"],
            "linalg.elim_max_cols": mx["linalg.elim_max_cols"],
            "linalg.rowspan_add.calls": c["linalg.rowspan_add.calls"],
            "linalg.rowspan_add.useful_ratio": _ratio(c["linalg.rowspan_add.useful"], c["linalg.rowspan_add.calls"]),
            "reduction.reduce.calls": pairs,
            "reduction.mode_actions_per_pair": _ratio(c["reduction.mode_actions"], pairs),
            "reduction.solves_per_pair": _ratio(c["reduction.solves"], pairs),
            "cofinite.build_cm.calls": c["cofinite.build_cm.calls"],
            "fusion.compare.elim_cells": c["fusion.compare.elim_cells"],
            "fusion.compare.max_rows": mx["fusion.compare.max_rows"],
            "fusion.compare.max_cols": mx["fusion.compare.max_cols"],
            "voa.realize.calls": c["voa.realize.calls"],
            "cli.main.calls": c["cli.main.calls"],
            "cache.load_or_build.calls": c["cache.load_or_build.calls"],
            "cache.hit_ratio": _ratio(c["cache.hits"], c["cache.load_or_build.calls"]),
            "laurent.mul.calls": c["laurent.mul.calls"],
        }
        for metric, span_name in SELF_TIMES.items():
            out[metric] = self_time[span_name]
        return out

    def write(self, path) -> None:
        """Dump every recorded span as one JSON object per line."""
        with open(path, "w", encoding="utf-8") as handle:
            for sid, name, start, end, parent, op in self.spans:
                handle.write(json.dumps({
                    "id": sid, "name": name, "parent": parent, "op": op,
                    "start": start - self._epoch, "end": end - self._epoch,
                }, separators=(",", ":")) + "\n")

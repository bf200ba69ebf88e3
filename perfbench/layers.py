"""Span tracing of the eight nilorb modules, used as layers.

`Tracer.install()` wraps every public function of each module, every public
method of the classes the module defines, and the constructors of
`RootSystem`, `ChevalleyAlgebra` and `Grading`.  The wrappers replace the
module attributes, the class attributes, every name another module (or the
package) imported from them, and the suite functions held in `cli.SUITES`.
`uninstall()` puts the originals back.

Each call records one span: name, start, end, parent span and run id (the
benchmark item being run, 0 during set-up).  Spans stay in memory, in flat
arrays, until `metrics()` turns them into the per-layer numbers.  A span's
self time is its duration minus the durations of its child spans; spans of
one thread nest strictly, so the children never overlap.
"""

import functools
import importlib
import inspect
from array import array
from collections import Counter
from time import perf_counter

LAYERS = ("rootsys", "chevalley", "linalg", "dynkin", "partitions", "curated",
          "matmodel", "cli")
CONSTRUCTORS = ("RootSystem", "ChevalleyAlgebra", "Grading")

SUITES = ("exceptional-dimensions", "classical-dimensions", "closure-order",
          "nilpotency-equivalences", "g2-classification", "short-diagrams",
          "f4-exclusion", "e-type-facts", "shared-orbit-table", "sp-model",
          "property-battery")

# metric prefix -> span name, for the functions the metrics single out
FUNCTIONS = {
    "rootsys.inner": "rootsys.RootSystem.inner",
    "chevalley.bracket": "chevalley.ChevalleyAlgebra.bracket",
    "chevalley.killing": "chevalley.ChevalleyAlgebra.killing",
    "chevalley.ad_columns": "chevalley.ChevalleyAlgebra.ad_columns",
    "chevalley.centralizer": "chevalley.ChevalleyAlgebra.centralizer",
    "chevalley.centralizer_dim": "chevalley.ChevalleyAlgebra.centralizer_dim",
    "chevalley.is_ad_nilpotent": "chevalley.ChevalleyAlgebra.is_ad_nilpotent",
    "linalg.rref": "linalg.rref",
    "linalg.solve": "linalg.solve",
    "linalg.kernel_basis": "linalg.kernel_basis",
    "linalg.rank": "linalg.rank",
    "linalg.sparse_rank": "linalg.sparse_rank",
    "dynkin.sl2_complete": "dynkin.sl2_complete",
    "dynkin.generic_degree_two": "dynkin.generic_degree_two",
    "dynkin.grading": "dynkin.Grading.__init__",
    "dynkin.nilpotency_report": "dynkin.nilpotency_report",
    "dynkin.pairing_criterion": "dynkin.pairing_criterion",
    "dynkin.omega_kernel_dim": "dynkin.omega_kernel_dim",
    "matmodel.kk_rank_at": "matmodel.kk_rank_at",
    "matmodel.product_cover_degree": "matmodel.product_cover_degree",
    "curated.validate_tables": "curated.validate_tables",
}
CALLS = ("rootsys.inner", "chevalley.bracket", "linalg.rref", "linalg.solve",
         "linalg.sparse_rank", "dynkin.sl2_complete")
SELF = tuple(k for k in FUNCTIONS if k not in ("linalg.solve",))
BUILDS = {"rootsys.build_s": "rootsys.RootSystem.__init__",
          "chevalley.build_s": "chevalley.ChevalleyAlgebra.__init__"}


def _bracket_terms(counters, args, out):
    counters["chevalley.bracket.terms"] += len(args[1].coeffs) * len(args[2].coeffs)


def _rref_cells(counters, args, out):
    rows = args[0]
    counters["linalg.rref.cells"] += len(rows) * (len(rows[0]) if rows else 0)


def _solve_none(counters, args, out):
    counters["linalg.solve.none"] += out is None


def _sparse_nnz(counters, args, out):
    counters["linalg.sparse_rank.nnz"] += sum(len(r) for r in args[0])


HOOKS = {
    "chevalley.ChevalleyAlgebra.bracket": _bracket_terms,
    "linalg.rref": _rref_cells,
    "linalg.solve": _solve_none,
    "linalg.sparse_rank": _sparse_nnz,
}
COUNTERS = ("chevalley.bracket.terms", "linalg.rref.cells", "linalg.solve.none",
            "linalg.sparse_rank.nnz")


class Tracer:
    def __init__(self):
        self.names = []
        self._ids = {}
        self.name = array("i")
        self.parent = array("i")
        self.run = array("i")
        self.raised = array("b")
        self.start = array("d")
        self.end = array("d")
        self.counters = Counter()
        self.run_id = 0
        self._stack = [-1]
        self._undo = []
        self._suite_spans = {}

    # -- wrapping ---------------------------------------------------------

    def _wrap(self, fn, span_name):
        nid = self._ids.get(span_name)
        if nid is None:
            nid = self._ids[span_name] = len(self.names)
            self.names.append(span_name)
        hook = HOOKS.get(span_name)
        stack, name, parent, run = self._stack, self.name, self.parent, self.run
        raised, start, end = self.raised, self.start, self.end

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            i = len(start)
            name.append(nid)
            parent.append(stack[-1])
            run.append(self.run_id)
            raised.append(0)
            end.append(0.0)
            stack.append(i)
            start.append(perf_counter())
            try:
                out = fn(*args, **kwargs)
            except BaseException:
                raised[i] = 1
                raise
            finally:
                end[i] = perf_counter()
                stack.pop()
            if hook is not None:
                hook(self.counters, args, out)
            return out

        return wrapper

    def _set(self, obj, attr, value):
        self._undo.append((obj, attr, getattr(obj, attr)))
        setattr(obj, attr, value)

    def install(self):
        if self._undo:
            raise RuntimeError("tracer already installed")
        modules = {layer: importlib.import_module(f"nilorb.{layer}") for layer in LAYERS}
        wrapped = {}  # id(original function) -> wrapper
        for layer, mod in modules.items():
            for attr, val in list(vars(mod).items()):
                if inspect.isfunction(val) and val.__module__ == mod.__name__ \
                        and not attr.startswith("_"):
                    wrapped[id(val)] = self._wrap(val, f"{layer}.{attr}")
                elif inspect.isclass(val) and val.__module__ == mod.__name__:
                    for mattr, meth in list(vars(val).items()):
                        public = not mattr.startswith("_") or (
                            mattr == "__init__" and val.__name__ in CONSTRUCTORS)
                        if inspect.isfunction(meth) and public:
                            self._set(val, mattr, self._wrap(
                                meth, f"{layer}.{val.__name__}.{mattr}"))
        # every module-level name bound to a wrapped function, including the
        # names other modules and the package imported
        for mod in [*modules.values(), importlib.import_module("nilorb")]:
            for attr, val in list(vars(mod).items()):
                if id(val) in wrapped and inspect.isfunction(val):
                    self._set(mod, attr, wrapped[id(val)])
        suites = modules["cli"].SUITES
        original = list(suites)
        self._undo.append((suites, slice(None), original))
        for k, (name, aliases, fn) in enumerate(original):
            suites[k] = (name, aliases, wrapped[id(fn)])
            self._suite_spans[name] = f"cli.{fn.__name__}"

    def uninstall(self):
        while self._undo:
            obj, attr, val = self._undo.pop()
            if isinstance(attr, slice):
                obj[attr] = val
            else:
                setattr(obj, attr, val)

    # -- summary ----------------------------------------------------------

    def self_times(self):
        """Self time of every span, in span order."""
        n = len(self.start)
        dur = [self.end[i] - self.start[i] for i in range(n)]
        own = list(dur)
        for i in range(n):
            p = self.parent[i]
            if p >= 0:
                own[p] -= dur[i]
        return dur, own

    def metrics(self, wall_s, overhead_s):
        """Name -> (value, unit) of the per-layer metrics over every span
        recorded so far; an empty tracer gives every name with value 0."""
        dur, own = self.self_times()
        names, layer_of = self.names, [s.split(".", 1)[0] for s in self.names]
        calls, self_s, incl, raised = Counter(), Counter(), Counter(), Counter()
        layer_calls, layer_self = Counter(), Counter()
        for i, nid in enumerate(self.name):
            calls[nid] += 1
            self_s[nid] += own[i]
            incl[nid] += dur[i]
            raised[nid] += self.raised[i]
            layer = layer_of[nid]
            layer_self[layer] += own[i]
            p = self.parent[i]
            if p < 0 or layer_of[self.name[p]] != layer:
                layer_calls[layer] += 1
        by_name = {s: i for i, s in enumerate(names)}

        def get(table, span):
            nid = by_name.get(span)
            return table[nid] if nid is not None else 0

        out = {}
        for key in CALLS:
            out[f"{key}.calls"] = (get(calls, FUNCTIONS[key]), "count")
        for key in COUNTERS:
            out[key] = (self.counters[key], "count")
        attempts = get(calls, FUNCTIONS["dynkin.sl2_complete"])
        ok = attempts - get(raised, FUNCTIONS["dynkin.sl2_complete"])
        out["dynkin.sl2_complete.ok_ratio"] = (ok / attempts if attempts else 0.0, "ratio")
        for key in SELF:
            out[f"{key}.self_s"] = (get(self_s, FUNCTIONS[key]), "s")
        for key, span in BUILDS.items():
            out[key] = (get(incl, span), "s")
        for suite in SUITES:
            out[f"cli.suite.{suite}.s"] = (get(incl, self._suite_spans.get(suite, "")), "s")
        for layer in LAYERS:
            out[f"{layer}.calls"] = (layer_calls[layer], "count")
            out[f"{layer}.self_s"] = (layer_self[layer], "s")
        out["trace.spans"] = (len(self.start), "count")
        out["trace.wall_s"] = (wall_s, "s")
        out["trace.overhead_s"] = (overhead_s, "s")
        return out

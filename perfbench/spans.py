"""Spans and counts around the program's layers, installed from outside.

``Tracer.install`` replaces the public functions of each ``pagid`` module,
wherever a module holds a reference to them, with wrappers that record a
span (name, start, end, parent span, query id).  A few hot methods are
wrapped for counting only.  Recursive calls of one function record only
the outermost span.  Nothing in ``pagid`` is edited.
"""

from __future__ import annotations

import importlib
import inspect
import json
import time

MODULES = ("graph", "represent", "manipulate", "separate", "fci", "identify",
           "oracle", "cli")
SPANNED = {
    # every public function of these modules, besides the names below
    "represent": None, "manipulate": None, "separate": None, "fci": None,
    "identify": None, "oracle": None,
    "graph": ("validate",),
}
SKIP = {"regime_id", "split_id"}  # one-line name helpers
COUNTED = {
    ("graph", "MixedGraph", "__init__"): "graph.builds",
    ("fci", "IndependenceOracle", "query"): "fci.ci_queries",
    ("oracle", "Kernel", "marginalize"): "oracle.kernel_ops",
    ("oracle", "Kernel", "condition"): "oracle.kernel_ops",
}
# per-layer metrics: (name, unit, kind, argument)
METRICS = [
    ("fci.s", "s", "layer_self", "fci"),
    ("fci.ci_queries", "count", "count", "fci.ci_queries"),
    ("oracle.ci_test_calls", "count", "calls", "oracle.ci_test"),
    ("oracle.ci_test_s", "s", "self", "oracle.ci_test"),
    ("identify.sidp_s", "s", "self", "identify.sidp"),
    ("identify.scidp_s", "s", "self", "identify.scidp"),
    ("identify.estimand_tree_nodes", "count", "count", "identify.estimand_tree_nodes"),
    ("identify.estimand_dag_nodes", "count", "count", "identify.estimand_dag_nodes"),
    ("identify.format_s", "s", "self", "identify.format_estimand"),
    ("oracle.eval_s", "s", "self", "oracle.eval_estimand"),
    ("oracle.eval_calls", "count", "calls", "oracle.eval_estimand"),
    ("oracle.kernel_ops", "count", "count", "oracle.kernel_ops"),
    ("identify.hedge_s", "s", "self", "identify.hedge_witness"),
    ("identify.hedge_calls", "count", "calls", "identify.hedge_witness"),
    ("identify.regime_sep_calls", "count", "calls", "identify.maximal_regime_separated"),
    ("identify.verify_hedge_calls", "count", "calls", "identify.verify_hedge"),
    ("identify.verified_hedges", "count", "count", "identify.verified_hedges"),
    ("represent.calls", "count", "layer_calls", "represent"),
    ("represent.s", "s", "layer_self", "represent"),
    ("graph.builds", "count", "count", "graph.builds"),
    ("graph.validate_calls", "count", "calls", "graph.validate"),
    ("graph.validate_s", "s", "self", "graph.validate"),
    ("manipulate.calls", "count", "layer_calls", "manipulate"),
    ("manipulate.s", "s", "layer_self", "manipulate"),
    ("separate.calls", "count", "layer_calls", "separate"),
    ("separate.s", "s", "layer_self", "separate"),
    ("identify.calculus_s", "s", "self", "identify.calculus_check"),
    ("identify.adjustment_s", "s", "self", "identify.adjustment_check"),
    ("cli.self_s", "s", "self", "cli.pipeline"),
]
# results of these calls are estimands whose size is counted
ESTIMAND_SOURCES = {"identify.sidp", "identify.scidp", "identify.adjustment_check"}


def estimand_sizes(e):
    """(tree nodes, distinct node objects) of an estimand: the first counts
    shared subterms once per use, the second once."""
    from pagid import identify as idf

    def children(n):
        if isinstance(n, (idf.Marginalize, idf.Condition)):
            return (n.child,)
        if isinstance(n, idf.OrderedProduct):
            return n.children
        if isinstance(n, idf.BoxProduct):
            return (n.left, n.right)
        if isinstance(n, idf.Compose):
            return (n.outer, n.inner)
        return ()

    tree = {}
    stack = [(e, False)]
    while stack:  # iterative: estimand trees can be deeper than the stack
        n, done = stack.pop()
        if id(n) in tree:
            continue
        if done:
            tree[id(n)] = 1 + sum(tree[id(c)] for c in children(n))
        else:
            stack.append((n, True))
            stack.extend((c, False) for c in children(n) if id(c) not in tree)
    return tree[id(e)], len(tree)


class Tracer:
    def __init__(self):
        self.spans = []  # [name, start, end, parent index, query id, child time]
        self.stack = []
        self.counts = {}
        self.query = None
        self.on = False

    # -- recording ---------------------------------------------------------

    def count(self, name, n=1):
        self.counts[name] = self.counts.get(name, 0) + n

    def span(self, name, fn, args, kwargs):
        if not self.on or (self.stack and self.spans[self.stack[-1]][0] == name):
            return fn(*args, **kwargs)
        parent = self.stack[-1] if self.stack else -1
        rec = [name, time.perf_counter(), 0.0, parent, self.query, 0.0]
        self.spans.append(rec)
        self.stack.append(len(self.spans) - 1)
        try:
            result = fn(*args, **kwargs)
        finally:
            rec[2] = time.perf_counter()
            self.stack.pop()
            if parent >= 0:
                self.spans[parent][5] += rec[2] - rec[1]
        if name in ESTIMAND_SOURCES and not any(
                self.spans[i][0] in ESTIMAND_SOURCES for i in self.stack):
            est = result[1] if name == "identify.adjustment_check" else result
            if est is not None and hasattr(est, "outputs"):
                tree, dag = estimand_sizes(est)
                self.count("identify.estimand_tree_nodes", tree)
                self.count("identify.estimand_dag_nodes", dag)
        if name == "identify.verify_hedge" and result:
            self.count("identify.verified_hedges")
        return result

    # -- installation ------------------------------------------------------

    def _wrap(self, name, fn):
        tracer = self

        def wrapper(*args, **kwargs):
            return tracer.span(name, fn, args, kwargs)

        return wrapper

    def _counter(self, name, fn):
        tracer = self

        def wrapper(*args, **kwargs):
            if tracer.on:
                tracer.count(name)
            return fn(*args, **kwargs)

        return wrapper

    def install(self):
        mods = {m: importlib.import_module("pagid." + m) for m in MODULES}
        swap = {}
        for m, names in SPANNED.items():
            mod = mods[m]
            for attr, fn in vars(mod).items():
                if (not inspect.isfunction(fn) or fn.__module__ != mod.__name__
                        or attr.startswith("_") or attr in SKIP
                        or inspect.isgeneratorfunction(fn)
                        or (names is not None and attr not in names)):
                    continue
                swap[fn] = self._wrap(f"{m}.{attr}", fn)
        for mod in mods.values():
            for attr, value in list(vars(mod).items()):
                if inspect.isfunction(value) and value in swap:
                    setattr(mod, attr, swap[value])
        for (m, cls, meth), name in COUNTED.items():
            klass = getattr(mods[m], cls)
            setattr(klass, meth, self._counter(name, getattr(klass, meth)))

    # -- results -----------------------------------------------------------

    def metrics(self):
        """Per-layer metrics.  A function metric (kind "self") takes the self
        time of its spans plus that of the spans they call in the same
        layer, up to the next function with a metric of its own."""
        owned = {arg for _n, _u, kind, arg in METRICS if kind == "self"}
        self_s, calls, layer_self, layer_calls = {}, {}, {}, {}
        owner = []
        for name, start, end, parent, _q, child in self.spans:
            layer = name.split(".", 1)[0]
            up = self.spans[parent][0] if parent >= 0 else ""
            same = up.startswith(layer + ".")
            owner.append(name if name in owned or not same else owner[parent])
            own = end - start - child
            if owner[-1] in owned:
                self_s[owner[-1]] = self_s.get(owner[-1], 0.0) + own
            calls[name] = calls.get(name, 0) + 1
            layer_self[layer] = layer_self.get(layer, 0.0) + own
            if not same:
                layer_calls[layer] = layer_calls.get(layer, 0) + 1
        source = {"self": self_s, "calls": calls, "layer_self": layer_self,
                  "layer_calls": layer_calls, "count": self.counts}
        return {name: {"value": source[kind].get(arg, 0), "unit": unit}
                for name, unit, kind, arg in METRICS}

    def write(self, path):
        with open(path, "w") as fh:
            for name, start, end, parent, q, _child in self.spans:
                fh.write(json.dumps([name, start, end, parent, q]) + "\n")

"""Independent references the benchmark checks the program's answers against.

Nothing here calls into ``pagid``: distributions come from this module's
own exact enumeration of the truncated factorization, separation from
``networkx.is_d_separator`` on the model's DAG, and identifiability in the
ADMG reading from a fixing test written against plain edge lists.
``selfcheck`` runs each reference on hand-checked cases.
"""

from __future__ import annotations

import itertools
from fractions import Fraction

import networkx as nx

from models import Model, Structure


# -- exact interventional distributions --------------------------------------


class Enumerator:
    """P(A | do(B), C, S=1) with the inputs as context, by enumerating every
    assignment of the non-input, non-intervened variables with each
    selection variable held at 1."""

    def __init__(self, m: Model):
        self.m = m
        self.order = m.topological()
        self.inputs = m.of_kind("input")
        self.outputs = m.of_kind("output")
        self._joints = {}

    def joint(self, B, ctx):
        """Unnormalized {output values: weight} over all outputs (B at its
        do-values) for one assignment ctx of inputs and B."""
        key = (tuple(sorted(B)), tuple(sorted(ctx.items())))
        if key in self._joints:
            return self._joints[key]
        m, B = self.m, set(B)
        out = {}
        a = dict(ctx)

        def walk(i, w):
            if i == len(self.order):
                k = tuple(a[v] for v in self.outputs)
                out[k] = out.get(k, 0) + w
                return
            v = self.order[i]
            if m.kinds[v] == "input" or v in B:
                walk(i + 1, w)
                return
            row = m.cpts[v][tuple(a[p] for p in m.parents[v])]
            vals = (1,) if m.kinds[v] == "selection" else (0, 1)
            for x in vals:
                a[v] = x
                walk(i + 1, w * row[x])
            del a[v]

        walk(0, Fraction(1))
        self._joints[key] = out
        return out

    def kernel(self, A, B=(), C=()):
        """{context tuple over sorted(inputs + B + C): {A tuple: P}}."""
        A, B, C = sorted(A), sorted(B), sorted(C)
        ctx_vars = sorted(set(self.inputs) | set(B) | set(C))
        idx = {v: i for i, v in enumerate(self.outputs)}
        table = {}
        for vals in itertools.product((0, 1), repeat=len(self.inputs) + len(B)):
            ctx = dict(zip(self.inputs + B, vals))
            for k, w in self.joint(B, ctx).items():
                full = dict(ctx)
                full.update((v, k[idx[v]]) for v in C)
                row = table.setdefault(tuple(full[v] for v in ctx_vars), {})
                ka = tuple(k[idx[v]] for v in A)
                row[ka] = row.get(ka, 0) + w
        for row in table.values():
            total = sum(row.values())
            for ka in row:
                row[ka] /= total
        return ctx_vars, table


def kernel_matches(got, ctx_vars, table, A) -> bool:
    """Whether a program kernel (context, outputs, table) equals the
    reference table exactly; context variables the program carries beyond
    the reference must not change the value."""
    if set(got.outputs) != set(A) or not set(ctx_vars) <= set(got.context):
        return False
    A = sorted(A)
    for ctx, row in got.table.items():
        asg = dict(zip(got.context, ctx))
        want = table[tuple(asg[v] for v in ctx_vars)]
        for ka in itertools.product((0, 1), repeat=len(A)):
            o = dict(zip(A, ka))
            if row.get(tuple(o[v] for v in got.outputs), 0) != want.get(ka, 0):
                return False
    return True


# -- separation in the generating DAG ----------------------------------------


def dag_of(m: Model) -> nx.DiGraph:
    g = nx.DiGraph()
    g.add_nodes_from(m.kinds)
    g.add_edges_from((p, v) for v, ps in m.parents.items() for p in ps)
    return g


def regime(v):
    return "F_" + v


def dag_separated(dag, sel, ins, A, B, C=(), soft=(), hard=()) -> bool:
    """A and B d-separated given C, the selection nodes and the inputs, in
    the DAG with the in-edges of `hard` cut and a regime indicator F_v -> v
    added for every v in `soft` (B may name those indicators)."""
    g = dag.copy()
    g.remove_edges_from([(p, v) for v in hard for p in list(g.predecessors(v))])
    g.add_edges_from((regime(v), v) for v in soft)
    cond = set(C) | set(hard) | set(sel) | set(ins)
    return nx.is_d_separator(g, set(A), set(B), cond - set(A) - set(B))


# -- faithfulness --------------------------------------------------------------


def faithful(m: Model) -> bool:
    """Whether every exact conditional independence among the observed
    variables (inputs and selection held fixed) is a d-separation of the
    model's DAG, and the other way round.  Covers every query FCI can put:
    output pairs given any set of other outputs, and each input against an
    output given any set of other outputs."""
    en = Enumerator(m)
    dag, sel, ins = dag_of(m), m.of_kind("selection"), en.inputs
    outs = en.outputs
    idx = {v: i for i, v in enumerate(outs)}
    ctxs = [dict(zip(ins, vals)) for vals in itertools.product((0, 1), repeat=len(ins))]
    joints = [en.joint((), c) for c in ctxs]
    margs = {}

    def marg(joint, vs):
        key = (id(joint), tuple(vs))
        if key not in margs:
            out = margs[key] = {}
            for k, w in joint.items():
                kv = tuple(k[idx[v]] for v in vs)
                out[kv] = out.get(kv, 0) + w
        return margs[key]

    def indep(x, y, Z):
        for joint in joints:
            pxyz = marg(joint, [x, y] + Z)
            pz, pxz, pyz = marg(joint, Z), marg(joint, [x] + Z), marg(joint, [y] + Z)
            for k, w in pxyz.items():
                if w * pz[k[2:]] != pxz[(k[0],) + k[2:]] * pyz[(k[1],) + k[2:]]:
                    return False
        return True

    def invariant(i, y, Z):
        groups = {}
        for c, joint in zip(ctxs, joints):
            rest = tuple(sorted((k, v) for k, v in c.items() if k != i))
            pyz, pz = marg(joint, [y] + Z), marg(joint, Z)
            cond = {k: w / pz[k[1:]] for k, w in pyz.items()}
            if groups.setdefault(rest, cond) != cond:
                return False
        return True

    for x, y in itertools.combinations(outs, 2):
        others = [v for v in outs if v not in (x, y)]
        for r in range(len(others) + 1):
            for Z in itertools.combinations(others, r):
                sep = dag_separated(dag, sel, ins, [x], [y], Z)
                if sep != indep(x, y, list(Z)):
                    return False
    for i in ins:
        for y in outs:
            others = [v for v in outs if v != y]
            for r in range(len(others) + 1):
                for Z in itertools.combinations(others, r):
                    rest = [v for v in ins if v != i]
                    sep = nx.is_d_separator(
                        dag, {i}, {y}, set(Z) | set(sel) | set(rest))
                    if sep != invariant(i, y, list(Z)):
                        return False
    return True


# -- identifiability in the ADMG reading ---------------------------------------


def _closure(start, step):
    seen, todo = set(start), list(start)
    while todo:
        for w in step(todo.pop()):
            if w not in seen:
                seen.add(w)
                todo.append(w)
    return seen


def admg_identifiable(s: Structure, A, B) -> bool:
    """Fixing test for P(A | do(B)) read as an ADMG over the outputs: every
    district of the ancestors D of A outside B must be reachable from the
    outputs by fixing, one at a time, vertices whose district and
    descendants within the remaining set meet only in themselves."""
    V = set(s.outputs)
    ch = {v: {y for x, y in s.directed if x == v and y in V} for v in V}
    pa = {v: {x for x, y in s.directed if y == v and x in V} for v in V}
    sib = {v: set() for v in V}
    for a, b in s.bidirected:
        sib[a].add(b)
        sib[b].add(a)
    rest = V - set(B)
    D = _closure(set(A), lambda v: pa[v] & rest)

    def district(v, T):
        return _closure({v}, lambda u: sib[u] & T)

    for S in {frozenset(district(v, D)) for v in D}:
        T = set(V)
        while T != S:
            fix = next(
                (v for v in sorted(T - S)
                 if district(v, T) & _closure({v}, lambda u: ch[u] & T) == {v}),
                None)
            if fix is None:
                return False
            T.remove(fix)
    return True


# -- hand-checked cases --------------------------------------------------------


def _model(kinds, parents, cpts):
    return Model(kinds, {v: tuple(parents.get(v, ())) for v in kinds}, cpts)


def selfcheck():
    """Raise AssertionError unless every reference gives the hand-computed
    answer on small cases."""
    h, q = Fraction(1, 2), Fraction(1, 4)
    # bow: l -> a, l -> b, a -> b.  P(b=1 | do(a)) = sum_l P(l) P(b=1 | a, l)
    bow = _model(
        {"l": "latent", "a": "output", "b": "output"},
        {"a": ["l"], "b": ["a", "l"]},
        {"l": {(): (h, h)},
         "a": {(0,): (Fraction(9, 10), Fraction(1, 10)),
               (1,): (Fraction(1, 10), Fraction(9, 10))},
         "b": {(0, 0): (Fraction(9, 10), Fraction(1, 10)),
               (0, 1): (Fraction(1, 10), Fraction(9, 10)),
               (1, 0): (Fraction(2, 10), Fraction(8, 10)),
               (1, 1): (Fraction(8, 10), Fraction(2, 10))}})
    en = Enumerator(bow)
    ctx, t = en.kernel(["b"], ["a"])
    assert ctx == ["a"] and t[(0,)][(1,)] == h and t[(1,)][(1,)] == h, t
    # observational P(b=1 | a=0) = (1/2*9/10*1/10 + 1/2*1/10*9/10) / (1/2)
    ctx, t = en.kernel(["b"], (), ["a"])
    assert t[(0,)][(1,)] == Fraction(9, 50), t
    # selection: a -> s <- b with a, b independent fair coins and
    # P(s=1 | a, b) = 1 iff a = b (up to 1/4 otherwise): P(b=1 | a=1, s=1)
    sel = _model(
        {"a": "output", "b": "output", "s": "selection"},
        {"s": ["a", "b"]},
        {"a": {(): (h, h)}, "b": {(): (h, h)},
         "s": {(0, 0): (0, 1), (0, 1): (1 - q, q),
               (1, 0): (1 - q, q), (1, 1): (0, 1)}})
    ctx, t = Enumerator(sel).kernel(["b"], (), ["a"])
    assert t[(1,)][(1,)] == Fraction(4, 5), t
    # do(b) keeps the selection bias on a: P(a=1 | do(b=1), s=1) = 4/5
    ctx, t = Enumerator(sel).kernel(["a"], ["b"])
    assert t[(1,)][(1,)] == Fraction(4, 5), t
    # input context: i -> y with P(y=1 | i) = (1 + i) / 3
    inp = _model(
        {"i": "input", "y": "output"}, {"y": ["i"]},
        {"y": {(0,): (Fraction(2, 3), Fraction(1, 3)),
               (1,): (Fraction(1, 3), Fraction(2, 3))}})
    ctx, t = Enumerator(inp).kernel(["y"])
    assert ctx == ["i"] and t[(0,)][(1,)] == Fraction(1, 3), t
    assert t[(1,)][(1,)] == Fraction(2, 3), t
    assert faithful(inp)
    # d-separation: chain a -> b -> c with a selection child of c
    dag = nx.DiGraph([("a", "b"), ("b", "c"), ("c", "s")])
    assert dag_separated(dag, [], [], ["a"], ["c"], ["b"])
    assert not dag_separated(dag, [], [], ["a"], ["c"])
    # collider a -> s <- c is opened by conditioning on the selection
    dag = nx.DiGraph([("a", "s"), ("c", "s")])
    assert dag_separated(dag, [], [], ["a"], ["c"])
    assert not dag_separated(dag, ["s"], [], ["a"], ["c"])
    # regime indicator: F_a -> a -> b is open; given a, F_a -> a <- l -> b
    # stays open through the conditioned collider a
    dag = nx.DiGraph([("l", "a"), ("l", "b"), ("a", "b")])
    assert not dag_separated(dag, [], [], ["b"], [regime("a")], soft=["a"])
    assert not dag_separated(dag, [], [], ["b"], [regime("a")], ["a"], soft=["a"])
    # cutting a's in-edges removes that path
    assert dag_separated(dag, [], [], ["b"], [regime("a")], ["a"], soft=["a"],
                         hard=["a"])
    dag = nx.DiGraph([("a", "b")])
    assert dag_separated(dag, [], [], ["b"], [regime("a")], ["a"], soft=["a"])
    # unfaithful: b's table ignores a although a -> b
    flat = _model(
        {"a": "output", "b": "output"}, {"b": ["a"]},
        {"a": {(): (h, h)}, "b": {(0,): (q, 1 - q), (1,): (q, 1 - q)}})
    assert not faithful(flat)
    assert faithful(bow)
    # fixing: the bow is not identifiable, the front door is, the chain is
    bow_s = Structure({"a": "output", "b": "output"}, (("a", "b"),),
                      (("a", "b"),))
    assert not admg_identifiable(bow_s, ["b"], ["a"])
    front = Structure({"a": "output", "m": "output", "y": "output"},
                      (("a", "m"), ("m", "y")), (("a", "y"),))
    assert admg_identifiable(front, ["y"], ["a"])
    # front door with a -> y added is the bow again on (a, y)
    front_bow = Structure(front.kinds, front.directed + (("a", "y"),),
                          front.bidirected)
    assert not admg_identifiable(front_bow, ["y"], ["a"])
    # m <-> y as well: Q[{m, y}] is one district, a cannot be fixed past it
    assert not admg_identifiable(
        Structure(front.kinds, front.directed, (("a", "y"), ("m", "y"))),
        ["y"], ["a"])

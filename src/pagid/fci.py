"""Constraint-based recovery of a partial graph from an independence model.

The entry point is ``fci``: given an independence oracle over output nodes
(with inputs and selection implicitly conditioned), it runs the two-stage
skeleton search and then the orientation rules R0-R10 in their staged
order, producing a partial graph whose circle marks stand for the
orientations the model leaves open.

Two oracle backends are provided: ``graph_oracle`` answers queries by
separation in a known graph, ``distribution_oracle`` by exact conditional
independence in a discrete model.
"""

from __future__ import annotations

import itertools

from . import oracle as oc
from .graph import (
    ARROW,
    CIRCLE,
    INPUT,
    OUTPUT,
    TAIL,
    Edge,
    GraphClass,
    MixedGraph,
    _walk,
    discriminating_path,
    validate,
)
from .separate import d_separated


class FciConflict(ValueError):
    """Two rules (or a rule and the skeleton) demanded incompatible marks.

    This can only happen when the oracle is not the independence model of
    any represented graph."""


class IndependenceOracle:
    """Query interface: is A independent of B given C (and, implicitly,
    the inputs and the selection event)?  Symmetric in A and B."""

    inputs: tuple = ()
    outputs: tuple = ()

    def query(self, A, B, C=()) -> bool:
        return self._query(frozenset(A), frozenset(B), frozenset(C))

    def _query(self, A, B, C):  # pragma: no cover - abstract
        raise NotImplementedError


class graph_oracle(IndependenceOracle):
    """Separation queries against a known graph, conditioning on its
    selection nodes and (implicitly) its input nodes.  The graph must be
    valid as an ADMG or as a MAG; otherwise a ValueError names its
    problems as an ADMG."""

    def __init__(self, g: MixedGraph):
        problems = validate(g, GraphClass.ADMG)
        if problems and validate(g, GraphClass.MAG):
            raise ValueError("invalid input graph: " + "; ".join(problems))
        self.g = g
        self.inputs = g.inputs
        self.outputs = g.outputs

    def _query(self, A, B, C):
        implicit = set(self.g.selections) | (set(self.inputs) - A - B)
        return d_separated(self.g, A, B, (C | implicit) - A - B)


class distribution_oracle(IndependenceOracle):
    """Exact conditional-independence queries against a discrete model's
    selected observational distribution."""

    def __init__(self, scm):
        self.scm = scm
        self.kernel = oc.observational_kernel(scm)
        self.inputs = tuple(self.kernel.context)
        self.outputs = tuple(self.kernel.outputs)

    def _query(self, A, B, C):
        I = set(self.inputs)
        C = C - I  # inputs are conditioned in every query anyway
        A, B = A - C, B - C
        if A & B:
            return False
        if not A or not B:
            return True
        in_a, in_b = A & I, B & I
        if in_a and in_b:
            raise ValueError("cannot test two input variables against each other")
        if in_b:
            A, B, in_a = B, A, in_b
        if not in_a:
            return oc.ci_test(self.kernel, A, B, C)
        if A - I:
            raise ValueError("mixed input/output sets are not supported")
        return oc.input_invariant(self.kernel, in_a, B, C)


# -- skeleton ----------------------------------------------------------------


def _possible_d_sep(g: MixedGraph, x):
    """Possible-D-SEP(x) in g, x included: the nodes reached from x along
    walks that do not return to x and whose every inner node is a collider
    on the walk or the middle of a triangle (Zhang 2008, AIJ)."""
    parent, _ = _walk(g, [(x, None)], lambda prev, m_in, _v, m_out, w, _m_w:
                      w != x and (m_in is m_out is ARROW or g.adjacent(prev, w)))
    return {v for v, _ in parent}


def skeleton(oracle, I, V):
    """Adjacency search: start complete (no input-input edges), remove the
    edge x-y once some conditioning set separates x from y, first searching
    neighbourhood subsets by size and then Possible-D-SEP sets.  Returns
    the all-circle skeleton and the table of separating sets (inputs are
    left implicit in every separating set).

    Each (x, y, C) goes to the oracle once.  Stage two skips the subsets of
    x's stage-one adjacency: stage one asked each such S at depth |S| and
    found x and y dependent, since x - y survived it."""
    I, V = sorted(set(I)), sorted(set(V))
    iset = set(I)
    nodes = sorted(iset | set(V))
    adj = {v: set() for v in nodes}
    for x, y in itertools.combinations(nodes, 2):
        if x in iset and y in iset:
            continue
        adj[x].add(y)
        adj[y].add(x)
    sepsets, answers = {}, {}

    def try_separate(x, y, pool, sizes, dependent=None):
        """Remove x - y and record its separating set, if some subset of
        pool with a size in sizes separates them; smallest sizes first,
        past the subsets of dependent."""
        cands, pair = sorted(pool - {x, y} - iset), (min(x, y), max(x, y))
        for size in sizes:
            for C in itertools.combinations(cands, size):
                if dependent is not None and dependent.issuperset(C):
                    continue
                key = (*pair, C)
                independent = answers.get(key)
                if independent is None:
                    independent = answers[key] = oracle.query({x}, {y}, C)
                if independent:
                    adj[x].discard(y)
                    adj[y].discard(x)
                    sepsets[frozenset((x, y))] = frozenset(C)
                    return

    # stage one: conditioning sets bounded by current adjacencies
    for depth in itertools.count():
        pending = False
        for x in nodes:
            for y in sorted(adj[x]):
                if len((adj[x] - {y}) - iset) < depth:
                    continue
                pending = True
                try_separate(x, y, adj[x], [depth])
        if not pending:
            break

    kinds = {v: INPUT if v in iset else OUTPUT for v in nodes}

    def circles():
        return MixedGraph(kinds, [Edge(u, CIRCLE, w, CIRCLE)
                                  for u in nodes for w in adj[u] if u < w])

    # stage two: provisional collider marks (R0), then Possible-D-SEP
    # pruning; marks[(x, y)] is the mark at y on the edge x - y
    colliders = _Orienter(circles(), sepsets, iset)
    colliders.r0()
    marks = colliders.marks
    stage_one = {v: set(adj[v]) for v in nodes}
    built = None
    for x in nodes:
        # over the edges left by now: stage two removes edges as it goes,
        # and each removal adds a separating set
        if built != len(sepsets):
            built = len(sepsets)
            g = MixedGraph(kinds, [Edge(u, marks[(w, u)], w, marks[(u, w)])
                                   for u in nodes for w in adj[u] if u < w])
        pds = _possible_d_sep(g, x)
        for y in sorted(adj[x]):
            try_separate(x, y, pds, range(len(nodes)), stage_one[x])
    return circles(), sepsets


# -- orientation -------------------------------------------------------------


class _Orienter:
    def __init__(self, g: MixedGraph, sepsets, I, trace=None):
        self.I = set(I)
        self.sepsets = dict(sepsets)
        self.trace = trace
        self.nodes = sorted(g.node_ids)
        self.kinds = dict(g.nodes)
        self.adj = {v: set() for v in self.nodes}
        self.marks = {}
        for e in g.edges:
            self.adj[e.a].add(e.b)
            self.adj[e.b].add(e.a)
            self.marks[(e.b, e.a)] = e.mark_a
            self.marks[(e.a, e.b)] = e.mark_b
        # inputs cannot receive arrowheads: their edge ends become tails
        for j in sorted(self.I):
            for v in sorted(self.adj[j]):
                if self.marks[(v, j)] is CIRCLE:
                    self.marks[(v, j)] = TAIL

    def mark(self, x, y):
        """The mark at y on the edge between x and y."""
        return self.marks[(x, y)]

    def in_sepset(self, j, i, k):
        pair = frozenset((i, k))
        if pair not in self.sepsets:
            raise FciConflict(
                f"no separating set recorded for {i} and {k}"
            )
        return j in self.sepsets[pair] or j in self.I

    def set(self, x, y, m, rule, why=""):
        """Set the mark at y on the edge x-y; circles only may change."""
        cur = self.marks[(x, y)]
        if cur is m:
            return False
        if cur is not CIRCLE:
            raise FciConflict(
                f"{rule}: cannot re-orient mark at {y} on {x}-{y}"
            )
        if m is ARROW and y in self.I:
            raise FciConflict(f"{rule}: arrowhead at input node {y}")
        self.marks[(x, y)] = m
        if self.trace is not None:
            name = {ARROW: "arrowhead", TAIL: "tail"}[m]
            note = f" because {why}" if why else ""
            self.trace.append(f"{rule} {name} at {y} on {x}-{y}{note}")
        return True

    def graph(self) -> MixedGraph:
        edges = set()
        for x, y in itertools.combinations(self.nodes, 2):
            if y in self.adj[x]:
                edges.add(Edge(x, self.marks[(y, x)], y, self.marks[(x, y)]))
        return MixedGraph(self.kinds, edges)

    # -- individual rules --------------------------------------------------

    def r0(self):
        hit = False
        for j in self.nodes:
            if j in self.I:
                continue
            for i, k in itertools.permutations(sorted(self.adj[j]), 2):
                if i in self.I or k in self.adj[i]:
                    continue
                if not self.in_sepset(j, i, k):
                    why = f"{j} not in sepset({i},{k})"
                    hit |= self.set(i, j, ARROW, "R0", why)
                    hit |= self.set(k, j, ARROW, "R0", why)
        return hit

    def r1(self):
        hit = False
        for j in self.nodes:
            for k in sorted(self.adj[j]):
                if self.mark(k, j) is not ARROW:
                    continue
                for i in sorted(self.adj[j]):
                    if i == k or i in self.I or i in self.adj[k]:
                        continue
                    if self.mark(i, j) is CIRCLE:
                        why = f"{k}*->{j}o-*{i}, {i},{k} non-adjacent"
                        hit |= self.set(j, i, ARROW, "R1", why)
                        hit |= self.set(i, j, TAIL, "R1", why)
        return hit

    def r2(self):
        hit = False
        for i in self.nodes:
            for k in sorted(self.adj[i]):
                if self.mark(i, k) is not CIRCLE:
                    continue
                for j in sorted(self.adj[i] & self.adj[k]):
                    first = (
                        self.mark(j, i) is TAIL
                        and self.mark(i, j) is ARROW
                        and self.mark(j, k) is ARROW
                    )
                    second = (
                        self.mark(i, j) is ARROW
                        and self.mark(k, j) is TAIL
                        and self.mark(j, k) is ARROW
                    )
                    if first or second:
                        hit |= self.set(
                            i, k, ARROW, "R2", f"directed route via {j}"
                        )
        return hit

    def r3(self):
        hit = False
        for j in self.nodes:
            for i, k in itertools.permutations(sorted(self.adj[j]), 2):
                if i in self.I or k in self.adj[i]:
                    continue
                if self.mark(i, j) is not ARROW or self.mark(k, j) is not ARROW:
                    continue
                for l in sorted((self.adj[i] & self.adj[k] & self.adj[j])):
                    if (
                        self.mark(i, l) is CIRCLE
                        and self.mark(k, l) is CIRCLE
                        and self.mark(l, j) is CIRCLE
                    ):
                        hit |= self.set(
                            l, j, ARROW, "R3",
                            f"{i}*->{j}<-*{k} with {l} between",
                        )
        return hit

    def r4(self):
        g = self.graph()
        for j in self.nodes:
            for i in sorted(self.adj[j]):
                if self.mark(i, j) is not CIRCLE:
                    continue
                path = discriminating_path(g, j, i)
                if path is None:
                    continue
                k, qk = path[0], path[-3]
                why = "discriminating path " + "-".join(path)
                if self.in_sepset(j, i, k):
                    self.set(i, j, TAIL, "R4", why)
                    self.set(j, i, ARROW, "R4", why)
                else:
                    self.set(i, j, ARROW, "R4", why)
                    self.set(j, i, ARROW, "R4", why)
                    self.set(j, qk, ARROW, "R4", why)
                    self.set(qk, j, ARROW, "R4", why)
                return True  # the circle at j on i-j is gone
        return False

    def _uncovered_paths(self, i, ok, end=None):
        """Uncovered paths out of i over edges v-w with ok(v, w), each
        yielded as soon as it is found, in the order of a depth-first
        search over sorted neighbours; no path is extended past end.  The
        search keeps its own stack, so a long path costs no recursion, and
        the yielded list is the search's own, valid until the next step."""
        path, on = [i], {i}
        stack = [iter(sorted(self.adj[i]))]
        while stack:
            v = path[-1]
            for w in stack[-1]:
                if w in on or not ok(v, w):
                    continue
                if len(path) >= 2 and w in self.adj[path[-2]]:
                    continue  # covered triple
                path.append(w)
                yield path
                if w == end:
                    path.pop()
                    continue
                on.add(w)
                stack.append(iter(sorted(self.adj[w])))
                break
            else:
                stack.pop()
                on.discard(path.pop())

    def _circle_paths(self, i, j):
        """Uncovered paths i o-o k o-o ... o-o l o-o j over circle-circle
        edges, with at least two inner nodes."""
        def circles(v, w):
            return self.mark(w, v) is CIRCLE and self.mark(v, w) is CIRCLE

        return [tuple(p) for p in self._uncovered_paths(i, circles, j)
                if p[-1] == j and len(p) >= 4]

    def r5(self):
        hit = False
        for i in self.nodes:
            for j in sorted(self.adj[i]):
                if not (
                    self.mark(i, j) is CIRCLE and self.mark(j, i) is CIRCLE
                ):
                    continue
                for path in self._circle_paths(i, j):
                    k, l = path[1], path[-2]
                    if l in self.adj[i] or k in self.adj[j]:
                        continue
                    why = "uncovered circle path " + "-".join(path)
                    cycle = list(path) + [i]
                    for a, b in zip(cycle, cycle[1:]):
                        hit |= self.set(a, b, TAIL, "R5", why)
                        hit |= self.set(b, a, TAIL, "R5", why)
                    if hit:
                        return True
        return hit

    def r6(self):
        hit = False
        for j in self.nodes:
            if not any(
                self.mark(i, j) is TAIL and self.mark(j, i) is TAIL
                for i in self.adj[j]
            ):
                continue
            for k in sorted(self.adj[j]):
                if self.mark(k, j) is CIRCLE:
                    hit |= self.set(
                        k, j, TAIL, "R6", f"undirected edge at {j}"
                    )
        return hit

    def r7(self):
        hit = False
        for j in self.nodes:
            for k in sorted(self.adj[j]):
                if not (
                    self.mark(k, j) is CIRCLE and self.mark(j, k) is TAIL
                ):
                    continue
                for i in sorted(self.adj[j]):
                    if i == k or i in self.I or i in self.adj[k]:
                        continue
                    if self.mark(i, j) is CIRCLE:
                        hit |= self.set(
                            i, j, TAIL, "R7",
                            f"{i}*-o{j}o--{k}, {i},{k} non-adjacent",
                        )
        return hit

    def r8(self):
        hit = False
        for i in self.nodes:
            for k in sorted(self.adj[i]):
                if not (
                    self.mark(k, i) is CIRCLE and self.mark(i, k) is ARROW
                ):
                    continue
                for j in sorted(self.adj[i] & self.adj[k]):
                    if not (
                        self.mark(j, k) is ARROW and self.mark(k, j) is TAIL
                    ):
                        continue
                    if self.mark(j, i) is TAIL and self.mark(i, j) in (
                        ARROW,
                        CIRCLE,
                    ):
                        hit |= self.set(
                            k, i, TAIL, "R8", f"directed route via {j}"
                        )
        return hit

    def _uncovered_pd_paths(self, i):
        """All (second node, end node) pairs of uncovered possibly directed
        paths out of i with at least one edge."""
        def forward(v, w):
            return self.mark(w, v) is not ARROW  # no arrowhead back toward i

        return {(p[1], p[-1]) for p in self._uncovered_paths(i, forward)}

    def r9(self):
        hit = False
        for i in self.nodes:
            for k in sorted(self.adj[i]):
                if not (
                    self.mark(k, i) is CIRCLE and self.mark(i, k) is ARROW
                ):
                    continue
                for u, end in self._uncovered_pd_paths(i):
                    if end == k and u != k and u not in self.adj[k]:
                        hit |= self.set(
                            k, i, TAIL, "R9",
                            f"uncovered possibly directed path via {u}",
                        )
                        break
        return hit

    def r10(self):
        hit = False
        for i in self.nodes:
            for k in sorted(self.adj[i]):
                if not (
                    self.mark(k, i) is CIRCLE and self.mark(i, k) is ARROW
                ):
                    continue
                into_k = [
                    j
                    for j in sorted(self.adj[k])
                    if j != i
                    and self.mark(j, k) is ARROW
                    and self.mark(k, j) is TAIL
                ]
                if len(into_k) < 2:
                    continue
                reach = self._uncovered_pd_paths(i)
                via = {j: sorted({u for u, end in reach if end == j})
                       for j in into_k}
                pair = next(
                    ((j, l) for j, l in itertools.permutations(into_k, 2)
                     for u1 in via[j] for u2 in via[l]
                     if u1 != u2 and u1 not in self.adj.get(u2, ())), None)
                if pair:
                    hit |= self.set(k, i, TAIL, "R10",
                                    "paths to %s and %s diverge" % pair)
        return hit

    def run(self):
        stages = (
            (self.r0,),
            (self.r1, self.r2, self.r3, self.r4),
            (self.r5,),
            (self.r6, self.r7),
            (self.r8, self.r9, self.r10),
        )
        for stage in stages:
            changed = True
            while changed:
                changed = False
                for rule in stage:
                    changed |= rule()
        return self.graph()


def orient(g: MixedGraph, sepsets, I=None, trace=None) -> MixedGraph:
    """Apply the orientation rules to a skeleton (input-node edge ends are
    pre-oriented as tails) until every stage reaches its fixpoint."""
    if I is None:
        I = g.inputs
    return _Orienter(g, sepsets, I, trace).run()


def fci(oracle, nodes=None, trace=None) -> MixedGraph:
    """Skeleton search plus orientation against an independence oracle.

    ``nodes`` maps node id to kind; by default the oracle's own input and
    output lists are used."""
    if nodes is None:
        iset, vset = set(oracle.inputs), set(oracle.outputs)
    else:
        iset = {v for v, k in nodes.items() if k is INPUT}
        vset = {v for v, k in nodes.items() if k is OUTPUT}
    g, sepsets = skeleton(oracle, iset, vset)
    return orient(g, sepsets, iset, trace)

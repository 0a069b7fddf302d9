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

from .graph import (
    ARROW,
    CIRCLE,
    INPUT,
    OUTPUT,
    TAIL,
    Edge,
    MixedGraph,
    discriminating_paths,
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

    def __init__(self):
        self._memo = {}

    def query(self, A, B, C=()) -> bool:
        A, B, C = frozenset(A), frozenset(B), frozenset(C)
        key = (frozenset((A, B)), C)
        if key not in self._memo:
            self._memo[key] = self._query(A, B, C)
        return self._memo[key]

    def _query(self, A, B, C):  # pragma: no cover - abstract
        raise NotImplementedError


class graph_oracle(IndependenceOracle):
    """Separation queries against a known graph, conditioning on its
    selection nodes and (implicitly) its input nodes."""

    def __init__(self, g: MixedGraph):
        super().__init__()
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
        from . import oracle as oc

        super().__init__()
        self.scm = scm
        self.kernel = oc.observational_kernel(scm)
        self.inputs = tuple(self.kernel.context)
        self.outputs = tuple(self.kernel.outputs)

    def _query(self, A, B, C):
        from . import oracle as oc

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
        return self._input_invariant(sorted(in_a), sorted(B), sorted(C))

    def _input_invariant(self, ins, tgt, giv):
        """Whether the conditional of tgt given giv is the same for every
        value of the input variables ins (other inputs held fixed)."""
        from . import oracle as oc

        k = self.kernel
        names = tuple(sorted(tgt + giv))
        drop = {k.context.index(v) for v in ins}
        kg, kt = (oc._projection([names.index(v) for v in s])
                  for s in (giv, tgt))
        seen = {}
        for ctx, margin in k._integer_margin(names):
            # integer weights of tgt for each giv assignment
            joint = {}
            for vals, w in margin.items():
                joint.setdefault(kg(vals), {})[kt(vals)] = w
            reduced = tuple(v for i, v in enumerate(ctx) if i not in drop)
            conds = seen.setdefault(reduced, {})
            for key, sub in joint.items():
                tot = sum(sub.values())
                first, first_tot = conds.setdefault(key, (sub, tot))
                # equal conditionals: same support, cross-multiplied weights
                if first.keys() != sub.keys() or any(
                    w * first_tot != first[t] * tot for t, w in sub.items()
                ):
                    return False
        return True


# -- skeleton ----------------------------------------------------------------


def _possible_d_sep(adj, marks, x):
    """Nodes reachable from x along paths whose every inner node is either
    a collider on the path or the middle of a triangle."""
    out = set()
    frontier = [(x, None)]
    seen = set()
    while frontier:
        v, prev = frontier.pop()
        for w in adj[v]:
            if w == x:
                continue
            if prev is not None:
                collider = (
                    marks[(prev, v)] is ARROW and marks[(w, v)] is ARROW
                )
                triangle = w in adj[prev]
                if not (collider or triangle):
                    continue
            if (v, w) in seen:
                continue
            seen.add((v, w))
            out.add(w)
            frontier.append((w, v))
    return out


def skeleton(oracle, I, V):
    """Adjacency search: start complete (no input-input edges), remove the
    edge x-y once some conditioning set separates x from y, first searching
    neighbourhood subsets by size and then Possible-D-SEP sets.  Returns
    the all-circle skeleton and the table of separating sets (inputs are
    left implicit in every separating set)."""
    I, V = sorted(set(I)), sorted(set(V))
    iset = set(I)
    nodes = sorted(iset | set(V))
    adj = {v: set() for v in nodes}
    for x, y in itertools.combinations(nodes, 2):
        if x in iset and y in iset:
            continue
        adj[x].add(y)
        adj[y].add(x)
    sepsets = {}

    def try_separate(x, y, pool, max_size=None):
        cands = sorted(pool - {x, y} - iset)
        top = len(cands) if max_size is None else min(max_size, len(cands))
        for size in range(top + 1):
            for C in itertools.combinations(cands, size):
                if oracle.query({x}, {y}, C):
                    adj[x].discard(y)
                    adj[y].discard(x)
                    sepsets[frozenset((x, y))] = frozenset(C)
                    return True
        return False

    # stage one: conditioning sets bounded by current adjacencies
    depth = 0
    while True:
        progress = False
        pending = False
        for x in nodes:
            for y in sorted(adj[x]):
                cands = (adj[x] - {y}) - iset
                if len(cands) < depth:
                    continue
                pending = True
                for C in itertools.combinations(sorted(cands), depth):
                    if oracle.query({x}, {y}, C):
                        adj[x].discard(y)
                        adj[y].discard(x)
                        sepsets[frozenset((x, y))] = frozenset(C)
                        progress = True
                        break
        if not pending and not progress:
            break
        depth += 1

    # stage two: provisional collider marks, then Possible-D-SEP pruning
    marks = {}
    for x in nodes:
        for y in adj[x]:
            marks[(x, y)] = TAIL if x in iset else CIRCLE
    for j in nodes:
        if j in iset:
            continue
        for i, k in itertools.combinations(sorted(adj[j]), 2):
            if k in adj[i]:
                continue
            ss = sepsets.get(frozenset((i, k)))
            if ss is not None and j not in ss:
                marks[(i, j)] = ARROW
                marks[(k, j)] = ARROW
    for x in nodes:
        pds = _possible_d_sep(adj, marks, x)
        for y in sorted(adj[x]):
            try_separate(x, y, pds - {x, y})

    edges = set()
    for x, y in itertools.combinations(nodes, 2):
        if y in adj[x]:
            edges.add(Edge(x, CIRCLE, y, CIRCLE))
    kinds = {v: INPUT if v in iset else OUTPUT for v in nodes}
    return MixedGraph(kinds, edges), sepsets


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
        hit = False
        g = self.graph()
        for j in self.nodes:
            for i in sorted(self.adj[j]):
                if self.mark(i, j) is not CIRCLE:
                    continue
                for path in discriminating_paths(g, j, i):
                    k, q1 = path[0], path[-3]
                    why = "discriminating path " + "-".join(path)
                    if self.in_sepset(j, i, k):
                        hit |= self.set(i, j, TAIL, "R4", why)
                        hit |= self.set(j, i, ARROW, "R4", why)
                    else:
                        hit |= self.set(i, j, ARROW, "R4", why)
                        hit |= self.set(j, i, ARROW, "R4", why)
                        hit |= self.set(j, q1, ARROW, "R4", why)
                        hit |= self.set(q1, j, ARROW, "R4", why)
                    if hit:
                        return True
        return hit

    def _circle_paths(self, i, j):
        """Uncovered paths i o-o k o-o ... o-o l o-o j over circle-circle
        edges, with at least two inner nodes."""
        out = []

        def step(path):
            v = path[-1]
            for w in sorted(self.adj[v]):
                if w in path or w == j and len(path) < 3:
                    continue
                if not (
                    self.mark(w, v) is CIRCLE and self.mark(v, w) is CIRCLE
                ):
                    continue
                if len(path) >= 2 and w in self.adj[path[-2]]:
                    continue  # covered triple
                if w == j:
                    out.append(tuple(path) + (j,))
                    continue
                step(path + [w])

        step([i])
        return out

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
        out = set()

        def step(path):
            v = path[-1]
            for w in sorted(self.adj[v]):
                if w in path:
                    continue
                if self.mark(w, v) is ARROW:
                    continue  # edge points back toward i
                if len(path) >= 2 and w in self.adj[path[-2]]:
                    continue
                out.add((path[1] if len(path) > 1 else w, w))
                step(path + [w])

        step([i])
        return out

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
                done = False
                for j, l in itertools.permutations(into_k, 2):
                    u1s = {u for u, end in reach if end == j}
                    u2s = {u for u, end in reach if end == l}
                    for u1 in sorted(u1s):
                        for u2 in sorted(u2s):
                            if u1 != u2 and u1 not in self.adj.get(u2, ()):
                                hit |= self.set(
                                    k, i, TAIL, "R10",
                                    f"paths to {j} and {l} diverge",
                                )
                                done = True
                                break
                        if done:
                            break
                    if done:
                        break
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


def fci(oracle, nodes=None, I=None, trace=None) -> MixedGraph:
    """Skeleton search plus orientation against an independence oracle.

    ``nodes`` may be a mapping of node id to kind or an iterable of ids
    (inputs then given by ``I``); by default the oracle's own input and
    output lists are used."""
    if nodes is None:
        iset, vset = set(oracle.inputs), set(oracle.outputs)
    elif hasattr(nodes, "items"):
        iset = {v for v, k in nodes.items() if k is INPUT}
        vset = {v for v, k in nodes.items() if k is OUTPUT}
    else:
        iset = set(I or ())
        vset = set(nodes) - iset
    g, sepsets = skeleton(oracle, iset, vset)
    return orient(g, sepsets, iset, trace)

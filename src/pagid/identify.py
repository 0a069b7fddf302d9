"""Identification of interventional kernels from ancestral and partial graphs.

The entry points are ``sidp`` (unconditional targets) and ``scidp``
(conditional targets).  Both emit either a symbolic estimand tree that an
oracle can evaluate against the observed kernel, or an explicit failure
value.  Around them sit the set computations they rely on (``l0_sets``,
the region recursion ``_assemble`` and the leaf fixing ``_fix_leaf``),
checkers for the three calculus rules and the adjustment criterion,
single-pair causal-relation criteria, and the construction and
verification of hedge witnesses for failed runs.

Estimands use six node kinds: Base (a c-factor Q[C]), Marginalize,
Condition, OrderedProduct, BoxProduct (the assembly product evaluated along
a fixed bucket order) and Compose (kernel composition over shared
variables).  An estimand is a DAG, not a tree: each fixing step puts the
estimand built so far into both of its arms, so one node object can be the
child of several others.  Estimands serialize to a small prefix expression
language.  A non-Base node used more than once prints once, as a binding of
an outer ``(let ((%0 ...) (%1 ...)) body)`` form, and every use prints as
its name; bindings come children first, so a binding refers only to names
bound before it.  Every other node prints inline, so an estimand without
shared subterms prints as a plain tree.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field

from .graph import (
    ARROW,
    CIRCLE,
    GraphClass,
    OUTPUT,
    TAIL,
    Edge,
    MixedGraph,
    as_class,
    bucket_topological_order,
    buckets,
    pc_component,
    region,
    validate,
)
from .manipulate import (
    _infer_class,
    _plain,
    hard_manipulate,
    is_visible,
    manipulate,
    regime_id,
)
from .represent import canonical_isadmg, mag_of
from .separate import id_separated


def _reading(g, cls: GraphClass | None):
    """The graph and class an entry point works on.  Without a class, a
    graph with explicit latent or selection nodes is read through its MAG,
    so that those nodes are not ignored; an explicit class keeps the graph
    as given."""
    g, cls = _plain(g), as_class(cls)
    if cls is None and (g.latents or g.selections):
        g = mag_of(g)
    return g, cls or _infer_class(g)


def _check_sopag(p: MixedGraph):
    problems = validate(p, _infer_class(p))
    if problems:
        raise ValueError("invalid input graph: " + "; ".join(problems))


# -- estimand trees ----------------------------------------------------------


@dataclass(frozen=True, eq=False)
class _Node:
    """Equality and hashing of the estimand node classes.  An estimand is a
    DAG, so neither walks shared subterms once per use: the hash is
    computed once, when a node is built, from its own fields and the
    hashes of its children, and equality compares each pair of nodes at
    most once per call."""

    _hash: int = field(init=False, repr=False, compare=False)
    _DATA = ()  # the fields besides the children, per class

    def _data(self) -> tuple:
        return tuple(getattr(self, f) for f in self._DATA)

    def __post_init__(self):
        kids = tuple(c._hash for c in _children(self))
        object.__setattr__(
            self, "_hash", hash((type(self).__name__, self._data(), kids))
        )

    def __hash__(self):
        return self._hash

    def __eq__(self, other):
        if self is other:
            return True
        if not isinstance(other, _Node):
            return NotImplemented
        seen = set()
        stack = [(self, other)]
        while stack:  # iterative: estimands can be deeper than the stack
            x, y = stack.pop()
            if x is y or (id(x), id(y)) in seen:
                continue
            if (
                type(x) is not type(y)
                or x._hash != y._hash
                or x._data() != y._data()
            ):
                return False
            kx, ky = _children(x), _children(y)
            if len(kx) != len(ky):
                return False
            seen.add((id(x), id(y)))
            stack.extend(zip(kx, ky))
        return True


@dataclass(frozen=True, eq=False)
class Base(_Node):
    """The c-factor Q[C]: the kernel of X_C given everything else fixed."""

    over: frozenset
    _DATA = ("over",)

    @property
    def outputs(self) -> frozenset:
        return self.over


@dataclass(frozen=True, eq=False)
class Marginalize(_Node):
    child: object
    over: frozenset
    _DATA = ("over",)
    # Computed once, when built: a recursive property would walk shared
    # subterms once per use, as if the estimand were a tree.
    outputs: frozenset = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if not self.over <= self.child.outputs:
            raise ValueError(
                f"marginalizing {sorted(self.over)} outside "
                f"{sorted(self.child.outputs)}"
            )
        object.__setattr__(self, "outputs", self.child.outputs - self.over)
        super().__post_init__()


@dataclass(frozen=True, eq=False)
class Condition(_Node):
    child: object
    on: tuple
    _DATA = ("on",)
    outputs: frozenset = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if not set(self.on) <= self.child.outputs:
            raise ValueError(
                f"conditioning on {list(self.on)} outside "
                f"{sorted(self.child.outputs)}"
            )
        object.__setattr__(self, "outputs", self.child.outputs - set(self.on))
        super().__post_init__()


@dataclass(frozen=True, eq=False)
class OrderedProduct(_Node):
    children: tuple
    outputs: frozenset = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        outputs = frozenset().union(*(c.outputs for c in self.children))
        object.__setattr__(self, "outputs", outputs)
        super().__post_init__()


@dataclass(frozen=True, eq=False)
class BoxProduct(_Node):
    """Assembly product of two kernels, evaluated as a product of
    conditional factors along the stored bucket order."""

    left: object
    right: object
    d: frozenset
    bucket_order: tuple
    _DATA = ("d", "bucket_order")

    @property
    def outputs(self) -> frozenset:
        return self.d


@dataclass(frozen=True, eq=False)
class Compose(_Node):
    """Kernel composition: sum over the shared variables of the product of
    the outer and inner kernels."""

    outer: object
    inner: object
    over: tuple
    _DATA = ("over",)

    @property
    def outputs(self) -> frozenset:
        return self.outer.outputs


@dataclass(frozen=True)
class FailCertificate:
    """Witness of a stuck leaf: the leaf label C and the set T that could
    not be shrunk down to it, plus the buckets fixed before sticking."""

    C: frozenset
    T: frozenset
    trace: tuple = ()

    def __post_init__(self):
        if not self.C or not self.C < self.T:
            raise ValueError("certificate needs non-empty C strictly below T")

    def __str__(self):
        return (
            "FAIL C={" + ",".join(sorted(self.C)) + "}"
            " T={" + ",".join(sorted(self.T)) + "}"
        )


@dataclass(frozen=True)
class ExchangeFail:
    """Failure of the conditional-target exchange: the bucket slice that
    could not be moved, with the target sets at that point."""

    bucket: frozenset
    B: frozenset
    C: frozenset

    def __str__(self):
        return (
            "FAIL exchange bucket={" + ",".join(sorted(self.bucket)) + "}"
            " B={" + ",".join(sorted(self.B)) + "}"
            " C={" + ",".join(sorted(self.C)) + "}"
        )


# -- set computations and the core algorithm ---------------------------------


def _reduction_set(p: MixedGraph, A, B) -> frozenset:
    """D: the possible anteriors of A in the graph over the outputs not in
    B."""
    return frozenset(
        p.induced(set(p.outputs) - set(B)).possible_anteriors(A)
    )


def l0_sets(p, A, B) -> frozenset:
    """The set D of the reduction step (``_reduction_set``), after checking
    that A is non-empty and that A and B are disjoint sets of outputs."""
    p = _plain(p)
    A, B = frozenset(A), frozenset(B)
    V = set(p.outputs)
    if not A:
        raise ValueError("A must be non-empty")
    if A & B:
        raise ValueError(f"A and B overlap: {sorted(A & B)}")
    if not A <= V or not B <= V:
        raise ValueError("A and B must consist of output nodes")
    return _reduction_set(p, A, B)


def _assemble(C, V, q, p, dv=False):
    """Estimand of the kernel over C, or the FailCertificate of its first
    stuck leaf, left to right.  C splits into the region of its first
    eligible bucket and the region of the rest; each part is assembled in
    turn and the two are joined by the assembly product along the bucket
    order of C.  A C that does not split is a leaf, fixed down from V.  dv
    reads every directed edge as visible."""
    for bu in buckets(p, C):
        if frozenset(bu) == C:
            continue
        C1 = frozenset(region(p, C, bu, dv))
        if C1 == C:
            continue
        C2 = frozenset(region(p, C, C - C1, dv))
        if C2 == C:
            continue
        left = _assemble(C1, V, q, p, dv)
        if isinstance(left, FailCertificate):
            return left
        right = _assemble(C2, V, q, p, dv)
        if isinstance(right, FailCertificate):
            return right
        order = tuple(tuple(b) for b in bucket_topological_order(p, C))
        return BoxProduct(left, right, C, order)
    return _fix_leaf(C, V, q, p, dv)


def _fix_leaf(R, V, q, p, dv=False):
    """Iterated fixing of removable buckets, shrinking V down to the leaf
    label R; returns the estimand or a FailCertificate."""
    T = set(V)
    est = q
    trace = []
    while T != set(R):
        sub = p.induced(T)
        pick = None
        for bu in buckets(p, T):
            bset = set(bu)
            if not bset <= T - set(R):
                continue
            pode = sub.possible_descendants(bset)
            if pode.intersection(pc_component(p, T, bset, dv)) <= bset:
                pick = bu
                break
        if pick is None:
            return FailCertificate(
                C=frozenset(R), T=frozenset(T), trace=tuple(trace)
            )
        dplus = frozenset(sub.possible_descendants(set(pick)))
        dminus = (frozenset(T) - dplus) | set(pick)
        est = OrderedProduct(
            (
                Condition(est, tuple(sorted(dminus))),
                Marginalize(est, dplus),
            )
        )
        trace.append(tuple(pick))
        T -= set(pick)
    return est


def sidp(p, A, B, cls: GraphClass | None = None):
    """Identification of the kernel of X_A under hard manipulation of X_B.
    Returns an estimand over A, or the FailCertificate of the first stuck
    leaf (left to right).  cls fixes how the graph is read; in particular,
    directed edges of a graph read as an ADMG carry no hidden-confounding
    ambiguity.  Without cls, a graph with latent or selection nodes is read
    through its MAG."""
    p, cls = _reading(p, cls)
    _check_sopag(p)
    A = frozenset(A)
    V = frozenset(p.outputs)
    D = l0_sets(p, A, B)
    res = _assemble(D, V, Base(V), p, cls is GraphClass.ADMG)
    if isinstance(res, FailCertificate) or D == A:
        return res
    return Marginalize(res, D - A)


def scidp(p, A, B, C, cls: GraphClass | None = None):
    """Identification of the kernel of X_A given X_C under hard manipulation
    of X_B: move bucket slices of B into the conditioning set while the
    exchange rule allows it, move them back where the action-deletion rule
    allows it, then run sidp on what remains."""
    p, cls = _reading(p, cls)
    _check_sopag(p)
    A, B, C = frozenset(A), frozenset(B), frozenset(C)
    _disjoint(A, B, C)
    V = set(p.outputs)
    if not A | B | C <= V:
        raise ValueError("A, B and C must consist of output nodes")
    part = buckets(p, V)
    D = _reduction_set(p, A | C, B)
    Bc, Cc = set(B), set(C)

    while True:
        pick = None
        for bu in part:
            bset = set(bu)
            if bset & D and not bset <= D and bset & Bc:
                pick = bset
                break
        if pick is None:
            break
        Bt = pick & Bc
        mg = manipulate(p, sorted(Bt), sorted(Bc - Bt), cls)
        regimes = [regime_id(v) for v in sorted(Bt)]
        if not id_separated(mg, sorted(A), regimes, sorted(Bc | Cc)):
            return ExchangeFail(
                bucket=frozenset(Bt), B=frozenset(Bc), C=frozenset(Cc)
            )
        Bc -= Bt
        Cc |= Bt
        D = _reduction_set(p, A | Cc, Bc)

    while True:
        pick = None
        for bu in part:
            Ci = set(bu) & Cc
            if not Ci:
                continue
            mg = manipulate(p, sorted(Ci), sorted(Bc), cls)
            regimes = [regime_id(v) for v in sorted(Ci)]
            if id_separated(mg, sorted(A), regimes, sorted(Bc | Cc)):
                pick = Ci
                break
        if pick is None:
            break
        Bc |= pick
        Cc -= pick

    res = sidp(p, A | Cc, frozenset(Bc), cls)
    if isinstance(res, FailCertificate) or not Cc:
        return res
    return Condition(res, tuple(sorted(Cc)))


# -- calculus, adjustment, causal relations ----------------------------------


def _disjoint(*sets):
    for x, y in itertools.combinations(sets, 2):
        if x & y:
            raise ValueError(f"overlapping sets: {sorted(x & y)}")


def calculus_check(g, rule: int, A, B, C=(), D=(), cls=None) -> bool:
    """Whether a calculus rule applies: 1 inserts/deletes observations of B,
    2 exchanges actions on B with observations, 3 inserts/deletes actions
    on B; all relative to conditioning on C under hard manipulation of D."""
    g, cls = _reading(g, cls)
    A, B, C, D = (frozenset(s) for s in (A, B, C, D))
    _disjoint(A, B, C, D)
    if not A or not B:
        raise ValueError("A and B must be non-empty")
    if rule == 1:
        mg = manipulate(g, (), sorted(D), cls)
        return id_separated(mg, sorted(A), sorted(B), sorted(C | D))
    if rule in (2, 3):
        mg = manipulate(g, sorted(B), sorted(D), cls)
        regimes = [regime_id(v) for v in sorted(B)]
        cond = B | C | D if rule == 2 else C | D
        return id_separated(mg, sorted(A), regimes, sorted(cond))
    raise ValueError(f"unknown rule {rule!r}")


def adjustment_check(g, A, B, C=(), D=(), J0=(), J1=(), H=(), cls=None):
    """General adjustment: check the three premises under soft manipulation
    of B and hard manipulation of D.  On success also return the adjustment
    estimand, summing the kernel of A given B, C and the adjustment set J
    against the kernel of J given C."""
    g, cls = _reading(g, cls)
    A, B, C, D, J0, J1, H = (frozenset(s) for s in (A, B, C, D, J0, J1, H))
    _disjoint(A, B, C, D, J0, J1, H)
    if not A or not B:
        raise ValueError("A and B must be non-empty")
    J = J0 | J1
    mg = manipulate(g, sorted(B), sorted(D), cls)
    regimes = [regime_id(v) for v in sorted(B)]
    ok = (
        id_separated(mg, sorted(J0 | H), regimes, sorted(C | D))
        and id_separated(
            mg, sorted(A), sorted(J1) + regimes, sorted(B | C | D | J0 | H)
        )
        and id_separated(mg, sorted(H), sorted(B), sorted(set(regimes) | C | D | J))
    )
    if not ok:
        return False, None
    W = frozenset(set(g.outputs) - D)
    base = Base(W)
    outer = Condition(
        Marginalize(base, W - (A | B | C | J)), tuple(sorted(B | C | J))
    )
    if not J:
        return True, outer
    inner = Condition(Marginalize(base, W - (C | J)), tuple(sorted(C)))
    return True, Compose(outer, inner, tuple(sorted(J)))


ALL_NO = "AllNo"
SOME_YES = "SomeYes"


def causal_relation(g, a: str, b: str, kind: str, cls=None) -> str:
    """Whether a single-pair causal relation is absent in every represented
    graph (AllNo) or present in at least one (SomeYes)."""
    g, cls = _reading(g, cls)
    if a == b:
        raise ValueError("need two distinct nodes")
    for v in (a, b):
        if not g.has_node(v):
            raise KeyError(v)
    if kind == "sel_ancestor":
        arrow = any(ma is ARROW for _, ma, _, _ in g.edges_at(a))
        return ALL_NO if arrow else SOME_YES
    if kind == "direct":
        rest = set(g.outputs) - {a, b}
        mg = manipulate(g, [a], sorted(rest), cls)
        sep = id_separated(mg, [b], [regime_id(a)], sorted(rest))
    elif kind == "total":
        mg = manipulate(g, [a], (), cls)
        sep = id_separated(mg, [b], [regime_id(a)], ())
    elif kind == "confounding":
        mg = manipulate(g, [a], (), cls)
        sep = id_separated(mg, [b], [regime_id(a)], [a])
    else:
        raise ValueError(f"unknown relation kind {kind!r}")
    return ALL_NO if sep else SOME_YES


def s_recoverability_check(g, A, B, cls=None) -> bool:
    """Whether the unselected interventional kernel is recoverable: the
    selected one must be identifiable and A must be id-separated, given B,
    from the arrowhead-free nodes after hard manipulation of B."""
    g, cls = _reading(g, cls)
    A, B = frozenset(A), frozenset(B)
    if isinstance(sidp(g, A, B, cls), FailCertificate):
        return False
    free = [
        v
        for v in g.outputs
        if all(mv is not ARROW for _, mv, _, _ in g.edges_at(v))
    ]
    mg = hard_manipulate(g, sorted(B), cls)
    return id_separated(mg, sorted(A), free, sorted(B))


# -- hedges ------------------------------------------------------------------


@dataclass(frozen=True)
class Hedge:
    H: frozenset
    Hprime: frozenset
    R: frozenset
    forest_edges: tuple = ()
    forest_prime_edges: tuple = ()


def _as_output_graph(g: MixedGraph) -> MixedGraph:
    """Selection nodes recast as outputs, so they can be manipulated and
    conditioned on like ordinary nodes."""
    sel = {s: OUTPUT for s in g.selections}
    return g.edit(kinds=sel)


def _is_cforest(g: MixedGraph, nodes, edges, R) -> bool:
    """Whether the kept edges make the node set a c-forest rooted at R:
    one district over the bidirected edges, and one directed edge out of
    each node outside R and none out of R, leading every node into R."""
    nodes, R = set(nodes), set(R)
    if not nodes or not R <= nodes:
        return False
    child = {}
    bi_adj = {v: set() for v in nodes}
    for e in edges:
        if e not in g.edges or not {e.a, e.b} <= nodes:
            return False
        if e.mark_a is ARROW and e.mark_b is ARROW:
            bi_adj[e.a].add(e.b)
            bi_adj[e.b].add(e.a)
        elif {e.mark_a, e.mark_b} == {TAIL, ARROW}:
            tail = e.a if e.mark_a is TAIL else e.b
            if tail in child:
                return False
            child[tail] = e.other(tail)
        else:
            return False
    if set(child) != nodes - R:
        return False
    seen = {min(nodes)}
    frontier = [min(nodes)]
    while frontier:
        for w in bi_adj[frontier.pop()] - seen:
            seen.add(w)
            frontier.append(w)
    if seen != nodes:
        return False
    for v in nodes:
        hops = 0
        while v not in R:
            if hops > len(nodes):
                return False  # the directed edges form a cycle
            v = child[v]
            hops += 1
    return True


def verify_hedge(g, A, B, h: Hedge) -> bool:
    """Structural check of a hedge for (A, B) in the graph g: nested node
    sets meeting/missing B, both kept edge sets forming forests rooted at R,
    and R ancestral to A once B is hard-manipulated."""
    g = _plain(g)
    A, B = set(A), set(B)
    if not h.Hprime <= h.H or not h.R <= h.Hprime:
        return False
    if not h.H & B or h.Hprime & B:
        return False
    if not h.H <= set(g.node_ids):
        return False
    if not _is_cforest(g, h.H, h.forest_edges, h.R):
        return False
    if not _is_cforest(g, h.Hprime, h.forest_prime_edges, h.R):
        return False
    go = _as_output_graph(g)
    mg = hard_manipulate(go, sorted(B & set(go.node_ids)), GraphClass.ADMG)
    return h.R <= mg.graph.ancestors(A)


def _bfs_path(b, starts, step, goal):
    """A shortest path b, w, ... ending in goal, with w in starts and each
    further node in step(previous), as a node list; None if none."""
    parent = {w: b for w in starts}
    queue = list(parent)
    for v in queue:  # breadth first: the loop also visits what it appends
        if v in goal:
            path = [v]
            while path[-1] != b:
                path.append(parent[path[-1]])
            return path[::-1]
        for w in step(v):
            if w != b and w not in parent:
                parent[w] = v
                queue.append(w)
    return None


def _anterior_violation(p: MixedGraph, A, B):
    """A proper potentially anterior path from B to A whose first edge is
    not a visible directed edge, as a node list; None if all such paths
    start with visible directed edges."""
    A, B = set(A), set(B)
    blocked = B | set(p.inputs)  # an input has no ancestors

    def step(v):
        return [w for w, mv, _mw, _e in p.edges_at(v)
                if mv is not ARROW and w not in blocked]

    for b in sorted(B):
        starts = [
            w for w, mb, mw, _e in p.edges_at(b)
            if mb is not ARROW and w not in blocked
            and not (mb is TAIL and mw is ARROW and is_visible(p, b, w))
        ]
        path = _bfs_path(b, starts, step, A)
        if path is not None:
            return path
    return None


def _confounded_child(p: MixedGraph, A, B):
    """A bidirected path from some b in B to a child of b, through nodes
    with a potentially anterior path to A that avoids B, as a node list;
    None if there is none: a b --> c that is visible but confounded."""
    D = _reduction_set(p, A, B)

    def spouses(v):
        return [w for w, mv, mw, _e in p.edges_at(v)
                if mv is ARROW and mw is ARROW and w in D]

    for b in sorted(B):
        children = {w for w, mb, mw, _e in p.edges_at(b)
                    if mb is TAIL and mw is ARROW and w in D}
        path = _bfs_path(b, spouses(b), spouses, children)
        if path is not None:
            return path
    return None


def _orient_copag(p: MixedGraph, protect=()):
    """A maximal ancestral orientation of the circle marks: partially
    oriented edges become directed or undirected by their one fixed mark,
    and plain circle components become a source-first acyclic order that
    adds no arrowheads at the protected nodes."""
    protect = list(protect)
    fixed = []
    circle_pairs = []
    for e in p.edges:
        ma, mb = e.mark_a, e.mark_b
        if CIRCLE not in (ma, mb):
            fixed.append(e)
        elif ARROW in (ma, mb):
            # one arrowhead: the circle end becomes a tail
            fixed.append(
                Edge(
                    e.a,
                    TAIL if ma is CIRCLE else ma,
                    e.b,
                    TAIL if mb is CIRCLE else mb,
                )
            )
        elif TAIL in (ma, mb):
            fixed.append(Edge(e.a, TAIL, e.b, TAIL))
        else:
            circle_pairs.append(e)

    head_at = {v: False for v in p.node_ids}
    for e in p.edges:
        for v in (e.a, e.b):
            if e.mark_at(v) is ARROW:
                head_at[v] = True
    plain = [
        e for e in circle_pairs if not head_at[e.a] and not head_at[e.b]
    ]
    rest = [e for e in circle_pairs if e not in plain]
    fixed.extend(Edge(e.a, TAIL, e.b, TAIL) for e in plain)

    # orient the remaining circle components by a maximum-cardinality
    # search started at a protected node: edges point from earlier to
    # later in the visit order, which avoids new unshielded colliders
    adj = {}
    for e in rest:
        adj.setdefault(e.a, set()).add(e.b)
        adj.setdefault(e.b, set()).add(e.a)
    order = {}
    unvisited = set(adj)
    weight = {v: 0 for v in adj}
    rank = 0
    while unvisited:
        cand = [v for v in protect if v in unvisited]
        if cand:
            v = cand[0]
        else:
            top = max(weight[v] for v in unvisited)
            v = min(u for u in unvisited if weight[u] == top)
        order[v] = rank
        rank += 1
        unvisited.discard(v)
        for w in adj[v]:
            if w in unvisited:
                weight[w] += 1
    for e in rest:
        x, y = (e.a, e.b) if order[e.a] < order[e.b] else (e.b, e.a)
        fixed.append(Edge(x, TAIL, y, ARROW))
    m = MixedGraph(p.nodes, fixed)
    if validate(m, GraphClass.MAG):
        raise ValueError("could not orient the graph into a valid MAG")
    return m


def _direct_witness(m: MixedGraph, path):
    """The canonical represented graph of m (``canonical_isadmg``) in which
    the first edge of the path gains a parallel bidirected edge (none if it
    is bidirected already) and the path's undirected edges also point
    along the path."""
    along = [
        Edge(x, TAIL, y, ARROW)
        for x, y in zip(path, path[1:])
        if m.edges_between(x, y)[0] == Edge(x, TAIL, y, TAIL)
    ]
    first = Edge(path[0], ARROW, path[1], ARROW)
    wit = canonical_isadmg(m).edit(add=[first] + along)
    if validate(wit, GraphClass.ADMG):
        raise ValueError("path witness is not a valid represented graph")
    return wit


def maximal_regime_separated(wit: MixedGraph, A, B):
    """The largest subset D of the selection nodes whose regime indicators
    are id-separated from A given B and all selection nodes, after soft
    manipulation of D and hard manipulation of B.

    This is the set of selection nodes s that pass the test for D = {s}
    alone, so it takes |S| tests, not 2^|S|.  D is separated exactly when
    each {d} in D is:

    - Read as an ADMG, soft manipulation of D adds only I__d --> d for each
      d in D, and the hard manipulation of B is the same for every D.
    - Every I__d is an input, so it is a connecting target, and a walk
      ends at the first target it reaches.  I__d is therefore never inside
      a walk; a walk to it is a walk to d and one step into I__d, and
      whether that step is open depends only on how the walk reaches d.
    - I__d has no parents, so it changes neither the ancestors nor the
      possible ancestors of the conditioning set at any other node.

    So the open walks that reach no regime node are the same for every D,
    and D is connected exactly when such a walk reaches an input, or
    reaches some d in D and can step into I__d."""
    go = _as_output_graph(wit)
    cond = set(B) | set(wit.selections)
    return frozenset(
        s
        for s in wit.selections
        if id_separated(
            manipulate(go, [s], B, GraphClass.ADMG), A, [regime_id(s)], cond
        )
    )


def hedge_witness(p, A, B, cert):
    """Hedge certificate for a failed identification: a MAG represented by
    the input graph, a represented graph of that MAG, and a hedge in it
    for the target pair extended by the non-separated selection nodes.
    Graphs are read as sidp reads them without a class; a PAG is oriented
    starting at the violation's B node (or at B), so no arrowhead is put
    there.  The hedge is read off a violation at some b in B, no search:

    - an anterior violation b, c, ..., a: a proper potentially anterior
      path to A whose first edge b --> c is invisible or b --- c.  The MAG
      also represents the graph in which that edge gains a parallel
      b <-> c and the path's undirected edges, read as split selection
      children, point along the path (``_direct_witness``);
    - a confounded child b <-> w ... <-> c: a bidirected path to a child c
      of b through nodes anterior to A avoiding B.  These nodes all have
      arrowheads, so in a MAG they reach A along directed paths.

    Either way H = {b, w.., c} is a c-forest rooted at H' = R = {w.., c},
    kept by b --> c and the bidirected path; H meets B, H' misses it, and
    R reaches A along directed paths that avoid B.  That every FAIL has a
    violation is the completeness of sidp (Shpitser & Pearl 2006 for
    hedges as its witnesses).  It needs pc-components that read visibility
    in the whole graph (``graph.pc_component``); the identification tests
    check it as a property on random MAGs and PAGs.  Raises ValueError if
    the certificate does not match, if the PAG has no valid orientation,
    or if the hedge does not verify."""
    p, cls = _reading(p, None)
    if not isinstance(cert, FailCertificate):
        raise ValueError("hedge witness needs a failure certificate")
    A, B = frozenset(A), frozenset(B)
    if not (cert.C <= cert.T <= set(p.outputs)):
        raise ValueError("certificate does not match the graph")
    mag = p
    if cls is GraphClass.PAG:
        path = _anterior_violation(p, A, B)
        mag = _orient_copag(p, protect=[path[0]] if path else sorted(B))
    path = _anterior_violation(mag, A, B)
    chain = path[:2] if path else _confounded_child(mag, A, B)
    if chain is None:
        raise ValueError("no violation found for the certificate")
    wit = _direct_witness(mag, path or chain)
    spouses = tuple(Edge(x, ARROW, y, ARROW) for x, y in zip(chain, chain[1:]))
    h = Hedge(
        H=frozenset(chain),
        Hprime=frozenset(chain[1:]),
        R=frozenset(chain[1:]),
        forest_edges=(Edge(chain[0], TAIL, chain[-1], ARROW),) + spouses,
        forest_prime_edges=spouses[1:],
    )
    D = maximal_regime_separated(wit, A, B)
    if not verify_hedge(wit, A | (set(wit.selections) - D), B | D, h):
        raise ValueError("constructed witness admits no verifiable hedge")
    return mag, wit, h


# -- serialization -----------------------------------------------------------


def _names(xs) -> str:
    return "(" + " ".join(sorted(xs)) + ")"


def _children(e) -> tuple:
    if isinstance(e, (Marginalize, Condition)):
        return (e.child,)
    if isinstance(e, OrderedProduct):
        return e.children
    if isinstance(e, BoxProduct):
        return (e.left, e.right)
    if isinstance(e, Compose):
        return (e.outer, e.inner)
    return ()


def _postorder(e) -> list:
    """The distinct node objects of an estimand, each after its children,
    children left to right; iterative, since estimands can be deep."""
    order, seen = [], set()
    stack = [(e, False)]
    while stack:
        n, expanded = stack.pop()
        if expanded:
            order.append(n)
        elif id(n) not in seen:
            seen.add(id(n))
            stack.append((n, True))
            stack.extend((c, False) for c in reversed(_children(n)))
    return order


def format_estimand(e) -> str:
    """Prefix expression of an estimand, or the text of a failure.  A
    non-Base node used more than once prints once, as the binding
    ``(%k expr)`` of an outer ``let`` form, numbered children first, and
    each use prints as ``%k``; every other node prints inline.  An estimand
    without shared subterms therefore prints as a plain tree."""
    if isinstance(e, (FailCertificate, ExchangeFail)):
        return str(e)
    order = _postorder(e)
    uses = {}
    for n in order:
        for c in _children(n):
            uses[id(c)] = uses.get(id(c), 0) + 1
    text, bindings = {}, []

    def ref(c):
        # a node used once is embedded once, so its text can go
        return text.pop(id(c)) if uses[id(c)] == 1 else text[id(c)]

    for n in order:
        if isinstance(n, Base):
            t = f"(Q {_names(n.over)})"
        elif isinstance(n, Marginalize):
            t = f"(marg {_names(n.over)} {ref(n.child)})"
        elif isinstance(n, Condition):
            t = f"(cond {_names(n.on)} {ref(n.child)})"
        elif isinstance(n, OrderedProduct):
            t = "(prod " + " ".join(ref(c) for c in n.children) + ")"
        elif isinstance(n, BoxProduct):
            buckets_text = " ".join(
                "(" + " ".join(bu) + ")" for bu in n.bucket_order
            )
            t = f"(box ({buckets_text}) {ref(n.left)} {ref(n.right)})"
        elif isinstance(n, Compose):
            t = f"(compose {_names(n.over)} {ref(n.outer)} {ref(n.inner)})"
        else:
            raise ValueError(f"not an estimand: {n!r}")
        if uses.get(id(n), 0) > 1 and not isinstance(n, Base):
            name = f"%{len(bindings)}"
            bindings.append(f"({name} {t})")
            t = name
        text[id(n)] = t
    if not bindings:
        return text[id(e)]
    return "(let (" + " ".join(bindings) + ") " + text[id(e)] + ")"


def _tokenize(text: str):
    return text.replace("(", " ( ").replace(")", " ) ").split()


class _Reader:
    def __init__(self, tokens):
        self.tokens = tokens
        self.pos = 0
        self.bound = {}  # let-bound names and their nodes

    def peek(self) -> str:
        if self.pos >= len(self.tokens):
            raise ValueError("unexpected end of expression")
        return self.tokens[self.pos]

    def next(self) -> str:
        tok = self.peek()
        self.pos += 1
        return tok

    def expect(self, tok: str):
        got = self.next()
        if got != tok:
            raise ValueError(f"expected {tok!r}, got {got!r}")

    def names(self) -> tuple:
        self.expect("(")
        out = []
        while True:
            tok = self.next()
            if tok == ")":
                return tuple(out)
            if tok == "(":
                raise ValueError("unexpected nested list")
            out.append(tok)


def _parse_node(r: _Reader):
    tok = r.next()
    if tok.startswith("%"):
        if tok not in r.bound:
            raise ValueError(f"unbound name {tok!r}")
        return r.bound[tok]
    if tok != "(":
        raise ValueError(f"expected '(', got {tok!r}")
    head = r.next()
    if head == "Q":
        node = Base(frozenset(r.names()))
    elif head == "marg":
        over = r.names()
        node = Marginalize(_parse_node(r), frozenset(over))
    elif head == "cond":
        on = r.names()
        node = Condition(_parse_node(r), tuple(sorted(on)))
    elif head == "prod":
        children = []
        while r.peek() != ")":
            children.append(_parse_node(r))
        node = OrderedProduct(tuple(children))
    elif head == "box":
        r.expect("(")
        order = []
        while r.peek() == "(":
            order.append(r.names())
        r.expect(")")
        left = _parse_node(r)
        right = _parse_node(r)
        node = BoxProduct(
            left, right, left.outputs | right.outputs, tuple(order)
        )
    elif head == "compose":
        over = r.names()
        outer = _parse_node(r)
        inner = _parse_node(r)
        node = Compose(outer, inner, tuple(sorted(over)))
    elif head == "let":
        r.expect("(")
        while r.peek() == "(":
            r.next()
            name = r.next()
            if not name.startswith("%") or name in r.bound:
                raise ValueError(f"bad or repeated binding name {name!r}")
            r.bound[name] = _parse_node(r)
            r.expect(")")
        r.expect(")")
        node = _parse_node(r)
    else:
        raise ValueError(f"unknown estimand head {head!r}")
    r.expect(")")
    return node


def parse_estimand(text: str):
    """Estimand or failure certificate from its printed form.  Reads both
    the ``let`` form, giving each bound name one node object so that the
    sharing is rebuilt, and plain trees."""
    text = text.strip()
    if text.startswith("FAIL"):
        return parse_certificate(text)
    r = _Reader(_tokenize(text))
    node = _parse_node(r)
    if r.pos != len(r.tokens):
        raise ValueError("trailing tokens after expression")
    return node


def parse_certificate(text: str) -> FailCertificate:
    parts = text.split()
    if len(parts) != 3 or parts[0] != "FAIL":
        raise ValueError(f"not a failure certificate: {text!r}")
    sets = {}
    for part in parts[1:]:
        name, _, body = part.partition("=")
        if name not in ("C", "T") or not body.startswith("{"):
            raise ValueError(f"bad certificate field {part!r}")
        inner = body.strip("{}")
        sets[name] = frozenset(x for x in inner.split(",") if x)
    return FailCertificate(C=sets["C"], T=sets["T"])

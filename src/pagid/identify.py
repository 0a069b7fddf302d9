"""Identification of interventional kernels from ancestral and partial graphs.

The entry points are ``sidp`` (unconditional targets) and ``scidp``
(conditional targets).  Both emit either a symbolic estimand tree that an
oracle can evaluate against the observed kernel, or an explicit failure
value.  ``sidp`` is the IDP recursion of Jaber, Zhang & Bareinboim 2019
(``_identify``): it fixes removable buckets while it can and splits the
target by region only when it is stuck.  Around the entry points sit the
reduction set (``l0_sets``), checkers for the three calculus rules and the
adjustment criterion, single-pair causal-relation criteria, and the
construction and verification of hedge witnesses for failed runs.  The
calculus rules are written once (``_rule``): ``calculus_check``, both steps
of ``scidp``, the causal relations and s-recoverability each ask one rule
instance; the hedge's regime search asks for every selection node at once.

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
    _trace,
    _walk,
    as_class,
    bucket_topological_order,
    buckets,
    is_visible,
    pc_component,
    region,
    validate,
)
from .manipulate import (
    _check_valid,
    _infer_class,
    hard_manipulate,
    manipulate,
    manipulate_for_search,
    regime_id,
)
from .represent import mag_of, marginalize_latents, path_witness
from .separate import _id_search, walk_nodes


def _reading(g: MixedGraph, cls: GraphClass | None, *sets):
    """The graph and class an entry point works on, once the graph as given
    has every node of the sets.  Without a class, latent or selection nodes
    are read through the MAG, so that they are not ignored.  Read as an
    ADMG, latent nodes are projected out and selection nodes are rejected:
    reading them through the MAG would change the class asked for.  Other
    classes keep the graph.  A graph keeps what it is read as, per class."""
    cls = as_class(cls)
    g.check_nodes(*sets)
    if cls is GraphClass.ADMG and g.selections:
        raise ValueError(
            f"selection nodes {', '.join(g.selections)} cannot be read "
            "as an ADMG; omit the class to read the graph through its MAG"
        )
    read = {None: mag_of, GraphClass.ADMG: marginalize_latents}.get(cls)
    if read and (g.latents or g.selections):
        if ("reading", cls) not in g._memo:
            g._memo["reading", cls] = read(g)
        g = g._memo["reading", cls]
    return g, cls or _infer_class(g)


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
    outputs: frozenset = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "outputs", self.outer.outputs)
        super().__post_init__()


@dataclass(frozen=True)
class FailCertificate:
    """Witness of a stuck recursion: a target C that does not split by
    region, the set T that no removable bucket outside C shrinks further,
    and the buckets fixed on the way from all outputs down to T."""

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
    """D: the possible anteriors of A in the graph on the outputs not in B."""
    return frozenset(p.induced(set(p.outputs) - set(B)).possible_anteriors(A))


def l0_sets(p: MixedGraph, A, B) -> frozenset:
    """The set D of the reduction step (``_reduction_set``), after checking
    that A is non-empty and that A and B are disjoint sets of outputs."""
    A, B = frozenset(A), frozenset(B)
    V = set(p.outputs)
    if not A:
        raise ValueError("A must be non-empty")
    if A & B:
        raise ValueError(f"A and B overlap: {sorted(A & B)}")
    if not A <= V or not B <= V:
        raise ValueError("A and B must consist of output nodes")
    return _reduction_set(p, A, B)


def _identify(C, T, q, p, dv=False, trace=()):
    """Estimand of the kernel over C from the kernel q over T, or the
    FailCertificate of the first part of C that is stuck (left to right).
    As in IDP, removable buckets inside T \\ C are fixed first.  Only then
    is C split, into the region of its first eligible bucket and the
    region of the rest; both parts go on from this T and q, and are joined
    by the assembly product along the bucket order of C.  A C that does
    not split is stuck.  dv reads every directed edge as visible."""
    while T != C:
        sub = p.induced(T)
        for bu in buckets(p, T):
            fixed = frozenset(bu)
            if fixed <= T - C:
                dplus = frozenset(sub.possible_descendants(fixed))
                if dplus.intersection(pc_component(p, T, fixed, dv)) <= fixed:
                    break
        else:
            break
        dminus = tuple(sorted((T - dplus) | fixed))
        q = OrderedProduct((Condition(q, dminus), Marginalize(q, dplus)))
        trace, T = trace + (bu,), T - fixed
    if T == C:
        return q
    for bu in buckets(p, C):
        C1 = frozenset(region(p, C, bu, dv))
        C2 = frozenset(region(p, C, C - C1, dv))
        if C in (C1, C2):
            continue
        left = _identify(C1, T, q, p, dv, trace)
        if isinstance(left, FailCertificate):
            return left
        right = _identify(C2, T, q, p, dv, trace)
        if isinstance(right, FailCertificate):
            return right
        order = tuple(tuple(b) for b in bucket_topological_order(p, C))
        return BoxProduct(left, right, C, order)
    return FailCertificate(C, T, trace)


def sidp(p, A, B, cls: GraphClass | None = None):
    """Identification of the kernel of X_A under hard manipulation of X_B,
    in the IDP order: fix removable buckets first, split the target by
    region only when stuck.  Returns an estimand over A, or the
    FailCertificate of the first part that is stuck and does not split
    (left to right).  cls fixes how the graph is read; in particular,
    directed edges of a graph read as an ADMG carry no hidden-confounding
    ambiguity.  Without cls, a graph with latent or selection nodes is read
    through its MAG."""
    A, B = frozenset(A), frozenset(B)
    p, cls = _reading(p, cls, A, B)
    _check_valid(p, cls)
    V = frozenset(p.outputs)
    D = l0_sets(p, A, B)
    res = _identify(D, V, Base(V), p, cls is GraphClass.ADMG)
    if isinstance(res, FailCertificate) or D == A:
        return res
    return Marginalize(res, D - A)


def scidp(p, A, B, C, cls: GraphClass | None = None):
    """Identification of the kernel of X_A given X_C under hard manipulation
    of X_B: move bucket slices of B into the conditioning set while the
    exchange rule (rule 2) allows it, move slices of the conditioning set
    back where rule 2 allows it, then run sidp on what remains."""
    A, B, C = frozenset(A), frozenset(B), frozenset(C)
    p, cls = _reading(p, cls, A, B, C)
    _check_valid(p, cls)
    _disjoint(A, B, C)
    V = set(p.outputs)
    if not A | B | C <= V:
        raise ValueError("A, B and C must consist of output nodes")
    part = [frozenset(bu) for bu in buckets(p, V)]
    D = _reduction_set(p, A | C, B)
    Bc, Cc = B, C
    while Bt := next((bu & Bc for bu in part
                      if bu & D and not bu <= D and bu & Bc), None):
        if not _rule(p, cls, 2, A, Bt, Cc, Bc - Bt):
            return ExchangeFail(bucket=Bt, B=Bc, C=Cc)
        Bc, Cc = Bc - Bt, Cc | Bt
        D = _reduction_set(p, A | Cc, Bc)
    while Ci := next((bu & Cc for bu in part if bu & Cc
                      and _rule(p, cls, 2, A, bu & Cc, Cc - bu, Bc)), None):
        Bc, Cc = Bc | Ci, Cc - Ci

    res = sidp(p, A | Cc, Bc, cls)
    if isinstance(res, FailCertificate) or not Cc:
        return res
    return Condition(res, tuple(sorted(Cc)))


# -- calculus, adjustment, causal relations ----------------------------------


def _disjoint(*sets):
    for x, y in itertools.combinations(sets, 2):
        if x & y:
            raise ValueError(f"overlapping sets: {sorted(x & y)}")


def _rule(g, cls, rule, A, B, C, D, checked=False) -> bool:
    """Whether calculus rule 1, 2 or 3 applies to the sets A, B, C and D on
    g read as cls, unchecked, and their nodes too where checked says that
    g has them.  After soft manipulation of B and hard manipulation of D,
    A must be id-separated from B's regime nodes given C, D and, under
    rule 2, B.  Rule 1 asks for B given C, D and the regime nodes: dead
    ends, as after hard manipulation alone (see ``separate``).  Its soft
    targets are the outputs in B - D, as B may hold an input.  Every rule
    conditions on D, so the search reads the soft manipulation alone,
    with D as dead ends (``separate``)."""
    soft = B if rule != 1 else B.intersection(g.outputs) - D
    mg, dead = manipulate_for_search(g, soft, D, cls, checked)
    regimes = {regime_id(v) for v in soft}
    sets = ((B, C | D | regimes) if rule == 1 else
            (regimes, B | C | D if rule == 2 else C | D))
    return _id_search(mg, A, *sets, checked, dead)[1] is None


def calculus_check(g, rule: int, A, B, C=(), D=(), cls=None) -> bool:
    """Whether a calculus rule applies: 1 inserts/deletes observations of B,
    2 exchanges actions on B with observations, 3 inserts/deletes actions
    on B; all relative to conditioning on C under hard manipulation of D."""
    A, B, C, D = (frozenset(s) for s in (A, B, C, D))
    read, cls = _reading(g, cls, A, B, C, D)
    _disjoint(A, B, C, D)
    if not A or not B:
        raise ValueError("A and B must be non-empty")
    if rule not in (1, 2, 3):
        raise ValueError(f"unknown rule {rule!r}")
    # the reading checked the sets on g; on a projection of g, the search does
    return _rule(read, cls, rule, A, B, C, D, checked=read is g)


def adjustment_check(g, A, B, C=(), D=(), J0=(), J1=(), H=(), cls=None):
    """General adjustment: check the three premises under soft manipulation
    of B and hard manipulation of D.  On success also return the adjustment
    estimand, summing the kernel of A given B, C and the adjustment set J
    against the kernel of J given C.  Every premise conditions on D, so
    the searches read the soft manipulation alone, with D as dead ends
    (``separate``)."""
    A, B, C, D, J0, J1, H = (frozenset(s) for s in (A, B, C, D, J0, J1, H))
    read, cls = _reading(g, cls, A, B, C, D, J0, J1, H)
    _disjoint(A, B, C, D, J0, J1, H)
    if not A or not B:
        raise ValueError("A and B must be non-empty")
    J, checked = J0 | J1, read is g  # as in calculus_check
    mg, dead = manipulate_for_search(read, B, D, cls, checked)
    regimes = frozenset(map(regime_id, B))
    if not all(_id_search(mg, *sets, checked, dead)[1] is None for sets in (
            (J0 | H, regimes, C | D), (A, J1 | regimes, B | C | D | J0 | H),
            (H, B, regimes | C | D | J))):
        return False, None
    W = frozenset(set(read.outputs) - D)
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
    read, cls = _reading(g, cls, (a, b))
    _check_valid(read, cls)
    if a == b:
        raise ValueError("need two distinct nodes")
    if kind == "sel_ancestor":
        arrow = any(ma is ARROW for _, ma, _, _ in read.edges_at(a))
        return ALL_NO if arrow else SOME_YES
    rule = {"direct": 3, "total": 3, "confounding": 2}.get(kind)
    if rule is None:
        raise ValueError(f"unknown relation kind {kind!r}")
    D = set(read.outputs) - {a, b} if kind == "direct" else set()
    sep = _rule(read, cls, rule, {b}, {a}, set(), D, read is g)
    return ALL_NO if sep else SOME_YES


def s_recoverability_check(g, A, B, cls=None) -> bool:
    """Whether the unselected interventional kernel is recoverable: the
    selected one must be identifiable and A must be id-separated, given B,
    from the arrowhead-free nodes after hard manipulation of B: calculus
    rule 1 with D = B."""
    A, B = frozenset(A), frozenset(B)
    g, cls = _reading(g, cls, A, B)
    if isinstance(sidp(g, A, B, cls), FailCertificate):
        return False
    free = {v for v in g.outputs
            if all(mv is not ARROW for _, mv, _, _ in g.edges_at(v))}
    return _rule(g, cls, 1, A, free, set(), B)


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
    conditioned on like ordinary nodes; the graph keeps it."""
    if "as_output" not in g._memo:
        sel = dict.fromkeys(g.selections, OUTPUT)
        g._memo["as_output"] = g.edit(kinds=sel)
    return g._memo["as_output"]


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


def verify_hedge(g: MixedGraph, A, B, h: Hedge) -> bool:
    """Structural check of a hedge for (A, B) in the graph g: nested node
    sets meeting/missing B, both kept edge sets forming forests rooted at R,
    and R ancestral to A once B is hard-manipulated."""
    A, B = set(A), set(B)
    g.check_nodes(A, B)
    if not h.Hprime <= h.H or not h.R <= h.Hprime:
        return False
    if not h.H & B or h.Hprime & B:
        return False
    if not _is_cforest(g, h.H, h.forest_edges, h.R):
        return False
    if not _is_cforest(g, h.Hprime, h.forest_prime_edges, h.R):
        return False
    go = _as_output_graph(g)
    mg = hard_manipulate(go, sorted(B), GraphClass.ADMG)
    return h.R <= mg.graph.ancestors(A)


def _anterior_violation(p: MixedGraph, A, B):
    """A proper potentially anterior path from B to A whose first edge is
    not a visible directed edge, as a node list; None if all such paths
    start with visible directed edges."""
    A, B = set(A), set(B)
    blocked = B | set(p.inputs)  # an input has no ancestors

    def passes(_prev, _m_in, _v, m_out, w, _m_w):
        return m_out is not ARROW and w not in blocked

    for b in sorted(B):
        starts = [
            (w, e) for w, mb, mw, e in p.edges_at(b)
            if mb is not ARROW and w not in blocked
            and not (mb is TAIL and mw is ARROW and is_visible(p, b, w))
        ]
        walk = _trace(*_walk(p, starts, passes, A))
        if walk is not None:
            return walk_nodes(walk)
    return None


def _confounded_child(p: MixedGraph, A, B):
    """A bidirected path from some b in B to a child of b, through nodes
    with a potentially anterior path to A that avoids B, as a node list;
    None if there is none: a b --> c that is visible but confounded."""
    D = _reduction_set(p, A, B)

    def passes(_prev, _m_in, _v, m_out, w, m_w):
        return m_out is ARROW and m_w is ARROW and w in D

    for b in sorted(B):
        starts = [(w, e) for w, mb, mw, e in p.edges_at(b)
                  if passes(b, None, b, mb, w, mw)]
        children = {w for w, mb, mw, _e in p.edges_at(b)
                    if mb is TAIL and mw is ARROW and w in D}
        walk = _trace(*_walk(p, starts, passes, children))
        if walk is not None:
            return walk_nodes(walk)
    return None


def _orient_copag(p: MixedGraph, protect=()):
    """A maximal ancestral orientation of the circle marks (Zhang 2008,
    AIJ, Theorem 2), one rule per mark.  An o-o edge with an arrowhead at
    an endpoint points along a maximum-cardinality order, protected nodes
    first, so it adds no unshielded collider and no arrowhead at them.
    Every other circle becomes a tail, or an arrowhead if it faces a tail
    and its node has an arrowhead by then: a MAG has none at an end of an
    undirected edge."""
    head = {v for e in p.edges for v in (e.a, e.b) if e.mark_at(v) is ARROW}
    along = [e for e in p.edges if e.mark_a is e.mark_b is CIRCLE
            and (e.a in head or e.b in head)]
    adj = {}
    for e in along:
        adj.setdefault(e.a, set()).add(e.b)
        adj.setdefault(e.b, set()).add(e.a)
    order, weight = {}, dict.fromkeys(adj, 0)
    while len(order) < len(adj):
        v = next((u for u in protect if u in adj and u not in order), None)
        if v is None:
            top = max(weight[u] for u in adj if u not in order)
            v = min(u for u in adj if u not in order and weight[u] == top)
        order[v] = len(order)
        for w in adj[v] - order.keys():
            weight[w] += 1
    oriented = []
    for e in along:
        x, y = sorted((e.a, e.b), key=order.get)
        oriented.append(Edge(x, TAIL, y, ARROW))
        head.add(y)

    def mark(v, m, far):
        if m is not CIRCLE:
            return m
        return ARROW if far is TAIL and v in head else TAIL

    # the fixed edges, then the o-o ones, then the oriented ones: among
    # colliding hashes the edge set keeps this order, and searches follow it
    first = sorted(p.edges, key=lambda e: e.mark_a is e.mark_b is CIRCLE)
    along = set(along)
    fixed = [Edge(e.a, mark(e.a, e.mark_a, e.mark_b), e.b,
                  mark(e.b, e.mark_b, e.mark_a))
             for e in first if e not in along]
    m = MixedGraph(p.nodes, fixed + oriented)
    if validate(m, GraphClass.MAG):
        raise ValueError("could not orient the graph into a valid MAG")
    return m


def maximal_regime_separated(wit: MixedGraph, A, B):
    """The largest subset D of the selection nodes whose regime indicators
    are id-separated from A given B and all selection nodes, after soft
    manipulation of D and hard manipulation of B.

    Conditioned regime nodes are dead ends (see ``separate``), so one
    manipulation, soft on every selection node, and one search from A given
    B, the selection nodes and the regime nodes answer it.  Read as an
    ADMG, I__s --> s is the only edge at I__s: the answer is empty if the
    search reaches an input, and otherwise every s whose I__s it missed."""
    wit.check_nodes(A, B)
    go, S = _as_output_graph(wit), set(wit.selections)
    mg = manipulate(go, S, B, GraphClass.ADMG)
    parent, hit = _id_search(mg, A, (), S | set(B) | set(mg.regime_ids))
    if hit is not None:
        return frozenset()
    reached = {v for v, _e in parent}
    return frozenset(s for s in S if regime_id(s) not in reached)


def hedge_witness(p, A, B, cert):
    """Hedge certificate for a failed identification: a MAG represented by
    the input graph, a represented graph of that MAG, and a hedge in it
    for the target pair extended by the non-separated selection nodes.
    Graphs are read as sidp reads them without a class; a PAG is oriented
    into a MAG of its class (``_orient_copag``) starting at the violation's
    B node (or at B), so no arrowhead is put there.  The hedge is read off
    a violation at some b in B, no search:

    - an anterior violation b, c, ..., a: a proper potentially anterior
      path to A whose first edge b --> c is invisible or b --- c.  The MAG
      also represents the graph in which that edge gains a parallel
      b <-> c and the path's undirected edges, read as split selection
      children, point along the path (``represent.path_witness``);
    - a confounded child b <-> w ... <-> c: a bidirected path to a child c
      of b through nodes anterior to A avoiding B.  These nodes all have
      arrowheads, so in a MAG they reach A along directed paths.

    Either way H = {b, w.., c} is a c-forest rooted at H' = R = {w.., c},
    kept by b --> c and the bidirected path; H meets B, H' misses it, and
    R reaches A along directed paths that avoid B.  That every FAIL has a
    violation is the completeness of sidp (Shpitser & Pearl 2006 for
    hedges as its witnesses).  It needs pc-components that read visibility
    in the whole graph (``graph.pc_component``); the identification tests
    check it as a property on random MAGs and on FCI PAGs with and
    without inputs.  Raises ValueError if the certificate does not match,
    or if the orientation or the hedge does not verify."""
    A, B = frozenset(A), frozenset(B)
    p, cls = _reading(p, None, A, B)
    if not isinstance(cert, FailCertificate):
        raise ValueError("hedge witness needs a failure certificate")
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
    wit = path_witness(mag, path or chain)
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
    """A generator that reads one node: it yields for each child, is sent
    the child's node, and returns its own (see ``parse_estimand``)."""
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
        node = Marginalize((yield), frozenset(over))
    elif head == "cond":
        on = r.names()
        node = Condition((yield), tuple(sorted(on)))
    elif head == "prod":
        children = []
        while r.peek() != ")":
            children.append((yield))
        node = OrderedProduct(tuple(children))
    elif head == "box":
        r.expect("(")
        order = []
        while r.peek() == "(":
            order.append(r.names())
        r.expect(")")
        left = yield
        right = yield
        node = BoxProduct(
            left, right, left.outputs | right.outputs, tuple(order)
        )
    elif head == "compose":
        over = r.names()
        outer = yield
        inner = yield
        node = Compose(outer, inner, tuple(sorted(over)))
    elif head == "let":
        r.expect("(")
        while r.peek() == "(":
            r.next()
            name = r.next()
            if not name.startswith("%") or name in r.bound:
                raise ValueError(f"bad or repeated binding name {name!r}")
            r.bound[name] = yield
            r.expect(")")
        r.expect(")")
        node = yield
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
    # one generator per open node on an explicit stack, not Python's own,
    # since estimands can be deeper than the recursion limit
    stack, node = [_parse_node(r)], None
    while stack:
        try:
            stack[-1].send(node)
        except StopIteration as done:
            stack.pop()
            node = done.value
        else:  # the node on top asks for its next child
            stack.append(_parse_node(r))
            node = None
    if r.pos != len(r.tokens):
        raise ValueError("trailing tokens after expression")
    return node


def parse_certificate(text: str):
    """FailCertificate or ExchangeFail from its printed form."""
    parts = text.split()
    cls, fields, body = FailCertificate, ("C", "T"), parts[1:]
    if body[:1] == ["exchange"]:
        cls, fields, body = ExchangeFail, ("bucket", "B", "C"), body[1:]
    if parts[:1] != ["FAIL"] or len(body) != len(fields):
        raise ValueError(f"not a failure certificate: {text!r}")
    sets = {}
    for part in body:
        name, _, value = part.partition("=")
        if name not in fields or not value.startswith("{"):
            raise ValueError(f"bad certificate field {part!r}")
        sets[name] = frozenset(x for x in value.strip("{}").split(",") if x)
    if len(sets) != len(fields):
        raise ValueError(f"not a failure certificate: {text!r}")
    return cls(**sets)

"""Mixed-graph data model: nodes with kinds, edges with per-endpoint marks,
and the structural queries everything else is built on (reachability closures,
buckets, pc-components, regions, inducing paths, discriminating paths).

Three traversals serve everything.  ``MixedGraph._closure`` reaches node
sets: ancestors and their kin, buckets, visibility chains and the c-forest
check of a hedge (``identify``).  ``_walk`` is the one walk search:
separation (``separate``), inducing paths, discriminating paths,
Possible-D-SEP (``fci``) and the violations a hedge is read off are rules
for passing a node over it; only FCI's circle and uncovered paths enumerate
simple paths instead.  ``_cycle`` walks depth first, for directed cycles.
``pc_component``'s collider chain keeps its own loop: as a closure it would
read each chain node's edges twice, once to grow the chain and once to
collect the ends of its paths."""

from __future__ import annotations

from enum import Enum


class Mark(Enum):
    TAIL = "-"
    ARROW = ">"
    CIRCLE = "o"


class NodeKind(Enum):
    INPUT = "input"
    OUTPUT = "output"
    LATENT = "latent"
    SELECTION = "selection"


class GraphClass(Enum):
    RAW = "raw"
    ADMG = "admg"
    MAG = "mag"
    PAG = "pag"


# Members are singletons compared by identity, so the C-level identity hash
# serves; Enum's own hashes the member name in Python on every lookup.
Mark.__hash__ = NodeKind.__hash__ = GraphClass.__hash__ = object.__hash__

TAIL, ARROW, CIRCLE = Mark.TAIL, Mark.ARROW, Mark.CIRCLE
INPUT, OUTPUT, LATENT, SELECTION = (
    NodeKind.INPUT,
    NodeKind.OUTPUT,
    NodeKind.LATENT,
    NodeKind.SELECTION,
)


_set = object.__setattr__


class Edge:
    """Edge with one mark per endpoint, stored with a <= b lexicographically.

    Immutable.  The hash is computed once, as edges are hashed many times;
    its value, hash((a, mark_a, b, mark_b)), changes with PYTHONHASHSEED
    and, through the marks' identity hash, from process to process.
    No output follows it: searches take neighbours in ``edges_at``'s sorted
    order, and printing and validation sort the edges (``sort_key``)."""

    __slots__ = ("a", "mark_a", "b", "mark_b", "_hash")

    def __init__(self, a: str, mark_a: Mark = None, b: str = "",
                 mark_b: Mark = None):
        if a == b:
            raise ValueError(f"self loop at {a}")
        if a > b:
            a, mark_a, b, mark_b = b, mark_b, a, mark_a
        _set(self, "a", a)
        _set(self, "mark_a", mark_a)
        _set(self, "b", b)
        _set(self, "mark_b", mark_b)
        _set(self, "_hash", hash((a, mark_a, b, mark_b)))

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r} of an Edge")

    def __hash__(self):
        return self._hash

    def __eq__(self, other):
        if not isinstance(other, Edge):
            return NotImplemented
        return self is other or self._hash == other._hash and (
            self.a, self.mark_a, self.b, self.mark_b
        ) == (other.a, other.mark_a, other.b, other.mark_b)

    def __repr__(self):
        return (
            f"Edge(a={self.a!r}, mark_a={self.mark_a!r}, "
            f"b={self.b!r}, mark_b={self.mark_b!r})"
        )

    def __reduce__(self):
        return (Edge, (self.a, self.mark_a, self.b, self.mark_b))

    def sort_key(self):
        return (self.a, self.b, self.mark_a.value, self.mark_b.value)

    def __lt__(self, other: "Edge"):
        return self.sort_key() < other.sort_key()

    def mark_at(self, v: str) -> Mark:
        if v == self.a:
            return self.mark_a
        if v == self.b:
            return self.mark_b
        raise KeyError(v)

    def other(self, v: str) -> str:
        if v == self.a:
            return self.b
        if v == self.b:
            return self.a
        raise KeyError(v)


def edge(x: str, mx: Mark, y: str, my: Mark) -> Edge:
    return Edge(x, mx, y, my)


def directed(x: str, y: str) -> Edge:
    """x --> y"""
    return Edge(x, TAIL, y, ARROW)


def bidirected(x: str, y: str) -> Edge:
    return Edge(x, ARROW, y, ARROW)


def undirected(x: str, y: str) -> Edge:
    return Edge(x, TAIL, y, TAIL)


def as_class(cls):
    """None, or cls as a GraphClass: a value such as "mag" is converted and
    an unknown one raises ValueError."""
    return cls if cls is None or isinstance(cls, GraphClass) else GraphClass(cls)


class MixedGraph:
    """Immutable mixed graph. Raw/ADMG graphs may carry parallel edges between
    a pair (e.g. both a --> b and a <-> b); MAG/PAG validation rejects that.
    ``_memo`` keeps what is read off one graph many times: visibility,
    problems, class, reading, input check, regime edges, and only the last
    manipulation: keeping every manipulated graph would hold them all for
    as long as this one lives."""

    __slots__ = ("_nodes", "inputs", "outputs", "latents", "selections",
                 "_edges", "_adj", "_eat", "_anc", "_memo", "_hash")

    def __init__(self, nodes: dict[str, NodeKind], edges=()):
        self._nodes = dict(sorted(nodes.items()))
        by_kind: dict[NodeKind, list[str]] = {k: [] for k in NodeKind}
        for v, k in self._nodes.items():
            by_kind[k].append(v)
        self.inputs, self.outputs, self.latents, self.selections = map(
            tuple, by_kind.values())
        es = set()
        for e in edges:
            if e.a not in self._nodes or e.b not in self._nodes:
                raise ValueError(f"edge {e} references unknown node")
            es.add(e)
        self._edges = frozenset(es)
        adj: dict[str, dict[str, list[Edge]]] = {v: {} for v in self._nodes}
        for e in self._edges:  # both ends of a pair share one list
            pair = adj[e.b][e.a] = adj[e.a].setdefault(e.b, [])
            pair.append(e)
            if len(pair) > 1:  # only parallel edges have an order to show
                pair.sort()
        self._adj = adj
        self._eat: dict[str, tuple] = {}
        self._anc: dict[str, frozenset[str]] = {}
        self._memo: dict = {}
        self._hash = None

    # -- basic accessors ---------------------------------------------------

    @property
    def nodes(self) -> dict[str, NodeKind]:
        return dict(self._nodes)

    @property
    def node_ids(self) -> tuple[str, ...]:
        return tuple(self._nodes)

    @property
    def edges(self) -> frozenset[Edge]:
        return self._edges

    def kind(self, v: str) -> NodeKind:
        return self._nodes[v]

    def has_node(self, v: str) -> bool:
        return v in self._nodes

    def check_nodes(self, *sets):
        """Raise KeyError for the sets' first unknown node in sorted order."""
        for s in sets:
            for v in s:
                if v not in self._nodes:
                    raise KeyError(min(set().union(*sets) - self._nodes.keys()))

    def of_kind(self, kind: NodeKind) -> tuple[str, ...]:
        """The field of kind's nodes, such as ``inputs``, in name order."""
        return getattr(self, kind.value + "s")

    def adjacent(self, v: str, w: str) -> bool:
        return w in self._adj.get(v, {})

    def neighbors(self, v: str) -> tuple[str, ...]:
        return tuple(sorted(self._adj[v]))

    def edges_between(self, v: str, w: str) -> tuple[Edge, ...]:
        return tuple(self._adj.get(v, {}).get(w, ()))

    def edges_at(self, v: str):
        """All (other, mark_at_v, mark_at_other, edge) incident to v, sorted."""
        cached = self._eat.get(v)
        if cached is None:
            out = []
            for w in sorted(self._adj[v]):
                for e in self._adj[v][w]:
                    out.append((w, e.mark_at(v), e.mark_at(w), e))
            cached = self._eat[v] = tuple(out)
        return cached

    def parents(self, v: str) -> set[str]:
        """u with u --> v (tail at u, arrowhead at v)."""
        return {
            w
            for w, mv, mw, _ in self.edges_at(v)
            if mv is ARROW and mw is TAIL
        }

    def children(self, v: str) -> set[str]:
        return {
            w
            for w, mv, mw, _ in self.edges_at(v)
            if mv is TAIL and mw is ARROW
        }

    def spouses(self, v: str) -> set[str]:
        """u with u <-> v."""
        return {
            w
            for w, mv, mw, _ in self.edges_at(v)
            if mv is ARROW and mw is ARROW
        }

    def undirected_neighbors(self, v: str) -> set[str]:
        return {
            w for w, mv, mw, _ in self.edges_at(v) if mv is TAIL and mw is TAIL
        }

    # -- structural edits (return new graphs) ------------------------------

    def edit(self, kinds=None, drop=(), add=()) -> "MixedGraph":
        """One new graph with the node kinds in ``kinds`` set (new ids add
        nodes), the edges in ``drop`` removed and those in ``add`` added, in
        that order.  Returns this graph when nothing changes."""
        nodes = self._nodes
        if kinds and any(nodes.get(v) is not k for v, k in kinds.items()):
            nodes = {**nodes, **kinds}
        edges = self._edges.difference(drop).union(add)
        if nodes is self._nodes and edges == self._edges:
            return self
        return MixedGraph(nodes, edges)

    def induced(self, keep) -> "MixedGraph":
        keep = set(keep)
        self.check_nodes(keep)
        nodes = {v: k for v, k in self._nodes.items() if v in keep}
        edges = {e for e in self._edges if e.a in keep and e.b in keep}
        return MixedGraph(nodes, edges)

    def without_nodes(self, drop) -> "MixedGraph":
        return self.induced(set(self._nodes) - set(drop))

    # -- equality ----------------------------------------------------------

    def __eq__(self, other):
        return (
            isinstance(other, MixedGraph)
            and self._nodes == other._nodes
            and self._edges == other._edges
        )

    def __hash__(self):
        if self._hash is None:
            self._hash = hash((tuple(self._nodes.items()), self._edges))
        return self._hash

    def __repr__(self):
        return f"MixedGraph({len(self._nodes)} nodes, {len(self._edges)} edges)"

    # -- reachability closures ---------------------------------------------

    def _closure(self, X, step, cut=(), checked=False) -> set[str]:
        """What step reaches from X, and X, expanding no node in cut;
        checked says that the graph has every node of X."""
        if not checked:
            self.check_nodes(X)
        seen, frontier = set(X), list(X)
        while frontier:
            v = frontier.pop()
            if v in cut:
                continue
            for w in step(v):
                if w not in seen:
                    seen.add(w)
                    frontier.append(w)
        return seen

    def ancestors(self, X, cut=(), checked=False) -> set[str]:
        """Reflexive-transitive closure along directed edges into X; see
        ``_closure`` for cut and checked."""
        if cut:
            return self._closure(X, self.parents, cut, checked)
        if not checked:
            self.check_nodes(X)
        out = set()
        for v in X:
            cached = self._anc.get(v)
            if cached is None:
                cached = self._anc[v] = frozenset(
                    self._closure((v,), self.parents, checked=True))
            out |= cached
        return out

    def descendants(self, X) -> set[str]:
        return self._closure(X, self.children)

    def anteriors(self, X) -> set[str]:
        """u anterior to X: path of --> / --- edges from u into X."""

        def preds(w):
            return {
                u
                for u, mw, mu, _ in self.edges_at(w)
                if mu is TAIL and mw in (TAIL, ARROW)
            }

        return self._closure(X, preds)

    def possible_ancestors(self, X, cut=(), checked=False) -> set[str]:
        """Closure along potentially directed paths into X: each edge has no
        arrowhead at the near end and no tail at the far end.  See
        ``_closure`` for cut and checked."""

        def preds(w):
            return {
                u
                for u, mw, mu, _ in self.edges_at(w)
                if mu is not ARROW and mw is not TAIL
            }

        return self._closure(X, preds, cut, checked)

    def possible_anteriors(self, X) -> set[str]:
        """Closure along potentially anterior paths into X: each edge merely
        has no arrowhead at the near end."""

        def preds(w):
            return {u for u, _mw, mu, _ in self.edges_at(w) if mu is not ARROW}

        return self._closure(X, preds)

    def possible_descendants(self, X) -> set[str]:
        def succs(u):
            return {
                w
                for w, mu, mw, _ in self.edges_at(u)
                if mu is not ARROW and mw is not TAIL
            }

        return self._closure(X, succs)


# -- validation --------------------------------------------------------------


def _directed_cycle(g: MixedGraph) -> list[str] | None:
    """Return a cycle of definite directed edges, or None."""
    return _cycle(g.node_ids, g.children)


def _cycle(nodes, children) -> list[str] | None:
    """Return a cycle of the relation children (a function from a node to
    its children) over nodes, or None.  Depth first, children in sorted
    order, with an explicit stack: a long directed chain must not hit the
    recursion limit."""
    color: dict[str, int] = {}  # 1 on the current path, 2 done
    for root in nodes:
        if root in color:
            continue
        color[root] = 1
        path = [root]
        todo = [iter(sorted(children(root)))]
        while todo:
            for w in todo[-1]:
                c = color.get(w)
                if c == 1:
                    return path[path.index(w):] + [w]
                if c is None:
                    color[w] = 1
                    path.append(w)
                    todo.append(iter(sorted(children(w))))
                    break
            else:
                color[path.pop()] = 2
                todo.pop()
    return None


def validate(g: MixedGraph, cls: GraphClass) -> list[str]:
    """Check the invariants of the requested graph class; empty list = valid.
    The problems are kept on the graph per class; each call gets a copy."""
    if not isinstance(cls, GraphClass):
        cls = GraphClass(cls)
    found = g._memo.get(("problems", cls))
    if found is None:
        found = g._memo["problems", cls] = tuple(_problems(g, cls))
    return list(found)


def _problems(g: MixedGraph, cls: GraphClass) -> list[str]:
    bad: list[str] = []
    inputs = set(g.inputs)
    edges = sorted(g.edges, key=Edge.sort_key)  # problems in a fixed order
    for e in edges:
        for v in (e.a, e.b):
            if v in inputs and e.mark_at(v) is ARROW:
                bad.append(f"arrowhead at input {v} on {format_edge(e)}")
        if e.a in inputs and e.b in inputs:
            bad.append(f"edge between inputs {e.a}, {e.b}")
    if cls is GraphClass.RAW:
        return bad

    if cls is GraphClass.ADMG:
        for e in edges:
            if CIRCLE in (e.mark_a, e.mark_b):
                bad.append(f"circle mark on {format_edge(e)}")
            if e.mark_a is TAIL and e.mark_b is TAIL:
                bad.append(f"undirected edge {format_edge(e)}")
        cyc = _directed_cycle(g)
        if cyc:
            bad.append("directed cycle " + ",".join(cyc))
        return bad

    # MAG / PAG
    for v in g.node_ids:
        for w in g.neighbors(v):
            if v < w and len(g.edges_between(v, w)) > 1:
                bad.append(f"parallel edges between {v}, {w}")
    if cls is GraphClass.MAG:
        for e in edges:
            if CIRCLE in (e.mark_a, e.mark_b):
                bad.append(f"circle mark on {format_edge(e)}")
    cyc = _directed_cycle(g)
    if cyc:
        bad.append("directed cycle " + ",".join(cyc))
    else:
        for v in g.node_ids:
            anc = g.ancestors({v})
            for w in sorted(g.spouses(v)):
                if w in anc and w != v:
                    bad.append(f"almost directed cycle {w} in Anc({v}), {v}<->{w}")
    for v in g.node_ids:
        has_arrow_in = any(mv is ARROW for _, mv, _, _ in g.edges_at(v))
        if has_arrow_in and g.undirected_neighbors(v):
            u = sorted(g.undirected_neighbors(v))[0]
            bad.append(f"arrowhead into {v} which has undirected edge {v}---{u}")
    # maximality: no inducing path (relative to nothing, given nothing)
    # between distinct non-adjacent nodes
    ids = g.node_ids
    for i, a in enumerate(ids):
        for b in ids[i + 1:]:
            if g.adjacent(a, b):
                continue
            if a in inputs and b in inputs:
                continue
            if inducing_path_exists(g, a, b, set(), set()):
                bad.append(f"inducing path between non-adjacent {a}, {b}")
    return bad


# -- walk search -------------------------------------------------------------


def _walk(g: MixedGraph, starts, passes, targets=()):
    """Breadth-first search over walk states (v, e): the walk is at v and
    came in along the edge e, or e is None at its first node.  starts
    lists the first states in order; a start with an edge puts that edge's
    other end at the head of the walk.  A walk leaves its first node along
    every edge, and any other node v towards w when
    passes(prev, m_in, v, m_out, w, m_w) holds: prev is the node before v,
    m_in and m_out are the marks at v of the edges in and out, and m_w is
    the mark at w.  Returns the parent of each state reached and the first
    state at a target, or None; ``_trace`` reads the shortest walk back
    from it, which callers asking only whether one exists skip."""
    parent = {}
    for state in starts:
        parent.setdefault(state, None)
        if state[0] in targets:
            return parent, state
    queue = list(parent)
    for state in queue:  # breadth first: the loop also visits what it appends
        v, e_in = state
        if e_in is not None:
            prev, m_in = e_in.other(v), e_in.mark_at(v)
        for w, m_out, m_w, e_out in g.edges_at(v):
            if e_in is not None and not passes(prev, m_in, v, m_out, w, m_w):
                continue
            nxt = (w, e_out)
            if nxt in parent:
                continue
            parent[nxt] = state
            if w in targets:
                return parent, nxt
            queue.append(nxt)
    return parent, None


def _trace(parent, state):
    """The walk that ends in state, read back along parent, or None."""
    walk = [] if state is None else [(state[0], None)]
    while state is not None:
        v, e = state
        if e is not None:
            walk.append((e.other(v), e))
        state = parent[state]
    return walk[::-1] or None


def inducing_path_exists(g: MixedGraph, a: str, b: str, L, S) -> bool:
    """Walk from a to b whose non-endnodes are each in L or colliders, with
    every collider an ancestor of {a, b} union S."""
    g.check_nodes((a, b), L, S)
    if a == b:
        raise ValueError("endpoints must differ")
    L = set(L)
    anc = g.ancestors({a, b} | set(S))

    def passes(_prev, m_in, v, m_out, w, _m_w):
        if w == a:
            return False
        return v in anc if m_in is ARROW and m_out is ARROW else v in L

    return _walk(g, [(a, None)], passes, {b})[1] is not None


# -- buckets / pc-components / regions ---------------------------------------


def buckets(g: MixedGraph, D) -> list[tuple[str, ...]]:
    """Partition of D by connectivity via arrowhead-free paths within g_D:
    the closures of its nodes in sorted order, each from the first node
    no earlier one reached."""
    g.check_nodes(D)
    D = set(D)

    def step(v):
        return [w for w, mv, mw, _ in g.edges_at(v)
                if mv is not ARROW and mw is not ARROW and w in D]

    out, seen = [], set()
    for v in sorted(D):
        if v not in seen:
            part = g._closure((v,), step, checked=True)
            seen |= part
            out.append(tuple(sorted(part)))
    return out


def is_visible(g: MixedGraph, a: str, b: str) -> bool:
    """Directed edge a --> b is visible: a is an input, or some c not adjacent
    to b has an arrowhead into a, or an arrowhead into the far end of a
    bidirected chain of parents of b ending at a.  Kept on the graph."""
    found = g._memo.get(("visible", a, b))
    if found is None:
        found = g._memo["visible", a, b] = _visible(g, a, b)
    return found


def _visible(g: MixedGraph, a: str, b: str) -> bool:
    if not any(e.mark_at(a) is TAIL and e.mark_at(b) is ARROW
               for e in g.edges_between(a, b)):
        raise ValueError(f"no directed edge {a} --> {b}")
    if g.kind(a) is INPUT:
        return True
    adj_b = set(g.neighbors(b)) | {b}
    pa_b = g.parents(b)
    # nodes reachable from a through bidirected edges among Pa(b)
    chain = g._closure((a,), lambda v: g.spouses(v) & pa_b)
    for v in chain:
        for c, mv, _mc, _e in g.edges_at(v):
            if mv is ARROW and c not in adj_b:
                return True
    return False


def pc_component(
    g: MixedGraph, D, B, directed_visible: bool = False
) -> tuple[str, ...]:
    """All a in D connected to some b in B within g_D by a single non-visible
    edge or by a collider path with arrowheads throughout and no visible
    edge; B itself included.  With directed_visible every directed edge
    counts as visible, which is the reading for graphs whose directed edges
    are known exactly.

    Visibility is read in the whole graph g, not in g_D: an edge visible in
    P stays visible in P_T after fixing (Jaber, Zhang & Bareinboim 2019).
    Visibility certifies that no latent confounds the edge's endpoints, and
    fixing the nodes outside D adds no confounding, so dropping the node
    that witnessed it does not make the edge invisible.

    Both clauses are one search from all of B: the union of the searches
    from each b is the search from their union."""
    g.check_nodes(D, B)
    D, B = set(D), set(B)
    if not B <= D:
        raise ValueError(f"{sorted(B - D)} not in D")

    def visible(e: Edge) -> bool:
        for x, y in ((e.a, e.b), (e.b, e.a)):
            if e.mark_at(x) is TAIL and e.mark_at(y) is ARROW:
                return directed_visible or is_visible(g, x, y)
        return False

    out = set(B)
    # clause (i): a single non-visible edge within g_D; those with an
    # arrowhead at the far end also start the collider paths of clause (ii)
    chain = set()
    for b in B:
        for w, _mb, mw, e in g.edges_at(b):
            if w in D and not visible(e):
                out.add(w)
                if mw is ARROW:
                    chain.add(w)
    # clause (ii): b *-> v <-> ... <-> v' <-* a; the chain grows along
    # bidirected edges, and any non-visible edge with an arrowhead at a
    # chain node ends a path
    frontier = list(chain)
    while frontier:
        v = frontier.pop()
        for w, mv, mw, e in g.edges_at(v):
            if w not in D or mv is not ARROW or visible(e):
                continue
            out.add(w)
            if mw is ARROW and w not in chain:
                chain.add(w)
                frontier.append(w)
    return tuple(sorted(out))


def region(g: MixedGraph, D, B, directed_visible: bool = False) -> tuple[str, ...]:
    """Bucket closure of the pc-components of B within g_D."""
    g.check_nodes(D, B)
    D = set(D)
    out: set[str] = set()
    lookup = {v: bu for bu in buckets(g, D) for v in bu}
    for c in pc_component(g, D, B, directed_visible):
        out.update(lookup[c])
    return tuple(sorted(out))


def bucket_topological_order(g: MixedGraph, D) -> list[tuple[str, ...]]:
    """Total order of g_D-buckets refining: A wholly potentially-ancestral to B
    puts A before B. Ties broken by smallest contained node id."""
    part = buckets(g, D)
    if not part:
        return []
    h = g.induced(set(D))
    poan = {bu: h.possible_ancestors(set(bu)) for bu in part}
    lookup = {v: bu for bu in part for v in bu}
    succs: dict[tuple[str, ...], set[tuple[str, ...]]] = {bu: set() for bu in part}
    indeg = {bu: 0 for bu in part}

    def add(x, y):
        if y not in succs[x]:
            succs[x].add(y)
            indeg[y] += 1

    for x in part:
        for y in part:
            if x != y and set(x) <= poan[y]:
                add(x, y)
    # a potentially directed edge between buckets also orders them; for
    # SOPAG-derived graphs this refinement cannot create cycles
    for e in h.edges:
        for u, w in ((e.a, e.b), (e.b, e.a)):
            if e.mark_at(u) is not ARROW and e.mark_at(w) is not TAIL:
                bu, bw = lookup[u], lookup[w]
                if bu != bw:
                    add(bu, bw)
    order: list[tuple[str, ...]] = []
    ready = sorted([bu for bu in part if indeg[bu] == 0])
    while ready:
        bu = ready.pop(0)
        order.append(bu)
        for nxt in sorted(succs[bu]):
            indeg[nxt] -= 1
            if indeg[nxt] == 0:
                ready.append(nxt)
        ready.sort()
    if len(order) != len(part):
        raise ValueError("cycle among buckets; graph is not SOPAG-derived")
    return order


def discriminating_path(g: MixedGraph, y: str,
                        z: str) -> tuple[str, ...] | None:
    """A shortest discriminating path <a, q1..qk, y, z> (k >= 1) as a node
    tuple, or None: a is not adjacent to z, every q_i is a collider on the
    path and a parent of z, and y is adjacent to both q_k and z.

    A walk from y into some q_k passes each q_i and stops at a.  A shortest
    such walk is a path: cutting out the stretch between two visits of a q
    keeps an arrowhead into it on both sides, and a is not adjacent to z,
    so it is never a q."""
    g.check_nodes((y, z))
    pa_z = g.parents(z) if g.adjacent(y, z) else ()
    starts = [(q, e) for q, _my, mq, e in g.edges_at(y)
              if mq is ARROW and q in pa_z]
    if not starts:
        return None
    ends = {v for v in g.node_ids if v != z and not g.adjacent(v, z)}

    def passes(_prev, m_in, v, m_out, w, _m_w):
        return (m_in is m_out is ARROW and v in pa_z
                and w != y and w != z)

    walk = _trace(*_walk(g, starts, passes, ends))
    return None if walk is None else tuple(v for v, _ in reversed(walk)) + (z,)


# -- text format -------------------------------------------------------------

_LEFT = {"<": ARROW, "o": CIRCLE, "-": TAIL}
_RIGHT = {">": ARROW, "o": CIRCLE, "-": TAIL}
_LEFT_INV = {v: k for k, v in _LEFT.items()}
_RIGHT_INV = {v: k for k, v in _RIGHT.items()}
_KINDS = {k.value: k for k in NodeKind}


class ParseError(ValueError):
    pass


def parse_graph(text: str) -> MixedGraph:
    """Parse the line-oriented graph format:

        node <id> <kind>
        edge <id1> <tok> <id2>   with tok like -->, <->, o->, o-o, ---, o--
    """
    g, extra = parse_graph_with_headers(text)
    if extra["soft"] or extra["hard"]:
        raise ParseError("unexpected soft/hard header in plain graph file")
    return g


def parse_graph_with_headers(text: str):
    nodes: dict[str, NodeKind] = {}
    edges: set[Edge] = set()
    soft: list[str] = []
    hard: list[str] = []
    for ln, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        if parts[0] == "node":
            if len(parts) != 3:
                raise ParseError(f"line {ln}: expected 'node <id> <kind>'")
            _, vid, kind = parts
            if kind not in _KINDS:
                raise ParseError(f"line {ln}: unknown kind {kind!r}")
            if vid in nodes:
                raise ParseError(f"line {ln}: duplicate node {vid}")
            nodes[vid] = _KINDS[kind]
        elif parts[0] == "edge":
            if len(parts) != 4:
                raise ParseError(f"line {ln}: expected 'edge <id> <tok> <id>'")
            _, x, tok, y = parts
            if len(tok) != 3 or tok[1] != "-" or tok[0] not in _LEFT or tok[2] not in _RIGHT:
                raise ParseError(f"line {ln}: bad edge token {tok!r}")
            if x not in nodes or y not in nodes:
                raise ParseError(f"line {ln}: edge references undeclared node")
            try:
                e = Edge(x, _LEFT[tok[0]], y, _RIGHT[tok[2]])
            except ValueError as exc:
                raise ParseError(f"line {ln}: {exc}") from None
            if e in edges:
                raise ParseError(f"line {ln}: duplicate edge {x} {tok} {y}")
            edges.add(e)
        elif parts[0] == "soft" and len(parts) == 2:
            soft.append(parts[1])
        elif parts[0] == "hard" and len(parts) == 2:
            hard.append(parts[1])
        else:
            raise ParseError(f"line {ln}: unrecognized statement {line!r}")
    return MixedGraph(nodes, edges), {"soft": soft, "hard": hard}


def format_edge(e: Edge) -> str:
    return f"{e.a} {_LEFT_INV[e.mark_a]}-{_RIGHT_INV[e.mark_b]} {e.b}"


def format_graph(g: MixedGraph, headers: dict | None = None) -> str:
    lines = []
    if headers:
        for d in headers.get("soft", ()):
            lines.append(f"soft {d}")
        for t in headers.get("hard", ()):
            lines.append(f"hard {t}")
    for v, k in sorted(g.nodes.items()):
        lines.append(f"node {v} {k.value}")
    for e in sorted(g.edges):
        lines.append("edge " + format_edge(e))
    return "\n".join(lines) + "\n"

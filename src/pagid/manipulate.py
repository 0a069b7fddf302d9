"""The hard/soft manipulation operators.  ``manipulate`` implements both,
soft first and then hard, as one graph build; the other two are its
one-sided calls.  Edge visibility, which the soft rules read, lives in the
graph core (``graph.is_visible``)."""

from __future__ import annotations

from dataclasses import dataclass

from .graph import (
    ARROW,
    CIRCLE,
    TAIL,
    Edge,
    GraphClass,
    INPUT,
    MixedGraph,
    OUTPUT,
    as_class,
    format_graph,
    is_visible,
    parse_graph_with_headers,
    validate,
)

REGIME_PREFIX = "I__"


def regime_id(d: str) -> str:
    return REGIME_PREFIX + d


@dataclass(frozen=True)
class ManipulatedGraph:
    """A manipulation: the manipulated graph, its targets and the class it
    was manipulated as.  hard_targets have been turned into input-kind
    nodes with no incoming arrowheads; each soft target d kept its kind
    but gained the regime indicator parent I__d."""

    graph: MixedGraph
    hard_targets: tuple[str, ...] = ()
    soft_targets: tuple[str, ...] = ()
    base_class: GraphClass = GraphClass.MAG

    @property
    def regime_ids(self) -> tuple[str, ...]:
        return tuple(map(regime_id, self.soft_targets))


def _plain(g) -> MixedGraph:
    """The graph under a manipulation's bookkeeping, or g itself."""
    return g.graph if isinstance(g, ManipulatedGraph) else g


def _check_unmanipulated(g, cls: GraphClass):
    """A graph entering its first manipulation must be valid under the
    class it is manipulated as and keep clear of the regime-node names."""
    graph = _plain(g)
    if graph is not g and (g.soft_targets or g.hard_targets) or (
            ("checked", cls) in graph._memo):
        return
    for v in graph.node_ids:
        if v.startswith(REGIME_PREFIX):
            raise ValueError(
                f"node id {v!r} collides with the regime-node namespace"
            )
    _check_valid(graph, cls)
    graph._memo["checked", cls] = True


def _check_valid(g: MixedGraph, cls: GraphClass):
    """Raise a ValueError naming every problem of g in the class cls."""
    problems = validate(g, cls)
    if problems:
        raise ValueError("invalid input graph: " + "; ".join(problems))


def soft_manipulate(g, D, cls: GraphClass | None = None) -> ManipulatedGraph:
    """Add a regime indicator I_d for each d in D with edges determined by
    the local structure around d (arrowheads, undirected edges, invisible
    directed edges, circle marks).  All indicators are read off the given
    graph and added in one build; on a valid MAG or PAG that equals adding
    them one at a time, as no indicator adds an arrowhead, undirected edge
    or visibility witness that the edge it copies did not already add."""
    return manipulate(g, D, (), cls)


def hard_manipulate(g, T, cls: GraphClass | None = None) -> ManipulatedGraph:
    """Delete incoming arrowheads at the targets, turn them into inputs, and
    (for ancestral-graph classes) drop edges among inputs and targets."""
    return manipulate(g, (), T, cls)


def manipulate(g, D=(), T=(), cls: GraphClass | None = None,
               checked=False) -> ManipulatedGraph:
    """Combined manipulation: soft on D, then hard on T, as one graph build,
    equal to hard after soft manipulation: the regime edges are read off the
    given graph, the hard rules apply to them and the given edges, and a
    hard target may name a new regime node, an input.  Asked again for its
    last manipulation, a graph returns it unbuilt.  checked says that the
    graph has every node of D and T."""
    graph = _plain(g)
    memo = graph._memo
    key = (g is not graph and (g.hard_targets, g.soft_targets, g.base_class),
           frozenset(D), frozenset(T), cls)
    if memo.get("last", (None,))[0] == key:
        return memo["last"][1]
    _, D, T, cls = key
    cls = as_class(cls)
    mg = g if g is not graph else ManipulatedGraph(
        g, base_class=cls or _infer_class(g))
    cls = cls or mg.base_class
    _check_targets(mg, D, T, cls, checked)
    soft = set(mg.soft_targets)
    kinds, soft_edges = {}, []
    for d in sorted(D - soft):
        kinds[regime_id(d)] = INPUT
        if ("soft", d, cls) not in memo:
            memo["soft", d, cls] = _soft_edges(graph, d, cls)
        soft_edges.extend(memo["soft", d, cls])
    inputs = set(graph.inputs).union(kinds)
    non_input_targets = T - inputs
    fixed = T | inputs
    ancestral = cls in (GraphClass.MAG, GraphClass.PAG)
    gone, add = set(), set()
    for e in (*graph.edges, *soft_edges):
        if (
            e.b in non_input_targets and e.mark_b is ARROW
            or e.a in non_input_targets and e.mark_a is ARROW
            or ancestral and e.a in fixed and e.b in fixed
        ):
            gone.add(e)
        elif cls is GraphClass.PAG:
            for x, y in ((e.a, e.b), (e.b, e.a)):
                if (
                    y in non_input_targets
                    and e.mark_at(y) is CIRCLE
                    and x not in fixed
                    and graph.kind(x) is OUTPUT
                ):
                    gone.add(e)
                    add.add(Edge(x, e.mark_at(x), y, TAIL))
    kinds.update(dict.fromkeys(T, INPUT))
    memo["last"] = key, ManipulatedGraph(
        graph=graph.edit(kinds=kinds, drop=gone,
                         add=add.union(set(soft_edges) - gone)),
        hard_targets=tuple(sorted(set(mg.hard_targets) | T)),
        soft_targets=tuple(sorted(soft | D)),
        base_class=mg.base_class,
    )
    return memo["last"][1]


def _check_targets(g, D, T, cls: GraphClass, checked=False):
    """A manipulation's checks in order: an unknown node (unless checked),
    a node in D and T, the graph, a soft target not an output node, and a
    hard target not an input or output node (a new regime node is input)."""
    graph, made = _plain(g), set(map(regime_id, D))
    if not checked:
        graph.check_nodes(D, T - made)
    if D & T:
        raise ValueError(f"overlapping targets {sorted(D & T)}")
    _check_unmanipulated(g, cls)
    for d in sorted(D):
        if graph.kind(d) is not OUTPUT:
            raise ValueError(f"soft target {d} is not an output node")
    for t in sorted(T - made):
        if graph.kind(t) not in (INPUT, OUTPUT):
            raise ValueError(f"hard target {t} is not an input or output node")


def manipulate_for_search(g, D, T, cls: GraphClass, checked=False):
    """For a search that conditions on every hard target, the graph it
    reads and its dead ends: the soft manipulation and the non-input
    targets where those are dead ends (see ``separate``), else (on a raw
    graph, or one with latent or selection nodes) manipulate(g, D, T, cls)
    and none.  Raises what manipulate(g, D, T, cls) raises."""
    if cls is GraphClass.RAW or g.latents or g.selections:
        return manipulate(g, D, T, cls, checked), frozenset()
    _check_targets(g, D, T, cls, checked)
    return manipulate(g, D, (), cls, True), T.difference(g.inputs)


def _soft_edges(g: MixedGraph, a: str, cls: GraphClass) -> list[Edge]:
    """The edges of the regime indicator of a in g."""
    ia = regime_id(a)
    if cls is GraphClass.ADMG:
        return [Edge(ia, TAIL, a, ARROW)]

    new_edges = []
    arrow_into_a = any(ma is ARROW for _, ma, _, _ in g.edges_at(a))
    undirected_at_a = bool(g.undirected_neighbors(a))
    if arrow_into_a:
        new_edges.append(Edge(ia, TAIL, a, ARROW))
    if undirected_at_a:
        new_edges.append(Edge(ia, TAIL, a, TAIL))
    if not arrow_into_a and not undirected_at_a:
        new_edges.append(Edge(ia, TAIL, a, CIRCLE))

    outputs = set(g.outputs)
    for b, ma, mb, _e in g.edges_at(a):
        if b not in outputs:
            continue
        if mb is ARROW and ma in (TAIL, CIRCLE):
            # a --> b invisible, or a o-> b
            if ma is CIRCLE or not is_visible(g, a, b):
                new_edges.append(Edge(ia, TAIL, b, ARROW))
        elif ma is TAIL and mb is TAIL:
            new_edges.append(Edge(ia, TAIL, b, TAIL))
        elif ma is CIRCLE and mb is TAIL:
            # a o-- b: undirected company at b decides tail vs circle
            if g.undirected_neighbors(b) - {a}:
                new_edges.append(Edge(ia, TAIL, b, TAIL))
            else:
                new_edges.append(Edge(ia, TAIL, b, CIRCLE))
        elif mb is CIRCLE and ma in (TAIL, CIRCLE):
            # a --o b or a o-o b
            new_edges.append(Edge(ia, TAIL, b, CIRCLE))
    return new_edges


def _infer_class(g: MixedGraph) -> GraphClass:
    """The class a plain graph is read as when none is given: ADMG with
    latent or selection nodes; PAG with circle marks; MAG for a valid MAG;
    ADMG otherwise.  The class is kept on the graph.  A manipulation's
    class is its base class."""
    if "class" not in g._memo:
        g._memo["class"] = (
            GraphClass.ADMG if g.latents or g.selections else GraphClass.PAG
            if any(CIRCLE in (e.mark_a, e.mark_b) for e in g.edges) else
            GraphClass.ADMG if validate(g, GraphClass.MAG) else GraphClass.MAG)
    return g._memo["class"]


# -- serialization -----------------------------------------------------------


def format_manipulated(mg: ManipulatedGraph) -> str:
    return format_graph(
        mg.graph,
        headers={"soft": mg.soft_targets, "hard": mg.hard_targets},
    )


def parse_manipulated(text: str, cls: GraphClass = GraphClass.MAG) -> ManipulatedGraph:
    g, headers = parse_graph_with_headers(text)
    soft = tuple(sorted(headers["soft"]))
    for i in map(regime_id, soft):
        if not g.has_node(i):
            raise ValueError(f"missing regime node {i} for soft target")
    return ManipulatedGraph(
        graph=g,
        hard_targets=tuple(sorted(headers["hard"])),
        soft_targets=soft,
        base_class=cls,
    )

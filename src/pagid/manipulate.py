"""Edge visibility and the hard/soft manipulation operators, including the
combined form: soft manipulation first, then hard manipulation."""

from __future__ import annotations

from dataclasses import dataclass, field

from .graph import (
    ARROW,
    CIRCLE,
    TAIL,
    Edge,
    GraphClass,
    INPUT,
    MixedGraph,
    OUTPUT,
    _is_visible,
    as_class,
    format_graph,
    parse_graph_with_headers,
    validate,
)

REGIME_PREFIX = "I__"


def regime_id(d: str) -> str:
    return REGIME_PREFIX + d


@dataclass(frozen=True)
class ManipulatedGraph:
    """A graph together with its manipulation bookkeeping.

    regime_nodes maps each soft target d to its regime indicator node I__d.
    hard_targets have been turned into input-kind nodes with no incoming
    arrowheads; soft_targets keep their kind but gained a regime parent."""

    graph: MixedGraph
    regime_nodes: tuple[tuple[str, str], ...] = ()
    hard_targets: tuple[str, ...] = ()
    soft_targets: tuple[str, ...] = ()
    base_class: GraphClass = GraphClass.MAG

    @property
    def regime_map(self) -> dict[str, str]:
        return dict(self.regime_nodes)

    @property
    def regime_ids(self) -> tuple[str, ...]:
        return tuple(i for _, i in self.regime_nodes)


def _plain(g) -> MixedGraph:
    """The graph under a manipulation's bookkeeping, or g itself."""
    return g.graph if isinstance(g, ManipulatedGraph) else g


def as_manipulated(g, cls: GraphClass = GraphClass.MAG) -> ManipulatedGraph:
    if isinstance(g, ManipulatedGraph):
        return g
    return ManipulatedGraph(graph=g, base_class=cls)


def is_visible(g: MixedGraph, a: str, b: str) -> bool:
    """Whether the directed edge a --> b is visible: its directedness is
    certified by an input origin or a qualifying non-adjacent witness.
    The answer is kept on the graph (``graph._is_visible``)."""
    return _is_visible(_plain(g), a, b)


def _check_unmanipulated(mg: ManipulatedGraph, cls: GraphClass):
    """A graph entering its first manipulation must be valid under the
    class it is manipulated as and keep clear of the regime-node names."""
    if mg.regime_nodes or mg.hard_targets:
        return
    for v in mg.graph.node_ids:
        if v.startswith(REGIME_PREFIX):
            raise ValueError(
                f"node id {v!r} collides with the regime-node namespace"
            )
    problems = validate(mg.graph, cls)
    if problems:
        raise ValueError("invalid input graph: " + "; ".join(problems))


def soft_manipulate(g, D, cls: GraphClass | None = None) -> ManipulatedGraph:
    """Add a regime indicator I_d for each d in D with edges determined by
    the local structure around d (arrowheads, undirected edges, invisible
    directed edges, circle marks).  All indicators are read off the given
    graph and added in one build; on a valid MAG or PAG that equals adding
    them one at a time, as no indicator adds an arrowhead, undirected edge
    or visibility witness that the edge it copies did not already add."""
    cls = as_class(cls)
    mg = as_manipulated(g, cls or _infer_class(g))
    if cls is None:
        cls = mg.base_class
    _check_unmanipulated(mg, cls)
    graph = mg.graph
    existing = mg.regime_map
    new_regimes = list(mg.regime_nodes)
    new_soft = list(mg.soft_targets)
    new_nodes, new_edges = {}, []
    for d in sorted(set(D)):
        if not graph.has_node(d):
            raise KeyError(d)
        if graph.kind(d) is not OUTPUT:
            raise ValueError(f"soft target {d} is not an output node")
        if d in existing:
            continue
        new_nodes[regime_id(d)] = INPUT
        new_edges.extend(_soft_edges(graph, d, cls))
        existing[d] = regime_id(d)
        new_regimes.append((d, regime_id(d)))
        new_soft.append(d)
    return ManipulatedGraph(
        graph=graph.edit(kinds=new_nodes, add=new_edges),
        regime_nodes=tuple(new_regimes),
        hard_targets=mg.hard_targets,
        soft_targets=tuple(sorted(new_soft)),
        base_class=mg.base_class,
    )


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


def hard_manipulate(g, T, cls: GraphClass | None = None) -> ManipulatedGraph:
    """Delete incoming arrowheads at the targets, turn them into inputs, and
    (for ancestral-graph classes) drop edges among inputs and targets."""
    cls = as_class(cls)
    mg = as_manipulated(g, cls or _infer_class(g))
    if cls is None:
        cls = mg.base_class
    _check_unmanipulated(mg, cls)
    graph = mg.graph
    T = sorted(set(T))
    for t in T:
        if not graph.has_node(t):
            raise KeyError(t)
        if graph.kind(t) not in (INPUT, OUTPUT):
            raise ValueError(f"hard target {t} is not an input or output node")
    inputs = set(graph.inputs)
    tset = set(T)
    non_input_targets = tset - inputs
    fixed = tset | inputs
    gone = set()
    add = set()
    for e in graph.edges:
        for x, y in ((e.a, e.b), (e.b, e.a)):
            if y in non_input_targets and e.mark_at(y) is ARROW:
                gone.add(e)
        if cls in (GraphClass.MAG, GraphClass.PAG):
            if e.a in fixed and e.b in fixed:
                gone.add(e)
        if cls is GraphClass.PAG and e not in gone:
            for x, y in ((e.a, e.b), (e.b, e.a)):
                if (
                    y in non_input_targets
                    and e.mark_at(y) is CIRCLE
                    and x not in tset
                    and x not in inputs
                    and graph.kind(x) is OUTPUT
                ):
                    gone.add(e)
                    add.add(Edge(x, e.mark_at(x), y, TAIL))
    return ManipulatedGraph(
        graph=graph.edit(kinds=dict.fromkeys(T, INPUT), drop=gone, add=add),
        regime_nodes=mg.regime_nodes,
        hard_targets=tuple(sorted(set(mg.hard_targets) | tset)),
        soft_targets=mg.soft_targets,
        base_class=mg.base_class,
    )


def manipulate(g, D=(), T=(), cls: GraphClass | None = None) -> ManipulatedGraph:
    """Combined manipulation: soft on D, then hard on T."""
    cls = as_class(cls)
    if set(D) & set(T):
        raise ValueError(f"overlapping targets {sorted(set(D) & set(T))}")
    mg = as_manipulated(g, cls or _infer_class(g))
    mg = soft_manipulate(mg, D, cls)
    mg = hard_manipulate(mg, T, cls)
    return mg


def _infer_class(g) -> GraphClass:
    """The class a graph is read as when none is given: a manipulation's
    base class; ADMG with latent or selection nodes; PAG with circle marks;
    MAG for a valid MAG; ADMG otherwise."""
    if isinstance(g, ManipulatedGraph):
        return g.base_class
    if g.latents or g.selections:
        return GraphClass.ADMG
    if any(CIRCLE in (e.mark_a, e.mark_b) for e in g.edges):
        return GraphClass.PAG
    return GraphClass.ADMG if validate(g, GraphClass.MAG) else GraphClass.MAG


# -- serialization -----------------------------------------------------------


def format_manipulated(mg: ManipulatedGraph) -> str:
    return format_graph(
        mg.graph,
        headers={"soft": mg.soft_targets, "hard": mg.hard_targets},
    )


def parse_manipulated(text: str, cls: GraphClass = GraphClass.MAG) -> ManipulatedGraph:
    g, headers = parse_graph_with_headers(text)
    soft = tuple(sorted(headers["soft"]))
    regimes = tuple((d, regime_id(d)) for d in soft)
    for _, i in regimes:
        if not g.has_node(i):
            raise ValueError(f"missing regime node {i} for soft target")
    return ManipulatedGraph(
        graph=g,
        regime_nodes=regimes,
        hard_targets=tuple(sorted(headers["hard"])),
        soft_targets=soft,
        base_class=cls,
    )

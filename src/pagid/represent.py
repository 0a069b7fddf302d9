"""Translations between the graph classes and witness constructions.

The three workhorse maps are:

* ``mag_of``      projects an acyclic directed mixed graph with latent and
                  selection nodes down to its maximal ancestral graph over
                  the input and output nodes;
* ``canonical_isadmg``  goes the other way, replacing each undirected edge
                  of a MAG by a fresh selection child of both endpoints;
* ``marginalize_latents``  eliminates latent nodes one at a time, splicing
                  walks through them into direct edges.

On top of these sit ``enumerate_mags`` (all MAGs represented by a partial
graph), ``path_witness`` (a represented graph in which the first edge of
a path is confounded and its undirected edges point along it) and its
two-node case ``bidirected_witness`` (an invisible directed edge
confounded).
"""

from __future__ import annotations

import itertools

from .graph import (
    ARROW,
    CIRCLE,
    INPUT,
    LATENT,
    OUTPUT,
    SELECTION,
    TAIL,
    Edge,
    GraphClass,
    MixedGraph,
    format_edge,
    inducing_path_exists,
    is_visible,
    validate,
)


def mag_of(a: MixedGraph) -> MixedGraph:
    """Maximal ancestral graph of an acyclic directed mixed graph: keep the
    input and output nodes, connect pairs joined by an inducing path, and
    put a tail exactly at endpoints that are ancestors of the other end or
    of a selection node."""
    problems = validate(a, GraphClass.ADMG)
    if problems:
        raise ValueError("not a valid ADMG: " + "; ".join(problems))
    latents = set(a.latents)
    selections = set(a.selections)
    keep = [v for v in a.node_ids if a.kind(v) in (INPUT, OUTPUT)]
    nodes = {v: a.kind(v) for v in keep}
    edges = []
    for x, y in itertools.combinations(keep, 2):
        if a.kind(x) is INPUT and a.kind(y) is INPUT:
            continue
        if not inducing_path_exists(a, x, y, latents, selections):
            continue
        mx = TAIL if x in a.ancestors({y} | selections) else ARROW
        my = TAIL if y in a.ancestors({x} | selections) else ARROW
        edges.append(Edge(x, mx, y, my))
    m = MixedGraph(nodes, edges)
    assert validate(m, GraphClass.MAG) == [], validate(m, GraphClass.MAG)
    return m


def split_id(a: str, b: str) -> str:
    a, b = sorted((a, b))
    return f"s__{a}__{b}"


def canonical_isadmg(m: MixedGraph) -> MixedGraph:
    """Canonical represented graph of a MAG: undirected edges become a
    shared selection child, everything else is copied verbatim."""
    circles = sorted(e for e in m.edges if CIRCLE in (e.mark_a, e.mark_b))
    if circles:  # name the first in a fixed order
        raise ValueError(f"circle mark on {format_edge(circles[0])}: not a MAG")
    nodes = {v: m.kind(v) for v in m.node_ids}
    edges = []
    for e in m.edges:
        if e.mark_a is TAIL and e.mark_b is TAIL:
            s = split_id(e.a, e.b)
            if s in nodes:
                raise ValueError(f"node id {s} collides with split namespace")
            nodes[s] = SELECTION
            edges.append(Edge(e.a, TAIL, s, ARROW))
            edges.append(Edge(e.b, TAIL, s, ARROW))
        else:
            edges.append(e)
    a = MixedGraph(nodes, edges)
    assert validate(a, GraphClass.ADMG) == [], validate(a, GraphClass.ADMG)
    return a


def marginalize_latents(a: MixedGraph, drop=None) -> MixedGraph:
    """Eliminate latent nodes (all by default) by splicing the walks that
    pass through them as non-colliders into direct edges."""
    todo = sorted(set(a.latents) if drop is None else set(drop))
    a.check_nodes(todo)
    for l in todo:
        if a.kind(l) is not LATENT:
            raise ValueError(f"{l} is not a latent node")
    for l in todo:
        incident = a.edges_at(l)
        new_edges = []
        for i, (x, _ml1, mx, e1) in enumerate(incident):
            for y, _ml2, my, e2 in incident[i:]:
                if e1 is e2 or x == y:
                    continue
                if e1.mark_at(l) is ARROW and e2.mark_at(l) is ARROW:
                    continue  # collider at the latent: nothing to splice
                new_edges.append(Edge(x, mx, y, my))
        a = a.without_nodes([l]).edit(add=new_edges)
    return a


# -- enumeration -------------------------------------------------------------


def enumerate_mags(p: MixedGraph, limit: int = 1 << 16,
                   membership: str = "all"):
    """All MAGs obtained by resolving every circle mark of p into a tail or
    an arrowhead, at most ``limit`` (>= 1) resolutions.  membership "all"
    keeps every valid MAG; "copag" keeps those whose discovered partial
    graph is p again."""
    if limit < 1:
        raise ValueError(f"limit must be at least 1, not {limit}")
    if membership not in ("all", "copag"):
        raise ValueError(f"unknown membership {membership!r}")
    slots = []
    for e in sorted(p.edges):
        for v in (e.a, e.b):
            if e.mark_at(v) is CIRCLE:
                slots.append((e, v))
    if 2 ** len(slots) > limit:
        raise ValueError(f"too many circle marks ({len(slots)}) to enumerate")
    from .fci import fci, graph_oracle

    # an arrowhead at an input is never valid, so a circle there is a tail
    choices = [(TAIL,) if p.kind(v) is INPUT else (TAIL, ARROW)
               for _e, v in slots]
    out = []
    for choice in itertools.product(*choices):
        marks = dict(zip(slots, choice))
        edges = []
        for e in p.edges:
            ma = marks.get((e, e.a), e.mark_a)
            mb = marks.get((e, e.b), e.mark_b)
            edges.append(Edge(e.a, ma, e.b, mb))
        m = MixedGraph(p.nodes, edges)
        if validate(m, GraphClass.MAG):
            continue
        if membership == "copag" and fci(
                graph_oracle(canonical_isadmg(m)), m.nodes) != p:
            continue
        out.append(m)
    return out


# -- witnesses ---------------------------------------------------------------


def path_witness(m: MixedGraph, path) -> MixedGraph:
    """The canonical represented graph of m (``canonical_isadmg``) in which
    the first edge of the path gains a parallel bidirected edge (none if it
    is bidirected already) and the path's undirected edges also point
    along the path."""
    along = [Edge(x, TAIL, y, ARROW) for x, y in zip(path, path[1:])
             if m.edges_between(x, y)[0] == Edge(x, TAIL, y, TAIL)]
    first = Edge(path[0], ARROW, path[1], ARROW)
    wit = canonical_isadmg(m).edit(add=[first] + along)
    if validate(wit, GraphClass.ADMG):
        raise ValueError("path witness is not a valid represented graph")
    return wit


def bidirected_witness(m: MixedGraph, a: str, b: str) -> MixedGraph:
    """Represented graph of m in which the invisible directed edge a --> b
    gains a parallel bidirected edge: the path witness of a, b."""
    es = m.edges_between(a, b)
    if len(es) != 1 or es[0] != Edge(a, TAIL, b, ARROW):
        raise ValueError(f"no directed edge {a} --> {b}")
    if is_visible(m, a, b):
        raise ValueError(f"{a} --> {b} is visible; no bidirected witness")
    w = path_witness(m, [a, b])
    assert mag_of(w) == m
    return w

"""Separation criteria on (manipulated) graphs.

Two notions live here.  Classical m-separation treats the graph
symmetrically: non-colliders must avoid the conditioning set and colliders
must be ancestors of it.  The asymmetric id-separation refines this for
graphs with input and regime nodes: a walk counts as connecting when it
ends in the second set, an input node, a regime node, or a hard target, and
collider openings distinguish definite ancestry from potential ancestry
depending on whether regime nodes take part in the triple.  Both are one
breadth-first walk search with a different rule for passing a node.  The
id-separation walk computes the ancestors and possible ancestors of the
conditioning set only when it first meets a collider that needs them;
most walks reach a target, or run out of edges, before that.
"""

from __future__ import annotations

import functools
from collections import deque

from .graph import ARROW, CIRCLE, OUTPUT, TAIL
from .manipulate import ManipulatedGraph, _plain


def _walk(graph, A, targets, cond, passes):
    """Shortest walk from A to a target outside cond, as a list of
    (node, edge-to-next) steps ending with (node, None); None if there is
    none.  passes(prev, m_in, v, m_out, w) decides whether a walk that
    enters v from prev with mark m_in at v may leave it towards w with mark
    m_out at v."""
    # state: (node, incoming edge or None at a start node)
    start_states = []
    for a in sorted(A):
        if not graph.has_node(a):
            raise KeyError(a)
        if a in cond:
            continue
        if a in targets:
            return [(a, None)]
        start_states.append((a, None))

    parent = dict.fromkeys(start_states)
    queue = deque(start_states)
    while queue:
        state = queue.popleft()
        v, e_in = state
        if e_in is not None:
            prev, m_in = e_in.other(v), e_in.mark_at(v)
        for w, m_out, _m_w, e_out in graph.edges_at(v):
            if e_in is not None and not passes(prev, m_in, v, m_out, w):
                continue
            nxt = (w, e_out)
            if nxt in parent:
                continue
            parent[nxt] = state
            if w in targets and w not in cond:
                walk = [(w, None)]
                while nxt is not None:
                    node, edge = nxt
                    if edge is not None:
                        walk.append((edge.other(node), edge))
                    nxt = parent[nxt]
                walk.reverse()
                return walk
            queue.append(nxt)
    return None


def open_walk(g, A, B, C):
    """Shortest id-open walk from A to the connecting targets, as a list of
    (node, edge-to-next) steps ending with (node, None); None if separated."""
    graph = _plain(g)
    regimes = set(g.regime_ids) if isinstance(g, ManipulatedGraph) else set()
    cond = set(C)
    # graph.kind raises KeyError for an unknown node of C, before any search
    cond_v = {c for c in cond if graph.kind(c) is OUTPUT}
    targets = set(B) | set(graph.inputs)
    # the collider sets, each computed at its first use
    anc_cond = functools.cache(lambda: graph.ancestors(cond))
    poan_cond = functools.cache(lambda: graph.possible_ancestors(cond_v))

    def passes(prev, m_in, v, m_out, w):
        if m_in is TAIL or m_out is TAIL:
            return v not in cond
        if m_in is CIRCLE and m_out is CIRCLE:
            return v not in cond and not graph.adjacent(prev, w)
        if m_in is ARROW and m_out is ARROW:
            if prev in regimes or w in regimes or v in regimes:
                return v in poan_cond()
            return v in anc_cond()
        if m_in is CIRCLE and m_out is ARROW:
            return prev in regimes and v in poan_cond()
        if m_in is ARROW and m_out is CIRCLE:
            return w in regimes and v in poan_cond()
        return False

    return _walk(graph, A, targets, cond, passes)


def id_separated(g, A, B, C=()) -> bool:
    """Asymmetric separation of A from B given C: no open walk from A to
    B, an input node, a regime node, or a hard target."""
    return open_walk(g, A, B, C) is None


def m_open_walk(g, A, B, C=()):
    """Shortest m-open walk between A and B given C, or None."""
    graph = _plain(g)
    cond = set(C)
    anc_cond = graph.ancestors(cond)

    def passes(prev, m_in, v, m_out, w):
        if m_in is ARROW and m_out is ARROW:
            return v in anc_cond
        return v not in cond

    return _walk(graph, A, set(B), cond, passes)


def d_separated(g, A, B, C=()) -> bool:
    """Classical symmetric m-separation (no circle marks expected)."""
    return m_open_walk(g, A, B, C) is None


def walk_nodes(walk):
    """Node sequence of a walk in the format produced above."""
    return [v for v, _ in walk]

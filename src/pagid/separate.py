"""Separation criteria on (manipulated) graphs.

Two notions live here.  Classical m-separation treats the graph
symmetrically: non-colliders must avoid the conditioning set and colliders
must be ancestors of it.  The asymmetric id-separation refines this for
graphs with input and regime nodes: a walk counts as connecting when it
ends in the second set, an input node, a regime node, or a hard target, and
collider openings distinguish definite ancestry from potential ancestry
depending on whether regime nodes take part in the triple.
"""

from __future__ import annotations

from collections import deque

from .graph import ARROW, CIRCLE, INPUT, OUTPUT, TAIL, MixedGraph
from .manipulate import ManipulatedGraph, _plain


def _regime_ids(g) -> set:
    if isinstance(g, ManipulatedGraph):
        return set(g.regime_ids)
    return set()


def _triple_open(
    m_in,
    m_out,
    v,
    prev_regime,
    next_regime,
    v_regime,
    shielded,
    cond,
    anc_cond,
    poan_cond,
):
    """Whether a walk may pass through v, entering with mark m_in at v and
    leaving with mark m_out at v."""
    if m_in is TAIL or m_out is TAIL:
        return v not in cond
    if m_in is CIRCLE and m_out is CIRCLE:
        return v not in cond and not shielded
    if m_in is ARROW and m_out is ARROW:
        if prev_regime or next_regime or v_regime:
            return v in poan_cond
        return v in anc_cond
    if m_in is CIRCLE and m_out is ARROW:
        return prev_regime and v in poan_cond
    if m_in is ARROW and m_out is CIRCLE:
        return next_regime and v in poan_cond
    return False


def open_walk(g, A, B, C):
    """Shortest id-open walk from A to the connecting targets, as a list of
    (node, edge-to-next) steps ending with (node, None); None if separated."""
    graph = _plain(g)
    regimes = _regime_ids(g)
    A = set(A)
    cond = set(C)
    targets = set(B) | {v for v in graph.node_ids if graph.kind(v) is INPUT}
    anc_cond = graph.ancestors(cond)
    cond_v = {c for c in cond if graph.has_node(c) and graph.kind(c) is OUTPUT}
    poan_cond = graph.possible_ancestors(cond_v)

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

    parent = {s: None for s in start_states}
    queue = deque(start_states)
    while queue:
        state = queue.popleft()
        v, e_in = state
        m_in = e_in.mark_at(v) if e_in is not None else None
        prev = e_in.other(v) if e_in is not None else None
        for w, m_v, _m_w, e_out in graph.edges_at(v):
            if e_in is None:
                ok = True
            else:
                ok = _triple_open(
                    m_in,
                    m_v,
                    v,
                    prev in regimes,
                    w in regimes,
                    v in regimes,
                    graph.adjacent(prev, w),
                    cond,
                    anc_cond,
                    poan_cond,
                )
            if not ok:
                continue
            nxt = (w, e_out)
            if nxt in parent:
                continue
            parent[nxt] = state
            if w in targets and w not in cond:
                walk = [(w, None)]
                cur = nxt
                while cur is not None:
                    node, edge = cur
                    if edge is not None:
                        walk.append((edge.other(node), edge))
                    cur = parent[cur]
                walk.reverse()
                return walk
            queue.append(nxt)
    return None


def id_separated(g, A, B, C=()) -> bool:
    """Asymmetric separation of A from B given C: no open walk from A to
    B, an input node, a regime node, or a hard target."""
    return open_walk(g, A, B, C) is None


def _m_walk(graph: MixedGraph, A, B, C):
    """Shortest m-open walk between A and B given C, or None."""
    A, B, cond = set(A), set(B), set(C)
    anc_cond = graph.ancestors(cond)
    start_states = []
    for a in sorted(A):
        if not graph.has_node(a):
            raise KeyError(a)
        if a in cond:
            continue
        if a in B:
            return [(a, None)]
        start_states.append((a, None))
    parent = {s: None for s in start_states}
    queue = deque(start_states)
    while queue:
        state = queue.popleft()
        v, e_in = state
        m_in = e_in.mark_at(v) if e_in is not None else None
        for w, m_v, _m_w, e_out in graph.edges_at(v):
            if e_in is not None:
                collider = m_in is ARROW and m_v is ARROW
                if collider:
                    if v not in anc_cond:
                        continue
                elif v in cond:
                    continue
            nxt = (w, e_out)
            if nxt in parent:
                continue
            parent[nxt] = state
            if w in B and w not in cond:
                walk = [(w, None)]
                cur = nxt
                while cur is not None:
                    node, edge = cur
                    if edge is not None:
                        walk.append((edge.other(node), edge))
                    cur = parent[cur]
                walk.reverse()
                return walk
            queue.append(nxt)
    return None


def m_open_walk(g, A, B, C=()):
    return _m_walk(_plain(g), A, B, C)


def d_separated(g, A, B, C=()) -> bool:
    """Classical symmetric m-separation (no circle marks expected)."""
    return _m_walk(_plain(g), A, B, C) is None


def walk_nodes(walk):
    """Node sequence of a walk in the format produced above."""
    return [v for v, _ in walk]

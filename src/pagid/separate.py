"""Separation criteria on (manipulated) graphs.

Two notions live here.  Classical m-separation treats the graph
symmetrically: non-colliders must avoid the conditioning set and colliders
must be ancestors of it.  The asymmetric id-separation refines this for
graphs with input and regime nodes: a walk counts as connecting when it
ends in the second set, an input node, a regime node, or a hard target, and
collider openings distinguish definite ancestry from potential ancestry
depending on whether regime nodes take part in the triple.  Both are
rules for passing a node over the graph core's one walk search
(``graph._walk``).  The id-separation rule computes the ancestors and
possible ancestors of the conditioning set only when it first meets a
collider that needs them; most walks reach a target, or run out of edges,
before that.

Two kinds of conditioned node are dead ends: no id-open walk passes one,
it is never a collider, and the closures of the conditioning set need not
expand it.  A regime node I__d is an input with no parents and a tail at
every edge, and the hard rules treat the given edges the same with or
without regime edges, so conditioned regime nodes leave every walk that
does not end at one as it was.  On a MAG, an ADMG, or a PAG over input and
output nodes, the hard rules leave a non-input target d only tails: they
drop each edge with an arrowhead at d or between fixed nodes, and turn a
circle at d into a tail.  Each edge they drop or re-mark for d ends at d,
so a walk that does not pass d, and the adjacency of the nodes it passes,
are as they were, and the closures are those that do not expand d, less d.
So a search whose conditioning set holds every hard target may read the
graph before the hard manipulation, with the non-input targets dead ends.
"""

from __future__ import annotations

from .graph import ARROW, CIRCLE, TAIL, _trace, _walk
from .manipulate import ManipulatedGraph, _plain


def _id_search(g, A, B, C, checked=False, dead=frozenset()):
    """The search for an id-open walk from A (see ``graph._walk``); checked
    says that the graph has every node of the sets, and dead names nodes
    of C read as dead ends: hard targets not yet manipulated (see above)."""
    graph, cond = _plain(g), set(C)
    if not checked:
        graph.check_nodes(A, B, cond)
    regimes = set(g.regime_ids) if isinstance(g, ManipulatedGraph) else set()
    targets = (set(B) | set(graph.inputs)) - cond
    closures = {}  # the collider sets, each computed at its first use

    def opens(v, possible):
        if possible not in closures:
            closures[possible] = (graph.possible_ancestors(
                cond.intersection(graph.outputs), dead, True)
                if possible else graph.ancestors(cond, dead, True)) - dead
        return v in closures[possible]

    def passes(prev, m_in, v, m_out, w, _m_w):
        if m_in is TAIL or m_out is TAIL:
            return v not in cond
        if m_in is CIRCLE and m_out is CIRCLE:
            return v not in cond and not graph.adjacent(prev, w)
        if m_in is ARROW and m_out is ARROW:
            return opens(v, prev in regimes or w in regimes or v in regimes)
        if m_in is CIRCLE and m_out is ARROW:
            return prev in regimes and opens(v, True)
        if m_in is ARROW and m_out is CIRCLE:
            return w in regimes and opens(v, True)
        return False

    starts = [(a, None) for a in sorted(A) if a not in cond]
    return _walk(graph, starts, passes, targets)


def open_walk(g, A, B, C):
    """Shortest id-open walk from A to the connecting targets, as a list of
    (node, edge-to-next) steps ending with (node, None); None if separated."""
    return _trace(*_id_search(g, A, B, C))


def id_separated(g, A, B, C=()) -> bool:
    """Asymmetric separation of A from B given C: no open walk from A to
    B, an input node, a regime node, or a hard target."""
    return _id_search(g, A, B, C)[1] is None


def _m_search(g, A, B, C):
    """The search for an m-open walk between A and B."""
    graph, cond = _plain(g), set(C)
    graph.check_nodes(A, B, cond)
    anc_cond = graph.ancestors(cond)

    def passes(_prev, m_in, v, m_out, _w, _m_w):
        return v in anc_cond if m_in is m_out is ARROW else v not in cond

    starts = [(a, None) for a in sorted(A) if a not in cond]
    return _walk(graph, starts, passes, set(B) - cond)


def m_open_walk(g, A, B, C=()):
    """Shortest m-open walk between A and B given C, or None."""
    return _trace(*_m_search(g, A, B, C))


def d_separated(g, A, B, C=()) -> bool:
    """Classical symmetric m-separation (no circle marks expected)."""
    return _m_search(g, A, B, C)[1] is None


def walk_nodes(walk):
    """Node sequence of a walk in the format produced above."""
    return [v for v, _ in walk]

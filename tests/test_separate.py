"""Tests for the separation criteria.

The m-separation checker is validated against a slow simple-path
enumeration and against networkx d-separation.  The asymmetric criterion
is validated on worked examples and against m-separation in the regimes
where the two provably coincide.  Both searches are checked to return
walks that are walks of the graph from A to a target.
"""

import random

import networkx as nx
import pytest
from hypothesis import given, settings, strategies as st

from pagid import graph as graph_mod
from pagid.graph import (ARROW, OUTPUT, TAIL, Edge, GraphClass, MixedGraph,
                         inducing_path_exists, parse_graph)
from pagid.manipulate import hard_manipulate, manipulate, soft_manipulate
from pagid.represent import enumerate_mags, mag_of
from pagid.separate import (
    d_separated,
    id_separated,
    m_open_walk,
    open_walk,
    walk_nodes,
)
from helpers import all_simple_paths, path_nodes, rand_isadmg


def m_sep_oracle(g, A, B, C):
    """m-separation by explicit path enumeration."""
    A, B, C = set(A), set(B), set(C)
    if A & B - C:
        return False
    anc = g.ancestors(C)
    for a in sorted(A - C):
        for b in sorted(B - C):
            for path in all_simple_paths(g, a, b):
                seq = path_nodes(a, path)
                ok = True
                for i in range(1, len(seq) - 1):
                    v = seq[i]
                    collider = (
                        path[i - 1].mark_at(v) is ARROW
                        and path[i].mark_at(v) is ARROW
                    )
                    if collider:
                        if v not in anc:
                            ok = False
                            break
                    elif v in C:
                        ok = False
                        break
                if ok:
                    return False
    return True


class TestMSeparation:
    def test_chain_blocked_by_middle(self):
        g = parse_graph(
            "node a output\nnode b output\nnode c output\n"
            "edge a --> b\nedge b --> c\n"
        )
        assert not d_separated(g, ["a"], ["c"])
        assert d_separated(g, ["a"], ["c"], ["b"])

    def test_collider_opened_by_descendant(self):
        g = parse_graph(
            "node a output\nnode b output\nnode c output\nnode d output\n"
            "edge a --> c\nedge b --> c\nedge c --> d\n"
        )
        assert d_separated(g, ["a"], ["b"])
        assert not d_separated(g, ["a"], ["b"], ["d"])

    def test_against_path_enumeration(self):
        rng = random.Random(13)
        checked = 0
        for _ in range(150):
            g = rand_isadmg(
                rng,
                n_out=rng.randint(3, 5),
                n_sel=rng.randint(0, 1),
                n_lat=0,
                n_in=rng.randint(0, 1),
                p=0.5,
            )
            names = list(g.node_ids)
            for _ in range(6):
                rng.shuffle(names)
                a, b = names[0], names[1]
                C = [v for v in names[2:] if rng.random() < 0.4]
                got = d_separated(g, [a], [b], C)
                want = m_sep_oracle(g, [a], [b], C)
                assert got == want, (g, a, b, C)
                checked += 1
        assert checked >= 500

    def test_walk_is_reported_and_open(self):
        g = parse_graph(
            "node a output\nnode b output\nnode c output\n"
            "edge a --> b\nedge b --> c\n"
        )
        walk = m_open_walk(g, ["a"], ["c"])
        assert walk_nodes(walk) == ["a", "b", "c"]


class TestIdSeparationExamples:
    def setup_method(self):
        self.fig1 = parse_graph(
            "node a output\nnode b output\nnode c output\n"
            "edge a --> b\nedge b --> c\nedge b <-> c\n"
        )

    def test_chain_admg_claims(self):
        g_ia = soft_manipulate(self.fig1, ["a"], GraphClass.ADMG)
        g_iab = manipulate(self.fig1, ["a"], ["b"], GraphClass.ADMG)
        assert d_separated(g_iab, ["c"], ["I__a"])
        assert not d_separated(g_ia, ["c"], ["I__a"])
        assert d_separated(g_ia, ["b"], ["I__a"], ["a"])

    def test_fork_not_separated_after_soft(self):
        m = parse_graph(
            "node a output\nnode b output\nnode c output\n"
            "edge a --> b\nedge a --> c\n"
        )
        mg = soft_manipulate(m, ["a"], GraphClass.MAG)
        assert not id_separated(mg, ["b"], ["c"], ["a"])
        # the witness graphs agree; note the criterion is asymmetric, so
        # the connecting walk starts at the confounded endpoint
        for extra, start, end in (
            ("edge a <-> b\n", "b", "c"),
            ("edge a <-> c\n", "c", "b"),
        ):
            w = parse_graph(
                "node a output\nnode b output\nnode c output\n"
                "edge a --> b\nedge a --> c\n" + extra
            )
            wg = soft_manipulate(w, ["a"], GraphClass.ADMG)
            assert not id_separated(wg, [start], [end], ["a"])

    def test_two_forks_not_separated(self):
        m = parse_graph(
            "node a output\nnode b output\nnode c output\n"
            "node d output\nnode e output\n"
            "edge a --> b\nedge a --> c\nedge b --> d\nedge c --> e\n"
        )
        mg = soft_manipulate(m, ["a"], GraphClass.MAG)
        assert not id_separated(mg, ["d"], ["I__a"], ["a"])
        assert not id_separated(mg, ["e"], ["I__a"], ["a"])

    def test_d_separation_counterexample_family(self):
        m = parse_graph(
            "node a output\nnode b output\nnode c output\nnode d output\n"
            "edge a --> b\nedge a --- c\nedge b --> d\n"
        )
        mg = soft_manipulate(m, ["a"], GraphClass.MAG)
        assert not d_separated(mg, ["d"], ["c"], ["a"])
        base = (
            "node a output\nnode b output\nnode c output\nnode d output\n"
            "node s selection\n"
            "edge a --> b\nedge a --> s\nedge c --> s\nedge b --> d\n"
        )
        for extra, sep in (
            ("edge a <-> b\n", True),
            ("edge a <-> s\n", True),
            ("edge a <-> b\nedge a <-> s\n", False),
        ):
            w = parse_graph(base + extra)
            wg = soft_manipulate(w, ["a"], GraphClass.ADMG)
            assert d_separated(wg, ["d"], ["c"], ["a", "s"]) is sep

    def test_partial_graph_separation(self):
        p = parse_graph(
            """node a output
node b output
node c1 output
node c2 output
node t output
edge a o-> c1
edge c2 o-> c1
edge c2 o-o b
edge c2 o-> t
edge a o-> t
edge t o-o c1
"""
        )
        pg = hard_manipulate(p, ["t"], GraphClass.PAG)
        assert id_separated(pg, ["a"], ["b"], ["c1", "c2"])
        assert not id_separated(pg, ["a"], ["b"], ["c1"])

    def test_regime_collider_opens_at_a_possible_ancestor(self):
        # v1 o-o v4 makes v1 a possible ancestor of v4 but not an ancestor,
        # and v2 o-o v1 does the same for v2 and v1.  v0 o-> v1 <-o I__v2
        # is a collider in every MAG of the PAG that orients v1 --> v4,
        # where conditioning on v4 opens it; some MAGs do.  Likewise
        # v0 o-> v2 <-- I__v2 given v1
        p = parse_graph(
            "node v0 output\nnode v1 output\nnode v2 output\n"
            "node v3 output\nnode v4 output\n"
            "edge v0 o-> v1\nedge v0 o-> v2\nedge v0 o-> v4\n"
            "edge v1 o-o v2\nedge v1 <-o v3\nedge v1 o-o v4\n"
            "edge v2 <-o v3\nedge v3 o-> v4\n"
        )
        mg = soft_manipulate(p, ["v2"], GraphClass.PAG)
        mags = [soft_manipulate(m, ["v2"], GraphClass.MAG)
                for m in enumerate_mags(p, membership="copag")]
        for a, c, walk in (("v0", "v4", ["v0", "v1", "I__v2"]),
                           ("v4", "v1", ["v4", "v0", "v2", "I__v2"])):
            assert walk_nodes(open_walk(mg, [a], ["I__v2"], [c])) == walk
            assert any(open_walk(m, [a], ["I__v2"], [c]) for m in mags)
        assert open_walk(mg, ["v0"], ["I__v2"], []) is None

    def test_oriented_witness_of_partial_graph(self):
        # one MAG orientation: conditioning on t opens a --> c1 <-- t
        a = parse_graph(
            "node a output\nnode b output\nnode c1 output\n"
            "node c2 output\nnode t output\nnode s selection\n"
            "edge a --> c1\nedge a --> s\nedge c2 --> c1\nedge c2 --> b\n"
            "edge c2 <-> b\nedge c2 --> t\nedge a --> t\nedge t --> c1\n"
        )
        ag = hard_manipulate(a, ["t"], GraphClass.ADMG)
        # with the hard target conditioned (as the criterion prescribes)
        # the collider route a --> c1 <-- t is closed at the endpoint
        assert id_separated(ag, ["a"], ["b"], ["c1", "c2", "s", "t"])
        assert not id_separated(ag, ["a"], ["b"], ["c1", "c2", "s"])

    def test_length_zero_walks(self):
        g = parse_graph("node a output\nnode b output\nedge a --> b\n")
        mg = soft_manipulate(g, ["a"], GraphClass.MAG)
        # a regime node in the first set connects trivially
        assert not id_separated(mg, ["I__a"], ["b"], [])
        assert id_separated(mg, ["I__a"], ["b"], ["I__a"])


class TestIdReducesToMSep:
    def test_without_regime_nodes(self):
        rng = random.Random(31)
        for _ in range(200):
            a = rand_isadmg(
                rng,
                n_out=rng.randint(2, 5),
                n_sel=rng.randint(0, 1),
                n_lat=rng.randint(0, 1),
                n_in=rng.randint(0, 1),
                p=0.5,
            )
            m = mag_of(a)
            names = list(m.node_ids)
            inputs = set(m.inputs)
            if len(names) < 2:
                continue
            for _ in range(5):
                rng.shuffle(names)
                x, y = names[0], names[1]
                C = [v for v in names[2:] if rng.random() < 0.4]
                got = id_separated(m, [x], [y], C)
                want = d_separated(m, [x], set([y]) | inputs, C)
                assert got == want, (m, x, y, C)

    def test_walk_endpoints_respect_conditioning(self):
        g = parse_graph(
            "node a output\nnode b output\nedge a --> b\n"
        )
        assert open_walk(g, ["a"], ["b"], ["a"]) is None
        assert open_walk(g, ["a"], ["b"], ["b"]) is None
        assert walk_nodes(open_walk(g, ["a"], ["b"], [])) == ["a", "b"]


@st.composite
def admg_queries(draw):
    """A random ADMG on 2-7 outputs, each pair joined by nothing (most
    often), a directed edge up the node order, a bidirected edge, or both,
    with disjoint A, B and C drawn from its nodes (A and B non-empty)."""
    names = [f"v{i}" for i in range(draw(st.integers(2, 7)))]
    edges = []
    for i, x in enumerate(names):
        for y in names[i + 1:]:
            kind = draw(st.sampled_from(["", "", "", "", "d", "d", "b", "db"]))
            if "d" in kind:
                edges.append(Edge(x, TAIL, y, ARROW))
            if "b" in kind:
                edges.append(Edge(x, ARROW, y, ARROW))
    g = MixedGraph(dict.fromkeys(names, OUTPUT), edges)
    roles = draw(st.lists(st.sampled_from("-abc"), min_size=len(names),
                          max_size=len(names))
                 .filter(lambda r: "a" in r and "b" in r))
    A, B, C = ([v for v, r in zip(names, roles) if r == k] for k in "abc")
    return g, A, B, C


def latent_projection_dag(g):
    """The DAG that replaces each x <-> y of g with a fresh latent parent."""
    dag = nx.DiGraph()
    dag.add_nodes_from(g.node_ids)
    for i, e in enumerate(sorted(g.edges, key=lambda e: e.sort_key())):
        if e.mark_a is ARROW and e.mark_b is ARROW:
            dag.add_edges_from([(f"L{i}", e.a), (f"L{i}", e.b)])
        else:
            tail = e.a if e.mark_a is TAIL else e.b
            dag.add_edge(tail, e.other(tail))
    return dag


@st.composite
def manipulated_queries(draw):
    """A random isADMG read as an ADMG or through its MAG, soft manipulated
    on some outputs and hard on others, with A, B and C drawn from the
    nodes of the result."""
    rng = random.Random(draw(st.integers(0, 2**32)))
    g = rand_isadmg(rng, n_out=draw(st.integers(2, 5)),
                    n_sel=draw(st.integers(0, 1)),
                    n_lat=draw(st.integers(0, 1)),
                    n_in=draw(st.integers(0, 1)))
    cls = draw(st.sampled_from([GraphClass.ADMG, GraphClass.MAG]))
    if cls is GraphClass.MAG:
        g = mag_of(g)
    outs = g.outputs
    acts = draw(st.lists(st.sampled_from("-st"), min_size=len(outs),
                         max_size=len(outs)))
    D = [v for v, r in zip(outs, acts) if r == "s"]
    T = [v for v, r in zip(outs, acts) if r == "t"]
    mg = manipulate(g, D, T, cls)
    names = mg.graph.node_ids
    roles = draw(st.lists(st.sampled_from("-abc"), min_size=len(names),
                          max_size=len(names))
                 .filter(lambda r: "a" in r and "b" in r))
    A, B, C = ([v for v, r in zip(names, roles) if r == k] for k in "abc")
    return mg, A, B, C


def assert_walk(graph, walk, A, targets, C):
    """walk starts in A, ends in a target, avoids C at both ends, and joins
    each pair of consecutive nodes by the edge it reports."""
    assert walk[0][0] in A and walk[0][0] not in C
    assert walk[-1] == (walk[-1][0], None)
    assert walk[-1][0] in targets and walk[-1][0] not in C
    for (v, e), (w, _) in zip(walk, walk[1:]):
        assert e in graph.edges and {e.a, e.b} == {v, w} and v != w


class TestWalkSearch:
    @settings(max_examples=300)
    @given(admg_queries())
    def test_d_separation_matches_networkx(self, case):
        g, A, B, C = case
        want = nx.is_d_separator(latent_projection_dag(g), set(A), set(B),
                                 set(C))
        assert d_separated(g, A, B, C) == want

    @given(manipulated_queries())
    def test_walks_are_walks_of_the_graph(self, case):
        mg, A, B, C = case
        graph = mg.graph
        walk = open_walk(mg, A, B, C)
        if walk is not None:
            assert_walk(graph, walk, A, set(B) | set(graph.inputs), C)
        walk = m_open_walk(mg, A, B, C)
        assert (walk is None) == d_separated(mg, A, B, C)
        if walk is not None:
            assert_walk(graph, walk, A, B, C)

    @given(manipulated_queries())
    def test_separation_reads_no_walk_back(self, case):
        mg, A, B, C = case
        id_open = open_walk(mg, A, B, C) is not None
        m_open = m_open_walk(mg, A, B, C) is not None
        pairs = [(a, b) for a in A for b in B if a != b]
        inducing = [inducing_path_exists(mg.graph, a, b, C, ())
                    for a, b in pairs]
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(graph_mod, "_trace", None)  # any call fails
            assert id_separated(mg, A, B, C) != id_open
            assert d_separated(mg, A, B, C) != m_open
            assert [inducing_path_exists(mg.graph, a, b, C, ())
                    for a, b in pairs] == inducing

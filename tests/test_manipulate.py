"""Tests for visibility and the hard/soft manipulation operators."""

import gc
import itertools
import random
import weakref

import pytest
from hypothesis import given, settings, strategies as st

from pagid import manipulate as manip_mod
from pagid.fci import fci, graph_oracle
from pagid.graph import (
    ARROW,
    CIRCLE,
    TAIL,
    Edge,
    GraphClass,
    INPUT,
    MixedGraph,
    parse_graph,
)
from pagid.manipulate import (
    REGIME_PREFIX,
    ManipulatedGraph,
    _infer_class,
    format_manipulated,
    hard_manipulate,
    is_visible,
    manipulate,
    manipulate_for_search,
    parse_manipulated,
    regime_id,
    soft_manipulate,
)
from pagid.represent import mag_of
from pagid.separate import open_walk
from helpers import (
    _hard_manipulate_reference,
    _soft_manipulate_reference,
    manipulate_reference,
    open_walk_reference,
    rand_isadmg,
)


def edge_set(g):
    return set(g.edges)


class TestVisibility:
    def test_input_parent_is_visible(self):
        g = parse_graph(
            "node i input\nnode b output\nedge i --> b\n"
        )
        assert is_visible(g, "i", "b")

    def test_plain_directed_edge_invisible(self):
        g = parse_graph(
            "node a output\nnode b output\nedge a --> b\n"
        )
        assert not is_visible(g, "a", "b")

    def test_nonadjacent_spouse_witness(self):
        # c *-> a --> b with c not adjacent to b
        g = parse_graph(
            "node a output\nnode b output\nnode c output\n"
            "edge c <-> a\nedge a --> b\n"
        )
        assert is_visible(g, "a", "b")

    def test_adjacent_witness_does_not_count(self):
        g = parse_graph(
            "node a output\nnode b output\nnode c output\n"
            "edge c <-> a\nedge a --> b\nedge c --> b\n"
        )
        assert not is_visible(g, "a", "b")

    def test_collider_chain_witness(self):
        # c <-> v <-> a with v a parent of b, c not adjacent to b
        g = parse_graph(
            "node a output\nnode b output\nnode c output\nnode v output\n"
            "edge c <-> v\nedge v <-> a\nedge v --> b\nedge a --> b\n"
        )
        assert is_visible(g, "a", "b")

    def test_collider_chain_needs_parents_of_target(self):
        # v is adjacent to b but not a parent of b, so neither the spouse
        # clause nor the collider-chain clause applies
        g = parse_graph(
            "node a output\nnode b output\nnode c output\nnode v output\n"
            "edge c <-> v\nedge v <-> a\nedge a --> b\nedge v <-> b\n"
        )
        assert not is_visible(g, "a", "b")

    def test_answers_die_with_their_graph(self):
        def probes():
            return [o for o in gc.get_objects()
                    if isinstance(o, MixedGraph) and o.has_node("probe")]

        for i in range(50):
            g = parse_graph(
                f"node probe output\nnode b{i} output\nedge probe --> b{i}\n"
            )
            assert not is_visible(g, "probe", f"b{i}")
        del g
        gc.collect()
        assert probes() == []

    def test_no_directed_edge_raises(self):
        g = parse_graph("node a output\nnode b output\nedge a <-> b\n")
        for _ in range(2):
            with pytest.raises(ValueError):
                is_visible(g, "a", "b")


class TestSoftManipulate:
    def test_fork_gets_circle_and_arrows(self):
        m = parse_graph(
            "node a output\nnode b output\nnode c output\n"
            "edge a --> b\nedge a --> c\n"
        )
        g = soft_manipulate(m, ["a"], GraphClass.MAG).graph
        ia = regime_id("a")
        assert edge_set(g) == edge_set(m) | {
            Edge(ia, TAIL, "a", CIRCLE),
            Edge(ia, TAIL, "b", ARROW),
            Edge(ia, TAIL, "c", ARROW),
        }

    def test_undirected_neighbourhood(self):
        m = parse_graph(
            "node a output\nnode b output\nnode c output\nnode d output\n"
            "edge a --> b\nedge a --- c\nedge b --> d\n"
        )
        g = soft_manipulate(m, ["a"], GraphClass.MAG).graph
        ia = regime_id("a")
        assert edge_set(g) == edge_set(m) | {
            Edge(ia, TAIL, "a", TAIL),
            Edge(ia, TAIL, "b", ARROW),
            Edge(ia, TAIL, "c", TAIL),
        }

    def test_visible_child_not_duplicated(self):
        # a <-> b --> c: b --> c is visible, so I_b gets no edge to c
        m = parse_graph(
            "node a output\nnode b output\nnode c output\n"
            "edge a <-> b\nedge b --> c\n"
        )
        g = soft_manipulate(m, ["b"], GraphClass.MAG).graph
        ib = regime_id("b")
        assert edge_set(g) == edge_set(m) | {Edge(ib, TAIL, "b", ARROW)}

    def test_admg_gets_single_parent_edge(self):
        a = parse_graph(
            "node a output\nnode b output\nnode c output\n"
            "edge a --> b\nedge b --> c\nedge b <-> c\n"
        )
        g = soft_manipulate(a, ["a"], GraphClass.ADMG).graph
        assert edge_set(g) == edge_set(a) | {
            Edge(regime_id("a"), TAIL, "a", ARROW)
        }

    def test_rejects_non_output_target(self):
        g = parse_graph("node i input\nnode b output\nedge i --> b\n")
        with pytest.raises(ValueError):
            soft_manipulate(g, ["i"], GraphClass.MAG)

    def test_rejects_colliding_node_ids(self):
        g = parse_graph("node I__a input\nnode a output\nedge I__a --> a\n")
        with pytest.raises(ValueError):
            soft_manipulate(g, ["a"], GraphClass.MAG)

    def test_repeated_target_is_idempotent(self):
        m = parse_graph("node a output\nnode b output\nedge a --> b\n")
        g1 = soft_manipulate(m, ["a"], GraphClass.MAG)
        g2 = soft_manipulate(g1, ["a"])
        assert g1.graph == g2.graph


class TestHardManipulate:
    def test_admg_removes_incoming(self):
        a = parse_graph(
            "node a output\nnode b output\nnode c output\n"
            "edge a --> b\nedge b --> c\nedge b <-> c\n"
        )
        g = manipulate(a, ["a"], ["b"], GraphClass.ADMG).graph
        assert edge_set(g) == {
            Edge(regime_id("a"), TAIL, "a", ARROW),
            Edge("b", TAIL, "c", ARROW),
        }
        assert g.kind("b") is INPUT

    def test_mag_drops_edges_among_targets_and_inputs(self):
        m = parse_graph(
            "node i input\nnode a output\nnode b output\n"
            "edge i --> a\nedge a --> b\n"
        )
        g = hard_manipulate(m, ["a"], GraphClass.MAG).graph
        assert edge_set(g) == {Edge("a", TAIL, "b", ARROW)}

    def test_pag_circle_at_target_becomes_tail(self):
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
        g = hard_manipulate(p, ["t"], GraphClass.PAG).graph
        assert edge_set(g) == {
            Edge("a", CIRCLE, "c1", ARROW),
            Edge("c2", CIRCLE, "c1", ARROW),
            Edge("c2", CIRCLE, "b", CIRCLE),
            Edge("t", TAIL, "c1", CIRCLE),
        }
        assert g.kind("t") is INPUT

    def test_overlapping_soft_and_hard_rejected(self):
        m = parse_graph("node a output\nnode b output\nedge a --> b\n")
        with pytest.raises(ValueError):
            manipulate(m, ["a"], ["a"], GraphClass.MAG)


class TestTwoOrders:
    """Combined manipulations applied in the two possible orders."""

    def setup_method(self):
        self.m = parse_graph(
            "node a output\nnode b output\nnode c output\n"
            "edge a <-> b\nedge b --> c\n"
        )

    def test_hard_then_soft(self):
        g = soft_manipulate(hard_manipulate(self.m, ["a"], GraphClass.MAG), ["b"])
        ib = regime_id("b")
        assert edge_set(g.graph) == {
            Edge(ib, TAIL, "b", CIRCLE),
            Edge(ib, TAIL, "c", ARROW),
            Edge("b", TAIL, "c", ARROW),
        }

    def test_soft_then_hard(self):
        g = hard_manipulate(soft_manipulate(self.m, ["b"], GraphClass.MAG), ["a"])
        ib = regime_id("b")
        assert edge_set(g.graph) == {
            Edge(ib, TAIL, "b", ARROW),
            Edge("b", TAIL, "c", ARROW),
        }


def random_mags(seed, count, max_out=4):
    rng = random.Random(seed)
    for _ in range(count):
        a = rand_isadmg(
            rng,
            n_out=rng.randint(2, max_out),
            n_sel=rng.randint(0, 1),
            n_lat=rng.randint(0, 1),
            n_in=rng.randint(0, 1),
            p=0.5,
        )
        yield mag_of(a)


class TestCommutation:
    def test_soft_soft_and_hard_hard(self):
        for m in random_mags(23, 120):
            outs = list(m.outputs)
            for k in range(1, len(outs) + 1):
                for A in itertools.combinations(outs, k):
                    rest = [v for v in outs if v not in A]
                    for j in range(len(rest) + 1):
                        for B in itertools.combinations(rest, j):
                            both = set(A) | set(B)
                            s1 = soft_manipulate(
                                soft_manipulate(m, A, GraphClass.MAG), B
                            ).graph
                            s2 = soft_manipulate(m, both, GraphClass.MAG).graph
                            assert s1 == s2
                            h1 = hard_manipulate(
                                hard_manipulate(m, A, GraphClass.MAG), B
                            ).graph
                            h2 = hard_manipulate(m, both, GraphClass.MAG).graph
                            assert h1 == h2

    def test_visibility_preserved_by_soft(self):
        for m in random_mags(29, 150):
            outs = list(m.outputs)
            if not outs:
                continue
            rng = random.Random(str(m.node_ids))
            D = [v for v in outs if rng.random() < 0.5]
            g = soft_manipulate(m, D, GraphClass.MAG).graph
            for e in m.edges:
                for tail, head in ((e.a, e.b), (e.b, e.a)):
                    if (
                        e.mark_at(tail) is TAIL
                        and e.mark_at(head) is ARROW
                        and m.kind(tail) not in (INPUT,)
                    ):
                        assert is_visible(m, tail, head) == is_visible(
                            g, tail, head
                        )


class TestSerialization:
    def test_round_trip(self):
        m = parse_graph(
            "node a output\nnode b output\nnode c output\n"
            "edge a <-> b\nedge b --> c\n"
        )
        g = manipulate(m, ["b"], ["a"], GraphClass.MAG)
        text = format_manipulated(g)
        back = parse_manipulated(text, GraphClass.MAG)
        assert back.graph == g.graph
        assert back.soft_targets == g.soft_targets
        assert back.hard_targets == g.hard_targets


class TestClassInference:
    """Without a class, a graph is manipulated as the class it is read as:
    a manipulation's base class, ADMG with latent or selection nodes, PAG
    with circle marks, MAG if it is a valid MAG, ADMG otherwise."""

    BOW = (
        "node a output\nnode b output\nnode l latent\n"
        "edge l --> a\nedge l --> b\nedge a --> b\n"
    )
    # v0 <-> v2 with v0 an ancestor of v2
    NOT_MAG = (
        "node v0 output\nnode v1 output\nnode v2 output\nnode v4 output\n"
        "edge v0 <-> v2\nedge v0 --> v4\nedge v1 --> v2\nedge v1 <-> v4\n"
        "edge v4 --> v2\n"
    )

    def test_reading_rules(self):
        bow, not_mag = parse_graph(self.BOW), parse_graph(self.NOT_MAG)
        selected = parse_graph(
            "node a output\nnode s selection\nedge a --> s\n"
        )
        pag = parse_graph("node a output\nnode b output\nedge a o-> b\n")
        mag = parse_graph("node a output\nnode b output\nedge a --> b\n")
        assert _infer_class(bow) is GraphClass.ADMG
        assert _infer_class(selected) is GraphClass.ADMG
        assert _infer_class(pag) is GraphClass.PAG
        assert _infer_class(mag) is GraphClass.MAG
        assert _infer_class(not_mag) is GraphClass.ADMG
        assert soft_manipulate(mag, ["a"], GraphClass.ADMG).base_class is (
            GraphClass.ADMG
        )

    def test_latent_graph_gains_only_the_regime_edge(self):
        g = soft_manipulate(parse_graph(self.BOW), ["a"]).graph
        assert [(w, mi, mw) for w, mi, mw, _ in g.edges_at("I__a")] == [
            ("a", TAIL, ARROW)
        ]

    def test_graph_that_is_no_mag_is_manipulated_as_admg(self):
        mg = manipulate(parse_graph(self.NOT_MAG), ["v0", "v1", "v4"])
        assert mg.base_class is GraphClass.ADMG
        for d in ("v0", "v1", "v4"):
            assert [w for w, *_ in mg.graph.edges_at(regime_id(d))] == [d]

    def test_class_given_as_string(self):
        g = parse_graph("node a output\nnode b output\nedge a --> b\n")
        for op in (soft_manipulate, manipulate):
            mg = op(g, ["a"], cls="admg")
            assert mg == op(g, ["a"], cls=GraphClass.ADMG)
            assert [w for w, *_ in mg.graph.edges_at("I__a")] == ["a"]
        assert hard_manipulate(g, ["b"], "mag") == hard_manipulate(
            g, ["b"], GraphClass.MAG)
        with pytest.raises(ValueError):
            soft_manipulate(g, ["a"], "dag")

    def test_invalid_graph_is_rejected_in_its_class(self):
        g = parse_graph(self.NOT_MAG)
        for op in (soft_manipulate, hard_manipulate):
            with pytest.raises(ValueError, match="almost directed cycle"):
                op(g, ["v0"], GraphClass.MAG)
        with pytest.raises(ValueError, match="undirected edge"):
            hard_manipulate(
                parse_graph("node a output\nnode b output\nedge a --- b\n"),
                ["a"], GraphClass.ADMG,
            )


@st.composite
def manipulation_cases(draw):
    """A random MAG, FCI PAG with an input node, or ADMG with latent and
    selection nodes, sometimes manipulated once already, a class to
    manipulate it as, and soft and hard targets.  Three times in four the
    targets are disjoint outputs; otherwise they are drawn from all nodes,
    a regime node of the first output and an unknown name, so that the
    calls also fail in each of the ways they can."""
    rng = random.Random(draw(st.integers(0, 2**32)))
    kind = draw(st.sampled_from(["MAG", "PAG", "ADMG"]))
    g = rand_isadmg(
        rng,
        n_out=draw(st.integers(2, 5)),
        n_sel=draw(st.integers(0, 1)),
        n_lat=draw(st.integers(0, 1)),
        n_in=1 if kind == "PAG" else draw(st.integers(0, 1)),
        p=draw(st.sampled_from([0.3, 0.5, 0.7])),
    )
    if kind == "MAG":
        g = mag_of(g)
    elif kind == "PAG":
        g = fci(graph_oracle(g))
    cls = draw(st.sampled_from(
        [None, None, GraphClass[kind], GraphClass.ADMG, GraphClass.MAG,
         GraphClass.PAG]))

    def targets():
        h = g.graph if isinstance(g, ManipulatedGraph) else g
        outs = h.outputs
        if outs and draw(st.integers(0, 3)):
            acts = draw(st.lists(st.sampled_from("-st"), min_size=len(outs),
                                 max_size=len(outs)))
            return ([v for v, r in zip(outs, acts) if r == "s"],
                    [v for v, r in zip(outs, acts) if r == "t"])
        pool = list(h.node_ids) + [regime_id(v) for v in outs[:1]] + ["zz"]
        return (draw(st.lists(st.sampled_from(pool), max_size=3)),
                draw(st.lists(st.sampled_from(pool), max_size=3)))

    if draw(st.booleans()):
        try:
            g = manipulate_reference(g, *targets(), cls)
        except (KeyError, ValueError):
            pass
    return g, cls, *targets()


def outcome(f, *args):
    """f(*args), or the type and text of the error it raises."""
    try:
        return f(*args)
    except (KeyError, ValueError) as exc:
        return type(exc), str(exc)


class TestOneBuild:
    """manipulate is one graph build; the reference builds the soft
    manipulation and then the hard one."""

    @settings(max_examples=300)
    @given(manipulation_cases(), st.data())
    def test_matches_the_two_build_reference(self, case, data):
        g, cls, D, T = case
        mg = outcome(manipulate, g, D, T, cls)
        assert mg == outcome(manipulate_reference, g, D, T, cls)
        assert outcome(soft_manipulate, g, D, cls) == outcome(
            _soft_manipulate_reference, g, D, cls)
        assert outcome(hard_manipulate, g, T, cls) == outcome(
            _hard_manipulate_reference, g, T, cls)
        if not isinstance(mg, ManipulatedGraph):
            return
        names = mg.graph.node_ids
        for _ in range(3):
            roles = data.draw(st.lists(st.sampled_from("-abc"),
                                       min_size=len(names),
                                       max_size=len(names)))
            A, B, C = ([v for v, r in zip(names, roles) if r == k]
                       for k in "abc")
            if data.draw(st.integers(0, 9)) == 0:
                C.append("zz")
            assert outcome(open_walk, mg, A, B, C) == outcome(
                open_walk_reference, mg, A, B, C)

    def test_hard_target_may_name_a_regime_node_of_the_same_call(self):
        m = parse_graph("node a output\nnode b output\nedge a --> b\n")
        mg = manipulate(m, ["a"], [regime_id("a")], GraphClass.MAG)
        assert mg == manipulate_reference(m, ["a"], [regime_id("a")],
                                          GraphClass.MAG)
        assert mg.hard_targets == (regime_id("a"),)


class TestRegimeNodes:
    """The premise of "a conditioned regime node is a dead end" (see the
    separate module docstring): the regime nodes of a manipulation are the
    regime ids of its soft targets, and each is an input with a tail at
    every edge."""

    @settings(max_examples=300)
    @given(manipulation_cases())
    def test_regime_nodes_are_tailed_inputs(self, case):
        g, cls, D, T = case
        mg = outcome(manipulate, g, D, T, cls)
        if not isinstance(mg, ManipulatedGraph):
            return
        regimes = {v for v in mg.graph.node_ids
                   if v.startswith(REGIME_PREFIX)}
        assert set(mg.regime_ids) == regimes
        for v in regimes:
            assert mg.graph.kind(v) is INPUT
            assert all(mv is TAIL for _, mv, _, _ in mg.graph.edges_at(v))


def fresh(g):
    """g on a newly built graph, which has kept nothing yet."""
    if isinstance(g, ManipulatedGraph):
        return ManipulatedGraph(fresh(g.graph), g.hard_targets,
                                g.soft_targets, g.base_class)
    return MixedGraph(g.nodes, g.edges)


CLASSES = [None, GraphClass.ADMG, GraphClass.MAG, GraphClass.PAG, "mag",
           GraphClass.RAW]


@st.composite
def call_sequences(draw):
    """One graph object and a sequence of manipulations of it.  The graph is
    a random MAG, FCI PAG or ADMG, or the graph of a manipulation of one,
    which holds regime nodes.  Each call passes the graph itself or a
    ManipulatedGraph over it that differs in bookkeeping or base class,
    with a class and targets.  About one call in four repeats the one
    before, and one in four repeats it on an input of the same base class.
    Targets come from every node, regime ids and an unknown name, so calls
    also fail in each way they can: overlapping targets, a soft target that
    is no output, an unknown node, a regime-name collision and a graph that
    is invalid under the class."""
    rng = random.Random(draw(st.integers(0, 2**32)))
    kind = draw(st.sampled_from(["MAG", "PAG", "ADMG"]))
    g = rand_isadmg(rng, n_out=draw(st.integers(2, 5)),
                    n_sel=draw(st.integers(0, 1)),
                    n_lat=draw(st.integers(0, 1)),
                    n_in=1 if kind == "PAG" else draw(st.integers(0, 1)),
                    p=draw(st.sampled_from([0.3, 0.5, 0.7])))
    if kind == "MAG":
        g = mag_of(g)
    elif kind == "PAG":
        g = fci(graph_oracle(g))
    books = [((), ())]
    if draw(st.booleans()):
        d = draw(st.sampled_from(g.outputs))
        mg = manipulate_reference(g, [d], (), GraphClass[kind])
        g = mg.graph
        books.append((mg.hard_targets, mg.soft_targets))  # its bookkeeping
    books.append(((draw(st.sampled_from(g.node_ids)),), ()))
    inputs = [g] + [ManipulatedGraph(g, *book, base_class=c)
                    for book in books for c in GraphClass]
    outs = g.outputs
    pool = list(g.node_ids) + [regime_id(v) for v in outs[:2]] + ["zz"]

    def targets():
        if draw(st.integers(0, 2)):
            acts = draw(st.lists(st.sampled_from("-st"), min_size=len(outs),
                                 max_size=len(outs)))
            return ([v for v, r in zip(outs, acts) if r == "s"],
                    [v for v, r in zip(outs, acts) if r == "t"])
        return (draw(st.lists(st.sampled_from(pool), max_size=3)),
                draw(st.lists(st.sampled_from(pool), max_size=3)))

    calls = []
    for _ in range(draw(st.integers(2, 8))):
        step = draw(st.integers(0, 3)) if calls else 3
        if step == 0:
            calls.append(calls[-1])
        elif step == 1:  # the same call on other bookkeeping, mostly
            prev = calls[-1][0]
            like = [h for h in inputs if getattr(h, "base_class", None)
                    is getattr(prev, "base_class", None)]
            calls.append((draw(st.sampled_from(like)), *calls[-1][1:]))
        else:
            calls.append((draw(st.sampled_from(inputs)), *targets(),
                          draw(st.sampled_from(CLASSES))))
    return g, calls


class TestLastManipulation:
    """A graph keeps its inferred class, its passes of the input check, the
    regime edges of its soft targets and its last manipulation.  None of it
    may change an answer or an error, or keep earlier results alive."""

    @settings(max_examples=300)
    @given(call_sequences())
    def test_sequences_match_the_reference(self, case):
        g, calls = case
        for h, D, T, cls in calls:
            got = outcome(manipulate, h, D, T, cls)
            # equality of ManipulatedGraphs covers the bookkeeping too
            assert got == outcome(manipulate_reference, fresh(h), D, T, cls)
            assert outcome(manipulate, h, D, T, cls) == got

    def test_errors_are_raised_again(self):
        g = parse_graph("node a output\nnode b output\nedge a o-> b\n")
        for _ in range(3):
            with pytest.raises(ValueError, match="circle mark on a o-> b"):
                manipulate(g, ["a"], (), GraphClass.MAG)
            with pytest.raises(ValueError, match="overlapping targets"):
                manipulate(g, ["a"], ["a"])
            with pytest.raises(KeyError):
                manipulate(g, ["zz"])
            assert manipulate(g, ["a"]).graph.has_node(regime_id("a"))

    def test_only_the_last_result_is_kept(self):
        outs = [f"v{i}" for i in range(7)]
        g = parse_graph("".join(f"node {v} output\n" for v in outs)
                        + "".join(f"edge {v} --> {w}\n"
                                  for v, w in zip(outs, outs[1:])))
        targets = [T for k in range(1, 4)
                   for T in itertools.combinations(outs, k)][:50]
        refs = []
        for T in targets:
            refs.append(weakref.ref(manipulate(g, (), T)))
        gc.collect()
        assert [r() is None for r in refs] == [True] * 49 + [False]


class TestCheapLastHit:
    """Asked again for its last manipulation with the same arguments, a
    graph answers from its memo before it reads the class, copies the
    target sets or wraps the graph."""

    def test_a_hit_does_no_work(self, monkeypatch):
        g = parse_graph("node a output\nnode b output\nedge a --> b\n")
        D, T = frozenset("a"), frozenset("b")
        first = manipulate(g, D, T, GraphClass.MAG)

        def boom(*args, **kwargs):
            raise AssertionError("a hit did work")

        for name in ("as_class", "_infer_class", "_check_targets"):
            monkeypatch.setattr(manip_mod, name, boom)
        monkeypatch.setattr(ManipulatedGraph, "__init__", boom)
        assert manipulate(g, D, T, GraphClass.MAG) is first
        with pytest.raises(AssertionError, match="a hit did work"):
            manipulate(g, D, T, GraphClass.PAG)

    def test_a_search_hit_checks_only_the_hard_targets(self, monkeypatch):
        # a --> b --> c with an input x --> b: the search's graph is the soft
        # manipulation on D; a repeat finds it as the graph's last and runs
        # no check of the graph or of D, whatever its hard targets are
        g = parse_graph("node a output\nnode b output\nnode c output\n"
                        "node x input\nedge a --> b\nedge b --> c\n"
                        "edge x --> b\n")
        D = frozenset("a")
        first, dead = manipulate_for_search(g, D, frozenset("c"),
                                            GraphClass.MAG)
        assert first == soft_manipulate(MixedGraph(g.nodes, g.edges), D,
                                        GraphClass.MAG)
        assert dead == frozenset("c")

        def boom(*args, **kwargs):
            raise AssertionError("a hit did work")

        real_kind = MixedGraph.kind

        def kind(graph, v):
            if v in D:
                boom()
            return real_kind(graph, v)

        for name in ("_check_targets", "_check_unmanipulated", "validate",
                     "_infer_class"):
            monkeypatch.setattr(manip_mod, name, boom)
        monkeypatch.setattr(MixedGraph, "kind", kind)
        monkeypatch.setattr(ManipulatedGraph, "__init__", boom)
        for T, checked in [("c", False), ("bc", True), ("x", False),
                           ((regime_id("a"),), False), ((), False)]:
            mg, dead = manipulate_for_search(g, D, frozenset(T),
                                             GraphClass.MAG, checked)
            assert mg is first
            assert dead == frozenset(T) - {"x"}
        # the checks that read the hard targets still run, with their texts
        with pytest.raises(KeyError) as exc:
            manipulate_for_search(g, D, frozenset({"zz", "zb"}),
                                  GraphClass.MAG)
        assert exc.value.args == ("zb",)
        with pytest.raises(ValueError, match=r"overlapping targets \['a'\]"):
            manipulate_for_search(g, D, frozenset("ab"), GraphClass.MAG)
        # another soft target is a miss, which checks and builds
        with pytest.raises(AssertionError, match="a hit did work"):
            manipulate_for_search(g, frozenset("b"), frozenset("c"),
                                  GraphClass.MAG)


class TestRegimeIds:
    """A record's regime_ids is the frozenset of its soft targets' regime
    ids, read once per record, and no field: it takes no part in equality,
    hashing or the record's repr."""

    def records(self):
        g = parse_graph("node a output\nnode b output\nnode c output\n"
                        "edge a --> b\nedge b --> c\n")
        soft = soft_manipulate(g, ["a", "b"], GraphClass.MAG)
        return [
            manipulate(g, ["a"], ["c"], GraphClass.MAG),
            manipulate(g, (), ["c"], GraphClass.MAG),
            soft,
            manipulate(soft, (), ["c"]),  # soft, then hard
            parse_manipulated(format_manipulated(soft)),
        ]

    def test_the_regime_ids_of_the_soft_targets(self):
        for mg in self.records():
            want = frozenset(map(regime_id, mg.soft_targets))
            assert mg.regime_ids == want
            assert type(mg.regime_ids) is frozenset
            assert mg.regime_ids is mg.regime_ids  # read once
        assert self.records()[3].regime_ids == {regime_id("a"),
                                                regime_id("b")}

    def test_no_part_of_equality_hash_or_repr(self):
        for mg in self.records():
            twin = ManipulatedGraph(mg.graph, mg.hard_targets,
                                    mg.soft_targets, mg.base_class)
            before = repr(twin)
            mg.regime_ids  # cached on mg alone
            assert "regime_ids" in vars(mg)
            assert "regime_ids" not in vars(twin)
            assert mg == twin and hash(mg) == hash(twin)
            assert repr(mg) == repr(twin) == before
            assert "regime_ids" not in repr(mg)

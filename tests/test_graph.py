import random
import time

import pytest
from hypothesis import given, settings, strategies as st

from pagid import graph as graph_mod
from pagid.graph import (
    ARROW,
    CIRCLE,
    TAIL,
    Edge,
    GraphClass,
    INPUT,
    LATENT,
    MixedGraph,
    OUTPUT,
    ParseError,
    SELECTION,
    bidirected,
    bucket_topological_order,
    buckets,
    directed,
    discriminating_path,
    edge,
    format_graph,
    inducing_path_exists,
    parse_graph,
    pc_component,
    region,
    undirected,
    validate,
)
from helpers import (
    anteriors_oracle,
    directed_cycle_recursive,
    discriminating_paths_reference,
    inducing_path_oracle,
    possible_ancestors_oracle,
    possible_anteriors_oracle,
    rand_mixed_graph,
)


def chain_admg():
    # a --> b --> c with b <-> c
    return parse_graph(
        """
        node a output
        node b output
        node c output
        edge a --> b
        edge b --> c
        edge b <-> c
        """
    )


def square_mag():
    # undirected 4-cycle a---c1---b---c2---a
    return parse_graph(
        """
        node a output
        node b output
        node c1 output
        node c2 output
        edge a --- c1
        edge c1 --- b
        edge b --- c2
        edge c2 --- a
        """
    )


class TestParsing:
    def test_round_trip(self):
        g = chain_admg()
        assert parse_graph(format_graph(g)) == g

    def test_all_edge_tokens(self):
        g = parse_graph(
            "node a output\nnode b output\nnode c output\nnode d output\n"
            "edge a --> b\nedge a <-> c\nedge a o-> d\nedge b o-o c\n"
            "edge b --- d\nedge c o-- d\n"
        )
        assert Edge("a", TAIL, "b", ARROW) in g.edges
        assert Edge("c", CIRCLE, "d", TAIL) in g.edges
        assert parse_graph(format_graph(g)) == g

    def test_duplicate_edge_rejected(self):
        with pytest.raises(ParseError):
            parse_graph(
                "node a output\nnode b output\nedge a --> b\nedge a --> b\n"
            )

    def test_undeclared_node_rejected(self):
        with pytest.raises(ParseError):
            parse_graph("node a output\nedge a --> b\n")

    def test_parallel_edges_allowed_for_admg(self):
        g = parse_graph(
            "node a output\nnode b output\nedge a --> b\nedge a <-> b\n"
        )
        assert len(g.edges_between("a", "b")) == 2


class TestEdges:
    def test_stored_in_order_with_the_tuple_hash(self):
        e = Edge("b", ARROW, "a", TAIL)
        assert (e.a, e.mark_a, e.b, e.mark_b) == ("a", TAIL, "b", ARROW)
        # set iteration order, and so search order, follows this value
        assert hash(e) == hash(("a", TAIL, "b", ARROW))
        assert e == directed("a", "b") and e != bidirected("a", "b")

    def test_immutable(self):
        e = directed("a", "b")
        with pytest.raises(AttributeError):
            e.a = "c"

    def test_self_loop_rejected(self):
        with pytest.raises(ValueError):
            Edge("a", TAIL, "a", ARROW)


class TestEdit:
    def test_kinds_drop_and_add_in_one_build(self):
        g = chain_admg()
        h = g.edit(
            kinds={"a": INPUT, "x": INPUT},
            drop=[bidirected("b", "c")],
            add=[directed("x", "c")],
        )
        assert h.kind("a") is INPUT and h.kind("x") is INPUT
        assert h.edges == {directed("a", "b"), directed("b", "c"),
                           directed("x", "c")}
        assert g == chain_admg()  # graphs are immutable

    def test_no_change_returns_the_graph(self):
        g = chain_admg()
        assert g.edit() is g
        assert g.edit(kinds={"a": OUTPUT}, add=[directed("a", "b")]) is g

    def test_kinds_are_partitioned_once(self):
        # each kind's nodes, in name order, built with the graph
        g = MixedGraph({"s": SELECTION, "c": OUTPUT, "i": INPUT, "a": OUTPUT,
                        "l": LATENT})
        h = g.edit(kinds={"c": INPUT})
        assert (g.outputs, g.inputs, g.latents, g.selections) == (
            ("a", "c"), ("i",), ("l",), ("s",))
        assert (h.outputs, h.inputs) == (("a",), ("c", "i"))
        assert g.outputs is g.outputs and g.of_kind(INPUT) is g.inputs
        assert MixedGraph({}).outputs == ()


class TestValidate:
    def test_chain_admg_valid(self):
        assert validate(chain_admg(), GraphClass.ADMG) == []

    def test_class_given_as_string(self):
        g = parse_graph("node a output\nnode b output\nedge a o-> b\n")
        assert validate(g, "mag") == validate(g, GraphClass.MAG) == [
            "circle mark on a o-> b"
        ]
        with pytest.raises(ValueError):
            validate(g, "dag")

    def test_single_node_mag(self):
        g = MixedGraph({"a": OUTPUT})
        assert validate(g, GraphClass.MAG) == []

    def test_cycle_rejected(self):
        g = MixedGraph(
            {"a": OUTPUT, "b": OUTPUT},
            # no parallel-pair cycle is possible with canonical edges, so use
            # a 3-cycle
        )
        g3 = MixedGraph(
            {"a": OUTPUT, "b": OUTPUT, "c": OUTPUT},
            [directed("a", "b"), directed("b", "c"), directed("c", "a")],
        )
        assert validate(g, GraphClass.ADMG) == []
        assert any("cycle" in v for v in validate(g3, GraphClass.ADMG))

    def test_cycle_text(self):
        g = MixedGraph(
            {v: OUTPUT for v in "abcd"},
            [directed("a", "b"), directed("b", "c"), directed("c", "d"),
             directed("d", "b")],
        )
        assert validate(g, GraphClass.ADMG) == ["directed cycle b,c,d,b"]

    def test_cycles_match_the_recursive_search(self):
        rng = random.Random(5)
        for _ in range(300):
            g = rand_mixed_graph(rng, n=rng.randint(2, 7),
                                 marks=(TAIL, ARROW))
            assert graph_mod._directed_cycle(g) == directed_cycle_recursive(g)

    def test_deep_chain(self):
        # deeper than the recursion limit
        n = 1200
        g = MixedGraph({f"v{i:04d}": OUTPUT for i in range(n)},
                       [directed(f"v{i:04d}", f"v{i + 1:04d}")
                        for i in range(n - 1)])
        assert validate(g, GraphClass.ADMG) == []
        back = g.edit(add=[directed(f"v{n - 1:04d}", "v0000")])
        cycle = validate(back, GraphClass.ADMG)[0].split(" ")[-1].split(",")
        assert len(cycle) == n + 1 and cycle[0] == cycle[-1] == "v0000"

    def test_almost_directed_cycle_rejected(self):
        g = MixedGraph(
            {"a": OUTPUT, "b": OUTPUT, "c": OUTPUT},
            [directed("a", "b"), directed("b", "c"), bidirected("c", "a")],
        )
        assert any("almost" in v for v in validate(g, GraphClass.MAG))

    def test_arrow_into_undirected_rejected(self):
        g = MixedGraph(
            {"a": OUTPUT, "b": OUTPUT, "c": OUTPUT},
            [directed("a", "b"), undirected("b", "c")],
        )
        assert any("undirected" in v for v in validate(g, GraphClass.MAG))

    def test_non_maximal_rejected(self):
        # a --> b <-> c with b in Anc(a,c)? make collider b ancestor of c
        # via b --> d --> c? simpler: a <-> b <-> c with b ancestor of a.
        g = MixedGraph(
            {"a": OUTPUT, "b": OUTPUT, "c": OUTPUT},
            [bidirected("a", "b"), bidirected("b", "c"), directed("b", "a")],
        )
        # b is an ancestor of endpoint a, so a <-> b <-> c induces; a,c not
        # adjacent -> not maximal (also an ancestral violation is fine)
        assert validate(g, GraphClass.MAG) != []

    def test_square_mag_valid(self):
        assert validate(square_mag(), GraphClass.MAG) == []


class TestClosures:
    def test_ancestors_chain(self):
        g = chain_admg()
        assert g.ancestors({"c"}) == {"a", "b", "c"}

    def test_ancestors_trivial(self):
        g = chain_admg()
        assert g.ancestors(set()) == set()
        assert MixedGraph({"a": OUTPUT}).ancestors({"a"}) == {"a"}

    def test_circle_chain_possible_ancestors(self):
        g = parse_graph(
            "node a output\nnode b output\nnode c output\n"
            "edge a o-o b\nedge b o-o c\n"
        )
        assert g.possible_ancestors({"c"}) == {"a", "b", "c"}

    def test_undirected_edge_not_potentially_directed(self):
        g = MixedGraph({"a": OUTPUT, "b": OUTPUT}, [undirected("a", "b")])
        assert g.possible_ancestors({"b"}) == {"b"}
        assert g.possible_anteriors({"b"}) == {"a", "b"}
        assert g.anteriors({"b"}) == {"a", "b"}

    def test_closures_match_oracles_random(self):
        rng = random.Random(7)
        for _ in range(150):
            g = rand_mixed_graph(rng, n=5, p=0.5)
            ids = list(g.node_ids)
            X = set(rng.sample(ids, rng.randint(1, 3)))
            assert g.possible_ancestors(X) == possible_ancestors_oracle(g, X)
            assert g.possible_anteriors(X) == possible_anteriors_oracle(g, X)
            assert g.anteriors(X) == anteriors_oracle(g, X)
            assert g.ancestors(X) <= g.possible_ancestors(X)
            assert g.possible_ancestors(X) <= g.possible_anteriors(X)


class TestBuckets:
    def test_square_is_one_bucket(self):
        g = square_mag()
        assert buckets(g, g.node_ids) == [("a", "b", "c1", "c2")]

    def test_directed_only_singletons(self):
        g = MixedGraph(
            {"a": OUTPUT, "b": OUTPUT}, [directed("a", "b")]
        )
        assert buckets(g, ["a", "b"]) == [("a",), ("b",)]

    def test_empty(self):
        assert buckets(chain_admg(), []) == []

    def test_partition_property(self):
        rng = random.Random(3)
        for _ in range(100):
            g = rand_mixed_graph(rng, n=6)
            D = set(rng.sample(list(g.node_ids), rng.randint(0, 6)))
            part = buckets(g, D)
            flat = [v for bu in part for v in bu]
            assert sorted(flat) == sorted(D)
            assert len(set(flat)) == len(flat)


class TestPcRegion:
    def test_isolated_node(self):
        g = MixedGraph({"a": OUTPUT, "b": OUTPUT}, [])
        assert pc_component(g, {"a", "b"}, {"b"}) == ("b",)

    def test_visible_edge_excluded(self):
        # c --> a --> b with c non-adjacent to b: a --> b is visible in the
        # induced graph, so a is not in Pc(b) through that edge
        g = MixedGraph(
            {"a": OUTPUT, "b": OUTPUT, "c": OUTPUT},
            [directed("c", "a"), directed("a", "b")],
        )
        assert pc_component(g, {"a", "b", "c"}, {"b"}) == ("b",)

    def test_invisible_edge_included(self):
        g = MixedGraph(
            {"a": OUTPUT, "b": OUTPUT}, [directed("a", "b")]
        )
        assert pc_component(g, {"a", "b"}, {"b"}) == ("a", "b")

    def test_collider_path(self):
        # a <-> m <-> b: a reaches b through interior collider m
        g = MixedGraph(
            {"a": OUTPUT, "b": OUTPUT, "m": OUTPUT},
            [bidirected("a", "m"), bidirected("m", "b")],
        )
        assert pc_component(g, {"a", "b", "m"}, {"b"}) == ("a", "b", "m")

    @settings(max_examples=300)
    @given(st.integers(0, 2**32), st.integers(2, 7), st.booleans())
    def test_set_is_the_union_of_single_nodes(self, seed, n, dv):
        rng = random.Random(seed)
        kinds = [rng.choice([OUTPUT, OUTPUT, OUTPUT, INPUT]) for _ in range(n)]
        g = rand_mixed_graph(rng, n=n, p=rng.choice([0.3, 0.5, 0.8]),
                             kinds=kinds)
        D = set(rng.sample(g.node_ids, rng.randint(1, n)))
        B = set(rng.sample(sorted(D), rng.randint(0, len(D))))
        single = set()
        for b in B:
            single.update(pc_component(g, D, {b}, dv))
        assert pc_component(g, D, B, dv) == tuple(sorted(single))

    def test_region_square(self):
        g = square_mag()
        assert region(g, g.node_ids, {"a"}) == ("a", "b", "c1", "c2")

    def test_region_monotone(self):
        rng = random.Random(11)
        for _ in range(60):
            g = rand_mixed_graph(rng, n=5)
            D = set(g.node_ids)
            b1 = set(rng.sample(list(D), 1))
            b2 = b1 | set(rng.sample(list(D), 2))
            r1 = set(region(g, D, b1))
            r2 = set(region(g, D, b2))
            assert b1 <= r1
            assert r1 <= r2

    def test_directed_chain_region(self):
        g = MixedGraph(
            {"a": OUTPUT, "b": OUTPUT, "c": OUTPUT},
            [directed("a", "b"), directed("b", "c")],
        )
        # b --> c is invisible in induced {b,c} subgraph w/o a; but within
        # full D, a --> b is visible (a has no arrow in, c... ) compute:
        assert set(region(g, {"b"}, {"b"})) == {"b"}


class TestTopologicalOrder:
    def test_single_bucket(self):
        g = square_mag()
        assert bucket_topological_order(g, g.node_ids) == [
            ("a", "b", "c1", "c2")
        ]

    def test_empty(self):
        assert bucket_topological_order(chain_admg(), []) == []

    def test_chain_order(self):
        g = chain_admg()
        order = bucket_topological_order(g, g.node_ids)
        pos = {bu: i for i, bu in enumerate(order)}
        assert pos[("a",)] < pos[("b",)] < pos[("c",)]

    def test_no_backward_potentially_directed_edge(self):
        rng = random.Random(5)
        done = 0
        for _ in range(200):
            g = rand_mixed_graph(rng, n=5, p=0.4)
            try:
                order = bucket_topological_order(g, g.node_ids)
            except ValueError:
                continue
            done += 1
            pos = {v: i for i, bu in enumerate(order) for v in bu}
            h = g
            for e in g.edges:
                for u, w in ((e.a, e.b), (e.b, e.a)):
                    # definite directed edge u --> w must not go backwards
                    if e.mark_at(u) is TAIL and e.mark_at(w) is ARROW:
                        assert pos[u] <= pos[w]
            _ = h
        assert done > 50


class TestInducingPaths:
    def test_direct_edge(self):
        g = MixedGraph({"a": OUTPUT, "b": OUTPUT}, [directed("a", "b")])
        assert inducing_path_exists(g, "a", "b", set(), set())

    def test_disconnected(self):
        g = MixedGraph({"a": OUTPUT, "b": OUTPUT}, [])
        assert not inducing_path_exists(g, "a", "b", set(), set())

    def test_collider_into_selection(self):
        g = parse_graph(
            "node a input\nnode b input\nnode s selection\n"
            "edge a --> s\nedge b --> s\n"
        )
        assert inducing_path_exists(g, "a", "b", set(), {"s"})
        assert not inducing_path_exists(g, "a", "b", set(), set())

    def test_latent_chain(self):
        g = parse_graph(
            "node a output\nnode l latent\nnode b output\nedge a --> l\n"
            "edge l --> b\n"
        )
        assert inducing_path_exists(g, "a", "b", {"l"}, set())
        assert not inducing_path_exists(g, "a", "b", set(), set())

    def test_matches_path_enumeration_oracle(self):
        rng = random.Random(13)
        for _ in range(200):
            g = rand_mixed_graph(rng, n=5, p=0.5)
            ids = list(g.node_ids)
            a, b = rng.sample(ids, 2)
            rest = [v for v in ids if v not in (a, b)]
            L = {v for v in rest if rng.random() < 0.3}
            S = {v for v in rest if rng.random() < 0.2}
            assert inducing_path_exists(g, a, b, L, S) == inducing_path_oracle(
                g, a, b, L, S
            )


class TestDiscriminatingPaths:
    def test_basic(self):
        g = MixedGraph(
            {"a": OUTPUT, "q": OUTPUT, "y": OUTPUT, "z": OUTPUT},
            [
                directed("a", "q"),
                bidirected("q", "y"),
                directed("q", "z"),
                edge("y", CIRCLE, "z", CIRCLE),
            ],
        )
        assert discriminating_path(g, "y", "z") == ("a", "q", "y", "z")

    def test_triangle_excluded(self):
        g = MixedGraph(
            {"a": OUTPUT, "q": OUTPUT, "y": OUTPUT, "z": OUTPUT},
            [
                directed("a", "q"),
                bidirected("q", "y"),
                directed("q", "z"),
                edge("y", CIRCLE, "z", CIRCLE),
                directed("a", "z"),  # shielded: a adjacent to z
            ],
        )
        assert discriminating_path(g, "y", "z") is None

    def test_short_path_excluded(self):
        g = MixedGraph(
            {"a": OUTPUT, "q": OUTPUT, "z": OUTPUT},
            [directed("a", "q"), directed("q", "z")],
        )
        assert discriminating_path(g, "q", "z") is None

    @settings(max_examples=300)
    @given(st.integers(0, 2**32), st.integers(3, 8),
           st.sampled_from([0.3, 0.5, 0.8]),
           st.sampled_from([(TAIL, ARROW, CIRCLE), (TAIL, ARROW, ARROW)]))
    def test_agrees_with_reference(self, seed, n, p, marks):
        # the second mark set makes arrowheads, and so paths, common
        g = rand_mixed_graph(random.Random(seed), n=n, p=p, marks=marks)
        for y in g.node_ids:
            for z in g.node_ids:
                if y == z:
                    continue
                found = discriminating_path(g, y, z)
                listed = discriminating_paths_reference(g, y, z)
                assert (found is None) == (not listed)
                if listed:
                    assert found in listed
                    assert len(found) == min(map(len, listed))

    def test_dense_collider_clique_takes_milliseconds(self):
        # nine colliders q0..q8 into z, all bidirected to each other and to
        # y: the reference lists 986,409 paths, the walk stops at the first
        qs = [f"q{i}" for i in range(9)]
        edges = [directed("y", "z")]
        for i, q in enumerate(qs):
            edges += [directed("a", q), directed(q, "z"), bidirected(q, "y")]
            edges += [bidirected(q, r) for r in qs[i + 1:]]
        g = MixedGraph({v: OUTPUT for v in ["a", "y", "z", *qs]}, edges)
        assert validate(g, GraphClass.MAG) == []
        t0 = time.monotonic()
        assert discriminating_path(g, "y", "z") == ("a", "q0", "y", "z")
        assert time.monotonic() - t0 < 0.05

    def test_no_start_reads_no_other_node(self, monkeypatch):
        # a chordless o-o cycle: no arrowhead at any q next to y, so no
        # discriminating path can start, whatever the nodes far from z
        n = 200
        vs = [f"v{i:03d}" for i in range(n)]
        g = MixedGraph({v: OUTPUT for v in vs},
                       [edge(v, CIRCLE, w, CIRCLE)
                        for v, w in zip(vs, vs[1:] + vs[:1])])
        calls = []
        real = MixedGraph.adjacent

        def counted(self, v, w):
            calls.append((v, w))
            return real(self, v, w)

        monkeypatch.setattr(MixedGraph, "adjacent", counted)
        assert discriminating_path(g, vs[0], vs[1]) is None
        assert calls == [(vs[0], vs[1])]

    def test_long_collider_chain_needs_no_recursion(self):
        # a --> q0 <-> q1 <-> ... <-> q1499 <-> y, every q a parent of z
        n = 1500
        qs = [f"q{i:04d}" for i in range(n)]
        edges = [directed("a", qs[0]), bidirected(qs[-1], "y"),
                 edge("y", CIRCLE, "z", CIRCLE)]
        edges += [directed(q, "z") for q in qs]
        edges += [bidirected(q, r) for q, r in zip(qs, qs[1:])]
        g = MixedGraph({v: OUTPUT for v in ["a", "y", "z", *qs]}, edges)
        path = discriminating_path(g, "y", "z")
        assert path == ("a", *qs, "y", "z") and len(path) == n + 3

"""Tests for projections between graph classes and witness constructions,
including the reference witness searches kept in the test helpers."""

import random

import pytest
from hypothesis import given, settings, strategies as st

from pagid.graph import (
    ARROW,
    CIRCLE,
    INPUT,
    OUTPUT,
    TAIL,
    Edge,
    GraphClass,
    parse_graph,
    validate,
)
from pagid.manipulate import manipulate
from pagid.represent import (
    bidirected_witness,
    canonical_isadmg,
    enumerate_mags,
    mag_of,
    marginalize_latents,
    split_id,
)
from pagid.separate import d_separated
from helpers import (
    enumerate_mags_reference,
    enumerate_represented,
    rand_isadmg,
    rand_mixed_graph,
    separation_failure_witness,
)


class TestMagOf:
    def test_selection_children_of_inputs_vanish(self):
        a = parse_graph(
            "node a input\nnode b input\nnode s selection\n"
            "edge a --> s\nedge b --> s\n"
        )
        assert set(mag_of(a).edges) == set()

    def test_selection_children_of_outputs_link(self):
        a = parse_graph(
            "node a output\nnode b output\nnode s selection\n"
            "edge a --> s\nedge b --> s\n"
        )
        assert set(mag_of(a).edges) == {Edge("a", TAIL, "b", TAIL)}

    def test_latent_confounder_becomes_bidirected(self):
        a = parse_graph(
            "node x output\nnode y output\nnode l latent\n"
            "edge l --> x\nedge l --> y\n"
        )
        assert set(mag_of(a).edges) == {Edge("x", ARROW, "y", ARROW)}

    def test_extra_spouse_at_ancestor_keeps_direction(self):
        # witness graphs from the d-separation counterexample family
        m = parse_graph(
            "node a output\nnode b output\nnode c output\nnode d output\n"
            "edge a --> b\nedge a --- c\nedge b --> d\n"
        )
        base = (
            "node a output\nnode b output\nnode c output\nnode d output\n"
            "node s selection\n"
            "edge a --> b\nedge a --> s\nedge c --> s\nedge b --> d\n"
        )
        a1 = parse_graph(base + "edge a <-> b\n")
        a2 = parse_graph(base + "edge a <-> s\n")
        a3 = parse_graph(base + "edge a <-> b\nedge a <-> s\n")
        assert mag_of(a1) == m
        assert mag_of(a2) == m
        m3 = mag_of(a3)
        assert m3 != m
        assert m3.adjacent("b", "c")

    def test_rejects_cyclic_graph(self):
        g = parse_graph(
            "node a output\nnode b output\nedge a --> b\nedge b --> a\n"
        )
        with pytest.raises(ValueError):
            mag_of(g)


class TestCanonical:
    def test_undirected_edge_split(self):
        m = parse_graph("node a output\nnode b output\nedge a --- b\n")
        a = canonical_isadmg(m)
        s = split_id("a", "b")
        assert set(a.edges) == {
            Edge("a", TAIL, s, ARROW),
            Edge("b", TAIL, s, ARROW),
        }
        assert s in a.selections

    def test_rejects_circles(self):
        p = parse_graph("node a output\nnode b output\nedge a o-o b\n")
        with pytest.raises(ValueError):
            canonical_isadmg(p)


def random_isadmgs(seed, count):
    rng = random.Random(seed)
    for _ in range(count):
        yield rand_isadmg(
            rng,
            n_out=rng.randint(2, 5),
            n_sel=rng.randint(0, 2),
            n_lat=rng.randint(0, 2),
            n_in=rng.randint(0, 1),
            p=0.5,
        )


class TestRoundTrips:
    def test_canonical_projects_back(self):
        for a in random_isadmgs(3, 300):
            m = mag_of(a)
            assert mag_of(canonical_isadmg(m)) == m

    def test_marginalization_invariance(self):
        for a in random_isadmgs(5, 300):
            assert mag_of(marginalize_latents(a)) == mag_of(a)

    def test_partial_marginalization(self):
        for a in random_isadmgs(9, 100):
            lats = list(a.latents)
            if not lats:
                continue
            partial = marginalize_latents(a, lats[:1])
            assert mag_of(partial) == mag_of(a)


class TestEnumerateMags:
    def test_single_circle_edge(self):
        p = parse_graph("node a output\nnode b output\nedge a o-o b\n")
        mags = enumerate_mags(p)
        kinds = {tuple(sorted((e.mark_a.value, e.mark_b.value)))
                 for m in mags for e in m.edges}
        # all four resolutions of o-o are ancestral here
        assert len(mags) == 4
        assert ("-", ">") in kinds and (">", ">") in kinds and ("-", "-") in kinds

    def test_input_circles_become_tails_only(self):
        p = parse_graph("node i input\nnode b output\nedge i o-> b\n")
        mags = enumerate_mags(p)
        assert len(mags) == 1
        assert mags[0].edges_between("i", "b")[0] == Edge("i", TAIL, "b", ARROW)

    def test_invalid_orientations_dropped(self):
        # collider orientation at b would break ancestrality with b --- c
        p = parse_graph(
            "node a output\nnode b output\nnode c output\n"
            "edge a o-> b\nedge b --- c\n"
        )
        for m in enumerate_mags(p):
            assert validate(m, GraphClass.MAG) == []
            assert m.edges_between("a", "b")[0].mark_at("b") is ARROW
            # so no orientation keeps both the arrowhead and b --- c
        assert enumerate_mags(p) == []

    def test_limit_below_one_is_rejected(self):
        # not read as "too many circle marks" on a graph without any
        p = parse_graph("node a output\nnode b output\nedge a --> b\n")
        with pytest.raises(ValueError, match="limit must be at least 1"):
            enumerate_mags(p, limit=0)

    def test_unknown_membership_is_named(self):
        p = parse_graph("node a output\nnode b output\nedge a o-> b\n")
        with pytest.raises(ValueError, match="unknown membership 'some'"):
            enumerate_mags(p, membership="some")
        assert enumerate_mags(p, membership="all") == enumerate_mags(p)

    def test_a_callable_membership_is_rejected(self):
        p = parse_graph("node a output\nnode b output\nedge a o-> b\n")
        with pytest.raises(ValueError, match="unknown membership"):
            enumerate_mags(p, membership=lambda m: True)

    @settings(max_examples=200)
    @given(st.integers(0, 2**32))
    def test_equals_the_reference(self, seed):
        # a circle at an input offers only a tail; the MAGs, their order
        # and the limit's test stay those of the filtering body
        rng = random.Random(seed)
        n = rng.randint(2, 5)
        g = rand_mixed_graph(rng, n=n, p=rng.choice([0.4, 0.7]),
                             marks=(TAIL, ARROW, CIRCLE, CIRCLE),
                             kinds=[rng.choice([OUTPUT, OUTPUT, INPUT])
                                    for _ in range(n)])
        for membership in ("all", "copag"):
            for limit in (8, 1 << 16):
                try:
                    got = enumerate_mags(g, limit, membership)
                except ValueError as e:
                    got = str(e)
                try:
                    want = enumerate_mags_reference(g, limit, membership)
                except ValueError as e:
                    want = str(e)
                assert got == want


class TestWitnesses:
    def test_bidirected_witness_on_invisible_edge(self):
        m = parse_graph("node a output\nnode b output\nedge a --> b\n")
        w = bidirected_witness(m, "a", "b")
        assert Edge("a", ARROW, "b", ARROW) in w.edges
        assert mag_of(w) == m

    def test_bidirected_witness_refuses_visible_edge(self):
        m = parse_graph(
            "node a output\nnode b output\nnode c output\n"
            "edge c <-> a\nedge a --> b\n"
        )
        with pytest.raises(ValueError):
            bidirected_witness(m, "a", "b")

    def test_separation_failure_witness_fork(self):
        # soft manipulation of the fork: b and c stay id-connected given a,
        # and some represented graph shows it
        m = parse_graph(
            "node a output\nnode b output\nnode c output\n"
            "edge a --> b\nedge a --> c\n"
        )
        w = separation_failure_witness(m, ["b"], ["c"], C=["a"], D=["a"])
        assert w is not None
        assert mag_of(w) == m
        g = manipulate(w, ["a"], [], GraphClass.ADMG)
        assert not d_separated(
            g, ["b"], ["c", "I__a"], {"a"} | set(w.selections)
        )

    def test_enumerate_represented_finds_all_decorations(self):
        m = parse_graph("node a output\nnode b output\nedge a --> b\n")
        found = list(enumerate_represented(m, max_extra_selection=0))
        assert len(found) == 2  # plain and with a parallel bidirected edge

    def test_enumerate_represented_extra_selection(self):
        m = parse_graph(
            "node a output\nnode b output\nnode c output\n"
            "edge a --> b\nedge a --> c\n"
        )
        found = list(enumerate_represented(m, max_extra_selection=1))
        for w in found:
            assert mag_of(w) == m
        # an extra selection child of b and c would link them: not in the pool
        for w in found:
            for s in w.selections:
                parents = set(w.parents(s))
                assert parents != {"b", "c"}

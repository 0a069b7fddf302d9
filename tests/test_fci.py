"""Tests for constraint-based structure recovery: the independence
oracles, the adjacency search, the orientation rules, and the combined
procedure, checked against known graphs and random models."""

import random
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from pagid import fci as fci_mod
from pagid.graph import (
    ARROW,
    CIRCLE,
    OUTPUT,
    Edge,
    GraphClass,
    Mark,
    MixedGraph,
    NodeKind,
    TAIL,
    parse_graph,
    validate,
)
from pagid.fci import (
    FciConflict,
    IndependenceOracle,
    distribution_oracle,
    fci,
    graph_oracle,
    orient,
    skeleton,
)
from pagid.oracle import ScmError, parse_scm, random_scm
from pagid.represent import canonical_isadmg, enumerate_mags, mag_of
from helpers import (
    circle_paths_reference,
    fci_reference,
    possible_d_sep_reference,
    rand_isadmg,
    rand_mixed_graph,
    skeleton_reference,
    uncovered_pd_paths_reference,
)


def marks_of(g):
    out = {}
    for e in g.edges:
        out[(e.a, e.b)] = e.mark_b
        out[(e.b, e.a)] = e.mark_a
    return out


def skeleton_pairs(g):
    return {frozenset((e.a, e.b)) for e in g.edges}


class TestGraphOracle:
    def test_basic_separation(self):
        g = parse_graph(
            "node a output\nnode b output\nnode c output\n"
            "edge a --> b\nedge b --> c\n"
        )
        o = graph_oracle(g)
        assert o.query({"a"}, {"c"}, {"b"})
        assert not o.query({"a"}, {"c"})

    def test_selection_is_always_conditioned(self):
        g = parse_graph(
            "node a output\nnode b output\nnode s selection\n"
            "edge a --> s\nedge b --> s\n"
        )
        # conditioning on the collider child links the two causes
        assert not graph_oracle(g).query({"a"}, {"b"})

    def test_inputs_are_implicitly_conditioned(self):
        g = parse_graph(
            "node i input\nnode a output\nnode b output\n"
            "edge i --> a\nedge a --> b\n"
        )
        o = graph_oracle(g)
        assert not o.query({"i"}, {"b"})
        assert o.query({"i"}, {"b"}, {"a"})
        # a query with the input as an endpoint must not condition on it
        assert not o.query({"i"}, {"a"})

    def test_memoized_and_symmetric(self):
        g = parse_graph("node a output\nnode b output\nedge a --> b\n")
        o = graph_oracle(g)
        assert o.query({"a"}, {"b"}) == o.query({"b"}, {"a"})


class TestDistributionOracle:
    CHAIN = (
        "var a\nvar b parents=a\nvar c parents=b\n"
        "cpt a - 1/2 1/2\ncpt b 0 3/4 1/4\ncpt b 1 1/4 3/4\n"
        "cpt c 0 2/3 1/3\ncpt c 1 1/3 2/3\n"
    )

    def test_chain_independences(self):
        o = distribution_oracle(parse_scm(self.CHAIN))
        assert o.query({"a"}, {"c"}, {"b"})
        assert not o.query({"a"}, {"c"})
        assert not o.query({"a"}, {"b"})

    def test_selected_collider_dependence(self):
        scm = parse_scm(
            "var a\nvar b\nvar s kind=selection parents=a,b\n"
            "cpt a - 1/2 1/2\ncpt b - 1/2 1/2\n"
            "cpt s 0,0 1 0\ncpt s 0,1 1/2 1/2\n"
            "cpt s 1,0 1/2 1/2\ncpt s 1,1 0 1\n"
        )
        assert not distribution_oracle(scm).query({"a"}, {"b"})

    def test_input_invariance_queries(self):
        scm = parse_scm(
            "var i kind=input\nvar a parents=i\nvar b parents=a\n"
            "cpt a 0 3/4 1/4\ncpt a 1 1/4 3/4\n"
            "cpt b 0 2/3 1/3\ncpt b 1 1/3 2/3\n"
        )
        o = distribution_oracle(scm)
        assert not o.query({"i"}, {"a"})
        assert not o.query({"i"}, {"b"})
        assert o.query({"i"}, {"b"}, {"a"})

    def test_rejects_input_vs_input(self):
        scm = parse_scm(
            "var i kind=input\nvar j kind=input\nvar a parents=i,j\n"
            "cpt a 0,0 1 0\ncpt a 0,1 0 1\ncpt a 1,0 0 1\ncpt a 1,1 1 0\n"
        )
        o = distribution_oracle(scm)
        with pytest.raises(ValueError):
            o.query({"i"}, {"j"})

    def test_agrees_with_graph_oracle(self):
        rng = random.Random(13)
        for trial in range(8):
            g = rand_isadmg(rng, n_out=3, n_sel=1, n_lat=0, n_in=1, p=0.5)
            do = distribution_oracle(random_scm(g, random.Random(trial)))
            go = graph_oracle(g)
            outs = sorted(g.outputs)
            for a, b in [(outs[0], outs[1]), (outs[1], outs[2])]:
                for cs in ([], [v for v in outs if v not in (a, b)]):
                    if go.query({a}, {b}, set(cs)):
                        assert do.query({a}, {b}, set(cs)), (g, a, b, cs)


class TestSkeleton:
    def test_chain_skeleton_and_sepsets(self):
        g = parse_graph(
            "node a output\nnode b output\nnode c output\n"
            "edge a --> b\nedge b --> c\n"
        )
        sk, seps = skeleton(graph_oracle(g), [], ["a", "b", "c"])
        assert skeleton_pairs(sk) == {frozenset("ab"), frozenset("bc")}
        assert seps[frozenset("ac")] == frozenset("b")
        for e in sk.edges:
            assert (e.mark_a, e.mark_b) == (CIRCLE, CIRCLE)

    def test_matches_true_skeleton_on_random_graphs(self):
        rng = random.Random(29)
        for _ in range(30):
            a = rand_isadmg(rng, n_out=rng.randint(3, 5),
                            n_sel=rng.randint(0, 1), n_lat=rng.randint(0, 1),
                            n_in=rng.randint(0, 1), p=0.4)
            m = mag_of(a)
            o = graph_oracle(canonical_isadmg(m))
            sk, _ = skeleton(o, m.inputs, m.outputs)
            assert skeleton_pairs(sk) == skeleton_pairs(m), a

    def test_long_range_edge_from_inducing_path(self):
        # b <-> m <-> c with m an ancestor of b: no subset of the
        # neighbourhoods separates b from c, so the edge must survive
        a = parse_graph(
            "node b output\nnode m output\nnode c output\n"
            "edge b <-> m\nedge m <-> c\nedge m --> b\n"
        )
        m = mag_of(a)
        assert frozenset("bc") in skeleton_pairs(m)
        sk, _ = skeleton(graph_oracle(a), [], ["b", "m", "c"])
        assert skeleton_pairs(sk) == skeleton_pairs(m)


def _adjacency(g):
    return {v: set(g.neighbors(v)) for v in g.node_ids}


class TestPossibleDSep:
    """Possible-D-SEP is a rule over the graph core's walk search; the
    depth-first search it replaced (``helpers.possible_d_sep_reference``)
    gives the same sets."""

    @settings(max_examples=300)
    @given(st.integers(0, 2**32), st.integers(2, 7),
           st.sampled_from([0.3, 0.5, 0.8]))
    def test_agrees_with_reference_on_any_marks(self, seed, n, p):
        g = rand_mixed_graph(random.Random(seed), n=n, p=p)
        adj, marks = _adjacency(g), marks_of(g)
        for x in g.node_ids:
            assert fci_mod._possible_d_sep(g, x) - {x} == (
                possible_d_sep_reference(adj, marks, x))

    @settings(max_examples=100)
    @given(st.integers(0, 2**32), st.integers(3, 7), st.integers(0, 2),
           st.integers(0, 1), st.sampled_from([0.3, 0.5, 0.7]))
    def test_agrees_with_reference_in_skeleton(self, seed, n_out, n_sel,
                                               n_in, p):
        # the graphs stage two searches: provisional marks, edges left
        a = rand_isadmg(random.Random(seed), n_out=n_out, n_sel=n_sel,
                        n_lat=1, n_in=n_in, p=p)
        real, seen = fci_mod._possible_d_sep, []

        def recorded(g, x):
            seen.append((g, x))
            return real(g, x)

        with mock.patch.object(fci_mod, "_possible_d_sep", recorded):
            fci(graph_oracle(a))
        assert seen
        for g, x in seen:
            assert real(g, x) - {x} == possible_d_sep_reference(
                _adjacency(g), marks_of(g), x)


def _fci_with_sepsets(oracle, trace):
    sk, sepsets = skeleton(oracle, oracle.inputs, oracle.outputs)
    return orient(sk, sepsets, oracle.inputs, trace), sepsets


def _same_as_reference(oracle):
    """FCI and ``fci_reference`` give equal PAGs and separating sets, or
    both raise FciConflict; their traces differ at most in the path an R4
    line names.  Returns FCI's outcome."""
    runs = []
    for run in (_fci_with_sepsets, fci_reference):
        trace = []
        try:
            out = run(oracle, trace)
        except FciConflict:
            out = FciConflict
        runs.append((out, [t.split(" because discriminating path ")[0]
                           for t in trace]))
    assert runs[0] == runs[1]
    return runs[0][0]


class _NoGraphOracle(IndependenceOracle):
    """Independence answers drawn at random per query, sparser for larger
    conditioning sets: the independence model of no graph."""

    def __init__(self, seed, n_out, n_in, rate):
        super().__init__()
        self.seed, self.rate = seed, rate
        self.outputs = tuple(f"v{i}" for i in range(n_out))
        self.inputs = tuple(f"i{i}" for i in range(n_in))

    def _query(self, A, B, C):
        key = repr((self.seed, sorted(A | B), sorted(C)))
        return random.Random(key).random() < self.rate / (1 + len(C))


class TestAgainstReference:
    """FCI against ``helpers.fci_reference``, which computes stage two's
    collider marks by hand and runs R4 over every discriminating path."""

    @settings(max_examples=150)
    @given(st.integers(0, 2**32), st.integers(3, 8), st.integers(0, 1),
           st.integers(0, 1), st.integers(0, 1),
           st.sampled_from([0.3, 0.5, 0.7]))
    def test_graph_oracles(self, seed, n_out, n_sel, n_lat, n_in, p):
        a = rand_isadmg(random.Random(seed), n_out=n_out, n_sel=n_sel,
                        n_lat=n_lat, n_in=n_in, p=p)
        _same_as_reference(graph_oracle(a))

    @settings(max_examples=60)
    @given(st.integers(0, 2**32), st.integers(3, 5), st.integers(0, 1),
           st.integers(0, 1), st.sampled_from([0.5, 0.7]), st.booleans())
    def test_distribution_oracles(self, seed, n_out, n_sel, n_in, p,
                                  positivity):
        g = rand_isadmg(random.Random(seed), n_out=n_out, n_sel=n_sel,
                        n_in=n_in, p=p)
        try:
            orc = distribution_oracle(
                random_scm(g, random.Random(seed), positivity=positivity))
        except ScmError:  # a selection event of probability zero
            return
        _same_as_reference(orc)

    @settings(max_examples=200)
    @given(st.integers(0, 2**32), st.integers(4, 7), st.integers(0, 1),
           st.sampled_from([0.2, 0.4, 0.6]))
    def test_oracles_of_no_graph(self, seed, n_out, n_in, rate):
        _same_as_reference(_NoGraphOracle(seed, n_out, n_in, rate))

    @pytest.mark.parametrize("seed, n_out", [(7923, 8), (9447, 5)])
    def test_clashing_rules_raise_on_both_sides(self, seed, n_out):
        orc = _NoGraphOracle(seed, n_out, 2, 0.2)
        assert _same_as_reference(orc) is FciConflict

    def test_r4_names_a_shortest_path(self):
        g = parse_graph(
            "node i0 input\nnode v0 output\nnode v1 output\n"
            "node v2 output\nnode v3 output\nnode v4 output\n"
            "edge i0 --> v0\nedge i0 --> v1\nedge i0 --> v3\n"
            "edge v0 <-> v1\nedge v0 <-> v2\nedge v0 --> v4\n"
            "edge v1 --> v2\nedge v3 --> v1\nedge v1 --> v4\n"
            "edge v2 --> v4\nedge v3 --> v4\n"
        )
        got, want = [], []
        assert fci(graph_oracle(g), trace=got) == fci_reference(
            graph_oracle(g), want)[0]
        line = "R4 tail at v3 on v4-v3 because discriminating path "
        assert got[-1] == line + "i0-v1-v3-v4"
        assert want[-1] == line + "i0-v0-v1-v3-v4"


def _skeleton_outcome(search, oracle):
    """The PAG, separating sets and orientation trace (the lines of
    ``pagc fci --trace``) of one skeleton search on oracle; FciConflict
    stands for the PAG where orientation clashes."""
    sk, sepsets = search(oracle, oracle.inputs, oracle.outputs)
    trace = []
    try:
        pag = orient(sk, sepsets, oracle.inputs, trace)
    except FciConflict:
        pag = FciConflict
    return pag, sepsets, trace


class _Recording(IndependenceOracle):
    """Hands every query to oracle and records it, with the number of
    queries asked before stage two's collider marks (the first R0)."""

    def __init__(self, oracle):
        self.oracle, self.asked = oracle, []
        self.inputs, self.outputs = oracle.inputs, oracle.outputs

    def _query(self, A, B, C):
        self.asked.append((A, B, C))
        return self.oracle._query(A, B, C)

    def skeleton(self):
        """Run the skeleton search; return the number of stage-one queries
        and the stage-one adjacency."""
        first, real_r0 = [], fci_mod._Orienter.r0

        def r0(orienter):
            if not first:
                first.append((len(self.asked),
                              {v: set(ns) for v, ns in orienter.adj.items()}))
            return real_r0(orienter)

        with mock.patch.object(fci_mod._Orienter, "r0", r0):
            skeleton(self, self.inputs, self.outputs)
        return first[0]


# stage two removes v1 - v4 here, given v0, v2, v3 and v7 from
# Possible-D-SEP(v1), where v2 is not adjacent to v1
STAGE_TWO_REMOVAL = (
    "node i0 input\n" + "".join(f"node v{i} output\n" for i in range(8))
    + "edge i0 --> v0\nedge i0 --> v2\nedge i0 --> v4\nedge i0 --> v5\n"
    "edge i0 --> v7\nedge v0 --> v1\nedge v0 <-> v2\nedge v3 --> v1\n"
    "edge v1 <-> v5\nedge v1 <-> v7\nedge v2 <-> v3\nedge v2 --> v7\n"
    "edge v3 <-> v4\nedge v3 --> v5\nedge v4 --> v5\nedge v7 --> v4\n"
    "edge v7 --> v6\n"
)


class TestSkeletonAgainstReference:
    """``skeleton`` against ``helpers.skeleton_reference``, the search that
    asked the oracle every subset: the same PAG, separating sets and
    trace, and each question asked once."""

    @settings(max_examples=120)
    @given(st.integers(0, 2**32), st.integers(3, 8), st.integers(0, 2),
           st.integers(0, 1), st.integers(0, 1),
           st.sampled_from([0.3, 0.5, 0.7]))
    def test_graph_oracles(self, seed, n_out, n_lat, n_sel, n_in, p):
        a = rand_isadmg(random.Random(seed), n_out=n_out, n_sel=n_sel,
                        n_lat=n_lat, n_in=n_in, p=p)
        for g in (a, mag_of(a)):
            orc = graph_oracle(g)
            assert (_skeleton_outcome(skeleton, orc)
                    == _skeleton_outcome(skeleton_reference, orc))

    @settings(max_examples=60)
    @given(st.integers(0, 2**32), st.integers(3, 5), st.integers(0, 1),
           st.integers(0, 1), st.sampled_from([0.5, 0.7]), st.booleans())
    def test_distribution_oracles(self, seed, n_out, n_sel, n_in, p,
                                  positivity):
        g = rand_isadmg(random.Random(seed), n_out=n_out, n_sel=n_sel,
                        n_in=n_in, p=p)
        try:
            orc = distribution_oracle(
                random_scm(g, random.Random(seed), positivity=positivity))
        except ScmError:  # a selection event of probability zero
            return
        assert (_skeleton_outcome(skeleton, orc)
                == _skeleton_outcome(skeleton_reference, orc))

    @staticmethod
    def _check_asks(orc):
        """Each (x, y, C) reaches the oracle once, and stage two asks no
        subset of the asking end's stage-one adjacency.  Returns the
        stage-two questions."""
        start, adjacency = orc.skeleton()
        keys = [(A | B, C) for A, B, C in orc.asked]
        assert len(keys) == len(set(keys))
        later = orc.asked[start:]
        for (x,), _, C in later:
            assert not C <= adjacency[x], (x, C)
        return later

    @settings(max_examples=80)
    @given(st.integers(0, 2**32), st.integers(3, 8), st.integers(0, 2),
           st.integers(0, 1), st.integers(0, 1),
           st.sampled_from([0.3, 0.5, 0.7]))
    def test_each_question_is_asked_once(self, seed, n_out, n_lat, n_sel,
                                         n_in, p):
        a = rand_isadmg(random.Random(seed), n_out=n_out, n_sel=n_sel,
                        n_lat=n_lat, n_in=n_in, p=p)
        self._check_asks(_Recording(graph_oracle(a)))

    def test_stage_two_still_removes_edges(self):
        g = parse_graph(STAGE_TWO_REMOVAL)
        later = self._check_asks(_Recording(graph_oracle(g)))
        assert ({"v1"}, {"v4"}, {"v0", "v2", "v3", "v7"}) in later
        sk, sepsets = skeleton(graph_oracle(g), g.inputs, g.outputs)
        assert not sk.adjacent("v1", "v4")
        assert (sk, sepsets) == skeleton_reference(graph_oracle(g), g.inputs,
                                                   g.outputs)


class TestOrientationGoldens:
    def test_collider(self):
        g = parse_graph(
            "node a output\nnode b output\nnode c output\n"
            "edge b --> a\nedge c --> a\n"
        )
        p = fci(graph_oracle(g), g.nodes)
        mk = marks_of(p)
        assert mk[("b", "a")] is ARROW and mk[("c", "a")] is ARROW
        assert mk[("a", "b")] is CIRCLE and mk[("a", "c")] is CIRCLE

    def test_fork_is_uninformative(self):
        g = parse_graph(
            "node a output\nnode b output\nnode c output\n"
            "edge a --> b\nedge a --> c\n"
        )
        p = fci(graph_oracle(g), g.nodes)
        assert all(
            (e.mark_a, e.mark_b) == (CIRCLE, CIRCLE) for e in p.edges
        )

    def test_shielded_triangle_stays_circles(self):
        # the closure of a -> b -> c with b <-> c is a complete graph;
        # nothing is unshielded, so no rule fires
        a = parse_graph(
            "node a output\nnode b output\nnode c output\n"
            "edge a --> b\nedge b --> c\nedge b <-> c\n"
        )
        p = fci(graph_oracle(a), a.nodes)
        assert skeleton_pairs(p) == {
            frozenset("ab"), frozenset("bc"), frozenset("ac")
        }
        assert all(
            (e.mark_a, e.mark_b) == (CIRCLE, CIRCLE) for e in p.edges
        )

    def test_chordless_cycle_orients_undirected(self):
        # an undirected four-cycle is alone in its equivalence class: the
        # circle-path rule turns every end into a tail
        m = parse_graph(
            "node a output\nnode b output\nnode c1 output\nnode c2 output\n"
            "edge b --- c1\nedge b --- c2\nedge c1 --- a\nedge c2 --- a\n"
        )
        p = fci(graph_oracle(canonical_isadmg(m)), m.nodes)
        assert p == m
        assert list(enumerate_mags(p)) == [m]

    def test_collider_then_propagation(self):
        # c1, c2 -> a -> b: colliders at a, then the arrow propagates
        # to b and the circles at c1, c2 become tails
        g = parse_graph(
            "node c1 output\nnode c2 output\nnode a output\nnode b output\n"
            "edge c1 --> a\nedge c2 --> a\nedge a --> b\n"
        )
        p = fci(graph_oracle(g), g.nodes)
        mk = marks_of(p)
        assert mk[("c1", "a")] is ARROW and mk[("c2", "a")] is ARROW
        assert mk[("a", "b")] is ARROW and mk[("b", "a")] is TAIL

    def test_input_edge_gets_tail(self):
        g = parse_graph(
            "node i input\nnode a output\nnode b output\n"
            "edge i --> a\nedge a --> b\n"
        )
        p = fci(graph_oracle(g), g.nodes)
        mk = marks_of(p)
        assert mk[("a", "i")] is TAIL
        assert p.kind("i") is NodeKind.INPUT

    def test_selected_bow_arc_neighbourhood(self):
        a = parse_graph(
            "node a output\nnode b1 output\nnode b2 output\nnode c output\n"
            "node s selection\n"
            "edge b1 --> a\nedge c --> b1\nedge b2 --> a\nedge c --> s\n"
            "edge b2 --> s\nedge c <-> a\nedge c <-> b2\n"
        )
        p = fci(graph_oracle(a), mag_of(a).nodes)
        mk = marks_of(p)
        assert mk[("b1", "a")] is ARROW and mk[("b2", "a")] is ARROW
        assert mk[("c", "a")] is ARROW
        assert mk[("a", "b1")] is CIRCLE and mk[("a", "c")] is CIRCLE
        assert mk[("b1", "c")] is CIRCLE and mk[("c", "b1")] is CIRCLE
        assert mk[("b2", "c")] is CIRCLE and mk[("c", "b2")] is CIRCLE


class TestOrientErrors:
    def test_missing_sepset_is_a_conflict(self):
        sk = parse_graph(
            "node a output\nnode b output\nnode c output\n"
            "edge b o-o a\nedge c o-o a\n"
        )
        with pytest.raises(FciConflict):
            orient(sk, {})

    def test_handmade_sepsets_orient_both_colliders(self):
        sk = parse_graph(
            "node a output\nnode b output\nnode c output\nnode d output\n"
            "edge b o-o a\nedge c o-o a\nedge b o-o d\nedge c o-o d\n"
        )
        seps = {
            frozenset("bc"): frozenset(),  # collider at both a and d
            frozenset("ad"): frozenset("bc"),
        }
        g = orient(sk, seps)
        mk = marks_of(g)
        assert mk[("b", "a")] is ARROW and mk[("b", "d")] is ARROW


class TestUncoveredPaths:
    """R5, R9 and R10 search uncovered paths with an explicit stack; the
    recursions they replaced (``helpers.circle_paths_reference``,
    ``helpers.uncovered_pd_paths_reference``) give the same paths in the
    same order."""

    @settings(max_examples=200)
    @given(st.integers(0, 2**32), st.integers(2, 8),
           st.sampled_from([0.3, 0.5, 0.8]), st.integers(0, 2),
           st.sampled_from([(TAIL, ARROW, CIRCLE), (CIRCLE,),
                            (CIRCLE, CIRCLE, ARROW)]))
    def test_agrees_with_recursion_on_any_marks(self, seed, n, p, n_in,
                                                marks):
        kinds = [NodeKind.INPUT] * n_in + [OUTPUT] * (n - n_in)
        g = rand_mixed_graph(random.Random(seed), n=n, p=p, marks=marks,
                             kinds=kinds)
        o = fci_mod._Orienter(g, {}, g.inputs)
        for i in o.nodes:
            assert o._uncovered_pd_paths(i) == uncovered_pd_paths_reference(
                o, i)
            for j in o.nodes:
                assert o._circle_paths(i, j) == circle_paths_reference(o, i, j)

    @pytest.mark.parametrize("n", [50, 1500])
    def test_long_chordless_circle_cycle(self, n):
        # deeper than the recursion limit: the circle path R5 finds runs
        # once around the cycle, and every edge becomes undirected
        v = [f"v{t:04d}" for t in range(n)]
        g = MixedGraph(dict.fromkeys(v, OUTPUT), [
            Edge(v[t], CIRCLE, v[(t + 1) % n], CIRCLE) for t in range(n)])
        seps = {frozenset((v[t - 1], v[(t + 1) % n])): frozenset({v[t]})
                for t in range(n)}
        p = orient(g, seps)
        assert len(p.edges) == n
        assert all((e.mark_a, e.mark_b) == (TAIL, TAIL) for e in p.edges)


class TestFci:
    def test_trace_records_rule_applications(self):
        g = parse_graph(
            "node a output\nnode b output\nnode c output\n"
            "edge b --> a\nedge c --> a\n"
        )
        trace = []
        fci(graph_oracle(g), g.nodes, trace=trace)
        assert any("R0" in str(t) for t in trace)

    def test_idempotent_reconstruction(self):
        rng = random.Random(41)
        for _ in range(15):
            a = rand_isadmg(rng, n_out=rng.randint(3, 4),
                            n_sel=rng.randint(0, 1), n_lat=0,
                            n_in=rng.randint(0, 1), p=0.5)
            m = mag_of(a)
            p = fci(graph_oracle(canonical_isadmg(m)), m.nodes)
            assert fci(graph_oracle(canonical_isadmg(m)), m.nodes) == p

    def test_sound_against_generating_graph(self):
        # every definite mark in the output agrees with the true graph,
        # and the output is a valid partial graph containing it
        rng = random.Random(43)
        for _ in range(25):
            a = rand_isadmg(rng, n_out=rng.randint(3, 5),
                            n_sel=rng.randint(0, 1), n_lat=rng.randint(0, 1),
                            n_in=rng.randint(0, 1), p=0.4)
            m = mag_of(a)
            p = fci(graph_oracle(canonical_isadmg(m)), m.nodes)
            assert validate(p, GraphClass.PAG) == [], (a, p)
            true = marks_of(m)
            for pair, mark in marks_of(p).items():
                if mark is not CIRCLE:
                    assert true[pair] is mark, (a, pair)
            circles = sum(
                (e.mark_a is CIRCLE) + (e.mark_b is CIRCLE)
                for e in p.edges
            )
            if circles <= 14:
                assert m in set(enumerate_mags(p)), a

    def test_distribution_oracle_end_to_end(self):
        g = parse_graph(
            "node c1 output\nnode c2 output\nnode a output\nnode b output\n"
            "edge c1 --> a\nedge c2 --> a\nedge a --> b\n"
        )
        scm = random_scm(g, random.Random(2))
        p = fci(distribution_oracle(scm), g.nodes)
        assert p == fci(graph_oracle(g), g.nodes)

    def test_default_nodes_come_from_oracle(self):
        g = parse_graph(
            "node a output\nnode b output\nedge a --> b\n"
        )
        p = fci(graph_oracle(g))
        assert set(p.node_ids) == {"a", "b"}

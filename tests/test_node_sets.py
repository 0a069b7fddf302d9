"""One node-set check at every public entry.

Every entry that takes node sets looks them up in the graph as it is
given, before any other check: the first unknown node in sorted order is
named by a KeyError, whatever else is wrong with the call.  With known
nodes the answers equal the references."""

import itertools
import random
import sys
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from pagid import manipulate as manip_mod
from pagid.fci import fci, graph_oracle
from pagid.graph import (
    OUTPUT,
    GraphClass,
    MixedGraph,
    buckets,
    directed,
    discriminating_path,
    inducing_path_exists,
    pc_component,
    region,
)
from pagid.identify import (
    Hedge,
    adjustment_check,
    calculus_check,
    causal_relation,
    hedge_witness,
    maximal_regime_separated,
    s_recoverability_check,
    scidp,
    sidp,
    verify_hedge,
)
from pagid.manipulate import (
    _plain,
    hard_manipulate,
    manipulate,
    regime_id,
    soft_manipulate,
)
from pagid.represent import mag_of, marginalize_latents
from pagid.separate import (_id_search, d_separated, id_separated,
                            m_open_walk, open_walk)

from helpers import (
    manipulate_reference,
    open_walk_reference,
    rand_isadmg,
    scidp_reference,
)


NO_HEDGE = Hedge(frozenset(), frozenset(), frozenset())

# each entry, and what each of its arguments is: a node set (s) or one
# node (n)
ENTRIES = {
    "id_separated": (id_separated, "sss"),
    "open_walk": (open_walk, "sss"),
    "d_separated": (d_separated, "sss"),
    "m_open_walk": (m_open_walk, "sss"),
    "manipulate": (manipulate, "ss"),
    "soft_manipulate": (soft_manipulate, "s"),
    "hard_manipulate": (hard_manipulate, "s"),
    "sidp": (lambda g, *s: sidp(_plain(g), *s), "ss"),
    "scidp": (lambda g, *s: scidp(_plain(g), *s), "sss"),
    "calculus_check": (
        lambda g, *s: calculus_check(_plain(g), 2, *s), "ssss"),
    "adjustment_check": (
        lambda g, *s: adjustment_check(_plain(g), *s), "sssssss"),
    "causal_relation": (
        lambda g, a, b: causal_relation(_plain(g), a, b, "total"), "nn"),
    "s_recoverability_check": (
        lambda g, *s: s_recoverability_check(_plain(g), *s), "ss"),
    "hedge_witness": (
        lambda g, A, B: hedge_witness(_plain(g), A, B, None), "ss"),
    "verify_hedge": (
        lambda g, A, B: verify_hedge(_plain(g), A, B, NO_HEDGE), "ss"),
    "maximal_regime_separated": (
        lambda g, A, B: maximal_regime_separated(_plain(g), A, B), "ss"),
    "discriminating_path": (
        lambda g, y, z: discriminating_path(_plain(g), y, z), "nn"),
    "inducing_path_exists": (
        lambda g, *a: inducing_path_exists(_plain(g), *a), "nnss"),
    "induced": (lambda g, keep: _plain(g).induced(keep), "s"),
    "ancestors": (lambda g, X: _plain(g).ancestors(X), "s"),
    "possible_descendants": (
        lambda g, X: _plain(g).possible_descendants(X), "s"),
    "marginalize_latents": (
        lambda g, X: marginalize_latents(_plain(g), X), "s"),
    "buckets": (lambda g, D: buckets(_plain(g), D), "s"),
    "pc_component": (lambda g, D, B: pc_component(_plain(g), D, B), "ss"),
    "region": (lambda g, D, B: region(_plain(g), D, B), "ss"),
}


@st.composite
def graphs(draw):
    """A random ADMG with input, latent and selection nodes, its MAG or its
    FCI PAG, and now and then a soft manipulation of one, so that regime
    nodes are known nodes too."""
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
    if draw(st.booleans()):
        g = manipulate(g, [draw(st.sampled_from(g.outputs))])
    return g


def known_args(draw, g, kinds):
    """Arguments of the given kinds, drawn from the nodes of g, with no
    regard for overlap or node kind."""
    nodes = _plain(g).node_ids
    return [draw(st.sampled_from(nodes)) if k == "n" else
            draw(st.lists(st.sampled_from(nodes), max_size=3))
            for k in kinds]


def outcome(f, *args):
    """f(*args), or the type and text of the error it raises."""
    try:
        return f(*args)
    except (KeyError, ValueError) as exc:
        return type(exc), str(exc)


class TestUnknownNodes:
    @settings(max_examples=400)
    @given(graphs(), st.sampled_from(sorted(ENTRIES)), st.data())
    def test_the_first_unknown_node_is_named(self, g, name, data):
        f, kinds = ENTRIES[name]
        args = known_args(data.draw, g, kinds)
        # one or two unknown names, in one argument or in two
        unknown = data.draw(st.sampled_from([["zz"], ["zb", "zz"],
                                             ["zz", "zb"]]))
        for u in unknown:
            i = data.draw(st.integers(0, len(kinds) - 1))
            args[i] = u if kinds[i] == "n" else [*args[i], u]
        present = {u for u in unknown for a in args
                   if a == u or not isinstance(a, str) and u in a}
        with pytest.raises(KeyError) as exc:
            f(g, *args)
        assert exc.value.args == (min(present),)

    def test_a_latent_node_keeps_its_kind_message(self):
        g = rand_isadmg(random.Random(1), n_out=3, n_sel=0, n_lat=1, n_in=0)
        (l,) = g.latents
        with pytest.raises(ValueError, match="must consist of output nodes"):
            sidp(g, [l], [g.outputs[0]])
        with pytest.raises(ValueError, match="is not a latent node"):
            marginalize_latents(g, [g.outputs[0], l])
        with pytest.raises(KeyError, match="zz"):
            marginalize_latents(g, [g.outputs[0], "zz"])

    def test_a_hard_target_may_be_made_in_the_same_call(self):
        g = rand_isadmg(random.Random(2), n_out=3, n_sel=0, n_lat=0, n_in=0)
        d = g.outputs[0]
        mg = manipulate(g, [d], [regime_id(d)], GraphClass.ADMG)
        assert mg.hard_targets == (regime_id(d),)
        with pytest.raises(KeyError, match=regime_id(d)):
            manipulate(g, [], [regime_id(d)], GraphClass.ADMG)

    def test_a_hedge_off_the_graph_does_not_verify(self):
        g = rand_isadmg(random.Random(3), n_out=3, n_sel=0, n_lat=0, n_in=0)
        a, b = g.outputs[:2]
        h = Hedge(frozenset({b, "zz"}), frozenset({"zz"}), frozenset({"zz"}))
        assert verify_hedge(g, [a], [b], h) is False


class TestKnownNodes:
    """With known nodes, the answers and errors are those of the
    references."""

    @settings(max_examples=200)
    @given(graphs(), st.data())
    def test_answers_equal_the_references(self, g, data):
        A, B, C, D, T = known_args(data.draw, g, "sssss")
        cls = data.draw(st.sampled_from([None, GraphClass.ADMG,
                                         GraphClass.MAG, GraphClass.PAG]))
        assert outcome(open_walk, g, A, B, C) == outcome(
            open_walk_reference, g, A, B, C)
        assert outcome(manipulate, g, D, T, cls) == outcome(
            manipulate_reference, g, D, T, cls)
        assert outcome(scidp, _plain(g), A, B, C) == outcome(
            scidp_reference, _plain(g), A, B, C)


class TestOneCheckPerQuestion:
    """``calculus_check``, ``adjustment_check`` and ``causal_relation`` look
    their node sets up once, on the graph as given, where the reading keeps
    that graph; where the reading projects latent or selection nodes out,
    the search checks the sets again.  The places that check a question's
    sets are the reading, the manipulation's checks and the walk search;
    the graph core's own entries (such as ``ancestors``) check their
    arguments apart from these."""

    SITES = {"_reading", "manipulate", "_check_targets", "_id_search"}

    def _checks(self, *args, f=calculus_check):
        real, callers = MixedGraph.check_nodes, []

        def spy(g, *sets):
            callers.append(sys._getframe(1).f_code.co_name)
            return real(g, *sets)

        with mock.patch.object(MixedGraph, "check_nodes", spy):
            outcome(f, *args)
        return sum(c in self.SITES for c in callers)

    @pytest.mark.parametrize("kind", ["MAG", "PAG"])
    def test_one_check_per_calculus_question(self, kind):
        for seed in range(20):
            a = rand_isadmg(random.Random(seed), n_out=5, n_sel=1, n_lat=1,
                            n_in=1)
            g = mag_of(a) if kind == "MAG" else fci(graph_oracle(a))
            v = random.Random(seed).sample(g.outputs, 4)
            for rule in (1, 2, 3):
                # a fresh graph, so that no manipulation is remembered
                fresh = MixedGraph(dict(g.nodes), g.edges)
                assert self._checks(fresh, rule, v[:1], v[1:2], v[2:3],
                                    v[3:]) == 1

    @pytest.mark.parametrize("kind", ["MAG", "PAG"])
    def test_one_check_per_adjustment_and_relation(self, kind):
        for seed in range(20):
            a = rand_isadmg(random.Random(seed), n_out=5, n_sel=1, n_lat=1,
                            n_in=1)
            g = mag_of(a) if kind == "MAG" else fci(graph_oracle(a))
            v = random.Random(seed).sample(g.outputs, 5)
            fresh = MixedGraph(dict(g.nodes), g.edges)
            assert self._checks(fresh, v[:1], v[1:2], v[2:3], v[3:4], v[4:],
                                f=adjustment_check) == 1
            for relation in ("direct", "total", "confounding"):
                fresh = MixedGraph(dict(g.nodes), g.edges)
                assert self._checks(fresh, v[0], v[1], relation,
                                    f=causal_relation) == 1

    def test_a_projected_reading_still_checks(self):
        g = rand_isadmg(random.Random(1), n_out=3, n_sel=0, n_lat=1, n_in=0)
        (l,) = g.latents
        a, b, c = g.outputs
        with pytest.raises(KeyError) as exc:
            calculus_check(g, 2, [a], [b], [c, l])
        assert exc.value.args == (l,)
        assert self._checks(g, 2, [a], [b], [c]) > 1


class TestClosureChecks:
    """A collider closure looks its set up once per call, and not at all
    when the walk search, which has checked its sets, asks for it."""

    def _checks(self, f, *args):
        with mock.patch.object(MixedGraph, "check_nodes", autospec=True,
                               side_effect=MixedGraph.check_nodes) as spy:
            f(*args)
        return spy.call_count

    def test_once_per_call(self):
        g = rand_isadmg(random.Random(4), n_out=6, n_sel=0, n_lat=0, n_in=0)
        X = g.outputs[:3]
        for f in (g.ancestors, g.possible_ancestors):
            assert self._checks(f, X) == 1
            with pytest.raises(KeyError) as exc:
                f([*X, "zz", "yy"])
            assert exc.value.args == ("yy",)

    def test_none_under_a_checked_search(self):
        # a --> m <-- b with m --> c: the collider m makes the search ask
        # for the ancestors of C
        g = MixedGraph({v: OUTPUT for v in "abcm"},
                       [directed("a", "m"), directed("b", "m"),
                        directed("m", "c")])
        assert self._checks(_id_search, g, {"a"}, {"b"}, {"c"}, True) == 0
        assert _id_search(g, {"a"}, {"b"}, {"c"}, True)[1] is not None


class TestChecksPerBuild:
    """Across the questions asked of one graph, the manipulation checks run
    once per build of a soft manipulation.  A question whose soft
    manipulation is the graph's last finds it unbuilt, and checks only its
    hard targets."""

    @staticmethod
    def questions(g):
        """Calculus, adjustment and relation questions on g, each with the
        soft targets it manipulates; those on one B come in a row."""
        outs = g.outputs
        for a, b in itertools.permutations(outs, 2):
            rest = [v for v in outs if v not in (a, b)]
            for rule in (1, 2, 3):
                yield {b}, (calculus_check, g, rule, [a], [b], rest[:1],
                            rest[1:])
            yield {b}, (adjustment_check, g, [a], [b], (), rest[-1:],
                        rest[:1])
            for relation in ("direct", "total", "confounding"):
                yield {b}, (causal_relation, g, b, a, relation)

    @pytest.mark.parametrize("kind", ["MAG", "PAG"])
    def test_once_per_build(self, kind):
        for seed in range(6):
            a = rand_isadmg(random.Random(seed), n_out=4, n_sel=1, n_lat=1,
                            n_in=1, p=0.3)
            g = mag_of(a) if kind == "MAG" else fci(graph_oracle(a))
            questions = list(self.questions(g))
            # each question asked of a fresh copy, which has kept nothing
            want = [outcome(f, MixedGraph(dict(g.nodes), g.edges), *args)
                    for _, (f, _g, *args) in questions]
            checks, builds = [], []
            real_check, real_edit = manip_mod._check_targets, MixedGraph.edit

            def check(*args, **kwargs):
                checks.append(args)
                return real_check(*args, **kwargs)

            def edit(graph, *args, **kwargs):
                if sys._getframe(1).f_code.co_name == "manipulate":
                    builds.append(args)
                return real_edit(graph, *args, **kwargs)

            with mock.patch.object(manip_mod, "_check_targets", check), \
                    mock.patch.object(MixedGraph, "edit", edit):
                got = [outcome(f, *args) for _, (f, *args) in questions]
            assert got == want
            # one build each time the soft targets change, and no other
            runs = 1 + sum(s != t for (s, _), (t, _)
                           in zip(questions, questions[1:]))
            assert len(builds) == len(checks) == runs < len(questions)

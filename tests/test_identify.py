"""Tests for identification: estimand trees, the core algorithm and its
conditional variant, calculus/adjustment checkers, causal relations,
recoverability, hedges, and serialization.

Numeric claims are checked against the exact model engine: random models
on the relevant graph, with the interventional kernel computed by
truncated factorization as the independent reference.
"""

import itertools
import random
from unittest import mock

import pytest
from hypothesis import example, given, settings, strategies as st

from pagid import graph as graph_mod
from pagid import identify as idf
from pagid import manipulate as manip_mod
from pagid.graph import (
    ARROW,
    CIRCLE,
    LATENT,
    OUTPUT,
    Edge,
    GraphClass,
    MixedGraph,
    TAIL,
    format_graph,
    parse_graph,
)
from pagid import oracle as oc
from pagid.identify import (
    ALL_NO,
    SOME_YES,
    Base,
    BoxProduct,
    Compose,
    Condition,
    ExchangeFail,
    FailCertificate,
    Marginalize,
    OrderedProduct,
    adjustment_check,
    calculus_check,
    causal_relation,
    format_estimand,
    hedge_witness,
    l0_sets,
    maximal_regime_separated,
    parse_certificate,
    parse_estimand,
    s_recoverability_check,
    scidp,
    sidp,
    verify_hedge,
    Hedge,
)
from pagid.fci import fci, graph_oracle
from pagid.manipulate import regime_id
from pagid.represent import canonical_isadmg, mag_of
from helpers import (
    _find_hedge,
    _witness_pool,
    adjustment_premises_reference,
    anterior_violation_reference,
    confounded_child_reference,
    disjoint_reference,
    district_of,
    embed_front_door,
    enumerate_represented,
    fixing_identifiable,
    is_cforest_reference,
    maximal_regime_separated_bruteforce,
    orient_copag_reference,
    rand_isadmg,
    rand_mixed_graph,
    regime_separated,
    rule_equality,
    rule_one_reference,
    rule_reference,
    scidp_reference,
    sidp_reference,
    verify_hedge_reference,
)

ADMG = GraphClass.ADMG

# the undirected four-cycle and the back-door triangle recur throughout
CYCLE4 = (
    "node a output\nnode b output\nnode c1 output\nnode c2 output\n"
    "edge b --- c1\nedge b --- c2\nedge c1 --- a\nedge c2 --- a\n"
)
BACKDOOR = (
    "node a output\nnode b output\nnode c output\n"
    "edge c --> a\nedge a --> b\nedge c --> b\n"
)
CHAIN = (
    "node a output\nnode b output\nnode c output\n"
    "edge a --> b\nedge b --> c\n"
)

# a latent parent of a and b, and a --> c --> b
BOW_VIA_C = (
    "node l latent\nnode a output\nnode b output\nnode c output\n"
    "edge l --> a\nedge l --> b\nedge a --> c\nedge c --> b\n"
)


def cycle4():
    return parse_graph(CYCLE4)


def backdoor():
    return parse_graph(BACKDOOR)


class TestEstimandTrees:
    def test_outputs_algebra(self):
        V = frozenset("abc")
        q = Base(V)
        assert q.outputs == V
        m = Marginalize(q, frozenset("a"))
        assert m.outputs == frozenset("bc")
        c = Condition(m, ("b",))
        assert c.outputs == frozenset("c")
        p = OrderedProduct((c, Marginalize(q, frozenset("bc"))))
        assert p.outputs == frozenset("ac")
        comp = Compose(c, m, ("b",))
        assert comp.outputs == c.outputs

    def test_containment_is_checked(self):
        q = Base(frozenset("ab"))
        with pytest.raises(ValueError):
            Marginalize(q, frozenset("z"))
        with pytest.raises(ValueError):
            Condition(q, ("z",))

    def test_fail_certificate_shape(self):
        c = FailCertificate(frozenset({"a", "c1", "c2"}),
                            frozenset({"a", "b", "c1", "c2"}))
        assert str(c) == "FAIL C={a,c1,c2} T={a,b,c1,c2}"
        with pytest.raises(ValueError):
            FailCertificate(frozenset(), frozenset("a"))
        with pytest.raises(ValueError):
            FailCertificate(frozenset("a"), frozenset("a"))

    def test_exchange_fail_shape(self):
        e = ExchangeFail(frozenset("b"), frozenset("b"), frozenset("c"))
        assert str(e).startswith("FAIL exchange bucket={b}")


class TestReductionSets:
    def test_cycle4_targets(self):
        assert l0_sets(cycle4(), ["a"], ["b"]) == frozenset({"a", "c1", "c2"})

    def test_chain_drops_upstream_of_removed(self):
        g = parse_graph(CHAIN)
        assert l0_sets(g, ["c"], ["b"]) == frozenset({"c"})

    def test_rejects_bad_sets(self):
        g = parse_graph(CHAIN)
        with pytest.raises(ValueError):
            l0_sets(g, [], ["b"])
        with pytest.raises(ValueError):
            l0_sets(g, ["a"], ["a"])
        with pytest.raises(ValueError):
            l0_sets(g, ["nope"], [])


def _identified(C, g, dv=False):
    """The IDP recursion on C, starting from Q[V] over all of g's
    outputs."""
    V = frozenset(g.outputs)
    return idf._identify(frozenset(C), V, Base(V), g, dv)


def _parts(est):
    """The kernels an estimand joins by assembly products, left to right."""
    if isinstance(est, BoxProduct):
        return _parts(est.left) + _parts(est.right)
    return [est]


# the front-door gadget: z cannot be fixed, so {x, y} splits into regions
FRONT_DOOR = (
    "node x output\nnode y output\nnode z output\n"
    "edge z --> y\nedge y --> x\nedge z <-> x\n"
)


class TestBuildTree:
    """The IDP recursion of sidp (``identify._identify``): fix first, split
    by region only when stuck."""

    def test_single_bucket_is_a_leaf(self):
        # {a, b} is one bucket; c is fixed away and the rest is not split
        g = parse_graph(
            "node a output\nnode b output\nnode c output\n"
            "edge a --- b\nedge a --> c\n"
        )
        est = _identified({"a", "b"}, g)
        assert not isinstance(est, (BoxProduct, FailCertificate))
        assert format_estimand(est) == (
            "(prod (cond (a b c) (Q (a b c))) (marg (c) (Q (a b c))))")
        assert est.outputs == frozenset("ab")

    def test_disconnected_parts_split(self):
        # the front door next to an isolated w: once z sticks, the target
        # {w, x, y} splits into {w} and {x, y}, and then {x} and {y}
        g = parse_graph(FRONT_DOOR + "node w output\n")
        est = _identified({"w", "x", "y"}, g, dv=True)
        assert isinstance(est, BoxProduct)
        assert est.outputs == frozenset("wxy")
        assert [p.outputs for p in _parts(est)] == [{"w"}, {"x"}, {"y"}]
        # a target reached without fixing is not split
        V = frozenset("wxyz")
        assert _identified(V, g, dv=True) == Base(V)

    def test_labels_union_to_root(self):
        rng = random.Random(3)
        identified = split = 0
        for _ in range(60):
            a = rand_isadmg(rng, n_out=rng.randint(3, 5), n_sel=0,
                            n_lat=0, n_in=0, p=0.5)
            a, x, z = embed_front_door(rng, a)
            D = l0_sets(a, [x], [z])
            est = _identified(D, a, dv=True)
            if isinstance(est, FailCertificate):
                continue
            identified += 1
            split += isinstance(est, BoxProduct)
            got = frozenset()
            for part in _parts(est):
                assert part.outputs
                got |= part.outputs
            assert got == D
        assert identified >= 20 and split >= 20

    def test_stops_at_the_first_stuck_leaf(self, monkeypatch):
        # D = {a, c1, c2, x, y} is stuck on b and splits into {a, c1, c2},
        # which sticks, and {x, y}, which is never visited
        g = parse_graph(CYCLE4 + "node x output\nnode y output\n"
                        "edge x --> y\n")
        calls = []
        real = idf._identify

        def counted(C, *args):
            calls.append(C)
            return real(C, *args)

        monkeypatch.setattr(idf, "_identify", counted)
        res = sidp(g, ["a", "y"], ["b"])
        assert str(res) == "FAIL C={a,c1,c2} T={a,b,c1,c2}"
        assert calls == [frozenset({"a", "c1", "c2", "x", "y"}),
                         frozenset({"a", "c1", "c2"})]
        assert res.trace == (("y",), ("x",))


class TestSidp:
    def test_cycle4_failure_certificate(self):
        res = sidp(cycle4(), ["a"], ["b"])
        assert isinstance(res, FailCertificate)
        assert str(res) == "FAIL C={a,c1,c2} T={a,b,c1,c2}"

    def test_dag_chain_marginal(self):
        g = parse_graph(CHAIN)
        res = sidp(g, ["a"], [], ADMG)
        scm = oc.random_scm(g, random.Random(2))
        qv = oc.observational_kernel(scm)
        got = oc.eval_estimand(res, qv, scm)
        assert oc.kernels_agree(got, qv.marginalize({"b", "c"}))

    def test_backdoor_admg_reading_matches_model(self):
        g = backdoor()
        res = sidp(g, ["b"], ["a"], ADMG)
        assert not isinstance(res, FailCertificate)
        for seed in range(5):
            scm = oc.random_scm(g, random.Random(seed))
            qv = oc.observational_kernel(scm)
            got = oc.eval_estimand(res, qv, scm)
            want = oc.interventional_kernel(scm, ["a"], outputs=["b"])
            assert oc.kernels_agree(got, want), seed

    def test_backdoor_ancestral_reading_fails(self):
        # read as an ancestral graph, a --> b admits hidden confounding
        # (no witness for visibility), so the effect is not identified
        res = sidp(backdoor(), ["b"], ["a"])
        assert isinstance(res, FailCertificate)
        mag, wit, h = hedge_witness(backdoor(), ["b"], ["a"], res)
        D = maximal_regime_separated(wit, ["b"], ["a"])
        assert verify_hedge(
            wit, {"b"} | (set(wit.selections) - D), {"a"} | D, h
        )

    def test_visible_edge_identifies(self):
        g = parse_graph(
            "node a output\nnode b output\nnode c1 output\n"
            "edge c1 <-> a\nedge a --> b\n"
        )
        res = sidp(g, ["b"], ["a"])
        assert not isinstance(res, FailCertificate)
        for seed in range(4):
            scm = oc.random_scm(g, random.Random(seed))
            got = oc.eval_estimand(res, oc.observational_kernel(scm), scm)
            want = oc.interventional_kernel(scm, ["a"], outputs=["b"])
            assert oc.kernels_agree(got, want), seed

    def test_selection_free_agreement_with_district_factorization(self):
        # classical reading: success iff every district factor is reachable
        # by fixing, and the value matches the factorized reference
        rng = random.Random(17)
        hits = fails = 0
        for trial in range(60):
            g = rand_isadmg(rng, n_out=rng.randint(2, 4), n_sel=0,
                            n_lat=0, n_in=0, p=0.6)
            # the generator places one edge per pair; add confounding
            # alongside some directed edges so bow arcs occur
            extra = [
                Edge(e.a, ARROW, e.b, ARROW)
                for e in g.edges
                if (e.mark_a, e.mark_b) == (TAIL, ARROW)
                and rng.random() < 0.5
            ]
            g = g.edit(add=extra)
            outs = sorted(g.outputs)
            if len(outs) < 2:
                continue
            a = rng.choice(outs)
            B = rng.sample(
                [v for v in outs if v != a],
                rng.randint(1, len(outs) - 1),
            )
            res = sidp(g, [a], B, ADMG)
            D = g.induced(set(outs) - set(B)).ancestors({a})
            dists = set()
            sub = g.induced(D)
            for v in sorted(D):
                dists.add(frozenset(district_of(sub, v)))
            ok = all(fixing_identifiable(g, S) for S in dists)
            assert ok == (not isinstance(res, FailCertificate)), (g, a, B)
            if not ok:
                fails += 1
                continue
            hits += 1
            scm = oc.random_scm(g, random.Random(1000 + trial))
            qv = oc.observational_kernel(scm)
            got = oc.eval_estimand(res, qv, scm)
            want = oc.interventional_kernel(scm, B, outputs=[a])
            assert oc.kernels_agree(got, want), (g, a, B)
            factors = [oc.c_factor(scm, S) for S in sorted(dists, key=min)]
            formula = oc.kernel_product(factors, scm.domains)
            formula = formula.marginalize(set(D) - {a})
            assert oc.kernels_agree(formula, want), (g, a, B)
        assert hits >= 10 and fails >= 5

    def test_box_product_is_a_markov_combination(self):
        # z cannot be fixed, so {x, y} splits into the regions {x} and {y},
        # read as an ADMG and without a class; the assembly product of the
        # overlap-consistent kernels equals q[left] * q[right] / q[overlap]
        # pointwise
        g = parse_graph(FRONT_DOOR)
        scm = oc.random_scm(g, random.Random(9))
        qv = oc.observational_kernel(scm)
        for cls in (ADMG, None):
            box = sidp(g, ["x"], ["z"], cls).child
            assert isinstance(box, BoxProduct)
            assert box.bucket_order == (("y",), ("x",))
            assert [p.outputs for p in _parts(box)] == [{"x"}, {"y"}]
            kl = oc.eval_estimand(box.left, qv, scm)
            kr = oc.eval_estimand(box.right, qv, scm)
            kb = oc.eval_estimand(box, qv, scm)
            shared = set(kl.outputs) & set(kr.outputs)
            ki = kl.marginalize(set(kl.outputs) - shared)
            kj = kr.marginalize(set(kr.outputs) - shared)
            names = kb.context + kb.outputs
            for ctx in oc._assignments(kb.domains, kb.context):
                for out in oc._assignments(kb.domains, kb.outputs):
                    asg = dict(zip(names, ctx + out))
                    assert ki.value(asg) == kj.value(asg)
                    denom = ki.value(asg)
                    if denom:
                        assert (kb.value(asg) * denom
                                == kl.value(asg) * kr.value(asg))

    def test_input_graph_is_validated(self):
        bad = parse_graph(
            "node a output\nnode b output\nedge a --> b\nedge a <-> b\n"
            "node c output\nedge b o-o c\n"
        )
        with pytest.raises(ValueError):
            sidp(bad, ["a"], [])


class TestScidp:
    def test_cycle4_conditional_effect(self):
        res = scidp(cycle4(), ["a"], ["b"], ["c1", "c2"])
        assert format_estimand(res) == "(cond (b c1 c2) (Q (a b c1 c2)))"

    def test_cycle4_conditional_matches_model(self):
        wit = canonical_isadmg(cycle4())
        res = scidp(cycle4(), ["a"], ["b"], ["c1", "c2"])
        for seed in range(4):
            scm = oc.random_scm(wit, random.Random(seed))
            qv = oc.observational_kernel(scm)
            got = oc.eval_estimand(res, qv, scm)
            want = oc.interventional_kernel(
                scm, ["b"], outputs=["a", "c1", "c2"]
            ).condition(("c1", "c2"))
            assert oc.kernels_agree(got, want), seed

    def test_empty_condition_reduces_to_unconditional(self):
        g = backdoor()
        assert format_estimand(scidp(g, ["b"], ["a"], [], ADMG)) == \
            format_estimand(sidp(g, ["b"], ["a"], ADMG))

    def test_rejects_overlap(self):
        with pytest.raises(ValueError):
            scidp(cycle4(), ["a"], ["b"], ["a"])


class TestCalculus:
    def test_class_given_as_string(self):
        g = cycle4()
        assert calculus_check(g, 2, ["a"], ["b"], ["c1", "c2"], cls="mag")
        assert sidp(g, ["a"], ["b"], "mag") == sidp(
            g, ["a"], ["b"], GraphClass.MAG)
        with pytest.raises(ValueError):
            sidp(g, ["a"], ["b"], "dag")

    def test_explicit_class_is_validated_as_that_class(self):
        # a valid ADMG, but b <-> c with b --> d --> c is no MAG
        g = parse_graph(
            "node a output\nnode b output\nnode c output\nnode d output\n"
            "edge a <-> b\nedge b <-> c\nedge b --> d\nedge d --> c\n"
        )
        assert not isinstance(sidp(g, ["c"], ["a"]), FailCertificate)
        for check in (
            lambda: sidp(g, ["c"], ["a"], "mag"),
            lambda: scidp(g, ["c"], ["a"], ["d"], "mag"),
            lambda: calculus_check(g, 2, ["c"], ["a"], cls="mag"),
        ):
            with pytest.raises(ValueError, match="almost directed cycle"):
                check()

    def test_cycle4_exchange_rules(self):
        g = cycle4()
        assert calculus_check(g, 2, ["a"], ["b"], ["c1", "c2"])
        assert calculus_check(g, 3, ["a"], ["b"], ["c1", "c2"])

    def test_one_graph_build_per_check(self, monkeypatch):
        # rule 2 manipulates softly on B and hard on D: one build for both
        g = cycle4()
        builds = []
        real = MixedGraph.__init__

        def counted(self, *args, **kwargs):
            builds.append(args)
            real(self, *args, **kwargs)

        monkeypatch.setattr(MixedGraph, "__init__", counted)
        assert calculus_check(g, 2, ["a"], ["b"], ["c1"], ["c2"])
        assert len(builds) == 1

    def test_cycle4_needs_the_separators(self):
        g = cycle4()
        assert not calculus_check(g, 2, ["a"], ["b"])
        assert not calculus_check(g, 3, ["a"], ["b"])

    def test_observation_exchange_on_partial_graph(self):
        p = parse_graph(
            "node a output\nnode b output\nnode c1 output\n"
            "node c2 output\nnode t output\n"
            "edge a o-> c1\nedge c2 o-> c1\nedge c2 o-o b\n"
            "edge c2 o-> t\nedge a o-> t\nedge t o-o c1\n"
        )
        assert calculus_check(p, 1, ["a"], ["b"], ["c1", "c2"], ["t"])
        assert not calculus_check(p, 1, ["a"], ["b"], ["c1"], ["t"])

    def test_rejects_bad_arguments(self):
        g = cycle4()
        with pytest.raises(ValueError):
            calculus_check(g, 4, ["a"], ["b"])
        with pytest.raises(ValueError):
            calculus_check(g, 1, ["a"], ["a"])
        with pytest.raises(ValueError):
            calculus_check(g, 1, [], ["a"])

    def test_rule_equalities_hold_numerically(self):
        # when a rule applies, the corresponding kernel equality is exact
        g = backdoor()
        assert calculus_check(g, 2, ["b"], ["a"], ["c"], cls=ADMG)
        for seed in range(4):
            scm = oc.random_scm(g, random.Random(seed))
            doa = oc.interventional_kernel(
                scm, ["a"], outputs=["b", "c"]
            ).condition(("c",))
            obs = oc.observational_kernel(scm).condition(("a", "c"))
            obs = Trim(obs, ("b",))
            doa = Trim(doa, ("b",))
            assert oc.kernels_agree(obs, doa) or oc.kernels_agree(doa, obs)


class TestLastManipulation:
    """A graph keeps its last manipulation, so checks that ask for the same
    one in a row build its graph once."""

    def builds(self, monkeypatch):
        builds = []
        real = MixedGraph.__init__

        def counted(self, *args, **kwargs):
            builds.append(args)
            real(self, *args, **kwargs)

        monkeypatch.setattr(MixedGraph, "__init__", counted)
        return builds

    def test_rules_two_and_three_share_one_build(self, monkeypatch):
        g = cycle4()
        want = [calculus_check(cycle4(), rule, ["a"], ["b"], ["c1"], ["c2"])
                for rule in (2, 3)]
        builds = self.builds(monkeypatch)
        got = [calculus_check(g, rule, ["a"], ["b"], ["c1"], ["c2"])
               for rule in (2, 3)]
        assert got == want
        assert len(builds) == 1

    def test_all_three_rules_share_one_build(self, monkeypatch):
        # rule 1 reads the graph of rules 2 and 3: soft on B, hard on D
        g = cycle4()
        want = [calculus_check(cycle4(), rule, ["a"], ["b"], ["c1"], ["c2"])
                for rule in (1, 2, 3)]
        builds = self.builds(monkeypatch)
        got = [calculus_check(g, rule, ["a"], ["b"], ["c1"], ["c2"])
               for rule in (1, 2, 3)]
        assert got == want
        assert len(builds) == 1

    def test_adjustment_scan_builds_once(self, monkeypatch):
        g = parse_graph(BACKDOOR + "node d output\nedge d --> c\n")
        scan = [(), ("c",), ("d",), ("c", "d")]
        want = [adjustment_check(parse_graph(format_graph(g)), ["b"], ["a"],
                                 J0=J, cls=ADMG) for J in scan]
        assert any(ok for ok, _est in want)
        builds = self.builds(monkeypatch)
        assert [adjustment_check(g, ["b"], ["a"], J0=J, cls=ADMG)
                for J in scan] == want
        assert len(builds) == 1

    def test_a_scan_over_d_builds_once(self, monkeypatch):
        # every rule conditions on D, which the search reads off the soft
        # manipulation on B: one build, whatever D is
        g = cycle4()
        scan = [(rule, C, D) for rule in (1, 2, 3)
                for C, D in [((), ()), ((), ("c1",)), (("c1",), ("c2",)),
                             ((), ("c1", "c2"))]]
        want = [calculus_check(cycle4(), rule, ["a"], ["b"], C, D)
                for rule, C, D in scan]
        builds = self.builds(monkeypatch)
        assert [calculus_check(g, rule, ["a"], ["b"], C, D)
                for rule, C, D in scan] == want
        assert len(builds) == 1

    def test_a_latent_graph_keeps_its_reading(self, monkeypatch):
        # the bow l --> a, l --> b with a --> c --> b, read through its MAG
        # without a class: one build for the MAG, one for the manipulation
        g = parse_graph(BOW_VIA_C)
        want = [calculus_check(parse_graph(BOW_VIA_C), rule, ["c"], ["a"])
                for rule in (2, 3)]
        builds = self.builds(monkeypatch)
        assert [calculus_check(g, rule, ["c"], ["a"])
                for _ in range(10) for rule in (2, 3)] == want * 10
        assert len(builds) == 2

    def test_each_class_keeps_its_own_reading(self, monkeypatch):
        # read as an ADMG the latent is projected out instead; the MAG
        # reading kept on the same graph is not the one served
        g, h = parse_graph(BOW_VIA_C), parse_graph(BOW_VIA_C)
        calculus_check(g, 2, ["c"], ["a"])
        builds = self.builds(monkeypatch)
        want = calculus_check(h, 2, ["c"], ["a"], cls=ADMG)
        once = len(builds)
        builds.clear()
        assert [calculus_check(g, 2, ["c"], ["a"], cls=ADMG)
                for _ in range(20)] == [want] * 20
        assert len(builds) == once > 1


def _outcome(f, *args):
    """What a call gives: its value, or the type and text of its error."""
    try:
        return f(*args)
    except ValueError as e:
        return type(e), str(e)


@st.composite
def rule_one_cases(draw):
    """A random isADMG with up to two latent, selection and input nodes
    each, read without a class, as its MAG, as its FCI PAG, or as an ADMG
    when it has no selection node; and disjoint A, B, C and D over the
    observed nodes of that reading, inputs included, A and B non-empty."""
    rng = random.Random(draw(st.integers(0, 2**32)))
    g = rand_isadmg(rng, n_out=draw(st.integers(3, 6)),
                    n_sel=draw(st.integers(0, 2)),
                    n_lat=draw(st.integers(0, 2)),
                    n_in=draw(st.integers(0, 2)),
                    p=draw(st.sampled_from([0.3, 0.5, 0.7])))
    readings = [(g, None), (mag_of(g), GraphClass.MAG),
                (fci(graph_oracle(g)), None)]
    if not g.selections:
        readings.append((g, ADMG))
    graph, cls = draw(st.sampled_from(readings))
    read, _ = idf._reading(graph, cls)
    nodes = sorted(set(read.outputs) | set(read.inputs))
    A = draw(st.lists(st.sampled_from(nodes), min_size=1, max_size=2,
                      unique=True))
    rest = [v for v in nodes if v not in A]
    B = draw(st.lists(st.sampled_from(rest), min_size=1, max_size=3,
                      unique=True))
    rest = [v for v in rest if v not in B]
    roles = draw(st.lists(st.sampled_from("CD-"), min_size=len(rest),
                          max_size=len(rest)))
    C = [v for v, r in zip(rest, roles) if r == "C"]
    D = [v for v, r in zip(rest, roles) if r == "D"]
    return graph, cls, A, B, C, D


class TestRuleOne:
    """Rule 1 reads the graph of rules 2 and 3, soft on the outputs of
    B - D, and conditions on their regime nodes as well.  The hard
    manipulation of D alone, conditioned on C and D, is the reference."""

    @staticmethod
    def reference(g, cls, A, B, C=(), D=()):
        g, cls = idf._reading(g, cls, A, B, C, D)
        return rule_one_reference(g, cls, A, B, C, D)

    @staticmethod
    def recoverability_reference(g, cls, A, B):
        g, cls = idf._reading(g, cls, A, B)
        if isinstance(sidp(g, A, B, cls), FailCertificate):
            return False
        free = [v for v in g.outputs
                if all(mv is not ARROW for _, mv, _, _ in g.edges_at(v))]
        return rule_one_reference(g, cls, A, free, (), B)

    @settings(max_examples=300, deadline=None)
    @given(rule_one_cases())
    def test_matches_the_hard_only_rule(self, case):
        graph, cls, A, B, C, D = case
        assert _outcome(calculus_check, graph, 1, A, B, C, D, cls) == (
            _outcome(self.reference, graph, cls, A, B, C, D))
        assert _outcome(s_recoverability_check, graph, A, B, cls) == (
            _outcome(self.recoverability_reference, graph, cls, A, B))

    def test_the_regime_nodes_are_conditioned(self):
        # I__a --o b copies a o-o b, and x o-> b then steps into I__a
        # through the possible ancestor b of c; unconditioned, I__a would
        # be a connecting input that a itself is not
        g = parse_graph(
            "node x output\nnode b output\nnode a output\nnode c output\n"
            "edge x o-> b\nedge a o-o b\nedge b o-> c\n"
        )
        assert calculus_check(g, 1, ["x"], ["a"], ["c"])
        assert self.reference(g, None, ["x"], ["a"], ["c"])

    def test_b_holds_an_input(self):
        # x is an input, and no input can be a soft target
        g = parse_graph(
            "node x input\nnode a output\nnode b output\nnode c output\n"
            "edge x --> c\nedge c --> a\nedge b --> c\n"
        )
        for B, C, want in [(["x"], ["c"], True), (["x"], [], False),
                           (["x", "b"], ["c"], True), (["x", "b"], [], False)]:
            assert calculus_check(g, 1, ["a"], B, C) is want
            assert self.reference(g, None, ["a"], B, C) is want

    def test_b_meets_d(self):
        # s-recoverability asks rule 1 with D = B over the free nodes b
        # and w: b is in D, and w is softly manipulated
        g = parse_graph(
            "node w output\nnode a output\nnode b output\nnode c output\n"
            "edge w --> a\nedge a --> c\n"
        )
        for B, want in [(["b"], False), (["a", "b"], True)]:
            assert s_recoverability_check(g, ["c"], B) is want
            assert self.recoverability_reference(g, None, ["c"], B) is want


def _said(f, *args):
    """What a call gives, as text: its answer, its estimand or failure
    printed, or the type and text of its error."""
    try:
        out = f(*args)
    except (KeyError, ValueError) as e:
        return type(e).__name__, str(e)
    if isinstance(out, tuple):  # adjustment_check's verdict and formula
        return out[0], out[1] and format_estimand(out[1])
    if isinstance(out, (bool, str, FailCertificate, ExchangeFail)):
        return str(out)
    return format_estimand(out)


def adjustment_reference(g, A, B, C, D, J0, J1, H, cls):
    """``adjustment_check`` with its premises asked of the graph built by
    soft manipulation of B and hard manipulation of D."""
    A, B, C, D, J0, J1, H = (frozenset(s) for s in (A, B, C, D, J0, J1, H))
    g, cls = idf._reading(g, cls, A, B, C, D, J0, J1, H)
    idf._disjoint(A, B, C, D, J0, J1, H)
    if not A or not B:
        raise ValueError("A and B must be non-empty")
    J = J0 | J1
    if not adjustment_premises_reference(g, cls, A, B, C, D, J0, J1, H):
        return False, None
    W = frozenset(set(g.outputs) - D)
    outer = Condition(Marginalize(Base(W), W - (A | B | C | J)),
                      tuple(sorted(B | C | J)))
    if not J:
        return True, outer
    inner = Condition(Marginalize(Base(W), W - (C | J)), tuple(sorted(C)))
    return True, Compose(outer, inner, tuple(sorted(J)))


@st.composite
def dead_end_cases(draw):
    """A random isADMG with latent, selection and input nodes, read without
    a class, as its MAG, as its FCI PAG, or as an ADMG when it has no
    selection node; disjoint A, B, C, D, J0, J1 and H over the observed
    nodes of that reading, A and B non-empty.  Now and then D also holds a
    latent, selection or unknown node, and B an input."""
    rng = random.Random(draw(st.integers(0, 2**32)))
    g = rand_isadmg(rng, n_out=draw(st.integers(3, 6)),
                    n_sel=draw(st.integers(0, 2)),
                    n_lat=draw(st.integers(0, 2)),
                    n_in=draw(st.integers(0, 2)),
                    p=draw(st.sampled_from([0.3, 0.5, 0.7])))
    readings = [(g, None), (mag_of(g), GraphClass.MAG),
                (fci(graph_oracle(g)), None)]
    if not g.selections:
        readings.append((g, ADMG))
    graph, cls = draw(st.sampled_from(readings))
    read, _ = idf._reading(graph, cls)
    nodes = sorted(set(read.outputs) | set(read.inputs))
    A = draw(st.lists(st.sampled_from(nodes), min_size=1, max_size=2,
                      unique=True))
    rest = [v for v in nodes if v not in A]
    if not rest:
        rest = ["zz"]
    B = draw(st.lists(st.sampled_from(rest), min_size=1, max_size=3,
                      unique=True))
    rest = [v for v in rest if v not in B]
    roles = draw(st.lists(st.sampled_from("CDJjH--"), min_size=len(rest),
                          max_size=len(rest)))
    sets = {r: [v for v, x in zip(rest, roles) if x == r] for r in "CDJjH"}
    odd = sorted(set(g.latents) | set(g.selections)) + ["zz"]
    if draw(st.booleans()):
        sets["D"].append(draw(st.sampled_from(odd)))
        inputs = [v for v in read.inputs if v not in A]
        if inputs and draw(st.booleans()):
            B.append(draw(st.sampled_from(inputs)))
    return graph, cls, A, B, *(sets[r] for r in "CDJjH")


def _fresh(g):
    return MixedGraph(dict(g.nodes), g.edges)


class TestHardTargetsAsDeadEnds:
    """Every question of the calculus rules and the adjustment premises
    conditions on its hard targets D, so the search reads the soft
    manipulation with D as dead ends.  The references build the hard
    manipulation and search it plainly; answers, printed estimands and
    errors must be theirs."""

    @staticmethod
    def referenced(f, *args):
        with mock.patch.object(idf, "_rule", rule_reference):
            return _said(f, *args)

    @settings(max_examples=300, deadline=None)
    @given(dead_end_cases())
    def test_answers_equal_the_references(self, case):
        graph, cls, A, B, C, D, J0, J1, H = case
        for rule in (1, 2, 3):
            assert _said(calculus_check, graph, rule, A, B, C, D, cls) == (
                self.referenced(calculus_check, _fresh(graph), rule, A, B, C,
                                D, cls))
        for f, args in [(scidp, (A, B, C, cls)),
                        (s_recoverability_check, (A, B, cls))]:
            assert _said(f, graph, *args) == self.referenced(
                f, _fresh(graph), *args)
        for kind in ("direct", "total", "confounding"):
            args = (A[0], B[0], kind, cls)
            assert _said(causal_relation, graph, *args) == self.referenced(
                causal_relation, _fresh(graph), *args)
        args = (A, B, C, D, J0, J1, H, cls)
        assert _said(adjustment_check, graph, *args) == _said(
            adjustment_reference, _fresh(graph), *args)

    def test_a_collider_whose_way_into_c_enters_d(self):
        # a --> m <-- b with m --> d: m is an ancestor of the conditioning
        # set only through d, whose arrowheads the hard rules drop
        g = parse_graph("node a output\nnode m output\nnode b output\n"
                        "node d output\n"
                        "edge a --> m\nedge b --> m\nedge m --> d\n")
        assert calculus_check(g, 1, ["a"], ["b"], [], ["d"], "mag")
        assert rule_reference(g, GraphClass.MAG, 1, frozenset("a"),
                              frozenset("b"), frozenset(), frozenset("d"))

    def test_a_possible_ancestor_only_through_d(self):
        # I__b --> v is the regime edge of b o-> v, so the collider
        # a o-> v <-- I__b needs v possibly ancestral to C and D: only
        # through v o-> d, which the hard rules drop
        g = parse_graph("node a output\nnode v output\nnode b output\n"
                        "node d output\n"
                        "edge a o-> v\nedge b o-> v\nedge v o-> d\n")
        for rule in (2, 3):
            assert calculus_check(g, rule, ["a"], ["b"], [], ["d"], "pag")
            assert rule_reference(g, GraphClass.PAG, rule, frozenset("a"),
                                  frozenset("b"), frozenset(), frozenset("d"))

    @pytest.mark.parametrize("cls, text, sets", [
        (GraphClass.RAW,
         "node v0 output\nnode v1 output\nnode v2 output\n"
         "node v3 latent\nnode v4 output\nedge v0 o-> v1\n"
         "edge v0 <-o v2\nedge v0 o-o v4\nedge v1 --o v2\nedge v1 --> v3\n",
         ("v0", "v1", "v4", "v2")),
        (GraphClass.PAG,
         "node v0 output\nnode v1 output\nnode v2 selection\n"
         "node v3 output\nnode v4 latent\nnode v5 output\n"
         "edge v0 <-> v2\nedge v0 <-- v3\nedge v0 <-> v4\nedge v1 --> v2\n"
         "edge v1 <-- v5\nedge v2 --o v3\nedge v2 o-> v4\n",
         ("v5", "v1", "v0", "v3")),
    ], ids=["raw", "pag"])
    def test_a_circle_left_at_d_is_no_dead_end(self, cls, text, sets):
        # on a raw graph, and at a latent or selection neighbour on a
        # partial graph, the hard rules keep a circle at d: the closures
        # expand d, so the search reads the hard manipulation as built
        g = parse_graph(text)
        A, B, C, D = (frozenset([v]) for v in sets)
        assert calculus_check(g, 3, A, B, C, D, cls) is False
        assert rule_reference(g, cls, 3, A, B, C, D) is False

    def test_a_walk_that_meets_d_as_a_collider(self):
        # a --> d <-- I__b: d is conditioned, but has no arrowheads left
        g = parse_graph("node a output\nnode b output\nnode d output\n"
                        "edge a --> d\nedge b --> d\n")
        assert calculus_check(g, 3, ["a"], ["b"], [], ["d"], "mag")
        assert adjustment_check(g, ["a"], ["b"], D=["d"], cls="mag")[0]
        assert rule_reference(g, GraphClass.MAG, 3, frozenset("a"),
                              frozenset("b"), frozenset(), frozenset("d"))


@st.composite
def question_sequences(draw):
    """One graph and a random sequence of questions on it: calculus rules 1
    to 3, adjustment, causal relations, s-recoverability and scidp.  The
    graph is a random isADMG with latent, selection and input nodes, read
    through its MAG without a class or as an ADMG when it has no selection
    node, or it is that MAG, or its FCI PAG.  Now and then a rule-2
    question on some B is followed by questions on the same B with a bad
    hard target added to D: an unknown node, a regime-node name, a node of
    B, or a node that the reading projects out; and by s-recoverability,
    which asks rule 1 with D = B."""
    rng = random.Random(draw(st.integers(0, 2**32)))
    g = rand_isadmg(rng, n_out=draw(st.integers(3, 6)),
                    n_sel=draw(st.integers(0, 2)),
                    n_lat=draw(st.integers(0, 2)),
                    n_in=draw(st.integers(0, 2)),
                    p=draw(st.sampled_from([0.3, 0.5, 0.7])))
    mag = mag_of(g)
    readings = [(g, None), (mag, None), (mag, GraphClass.MAG),
                (fci(graph_oracle(g)), None)]
    if not g.selections:
        readings.append((g, ADMG))
    graph, cls = draw(st.sampled_from(readings))
    read, _ = idf._reading(graph, cls)
    nodes = sorted(set(read.outputs) | set(read.inputs))
    lost = sorted(set(graph.node_ids) - set(read.node_ids))

    def sets():
        A = draw(st.lists(st.sampled_from(nodes), min_size=1, max_size=2,
                          unique=True))
        rest = [v for v in nodes if v not in A]
        B = draw(st.lists(st.sampled_from(rest), min_size=1, max_size=2,
                          unique=True))
        rest = [v for v in rest if v not in B]
        roles = draw(st.lists(st.sampled_from("CDJjH--"),
                              min_size=len(rest), max_size=len(rest)))
        return A, B, *([v for v, x in zip(rest, roles) if x == r]
                       for r in "CDJjH")

    calls = []
    for _ in range(draw(st.integers(2, 6))):
        A, B, C, D, J0, J1, H = sets()
        kind = draw(st.sampled_from(["rule", "adjust", "relation",
                                     "recover", "scidp"]))
        if kind == "rule":
            calls.append((calculus_check, draw(st.sampled_from([1, 2, 3])),
                          A, B, C, D, cls))
        elif kind == "adjust":
            calls.append((adjustment_check, A, B, C, D, J0, J1, H, cls))
        elif kind == "relation":
            calls.append((causal_relation, A[0], B[0], draw(st.sampled_from(
                ["direct", "total", "confounding"])), cls))
        elif kind == "recover":
            calls.append((s_recoverability_check, A, B, cls))
        else:
            calls.append((scidp, A, B, C, cls))
        if draw(st.booleans()):
            calls.append((calculus_check, 2, A, B, C, D, cls))
            bad = ["zz", regime_id(B[0]), B[0], *lost]
            for t in draw(st.lists(st.sampled_from(bad), max_size=3)):
                calls.append((calculus_check, draw(st.sampled_from([1, 2, 3])),
                              A, B, C, [*D, t], cls))
                calls.append((adjustment_check, A, B, C, [*D, t], J0, J1, H,
                              cls))
            calls.append((s_recoverability_check, A, B, cls))
    return graph, calls


class TestMemoAnswers:
    """What a graph keeps between questions (its readings and its last
    manipulation) never changes an answer: each question of a sequence on
    one graph is answered, errors and their texts included, as it is on a
    fresh copy that has kept nothing."""

    @settings(max_examples=150, deadline=None)
    @given(question_sequences())
    def test_sequences_match_fresh_graphs(self, case):
        graph, calls = case
        for f, *args in calls:
            assert _said(f, graph, *args) == _said(f, _fresh(graph), *args)


class TestDisjoint:
    """``_disjoint`` answers at once when the sizes of the sets add up to
    the size of their union, and otherwise as the pairwise reference."""

    @settings(max_examples=400)
    @given(st.data())
    def test_equals_the_pairwise_reference(self, data):
        k = data.draw(st.integers(2, 7))
        # each node in at most one set, then now and then in more
        slots = data.draw(st.lists(st.integers(-1, k - 1), max_size=10))
        sets = [{v for v, i in enumerate(slots) if i == j} for j in range(k)]
        for _ in range(data.draw(st.integers(0, 3))):
            sets[data.draw(st.integers(0, k - 1))].add(
                data.draw(st.integers(0, 11)))
        sets = [frozenset(f"v{v}" for v in s) for s in sets]
        assert _outcome(idf._disjoint, *sets) == _outcome(
            disjoint_reference, *sets)

    def test_the_first_pair_is_named(self):
        sets = [frozenset("ab"), frozenset("c"), frozenset("d"),
                frozenset("bc"), frozenset("a")]
        with pytest.raises(ValueError, match=r"overlapping sets: \['b'\]$"):
            idf._disjoint(*sets)
        assert idf._disjoint(*sets[:3]) is None


def Trim(k, outputs):
    return k.marginalize(set(k.outputs) - set(outputs))


class TestAdjustment:
    def test_backdoor_set(self):
        ok, est = adjustment_check(
            backdoor(), ["b"], ["a"], J0=["c"], cls=ADMG
        )
        assert ok
        g = backdoor()
        for seed in range(4):
            scm = oc.random_scm(g, random.Random(seed))
            got = oc.eval_estimand(est, oc.observational_kernel(scm), scm)
            want = oc.interventional_kernel(scm, ["a"], outputs=["b"])
            assert oc.kernels_agree(got, want), seed

    def test_backdoor_fails_at_ancestral_reading(self):
        # the invisible a --> b admits confounding, so no adjustment set
        # is licensed for the graph read as a MAG
        ok, est = adjustment_check(backdoor(), ["b"], ["a"], J0=["c"])
        assert not ok and est is None

    def test_empty_adjustment_set(self):
        g = parse_graph("node a output\nnode b output\nedge a --> b\n")
        ok, est = adjustment_check(g, ["b"], ["a"], cls=ADMG)
        assert ok
        assert not isinstance(est, Compose)
        scm = oc.random_scm(g, random.Random(1))
        got = oc.eval_estimand(est, oc.observational_kernel(scm), scm)
        want = oc.interventional_kernel(scm, ["a"], outputs=["b"])
        assert oc.kernels_agree(got, want)

    def test_rejects_overlapping_roles(self):
        with pytest.raises(ValueError):
            adjustment_check(backdoor(), ["b"], ["a"], J0=["b"])


class TestCausalRelations:
    def setup_method(self):
        self.g = parse_graph(
            "node a output\nnode b output\nnode c output\n"
            "edge a --> b\nedge b --> c\nedge b <-> c\n"
        )

    def test_direct_cause_excluded(self):
        assert causal_relation(self.g, "a", "c", "direct") == ALL_NO

    def test_total_cause_possible(self):
        assert causal_relation(self.g, "a", "c", "total") == SOME_YES

    def test_confounding_excluded(self):
        assert causal_relation(self.g, "a", "b", "confounding") == ALL_NO

    def test_selection_ancestry(self):
        # an arrowhead toward the node rules out selection ancestry
        assert causal_relation(self.g, "c", "a", "sel_ancestor") == ALL_NO
        assert causal_relation(self.g, "a", "b", "sel_ancestor") == SOME_YES

    def test_rejects_unknown_kind(self):
        with pytest.raises(ValueError):
            causal_relation(self.g, "a", "b", "nonsense")
        with pytest.raises(ValueError):
            causal_relation(self.g, "a", "a", "direct")


class TestSRecoverability:
    def test_failed_identification_blocks_recovery(self):
        assert not s_recoverability_check(backdoor(), ["b"], ["a"])

    def test_separated_from_unselected_roots(self):
        g = parse_graph(
            "node a output\nnode b output\nnode c output\n"
            "edge a --> b\nedge b <-> c\n"
        )
        # the only arrowhead-free node is a; c is blocked from it
        assert s_recoverability_check(g, ["c"], [])
        assert not s_recoverability_check(g, ["b"], [])


class TestLatentSelectionReading:
    """Without a class, explicit latent and selection nodes are read
    through the graph's MAG rather than ignored.  Read as an ADMG, latent
    nodes are projected out and selection nodes are an error."""

    SELECTED = (
        "node v0 output\nnode v1 output\nnode v2 output\nnode s0 selection\n"
        "edge v2 --> v1\nedge v1 --> v0\nedge v0 --> s0\nedge v2 --> v0\n"
    )
    BOW = (
        "node a output\nnode b output\nnode l latent\n"
        "edge l --> a\nedge l --> b\nedge a --> b\n"
    )

    def test_selection_blocks_action_deletion(self):
        g = parse_graph(self.SELECTED)
        assert not calculus_check(g, 3, ["v1"], ["v0"])
        cert = sidp(g, ["v1"], ["v0"])
        assert isinstance(cert, FailCertificate)
        mag, _wit, _h = hedge_witness(g, ["v1"], ["v0"], cert)
        assert not mag.selections

    def test_latent_bow_is_not_identified(self):
        g = parse_graph(self.BOW)
        cert = sidp(g, ["b"], ["a"])
        assert isinstance(cert, FailCertificate)
        mag, _wit, _h = hedge_witness(g, ["b"], ["a"], cert)
        assert not mag.latents

    def test_explicit_admg_projects_latents(self):
        # the bow read as an ADMG is a --> b with a <-> b
        g = parse_graph(self.BOW)
        cert = sidp(g, ["b"], ["a"], ADMG)
        assert str(cert) == "FAIL C={b} T={a,b}"
        assert not calculus_check(g, 2, ["b"], ["a"], cls=ADMG)

    def test_explicit_admg_rejects_selection_nodes(self):
        g = parse_graph(self.SELECTED)
        for check in (
            lambda: sidp(g, ["v1"], ["v0"], ADMG),
            lambda: scidp(g, ["v1"], ["v0"], [], ADMG),
            lambda: calculus_check(g, 3, ["v1"], ["v0"], cls=ADMG),
        ):
            with pytest.raises(ValueError, match="selection nodes s0 .* "
                               "omit the class"):
                check()

    @staticmethod
    def _model(seed, draw):
        """A random graph with latent nodes, a model of it and the readings
        a caller may ask for: no class, its FCI PAG, and an ADMG when it
        has no selection node."""
        # the model is drawn with the latents as outputs and asked about
        # the observed outputs only; selection stays at one node, since
        # rand_isadmg may draw s0 --> s1, which random_scm rejects
        rng = random.Random(seed)
        g = rand_isadmg(rng, n_out=draw(st.integers(3, 5)),
                        n_sel=draw(st.integers(0, 1)),
                        n_lat=draw(st.integers(1, 2)),
                        n_in=draw(st.integers(0, 1)), p=0.5)
        shown = MixedGraph({v: OUTPUT if g.kind(v) is LATENT else g.kind(v)
                            for v in g.node_ids}, g.edges)
        scm = oc.random_scm(shown, rng)
        readings = [(g, None), (fci(graph_oracle(g)), None)]
        if not g.selections:
            readings.append((g, ADMG))
        return g, scm, readings

    @settings(max_examples=100)
    @given(st.integers(0, 2**32), st.data())
    def test_identified_estimands_match_the_model(self, seed, data):
        g, scm, readings = self._model(seed, data.draw)
        qv = oc.interventional_kernel(scm, outputs=g.outputs)
        A, B = _query(data.draw, g)
        C = [v for v in g.outputs if v not in A + B][:1]
        for graph, cls in readings:
            for est, outs, cond in [
                    (sidp(graph, A, B, cls), A, []),
                    (scidp(graph, A, B, C, cls), A + C, C)]:
                if isinstance(est, (FailCertificate, ExchangeFail)):
                    continue
                want = oc.interventional_kernel(scm, B, outputs=outs)
                assert oc.kernels_agree(oc.eval_estimand(est, qv),
                                        want.condition(cond)), (graph, cls)

    @settings(max_examples=300)
    @given(st.integers(0, 2**32), st.data())
    def test_applying_rules_hold_on_the_model(self, seed, data):
        # every rule calculus_check says applies, under each reading,
        # must hold on the exact kernels
        g, scm, readings = self._model(seed, data.draw)
        A, B = _query(data.draw, g)
        rest = [v for v in sorted(g.outputs) if v not in A + B]
        roles = data.draw(st.lists(st.sampled_from("CD-"),
                                   min_size=len(rest), max_size=len(rest)))
        C = [v for v, r in zip(rest, roles) if r == "C"]
        D = [v for v, r in zip(rest, roles) if r == "D"]
        for graph, cls in readings:
            for rule in (1, 2, 3):
                if calculus_check(graph, rule, A, B, C, D, cls):
                    assert rule_equality(scm, rule, A, B, C, D), (
                        graph, cls, rule, A, B, C, D)


class TestHedges:
    # the represented graph drawn next to the undirected four-cycle:
    # one cherry of the cycle is confounded, the rest splits off
    WIT = (
        "node a output\nnode b output\nnode c1 output\nnode c2 output\n"
        "node s1 selection\nnode s2 selection\n"
        "node s3 selection\nnode s4 selection\n"
        "edge b --> c2\nedge b <-> c2\nedge c2 --> a\n"
        "edge b --> s1\nedge c2 --> s1\nedge c2 --> s2\nedge a --> s2\n"
        "edge b --> s3\nedge c1 --> s3\nedge c1 --> s4\nedge a --> s4\n"
    )

    def _cycle4_hedge(self):
        return Hedge(
            H=frozenset({"b", "c2"}),
            Hprime=frozenset({"c2"}),
            R=frozenset({"c2"}),
            forest_edges=(
                Edge("b", TAIL, "c2", ARROW),
                Edge("b", ARROW, "c2", ARROW),
            ),
            forest_prime_edges=(),
        )

    def test_cycle4_witness_hedge(self):
        wit = parse_graph(self.WIT)
        assert mag_of(wit) == cycle4()
        h = self._cycle4_hedge()
        S = set(wit.selections)
        assert maximal_regime_separated(wit, ["a"], ["b"]) == frozenset()
        assert verify_hedge(wit, {"a"} | S, {"b"}, h)

    def test_one_output_graph_per_witness(self, monkeypatch):
        # the regime search and the verification read one output-kind
        # graph, checked once as an ADMG
        wit, h = parse_graph(self.WIT), self._cycle4_hedge()
        checks = []
        real = manip_mod._check_valid

        def counted(g, cls):
            checks.append(cls)
            return real(g, cls)

        monkeypatch.setattr(manip_mod, "_check_valid", counted)
        D = maximal_regime_separated(wit, ["a"], ["b"])
        assert verify_hedge(
            wit, {"a"} | (set(wit.selections) - D), {"b"} | D, h
        )
        assert checks == [ADMG]

    def test_cycle4_constructed_witness(self):
        cert = sidp(cycle4(), ["a"], ["b"])
        mag, wit, h = hedge_witness(cycle4(), ["a"], ["b"], cert)
        assert mag_of(wit) == cycle4()
        assert len(h.H) == 2 and len(h.Hprime) == 1 and h.R == h.Hprime
        D = maximal_regime_separated(wit, ["a"], ["b"])
        assert verify_hedge(
            wit, {"a"} | (set(wit.selections) - D), {"b"} | D, h
        )

    # the selection-biased bow-arc neighbourhood: two treatments into a,
    # one confounded and selected
    A9 = (
        "node a output\nnode b1 output\nnode b2 output\nnode c output\n"
        "node s selection\n"
        "edge b1 --> a\nedge c --> b1\nedge b2 --> a\nedge c --> s\n"
        "edge b2 --> s\nedge c <-> a\nedge c <-> b2\n"
    )

    def _a9_hedge(self):
        return Hedge(
            H=frozenset({"b2", "a", "c"}),
            Hprime=frozenset({"a", "c"}),
            R=frozenset({"a", "c"}),
            forest_edges=(
                Edge("b2", TAIL, "a", ARROW),
                Edge("c", ARROW, "a", ARROW),
                Edge("c", ARROW, "b2", ARROW),
            ),
            forest_prime_edges=(Edge("c", ARROW, "a", ARROW),),
        )

    def test_selected_bow_arc_hedges(self):
        g = parse_graph(self.A9)
        h = self._a9_hedge()
        assert verify_hedge(g, {"a", "s"}, {"b2"}, h)
        assert verify_hedge(g, {"a", "s"}, {"b1", "b2"}, h)

    def test_unselected_variant_is_not_hedged(self):
        # without the selection node, the root set is no longer ancestral
        # to the target, so the same structure is not a hedge
        g = parse_graph(self.A9).without_nodes({"s"})
        assert not verify_hedge(g, {"a"}, {"b1", "b2"}, self._a9_hedge())

    def test_mag_failure_is_certified(self):
        m = mag_of(parse_graph(self.A9))
        cert = sidp(m, ["a"], ["b1", "b2"])
        assert isinstance(cert, FailCertificate)
        mag, wit, h = hedge_witness(m, ["a"], ["b1", "b2"], cert)
        D = maximal_regime_separated(wit, ["a"], ["b1", "b2"])
        assert verify_hedge(
            wit,
            {"a"} | (set(wit.selections) - D),
            {"b1", "b2"} | D,
            h,
        )

    def test_verify_hedge_rejects_bad_shapes(self):
        g = parse_graph(self.A9)
        good = self._a9_hedge()
        bad_nesting = Hedge(good.H, good.H | {"b1"}, good.R,
                            good.forest_edges, good.forest_prime_edges)
        assert not verify_hedge(g, {"a", "s"}, {"b2"}, bad_nesting)
        overlap = Hedge(good.H, frozenset({"b2"}), frozenset({"b2"}),
                        good.forest_edges, ())
        assert not verify_hedge(g, {"a", "s"}, {"b2"}, overlap)

    def test_input_with_circle_edges(self):
        # no direct hedge runs through the input i0: it has no ancestors
        p = parse_graph(
            "node i0 input\nnode v0 output\nnode v1 output\n"
            "node v2 output\nnode v3 output\nnode v4 output\n"
            "edge i0 --o v0\nedge i0 --o v1\nedge i0 --> v3\n"
            "edge v0 o-o v1\nedge v0 --o v2\nedge v0 --o v4\n"
            "edge v1 --> v3\nedge v2 o-o v4\nedge v4 --> v3\n"
        )
        cert = sidp(p, ["v3"], ["v0"])
        assert isinstance(cert, FailCertificate)
        mag, wit, h = hedge_witness(p, ["v3"], ["v0"], cert)
        assert (h.H, h.Hprime, h.R) == ({"v0", "v1"}, {"v1"}, {"v1"})
        D = maximal_regime_separated(wit, ["v3"], ["v0"])
        assert verify_hedge(
            wit, {"v3"} | (set(wit.selections) - D), {"v0"} | D, h
        )

    def test_confounded_child(self):
        # v0 --> v4 is visible (i0 --> v0), but v0 <-> v1 <-> v4 confounds
        # it, so there is no anterior violation and the hedge has 3 nodes
        m = parse_graph(
            "node i0 input\nnode v0 output\nnode v1 output\n"
            "node v2 output\nnode v3 output\nnode v4 output\n"
            "edge i0 --> v0\nedge i0 --> v2\nedge v0 <-> v1\n"
            "edge v0 <-> v3\nedge v0 --> v4\nedge v2 --> v1\n"
            "edge v1 <-> v4\nedge v2 <-> v3\nedge v2 --> v4\n"
            "edge v3 <-> v4\n"
        )
        A, B = ["v1", "v4"], ["v0"]
        cert = sidp(m, A, B)
        assert isinstance(cert, FailCertificate)
        assert idf._anterior_violation(m, A, B) is None
        mag, wit, h = hedge_witness(m, A, B, cert)
        assert wit == canonical_isadmg(m)
        assert (h.H, h.Hprime, h.R) == (
            {"v0", "v1", "v4"}, {"v1", "v4"}, {"v1", "v4"})
        assert verify_hedge(wit, *_hedge_targets(wit, A, B), h)

    def test_witness_needs_a_certificate(self):
        with pytest.raises(ValueError):
            hedge_witness(cycle4(), ["a"], ["b"], None)


@st.composite
def regime_cases(draw):
    """A random isADMG witness with 2-5 outputs, 1-5 selection nodes and at
    most one latent and one input node, with a non-empty A and a disjoint
    B drawn from its outputs."""
    rng = random.Random(draw(st.integers(0, 2**32)))
    wit = rand_isadmg(
        rng,
        n_out=draw(st.integers(2, 5)),
        n_sel=draw(st.integers(1, 5)),
        n_lat=draw(st.integers(0, 1)),
        n_in=draw(st.integers(0, 1)),
        p=draw(st.sampled_from([0.3, 0.5, 0.7])),
    )
    outs = wit.outputs
    roles = draw(st.lists(st.sampled_from("-ab"), min_size=len(outs),
                          max_size=len(outs)).filter(lambda r: "a" in r))
    A = [v for v, r in zip(outs, roles) if r == "a"]
    B = [v for v, r in zip(outs, roles) if r == "b"]
    return wit, A, B


class TestRegimeSearch:
    @settings(max_examples=300)
    @given(regime_cases())
    def test_matches_the_subset_search(self, case):
        wit, A, B = case
        assert maximal_regime_separated(wit, A, B) == (
            maximal_regime_separated_bruteforce(wit, A, B)
        )

    @settings(max_examples=100)
    @given(regime_cases())
    def test_separated_sets_are_closed_under_union(self, case):
        wit, A, B = case
        S = sorted(wit.selections)
        family = [
            frozenset(D)
            for k in range(len(S) + 1)
            for D in itertools.combinations(S, k)
            if regime_separated(wit, A, B, D)
        ]
        for D1, D2 in itertools.combinations(family, 2):
            assert D1 | D2 in family

    def test_one_manipulation_per_selection_node(self, monkeypatch):
        # s0..s4 hang off the target a and are not separated, s5..s9 hang
        # off the treatment b and are; the subset search tried every set
        # of six or more selection nodes before it got to the answer
        text = "node a output\nnode b output\nedge b --> a\n"
        for i in range(10):
            text += f"node s{i} selection\nedge {'ab'[i >= 5]} --> s{i}\n"
        wit = parse_graph(text)
        calls = []
        real = idf.manipulate

        def counted(*args, **kwargs):
            calls.append(args)
            return real(*args, **kwargs)

        monkeypatch.setattr(idf, "manipulate", counted)
        D = maximal_regime_separated(wit, ["a"], ["b"])
        assert D == frozenset(f"s{i}" for i in range(5, 10))
        assert len(calls) <= len(wit.selections)

    @pytest.mark.parametrize("k", [3, 5, 8])
    def test_one_manipulation_whatever_the_selection_count(self, k,
                                                           monkeypatch):
        # selection nodes hang off the target a and the treatment b in
        # turn; those off b are separated
        text = "node a output\nnode b output\nedge b --> a\n"
        for i in range(k):
            text += f"node s{i} selection\nedge {'ab'[i % 2]} --> s{i}\n"
        wit = parse_graph(text)
        want = maximal_regime_separated_bruteforce(wit, ["a"], ["b"])
        calls = []
        real = idf.manipulate

        def counted(*args, **kwargs):
            calls.append(args)
            return real(*args, **kwargs)

        monkeypatch.setattr(idf, "manipulate", counted)
        D = maximal_regime_separated(parse_graph(text), ["a"], ["b"])
        assert D == want == frozenset(f"s{i}" for i in range(1, k, 2))
        assert len(calls) == 1


@st.composite
def reading_cases(draw, kind, max_out=7, n_in=(0, 1)):
    """A random isADMG with 4..max_out outputs, up to two selection and two
    latent nodes and n_in[0]..n_in[1] inputs, read as its MAG ("MAG") or as
    the FCI PAG of its independence model ("PAG"), with disjoint A and B of
    one or two outputs each."""
    rng = random.Random(draw(st.integers(0, 2**32)))
    g = rand_isadmg(
        rng,
        n_out=draw(st.integers(4, max_out)),
        n_sel=draw(st.integers(0, 2)),
        n_lat=draw(st.integers(0, 2)),
        n_in=draw(st.integers(*n_in)),
        p=draw(st.sampled_from([0.3, 0.5, 0.7])),
    )
    p = mag_of(g) if kind == "MAG" else fci(graph_oracle(g))
    return p, *_query(draw, p)


@st.composite
def mixed_cases(draw):
    """A random mixed graph over 4..8 outputs, one edge per pair with tails
    and (twice as often) arrowheads, and disjoint A and B as in
    ``reading_cases``; bidirected paths are common, so confounded children
    are too."""
    rng = random.Random(draw(st.integers(0, 2**32)))
    g = rand_mixed_graph(rng, n=draw(st.integers(4, 8)),
                         p=draw(st.sampled_from([0.3, 0.5, 0.8])),
                         marks=(TAIL, ARROW, ARROW))
    return g, *_query(draw, g)


def _query(draw, g):
    """Disjoint A and B of one or two outputs each."""
    outs = sorted(g.outputs)
    A = draw(st.lists(st.sampled_from(outs), min_size=1, max_size=2,
                      unique=True))
    rest = [v for v in outs if v not in A]
    B = draw(st.lists(st.sampled_from(rest), min_size=1, max_size=2,
                      unique=True))
    return A, B


def _hedge_targets(wit, A, B):
    """The target pair a hedge in the witness answers for: A and B
    extended by the selection nodes, split by regime separation."""
    D = maximal_regime_separated(wit, A, B)
    return set(A) | (set(wit.selections) - D), set(B) | D


class TestCompleteness:
    """sidp FAILs exactly when a violation exists (an anterior violation
    or a confounded child), and the violation is the hedge.  An edge
    visible in the graph stays visible after fixing removes the node that
    witnessed it."""

    # v0 makes v1 --> v2 visible, and fixing removes v0 before v1
    VISIBLE_CHAIN = (
        "node v0 output\nnode v1 output\nnode v2 output\n"
        "node v3 output\nnode v4 output\n"
        "edge v0 --> v1\nedge v1 --> v2\nedge v2 --> v4\nedge v0 <-> v3\n"
    )
    # v2 makes v3 --> v1 visible
    VISIBLE_FORK = (
        "node v1 output\nnode v2 output\nnode v3 output\n"
        "edge v2 <-> v3\nedge v3 --> v1\n"
    )

    @pytest.mark.parametrize("text, A, B", [
        (VISIBLE_CHAIN, ["v2"], ["v3"]),
        (VISIBLE_FORK, ["v1"], ["v3"]),
    ], ids=["chain", "fork"])
    def test_visible_edge_after_fixing(self, text, A, B):
        m = parse_graph(text)
        res = sidp(m, A, B, GraphClass.MAG)
        assert not isinstance(res, FailCertificate), res
        represented = list(enumerate_represented(m))
        assert represented
        for w in represented:
            for seed in range(3):
                scm = oc.random_scm(w, random.Random(seed))
                got = oc.eval_estimand(res, oc.observational_kernel(scm), scm)
                want = oc.interventional_kernel(scm, B, outputs=A)
                assert oc.kernels_agree(got, want), (w, seed)

    @settings(max_examples=400)
    @given(st.sampled_from(["MAG", "PAG"]).flatmap(reading_cases))
    def test_fail_iff_violation(self, case):
        p, A, B = case
        failed = isinstance(sidp(p, A, B), FailCertificate)
        assert failed == (idf._anterior_violation(p, A, B) is not None
                          or idf._confounded_child(p, A, B) is not None)

    @settings(max_examples=400)
    @given(st.sampled_from(["MAG", "PAG"]).flatmap(reading_cases))
    def test_single_rule_implies_identified(self, case):
        p, A, B = case
        if calculus_check(p, 2, A, B) or calculus_check(p, 3, A, B):
            assert not isinstance(sidp(p, A, B), FailCertificate)

    @settings(max_examples=150)
    @given(reading_cases("MAG"))
    def test_mag_failures_carry_a_verified_hedge(self, case):
        m, A, B = case
        cert = sidp(m, A, B)
        if not isinstance(cert, FailCertificate):
            return
        mag, wit, h = hedge_witness(m, A, B, cert)
        assert mag == m and mag_of(wit) == m
        assert verify_hedge(wit, *_hedge_targets(wit, A, B), h)

    # an FCI PAG with an input's edge i0 --o v0 into a node with arrowheads
    INPUT_PAG = (
        "node i0 input\nnode v0 output\nnode v1 output\nnode v2 output\n"
        "node v3 output\nnode v4 output\n"
        "edge i0 --o v0\nedge i0 --o v1\nedge i0 --o v2\nedge i0 --o v3\n"
        "edge i0 --o v4\nedge v0 <-o v1\nedge v0 <-o v2\nedge v0 <-o v3\n"
        "edge v0 <-o v4\nedge v1 o-o v2\nedge v2 o-o v3\nedge v3 o-o v4\n"
        "edge v2 o-o v4\n"
    )

    @settings(max_examples=150)
    @given(reading_cases("PAG", max_out=6, n_in=(1, 2)))
    @example(case=(parse_graph(INPUT_PAG), ["v1"], ["v4"]))
    def test_pag_failures_carry_a_verified_hedge(self, case):
        # the hedge lives in a MAG of the PAG's class, oriented first
        p, A, B = case
        cert = sidp(p, A, B)
        if not isinstance(cert, FailCertificate):
            return
        mag, wit, h = hedge_witness(p, A, B, cert)
        assert fci(graph_oracle(canonical_isadmg(mag))) == p
        assert mag_of(wit) == mag
        assert verify_hedge(wit, *_hedge_targets(wit, A, B), h)

    @settings(max_examples=300)
    @given(st.one_of(reading_cases("MAG"),
                     reading_cases("PAG", max_out=6, n_in=(1, 2)),
                     mixed_cases()))
    def test_violations_agree_with_reference(self, case):
        # the violations are rules over the graph core's walk search; the
        # node search they replaced finds the same node lists, on the
        # graph and, for a PAG, on the MAG that hedge_witness orients
        p, A, B = case
        graphs = [p]
        if idf._reading(p, None)[1] is GraphClass.PAG:
            path = anterior_violation_reference(p, A, B)
            graphs.append(idf._orient_copag(
                p, protect=[path[0]] if path else sorted(B)))
        for g in graphs:
            assert idf._anterior_violation(g, A, B) == (
                anterior_violation_reference(g, A, B))
            assert idf._confounded_child(g, A, B) == (
                confounded_child_reference(g, A, B))

    @settings(max_examples=100)
    @given(reading_cases("MAG", max_out=5))
    def test_subset_search_agrees(self, case):
        # the exhaustive hedge search finds a hedge in the direct witness
        # of every FAIL, and none in any pooled witness of an identified
        # query
        m, A, B = case
        cert = sidp(m, A, B)
        if isinstance(cert, FailCertificate):
            _mag, wit, _h = hedge_witness(m, A, B, cert)
            assert _find_hedge(wit, *_hedge_targets(wit, A, B)) is not None
        else:
            for wit in _witness_pool(m):
                assert _find_hedge(wit, *_hedge_targets(wit, A, B)) is None


def _failed_hedge(case):
    """The MAG case's hedge from ``hedge_witness``, its witness and target
    pair, or None when sidp identifies the query."""
    m, A, B = case
    cert = sidp(m, A, B)
    if not isinstance(cert, FailCertificate):
        return None
    _mag, wit, h = hedge_witness(m, A, B, cert)
    return wit, h, *_hedge_targets(wit, A, B)


def _cforest_mutants(rng, g, nodes, edges, R):
    """Cases (graph, nodes, kept edges, R) made from a c-forest by one
    change each: a child cycle, a second directed edge out of a node, a
    bidirected edge dropped (which may split the district), an edge with
    an end outside the nodes, and a kept edge dropped."""
    out = []
    child = {e.a if e.mark_a is TAIL else e.b: e for e in edges
             if e.mark_a is not e.mark_b}
    into_r = sorted(v for v, e in child.items() if e.other(v) in R)
    if into_r:  # v --> r with r in R; r --> v closes a cycle
        v = rng.choice(into_r)
        r = child[v].other(v)
        back = Edge(r, TAIL, v, ARROW)
        out.append((g.edit(add=[back]), nodes, (*edges, back), R - {r}))
    v = rng.choice(sorted(nodes))
    others = sorted(w for w in nodes if w != v and not (
        v in child and child[v].other(v) == w))
    if others:
        extra = Edge(v, TAIL, rng.choice(others), ARROW)
        out.append((g.edit(add=[extra]), nodes, (*edges, extra), R))
    bi = [e for e in edges if e.mark_a is e.mark_b is ARROW]
    if bi:
        gone = rng.choice(bi)
        out.append((g, nodes, tuple(e for e in edges if e != gone), R))
    outside = sorted(e for e in g.edges if not {e.a, e.b} <= nodes)
    if outside:
        out.append((g, nodes, (*edges, rng.choice(outside)), R))
    if edges:
        gone = rng.choice(edges)
        out.append((g, nodes, tuple(e for e in edges if e != gone), R))
    return out


class TestCforests:
    """``_is_cforest`` reads a district and the way into R as two closures;
    ``verify_hedge`` reads R's way into A as the ancestors that do not
    expand B.  Both must agree with the bodies they replaced, kept in the
    helpers."""

    @settings(max_examples=400)
    @given(st.integers(0, 2**32))
    def test_random_sets_equal_the_reference(self, seed):
        rng = random.Random(seed)
        g = rand_isadmg(rng, n_out=rng.randint(2, 5), n_sel=rng.randint(0, 2),
                        n_lat=rng.randint(0, 2), n_in=rng.randint(0, 1),
                        p=rng.choice([0.3, 0.5, 0.7]))
        ids = list(g.node_ids)
        for _ in range(10):
            nodes = set(rng.sample(ids, rng.randint(0, len(ids))))
            R = set(rng.sample(sorted(nodes), rng.randint(0, len(nodes))))
            if rng.random() < 0.2:
                R.add(rng.choice(ids))
            inside = sorted(e for e in g.edges if {e.a, e.b} <= nodes)
            pool = inside if rng.random() < 0.8 else sorted(g.edges)
            edges = tuple(e for e in pool if rng.random() < 0.6)
            assert idf._is_cforest(g, nodes, edges, R) == (
                is_cforest_reference(g, nodes, edges, R))

    @settings(max_examples=150)
    @given(reading_cases("MAG", max_out=5), st.integers(0, 2**32))
    def test_hedge_forests_and_mutants_equal_the_reference(self, case, seed):
        found = _failed_hedge(case)
        if found is None:
            return
        wit, h, _A, _B = found
        rng = random.Random(seed)
        for nodes, edges in ((h.H, h.forest_edges),
                             (h.Hprime, h.forest_prime_edges)):
            assert idf._is_cforest(wit, nodes, edges, h.R)
            for c in _cforest_mutants(rng, wit, nodes, edges, h.R):
                assert idf._is_cforest(*c) == is_cforest_reference(*c), c

    @staticmethod
    def _both(g, A, B, h):
        return (_said(verify_hedge, _fresh(g), A, B, h),
                _said(verify_hedge_reference, _fresh(g), A, B, h))

    @settings(max_examples=150)
    @given(reading_cases("MAG", max_out=5), st.integers(0, 2**32))
    def test_verify_hedge_equals_the_reference(self, case, seed):
        # the hedge as found, for other outcomes and other treatments, and
        # in a graph with a latent target, an invalid ADMG or a
        # regime-node name
        found = _failed_hedge(case)
        if found is None:
            return
        wit, h, A, B = found
        rng = random.Random(seed)
        got, want = self._both(wit, A, B, h)
        assert got == want == "True"
        nodes = sorted(set(wit.node_ids) - B)
        for _ in range(3):
            A2 = set(rng.sample(nodes, rng.randint(1, min(3, len(nodes)))))
            B2 = B | set(rng.sample(nodes, rng.randint(0, min(2, len(nodes))))) - A
            for targets in ((A2, B), (A, B2), (A2, B2 - A2)):
                got, want = self._both(wit, *targets, h)
                assert got == want
        outs = sorted(wit.outputs)
        x, y = rng.sample(outs, 2)
        odd = [(wit.edit(kinds={"l9": LATENT}), A, B | {"l9"}),
               (wit.edit(add=[Edge(x, TAIL, y, TAIL)]), A, B),
               (wit.edit(kinds={"I__x": OUTPUT}), A, B)]
        for g, A2, B2 in odd:
            got, want = self._both(g, A2, B2, h)
            assert got == want and got[0] == "ValueError", got

    def test_r_reaches_a_only_through_b(self):
        # r --> b2 --> a: R is an ancestor of A, but not once B = {b1, b2}
        # is hard-manipulated
        g = parse_graph("node a output\nnode b1 output\nnode b2 output\n"
                        "node r output\nedge b1 --> r\nedge b1 <-> r\n"
                        "edge r --> b2\nedge b2 --> a\n")
        h = Hedge(H=frozenset({"b1", "r"}), Hprime=frozenset({"r"}),
                  R=frozenset({"r"}), forest_edges=(
                      Edge("b1", TAIL, "r", ARROW),
                      Edge("b1", ARROW, "r", ARROW)))
        assert verify_hedge(g, {"a"}, {"b1"}, h)
        assert not verify_hedge(g, {"a"}, {"b1", "b2"}, h)
        assert not verify_hedge_reference(g, {"a"}, {"b1", "b2"}, h)


class TestOrientation:
    """A PAG's circle marks are oriented into a MAG of its class, one rule
    per circle mark.  Where the rule it replaced
    (``helpers.orient_copag_reference``) gives a MAG, the graph is the same,
    in the same edge order; where that rule fails, it is a MAG whose
    canonical represented graph gives back the PAG under FCI."""

    @settings(max_examples=150)
    @given(reading_cases("PAG", max_out=6, n_in=(0, 2)))
    def test_agrees_with_reference(self, case):
        p, _A, _B = case
        for protect in [()] + [(v,) for v in p.node_ids]:
            m = idf._orient_copag(p, protect)
            try:
                ref = orient_copag_reference(p, protect)
            except ValueError:
                assert not graph_mod.validate(m, GraphClass.MAG)
                assert fci(graph_oracle(canonical_isadmg(m))) == p
            else:
                assert m == ref and list(m.edges) == list(ref.edges)


@st.composite
def reference_cases(draw):
    """A random model over 3-5 outputs, with at most one input node, read
    as its MAG, as the FCI PAG of its independence model (both with at most
    one selection node), or without selection as an ADMG, half of those
    with the front-door gadget laid over three outputs; with disjoint A and
    B of one or two outputs each (for the gadget A = {x}, B = {z})."""
    rng = random.Random(draw(st.integers(0, 2**32)))
    kind = draw(st.sampled_from(["MAG", "PAG", "ADMG"]))
    g = rand_isadmg(
        rng,
        n_out=draw(st.integers(3, 5)),
        n_sel=0 if kind == "ADMG" else draw(st.integers(0, 1)),
        n_lat=0,
        n_in=draw(st.integers(0, 1)),
        p=draw(st.sampled_from([0.3, 0.5, 0.7])),
    )
    if kind == "ADMG":
        # confounding alongside some directed edges, so bows occur
        g = g.edit(add=[Edge(e.a, ARROW, e.b, ARROW) for e in g.edges
                        if (e.mark_a, e.mark_b) == (TAIL, ARROW)
                        and g.kind(e.a) is OUTPUT and rng.random() < 0.5])
        if draw(st.booleans()):
            g, x, z = embed_front_door(rng, g)
            return g, ADMG, [x], [z], oc.random_scm(g, rng)
        return g, ADMG, *_query(draw, g), oc.random_scm(g, rng)
    p = mag_of(g) if kind == "MAG" else fci(graph_oracle(g))
    return p, None, *_query(draw, p), oc.random_scm(g, rng)


class TestRegionRecursionReference:
    """sidp fixes first and splits only when stuck; the reference splits
    first and fixes every leaf down from all outputs
    (``helpers.sidp_reference``).  Both FAIL on the same queries with the
    same C and T, and their estimands evaluate alike."""

    @settings(max_examples=300)
    @given(reference_cases())
    def test_same_answers(self, case):
        p, cls, A, B, scm = case
        new, old = sidp(p, A, B, cls), sidp_reference(p, A, B, cls)
        assert isinstance(new, FailCertificate) == isinstance(
            old, FailCertificate)
        if isinstance(new, FailCertificate):
            assert (new.C, new.T) == (old.C, old.T)
            return
        # evaluated without the model, so every leaf must be Q[V]
        qv = oc.observational_kernel(scm)
        want = oc.interventional_kernel(scm, B, outputs=A)
        got = oc.eval_estimand(new, qv)
        assert oc.kernels_agree(got, want)
        assert oc.kernels_agree(got, oc.eval_estimand(old, qv))

    @settings(max_examples=300)
    @given(reference_cases(), st.data())
    def test_scidp_prints_as_the_reference(self, case, data):
        # scidp checks each calculus rule through one helper; the
        # reference writes every check out as its own separation query
        p, cls, A, B, _scm = case
        rest = [v for v in sorted(p.outputs) if v not in A + B]
        C = [v for v in rest if data.draw(st.booleans())]

        def text(res):
            if isinstance(res, (FailCertificate, ExchangeFail)):
                return str(res)
            return format_estimand(res)

        assert text(scidp(p, A, B, C, cls)) == text(
            scidp_reference(p, A, B, C, cls))


class TestValidationCache:
    def test_each_class_is_validated_once_per_graph(self, monkeypatch):
        g = backdoor()
        seen = []
        real = graph_mod._directed_cycle

        def counted(h):
            seen.append(h)
            return real(h)

        monkeypatch.setattr(graph_mod, "_directed_cycle", counted)
        for _ in range(3):
            sidp(g, ["b"], ["a"])
            scidp(g, ["b"], ["a"], ["c"])
            calculus_check(g, 2, ["b"], ["a"], ["c"])
        # only the MAG reading is ever asked of g
        assert sum(h is g for h in seen) == 1


class TestSerialization:
    def test_round_trip_all_nodes(self):
        q = Base(frozenset("abcd"))
        est = Marginalize(
            Condition(
                BoxProduct(
                    OrderedProduct(
                        (Marginalize(q, frozenset("d")),)
                    ),
                    Marginalize(q, frozenset("abc")),
                    frozenset("abcd"),
                    (("a",), ("b", "c"), ("d",)),
                ),
                ("a",),
            ),
            frozenset("b"),
        )
        text = format_estimand(est)
        assert parse_estimand(text) == est

    def test_compose_round_trip(self):
        q = Base(frozenset("ab"))
        est = Compose(Condition(q, ("a",)), Marginalize(q, frozenset("b")),
                      ("a",))
        assert parse_estimand(format_estimand(est)) == est

    def test_certificate_round_trip(self):
        cert = FailCertificate(frozenset({"a"}), frozenset({"a", "b"}))
        assert parse_certificate(str(cert)) == cert
        assert parse_estimand(str(cert)) == cert

    def test_exchange_failure_round_trip(self):
        fail = ExchangeFail(frozenset({"c"}), frozenset({"a", "b"}),
                            frozenset())
        assert str(fail) == "FAIL exchange bucket={c} B={a,b} C={}"
        assert parse_certificate(str(fail)) == fail
        assert parse_estimand(str(fail)) == fail
        for bad in ("FAIL exchange bucket={c} B={a,b}",
                    "FAIL exchange bucket={c} B={a} T={b}"):
            with pytest.raises(ValueError):
                parse_estimand(bad)

    def test_deep_compose_chain(self):
        # a compose chain deeper than the recursion limit: its outputs are
        # read at construction, not by recursion
        text = "(Q (a b))"
        for _ in range(3000):
            text = f"(compose () {text} (marg (a b) (Q (a b))))"
        est = parse_estimand(f"(marg () {text})")
        assert est.outputs == frozenset("ab")
        assert parse_estimand(format_estimand(est)) == est

    def test_parse_rejects_garbage(self):
        with pytest.raises(ValueError):
            parse_estimand("(Q (a)) trailing")
        with pytest.raises(ValueError):
            parse_estimand("(huh (a))")
        with pytest.raises(ValueError):
            parse_certificate("FAIL C={a} X={b}")

    def test_algorithm_outputs_round_trip(self):
        for res in (
            sidp(backdoor(), ["b"], ["a"], ADMG),
            sidp(cycle4(), ["a"], ["b"]),
            scidp(cycle4(), ["a"], ["b"], ["c1", "c2"]),
        ):
            if isinstance(res, FailCertificate):
                assert parse_estimand(str(res)) == FailCertificate(
                    res.C, res.T
                )
            else:
                assert parse_estimand(format_estimand(res)) == res


class TestKernelAttachment:
    def test_leaf_estimand_structure(self):
        g = parse_graph(CHAIN)
        est = _identified({"a"}, g, dv=True)
        assert est.outputs == frozenset({"a"})
        # fixing proceeds leafward: last bucket removed first
        assert isinstance(est, OrderedProduct)

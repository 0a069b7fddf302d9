"""Estimands as shared DAGs: printing, parsing and evaluation.

Each fixing step of ``sidp`` puts the estimand built so far into both of
its arms, so estimands share subterms and grow as 2^(fixing steps) when
walked as trees.  These tests check that the ``let`` form prints shared
subterms once and reads back to the same estimand, that sizes stay small
on chain, star and collider families, and that evaluation of the shared
form matches the exact interventional kernel, and that equality and
hashing of estimands visit each shared subterm once.
"""

import random
import time

import pytest
from hypothesis import given, settings, strategies as st

from pagid import oracle as oc
from pagid.graph import GraphClass, parse_graph
from pagid.identify import (
    ExchangeFail,
    FailCertificate,
    format_estimand,
    parse_estimand,
    sidp,
)

ADMG, MAG = GraphClass.ADMG, GraphClass.MAG


def dag(n, edges):
    return parse_graph(
        "".join(f"node v{i} output\n" for i in range(n))
        + "".join(f"edge v{a} --> v{b}\n" for a, b in edges)
    )


def chain(n):
    return dag(n, [(i, i + 1) for i in range(n - 1)])


def star(n):
    return dag(n, [(0, i) for i in range(1, n)])


def collider(n):
    return dag(n, [(i, 1) for i in range(n) if i != 1])


def assert_round_trip(est, scm):
    """The printed form reads back to an estimand that prints the same and
    evaluates to the same kernel."""
    text = format_estimand(est)
    back = parse_estimand(text)
    assert format_estimand(back) == text
    assert back == est and hash(back) == hash(est)
    qv = oc.observational_kernel(scm)
    assert oc.eval_estimand(back, qv, scm) == oc.eval_estimand(est, qv, scm)


@st.composite
def small_admgs(draw):
    """An ADMG over 2-5 outputs whose directed edges follow the node order,
    with a target and an intervened node."""
    n = draw(st.integers(2, 5))
    lines = [f"node v{i} output\n" for i in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            mark = draw(st.sampled_from([None, "-->", "<->"]))
            if mark:
                lines.append(f"edge v{i} {mark} v{j}\n")
    a, b = draw(st.lists(st.integers(0, n - 1), min_size=2, max_size=2,
                         unique=True))
    return parse_graph("".join(lines)), f"v{a}", f"v{b}"


class TestRoundTrip:
    @settings(max_examples=60)
    @given(small_admgs(), st.sampled_from([None, ADMG]), st.integers(0, 2**16))
    def test_random_graphs(self, case, cls, seed):
        g, a, b = case
        est = sidp(g, [a], [b], cls)
        if isinstance(est, (FailCertificate, ExchangeFail)):
            return
        assert_round_trip(est, oc.random_scm(g, random.Random(seed)))

    @settings(max_examples=10)
    @given(st.integers(2, 8), st.integers(0, 2**16))
    def test_chain_prefixes(self, n, seed):
        g = chain(n)
        assert_round_trip(sidp(g, ["v1"], ["v0"], ADMG),
                          oc.random_scm(g, random.Random(seed)))


class TestScaling:
    @pytest.mark.parametrize("family", [chain, star, collider])
    @pytest.mark.parametrize("cls", [ADMG, MAG])
    def test_printed_size_at_24(self, family, cls):
        text = format_estimand(sidp(family(24), ["v1"], ["v0"], cls))
        assert len(text) <= 64 * 1024

    @pytest.mark.parametrize("family, a", [(chain, "v79"), (collider, "v1")])
    def test_size_and_time_at_80(self, family, a):
        # fixing every leaf down from all outputs again printed 1.36 MB in
        # 3.5 s for the chain; fixing first, each bucket is fixed once
        g = family(80)
        start = time.perf_counter()
        text = format_estimand(sidp(g, [a], ["v0"], ADMG))
        assert time.perf_counter() - start < 1.0
        assert len(text) <= 4 * 1024

    def test_chain_20_compares_and_hashes_in_linear_time(self):
        # equality and hashing that walked shared subterms as a tree took
        # 0.145 s at n=16 and doubled per node
        est = sidp(chain(20), ["v1"], ["v0"], ADMG)
        start = time.perf_counter()
        assert parse_estimand(format_estimand(est)) == est
        hash(est)
        assert time.perf_counter() - start < 0.5

    def test_chain_10_evaluates_to_the_interventional_kernel(self):
        g = chain(10)
        scm = oc.random_scm(g, random.Random(10))
        est = sidp(g, ["v1"], ["v0"], ADMG)
        got = oc.eval_estimand(est, oc.observational_kernel(scm), scm)
        want = oc.interventional_kernel(scm, ["v0"], outputs=["v1"])
        assert oc.kernels_agree(got, want)


# The n=4 ADMG chain estimand as printed before shared subterms were bound.
CHAIN4_TREE = (
    "(prod (cond (v1 v3) (prod (cond (v1 v2) (prod (cond (v0) "
    "(Q (v0 v1 v2 v3))) (marg (v0 v1 v2 v3) (Q (v0 v1 v2 v3))))) "
    "(marg (v2 v3) (prod (cond (v0) (Q (v0 v1 v2 v3))) "
    "(marg (v0 v1 v2 v3) (Q (v0 v1 v2 v3))))))) "
    "(marg (v3) (prod (cond (v1 v2) (prod (cond (v0) (Q (v0 v1 v2 v3))) "
    "(marg (v0 v1 v2 v3) (Q (v0 v1 v2 v3))))) "
    "(marg (v2 v3) (prod (cond (v0) (Q (v0 v1 v2 v3))) "
    "(marg (v0 v1 v2 v3) (Q (v0 v1 v2 v3))))))))"
)


class TestLetForm:
    def test_tree_form_still_parses(self):
        g = chain(4)
        est = sidp(g, ["v1"], ["v0"], ADMG)
        old = parse_estimand(CHAIN4_TREE)
        # a tree shares nothing, so it prints back as the same tree
        assert format_estimand(old) == CHAIN4_TREE
        scm = oc.random_scm(g, random.Random(4))
        qv = oc.observational_kernel(scm)
        assert oc.eval_estimand(old, qv, scm) == oc.eval_estimand(est, qv, scm)

    def test_shared_subterms_print_once(self):
        text = format_estimand(sidp(chain(4), ["v1"], ["v0"], ADMG))
        assert text == (
            "(let ((%0 (prod (cond (v0) (Q (v0 v1 v2 v3)))"
            " (marg (v0 v1 v2 v3) (Q (v0 v1 v2 v3)))))"
            " (%1 (prod (cond (v1 v2) %0) (marg (v2 v3) %0))))"
            " (prod (cond (v1 v3) %1) (marg (v3) %1)))"
        )
        est = parse_estimand(text)
        assert est.children[0].child is est.children[1].child

    def test_equality_is_structural(self):
        text = format_estimand(sidp(chain(6), ["v1"], ["v0"], ADMG))
        est, other = parse_estimand(text), parse_estimand(text)
        assert est is not other and est == other
        # the same estimand printed as a tree shares nothing, yet is equal
        tree = parse_estimand(format_estimand(parse_estimand(CHAIN4_TREE)))
        assert tree == parse_estimand(
            format_estimand(sidp(chain(4), ["v1"], ["v0"], ADMG)))
        # a change at the bottom of the shared DAG makes it unequal
        changed = parse_estimand(text.replace("(Q (v0 v1 v2 v3 v4 v5))",
                                              "(Q (v0 v1 v2 v3 v4 v5 v6))"))
        assert changed != est

    def test_rejects_bad_bindings(self):
        for text in (
            "(marg (a) %0)",
            "(let ((x (Q (a b)))) (marg (a) x))",
            "(let ((%0 (Q (a b))) (%0 (Q (a b)))) (marg (a) %0))",
            "(let ((%0 (Q (a b)))",
        ):
            with pytest.raises(ValueError):
                parse_estimand(text)

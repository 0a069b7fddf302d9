"""Tests for the exact discrete model engine: model validation, kernel
algebra, interventional and selected distributions, independence testing,
estimand evaluation, and serialization."""

import itertools
import math
import random
from fractions import Fraction
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from pagid.graph import GraphClass, Mark, NodeKind, parse_graph
from pagid.separate import d_separated
from pagid import identify as idf
from pagid import oracle as oc
from pagid.fci import distribution_oracle
from pagid.oracle import (
    DiscreteSCM,
    Kernel,
    ScmError,
    c_factor,
    ci_test,
    eval_estimand,
    format_kernel,
    format_scm,
    graph_of,
    interventional_kernel,
    kernel_compose,
    kernel_product,
    kernels_agree,
    observational_kernel,
    parse_scm,
    random_scm,
    _joint_full,
    _joint_ve,
)
from helpers import (
    ReferenceDistributionOracle,
    ci_test_reference,
    interventional_kernel_reference,
    rand_isadmg,
)

CHAIN_SCM = """
var a
var b parents=a
var c parents=b
cpt a - 1/2 1/2
cpt b 0 3/4 1/4
cpt b 1 1/4 3/4
cpt c 0 2/3 1/3
cpt c 1 1/3 2/3
"""

COLLIDER_SEL = """
var a
var b
var s kind=selection parents=a,b
cpt a - 1/2 1/2
cpt b - 1/2 1/2
cpt s 0,0 1 0
cpt s 0,1 1/2 1/2
cpt s 1,0 1/2 1/2
cpt s 1,1 0 1
"""


def chain():
    return parse_scm(CHAIN_SCM)


class TestScmValidation:
    def test_parse_round_trip(self):
        scm = chain()
        assert parse_scm(format_scm(scm)) == scm

    def test_parse_errors(self):
        with pytest.raises(ScmError):
            parse_scm("var a\nvar a\ncpt a - 1/2 1/2\n")
        with pytest.raises(ScmError):
            parse_scm("var a kind=weird\ncpt a - 1/2 1/2\n")
        with pytest.raises(ScmError):
            parse_scm("cpt a - 1/2 1/2\n")
        with pytest.raises(ScmError):
            parse_scm("frobnicate a\n")
        with pytest.raises(ScmError):
            parse_scm("var a\n")  # no table

    def test_row_must_sum_to_one(self):
        with pytest.raises(ScmError):
            parse_scm("var a\ncpt a - 1/2 1/3\n")

    def test_table_must_cover_parent_domain(self):
        with pytest.raises(ScmError):
            parse_scm(
                "var a\nvar b parents=a\ncpt a - 1/2 1/2\ncpt b 0 1 0\n"
            )

    def test_cyclic_parents_rejected(self):
        with pytest.raises(ScmError):
            parse_scm(
                "var a parents=b\nvar b parents=a\n"
                "cpt a 0 1 0\ncpt a 1 0 1\ncpt b 0 1 0\ncpt b 1 0 1\n"
            )

    def test_three_cycle_rejected(self):
        with pytest.raises(ScmError, match="cyclic parent relation"):
            parse_scm(
                "var a parents=c\nvar b parents=a\nvar c parents=b\n"
                + "".join(f"cpt {v} {x} 1 0\n" for v in "abc" for x in "01")
            )

    def test_deep_chain_does_not_recurse(self):
        # v0000 <- v0001 <- ... <- v1199: the sink sorts first
        n = 1200
        lines = ["var v%04d" % (n - 1), "cpt v%04d - 1/2 1/2" % (n - 1)]
        for i in range(n - 1):
            lines += ["var v%04d parents=v%04d" % (i, i + 1),
                      "cpt v%04d 0 1/3 2/3" % i, "cpt v%04d 1 2/3 1/3" % i]
        scm = parse_scm("\n".join(lines) + "\n")
        assert len(scm.domains) == n

    def test_integer_tables_stay_out_of_equality(self):
        scm = chain()
        assert scm.weights["b"] == {(0,): (3, 1), (1,): (1, 3)}
        assert "weights" not in repr(scm)
        assert scm == parse_scm(format_scm(scm))

    def test_selection_children_rejected(self):
        with pytest.raises(ScmError):
            parse_scm(
                "var s kind=selection\nvar a parents=s\n"
                "cpt s - 1/2 1/2\ncpt a 0 1 0\ncpt a 1 0 1\n"
            )

    def test_input_has_no_table(self):
        with pytest.raises(ScmError):
            parse_scm("var i kind=input\ncpt i - 1/2 1/2\n")

    def test_latent_must_be_exogenous(self):
        with pytest.raises(ScmError):
            parse_scm(
                "var a\nvar l kind=latent parents=a\n"
                "cpt a - 1/2 1/2\ncpt l 0 1 0\ncpt l 1 0 1\n"
            )


class TestGraphOf:
    def test_chain(self):
        g = graph_of(chain())
        assert g == parse_graph(
            "node a output\nnode b output\nnode c output\n"
            "edge a --> b\nedge b --> c\n"
        )

    def test_shared_latent_becomes_bidirected(self):
        scm = parse_scm(
            "var l kind=latent\nvar a parents=l\nvar b parents=l\n"
            "cpt l - 1/2 1/2\ncpt a 0 1 0\ncpt a 1 0 1\n"
            "cpt b 0 1 0\ncpt b 1 0 1\n"
        )
        g = graph_of(scm)
        assert "l" not in g.node_ids
        e = list(g.edges_between("a", "b"))
        assert len(e) == 1
        assert (e[0].mark_a, e[0].mark_b) == (Mark.ARROW, Mark.ARROW)


class TestKernelAlgebra:
    def setup_method(self):
        self.qv = observational_kernel(chain())

    def test_marginalize_removes_outputs(self):
        m = self.qv.marginalize({"b"})
        assert m.outputs == ("a", "c")
        assert sum(m.table[()].values()) == 1

    def test_condition_moves_to_context(self):
        c = self.qv.condition(("a",))
        assert c.context == ("a",)
        assert set(c.outputs) == {"b", "c"}
        # and matches the elementary definition of conditioning
        for a in (0, 1):
            for b in (0, 1):
                num = self.qv.marginalize({"c"}).value({"a": a, "b": b})
                den = self.qv.marginalize({"b", "c"}).value({"a": a})
                got = c.marginalize({"c"}).value({"a": a, "b": b})
                assert got == num / den

    def test_condition_then_product_recovers_joint(self):
        c = self.qv.condition(("a",))
        m = self.qv.marginalize({"b", "c"})
        joint = kernel_product([m, c], self.qv.domains)
        assert joint == self.qv

    def test_zero_row_handling(self):
        k = Kernel((), ("a", "b"), {"a": 2, "b": 2},
                   {(): {(0, 0): Fraction(1, 2), (1, 1): Fraction(1, 2)}})
        # both rows supported: conditioning is fine
        assert k.condition(("a",)).value({"a": 1, "b": 1}) == 1
        with pytest.raises(ScmError):
            Kernel((), ("a", "b"), {"a": 2, "b": 2},
                   {(): {(0, 0): Fraction(1)}}).condition(("a",))
        u = Kernel((), ("a", "b"), {"a": 2, "b": 2},
                   {(): {(0, 0): Fraction(1)}}).condition(
                       ("a",), zero_rows="uniform")
        assert u.value({"a": 1, "b": 0}) == Fraction(1, 2)

    def test_equality_ignores_variable_order(self):
        k1 = self.qv.condition(("a",))
        k2 = observational_kernel(chain()).condition(("a",))
        assert k1 == k2
        assert k1 != self.qv

    def test_equal_kernels_hash_alike(self):
        # the same kernel of c given a and b, with the context listed in
        # either order
        dom = {"a": 2, "b": 2, "c": 2}
        p = {(0, 0): 1, (0, 1): 2, (1, 0): 3, (1, 1): 4}
        rows = {
            ctx: {(1,): Fraction(n, 5), (0,): Fraction(5 - n, 5)}
            for ctx, n in p.items()
        }
        k1 = Kernel(("a", "b"), ("c",), dom, rows)
        k2 = Kernel(("b", "a"), ("c",), dom,
                    {(b, a): row for (a, b), row in rows.items()})
        assert k1 == k2 and hash(k1) == hash(k2)
        assert len({k1, k2}) == 1

    def test_agreement_allows_unused_extra_context(self):
        dom = {"a": 2, "b": 2}
        half = {(0,): Fraction(1, 2), (1,): Fraction(1, 2)}
        want = Kernel((), ("b",), dom, {(): half})
        got = Kernel(("a",), ("b",), dom, {(0,): half, (1,): half})
        assert kernels_agree(got, want)
        assert not kernels_agree(want, got)
        assert got != want
        skewed = Kernel(("a",), ("b",), dom, {
            (0,): half, (1,): {(0,): Fraction(1, 4), (1,): Fraction(3, 4)},
        })
        assert not kernels_agree(skewed, want)

    def test_check_rejects_bad_tables(self):
        with pytest.raises(ScmError):
            Kernel((), ("a",), {"a": 2},
                   {(): {(0,): Fraction(1, 2)}}).check()
        with pytest.raises(ScmError):
            Kernel(("b",), ("a",), {"a": 2, "b": 2},
                   {(0,): {(0,): Fraction(1)}}).check()

    def test_product_rejects_repeated_outputs(self):
        with pytest.raises(ScmError):
            kernel_product([self.qv, self.qv], self.qv.domains)

    def test_compose_sums_shared_variables(self):
        c = self.qv.condition(("a",)).marginalize({"c"})
        m = self.qv.marginalize({"b", "c"})
        got = kernel_compose(c, m, ("a",), self.qv.domains)
        assert got == self.qv.marginalize({"a", "c"})


class TestInterventions:
    def test_chain_do_matches_conditioning(self):
        scm = chain()
        k = interventional_kernel(scm, ["b"], outputs=["c"])
        want = observational_kernel(scm).marginalize({"a"}).condition(("b",))
        assert k == want

    def test_do_breaks_upstream_dependence(self):
        scm = chain()
        k = interventional_kernel(scm, ["b"], outputs=["a"])
        assert k.value({"b": 0, "a": 1}) == k.value({"b": 1, "a": 1})

    def test_intervene_only_on_outputs(self):
        scm = parse_scm(
            "var i kind=input\nvar a parents=i\ncpt a 0 1 0\ncpt a 1 0 1\n"
        )
        with pytest.raises(ScmError):
            interventional_kernel(scm, ["i"])
        k = observational_kernel(scm)
        assert k.context == ("i",)
        assert k.value({"i": 1, "a": 1}) == 1

    def test_selection_induces_collider_dependence(self):
        scm = parse_scm(COLLIDER_SEL)
        qv = observational_kernel(scm)
        assert not ci_test(qv, ["a"], ["b"])
        # without the selection event the causes are independent
        raw = interventional_kernel(scm, (), condition_selection=False)
        assert ci_test(raw, ["a"], ["b"])

    def test_impossible_selection_event(self):
        scm = parse_scm(
            "var a\nvar s kind=selection parents=a\n"
            "cpt a - 1 0\ncpt s 0 1 0\ncpt s 1 0 1\n"
        )
        with pytest.raises(ScmError):
            observational_kernel(scm)

    def test_c_factor_of_single_node(self):
        scm = chain()
        q = c_factor(scm, ["b"])
        # fixing everything else leaves the local mechanism of b
        assert q.value({"a": 0, "c": 0, "b": 0}) == Fraction(3, 4)
        assert q.value({"a": 1, "c": 1, "b": 0}) == Fraction(1, 4)


class TestCiTest:
    def test_fork_screens_off(self):
        scm = parse_scm(
            "var a\nvar b parents=a\nvar c parents=a\n"
            "cpt a - 1/2 1/2\ncpt b 0 3/4 1/4\ncpt b 1 1/4 3/4\n"
            "cpt c 0 1/5 4/5\ncpt c 1 4/5 1/5\n"
        )
        qv = observational_kernel(scm)
        assert ci_test(qv, ["b"], ["c"], ["a"])
        assert not ci_test(qv, ["b"], ["c"])

    def test_rejects_unknown_variables(self):
        qv = observational_kernel(chain())
        with pytest.raises(ScmError):
            ci_test(qv, ["z"], ["a"])

    def test_agrees_with_separation_on_random_models(self):
        rng = random.Random(5)
        for trial in range(25):
            g = rand_isadmg(rng, n_out=rng.randint(3, 4), n_sel=0,
                            n_lat=0, n_in=0, p=0.5)
            scm = random_scm(g, random.Random(trial))
            qv = observational_kernel(scm)
            outs = sorted(g.outputs)
            for _ in range(4):
                a, b = rng.sample(outs, 2)
                cs = [v for v in outs if v not in (a, b) and rng.random() < 0.5]
                if d_separated(g, [a], [b], cs):
                    assert ci_test(qv, [a], [b], cs), (g, a, b, cs)


class TestEvalEstimand:
    def test_marginal_and_condition(self):
        scm = chain()
        qv = observational_kernel(scm)
        V = frozenset(qv.outputs)
        e = idf.Condition(idf.Marginalize(idf.Base(V), frozenset("a")), ("b",))
        assert eval_estimand(e, qv) == qv.marginalize({"a"}).condition(("b",))

    def test_base_leaves_need_a_model(self):
        qv = observational_kernel(chain())
        e = idf.Base(frozenset("ab"))
        with pytest.raises(ScmError):
            eval_estimand(e, qv)
        got = eval_estimand(e, qv, chain())
        assert got == c_factor(chain(), ["a", "b"])

    def test_zero_rows_flag_reaches_conditioning(self):
        k = Kernel((), ("a", "b"), {"a": 2, "b": 2},
                   {(): {(0, 0): Fraction(1)}})
        e = idf.Condition(idf.Base(frozenset("ab")), ("a",))
        with pytest.raises(ScmError):
            eval_estimand(e, k)
        got = eval_estimand(e, k, zero_rows="uniform")
        assert got.value({"a": 1, "b": 1}) == Fraction(1, 2)


class TestRandomScm:
    def test_reproducible(self):
        g = graph_of(chain())
        s1 = random_scm(g, random.Random(7))
        s2 = random_scm(g, random.Random(7))
        assert s1 == s2
        assert s1 != random_scm(g, random.Random(8))

    def test_positivity_floor(self):
        g = graph_of(chain())
        scm = random_scm(g, random.Random(3), domain=4)
        for rows in scm.cpts.values():
            for row in rows.values():
                assert min(row) >= Fraction(1, 64)

    def test_graph_round_trip(self):
        rng = random.Random(11)
        for trial in range(20):
            g = rand_isadmg(rng, n_out=3, n_sel=1, n_lat=0,
                            n_in=1, p=0.5)
            scm = random_scm(g, random.Random(trial))
            assert graph_of(scm) == g

    def test_without_positivity_zeros_allowed(self):
        g = graph_of(chain())
        scm = random_scm(g, random.Random(0), positivity=False)
        for rows in scm.cpts.values():
            for row in rows.values():
                assert sum(row) == 1


class TestComputationPaths:
    def test_enumeration_and_elimination_agree(self):
        rng = random.Random(21)
        for trial in range(10):
            g = rand_isadmg(rng, n_out=4, n_sel=1, n_lat=0, n_in=1, p=0.5)
            scm = random_scm(g, random.Random(trial))
            names = tuple(
                v for v in sorted(scm.domains)
                if scm.kinds[v] is not NodeKind.INPUT
            )
            keep = names[:2]
            for ival in (0, 1):
                ctx = {i: ival for i in scm.inputs}
                full = _joint_full(scm, ctx, {}, names)
                agg = {}
                idx = [names.index(v) for v in keep]
                for vals, p in full.items():
                    key = tuple(vals[i] for i in idx)
                    agg[key] = agg.get(key, 0) + p
                ve = _joint_ve(scm, ctx, {}, names, keep)
                assert {k: v for k, v in agg.items() if v} == ve


class TestFormatKernel:
    def test_covers_every_cell(self):
        qv = observational_kernel(chain()).condition(("a",))
        text = format_kernel(qv)
        lines = text.strip().split("\n")
        assert lines[0].split("\t") == ["a", "b", "c", "p"]
        assert len(lines) == 1 + 2 * 4
        total = sum(Fraction(l.split("\t")[-1]) for l in lines[1:])
        assert total == 2


@st.composite
def random_models(draw):
    """Random SCMs with selection and input nodes, domain 2-3 and zero
    table entries."""
    seed = draw(st.integers(0, 10**6))
    rng = random.Random(seed)
    g = rand_isadmg(rng, n_out=draw(st.integers(2, 4)),
                    n_sel=draw(st.integers(0, 1)), n_lat=0,
                    n_in=draw(st.integers(0, 1)), p=0.6)
    return random_scm(g, rng, domain=draw(st.integers(2, 3)),
                      positivity=False)


def _same_kernel(got, want):
    return (got.context, got.outputs, got.table) == (
        want.context, want.outputs, want.table)


class TestIntegerPaths:
    """The integer weights give exactly the Fraction references' values."""

    @settings(max_examples=80)
    @given(random_models(), st.data())
    def test_kernels_match_the_reference(self, scm, data):
        outs = list(scm.outputs)
        do = data.draw(st.lists(st.sampled_from(outs), unique=True,
                                max_size=len(outs) - 1))
        rest = [v for v in outs if v not in do]
        keep = data.draw(st.lists(st.sampled_from(rest), unique=True,
                                  min_size=1))
        cond = data.draw(st.booleans())
        for limit in (oc.FULL_JOINT_LIMIT, 0):  # enumeration, elimination
            with mock.patch.object(oc, "FULL_JOINT_LIMIT", limit):
                try:
                    want = interventional_kernel_reference(scm, do, keep, cond)
                except ScmError:
                    with pytest.raises(ScmError):
                        interventional_kernel(scm, do, cond, keep)
                    continue
                got = interventional_kernel(scm, do, cond, keep)
                assert _same_kernel(got, want)
                assert format_kernel(got) == format_kernel(want)

    @settings(max_examples=80)
    @given(random_models(), st.data())
    def test_ci_test_matches_the_reference(self, scm, data):
        try:
            qv = observational_kernel(scm)
        except ScmError:
            return
        outs = list(qv.outputs)
        sets = st.lists(st.sampled_from(outs), unique=True, min_size=1)
        for _ in range(6):
            A, B = data.draw(sets), data.draw(sets)
            C = data.draw(st.lists(st.sampled_from(outs), unique=True))
            assert ci_test(qv, A, B, C) == ci_test_reference(qv, A, B, C)

    @settings(max_examples=80)
    @given(random_models(), st.data())
    def test_oracle_queries_match_the_reference(self, scm, data):
        try:
            want = ReferenceDistributionOracle(scm)
        except ScmError:
            with pytest.raises(ScmError):
                distribution_oracle(scm)
            return
        got = distribution_oracle(scm)
        assert _same_kernel(got.kernel, want.kernel)
        names = list(got.inputs + got.outputs)
        for _ in range(6):
            a = data.draw(st.sampled_from(names))
            b = data.draw(st.sampled_from([v for v in names if v != a]))
            C = data.draw(st.lists(st.sampled_from(got.outputs), unique=True))
            try:
                expect = want.query({a}, {b}, C)
            except ValueError:
                with pytest.raises(ValueError):
                    got.query({a}, {b}, C)
                continue
            assert got.query({a}, {b}, C) == expect, (a, b, C)

    def test_zero_cells_break_independence(self):
        # P(a,b) = 0 in one cell while both margins are positive
        k = Kernel((), ("a", "b"), {"a": 2, "b": 2},
                   {(): {(0, 0): Fraction(1, 2), (1, 1): Fraction(1, 2)}})
        assert not ci_test(k, ["a"], ["b"])
        assert not ci_test_reference(k, ["a"], ["b"])


class TestMarginCache:
    """CI queries read integer margins kept on the kernel."""

    def test_each_row_is_scaled_once(self):
        rng = random.Random(5)
        g = rand_isadmg(rng, n_out=5, n_sel=1, n_in=2, p=0.5)
        orc = distribution_oracle(random_scm(g, rng, domain=2))
        names = orc.inputs + orc.outputs
        queries = rng.sample([
            ({a}, {b}, C)
            for a, b in itertools.combinations(names, 2)
            if b in orc.outputs
            for n in range(3)
            for C in itertools.combinations(
                [v for v in orc.outputs if v not in (a, b)], n)
        ], 50)
        # CI tests and input-invariance queries alike
        assert {bool(A & set(orc.inputs)) for A, _, _ in queries} == {
            True, False}
        with mock.patch.object(oc.math, "lcm", wraps=math.lcm) as lcm:
            for q in queries:
                orc.query(*q)
        assert lcm.call_count == len(orc.kernel.table) > 1

    @settings(max_examples=80)
    @given(random_models(), st.data())
    def test_any_query_order_matches_the_reference(self, scm, data):
        # each query reads the margin over a variable set: a new set, or
        # an earlier one, a subset or a superset of it, split afresh into
        # A, B and C or into an input's target and conditioning set
        try:
            want = ReferenceDistributionOracle(scm)
        except ScmError:
            return
        got = distribution_oracle(scm)
        outs = list(got.outputs)
        asked = []
        for _ in range(10):
            U = data.draw(st.lists(st.sampled_from(outs), unique=True,
                                   min_size=1))
            if asked and data.draw(st.booleans()):
                U = data.draw(st.sampled_from(asked))
                U = data.draw(st.sampled_from(
                    [U, U[:-1], U + [v for v in outs if v not in U][:1]]))
            asked.append(U)
            U = data.draw(st.permutations(U))
            if got.inputs and data.draw(st.booleans()):
                a = data.draw(st.sampled_from(got.inputs))
                A, B, C = {a}, set(U[:1]), U[1:]
            elif len(U) >= 2:
                i = data.draw(st.integers(1, len(U) - 1))
                j = data.draw(st.integers(i + 1, len(U)))
                A, B, C = set(U[:i]), set(U[i:j]), U[j:]
            else:
                continue
            assert got.query(A, B, C) == want.query(A, B, C), (A, B, C)

    def test_cache_stays_out_of_equality(self):
        k, fresh = observational_kernel(chain()), observational_kernel(chain())
        text = repr(k)
        assert ci_test(k, ["a"], ["c"], ["b"])
        assert "_margins" in vars(k)
        assert repr(k) == text == repr(fresh)
        assert k == fresh and hash(k) == hash(fresh)

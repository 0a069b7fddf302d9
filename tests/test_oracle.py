"""Tests for the exact discrete model engine: model validation, kernel
algebra, interventional and selected distributions, independence testing,
estimand evaluation, and serialization."""

import gc
import hashlib
import itertools
import math
import random
import time
import weakref
from fractions import Fraction
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from pagid.graph import INPUT, LATENT, OUTPUT, GraphClass, Mark, parse_graph
from pagid.represent import mag_of
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
)
import helpers
from helpers import (
    ReferenceDistributionOracle,
    ci_test_reference,
    condition_reference,
    eval_estimand_reference,
    graph_of_reference,
    interventional_kernel_reference,
    kernel_compose_reference,
    kernel_product_reference,
    kernels_agree_reference,
    marginalize_reference,
    rand_isadmg,
    selected_kernel_reference,
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

    def test_negative_entries_rejected(self):
        with pytest.raises(ScmError,
                           match=r"table row \(\) of a has negative entry -1/2"):
            parse_scm("var a\ncpt a - -1/2 3/2\n")

    @pytest.mark.parametrize("text, message", [
        ("var a\ncpt a - 1/2 1/2\nselect\n", "line 3: malformed select line"),
        ("var a domain=two\ncpt a - 1/2 1/2\n",
         "line 1: domain of a 'two' is not an integer"),
        ("var a\nvar b parents=a\ncpt a - 1/2 1/2\ncpt b x 1/2 1/2\n",
         "line 4: table key of b 'x' is not an integer"),
        ("var a\ncpt a - half 1/2\n",
         "line 2: probability of a 'half' is not a number"),
        ("var a\ncpt a - 1/0 1/2\n",
         "line 2: probability of a '1/0' is not a number"),
        ("select s\nvar a\ncpt a - 1/2 1/2\n",
         "line 1: unknown selection variable s"),
        ("var a\ncpt a - 1/2 1/2\ncpt a - 1/3 2/3\n",
         "line 3: duplicate row () of a"),
        ("var a\nvar b\ncpt a - 1/2 1/2\ncpt b - 1/2 1/2\nselect a b\n",
         "line 5: malformed select line"),
        ("var a doman=3\ncpt a - 1/3 1/3 1/3\n",
         "line 1: unknown var option 'doman=3'"),
        ("var a output\ncpt a - 1/2 1/2\n",
         "line 1: unknown var option 'output'"),
    ], ids=["bare-select", "domain", "key", "probability", "zero-division",
            "unknown-selection", "repeated-row", "two-selections",
            "unknown-option", "bare-token"])
    def test_malformed_lines_are_named(self, text, message):
        with pytest.raises(ScmError) as err:
            parse_scm(text)
        assert str(err.value) == message

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

    def test_self_loop_rejected(self):
        with pytest.raises(ScmError, match="cyclic parent relation"):
            parse_scm("var a parents=a\ncpt a 0 1 0\ncpt a 1 0 1\n")

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
        assert scm.outputs == ("a", "b", "c") and scm.inputs == ()
        assert "weights" not in repr(scm) and "_by_kind" not in repr(scm)
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


# sha256 of format_scm and repr of the random_scm models drawn in
# TestIntegerParse.test_random_models_print_as_before, as random_scm gave
# them when it built its models from Fraction tables
RANDOM_MODELS_SHA256 = (
    "8b628d218f87c2953ea4b519c2270b69a30dbb35ce3c3f6c2176f6c7a3c0e8b7")


def _fraction_tables(text):
    """The tables of a model text as Fraction rows, one Fraction per token:
    what ``parse_scm`` handed the constructor before it read integers."""
    cpts = {}
    for parts in map(str.split, text.splitlines()):
        if parts and parts[0] == "cpt":
            key = () if parts[2] == "-" else tuple(map(int, parts[2].split(",")))
            cpts.setdefault(parts[1], {})[key] = tuple(map(Fraction, parts[3:]))
    return cpts


def _parsed(text):
    """What parse_scm makes of text: the model's weights, Fraction tables
    and repr, or the error text."""
    try:
        scm = parse_scm(text)
    except ScmError as e:
        return str(e)
    return scm.weights, scm.cpts, repr(scm)


class TestIntegerParse:
    """``parse_scm`` reads ASCII ratios straight into integer weights and
    any other token through Fraction; the model is the one the Fraction
    path gives, with the same repr, and every error text is the same."""

    TOKENS = ["1/2", "2/4", "0", "1", "0.5", "1_0/20", "-1/2", "1/0",
              "1/-2", "x", "+1/2", "00/8", "1/00"]

    @pytest.mark.parametrize("rest", ["1/2", "1/3", "3/2 0"])
    @pytest.mark.parametrize("token", TOKENS)
    def test_integer_path_equals_fraction_path(self, token, rest):
        domain = 1 + len(rest.split())
        text = f"var a domain={domain}\ncpt a - {token} {rest}\n"
        got = _parsed(text)
        with mock.patch.object(oc, "_ratio",
                               lambda t: Fraction(t).as_integer_ratio()):
            assert _parsed(text) == got
        if not isinstance(got, str):
            want = DiscreteSCM({"a": domain}, {"a": OUTPUT}, {"a": ()},
                               _fraction_tables(text))
            assert got == (want.weights, want.cpts, repr(want))

    @pytest.mark.parametrize("token, message", [
        ("1/0", "line 2: probability of a '1/0' is not a number"),
        ("1/-2", "line 2: probability of a '1/-2' is not a number"),
        ("x", "line 2: probability of a 'x' is not a number"),
        ("0", "table row () of a sums to 1/2"),
        ("1/6", "table row () of a sums to 2/3"),
        ("1", "table row () of a sums to 3/2"),
        ("-1/2", "table row () of a has negative entry -1/2"),
    ])
    def test_error_texts(self, token, message):
        assert _parsed(f"var a\ncpt a - {token} 1/2\n") == message

    def test_lowest_terms(self):
        scm = parse_scm("var a\nvar b parents=a\ncpt a - 2/4 0.5\n"
                        "cpt b 0 2/6 4/6\ncpt b 1 1_0/20 1/2\n")
        assert scm.weights == {"a": {(): (1, 1)},
                               "b": {(0,): (2, 4), (1,): (3, 3)}}
        assert scm.cpts["b"][(0,)] == (Fraction(1, 3), Fraction(2, 3))

    @settings(max_examples=40)
    @given(st.integers(0, 2**32), st.integers(1, 4), st.integers(0, 1),
           st.integers(0, 1), st.integers(2, 3), st.booleans())
    def test_models_are_their_weights(self, seed, n_out, n_sel, n_in, domain,
                                      positivity):
        g = rand_isadmg(random.Random(seed), n_out=n_out, n_sel=n_sel,
                        n_in=n_in, p=0.5)
        scm = random_scm(g, random.Random(seed), domain, positivity)
        text = format_scm(scm)
        got = parse_scm(text)
        want = DiscreteSCM(got.domains, got.kinds, got.parents,
                           _fraction_tables(text))
        assert got == scm == want and got.weights == want.weights
        assert repr(got) == repr(want) and got.cpts == want.cpts
        assert format_scm(got) == text
        with pytest.raises(TypeError):
            hash(got)

    def test_random_models_print_as_before(self):
        """format_scm and repr of random_scm models, digested: the bytes
        they printed as when random_scm built Fraction tables."""
        digest = hashlib.sha256()
        for seed in range(40):
            rng = random.Random(seed)
            g = rand_isadmg(rng, n_out=rng.randint(1, 5),
                            n_sel=rng.randint(0, 1), n_in=rng.randint(0, 1))
            scm = random_scm(g, rng, rng.randint(2, 3), seed % 2 == 0)
            digest.update((format_scm(scm) + repr(scm)).encode())
        assert digest.hexdigest() == RANDOM_MODELS_SHA256


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

    @settings(max_examples=150)
    @given(st.integers(0, 2**32), st.integers(2, 7), st.integers(0, 1),
           st.integers(0, 2), st.integers(0, 3))
    def test_agrees_with_reference(self, seed, n_out, n_sel, n_in, n_kids):
        rng = random.Random(seed)
        g = rand_isadmg(rng, n_out=n_out, n_sel=n_sel, n_in=n_in, p=0.5)
        scm = random_scm(g, rng)
        # one more latent, shared by 0-3 outputs and selection nodes, so
        # that a latent may also have one child or three
        kids = rng.sample([v for v in g.node_ids if g.kind(v) is not INPUT],
                          min(n_kids, len(g.outputs)))
        parents = {**scm.parents, "l": ()}
        cpts = {**scm.cpts, "l": {(): (Fraction(1, 2), Fraction(1, 2))}}
        for v in kids:
            parents[v] += ("l",)
            cpts[v] = {key + (x,): row for key, row in scm.cpts[v].items()
                       for x in (0, 1)}
        scm = DiscreteSCM({**scm.domains, "l": 2}, {**scm.kinds, "l": LATENT},
                          parents, cpts)
        assert graph_of(scm) == graph_of_reference(scm)


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

    def test_agreement_reads_outputs_in_either_order(self):
        dom = {"a": 2, "b": 2, "c": 2}
        rows = {(0,): {(0, 1): Fraction(1, 4), (1, 0): Fraction(3, 4)},
                (1,): {(0, 0): Fraction(1)}}
        k1 = Kernel(("c",), ("a", "b"), dom, rows)
        k2 = Kernel(("c",), ("b", "a"), dom, {
            c: {out[::-1]: p for out, p in row.items()}
            for c, row in rows.items()})
        assert kernels_agree(k1, k2) and kernels_agree(k2, k1)
        # the same cells read with the outputs swapped
        assert not kernels_agree(k1, Kernel(("c",), ("b", "a"), dom, rows))

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

    def test_unknown_and_non_output_names_are_named(self):
        for kwargs in ({"do_vars": ["zz"]}, {"outputs": ["zz"]},
                       {"do_vars": ["a"], "outputs": ["b", "zz"]}):
            with pytest.raises(ScmError, match="unknown variable zz"):
                interventional_kernel(chain(), **kwargs)
        with pytest.raises(ScmError, match="non-output variable s"):
            interventional_kernel(parse_scm(COLLIDER_SEL), outputs=["s"])

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

    def test_latent_star_eliminates_smallest_scope_first(self):
        # latent a with 16 output children: summing out the other children
        # first keeps every factor over at most two variables
        zs = [f"z{i:02d}" for i in range(16)]
        lines = ["var a kind=latent", "cpt a - 1/3 2/3"]
        for i, z in enumerate(zs):
            p = Fraction(i + 1, 18)
            lines += [f"var {z} parents=a", f"cpt {z} 0 {p} {1 - p}",
                      f"cpt {z} 1 {1 - p} {p}"]
        scm = parse_scm("\n".join(lines) + "\n")
        t0 = time.perf_counter()
        k = interventional_kernel(scm, outputs=["z00"])
        assert time.perf_counter() - t0 < 0.5
        p = Fraction(1, 18)
        want = Fraction(1, 3) * p + Fraction(2, 3) * (1 - p)
        assert k.table == {(): {(0,): want, (1,): 1 - want}}

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

    def test_no_fraction_is_built(self):
        # the model's kernel and every node of the chain's estimand stay in
        # integer rows; only reading the result's table builds Fractions
        scm = chain()
        e = idf.sidp(graph_of(scm), ["c"], ["a"], GraphClass.ADMG)
        with mock.patch.object(oc, "Fraction", wraps=Fraction) as built:
            qv = observational_kernel(scm)
            got = eval_estimand(e, qv)
        assert built.call_count == 0
        assert _same_kernel(got, eval_estimand_reference(e, qv))
        assert got == interventional_kernel(scm, ["a"], outputs=["c"])


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
        """One elimination pass per kernel gives the kernels of the
        per-context enumeration and elimination that it replaced."""
        rng = random.Random(21)
        for trial in range(10):
            g = rand_isadmg(rng, n_out=4, n_sel=1, n_lat=0, n_in=1, p=0.5)
            scm = random_scm(g, random.Random(trial))
            outs = list(scm.outputs)
            for do, keep in (((), None), ((), outs[:2]), (outs[:1], None),
                             (outs[2:], outs[:2])):
                for cond in (True, False):
                    got = interventional_kernel(scm, do, cond, keep)
                    # enumeration, then elimination in name order
                    for limit in (helpers.FULL_JOINT_LIMIT, 0):
                        with mock.patch.object(helpers, "FULL_JOINT_LIMIT",
                                               limit):
                            want = selected_kernel_reference(scm, do, cond,
                                                             keep)
                        assert _same_kernel(got, want)


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
        try:
            want = interventional_kernel_reference(scm, do, keep, cond)
        except ScmError:
            with pytest.raises(ScmError):
                interventional_kernel(scm, do, cond, keep)
            return
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

    @settings(max_examples=40)
    @given(st.integers(0, 10**6), st.data())
    def test_ci_test_matches_the_reference_on_five_outputs(self, seed, data):
        # A and B of one or two nodes, C of up to three, disjoint
        rng = random.Random(seed)
        g = rand_isadmg(rng, n_out=5, n_sel=data.draw(st.integers(0, 1)),
                        n_lat=0, n_in=data.draw(st.integers(0, 1)), p=0.4)
        scm = random_scm(g, rng, domain=data.draw(st.integers(2, 3)),
                         positivity=False)
        try:
            qv = observational_kernel(scm)
        except ScmError:
            return
        for _ in range(4):
            outs = data.draw(st.permutations(qv.outputs))
            i = data.draw(st.integers(1, 2))
            j = data.draw(st.integers(i + 1, i + 2))
            A, B = outs[:i], outs[i:j]
            C = outs[j:j + data.draw(st.integers(0, 5 - j))]
            assert ci_test(qv, A, B, C) == ci_test_reference(qv, A, B, C), (
                A, B, C)

    @settings(max_examples=60)
    @given(st.integers(0, 10**6), st.data())
    def test_input_invariant_matches_the_reference(self, seed, data):
        # one or both of up to two inputs against multi-node B given C
        rng = random.Random(seed)
        g = rand_isadmg(rng, n_out=data.draw(st.integers(2, 4)),
                        n_sel=data.draw(st.integers(0, 1)), n_lat=0,
                        n_in=data.draw(st.integers(1, 2)), p=0.5)
        scm = random_scm(g, rng, domain=data.draw(st.integers(2, 3)),
                         positivity=False)
        try:
            ref = ReferenceDistributionOracle(scm)
        except ScmError:
            return
        k = observational_kernel(scm)
        for _ in range(4):
            I = data.draw(st.lists(st.sampled_from(k.context), min_size=1,
                                   unique=True))
            outs = data.draw(st.permutations(k.outputs))
            j = data.draw(st.integers(1, len(outs)))
            B = outs[:j]
            C = outs[j:j + data.draw(st.integers(0, len(outs) - j))]
            assert oc.input_invariant(k, I, B, C) == ref._input_invariant(
                set(I), sorted(B), sorted(C)), (I, B, C)


def _binary_kernel(outputs, rows, context=()):
    """A kernel over binary variables, its rows given as probability texts
    per context and output assignment."""
    outputs = tuple(outputs)
    return Kernel(context, outputs, dict.fromkeys(context + outputs, 2), {
        ctx: {out: Fraction(p) for out, p in row.items()}
        for ctx, row in rows.items()})


class TestCiTestCells:
    """Hand cases of the grouped reading: a group by C's value with one
    cell, a zero cell, and every context row read when C is empty."""

    # c = 1 holds a product of uniform margins
    PRODUCT = {(a, b, 1): "1/8" for a in (0, 1) for b in (0, 1)}

    def agree(self, rows, C, want, context=()):
        k = _binary_kernel("abc" if C else "ab", rows, context)
        assert ci_test(k, ["a"], ["b"], C) is want
        assert ci_test_reference(k, ["a"], ["b"], C) is want

    def test_one_cell_group_is_skipped_but_not_the_rest(self):
        one = {(0, 0, 0): "1/2"}
        self.agree({(): {**one, **self.PRODUCT}}, ["c"], True)
        tied = {(0, 0, 1): "1/4", (1, 1, 1): "1/4"}
        self.agree({(): {**one, **tied}}, ["c"], False)

    def test_zero_cell_in_a_group(self):
        # a zero cell is unseen: two cells, one zero, are independent, but
        # a zero beside two crossed cells is not
        two = {(0, 0, 0): 0, (1, 1, 0): "1/2"}
        self.agree({(): {**two, **self.PRODUCT}}, ["c"], True)
        three = {(0, 0, 0): 0, (0, 1, 0): "1/4", (1, 0, 0): "1/4"}
        self.agree({(): {**three, **self.PRODUCT}}, ["c"], False)

    def test_empty_c_reads_every_context(self):
        product = {(a, b): "1/4" for a in (0, 1) for b in (0, 1)}
        tied = {(0, 0): "1/2", (1, 1): "1/2"}
        self.agree({(0,): product, (1,): product}, [], True, ("i",))
        self.agree({(0,): product, (1,): tied}, [], False, ("i",))
        self.agree({(0,): tied, (1,): product}, [], False, ("i",))


class TestInputInvariantCells:
    """Hand cases of input invariance: the conditional may move with no
    input of I, and a support that moves entirely is a change."""

    def test_every_input_of_i_is_varied(self):
        # b follows j and not i
        k = _binary_kernel("b", {
            (i, j): {(b,): "3/4" if b == j else "1/4" for b in (0, 1)}
            for i in (0, 1) for j in (0, 1)}, ("i", "j"))
        assert oc.input_invariant(k, ["i"], ["b"])
        assert not oc.input_invariant(k, ["j"], ["b"])
        assert not oc.input_invariant(k, ["i", "j"], ["b"])

    def test_disjoint_supports_differ(self):
        # given c = 0, b = i: no cell of that group is seen under both i
        k = _binary_kernel("bc", {
            (i,): {(i, 0): "1/2", (0, 1): "1/4", (1, 1): "1/4"}
            for i in (0, 1)}, ("i",))
        assert not oc.input_invariant(k, ["i"], ["b"], ["c"])
        assert oc.input_invariant(k, ["i"], ["c"])


def _same_result(got, want):
    """Run both: the same kernel, with the same rows and cells (zero cells
    included) in the same order, or an ScmError with the same text."""
    try:
        w = want()
    except ScmError as exc:
        with pytest.raises(ScmError) as err:
            got()
        assert str(err.value) == str(exc)
        return
    g = got()
    assert _same_kernel(g, w) and g.domains == w.domains
    assert ([(ctx, list(row)) for ctx, row in g.table.items()]
            == [(ctx, list(row)) for ctx, row in w.table.items()])


def _random_kernel(rng, domains, outputs, context):
    """Rows of weights 0-3, some zero cells explicit and some left out; a
    row may be all zero."""
    table = {}
    for ctx in itertools.product(*[range(domains[v]) for v in context]):
        row = {}
        for out in itertools.product(*[range(domains[v]) for v in outputs]):
            w = rng.choice([0, 0, 1, 2, 3])
            if w or rng.random() < 0.5:
                row[out] = w
        total = sum(row.values()) or 1
        table[ctx] = {out: Fraction(w, total) for out, w in row.items()}
    return Kernel(tuple(context), tuple(outputs), domains, table)


class TestKernelRows:
    """Kernel arithmetic in integer rows gives exactly the Fraction
    references' tables, zero cells and errors."""

    @settings(max_examples=150)
    @given(st.integers(0, 10**6))
    def test_kernel_operations_match_the_reference(self, seed):
        rng = random.Random(seed)
        domains = {v: rng.choice([2, 3]) for v in "abcde"}
        names = list(domains)
        rng.shuffle(names)
        n = rng.randint(1, 3)
        k = _random_kernel(rng, domains, names[:n],
                           rng.sample(names[n:], rng.randint(0, 2)))
        rest = names[n:]
        m = rng.randint(1, len(rest) - 1)
        k2 = _random_kernel(rng, domains, rest[:m], rng.sample(
            names[:n] + rest[m:], rng.randint(0, 2)))
        zero_rows = rng.choice(["error", "uniform"])
        # mostly outputs, sometimes a variable outside them
        over = set(rng.sample(names[:n] + rng.sample(rest, 1),
                              rng.randint(0, n)))
        on = rng.sample(names[:n] + rng.sample(rest, 1), rng.randint(1, n))
        both = names[:n] + rest[:m]
        over2 = rng.sample(both, rng.randint(0, len(both)))
        for got, want in [
            (lambda: k.marginalize(over),
             lambda: marginalize_reference(k, over)),
            (lambda: k.condition(on, zero_rows),
             lambda: condition_reference(k, on, zero_rows)),
            (lambda: kernel_product([k, k2], domains, zero_rows),
             lambda: kernel_product_reference([k, k2], domains, zero_rows)),
            (lambda: kernel_product([k2, k, k], domains),
             lambda: kernel_product_reference([k2, k, k], domains)),
            (lambda: kernel_compose(k, k2, over2, domains),
             lambda: kernel_compose_reference(k, k2, over2, domains)),
        ]:
            _same_result(got, want)

    @settings(max_examples=150)
    @given(st.integers(0, 10**6))
    def test_agreement_matches_the_reference(self, seed):
        # want against got: want with up to two more context variables,
        # the variables listed in another order, its rows rescaled, and
        # sometimes one row redrawn; and against an unrelated kernel
        rng = random.Random(seed)
        domains = {v: rng.choice([2, 3]) for v in "abcde"}
        names = list(domains)
        rng.shuffle(names)
        n = rng.randint(1, 2)
        outs, ctx = names[:n], rng.sample(names[n:], rng.randint(0, 2))
        want = _random_kernel(rng, domains, outs, ctx)
        rest = [v for v in names[n:] if v not in ctx]
        extra = rng.sample(rest, rng.randint(0, min(2, len(rest))))
        got_ctx = tuple(rng.sample(ctx + extra, len(ctx) + len(extra)))
        got_outs = tuple(rng.sample(outs, n))
        redrawn = _random_kernel(rng, domains, got_outs, ())
        rows = {}
        for c in itertools.product(*[range(domains[v]) for v in got_ctx]):
            at = dict(zip(got_ctx, c))
            d, row = want.rows[tuple(at[v] for v in ctx)]
            if rng.random() < 0.1:
                d, row = redrawn.rows[()]
            m = rng.randint(1, 3)
            rows[c] = (d * m, {
                tuple(dict(zip(outs, o))[v] for v in got_outs): w * m
                for o, w in row.items()})
        got = Kernel._of(got_ctx, got_outs, domains, rows)
        other = _random_kernel(rng, domains, outs, ctx)
        for x, y in [(got, want), (want, got), (got, other), (other, want)]:
            assert kernels_agree(x, y) == kernels_agree_reference(x, y)

    @settings(max_examples=100)
    @given(st.integers(0, 10**6))
    def test_tables_round_trip(self, seed):
        # a kernel built from a table gives that table back; a kernel built
        # from rows gives a table that builds the same cells in the same
        # order, zero cells included
        rng = random.Random(seed)
        domains = {v: rng.choice([2, 3]) for v in "abcd"}
        names = list(domains)
        rng.shuffle(names)
        n = rng.randint(1, 3)
        k = _random_kernel(rng, domains, names[:n],
                           rng.sample(names[n:], rng.randint(0, 1)))
        table = {ctx: dict(row) for ctx, row in k.table.items()}
        assert Kernel(k.context, k.outputs, domains, table).table is table
        for built in (k.marginalize(rng.sample(names[:n], rng.randint(0, n))),
                      k.condition(names[:1], "uniform"),
                      kernel_product([k], domains, "uniform")):
            assert [(ctx, list(row.items()))
                    for ctx, row in built.table.items()] == [
                (ctx, [(out, Fraction(n, d)) for out, n in row.items()])
                for ctx, (d, row) in built.rows.items()]
            again = Kernel(built.context, built.outputs, domains, built.table)
            _same_result(lambda: Kernel._of(again.context, again.outputs,
                                            domains, again.rows),
                         lambda: built)

    @settings(max_examples=60)
    @given(random_models(), st.data())
    def test_estimands_match_the_reference(self, scm, data):
        # sidp, scidp and adjustment estimands of the model's graph, read
        # through its MAG and, without selection nodes, as an ADMG
        try:
            qv = observational_kernel(scm)
        except ScmError:
            return
        outs = list(scm.outputs)
        A = data.draw(st.lists(st.sampled_from(outs), min_size=1,
                               max_size=len(outs) - 1, unique=True))
        rest = [v for v in outs if v not in A]
        B, C = rest[:1], rest[1:2]
        g = graph_of(scm)
        estimands = []
        readings = [(mag_of(g), None)]
        if not g.selections:
            readings.append((g, GraphClass.ADMG))
        for graph, cls in readings:
            estimands += [
                idf.sidp(graph, A, B, cls), idf.scidp(graph, A, B, C, cls),
                idf.adjustment_check(graph, A, B, J1=C, cls=cls)[1]]
        for e in estimands:
            if e is None or isinstance(e, (idf.FailCertificate,
                                           idf.ExchangeFail)):
                continue
            for zero_rows in ("error", "uniform"):
                _same_result(
                    lambda: eval_estimand(e, qv, scm, zero_rows),
                    lambda: eval_estimand_reference(e, qv, scm, zero_rows))


class TestEstimandSlot:
    """eval_estimand keeps the rows of every node it evaluated against the
    last kernel, scm and zero_rows, and reuses them for equal subterms."""

    @settings(max_examples=60)
    @given(st.lists(random_models(), min_size=2, max_size=2), st.data())
    def test_interleaved_calls_match_the_reference(self, scms, data):
        # sidp and scidp estimands of two models, each built twice (equal
        # estimands, separate objects), evaluated in a drawn order against
        # their own model's kernel, with and without the model, under
        # both zero_rows modes
        cases = []
        for scm in scms:
            try:
                qv = observational_kernel(scm)
            except ScmError:
                continue
            outs = list(scm.outputs)
            A = data.draw(st.lists(st.sampled_from(outs), min_size=1,
                                   max_size=len(outs) - 1, unique=True))
            rest = [v for v in outs if v not in A]
            for _ in range(2):
                g = graph_of(scm)
                for e in (idf.sidp(g, A, rest[:1]),
                          idf.scidp(g, A, rest[:1], rest[1:2])):
                    if not isinstance(e, (idf.FailCertificate,
                                          idf.ExchangeFail)):
                        cases.append((e, qv, scm))
        if not cases:
            return
        for _ in range(12):
            e, qv, scm = data.draw(st.sampled_from(cases))
            scm = data.draw(st.sampled_from([scm, None]))
            zero_rows = data.draw(st.sampled_from(["error", "uniform"]))
            _same_result(
                lambda: eval_estimand(e, qv, scm, zero_rows),
                lambda: eval_estimand_reference(e, qv, scm, zero_rows))

    def test_a_zero_probability_error_is_raised_again(self):
        k = Kernel((), ("a", "b"), {"a": 2, "b": 2},
                   {(): {(0, 0): Fraction(1)}})

        def estimand():
            return idf.Marginalize(
                idf.Condition(idf.Base(frozenset("ab")), ("a",)),
                frozenset())

        e = estimand()
        for again in (e, e, None, e, estimand()):
            if again is None:  # the same kernel, under the other mode
                got = eval_estimand(e, k, zero_rows="uniform")
                assert got.value({"a": 1, "b": 1}) == Fraction(1, 2)
                continue
            with pytest.raises(ScmError, match="probability-zero"):
                eval_estimand(again, k)

    def test_only_the_last_kernel_stays_alive(self):
        e = idf.Condition(idf.Marginalize(idf.Base(frozenset("abc")),
                                          frozenset("a")), ("b",))
        # two models against one kernel, then two kernels without a model
        models = [chain(), chain()]
        kernels = [observational_kernel(models[0]),
                   observational_kernel(chain()),
                   observational_kernel(chain())]
        eval_estimand(e, kernels[0], models[0])
        eval_estimand(e, kernels[0], models[1])
        eval_estimand(e, kernels[1])
        eval_estimand(e, kernels[2])
        refs = [weakref.ref(x) for x in models + kernels]
        del models, kernels
        gc.collect()
        assert [r() is not None for r in refs] == [False] * 4 + [True]

    def test_an_equal_deep_estimand_is_evaluated_in_linear_time(self):
        # keyed on node equality, each lookup would compare the whole
        # chain below the node, which is quadratic in the depth
        qv = observational_kernel(chain())

        def deep():
            e = idf.Base(frozenset(qv.outputs))
            for _ in range(4000):
                e = idf.Marginalize(e, frozenset())
            return e

        want = eval_estimand(deep(), qv)
        e = deep()
        start = time.perf_counter()
        got = eval_estimand(e, qv)
        assert time.perf_counter() - start < 2.0
        assert _same_kernel(got, want)
        assert len(oc._slot[-1]) == 4001  # nothing evaluated again


class TestMarginCache:
    """CI queries read integer margins kept on the kernel."""

    def test_each_row_is_scaled_once(self):
        # the model's kernel is built from integer rows and never scaled; a
        # kernel built from its Fraction table is scaled once per row, when
        # it is built, and not by the queries
        rng = random.Random(5)
        g = rand_isadmg(rng, n_out=5, n_sel=1, n_in=2, p=0.5)
        scm = random_scm(g, rng, domain=2)
        orc = distribution_oracle(scm)
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
        assert lcm.call_count == 0
        k = orc.kernel
        from_table = distribution_oracle(scm)
        with mock.patch.object(oc.math, "lcm", wraps=math.lcm) as lcm:
            from_table.kernel = Kernel(k.context, k.outputs, k.domains,
                                       k.table)
        assert lcm.call_count == len(k.table) > 1
        with mock.patch.object(oc.math, "lcm", wraps=math.lcm) as lcm:
            for q in queries:
                assert from_table.query(*q) == orc.query(*q)
        assert lcm.call_count == 0

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

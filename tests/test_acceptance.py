"""Acceptance suite: one test per criterion, spanning the worked graph
examples and the randomized property checks at full scale.  Each test
prints a single PASS line with its runtime when it completes."""

import itertools
import random
import time

import pytest

from pagid.graph import (
    ARROW,
    CIRCLE,
    Edge,
    GraphClass,
    TAIL,
    parse_graph,
    validate,
)
from pagid.separate import d_separated, id_separated
from pagid.manipulate import (
    hard_manipulate,
    manipulate,
    regime_id,
    soft_manipulate,
)
from pagid.represent import (
    canonical_isadmg,
    enumerate_mags,
    mag_of,
    marginalize_latents,
)
from pagid.fci import distribution_oracle, fci, graph_oracle, orient, skeleton
from pagid import oracle as oc
from pagid.identify import (
    FailCertificate,
    Hedge,
    adjustment_check,
    calculus_check,
    hedge_witness,
    maximal_regime_separated,
    scidp,
    sidp,
    verify_hedge,
)
from helpers import (
    district_of,
    embed_front_door,
    enumerate_represented,
    fixing_identifiable,
    rand_isadmg,
    rule_equality,
    separation_failure_witness,
)

ADMG = GraphClass.ADMG
MAG = GraphClass.MAG


def finish(name, budget, t0):
    elapsed = time.monotonic() - t0
    assert elapsed < budget, f"{name} took {elapsed:.1f}s (budget {budget}s)"
    print(f"PASS {name} ({elapsed:.1f}s)")


def random_mags(seed, count, max_out=4, n_in=0):
    rng = random.Random(seed)
    for _ in range(count):
        yield mag_of(rand_isadmg(
            rng,
            n_out=rng.randint(2, max_out),
            n_sel=rng.randint(0, 1),
            n_lat=rng.randint(0, 1),
            n_in=rng.randint(0, n_in),
            p=0.5,
        ))


CYCLE4 = parse_graph(
    "node a output\nnode b output\nnode c1 output\nnode c2 output\n"
    "edge b --- c1\nedge b --- c2\nedge c1 --- a\nedge c2 --- a\n"
)


def test_criterion_01_golden_examples():
    t0 = time.monotonic()

    # two-node graph whose causes feed a selected collider: with input
    # causes the projection is empty, with output causes they link up
    sel_inputs = parse_graph(
        "node a input\nnode b input\nnode s selection\n"
        "edge a --> s\nedge b --> s\n"
    )
    m1 = mag_of(sel_inputs)
    assert set(m1.node_ids) == {"a", "b"} and not m1.edges
    sel_outputs = parse_graph(
        "node a output\nnode b output\nnode s selection\n"
        "edge a --> s\nedge b --> s\n"
    )
    m2 = mag_of(sel_outputs)
    assert set(m2.edges) == {Edge("a", TAIL, "b", TAIL)}

    # fork under a soft manipulation: regime edges and the residual
    # connection between the children given the common cause
    fork = parse_graph(
        "node a output\nnode b output\nnode c output\n"
        "edge a --> b\nedge a --> c\n"
    )
    fg = soft_manipulate(fork, ["a"], MAG)
    ia = regime_id("a")
    assert set(fg.graph.edges) == set(fork.edges) | {
        Edge(ia, TAIL, "a", CIRCLE),
        Edge(ia, TAIL, "b", ARROW),
        Edge(ia, TAIL, "c", ARROW),
    }
    assert not id_separated(fg, ["b"], ["c"], ["a"])

    # two chained forks: neither grandchild separates from the regime
    # node, and no single represented graph witnesses both connections
    forks2 = parse_graph(
        "node a output\nnode b output\nnode c output\n"
        "node d output\nnode e output\n"
        "edge a --> b\nedge a --> c\nedge b --> d\nedge c --> e\n"
    )
    fg2 = soft_manipulate(forks2, ["a"], MAG)
    assert not id_separated(fg2, ["d"], [ia], ["a"])
    assert not id_separated(fg2, ["e"], [ia], ["a"])
    hits_d, hits_e, hits_both = 0, 0, 0
    for w in enumerate_represented(forks2, max_extra_selection=2):
        wg = soft_manipulate(w, ["a"], ADMG)
        cc = ["a"] + sorted(w.selections)
        con_d = not id_separated(wg, ["d"], [ia], cc)
        con_e = not id_separated(wg, ["e"], [ia], cc)
        hits_d += con_d
        hits_e += con_e
        hits_both += con_d and con_e
    assert hits_d and hits_e and not hits_both

    # plain-walk-connected but separated by the asymmetric criterion,
    # and separated in every represented graph
    mix = parse_graph(
        "node a output\nnode b output\nnode c output\nnode d output\n"
        "edge a --> b\nedge a --- c\nedge b --> d\n"
    )
    mg = soft_manipulate(mix, ["a"], MAG)
    assert not d_separated(mg, ["d"], ["c"], ["a"])
    for w in enumerate_represented(mix, max_extra_selection=1):
        wg = soft_manipulate(w, ["a"], ADMG)
        assert d_separated(wg, ["d"], ["c"], ["a"] + sorted(w.selections))
    # a represented-style graph with a collider at a would need a b - c
    # edge in its projection, so it does not represent this graph
    base = canonical_isadmg(mix)
    s = next(iter(base.selections))
    collider = base.edit(add=[
        Edge("a", ARROW, "b", ARROW), Edge("a", ARROW, s, ARROW),
    ])
    assert mag_of(collider) != mix
    assert mag_of(collider).adjacent("b", "c")
    # the failed separation under the asymmetric criterion is certified
    # by a represented witness that fails it too
    assert not id_separated(mg, ["d"], ["c"], ["a"])
    wit29 = separation_failure_witness(mix, ["d"], ["c"], ["a"], ["a"])
    assert wit29 is not None and mag_of(wit29) == mix

    # partial graph separated where one oriented member stays connected
    partial = parse_graph(
        "node a output\nnode b output\nnode c1 output\nnode c2 output\n"
        "node t output\n"
        "edge a o-> c1\nedge c2 o-> c1\nedge c2 o-o b\n"
        "edge c2 o-> t\nedge a o-> t\nedge t o-o c1\n"
    )
    pg = hard_manipulate(partial, ["t"], GraphClass.PAG)
    assert id_separated(pg, ["a"], ["b"], ["c1", "c2"])
    member = parse_graph(
        "node a output\nnode b output\nnode c1 output\n"
        "node c2 output\nnode t output\nnode s selection\n"
        "edge a --> c1\nedge a --> s\nedge c2 --> c1\nedge c2 --> b\n"
        "edge c2 <-> b\nedge c2 --> t\nedge a --> t\nedge t --> c1\n"
    )
    ag = hard_manipulate(member, ["t"], ADMG)
    assert not id_separated(ag, ["a"], ["b"], ["c1", "c2", "s"])

    # the undirected four-cycle: unidentifiable with certificate, hedge
    # in an explicit represented graph, and both exchange separations
    cert = sidp(CYCLE4, ["a"], ["b"])
    assert str(cert) == "FAIL C={a,c1,c2} T={a,b,c1,c2}"
    wit = parse_graph(
        "node a output\nnode b output\nnode c1 output\nnode c2 output\n"
        "node s1 selection\nnode s2 selection\n"
        "node s3 selection\nnode s4 selection\n"
        "edge b --> c2\nedge b <-> c2\nedge c2 --> a\n"
        "edge b --> s1\nedge c2 --> s1\nedge c2 --> s2\nedge a --> s2\n"
        "edge b --> s3\nedge c1 --> s3\nedge c1 --> s4\nedge a --> s4\n"
    )
    assert mag_of(wit) == CYCLE4
    h = Hedge(frozenset({"b", "c2"}), frozenset({"c2"}), frozenset({"c2"}),
              (Edge("b", TAIL, "c2", ARROW), Edge("b", ARROW, "c2", ARROW)),
              ())
    assert maximal_regime_separated(wit, ["a"], ["b"]) == frozenset()
    assert verify_hedge(wit, {"a"} | set(wit.selections), {"b"}, h)
    assert calculus_check(CYCLE4, 2, ["a"], ["b"], ["c1", "c2"])
    assert calculus_check(CYCLE4, 3, ["a"], ["b"], ["c1", "c2"])

    # selected bow-arc neighbourhood: the same hedge certifies two
    # failures, and vanishes when the selection node is removed
    a9 = parse_graph(
        "node a output\nnode b1 output\nnode b2 output\nnode c output\n"
        "node s selection\n"
        "edge b1 --> a\nedge c --> b1\nedge b2 --> a\nedge c --> s\n"
        "edge b2 --> s\nedge c <-> a\nedge c <-> b2\n"
    )
    h9 = Hedge(
        frozenset({"b2", "a", "c"}), frozenset({"a", "c"}),
        frozenset({"a", "c"}),
        (Edge("b2", TAIL, "a", ARROW), Edge("c", ARROW, "a", ARROW),
         Edge("c", ARROW, "b2", ARROW)),
        (Edge("c", ARROW, "a", ARROW),),
    )
    assert verify_hedge(a9, {"a", "s"}, {"b2"}, h9)
    assert verify_hedge(a9, {"a", "s"}, {"b1", "b2"}, h9)
    assert not verify_hedge(a9.without_nodes({"s"}), {"a"}, {"b1", "b2"}, h9)

    finish("criterion 1 (worked examples)", 5, t0)


def test_criterion_02_representation_round_trips():
    t0 = time.monotonic()
    for m in random_mags(101, 500, max_out=4, n_in=1):
        assert mag_of(canonical_isadmg(m)) == m, m
    rng = random.Random(102)
    for _ in range(500):
        a = rand_isadmg(rng, n_out=rng.randint(2, 4),
                        n_sel=rng.randint(0, 1), n_lat=rng.randint(0, 2),
                        n_in=rng.randint(0, 1), p=0.5)
        assert mag_of(marginalize_latents(a)) == mag_of(a), a
    finish("criterion 2 (representation round trips)", 30, t0)


def test_criterion_03_manipulation_commutation():
    t0 = time.monotonic()
    for m in random_mags(103, 500, max_out=4):
        outs = list(m.outputs)
        subsets = [
            c for k in range(len(outs) + 1)
            for c in itertools.combinations(outs, k)
        ]
        for A in subsets:
            sA = soft_manipulate(m, A, MAG)
            hA = hard_manipulate(m, A, MAG)
            for B in subsets:
                both = set(A) | set(B)
                assert soft_manipulate(sA, B).graph == \
                    soft_manipulate(m, both, MAG).graph
                assert hard_manipulate(hA, B).graph == \
                    hard_manipulate(m, both, MAG).graph
    # mixed hard/soft on a confounded pair does not commute
    m = parse_graph(
        "node a output\nnode b output\nnode c output\n"
        "edge a <-> b\nedge b --> c\n"
    )
    ib = regime_id("b")
    hs = soft_manipulate(hard_manipulate(m, ["a"], MAG), ["b"]).graph
    sh = hard_manipulate(soft_manipulate(m, ["b"], MAG), ["a"]).graph
    assert set(hs.edges) == {
        Edge(ib, TAIL, "b", CIRCLE),
        Edge(ib, TAIL, "c", ARROW),
        Edge("b", TAIL, "c", ARROW),
    }
    assert set(sh.edges) == {
        Edge(ib, TAIL, "b", ARROW),
        Edge("b", TAIL, "c", ARROW),
    }
    assert hs != sh
    finish("criterion 3 (manipulation commutation)", 60, t0)


def test_criterion_04_separation_transfer():
    t0 = time.monotonic()
    rng = random.Random(104)
    checked = failures = 0
    for _ in range(200):
        m = mag_of(rand_isadmg(rng, n_out=rng.randint(3, 5),
                               n_sel=rng.randint(0, 1),
                               n_lat=rng.randint(0, 1), n_in=0, p=0.45))
        outs = list(m.outputs)
        if len(outs) < 2:
            continue
        pool = outs[:]
        rng.shuffle(pool)
        a, b = pool[0], pool[1]
        rest = pool[2:]
        C = [v for v in rest if rng.random() < 0.4]
        free = [v for v in rest if v not in C]
        D = [v for v in free if rng.random() < 0.3]
        T = [v for v in free if v not in D and rng.random() < 0.3]
        mg = manipulate(m, D, T, MAG)
        sep = id_separated(mg, [a], [b], sorted(set(C) | set(T)))
        cands = itertools.islice(
            enumerate_represented(m, max_extra_selection=1), 11
        )
        for w in cands:
            wg = manipulate(w, D, T, ADMG)
            cc = sorted(set(C) | set(T) | set(w.selections))
            sw = id_separated(wg, [a], [b], cc)
            if sep:
                assert sw, (m, w, a, b, C, D, T)
        if not sep:
            failures += 1
            wit = separation_failure_witness(m, [a], [b], C, D, T)
            assert wit is not None, (m, a, b, C, D, T)
            assert mag_of(wit) == m
        checked += 1
    assert checked >= 150 and failures >= 20
    finish("criterion 4 (separation transfer)", 300, t0)


def test_criterion_05_partial_graph_separation_class():
    t0 = time.monotonic()
    rng = random.Random(105)
    done = 0
    while done < 100:
        a9 = rand_isadmg(rng, n_out=rng.randint(3, 4),
                         n_sel=rng.randint(0, 1), n_lat=rng.randint(0, 1),
                         n_in=0, p=0.45)
        p = fci(graph_oracle(a9), mag_of(a9).nodes)
        try:
            cls = enumerate_mags(p, limit=1 << 14, membership="copag")
        except ValueError:
            continue
        assert mag_of(a9) in cls
        outs = sorted(p.outputs)
        if len(outs) < 2:
            continue
        for _ in range(50):
            x, y = rng.sample(outs, 2)
            C = [v for v in outs if v not in (x, y) and rng.random() < 0.5]
            sep_p = id_separated(p, [x], [y], C)
            sep_all = all(id_separated(m, [x], [y], C) for m in cls)
            assert sep_p == sep_all, (a9, x, y, C)
        done += 1
    finish("criterion 5 (equivalence-class separation)", 600, t0)


def test_criterion_06_structure_recovery_soundness():
    t0 = time.monotonic()
    rng = random.Random(106)
    for _ in range(300):
        a9 = rand_isadmg(rng, n_out=rng.randint(3, 5),
                         n_sel=rng.randint(0, 2), n_lat=rng.randint(0, 1),
                         n_in=rng.randint(0, 1), p=0.4)
        m = mag_of(a9)
        orc = graph_oracle(canonical_isadmg(m))
        sk, seps = skeleton(orc, m.inputs, m.outputs)
        p = orient(sk, seps, m.inputs)
        # same adjacencies as the projection of the represented graph
        assert {frozenset((e.a, e.b)) for e in p.edges} == \
            {frozenset((e.a, e.b)) for e in m.edges}, a9
        # every definite mark is correct for the generating graph
        true = {}
        for e in m.edges:
            true[(e.a, e.b)] = e.mark_b
            true[(e.b, e.a)] = e.mark_a
        for e in p.edges:
            for x, y, mk in ((e.a, e.b, e.mark_b), (e.b, e.a, e.mark_a)):
                if mk is not CIRCLE:
                    assert true[(x, y)] is mk, (a9, x, y)
        # well-formed and orientation-closed
        assert validate(p, GraphClass.PAG) == [], a9
        assert orient(p, seps, m.inputs) == p, a9
    finish("criterion 6 (structure recovery soundness)", 300, t0)


@pytest.fixture(scope="module")
def identification_runs():
    """The queries of criteria 7 and 8: (generating graph, model, query,
    answers on the MAG and on the PAG), and the seconds spent on them."""
    t0 = time.monotonic()
    rng = random.Random(107)
    runs = []
    for trial in range(300):
        g = rand_isadmg(rng, n_out=rng.randint(3, 5),
                        n_sel=rng.randint(0, 1), n_lat=0, n_in=0, p=0.5)
        extra = [
            Edge(e.a, ARROW, e.b, ARROW)
            for e in g.edges
            if (e.mark_a, e.mark_b) == (TAIL, ARROW)
            and g.kind(e.b).value == "output" and rng.random() < 0.35
        ]
        g = g.edit(add=extra)
        scm = oc.random_scm(g, random.Random(7000 + trial))
        m = mag_of(g)
        p = fci(graph_oracle(g), m.nodes)
        outs = sorted(m.outputs)
        if len(outs) < 2:
            continue
        a = rng.choice(outs)
        B = rng.sample([v for v in outs if v != a],
                       rng.randint(1, min(2, len(outs) - 1)))
        runs.append((g, scm, p, a, B, [(graph, sidp(graph, [a], B))
                                       for graph in (m, p)]))
    return runs, time.monotonic() - t0


def test_criterion_07_identification_soundness(identification_runs):
    runs, spent = identification_runs
    t0 = time.monotonic() - spent
    successes = 0
    for g, scm, _p, a, B, answers in runs:
        want = oc.interventional_kernel(scm, B, outputs=[a])
        for _graph, res in answers:
            if isinstance(res, FailCertificate):
                continue
            successes += 1
            got = oc.eval_estimand(res, oc.observational_kernel(scm), scm)
            assert oc.kernels_agree(got, want), (g, a, B)
    assert successes >= 50
    finish("criterion 7 (identification soundness)", 900, t0)


def test_criterion_08_failure_certification(identification_runs):
    t0 = time.monotonic()
    runs, _spent = identification_runs
    failures = [
        (p, (a,), tuple(B), res)
        for _g, _scm, p, a, B, answers in runs
        for graph, res in answers
        if graph is p and isinstance(res, FailCertificate)
    ]
    assert failures, "criterion 7's queries must include failures on PAGs"
    for p, A, B, cert in failures:
        mag, wit, h = hedge_witness(p, A, B, cert)
        assert mag_of(wit) == mag
        D = maximal_regime_separated(wit, A, B)
        assert verify_hedge(
            wit, set(A) | (set(wit.selections) - D), set(B) | D, h
        ), (p, A, B)
    finish(
        f"criterion 8 (certified {len(failures)} failures)",
        300, t0,
    )


def test_criterion_09_classical_agreement_and_markov_combination():
    t0 = time.monotonic()
    rng = random.Random(109)
    box_checks = 0
    agreements = 0
    trial = 0
    while agreements < 200 or box_checks < 100:
        trial += 1
        assert trial < 2000, "not enough usable instances"
        g = rand_isadmg(rng, n_out=rng.randint(3, 4), n_sel=0, n_lat=0,
                        n_in=0, p=0.6)
        extra = [
            Edge(e.a, ARROW, e.b, ARROW)
            for e in g.edges
            if (e.mark_a, e.mark_b) == (TAIL, ARROW) and rng.random() < 0.5
        ]
        g = g.edit(add=extra)
        outs = sorted(g.outputs)
        if trial % 2:
            a = rng.choice(outs)
            B = rng.sample([v for v in outs if v != a],
                           rng.randint(1, len(outs) - 1))
        else:
            # sidp splits the target only where it gets stuck, which the
            # draws above rarely make it; the front-door gadget does
            g, a, z = embed_front_door(rng, g)
            B = [z]
        res = sidp(g, [a], B, ADMG)
        D = g.induced(set(outs) - set(B)).ancestors({a})
        sub = g.induced(D)
        dists = {frozenset(district_of(sub, v)) for v in D}
        ok = all(fixing_identifiable(g, S) for S in dists)
        assert ok == (not isinstance(res, FailCertificate)), (g, a, B)
        if not ok:
            continue
        agreements += 1
        scm = oc.random_scm(g, random.Random(9000 + trial))
        qv = oc.observational_kernel(scm)
        got = oc.eval_estimand(res, qv, scm)
        want = oc.interventional_kernel(scm, B, outputs=[a])
        assert oc.kernels_agree(got, want), (g, a, B)
        factors = [oc.c_factor(scm, S) for S in sorted(dists, key=min)]
        formula = oc.kernel_product(factors, scm.domains)
        formula = formula.marginalize(set(D) - {a})
        assert oc.kernels_agree(formula, want), (g, a, B)
        # every two-region assembly in the estimand is the density
        # quotient q[R1] q[R2] / q[R1 n R2]
        for box in _boxes(res):
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
                    if ki.value(asg):
                        assert (kb.value(asg) * ki.value(asg)
                                == kl.value(asg) * kr.value(asg))
            box_checks += 1
    finish(
        f"criterion 9 ({agreements} agreements, {box_checks} assemblies)",
        300, t0,
    )


def _boxes(node):
    from pagid import identify as idf

    out = []
    stack = [node]
    while stack:
        n = stack.pop()
        if isinstance(n, idf.BoxProduct):
            out.append(n)
            stack.extend((n.left, n.right))
        elif isinstance(n, (idf.Marginalize, idf.Condition)):
            stack.append(n.child)
        elif isinstance(n, idf.OrderedProduct):
            stack.extend(n.children)
        elif isinstance(n, idf.Compose):
            stack.extend((n.outer, n.inner))
    return out


def test_criterion_10_calculus_and_adjustment_soundness():
    t0 = time.monotonic()
    rng = random.Random(110)
    rule_hits = adj_hits = 0
    for trial in range(200):
        g = rand_isadmg(rng, n_out=rng.randint(3, 4),
                        n_sel=rng.randint(0, 1), n_lat=0, n_in=0, p=0.5)
        extra = [
            Edge(e.a, ARROW, e.b, ARROW)
            for e in g.edges
            if (e.mark_a, e.mark_b) == (TAIL, ARROW)
            and g.kind(e.b).value == "output" and rng.random() < 0.3
        ]
        g = g.edit(add=extra)
        scm = oc.random_scm(g, random.Random(10000 + trial))
        m = mag_of(g)
        outs = sorted(g.outputs)
        rest_pool = [
            (a, b, C, Dset)
            for a, b in itertools.permutations(outs, 2)
            for C in _subsets([v for v in outs if v not in (a, b)])
            for Dset in _subsets(
                [v for v in outs if v not in (a, b) and v not in C])
        ]
        for a, b, C, Dset in rest_pool:
            for rule in (1, 2, 3):
                if calculus_check(m, rule, [a], [b], C, Dset):
                    rule_hits += 1
                    assert rule_equality(scm, rule, [a], [b], C, Dset), (
                        m, rule, a, b, C, Dset)
        for a, b in itertools.permutations(outs, 2):
            for J in _subsets([v for v in outs if v not in (a, b)]):
                ok, est = adjustment_check(m, [a], [b], J0=J)
                if not ok:
                    continue
                adj_hits += 1
                got = oc.eval_estimand(est, oc.observational_kernel(scm), scm)
                want = oc.interventional_kernel(scm, [b], outputs=[a])
                assert oc.kernels_agree(got, want), (g, a, b, J)
    assert rule_hits >= 200 and adj_hits >= 50

    # violator probes: when the rule premise fails on these models, the
    # corresponding kernel identity also fails numerically
    chain = oc.parse_scm(
        "var a\nvar b parents=a\n"
        "cpt a - 1/2 1/2\ncpt b 0 9/10 1/10\ncpt b 1 1/10 9/10\n"
    )
    gc = oc.graph_of(chain)
    assert not calculus_check(gc, 1, ["b"], ["a"], cls=ADMG)
    assert not rule_equality(chain, 1, ["b"], ["a"], [], [])
    assert not calculus_check(gc, 3, ["b"], ["a"], cls=ADMG)
    assert not rule_equality(chain, 3, ["b"], ["a"], [], [])
    bow = oc.parse_scm(
        "var l kind=latent\nvar a parents=l\nvar b parents=a,l\n"
        "cpt l - 1/2 1/2\ncpt a 0 9/10 1/10\ncpt a 1 1/10 9/10\n"
        "cpt b 0,0 9/10 1/10\ncpt b 0,1 1/10 9/10\n"
        "cpt b 1,0 2/10 8/10\ncpt b 1,1 8/10 2/10\n"
    )
    gb = oc.graph_of(bow)
    assert not calculus_check(gb, 2, ["b"], ["a"], cls=ADMG)
    assert not rule_equality(bow, 2, ["b"], ["a"], [], [])
    ok, _ = adjustment_check(gb, ["b"], ["a"], cls=ADMG)
    assert not ok
    finish(
        f"criterion 10 ({rule_hits} rule instances, {adj_hits} adjustments)",
        600, t0,
    )


def _subsets(pool):
    return [
        list(c) for k in range(len(pool) + 1)
        for c in itertools.combinations(pool, k)
    ]

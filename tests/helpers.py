"""Shared test utilities: random graph generation and slow reference
implementations used as independent oracles for the fast library code."""

import itertools
import random
from fractions import Fraction
from unittest import mock

from pagid import fci as fci_mod
from pagid.fci import IndependenceOracle

from pagid.graph import (
    ARROW,
    CIRCLE,
    TAIL,
    Edge,
    GraphClass,
    INPUT,
    LATENT,
    Mark,
    MixedGraph,
    OUTPUT,
    SELECTION,
    _trace,
    _walk,
    as_class,
    bucket_topological_order,
    buckets,
    pc_component,
    region,
    validate,
)
from pagid.identify import Hedge, _as_output_graph, verify_hedge
from pagid.manipulate import (
    ManipulatedGraph,
    _check_unmanipulated,
    _check_valid,
    _infer_class,
    _soft_edges,
    hard_manipulate,
    is_visible,
    manipulate,
    regime_id,
)
from pagid import identify as idf
from pagid.oracle import (DiscreteSCM, Kernel, ScmError, _assignments,
                          _projection, interventional_kernel, kernels_agree)
from pagid.represent import canonical_isadmg, mag_of, split_id
from pagid.separate import _id_search, id_separated

MARKS = (TAIL, ARROW, CIRCLE)


def rand_mixed_graph(rng: random.Random, n=5, p=0.5, marks=MARKS, kinds=None):
    """Random raw mixed graph; single edge per pair, arbitrary marks."""
    names = [f"v{i}" for i in range(n)]
    nodes = {v: (kinds[i] if kinds else OUTPUT) for i, v in enumerate(names)}
    edges = []
    for i in range(n):
        for j in range(i + 1, n):
            if rng.random() < p:
                edges.append(
                    Edge(names[i], rng.choice(marks), names[j], rng.choice(marks))
                )
    return MixedGraph(nodes, edges)


def directed_cycle_recursive(g: MixedGraph):
    """Reference for ``graph._directed_cycle``: the same depth-first
    search, children in sorted order, as a recursion."""
    color = {}
    stack = []

    def dfs(v):
        color[v] = 1
        stack.append(v)
        for w in sorted(g.children(v)):
            c = color.get(w, 0)
            if c == 1:
                return stack[stack.index(w):] + [w]
            if c == 0:
                found = dfs(w)
                if found:
                    return found
        color[v] = 2
        stack.pop()
        return None

    for v in g.node_ids:
        if color.get(v, 0) == 0:
            found = dfs(v)
            if found:
                return found
    return None


def rand_isadmg(rng: random.Random, n_out=4, n_sel=1, n_lat=0, n_in=0, p=0.5):
    """Random isADMG: directed part acyclic by construction (edges go up in
    node order), plus random bidirected edges; inputs have out-edges only;
    selection nodes are childless sinks."""
    outs = [f"v{i}" for i in range(n_out)]
    lats = [f"l{i}" for i in range(n_lat)]
    sels = [f"s{i}" for i in range(n_sel)]
    ins = [f"i{i}" for i in range(n_in)]
    nodes = {v: OUTPUT for v in outs}
    nodes.update({v: LATENT for v in lats})
    nodes.update({v: SELECTION for v in sels})
    nodes.update({v: INPUT for v in ins})
    # topological order: inputs, then outputs/latents shuffled, then selection
    mid = outs + lats
    rng.shuffle(mid)
    order = ins + mid + sels
    edges = []
    for i, x in enumerate(order):
        for y in order[i + 1:]:
            if x in ins and y in ins:
                continue
            if rng.random() >= p:
                continue
            if x in ins or y in sels:
                edges.append(Edge(x, TAIL, y, ARROW))
            elif rng.random() < 0.3:
                edges.append(Edge(x, ARROW, y, ARROW))
            else:
                edges.append(Edge(x, TAIL, y, ARROW))
    g = MixedGraph(nodes, edges)
    assert validate(g, GraphClass.ADMG) == []
    return g


def all_simple_paths(g: MixedGraph, a, b, max_len=None):
    """All simple paths from a to b as edge lists (parallel edges distinct)."""
    out = []

    def dfs(v, used_nodes, path):
        if max_len is not None and len(path) > max_len:
            return
        if v == b:
            out.append(list(path))
            return
        for w, _mv, _mw, e in g.edges_at(v):
            if w in used_nodes:
                continue
            used_nodes.add(w)
            path.append(e)
            dfs(w, used_nodes, path)
            path.pop()
            used_nodes.remove(w)

    dfs(a, {a}, [])
    return out


def path_nodes(a, edges):
    """Node sequence of a path starting at a."""
    seq = [a]
    for e in edges:
        seq.append(e.other(seq[-1]))
    return seq


def inducing_path_oracle(g: MixedGraph, a, b, L, S):
    """Reference check by explicit simple-path enumeration."""
    anc = g.ancestors({a, b} | set(S))
    for path in all_simple_paths(g, a, b):
        seq = path_nodes(a, path)
        ok = True
        for i in range(1, len(seq) - 1):
            v = seq[i]
            m_in = path[i - 1].mark_at(v)
            m_out = path[i].mark_at(v)
            collider = m_in is ARROW and m_out is ARROW
            if collider:
                if v not in anc:
                    ok = False
                    break
            elif v not in set(L):
                ok = False
                break
        if ok:
            return True
    return False


def closure_oracle(g: MixedGraph, X, edge_ok):
    """Reflexive closure of X under paths whose every edge (near mark, far
    mark) satisfies edge_ok, walking backwards from X."""
    result = set(X)
    changed = True
    while changed:
        changed = False
        for e in g.edges:
            for u, w in ((e.a, e.b), (e.b, e.a)):
                if w in result and u not in result:
                    if edge_ok(e.mark_at(u), e.mark_at(w)):
                        result.add(u)
                        changed = True
    return result


def possible_ancestors_oracle(g, X):
    return closure_oracle(
        g, X, lambda mu, mw: mu is not ARROW and mw is not TAIL
    )


def possible_anteriors_oracle(g, X):
    return closure_oracle(g, X, lambda mu, mw: mu is not ARROW)


def anteriors_oracle(g, X):
    return closure_oracle(
        g, X, lambda mu, mw: mu is TAIL and mw in (TAIL, ARROW)
    )


def fixing_identifiable(g, S):
    """Independent check that the factor of S is reachable by iterated
    fixing in the directed-mixed graph g: repeatedly remove a node outside
    S that is its own district-descendant intersection."""
    T = set(g.node_ids)
    S = set(S)
    while T > S:
        sub = g.induced(T)
        fixed = False
        for v in sorted(T - S):
            dis = district_of(sub, v)
            if dis & sub.descendants({v}) == {v}:
                T.remove(v)
                fixed = True
                break
        if not fixed:
            return False
    return True


def district_of(g, v):
    """Connected component of v over bidirected edges."""
    seen = {v}
    frontier = [v]
    while frontier:
        u = frontier.pop()
        for w, mu, mw, _e in g.edges_at(u):
            if mu is ARROW and mw is ARROW and w not in seen:
                seen.add(w)
                frontier.append(w)
    return seen


def regime_separated(wit: MixedGraph, A, B, D) -> bool:
    """Whether the regime indicators of the selection nodes D are
    id-separated from A given B and all selection nodes, after soft
    manipulation of D and hard manipulation of B, read as an ADMG."""
    mg = manipulate(_as_output_graph(wit), sorted(D), sorted(B), GraphClass.ADMG)
    cond = sorted(set(B) | set(wit.selections))
    return id_separated(mg, sorted(A), [regime_id(d) for d in sorted(D)], cond)


def maximal_regime_separated_bruteforce(wit: MixedGraph, A, B):
    """Reference for ``identify.maximal_regime_separated``: the first
    separated subset of the selection nodes, largest first, over all
    2^|S| subsets."""
    S = sorted(wit.selections)
    for size in range(len(S), 0, -1):
        for D in itertools.combinations(S, size):
            if regime_separated(wit, A, B, D):
                return frozenset(D)
    return frozenset()


# -- witness and hedge searches: references for the direct constructions ----


def enumerate_represented(
    m: MixedGraph, max_extra_selection: int = 0, limit: int = 1 << 18
):
    """Reference witness enumeration: graphs represented by the MAG m,
    built from its canonical graph by optionally doubling directed edges
    with a bidirected copy and adding up to max_extra_selection fresh
    selection nodes with parents among the original nodes.  Every
    candidate is checked to project back to m."""
    base = canonical_isadmg(m)
    directed = [
        e
        for e in m.edges
        if (e.mark_a, e.mark_b) in ((TAIL, ARROW), (ARROW, TAIL))
        and m.kind(e.a) is OUTPUT
        and m.kind(e.b) is OUTPUT
    ]
    names = list(m.node_ids)
    parent_sets = [
        ps
        for k in range(2, len(names) + 1)
        for ps in itertools.combinations(names, k)
    ]
    sel_options = [()]
    for k in range(1, max_extra_selection + 1):
        sel_options.extend(
            itertools.combinations_with_replacement(parent_sets, k)
        )

    count = 0
    for bd in itertools.chain.from_iterable(
        itertools.combinations(directed, k) for k in range(len(directed) + 1)
    ):
        extra = [Edge(e.a, ARROW, e.b, ARROW) for e in bd]
        for sels in sel_options:
            nodes = dict(base.nodes)
            edges = list(base.edges) + list(extra)
            for i, ps in enumerate(sels):
                s = f"s__x{i}"
                if s in nodes:
                    raise ValueError(f"node id {s} collides")
                nodes[s] = SELECTION
                edges.extend(Edge(v, TAIL, s, ARROW) for v in ps)
            count += 1
            if count > limit:
                raise ValueError("witness enumeration limit exceeded")
            cand = MixedGraph(nodes, edges)
            if validate(cand, GraphClass.ADMG):
                continue
            if mag_of(cand) == m:
                yield cand


def separation_failure_witness(m: MixedGraph, A, B, C=(), D=(), T=()):
    """A represented graph of the MAG m in which A is not id-separated from
    B given C together with the selection nodes, after manipulating softly
    on D and hard on T.  Returns None if every candidate in the search pool
    is separated (which certifies the separation at the MAG level)."""
    for cand in _witness_pool(m):
        cmg = manipulate(cand, D, T, GraphClass.ADMG)
        cc = set(C) | set(T) | set(cand.selections)
        if not id_separated(cmg, A, B, cc):
            return cand
    return None


def _witness_pool(m: MixedGraph):
    """Candidate represented graphs ordered from plain to decorated: the
    canonical graph, then single bidirected additions parallel to invisible
    directed edges or aimed at split selection nodes, then pairs."""
    base = canonical_isadmg(m)
    yield base
    singles = []
    for e in m.edges:
        if (e.mark_a, e.mark_b) in ((TAIL, ARROW), (ARROW, TAIL)):
            tail = e.a if e.mark_a is TAIL else e.b
            head = e.other(tail)
            if m.kind(tail) is OUTPUT and not is_visible(m, tail, head):
                singles.append(Edge(tail, ARROW, head, ARROW))
        elif (e.mark_a, e.mark_b) == (TAIL, TAIL):
            s = split_id(e.a, e.b)
            singles.append(Edge(e.a, ARROW, s, ARROW))
            singles.append(Edge(e.b, ARROW, s, ARROW))
    seen = set()
    for k in (1, 2):
        for combo in itertools.combinations(singles, k):
            cand = base.edit(add=combo)
            if cand in seen:
                continue
            seen.add(cand)
            if validate(cand, GraphClass.ADMG):
                continue
            if mag_of(cand) == m:
                yield cand


def _forest_edges(g: MixedGraph, nodes, R):
    """A forest edge selection on the node set: all bidirected edges plus
    one directed edge per non-root, aimed at the smallest child."""
    nodes = set(nodes)
    edges = []
    for e in sorted(g.edges, key=lambda e: e.sort_key()):
        if not {e.a, e.b} <= nodes:
            continue
        if e.mark_a is ARROW and e.mark_b is ARROW:
            edges.append(e)
    for v in sorted(nodes - set(R)):
        best = None
        for w, mv, mw, e in g.edges_at(v):
            if mv is TAIL and mw is ARROW and w in nodes:
                if best is None or w < best.other(v):
                    best = e
        if best is None:
            return None
        edges.append(best)
    return tuple(edges)


def _find_hedge(wit: MixedGraph, A, B):
    """Reference for ``identify.hedge_witness``: exhaustive search for a
    hedge for (A, B) among subsets of the output nodes of the witness
    graph."""
    go = _as_output_graph(wit)
    A = set(A) & set(go.node_ids)
    B = set(B) & set(go.node_ids)
    mg = hard_manipulate(go, sorted(B), GraphClass.ADMG)
    anc = mg.graph.ancestors(A)
    pool = sorted(set(wit.outputs))
    for hsize in range(2, len(pool) + 1):
        for H in itertools.combinations(pool, hsize):
            hset = set(H)
            if not hset & B:
                continue
            sub = go.induced(hset)
            sinks = {
                v
                for v in hset
                if not any(
                    mv is TAIL and mw is ARROW
                    for _, mv, mw, _ in sub.edges_at(v)
                )
            }
            for psize in range(1, hsize):
                for Hp in itertools.combinations(sorted(hset), psize):
                    pset = set(Hp)
                    if pset & B:
                        continue
                    psub = go.induced(pset)
                    R = {
                        v
                        for v in pset
                        if not any(
                            mv is TAIL and mw is ARROW
                            for _, mv, mw, _ in psub.edges_at(v)
                        )
                    }
                    if not R or not R <= anc or not sinks <= R:
                        continue
                    fe = _forest_edges(go, hset, R)
                    fpe = _forest_edges(go, pset, R)
                    if fe is None or fpe is None:
                        continue
                    h = Hedge(
                        H=frozenset(hset),
                        Hprime=frozenset(pset),
                        R=frozenset(R),
                        forest_edges=fe,
                        forest_prime_edges=fpe,
                    )
                    if verify_hedge(wit, A, B, h):
                        return h
    return None


# -- exact-oracle references: the Fraction arithmetic of the integer paths --


def joint_full_reference(scm, ctx: dict, do: dict, names):
    """Reference for ``oracle._joint_full``: the unnormalized joint over
    names enumerated in Fraction arithmetic, off the rational tables."""
    fixed = dict(ctx)
    fixed.update(do)
    rows = {}
    for values in itertools.product(*[range(scm.domains[v]) for v in names]):
        a = dict(fixed)
        a.update(zip(names, values))
        p = Fraction(1)
        for v in scm.domains:
            if scm.kinds[v] is INPUT or v in do:
                continue
            row = scm.cpts[v][tuple(a[x] for x in scm.parents.get(v, ()))]
            p *= row[a[v]]
            if p == 0:
                break
        if p:
            rows[values] = p
    return rows


def interventional_kernel_reference(scm, do_vars=(), outputs=None,
                                    condition_selection=True):
    """Reference for ``oracle.interventional_kernel``: one Fraction
    enumeration per context, marginalized and normalized in Fractions."""
    do_vars = tuple(sorted(set(do_vars)))
    if outputs is None:
        outputs = [v for v in scm.outputs if v not in do_vars]
    outputs = tuple(sorted(set(outputs)))
    context = tuple(scm.inputs) + do_vars
    table = {}
    for vals in itertools.product(*[range(scm.domains[v]) for v in context]):
        a = dict(zip(context, vals))
        ctx = {v: a[v] for v in scm.inputs}
        if condition_selection:
            ctx.update({s: 1 for s in scm.selections})
        do = {v: a[v] for v in do_vars}
        names = tuple(v for v in sorted(scm.domains) if v not in ctx
                      and v not in do and scm.kinds[v] is not INPUT)
        idx = [names.index(v) for v in outputs]
        out = {}
        for values, p in joint_full_reference(scm, ctx, do, names).items():
            key = tuple(values[i] for i in idx)
            out[key] = out.get(key, Fraction(0)) + p
        total = sum(out.values(), Fraction(0))
        if total == 0:
            raise ScmError(f"selection event has probability zero in context {a}")
        table[vals] = {k: p / total for k, p in out.items()}
    return Kernel(context, outputs, dict(scm.domains), table)


# -- per-context joints: the paths that one elimination pass replaced --

# Each context assignment gets its own joint: enumerated while the state
# space is at most FULL_JOINT_LIMIT, eliminated in name order above it.

FULL_JOINT_LIMIT = 1 << 20


def _state_space(scm, names):
    size = 1
    for v in names:
        size *= scm.domains[v]
    return size


def _factors(scm, do):
    """(variable, parents, integer table) for every non-input variable
    that is not intervened on."""
    return [
        (v, scm.parents.get(v, ()), scm.weights[v])
        for v in scm.domains
        if scm.kinds[v] is not INPUT and v not in do
    ]


def _joint_full(scm: DiscreteSCM, ctx: dict, do: dict, names):
    """Unnormalized integer joint over names (all non-context, non-do
    variables), by explicit enumeration of the truncated factorization."""
    fixed = dict(ctx)
    fixed.update(do)
    factors = _factors(scm, do)
    rows = {}
    for values in _assignments(scm.domains, names):
        a = dict(fixed)
        a.update(zip(names, values))
        p = 1
        for v, ps, table in factors:
            p *= table[tuple(a[x] for x in ps)][a[v]]
            if not p:
                break
        if p:
            rows[values] = p
    return rows


def _joint_ve(scm: DiscreteSCM, ctx: dict, do: dict, names, keep):
    """Same joint, marginalized onto keep, via variable elimination."""
    fixed = dict(ctx)
    fixed.update(do)
    factors = []
    for v, ps, weights in _factors(scm, do):
        free = tuple(x for x in (v,) + tuple(ps) if x not in fixed)
        table = {}
        for values in _assignments(scm.domains, free):
            a = dict(fixed)
            a.update(zip(free, values))
            table[values] = weights[tuple(a[x] for x in ps)][a[v]]
        factors.append((free, table))
    eliminate = [v for v in names if v not in keep]
    for v in sorted(eliminate, key=lambda x: (len(scm.domains), x)):
        touching = [f for f in factors if v in f[0]]
        rest = [f for f in factors if v not in f[0]]
        free = tuple(sorted({x for fr, _ in touching for x in fr} - {v}))
        table = {}
        for values in _assignments(scm.domains, free):
            a = dict(zip(free, values))
            total = 0
            for val in range(scm.domains[v]):
                a[v] = val
                p = 1
                for fr, t in touching:
                    p *= t[tuple(a[x] for x in fr)]
                total += p
            table[values] = total
        factors = rest + [(free, table)]
    keep = tuple(keep)
    out = {}
    for values in _assignments(scm.domains, keep):
        a = dict(zip(keep, values))
        p = 1
        for fr, t in factors:
            p *= t[tuple(a[x] for x in fr)]
        if p:
            out[values] = p
    return out


def _selected_marginal(scm, ctx, do, keep, condition_selection):
    """Distribution over keep given ctx under do, with the selection event
    applied and normalized away when requested.  Unnormalized integer
    weights, all on the scale of the product of the tables' scales."""
    sels = [s for s in scm.selections if s not in do and s not in ctx]
    if condition_selection:
        ctx = dict(ctx)
        ctx.update({s: 1 for s in sels})
        sels = []
    names = tuple(
        v
        for v in sorted(scm.domains)
        if v not in ctx and v not in do and scm.kinds[v] is not INPUT
    )
    if _state_space(scm, names) <= FULL_JOINT_LIMIT:
        rows = _joint_full(scm, ctx, do, names)
        out = {}
        keep_idx = [names.index(v) for v in keep]
        for values, p in rows.items():
            key = tuple(values[i] for i in keep_idx)
            out[key] = out.get(key, 0) + p
        return out
    return _joint_ve(scm, ctx, do, names, tuple(keep))


def selected_kernel_reference(scm, do_vars=(), condition_selection=True,
                              outputs=None):
    """Reference for ``oracle.interventional_kernel``: one integer joint per
    context assignment from ``_selected_marginal``, normalized in
    Fractions."""
    do_vars = tuple(sorted(set(do_vars)))
    if outputs is None:
        outputs = [v for v in scm.outputs if v not in do_vars]
    outputs = tuple(sorted(set(outputs)))
    context = tuple(scm.inputs) + do_vars
    table = {}
    for ctx_vals in _assignments(scm.domains, context):
        a = dict(zip(context, ctx_vals))
        ctx = {v: a[v] for v in scm.inputs}
        do = {v: a[v] for v in do_vars}
        weights = _selected_marginal(scm, ctx, do, outputs, condition_selection)
        total = sum(weights.values())
        if total == 0:
            raise ScmError(
                f"selection event has probability zero in context {a}"
            )
        table[ctx_vals] = {k: Fraction(p, total) for k, p in weights.items()}
    return Kernel(context, outputs, dict(scm.domains), table)


def ci_test_reference(k: Kernel, A, B, C=()) -> bool:
    """Reference for ``oracle.ci_test``: Fraction margins of the kernel
    marginalized onto A, B and C, checked over every pair of margins."""
    A, B, C = set(A), set(B), set(C)
    joint = marginalize_reference(k, set(k.outputs) - (A | B | C))
    idx = {v: joint.outputs.index(v) for v in joint.outputs}
    for row in joint.table.values():
        pc, pac, pbc, pabc = {}, {}, {}, {}
        for out, p in row.items():
            kc = tuple(out[idx[v]] for v in sorted(C))
            ka = tuple(out[idx[v]] for v in sorted(A))
            kb = tuple(out[idx[v]] for v in sorted(B))
            pc[kc] = pc.get(kc, Fraction(0)) + p
            pac[(ka, kc)] = pac.get((ka, kc), Fraction(0)) + p
            pbc[(kb, kc)] = pbc.get((kb, kc), Fraction(0)) + p
            pabc[(ka, kb, kc)] = pabc.get((ka, kb, kc), Fraction(0)) + p
        for (ka, kc1), pa in pac.items():
            for (kb, kc2), pb in pbc.items():
                if kc1 == kc2 and pabc.get((ka, kb, kc1), 0) * pc[kc1] != pa * pb:
                    return False
    return True


class ReferenceDistributionOracle(IndependenceOracle):
    """Reference for ``fci.distribution_oracle``: the same queries answered
    on the reference kernel with ``ci_test_reference`` and, for an input
    against outputs, Fraction conditionals compared across input values."""

    def __init__(self, scm):
        super().__init__()
        self.kernel = interventional_kernel_reference(scm)
        self.inputs, self.outputs = self.kernel.context, self.kernel.outputs

    def _query(self, A, B, C):
        I = set(self.inputs)
        C = C - I
        A, B = A - C, B - C
        if A & B:
            return False
        if not A or not B:
            return True
        if A & I and B & I:
            raise ValueError("two input sets")
        if B & I:
            A, B = B, A
        if not A & I:
            return ci_test_reference(self.kernel, A, B, C)
        if A - I:
            raise ValueError("mixed input/output set")
        return self._input_invariant(A, sorted(B), sorted(C))

    def _input_invariant(self, ins, tgt, giv):
        k = self.kernel
        seen = {}
        for ctx, row in k.table.items():
            joint = {}
            for vals, p in row.items():
                a = dict(zip(k.outputs, vals))
                sub = joint.setdefault(tuple(a[v] for v in giv), {})
                t = tuple(a[v] for v in tgt)
                sub[t] = sub.get(t, Fraction(0)) + p
            rest = tuple(x for v, x in zip(k.context, ctx) if v not in ins)
            for key, sub in joint.items():
                tot = sum(sub.values())
                dist = {t: p / tot for t, p in sub.items()}
                if seen.setdefault((rest, key), dist) != dist:
                    return False
        return True


# -- kernel arithmetic references: the Fraction bodies of the integer rows --


def marginalize_reference(k: Kernel, over) -> Kernel:
    """Reference for ``Kernel.marginalize``: Fraction sums per cell."""
    over = set(over)
    if not over <= set(k.outputs):
        raise ScmError("marginalizing variables outside the outputs")
    keep = tuple(v for v in k.outputs if v not in over)
    idx = [k.outputs.index(v) for v in keep]
    table = {}
    for ctx, row in k.table.items():
        new = {}
        for out, p in row.items():
            key = tuple(out[i] for i in idx)
            new[key] = new.get(key, Fraction(0)) + p
        table[ctx] = new
    return Kernel(k.context, keep, k.domains, table)


def condition_reference(k: Kernel, on, zero_rows="error") -> Kernel:
    """Reference for ``Kernel.condition``: Fraction division per cell."""
    on = tuple(sorted(set(on)))
    if not set(on) <= set(k.outputs):
        raise ScmError("conditioning variables outside the outputs")
    keep = tuple(v for v in k.outputs if v not in set(on))
    on_idx = [k.outputs.index(v) for v in on]
    keep_idx = [k.outputs.index(v) for v in keep]
    table = {}
    for ctx, row in k.table.items():
        groups = {}
        for out, p in row.items():
            key = tuple(out[i] for i in on_idx)
            groups.setdefault(key, {})[tuple(out[i] for i in keep_idx)] = p
        for on_val in itertools.product(*[range(k.domains[v]) for v in on]):
            sub = groups.get(on_val, {})
            total = sum(sub.values(), Fraction(0))
            full_ctx = ctx + on_val
            if total == 0:
                if zero_rows == "uniform":
                    size = 1
                    for v in keep:
                        size *= k.domains[v]
                    table[full_ctx] = {
                        out: Fraction(1, size) for out in itertools.product(
                            *[range(k.domains[v]) for v in keep])
                    }
                    continue
                raise ScmError(
                    f"conditioning on probability-zero context {full_ctx}")
            table[full_ctx] = {o: p / total for o, p in sub.items()}
    return Kernel(k.context + on, keep, k.domains, table)


def kernel_product_reference(kernels, domains, zero_rows="error") -> Kernel:
    """Reference for ``oracle.kernel_product``: a dict assignment and a
    ``Kernel.value`` call per factor and cell, in Fractions."""
    outputs = []
    for k in kernels:
        for v in k.outputs:
            if v in outputs:
                raise ScmError(f"output {v} repeated across factors")
            outputs.append(v)
    outputs = tuple(sorted(outputs))
    context = tuple(sorted({v for k in kernels for v in k.context}
                           - set(outputs)))
    table = {}
    for ctx in itertools.product(*[range(domains[v]) for v in context]):
        row = {}
        for out in itertools.product(*[range(domains[v]) for v in outputs]):
            a = dict(zip(context + outputs, ctx + out))
            p = Fraction(1)
            for k in kernels:
                p *= k.value(a)
                if p == 0:
                    break
            if p:
                row[out] = p
        table[ctx] = row
    for ctx, row in table.items():
        total = sum(row.values(), Fraction(0))
        if total != 1 and not (zero_rows == "uniform" and total == 0):
            raise ScmError(f"product row {ctx} sums to {total}")
    return Kernel(context, outputs, domains, table)


def kernels_agree_reference(got: Kernel, want: Kernel) -> bool:
    """Reference for ``oracle.kernels_agree``: the Fraction tables compared
    cell by cell."""
    if set(got.outputs) != set(want.outputs):
        return False
    if not set(want.context) <= set(got.context):
        return False
    key_ctx = _projection([got.context.index(v) for v in want.context])
    key_out = _projection([got.outputs.index(v) for v in want.outputs])
    for ctx in _assignments(got.domains, got.context):
        row, want_row = got.table[ctx], want.table[key_ctx(ctx)]
        for out in _assignments(got.domains, got.outputs):
            if row.get(out, 0) != want_row.get(key_out(out), 0):
                return False
    return True


def kernel_compose_reference(outer, inner, over, domains) -> Kernel:
    """Reference for ``oracle.kernel_compose``."""
    joint = kernel_product_reference([outer, inner], domains)
    return marginalize_reference(joint, over)


def eval_estimand_reference(e, qv: Kernel, scm=None, zero_rows="error"):
    """Reference for ``oracle.eval_estimand``: every node evaluated to a
    Fraction kernel with the references above, and base leaves other than
    Q[V] taken from ``interventional_kernel_reference``."""
    memo = {}

    def ev(node) -> Kernel:
        if id(node) not in memo:
            memo[id(node)] = (node, ev_node(node))
        return memo[id(node)][1]

    def ev_node(node) -> Kernel:
        if isinstance(node, idf.Base):
            if set(node.over) == set(qv.outputs):
                return qv
            if scm is not None:
                rest = [v for v in scm.outputs if v not in node.over]
                return interventional_kernel_reference(scm, rest,
                                                       sorted(node.over))
            raise ScmError(
                f"base kernel over {node.over} is not the observed kernel")
        if isinstance(node, idf.Marginalize):
            return marginalize_reference(ev(node.child), node.over)
        if isinstance(node, idf.Condition):
            return condition_reference(ev(node.child), node.on, zero_rows)
        if isinstance(node, idf.OrderedProduct):
            return kernel_product_reference([ev(c) for c in node.children],
                                            qv.domains, zero_rows)
        if isinstance(node, idf.BoxProduct):
            left, right = ev(node.left), ev(node.right)
            factors, seen = [], []
            for bucket in node.bucket_order:
                if set(bucket) <= set(left.outputs):
                    src = left
                elif set(bucket) <= set(right.outputs):
                    src = right
                else:
                    raise ScmError(f"bucket {bucket} not inside a region")
                given = tuple(sorted(set(seen) & set(src.outputs)))
                factor = marginalize_reference(
                    src, set(src.outputs) - set(bucket) - set(given))
                if given:
                    factor = condition_reference(factor, given, zero_rows)
                factors.append(factor)
                seen.extend(bucket)
            return kernel_product_reference(factors, qv.domains, zero_rows)
        if isinstance(node, idf.Compose):
            return kernel_compose_reference(ev(node.outer), ev(node.inner),
                                            node.over, qv.domains)
        raise ScmError(f"unknown estimand node {node!r}")

    return ev(e)


def _assemble(C, V, q, p, dv=False):
    """Estimand of the kernel over C, or the FailCertificate of its first
    stuck leaf, left to right.  C splits into the region of its first
    eligible bucket and the region of the rest; each part is assembled in
    turn and the two are joined by the assembly product along the bucket
    order of C.  A C that does not split is a leaf, fixed down from V.  dv
    reads every directed edge as visible."""
    for bu in buckets(p, C):
        if frozenset(bu) == C:
            continue
        C1 = frozenset(region(p, C, bu, dv))
        if C1 == C:
            continue
        C2 = frozenset(region(p, C, C - C1, dv))
        if C2 == C:
            continue
        left = _assemble(C1, V, q, p, dv)
        if isinstance(left, idf.FailCertificate):
            return left
        right = _assemble(C2, V, q, p, dv)
        if isinstance(right, idf.FailCertificate):
            return right
        order = tuple(tuple(b) for b in bucket_topological_order(p, C))
        return idf.BoxProduct(left, right, C, order)
    return _fix_leaf(C, V, q, p, dv)


def _fix_leaf(R, V, q, p, dv=False):
    """Iterated fixing of removable buckets, shrinking V down to the leaf
    label R; returns the estimand or a FailCertificate."""
    T = set(V)
    est = q
    trace = []
    while T != set(R):
        sub = p.induced(T)
        pick = None
        for bu in buckets(p, T):
            bset = set(bu)
            if not bset <= T - set(R):
                continue
            pode = sub.possible_descendants(bset)
            if pode.intersection(pc_component(p, T, bset, dv)) <= bset:
                pick = bu
                break
        if pick is None:
            return idf.FailCertificate(
                C=frozenset(R), T=frozenset(T), trace=tuple(trace)
            )
        dplus = frozenset(sub.possible_descendants(set(pick)))
        dminus = (frozenset(T) - dplus) | set(pick)
        est = idf.OrderedProduct(
            (
                idf.Condition(est, tuple(sorted(dminus))),
                idf.Marginalize(est, dplus),
            )
        )
        trace.append(tuple(pick))
        T -= set(pick)
    return est


def sidp_reference(p, A, B, cls=None):
    """Reference for ``identify.sidp``: the same fixing and region split in
    the other order.  D is split into regions first, and every leaf is
    fixed down from all of V (``_assemble``, ``_fix_leaf``), so a leaf
    reuses none of the fixing done for another."""
    p, cls = idf._reading(p, cls)
    _check_valid(p, cls)
    A = frozenset(A)
    V = frozenset(p.outputs)
    D = idf.l0_sets(p, A, B)
    res = _assemble(D, V, idf.Base(V), p, cls is GraphClass.ADMG)
    if isinstance(res, idf.FailCertificate) or D == A:
        return res
    return idf.Marginalize(res, D - A)


def scidp_reference(p, A, B, C, cls=None):
    """Reference for ``identify.scidp``: each calculus test written out as
    its own manipulation and id-separation query, one bucket at a time.
    Slices of B move into the conditioning set while the exchange rule
    allows it, slices of the conditioning set move back where it allows
    it, and sidp runs on what remains."""
    p, cls = idf._reading(p, cls)
    _check_valid(p, cls)
    A, B, C = frozenset(A), frozenset(B), frozenset(C)
    idf._disjoint(A, B, C)
    V = set(p.outputs)
    if not A | B | C <= V:
        raise ValueError("A, B and C must consist of output nodes")
    part = buckets(p, V)
    D = idf._reduction_set(p, A | C, B)
    Bc, Cc = set(B), set(C)

    while True:
        pick = None
        for bu in part:
            bset = set(bu)
            if bset & D and not bset <= D and bset & Bc:
                pick = bset
                break
        if pick is None:
            break
        Bt = pick & Bc
        mg = manipulate(p, sorted(Bt), sorted(Bc - Bt), cls)
        regimes = [regime_id(v) for v in sorted(Bt)]
        if not id_separated(mg, sorted(A), regimes, sorted(Bc | Cc)):
            return idf.ExchangeFail(
                bucket=frozenset(Bt), B=frozenset(Bc), C=frozenset(Cc)
            )
        Bc -= Bt
        Cc |= Bt
        D = idf._reduction_set(p, A | Cc, Bc)

    while True:
        pick = None
        for bu in part:
            Ci = set(bu) & Cc
            if not Ci:
                continue
            mg = manipulate(p, sorted(Ci), sorted(Bc), cls)
            regimes = [regime_id(v) for v in sorted(Ci)]
            if id_separated(mg, sorted(A), regimes, sorted(Bc | Cc)):
                pick = Ci
                break
        if pick is None:
            break
        Bc |= pick
        Cc -= pick

    res = idf.sidp(p, A | Cc, frozenset(Bc), cls)
    if isinstance(res, idf.FailCertificate) or not Cc:
        return res
    return idf.Condition(res, tuple(sorted(Cc)))


def rule_one_reference(g, cls, A, B, C=(), D=()) -> bool:
    """Reference for calculus rule 1 on g read as cls (``identify._rule``):
    A id-separated from B given C and D after the hard manipulation of D
    alone, with no regime node."""
    mg = manipulate(g, (), D, cls)
    return id_separated(mg, sorted(A), sorted(B), sorted(set(C) | set(D)))


def rule_reference(g, cls, rule, A, B, C, D, checked=False) -> bool:
    """Reference for ``identify._rule``: the same rule on the graph built
    by soft manipulation of the soft targets and hard manipulation of D,
    searched without dead ends."""
    soft = B if rule != 1 else B.intersection(g.outputs) - D
    mg = manipulate(g, soft, D, cls, checked=checked)
    regimes = {regime_id(v) for v in soft}
    sets = ((B, C | D | regimes) if rule == 1 else
            (regimes, B | C | D if rule == 2 else C | D))
    return _id_search(mg, A, *sets, checked)[1] is None


def adjustment_premises_reference(g, cls, A, B, C, D, J0, J1, H) -> bool:
    """Reference for the three premises of ``identify.adjustment_check`` on
    g read as cls: soft manipulation of B and hard manipulation of D as
    one graph, searched without dead ends."""
    A, B, C, D, J0, J1, H = (frozenset(s) for s in (A, B, C, D, J0, J1, H))
    J = J0 | J1
    mg = manipulate(g, sorted(B), sorted(D), cls)
    regimes = [regime_id(v) for v in sorted(B)]
    return (
        id_separated(mg, sorted(J0 | H), regimes, sorted(C | D))
        and id_separated(
            mg, sorted(A), sorted(J1) + regimes, sorted(B | C | D | J0 | H)
        )
        and id_separated(mg, sorted(H), sorted(B),
                         sorted(set(regimes) | C | D | J))
    )


def rule_equality(scm, rule, A, B, C, D):
    """The kernel identity a calculus rule asserts, checked exactly."""
    A, B, C, D = (sorted(s) for s in (A, B, C, D))
    if rule == 1:
        left = interventional_kernel(
            scm, D, outputs=A + B + C).condition(B + C)
        right = interventional_kernel(scm, D, outputs=A + C).condition(C)
        return kernels_agree(left, right)
    if rule == 2:
        left = interventional_kernel(
            scm, B + D, outputs=A + C).condition(C)
        right = interventional_kernel(
            scm, D, outputs=A + B + C).condition(B + C)
        return left == right
    left = interventional_kernel(scm, B + D, outputs=A + C).condition(C)
    right = interventional_kernel(scm, D, outputs=A + C).condition(C)
    return kernels_agree(left, right)


def embed_front_door(rng: random.Random, g: MixedGraph):
    """g with the front-door gadget z --> y --> x, z <-> x laid over three
    of its outputs, and no other edge among those three; returns the graph,
    x and z.  The three are drawn at random and ordered by their number of
    ancestors, so no directed cycle arises.  For A = {x} and B = {z}, z is
    not removable (its pc-component holds its descendant x), so sidp gets
    stuck before it reaches {x, y} and has to split the target by region."""
    z, y, x = sorted(rng.sample(sorted(g.outputs), 3),
                     key=lambda v: len(g.ancestors({v})))
    drop = [e for e in g.edges if {e.a, e.b} <= {x, y, z}]
    gadget = [Edge(z, TAIL, y, ARROW), Edge(y, TAIL, x, ARROW),
              Edge(z, ARROW, x, ARROW)]
    return g.edit(drop=drop, add=gadget), x, z


# -- manipulation and id-separation: references for the one-build forms -----


def as_manipulated(g, cls=None) -> ManipulatedGraph:
    """g as a manipulation record: g itself, or a plain graph with no
    targets, manipulated as cls or else as its inferred class."""
    if isinstance(g, ManipulatedGraph):
        return g
    return ManipulatedGraph(graph=g, base_class=cls or _infer_class(g))


def _unknown_first(g, nodes):
    """Raise KeyError for the first node, in sorted order, that g lacks."""
    graph = g.graph if isinstance(g, ManipulatedGraph) else g
    for v in sorted(set(nodes)):
        if not graph.has_node(v):
            raise KeyError(v)


def _soft_manipulate_reference(g, D, cls=None) -> ManipulatedGraph:
    """Soft manipulation as its own graph build."""
    cls = as_class(cls)
    _unknown_first(g, D)
    mg = as_manipulated(g, cls)
    if cls is None:
        cls = mg.base_class
    _check_unmanipulated(mg, cls)
    graph = mg.graph
    new_soft = list(mg.soft_targets)
    new_nodes, new_edges = {}, []
    for d in sorted(set(D)):
        if graph.kind(d) is not OUTPUT:
            raise ValueError(f"soft target {d} is not an output node")
        if d in new_soft:
            continue
        new_nodes[regime_id(d)] = INPUT
        new_edges.extend(_soft_edges(graph, d, cls))
        new_soft.append(d)
    return ManipulatedGraph(
        graph=graph.edit(kinds=new_nodes, add=new_edges),
        hard_targets=mg.hard_targets,
        soft_targets=tuple(sorted(new_soft)),
        base_class=mg.base_class,
    )


def _hard_manipulate_reference(g, T, cls=None) -> ManipulatedGraph:
    """Hard manipulation as its own graph build."""
    cls = as_class(cls)
    _unknown_first(g, T)
    mg = as_manipulated(g, cls)
    if cls is None:
        cls = mg.base_class
    _check_unmanipulated(mg, cls)
    graph = mg.graph
    T = sorted(set(T))
    for t in T:
        if graph.kind(t) not in (INPUT, OUTPUT):
            raise ValueError(f"hard target {t} is not an input or output node")
    inputs = set(graph.inputs)
    tset = set(T)
    non_input_targets = tset - inputs
    fixed = tset | inputs
    gone = set()
    add = set()
    for e in graph.edges:
        for x, y in ((e.a, e.b), (e.b, e.a)):
            if y in non_input_targets and e.mark_at(y) is ARROW:
                gone.add(e)
        if cls in (GraphClass.MAG, GraphClass.PAG):
            if e.a in fixed and e.b in fixed:
                gone.add(e)
        if cls is GraphClass.PAG and e not in gone:
            for x, y in ((e.a, e.b), (e.b, e.a)):
                if (
                    y in non_input_targets
                    and e.mark_at(y) is CIRCLE
                    and x not in tset
                    and x not in inputs
                    and graph.kind(x) is OUTPUT
                ):
                    gone.add(e)
                    add.add(Edge(x, e.mark_at(x), y, TAIL))
    return ManipulatedGraph(
        graph=graph.edit(kinds=dict.fromkeys(T, INPUT), drop=gone, add=add),
        hard_targets=tuple(sorted(set(mg.hard_targets) | tset)),
        soft_targets=mg.soft_targets,
        base_class=mg.base_class,
    )


def manipulate_reference(g, D=(), T=(), cls=None) -> ManipulatedGraph:
    """Reference for ``manipulate.manipulate``: soft manipulation on D and
    then hard manipulation on T, each as its own graph build.  An unknown
    node comes before every other error; a hard target may be a regime
    node that the soft step makes."""
    cls = as_class(cls)
    _unknown_first(g, set(T) - {regime_id(d) for d in D} | set(D))
    if set(D) & set(T):
        raise ValueError(f"overlapping targets {sorted(set(D) & set(T))}")
    mg = as_manipulated(g, cls)
    mg = _soft_manipulate_reference(mg, D, cls)
    mg = _hard_manipulate_reference(mg, T, cls)
    return mg


def open_walk_reference(g, A, B, C):
    """Reference for ``separate.open_walk``: the ancestors and possible
    ancestors of C are computed before the walk search starts."""
    graph = g.graph if isinstance(g, ManipulatedGraph) else g
    regimes = set(g.regime_ids) if isinstance(g, ManipulatedGraph) else set()
    cond = set(C)
    targets = set(B) | set(graph.inputs)
    anc_cond = graph.ancestors(cond)
    cond_v = {c for c in cond if graph.has_node(c) and graph.kind(c) is OUTPUT}
    poan_cond = graph.possible_ancestors(cond_v)

    def passes(prev, m_in, v, m_out, w, _m_w):
        if m_in is TAIL or m_out is TAIL:
            return v not in cond
        if m_in is CIRCLE and m_out is CIRCLE:
            return v not in cond and not graph.adjacent(prev, w)
        if m_in is ARROW and m_out is ARROW:
            if prev in regimes or w in regimes or v in regimes:
                return v in poan_cond
            return v in anc_cond
        if m_in is CIRCLE and m_out is ARROW:
            return prev in regimes and v in poan_cond
        if m_in is ARROW and m_out is CIRCLE:
            return w in regimes and v in poan_cond
        return False

    starts = [(a, None) for a in sorted(A) if a not in cond]
    return _trace(*_walk(graph, starts, passes, targets - cond))


def orient_copag_reference(p: MixedGraph, protect=()):
    """The orientation ``identify._orient_copag`` replaced, kept as its
    reference.  A maximal ancestral orientation of the circle marks:
    partially oriented edges become directed or undirected by their one
    fixed mark, and plain circle components become a source-first acyclic
    order that adds no arrowheads at the protected nodes.  Raises
    ValueError where it makes a ``--o`` edge undirected next to an
    arrowhead at its circle end."""
    protect = list(protect)
    fixed = []
    circle_pairs = []
    for e in p.edges:
        ma, mb = e.mark_a, e.mark_b
        if CIRCLE not in (ma, mb):
            fixed.append(e)
        elif ARROW in (ma, mb):
            # one arrowhead: the circle end becomes a tail
            fixed.append(
                Edge(
                    e.a,
                    TAIL if ma is CIRCLE else ma,
                    e.b,
                    TAIL if mb is CIRCLE else mb,
                )
            )
        elif TAIL in (ma, mb):
            fixed.append(Edge(e.a, TAIL, e.b, TAIL))
        else:
            circle_pairs.append(e)

    head_at = {v: False for v in p.node_ids}
    for e in p.edges:
        for v in (e.a, e.b):
            if e.mark_at(v) is ARROW:
                head_at[v] = True
    plain = [
        e for e in circle_pairs if not head_at[e.a] and not head_at[e.b]
    ]
    rest = [e for e in circle_pairs if e not in plain]
    fixed.extend(Edge(e.a, TAIL, e.b, TAIL) for e in plain)

    # orient the remaining circle components by a maximum-cardinality
    # search started at a protected node: edges point from earlier to
    # later in the visit order, which avoids new unshielded colliders
    adj = {}
    for e in rest:
        adj.setdefault(e.a, set()).add(e.b)
        adj.setdefault(e.b, set()).add(e.a)
    order = {}
    unvisited = set(adj)
    weight = {v: 0 for v in adj}
    rank = 0
    while unvisited:
        cand = [v for v in protect if v in unvisited]
        if cand:
            v = cand[0]
        else:
            top = max(weight[v] for v in unvisited)
            v = min(u for u in unvisited if weight[u] == top)
        order[v] = rank
        rank += 1
        unvisited.discard(v)
        for w in adj[v]:
            if w in unvisited:
                weight[w] += 1
    for e in rest:
        x, y = (e.a, e.b) if order[e.a] < order[e.b] else (e.b, e.a)
        fixed.append(Edge(x, TAIL, y, ARROW))
    m = MixedGraph(p.nodes, fixed)
    if validate(m, GraphClass.MAG):
        raise ValueError("could not orient the graph into a valid MAG")
    return m


def possible_d_sep_reference(adj, marks, x):
    """Reference for ``fci._possible_d_sep``, the search it replaced: the
    nodes other than x reached from x along paths whose every inner node
    is a collider on the path or the middle of a triangle, by depth-first
    search over directed edges.  adj maps each node to its neighbours, and
    marks[(u, v)] is the mark at v on the edge u - v."""
    out = set()
    frontier = [(x, None)]
    seen = set()
    while frontier:
        v, prev = frontier.pop()
        for w in adj[v]:
            if w == x:
                continue
            if prev is not None:
                collider = (
                    marks[(prev, v)] is ARROW and marks[(w, v)] is ARROW
                )
                triangle = w in adj[prev]
                if not (collider or triangle):
                    continue
            if (v, w) in seen:
                continue
            seen.add((v, w))
            out.add(w)
            frontier.append((w, v))
    return out


def circle_paths_reference(o, i, j):
    """Reference for ``fci._Orienter._circle_paths`` on the orienter o: the
    same depth-first search as a recursion, one level per path node."""
    out = []

    def step(path):
        v = path[-1]
        for w in sorted(o.adj[v]):
            if w in path or w == j and len(path) < 3:
                continue
            if not (o.mark(w, v) is CIRCLE and o.mark(v, w) is CIRCLE):
                continue
            if len(path) >= 2 and w in o.adj[path[-2]]:
                continue  # covered triple
            if w == j:
                out.append(tuple(path) + (j,))
                continue
            step(path + [w])

    step([i])
    return out


def uncovered_pd_paths_reference(o, i):
    """Reference for ``fci._Orienter._uncovered_pd_paths`` on the orienter
    o: the same depth-first search as a recursion."""
    out = set()

    def step(path):
        v = path[-1]
        for w in sorted(o.adj[v]):
            if w in path or o.mark(w, v) is ARROW:
                continue
            if len(path) >= 2 and w in o.adj[path[-2]]:
                continue
            out.add((path[1] if len(path) > 1 else w, w))
            step(path + [w])

    step([i])
    return out


def _bfs_path(b, starts, step, goal):
    """A shortest path b, w, ... ending in goal, with w in starts and each
    further node in step(previous), as a node list; None if none."""
    parent = {w: b for w in starts}
    queue = list(parent)
    for v in queue:  # breadth first: the loop also visits what it appends
        if v in goal:
            path = [v]
            while path[-1] != b:
                path.append(parent[path[-1]])
            return path[::-1]
        for w in step(v):
            if w != b and w not in parent:
                parent[w] = v
                queue.append(w)
    return None


def anterior_violation_reference(p: MixedGraph, A, B):
    """Reference for ``identify._anterior_violation``: a breadth-first
    search over nodes, not walk states."""
    A, B = set(A), set(B)
    blocked = B | set(p.inputs)

    def step(v):
        return [w for w, mv, _mw, _e in p.edges_at(v)
                if mv is not ARROW and w not in blocked]

    for b in sorted(B):
        starts = [
            w for w, mb, mw, _e in p.edges_at(b)
            if mb is not ARROW and w not in blocked
            and not (mb is TAIL and mw is ARROW and is_visible(p, b, w))
        ]
        path = _bfs_path(b, starts, step, A)
        if path is not None:
            return path
    return None


def confounded_child_reference(p: MixedGraph, A, B):
    """Reference for ``identify._confounded_child``: a breadth-first
    search over nodes, not walk states."""
    D = idf._reduction_set(p, A, B)

    def spouses(v):
        return [w for w, mv, mw, _e in p.edges_at(v)
                if mv is ARROW and mw is ARROW and w in D]

    for b in sorted(B):
        children = {w for w, mb, mw, _e in p.edges_at(b)
                    if mb is TAIL and mw is ARROW and w in D}
        path = _bfs_path(b, spouses(b), spouses, children)
        if path is not None:
            return path
    return None


def discriminating_paths_reference(g: MixedGraph, y, z):
    """Reference for ``graph.discriminating_path``, the enumerator it
    replaced: all paths <a, q1..qk, y, z> (k >= 1) where a is non-adjacent
    to z, every q_i is a collider on the path and a parent of z, the path
    starts with an arrowhead into q1, and y is adjacent to both q_k and z;
    sorted."""
    if not g.adjacent(y, z):
        return []
    pa_z = g.parents(z)
    results = []

    # build backwards from y: chains q_k, ..., q_1 of colliders in Pa(z)
    def extend(chain):
        qk = chain[0]
        for w, mq, mw, _e in g.edges_at(qk):
            if w in chain or w in (y, z) or mq is not ARROW:
                continue
            if not g.adjacent(w, z):
                results.append(tuple([w] + chain + [y, z]))
            if mw is ARROW and w in pa_z:
                extend([w] + chain)

    for q, _my, mq, _e in g.edges_at(y):
        if q != z and mq is ARROW and q in pa_z:
            extend([q])
    return sorted(set(results))


def _provisional_colliders(self):
    """Stage two's provisional marks in ``fci.skeleton`` as it computed
    them by hand before it used ``_Orienter.r0``: tails at inputs, and
    arrowheads into j at each unshielded i - j - k with j outside the
    separating set of i and k."""
    self.marks = {(x, y): TAIL if y in self.I else CIRCLE
                  for x in self.nodes for y in self.adj[x]}
    for j in self.nodes:
        if j in self.I:
            continue
        for i, k in itertools.combinations(sorted(self.adj[j]), 2):
            if k in self.adj[i]:
                continue
            ss = self.sepsets.get(frozenset((i, k)))
            if ss is not None and j not in ss:
                self.marks[(i, j)] = ARROW
                self.marks[(k, j)] = ARROW


class _ReferenceOrienter(fci_mod._Orienter):
    def r4(self):
        """R4 as it was before ``graph.discriminating_path``: over every
        path the enumerator lists, until one changes a mark."""
        hit = False
        g = self.graph()
        for j in self.nodes:
            for i in sorted(self.adj[j]):
                if self.mark(i, j) is not CIRCLE:
                    continue
                for path in discriminating_paths_reference(g, j, i):
                    k, q1 = path[0], path[-3]
                    why = "discriminating path " + "-".join(path)
                    if self.in_sepset(j, i, k):
                        hit |= self.set(i, j, TAIL, "R4", why)
                        hit |= self.set(j, i, ARROW, "R4", why)
                    else:
                        hit |= self.set(i, j, ARROW, "R4", why)
                        hit |= self.set(j, i, ARROW, "R4", why)
                        hit |= self.set(j, q1, ARROW, "R4", why)
                        hit |= self.set(q1, j, ARROW, "R4", why)
                    if hit:
                        return True
        return hit


def fci_reference(oracle, trace=None):
    """Reference for ``fci.fci`` on the oracle's own nodes, with stage
    two's collider marks by hand and R4 over the discriminating-path
    enumerator.  Returns the PAG and the separating sets."""
    with mock.patch.object(fci_mod._Orienter, "r0", _provisional_colliders):
        sk, sepsets = fci_mod.skeleton(oracle, oracle.inputs, oracle.outputs)
    return _ReferenceOrienter(sk, sepsets, sk.inputs, trace).run(), sepsets


def skeleton_reference(oracle, I, V):
    """Reference for ``fci.skeleton``: the adjacency search as it was before
    it kept a table of answers and before stage two skipped the subsets of
    the stage-one adjacency.  Every subset is handed to ``oracle.query``,
    in the order of the search."""
    I, V = sorted(set(I)), sorted(set(V))
    iset = set(I)
    nodes = sorted(iset | set(V))
    adj = {v: set() for v in nodes}
    for x, y in itertools.combinations(nodes, 2):
        if x in iset and y in iset:
            continue
        adj[x].add(y)
        adj[y].add(x)
    sepsets = {}

    def try_separate(x, y, pool, sizes):
        cands = sorted(pool - {x, y} - iset)
        for size in sizes:
            for C in itertools.combinations(cands, size):
                if oracle.query({x}, {y}, C):
                    adj[x].discard(y)
                    adj[y].discard(x)
                    sepsets[frozenset((x, y))] = frozenset(C)
                    return

    depth = 0
    while True:
        pending = False
        for x in nodes:
            for y in sorted(adj[x]):
                if len((adj[x] - {y}) - iset) < depth:
                    continue
                pending = True
                try_separate(x, y, adj[x], [depth])
        if not pending:
            break
        depth += 1

    kinds = {v: INPUT if v in iset else OUTPUT for v in nodes}

    def circles():
        return MixedGraph(kinds, [Edge(u, CIRCLE, w, CIRCLE)
                                  for u in nodes for w in adj[u] if u < w])

    colliders = fci_mod._Orienter(circles(), sepsets, iset)
    colliders.r0()
    marks = colliders.marks
    built = None
    for x in nodes:
        if built != len(sepsets):
            built = len(sepsets)
            g = MixedGraph(kinds, [Edge(u, marks[(w, u)], w, marks[(u, w)])
                                   for u in nodes for w in adj[u] if u < w])
        pds = fci_mod._possible_d_sep(g, x)
        for y in sorted(adj[x]):
            try_separate(x, y, pds, range(len(nodes)))
    return circles(), sepsets


def graph_of_reference(scm: DiscreteSCM) -> MixedGraph:
    """Reference for ``oracle.graph_of``, the projection it replaced:
    functional parents become directed edges, each pair of children of a
    latent becomes a bidirected edge, and the latents are dropped."""
    keep = {v: k for v, k in scm.kinds.items() if k is not LATENT}
    edges = set()
    children = {}
    for v, ps in scm.parents.items():
        for p in ps:
            if scm.kinds[p] is LATENT:
                children.setdefault(p, []).append(v)
            elif scm.kinds[v] is not LATENT:
                edges.add(Edge(p, TAIL, v, ARROW))
    for kids in children.values():
        for a, b in itertools.combinations(sorted(kids), 2):
            edges.add(Edge(a, ARROW, b, ARROW))
    return MixedGraph(keep, edges)

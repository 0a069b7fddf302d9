"""Exact discrete structural-causal-model engine.

Everything in this module is exact; there is no floating point.  Each
model scales every table to integer weights once (per variable, by the lcm
of its denominators), so the joint weights of one context share a common
scale and are summed as integers; kernels hold fractions.Fraction values
in lowest terms.  CI queries read integer margins of a kernel: its rows
are scaled to integers, and each margin summed, once per kernel and
cached on it.  Selection variables are binary and the selection event is
"value = 1" for every one of them.

Two independent computation paths produce interventional distributions: a
full-joint enumeration (used while the state space is small) and a
variable-elimination path.  The test suite cross-checks them against each
other so either can serve as the reference.
"""

from __future__ import annotations

import itertools
import math
import operator
import random
from dataclasses import dataclass, field
from fractions import Fraction

from .graph import (
    ARROW,
    INPUT,
    LATENT,
    OUTPUT,
    SELECTION,
    TAIL,
    Edge,
    GraphClass,
    MixedGraph,
    NodeKind,
    validate,
)

FULL_JOINT_LIMIT = 1 << 20

_KIND_NAMES = {
    "input": INPUT,
    "output": OUTPUT,
    "latent": LATENT,
    "selection": SELECTION,
}


class ScmError(ValueError):
    pass


@dataclass(frozen=True)
class DiscreteSCM:
    """Finite-domain model: per-variable domain sizes, ordered parent lists
    and exact-rational conditional probability tables.  Input variables
    have no table; they are context for every computed kernel.  ``weights``
    holds each table scaled to integers by the lcm of its denominators."""

    domains: dict
    kinds: dict
    parents: dict
    cpts: dict

    def __post_init__(self):
        self.check()
        # integer tables, outside the dataclass fields (== and repr)
        weights = {}
        for v, rows in self.cpts.items():
            scale = math.lcm(*(p.denominator for row in rows.values() for p in row))
            weights[v] = {
                k: tuple(p.numerator * (scale // p.denominator) for p in row)
                for k, row in rows.items()
            }
        object.__setattr__(self, "weights", weights)

    def check(self):
        for v, n in self.domains.items():
            if n < 2:
                raise ScmError(f"domain of {v} must be at least 2")
            if v not in self.kinds:
                raise ScmError(f"missing kind for {v}")
        for v, kind in self.kinds.items():
            if kind is SELECTION and self.domains[v] != 2:
                raise ScmError(f"selection variable {v} must be binary")
        for v, ps in self.parents.items():
            for p in ps:
                if p not in self.domains:
                    raise ScmError(f"unknown parent {p} of {v}")
                if self.kinds[p] is SELECTION:
                    raise ScmError(f"selection variable {p} has child {v}")
            if self.kinds[v] is LATENT and ps:
                raise ScmError(f"latent variable {v} must be exogenous")
            if self.kinds[v] is INPUT and ps:
                raise ScmError(f"input variable {v} cannot have parents")
        for v in self.domains:
            if self.kinds[v] is INPUT:
                if v in self.cpts:
                    raise ScmError(f"input variable {v} cannot have a table")
                continue
            if v not in self.cpts:
                raise ScmError(f"missing table for {v}")
            ps = self.parents.get(v, ())
            shape = [self.domains[p] for p in ps]
            rows = self.cpts[v]
            want = set(itertools.product(*[range(n) for n in shape]))
            if set(rows) != want:
                raise ScmError(f"table of {v} does not cover parent domain")
            for key, row in rows.items():
                if len(row) != self.domains[v]:
                    raise ScmError(f"table row of {v} has wrong width")
                if sum(row) != 1:
                    raise ScmError(f"table row {key} of {v} sums to {sum(row)}")
        # acyclicity over the functional parent relation (Kahn's algorithm)
        indegree = {v: len(self.parents.get(v, ())) for v in self.domains}
        children = {}
        for v in self.domains:
            for p in self.parents.get(v, ()):
                children.setdefault(p, []).append(v)
        ready = [v for v, n in indegree.items() if n == 0]
        for p in ready:  # grows while it is read
            for v in children.get(p, ()):
                indegree[v] -= 1
                if indegree[v] == 0:
                    ready.append(v)
        if len(ready) < len(self.domains):
            raise ScmError("cyclic parent relation")

    # -- convenience views --------------------------------------------------

    def of_kind(self, kind: NodeKind):
        return tuple(sorted(v for v, k in self.kinds.items() if k is kind))

    @property
    def inputs(self):
        return self.of_kind(INPUT)

    @property
    def outputs(self):
        return self.of_kind(OUTPUT)

    @property
    def latents(self):
        return self.of_kind(LATENT)

    @property
    def selections(self):
        return self.of_kind(SELECTION)


def graph_of(scm: DiscreteSCM) -> MixedGraph:
    """Graph of the model: functional parents become directed edges, a
    shared latent parent becomes a bidirected edge, latents are dropped."""
    keep = {
        v: k for v, k in scm.kinds.items() if k is not LATENT
    }
    edges = set()
    for v, ps in scm.parents.items():
        if scm.kinds[v] is LATENT:
            continue
        for p in ps:
            if scm.kinds[p] is LATENT:
                continue
            edges.add(Edge(p, TAIL, v, ARROW))
    children = {}
    for v, ps in scm.parents.items():
        for p in ps:
            if scm.kinds[p] is LATENT:
                children.setdefault(p, []).append(v)
    for _l, kids in children.items():
        for a, b in itertools.combinations(sorted(kids), 2):
            edges.add(Edge(a, ARROW, b, ARROW))
    g = MixedGraph(keep, edges)
    problems = validate(g, GraphClass.ADMG)
    if problems:
        raise ScmError("graph of model is invalid: " + "; ".join(problems))
    return g


# -- kernels -----------------------------------------------------------------


def _assignments(domains, names):
    return itertools.product(*[range(domains[v]) for v in names])


@dataclass(frozen=True)
class Kernel:
    """Exact conditional distribution table: for every assignment of the
    context variables, a distribution over the output variables."""

    context: tuple
    outputs: tuple
    domains: dict
    table: dict

    def check(self):
        want_ctx = set(_assignments(self.domains, self.context))
        if set(self.table) != want_ctx:
            raise ScmError("kernel does not cover its context domain")
        for ctx, row in self.table.items():
            if sum(row.values()) != 1:
                raise ScmError(f"kernel row {ctx} sums to {sum(row.values())}")

    def value(self, assignment: dict) -> Fraction:
        ctx = tuple(assignment[v] for v in self.context)
        out = tuple(assignment[v] for v in self.outputs)
        return self.table[ctx].get(out, Fraction(0))

    def marginalize(self, over) -> "Kernel":
        over = set(over)
        if not over <= set(self.outputs):
            raise ScmError("marginalizing variables outside the outputs")
        keep = tuple(v for v in self.outputs if v not in over)
        idx = [self.outputs.index(v) for v in keep]
        table = {}
        for ctx, row in self.table.items():
            new = {}
            for out, p in row.items():
                key = tuple(out[i] for i in idx)
                new[key] = new.get(key, Fraction(0)) + p
            table[ctx] = new
        return Kernel(self.context, keep, self.domains, table)

    def condition(self, on, zero_rows: str = "error") -> "Kernel":
        on = tuple(sorted(set(on)))
        if not set(on) <= set(self.outputs):
            raise ScmError("conditioning variables outside the outputs")
        keep = tuple(v for v in self.outputs if v not in set(on))
        new_ctx = self.context + on
        on_idx = [self.outputs.index(v) for v in on]
        keep_idx = [self.outputs.index(v) for v in keep]
        table = {}
        for ctx, row in self.table.items():
            groups = {}
            for out, p in row.items():
                key = tuple(out[i] for i in on_idx)
                groups.setdefault(key, {})[tuple(out[i] for i in keep_idx)] = p
            for on_val in _assignments(self.domains, on):
                sub = groups.get(on_val, {})
                total = sum(sub.values(), Fraction(0))
                full_ctx = ctx + on_val
                if total == 0:
                    if zero_rows == "uniform":
                        size = 1
                        for v in keep:
                            size *= self.domains[v]
                        table[full_ctx] = {
                            out: Fraction(1, size)
                            for out in _assignments(self.domains, keep)
                        }
                        continue
                    raise ScmError(
                        f"conditioning on probability-zero context {full_ctx}"
                    )
                table[full_ctx] = {o: p / total for o, p in sub.items()}
        return Kernel(new_ctx, keep, self.domains, table)

    def _integer_margin(self, names) -> list:
        """(context, {values of names: weight}) for every row: the margin
        over names, a sorted tuple of outputs, in integer weights.  Each
        row is scaled by the lcm of its denominators, so ratios within a
        row are the kernel's; zero cells are left out.  The scaled rows
        and each margin are built once per kernel and kept outside the
        dataclass fields (==, hash and repr)."""
        margins = self.__dict__.get("_margins")
        if margins is None:
            rows = []
            for ctx, row in self.table.items():
                scale = math.lcm(*(p.denominator for p in row.values()))
                rows.append((ctx, {out: p.numerator * (scale // p.denominator)
                                   for out, p in row.items() if p}))
            margins = {self.outputs: rows}
            object.__setattr__(self, "_margins", margins)
        hit = margins.get(names)
        if hit is None:
            key = _projection([self.outputs.index(v) for v in names])
            hit = []
            for ctx, row in margins[self.outputs]:
                m = {}
                for out, w in row.items():
                    k = key(out)
                    m[k] = m.get(k, 0) + w
                hit.append((ctx, m))
            margins[names] = hit
        return hit

    def __eq__(self, other):
        if not isinstance(other, Kernel):
            return NotImplemented
        return set(self.context) == set(other.context) and kernels_agree(
            self, other
        )

    def __hash__(self):
        return hash((frozenset(self.context), frozenset(self.outputs)))


def kernels_agree(got: Kernel, want: Kernel) -> bool:
    """Whether got equals want on every assignment.  got may carry context
    variables that want lacks, and must then not depend on them."""
    if set(got.outputs) != set(want.outputs):
        return False
    if not set(want.context) <= set(got.context):
        return False
    names = got.context + got.outputs
    for ctx in _assignments(got.domains, got.context):
        for out in _assignments(got.domains, got.outputs):
            a = dict(zip(names, ctx + out))
            if got.value(a) != want.value(a):
                return False
    return True


def kernel_product(kernels, domains, zero_rows: str = "error") -> Kernel:
    """Ordered product of conditional kernels: the joint over the union of
    the outputs, each factor reading its context off the full assignment."""
    outputs = []
    for k in kernels:
        for v in k.outputs:
            if v in outputs:
                raise ScmError(f"output {v} repeated across factors")
            outputs.append(v)
    outputs = tuple(sorted(outputs))
    context = tuple(
        sorted(
            {v for k in kernels for v in k.context} - set(outputs)
        )
    )
    table = {}
    for ctx in _assignments(domains, context):
        row = {}
        for out in _assignments(domains, outputs):
            a = dict(zip(context + outputs, ctx + out))
            p = Fraction(1)
            for k in kernels:
                p *= k.value(a)
                if p == 0:
                    break
            if p:
                row[out] = p
        table[ctx] = row
    k = Kernel(context, outputs, domains, table)
    for ctx, row in k.table.items():
        total = sum(row.values(), Fraction(0))
        if total != 1:
            if zero_rows == "uniform" and total == 0:
                continue
            raise ScmError(f"product row {ctx} sums to {total}")
    return k


def kernel_compose(outer: Kernel, inner: Kernel, over, domains) -> Kernel:
    """Composition: sum over the shared variables of outer * inner."""
    over = tuple(sorted(set(over)))
    joint = kernel_product([outer, inner], domains)
    return joint.marginalize(over)


# -- distributions -----------------------------------------------------------


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


def interventional_kernel(
    scm: DiscreteSCM,
    do_vars=(),
    condition_selection: bool = True,
    outputs=None,
) -> Kernel:
    """P(X_outputs | X_S = 1 || do(X_do_vars), X_I) as an exact kernel with
    the inputs and intervened variables as context."""
    do_vars = tuple(sorted(set(do_vars)))
    for v in do_vars:
        if scm.kinds[v] is not OUTPUT:
            raise ScmError(f"cannot intervene on non-output variable {v}")
    if outputs is None:
        outputs = tuple(v for v in scm.outputs if v not in do_vars)
    else:
        outputs = tuple(sorted(set(outputs)))
        bad = set(outputs) & set(do_vars)
        if bad:
            raise ScmError(f"outputs overlap intervention: {sorted(bad)}")
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


def c_factor(scm: DiscreteSCM, C) -> Kernel:
    """Q[C]: outputs C under intervention on every other output variable,
    conditioned on the selection event, given the inputs."""
    C = set(C)
    rest = [v for v in scm.outputs if v not in C]
    return interventional_kernel(scm, rest, outputs=sorted(C))


def observational_kernel(scm: DiscreteSCM) -> Kernel:
    return interventional_kernel(scm, ())


def _projection(idx):
    """Function from a tuple to the tuple of its items at idx."""
    if len(idx) == 1:
        i = idx[0]
        return lambda t: (t[i],)
    return operator.itemgetter(*idx) if idx else lambda t: ()


def ci_test(k: Kernel, A, B, C=()) -> bool:
    """Exact conditional independence of A and B given C in every context
    of the kernel: P(a,b,c) P(c) = P(a,c) P(b,c) for every c and every a
    and b seen with it, read off the kernel's integer margin over A, B and
    C (``Kernel._integer_margin``).

    Only the cells seen in the kernel are checked; the unseen ones follow.
    For one c, P(a,b,c) P(c) summed over the seen cells is P(c)^2, and so
    is P(a,c) P(b,c) summed over every pair of a seen a and a seen b.  If
    the seen cells balance, the products of the unseen pairs sum to 0, and
    none is negative, so each is 0, as P(a,b,c) = 0 requires."""
    A, B, C = set(A), set(B), set(C)
    for s, name in ((A, "A"), (B, "B"), (C, "C")):
        if not s <= set(k.outputs):
            raise ScmError(f"{name} contains variables outside the kernel")
    names = tuple(sorted(A | B | C))
    ka, kb, kc = (_projection([names.index(v) for v in sorted(s)])
                  for s in (A, B, C))
    for _ctx, pabc in k._integer_margin(names):
        cells = [(kc(key), ka(key), kb(key), w) for key, w in pabc.items()]
        pc, pac, pbc = {}, {}, {}
        for c, a, b, w in cells:
            pc[c] = pc.get(c, 0) + w
            pac[c, a] = pac.get((c, a), 0) + w
            pbc[c, b] = pbc.get((c, b), 0) + w
        for c, a, b, w in cells:
            if w * pc[c] != pac[c, a] * pbc[c, b]:
                return False
    return True


# -- estimand evaluation -----------------------------------------------------


def eval_estimand(e, qv: Kernel, scm=None, zero_rows: str = "error") -> Kernel:
    """Evaluate an estimand against the observational kernel Q[V].
    When an SCM is supplied, base leaves other than Q[V] are computed from
    it directly (useful for checking identities).  Each distinct node is
    evaluated once per call, however many nodes share it."""
    from . import identify as idf

    domains = qv.domains
    # id(node) -> (node, kernel); holding the node keeps its id unique
    memo = {}

    def ev(node) -> Kernel:
        hit = memo.get(id(node))
        if hit is None:
            hit = memo[id(node)] = (node, ev_node(node))
        return hit[1]

    def ev_node(node) -> Kernel:
        if isinstance(node, idf.Base):
            if set(node.over) == set(qv.outputs):
                return qv
            if scm is not None:
                return c_factor(scm, node.over)
            raise ScmError(
                f"base kernel over {node.over} is not the observed kernel"
            )
        if isinstance(node, idf.Marginalize):
            return ev(node.child).marginalize(node.over)
        if isinstance(node, idf.Condition):
            return ev(node.child).condition(node.on, zero_rows)
        if isinstance(node, idf.OrderedProduct):
            return kernel_product([ev(c) for c in node.children], domains,
                                  zero_rows)
        if isinstance(node, idf.BoxProduct):
            left = ev(node.left)
            right = ev(node.right)
            factors = []
            seen = []
            r1 = set(left.outputs)
            r2 = set(right.outputs)
            for bucket in node.bucket_order:
                bset = set(bucket)
                if bset <= r1:
                    src = left
                elif bset <= r2:
                    src = right
                else:
                    raise ScmError(f"bucket {bucket} not inside a region")
                before = set(seen)
                given = tuple(sorted(before & set(src.outputs)))
                drop = set(src.outputs) - bset - set(given)
                factor = src.marginalize(drop)
                if given:
                    factor = factor.condition(given, zero_rows)
                factors.append(factor)
                seen.extend(bucket)
            return kernel_product(factors, domains, zero_rows)
        if isinstance(node, idf.Compose):
            outer = ev(node.outer)
            inner = ev(node.inner)
            return kernel_compose(outer, inner, node.over, domains)
        raise ScmError(f"unknown estimand node {node!r}")

    return ev(e)


# -- parsing and serialization -----------------------------------------------


def parse_scm(text: str) -> DiscreteSCM:
    domains, kinds, parents, cpts = {}, {}, {}, {}
    selects = []
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        if parts[0] == "var":
            if len(parts) < 2:
                raise ScmError(f"line {lineno}: malformed var line")
            name = parts[1]
            if name in domains:
                raise ScmError(f"line {lineno}: duplicate variable {name}")
            opts = dict(p.split("=", 1) for p in parts[2:] if "=" in p)
            kind = _KIND_NAMES.get(opts.get("kind", "output"))
            if kind is None:
                raise ScmError(f"line {lineno}: unknown kind")
            domains[name] = int(opts.get("domain", "2"))
            kinds[name] = kind
            ps = opts.get("parents", "")
            parents[name] = tuple(p for p in ps.split(",") if p)
        elif parts[0] == "cpt":
            if len(parts) < 4:
                raise ScmError(f"line {lineno}: malformed cpt line")
            name = parts[1]
            if name not in domains:
                raise ScmError(f"line {lineno}: unknown variable {name}")
            key_txt = parts[2]
            if key_txt == "-":
                key = ()
            else:
                key = tuple(int(x) for x in key_txt.split(","))
            row = tuple(Fraction(x) for x in parts[3:])
            cpts.setdefault(name, {})[key] = row
        elif parts[0] == "select":
            selects.append(parts[1])
        else:
            raise ScmError(f"line {lineno}: unknown directive {parts[0]}")
    for s in selects:
        if s not in domains:
            raise ScmError(f"unknown selection variable {s}")
        kinds[s] = SELECTION
    return DiscreteSCM(domains, kinds, parents, cpts)


def format_scm(scm: DiscreteSCM) -> str:
    kind_txt = {v: k for k, v in _KIND_NAMES.items()}
    lines = []
    for v in sorted(scm.domains):
        parts = [
            f"var {v}",
            f"kind={kind_txt[scm.kinds[v]]}",
            f"domain={scm.domains[v]}",
        ]
        if scm.parents.get(v):
            parts.append("parents=" + ",".join(scm.parents[v]))
        lines.append(" ".join(parts))
    for v in sorted(scm.cpts):
        for key in sorted(scm.cpts[v]):
            key_txt = ",".join(str(x) for x in key) if key else "-"
            row = " ".join(str(p) for p in scm.cpts[v][key])
            lines.append(f"cpt {v} {key_txt} {row}")
    return "\n".join(lines) + "\n"


def format_kernel(k: Kernel) -> str:
    """TSV serialization: header row, then one line per (context, output)
    cell with an exact rational value."""
    header = list(k.context) + list(k.outputs) + ["p"]
    lines = ["\t".join(header)]
    for ctx in sorted(k.table):
        row = k.table[ctx]
        for out in sorted(
            _assignments(k.domains, k.outputs)
        ):
            p = row.get(out, Fraction(0))
            cells = [str(x) for x in ctx + out] + [str(p)]
            lines.append("\t".join(cells))
    return "\n".join(lines) + "\n"


# -- random models -----------------------------------------------------------


def random_scm(
    graph: MixedGraph,
    rng: random.Random,
    domain: int = 2,
    positivity: bool = True,
) -> DiscreteSCM:
    """Random model for an acyclic directed mixed graph: every bidirected
    edge is realized by a dedicated binary latent parent pair, and with
    positivity every table entry is at least 1/64."""
    if domain > 8:
        raise ScmError("domain sizes above 8 break the positivity floor")
    problems = validate(graph, GraphClass.ADMG)
    if problems:
        raise ScmError("invalid graph: " + "; ".join(problems))
    domains, kinds, parents = {}, {}, {}
    for v in graph.node_ids:
        if graph.kind(v) is LATENT:
            raise ScmError("explicit latent nodes are not supported here")
        domains[v] = 2 if graph.kind(v) is SELECTION else domain
        kinds[v] = graph.kind(v)
        parents[v] = list(graph.parents(v))
    for e in sorted(graph.edges):
        if (e.mark_a, e.mark_b) == (ARROW, ARROW):
            l = f"l__{e.a}__{e.b}"
            if l in domains:
                raise ScmError(f"node id {l} collides with latent namespace")
            domains[l] = 2
            kinds[l] = LATENT
            parents[l] = []
            parents[e.a].append(l)
            parents[e.b].append(l)
    cpts = {}
    for v in sorted(domains):
        if kinds[v] is INPUT:
            continue
        parents[v] = tuple(sorted(parents[v]))
        shape = [domains[p] for p in parents[v]]
        rows = {}
        for key in itertools.product(*[range(n) for n in shape]):
            if positivity:
                weights = [rng.randint(1, 8) for _ in range(domains[v])]
            else:
                weights = [rng.randint(0, 8) for _ in range(domains[v])]
                if sum(weights) == 0:
                    weights[rng.randrange(domains[v])] = 1
            total = sum(weights)
            rows[key] = tuple(Fraction(w, total) for w in weights)
        cpts[v] = rows
    scm = DiscreteSCM(domains, kinds, {v: tuple(p) for v, p in parents.items()},
                      cpts)
    assert graph_of(scm) == graph
    return scm

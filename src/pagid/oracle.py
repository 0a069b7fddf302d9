"""Exact discrete structural-causal-model engine.

Everything in this module is exact; there is no floating point.  A model
is its integer weights, each table scaled by the lcm of its denominators
(``parse_scm`` reads them straight from the text), so the joint weights of
one context share a common scale and are summed as integers; its Fraction
tables are built only when read.  A kernel is held as integer rows, a
denominator and integer numerators per context, and all kernel arithmetic
runs on them; the Fraction table of a kernel built from rows is made only
when it is read.  CI queries read integer margins of those rows, kept on
the kernel and grouped by the conditioning set's value.  Selection
variables are binary and the selection event is "value = 1" for every one
of them.

An interventional kernel comes from one variable-elimination pass over
the model's integer tables (``_eliminate``): the inputs, the intervened
variables and the requested outputs stay free, every other variable is
summed out, and each context's row is read off what is left.  The test
suite keeps the per-context enumeration and elimination this replaced,
and a Fraction enumeration, as references.
"""

from __future__ import annotations

import functools
import itertools
import math
import operator
import random
import re
from dataclasses import dataclass
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
    _KINDS,
    _cycle,
    validate,
)
from .represent import marginalize_latents


class ScmError(ValueError):
    pass


@dataclass(frozen=True)
class DiscreteSCM:
    """Finite-domain model: per-variable domain sizes, ordered parent lists
    and exact-rational conditional probability tables.  Input variables
    have no table; they are context for every computed kernel.  ``weights``
    holds each table scaled to integers by the lcm of its denominators (in
    ``_scales``), ``cpts`` the tables given or else built from the weights
    on first read, and ``_by_kind`` the sorted variables of each kind."""

    domains: dict
    kinds: dict
    parents: dict
    cpts: dict

    def __post_init__(self):
        self._weigh({v: {k: [p.as_integer_ratio() for p in row]
                         for k, row in rows.items()}
                     for v, rows in self.cpts.items()})

    @classmethod
    def _of(cls, domains, kinds, parents, tables) -> "DiscreteSCM":
        """A model from tables of (numerator, denominator) pairs."""
        scm = cls.__new__(cls)
        scm.__dict__.update(domains=domains, kinds=kinds, parents=parents)
        scm._weigh(tables)
        return scm

    def __getattr__(self, name):
        """``cpts`` of a model made by ``_of``, built on its first read."""
        if name != "cpts":
            raise AttributeError(name)
        self.__dict__["cpts"] = {v: {
            k: tuple(Fraction(w, self._scales[v]) for w in row)
            for k, row in rows.items()} for v, rows in self.weights.items()}
        return self.cpts

    def _weigh(self, tables):
        """Scale each table to integers by the lcm of its denominators in
        lowest terms, outside the fields (== and repr); then check."""
        weights, scales = {}, {}
        for v, rows in tables.items():
            scales[v] = s = math.lcm(*(d // math.gcd(n, d) for row in
                                       rows.values() for n, d in row))
            weights[v] = {k: tuple(n * s // d for n, d in row)
                          for k, row in rows.items()}
        self.__dict__.update(weights=weights, _scales=scales, _by_kind={
            k: tuple(v for v in sorted(self.kinds) if self.kinds[v] is k)
            for k in set(self.kinds.values())})
        self.check()

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
                if v in self.weights:
                    raise ScmError(f"input variable {v} cannot have a table")
                continue
            if v not in self.weights:
                raise ScmError(f"missing table for {v}")
            rows, scale = self.weights[v], self._scales[v]
            if set(rows) != set(_assignments(self.domains,
                                             self.parents.get(v, ()))):
                raise ScmError(f"table of {v} does not cover parent domain")
            for key, row in rows.items():
                if len(row) != self.domains[v]:
                    raise ScmError(f"table row of {v} has wrong width")
                if min(row) < 0:
                    raise ScmError(f"table row {key} of {v} has negative "
                                   f"entry {Fraction(min(row), scale)}")
                if sum(row) != scale:
                    raise ScmError(f"table row {key} of {v} sums to "
                                   f"{Fraction(sum(row), scale)}")
        children = {}
        for v, ps in self.parents.items():
            for p in ps:
                children.setdefault(p, []).append(v)
        if _cycle(self.domains, lambda v: children.get(v, ())):
            raise ScmError("cyclic parent relation")

    # -- convenience views --------------------------------------------------

    def of_kind(self, kind: NodeKind):
        return self._by_kind.get(kind, ())

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
    """Graph of the model: functional parents become directed edges, and
    the latents are projected out, so that a shared latent parent becomes
    a bidirected edge (latents are exogenous)."""
    g = marginalize_latents(MixedGraph(scm.kinds, [
        Edge(p, TAIL, v, ARROW) for v, ps in scm.parents.items() for p in ps
    ]))
    problems = validate(g, GraphClass.ADMG)
    if problems:
        raise ScmError("graph of model is invalid: " + "; ".join(problems))
    return g


# -- kernels -----------------------------------------------------------------


def _assignments(domains, names):
    return itertools.product(*[range(domains[v]) for v in names])


def _projection(idx):
    """Function from a tuple to the tuple of its items at idx."""
    if len(idx) == 1:
        i = idx[0]
        return lambda t: (t[i],)
    return operator.itemgetter(*idx) if idx else lambda t: ()


class Kernel:
    """Exact conditional distribution table: for every assignment of the
    context variables, a distribution over the output variables.

    A kernel is its integer rows: ``rows`` maps each context assignment to
    (d, {output assignment: n}), so a cell's value is n / d, zero cells
    kept as the table that built them keeps them.  ``table`` holds the same
    cells, in the same order, as Fractions in lowest terms: the table a
    kernel was built from, or one built from the rows on its first read
    and then kept.  Margins over output sets (``_margin``) are kept too;
    like the table, they stay outside ==, hash and repr, and assume that a
    kernel is not changed after its first use."""

    def __init__(self, context, outputs, domains, table):
        """A kernel from its Fraction table; each row is scaled once, by
        the lcm of its denominators."""
        self.context, self.outputs, self.domains = context, outputs, domains
        self.rows = {}
        for ctx, row in table.items():
            d = math.lcm(*(p.denominator for p in row.values()))
            self.rows[ctx] = (d, {out: p.numerator * (d // p.denominator)
                                  for out, p in row.items()})
        self.table = table

    @classmethod
    def _of(cls, context, outputs, domains, rows) -> "Kernel":
        """A kernel from its integer rows, with no Fraction built."""
        k = cls.__new__(cls)
        k.context, k.outputs, k.domains = context, outputs, domains
        k.rows = rows
        return k

    @functools.cached_property
    def table(self) -> dict:
        return {ctx: {out: Fraction(n, d) for out, n in row.items()}
                for ctx, (d, row) in self.rows.items()}

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
        key = _projection([self.outputs.index(v) for v in keep])
        rows = {}
        for ctx, (d, row) in self.rows.items():
            new = {}
            for out, n in row.items():
                k = key(out)
                new[k] = new.get(k, 0) + n
            rows[ctx] = (d, new)
        return Kernel._of(self.context, keep, self.domains, rows)

    def condition(self, on, zero_rows: str = "error") -> "Kernel":
        """Each group's integer sum becomes its row's denominator."""
        on = tuple(sorted(set(on)))
        if not set(on) <= set(self.outputs):
            raise ScmError("conditioning variables outside the outputs")
        keep = tuple(v for v in self.outputs if v not in on)
        key_on, key_keep = (_projection([self.outputs.index(v) for v in s])
                            for s in (on, keep))
        rows = {}
        for ctx, (_d, row) in self.rows.items():
            groups = {}
            for out, n in row.items():
                groups.setdefault(key_on(out), {})[key_keep(out)] = n
            for on_val in _assignments(self.domains, on):
                sub = groups.get(on_val, {})
                total = sum(sub.values())
                if total == 0:
                    if zero_rows != "uniform":
                        raise ScmError("conditioning on probability-zero "
                                       f"context {ctx + on_val}")
                    sub = dict.fromkeys(_assignments(self.domains, keep), 1)
                    total = len(sub)
                rows[ctx + on_val] = (total, sub)
        return Kernel._of(self.context + on, keep, self.domains, rows)

    def _margin(self, names) -> "Kernel":
        """The margin over names, a sorted tuple of outputs, built once per
        kernel and names."""
        margins = self.__dict__.setdefault("_margins", {})
        hit = margins.get(names)
        if hit is None:
            hit = margins[names] = self.marginalize(
                set(self.outputs) - set(names))
        return hit

    def __repr__(self):
        return (f"Kernel(context={self.context!r}, outputs={self.outputs!r}, "
                f"domains={self.domains!r}, table={self.table!r})")

    def __eq__(self, other):
        if not isinstance(other, Kernel):
            return NotImplemented
        return set(self.context) == set(other.context) and kernels_agree(
            self, other
        )

    def __hash__(self):
        return hash((frozenset(self.context), frozenset(self.outputs)))


def kernels_agree(got: Kernel, want: Kernel) -> bool:
    """Whether got equals want on every assignment, by cross-multiplying
    their integer rows.  got may carry context variables that want lacks,
    and must then not depend on them."""
    if set(got.outputs) != set(want.outputs):
        return False
    if not set(want.context) <= set(got.context):
        return False
    key_ctx = _projection([got.context.index(v) for v in want.context])
    key_out = _projection([got.outputs.index(v) for v in want.outputs])
    for ctx in _assignments(got.domains, got.context):
        (d, row), (want_d, want_row) = got.rows[ctx], want.rows[key_ctx(ctx)]
        for out in _assignments(got.domains, got.outputs):
            if row.get(out, 0) * want_d != want_row.get(key_out(out), 0) * d:
                return False
    return True


def kernel_product(kernels, domains, zero_rows: str = "error") -> Kernel:
    """Ordered product of conditional kernels: the joint over the union of
    the outputs, each factor reading its context off the full assignment.
    Each cell multiplies the factors' numerators and denominators, and each
    row is put on the lcm of its cells' denominators and reduced by one
    gcd."""
    outputs = []
    for f in kernels:
        for v in f.outputs:
            if v in outputs:
                raise ScmError(f"output {v} repeated across factors")
            outputs.append(v)
    outputs = tuple(sorted(outputs))
    context = tuple(sorted({v for f in kernels for v in f.context}
                           - set(outputs)))
    names = context + outputs
    reads = [(f.rows, *(_projection([names.index(v) for v in s])
                        for s in (f.context, f.outputs))) for f in kernels]
    rows = {}
    for ctx in _assignments(domains, context):
        cells = {}
        for out in _assignments(domains, outputs):
            a = ctx + out
            n = d = 1
            for f_rows, key_ctx, key_out in reads:
                f_d, f_row = f_rows[key_ctx(a)]
                n *= f_row.get(key_out(a), 0)
                if not n:
                    break
                d *= f_d
            if n:
                cells[out] = (n, d)
        scale = math.lcm(*(d for _n, d in cells.values()))
        row = {out: n * (scale // d) for out, (n, d) in cells.items()}
        g = math.gcd(scale, *row.values())
        rows[ctx] = (scale // g, {out: n // g for out, n in row.items()})
    for ctx, (d, row) in rows.items():
        total = sum(row.values())
        if total != d and not (zero_rows == "uniform" and total == 0):
            raise ScmError(f"product row {ctx} sums to {Fraction(total, d)}")
    return Kernel._of(context, outputs, domains, rows)


def kernel_compose(outer: Kernel, inner: Kernel, over, domains) -> Kernel:
    """Composition: sum over the shared variables of outer * inner."""
    return kernel_product([outer, inner], domains).marginalize(over)


# -- distributions -----------------------------------------------------------


def _eliminate(scm: DiscreteSCM, do, keep, condition_selection):
    """Factors whose product is the unnormalized integer joint over keep
    under do, by variable elimination (Koller & Friedman 2009, ch. 9).
    Each non-input variable that is not intervened on gives one factor
    from its integer table, a selection variable fixed to 1 when
    conditioning on the selection event.  Every variable outside keep is
    summed out, the one whose new factor has the fewest states first (ties
    by name).  A factor is (scope, {assignment of scope: weight})."""
    factors = []
    for v in scm.domains:
        if scm.kinds[v] is INPUT or v in do:
            continue
        ps, table = scm.parents.get(v, ()), scm.weights[v]
        if condition_selection and scm.kinds[v] is SELECTION:
            factors.append((ps, {k: row[1] for k, row in table.items()}))
        else:
            factors.append((ps + (v,), {k + (x,): w for k, row in table.items()
                                        for x, w in enumerate(row)}))
    domains = scm.domains
    todo = {x for scope, _ in factors for x in scope} - set(keep)
    while todo:
        scopes = {v: {x for s, _ in factors if v in s for x in s} - {v}
                  for v in todo}
        v = min(todo, key=lambda u: (
            math.prod(domains[x] for x in scopes[u]), u))
        todo.discard(v)
        touching = [f for f in factors if v in f[0]]
        factors = [f for f in factors if v not in f[0]]
        scope = tuple(sorted(scopes[v]))
        names = scope + (v,)
        reads = [(t, _projection([names.index(x) for x in s]))
                 for s, t in touching]
        factors.append((scope, {
            a: sum(_weight(reads, a + (x,)) for x in range(domains[v]))
            for a in _assignments(domains, scope)}))
    return factors


def _weight(reads, a):
    """The product of the factors at assignment a: reads pairs each
    factor's table with the projection of a onto its scope."""
    p = 1
    for t, key in reads:
        p *= t[key(a)]
        if not p:
            break
    return p


def interventional_kernel(
    scm: DiscreteSCM,
    do_vars=(),
    condition_selection: bool = True,
    outputs=None,
) -> Kernel:
    """P(X_outputs | X_S = 1 || do(X_do_vars), X_I) as an exact kernel with
    the inputs and intervened variables as context.  One elimination pass
    (``_eliminate``) leaves factors over the context and the outputs only;
    each context's row is read off their product, its sum the row's
    denominator."""
    do_vars = tuple(sorted(set(do_vars)))
    for v in do_vars + tuple(outputs or ()):
        if v not in scm.kinds:
            raise ScmError(f"unknown variable {v}")
        if scm.kinds[v] is not OUTPUT:
            what = "intervene on" if v in do_vars else "return"
            raise ScmError(f"cannot {what} non-output variable {v}")
    if outputs is None:
        outputs = tuple(v for v in scm.outputs if v not in do_vars)
    else:
        outputs = tuple(sorted(set(outputs)))
        bad = set(outputs) & set(do_vars)
        if bad:
            raise ScmError(f"outputs overlap intervention: {sorted(bad)}")
    context = tuple(scm.inputs) + do_vars
    names = context + outputs
    reads = [(t, _projection([names.index(x) for x in s])) for s, t in
             _eliminate(scm, do_vars, names, condition_selection)]
    rows = {}
    for ctx_vals in _assignments(scm.domains, context):
        weights = {}
        for out in _assignments(scm.domains, outputs):
            p = _weight(reads, ctx_vals + out)
            if p:
                weights[out] = p
        total = sum(weights.values())
        if total == 0:
            raise ScmError("selection event has probability zero in context "
                           f"{dict(zip(context, ctx_vals))}")
        rows[ctx_vals] = (total, weights)
    return Kernel._of(context, outputs, dict(scm.domains), rows)


def c_factor(scm: DiscreteSCM, C) -> Kernel:
    """Q[C]: outputs C under intervention on every other output variable,
    conditioned on the selection event, given the inputs."""
    C = set(C)
    rest = [v for v in scm.outputs if v not in C]
    return interventional_kernel(scm, rest, outputs=sorted(C))


def observational_kernel(scm: DiscreteSCM) -> Kernel:
    return interventional_kernel(scm, ())


def ci_test(k: Kernel, A, B, C=()) -> bool:
    """Exact conditional independence of A and B given C in every context
    of the kernel: P(a,b,c) P(c) = P(a,c) P(b,c) for every c and every a
    and b seen with it, read off the kernel's integer margin over A, B and
    C (``Kernel._margin``).  Each context row is read once, its cells grouped
    by their value c of C; a group sums P(c), and P(a,c) and P(b,c) keyed
    by a and by b alone.  A group of one cell w is skipped: P(c), P(a,c)
    and P(b,c) are all w there, and w w = w w.

    Only the cells seen in the kernel are checked; the unseen ones follow.
    For one c, P(a,b,c) P(c) summed over the seen cells is P(c)^2, and so
    is P(a,c) P(b,c) summed over every pair of a seen a and a seen b.  If
    the seen cells balance, the products of the unseen pairs sum to 0, and
    none is negative, so each is 0, as P(a,b,c) = 0 requires."""
    A, B, C = set(A), set(B), set(C)
    for s, name in ((A, "A"), (B, "B"), (C, "C")):
        if not s <= set(k.outputs):
            raise ScmError(f"{name} contains variables outside the kernel")
    margin = k._margin(tuple(sorted(A | B | C)))
    ka, kb, kc = (_projection([margin.outputs.index(v) for v in sorted(s)])
                  for s in (A, B, C))
    for _d, row in margin.rows.values():
        groups = {}
        for cell in row.items():
            groups.setdefault(kc(cell[0]), []).append(cell)
        for cells in groups.values():
            if len(cells) == 1:
                continue
            pc, pa, pb = sum(w for _key, w in cells), {}, {}
            for key, w in cells:
                a, b = ka(key), kb(key)
                pa[a] = pa.get(a, 0) + w
                pb[b] = pb.get(b, 0) + w
            for key, w in cells:
                if w * pc != pa[ka(key)] * pb[kb(key)]:
                    return False
    return True


def input_invariant(k: Kernel, I, B, C=()) -> bool:
    """Whether the conditional of the outputs B given the outputs C is the
    same for every value of the context variables I (the other context
    variables held fixed), read off the kernel's integer margin over B and
    C: equal support, and cross-multiplied weights."""
    tgt, giv = sorted(B), sorted(C)
    margin = k._margin(tuple(sorted(tgt + giv)))
    drop = {k.context.index(v) for v in I}
    kg, kt = (_projection([margin.outputs.index(v) for v in s])
              for s in (giv, tgt))
    seen = {}
    for ctx, (_d, row) in margin.rows.items():
        # integer weights of tgt for each giv assignment, zeros unseen
        joint = {}
        for vals, w in row.items():
            if w:
                joint.setdefault(kg(vals), {})[kt(vals)] = w
        reduced = tuple(v for i, v in enumerate(ctx) if i not in drop)
        conds = seen.setdefault(reduced, {})
        for key, sub in joint.items():
            tot = sum(sub.values())
            first, first_tot = conds.setdefault(key, (sub, tot))
            if first.keys() != sub.keys() or any(
                w * first_tot != first[t] * tot for t, w in sub.items()
            ):
                return False
    return True


# -- estimand evaluation -----------------------------------------------------


# The last call's kernel, scm and zero_rows, and the kernel of every node
# evaluated against them, by shallow key (see eval_estimand).
_slot = (None, None, None, {})


def eval_estimand(e, qv: Kernel, scm=None, zero_rows: str = "error") -> Kernel:
    """Evaluate an estimand against the observational kernel Q[V].
    When an SCM is supplied, base leaves other than Q[V] are computed from
    it directly (useful for checking identities).  Each distinct node is
    evaluated children first and without recursion (``identify._postorder``),
    in integer rows; no Fraction is built.

    One slot keeps the kernel of every node evaluated against the last
    call's qv, scm and zero_rows, so the estimands checked against one
    kernel share their subterms' arithmetic.  A call with another qv or
    scm object, or another zero_rows, empties the slot first, so only the
    last kernel's nodes stay alive.  A node is looked up by its class, its
    ``_data()`` and the ids of its children's kernels in the slot: an O(1)
    key, where ``_Node`` equality would walk the whole subterm.  The
    returned kernel may be the slot's own object (or qv itself), so it is
    shared with every later call that evaluates an equal estimand.  Like a
    kernel's margins, the slot assumes that a kernel (and an scm) is not
    changed after its first use.  A node whose evaluation raises is not
    kept, so it raises again."""
    from . import identify as idf

    global _slot
    last_qv, last_scm, last_zero_rows, memo = _slot
    if last_qv is not qv or last_scm is not scm or last_zero_rows != zero_rows:
        memo = {}
        _slot = (qv, scm, zero_rows, memo)

    domains = qv.domains
    kernels = {}  # id(node) -> Kernel, filled children first

    def base(node) -> Kernel:
        if set(node.over) == set(qv.outputs):
            return qv
        if scm is not None:
            return c_factor(scm, node.over)
        raise ScmError(
            f"base kernel over {node.over} is not the observed kernel"
        )

    def ev(node) -> Kernel:
        return kernels[id(node)]

    def ev_node(node) -> Kernel:
        if isinstance(node, idf.Base):
            return base(node)
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
            return kernel_compose(ev(node.outer), ev(node.inner), node.over,
                                  domains)
        raise ScmError(f"unknown estimand node {node!r}")

    for node in idf._postorder(e):
        key = (type(node), node._data(),
               tuple(id(ev(c)) for c in idf._children(node)))
        hit = memo.get(key)
        if hit is None:
            # setdefault: should another thread have stored this key
            # meanwhile, its kernel wins, so the ids in every key stay alive
            hit = memo.setdefault(key, ev_node(node))
        kernels[id(node)] = hit
    return kernels[id(e)]


# -- parsing and serialization -----------------------------------------------


def _ratio(text):
    """A probability as a (numerator, denominator) pair: ASCII digits with
    an optional sign and an optional /digits are read as integers, any
    other token (or a zero denominator) through Fraction."""
    num, _, den = text.partition("/")
    if re.fullmatch(r"[+-]?[0-9]+(/[0-9]+)?", text) and int(den or 1):
        return int(num), int(den or 1)
    return Fraction(text).as_integer_ratio()


def _parse_number(lineno, what, text, kind):
    """kind(text), or an ScmError naming the line."""
    try:
        return kind(text)
    except (ValueError, ZeroDivisionError):
        noun = "an integer" if kind is int else "a number"
        raise ScmError(f"line {lineno}: {what} {text!r} is not {noun}") from None


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
            opts = {}
            for p in parts[2:]:
                key, eq, value = p.partition("=")
                if not eq or key not in ("kind", "domain", "parents"):
                    raise ScmError(f"line {lineno}: unknown var option {p!r}")
                opts[key] = value
            kind = _KINDS.get(opts.get("kind", "output"))
            if kind is None:
                raise ScmError(f"line {lineno}: unknown kind")
            domains[name] = _parse_number(lineno, f"domain of {name}",
                                          opts.get("domain", "2"), int)
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
                key = tuple(_parse_number(lineno, f"table key of {name}", x,
                                          int) for x in key_txt.split(","))
            row = [_parse_number(lineno, f"probability of {name}", x, _ratio)
                   for x in parts[3:]]
            if key in cpts.setdefault(name, {}):
                raise ScmError(f"line {lineno}: duplicate row {key} of {name}")
            cpts[name][key] = row
        elif parts[0] == "select":
            if len(parts) != 2:
                raise ScmError(f"line {lineno}: malformed select line")
            selects.append((lineno, parts[1]))
        else:
            raise ScmError(f"line {lineno}: unknown directive {parts[0]}")
    for lineno, s in selects:
        if s not in domains:
            raise ScmError(f"line {lineno}: unknown selection variable {s}")
        kinds[s] = SELECTION
    return DiscreteSCM._of(domains, kinds, parents, cpts)


def format_scm(scm: DiscreteSCM) -> str:
    lines = []
    for v in sorted(scm.domains):
        parts = [
            f"var {v}",
            f"kind={scm.kinds[v].value}",
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
            rows[key] = [(w, sum(weights)) for w in weights]
        cpts[v] = rows
    scm = DiscreteSCM._of(domains, kinds,
                          {v: tuple(p) for v, p in parents.items()}, cpts)
    assert graph_of(scm) == graph
    return scm

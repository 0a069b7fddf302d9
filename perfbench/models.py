"""Seeded inputs of the benchmark: random graphs, discrete models over them,
and the text formats the program parses.

A structure is a plain record of node kinds plus directed and bidirected
edges.  A model realizes every bidirected edge by its own binary latent
parent and draws every table row from integer weights 1..8, as
``pagid.oracle.random_scm`` does, but with this module's own generator, so
that the inputs stay the same when the program changes.  All variables are
binary.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass
from fractions import Fraction


@dataclass(frozen=True)
class Structure:
    kinds: dict  # node -> "output" | "input" | "selection"
    directed: tuple  # (tail, head) pairs
    bidirected: tuple  # (a, b) pairs with a < b

    @property
    def outputs(self):
        return sorted(v for v, k in self.kinds.items() if k == "output")

    @property
    def inputs(self):
        return sorted(v for v, k in self.kinds.items() if k == "input")

    @property
    def selections(self):
        return sorted(v for v, k in self.kinds.items() if k == "selection")


@dataclass(frozen=True)
class Model:
    kinds: dict  # node -> kind, latents included
    parents: dict  # node -> tuple of parents
    cpts: dict  # node -> {parent values: (P(v=0), P(v=1))}

    def of_kind(self, kind):
        return sorted(v for v, k in self.kinds.items() if k == kind)

    def topological(self):
        order, seen = [], set()

        def visit(v):
            if v not in seen:
                seen.add(v)
                for p in self.parents[v]:
                    visit(p)
                order.append(v)

        for v in sorted(self.kinds):
            visit(v)
        return order


def random_structure(rng, n_out, n_sel, n_in, p, p_bi=0.3, p_bow=0.25):
    """Acyclic directed mixed graph: outputs in a shuffled order, edges
    between them with probability p (bidirected with probability p_bi,
    otherwise directed, and a directed edge gains a parallel bidirected
    one with probability p_bow); inputs point into outputs and selection
    nodes are childless, each with at least one edge."""
    outs = [f"v{i}" for i in range(n_out)]
    kinds = {v: "output" for v in outs}
    order = outs[:]
    rng.shuffle(order)
    directed, bidirected = [], []
    for i, x in enumerate(order):
        for y in order[i + 1:]:
            if rng.random() >= p:
                continue
            if rng.random() < p_bi:
                bidirected.append(tuple(sorted((x, y))))
            else:
                directed.append((x, y))
                if rng.random() < p_bow:
                    bidirected.append(tuple(sorted((x, y))))
    for prefix, count, kind in (("i", n_in, "input"), ("s", n_sel, "selection")):
        for j in range(count):
            node = f"{prefix}{j}"
            kinds[node] = kind
            linked = [v for v in outs if rng.random() < p] or [rng.choice(outs)]
            for v in linked:
                directed.append((node, v) if kind == "input" else (v, node))
    return Structure(kinds, tuple(directed), tuple(bidirected))


def relabel(s: Structure, rng) -> Structure:
    """The same structure with its outputs renamed by a random permutation."""
    outs = s.outputs
    new = dict(zip(outs, rng.sample(outs, len(outs))))

    def name(v):
        return new.get(v, v)

    return Structure(
        {name(v): k for v, k in s.kinds.items()},
        tuple((name(x), name(y)) for x, y in s.directed),
        tuple(tuple(sorted((name(a), name(b)))) for a, b in s.bidirected),
    )


def chain(n):
    """v0 --> v1 --> ... --> v(n-1)."""
    outs = [f"v{i}" for i in range(n)]
    return Structure(
        {v: "output" for v in outs},
        tuple(zip(outs, outs[1:])),
        (),
    )


def latent_id(a, b):
    return f"l_{a}_{b}"


def random_model(s: Structure, rng) -> Model:
    kinds = dict(s.kinds)
    parents = {v: [] for v in kinds}
    for x, y in s.directed:
        parents[y].append(x)
    for a, b in s.bidirected:
        lat = latent_id(a, b)
        kinds[lat] = "latent"
        parents[lat] = []
        parents[a].append(lat)
        parents[b].append(lat)
    parents = {v: tuple(sorted(ps)) for v, ps in parents.items()}
    cpts = {}
    for v in sorted(kinds):
        if kinds[v] == "input":
            continue
        rows = {}
        for key in itertools.product((0, 1), repeat=len(parents[v])):
            w = (rng.randint(1, 8), rng.randint(1, 8))
            rows[key] = (Fraction(w[0], sum(w)), Fraction(w[1], sum(w)))
        cpts[v] = rows
    return Model(kinds, parents, cpts)


def scm_text(m: Model) -> str:
    """The model in the format of ``pagid.oracle.parse_scm``."""
    lines = []
    for v in sorted(m.kinds):
        line = f"var {v} kind={m.kinds[v]} domain=2"
        if m.parents[v]:
            line += " parents=" + ",".join(m.parents[v])
        lines.append(line)
    for v in sorted(m.cpts):
        for key, row in sorted(m.cpts[v].items()):
            key_txt = ",".join(map(str, key)) if key else "-"
            lines.append(f"cpt {v} {key_txt} {row[0]} {row[1]}")
    return "\n".join(lines) + "\n"


def graph_text(s: Structure) -> str:
    """The structure in the format of ``pagid.graph.parse_graph``."""
    lines = [f"node {v} {k}" for v, k in sorted(s.kinds.items())]
    lines += [f"edge {x} --> {y}" for x, y in s.directed]
    lines += [f"edge {a} <-> {b}" for a, b in s.bidirected]
    return "\n".join(lines) + "\n"


def structure_json(s: Structure) -> dict:
    return {"kinds": s.kinds, "directed": s.directed, "bidirected": s.bidirected}


def structure_from_json(js) -> Structure:
    return Structure(js["kinds"], tuple(map(tuple, js["directed"])),
                     tuple(map(tuple, js["bidirected"])))


def model_json(m: Model) -> dict:
    return {"kinds": m.kinds, "parents": m.parents,
            "cpts": {v: [[k, [str(x) for x in row]] for k, row in rows.items()]
                     for v, rows in m.cpts.items()}}


def model_from_json(js) -> Model:
    return Model(js["kinds"], {v: tuple(ps) for v, ps in js["parents"].items()},
                 {v: {tuple(k): tuple(Fraction(x) for x in row) for k, row in rows}
                  for v, rows in js["cpts"].items()})


def rng_for(seed: int, *labels) -> random.Random:
    """Independent stream per (seed, labels), so that adding draws to one
    part of the inputs leaves the others unchanged."""
    return random.Random(repr((seed,) + labels))

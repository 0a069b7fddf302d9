"""Input generation for the three workloads, written as a manifest that the
worker process reads.

Graph structures come from a fixed corpus (drawn once from STRUCTURE_SEED);
the run's --seed draws the model tables, redrawn until the model is
faithful where FCI learns from them.  For faithful models FCI learns the
same partial graph whatever the tables, so the work per query depends on
the structure alone and two seeds give comparable runs; a corpus drawn per
seed spread the 90th-percentile latency by more than the bound allows.
`calculus` needs no data; its seed also renames the outputs of each graph,
which permutes the checks of a graph among themselves.
"""

from __future__ import annotations

import itertools

import models

STRUCTURE_SEED = 2603
FAITHFUL_TRIES = 200

# (outputs, edge probability, (selection, input) count pairs, structures)
PIPELINE_STRATA = [
    (4, 0.5, [(0, 0), (1, 0), (0, 1), (1, 1)], 90),
    # At 5 outputs a selection node and an input node together made single
    # hedge searches of 1-8 s, so each 5-output model carries at most one.
    (5, 0.4, [(0, 0), (1, 0), (0, 1)], 30),
]
IDENTIFY_STRATA = [
    (6, 0.4, [(0, 0), (1, 0), (0, 1)], 4),
    (7, 0.35, [(1, 0)], 1),
]
IDENTIFY_SIDP, IDENTIFY_SCIDP = 8, 8
ADMG_CHAINS = range(4, 17)
ADMG_CHAIN_EVAL_MAX = 8  # eval_estimand on the n=8 chain takes about 0.7 s
MAG_CHAINS = range(4, 19, 2)
CALCULUS_STRATA = [
    (4, 0.5, [(0, 0), (1, 0)], 10),
    (5, 0.5, [(0, 0), (1, 0)], 6),
]


def corpus(label, strata):
    """Fixed structures with a fixed query stream each."""
    out = []
    for n_out, p, mixes, count in strata:
        for k in range(count):
            rng = models.rng_for(STRUCTURE_SEED, label, n_out, k)
            n_sel, n_in = mixes[k % len(mixes)]
            out.append((models.random_structure(rng, n_out, n_sel, n_in, p), rng))
    return out


def faithful_model(s, seed, *labels):
    import ref  # networkx stays out of the workers' set-up

    rng = models.rng_for(seed, *labels)
    for _ in range(FAITHFUL_TRIES):
        m = models.random_model(s, rng)
        if ref.faithful(m):
            return m
    raise RuntimeError(f"no faithful tables for structure {labels}")


def pipeline(seed):
    items = []
    for k, (s, rng) in enumerate(corpus("pipeline", PIPELINE_STRATA)):
        a = rng.choice(s.outputs)
        b = rng.choice([v for v in s.outputs if v != a])
        m = faithful_model(s, seed, "pipeline", k)
        items.append({"structure": models.structure_json(s),
                      "model": models.model_json(m), "scm": models.scm_text(m),
                      "A": [a], "B": [b]})
    return items


def _identify_queries(s, rng):
    outs = s.outputs
    qs = []
    for _ in range(IDENTIFY_SIDP):
        a = rng.choice(outs)
        B = rng.sample([v for v in outs if v != a], rng.randint(1, 2))
        qs.append({"kind": "sidp", "A": [a], "B": sorted(B), "C": []})
    for _ in range(IDENTIFY_SCIDP):
        a, b, c = rng.sample(outs, 3)
        qs.append({"kind": "scidp", "A": [a], "B": [b], "C": [c]})
    return qs


def identify(seed):
    items = []
    for k, (s, rng) in enumerate(corpus("identify", IDENTIFY_STRATA)):
        m = faithful_model(s, seed, "identify", k)
        items.append({"structure": models.structure_json(s),
                      "model": models.model_json(m), "scm": models.scm_text(m),
                      "queries": _identify_queries(s, rng)})
    for n in ADMG_CHAINS:
        s = models.chain(n)
        item = {"structure": models.structure_json(s),
                "graph": models.graph_text(s), "reading": "admg",
                "queries": [{"kind": "sidp", "A": ["v1"], "B": ["v0"], "C": []}]}
        if n <= ADMG_CHAIN_EVAL_MAX:
            m = models.random_model(s, models.rng_for(seed, "chain", n))
            item.update(model=models.model_json(m), scm=models.scm_text(m))
        items.append(item)
    for n in MAG_CHAINS:
        s = models.chain(n)
        items.append({"structure": models.structure_json(s),
                      "graph": models.graph_text(s), "reading": "mag",
                      "queries": [{"kind": "sidp", "A": ["v1"], "B": ["v0"],
                                   "C": []}]})
    return items


def _subsets(pool):
    return [list(c) for r in range(len(pool) + 1)
            for c in itertools.combinations(pool, r)]


def calculus_queries(outs):
    """Every check the workload makes on one graph over the outputs."""
    qs = []
    for a, b in itertools.permutations(outs, 2):
        rest = [v for v in outs if v not in (a, b)]
        for C in _subsets(rest):
            for D in _subsets([v for v in rest if v not in C]):
                for rule in (1, 2, 3):
                    qs.append(("rule", rule, a, b, C, D))
        for J in _subsets(rest):
            qs.append(("adjust", a, b, J))
        for kind in ("direct", "total", "confounding"):
            qs.append(("relation", a, b, kind))
    return qs


def calculus(seed):
    from pagid.fci import fci, graph_oracle
    from pagid.graph import format_graph, parse_graph
    from pagid.represent import mag_of

    items = []
    for k, (s, _rng) in enumerate(corpus("calculus", CALCULUS_STRATA)):
        rng = models.rng_for(seed, "calculus", k)
        s = models.relabel(s, rng)
        g = parse_graph(models.graph_text(s))
        mag = mag_of(g)
        pag = fci(graph_oracle(g), mag.nodes)
        m = models.random_model(s, rng)
        items.append({"structure": models.structure_json(s),
                      "model": models.model_json(m),
                      "mag": format_graph(mag), "pag": format_graph(pag)})
    return items


GENERATORS = {"pipeline": pipeline, "identify": identify, "calculus": calculus}

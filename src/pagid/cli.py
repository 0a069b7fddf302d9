"""Command-line front end.

Every pipeline stage, from graph validation to model generation, is a
subcommand of ``pagc``.  Exit codes: 0 on success, 1 on a domain-level
negative result (identification Fail, rule not applicable), 2 on an error.
A usage error prints click's usage message; every other error prints one
``error: ...`` line on stderr, from one place (``_Pagc``).  A node of a set
option (``--a``, ``--soft``, ``--nodes``, ...) missing from the graph or
model is named as ``unknown node <v>``, the first in sorted order, before
any overlap or kind check.  ``--json`` switches any subcommand to
structured output: one writer adds ``"schema": 1``, and edges use the text
format's tokens.

Every subcommand ends in one call to ``_answer``, which prints its answer
(or writes it to ``--out``) and exits with its code; only ``_answer`` and
``_fail`` print or exit.  The one exception is ``fci``: its ``--trace``
lines go to stderr, and under ``--json`` its ``--out`` file gets the graph
in the text format, or in dot under ``--dot``.
"""

from __future__ import annotations

import json
import os
import random
import sys

import click

from . import oracle as oc
from .fci import distribution_oracle, fci as run_fci, graph_oracle
from .graph import (
    ARROW,
    CIRCLE,
    GraphClass,
    TAIL,
    MixedGraph,
    format_edge,
    format_graph,
    parse_graph,
    validate,
)
from .identify import (
    ExchangeFail,
    FailCertificate,
    adjustment_check,
    calculus_check,
    causal_relation,
    format_estimand,
    hedge_witness, l0_sets,
    parse_estimand,
    scidp,
    sidp,
)
from .manipulate import format_manipulated, manipulate
from .represent import canonical_isadmg, enumerate_mags, mag_of, marginalize_latents
from .separate import (d_separated, id_separated, m_open_walk, open_walk,
                       walk_nodes)

_CLASSES = sorted(c.value for c in GraphClass)


def _fail(msg):
    """Print a message or exception and exit 2; a KeyError names a node."""
    if isinstance(msg, KeyError):
        msg = f"unknown node {msg.args[0]}"
    click.echo(f"error: {msg}", err=True)
    sys.exit(2)


def _read(path: str) -> str:
    with open(path) as fh:
        return fh.read()


def _load_graph(path: str) -> MixedGraph:
    return parse_graph(_read(path))


def _split(value: str) -> list[str]:
    return sorted({x for x in (value or "").split(",") if x})


def _graph_json(g: MixedGraph) -> dict:
    """Nodes and edges; an edge is written as in the text format."""
    return {"nodes": {v: k.value for v, k in g.nodes.items()},
            "edges": sorted(format_edge(e) for e in g.edges)}


def _json(payload: dict) -> str:
    """The one --json writer: every payload carries the schema version."""
    return json.dumps({"schema": 1, **payload}, sort_keys=True)


def _answer(as_json, payload, text, code=0, out=None):
    """The one answer path: the payload as JSON under --json, else the text
    (nothing when it is None), printed or written to ``out``; then exit
    with ``code``."""
    body = _json(payload) if as_json else text
    if out:
        with open(out, "w") as fh:
            fh.write(body + "\n")
    elif body is not None:
        click.echo(body)
    sys.exit(code)


_DOT_HEAD = {TAIL: "none", ARROW: "normal", CIRCLE: "odot"}


def _graph_text(g: MixedGraph, as_dot: bool = False) -> str:
    """A graph in the text format, or in Graphviz dot; no final newline."""
    if not as_dot:
        return format_graph(g).rstrip("\n")
    lines = ["digraph g {", "  edge [dir=both];"]
    shapes = {"input": "box", "selection": "diamond", "latent": "ellipse"}
    for v, k in g.nodes.items():
        attrs = f' [shape={shapes[k.value]}]' if k.value in shapes else ""
        lines.append(f'  "{v}"{attrs};')
    for e in sorted(g.edges):
        lines.append(
            f'  "{e.a}" -> "{e.b}" [arrowtail={_DOT_HEAD[e.mark_a]},'
            f" arrowhead={_DOT_HEAD[e.mark_b]}];"
        )
    lines.append("}")
    return "\n".join(lines)


def _seed(value):
    env = os.environ.get("PAGC_SEED")
    if env is not None:
        return int(env)
    return value


class _Pagc(click.Group):
    """The one error path: an error from any subcommand exits 2 with
    ``error: ...``.  ValueError covers ParseError, ScmError and FciConflict;
    a KeyError names an unknown node.  A broken pipe and click's own usage
    errors keep click's handling."""

    def invoke(self, ctx):
        try:
            return super().invoke(ctx)
        except BrokenPipeError:
            raise
        except (ValueError, KeyError, OSError) as exc:
            _fail(exc)


@click.group(cls=_Pagc)
def main():
    """Causal identification from partial ancestral graphs."""


def graph_option(f):
    return click.option("--graph", "graph_file", required=True,
                        type=click.Path(exists=True, dir_okay=False))(f)


json_option = click.option("--json", "as_json", is_flag=True)
dot_option = click.option("--dot", "as_dot", is_flag=True,
                          help="Graphviz dot output; ignored under --json.")


@main.command("validate")
@graph_option
@click.option("--class", "cls", type=click.Choice(_CLASSES),
              default="raw", show_default=True)
@json_option
def validate_cmd(graph_file, cls, as_json):
    """Check a graph against the invariants of a graph class."""
    problems = validate(_load_graph(graph_file), cls)
    _answer(as_json, {"valid": not problems, "problems": problems},
            "\n".join(problems or ["valid"]), int(bool(problems)))


@main.command("mag")
@graph_option
@json_option
@dot_option
@click.option("--out", type=click.Path(dir_okay=False))
def mag_cmd(graph_file, as_json, as_dot, out):
    """Project a represented graph onto its maximal ancestral graph."""
    g = mag_of(_load_graph(graph_file))
    _answer(as_json, {"graph": _graph_json(g)}, _graph_text(g, as_dot),
            out=out)


@main.command("canonical")
@graph_option
@json_option
@dot_option
@click.option("--out", type=click.Path(dir_okay=False))
def canonical_cmd(graph_file, as_json, as_dot, out):
    """Canonical represented graph of a maximal ancestral graph."""
    g = canonical_isadmg(_load_graph(graph_file))
    _answer(as_json, {"graph": _graph_json(g)}, _graph_text(g, as_dot),
            out=out)


@main.command("marginalize")
@graph_option
@click.option("--nodes", default="", help="latent nodes to remove (default all)")
@json_option
@dot_option
@click.option("--out", type=click.Path(dir_okay=False))
def marginalize_cmd(graph_file, nodes, as_json, as_dot, out):
    """Eliminate latent nodes from a represented graph."""
    g = marginalize_latents(_load_graph(graph_file), _split(nodes) or None)
    _answer(as_json, {"graph": _graph_json(g)}, _graph_text(g, as_dot),
            out=out)


@main.command("manipulate")
@graph_option
@click.option("--soft", default="")
@click.option("--hard", default="")
@click.option("--class", "cls", type=click.Choice(_CLASSES), default=None)
@json_option
def manipulate_cmd(graph_file, soft, hard, cls, as_json):
    """Apply soft and hard manipulations and print the result."""
    mg = manipulate(_load_graph(graph_file), _split(soft), _split(hard), cls)
    _answer(as_json, {"graph": _graph_json(mg.graph),
                      "soft": sorted(mg.soft_targets),
                      "hard": sorted(mg.hard_targets)},
            format_manipulated(mg).rstrip("\n"))


@main.command("sep")
@graph_option
@click.option("--soft", default="")
@click.option("--hard", default="")
@click.option("--a", "a_set", required=True)
@click.option("--b", "b_set", required=True)
@click.option("--c", "c_set", default="")
@click.option("--mode", type=click.Choice(["id", "d"]), default="id",
              show_default=True)
@click.option("--explain", is_flag=True)
@json_option
def sep_cmd(graph_file, soft, hard, a_set, b_set, c_set, mode, explain, as_json):
    """Separation query, optionally after manipulation."""
    g, D, T = _load_graph(graph_file), _split(soft), _split(hard)
    mg = manipulate(g, D, T) if D or T else g
    A, B, C = _split(a_set), _split(b_set), _split(c_set)
    sep = (id_separated if mode == "id" else d_separated)(mg, A, B, C)
    walk, text = None, "separated" if sep else "connected"
    if explain and not sep:
        w = (open_walk if mode == "id" else m_open_walk)(mg, A, B, C)
        if w:
            walk = walk_nodes(w)
            text += "\nwalk: " + " ".join(walk)
    _answer(as_json, {"separated": sep, "walk": walk}, text)


@main.command("fci")
@click.option("--oracle", "oracle_spec", required=True,
              help="graph:FILE or scm:FILE")
@click.option("--out", type=click.Path(dir_okay=False))
@click.option("--trace", is_flag=True)
@json_option
@click.option("--dot", "as_dot", is_flag=True,
              help="Graphviz dot output; under --json, only in the --out file.")
def fci_cmd(oracle_spec, out, trace, as_json, as_dot):
    """Recover a partial graph from an independence oracle."""
    kind, _, path = oracle_spec.partition(":")
    if kind not in ("graph", "scm") or not path:
        _fail("--oracle must be graph:FILE or scm:FILE")
    if kind == "graph":
        orc = graph_oracle(_load_graph(path))
    else:
        orc = distribution_oracle(oc.parse_scm(_read(path)))
    log = [] if trace else None
    p = run_fci(orc, trace=log)
    payload = {"graph": _graph_json(p), **({"trace": log} if trace else {})}
    text = _graph_text(p, as_dot)
    # the exception to the one answer path (see the module docstring)
    if not as_json:
        for line in log or ():
            click.echo(line, err=True)
    elif out:
        click.echo(_json(payload))
        as_json = False
    _answer(as_json, payload, text, out=out)


def _estimand(res):
    """The payload, text and exit code of a sidp or scidp result."""
    failed = isinstance(res, (FailCertificate, ExchangeFail))
    text = str(res) if failed else format_estimand(res)
    return ({"ok": not failed, "certificate" if failed else "estimand": text},
            text, int(failed))


@main.command("sidp")
@graph_option
@click.option("--a", "a_set", required=True)
@click.option("--b", "b_set", required=True)
@click.option("--class", "cls", type=click.Choice(_CLASSES), default=None)
@json_option
def sidp_cmd(graph_file, a_set, b_set, cls, as_json):
    """Identify the kernel of A under hard manipulation of B."""
    g = _load_graph(graph_file)
    _answer(as_json, *_estimand(sidp(g, _split(a_set), _split(b_set), cls)))


@main.command("scidp")
@graph_option
@click.option("--a", "a_set", required=True)
@click.option("--b", "b_set", required=True)
@click.option("--c", "c_set", default="")
@click.option("--class", "cls", type=click.Choice(_CLASSES), default=None)
@json_option
def scidp_cmd(graph_file, a_set, b_set, c_set, cls, as_json):
    """Identify the kernel of A given C under hard manipulation of B."""
    g = _load_graph(graph_file)
    res = scidp(g, _split(a_set), _split(b_set), _split(c_set), cls)
    _answer(as_json, *_estimand(res))


@main.command("calculus")
@graph_option
@click.option("--rule", type=click.IntRange(1, 3), required=True)
@click.option("--a", "a_set", required=True)
@click.option("--b", "b_set", required=True)
@click.option("--c", "c_set", default="")
@click.option("--d", "d_set", default="")
@json_option
def calculus_cmd(graph_file, rule, a_set, b_set, c_set, d_set, as_json):
    """Check whether a calculus rule applies."""
    ok = calculus_check(_load_graph(graph_file), rule, _split(a_set),
                        _split(b_set), _split(c_set), _split(d_set))
    _answer(as_json, {"applies": ok}, "applies" if ok else "does not apply",
            int(not ok))


@main.command("adjust")
@graph_option
@click.option("--a", "a_set", required=True)
@click.option("--b", "b_set", required=True)
@click.option("--c", "c_set", default="")
@click.option("--d", "d_set", default="")
@click.option("--j0", default="")
@click.option("--j1", default="")
@click.option("--h", "h_set", default="")
@json_option
def adjust_cmd(graph_file, a_set, b_set, c_set, d_set, j0, j1, h_set, as_json):
    """Check the adjustment criterion and print the formula on success."""
    ok, est = adjustment_check(
        _load_graph(graph_file), _split(a_set), _split(b_set), _split(c_set),
        _split(d_set), _split(j0), _split(j1), _split(h_set))
    text = format_estimand(est) if ok else None
    _answer(as_json, {"applies": ok, "estimand": text},
            text or "does not apply", int(not ok))


@main.command("relation")
@graph_option
@click.option("--source", required=True)
@click.option("--target", required=True)
@click.option("--kind", type=click.Choice(
    ["direct", "total", "confounding", "sel_ancestor"]), required=True)
@json_option
def relation_cmd(graph_file, source, target, kind, as_json):
    """Single-pair causal relation over every represented graph."""
    verdict = causal_relation(_load_graph(graph_file), source, target, kind)
    _answer(as_json, {"verdict": verdict}, verdict)


def _hedge_json(h) -> dict:
    """A hedge as hedge-witness and pipeline write it under --json."""
    return {"H": sorted(h.H), "Hprime": sorted(h.Hprime), "R": sorted(h.R)}


def _hedge_line(hedge: dict) -> str:
    """A hedge, from its --json form, as the text answers print it."""
    return "hedge: H={%s} H'={%s} R={%s}" % tuple(
        ",".join(hedge[k]) for k in ("H", "Hprime", "R"))


@main.command("hedge-witness")
@graph_option
@click.option("--a", "a_set", required=True)
@click.option("--b", "b_set", required=True)
@json_option
def hedge_cmd(graph_file, a_set, b_set, as_json):
    """Run identification and, on Fail, construct a verified hedge."""
    g = _load_graph(graph_file)
    A, B = _split(a_set), _split(b_set)
    res = sidp(g, A, B)
    if isinstance(res, FailCertificate):
        _mag, wit, h = hedge_witness(g, A, B, res)
        hedge = _hedge_json(h)
        payload = {"identifiable": False, "certificate": str(res),
                   "witness": _graph_json(wit), "hedge": hedge}
        text = "\n".join([str(res), "witness:", _graph_text(wit),
                          _hedge_line(hedge)])
    else:
        payload = {"identifiable": True}
        text = "identifiable: " + format_estimand(res)
    _answer(as_json, payload, text, int(payload["identifiable"]))


@main.command("eval")
@click.option("--scm", "scm_file", required=True,
              type=click.Path(exists=True, dir_okay=False))
@click.option("--estimand", "estimand_file", required=True,
              help="file with an estimand expression, or - for stdin")
@click.option("--zero-rows", type=click.Choice(["error", "uniform"]),
              default="error", show_default=True)
@json_option
def eval_cmd(scm_file, estimand_file, zero_rows, as_json):
    """Evaluate an estimand against a model's observed distribution."""
    scm = oc.parse_scm(_read(scm_file))
    est = parse_estimand(sys.stdin.read() if estimand_file == "-"
                         else _read(estimand_file))
    if isinstance(est, (FailCertificate, ExchangeFail)):
        _fail("cannot evaluate a failure certificate")
    text = oc.format_kernel(oc.eval_estimand(
        est, oc.observational_kernel(scm), scm, zero_rows=zero_rows))
    _answer(as_json, {"kernel": text}, text.rstrip("\n"))


@main.command("enumerate-mags")
@graph_option
@click.option("--membership", type=click.Choice(["all", "copag"]),
              default="all", show_default=True)
@click.option("--limit", type=int, default=1 << 16, show_default=True)
@json_option
def enumerate_cmd(graph_file, membership, limit, as_json):
    """All maximal ancestral graphs refining the circle marks of a graph."""
    ms = enumerate_mags(_load_graph(graph_file), limit, membership)
    _answer(as_json,
            {"count": len(ms), "graphs": [_graph_json(m) for m in ms]},
            "\n\n".join(_graph_text(m) for m in ms) if ms else None)


@main.command("random-scm")
@graph_option
@click.option("--seed", type=int, default=0, show_default=True)
@click.option("--domain", type=int, default=2, show_default=True)
@click.option("--no-positivity", is_flag=True)
def random_scm_cmd(graph_file, seed, domain, no_positivity):
    """Generate a reproducible random model for a graph."""
    scm = oc.random_scm(_load_graph(graph_file), random.Random(_seed(seed)),
                        domain=domain, positivity=not no_positivity)
    _answer(False, None, oc.format_scm(scm).rstrip("\n"))


@main.command("pipeline")
@click.option("--scm", "scm_file", required=True,
              type=click.Path(exists=True, dir_okay=False))
@click.option("--a", "a_set", required=True)
@click.option("--b", "b_set", required=True)
@json_option
def pipeline_cmd(scm_file, a_set, b_set, as_json):
    """End to end: discover the partial graph from the model, identify,
    evaluate, and compare against the model's own interventional kernel."""
    scm = oc.parse_scm(_read(scm_file))
    A, B = _split(a_set), _split(b_set)
    model = MixedGraph(scm.kinds)  # discovery drops latents: check them here
    model.check_nodes(A, B)
    l0_sets(model, A, B)
    orc = distribution_oracle(scm)
    p = run_fci(orc)
    res = sidp(p, A, B)
    report = {"graph": _graph_json(p)}
    if isinstance(res, FailCertificate):
        _mag, _wit, h = hedge_witness(p, A, B, res)
        report.update(verdict="FAIL-CERTIFIED", certificate=str(res),
                      hedge=_hedge_json(h))
    else:
        got = oc.eval_estimand(res, orc.kernel, scm)
        want = oc.interventional_kernel(scm, B, outputs=sorted(got.outputs))
        match = oc.kernels_agree(got, want)
        report.update(verdict="MATCH" if match else "MISMATCH",
                      estimand=format_estimand(res))
    text = "\n".join(_hedge_line(v) if k == "hedge" else f"{k}: {v}"
                     for k, v in report.items() if k != "graph")
    _answer(as_json, report, text, int(report["verdict"] != "MATCH"))


if __name__ == "__main__":
    main()

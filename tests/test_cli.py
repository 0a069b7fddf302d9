"""End-to-end tests for the command line interface."""

import json
import os
import random
import re
import subprocess
import sys

import click
import pytest
from click.testing import CliRunner

import pagid
from pagid.cli import main
from pagid.fci import fci, graph_oracle
from pagid.graph import ARROW, TAIL, parse_graph
from pagid.identify import (
    Base,
    Marginalize,
    format_estimand,
    hedge_witness,
    parse_estimand,
    sidp,
)
from pagid.manipulate import manipulate, parse_manipulated
from pagid.represent import mag_of
from pagid import oracle as oc

CYCLE4 = (
    "node a output\nnode b output\nnode c1 output\nnode c2 output\n"
    "edge b --- c1\nedge b --- c2\nedge c1 --- a\nedge c2 --- a\n"
)
BACKDOOR = (
    "node a output\nnode b output\nnode c output\n"
    "edge c --> a\nedge a --> b\nedge c --> b\n"
)
VISIBLE = (
    "node a output\nnode b output\nnode c1 output\n"
    "edge c1 <-> a\nedge a --> b\n"
)
# not a valid MAG: v0 <-> v2 with v0 an ancestor of v2
NOT_MAG = (
    "node v0 output\nnode v1 output\nnode v2 output\nnode v4 output\n"
    "edge v0 <-> v2\nedge v0 --> v4\nedge v1 --> v2\nedge v1 <-> v4\n"
    "edge v4 --> v2\n"
)
LATENT_BOW = (
    "node a output\nnode b output\nnode l latent\n"
    "edge l --> a\nedge l --> b\nedge a --> b\n"
)
# a selection node below v0, the treatment
SELECTED = (
    "node v0 output\nnode v1 output\nnode v2 output\nnode s0 selection\n"
    "edge v2 --> v1\nedge v1 --> v0\nedge v0 --> s0\nedge v2 --> v0\n"
)
# a PAG whose input node has --o edges
INPUT_PAG = (
    "node i0 input\nnode v0 output\nnode v1 output\nnode v2 output\n"
    "node v3 output\nnode v4 output\n"
    "edge i0 --o v0\nedge i0 --o v1\nedge i0 --> v3\nedge v0 o-o v1\n"
    "edge v0 --o v2\nedge v0 --o v4\nedge v1 --> v3\nedge v2 o-o v4\n"
    "edge v4 --> v3\n"
)
# an FCI PAG with an input's edge i0 --o v0 into a node with arrowheads
UNORIENTED_PAG = (
    "node i0 input\nnode v0 output\nnode v1 output\nnode v2 output\n"
    "node v3 output\nnode v4 output\n"
    "edge i0 --o v0\nedge i0 --o v1\nedge i0 --o v2\nedge i0 --o v3\n"
    "edge i0 --o v4\nedge v0 <-o v1\nedge v0 <-o v2\nedge v0 <-o v3\n"
    "edge v0 <-o v4\nedge v1 o-o v2\nedge v2 o-o v3\nedge v3 o-o v4\n"
    "edge v2 o-o v4\n"
)


# input, latent and output nodes, for the wrong-kind messages
KINDS = (
    "node i input\nnode l latent\nnode a output\nnode c output\n"
    "edge i --> a\nedge l --> a\nedge l --> c\nedge a --> c\n"
)
CHAIN_INPUT = (
    "node i input\nnode a output\nnode b output\nnode c output\n"
    "edge i --> a\nedge a --> b\nedge b --> c\n"
)
CONFOUNDED = "node a output\nnode c output\nedge a --> c\nedge a <-> c\n"
COLLIDER = (
    "node a output\nnode b output\nnode c output\n"
    "edge b --> a\nedge c --> a\n"
)
CIRCLE = "node a output\nnode b output\nedge a o-> b\n"
# no orientation of a o-> b keeps b --- c ancestral: no MAG at all
NO_MAG = (
    "node a output\nnode b output\nnode c output\n"
    "edge a o-> b\nedge b --- c\n"
)


def model_text(graph_text, seed=0):
    """A random model of a graph, in the model file format."""
    return oc.format_scm(oc.random_scm(parse_graph(graph_text),
                                       random.Random(seed)))


@pytest.fixture
def runner():
    return CliRunner()


def write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


class TestValidate:
    def test_valid_graph(self, runner, tmp_path):
        f = write(tmp_path, "g.txt", BACKDOOR)
        r = runner.invoke(main, ["validate", "--graph", f, "--class", "mag"])
        assert r.exit_code == 0
        assert r.output.strip() == "valid"

    def test_invalid_graph(self, runner, tmp_path):
        f = write(tmp_path, "g.txt",
                  "node a output\nnode b output\nedge a o-o b\n")
        r = runner.invoke(main, ["validate", "--graph", f, "--class", "mag"])
        assert r.exit_code == 1
        assert r.output.strip()

    def test_json_payload(self, runner, tmp_path):
        f = write(tmp_path, "g.txt", BACKDOOR)
        r = runner.invoke(main, ["validate", "--graph", f, "--json"])
        data = json.loads(r.output)
        assert data["schema"] == 1 and data["valid"] is True

    def test_deep_chain_is_a_valid_admg(self, runner, tmp_path):
        # deeper than the recursion limit
        n = 1200
        text = "".join(f"node v{i:04d} output\n" for i in range(n)) + "".join(
            f"edge v{i:04d} --> v{i + 1:04d}\n" for i in range(n - 1))
        f = write(tmp_path, "g.txt", text)
        r = runner.invoke(main, ["validate", "--graph", f, "--class", "admg"])
        assert r.exit_code == 0
        assert r.output.strip() == "valid"

    def test_parse_error_exits_2(self, runner, tmp_path):
        f = write(tmp_path, "g.txt", "nonsense\n")
        r = runner.invoke(main, ["validate", "--graph", f])
        assert r.exit_code == 2


class TestGraphCommands:
    def test_mag_projection(self, runner, tmp_path):
        f = write(tmp_path, "g.txt",
                  "node a output\nnode b output\nnode s selection\n"
                  "edge a --> s\nedge b --> s\n")
        r = runner.invoke(main, ["mag", "--graph", f])
        assert r.exit_code == 0
        got = parse_graph(r.output)
        assert got == mag_of(parse_graph(
            "node a output\nnode b output\nnode s selection\n"
            "edge a --> s\nedge b --> s\n"))
        assert set(got.node_ids) == {"a", "b"}

    def test_canonical_round_trip(self, runner, tmp_path):
        f = write(tmp_path, "g.txt", CYCLE4)
        r = runner.invoke(main, ["canonical", "--graph", f])
        assert r.exit_code == 0
        assert mag_of(parse_graph(r.output)) == parse_graph(CYCLE4)

    def test_canonical_names_a_circle_mark(self, runner, tmp_path):
        f = write(tmp_path, "g.txt",
                  "node a output\nnode b output\nedge a o-o b\n")
        r = runner.invoke(main, ["canonical", "--graph", f])
        assert r.exit_code == 2
        assert "circle mark on a o-o b: not a MAG" in r.output

    def test_dot_output(self, runner, tmp_path):
        f = write(tmp_path, "g.txt", BACKDOOR)
        r = runner.invoke(main, ["mag", "--graph", f, "--dot"])
        assert r.output.startswith("digraph")
        assert "->" in r.output

    def test_out_writes_file(self, runner, tmp_path):
        f = write(tmp_path, "g.txt", BACKDOOR)
        dest = tmp_path / "out.txt"
        r = runner.invoke(main, ["mag", "--graph", f, "--out", str(dest)])
        assert r.exit_code == 0
        assert parse_graph(dest.read_text()) == parse_graph(BACKDOOR)

    def test_marginalize_drops_latents(self, runner, tmp_path):
        f = write(tmp_path, "g.txt",
                  "node a output\nnode b output\nnode l latent\n"
                  "edge l --> a\nedge l --> b\n")
        r = runner.invoke(main, ["marginalize", "--graph", f])
        assert r.exit_code == 0
        g = parse_graph(r.output)
        assert "l" not in g.node_ids
        assert len(list(g.edges_between("a", "b"))) == 1

    def test_manipulate(self, runner, tmp_path):
        f = write(tmp_path, "g.txt", BACKDOOR)
        r = runner.invoke(main, ["manipulate", "--graph", f, "--soft", "a",
                                 "--json"])
        assert r.exit_code == 0
        data = json.loads(r.output)
        assert data["soft"] == ["a"] and data["hard"] == []

    @staticmethod
    def regime_edges(output, targets):
        g = parse_manipulated(output).graph
        return {d: [(w, mi, mw) for w, mi, mw, _ in g.edges_at("I__" + d)]
                for d in targets}

    def test_manipulate_reads_a_graph_that_is_no_mag_as_admg(
            self, runner, tmp_path):
        f = write(tmp_path, "g.txt", NOT_MAG)
        r = runner.invoke(main, ["manipulate", "--graph", f,
                                 "--soft", "v0,v1,v4"])
        assert r.exit_code == 0
        assert self.regime_edges(r.output, ["v0", "v1", "v4"]) == {
            d: [(d, TAIL, ARROW)] for d in ("v0", "v1", "v4")
        }

    def test_manipulate_rejects_a_graph_invalid_in_its_class(
            self, runner, tmp_path):
        f = write(tmp_path, "g.txt", NOT_MAG)
        r = runner.invoke(main, ["manipulate", "--graph", f,
                                 "--soft", "v0,v1,v4", "--class", "mag"])
        assert r.exit_code == 2
        assert "almost directed cycle" in r.output

    def test_manipulate_reads_latent_graph_as_admg(self, runner, tmp_path):
        f = write(tmp_path, "g.txt", LATENT_BOW)
        r = runner.invoke(main, ["manipulate", "--graph", f, "--soft", "a"])
        assert r.exit_code == 0
        assert self.regime_edges(r.output, ["a"]) == {
            "a": [("a", TAIL, ARROW)]
        }


class TestSep:
    def test_separated(self, runner, tmp_path):
        f = write(tmp_path, "g.txt",
                  "node a output\nnode b output\nnode c output\n"
                  "edge a --> b\nedge b --> c\n")
        r = runner.invoke(main, ["sep", "--graph", f, "--a", "a", "--b", "c",
                                 "--c", "b", "--mode", "d"])
        assert r.exit_code == 0
        assert r.output.strip() == "separated"

    def test_connected_with_explanation(self, runner, tmp_path):
        f = write(tmp_path, "g.txt", BACKDOOR)
        r = runner.invoke(main, ["sep", "--graph", f, "--a", "a", "--b", "b",
                                 "--explain"])
        assert r.exit_code == 0
        assert r.output.splitlines()[0] == "connected"
        assert r.output.splitlines()[1].startswith("walk:")

    def test_d_mode_explains_its_walk(self, runner, tmp_path):
        # c is a collider: given c, a and b meet through it
        f = write(tmp_path, "g.txt", "node a output\nnode b output\n"
                  "node c output\nedge a --> c\nedge b --> c\n")
        args = ["sep", "--graph", f, "--a", "a", "--b", "b", "--c", "c",
                "--mode", "d", "--explain"]
        r = runner.invoke(main, args)
        assert r.exit_code == 0
        assert r.output == "connected\nwalk: a c b\n"
        r = runner.invoke(main, args + ["--json"])
        assert json.loads(r.output) == {"schema": 1, "separated": False,
                                        "walk": ["a", "c", "b"]}

    def test_manipulated_query(self, runner, tmp_path):
        f = write(tmp_path, "g.txt", CYCLE4)
        r = runner.invoke(main, ["sep", "--graph", f, "--soft", "b",
                                 "--a", "a", "--b", "I__b",
                                 "--c", "c1,c2", "--json"])
        assert r.exit_code == 0
        assert json.loads(r.output)["separated"] is True


    @pytest.mark.parametrize("empty", [["--soft", ","], ["--hard", ","],
                                       ["--soft", "", "--hard", ",,"]])
    def test_an_empty_target_list_is_no_manipulation(self, runner, tmp_path,
                                                     empty):
        # a directed cycle, valid in no class a manipulation reads it as
        f = write(tmp_path, "g.txt", "node a output\nnode b output\n"
                  "node c output\nedge a --> b\nedge b --> c\nedge c --> a\n")
        args = ["sep", "--graph", f, "--a", "a", "--b", "c"]
        plain, given = runner.invoke(main, args), runner.invoke(main, args + empty)
        assert (plain.exit_code, plain.output) == (0, "connected\n")
        assert (given.exit_code, given.output) == (plain.exit_code, plain.output)


class TestDotHelp:
    """Each command's --dot help states what --dot does under --json."""

    @pytest.mark.parametrize("command, rule", [
        ("mag", "ignored under --json"),
        ("canonical", "ignored under --json"),
        ("marginalize", "ignored under --json"),
        ("fci", "under --json, only in the --out file"),
    ])
    def test_dot_help_states_the_json_rule(self, runner, command, rule):
        r = runner.invoke(main, [command, "--help"])
        assert r.exit_code == 0
        line = " ".join(r.output.split())
        assert re.search(r"--dot Graphviz dot output; " + re.escape(rule), line)


class TestFciCommand:
    def test_graph_oracle(self, runner, tmp_path):
        f = write(tmp_path, "g.txt",
                  "node a output\nnode b output\nnode c output\n"
                  "edge b --> a\nedge c --> a\n")
        r = runner.invoke(main, ["fci", "--oracle", f"graph:{f}"])
        assert r.exit_code == 0
        g = parse_graph(r.output)
        e = next(iter(g.edges_between("b", "a")))
        assert e.mark_at("a").name == "ARROW"

    def test_trace_goes_to_stderr(self, runner, tmp_path):
        f = write(tmp_path, "g.txt",
                  "node a output\nnode b output\nnode c output\n"
                  "edge b --> a\nedge c --> a\n")
        r = runner.invoke(main, ["fci", "--oracle", f"graph:{f}", "--trace"])
        assert r.exit_code == 0
        assert "R0" in r.stderr

    def test_scm_oracle_and_json(self, runner, tmp_path):
        scm = oc.random_scm(parse_graph(BACKDOOR), __import__("random").Random(1))
        f = write(tmp_path, "m.scm", oc.format_scm(scm))
        r = runner.invoke(main, ["fci", "--oracle", f"scm:{f}", "--json"])
        assert r.exit_code == 0
        data = json.loads(r.output)
        assert data["schema"] == 1 and "graph" in data

    @pytest.mark.parametrize("text, problems", [
        ("edge a --> b\nedge b --> c\nedge c --> a\n",
         "directed cycle a,b,c,a"),
        ("edge a o-> b\nedge b <-o c\n",
         "circle mark on a o-> b; circle mark on b <-o c"),
    ], ids=["cycle", "pag"])
    def test_graph_oracle_rejects_an_invalid_graph(self, runner, tmp_path,
                                                   text, problems):
        # valid neither as an ADMG nor as a MAG: no model to query
        f = write(tmp_path, "g.txt",
                  "node a output\nnode b output\nnode c output\n" + text)
        r = runner.invoke(main, ["fci", "--oracle", f"graph:{f}"])
        assert r.exit_code == 2
        assert r.output == f"error: invalid input graph: {problems}\n"

    def test_graph_oracle_takes_a_mag_with_undirected_edges(self, runner,
                                                           tmp_path):
        f = write(tmp_path, "g.txt", CYCLE4)
        r = runner.invoke(main, ["fci", "--oracle", f"graph:{f}"])
        assert r.exit_code == 0
        assert parse_graph(r.output) == parse_graph(CYCLE4)

    def test_bad_oracle_spec(self, runner):
        r = runner.invoke(main, ["fci", "--oracle", "nope"])
        assert r.exit_code == 2


class TestIdentifyCommands:
    def test_sidp_failure(self, runner, tmp_path):
        f = write(tmp_path, "g.txt", CYCLE4)
        r = runner.invoke(main, ["sidp", "--graph", f, "--a", "a", "--b", "b"])
        assert r.exit_code == 1
        assert r.output.strip() == "FAIL C={a,c1,c2} T={a,b,c1,c2}"

    def test_sidp_success_with_class(self, runner, tmp_path):
        f = write(tmp_path, "g.txt", BACKDOOR)
        r = runner.invoke(main, ["sidp", "--graph", f, "--a", "b", "--b", "a",
                                 "--class", "admg"])
        assert r.exit_code == 0
        assert r.output.startswith("(")

    def test_admg_reading_projects_latents(self, runner, tmp_path):
        # read as an ADMG, the bow is a --> b with a <-> b
        f = write(tmp_path, "g.txt", LATENT_BOW)
        r = runner.invoke(main, ["sidp", "--graph", f, "--class", "admg",
                                 "--a", "b", "--b", "a"])
        assert r.exit_code == 1
        assert r.output.strip() == "FAIL C={b} T={a,b}"

    def test_explicit_class_is_validated_as_that_class(self, runner,
                                                       tmp_path):
        f = write(tmp_path, "g.txt", (
            "node a output\nnode b output\nnode c output\nnode d output\n"
            "edge a <-> b\nedge b <-> c\nedge b --> d\nedge d --> c\n"))
        r = runner.invoke(main, ["sidp", "--graph", f, "--class", "mag",
                                 "--a", "c", "--b", "a"])
        assert r.exit_code == 2
        assert "almost directed cycle" in r.output

    @pytest.mark.parametrize("cmd", ["sidp", "scidp"])
    def test_admg_reading_rejects_selection_nodes(self, runner, tmp_path,
                                                  cmd):
        f = write(tmp_path, "g.txt", SELECTED)
        r = runner.invoke(main, [cmd, "--graph", f, "--class", "admg",
                                 "--a", "v1", "--b", "v0"])
        assert r.exit_code == 2
        assert "selection nodes s0" in r.output
        assert "omit the class" in r.output
        r = runner.invoke(main, [cmd, "--graph", f, "--a", "v1", "--b", "v0"])
        assert r.exit_code == 1 and r.output.startswith("FAIL")

    def test_scidp_json(self, runner, tmp_path):
        f = write(tmp_path, "g.txt", CYCLE4)
        r = runner.invoke(main, ["scidp", "--graph", f, "--a", "a",
                                 "--b", "b", "--c", "c2,c1", "--json"])
        assert r.exit_code == 0
        data = json.loads(r.output)
        assert data["ok"] is True
        assert data["estimand"] == "(cond (b c1 c2) (Q (a b c1 c2)))"

    @pytest.mark.parametrize("args", [["--a", "zz", "--b", "a"],
                                      ["--a", "c", "--b", "zz"],
                                      ["--a", "c", "--b", "a", "--c", "zz"]])
    def test_scidp_names_an_unknown_node(self, runner, tmp_path, args):
        f = write(tmp_path, "g.txt", "node a output\nnode b output\n"
                  "node c output\nedge a --> b\nedge b --> c\n")
        r = runner.invoke(main, ["scidp", "--graph", f] + args)
        assert r.exit_code == 2
        assert r.output == "error: unknown node zz\n"

    @pytest.mark.parametrize("node", ["i", "l"], ids=["input", "latent"])
    @pytest.mark.parametrize("command, message", [
        ("sidp", "A and B must consist of output nodes"),
        ("scidp", "A, B and C must consist of output nodes"),
        ("hedge-witness", "A and B must consist of output nodes"),
        ("pipeline", "A and B must consist of output nodes"),
    ])
    def test_a_node_of_the_wrong_kind_is_no_unknown_node(
            self, runner, tmp_path, command, message, node):
        # the pipeline's model has the input i and the latent l__a__c that
        # realizes a <-> c; discovery keeps neither as an output
        if command == "pipeline":
            text = model_text("node i input\n" + CONFOUNDED + "edge i --> a\n")
            args = ["--scm", write(tmp_path, "m.scm", text)]
            node = {"l": "l__a__c"}.get(node, node)
        else:
            args = ["--graph", write(tmp_path, "g.txt", KINDS)]
        r = runner.invoke(main, [command, *args, "--a", node, "--b", "a"])
        assert r.exit_code == 2
        assert r.output == f"error: {message}\n"

    @pytest.mark.parametrize("args", [
        ["manipulate", "--soft", "zz"],
        ["manipulate", "--hard", "zz"],
        ["calculus", "--rule", "2", "--a", "a", "--b", "zz"],
        ["calculus", "--rule", "1", "--a", "a", "--b", "b", "--d", "zz"],
        ["sep", "--soft", "zz", "--a", "a", "--b", "b"],
        ["adjust", "--a", "b", "--b", "a", "--j0", "zz"],
    ], ids=["manipulate-soft", "manipulate-hard", "calculus-b", "calculus-d",
            "sep-soft", "adjust-j0"])
    def test_unknown_node_is_named(self, runner, tmp_path, args):
        f = write(tmp_path, "g.txt", BACKDOOR)
        r = runner.invoke(main, args + ["--graph", f])
        assert r.exit_code == 2
        assert r.output == "error: unknown node zz\n"

    def test_calculus(self, runner, tmp_path):
        f = write(tmp_path, "g.txt", CYCLE4)
        ok = runner.invoke(main, ["calculus", "--graph", f, "--rule", "2",
                                  "--a", "a", "--b", "b", "--c", "c1,c2"])
        assert ok.exit_code == 0 and ok.output.strip() == "applies"
        no = runner.invoke(main, ["calculus", "--graph", f, "--rule", "2",
                                  "--a", "a", "--b", "b"])
        assert no.exit_code == 1 and no.output.strip() == "does not apply"

    def test_adjust(self, runner, tmp_path):
        f = write(tmp_path, "g.txt", VISIBLE)
        r = runner.invoke(main, ["adjust", "--graph", f, "--a", "b",
                                 "--b", "a"])
        assert r.exit_code == 0
        assert r.output.startswith("(")
        no = runner.invoke(main, ["adjust", "--graph",
                                  write(tmp_path, "g2.txt", BACKDOOR),
                                  "--a", "b", "--b", "a", "--j0", "c"])
        assert no.exit_code == 1
        assert no.output.strip() == "does not apply"

    def test_relation(self, runner, tmp_path):
        f = write(tmp_path, "g.txt",
                  "node a output\nnode b output\nnode c output\n"
                  "edge a --> b\nedge b --> c\nedge b <-> c\n")
        r = runner.invoke(main, ["relation", "--graph", f, "--source", "a",
                                 "--target", "c", "--kind", "direct"])
        assert r.output.strip() == "AllNo"
        r = runner.invoke(main, ["relation", "--graph", f, "--source", "a",
                                 "--target", "c", "--kind", "total", "--json"])
        assert json.loads(r.output)["verdict"] == "SomeYes"

    @pytest.mark.parametrize(
        "kind", ["direct", "total", "confounding", "sel_ancestor"])
    def test_relation_rejects_an_invalid_graph(self, runner, tmp_path, kind):
        f = write(tmp_path, "g.txt",
                  "node a output\nnode b output\nnode c output\n"
                  "edge a --> b\nedge b --> c\nedge c --> a\n")
        r = runner.invoke(main, ["relation", "--graph", f, "--source", "a",
                                 "--target", "b", "--kind", kind])
        assert r.exit_code == 2
        assert r.output == ("error: invalid input graph: "
                            "directed cycle a,b,c,a\n")

    def test_hedge_witness(self, runner, tmp_path):
        f = write(tmp_path, "g.txt", CYCLE4)
        r = runner.invoke(main, ["hedge-witness", "--graph", f, "--a", "a",
                                 "--b", "b"])
        assert r.exit_code == 0
        lines = r.output.splitlines()
        assert lines[0].startswith("FAIL")
        assert any(l.startswith("hedge: H={") for l in lines)

    def test_hedge_witness_input_with_circle_edges(self, runner, tmp_path):
        f = write(tmp_path, "g.txt", INPUT_PAG)
        r = runner.invoke(main, ["hedge-witness", "--graph", f, "--a", "v3",
                                 "--b", "v0"])
        assert r.exit_code == 0
        assert "hedge: H={v0,v1} H'={v1} R={v1}" in r.output.splitlines()

    def test_hedge_witness_error_is_not_identifiable(self, runner, tmp_path,
                                                     monkeypatch):
        # a failed construction exits 2, apart from the identifiable exit 1
        f = write(tmp_path, "g.txt", UNORIENTED_PAG)
        args = ["--graph", f, "--a", "v1", "--b", "v4"]
        r = runner.invoke(main, ["sidp"] + args)
        assert r.exit_code == 1 and r.output.startswith("FAIL")
        r = runner.invoke(main, ["hedge-witness"] + args)
        assert r.exit_code == 0
        assert "hedge: H={v2,v4} H'={v2} R={v2}" in r.output.splitlines()

        def fails(*_args):
            raise ValueError("constructed witness admits no verifiable hedge")

        monkeypatch.setattr("pagid.cli.hedge_witness", fails)
        r = runner.invoke(main, ["hedge-witness"] + args)
        assert r.exit_code == 2
        assert "constructed witness admits no verifiable hedge" in r.output

    def test_hedge_witness_identifiable(self, runner, tmp_path):
        f = write(tmp_path, "g.txt", VISIBLE)
        r = runner.invoke(main, ["hedge-witness", "--graph", f, "--a", "b",
                                 "--b", "a"])
        assert r.exit_code == 1
        assert r.output.startswith("identifiable:")


class TestEval:
    SCM = (
        "var a\nvar b parents=a\n"
        "cpt a - 1/2 1/2\ncpt b 0 3/4 1/4\ncpt b 1 1/4 3/4\n"
    )

    def test_tsv_output(self, runner, tmp_path):
        scm = write(tmp_path, "m.scm", self.SCM)
        est = write(tmp_path, "e.txt", "(marg (a) (Q (a b)))")
        r = runner.invoke(main, ["eval", "--scm", scm, "--estimand", est])
        assert r.exit_code == 0
        lines = r.output.strip().splitlines()
        assert lines[0] == "b\tp"
        assert lines[1] == "0\t1/2"

    def test_stdin_estimand(self, runner, tmp_path):
        scm = write(tmp_path, "m.scm", self.SCM)
        r = runner.invoke(main, ["eval", "--scm", scm, "--estimand", "-"],
                          input="(cond (a) (Q (a b)))\n")
        assert r.exit_code == 0
        assert "3/4" in r.output

    def test_unknown_variable_is_named(self, runner, tmp_path):
        # the chain's estimand with c renamed: no variable zz in the model
        chain = parse_graph("node a output\nnode b output\nnode c output\n"
                            "edge a --> b\nedge b --> c\n")
        text = format_estimand(sidp(chain, ["c"], ["a"], "admg"))
        scm = write(tmp_path, "m.scm", self.SCM + "var c parents=b\n"
                    "cpt c 0 2/3 1/3\ncpt c 1 1/3 2/3\n")
        est = write(tmp_path, "e.txt", re.sub(r"\bc\b", "zz", text))
        r = runner.invoke(main, ["eval", "--scm", scm, "--estimand", est])
        assert r.exit_code == 2
        assert "unknown variable zz" in r.output

    def test_certificate_is_rejected(self, runner, tmp_path):
        scm = write(tmp_path, "m.scm", self.SCM)
        for text in ("FAIL C={a} T={a,b}",
                     "FAIL exchange bucket={a} B={b} C={}"):
            est = write(tmp_path, "e.txt", text)
            r = runner.invoke(main, ["eval", "--scm", scm, "--estimand", est])
            assert r.exit_code == 2
            assert "error: cannot evaluate a failure certificate" in r.output

    def test_deep_estimand(self, runner, tmp_path):
        # deeper than the recursion limit: it prints, parses back and
        # evaluates, in the library and through the command line
        est = Base(frozenset("ab"))
        for _ in range(5000):
            est = Marginalize(est, frozenset())
        text = format_estimand(est)
        assert parse_estimand(text) == est
        model = oc.parse_scm(self.SCM)
        qv = oc.observational_kernel(model)
        assert oc.kernels_agree(oc.eval_estimand(est, qv, model), qv)
        scm = write(tmp_path, "m.scm", self.SCM)
        r = runner.invoke(main, ["eval", "--scm", scm, "--estimand",
                                 write(tmp_path, "e.txt", text)])
        assert r.exit_code == 0
        assert r.output == oc.format_kernel(qv)

    def test_deep_compose_chain(self, runner, tmp_path):
        # a compose chain deeper than the recursion limit, under a
        # marginalization that reads its outputs
        text = "(Q (a b))"
        for _ in range(3000):
            text = f"(compose () {text} (marg (a b) (Q (a b))))"
        scm = write(tmp_path, "m.scm", self.SCM)
        r = runner.invoke(main, ["eval", "--scm", scm, "--estimand",
                                 write(tmp_path, "e.txt", f"(marg () {text})")])
        assert r.exit_code == 0, r.output
        qv = oc.observational_kernel(oc.parse_scm(self.SCM))
        assert r.output == oc.format_kernel(qv)


class TestEnumerateAndRandom:
    def test_enumerate_unique_class(self, runner, tmp_path):
        f = write(tmp_path, "g.txt",
                  CYCLE4.replace("---", "---"))
        r = runner.invoke(main, ["enumerate-mags", "--graph", f,
                                 "--membership", "copag", "--json"])
        assert r.exit_code == 0
        assert json.loads(r.output)["count"] == 1

    def test_enumerate_limit_below_one(self, runner, tmp_path):
        f = write(tmp_path, "g.txt", BACKDOOR)
        r = runner.invoke(main, ["enumerate-mags", "--graph", f,
                                 "--limit", "0"])
        assert r.exit_code == 2
        assert r.output == "error: limit must be at least 1, not 0\n"

    def test_random_scm_deterministic(self, runner, tmp_path):
        f = write(tmp_path, "g.txt", BACKDOOR)
        r1 = runner.invoke(main, ["random-scm", "--graph", f, "--seed", "4"])
        r2 = runner.invoke(main, ["random-scm", "--graph", f, "--seed", "4"])
        r3 = runner.invoke(main, ["random-scm", "--graph", f, "--seed", "5"])
        assert r1.output == r2.output != r3.output

    def test_seed_env_override(self, runner, tmp_path):
        f = write(tmp_path, "g.txt", BACKDOOR)
        r1 = runner.invoke(main, ["random-scm", "--graph", f, "--seed", "4"],
                           env={"PAGC_SEED": "5"})
        r2 = runner.invoke(main, ["random-scm", "--graph", f, "--seed", "5"])
        assert r1.output == r2.output


# several problems in every class, and circle marks on several edges
MANY_PROBLEMS = (
    "node i input\nnode j input\nnode k input\nnode a output\n"
    "node b output\nnode c output\n"
    "edge a --> i\nedge b --> j\nedge i --- j\nedge j --> k\n"
    "edge a <-> k\nedge c o-> i\nedge b o-o c\n"
)
# four almost directed cycles at b: p --> mp --> b with p <-> b, and so on
ALMOST_CYCLES = "node b output\n" + "".join(
    f"node {v} output\nnode m{v} output\nedge {v} --> m{v}\n"
    f"edge m{v} --> b\nedge {v} <-> b\n" for v in "pqrt")
CIRCLES = (
    "node a output\nnode b output\nnode c output\nnode d output\n"
    "node e output\n"
    "edge a o-o b\nedge b o-o c\nedge c o-> d\nedge d o-o e\n"
)


# each subcommand's required arguments, on nodes that CHAIN_INPUT and
# CONFOUNDED both have
SET_ARGS = {
    "adjust": ["--a", "c", "--b", "a"],
    "calculus": ["--rule", "1", "--a", "c", "--b", "a"],
    "hedge-witness": ["--a", "c", "--b", "a"],
    "pipeline": ["--a", "c", "--b", "a"],
    "relation": ["--source", "a", "--target", "c", "--kind", "total"],
    "scidp": ["--a", "c", "--b", "a"],
    "sep": ["--a", "c", "--b", "a"],
    "sidp": ["--a", "c", "--b", "a"],
}
# every text option names a node set, except these
NOT_SETS = ("--graph", "--oracle", "--scm", "--estimand")
SET_OPTIONS = [
    (name, p.opts[0], mode)
    for name, cmd in sorted(main.commands.items()) for p in cmd.params
    if isinstance(p.type, click.types.StringParamType)
    and p.opts[0] not in NOT_SETS
    for mode in ([[], ["--mode", "d"]] if name == "sep" else [[]])
]


class TestUnknownNodes:
    """An unknown node in any set option of any subcommand exits 2 with one
    line that names it, before any other check.  The options are read off
    the commands, so an option added later is covered too."""

    def test_the_options_are_found(self):
        found = {(name, option) for name, option, _mode in SET_OPTIONS}
        assert {("adjust", "--j1"), ("marginalize", "--nodes"),
                ("relation", "--target"), ("sep", "--soft")} <= found
        assert {name for name, _option, _mode in SET_OPTIONS} == set(
            SET_ARGS) | {"manipulate", "marginalize"}

    @pytest.mark.parametrize("text", [CHAIN_INPUT, CONFOUNDED],
                             ids=["chain-with-input", "confounded"])
    @pytest.mark.parametrize(
        "command, option, mode", SET_OPTIONS,
        ids=["-".join([c, *m[1:], o.lstrip("-")]) for c, o, m in SET_OPTIONS])
    def test_every_set_option_names_it(self, runner, tmp_path, text,
                                       command, option, mode):
        if command == "pipeline":
            args = ["--scm", write(tmp_path, "m.scm", model_text(text))]
        else:
            args = ["--graph", write(tmp_path, "g.txt", text)]
        rest = list(SET_ARGS.get(command, []))
        if option in rest:
            rest[rest.index(option) + 1] = "zz"
        else:
            rest += [option, "zz"]
        r = runner.invoke(main, [command, *args, *rest, *mode])
        assert r.exit_code == 2, r.output
        assert isinstance(r.exception, SystemExit)
        assert r.output == "error: unknown node zz\n"


# a graph with input, latent and selection nodes, and its FCI PAG
FCI_ADMG = (
    "node i0 input\nnode l0 latent\nnode s0 selection\nnode v0 output\n"
    "node v1 output\nnode v2 output\nnode v3 output\nnode v4 output\n"
    "node v5 output\n"
    "edge i0 --> v3\nedge i0 --> v4\nedge l0 <-> v1\nedge l0 <-> v4\n"
    "edge v0 --> v1\nedge v3 --> v0\nedge v4 --> v0\nedge v2 --> v1\n"
    "edge v4 --> v1\nedge v5 --> v1\nedge v2 --> v4\n"
)
FCI_PAG = (
    "node i0 input\nnode v0 output\nnode v1 output\nnode v2 output\n"
    "node v3 output\nnode v4 output\nnode v5 output\n"
    "edge i0 --o v3\nedge i0 --> v4\nedge v0 --> v1\nedge v3 --> v0\n"
    "edge v4 --> v0\nedge v2 --> v1\nedge v4 --> v1\nedge v5 o-> v1\n"
    "edge v2 o-> v4\n"
)
# a model whose discovered graph leaves marks open and fails identification
CONFOUNDED_MODEL = model_text(
    "node i input\nnode a output\nnode b output\nnode c output\n"
    "node d output\nedge i --> a\nedge a --> b\nedge b --> c\n"
    "edge d --> c\nedge a <-> b\n")
# a confounded chain with a selection node, and its model (the confounder
# becomes a latent variable); eval reads the back-door estimand from stdin
SELECTED_CHAIN = (
    "node a output\nnode b output\nnode c output\nnode s selection\n"
    "edge a --> b\nedge b --> c\nedge a <-> c\nedge c --> s\n"
)
SELECTED_MODEL = model_text(SELECTED_CHAIN)
BACKDOOR_ESTIMAND = (
    "(marg (a) (prod (cond (a b) (Q (a b c))) (marg (b c) (Q (a b c)))))")


class TestHashSeed:
    """The output does not depend on Python's string hashing, which differs
    between processes unless PYTHONHASHSEED fixes it.  FILE stands for the
    input file; stdin holds BACKDOOR_ESTIMAND."""

    @pytest.mark.parametrize("args,text", [
        (["validate", "--graph", "FILE"], MANY_PROBLEMS),
        (["validate", "--graph", "FILE", "--class", "admg"], MANY_PROBLEMS),
        (["validate", "--graph", "FILE", "--class", "mag"], ALMOST_CYCLES),
        (["canonical", "--graph", "FILE"], CIRCLES),
        (["enumerate-mags", "--graph", "FILE"], CIRCLES),
        (["sidp", "--graph", "FILE", "--a", "v5", "--b", "v4"], FCI_PAG),
        (["scidp", "--graph", "FILE", "--a", "v1", "--b", "v0",
          "--c", "v4"], FCI_PAG),
        (["calculus", "--graph", "FILE", "--rule", "2", "--a", "a",
          "--b", "b", "--c", "c1,c2"], CYCLE4),
        (["adjust", "--graph", "FILE", "--a", "v1", "--b", "v0",
          "--c", "v2,v3,v4"], FCI_PAG),
        (["relation", "--graph", "FILE", "--source", "v2", "--target", "v1",
          "--kind", "total"], FCI_PAG),
        (["hedge-witness", "--graph", "FILE", "--a", "v1", "--b", "v2"],
         FCI_PAG),
        (["fci", "--trace", "--oracle", "graph:FILE"], FCI_ADMG),
        (["fci", "--trace", "--oracle", "scm:FILE"], CONFOUNDED_MODEL),
        (["pipeline", "--scm", "FILE", "--a", "c", "--b", "b"],
         CONFOUNDED_MODEL),
        (["mag", "--graph", "FILE"], FCI_ADMG),
        (["marginalize", "--graph", "FILE"], FCI_ADMG),
        (["manipulate", "--graph", "FILE", "--soft", "v2", "--hard", "v0"],
         FCI_PAG),
        (["sep", "--graph", "FILE", "--a", "v1", "--b", "v3", "--explain"],
         FCI_PAG),
        (["eval", "--scm", "FILE", "--estimand", "-"], SELECTED_MODEL),
        (["random-scm", "--graph", "FILE", "--seed", "3"], SELECTED_CHAIN),
    ], ids=["validate", "validate-admg", "validate-mag", "canonical",
          "enumerate-mags", "sidp", "scidp", "calculus", "adjust",
          "relation", "hedge-witness", "fci-graph", "fci-scm", "pipeline",
          "mag", "marginalize", "manipulate", "sep-explain", "eval",
          "random-scm"])
    def test_same_output_under_two_hash_seeds(self, tmp_path, args, text):
        f = write(tmp_path, "input.txt", text)
        src = os.path.dirname(os.path.dirname(pagid.__file__))
        outs = []
        for seed in ("1", "2"):
            env = dict(os.environ, PYTHONHASHSEED=seed, PYTHONPATH=src)
            r = subprocess.run(
                [sys.executable, "-c", "from pagid.cli import main; main()",
                 *(a.replace("FILE", f) for a in args)],
                env=env, capture_output=True, text=True, timeout=60,
                input=BACKDOOR_ESTIMAND)
            assert "Traceback" not in r.stderr
            outs.append((r.returncode, r.stdout, r.stderr))
        assert outs[0] == outs[1]


# a model whose discovered graph orients a --> b: the pipeline matches
MATCH_MODEL = model_text(
    "node c1 output\nnode c2 output\nnode a output\nnode b output\n"
    "edge c1 --> a\nedge c2 --> a\nedge a --> b\n", 6)


class TestAnswers:
    """Every subcommand's answer, byte for byte: the exit code, stdout,
    stderr and the --out file (None when none is written).  Each runs in
    text mode and under --json, with --dot and --out where it offers them,
    and on each of its exit codes.  In the arguments FILE names the input,
    EST a file holding ESTIMAND and OUT the --out file; stdin holds a
    failure certificate."""

    ESTIMAND = "(marg (a) (Q (a b)))"

    CASES = {
        'validate': (
            ['validate', '--graph', 'FILE'], BACKDOOR, 0,
            'valid\n',
            '', None),
        'validate-json': (
            ['validate', '--graph', 'FILE', '--json'], BACKDOOR, 0,
            '{"problems": [], "schema": 1, "valid": true}\n',
            '', None),
        'validate-invalid': (
            ['validate', '--graph', 'FILE', '--class', 'admg'], CIRCLE, 1,
            'circle mark on a o-> b\n',
            '', None),
        'validate-invalid-json': (
            ['validate', '--graph', 'FILE', '--class', 'admg', '--json'],
            CIRCLE, 1,
            ('{"problems": ["circle mark on a o-> b"], "schema": 1, "valid": '
             'false}\n'),
            '', None),
        'mag': (
            ['mag', '--graph', 'FILE'], LATENT_BOW, 0,
            'node a output\nnode b output\nedge a --> b\n',
            '', None),
        'mag-json': (
            ['mag', '--graph', 'FILE', '--json'], LATENT_BOW, 0,
            ('{"graph": {"edges": ["a --> b"], "nodes": {"a": "output", "b": '
             '"output"}}, "schema": 1}\n'),
            '', None),
        'mag-dot': (
            ['mag', '--graph', 'FILE', '--dot'], LATENT_BOW, 0,
            ('digraph g {\n'
             '  edge [dir=both];\n'
             '  "a";\n'
             '  "b";\n'
             '  "a" -> "b" [arrowtail=none, arrowhead=normal];\n'
             '}\n'),
            '', None),
        'mag-out': (
            ['mag', '--graph', 'FILE', '--out', 'OUT'], LATENT_BOW, 0,
            '',
            '', 'node a output\nnode b output\nedge a --> b\n'),
        'mag-json-out': (
            ['mag', '--graph', 'FILE', '--json', '--out', 'OUT'], LATENT_BOW,
            0,
            '',
            '',
            ('{"graph": {"edges": ["a --> b"], "nodes": {"a": "output", "b": '
             '"output"}}, "schema": 1}\n')),
        'mag-dot-out': (
            ['mag', '--graph', 'FILE', '--dot', '--out', 'OUT'], LATENT_BOW,
            0,
            '',
            '',
            ('digraph g {\n'
             '  edge [dir=both];\n'
             '  "a";\n'
             '  "b";\n'
             '  "a" -> "b" [arrowtail=none, arrowhead=normal];\n'
             '}\n')),
        'canonical': (
            ['canonical', '--graph', 'FILE'], VISIBLE, 0,
            ('node a output\n'
             'node b output\n'
             'node c1 output\n'
             'edge a --> b\n'
             'edge a <-> c1\n'),
            '', None),
        'canonical-json': (
            ['canonical', '--graph', 'FILE', '--json'], VISIBLE, 0,
            ('{"graph": {"edges": ["a --> b", "a <-> c1"], "nodes": {"a": "ou'
             'tput", "b": "output", "c1": "output"}}, "schema": 1}\n'),
            '', None),
        'canonical-dot': (
            ['canonical', '--graph', 'FILE', '--dot'], VISIBLE, 0,
            ('digraph g {\n'
             '  edge [dir=both];\n'
             '  "a";\n'
             '  "b";\n'
             '  "c1";\n'
             '  "a" -> "b" [arrowtail=none, arrowhead=normal];\n'
             '  "a" -> "c1" [arrowtail=normal, arrowhead=normal];\n'
             '}\n'),
            '', None),
        'canonical-out': (
            ['canonical', '--graph', 'FILE', '--out', 'OUT'], VISIBLE, 0,
            '',
            '',
            ('node a output\n'
             'node b output\n'
             'node c1 output\n'
             'edge a --> b\n'
             'edge a <-> c1\n')),
        'canonical-json-out': (
            ['canonical', '--graph', 'FILE', '--json', '--out', 'OUT'],
            VISIBLE, 0,
            '',
            '',
            ('{"graph": {"edges": ["a --> b", "a <-> c1"], "nodes": {"a": "ou'
             'tput", "b": "output", "c1": "output"}}, "schema": 1}\n')),
        'canonical-dot-out': (
            ['canonical', '--graph', 'FILE', '--dot', '--out', 'OUT'],
            VISIBLE, 0,
            '',
            '',
            ('digraph g {\n'
             '  edge [dir=both];\n'
             '  "a";\n'
             '  "b";\n'
             '  "c1";\n'
             '  "a" -> "b" [arrowtail=none, arrowhead=normal];\n'
             '  "a" -> "c1" [arrowtail=normal, arrowhead=normal];\n'
             '}\n')),
        'marginalize': (
            ['marginalize', '--graph', 'FILE', '--nodes', 'l'], LATENT_BOW, 0,
            'node a output\nnode b output\nedge a --> b\nedge a <-> b\n',
            '', None),
        'marginalize-json': (
            ['marginalize', '--graph', 'FILE', '--nodes', 'l', '--json'],
            LATENT_BOW, 0,
            ('{"graph": {"edges": ["a --> b", "a <-> b"], "nodes": {"a": "out'
             'put", "b": "output"}}, "schema": 1}\n'),
            '', None),
        'marginalize-dot': (
            ['marginalize', '--graph', 'FILE', '--nodes', 'l', '--dot'],
            LATENT_BOW, 0,
            ('digraph g {\n'
             '  edge [dir=both];\n'
             '  "a";\n'
             '  "b";\n'
             '  "a" -> "b" [arrowtail=none, arrowhead=normal];\n'
             '  "a" -> "b" [arrowtail=normal, arrowhead=normal];\n'
             '}\n'),
            '', None),
        'marginalize-out': (
            ['marginalize', '--graph', 'FILE', '--nodes', 'l', '--out',
            'OUT'], LATENT_BOW, 0,
            '',
            '', 'node a output\nnode b output\nedge a --> b\nedge a <-> b\n'),
        'marginalize-json-out': (
            ['marginalize', '--graph', 'FILE', '--nodes', 'l', '--json',
            '--out', 'OUT'], LATENT_BOW, 0,
            '',
            '',
            ('{"graph": {"edges": ["a --> b", "a <-> b"], "nodes": {"a": "out'
             'put", "b": "output"}}, "schema": 1}\n')),
        'marginalize-dot-out': (
            ['marginalize', '--graph', 'FILE', '--nodes', 'l', '--dot',
            '--out', 'OUT'], LATENT_BOW, 0,
            '',
            '',
            ('digraph g {\n'
             '  edge [dir=both];\n'
             '  "a";\n'
             '  "b";\n'
             '  "a" -> "b" [arrowtail=none, arrowhead=normal];\n'
             '  "a" -> "b" [arrowtail=normal, arrowhead=normal];\n'
             '}\n')),
        'manipulate': (
            ['manipulate', '--graph', 'FILE', '--soft', 'a', '--hard', 'c'],
            BACKDOOR, 0,
            ('soft a\n'
             'hard c\n'
             'node I__a input\n'
             'node a output\n'
             'node b output\n'
             'node c input\n'
             'edge I__a --> a\n'
             'edge I__a --> b\n'
             'edge a --> b\n'
             'edge a <-- c\n'
             'edge b <-- c\n'),
            '', None),
        'manipulate-json': (
            ['manipulate', '--graph', 'FILE', '--soft', 'a', '--hard', 'c',
            '--json'], BACKDOOR, 0,
            ('{"graph": {"edges": ["I__a --> a", "I__a --> b", "a --> b", "a '
             '<-- c", "b <-- c"], "nodes": {"I__a": "input", "a": "output", "'
             'b": "output", "c": "input"}}, "hard": ["c"], "schema": 1, "soft'
             '": ["a"]}\n'),
            '', None),
        'sep': (
            ['sep', '--graph', 'FILE', '--a', 'a', '--b', 'c', '--c', 'b'],
            CHAIN_INPUT, 0,
            'connected\n',
            '', None),
        'sep-json': (
            ['sep', '--graph', 'FILE', '--a', 'a', '--b', 'c', '--c', 'b',
            '--json'], CHAIN_INPUT, 0,
            '{"schema": 1, "separated": false, "walk": null}\n',
            '', None),
        'sep-connected': (
            ['sep', '--graph', 'FILE', '--a', 'a', '--b', 'c'], CHAIN_INPUT,
            0,
            'connected\n',
            '', None),
        'sep-explain': (
            ['sep', '--graph', 'FILE', '--a', 'a', '--b', 'c', '--explain'],
            CHAIN_INPUT, 0,
            'connected\nwalk: a i\n',
            '', None),
        'sep-explain-json': (
            ['sep', '--graph', 'FILE', '--a', 'a', '--b', 'c', '--explain',
            '--json'], CHAIN_INPUT, 0,
            '{"schema": 1, "separated": false, "walk": ["a", "i"]}\n',
            '', None),
        'sep-d-explain': (
            ['sep', '--graph', 'FILE', '--a', 'a', '--b', 'c', '--mode', 'd',
            '--explain'], CHAIN_INPUT, 0,
            'connected\nwalk: a b c\n',
            '', None),
        'fci': (
            ['fci', '--oracle', 'graph:FILE'], COLLIDER, 0,
            ('node a output\n'
             'node b output\n'
             'node c output\n'
             'edge a <-o b\n'
             'edge a <-o c\n'),
            '', None),
        'fci-json': (
            ['fci', '--oracle', 'graph:FILE', '--json'], COLLIDER, 0,
            ('{"graph": {"edges": ["a <-o b", "a <-o c"], "nodes": {"a": "out'
             'put", "b": "output", "c": "output"}}, "schema": 1}\n'),
            '', None),
        'fci-dot': (
            ['fci', '--oracle', 'graph:FILE', '--dot'], COLLIDER, 0,
            ('digraph g {\n'
             '  edge [dir=both];\n'
             '  "a";\n'
             '  "b";\n'
             '  "c";\n'
             '  "a" -> "b" [arrowtail=normal, arrowhead=odot];\n'
             '  "a" -> "c" [arrowtail=normal, arrowhead=odot];\n'
             '}\n'),
            '', None),
        'fci-trace': (
            ['fci', '--oracle', 'graph:FILE', '--trace'], COLLIDER, 0,
            ('node a output\n'
             'node b output\n'
             'node c output\n'
             'edge a <-o b\n'
             'edge a <-o c\n'),
            ('R0 arrowhead at a on b-a because a not in sepset(b,c)\n'
             'R0 arrowhead at a on c-a because a not in sepset(b,c)\n'),
            None),
        'fci-json-trace': (
            ['fci', '--oracle', 'graph:FILE', '--json', '--trace'], COLLIDER,
            0,
            ('{"graph": {"edges": ["a <-o b", "a <-o c"], "nodes": {"a": "out'
             'put", "b": "output", "c": "output"}}, "schema": 1, "trace": ["R'
             '0 arrowhead at a on b-a because a not in sepset(b,c)", "R0 arro'
             'whead at a on c-a because a not in sepset(b,c)"]}\n'),
            '', None),
        'fci-out': (
            ['fci', '--oracle', 'graph:FILE', '--out', 'OUT'], COLLIDER, 0,
            '',
            '',
            ('node a output\n'
             'node b output\n'
             'node c output\n'
             'edge a <-o b\n'
             'edge a <-o c\n')),
        'fci-json-out': (
            ['fci', '--oracle', 'graph:FILE', '--json', '--out', 'OUT'],
            COLLIDER, 0,
            ('{"graph": {"edges": ["a <-o b", "a <-o c"], "nodes": {"a": "out'
             'put", "b": "output", "c": "output"}}, "schema": 1}\n'),
            '',
            ('node a output\n'
             'node b output\n'
             'node c output\n'
             'edge a <-o b\n'
             'edge a <-o c\n')),
        'fci-dot-out': (
            ['fci', '--oracle', 'graph:FILE', '--dot', '--out', 'OUT'],
            COLLIDER, 0,
            '',
            '',
            ('digraph g {\n'
             '  edge [dir=both];\n'
             '  "a";\n'
             '  "b";\n'
             '  "c";\n'
             '  "a" -> "b" [arrowtail=normal, arrowhead=odot];\n'
             '  "a" -> "c" [arrowtail=normal, arrowhead=odot];\n'
             '}\n')),
        'fci-trace-out': (
            ['fci', '--oracle', 'graph:FILE', '--trace', '--out', 'OUT'],
            COLLIDER, 0,
            '',
            ('R0 arrowhead at a on b-a because a not in sepset(b,c)\n'
             'R0 arrowhead at a on c-a because a not in sepset(b,c)\n'),
            ('node a output\n'
             'node b output\n'
             'node c output\n'
             'edge a <-o b\n'
             'edge a <-o c\n')),
        'fci-json-dot-out': (
            ['fci', '--oracle', 'graph:FILE', '--json', '--dot', '--out',
            'OUT'], COLLIDER, 0,
            ('{"graph": {"edges": ["a <-o b", "a <-o c"], "nodes": {"a": "out'
             'put", "b": "output", "c": "output"}}, "schema": 1}\n'),
            '',
            ('digraph g {\n'
             '  edge [dir=both];\n'
             '  "a";\n'
             '  "b";\n'
             '  "c";\n'
             '  "a" -> "b" [arrowtail=normal, arrowhead=odot];\n'
             '  "a" -> "c" [arrowtail=normal, arrowhead=odot];\n'
             '}\n')),
        'fci-scm': (
            ['fci', '--oracle', 'scm:FILE'], TestEval.SCM, 0,
            'node a output\nnode b output\nedge a o-o b\n',
            '', None),
        'fci-bad-oracle': (
            ['fci', '--oracle', 'nope'], COLLIDER, 2,
            '',
            'error: --oracle must be graph:FILE or scm:FILE\n', None),
        'sidp': (
            ['sidp', '--graph', 'FILE', '--a', 'b', '--b', 'a'], BACKDOOR, 1,
            'FAIL C={b,c} T={a,b,c}\n',
            '', None),
        'sidp-json': (
            ['sidp', '--graph', 'FILE', '--a', 'b', '--b', 'a', '--json'],
            BACKDOOR, 1,
            ('{"certificate": "FAIL C={b,c} T={a,b,c}", "ok": false, "schema"'
             ': 1}\n'),
            '', None),
        'sidp-1': (
            ['sidp', '--graph', 'FILE', '--a', 'c', '--b', 'a'], CONFOUNDED,
            1,
            'FAIL C={c} T={a,c}\n',
            '', None),
        'sidp-1-json': (
            ['sidp', '--graph', 'FILE', '--a', 'c', '--b', 'a', '--json'],
            CONFOUNDED, 1,
            ('{"certificate": "FAIL C={c} T={a,c}", "ok": false, "schema": 1}'
             '\n'),
            '', None),
        'scidp': (
            ['scidp', '--graph', 'FILE', '--a', 'b', '--b', 'a', '--c', 'c'],
            BACKDOOR, 1,
            'FAIL C={b,c} T={a,b,c}\n',
            '', None),
        'scidp-json': (
            ['scidp', '--graph', 'FILE', '--a', 'b', '--b', 'a', '--c', 'c',
            '--json'], BACKDOOR, 1,
            ('{"certificate": "FAIL C={b,c} T={a,b,c}", "ok": false, "schema"'
             ': 1}\n'),
            '', None),
        'scidp-1': (
            ['scidp', '--graph', 'FILE', '--a', 'c', '--b', 'a'], CONFOUNDED,
            1,
            'FAIL C={c} T={a,c}\n',
            '', None),
        'scidp-1-json': (
            ['scidp', '--graph', 'FILE', '--a', 'c', '--b', 'a', '--json'],
            CONFOUNDED, 1,
            ('{"certificate": "FAIL C={c} T={a,c}", "ok": false, "schema": 1}'
             '\n'),
            '', None),
        'calculus': (
            ['calculus', '--graph', 'FILE', '--rule', '2', '--a', 'a', '--b',
            'b', '--c', 'c1,c2'], CYCLE4, 0,
            'applies\n',
            '', None),
        'calculus-json': (
            ['calculus', '--graph', 'FILE', '--rule', '2', '--a', 'a', '--b',
            'b', '--c', 'c1,c2', '--json'], CYCLE4, 0,
            '{"applies": true, "schema": 1}\n',
            '', None),
        'calculus-1': (
            ['calculus', '--graph', 'FILE', '--rule', '2', '--a', 'a', '--b',
            'b'], CYCLE4, 1,
            'does not apply\n',
            '', None),
        'calculus-1-json': (
            ['calculus', '--graph', 'FILE', '--rule', '2', '--a', 'a', '--b',
            'b', '--json'], CYCLE4, 1,
            '{"applies": false, "schema": 1}\n',
            '', None),
        'adjust': (
            ['adjust', '--graph', 'FILE', '--a', 'b', '--b', 'a'], VISIBLE, 0,
            '(cond (a) (marg (c1) (Q (a b c1))))\n',
            '', None),
        'adjust-json': (
            ['adjust', '--graph', 'FILE', '--a', 'b', '--b', 'a', '--json'],
            VISIBLE, 0,
            ('{"applies": true, "estimand": "(cond (a) (marg (c1) (Q (a b c1)'
             ')))", "schema": 1}\n'),
            '', None),
        'adjust-1': (
            ['adjust', '--graph', 'FILE', '--a', 'b', '--b', 'a', '--j0',
            'c'], BACKDOOR, 1,
            'does not apply\n',
            '', None),
        'adjust-1-json': (
            ['adjust', '--graph', 'FILE', '--a', 'b', '--b', 'a', '--j0', 'c',
            '--json'], BACKDOOR, 1,
            '{"applies": false, "estimand": null, "schema": 1}\n',
            '', None),
        'hedge-witness-hedge': (
            ['hedge-witness', '--graph', 'FILE', '--a', 'c', '--b', 'a'],
            CONFOUNDED, 0,
            ('FAIL C={c} T={a,c}\n'
             'witness:\n'
             'node a output\n'
             'node c output\n'
             'edge a --> c\n'
             'edge a <-> c\n'
             "hedge: H={a,c} H'={c} R={c}\n"),
            '', None),
        'hedge-witness-hedge-json': (
            ['hedge-witness', '--graph', 'FILE', '--a', 'c', '--b', 'a',
            '--json'], CONFOUNDED, 0,
            ('{"certificate": "FAIL C={c} T={a,c}", "hedge": {"H": ["a", "c"]'
             ', "Hprime": ["c"], "R": ["c"]}, "identifiable": false, "schema"'
             ': 1, "witness": {"edges": ["a --> c", "a <-> c"], "nodes": {"a"'
             ': "output", "c": "output"}}}\n'),
            '', None),
        'hedge-witness-identifiable': (
            ['hedge-witness', '--graph', 'FILE', '--a', 'b', '--b', 'a'],
            VISIBLE, 1,
            ('identifiable: (let ((%0 (prod (cond (a c1) (Q (a b c1))) (marg '
             '(a b) (Q (a b c1)))))) (prod (cond (b c1) %0) (marg (c1) %0)))'
             '\n'),
            '', None),
        'hedge-witness-identifiable-json': (
            ['hedge-witness', '--graph', 'FILE', '--a', 'b', '--b', 'a',
            '--json'], VISIBLE, 1,
            '{"identifiable": true, "schema": 1}\n',
            '', None),
        'relation': (
            ['relation', '--graph', 'FILE', '--source', 'a', '--target', 'c',
            '--kind', 'total'], BACKDOOR, 0,
            'AllNo\n',
            '', None),
        'relation-json': (
            ['relation', '--graph', 'FILE', '--source', 'a', '--target', 'c',
            '--kind', 'total', '--json'], BACKDOOR, 0,
            '{"schema": 1, "verdict": "AllNo"}\n',
            '', None),
        'eval': (
            ['eval', '--scm', 'FILE', '--estimand', 'EST'], TestEval.SCM, 0,
            'b\tp\n0\t1/2\n1\t1/2\n',
            '', None),
        'eval-json': (
            ['eval', '--scm', 'FILE', '--estimand', 'EST', '--json'],
            TestEval.SCM, 0,
            '{"kernel": "b\\tp\\n0\\t1/2\\n1\\t1/2\\n", "schema": 1}\n',
            '', None),
        'eval-certificate': (
            ['eval', '--scm', 'FILE', '--estimand', '-'], TestEval.SCM, 2,
            '',
            'error: cannot evaluate a failure certificate\n', None),
        'enumerate-mags': (
            ['enumerate-mags', '--graph', 'FILE'], CIRCLE, 0,
            ('node a output\n'
             'node b output\n'
             'edge a --> b\n'
             '\n'
             'node a output\n'
             'node b output\n'
             'edge a <-> b\n'),
            '', None),
        'enumerate-mags-json': (
            ['enumerate-mags', '--graph', 'FILE', '--json'], CIRCLE, 0,
            ('{"count": 2, "graphs": [{"edges": ["a --> b"], "nodes": {"a": "'
             'output", "b": "output"}}, {"edges": ["a <-> b"], "nodes": {"a":'
             ' "output", "b": "output"}}], "schema": 1}\n'),
            '', None),
        'enumerate-mags-copag': (
            ['enumerate-mags', '--graph', 'FILE', '--membership', 'copag'],
            CIRCLE, 0,
            '',
            '', None),
        'enumerate-mags-none': (
            ['enumerate-mags', '--graph', 'FILE'], NO_MAG, 0,
            '',
            '', None),
        'enumerate-mags-none-json': (
            ['enumerate-mags', '--graph', 'FILE', '--json'], NO_MAG, 0,
            '{"count": 0, "graphs": [], "schema": 1}\n',
            '', None),
        'random-scm': (
            ['random-scm', '--graph', 'FILE', '--seed', '4'], BACKDOOR, 0,
            ('var a kind=output domain=2 parents=c\n'
             'var b kind=output domain=2 parents=a,c\n'
             'var c kind=output domain=2\n'
             'cpt a 0 4/9 5/9\n'
             'cpt a 1 2/9 7/9\n'
             'cpt b 0,0 8/11 3/11\n'
             'cpt b 0,1 1/2 1/2\n'
             'cpt b 1,0 1/8 7/8\n'
             'cpt b 1,1 5/6 1/6\n'
             'cpt c - 2/5 3/5\n'),
            '', None),
        'pipeline': (
            ['pipeline', '--scm', 'FILE', '--a', 'b', '--b', 'a'],
            MATCH_MODEL, 0,
            ('verdict: MATCH\n'
             'estimand: (let ((%0 (prod (cond (a c1 c2) (Q (a b c1 c2))) (mar'
             'g (a b) (Q (a b c1 c2))))) (%1 (prod (cond (b c1 c2) %0) (marg '
             '(c1) %0)))) (prod (cond (b c2) %1) (marg (c2) %1)))\n'),
            '', None),
        'pipeline-json': (
            ['pipeline', '--scm', 'FILE', '--a', 'b', '--b', 'a', '--json'],
            MATCH_MODEL, 0,
            ('{"estimand": "(let ((%0 (prod (cond (a c1 c2) (Q (a b c1 c2))) '
             '(marg (a b) (Q (a b c1 c2))))) (%1 (prod (cond (b c1 c2) %0) (m'
             'arg (c1) %0)))) (prod (cond (b c2) %1) (marg (c2) %1)))", "grap'
             'h": {"edges": ["a --> b", "a <-o c1", "a <-o c2"], "nodes": {"a'
             '": "output", "b": "output", "c1": "output", "c2": "output"}}, "'
             'schema": 1, "verdict": "MATCH"}\n'),
            '', None),
        'pipeline-1': (
            ['pipeline', '--scm', 'FILE', '--a', 'c', '--b', 'b'],
            CONFOUNDED_MODEL, 1,
            ('verdict: FAIL-CERTIFIED\n'
             'certificate: FAIL C={c,d} T={a,b,c,d}\n'
             "hedge: H={b,c} H'={c} R={c}\n"),
            '', None),
        'pipeline-1-json': (
            ['pipeline', '--scm', 'FILE', '--a', 'c', '--b', 'b', '--json'],
            CONFOUNDED_MODEL, 1,
            ('{"certificate": "FAIL C={c,d} T={a,b,c,d}", "graph": {"edges": '
             '["a o-- i", "a o-o b", "b --> c", "b o-- i", "c <-o d"], "nodes'
             '": {"a": "output", "b": "output", "c": "output", "d": "output",'
             ' "i": "input"}}, "hedge": {"H": ["b", "c"], "Hprime": ["c"], "R'
             '": ["c"]}, "schema": 1, "verdict": "FAIL-CERTIFIED"}\n'),
            '', None),
    }

    def test_every_subcommand_is_covered(self):
        assert {case[0][0] for case in self.CASES.values()} == set(
            main.commands)

    @pytest.mark.parametrize("name", list(CASES))
    def test_answer(self, runner, tmp_path, name):
        args, text, code, stdout, stderr, filed = self.CASES[name]
        paths = {"FILE": write(tmp_path, "input.txt", text),
                 "EST": write(tmp_path, "estimand.txt", self.ESTIMAND),
                 "OUT": str(tmp_path / "out.txt")}
        r = runner.invoke(main, [paths[a] if a in ("EST", "OUT")
                                 else a.replace("FILE", paths["FILE"])
                                 for a in args],
                          input="FAIL C={a} T={a,b}\n")
        assert (r.exit_code, r.stdout, r.stderr) == (code, stdout, stderr)
        out = tmp_path / "out.txt"
        assert (out.read_text() if out.exists() else None) == filed


class TestPipeline:
    def test_match_on_orientable_model(self, runner, tmp_path):
        g = parse_graph(
            "node c1 output\nnode c2 output\nnode a output\nnode b output\n"
            "edge c1 --> a\nedge c2 --> a\nedge a --> b\n"
        )
        scm = oc.random_scm(g, __import__("random").Random(6))
        f = write(tmp_path, "m.scm", oc.format_scm(scm))
        r = runner.invoke(main, ["pipeline", "--scm", f, "--a", "b",
                                 "--b", "a", "--json"])
        assert r.exit_code == 0, r.output
        assert json.loads(r.output)["verdict"] == "MATCH"

    def test_fail_certified_on_confounded_model(self, runner, tmp_path):
        g = parse_graph(
            "node a output\nnode b output\n"
            "edge a --> b\nedge a <-> b\n"
        )
        scm = oc.random_scm(g, __import__("random").Random(3))
        f = write(tmp_path, "m.scm", oc.format_scm(scm))
        r = runner.invoke(main, ["pipeline", "--scm", f, "--a", "b",
                                 "--b", "a", "--json"])
        assert r.exit_code == 1
        data = json.loads(r.output)
        assert data["verdict"] == "FAIL-CERTIFIED"
        assert data["hedge"]["H"]
        r = runner.invoke(main, ["pipeline", "--scm", f, "--a", "b",
                                 "--b", "a"])
        assert r.output.splitlines() == [
            "verdict: FAIL-CERTIFIED", "certificate: FAIL C={b} T={a,b}",
            "hedge: H={a,b} H'={b} R={b}"]


class TestBadModels:
    B_GIVEN_A = "var b parents=a\ncpt b 0 1/2 1/2\ncpt b 1 1/4 3/4\n"

    @pytest.mark.parametrize("command", ["pipeline", "eval"])
    @pytest.mark.parametrize("text, message", [
        ("var a\ncpt a - -1/2 3/2\n" + B_GIVEN_A,
         "table row () of a has negative entry -1/2"),
        ("var a\ncpt a - 1/2 1/2\n" + B_GIVEN_A + "select\n",
         "line 6: malformed select line"),
        ("var a domain=2x\ncpt a - 1/2 1/2\n" + B_GIVEN_A,
         "line 1: domain of a '2x' is not an integer"),
        ("var a\ncpt a - 1/2 1/2\n" + B_GIVEN_A.replace("b 1 ", "b one "),
         "line 5: table key of b 'one' is not an integer"),
        ("var a\ncpt a - 1/2 0.5.0\n" + B_GIVEN_A,
         "line 2: probability of a '0.5.0' is not a number"),
    ], ids=["negative", "bare-select", "domain", "key", "probability"])
    def test_exit_2_without_traceback(self, runner, tmp_path, command, text,
                                      message):
        f = write(tmp_path, "m.scm", text)
        if command == "pipeline":
            args = ["pipeline", "--scm", f, "--a", "b", "--b", "a"]
        else:
            est = write(tmp_path, "e.txt", "(Q (a b))")
            args = ["eval", "--scm", f, "--estimand", est]
        r = runner.invoke(main, args)
        assert r.exit_code == 2, r.output
        assert isinstance(r.exception, SystemExit)
        assert f"error: {message}" in r.output
        assert "Traceback" not in r.output


def _option_spec(p) -> str:
    t = p.type
    if isinstance(t, click.Choice):
        kind = "[" + "|".join(t.choices) + "]"
    elif isinstance(t, click.IntRange):
        kind = f"{t.min}..{t.max}"
    else:
        kind = t.name
    spec = f"{'/'.join(p.opts)} {'flag' if p.is_flag else kind}"
    if p.required:
        return spec + " required"
    if not p.is_flag and isinstance(p.default, (str, int)):
        return spec + f" ={json.dumps(p.default)}"
    return spec


class TestSurface:
    """Every subcommand's options, in order: name, type or choices,
    required or default.  The command line is a kept interface, so a
    change here is a change for every user."""

    SURFACE = {
        "adjust": [
            '--graph file required', '--a text required', '--b text required',
            '--c text =""', '--d text =""', '--j0 text =""', '--j1 text =""',
            '--h text =""', '--json flag',
        ],
        "calculus": [
            '--graph file required', '--rule 1..3 required',
            '--a text required', '--b text required', '--c text =""',
            '--d text =""', '--json flag',
        ],
        "canonical": [
            '--graph file required', '--json flag', '--dot flag', '--out file',
        ],
        "enumerate-mags": [
            '--graph file required', '--membership [all|copag] ="all"',
            '--limit integer =65536', '--json flag',
        ],
        "eval": [
            '--scm file required', '--estimand text required',
            '--zero-rows [error|uniform] ="error"', '--json flag',
        ],
        "fci": [
            '--oracle text required', '--out file', '--trace flag',
            '--json flag', '--dot flag',
        ],
        "hedge-witness": [
            '--graph file required', '--a text required', '--b text required',
            '--json flag',
        ],
        "mag": [
            '--graph file required', '--json flag', '--dot flag', '--out file',
        ],
        "manipulate": [
            '--graph file required', '--soft text =""', '--hard text =""',
            '--class [admg|mag|pag|raw]', '--json flag',
        ],
        "marginalize": [
            '--graph file required', '--nodes text =""', '--json flag',
            '--dot flag', '--out file',
        ],
        "pipeline": [
            '--scm file required', '--a text required', '--b text required',
            '--json flag',
        ],
        "random-scm": [
            '--graph file required', '--seed integer =0',
            '--domain integer =2', '--no-positivity flag',
        ],
        "relation": [
            '--graph file required', '--source text required',
            '--target text required',
            '--kind [direct|total|confounding|sel_ancestor] required',
            '--json flag',
        ],
        "scidp": [
            '--graph file required', '--a text required', '--b text required',
            '--c text =""', '--class [admg|mag|pag|raw]', '--json flag',
        ],
        "sep": [
            '--graph file required', '--soft text =""', '--hard text =""',
            '--a text required', '--b text required', '--c text =""',
            '--mode [id|d] ="id"', '--explain flag', '--json flag',
        ],
        "sidp": [
            '--graph file required', '--a text required', '--b text required',
            '--class [admg|mag|pag|raw]', '--json flag',
        ],
        "validate": [
            '--graph file required', '--class [admg|mag|pag|raw] ="raw"',
            '--json flag',
        ],
    }

    def test_every_subcommand_keeps_its_options(self):
        assert {name: [_option_spec(p) for p in cmd.params]
                for name, cmd in main.commands.items()} == self.SURFACE


# the arguments each subcommand that reads --graph needs besides the graph
GRAPH_COMMANDS = {
    "adjust": ["--a", "a", "--b", "b"],
    "calculus": ["--rule", "1", "--a", "a", "--b", "b"],
    "canonical": [],
    "enumerate-mags": [],
    "hedge-witness": ["--a", "a", "--b", "b"],
    "mag": [],
    "manipulate": [],
    "marginalize": [],
    "random-scm": [],
    "relation": ["--source", "a", "--target", "b", "--kind", "total"],
    "scidp": ["--a", "a", "--b", "b"],
    "sep": ["--a", "a", "--b", "b"],
    "sidp": ["--a", "a", "--b", "b"],
    "validate": [],
}


def _graph_args(command, path):
    if command == "fci":
        return ["fci", "--oracle", f"graph:{path}"]
    return [command, "--graph", path] + GRAPH_COMMANDS[command]


class TestErrorPath:
    """Every error of every subcommand exits 2 with one ``error:`` line on
    stderr and no traceback: the group, not each subcommand, turns the
    exception into the message."""

    def assert_error(self, r, message):
        assert r.exit_code == 2, r.output
        assert isinstance(r.exception, SystemExit)
        assert r.stderr.startswith("error: " + message), r.stderr
        assert len(r.stderr.splitlines()) == 1
        assert "Traceback" not in r.output

    def test_graph_commands_are_all_listed(self):
        assert set(GRAPH_COMMANDS) == {
            name for name, cmd in main.commands.items()
            if any(p.name == "graph_file" for p in cmd.params)}

    @pytest.mark.parametrize("command", sorted(GRAPH_COMMANDS) + ["fci"])
    def test_malformed_graph_file(self, runner, tmp_path, command):
        f = write(tmp_path, "g.txt",
                  "node a output\nnode b output\nedge a >-- b\n")
        r = runner.invoke(main, _graph_args(command, f))
        self.assert_error(r, "line 3: bad edge token '>--'")

    @pytest.mark.parametrize("args", [["mag"], ["canonical"], ["marginalize"],
                                      ["fci"], ["fci", "--json"]],
                             ids=["mag", "canonical", "marginalize", "fci",
                                  "fci-json"])
    def test_unwritable_out(self, runner, tmp_path, args):
        f = write(tmp_path, "g.txt", BACKDOOR)
        out = tmp_path / "missing" / "out.txt"
        r = runner.invoke(main, _graph_args(args[0], f) + args[1:]
                          + ["--out", str(out)])
        self.assert_error(r, "[Errno 2] No such file or directory")
        assert not out.exists()

    def test_broken_pipe_keeps_clicks_handling(self, runner, tmp_path,
                                               monkeypatch):
        def closed(*_args):
            raise BrokenPipeError(32, "Broken pipe")

        monkeypatch.setattr("pagid.cli.validate", closed)
        r = runner.invoke(main, ["validate", "--graph",
                                 write(tmp_path, "g.txt", BACKDOOR)])
        assert r.exit_code == 1
        assert "error:" not in r.output

    def test_unreadable_oracle_file(self, runner, tmp_path):
        missing = str(tmp_path / "missing.txt")
        for kind in ("graph", "scm"):
            r = runner.invoke(main, ["fci", "--oracle", f"{kind}:{missing}"])
            self.assert_error(r, "[Errno 2] No such file or directory")


class TestJsonEdges:
    """A --json edge is written as in the text format, so it parses back
    to the same edge."""

    GRAPH = "node a output\nnode b output\nnode c output\n"

    @staticmethod
    def reparsed(graph_json):
        return parse_graph(
            "".join(f"node {v} {k}\n" for v, k in graph_json["nodes"].items())
            + "".join(f"edge {e}\n" for e in graph_json["edges"]))

    def run(self, runner, tmp_path, text, args):
        f = write(tmp_path, "g.txt", text)
        r = runner.invoke(main, _graph_args(args[0], f) + args[1:]
                          + ["--json"])
        assert r.exit_code == 0, r.output
        return parse_graph(text), json.loads(r.output)

    def test_edge_tokens_match_the_text_format(self, runner, tmp_path):
        g, data = self.run(runner, tmp_path,
                           self.GRAPH + "edge c --> a\nedge a <-> b\n",
                           ["manipulate"])
        assert data["graph"]["edges"] == ["a <-- c", "a <-> b"]

    @pytest.mark.parametrize("text", [
        "edge c --> a\nedge a <-> b\n",
        "edge b --> a\nedge c --> a\n",
        "edge a --> b\nedge b --> c\nedge a <-> c\n",
    ], ids=["bidirected", "collider", "confounded-chain"])
    def test_mag_manipulate_and_fci(self, runner, tmp_path, text):
        g, data = self.run(runner, tmp_path, self.GRAPH + text, ["mag"])
        assert self.reparsed(data["graph"]) == mag_of(g)
        g, data = self.run(runner, tmp_path, self.GRAPH + text,
                           ["manipulate", "--soft", "a", "--hard", "c"])
        assert self.reparsed(data["graph"]) == manipulate(g, ["a"], ["c"]).graph
        g, data = self.run(runner, tmp_path, self.GRAPH + text, ["fci"])
        assert self.reparsed(data["graph"]) == fci(graph_oracle(g))

    @pytest.mark.parametrize("text, A, B", [
        (CYCLE4, "a", "b"), (INPUT_PAG, "v3", "v0"),
        (UNORIENTED_PAG, "v1", "v4"),
    ], ids=["cycle4", "input-pag", "unoriented-pag"])
    def test_hedge_witness(self, runner, tmp_path, text, A, B):
        g, data = self.run(runner, tmp_path, text,
                           ["hedge-witness", "--a", A, "--b", B])
        _mag, wit, _h = hedge_witness(g, [A], [B], sidp(g, [A], [B]))
        assert self.reparsed(data["witness"]) == wit

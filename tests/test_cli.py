"""End-to-end tests for the command line interface."""

import json

import pytest
from click.testing import CliRunner

from pagid.cli import main
from pagid.graph import ARROW, TAIL, parse_graph
from pagid.manipulate import parse_manipulated
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
# a PAG whose input node has --o edges
INPUT_PAG = (
    "node i0 input\nnode v0 output\nnode v1 output\nnode v2 output\n"
    "node v3 output\nnode v4 output\n"
    "edge i0 --o v0\nedge i0 --o v1\nedge i0 --> v3\nedge v0 o-o v1\n"
    "edge v0 --o v2\nedge v0 --o v4\nedge v1 --> v3\nedge v2 o-o v4\n"
    "edge v4 --> v3\n"
)
# an FCI PAG whose input's --o edges have no valid MAG orientation yet
UNORIENTED_PAG = (
    "node i0 input\nnode v0 output\nnode v1 output\nnode v2 output\n"
    "node v3 output\nnode v4 output\n"
    "edge i0 --o v0\nedge i0 --o v1\nedge i0 --o v2\nedge i0 --o v3\n"
    "edge i0 --o v4\nedge v0 <-o v1\nedge v0 <-o v2\nedge v0 <-o v3\n"
    "edge v0 <-o v4\nedge v1 o-o v2\nedge v2 o-o v3\nedge v3 o-o v4\n"
    "edge v2 o-o v4\n"
)


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

    def test_manipulated_query(self, runner, tmp_path):
        f = write(tmp_path, "g.txt", CYCLE4)
        r = runner.invoke(main, ["sep", "--graph", f, "--soft", "b",
                                 "--a", "a", "--b", "I[b]",
                                 "--c", "c1,c2", "--json"])
        assert r.exit_code == 0
        assert json.loads(r.output)["separated"] is True


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
        assert "A, B and C must consist of output nodes" in r.output

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

    def test_hedge_witness_error_is_not_identifiable(self, runner, tmp_path):
        # a failed construction exits 2, apart from the identifiable exit 1
        f = write(tmp_path, "g.txt", UNORIENTED_PAG)
        r = runner.invoke(main, ["sidp", "--graph", f, "--a", "v1",
                                 "--b", "v4"])
        assert r.exit_code == 1 and r.output.startswith("FAIL")
        r = runner.invoke(main, ["hedge-witness", "--graph", f, "--a", "v1",
                                 "--b", "v4"])
        assert r.exit_code == 2
        assert "could not orient the graph into a valid MAG" in r.output

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

    def test_certificate_is_rejected(self, runner, tmp_path):
        scm = write(tmp_path, "m.scm", self.SCM)
        est = write(tmp_path, "e.txt", "FAIL C={a} T={a,b}")
        r = runner.invoke(main, ["eval", "--scm", scm, "--estimand", est])
        assert r.exit_code == 2


class TestEnumerateAndRandom:
    def test_enumerate_unique_class(self, runner, tmp_path):
        f = write(tmp_path, "g.txt",
                  CYCLE4.replace("---", "---"))
        r = runner.invoke(main, ["enumerate-mags", "--graph", f,
                                 "--membership", "copag", "--json"])
        assert r.exit_code == 0
        assert json.loads(r.output)["count"] == 1

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

"""One round of a workload in one fresh process: set up, announce readiness,
run every step of the round in a closed loop, one at a time, and print the
step times, a digest of the answers and, with --check, the outcome of
checking every answer, as one JSON line.

    python3 perfbench/worker.py MANIFEST [--check] [--trace [--trace-out FILE]]
    python3 perfbench/worker.py MANIFEST --setup-only

With --setup-only the worker stops once it is ready, which times set-up
alone.

The machine is shared, and the speed it gives a process drifts by up to
1.8x over seconds and minutes.  So the worker also runs `probe`, a fixed
piece of pure-Python work, right after it is ready and every
PROBE_EVERY_S between steps, and reports next to each step's time the
probe time around that step.  run.py scales step times by them.
"""

from __future__ import annotations

import gc
import hashlib
import json
import resource
import statistics
import sys
import time
from fractions import Fraction


# -- workloads: set-up parses the inputs and returns the round as a list of
# -- (is a query, step) pairs; a query step returns its answer ---------------


def setup_pipeline(man, tracer):
    from click.testing import CliRunner

    from pagid.cli import main

    runner = CliRunner()

    def query(item):
        args = ["pipeline", "--scm", item["path"], "--a", ",".join(item["A"]),
                "--b", ",".join(item["B"]), "--json"]
        if tracer is None:
            res = runner.invoke(main, args)
        else:
            res = tracer.span("cli.pipeline", runner.invoke, (main, args), {})
        return res.exit_code, res.stdout, res.stderr

    return [(True, (lambda item=item: query(item))) for item in man["items"]]


def setup_identify(man, tracer):
    from pagid import oracle as oc
    from pagid.fci import distribution_oracle, fci
    from pagid.graph import GraphClass, parse_graph
    from pagid.identify import (ExchangeFail, FailCertificate,
                                format_estimand, scidp, sidp)

    steps = []
    for item in man["items"]:
        scm = oc.parse_scm(item["scm"]) if "scm" in item else None
        graph = parse_graph(item["graph"]) if "graph" in item else None
        state = {}

        def discover(scm=scm, graph=graph, state=state):
            if graph is None:
                orc = distribution_oracle(scm)
                state["graph"], state["qv"] = fci(orc), orc.kernel
            else:
                state["graph"] = graph
                state["qv"] = scm and oc.observational_kernel(scm)
            return state["graph"]

        steps.append((False, discover))
        cls = {"admg": GraphClass.ADMG, "mag": GraphClass.MAG}.get(
            item.get("reading"))
        for q in item["queries"]:
            def query(q=q, scm=scm, state=state, cls=cls):
                p = state["graph"]
                if q["kind"] == "sidp":
                    res = sidp(p, q["A"], q["B"], cls)
                else:
                    res = scidp(p, q["A"], q["B"], q["C"], cls)
                if isinstance(res, (FailCertificate, ExchangeFail)):
                    return str(res), None
                text = format_estimand(res)
                k = state["qv"] and oc.eval_estimand(res, state["qv"], scm)
                return text, k

            steps.append((True, query))
    return steps


def setup_calculus(man, tracer):
    from inputs import calculus_queries
    from pagid.graph import parse_graph
    from pagid.identify import (adjustment_check, calculus_check,
                                causal_relation, format_estimand)

    steps = []
    for item in man["items"]:
        graphs = [parse_graph(item["mag"]), parse_graph(item["pag"])]
        for g in graphs:
            for q in calculus_queries(sorted(g.outputs)):
                if q[0] == "rule":
                    _, rule, a, b, C, D = q
                    f = (lambda g=g, rule=rule, a=a, b=b, C=C, D=D:
                         calculus_check(g, rule, [a], [b], C, D))
                elif q[0] == "adjust":
                    def f(g=g, a=q[1], b=q[2], J=q[3]):
                        ok, est = adjustment_check(g, [a], [b], J0=J)
                        return ok and format_estimand(est)
                else:
                    f = (lambda g=g, a=q[1], b=q[2], kind=q[3]:
                         causal_relation(g, a, b, kind))
                steps.append((True, f))
    return steps


SETUP = {"pipeline": setup_pipeline, "identify": setup_identify,
         "calculus": setup_calculus}


# -- answer checks -----------------------------------------------------------


def _observed_kernel(en):
    """The reference's observational distribution as a program kernel, so
    that estimands are evaluated against data the program did not make."""
    from pagid.oracle import Kernel

    ctx, table = en.kernel(en.outputs)
    return Kernel(tuple(ctx), tuple(en.outputs),
                  {v: 2 for v in en.m.kinds}, table)


class Checker:
    """Checks answers against the references; `problems` lists failures."""

    HEDGE_FAULT = ("path witness is not a valid represented graph",
                   "could not orient the graph into a valid MAG")

    def __init__(self):
        self.problems = []
        self.failed = 0

    def expect(self, ok, what):
        if not ok:
            self.problems.append(what)

    def estimand(self, en, est_or_kernel, A, B, C, what):
        import ref
        from pagid import oracle as oc
        from pagid.identify import parse_estimand

        ctx, table = en.kernel(A, B, C)
        k = est_or_kernel
        if isinstance(k, str):
            try:
                k = oc.eval_estimand(parse_estimand(k), _observed_kernel(en))
            except ValueError as exc:
                self.expect(False, f"{what}: estimand does not evaluate: {exc}")
                return
        self.expect(ref.kernel_matches(k, ctx, table, A),
                    f"{what}: estimand differs from the exact kernel")

    def pipeline(self, man, answers):
        import models
        import ref

        for item, (code, out, err) in zip(man["items"], answers):
            what = f"pipeline {item['path']} A={item['A']} B={item['B']}"
            if code == 2 and any(msg in err for msg in self.HEDGE_FAULT):
                self.failed += 1
                continue
            if code not in (0, 1):
                self.expect(False, f"{what}: exit {code}: {err.strip()}")
                continue
            rep = json.loads(out)
            s = models.structure_from_json(item["structure"])
            A, B = item["A"], item["B"]
            if rep["verdict"] == "MATCH":
                self.expect(s.selections or ref.admg_identifiable(s, A, B),
                            f"{what}: identified where the ADMG is not")
                self.estimand(ref.Enumerator(models.model_from_json(item["model"])),
                              rep["estimand"], A, B, [], what)
            elif rep["verdict"] == "FAIL-CERTIFIED":
                h = {k: set(v) for k, v in rep["hedge"].items()}
                self.expect(h["R"] <= h["Hprime"] <= h["H"]
                            and not h["Hprime"] & set(B),
                            f"{what}: hedge sets {rep['hedge']}")
            else:
                self.expect(False, f"{what}: verdict {rep['verdict']}")

    def identify(self, man, answers):
        import models
        import ref

        answers = iter(answers)
        for item in man["items"]:
            s = models.structure_from_json(item["structure"])
            en = (ref.Enumerator(models.model_from_json(item["model"]))
                  if "model" in item else None)
            for q in item["queries"]:
                text, kernel = next(answers)
                A, B, C = q["A"], q["B"], q["C"]
                what = f"identify {q['kind']} A={A} B={B} C={C} on {s.kinds}"
                failed = text.startswith("FAIL")
                reading = item.get("reading")
                if reading == "mag":
                    self.expect(failed, f"{what}: MAG chain answer {text[:60]}")
                    continue
                if reading == "admg" or (q["kind"] == "sidp" and not s.selections):
                    fixable = ref.admg_identifiable(s, A, B)
                    if reading == "admg":
                        self.expect(fixable != failed, f"{what}: fixing test "
                                    f"says {fixable}, answer {text[:60]}")
                    else:
                        self.expect(fixable or failed,
                                    f"{what}: identified where the ADMG is not")
                if not failed and en is not None:
                    self.estimand(en, kernel, A, B, C, what)

    def calculus(self, man, answers):
        import models
        import ref
        from inputs import calculus_queries

        answers = iter(answers)
        for item in man["items"]:
            s = models.structure_from_json(item["structure"])
            m = models.model_from_json(item["model"])
            dag, sel, ins = ref.dag_of(m), m.of_kind("selection"), m.of_kind("input")
            en = ref.Enumerator(m)
            for label in ("mag", "pag"):
                for q in calculus_queries(s.outputs):
                    ans = next(answers)
                    what = f"calculus {label} {q} on {s}"
                    if q[0] == "rule" and ans:
                        _, rule, a, b, C, D = q
                        if rule == 1:
                            ok = ref.dag_separated(dag, sel, ins, [a], [b], C, hard=D)
                        else:
                            cond = C + [b] if rule == 2 else C
                            ok = ref.dag_separated(dag, sel, ins, [a], [ref.regime(b)],
                                                   cond, soft=[b], hard=D)
                        self.expect(ok, f"{what}: rule applies, DAG disagrees")
                    elif q[0] == "adjust" and ans:
                        _, a, b, J = q
                        self.estimand(en, ans, [a], [b], [], what)
                    elif q[0] == "relation" and ans == "AllNo":
                        _, a, b, kind = q
                        rest = [v for v in s.outputs if v not in (a, b)]
                        C, D = {"direct": (rest, rest), "total": ([], []),
                                "confounding": ([a], [])}[kind]
                        ok = ref.dag_separated(dag, sel, ins, [b], [ref.regime(a)],
                                               C, soft=[a], hard=D)
                        self.expect(ok, f"{what}: AllNo, DAG disagrees")


def peak_rss_mb():
    """This process's peak resident set.  VmHWM, because ru_maxrss also
    counts the parent's resident set at the fork that started the worker,
    and run.py grows as it collects rounds."""
    try:
        with open("/proc/self/status") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024
    except OSError:
        pass
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def probe_near(probes, j, width=3):
    """Median of the probes within `width` of probe j: those run just
    before a step and just after it, and a few more for steadiness."""
    return statistics.median(probes[max(0, j - width + 1):j + width + 1])


def digest(answers):
    """Stable fingerprint of a round's answers, kernels included."""
    h = hashlib.sha256()
    for ans in answers:
        if isinstance(ans, tuple) and ans and hasattr(ans[-1], "table"):
            ans = ans[:-1] + (sorted(ans[-1].table.items()),)
        h.update(repr(ans).encode())
    return h.hexdigest()


def estimand_texts(workload, answers):
    if workload == "pipeline":
        for code, out, _err in answers:
            if code == 0:
                yield json.loads(out)["estimand"]
    elif workload == "identify":
        for text, _k in answers:
            if not text.startswith("FAIL"):
                yield text
    else:
        for ans in answers:
            if isinstance(ans, str) and ans.startswith("("):
                yield ans


PROBE_EVERY_S = 0.02  # the machine-speed probe runs at most this often
SETUP_PROBES = 30  # probes run once the worker is ready, to scale set-up time


def probe():
    """Seconds for a fixed piece of pure-Python work of the program's kind,
    Fraction arithmetic and updates of a dictionary with tuple keys.  Its
    time tracks the speed the shared machine gives this process at the
    moment; it runs with the collector off, so that it never triggers a
    collection of the program's heap."""
    gc.disable()
    t0 = time.perf_counter()
    x, table = Fraction(1, 3), {}
    for i in range(100):
        x = (x * Fraction(i % 7 + 1, i % 5 + 2) + Fraction(1, i % 3 + 2)) % 17
        table[(i % 40, i % 3)] = x
    dt = time.perf_counter() - t0
    gc.enable()
    return dt


def main(argv):
    manifest_path = argv[1]
    trace_out = argv[argv.index("--trace-out") + 1] if "--trace-out" in argv else None
    with open(manifest_path) as fh:
        man = json.load(fh)
    tracer = None
    if "--trace" in argv:
        from spans import Tracer

        tracer = Tracer()
        tracer.install()
    steps = SETUP[man["workload"]](man, tracer)
    print("ready", flush=True)
    setup_probe = statistics.median(probe() for _ in range(SETUP_PROBES))
    if "--setup-only" in argv:
        print(json.dumps({"setup_probe_s": setup_probe}), flush=True)
        return 0
    # Each step starts from a collected heap, so that it pays for the
    # collections its own allocations cause and not for garbage that earlier
    # steps left pending; which step such a collection hit depended on the
    # seed's tables and moved p50 and p90 between seeds.  The set-up heap is
    # frozen so that collecting is cheap.  Calculus steps are too short and
    # too many to collect before each.
    gc.collect()
    gc.freeze()
    collect = man["workload"] != "calculus"

    step_s, answers, probes, probe_at = [], [], [], []
    if tracer:
        tracer.on = True
    start = last_probe = time.perf_counter()
    for i, (is_query, step) in enumerate(steps):
        if tracer:
            tracer.query = i
        if collect:
            gc.collect()
        if not probes or time.perf_counter() - last_probe >= PROBE_EVERY_S:
            probes.append(probe())
            last_probe = time.perf_counter()
        probe_at.append(len(probes) - 1)
        t0 = time.perf_counter()
        ans = step()
        step_s.append(time.perf_counter() - t0)
        if is_query:
            answers.append(ans)
    probes.append(probe())
    wall = time.perf_counter() - start
    rss = peak_rss_mb()
    if tracer:
        tracer.on = False

    sizes = [len(t) for t in estimand_texts(man["workload"], answers)]
    result = {"step_s": step_s, "probe_s": [probe_near(probes, j) for j in probe_at],
              "setup_probe_s": setup_probe,
              "is_query": [q for q, _ in steps],
              "wall": wall, "rss_mb": rss, "digest": digest(answers),
              "estimand_bytes": statistics.mean(sizes) if sizes else 0}
    if "--check" in argv:
        checker = Checker()
        getattr(checker, man["workload"])(man, answers)
        result.update(problems=checker.problems, failed=checker.failed)
    if tracer:
        result["layers"] = tracer.metrics()
        if trace_out:
            tracer.write(trace_out)
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))

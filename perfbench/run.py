"""Benchmark of pagid: one workload per run, measured end to end, or traced
layer by layer.

    python3 perfbench/run.py --workload {pipeline,identify,calculus}
        --seed N --seconds S --trace {0,1}

Run from the repository root.  The program is imported from ./src.  The
inputs are drawn from the seed and written under perfbench/work/, which is
removed at the end.  A run is whole rounds, each in a fresh worker process
that runs every query of the workload once, cold, as a user's process
would.  Rounds repeat until about S seconds have passed, ending at the
round boundary nearest to S, and at least MIN_ROUNDS run.  The first
round's answers are checked against the references; every later round
must give the same answers.

Times are scaled to a reference machine speed.  The shared machine gives a
process between 1x and 1.8x its best speed, changing over seconds and
minutes, so raw times of the same code on the same inputs spread by more
than any useful bound.  Each step's time is multiplied by PROBE_REF_S over
the time of worker.probe(), a fixed piece of pure-Python work, measured
around that step.  A query's latency is then the median of its scaled
times over the rounds, and throughput uses the sum of those medians.
Set-up time, scaled the same way by probes run right after set-up, is the
median over the rounds and, where there are fewer than SETUP_SAMPLES
rounds, over extra workers that only set up.  Memory is the median over
the rounds.  Raw figures go to standard error.  The last line of standard
output is the result as JSON.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
MIN_ROUNDS = 3
# The fastest time of worker.probe() on the 2-core VM of the figures in
# README.md, so that scaled times read as that VM's times when it is least
# loaded.
PROBE_REF_S = 0.00055
SETUP_SAMPLES = 15
DEADLINE_S = 170  # a run must end within 180 s


def percentile(xs, p):
    xs = sorted(xs)
    return xs[min(len(xs) - 1, int(p * len(xs)))]


def run_round(manifest, extra, deadline):
    """One worker process: returns its result and the seconds from spawn to
    its 'ready' line, the workload's set-up time.  A --setup-only worker's
    result holds only its probe time."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join([SRC, HERE])
    env["PYTHONHASHSEED"] = "0"  # set order, hence search order, is fixed
    t0 = time.perf_counter()
    proc = subprocess.Popen(
        [sys.executable, os.path.join(HERE, "worker.py"), manifest, *extra],
        env=env, stdout=subprocess.PIPE, text=True)
    try:
        line = proc.stdout.readline()
        ready = time.perf_counter() - t0
        out, _ = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.communicate()
    if line.strip() != "ready" or proc.returncode != 0:
        raise RuntimeError(f"worker failed with exit code {proc.returncode}")
    return json.loads(out.strip().splitlines()[-1]), ready


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=["pipeline", "identify", "calculus"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = ap.parse_args()
    deadline = time.monotonic() + DEADLINE_S
    if not os.path.isfile(os.path.join(SRC, "pagid", "__init__.py")):
        print(f"error: no program under {SRC}", file=sys.stderr)
        return 2
    sys.path[:0] = [SRC, HERE]
    import inputs
    import ref

    ref.selfcheck()
    work = os.path.join(HERE, "work", f"{args.workload}-{args.seed}-{os.getpid()}")
    os.makedirs(work, exist_ok=True)
    try:
        items = inputs.GENERATORS[args.workload](args.seed)
        for k, item in enumerate(items):
            if args.workload == "pipeline":
                item["path"] = os.path.join(work, f"model{k}.scm")
                with open(item["path"], "w") as fh:
                    fh.write(item["scm"])
        manifest = os.path.join(work, "manifest.json")
        with open(manifest, "w") as fh:
            json.dump({"workload": args.workload, "items": items}, fh)
        rounds, setups, spent, last = [], [], 0.0, 0.0
        while len(rounds) < MIN_ROUNDS or spent + last / 2 < args.seconds:
            extra = [] if rounds else ["--check"]
            if args.trace:
                extra.append("--trace")
                if not rounds:
                    traces = os.path.join(HERE, "traces")
                    os.makedirs(traces, exist_ok=True)
                    extra += ["--trace-out", os.path.join(
                        traces, f"{args.workload}-seed{args.seed}.jsonl")]
            res, ready = run_round(manifest, extra, deadline)
            rounds.append(res)
            setups.append((ready, res["setup_probe_s"]))
            last = ready + res["wall"]
            spent += last
        while not args.trace and len(setups) < SETUP_SAMPLES:
            res, ready = run_round(manifest, ["--setup-only"], deadline)
            setups.append((ready, res["setup_probe_s"]))
    finally:
        shutil.rmtree(work, ignore_errors=True)
    first = rounds[0]
    for p in first["problems"][:20]:
        print("wrong:", p, file=sys.stderr)
    if len(first["problems"]) > 20:
        print(f"wrong: {len(first['problems']) - 20} more", file=sys.stderr)
    same = all(r["digest"] == first["digest"] for r in rounds)
    if not same:
        print("wrong: a later round answered differently", file=sys.stderr)
    n = sum(first["is_query"])
    result = {"correct": not first["problems"] and same,
              "attempted": n * len(rounds),
              "failed": first["failed"] * len(rounds)}
    if args.trace:
        result["metrics"] = {
            name: {"value": statistics.median(r["layers"][name]["value"]
                                              for r in rounds),
                   "unit": m["unit"]}
            for name, m in first["layers"].items()}
    else:
        def summary(step_s):
            lat = [t for t, q in zip(step_s, first["is_query"]) if q]
            return (statistics.median(lat) * 1e3, percentile(lat, 0.9) * 1e3,
                    n / sum(step_s))

        steps = range(len(first["step_s"]))
        scaled = [statistics.median(r["step_s"][i] * PROBE_REF_S / r["probe_s"][i]
                                    for r in rounds) for i in steps]
        p50, p90, qps = summary(scaled)
        result["metrics"] = {
            "setup_s": {"value": statistics.median(t * PROBE_REF_S / p for t, p in setups),
                        "unit": "s"},
            "query_p50_ms": {"value": p50, "unit": "ms"},
            "query_p90_ms": {"value": p90, "unit": "ms"},
            "queries_per_s": {"value": qps, "unit": "1/s"},
            "estimand_bytes": {"value": first["estimand_bytes"], "unit": "bytes"},
            "peak_rss_mb": {"value": statistics.median(r["rss_mb"] for r in rounds),
                            "unit": "MB"},
        }
        raw = [statistics.median(r["step_s"][i] for r in rounds) for i in steps]
        print("raw: setup_s {:.4f}, query_p50_ms {:.3f}, query_p90_ms {:.3f}, "
              "queries_per_s {:.3f}".format(statistics.median(t for t, _ in setups),
                                            *summary(raw)), file=sys.stderr)
    print(f"rounds: {len(rounds)}, {time.monotonic() - deadline + DEADLINE_S:.1f} s",
          file=sys.stderr)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

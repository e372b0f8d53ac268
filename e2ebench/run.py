#!/usr/bin/env python3
"""End-to-end benchmark of the qsc Compressor (see README.md beside this file).

    python3 e2ebench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout. Builds e2ebench/ (which compiles the
library from src/) into .bench_build/, generates the workload's inputs from
--seed in one process, measures them in a second, computes exact references
in a third, checks every answer, and prints the metrics: a readable table,
then as the last line one JSON object {correct, attempted, failed, metrics}.
With --trace 0 the metrics are BENCHMARK.json's end_to_end list, with
--trace 1 its per_layer list. Exits non-zero on any correctness violation
or failed step.
"""

import argparse
import hashlib
import json
import math
import os
import shutil
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)
sys.dont_write_bytecode = True  # write nothing beside the sources

import analysis  # noqa: E402

BUILD_DIR = os.path.join(ROOT, ".bench_build", "e2ebench")
BINARY = os.path.join(BUILD_DIR, "qsc_e2e")
# Per-run budgets: a run must end within 180 s, or 900 s when it builds.
RUN_BUDGET_S = 170.0
BUILD_BUDGET_S = 880.0


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def run_step(cmd, deadline, what):
    """Runs one child process to completion (killed at the deadline)."""
    remaining = deadline - time.monotonic()
    if remaining <= 0:
        raise RuntimeError("out of time before " + what)
    try:
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                              stderr=subprocess.STDOUT, text=True,
                              timeout=remaining)
    except subprocess.TimeoutExpired:
        raise RuntimeError(what + " timed out")
    if proc.returncode != 0:
        raise RuntimeError("%s failed (exit %d):\n%s"
                           % (what, proc.returncode, proc.stdout[-4000:]))
    log("%s: %.1f s" % (what, time.monotonic() - (deadline - remaining)))
    return proc.stdout


def build():
    """Configures (once) and builds qsc_e2e. Returns True if it compiled."""
    start = time.monotonic()
    deadline = start + BUILD_BUDGET_S
    if not os.path.exists(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        run_step(["cmake", "-S", HERE, "-B", BUILD_DIR,
                  "-DCMAKE_BUILD_TYPE=Release"], deadline, "cmake configure")
    out = run_step(["cmake", "--build", BUILD_DIR, "--target", "qsc_e2e",
                    "-j", "4"], deadline, "cmake build")
    return "Linking" in out or "Building" in out


def load_declared():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    return spec


def run_digest(inputs):
    """SHA-1 over the built binary and the generated input files: the
    identity of the code and the inputs that produced a run's answers."""
    digest = hashlib.sha1()
    paths = [BINARY] + [os.path.join(inputs, n) for n in sorted(os.listdir(inputs))]
    for path in paths:
        with open(path, "rb") as f:
            digest.update(os.path.basename(path).encode() + b"\0" + f.read())
    return digest.hexdigest()[:16]


def check_store(workload, seed, digest, answers):
    """Each answer's checksum must match what earlier runs of the same
    binary on the same inputs (workload, seed, generated files) recorded."""
    store_dir = os.path.join(ROOT, ".bench_build", "checksums")
    os.makedirs(store_dir, exist_ok=True)
    path = os.path.join(store_dir, "%s-seed%d-%s.json" % (workload, seed, digest))
    stored = {}
    if os.path.exists(path):
        with open(path) as f:
            stored = json.load(f)
    current = {analysis.answer_key(a): analysis.answer_checksum(a)
               for a in answers}
    differing = analysis.compare_checksums(current, stored)
    stored.update(current)
    with open(path + ".tmp", "w") as f:
        json.dump(stored, f, sort_keys=True)
    os.replace(path + ".tmp", path)
    return ["answer %s differs from an earlier run of seed %d" % (k, seed)
            for k in differing]


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    start = time.monotonic()
    declared = load_declared()
    workloads = [w["name"] for w in declared["workloads"]]
    if args.workload not in workloads:
        log("unknown workload %r; known: %s" % (args.workload, workloads))
        return 2
    wanted = declared["per_layer" if args.trace else "end_to_end"]

    try:
        built = build()
    except (RuntimeError, OSError) as e:
        log(str(e))
        return 1
    deadline = (start + BUILD_BUDGET_S if built else start + RUN_BUDGET_S)

    work = os.path.join(ROOT, ".bench_build", "runs", "%s-seed%d-trace%d-%d" % (
        args.workload, args.seed, args.trace, os.getpid()))
    inputs, out = os.path.join(work, "inputs"), os.path.join(work, "out")
    os.makedirs(inputs)
    os.makedirs(out)
    try:
        run_step([BINARY, "gen", "--workload", args.workload,
                  "--seed", str(args.seed), "--dir", inputs], deadline, "gen")
        with open(os.path.join(inputs, "plan.txt")) as f:
            plan = [line.split() for line in f]
        setups = next(int(p[1]) for p in plan if p and p[0] == "setups")
        lower_bound_specs = {int(p[1]) for p in plan
                             if p and p[0] == "spec" and p[6] == "1"}
        setup_out = os.path.join(work, "setup")
        if not args.trace and setups > 1:
            # The other setup repetitions, in a process of their own.
            os.makedirs(setup_out)
            run_step([BINARY, "setup", "--dir", inputs, "--out", setup_out,
                      "--setups", str(setups - 1)], deadline, "setup")
        run_step([BINARY, "run", "--dir", inputs, "--out", out,
                  "--seconds", repr(args.seconds), "--trace", str(args.trace)],
                 deadline, "run")
        exact_path = os.path.join(out, "exact.tsv")
        run_step([BINARY, "exact", "--dir", inputs,
                  "--answers", os.path.join(out, "answers.tsv"),
                  "--out", exact_path], deadline, "exact")

        samples = analysis.read_samples(os.path.join(out, "samples.tsv"))
        summary = analysis.read_summary(os.path.join(out, "summary.tsv"))
        if os.path.isdir(setup_out):
            extra = analysis.read_summary(os.path.join(setup_out, "summary.tsv"))
            summary[0]["setup_s"] += extra[0]["setup_s"]
        answers = analysis.read_answers(os.path.join(out, "answers.tsv"))
        exact_flows, exact_lp = analysis.read_exact(exact_path)
        spans = (analysis.read_spans(os.path.join(out, "spans.tsv"))
                 if args.trace else [])
        digest = run_digest(inputs)
    except (RuntimeError, OSError, ValueError, IndexError,
            StopIteration) as e:
        log(str(e))
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)

    violations = list(summary[2])
    violations += analysis.check_answers(answers, exact_flows, exact_lp,
                                         lower_bound_specs)
    violations += check_store(args.workload, args.seed, digest, answers)

    if args.trace:
        metrics = analysis.per_layer(samples, spans, summary)
        detail = {}
    else:
        metrics, detail = analysis.end_to_end(samples, summary, answers,
                                              exact_flows, exact_lp)
    names = [m["name"] for m in wanted]
    declared_units = {m["name"]: m["unit"] for m in wanted}
    computed_units = {name: unit for name, (_, unit) in metrics.items()}
    if declared_units != computed_units or not all(
            analysis.valid_metric_name(n) for n in names):
        log("metrics differ from BENCHMARK.json: declared %s, computed %s"
            % (declared_units, computed_units))
        return 1
    if not all(math.isfinite(v) for v, _ in metrics.values()):
        log("non-finite metric: %s" % metrics)
        return 1

    attempted, failed = analysis.count_calls(samples,
                                             "ut" if args.trace else "u")
    print("%s seed=%d trace=%d (%.1f s)" % (args.workload, args.seed,
                                            args.trace, time.monotonic() - start))
    for name in names:
        value, unit = metrics[name]
        print("  %-34s %14.6g %-6s %s" % (name, value, unit, detail.get(name, "")))
    for v in violations:
        print("  VIOLATION: " + v)
    result = {
        "correct": not violations,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name][0], "unit": metrics[name][1]}
                    for name in names},
    }
    print(json.dumps(result), flush=True)
    return 0 if not violations else 1


if __name__ == "__main__":
    sys.exit(main())

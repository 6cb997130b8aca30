#!/usr/bin/env python3
"""DisMASTD wall-clock benchmark: one command, one process per workload.

Usage (from the root of a source checkout):

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Builds the library from ../src together with the benchmark binary (CMake,
into $CARGO_TARGET_DIR or .bench_build), runs the percentile self-test,
then runs the workload in its own process. With --trace 0 the result
carries every end-to-end metric of BENCHMARK.json; with --trace 1 the
workload also repeats its measurement under an obs::Tracer, the trace is
checked with tools/validate_trace.py, and the result carries every
per-layer metric, including per-layer self times computed from the trace.

The last line of stdout is the JSON result; the exit status is 0 only when
every correctness check passed.
"""

import argparse
import json
import os
import subprocess
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ("stream_netflix", "stream_synthetic", "serve_topk", "ingest_serve")
RUN_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 840

# Trace span -> layer: benchmark spans are named "<layer>.<call>", library
# spans carry their layer as the span category.
SELF_TIME_LAYERS = ("stream", "core", "serve", "cwin")
SIM_PHASES = (
    "partition",
    "products",
    "mttkrp_update",
    "gram_reduce",
    "loss",
    "cwin_update",
    "cwin_stitch",
)


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def build(root):
    """Configures (once) and builds the benchmark; returns the build dir."""
    if not os.path.isfile(os.path.join(root, "src", "CMakeLists.txt")):
        fail("library sources (src/CMakeLists.txt) not found; run from the "
             "root of a DisMASTD checkout")
    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    build_dir = os.path.join(root, target, "perfbench")
    os.makedirs(build_dir, exist_ok=True)
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", BENCH_DIR, "-B", build_dir,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", build_dir, "-j", jobs])
    steps.append([os.path.join(build_dir, "perfbench_selftest")])
    for step in steps:
        try:
            done = subprocess.run(step, stdout=subprocess.PIPE,
                                  stderr=subprocess.STDOUT,
                                  timeout=BUILD_TIMEOUT_S, check=False)
        except (OSError, subprocess.TimeoutExpired) as error:
            fail(f"build step {step[0]} failed: {error}")
        if done.returncode != 0:
            sys.stderr.write(done.stdout.decode(errors="replace")[-4000:])
            fail(f"build step {' '.join(step)} exited {done.returncode}")
    return build_dir


def load_contract(root):
    try:
        with open(os.path.join(root, "BENCHMARK.json"), encoding="utf-8") as f:
            return json.load(f)
    except (OSError, json.JSONDecodeError) as error:
        fail(f"cannot read BENCHMARK.json: {error}")


def self_times(trace_path):
    """Per-layer self time (s) of the wall spans and per-phase sim seconds."""
    with open(trace_path, encoding="utf-8") as f:
        events = json.load(f)["traceEvents"]
    lanes = {}
    for e in events:
        if e.get("ph") == "X" and e.get("pid") == 2:
            lanes.setdefault(e.get("tid", 0), []).append(e)
    self_s = {layer: 0.0 for layer in SELF_TIME_LAYERS}
    for spans in lanes.values():
        # Parents start no later and last longer than the spans they hold.
        spans.sort(key=lambda e: (e["ts"], -e["dur"]))
        stack = []
        child_us = {}
        for e in spans:
            end = e["ts"] + e["dur"]
            while stack and stack[-1]["ts"] + stack[-1]["dur"] < end - 1e-3:
                stack.pop()
            if stack:
                parent = id(stack[-1])
                child_us[parent] = child_us.get(parent, 0.0) + e["dur"]
            stack.append(e)
        for e in spans:
            cat = e.get("cat", "")
            layer = e["name"].split(".")[0] if cat == "bench" else cat
            if layer in self_s:
                self_s[layer] += (e["dur"] - child_us.get(id(e), 0.0)) * 1e-6
    sim_s = {phase: 0.0 for phase in SIM_PHASES}
    open_spans = []
    for e in events:
        if e.get("pid") != 1 or e.get("tid", 0) != 0:
            continue
        if e.get("ph") == "B":
            open_spans.append(e)
        elif e.get("ph") == "E" and open_spans:
            begin = open_spans.pop()
            if begin.get("cat") == "phase" and begin.get("name") in sim_s:
                sim_s[begin["name"]] += (e["ts"] - begin["ts"]) * 1e-6
    return self_s, sim_s


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seed < 0 or args.seconds <= 0:
        fail("--seed must be >= 0 and --seconds > 0")

    root = os.getcwd()
    contract = load_contract(root)
    build_dir = build(root)

    command = [os.path.join(build_dir, "perfbench"), "--workload",
               args.workload, "--seed", str(args.seed), "--seconds",
               str(args.seconds)]
    trace_path = None
    if args.trace:
        trace_path = os.path.join(
            build_dir, f"trace_{args.workload}_{args.seed}.json")
        command += ["--trace-out", trace_path]
    try:
        done = subprocess.run(command, stdout=subprocess.PIPE,
                              stderr=subprocess.PIPE, timeout=RUN_TIMEOUT_S,
                              check=False)
    except (OSError, subprocess.TimeoutExpired) as error:
        fail(f"workload {args.workload} did not finish: {error}")
    if done.returncode != 0:
        sys.stderr.write(done.stderr.decode(errors="replace")[-4000:])
    lines = done.stdout.decode(errors="replace").strip().splitlines()
    try:
        report = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        fail(f"workload {args.workload} printed no report "
             f"(exit {done.returncode})")

    correct = bool(report["correct"]) and done.returncode == 0
    attempted = int(report["attempted"])
    failed = int(report["failed"])
    if done.returncode != 0 and failed == 0:
        failed = 1
    measured = dict(report["e2e"])
    measured.update(report["layers"])

    if args.trace:
        attempted += 1
        check = subprocess.run(
            [sys.executable, os.path.join(root, "tools", "validate_trace.py"),
             trace_path],
            stdout=subprocess.PIPE, stderr=subprocess.STDOUT, check=False)
        print(check.stdout.decode(errors="replace").strip())
        if check.returncode != 0:
            correct = False
            failed += 1  # the trace stays in the build dir for inspection
        else:
            self_s, sim_s = self_times(trace_path)
            for layer, seconds in self_s.items():
                measured[f"self.{layer}_s"] = {"value": seconds, "unit": "s"}
            for phase, seconds in sim_s.items():
                measured[f"trace.sim_{phase}_s"] = {"value": seconds,
                                                    "unit": "s"}
            os.remove(trace_path)

    declared = contract["per_layer"] if args.trace else contract["end_to_end"]
    metrics = {}
    for spec in declared:
        name = spec["name"]
        if name not in measured and args.trace:
            value = 0.0  # a layer this workload bypasses does no work
        else:
            value = measured.get(name, {}).get("value")
        if value is None:
            correct = False
            failed += 1
            print(f"perfbench: metric {name} missing or not finite",
                  file=sys.stderr)
            continue
        metrics[name] = {"value": value, "unit": spec["unit"]}

    for key, value in report["provenance"].items():
        print(f"provenance.{key}: {value}")
    for key, value in report["notes"].items():
        print(f"{key}: {value}")
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    sys.exit(0 if correct else 1)


if __name__ == "__main__":
    main()

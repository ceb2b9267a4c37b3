#!/usr/bin/env python3
"""Capture-replay benchmark runner.

Builds the benchmark (CMake, Release) from the sources of this checkout,
runs one measurement and checks its output against BENCHMARK.json:

    python3 replaybench/run.py --workload benign_media --seed 1 --seconds 42 --trace 0

--trace 0 reports the end-to-end metrics, --trace 1 the per-layer ones.
Progress and a readable table go to stderr and stdout; the last stdout line
is one JSON object with the keys correct, attempted, failed and metrics.

    python3 replaybench/run.py --self-check

runs the benchmark's own tests, then every workload (soak_mix too, which
BENCHMARK.json leaves out) through every topology at a small scale in both
modes, printing every metric with its unit. It
fails when a declared metric or a correctness output is missing; nonzero
alert_mismatch and false_alerts are reported, not failed on.

The build goes to $CARGO_TARGET_DIR if set, else .bench_build, relative to
the repository root.
"""

import argparse
import json
import math
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_TIMEOUT_S = 170
SELF_CHECK_SCALE = 0.05
# Every workload replay_bench knows. BENCHMARK.json measures a subset:
# soak_mix stays runnable and in the self-check, but its spread between
# runs on a shared host exceeds the bounds (README.md).
WORKLOADS = ("soak_mix", "signaling_churn", "benign_media")


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build_dir():
    path = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return path if os.path.isabs(path) else os.path.join(ROOT, path)


def build(targets):
    """Configures and builds `targets`; returns False (after logging) on failure."""
    out = build_dir()
    steps = []
    if not os.path.exists(os.path.join(out, "Makefile")):
        steps.append(["cmake", "-S", HERE, "-B", out,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", out, "-j", "4", "--target"] + targets)
    for cmd in steps:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE,
                              stderr=subprocess.STDOUT, text=True)
        if proc.returncode != 0:
            log(proc.stdout[-4000:])
            log("build failed: " + " ".join(cmd))
            return False
    return True


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def declared(spec, trace):
    """{name: unit} of the metrics a run in this mode must report."""
    key = "per_layer" if trace else "end_to_end"
    return {m["name"]: m["unit"] for m in spec[key]}


def validate(result, expected, trace):
    """Problems with one run's result against the declared metrics."""
    problems = []
    for key in ("correct", "attempted", "failed", "metrics", "checks"):
        if key not in result:
            problems.append("missing output: " + key)
    if problems:
        return problems
    metrics = result["metrics"]
    for name, unit in sorted(expected.items()):
        if name not in metrics:
            problems.append("missing metric: " + name)
            continue
        value = metrics[name].get("value")
        if metrics[name].get("unit") != unit:
            problems.append("%s: unit %r, declared %r"
                            % (name, metrics[name].get("unit"), unit))
        if not isinstance(value, (int, float)) or not math.isfinite(value):
            problems.append("%s: not a finite number: %r" % (name, value))
        elif not trace and value <= 0:
            problems.append("%s: end-to-end metric is %r, must be > 0"
                            % (name, value))
    for name in sorted(set(metrics) - set(expected)):
        problems.append("undeclared metric: " + name)
    if "alert_mismatch" not in result["checks"]:
        problems.append("missing correctness output: alert_mismatch")
    if result.get("info", {}).get("workload") == "benign_media" and \
            "false_alerts" not in result["checks"]:
        problems.append("missing correctness output: false_alerts")
    if result["attempted"] < 1:
        problems.append("nothing attempted")
    return problems


def run_binary(args):
    """Runs replay_bench; returns its parsed result or None."""
    cmd = [os.path.join(build_dir(), "replay_bench")] + args
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log("replay_bench timed out")
        return None
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        log("replay_bench failed with exit code %d" % proc.returncode)
        return None
    try:
        return json.loads(lines[-1])
    except ValueError:
        log("replay_bench printed no result")
        return None


def print_table(result):
    info = result.get("info", {})
    print("workload %s: %s packets, SIP share %.3f, %s calls, peak live calls"
          " %s, paced rate %s pkt/s"
          % (info.get("workload"), info.get("packets"),
             float(info.get("sip_share", "nan")), info.get("calls"),
             info.get("peak_live_calls"), info.get("paced_rate_pkt_s")))
    print("  soak config: " + info.get("soak_config", "?"))
    print("  host: cpu_count=%s compiler=%s build_type=%s"
          % (info.get("cpu_count"), info.get("compiler"),
             info.get("build_type")))
    for name, m in sorted(result["metrics"].items()):
        print("  %-40s %16.6g %s" % (name, m["value"], m["unit"]))
    for name, m in sorted(result.get("reported", {}).items()):
        print("  %-40s %16.6g %s (reported, not gated)"
              % (name, m["value"], m["unit"]))
    checks = result["checks"]
    print("  %-40s %16d count" % ("alert_mismatch", checks["alert_mismatch"]))
    if "false_alerts" in checks:
        print("  %-40s %16d count (%.4f per call)"
              % ("false_alerts", checks["false_alerts"],
                 checks["false_alerts_per_call"]))
    for key in sorted(info):
        if key.startswith(("mismatch.", "spread.", "alerts.", "s3_detect_",
                           "stolen", "pacer_", "setup_samples",
                           "engines_ready_s")):
            print("  %s: %s" % (key, info[key]))
    for problem in result.get("problems", []):
        print("  FAILED: " + problem)


def measure(args):
    if not build(["replay_bench"]):
        return 1
    spec = load_spec()
    span_dir = os.path.join(build_dir(), "spans")
    os.makedirs(span_dir, exist_ok=True)
    cmd = ["--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--span-dir", span_dir]
    if args.scale != 1.0:
        cmd += ["--scale", str(args.scale)]
    result = run_binary(cmd)
    if result is None:
        return 1
    problems = validate(result, declared(spec, args.trace), args.trace)
    print_table(result)
    for problem in problems:
        print("  INVALID: " + problem)
    out = {
        "correct": bool(result["correct"]) and not problems,
        "attempted": int(result["attempted"]),
        "failed": int(result["failed"]),
        "metrics": {name: result["metrics"][name]
                    for name in declared(spec, args.trace)
                    if name in result["metrics"]},
    }
    print(json.dumps(out))
    return 0


def self_check(args):
    targets = ["replay_bench", "replaybench_logic_test"]
    if not build(targets):
        return 1
    failures = []
    tests = [[os.path.join(build_dir(), "replaybench_logic_test")],
             [sys.executable, "-m", "unittest", "-q", "test_run"]]
    for cmd in tests:
        if subprocess.run(cmd, cwd=HERE).returncode != 0:
            failures.append("tests failed: " + " ".join(cmd))
    spec = load_spec()
    for workload in WORKLOADS:
        for trace in (0, 1):
            log("self-check: %s --trace %d" % (workload, trace))
            result = run_binary(["--workload", workload, "--seed", "1",
                                 "--seconds", "1", "--trace", str(trace),
                                 "--scale", str(args.scale)])
            if result is None:
                failures.append("%s trace %d: no result" % (workload, trace))
                continue
            print_table(result)
            for problem in validate(result, declared(spec, trace), trace):
                failures.append("%s trace %d: %s" % (workload, trace, problem))
            if not result["correct"]:
                failures.append("%s trace %d: correctness check failed: %s"
                                % (workload, trace, result.get("problems")))
    for failure in failures:
        print("SELF-CHECK FAILED: " + failure)
    print("self-check %s" % ("failed" if failures else "passed"))
    return 1 if failures else 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=None,
                        help="measuring window (default: BENCHMARK.json's "
                        "run_seconds)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", type=float, default=None,
                        help="multiply every workload's call count")
    parser.add_argument("--self-check", action="store_true")
    args = parser.parse_args()
    if args.self_check:
        if args.scale is None:
            args.scale = SELF_CHECK_SCALE
        return self_check(args)
    if not args.workload:
        parser.error("--workload is required")
    if args.scale is None:
        args.scale = 1.0
    if args.seconds is None:
        args.seconds = load_spec()["run_seconds"]
    return measure(args)


if __name__ == "__main__":
    sys.exit(main())

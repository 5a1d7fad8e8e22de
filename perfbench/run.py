#!/usr/bin/env python3
"""Builds and runs the repository benchmark.

Run from the repository root:

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
    python3 perfbench/run.py --selftest             # all workloads, tiny inputs, seconds
    python3 perfbench/run.py --report --workload <name> --seed <n> --seconds <s>

A run builds the benchmark package (perfbench/Cargo.toml, its own
workspace) in release mode into $CARGO_TARGET_DIR (default .bench_build),
runs one workload and forwards its report. The last line of standard
output is one JSON object: correct, attempted, failed and metrics (the
end-to-end metrics of BENCHMARK.json untraced, its per-layer metrics
traced). A failed build or a malformed result exits non-zero without
printing a result.

--report runs the workload untraced and traced on the same seed and
prints the per-layer metrics, the trace's self times and coverage, and
the tracing overhead (traced minus untraced end-to-end medians).
"""

import argparse
import json
import os
import re
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_TIMEOUT_S = 170
WORKLOADS = ("batch_adhoc", "serve_live", "ingest_flood")


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(1)


def target_dir():
    return os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or os.path.join(ROOT, ".bench_build"))


def build():
    """Builds the benchmark binary and returns its path."""
    manifest = os.path.join(HERE, "Cargo.toml")
    env = dict(os.environ, CARGO_TARGET_DIR=target_dir())
    cmd = ["cargo", "build", "--release", "--offline", "--quiet", "--manifest-path", manifest]
    try:
        done = subprocess.run(cmd, env=env, stdout=sys.stderr, stderr=sys.stderr, timeout=840)
    except (OSError, subprocess.TimeoutExpired) as e:
        fail(f"build failed: {e}")
    if done.returncode != 0:
        fail(f"build failed with exit code {done.returncode}")
    exe = os.path.join(target_dir(), "release", "perfbench")
    if not os.path.isfile(exe):
        fail(f"build produced no binary at {exe}")
    return exe


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def run_once(exe, workload, seed, seconds, trace, tiny=False):
    """Runs one workload and returns (stdout lines, parsed result)."""
    cmd = [exe, "--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
           "--trace", "1" if trace else "0", "--out-dir", os.path.join(target_dir(), "perfbench")]
    if tiny:
        cmd.append("--tiny")
    try:
        done = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=sys.stderr, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"{workload} did not finish within {RUN_TIMEOUT_S} s")
    lines = done.stdout.rstrip("\n").split("\n")
    if done.returncode != 0:
        fail(f"{workload} exited with code {done.returncode}")
    try:
        result = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError) as e:
        fail(f"{workload}: last line is not a JSON result: {e}")
    return lines, result


def check_result(result, names, allow_null=False):
    """Checks the result object's shape against the metric names."""
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        return f"result keys are {sorted(result)}"
    if not isinstance(result["attempted"], int) or result["attempted"] < 1:
        return "attempted must be a positive integer"
    if not isinstance(result["failed"], int) or result["failed"] < 0:
        return "failed must be a non-negative integer"
    metrics = result["metrics"]
    if set(metrics) != set(names):
        missing = sorted(set(names) - set(metrics))
        extra = sorted(set(metrics) - set(names))
        return f"metrics differ from BENCHMARK.json: missing {missing}, extra {extra}"
    for name, m in metrics.items():
        if set(m) != {"value", "unit"} or m["unit"] != names[name]:
            return f"metric {name} is malformed: {m}"
        if m["value"] is None and not allow_null:
            return f"metric {name} has no value"
    return None


def report_value(lines, name):
    pattern = re.compile(r"^metric\s+" + re.escape(name) + r"\s+=\s+(\S+)")
    for line in lines:
        hit = pattern.match(line)
        if hit and hit.group(1) != "null":
            return float(hit.group(1))
    return None


def selftest(exe, spec):
    """All workloads end to end on tiny inputs, untraced and traced."""
    e2e = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    layers = {m["name"]: m["unit"] for m in spec["per_layer"]}
    with open(os.path.join(HERE, "layers.json")) as f:
        manifest = json.load(f)
    problems = []
    if set(manifest["per_layer"]) != set(layers):
        problems.append("layers.json and BENCHMARK.json list different per-layer metrics")
    if [w["name"] for w in spec["workloads"]] != list(manifest["workloads"]):
        problems.append("layers.json and BENCHMARK.json list different workloads")
    for workload in WORKLOADS:
        for trace in (False, True):
            _, result = run_once(exe, workload, 7, 1, trace, tiny=True)
            names = layers if trace else e2e
            problem = check_result(result, names, allow_null=True)
            if problem is None and not result["correct"]:
                # Tiny runs may lack samples for a quantile; every check
                # must still pass.
                if result["failed"]:
                    problem = f"{result['failed']} failed operations"
            label = f"{workload} trace={int(trace)}"
            print(f"selftest {label}: {'ok' if problem is None else problem}")
            if problem:
                problems.append(f"{label}: {problem}")
    if problems:
        fail("selftest failed: " + "; ".join(problems))
    print("selftest passed")


def report(exe, args):
    plain_lines, plain = run_once(exe, args.workload, args.seed, args.seconds, False)
    traced_lines, traced = run_once(exe, args.workload, args.seed, args.seconds, True)
    for line in traced_lines[:-1]:
        print(line)
    print("# tracing overhead (traced minus untraced, same seed)")
    for name in ("latency_ms_p50", "latency_ms_p90"):
        a = plain["metrics"].get(name, {}).get("value")
        b = report_value(traced_lines, name)
        if a is not None and b is not None:
            print(f"overhead {name:<16} = {b - a:+.4f} ms ({(b - a) / a:+.2%} of {a:.4f} ms)")
    print(json.dumps({"untraced": plain, "traced": traced}))


def main():
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=None)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--selftest", action="store_true")
    parser.add_argument("--report", action="store_true")
    args = parser.parse_args()
    spec = load_spec()
    if args.seconds is None:
        args.seconds = spec["run_seconds"]
    exe = build()
    if args.selftest:
        selftest(exe, spec)
        return
    if args.workload is None:
        fail("--workload is required")
    if args.report:
        report(exe, args)
        return
    lines, result = run_once(exe, args.workload, args.seed, args.seconds, args.trace == 1)
    names = {m["name"]: m["unit"] for m in spec["per_layer" if args.trace else "end_to_end"]}
    # A failed run may lack a value (too few samples); a correct one may not.
    problem = check_result(result, names, allow_null=not result.get("correct"))
    if problem:
        fail(problem)
    for line in lines:
        print(line)
    sys.stdout.flush()


if __name__ == "__main__":
    main()

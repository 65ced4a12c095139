#!/usr/bin/env python3
"""End-to-end benchmark of the PBS library (see pbsbench/README.md).

Usage, from the root of a checkout:

  python3 pbsbench/run.py --workload NAME --seed N --seconds S --trace 0|1
  python3 pbsbench/run.py --self-test

The first run configures and builds pbsbench/ (which builds the library
from src/) into .bench_build/. A run prints the benchmark binary's progress
lines, a provenance line, and, last, one JSON result line with exactly the
keys correct, attempted, failed and metrics: the end-to-end metrics of
BENCHMARK.json with --trace 0, its per-layer metrics with --trace 1.

Besides the workloads of BENCHMARK.json, `sec52` runs the same way; it is
left out of BENCHMARK.json because its host-time spread on a shared machine
exceeds the regression bound (see README.md).

--self-test runs every workload at tiny sizes, traced and untraced, and
asserts that every metric named in BENCHMARK.json is emitted with its unit
and that the traced run reproduces the untraced run's simulated-outcome
digests.
"""

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
import time

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
BUILD_DIR = os.path.join(ROOT, ".bench_build")
SPEC_PATH = os.path.join(ROOT, "BENCHMARK.json")

# Set-up probes per end-to-end run: the binary is started this many extra
# times and stopped at its first timed call; setup_s is the median over
# these and the measured run.
SETUP_PROBES = 9
# Hard per-run wall limit for the benchmark binary (the whole run must end
# within 180 s once built).
RUN_TIMEOUT_S = 170.0
# Workloads that run and are self-tested but are not in BENCHMARK.json.
UNLISTED_WORKLOADS = ["sec52"]


def fail(message):
    print("pbsbench: " + message, file=sys.stderr)
    sys.exit(1)


def load_spec():
    try:
        with open(SPEC_PATH) as f:
            return json.load(f)
    except (OSError, ValueError) as e:
        fail("cannot read BENCHMARK.json: %s" % e)


def build():
    """Configures (once) and builds both benchmark binaries; returns their dir."""
    os.makedirs(BUILD_DIR, exist_ok=True)
    log_path = os.path.join(BUILD_DIR, "build.log")
    jobs = str(os.cpu_count() or 1)
    steps = []
    if not os.path.exists(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        steps.append(["cmake", "-S", BENCH_DIR, "-B", BUILD_DIR,
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", BUILD_DIR, "-j", jobs, "--target",
                  "pbsbench", "pbsbench_traced"])
    with open(log_path, "w") as log:
        for step in steps:
            code = subprocess.call(step, stdout=log, stderr=subprocess.STDOUT,
                                   cwd=ROOT)
            if code != 0:
                if step[1] == "-S":
                    # A failed configure leaves a cache that would skip the
                    # next configure; drop it so the next run retries.
                    try:
                        os.remove(os.path.join(BUILD_DIR, "CMakeCache.txt"))
                    except OSError:
                        pass
                with open(log_path) as f:
                    tail = f.read()[-3000:]
                fail("build failed (%s):\n%s" % (" ".join(step), tail))
    return BUILD_DIR


def run_binary(binary, args, deadline):
    """Runs the benchmark binary; returns (stdout lines, report, result)."""
    spawn_ns = time.monotonic_ns()
    try:
        proc = subprocess.run([binary] + args + ["--spawn-ns", str(spawn_ns)],
                              stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                              text=True, cwd=ROOT,
                              timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        fail("benchmark binary timed out: %s" % " ".join(args))
    if proc.returncode != 0:
        fail("benchmark binary exited %d: %s\n%s" %
             (proc.returncode, " ".join(args), proc.stderr[-2000:]))
    lines = proc.stdout.splitlines()
    report = result = None
    for line in lines:
        if line.startswith("{\"pbsbench_report\""):
            report = json.loads(line)["pbsbench_report"]
    if lines and lines[-1].startswith("{\"correct\""):
        result = json.loads(lines[-1])
    if report is None or result is None:
        fail("benchmark binary printed no result: %s" % " ".join(args))
    return lines, report, result


def git_state():
    try:
        sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True, timeout=10)
        if sha.returncode != 0:
            return None, None
        dirty = subprocess.run(["git", "status", "--porcelain", "--", "src",
                                "pbsbench"], cwd=ROOT, capture_output=True,
                               text=True, timeout=10)
        return sha.stdout.strip(), bool(dirty.stdout.strip())
    except (OSError, subprocess.SubprocessError):
        return None, None


def source_digest():
    """sha256 over the library and benchmark sources (path + bytes), so a
    checkout that is not a git repository still names its code."""
    h = hashlib.sha256()
    for top in ("src", "pbsbench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                h.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    h.update(f.read())
    return h.hexdigest()[:16]


def cpu_model():
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return "unknown"


def provenance(report):
    sha, dirty = git_state()
    return {
        "git_sha": sha,
        "git_dirty": dirty,
        "source_digest": source_digest(),
        "build": report.get("build"),
        "cpu_model": cpu_model(),
        "nproc": os.cpu_count(),
        "thread_cap": report.get("thread_cap"),
        "workload": report.get("workload"),
        "seed": report.get("seed"),
        "seconds": report.get("seconds"),
        "trace": report.get("trace"),
        "inputs": report.get("inputs"),
        "digests": report.get("digests"),
    }


def select_metrics(result, wanted):
    """Orders the result's metrics as BENCHMARK.json lists them; a missing
    one or a wrong unit is a benchmark bug."""
    metrics = {}
    for spec in wanted:
        got = result["metrics"].get(spec["name"])
        if got is None or got.get("unit") != spec["unit"]:
            fail("metric %s missing or not in %s" %
                 (spec["name"], spec["unit"]))
        metrics[spec["name"]] = got
    return metrics


def run(args):
    spec = load_spec()
    names = [w["name"] for w in spec["workloads"]] + UNLISTED_WORKLOADS
    if args.workload not in names:
        fail("unknown workload %r (have %s)" % (args.workload, names))
    bin_dir = build()
    deadline = time.monotonic() + RUN_TIMEOUT_S
    common = ["--workload", args.workload, "--seconds", str(args.seconds)]
    if args.seed is not None:
        common += ["--seed", str(args.seed)]
    if args.trace:
        lines, report, result = run_binary(
            os.path.join(bin_dir, "pbsbench_traced"), common + ["--trace", "1"],
            deadline)
        wanted = spec["per_layer"]
    else:
        binary = os.path.join(bin_dir, "pbsbench")
        setups = []
        for _ in range(SETUP_PROBES):
            _, probe, _ = run_binary(binary, common + ["--setup-only"],
                                     deadline)
            setups.append(probe["setup_s"])
        lines, report, result = run_binary(binary, common + ["--trace", "0"],
                                           deadline)
        setups.append(report["setup_s"])
        result["metrics"]["setup_s"]["value"] = statistics.median(setups)
        report.setdefault("inputs", {})["setup_samples"] = str(len(setups))
        wanted = spec["end_to_end"]
    record = provenance(report)
    for line in lines[:-1]:
        if line.startswith("{\"pbsbench_trace\""):
            # Spans go to a file, not to stdout.
            path = os.path.join(BUILD_DIR, "trace-%s-%s.json" %
                                (args.workload, report.get("seed")))
            with open(path, "w") as f:
                f.write(line + "\n")
            record["trace_file"] = os.path.relpath(path, ROOT)
            continue
        print(line)
    print(json.dumps({"pbsbench_provenance": record}))
    final = {"correct": bool(result["correct"]),
             "attempted": int(result["attempted"]),
             "failed": int(result["failed"]),
             "metrics": select_metrics(result, wanted)}
    print(json.dumps(final))


def self_test():
    """Tiny-size run of every workload, untraced and traced."""
    spec = load_spec()
    bin_dir = build()
    problems = []
    with open(os.path.join(BENCH_DIR, "metrics.json")) as f:
        described = json.load(f)
    for section in ("end_to_end", "per_layer"):
        listed = sorted(m["name"] for m in spec[section])
        if listed != sorted(described[section]):
            problems.append("metrics.json %s differs from BENCHMARK.json" %
                            section)
    for name in [w["name"] for w in spec["workloads"]] + UNLISTED_WORKLOADS:
        deadline = time.monotonic() + RUN_TIMEOUT_S
        outputs = {}
        for trace, binary, wanted in (
                (0, "pbsbench", spec["end_to_end"]),
                (1, "pbsbench_traced", spec["per_layer"])):
            lines, report, result = run_binary(
                os.path.join(bin_dir, binary),
                ["--workload", name, "--seconds", "1", "--trace", str(trace),
                 "--tiny"], deadline)
            outputs[trace] = report
            if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
                problems.append("%s trace %d: result keys %s" %
                                (name, trace, sorted(result)))
            for m in wanted:
                got = result["metrics"].get(m["name"])
                if got is None:
                    problems.append("%s trace %d: metric %s missing" %
                                    (name, trace, m["name"]))
                elif got.get("unit") != m["unit"]:
                    problems.append("%s trace %d: %s in %s, expected %s" %
                                    (name, trace, m["name"], got.get("unit"),
                                     m["unit"]))
            for line in lines:
                if line.startswith("CHECK FAILED: traced"):
                    problems.append("%s: %s" % (name, line))
            checks = [l for l in lines if l.startswith("CHECK FAILED")]
            print("self-test %-16s trace %d: %d metrics, %d/%d calls and "
                  "checks failed%s" %
                  (name, trace, len(result["metrics"]), result["failed"],
                   result["attempted"],
                   " (output checks are underpowered at tiny sizes)"
                   if checks else ""))
        if outputs[0]["digests"] != outputs[1]["digests"]:
            problems.append("%s: traced digests %s differ from untraced %s" %
                            (name, outputs[1]["digests"],
                             outputs[0]["digests"]))
    for p in problems:
        print("SELF-TEST FAIL: " + p)
    print("self-test %s" % ("passed" if not problems else "FAILED"))
    return 0 if not problems else 1


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int,
                        help="workload seed (default: the shipped harness's)")
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-test", action="store_true")
    args = parser.parse_args()
    if args.self_test:
        sys.exit(self_test())
    if args.workload is None:
        parser.error("--workload is required")
    if args.seconds <= 0:
        parser.error("--seconds must be > 0")
    run(args)


if __name__ == "__main__":
    main()

#!/usr/bin/env python3
"""Repository benchmark entry point (see perfbench/README.md).

Run from the repository root:

    python3 perfbench/run.py --workload ilp-gcc --seed 0 --seconds 20 --trace 0

Builds the simulator and the benchmark from source into .bench_build/ (the
first run configures and compiles; later runs only check the build is up to
date), runs one workload for --seconds, prints a readable metric table, and
prints as its last stdout line one JSON object with the keys correct,
attempted, failed and metrics. --trace 0 reports the end-to-end metrics of
BENCHMARK.json, --trace 1 its per-layer metrics. The full result, with the
host fingerprint, is written to .bench_build/results/.
"""

import argparse
import hashlib
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")
BINARY = os.path.join(BUILD, "icr_perfbench")
WORKLOADS = ("ilp-gcc", "mcf-chase", "fault-grid")


def fail(message):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(1)


def build():
    """Configures once, then lets the build tool bring the binary up to date."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("simulator sources (src/) not found next to perfbench/")
    jobs = str(max(1, min(4, len(os.sched_getaffinity(0)))))
    steps = []
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD,
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", BUILD, "-j", jobs,
                  "--target", "icr_perfbench"])
    for step in steps:
        # Build output goes to stderr: stdout ends with the result line.
        if subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr).returncode:
            fail("build failed: " + " ".join(step))


def src_digest():
    """Content hash of src/: identifies the simulator when git is absent."""
    h = hashlib.sha256()
    src = os.path.join(ROOT, "src")
    for base, dirs, files in os.walk(src):
        dirs.sort()
        for name in sorted(files):
            path = os.path.join(base, name)
            h.update(os.path.relpath(path, src).encode() + b"\0")
            with open(path, "rb") as f:
                h.update(f.read())
    return h.hexdigest()[:16]


def git_sha():
    if not os.path.exists(os.path.join(ROOT, ".git")):
        return None
    try:
        out = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() or None


def cpu_model():
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return "unknown"


def fingerprint(report):
    """Host and build identity. compare.py refuses to gate across hosts."""
    return {
        "cpu_model": cpu_model(),
        "nproc": len(os.sched_getaffinity(0)),
        "compiler": report["compiler"],
        "build_type": report["build_type"],
        "git_sha": git_sha(),
        "src_digest": src_digest(),
    }


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seed < 0:
        fail("--seed must be a non-negative integer")

    try:
        with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
            spec = json.load(f)
    except (OSError, ValueError) as e:
        fail("cannot read BENCHMARK.json: %s" % e)
    build()

    work = os.path.join(BUILD, "work")
    results = os.path.join(BUILD, "results")
    os.makedirs(work, exist_ok=True)
    os.makedirs(results, exist_ok=True)
    report_path = os.path.join(work, "report.json")
    if os.path.exists(report_path):
        os.remove(report_path)
    command = [BINARY, "--workload=" + args.workload,
               "--seed=%d" % args.seed, "--seconds=%g" % args.seconds,
               "--trace=%d" % args.trace,
               "--digests=" + os.path.join(HERE, "digests.txt"),
               "--work-dir=" + work, "--report=" + report_path]
    sys.stdout.flush()
    try:
        code = subprocess.run(command, timeout=args.seconds + 120).returncode
    except subprocess.TimeoutExpired:
        fail("benchmark timed out")
    if code != 0:
        fail("benchmark exited with code %d" % code)
    with open(report_path) as f:
        report = json.load(f)

    document = dict(report, fingerprint=fingerprint(report))
    name = "%s-seed%d-trace%d.json" % (args.workload, args.seed, args.trace)
    with open(os.path.join(results, name), "w") as f:
        json.dump(document, f, indent=2)
        f.write("\n")

    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    metrics = {}
    for entry in wanted:
        got = report["metrics"].get(entry["name"])
        if got is None or got["unit"] != entry["unit"] or got["value"] is None:
            fail("metric %s missing or mismatched in the report" % entry["name"])
        metrics[entry["name"]] = {"value": got["value"], "unit": got["unit"]}
    print("fingerprint: " + json.dumps(document["fingerprint"], sort_keys=True))
    print("caches start cold in every round; the model is not validated "
          "against hardware (synthetic SPEC-like workloads), so no accuracy "
          "figure is reported")
    print(json.dumps({"correct": report["failed"] == 0,
                      "attempted": report["attempted"],
                      "failed": report["failed"],
                      "metrics": metrics}))


if __name__ == "__main__":
    main()

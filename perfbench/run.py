#!/usr/bin/env python3
"""Builds and runs the repository benchmark (see perfbench/README.md).

    python3 perfbench/run.py --workload round_sharded --seed 1 --seconds 20 --trace 0

Run from the repository root. The first run configures and builds
perfbench/CMakeLists.txt into .bench_build (about half a minute on 4 cores);
later runs rebuild incrementally. Standard output carries the binary's record
line and, last, its result object. Besides printing them, this script

  * stamps the record with the git commit (when the tree is a git checkout)
    and a digest of the sources the binary is built from,
  * checks that the result's metric names match BENCHMARK.json,
  * on traced runs, checks that the exact work counters equal those of any
    earlier run of the same workload, seed and sources,
  * appends the record and result to .bench_build/records/.

It exits 1 when a check fails (the result still prints, with "correct":
false), and exits non-zero without printing a result when the build or the
run fails.
"""
import argparse
import hashlib
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")
BINARY = os.path.join(BUILD, "cmake", "mcs_perfbench")
RUN_TIMEOUT_S = 170


def log(message):
    print("run.py: " + message, file=sys.stderr, flush=True)


def build():
    cmake_dir = os.path.join(BUILD, "cmake")
    steps = []
    if not os.path.exists(os.path.join(cmake_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", cmake_dir,
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo", "-DMCS_SANITIZE="])
    steps.append(["cmake", "--build", cmake_dir, "--target", "mcs_perfbench", "-j4"])
    # Keep the compiler's temporary files inside the checkout too.
    env = dict(os.environ, TMPDIR=os.path.join(BUILD, "tmp"))
    os.makedirs(env["TMPDIR"], exist_ok=True)
    for step in steps:
        done = subprocess.run(step, cwd=ROOT, env=env, stdout=subprocess.PIPE,
                              stderr=subprocess.STDOUT, text=True)
        if done.returncode != 0:
            sys.stderr.write(done.stdout[-4000:])
            log("build step failed: " + " ".join(step))
            return False
    return True


def source_digest():
    """SHA-256 over the files the binary is built from, in path order."""
    digest = hashlib.sha256()
    paths = [os.path.join(ROOT, "bench", "bench_shapes.hpp")]
    for top in ("src", "perfbench"):
        for directory, _, names in os.walk(os.path.join(ROOT, top)):
            paths.extend(os.path.join(directory, name) for name in names)
    for path in sorted(paths):
        if path.endswith(".pyc"):
            continue
        digest.update(os.path.relpath(path, ROOT).encode())
        with open(path, "rb") as handle:
            digest.update(handle.read())
    return digest.hexdigest()[:16]


def git_commit():
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return "none"
    done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True)
    return done.stdout.strip() if done.returncode == 0 else "none"


def declared_metrics(trace):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        spec = json.load(handle)
    return [metric["name"] for metric in spec["per_layer" if trace else "end_to_end"]]


def check_counters(record, errors):
    """Exact work counters must repeat for the same workload, seed and sources."""
    directory = os.path.join(BUILD, "counters", record["host"]["source_digest"])
    os.makedirs(directory, exist_ok=True)
    path = os.path.join(directory, "%s-seed%d.json" % (record["workload"], record["seed"]))
    counters = record["counters"]
    if os.path.exists(path):
        with open(path) as handle:
            earlier = json.load(handle)
        if earlier != counters:
            errors.append("exact work counters differ from an earlier run: %s vs %s"
                          % (counters, earlier))
    else:
        with open(path, "w") as handle:
            json.dump(counters, handle, sort_keys=True)


def run_binary(args, digest):
    """Runs the benchmark binary: (exit code, record, result), or None when
    it printed no result or ran out of time."""
    work_dir = os.path.join(BUILD, "run", "%s-%d" % (args.workload, os.getpid()))
    command = [BINARY, "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", repr(args.seconds), "--trace", str(args.trace),
               "--work-dir", work_dir, "--trace-dir", os.path.join(BUILD, "traces"),
               "--commit", git_commit(), "--source-digest", digest]
    try:
        done = subprocess.run(command, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log("benchmark run exceeded %d s" % RUN_TIMEOUT_S)
        return None
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
    lines = [line for line in done.stdout.splitlines() if line.strip()]
    if len(lines) < 2:
        log("benchmark printed no result (exit code %d)" % done.returncode)
        return None
    return done.returncode, json.loads(lines[-2])["record"], json.loads(lines[-1])


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not build():
        return 1
    run = run_binary(args, source_digest())
    if run is None:
        return 1
    code, record, result = run

    errors = []
    expected = declared_metrics(args.trace == 1)
    if list(result["metrics"]) != expected:
        errors.append("metrics %s do not match BENCHMARK.json %s"
                      % (list(result["metrics"]), expected))
    if args.trace == 1:
        check_counters(record, errors)
    for error in errors:
        log("check failed: " + error)
    if errors:
        result["correct"] = False
        record["errors"].extend(errors)

    os.makedirs(os.path.join(BUILD, "records"), exist_ok=True)
    with open(os.path.join(BUILD, "records", "%s.jsonl" % args.workload), "a") as handle:
        handle.write(json.dumps({"record": record, "result": result}) + "\n")
    print(json.dumps({"record": record}))
    print(json.dumps(result), flush=True)
    return 0 if code == 0 and result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())

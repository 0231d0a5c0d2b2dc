#!/usr/bin/env python3
"""Build darl from source and run one benchmark workload.

    python3 perfbench/run.py --workload campaign-sac --seed 1 --seconds 35 --trace 0

Run from the root of a checkout. The first run configures and builds the
darl libraries, the darl_worker actor binary and the benchmark binary
(perfbench/src) as a Release tree under $CARGO_TARGET_DIR (default
.bench_build); later runs only re-check the build. Every run first passes
the benchmark's self-tests, then runs the workload, checks its outputs, and
prints the result as one JSON object on the last line of stdout:

    {"correct": true, "attempted": N, "failed": N,
     "metrics": {"<name>": {"value": V, "unit": "<unit>"}, ...}}

--trace 0 reports the end_to_end metrics of BENCHMARK.json, --trace 1 the
per_layer ones. Exits non-zero, without a result line, when the build or a
self-test fails, and non-zero after the result line when a check fails.
"""

import argparse
import fcntl
import hashlib
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_TYPE = "Release"
RUN_TIMEOUT_S = 175
DIGESTS = os.path.join(HERE, "digests.json")


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build_root():
    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return os.path.join(ROOT, target) if not os.path.isabs(target) else target


def cmake_cache(build):
    cache = {}
    path = os.path.join(build, "CMakeCache.txt")
    if os.path.exists(path):
        with open(path) as f:
            for line in f:
                key, sep, value = line.rstrip("\n").partition("=")
                if sep and not line.startswith(("#", "//")):
                    cache[key.split(":")[0]] = value
    return cache


def build(build_dir):
    """Configure (once), refuse a sanitizer tree, build; returns the CMake
    cache."""
    os.makedirs(build_dir, exist_ok=True)
    logfile = os.path.join(build_dir, "perfbench-build.log")
    with open(os.path.join(build_dir, ".lock"), "w") as lock, open(logfile, "w") as out:
        fcntl.flock(lock, fcntl.LOCK_EX)

        def run(cmd):
            if subprocess.call(cmd, stdout=out, stderr=subprocess.STDOUT) != 0:
                out.flush()
                with open(logfile) as f:
                    log(f.read()[-4000:])
                log("perfbench: build failed: " + " ".join(cmd))
                sys.exit(1)

        ninja = shutil.which("ninja") is not None
        if not os.path.exists(os.path.join(build_dir,
                                           "build.ninja" if ninja else "Makefile")):
            run(["cmake", "-S", HERE, "-B", build_dir,
                 "-G", "Ninja" if ninja else "Unix Makefiles",
                 "-DCMAKE_BUILD_TYPE=" + BUILD_TYPE])
        cache = cmake_cache(build_dir)
        refuse_sanitizer_tree(cache)
        run(["cmake", "--build", build_dir, "-j", str(min(os.cpu_count() or 1, 4)),
             "--target", "darl_perfbench", "darl_worker", "perfbench_tests"])
    return cache


def refuse_sanitizer_tree(cache):
    flags = " ".join(cache.get(k, "") for k in
                     ("CMAKE_CXX_FLAGS", "CMAKE_CXX_FLAGS_" + BUILD_TYPE.upper(),
                      "CMAKE_EXE_LINKER_FLAGS"))
    if cache.get("DARL_SANITIZE") or "-fsanitize" in flags:
        log("perfbench: refusing to report from a sanitizer build tree")
        sys.exit(1)
    if cache.get("CMAKE_BUILD_TYPE") != BUILD_TYPE:
        log("perfbench: build tree is %r, expected %s"
            % (cache.get("CMAKE_BUILD_TYPE"), BUILD_TYPE))
        sys.exit(1)


def source_id():
    """The git commit when the checkout is a git tree, else a digest of
    the sources."""
    if os.path.exists(os.path.join(ROOT, ".git")):
        try:
            out = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                                 capture_output=True, text=True, timeout=10)
            if out.returncode == 0:
                return "git:" + out.stdout.strip()
        except (OSError, subprocess.SubprocessError):
            pass
    paths = [os.path.join(ROOT, "CMakeLists.txt")]
    for top in ("src", "perfbench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames.sort()
            paths += [os.path.join(dirpath, name) for name in sorted(filenames)]
    h = hashlib.sha256()
    for path in paths:
        if os.path.isfile(path):
            h.update(os.path.relpath(path, ROOT).encode())
            with open(path, "rb") as f:
                h.update(f.read())
    return "sha256:" + h.hexdigest()[:16]


def machine(cache):
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    compiler = cache.get("CMAKE_CXX_COMPILER", "c++")
    try:
        version = subprocess.run([compiler, "--version"], capture_output=True,
                                 text=True, timeout=10).stdout.splitlines()[0]
    except (OSError, subprocess.SubprocessError, IndexError):
        version = compiler
    return {"nproc": os.cpu_count(), "cpu": cpu, "compiler": version,
            "build_type": cache.get("CMAKE_BUILD_TYPE"), "source": source_id()}


def check_digest(workload, seed, digest, state_dir):
    """The trial-table digest must repeat for a seed: across every run in
    this checkout, and for seeds with a committed digest, against it."""
    problems = []
    with open(DIGESTS) as f:
        committed = json.load(f).get(workload, {}).get(str(seed))
    if committed is not None and committed != digest:
        problems.append("trial-table digest %s differs from the committed %s"
                        % (digest, committed))
    os.makedirs(state_dir, exist_ok=True)
    path = os.path.join(state_dir, "%s-%d.digest" % (workload, seed))
    if os.path.exists(path):
        with open(path) as f:
            earlier = f.read().strip()
        if earlier != digest:
            problems.append("trial-table digest %s differs from an earlier run's %s"
                            % (digest, earlier))
    else:
        with open(path, "w") as f:
            f.write(digest + "\n")
    return problems


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=("campaign-sac", "campaign-ppo-dist", "serve-poisson"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    wanted = spec["per_layer" if args.trace else "end_to_end"]

    build_dir = os.path.join(build_root(), "perfbench")
    cache = build(build_dir)
    tests = subprocess.run([os.path.join(build_dir, "perfbench_tests")],
                           capture_output=True, text=True)
    if tests.returncode != 0:
        log(tests.stdout + tests.stderr)
        log("perfbench: self-tests failed")
        sys.exit(1)

    print("machine: " + json.dumps(machine(cache)), flush=True)
    cmd = [os.path.join(build_dir, "darl_perfbench"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", str(args.trace),
           "--worker-bin", os.path.join(build_dir, "darl", "tools", "darl_worker")]
    try:
        run = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                             timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log("perfbench: %s did not finish within %d s" % (args.workload, RUN_TIMEOUT_S))
        sys.exit(1)
    lines = run.stdout.splitlines()
    outcome = None
    for line in lines:
        if line.startswith('{"correct"'):
            outcome = json.loads(line)
        else:
            print(line)
    if run.returncode != 0 or outcome is None:
        log("perfbench: darl_perfbench exited with %d" % run.returncode)
        sys.exit(1)

    problems = []
    if outcome["digest"]:
        problems = check_digest(args.workload, args.seed, outcome["digest"],
                                os.path.join(build_root(), "perfbench-state"))
    for p in problems:
        print("CHECK FAILED: " + p)
    names = {m["name"] for m in wanted}
    if set(outcome["metrics"]) != names:
        log("perfbench: metric set mismatch: missing %s, unexpected %s"
            % (sorted(names - set(outcome["metrics"])),
               sorted(set(outcome["metrics"]) - names)))
        sys.exit(1)
    correct = outcome["correct"] and not problems
    print("  %-36s %.6g" % ("fail_share", outcome["failed"] / max(1, outcome["attempted"])))
    result = {
        "correct": correct,
        "attempted": outcome["attempted"],
        "failed": outcome["failed"],
        "metrics": {m["name"]: {"value": outcome["metrics"][m["name"]], "unit": m["unit"]}
                    for m in wanted},
    }
    print(json.dumps(result), flush=True)
    sys.exit(0 if correct else 1)


if __name__ == "__main__":
    main()

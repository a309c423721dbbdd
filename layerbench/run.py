#!/usr/bin/env python3
"""Builds the layered benchmark from source and runs one workload.

Run from the root of a checkout:

    python3 layerbench/run.py --workload selfjoin|query|churn \
        --seed N --seconds S --trace 0|1

The first run configures and builds a Release binary in .bench_build/
(about a minute); later runs only re-check the build.  The offered rates of
the open-loop workloads are read from BENCHMARK.json ("<rate> req/s" in the
workload's "why"), so that file is the one place they are set; a missing
rate is an error.  The traced run writes its Chrome trace to
.bench_build/traces/<workload>.json.

The last line of standard output is the JSON result; build output goes to
standard error.  Exits nonzero without a result when the simjoin sources
are missing, the build fails, or any answer is wrong.
"""

import argparse
import hashlib
import json
import os
import re
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")
BINARY = os.path.join(BUILD, "layerbench")


def fail(message):
    print("layerbench/run.py: " + message, file=sys.stderr)
    sys.exit(2)


def build():
    jobs = str(os.cpu_count() or 1)
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        subprocess.run(["cmake", "-S", HERE, "-B", BUILD,
                        "-DCMAKE_BUILD_TYPE=Release"],
                       stdout=sys.stderr, check=True)
    subprocess.run(["cmake", "--build", BUILD, "--target", "layerbench",
                    "-j", jobs], stdout=sys.stderr, check=True)


def offered_rates():
    """Offered rate of each open-loop workload ("<rate> req/s" in its "why"
    in BENCHMARK.json); fails when one is missing."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    whys = {w["name"]: w["why"] for w in spec["workloads"]}
    rates = {}
    for name in ("query", "churn"):
        match = re.search(r"([0-9]+) req/s", whys.get(name, ""))
        if not match:
            fail("BENCHMARK.json gives no '<rate> req/s' for " + name)
        rates[name] = match.group(1)
    return rates


def source_id():
    """The git commit when there is one, else a digest of the sources."""
    try:
        return subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True,
                              check=True).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        pass
    digest = hashlib.sha256()
    for base, dirs, files in os.walk(os.path.join(ROOT, "src")):
        dirs.sort()
        for name in sorted(files):
            path = os.path.join(base, name)
            digest.update(os.path.relpath(path, ROOT).encode())
            with open(path, "rb") as f:
                digest.update(f.read())
    return "src-sha256:" + digest.hexdigest()[:16]


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=["selfjoin", "query", "churn"])
    parser.add_argument("--seed", required=True)
    parser.add_argument("--seconds", required=True)
    parser.add_argument("--trace", required=True, choices=["0", "1"])
    args = parser.parse_args()

    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("simjoin sources not found at " + os.path.join(ROOT, "src"))
    try:
        build()
    except (OSError, subprocess.CalledProcessError) as e:
        fail("build failed: %s" % e)

    rates = offered_rates()
    os.makedirs(os.path.join(BUILD, "traces"), exist_ok=True)
    command = [BINARY, "--workload", args.workload, "--seed", args.seed,
               "--seconds", args.seconds, "--trace", args.trace,
               "--trace-out",
               os.path.join(BUILD, "traces", args.workload + ".json"),
               "--commit", source_id(),
               "--query-rate", rates["query"],
               "--churn-rate", rates["churn"]]
    sys.stdout.flush()
    return subprocess.run(command).returncode


if __name__ == "__main__":
    sys.exit(main())

#!/usr/bin/env python3
"""Smoke test of the layered benchmark at tiny sizes.

Run from the root of a checkout (builds the benchmark first, like run.py):

    python3 layerbench/smoke_test.py

For every workload it checks that
  * an untraced run exits 0, answers correctly and prints exactly the
    end-to-end metrics of BENCHMARK.json, each with its unit, as
    "name value unit" lines and in the final JSON line;
  * a traced run does the same for the per-layer metrics, and writes a
    Chrome trace holding an event named after every per-layer metric;
  * a run told to expect one wrong answer (--inject-mismatch) reports
    "correct": false and exits nonzero;
  * with the server's admission bound at 1 (--max-inflight 1) the query
    and churn runs see refusals, count them as failures, resend refused
    updates and still answer correctly;
  * a run without the offered rates exits nonzero without a result.
Exits 0 when every check passes.
"""

import json
import os
import subprocess
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
import run  # noqa: E402  (the build step and paths are shared)

TINY = ["--tiny", "--seconds", "1", "--query-rate", "2000",
        "--churn-rate", "2000", "--seed", "7"]


def invoke(workload, extra):
    proc = subprocess.run([run.BINARY, "--workload", workload] + TINY + extra,
                          capture_output=True, text=True, timeout=300)
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if lines else None
    return proc, lines, result


def fingerprint(lines):
    for line in lines:
        if line.startswith('{"fingerprint"'):
            return json.loads(line)["fingerprint"]
    return {}


def check_metrics(label, lines, result, spec, failures):
    want = {m["name"]: m["unit"] for m in spec}
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    if got != want:
        failures.append("%s: metrics differ: missing %s, extra %s, units %s"
                        % (label, sorted(set(want) - set(got)),
                           sorted(set(got) - set(want)),
                           sorted(n for n in want
                                  if n in got and got[n] != want[n])))
    printed = {line.split()[0]: line.split()[2]
               for line in lines[:-1] if len(line.split()) == 3}
    for name, unit in want.items():
        if printed.get(name) != unit:
            failures.append("%s: no '%s <value> %s' line" % (label, name, unit))


def main():
    os.chdir(run.ROOT)
    run.build()
    with open(os.path.join(run.ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    failures = []
    with tempfile.TemporaryDirectory(dir=run.BUILD) as tmp:
        for workload in [w["name"] for w in bench["workloads"]]:
            proc, lines, result = invoke(workload, ["--trace", "0"])
            label = workload + " --trace 0"
            if proc.returncode != 0 or not result or not result["correct"]:
                failures.append("%s: exit %d, result %s, stderr %s"
                                % (label, proc.returncode, result,
                                   proc.stderr[-500:]))
            else:
                check_metrics(label, lines, result, bench["end_to_end"],
                              failures)

            trace_file = os.path.join(tmp, workload + ".json")
            proc, lines, result = invoke(
                workload, ["--trace", "1", "--trace-out", trace_file])
            label = workload + " --trace 1"
            if proc.returncode != 0 or not result or not result["correct"]:
                failures.append("%s: exit %d, result %s, stderr %s"
                                % (label, proc.returncode, result,
                                   proc.stderr[-500:]))
            else:
                check_metrics(label, lines, result, bench["per_layer"],
                              failures)
                with open(trace_file) as f:
                    names = {e["name"] for e in json.load(f)["traceEvents"]}
                missing = [m["name"] for m in bench["per_layer"]
                           if m["name"] not in names]
                if missing:
                    failures.append("%s: no span for %s" % (label, missing))

            proc, lines, result = invoke(
                workload, ["--trace", "0", "--inject-mismatch"])
            label = workload + " --inject-mismatch"
            if proc.returncode == 0 or not result or result["correct"]:
                failures.append("%s: a wrong answer went unnoticed (exit %d, "
                                "result %s)" % (label, proc.returncode,
                                                result))
            if workload != "selfjoin":
                # 6000 req/s keeps enough queries in flight that some
                # updates are refused.
                proc, lines, result = invoke(
                    workload, ["--trace", "0", "--max-inflight", "1",
                               "--churn-rate", "6000"])
                label = workload + " --max-inflight 1"
                if (proc.returncode != 0 or not result
                        or not result["correct"] or result["failed"] == 0):
                    failures.append("%s: want a correct run with refusals, "
                                    "got exit %d, result %s, stderr %s"
                                    % (label, proc.returncode, result,
                                       proc.stderr[-500:]))
                elif workload == "churn" and fingerprint(lines).get(
                        "update_resends", "0") == "0":
                    failures.append("%s: no refused update was resent, so "
                                    "the resend path went untested" % label)

            proc = subprocess.run(
                [run.BINARY, "--workload", workload, "--seed", "7",
                 "--seconds", "1", "--trace", "0", "--tiny"],
                capture_output=True, text=True, timeout=300)
            if proc.returncode == 0 or '"correct"' in proc.stdout:
                failures.append("%s without rates: exit %d, stdout %s"
                                % (workload, proc.returncode,
                                   proc.stdout[-300:]))
            print("checked " + workload, flush=True)
    for failure in failures:
        print("FAIL " + failure)
    print("smoke test " + ("failed" if failures else "passed"))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())

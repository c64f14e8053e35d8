#!/usr/bin/env python3
"""Build and run the repo benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a source checkout.  It builds perfbench/main.exe
with dune from source (the first run in a fresh checkout also builds the
libraries), then runs one workload and passes its output through.  The
last line of standard output is the JSON result, its metrics narrowed to
the ones BENCHMARK.json declares for the mode; the exit code is the
benchmark's (nonzero on any correctness violation).  See NOTES.md.
"""

import argparse
import json
import os
import subprocess
import sys

PROFILE = "dev"
EXE = os.path.join("_build", "default", "perfbench", "main.exe")


def commit():
    # only this checkout's own repository, never one found further up
    if not os.path.isdir(".git"):
        return "unknown"
    try:
        r = subprocess.run(["git", "rev-parse", "HEAD"], capture_output=True,
                           text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return r.stdout.strip() if r.returncode == 0 else "unknown"


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    a = ap.parse_args()
    for need in ("dune-project", "lib", os.path.join("perfbench", "dune")):
        if not os.path.exists(need):
            sys.exit("run.py: %s not found; run from the root of a full "
                     "source checkout" % need)
    # the shared dune cache lives outside the checkout: keep it off
    env = dict(os.environ, DUNE_CACHE="disabled")
    try:
        b = subprocess.run(["dune", "build", "--root", ".", "--profile", PROFILE,
                            "./perfbench/main.exe"],
                           stdout=sys.stderr, env=env, timeout=880)
    except (OSError, subprocess.TimeoutExpired) as e:
        sys.exit("run.py: build failed: %s" % e)
    if b.returncode != 0:
        sys.exit("run.py: build failed (exit %d)" % b.returncode)
    cmd = [EXE, "--workload", a.workload, "--seed", str(a.seed),
           "--seconds", str(a.seconds), "--trace", str(a.trace),
           "--commit", commit(), "--nproc", str(len(os.sched_getaffinity(0))),
           "--profile", PROFILE]
    with open("BENCHMARK.json") as f:
        names = [m["name"] for m in
                 json.load(f)["per_layer" if a.trace else "end_to_end"]]
    try:
        r = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, timeout=170)
    except subprocess.TimeoutExpired:
        sys.exit("run.py: benchmark timed out")
    lines = r.stdout.splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        sys.stdout.write(r.stdout)
        sys.exit("run.py: no result line (exit %d)" % r.returncode)
    missing = [n for n in names if n not in result["metrics"]]
    if missing:
        sys.exit("run.py: result lacks declared metrics: %s" % ", ".join(missing))
    result["metrics"] = {n: result["metrics"][n] for n in names}
    for line in lines[:-1]:
        print(line)
    print(json.dumps(result))
    sys.exit(r.returncode)


if __name__ == "__main__":
    main()

#!/usr/bin/env python3
"""Design-server benchmark: build, run one workload, print one JSON result.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout.  Builds `hercules` and the
load generator with dune, then runs the generator, which starts
`hercules serve` in its own process.  The last line of standard output
is the result:

    {"correct": true, "attempted": N, "failed": N, "metrics": {...}}

With --trace 0 the metrics are the end-to-end ones, with --trace 1 the
per-layer ones.  The full record (host and configuration descriptor,
sample counts, generator health) is written to
.perfbench/result-<workload>-<seed>-t<trace>.json, and a traced run's
spans to .perfbench/spans-<workload>-<seed>.jsonl (Chrome trace events,
one per line, for `hercules trace-merge`).
"""

import argparse
import os
import shutil
import signal
import subprocess
import sys

WORKLOADS = ["design_flow", "catch_up"]
TARGETS = ["./bin/hercules.exe", "./perfbench/perfbench.exe"]


def fail(msg, code):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(code)


def flambda():
    try:
        out = subprocess.run(["ocamlopt", "-config"], capture_output=True, text=True,
                             timeout=60).stdout
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    for line in out.splitlines():
        if line.startswith("flambda:"):
            return line.split(":", 1)[1].strip()
    return "unknown"


def main():
    p = argparse.ArgumentParser()
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=int, required=True)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    a = p.parse_args()

    root = os.getcwd()
    for need in ["dune-project", "bin", "lib"]:
        if not os.path.exists(os.path.join(root, need)):
            fail("no %s here: run from the root of a source checkout" % need, 2)

    env = dict(os.environ, DUNE_CACHE="disabled")
    build = subprocess.run(["dune", "build", "--root", ".", "--display", "quiet"] + TARGETS,
                           cwd=root, env=env, capture_output=True, text=True, timeout=880)
    if build.returncode != 0:
        sys.stderr.write(build.stdout + build.stderr)
        fail("build failed", 3)

    state = os.path.join(root, ".perfbench")
    os.makedirs(state, exist_ok=True)
    work = os.path.join(state, "work-%s-%d-%d" % (a.workload, a.seed, os.getpid()))
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    out = os.path.join(state, "result-%s-%d-t%d.json" % (a.workload, a.seed, a.trace))
    cmd = [os.path.join(root, "_build", "default", "perfbench", "perfbench.exe"),
           "--workload", a.workload, "--seed", str(a.seed), "--seconds", str(a.seconds),
           "--trace", str(a.trace),
           "--hercules", os.path.join(root, "_build", "default", "bin", "hercules.exe"),
           "--work", work, "--out", out, "--flambda", flambda()]
    # its own session, so every server it starts can be stopped as a group
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, start_new_session=True)
    try:
        stdout, _ = proc.communicate(timeout=170)
    except subprocess.TimeoutExpired:
        stdout = ""
        proc.returncode = None
    finally:
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        proc.wait()
    spans = os.path.join(work, "spans.jsonl")
    if os.path.exists(spans):
        os.replace(spans, os.path.join(state, "spans-%s-%d.jsonl" % (a.workload, a.seed)))
    if proc.returncode is None:
        shutil.rmtree(work, ignore_errors=True)
        fail("the run did not finish in time", 4)
    if proc.returncode != 0:
        sys.stdout.write(stdout)
        fail("the run failed (server log kept in %s)" % work, 1)
    shutil.rmtree(work, ignore_errors=True)
    sys.stdout.write(stdout)
    sys.stdout.flush()


if __name__ == "__main__":
    main()

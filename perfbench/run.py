#!/usr/bin/env python3
"""Build the letdma CLI and the benchmark from source, then run one
benchmark run:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout. The last line of standard
output is the run's JSON result; progress lines come before it. Exits
non-zero, without a result, when the checkout holds no program sources
or the build fails, and non-zero after the result when an output check
failed.
"""

import argparse
import json
import os
import signal
import subprocess
import sys

BUILD_TIMEOUT_S = 840
RUN_TIMEOUT_S = 170
TARGETS = ["bin/letdma_cli.exe", "perfbench/bench.exe"]


def fail(code, msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(code)


def commit():
    """The checkout's git commit, without looking above the checkout."""
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(os.getcwd()))
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], capture_output=True,
                             text=True, env=env, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def build():
    # The shared dune cache lives outside the checkout: keep it off.
    env = dict(os.environ, DUNE_CACHE="disabled")
    os.makedirs(".perfbench", exist_ok=True)
    with open(".perfbench/build.log", "w") as log:
        try:
            r = subprocess.run(["dune", "build", "--root", "."] + TARGETS,
                               stdout=log, stderr=subprocess.STDOUT, env=env,
                               timeout=BUILD_TIMEOUT_S)
        except (OSError, subprocess.TimeoutExpired) as e:
            fail(1, f"build failed: {e}")
    if r.returncode != 0:
        with open(".perfbench/build.log") as log:
            sys.stderr.write(log.read()[-4000:])
        fail(1, "build failed")


def main():
    p = argparse.ArgumentParser()
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=[0, 1], required=True)
    a = p.parse_args()
    for path in ["dune-project", "lib", "bin", "BENCHMARK.json"]:
        if not os.path.exists(path):
            fail(2, f"{path} not found: run from the root of a letdma checkout")
    build()
    cmd = ["_build/default/perfbench/bench.exe", "--workload", a.workload,
           "--seed", str(a.seed), "--seconds", repr(a.seconds),
           "--trace", str(a.trace), "--letdma",
           "_build/default/bin/letdma_cli.exe", "--spec", "BENCHMARK.json",
           "--out", ".perfbench"]
    env = dict(os.environ, PERFBENCH_COMMIT=commit())
    # Own process group, so a timeout also stops the daemon it spawned.
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, env=env,
                            start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        fail(1, f"run exceeded {RUN_TIMEOUT_S} s")
    lines = out.rstrip("\n").split("\n")
    sys.stdout.write(out)
    sys.stdout.flush()
    try:
        result = json.loads(lines[-1])
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
    except (ValueError, AssertionError, IndexError):
        fail(1, f"run ended without a result (exit {proc.returncode})")
    sys.exit(proc.returncode)


if __name__ == "__main__":
    main()

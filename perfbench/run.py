#!/usr/bin/env python3
"""Runs one perfbench measurement from the root of a FairCap checkout.

    python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1

1. Builds perfbench/ (which builds the FairCap libraries from this
   checkout, Release) into .bench_build/perfbench.
2. Generates the workload's inputs for the seed, once per build, into
   .bench_build/inputs/<workload>-seed<N>-<build id> (outside every timed
   section). The build id is a hash of the perfbench binary, so the
   reference ruleset a cold workload is checked against always comes from
   the binary being measured (see README.md, "Checks").
3. Runs `perfbench measure` and relays its output; the last line is the
   JSON result {"correct", "attempted", "failed", "metrics"}.

Everything it writes stays under .bench_build/. It exits non-zero without
printing a result when any step fails, e.g. when the checkout holds no
FairCap sources.
"""

import argparse
import hashlib
import json
import os
import shutil
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BENCH_DIR = os.path.join(ROOT, "perfbench")
WORK_DIR = os.path.join(ROOT, ".bench_build")
BUILD_DIR = os.path.join(WORK_DIR, "perfbench")
INPUTS_DIR = os.path.join(WORK_DIR, "inputs")
RESULTS_DIR = os.path.join(WORK_DIR, "results")
BINARY = os.path.join(BUILD_DIR, "perfbench")
WORKLOADS = ("so_fair", "synth_1m", "synth_append")
# Input sets kept per workload; a 1M-row set is ~70 MB of CSV.
KEEP_INPUT_SETS = 2

BUILD_TIMEOUT_S = 840
GEN_TIMEOUT_S = 120
MEASURE_TIMEOUT_S = 170


class BenchError(Exception):
    pass


def log(message):
    print("run.py: " + message, file=sys.stderr, flush=True)


def child_env():
    env = dict(os.environ)
    tmp = os.path.join(WORK_DIR, "tmp")
    os.makedirs(tmp, exist_ok=True)
    env["TMPDIR"] = tmp  # compiler temporaries stay in the checkout
    return env


def run(cmd, timeout, capture=False):
    """Runs cmd to completion (killed and reaped on timeout)."""
    try:
        done = subprocess.run(
            cmd, cwd=ROOT, env=child_env(), timeout=timeout,
            stdout=subprocess.PIPE if capture else sys.stderr,
            stderr=sys.stderr, text=True)
    except subprocess.TimeoutExpired:
        raise BenchError("timed out after %ds: %s" % (timeout, " ".join(cmd)))
    if done.returncode != 0:
        raise BenchError("exit %d: %s" % (done.returncode, " ".join(cmd)))
    return done.stdout


def build():
    if not (os.path.isfile(os.path.join(ROOT, "CMakeLists.txt"))
            and os.path.isdir(os.path.join(ROOT, "src"))):
        raise BenchError("no FairCap sources in " + ROOT)
    if not os.path.isfile(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        configure = ["cmake", "-S", BENCH_DIR, "-B", BUILD_DIR,
                     "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        run(configure, BUILD_TIMEOUT_S)
    jobs = str(min(4, os.cpu_count() or 1))
    run(["cmake", "--build", BUILD_DIR, "--target", "perfbench", "-j", jobs],
        BUILD_TIMEOUT_S)


def build_id():
    """A short hash of the perfbench binary."""
    digest = hashlib.sha256()
    with open(BINARY, "rb") as binary:
        for block in iter(lambda: binary.read(1 << 20), b""):
            digest.update(block)
    return digest.hexdigest()[:16]


def inputs_for(workload, seed, build_hash):
    """The cached input directory for (workload, seed, build), made once."""
    directory = os.path.join(INPUTS_DIR,
                             "%s-seed%d-%s" % (workload, seed, build_hash))
    marker = os.path.join(directory, "COMPLETE")
    if not os.path.isfile(marker):
        shutil.rmtree(directory, ignore_errors=True)
        os.makedirs(directory)
        run([BINARY, "gen", "--workload=" + workload, "--seed=%d" % seed,
             "--out=" + directory], GEN_TIMEOUT_S)
        open(marker, "w").close()
    os.utime(marker)
    prefix = workload + "-seed"
    sets = sorted(
        (os.path.getmtime(os.path.join(INPUTS_DIR, d, "COMPLETE"))
         if os.path.isfile(os.path.join(INPUTS_DIR, d, "COMPLETE")) else 0.0,
         d)
        for d in os.listdir(INPUTS_DIR) if d.startswith(prefix))
    for _, stale in sets[:-KEEP_INPUT_SETS]:
        shutil.rmtree(os.path.join(INPUTS_DIR, stale), ignore_errors=True)
    return directory


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, choices=("0", "1"))
    args = parser.parse_args()
    if args.seed < 0 or args.seconds <= 0:
        raise BenchError("--seed must be >= 0 and --seconds > 0")

    build()
    build_hash = build_id()
    directory = inputs_for(args.workload, args.seed, build_hash)
    os.makedirs(RESULTS_DIR, exist_ok=True)
    out = run([BINARY, "measure", "--workload=" + args.workload,
               "--seed=%d" % args.seed, "--inputs=" + directory,
               "--seconds=%g" % args.seconds, "--trace=" + args.trace,
               "--artifacts=" + RESULTS_DIR, "--build-id=" + build_hash],
              MEASURE_TIMEOUT_S, capture=True)
    lines = out.rstrip("\n").split("\n")
    result = json.loads(lines[-1])
    if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
        raise BenchError("malformed result line: " + lines[-1])
    sys.stdout.write("\n".join(lines) + "\n")
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except (BenchError, OSError, ValueError) as error:
        log(str(error))
        sys.exit(1)

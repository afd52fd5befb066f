#!/usr/bin/env python3
"""Builds and runs the serving benchmark (see perfbench/README.md).

    python3 perfbench/run.py --workload hot_cached --seed 1 --seconds 10 \
        --trace 0

Configures and builds perfbench/ (galaxy_served plus the benchmark driver,
from the repository sources) into $CARGO_TARGET_DIR, default .bench_build,
then runs one measurement. The driver's last stdout line is the JSON
result; build output goes to stderr.
"""

import argparse
import os
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_TIMEOUT_S = 170


def build(build_dir):
    cache = os.path.join(build_dir, "CMakeCache.txt")
    if not os.path.exists(cache):
        subprocess.run(["cmake", "-S", HERE, "-B", build_dir,
                        "-DCMAKE_BUILD_TYPE=Release"],
                       stdout=sys.stderr, check=True)
    jobs = str(min(4, os.cpu_count() or 1))
    subprocess.run(["cmake", "--build", build_dir, "-j", jobs, "--target",
                    "perfbench_driver", "galaxy_served"],
                   stdout=sys.stderr, check=True)


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args()

    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        print("perfbench: the galaxy sources (src/) are not next to "
              "perfbench/; run from a full checkout", file=sys.stderr)
        return 2
    build_dir = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    if not os.path.isabs(build_dir):
        build_dir = os.path.join(ROOT, build_dir)
    try:
        build(build_dir)
    except (OSError, subprocess.CalledProcessError) as e:
        print("perfbench: build failed: %s" % e, file=sys.stderr)
        return 2

    work_dir = os.path.join(build_dir, "perfbench_work")
    os.makedirs(work_dir, exist_ok=True)
    command = [os.path.join(build_dir, "perfbench_driver"),
               "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace),
               "--served", os.path.join(build_dir, "galaxy_served"),
               "--work-dir", work_dir]
    # Its own session, so a timeout can stop perfbench_driver and its server.
    child = subprocess.Popen(command, start_new_session=True)
    try:
        return child.wait(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(child.pid, signal.SIGKILL)
        child.wait()
        print("perfbench: run exceeded %d s" % RUN_TIMEOUT_S, file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())

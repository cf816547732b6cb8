#!/usr/bin/env python3
"""Build and run the xlvm host-time benchmark.

Run from the root of an xlvm checkout:

    python3 hostbench/run.py --workload trace_hot --seed 1 --seconds 15 --trace 0

The benchmark binary is built (Release) from this directory's CMake
package into $CARGO_TARGET_DIR/hostbench, or .bench_build/hostbench when
that is unset. Build output goes to stderr. The process then replaces
itself with the binary, so the measurement runs in this one process;
its last line of stdout is the JSON result. With --trace 1 the spans are
written next to the build as spans-<workload>-<seed>.json.
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def fail(msg):
    print("hostbench: " + msg, file=sys.stderr)
    sys.exit(2)


def arg_value(argv, flag):
    for i, a in enumerate(argv[:-1]):
        if a == flag:
            return argv[i + 1]
    return None


def build(build_dir):
    jobs = str(min(4, os.cpu_count() or 1))
    steps = []
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", build_dir,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", build_dir, "--target", "hostbench",
                  "-j", jobs])
    for cmd in steps:
        res = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr)
        if res.returncode != 0:
            fail("build step failed: " + " ".join(cmd))
    return os.path.join(build_dir, "hostbench")


def main():
    argv = sys.argv[1:]
    root = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    build_dir = os.path.abspath(os.path.join(root, "hostbench"))
    binary = build(build_dir)
    if arg_value(argv, "--trace") == "1" and "--spans" not in argv:
        name = "spans-%s-%s.json" % (arg_value(argv, "--workload"),
                                     arg_value(argv, "--seed") or "1")
        argv += ["--spans", os.path.join(build_dir, name)]
    sys.stdout.flush()
    sys.stderr.flush()
    os.execv(binary, [binary] + argv)


if __name__ == "__main__":
    main()

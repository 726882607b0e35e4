#!/usr/bin/env python3
"""Builds nc_ledger from this checkout and runs one ledger workload.

    python3 bench/ledger/run.py --workload steady_serve --seed 1 \
        --seconds 12 --trace 0
    python3 bench/ledger/run.py --check

Run from the repository root. The library is built from src/ with CMake
(Release) into bench/ledger/build/, or into $CARGO_TARGET_DIR/nc_ledger
when that variable names a build directory. Build output goes to stderr;
every argument is handed to nc_ledger, whose last line of standard output
is the run's JSON result. The exit code is nc_ledger's: non-zero on a
usage error, a failed build or any wrong answer.
"""

import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))


def build_dir():
    target = os.environ.get("CARGO_TARGET_DIR")
    if target:
        return os.path.join(os.path.abspath(target), "nc_ledger")
    return os.path.join(HERE, "build")


def build(out_dir):
    """Configures (once) and builds nc_ledger; returns its path or None."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        print("run.py: no library sources at %s/src" % ROOT, file=sys.stderr)
        return None
    if not os.path.isfile(os.path.join(out_dir, "CMakeCache.txt")):
        configure = ["cmake", "-S", HERE, "-B", out_dir,
                     "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        if subprocess.call(configure, stdout=sys.stderr) != 0:
            return None
    jobs = str(min(4, os.cpu_count() or 1))
    if subprocess.call(["cmake", "--build", out_dir, "--target", "nc_ledger",
                        "-j", jobs], stdout=sys.stderr) != 0:
        return None
    return os.path.join(out_dir, "nc_ledger")


def value_of(argv, flag):
    if flag in argv and argv.index(flag) + 1 < len(argv):
        return argv[argv.index(flag) + 1]
    return None


def main(argv):
    out_dir = build_dir()
    binary = build(out_dir)
    if binary is None:
        print("run.py: build failed", file=sys.stderr)
        return 2
    traced = value_of(argv, "--trace") == "1" or "--traced" in argv
    if traced and "--spans" not in argv:
        # The traced run's spans land next to the build.
        workload = value_of(argv, "--workload") or "unknown"
        argv = argv + ["--spans",
                       os.path.join(out_dir, "spans-%s.jsonl" % workload)]
    return subprocess.call([binary] + argv)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

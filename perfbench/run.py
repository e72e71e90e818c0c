#!/usr/bin/env python3
"""Builds the layer benchmark from source and runs one workload.

Usage (from the repository root):

    python3 perfbench/run.py --workload tune_cold|serve_chat|fleet_mixed \
        --seed N --seconds S --trace 0|1 [--smoke]
    python3 perfbench/run.py --regen-cache

The build goes to $CARGO_TARGET_DIR (default `.bench_build`) under the
repository root; spans of a traced run go to `.bench_out/`. Build output goes
to stderr, so the last line of stdout is the driver's JSON result.
"""
import argparse
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
CACHE = os.path.join("perfbench", "plan_cache.json")


def build():
    """Configures (once) and builds the driver; returns its path."""
    if not (os.path.isfile(os.path.join(ROOT, "CMakeLists.txt"))
            and os.path.isdir(os.path.join(ROOT, "src"))):
        sys.exit("perfbench: no repository sources next to perfbench/; cannot build")
    build_root = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    build_dir = os.path.join(ROOT, build_root, "perfbench")
    # Keep the compiler's temporary files inside the build tree too.
    env = dict(os.environ, TMPDIR=os.path.join(build_dir, "tmp"))
    os.makedirs(env["TMPDIR"], exist_ok=True)
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        subprocess.run(["cmake", "-S", HERE, "-B", build_dir, "-DCMAKE_BUILD_TYPE=Release"],
                       stdout=sys.stderr, check=True, env=env)
    jobs = str(min(4, os.cpu_count() or 1))
    subprocess.run(["cmake", "--build", build_dir, "--target", "layerbench", "-j", jobs],
                   stdout=sys.stderr, check=True, env=env)
    return os.path.join(build_dir, "layerbench")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny inputs and one set-up (the smoke test)")
    parser.add_argument("--regen-cache", action="store_true",
                        help="re-tune every plan the warm workloads use into " + CACHE)
    args = parser.parse_args()
    if not args.regen_cache and not args.workload:
        parser.error("--workload is required")

    try:
        binary = build()
    except (OSError, subprocess.CalledProcessError) as err:
        sys.exit(f"perfbench: build failed: {err}")

    os.chdir(ROOT)
    if args.regen_cache:
        cmd = [binary, "--regen-cache", CACHE]
    else:
        cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", repr(args.seconds), "--trace", str(args.trace)]
        if args.smoke:
            cmd.append("--smoke")
        if args.trace:
            os.makedirs(".bench_out", exist_ok=True)
            cmd += ["--span-out",
                    os.path.join(".bench_out", f"spans_{args.workload}_seed{args.seed}.json")]
    sys.stdout.flush()
    return subprocess.run(cmd, check=False).returncode


if __name__ == "__main__":
    sys.exit(main())

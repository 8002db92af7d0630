#!/usr/bin/env python3
"""The repository benchmark: build wfregs and run one workload.

Run from the root of a source tree:

    python3 perfbench/run.py --workload explore-seq --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --self-test
    python3 perfbench/run.py --regenerate-references

The first call builds the default RelWithDebInfo configuration of the
libraries, wfregsd and the perfbench binary into the build directory
($CARGO_TARGET_DIR when set, else .bench_build); later calls rebuild only
what changed.  Each workload runs in its own process; the last line of
standard output is one JSON object with `correct`, `attempted`, `failed` and
`metrics`.  See perfbench/README.md.
"""
import argparse
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ["explore-seq", "explore-par", "explore-ooc", "service-mix"]
RUN_TIMEOUT_S = 170


def fail(message):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(2)


def build(build_dir):
    """Configures once, then builds perfbench and wfregsd; output to stderr."""
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        subprocess.run(["cmake", "-S", HERE, "-B", build_dir,
                        "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
                       cwd=ROOT, stdout=sys.stderr, check=True)
    subprocess.run(["cmake", "--build", build_dir, "--target", "perfbench",
                    "-j", jobs], cwd=ROOT, stdout=sys.stderr, check=True)


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=20)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--self-test", action="store_true",
                    help="check that every correctness check rejects a "
                         "corrupted verdict")
    ap.add_argument("--regenerate-references", action="store_true",
                    help="rewrite perfbench/reference_counts.txt")
    args = ap.parse_args()
    if not (args.workload or args.self_test or args.regenerate_references):
        fail("give --workload, --self-test or --regenerate-references")

    # The benchmark builds the program from the surrounding source tree.
    for needed in ("CMakeLists.txt", "src", "include", "examples"):
        if not os.path.exists(os.path.join(ROOT, needed)):
            fail("no wfregs source tree around perfbench/ (missing %s)" % needed)

    build_dir = os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    try:
        build(build_dir)
    except (OSError, subprocess.CalledProcessError) as e:
        fail("build failed: %s" % e)

    name = args.workload or ("self-test" if args.self_test else "references")
    workdir = os.path.join(build_dir, "runs", "%s-%d" % (name, os.getpid()))
    shutil.rmtree(workdir, ignore_errors=True)
    os.makedirs(workdir)
    rel = lambda p: os.path.relpath(p, ROOT)
    cmd = [os.path.join(build_dir, "perfbench"), "--workdir", rel(workdir)]
    if args.self_test:
        cmd.append("--self-test")
    elif args.regenerate_references:
        cmd += ["--regenerate-references", rel(os.path.join(HERE, "reference_counts.txt"))]
    else:
        cmd += ["--workload", args.workload, "--seed", str(args.seed),
                "--seconds", str(args.seconds), "--trace", str(args.trace),
                "--wfregsd", os.path.join(build_dir, "wfregs", "examples", "wfregsd"),
                "--references", rel(os.path.join(HERE, "reference_counts.txt"))]
    env = dict(os.environ, TMPDIR=os.path.abspath(workdir))
    try:
        done = subprocess.run(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail("run exceeded %d s" % RUN_TIMEOUT_S)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    sys.stdout.write(done.stdout.decode())
    sys.stdout.flush()
    sys.exit(done.returncode)


if __name__ == "__main__":
    main()

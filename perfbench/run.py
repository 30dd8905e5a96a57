#!/usr/bin/env python3
"""Build and run the repository benchmark.

    python3 perfbench/run.py --workload NAME [--seed N] [--seconds S]
                             [--trace 0|1]
    python3 perfbench/run.py --selftest

Run from the repository root. The first call configures and builds
the simulator and the perfbench binary from source (CMake, optimised)
under .bench_build/ (or $CARGO_TARGET_DIR); later calls rebuild only
what changed. The named metrics and checks are printed for people,
and the last line of standard output is one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

with the end-to-end metrics (--trace 0) or the per-layer metrics
(--trace 1). The exit status is 0 only when every check passed.
"""

import argparse
import hashlib
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("table2_machine", "powercut_campaign", "kv_cluster_storm")
REFERENCE = os.path.join(HERE, "reference_digests.json")
BUILD_TIMEOUT_S = 850
SELFTEST_TIMEOUT_S = 170
# A run measures for --seconds, then finishes the batch or traced
# ladder it is in; a ladder takes about 25 s on a 4-vCPU host.
RUN_MARGIN_S = 120


def log(*parts):
    print(*parts, file=sys.stderr, flush=True)


def host_threads():
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def build(target):
    """Configure (once) and build @target; return the binary path."""
    out = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    build_dir = os.path.join(ROOT, out, "perfbench")
    generator = ["-G", "Ninja"] if shutil.which("ninja") else []
    if not any(os.path.exists(os.path.join(build_dir, f))
               for f in ("build.ninja", "Makefile")):
        subprocess.run(
            ["cmake", "-S", HERE, "-B", build_dir,
             "-DCMAKE_BUILD_TYPE=RelWithDebInfo"] + generator,
            check=True, stdout=sys.stderr, timeout=BUILD_TIMEOUT_S)
    subprocess.run(
        ["cmake", "--build", build_dir, "--target", target,
         "-j", str(host_threads())],
        check=True, stdout=sys.stderr, timeout=BUILD_TIMEOUT_S)
    return os.path.join(build_dir, target)


def source_identity():
    """The git commit when ROOT is a work tree, else a source hash."""
    try:
        top = subprocess.run(
            ["git", "-C", ROOT, "rev-parse", "--show-toplevel"],
            capture_output=True, text=True, timeout=10)
        if top.returncode == 0 and \
                os.path.samefile(top.stdout.strip(), ROOT):
            head = subprocess.run(
                ["git", "-C", ROOT, "rev-parse", "HEAD"],
                capture_output=True, text=True, timeout=10)
            dirty = subprocess.run(
                ["git", "-C", ROOT, "status", "--porcelain", "--",
                 "src", "perfbench"],
                capture_output=True, text=True, timeout=10)
            return "git " + head.stdout.strip() + \
                ("+dirty" if dirty.stdout.strip() else "")
    except (OSError, subprocess.SubprocessError):
        pass
    digest = hashlib.sha256()
    for base in ("src", "perfbench"):
        for folder, dirs, files in sorted(os.walk(os.path.join(ROOT, base))):
            dirs.sort()
            for name in sorted(files):
                path = os.path.join(folder, name)
                digest.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    digest.update(f.read())
    return "sources sha256 " + digest.hexdigest()[:16]


def reference_check(result):
    """Compare the digest with the recorded one for the default seed."""
    with open(REFERENCE) as f:
        ref = json.load(f)
    if result["seed"] != ref["seed"]:
        return None
    want = ref["digests"].get(result["workload"])
    return want, want == result["sim_digest"]


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--selftest", action="store_true",
                        help="build and run the benchmark's own tests")
    args = parser.parse_args()
    if args.seed < 0 or args.seconds < 1:
        parser.error("--seed must be >= 0 and --seconds >= 1")

    os.chdir(ROOT)
    try:
        if args.selftest:
            return subprocess.run([build("perfbench_selftest")],
                                  timeout=SELFTEST_TIMEOUT_S).returncode
        if not args.workload:
            parser.error("--workload is required")
        binary = build("perfbench")
    except (OSError, subprocess.SubprocessError) as err:
        log("perfbench: build failed:", err)
        return 1

    threads = host_threads()
    try:
        proc = subprocess.run(
            [binary, "--workload", args.workload, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace),
             "--threads", str(threads)],
            stdout=subprocess.PIPE, text=True,
            timeout=args.seconds + RUN_MARGIN_S)
        result = json.loads(proc.stdout.strip().splitlines()[-1])
    except (OSError, subprocess.SubprocessError, ValueError,
            IndexError) as err:
        # A crash or timeout is one attempted run that failed.
        log("perfbench: run failed:", err)
        print(json.dumps({"correct": False, "attempted": 1, "failed": 1,
                          "metrics": {}}))
        return 1

    failures = list(result["failures"])
    if proc.returncode != 0 and not failures:
        failures.append("perfbench exited with status %d" % proc.returncode)
    ref = reference_check(result)
    if ref is not None and not ref[1]:
        failures.append("sim_digest %s != reference %s for seed %d"
                        % (result["sim_digest"], ref[0], args.seed))
    failed = len(failures)

    print("workload      %s (seed %d, %s)" % (
        args.workload, args.seed, "traced" if args.trace else "untraced"))
    print("source        %s" % source_identity())
    print("host          nproc %d, %d benchmark threads"
          % (threads, result["threads"]))
    for key, value in result["build"].items():
        print("build         %s: %s" % (key, value))
    print("sim_digest    %s (reference: %s)" % (
        result["sim_digest"],
        "not checked for this seed" if ref is None
        else "match" if ref[1] else "MISMATCH %s" % ref[0]))
    print("ops_total     %d" % result["attempted"])
    print("ops_failed    %d" % failed)
    for note in failures:
        print("FAILED        %s" % note)
    for group in ("metrics", "report"):
        for name, m in result[group].items():
            print("%-13s %-34s %.6g %s"
                  % (group, name, m["value"], m["unit"]))

    print(json.dumps({
        "correct": failed == 0,
        "attempted": result["attempted"],
        "failed": failed,
        "metrics": result["metrics"],
    }))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())

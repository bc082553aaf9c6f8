#!/usr/bin/env python3
"""Build CLASP's replay benchmark from source and run one workload.

    python3 perfbench/run.py --workload paper_6region --seed 1 \
        --seconds 50 --trace 0

Run from the repository root. The first run configures and builds
perfbench/ (the CLASP libraries plus replay_bench) into $CARGO_TARGET_DIR,
or .bench_build when it is unset; later runs rebuild incrementally.
Checkpoints and other scratch files go under .bench_work/ and are removed
when the run ends.

stdout carries one line per metric (name, value, unit, sample count), a
JSON line with the run context, and as its last line the result:
{"correct", "attempted", "failed", "metrics": {name: {"value", "unit"}}}.
--trace 0 reports the end-to-end metrics, --trace 1 the per-layer ones.
See README.md for the workloads and why the timings look the way they do.
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
WORKLOADS = ("paper_6region", "fleet10x_durable")
# The bench binary must finish well inside the 180 s a run may take.
RUN_TIMEOUT_S = 170


def log(msg):
    print(f"[perfbench] {msg}", file=sys.stderr, flush=True)


def build(build_dir):
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        sys.exit("perfbench: no CLASP sources beside perfbench/, "
                 "nothing to build")
    jobs = str(max(1, min(4, len(os.sched_getaffinity(0)))))
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        log(f"configuring {build_dir}")
        subprocess.run(["cmake", "-S", HERE, "-B", build_dir,
                        "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
                       check=True, stdout=sys.stderr)
    subprocess.run(["cmake", "--build", build_dir, "--target", "replay_bench",
                    "-j", jobs], check=True, stdout=sys.stderr)
    return os.path.join(build_dir, "replay_bench")


def cmake_cache_value(build_dir, key):
    with open(os.path.join(build_dir, "CMakeCache.txt")) as f:
        for line in f:
            if line.startswith(key + ":"):
                return line.split("=", 1)[1].strip()
    return ""


def cpu_model():
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return "unknown"


def git_commit():
    # Only the checkout's own repository: a checkout that is not one must
    # not report the commit of some enclosing directory.
    if not os.path.exists(os.path.join(ROOT, ".git")):
        return None
    try:
        out = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10)
        if out.returncode == 0:
            return out.stdout.strip()
    except (OSError, subprocess.TimeoutExpired):
        pass
    return None


def source_digest():
    """SHA-256 over src/ and perfbench/, naming the code when git cannot."""
    h = hashlib.sha256()
    for top in ("src", "perfbench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                h.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    h.update(f.read())
    return h.hexdigest()


def expected_digest(workload, seed, trace):
    """The recorded digest for this seed, or None when none is recorded.

    Untraced runs hash the replay's content; traced runs prefix the hash
    of the CSV export (see README.md, "Output check")."""
    with open(os.path.join(HERE, "expected_digests.json")) as f:
        record = json.load(f).get(workload, {}).get(str(seed))
    if record is None:
        return None
    if trace:
        return record["csv"] + "-" + record["content"]
    return record["content"]


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=50)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    build_dir = os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR",
                                                  ".bench_build"))
    binary = build(build_dir)

    work_dir = os.path.join(ROOT, ".bench_work",
                            f"{args.workload}-{os.getpid()}")
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--work-dir", work_dir]
    expect = expected_digest(args.workload, args.seed, args.trace)
    if expect:
        cmd += ["--expect", expect]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
        try:
            os.rmdir(os.path.dirname(work_dir))  # only when no run is left
        except OSError:
            pass
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.exit(f"perfbench: replay_bench exited with {proc.returncode}")
    raw = json.loads(lines[-1])

    context = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model(),
        "compiler": (cmake_cache_value(build_dir, "CMAKE_CXX_COMPILER") +
                     " " + raw["compiler"]),
        "build_type": raw["build_type"],
        "git_commit": git_commit(),
        "source_sha256": source_digest(),
        "digest": raw["digest"],
        "digest_checked_against_record": expect is not None,
        "cycles": raw["cycles"],
    }
    for name, m in raw["metrics"].items():
        print(f"{name:34s} {m['value']:>16.6f} {m['unit']:8s} "
              f"n={m['samples']}")
    print(json.dumps({"context": context}))
    result = {
        "correct": raw["correct"],
        "attempted": raw["attempted"],
        "failed": raw["failed"],
        "metrics": {name: {"value": m["value"], "unit": m["unit"]}
                    for name, m in raw["metrics"].items()},
    }
    print(json.dumps(result))


if __name__ == "__main__":
    main()

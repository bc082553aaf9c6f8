#!/usr/bin/env python3
"""CI gate for BENCH_service.json.

Asserts the campaign-service bench ran both legs and that the daemon's
two budgets held:

  1. Latency — a warm resident session's first hour must be cheaper
     than a cold submit (which builds a world, selects, deploys); the
     warm-checkpoint figure only has to exist and be positive, since it
     rebuilds a platform just like cold does.
  2. Throughput — time-slicing 1/4/8 concurrent campaigns must keep
     aggregate throughput at >= 0.9x the same campaign set run
     back-to-back in batch mode (scheduling + registry persistence +
     session switching all inside 10%), and every harvested CSV must be
     byte-identical to its batch twin — identity is a contract, not a
     budget. Throughput is compared in process CPU time (`cpu_ratio`):
     both legs run on one thread, and CPU time leaves out the time a
     shared host kept the process waiting for a CPU. The wall-time
     `ratio` is printed alongside.

Usage: check_bench_service.py BENCH_service.json
"""

import json
import sys

THROUGHPUT_RATIO_FLOOR = 0.9


def fail(msg):
    print(f"bench gate: FAIL: {msg}", file=sys.stderr)
    sys.exit(1)


def main():
    if len(sys.argv) != 2:
        fail(f"usage: {sys.argv[0]} BENCH_service.json")
    with open(sys.argv[1]) as f:
        bench = json.load(f)

    latency = bench.get("latency")
    if not latency:
        fail("missing 'latency' leg")
    cold = latency.get("cold_first_hour_seconds", 0.0)
    warm_resident = latency.get("warm_resident_first_hour_seconds", 0.0)
    warm_checkpoint = latency.get("warm_checkpoint_first_hour_seconds", 0.0)
    if cold <= 0.0 or warm_resident <= 0.0 or warm_checkpoint <= 0.0:
        fail("latency figures must all be positive "
             f"(cold={cold}, warm_resident={warm_resident}, "
             f"warm_checkpoint={warm_checkpoint})")
    if warm_resident >= cold:
        fail(f"warm resident first hour ({warm_resident}s) is not cheaper "
             f"than cold ({cold}s) — the scheduler is rebuilding sessions "
             "it already holds")

    runs = bench.get("throughput", [])
    by_n = {r.get("concurrent"): r for r in runs}
    for n in (1, 4, 8):
        if n not in by_n:
            fail(f"missing {n}-concurrent throughput run")
    for n, run in sorted(by_n.items()):
        if not run.get("output_identical"):
            fail(f"{n}-concurrent run's harvested CSVs diverged from the "
                 "batch twins")
        ratio = run.get("cpu_ratio", 0.0)
        if ratio < THROUGHPUT_RATIO_FLOOR:
            fail(f"{n}-concurrent CPU throughput is {ratio:.3f}x "
                 f"sequential batch (floor {THROUGHPUT_RATIO_FLOOR})")
        if run.get("hours_per_sec", 0.0) <= 0.0:
            fail(f"{n}-concurrent run reports no progress")
    multi = by_n[8]
    if multi.get("preemptions", 0) < 1:
        fail("8-concurrent run recorded no preemptions — the scheduler "
             "never actually time-sliced")

    print("bench gate: OK: "
          f"cold {cold}s vs warm-resident {warm_resident}s; CPU ratios " +
          ", ".join(f"{n}x={by_n[n].get('cpu_ratio'):.3f}"
                    for n in sorted(by_n)) +
          "; wall ratios " +
          ", ".join(f"{n}x={by_n[n].get('ratio'):.3f}"
                    for n in sorted(by_n)))


if __name__ == "__main__":
    main()

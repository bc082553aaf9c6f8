#!/usr/bin/env python3
"""CI gate for the checkpoint leg of BENCH_robustness.json.

Asserts that a durable run's checkpoint publishes write bytes that grow
linearly with the window: the bytes written by a 14-day run (read from
clasp_checkpoint_bytes_written_total, which is deterministic, not a wall
time) may be at most MAX_RATIO times those of a 7-day run. The counter
sums the files each publish writes: a full base's snapshot and state, or
a cadence publish's manifest and ledger. Rewriting the full state at
every publish makes the ratio about 4; writing bases only geometrically,
with a few-KB cadence publish between them, keeps it near 2. Also
re-checks that the durable legs left the output unchanged.

Usage: check_bench_checkpoint.py BENCH_robustness.json
"""

import json
import sys

MAX_RATIO = 2.2


def fail(msg):
    print(f"bench gate: FAIL: {msg}", file=sys.stderr)
    sys.exit(1)


def main():
    if len(sys.argv) != 2:
        fail(f"usage: {sys.argv[0]} BENCH_robustness.json")
    with open(sys.argv[1]) as f:
        bench = json.load(f)

    ckpt = bench.get("checkpoint")
    if ckpt is None:
        fail("missing 'checkpoint' object")
    if ckpt.get("output_identical") is not True:
        fail("durable or resumed run changed the output")

    week = ckpt.get("bytes_written_7d", 0)
    fortnight = ckpt.get("bytes_written_14d", 0)
    if week <= 0 or fortnight <= 0:
        fail(f"no checkpoint bytes recorded (7d {week}, 14d {fortnight})")
    if fortnight <= week:
        fail(f"14-day run wrote no more than the 7-day run "
             f"({fortnight} <= {week} bytes)")
    ratio = fortnight / week
    if ratio > MAX_RATIO:
        fail(f"checkpoint bytes grow {ratio:.2f}x from 7 to 14 days "
             f"(> {MAX_RATIO}): publishes are rewriting the past")
    print(f"bench gate: OK: checkpoint bytes 7d {week}, 14d {fortnight}, "
          f"ratio {ratio:.2f} <= {MAX_RATIO}")


if __name__ == "__main__":
    main()

#!/usr/bin/env python3
"""CI gate for BENCH_campaign.json.

Asserts the campaign bench emitted the 10x fleet whole-hour run and the
link-hour evaluation pair behind speedup_at_10x (batched arena sweep vs
per-session network_view::evaluate), and applies the soft
perf-regression gate: fail when the serial 1x ns/hour regresses more than
10% over the committed baseline (bench/campaign_baseline.json).

Usage: check_bench_campaign.py BENCH_campaign.json campaign_baseline.json
"""

import json
import sys

SPEEDUP_FLOOR = 5.0
REGRESSION_HEADROOM = 1.10


def fail(msg):
    print(f"bench gate: FAIL: {msg}", file=sys.stderr)
    sys.exit(1)


def main():
    if len(sys.argv) != 3:
        fail(f"usage: {sys.argv[0]} BENCH_campaign.json campaign_baseline.json")
    with open(sys.argv[1]) as f:
        bench = json.load(f)
    with open(sys.argv[2]) as f:
        baseline = json.load(f)

    # 1. The fleet-scale axis ran: the 10x whole-hour configuration.
    runs = bench.get("runs", [])
    if not any(r.get("fleet_scale") == 10 for r in runs):
        fail("missing 10x fleet whole-hour run in 'runs'")

    # 2. The link-hour evaluation pair ran at 10x and the recorded
    #    speedup meets the batched evaluator's floor.
    link_runs = bench.get("link_eval_runs", [])
    link_scaled = {r["batch"] for r in link_runs if r.get("fleet_scale") == 10}
    if link_scaled != {True, False}:
        fail("missing 10x link-hour evaluation pair in 'link_eval_runs'")
    speedup = bench.get("speedup_at_10x")
    if speedup is None:
        fail("missing 'speedup_at_10x'")
    if speedup < SPEEDUP_FLOOR:
        fail(
            f"speedup_at_10x = {speedup:.2f} < {SPEEDUP_FLOOR} (batched "
            "link-hour evaluation vs per-session evaluate at 10x fleet)"
        )

    # 3. Soft perf gate: 1x fleet must not regress > 10% vs the committed
    #    baseline.
    one_x = bench.get("ns_per_hour_1x")
    if one_x is None:
        fail("missing 'ns_per_hour_1x'")
    base = baseline.get("ns_per_hour_1x")
    if not base or base <= 0:
        fail("baseline file has no positive 'ns_per_hour_1x'")
    limit = base * REGRESSION_HEADROOM
    if one_x > limit:
        fail(
            f"ns_per_hour_1x = {one_x:.0f} exceeds {limit:.0f} "
            f"(baseline {base:.0f} + 10%). If this is an accepted cost or a "
            "hardware change, re-baseline: copy the new value into "
            "bench/campaign_baseline.json with a note in the PR."
        )

    print(
        f"bench gate: OK: speedup_at_10x={speedup:.2f} (floor {SPEEDUP_FLOOR}), "
        f"ns_per_hour_1x={one_x:.0f} (baseline {base:.0f}, limit {limit:.0f})"
    )


if __name__ == "__main__":
    main()

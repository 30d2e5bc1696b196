#!/usr/bin/env python3
"""Run every machine-checked claim at its shipped size and summarize.

Exit status is 0 only if every stage passes.  --quick shrinks the horizons
for a fast smoke run (seconds instead of half a minute).
"""

import argparse
import sys
import time

from ca_signals import (exhaustive_two_state_search, verify_basic,
                        verify_bounds, verify_log2, verify_xy)


def stages(quick: bool):
    if quick:
        yield "log2", lambda: verify_log2(128)
        yield "xy(2,3)", lambda: verify_xy(2, 3, 120)
        yield "xy(3,4)", lambda: verify_xy(3, 4, 120)
        yield "bounds", lambda: verify_bounds(3, 512)
        yield "basic", lambda: verify_basic(10)
        return
    yield "log2", lambda: verify_log2(2048)
    yield "xy(2,3)", lambda: verify_xy(2, 3, 1500)
    yield "xy(3,4)", lambda: verify_xy(3, 4, 600)
    yield "bounds", lambda: verify_bounds(20, 4096)
    yield "basic", lambda: verify_basic(50)


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--quick", action="store_true",
                    help="small horizons for a smoke run")
    args = ap.parse_args()

    failed = False
    for label, fn in stages(args.quick):
        t0 = time.perf_counter()
        rep = fn()
        dt = time.perf_counter() - t0
        for line in rep.lines():
            print(line)
        print(f"-- {label}: {'ok' if rep.ok else 'FAILED'} ({dt:.1f}s)")
        failed = failed or not rep.ok

    t0 = time.perf_counter()
    rep = exhaustive_two_state_search()
    dt = time.perf_counter() - t0
    ok = rep.passing == 0
    print(f"[{'PASS' if ok else 'FAIL'}] search/empty: "
          f"{rep.total_candidates} candidates, {rep.passing} passing, "
          f"digest {rep.digest[:16]}...")
    print(f"-- search: {'ok' if ok else 'FAILED'} ({dt:.1f}s)")
    failed = failed or not ok

    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())

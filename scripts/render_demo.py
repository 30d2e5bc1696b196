#!/usr/bin/env python3
"""Draw the binary counter: PPM frames, a few slices, and the digit plane.

Writes slice_*.ppm frames plus palette.json into --out-dir and prints the
sheared digit rows for small k, so you can eyeball that row k spells the
binary digits of k+1 (low-order bit first, '.' marks quiescent cells).
"""

import argparse
import sys

from ca_signals import DiagonalLetters, builtin_log2, run_probes, w_site
from ca_signals.cli import main as cli_main


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--steps", type=int, default=24)
    ap.add_argument("--out-dir", default="frames")
    ap.add_argument("--k-max", type=int, default=10)
    args = ap.parse_args()

    rc = cli_main(["render", "--ca", "log2", "--mode", "ppm",
                   "--steps", str(args.steps), "--out-dir", args.out_dir])
    if rc != 0:
        return rc

    width = max(8, (args.k_max + 1).bit_length() + 2)
    ca = builtin_log2()
    # entry i of digit row k is diagonal (2i, 2i) at t = k + i
    sites = [[w_site(k, 0, i) for i in range(width)]
             for k in range(args.k_max + 1)]
    letters = DiagonalLetters(d for row in sites for d, _ in row)
    run_probes(ca, args.k_max + width - 1, [letters])
    lam = ca.quiescent
    print(f"\ndigit rows k=0..{args.k_max} (row k spells k+1 in binary, "
          "low bit first):")
    for k, row in enumerate(letters.spell(sites)):
        text = "".join("." if s == lam else s for s in row)
        print(f"  k={k:2d}  {text}  (k+1 = {k + 1:2d} = "
              f"{bin(k + 1)[2:]}b)")
    return 0


if __name__ == "__main__":
    sys.exit(main())

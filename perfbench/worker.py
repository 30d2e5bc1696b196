"""One benchmark process: set up, run one operation, report one JSON line.

``run.py`` starts this script once per operation (and once per extra
set-up sample), one process at a time.  It prints a single JSON object on
stdout:

* ``setup_s``: from the parent's clock reading just before it started this
  process to ``ca_signals`` imported and the workload's automata built
  (``time.monotonic`` is one clock for every process on the machine);
* ``wall_s``, ``peak_rss_mb``, ``ok``, ``digest``: the operation's time,
  this process's peak RSS, whether the output passed its own checks, and
  the SHA-256 of that output (``run.py`` compares it with the pinned one);
* ``ref_before_s``, ``ref_after_s``: the time of ``reference.py``'s fixed
  task, run just after set-up and just after the operation, which tells
  how fast the machine ran meanwhile (a set-up-only process reports the
  first);
* ``layers``: the per-layer metrics, when traced.

Exit status 2 means set-up failed (for example, no ``src/ca_signals`` to
import); no operation was attempted then.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import resource
import sys
import time
import traceback
from pathlib import Path

from reference import reference_s


def _import_package(root: Path):
    src = root / "src"
    sys.path.insert(0, str(src))
    import ca_signals
    where = Path(ca_signals.__file__).resolve()
    if src.resolve() not in where.parents:
        raise ImportError(f"ca_signals imported from {where}, not from {src}")
    return ca_signals


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--root", required=True)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--op", type=int, required=True)
    ap.add_argument("--t0", type=float, required=True)
    ap.add_argument("--out", required=True)
    ap.add_argument("--spans")
    ap.add_argument("--smoke", action="store_true")
    ap.add_argument("--trace", action="store_true")
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args()
    root = Path(args.root)

    try:
        _import_package(root)
        from workloads import WORKLOADS
        wl = WORKLOADS[args.workload]
        params = wl.smoke if args.smoke else wl.size
        wl.build(params)
    except Exception:
        traceback.print_exc()
        return 2
    result = {"setup_s": time.monotonic() - args.t0,
              "ref_before_s": reference_s()}
    if args.setup_only:
        print(json.dumps(result))
        return 0

    out = Path(args.out)
    tracer = None
    if args.trace:
        from spans import Tracer
        tracer = Tracer(args.op)
    try:
        with tracer.installed() if tracer else contextlib.nullcontext():
            start = time.perf_counter()
            value = wl.call(params, args.seed, out)
            elapsed = time.perf_counter() - start
        peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        ok, data = wl.output(value, out)
        ref_after = reference_s()
    except Exception:
        traceback.print_exc()
        result["ok"] = False
        print(json.dumps(result))
        return 1
    finally:
        out.unlink(missing_ok=True)

    result.update(wall_s=elapsed, ref_after_s=ref_after,
                  peak_rss_mb=peak_kb / 1024, ok=ok,
                  digest=hashlib.sha256(data).hexdigest())
    if tracer is not None:
        result["layers"] = tracer.layer_metrics(elapsed)
        if args.spans:
            tracer.write(args.spans)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

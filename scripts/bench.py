#!/usr/bin/env python3
"""Paired benchmark of the working tree against a parent commit.

    python3 scripts/bench.py --out BENCH_7.json --change "what changed" \\
        --claim counter:peak_rss_mb --traced counter,two_track

The parent commit (``--parent``; by default HEAD while the working tree
has uncommitted changes, else HEAD~1) is exported with ``git archive``, and
the working tree's files (tracked or untracked, less the ignored ones) are
copied, into the sibling directories ``parent`` and ``change`` of one
temporary directory.  Both sides thus run from paths of equal length, and
the run leaves no checkout or worktree behind.  For each of the
benchmark's four workloads, each of 10 pairs runs

    python3 perfbench/run.py --workload W --seed S --trace 0

once on the parent and once on the working tree, on the same seed and for
the benchmark's own run length, alternating which side runs first.
``--traced`` workloads then get one ``--trace 1`` run per side.  The
result is written in the schema of ``BENCH_6.json``: per side and metric
the median, quartiles and every run's value, the operations attempted and
failed, and per metric the number of pairs the change won (a lower value
wins, as for every end-to-end metric).
"""

from __future__ import annotations

import argparse
import io
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tarfile
import tempfile
from importlib import metadata
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
METRICS = ("norm_wall_s", "setup_s", "peak_rss_mb")
WORKLOADS = ("counter", "two_track", "diagonals", "dump")
PAIRS = 10
COMMAND = "python3 perfbench/run.py --workload W --seed S --trace {trace}"


def _git(*args: str) -> str:
    return subprocess.run(["git", *args], cwd=ROOT, check=True,
                          capture_output=True, text=True).stdout.strip()


def export_commit(rev: str, dest: Path) -> str:
    """Write the files of commit ``rev`` into ``dest``; return its SHA."""
    sha = _git("rev-parse", rev)
    tar = subprocess.run(["git", "archive", "--format=tar", sha], cwd=ROOT,
                         check=True, capture_output=True).stdout
    # extraction filters exist from Python 3.10.12 and 3.11.4 on
    safe = {"filter": "data"} if hasattr(tarfile, "data_filter") else {}
    with tarfile.open(fileobj=io.BytesIO(tar)) as tf:
        tf.extractall(dest, **safe)
    return sha


def export_tree(dest: Path) -> None:
    """Copy the working tree's tracked and untracked, not ignored files
    into ``dest``."""
    names = _git("ls-files", "-z", "--cached", "--others",
                 "--exclude-standard").split("\0")
    for name in filter(None, names):
        src = ROOT / name
        if src.is_file():   # a tracked file may be deleted in the tree
            (dest / name).parent.mkdir(parents=True, exist_ok=True)
            shutil.copy2(src, dest / name)


def run_once(root: Path, workload: str, seed: int, trace: int) -> dict | None:
    """One benchmark run in checkout ``root``: its result line, or None if
    the run exited non-zero or printed no result."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload,
           "--seed", str(seed), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=root, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        print(f"   run failed ({proc.returncode}): {proc.stderr[-500:]}",
              file=sys.stderr)
        return None
    return json.loads(lines[-1])


def _stats(values: list[float]) -> dict:
    q1, med, q3 = (statistics.quantiles(values, n=4, method="inclusive")
                   if len(values) > 1 else values * 3)
    return {"median": round(med, 4), "q1": round(q1, 4), "q3": round(q3, 4),
            "runs": [round(v, 4) for v in values]}


def _side(results: list[dict | None]) -> dict:
    done = [r for r in results if r is not None]
    out = {m: _stats([r["metrics"][m]["value"] for r in done])
           for m in METRICS if done}
    out["attempted"] = sum(r["attempted"] for r in done)
    out["failed"] = sum(r["failed"] for r in done)
    out["correct"] = len(done) == len(results) and all(
        r["correct"] for r in done)
    return out


def summarize(pairs: list[dict]) -> dict:
    """One workload's entry from its pairs, each ``{"seed": S, "parent":
    result or None, "change": result or None}`` (a result is the last line
    of ``perfbench/run.py --trace 0``)."""
    entry = {"pairs": len(pairs), "seeds": [p["seed"] for p in pairs],
             "parent": _side([p["parent"] for p in pairs]),
             "change": _side([p["change"] for p in pairs])}
    for m in METRICS:
        entry[f"{m}_change_wins"] = sum(
            1 for p in pairs if p["parent"] and p["change"]
            and p["change"]["metrics"][m]["value"]
            < p["parent"]["metrics"][m]["value"])
    return entry


def _traced(result: dict | None) -> dict | None:
    if result is None:
        return None
    return {"attempted": result["attempted"], "failed": result["failed"],
            "layers": {k: round(v["value"], 4)
                       for k, v in result["metrics"].items()}}


def _machine() -> dict:
    try:
        numpy = metadata.version("numpy")
    except metadata.PackageNotFoundError:
        numpy = "missing"
    return {"nproc": len(os.sched_getaffinity(0)),
            "python": platform.python_version(), "numpy": numpy,
            "system": platform.system(), "machine": platform.machine()}


def _write(path: str, doc: dict) -> None:
    Path(path).write_text(json.dumps(doc, indent=1) + "\n", encoding="utf-8")


def _names(text: str) -> list[str]:
    names = [n for n in text.split(",") if n]
    for n in names:
        if n not in WORKLOADS:
            raise SystemExit(f"unknown workload {n!r}; expected one of "
                             f"{', '.join(WORKLOADS)}")
    return names


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--out", required=True, help="BENCH_<n>.json to write")
    ap.add_argument("--change", required=True,
                    help="one line saying what the change does")
    ap.add_argument("--parent",
                    help="commit to compare the working tree against "
                         "(default: HEAD if the tree has changes, else HEAD~1)")
    ap.add_argument("--seed-base", type=int, default=1,
                    help="pair i runs on seed SEED_BASE + i")
    ap.add_argument("--claim", help="WORKLOAD:METRIC the change claims")
    ap.add_argument("--traced", default="",
                    help="workloads to run once traced on each side")
    args = ap.parse_args(argv)
    traced = _names(args.traced)

    dirty = _git("status", "--porcelain", "--untracked-files=no")
    head = _git("rev-parse", "HEAD")
    parent = args.parent or ("HEAD" if dirty else "HEAD~1")
    if not dirty and _git("rev-parse", parent) == head:
        raise SystemExit(f"--parent {parent} is HEAD and the working tree is "
                         "clean: both sides would run the same code")
    doc = {"change": args.change,
           "parent_sha": "",
           "change_sha": ("the commit that adds this file (its parent is "
                          "parent_sha)" if dirty else head),
           "machine": _machine(),
           "command": COMMAND.format(trace=0),
           "method": "parent exported with git archive and the working "
                     "tree copied into sibling directories of equal path "
                     "length; each pair runs both on one seed, alternating "
                     "which side runs first; medians and quartiles "
                     "(inclusive method) are over the runs' own medians; "
                     "a win is a pair where the change's value is lower",
           "workloads": {}}
    if args.claim:
        workload, _, metric = args.claim.partition(":")
        doc["claimed"] = {"workload": workload, "metric": metric}
    with tempfile.TemporaryDirectory(prefix="bench-") as tmp:
        sides = {side: Path(tmp) / side for side in ("parent", "change")}
        doc["parent_sha"] = export_commit(parent, sides["parent"])
        export_tree(sides["change"])
        for name in WORKLOADS:
            pairs = []
            for i in range(PAIRS):
                seed = args.seed_base + i
                order = ("parent", "change") if i % 2 == 0 \
                    else ("change", "parent")
                pair = {"seed": seed}
                for side in order:
                    print(f"{name} pair {i + 1}/{PAIRS} seed {seed}: "
                          f"{side}", file=sys.stderr)
                    pair[side] = run_once(sides[side], name, seed, 0)
                pairs.append(pair)
            doc["workloads"][name] = summarize(pairs)
            _write(args.out, doc)   # keep finished workloads if cut short
        if traced:
            doc["traced"] = []
        for name in traced:
            entry = {"workload": name, "seed": 7,
                     "command": COMMAND.format(trace=1),
                     "note": "raw seconds, not rescaled"}
            for side, root in sides.items():
                print(f"{name} traced: {side}", file=sys.stderr)
                entry[side] = _traced(run_once(root, name, 7, 1))
            doc["traced"].append(entry)
    _write(args.out, doc)
    return 0


if __name__ == "__main__":
    sys.exit(main())

#!/usr/bin/env python3
"""ca-signals benchmark: time, memory and correctness of each checked claim.

    python3 perfbench/run.py --workload counter --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seconds 30    # every workload
    python3 perfbench/run.py --workload all --smoke         # names and units

It imports ``src/ca_signals`` from the checkout that holds this directory.

One operation is one user-facing check (see ``workloads.py``), run in a
fresh single-threaded Python process; processes run one at a time, so the
benchmark never competes with itself for the machine's cores.  A run starts
operations until the next one would end after ``--seconds``, then starts
set-up-only processes until it holds ``SETUP_SAMPLES`` set-up times.  An
operation fails when its output does not pass its own checks, when its
process exits non-zero, or when the output's SHA-256 is not the pinned one.

With ``--trace 0`` the last stdout line reports the end-to-end metrics, each
the median over the run: ``norm_wall_s`` (the operation call's wall time)
and ``setup_s`` (process start to package imported and automata built),
both rescaled by ``reference.py`` to a steady machine speed, and
``peak_rss_mb`` (the operation process's peak RSS).  With ``--trace 1``
the run alternates an untraced and a traced operation and reports the
per-layer metrics of ``spans.py`` for the traced operation of median traced
time, plus ``trace.overhead_s``: that traced time minus the median untraced
(and unscaled) wall time.
The spans of a traced run are written to ``.perfbench/spans-<workload>.jsonl``.

The line before the result records the run's environment and every
operation.  ``--smoke`` runs each workload once untraced and once traced at
tiny sizes and prints every metric name with its unit; it exists for the
benchmark's own tests, and no reported number comes from it.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from importlib import metadata
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from reference import NOMINAL_S  # noqa: E402
from spans import LAYER_METRICS  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

END_TO_END = {"norm_wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}
SETUP_SAMPLES = 7
RUN_LIMIT_S = 170    # a run, whatever --seconds says, ends within this
CHILD_ENV = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1",
             "MKL_NUM_THREADS": "1"}


class SetupFailed(RuntimeError):
    """A benchmark process could not import the package or build automata."""


def _git_sha(root: Path) -> str:
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root,
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def environment(root: Path) -> dict:
    try:
        numpy = metadata.version("numpy")
    except metadata.PackageNotFoundError:
        numpy = "missing"
    return {"git_sha": _git_sha(root), "nproc": len(os.sched_getaffinity(0)),
            "python": platform.python_version(), "numpy": numpy,
            "child_env": CHILD_ENV, "loadavg_before": os.getloadavg()}


def run_process(root: Path, tmp: Path, workload: str, seed: int, op: int, *,
                deadline: float, smoke: bool, trace: bool = False,
                setup_only: bool = False, spans: Path | None = None) -> dict:
    """Start one benchmark process, wait for it, and return its report.

    A process that dies, or is still running at the ``time.monotonic()``
    reading ``deadline``, yields a report with ``ok`` false; one that fails
    during set-up raises SetupFailed.
    """
    cmd = [sys.executable, str(HERE / "worker.py"), "--root", str(root),
           "--workload", workload, "--seed", str(seed), "--op", str(op),
           "--out", str(tmp / f"op{op}.out")]
    cmd += ["--smoke"] * smoke + ["--trace"] * trace
    cmd += ["--setup-only"] * setup_only
    if spans is not None:
        cmd += ["--spans", str(spans)]
    env = {**os.environ, **CHILD_ENV}
    started = time.monotonic()
    try:
        proc = subprocess.run(cmd + ["--t0", repr(started)], env=env,
                              cwd=root, capture_output=True, text=True,
                              timeout=max(deadline - started, 1.0))
    except subprocess.TimeoutExpired:
        return {"ok": False, "error": "killed at the run's time limit",
                "process_s": time.monotonic() - started}
    process_s = time.monotonic() - started
    if proc.returncode == 2:
        raise SetupFailed(proc.stderr.strip() or "set-up failed")
    lines = proc.stdout.strip().splitlines()
    try:
        rep = json.loads(lines[-1]) if lines else {}
    except json.JSONDecodeError:
        rep = {}
    rep["process_s"] = process_s
    if proc.returncode != 0:
        rep.update(ok=False, error=proc.stderr.strip()[-2000:]
                   or f"exit code {proc.returncode}")
    return rep


def judge(rep: dict, expected: str) -> dict:
    """Mark an operation failed unless it passed and matched the pin."""
    rep["failed"] = not (rep.get("ok") and "wall_s" in rep
                         and rep.get("digest") == expected)
    return rep


def _norm_setup(rep: dict) -> float:
    """Set-up time rescaled to the machine speed of ``reference.py``."""
    return rep["setup_s"] * NOMINAL_S / rep["ref_before_s"]


def run_workload(root: Path, name: str, seed: int, seconds: float, *,
                 trace: bool, smoke: bool = False,
                 expected: str | None = None) -> dict:
    """Run one workload for ``seconds`` and return its result object."""
    wl = WORKLOADS[name]
    if expected is None:
        expected = wl.smoke_digest if smoke else wl.digest
    out_dir = root / ".perfbench"
    out_dir.mkdir(exist_ok=True)
    spans = out_dir / f"spans-{name}.jsonl"
    if trace:
        spans.unlink(missing_ok=True)
    tmp = Path(tempfile.mkdtemp(prefix="tmp-", dir=out_dir))
    ops, plain, traced, setups = [], [], [], []
    start = time.monotonic()
    deadline = start + RUN_LIMIT_S
    try:
        while True:
            if ops:
                # start another operation only if it should end in time
                per_op = statistics.median(r["process_s"] for r in ops)
                per_op *= 2 if trace else 1
                if time.monotonic() - start + per_op > seconds:
                    break
            rep = judge(run_process(root, tmp, name, seed, len(ops),
                                    deadline=deadline, smoke=smoke), expected)
            ops.append(rep)
            plain.append(rep)
            if trace:
                rep = judge(run_process(root, tmp, name, seed, len(ops),
                                        deadline=deadline, smoke=smoke,
                                        trace=True, spans=spans), expected)
                ops.append(rep)
                traced.append(rep)
            if smoke:
                break
        setups = [_norm_setup(r) for r in ops if "setup_s" in r]
        while len(setups) < SETUP_SAMPLES and not (smoke or trace):
            rep = run_process(root, tmp, name, seed, -1, deadline=deadline,
                              smoke=smoke, setup_only=True)
            if "setup_s" not in rep:
                raise SetupFailed(rep.get("error", "set-up process failed"))
            setups.append(_norm_setup(rep))
    finally:
        shutil.rmtree(tmp, ignore_errors=True)

    failed = sum(r["failed"] for r in ops)
    timed = [r for r in plain if "wall_s" in r]
    if not timed or (trace and not any("layers" in r for r in traced)):
        raise SetupFailed(f"no operation of {name} produced a timing")
    if trace:
        # report the median traced operation whole, so that its layer
        # times still add up to its traced time
        layers = sorted((r["layers"] for r in traced if "layers" in r),
                        key=lambda d: d["trace.traced_s"])
        values = dict(layers[(len(layers) - 1) // 2])
        values["trace.overhead_s"] = (
            values["trace.traced_s"]
            - statistics.median(r["wall_s"] for r in timed))
        units = LAYER_METRICS
    else:
        values = {"norm_wall_s": statistics.median(
                      r["wall_s"] * NOMINAL_S * 2
                      / (r["ref_before_s"] + r["ref_after_s"])
                      for r in timed),
                  "setup_s": statistics.median(setups),
                  "peak_rss_mb": statistics.median(
                      r["peak_rss_mb"] for r in timed)}
        units = END_TO_END
    return {
        "correct": failed == 0,
        "attempted": len(ops),
        "failed": failed,
        "metrics": {k: {"value": values[k], "unit": u}
                    for k, u in units.items()},
        "ops": [{k: v for k, v in r.items() if k != "layers"} for r in ops],
        "setup_samples": setups,
    }


def _print_table(results: dict, trace: bool) -> None:
    names = list(LAYER_METRICS if trace else END_TO_END)
    if not trace:
        names += ["wall_s", "failed_ratio"]
    for name, res in results.items():
        print(f"== {name}: {res['attempted']} operations, "
              f"{res['failed']} failed", file=sys.stderr)
        for metric in names:
            if metric == "failed_ratio":
                value, unit = res["failed"] / res["attempted"], "1"
            elif metric == "wall_s":    # before rescaling, for reference
                value, unit = statistics.median(
                    r["wall_s"] for r in res["ops"] if "wall_s" in r), "s"
            else:
                value, unit = (res["metrics"][metric]["value"],
                               res["metrics"][metric]["unit"])
            print(f"   {metric:<28} {value:>16.6g} {unit}", file=sys.stderr)


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=sorted(WORKLOADS) + ["all"])
    ap.add_argument("--seed", type=int, default=7,
                    help="carry-row sample seed of `counter`; the other "
                         "workloads have no random input")
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true",
                    help="tiny sizes, for the benchmark's own tests")
    args = ap.parse_args(argv)

    root = HERE.parent
    if not (root / "src" / "ca_signals" / "__init__.py").is_file():
        print(f"error: no package at {root / 'src' / 'ca_signals'}",
              file=sys.stderr)
        return 2
    names = sorted(WORKLOADS) if args.workload == "all" else [args.workload]
    env = environment(root)
    results = {}
    try:
        for name in names:
            if args.smoke:
                results[name] = run_workload(root, name, args.seed, 0,
                                             trace=False, smoke=True)
                traced = run_workload(root, name, args.seed, 0, trace=True,
                                      smoke=True)
                results[name]["metrics"].update(traced["metrics"])
                results[name]["failed"] += traced["failed"]
                results[name]["attempted"] += traced["attempted"]
            else:
                results[name] = run_workload(root, name, args.seed,
                                             args.seconds,
                                             trace=bool(args.trace))
    except SetupFailed as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    env["loadavg_after"] = os.getloadavg()

    if args.smoke:
        for name, res in results.items():
            print(f"== {name} (smoke: not a measurement)")
            for metric, m in res["metrics"].items():
                print(f"   {metric} {m['unit']}")
        ok = all(r["correct"] for r in results.values())
        print("smoke: all outputs correct" if ok else "smoke: FAILED")
        return 0 if ok else 1

    _print_table(results, bool(args.trace))
    print(json.dumps({"env": env, "workloads": {
        n: {"ops": r["ops"], "setup_samples": r["setup_samples"]}
        for n, r in results.items()}}))
    keys = ("correct", "attempted", "failed", "metrics")
    if len(results) == 1:
        (res,) = results.values()
        print(json.dumps({k: res[k] for k in keys}))
    else:
        print(json.dumps({n: {k: r[k] for k in keys}
                          for n, r in results.items()}))
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Command-line surface.

Subcommands: simulate, render, detect, follow, analyze, verify, search,
rules; ``verify all`` runs every claim of ``verification.CLAIMS`` and the
search.  All outputs are deterministic byte-for-byte for fixed inputs; no
report embeds a timestamp unless --timestamps is passed.  Exit codes:

  0  success (for verify/search: the check passed)
  1  a verification or search check failed
  2  configuration problem (bad arguments, bad files, bad indices)
  3  the site budget ran out (simulate writes the finished slices with a
     "truncated" marker)

The environment variable CA_SIGNALS_MEM_BUDGET overrides the default site
budget; an explicit --budget flag wins over both.  A negative budget, or a
non-integer CA_SIGNALS_MEM_BUDGET, is a configuration problem (exit 2).
"""

from __future__ import annotations

import argparse
import contextlib
import json
import math
import os
import shutil
import stat
import sys
import tempfile
import time
from datetime import datetime, timezone
from itertools import product
from pathlib import Path

from .analysis import (GapReport, check_cap, exact_periods,
                       exhaustive_two_state_search, gap_probe)
from .automaton import (ImpulseCA, RuleTable, builtin_log2, builtin_quiescent,
                        builtin_xy, merged_xy, parse_rules, serialize_rules)
from .engine import (DEFAULT_SITE_BUDGET, DiagonalLetters, diagonal_start,
                     diagram_from_json_obj, json_chunks, run_probes,
                     run_views, w_site)
from .errors import BeyondHorizon, CheckFailed, OverflowHorizon
from .signals import (Follower, FollowProbe, Signal, follower_for_xy,
                      log2_partition, parse_move_partition)
from .verification import (CLAIMS, VerifyReport, verify_basic,
                           verify_bounds, verify_log2, verify_xy)

EXIT_OK = 0
EXIT_FAIL = 1
EXIT_CONFIG = 2
EXIT_OVERFLOW = 3

DISPLAY_QUIESCENT = "."

# Fixed state-to-color map for PPM output: the quiescent state takes the
# first entry, live states the rest in alphabet order (cycling if needed).
PPM_PALETTE = (
    (255, 255, 255),
    (0, 0, 0),
    (230, 25, 75),
    (60, 180, 75),
    (0, 130, 200),
    (245, 130, 48),
    (145, 30, 180),
    (70, 240, 240),
    (240, 50, 230),
    (210, 160, 60),
    (0, 128, 128),
    (170, 110, 40),
    (128, 0, 0),
    (128, 128, 0),
    (0, 0, 128),
    (128, 128, 128),
)


# ---------------------------------------------------------------------------
# shared plumbing


def parse_ca_spec(spec: str) -> ImpulseCA:
    """Resolve 'log2', 'xy:X,Y', 'merged:X,Y', 'quiescent' or 'file:PATH'."""
    if spec == "log2":
        return builtin_log2()
    if spec == "quiescent":
        return builtin_quiescent()
    for prefix, builder in (("xy:", builtin_xy), ("merged:", merged_xy)):
        if spec.startswith(prefix):
            x, y = _two_ints(spec[len(prefix):])
            return builder(x, y)
    if spec.startswith("file:"):
        path = Path(spec[5:])
        return parse_rules(path.read_text(encoding="utf-8"))
    raise ValueError(
        f"unknown CA spec {spec!r}; expected log2, xy:X,Y, merged:X,Y, "
        "quiescent or file:PATH")


def _two_ints(text: str) -> tuple[int, int]:
    parts = text.split(",")
    if len(parts) != 2:
        raise ValueError(f"expected two comma-separated integers, got {text!r}")
    return int(parts[0]), int(parts[1])


def _site_budget(args) -> int:
    source, value = "--budget", getattr(args, "budget", None)
    if value is None:
        source = "CA_SIGNALS_MEM_BUDGET"
        value = os.environ.get(source, DEFAULT_SITE_BUDGET)
    try:
        budget = int(value)
    except ValueError:
        raise ValueError(
            f"{source} must be an integer, got {value!r}") from None
    if budget < 0:
        raise ValueError(f"{source} must be >= 0, got {budget}")
    return budget


def _dump(obj, args) -> str:
    if getattr(args, "timestamps", False) and isinstance(obj, dict):
        obj = {**obj, "generated_at": datetime.now(timezone.utc).isoformat()}
    return json.dumps(obj, ensure_ascii=False, separators=(",", ":")) + "\n"


def _emit(content, out: str | None) -> None:
    """Write an iterable of chunks to the file ``out``, or to stdout: text,
    or a binary file (a spool) whose UTF-8 bytes from its position on are
    copied into the stream's binary buffer."""
    with (Path(out).open("w", encoding="utf-8") if out
          else contextlib.nullcontext(sys.stdout)) as fh:
        for chunk in content:
            if isinstance(chunk, str):
                fh.write(chunk)
            elif hasattr(fh, "buffer"):
                fh.flush()
                shutil.copyfileobj(chunk, fh.buffer)
            else:   # a stand-in stdout, such as io.StringIO, takes text only
                fh.write(chunk.read().decode("utf-8"))


def _render_source(args, last: int | None = None):
    """The diagram to render as (ca, horizon, feed): ``feed(probe)`` passes
    the probe every slice 0..horizon, replayed from --in when given,
    otherwise streamed from a fresh run of --ca (to slice ``last`` without
    --steps) that retains no slice and stops at slice ``last``."""
    ca = parse_ca_spec(args.ca)
    if args.infile:
        obj = json.loads(Path(args.infile).read_text(encoding="utf-8"))
        diag = diagram_from_json_obj(ca, obj)
        return ca, diag.horizon, lambda probe: diag.replay(probe,
                                                           diag.horizon + 1)
    steps = args.steps if args.steps is not None else last
    if steps is None:
        raise ValueError("need either --in FILE or --steps N")
    budget = _site_budget(args)
    stop = steps if last is None else min(steps, max(last, 0))
    return ca, steps, lambda probe: run_probes(ca, stop, [probe],
                                               budget=budget)


# ---------------------------------------------------------------------------
# simulate


def _check_out(out: str | None) -> None:
    """Fail now on an ``out`` that opening with "w" would refuse at the end."""
    if out and not os.path.exists(out):
        parent = os.path.dirname(os.path.realpath(out))
        if not (os.path.isdir(parent) and os.access(parent, os.W_OK)):
            raise OSError(f"cannot create {out}: {parent} is not a writable "
                          "directory")
    elif out and not stat.S_ISFIFO(os.stat(out).st_mode):  # a FIFO would wait
        open(out, "a").close()


def _emit_spool(spool, head: str, tail: str, out: str | None) -> None:
    """Write head, the bytes spooled so far and tail through ``_emit``."""
    spool.seek(0)
    _emit((head, spool, tail), out)


def cmd_simulate(args) -> int:
    ca, budget = parse_ca_spec(args.ca), _site_budget(args)
    _check_out(args.out)
    # slices are spooled as they are stepped and written only once the run
    # has ended, so a failed run writes nothing
    with tempfile.TemporaryFile() as spool:
        try:
            spool.writelines(map(str.encode, json_chunks(ca, run_views(
                ca, args.steps, budget=budget, check=args.check,
                dense=args.dense))))
        except OverflowHorizon as exc:
            # _dump writes the wrapper's bytes; the slices replace its null
            head, tail = _dump({"truncated": True, "budget": exc.budget,
                                "slices": None}, args).split("null", 1)
            _emit_spool(spool, head + "[", "]" + tail, args.out)
            raise
        _emit_spool(spool, "[", "]\n", args.out)
    return EXIT_OK


# ---------------------------------------------------------------------------
# render


class _KeepSlice:
    """Keeps the view of slice t; a streamed view never shares its arrays
    with the stepper, so it stays valid after the run moves on."""

    def __init__(self, t: int):
        self.t, self.view = t, None

    def observe(self, view):
        if view.t == self.t:
            self.view = view


def _slice_text(view) -> str:
    ca, t = view.ca, view.t
    cells = dict(view.cells())
    width = max([len(s) for s in cells.values()] + [1])
    sep = " " if width > 1 else ""

    def glyph(cell) -> str:
        return cells.get(cell, DISPLAY_QUIESCENT).rjust(width)

    if ca.dim == 1:
        return sep.join(glyph((a,)) for a in range(-t, t + 1)) + "\n"
    if ca.dim != 2:
        raise ValueError(f"slice rendering supports 1 or 2 dimensions, CA has {ca.dim}")
    return "".join(sep.join(glyph((a, b)) for b in range(-t, t + 1)) + "\n"
                   for a in range(-t, t + 1))


class _PPMFrames:
    """Writes each slice as a PPM frame of side 2*half+1 as it arrives; the
    directory and its palette are made with the first frame."""

    def __init__(self, ca: ImpulseCA, half: int, out_dir: str):
        states = ca.states
        self.colors = {states[0]: PPM_PALETTE[0]}
        for j, s in enumerate(states[1:]):
            self.colors[s] = PPM_PALETTE[1 + j % (len(PPM_PALETTE) - 1)]
        self.quiet = bytes(self.colors[ca.quiescent])
        self.half, self.dir = half, Path(out_dir)

    def observe(self, view):
        if view.t == 0:
            self.dir.mkdir(parents=True, exist_ok=True)
            (self.dir / "palette.json").write_text(
                json.dumps({s: list(c) for s, c in self.colors.items()},
                           ensure_ascii=False, separators=(",", ":")) + "\n",
                encoding="utf-8")
        half, side = self.half, 2 * self.half + 1
        grid = bytearray(self.quiet * (side * side))
        for (a, b), s in view.cells():
            idx = 3 * ((a + half) * side + (b + half))
            grid[idx:idx + 3] = bytes(self.colors[s])
        (self.dir / f"slice_{view.t:04d}.ppm").write_bytes(
            f"P6\n{side} {side}\n255\n".encode() + bytes(grid))


def cmd_render(args) -> int:
    if args.mode == "slice":
        if args.t is None:
            raise ValueError("--mode slice needs --t")
        _ca, horizon, feed = _render_source(args, args.t)
        keep = _KeepSlice(args.t)
        feed(keep)
        if keep.view is None:
            raise BeyondHorizon(
                f"t={args.t} outside simulated range 0..{horizon}")
        _emit((_slice_text(keep.view),), args.out)
        return EXIT_OK
    if args.mode == "ppm":
        if not args.out_dir:
            raise ValueError("--mode ppm needs --out-dir")
        ca, horizon, feed = _render_source(args)
        if ca.dim != 2:
            raise ValueError("ppm rendering is two-dimensional only")
        feed(_PPMFrames(ca, horizon, args.out_dir))
        side = 2 * horizon + 1
        manifest = {"frames": horizon + 1, "size": [side, side],
                    "palette": "palette.json"}
        _emit((_dump(manifest, args),), None)
        return EXIT_OK
    if args.mode == "wplane":
        if args.k is None:
            raise ValueError("--mode wplane needs --k")
        for flag, value, low in (("--k", args.k, 0), ("--rows", args.rows, 1),
                                 ("--width", args.width, 1)):
            if value is not None and value < low:
                raise ValueError(f"{flag} must be >= {low}, got {value}")
        width = args.width
        if width is None:
            width = max(8, (args.k + 1).bit_length() + 2)
        needed = args.k + (width - 1) + (args.rows - 1)
        ca, _, feed = _render_source(args, needed)
        if ca.dim != 2:
            raise ValueError("the sheared plane is defined for 2-D trellis runs")
        sites = [[w_site(args.k, l, i) for i in range(width)]
                 for l in range(args.rows)]
        letters = DiagonalLetters(d for row in sites for d, _ in row)
        feed(letters)
        rows = letters.spell(sites)
        wide = max(len(s) for row in rows for s in row)
        sep = " " if wide > 1 else ""
        _emit(("".join(sep.join(
            (DISPLAY_QUIESCENT if s == ca.quiescent else s).rjust(wide)
            for s in row) + "\n" for row in rows),), args.out)
        return EXIT_OK
    raise ValueError(f"unknown render mode {args.mode!r}")


# ---------------------------------------------------------------------------
# detect / follow


def _detected_walk(args) -> Signal:
    """Streamed walk of --ca under --partition (log2's own by default)."""
    ca = parse_ca_spec(args.ca)
    if args.partition:
        part = parse_move_partition(args.partition, ca.dim)
    elif ca.name == "log2":
        part = log2_partition()
    else:
        raise ValueError("--partition is required for this CA")
    probe = FollowProbe(ca, part.follower(ca), args.steps)
    run_probes(ca, args.steps, [probe], budget=_site_budget(args))
    return probe.trace().signal


def cmd_detect(args) -> int:
    _emit((_detected_walk(args).dumps(), "\n"), args.out)
    return EXIT_OK


def _default_follower(ca: ImpulseCA) -> Follower:
    name = ca.name
    for prefix in ("xy:", "merged:"):
        if name.startswith(prefix):
            x, y = _two_ints(name[len(prefix):])
            return follower_for_xy(x, y, alphabet=ca.states)
    raise ValueError("--follower FILE is required for this CA")


def cmd_follow(args) -> int:
    ca = parse_ca_spec(args.ca)
    if args.follower:
        obj = json.loads(Path(args.follower).read_text(encoding="utf-8"))
        fol = Follower.from_json_obj(obj)
    else:
        fol = _default_follower(ca)
    probe = FollowProbe(ca, fol, args.steps)
    run_probes(ca, args.steps, [probe], budget=_site_budget(args))
    tr = probe.trace()
    if args.trace:
        obj = {"signal": tr.signal.to_json_obj(),
               "states": list(tr.automaton_states),
               "defaulted_hits": [list(kv) for kv in tr.defaulted_hits]}
        _emit((_dump(obj, args),), args.out)
    else:
        _emit((tr.signal.dumps(), "\n"), args.out)
    return EXIT_OK


# ---------------------------------------------------------------------------
# analyze


def _ca_and_point(args) -> tuple[ImpulseCA, tuple[int, ...]]:
    """--ca and the lattice point --i, written "1,2" or "(1,2)"."""
    ca = parse_ca_spec(args.ca)
    inner = args.i.strip()
    if inner.startswith("(") and inner.endswith(")"):
        inner = inner[1:-1]
    i = tuple(int(p) for p in inner.split(","))
    if len(i) != ca.dim:
        raise ValueError(f"point {i} has {len(i)} coordinates, CA has {ca.dim}")
    return ca, i


def cmd_analyze_diagonal(args) -> int:
    ca, i = _ca_and_point(args)
    if args.length < 1:
        raise ValueError(f"length must be >= 1, got {args.length}")
    start = diagonal_start(i)
    if min(i) < 0:
        # every cell t*1bar - i lies off the light cone: nothing to step
        word = [ca.quiescent] * args.length
    else:
        letters = DiagonalLetters([i])
        run_probes(ca, start + args.length - 1, [letters],
                   budget=_site_budget(args))
        word = [ca.states[c] for c in letters.held[start:, 0].tolist()]
    _emit((_dump({"i": list(i), "start": start, "letters": word}, args),),
          args.out)
    return EXIT_OK


def cmd_analyze_period(args) -> int:
    ca, i = _ca_and_point(args)
    budget, start = _site_budget(args), diagonal_start(i)
    check_cap(math.prod(max(a + 1, 0) for a in i), args.horizon, budget,
              "horizon")
    obj = {"i": list(i), "start": start, "horizon": args.horizon,
           "decomposed": False}
    # the box {j : 0 <= j <= i} is closed under the update, and i is its
    # last point; with a negative coordinate the word is quiescent (code 0)
    found = (exact_periods(ca, product(*(range(a + 1) for a in i)),
                           args.horizon, budget=budget)
             if min(i) >= 0 else ([(0, 1)], [[0]], 0))
    if found is not None:
        # from row mu on the rows repeat, and a diagonal may start past them
        lens, held, mu = found
        (p, q), lam = lens[-1], len(held) - mu
        word = [ca.states[held[t if t < len(held) else
                               mu + (t - mu) % lam][-1]]
                for t in range(start, start + p + q)]
        obj.update(decomposed=True, alpha="".join(word[:p]),
                   beta="".join(word[p:]), preperiod=p, period=q)
    _emit((_dump(obj, args),), args.out)
    return EXIT_OK


def _gap_json(rep: GapReport) -> dict:
    # Rationals and measured ratios travel as strings: the CLI boundary
    # carries no JSON floats.
    return {
        "classification": rep.classification,
        "horizon": rep.horizon,
        "samples": len(rep.samples),
        "constant_value": rep.constant_value,
        "c_observed": None if rep.c_observed is None else repr(rep.c_observed),
        "fitted_C": None if rep.fitted_C is None else str(rep.fitted_C),
        "late_early_ratio": (None if rep.late_early_ratio is None
                             else repr(rep.late_early_ratio)),
    }


def cmd_analyze_gap(args) -> int:
    if bool(args.signal) == bool(args.ca):
        raise ValueError("need exactly one of --signal FILE or --ca SPEC")
    if args.signal:
        obj = json.loads(Path(args.signal).read_text(encoding="utf-8"))
        sig = Signal.from_json_obj(obj)
    else:
        sig = _detected_walk(args)
    rep = gap_probe(sig)
    _emit((_dump(_gap_json(rep), args),), args.out)
    return EXIT_OK


# ---------------------------------------------------------------------------
# verify / search


def _emit_verify(rep: VerifyReport, args) -> int:
    print(*rep.lines(), sep="\n", file=sys.stderr)
    _emit((_dump(rep.to_json_obj(), args),), args.out)
    return EXIT_OK if rep.ok else EXIT_FAIL


def _search_obj(rep) -> dict:
    return {"total": rep.total_candidates, "passing": rep.passing,
            "witnesses": list(rep.witnesses),
            "checked_sites": rep.checked_sites, "digest": rep.digest}


def _verify_all(args, budget: int) -> int:
    """Every row of ``CLAIMS``, then the search: each stage's lines and
    seconds go to stderr, and one object of their reports to stdout."""
    obj, failed = {}, False
    for name, check, kwargs in (*CLAIMS, ("search", None, None)):
        start = time.perf_counter()
        if check is None:
            rep = exhaustive_two_state_search()
            ok, obj[name] = rep.passing == 0, _search_obj(rep)
            print(f"[{'PASS' if ok else 'FAIL'}] search/empty: "
                  f"{rep.total_candidates} candidates, {rep.passing} "
                  f"passing, digest {rep.digest[:16]}...", file=sys.stderr)
        else:
            rep = check(**kwargs, budget=budget)
            ok, obj[name] = rep.ok, rep.to_json_obj()
            print(*rep.lines(), sep="\n", file=sys.stderr)
        print(f"-- {name}: {'ok' if ok else 'FAILED'} "
              f"({time.perf_counter() - start:.1f}s)", file=sys.stderr)
        failed = failed or not ok
    obj["ok"] = not failed
    _emit((_dump(obj, args),), args.out)
    return EXIT_FAIL if failed else EXIT_OK


def cmd_verify(args) -> int:
    budget = _site_budget(args)
    if args.target == "all":
        return _verify_all(args, budget)
    if args.target == "log2":
        rep = verify_log2(args.steps, budget=budget)
    elif args.target == "xy":
        if args.x is None or args.y is None:
            raise ValueError("verify xy needs --x and --y")
        rep = verify_xy(args.x, args.y, args.steps, budget=budget)
    elif args.target == "bounds":
        rep = verify_bounds(args.rmax, args.window, budget=budget)
    else:
        rep = verify_basic(args.count, budget=budget)
    return _emit_verify(rep, args)


def cmd_search(args) -> int:
    rep = exhaustive_two_state_search()
    _emit((_dump(_search_obj(rep), args),), args.out)
    return EXIT_OK if rep.passing == 0 else EXIT_FAIL


# ---------------------------------------------------------------------------
# rules


def cmd_rules(args) -> int:
    if args.action == "check":
        ca = parse_ca_spec(f"file:{args.path}")
        obj = {"ok": True, "name": ca.name, "states": len(ca.states),
               "rules": len(ca.table.rules), "dim": ca.dim,
               "neighborhood": ca.neighborhood.kind}
        _emit((_dump(obj, args),), args.out)
        return EXIT_OK
    if args.action == "print":
        ca = parse_ca_spec(args.ca)
        if not isinstance(ca.table, RuleTable):
            raise ValueError("this CA has no explicit rule list to print")
        _emit((serialize_rules(ca),), args.out)
        return EXIT_OK
    raise ValueError(f"unknown rules action {args.action!r}")


# ---------------------------------------------------------------------------
# parser wiring


def _add_out(p: argparse.ArgumentParser) -> None:
    p.add_argument("--out", help="write the result to this file instead of stdout")
    p.add_argument("--timestamps", action="store_true",
                   help="embed a generation timestamp in object-shaped reports")


def _add_budget(p: argparse.ArgumentParser) -> None:
    p.add_argument("--budget", type=int,
                   help="site budget override (default: CA_SIGNALS_MEM_BUDGET or built-in)")


def _add_ca(p: argparse.ArgumentParser, required: bool = True) -> None:
    p.add_argument("--ca", required=required,
                   help="log2 | xy:X,Y | merged:X,Y | quiescent | file:PATH")


def build_parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(
        prog="ca-signals",
        description="simulate impulse cellular automata and verify their signals")
    sub = top.add_subparsers(dest="command", required=True)

    p = sub.add_parser("simulate", help="run a CA and dump the diagram as JSON")
    _add_ca(p)
    p.add_argument("--steps", type=int, required=True)
    p.add_argument("--dense", action="store_true",
                   help="use the dense reference engine")
    p.add_argument("--check", action="store_true",
                   help="check that every live cell of each slice lies in the "
                        "light cone and, for trellis automata, in the parity "
                        "class of its time (exit 1 if not)")
    _add_budget(p)
    _add_out(p)
    p.set_defaults(fn=cmd_simulate)

    p = sub.add_parser("render", help="draw a diagram as text or PPM images")
    _add_ca(p)
    p.add_argument("--mode", choices=("slice", "ppm", "wplane"), required=True)
    p.add_argument("--in", dest="infile", help="diagram JSON produced by simulate")
    p.add_argument("--steps", type=int, help="simulate this many steps when no --in")
    p.add_argument("--t", type=int, help="slice mode: time of the slice")
    p.add_argument("--k", type=int, help="wplane mode: row family index")
    p.add_argument("--rows", type=int, default=4, help="wplane mode: rows to draw")
    p.add_argument("--width", type=int, help="wplane mode: letters per row")
    p.add_argument("--out-dir", help="ppm mode: directory for frames and palette")
    _add_budget(p)
    _add_out(p)
    p.set_defaults(fn=cmd_render)

    p = sub.add_parser("detect", help="walk a diagram under a move partition")
    _add_ca(p)
    p.add_argument("--steps", type=int, required=True)
    p.add_argument("--partition",
                   help="'sym:(dx,dy);...' (default: the built-in log2 partition)")
    _add_budget(p)
    _add_out(p)
    p.set_defaults(fn=cmd_detect)

    p = sub.add_parser("follow", help="run a finite-state follower over a diagram")
    _add_ca(p)
    p.add_argument("--steps", type=int, required=True)
    p.add_argument("--follower", help="follower JSON file (default: the CA's own)")
    p.add_argument("--trace", action="store_true",
                   help="include follower states and defaulted reads")
    _add_budget(p)
    _add_out(p)
    p.set_defaults(fn=cmd_follow)

    pa = sub.add_parser("analyze", help="diagonal words, periods, gap growth")
    asub = pa.add_subparsers(dest="what", required=True)

    p = asub.add_parser("diagonal", help="extract one diagonal word")
    _add_ca(p, required=False)
    p.set_defaults(ca="log2")
    p.add_argument("--i", required=True, help="lattice point, e.g. 0,0 or -1,0")
    p.add_argument("--length", type=int, default=16)
    _add_budget(p)
    _add_out(p)
    p.set_defaults(fn=cmd_analyze_diagonal)

    p = asub.add_parser("period", help="exact eventual-period decomposition of a diagonal")
    _add_ca(p, required=False)
    p.set_defaults(ca="log2")
    p.add_argument("--i", required=True)
    p.add_argument("--horizon", type=int, default=4096,
                   help="cap on the steps to the first repeat of the box "
                        "of diagonals 0 <= j <= i")
    _add_budget(p)
    _add_out(p)
    p.set_defaults(fn=cmd_analyze_period)

    p = asub.add_parser("gap", help="classify the trailing-gap growth of a signal")
    p.add_argument("--signal", help="signal JSON file")
    _add_ca(p, required=False)
    p.add_argument("--steps", type=int, default=256)
    p.add_argument("--partition")
    _add_budget(p)
    _add_out(p)
    p.set_defaults(fn=cmd_analyze_gap)

    p = sub.add_parser("verify", help="run one machine-checked claim end to "
                                      "end, or all of them at their shipped sizes")
    p.add_argument("target", choices=("log2", "xy", "bounds", "basic", "all"))
    p.add_argument("--steps", type=int, default=2048)
    p.add_argument("--x", type=int)
    p.add_argument("--y", type=int)
    p.add_argument("--rmax", type=int, default=6)
    p.add_argument("--window", type=int, default=4096)
    p.add_argument("--count", type=int, default=50)
    _add_budget(p)
    _add_out(p)
    p.set_defaults(fn=cmd_verify)

    p = sub.add_parser("search", help="exhaust the two-state trellis rule space")
    _add_out(p)
    p.set_defaults(fn=cmd_search)

    p = sub.add_parser("rules", help="check or print rule files")
    rsub = p.add_subparsers(dest="action", required=True)
    pc = rsub.add_parser("check", help="validate a rule file")
    pc.add_argument("path")
    _add_out(pc)
    pc.set_defaults(fn=cmd_rules, action="check")
    pp = rsub.add_parser("print", help="serialize a CA as rule-file text")
    _add_ca(pp)
    _add_out(pp)
    pp.set_defaults(fn=cmd_rules, action="print")

    return top


def _join_option_values(argv: list[str]) -> list[str]:
    """Glue values like '-1,0' onto their flag so argparse does not eat them."""
    out = []
    i = 0
    while i < len(argv):
        tok = argv[i]
        if tok == "--i" and i + 1 < len(argv) and argv[i + 1].startswith("-"):
            out.append(tok + "=" + argv[i + 1])
            i += 2
            continue
        out.append(tok)
        i += 1
    return out


def main(argv: list[str] | None = None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    args = build_parser().parse_args(_join_option_values(list(argv)))
    try:
        return args.fn(args)
    except OverflowHorizon as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_OVERFLOW
    except CheckFailed as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_FAIL
    except (ValueError, LookupError, IndexError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())

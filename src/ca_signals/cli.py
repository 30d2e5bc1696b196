"""Command-line surface.

Subcommands: simulate, render, detect, follow, analyze, verify, search,
rules.  All outputs are deterministic byte-for-byte for fixed inputs; no
report embeds a timestamp unless --timestamps is passed.  Exit codes:

  0  success (for verify/search: the check passed)
  1  a verification or search check failed
  2  configuration problem (bad arguments, bad files, bad indices)
  3  the site budget ran out (simulate retains partial output with a
     "truncated" marker)

The environment variable CA_SIGNALS_MEM_BUDGET overrides the default site
budget; an explicit --budget flag wins over both.  A negative budget, or a
non-integer CA_SIGNALS_MEM_BUDGET, is a configuration problem (exit 2).
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from datetime import datetime, timezone
from itertools import chain
from pathlib import Path

from .analysis import (GapReport, NotPeriodicWithin, exhaustive_two_state_search,
                       gap_probe, ultimate_period)
from .automaton import (ImpulseCA, RuleTable, builtin_log2, builtin_quiescent,
                        builtin_xy, merged_xy, parse_rules, serialize_rules)
from .engine import (DEFAULT_SITE_BUDGET, DiagonalProbe, ReadSchedule,
                     SpaceTimeDiagram, dense_run, diagram_from_json_obj, run,
                     run_probes, w_site)
from .errors import CheckFailed, OverflowHorizon
from .signals import (DetectProbe, Follower, FollowProbe, MoveConvention,
                      Signal, follower_for_xy, log2_partition,
                      parse_move_partition)
from .verification import (VerifyReport, verify_basic, verify_bounds,
                           verify_log2, verify_xy)

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


def _parse_point(text: str) -> tuple[int, ...]:
    inner = text.strip()
    if inner.startswith("(") and inner.endswith(")"):
        inner = inner[1:-1]
    return tuple(int(p) for p in inner.split(","))


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


def _convention(args) -> MoveConvention:
    return (MoveConvention.AS_WRITTEN if args.convention == "aswritten"
            else MoveConvention.NEGATED)


def _dump(obj, args) -> str:
    if getattr(args, "timestamps", False) and isinstance(obj, dict):
        obj = {**obj, "generated_at": datetime.now(timezone.utc).isoformat()}
    return json.dumps(obj, ensure_ascii=False, separators=(",", ":")) + "\n"


def _emit(content, out: str | None) -> None:
    """Write an iterable of text chunks to the file ``out``, or to stdout."""
    if out:
        with Path(out).open("w", encoding="utf-8") as fh:
            fh.writelines(content)
    else:
        sys.stdout.writelines(content)


def _load_diagram(args, fallback_steps: int | None = None) -> SpaceTimeDiagram:
    """Diagram from --in when given, otherwise a fresh run of --ca."""
    ca = parse_ca_spec(args.ca)
    if getattr(args, "infile", None):
        obj = json.loads(Path(args.infile).read_text(encoding="utf-8"))
        return diagram_from_json_obj(ca, obj)
    steps = getattr(args, "steps", None)
    if steps is None:
        steps = fallback_steps
    if steps is None:
        raise ValueError("need either --in FILE or --steps N")
    return run(ca, steps, budget=_site_budget(args))


# ---------------------------------------------------------------------------
# simulate


def cmd_simulate(args) -> int:
    ca = parse_ca_spec(args.ca)
    runner = dense_run if args.dense else run
    kwargs = {"check": True} if (args.check and not args.dense) else {}
    try:
        diag = runner(ca, args.steps, budget=_site_budget(args), **kwargs)
    except OverflowHorizon as exc:
        partial = getattr(exc, "partial", None)
        if partial is not None:
            # _dump writes the wrapper's bytes; the slices replace its null
            head, tail = _dump({"truncated": True, "budget": exc.budget,
                                "slices": None}, args).split("null", 1)
            _emit(chain((head,), partial.json_chunks(), (tail,)), args.out)
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_OVERFLOW
    _emit(chain(diag.json_chunks(), ("\n",)), args.out)
    return EXIT_OK


# ---------------------------------------------------------------------------
# render


def _slice_text(diag: SpaceTimeDiagram, t: int) -> str:
    ca = diag.ca
    cells = dict(diag.view(t).cells())
    width = max([len(s) for s in cells.values()] + [1])
    sep = " " if width > 1 else ""

    def glyph(cell) -> str:
        return cells.get(cell, DISPLAY_QUIESCENT).rjust(width)

    if ca.dim == 1:
        return sep.join(glyph((a,)) for a in range(-t, t + 1)) + "\n"
    if ca.dim != 2:
        raise ValueError(f"slice rendering supports 1 or 2 dimensions, CA has {ca.dim}")
    lines = []
    for a in range(-t, t + 1):
        lines.append(sep.join(glyph((a, b)) for b in range(-t, t + 1)))
    return "\n".join(lines) + "\n"


def _ppm_bytes(diag: SpaceTimeDiagram, t: int, colors: dict[str, tuple]) -> bytes:
    half = diag.horizon
    side = 2 * half + 1
    quiet = bytes(colors[diag.ca.quiescent])
    grid = bytearray(quiet * (side * side))
    for (a, b), s in diag.view(t).cells():
        idx = 3 * ((a + half) * side + (b + half))
        grid[idx:idx + 3] = bytes(colors[s])
    return f"P6\n{side} {side}\n255\n".encode() + bytes(grid)


def _render_ppm(diag: SpaceTimeDiagram, out_dir: str, args) -> int:
    if diag.ca.dim != 2:
        raise ValueError("ppm rendering is two-dimensional only")
    states = diag.ca.states
    colors = {states[0]: PPM_PALETTE[0]}
    for j, s in enumerate(states[1:]):
        colors[s] = PPM_PALETTE[1 + j % (len(PPM_PALETTE) - 1)]
    d = Path(out_dir)
    d.mkdir(parents=True, exist_ok=True)
    (d / "palette.json").write_text(
        json.dumps({s: list(c) for s, c in colors.items()},
                   ensure_ascii=False, separators=(",", ":")) + "\n",
        encoding="utf-8")
    for t in range(diag.horizon + 1):
        (d / f"slice_{t:04d}.ppm").write_bytes(_ppm_bytes(diag, t, colors))
    side = 2 * diag.horizon + 1
    manifest = {"frames": diag.horizon + 1, "size": [side, side],
                "palette": "palette.json"}
    _emit((_dump(manifest, args),), None)
    return EXIT_OK


def _wplane_text(diag: SpaceTimeDiagram, k: int, rows: int, width: int) -> str:
    if diag.ca.dim != 2:
        raise ValueError("the sheared plane is defined for 2-D trellis runs")
    lam = diag.ca.quiescent
    reads = ReadSchedule([[w_site(k, l, i) for i in range(width)]
                          for l in range(rows)])
    table = diag.replay(reads, k + width + rows - 1).rows
    wide = max(len(s) for row in table for s in row)
    sep = " " if wide > 1 else ""
    lines = []
    for row in table:
        lines.append(sep.join(
            (DISPLAY_QUIESCENT if s == lam else s).rjust(wide) for s in row))
    return "\n".join(lines) + "\n"


def cmd_render(args) -> int:
    if args.mode == "slice":
        if args.t is None:
            raise ValueError("--mode slice needs --t")
        diag = _load_diagram(args, fallback_steps=args.t)
        text = _slice_text(diag, args.t)
        _emit((text,), args.out)
        return EXIT_OK
    if args.mode == "ppm":
        if not args.out_dir:
            raise ValueError("--mode ppm needs --out-dir")
        diag = _load_diagram(args)
        return _render_ppm(diag, args.out_dir, args)
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
        diag = _load_diagram(args, fallback_steps=needed)
        text = _wplane_text(diag, args.k, args.rows, width)
        _emit((text,), args.out)
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
    probe = DetectProbe(ca, part, args.steps, _convention(args))
    run_probes(ca, args.steps, [probe], budget=_site_budget(args))
    return probe.signal()


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
    probe = FollowProbe(ca, fol, args.steps, _convention(args))
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


def _collect_diagonal(args, length: int) -> tuple[ImpulseCA, DiagonalProbe]:
    ca = parse_ca_spec(args.ca)
    i = _parse_point(args.i)
    if len(i) != ca.dim:
        raise ValueError(f"point {i} has {len(i)} coordinates, CA has {ca.dim}")
    probe = DiagonalProbe(i, length)
    steps = 0 if probe.skip else probe.start + length - 1
    run_probes(ca, steps, [probe], budget=_site_budget(args))
    return ca, probe


def cmd_analyze_diagonal(args) -> int:
    ca, probe = _collect_diagonal(args, args.length)
    word = probe.word(ca.quiescent)
    obj = {"i": list(probe.i), "start": probe.start, "letters": list(word)}
    _emit((_dump(obj, args),), args.out)
    return EXIT_OK


def cmd_analyze_period(args) -> int:
    ca, probe = _collect_diagonal(args, args.horizon)
    word = probe.word(ca.quiescent)
    res = ultimate_period(word)
    obj: dict = {"i": list(probe.i), "start": probe.start,
                 "horizon": args.horizon}
    if isinstance(res, NotPeriodicWithin):
        obj["decomposed"] = False
    else:
        obj.update(decomposed=True, alpha="".join(res.alpha),
                   beta="".join(res.beta), preperiod=len(res.alpha),
                   period=len(res.beta))
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
    for line in rep.lines():
        print(line, file=sys.stderr)
    _emit((_dump(rep.to_json_obj(), args),), args.out)
    return EXIT_OK if rep.ok else EXIT_FAIL


def cmd_verify(args) -> int:
    budget = _site_budget(args)
    if args.target == "log2":
        rep = verify_log2(args.steps, budget=budget)
    elif args.target == "xy":
        if args.x is None or args.y is None:
            raise ValueError("verify xy needs --x and --y")
        rep = verify_xy(args.x, args.y, args.steps, budget=budget)
    elif args.target == "bounds":
        rep = verify_bounds(args.rmax, args.window, budget=budget)
    elif args.target == "basic":
        rep = verify_basic(args.count, budget=budget)
    else:
        raise ValueError(f"unknown verify target {args.target!r}")
    return _emit_verify(rep, args)


def cmd_search(args) -> int:
    rep = exhaustive_two_state_search(limit=args.limit)
    obj = {"total": rep.total_candidates, "passing": rep.passing,
           "witnesses": list(rep.witnesses),
           "checked_sites": rep.checked_sites, "digest": rep.digest}
    _emit((_dump(obj, args),), args.out)
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


def _add_convention(p: argparse.ArgumentParser) -> None:
    p.add_argument("--convention", choices=("negated", "aswritten"),
                   default="negated",
                   help="how a state's move acts on the site (default: negated)")


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
    _add_convention(p)
    _add_budget(p)
    _add_out(p)
    p.set_defaults(fn=cmd_detect)

    p = sub.add_parser("follow", help="run a finite-state follower over a diagram")
    _add_ca(p)
    p.add_argument("--steps", type=int, required=True)
    p.add_argument("--follower", help="follower JSON file (default: the CA's own)")
    p.add_argument("--trace", action="store_true",
                   help="include follower states and defaulted reads")
    _add_convention(p)
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

    p = asub.add_parser("period", help="eventual-period decomposition of a diagonal")
    _add_ca(p, required=False)
    p.set_defaults(ca="log2")
    p.add_argument("--i", required=True)
    p.add_argument("--horizon", type=int, default=64)
    _add_budget(p)
    _add_out(p)
    p.set_defaults(fn=cmd_analyze_period)

    p = asub.add_parser("gap", help="classify the trailing-gap growth of a signal")
    p.add_argument("--signal", help="signal JSON file")
    _add_ca(p, required=False)
    p.add_argument("--steps", type=int, default=256)
    p.add_argument("--partition")
    _add_convention(p)
    _add_budget(p)
    _add_out(p)
    p.set_defaults(fn=cmd_analyze_gap)

    p = sub.add_parser("verify", help="run one machine-checked claim end to end")
    p.add_argument("target", choices=("log2", "xy", "bounds", "basic"))
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
    p.add_argument("--limit", type=int, help="debug subset size")
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

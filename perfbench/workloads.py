"""The benchmark's workloads: one user-facing check each, at a fixed size.

Each workload names the automata its set-up builds, the call that is its
one operation, and the SHA-256 its output must have.  Sizes are part of the
benchmark's contract and stay the same on every commit; the smoke sizes
exist only for the benchmark's own tests.

This module imports ``ca_signals`` lazily, so the parent process (which
never runs an operation) does not pay for numpy.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path
from typing import Callable


@dataclass(frozen=True)
class Workload:
    name: str
    size: dict          # full-size parameters
    smoke: dict         # tiny parameters, for the benchmark's own tests
    digest: str         # SHA-256 of the output at ``size``
    smoke_digest: str   # SHA-256 of the output at ``smoke``
    build: Callable[[dict], object]
    call: Callable[[dict, int, Path], object]
    output: Callable[[object, Path], tuple[bool, bytes]]


def _report_output(rep, _out: Path) -> tuple[bool, bytes]:
    """A verify report passes when ``ok``; its canonical JSON is hashed."""
    text = json.dumps(rep.to_json_obj(), sort_keys=True, ensure_ascii=False,
                      separators=(",", ":"))
    return rep.ok, text.encode("utf-8")


def _dump_output(rc, out: Path) -> tuple[bool, bytes]:
    """A dump passes when the CLI exits 0; the written file is hashed."""
    return rc == 0, out.read_bytes() if out.exists() else b""


def _build_log2(_p):
    from ca_signals import automaton
    return automaton.builtin_log2()


# --- counter: the binary counter walk, digits and carry rows


def _call_counter(p, seed, _out):
    from ca_signals import verification
    return verification.verify_log2(p["steps"], seed=seed)


# --- two_track: base-x*y counter, product marking, merged variant


def _build_two_track(p):
    from ca_signals import automaton, signals
    x, y = p["x"], p["y"]
    ca = automaton.builtin_xy(x, y)
    fol = signals.follower_for_xy(x, y)
    return ca, signals.product_construct(ca, fol), automaton.merged_xy(x, y)


def _call_two_track(p, _seed, _out):
    from ca_signals import verification
    return verification.verify_xy(p["x"], p["y"], p["steps"])


# --- diagonals: period bounds over streamed diagonal words


def _call_diagonals(p, _seed, _out):
    from ca_signals import verification
    return verification.verify_bounds(p["r_max"], p["window"])


# --- dump: the CLI writes a whole diagram as JSON


def _build_dump(p):
    import ca_signals.cli  # noqa: F401  (the CLI module is part of set-up)
    return _build_log2(p)


def _call_dump(p, _seed, out):
    from ca_signals import cli
    return cli.main(["simulate", "--ca", "log2", "--steps", str(p["steps"]),
                     "--out", str(out)])


WORKLOADS = {w.name: w for w in (
    Workload(
        "counter", {"steps": 1024}, {"steps": 64},
        "9d4e652e2aad459d2dbf119f214c4d8541c1ad4776012ac8ccb3450b728bb2fc",
        "283d547349e8927e4761a635665ac316c35be15020f4857866b43ea6d583c2ef",
        _build_log2, _call_counter, _report_output),
    Workload(
        "two_track", {"x": 2, "y": 3, "steps": 750},
        {"x": 2, "y": 3, "steps": 60},
        "e08c90ba0b47efc2484e39373a8ae0bb8137bf809d26d23d95f33ca9891cb033",
        "090e40d83b41522a2ea86b3da492b1a7de88c415777ca54f989a65accc70f99c",
        _build_two_track, _call_two_track, _report_output),
    Workload(
        "diagonals", {"r_max": 6, "window": 1024},
        {"r_max": 3, "window": 64},
        "b5ae84279b00d85f79305aff2ec9754f76457d7e0bb1266a16b006859b59d868",
        "2441112770993279294e4079e38078f42fe667c99312d96cc436206e291a2fbd",
        _build_log2, _call_diagonals, _report_output),
    Workload(
        "dump", {"steps": 384}, {"steps": 16},
        "a54246492cbb88432dac11030e372dcdf02283e6611c7c3e0e39c9a654e540b5",
        "388451f52eb1f49f664ccab0cad02d1c55ec6470167a6e58f98d975de91393df",
        _build_dump, _call_dump, _dump_output),
)}

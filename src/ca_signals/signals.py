"""Signals inside space-time diagrams: detection, following, marking.

A signal is a site path u(0), u(1), ... with u(0) at the origin whose step
at time t is determined by the diagram state at u(t).  Two step conventions
exist for turning a neighborhood offset x into an actual move:

* NEGATED (default): u(t+1) = u(t) - x.  The new site is exactly the cell
  whose update read u(t) through argument offset x, so the signal rides the
  dependency cone forward.
* AS_WRITTEN: u(t+1) = u(t) + x.

Detection uses a total map from state symbols to offsets (a move partition);
following uses a finite automaton that additionally carries its own state.
A detection walk is a one-state follower.  Both walk as probes
(``DetectProbe``, ``FollowProbe``), fed the slices ``engine.run_probes``
steps or a retained diagram's ``replay``.  ``product_construct`` compiles CA
and follower into one product automaton whose marked sites, collected by
``MarkedProbe``, reproduce the follower's path.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .automaton import LAMBDA, ImpulseCA
from .errors import (AlphabetMismatch, CheckFailed, NotCoprime, UnknownState,
                     json_list, json_object)
from .lattice import Offset, all_ones, neg, offsets, parse_offset


class MoveConvention(Enum):
    NEGATED = "negated"
    AS_WRITTEN = "as-written"


def _ints(values: list, what: str) -> tuple[int, ...]:
    if not all(type(a) is int for a in values):
        raise ValueError(f"{what} {values} has a non-integer component")
    return tuple(values)


def _step_site(u, x, convention: MoveConvention):
    if convention is MoveConvention.NEGATED:
        return tuple(c - d for c, d in zip(u, x))
    return tuple(c + d for c, d in zip(u, x))


# ---------------------------------------------------------------------------
# signals


@dataclass(frozen=True)
class Signal:
    """Site path indexed by time; sites[t] is the position at time t."""

    sites: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        if not self.sites:
            raise ValueError("a signal has at least its t=0 site")
        dim = len(self.sites[0])
        if any(len(u) != dim for u in self.sites):
            raise ValueError("all sites must share one dimension")
        if any(a != 0 for a in self.sites[0]):
            raise ValueError("signals start at the origin")

    @property
    def horizon(self) -> int:
        return len(self.sites) - 1

    def moves(self) -> tuple[tuple[int, ...], ...]:
        return tuple(
            tuple(b - a for a, b in zip(u, w))
            for u, w in zip(self.sites, self.sites[1:]))

    def to_json_obj(self) -> list:
        return [{"t": t, "u": list(u)} for t, u in enumerate(self.sites)]

    def dumps(self) -> str:
        return json.dumps(self.to_json_obj(), separators=(",", ":"))

    @classmethod
    def from_json_obj(cls, obj) -> "Signal":
        rows = sorted((json_object(r, "a signal site", t=int, u=list)
                       for r in json_list(obj, "a signal")),
                      key=lambda r: r["t"])
        if [r["t"] for r in rows] != list(range(len(rows))):
            raise ValueError("signal times must be 0..T without gaps")
        return cls(tuple(_ints(r["u"], "signal site") for r in rows))


def valid_moves(signal: Signal, neigh, convention=MoveConvention.NEGATED) -> bool:
    """True when every step of the signal is a neighborhood move."""
    allowed = set(offsets(neigh))
    for mv in signal.moves():
        x = neg(mv) if convention is MoveConvention.NEGATED else mv
        if x not in allowed:
            return False
    return True


# ---------------------------------------------------------------------------
# detection by move partition


@dataclass(frozen=True)
class MovePartition:
    """Total map from state symbols to neighborhood offsets."""

    classes: dict[str, Offset]

    def validate_for(self, ca: ImpulseCA):
        missing = set(ca.states) - set(self.classes)
        if missing:
            raise AlphabetMismatch(f"partition misses states: {sorted(missing)}")
        extra = set(self.classes) - set(ca.states)
        if extra:
            raise AlphabetMismatch(f"partition names unknown states: {sorted(extra)}")
        allowed = set(offsets(ca.neighborhood))
        for s, x in self.classes.items():
            if x not in allowed:
                raise AlphabetMismatch(
                    f"class of {s!r} is {x}, not a neighborhood offset")


def parse_move_partition(text: str, dim: int) -> MovePartition:
    """Parse 'sym:(1,1);sym2:(-1,-1)' into a MovePartition."""
    classes: dict[str, Offset] = {}
    for part in text.split(";"):
        part = part.strip()
        if not part:
            continue
        if ":" not in part:
            raise ValueError(f"expected 'symbol:(offset)', got {part!r}")
        sym, off = part.split(":", 1)
        sym = sym.strip()
        if sym == "lambda":
            sym = LAMBDA
        if sym in classes:
            raise ValueError(f"duplicate symbol {sym!r} in partition")
        classes[sym] = parse_offset(off.strip(), dim)
    if not classes:
        raise ValueError("empty partition")
    return MovePartition(classes)


def log2_partition() -> MovePartition:
    """Detection partition for the binary-counter automaton.

    Reading digit 1 keeps the signal climbing the diagonal; reading digit 0
    sends it one step down onto the next digit track.  The quiescent state
    is never read on the real path; it shares the digit-0 class so a broken
    walk drifts visibly instead of crashing.
    """
    up = (-1, -1)   # NEGATED: u - (-1,-1) = u + (1,1)
    down = (1, 1)
    return MovePartition({"1": up, "0": down, LAMBDA: down})


# ---------------------------------------------------------------------------
# followers


@dataclass(frozen=True)
class Follower:
    """Finite automaton that reads diagram states and emits moves.

    ``delta`` maps (automaton state, diagram symbol) to (next state, offset).
    ``defaulted`` lists keys that were filled mechanically rather than by
    design; a walk can assert it never consumed one.
    """

    states: tuple[str, ...]
    initial: str
    delta: dict[tuple[str, str], tuple[str, Offset]]
    defaulted: frozenset[tuple[str, str]] = frozenset()

    def __post_init__(self):
        if self.initial not in self.states:
            raise ValueError(f"initial state {self.initial!r} not in states")
        for (q, _s), (q2, _x) in self.delta.items():
            if q not in self.states or q2 not in self.states:
                raise ValueError("transition uses unknown automaton state")
        # total over states x inputs, where inputs is the symbol set the
        # table itself mentions
        syms = self.inputs
        for q in self.states:
            for s in syms:
                if (q, s) not in self.delta:
                    raise ValueError(f"no transition for ({q!r}, {s!r})")

    @property
    def inputs(self) -> frozenset[str]:
        return frozenset(s for (_q, s) in self.delta)

    def to_json_obj(self) -> dict:
        rows = [
            {"q": q, "s": s, "q2": q2, "move": list(x)}
            for (q, s), (q2, x) in sorted(self.delta.items())
        ]
        return {"states": list(self.states), "initial": self.initial,
                "delta": rows}

    def dumps(self) -> str:
        return json.dumps(self.to_json_obj(), ensure_ascii=False,
                          separators=(",", ":"))

    @classmethod
    def from_json_obj(cls, obj) -> "Follower":
        json_object(obj, "a follower", states=list, initial=str, delta=list)
        delta = {}
        for r in obj["delta"]:
            json_object(r, "a follower transition", q=str, s=str, q2=str,
                        move=list)
            delta[(r["q"], r["s"])] = (r["q2"],
                                       _ints(r["move"], "follower move"))
        return cls(tuple(obj["states"]), obj["initial"], delta)


def follower_for_xy(x: int, y: int,
                    alphabet: tuple[str, ...] | None = None) -> Follower:
    """Follower that rides the main diagonal of the two-track counter.

    It counts sightings of the track-one top symbol modulo y: the y-th
    sighting wraps the counter and is the only input that produces a
    downward move.  All other inputs keep climbing.  Entries for symbols
    the path never reads (the second track and the empty state) are
    default-filled and tracked in ``defaulted``.
    """
    if x < 1 or y < 1:
        raise ValueError("moduli must be positive")
    if math.gcd(x, y) != 1:
        raise NotCoprime(f"gcd({x},{y}) != 1")
    if alphabet is None:
        alphabet = (LAMBDA,) + tuple(f"π_{i}" for i in range(x + 1)) \
            + tuple(f"κ_{i}" for i in range(y + 1))
    qs = tuple(f"a_{j}" for j in range(1, y + 1))
    top = f"π_{x}"
    up = (-1, -1)    # NEGATED: move +(1,1)
    down = (1, 1)
    delta: dict[tuple[str, str], tuple[str, Offset]] = {}
    defaulted = set()
    for j, q in enumerate(qs, start=1):
        for s in alphabet:
            if s == top:
                if j == y:
                    delta[(q, s)] = (qs[0], down)
                else:
                    delta[(q, s)] = (qs[j], up)
            else:
                delta[(q, s)] = (q, up)
                if not s.startswith("π_"):
                    defaulted.add((q, s))
    return Follower(qs, qs[0], delta, frozenset(defaulted))


@dataclass(frozen=True)
class FollowTrace:
    signal: Signal
    automaton_states: tuple[str, ...]
    consumed: tuple[tuple[str, str], ...]
    defaulted_hits: tuple[tuple[str, str], ...]


class FollowProbe:
    """Run a follower from the origin, one slice view at a time."""

    def __init__(self, ca: ImpulseCA, follower: Follower, steps: int,
                 convention: MoveConvention = MoveConvention.NEGATED):
        if steps < 0:
            raise ValueError(f"steps must be >= 0, got {steps}")
        self.follower = follower
        self.steps = steps
        self.convention = convention
        self.sites = [(0,) * ca.dim]
        self.qs = [follower.initial]
        self.consumed: list[tuple[str, str]] = []
        self.defaulted_hits: list[tuple[str, str]] = []

    def observe(self, view):
        t = view.t
        if t >= self.steps or t != len(self.sites) - 1:
            return
        u = self.sites[-1]
        key = (self.qs[-1], view.state_at(u))
        if key not in self.follower.delta:
            raise AlphabetMismatch(f"follower has no transition for {key!r}")
        self.consumed.append(key)
        if key in self.follower.defaulted:
            self.defaulted_hits.append(key)
        q, x = self.follower.delta[key]
        self.sites.append(_step_site(u, x, self.convention))
        self.qs.append(q)

    def trace(self) -> FollowTrace:
        return FollowTrace(Signal(tuple(self.sites)), tuple(self.qs),
                           tuple(self.consumed), tuple(self.defaulted_hits))


class DetectProbe(FollowProbe):
    """Walk under a move partition: a one-state follower that moves by the
    class of each symbol it reads."""

    def __init__(self, ca: ImpulseCA, partition: MovePartition, steps: int,
                 convention: MoveConvention = MoveConvention.NEGATED):
        partition.validate_for(ca)
        delta = {("q", s): ("q", x) for s, x in partition.classes.items()}
        super().__init__(ca, Follower(("q",), "q", delta), steps, convention)
        self.neighborhood = ca.neighborhood

    def signal(self) -> Signal:
        out = Signal(tuple(self.sites))
        if not valid_moves(out, self.neighborhood, self.convention):
            raise CheckFailed(
                "detected walk takes a step outside the neighborhood")
        return out


# ---------------------------------------------------------------------------
# product construction: CA x follower with a marked site

UNMARKED = "."
PAIR_SEP = "|"


def _pair_symbol(s: str, m: str) -> str:
    return f"{s}{PAIR_SEP}{m}"


class ProductTable:
    """Function-backed local map of the product automaton.

    The base track evolves by the base table.  A cell acquires marker q2
    exactly when some argument-a neighbor carries a marker q with
    delta(q, base symbol) = (q2, x) and x is the offset that makes this
    cell the follower's next site under the chosen convention.  On valid
    diagrams at most one neighbor is marked; ties from unreachable
    configurations resolve to the smallest argument index.  Like any table
    it is applied only to the neighbor tuples a run meets; ``assume_total``
    skips the enumeration of all of them when the product CA is built.
    """

    assume_total = True

    def __init__(self, base: ImpulseCA, follower: Follower,
                 convention: MoveConvention):
        self.base = base
        self.follower = follower
        self.convention = convention
        self.marks = (UNMARKED,) + follower.states
        req = {x: (x if convention is MoveConvention.NEGATED else neg(x))
               for x in base.arg_order}
        # per argument position: (marker, symbol) -> marker produced here
        self.sends: list[dict[tuple[str, str], str]] = []
        for x in base.arg_order:
            table = {}
            for (q, s), (q2, mv) in follower.delta.items():
                if mv == req[x]:
                    table[(q, s)] = q2
            self.sends.append(table)

    @property
    def arity(self) -> int:
        return self.base.table.arity

    def split(self, pair: str) -> tuple[str, str]:
        s, _, m = pair.rpartition(PAIR_SEP)
        return s, m

    def apply(self, neighbors: tuple[str, ...]) -> str:
        parts = [self.split(p) for p in neighbors]
        new_s = self.base.table.apply(tuple(s for s, _ in parts))
        new_m = UNMARKED
        for send, (s, m) in zip(self.sends, parts):
            if m != UNMARKED:
                q2 = send.get((m, s))
                if q2 is not None:
                    new_m = q2
                    break
        return _pair_symbol(new_s, new_m)


@dataclass(frozen=True)
class ProductCA:
    """Product of a base CA and a follower, plus decoding helpers."""

    ca: ImpulseCA
    base: ImpulseCA
    follower: Follower
    convention: MoveConvention

    def split(self, pair: str) -> tuple[str, str | None]:
        s, _, m = pair.rpartition(PAIR_SEP)
        return s, (None if m == UNMARKED else m)

    @property
    def marked_states(self) -> frozenset[str]:
        return frozenset(s for s in self.ca.states
                         if self.split(s)[1] is not None)


def product_construct(base: ImpulseCA, follower: Follower,
                      convention: MoveConvention = MoveConvention.NEGATED,
                      ) -> ProductCA:
    """Compile base CA and follower into one automaton with a marked site."""
    for s in base.states:
        if PAIR_SEP in s or s == UNMARKED:
            raise ValueError(f"base state {s!r} clashes with pair encoding")
    if follower.inputs != set(base.states):
        raise AlphabetMismatch(
            f"follower reads {sorted(follower.inputs)}, "
            f"automaton alphabet is {sorted(base.states)}")
    marks = (UNMARKED,) + follower.states
    states = tuple(_pair_symbol(s, m) for s in base.states for m in marks)
    table = ProductTable(base, follower, convention)
    ca = ImpulseCA(
        states=states,
        quiescent=_pair_symbol(base.quiescent, UNMARKED),
        seed=_pair_symbol(base.seed, follower.initial),
        neighborhood=base.neighborhood,
        arg_order=base.arg_order,
        table=table,
        name=f"product({base.name or 'ca'})",
    )
    return ProductCA(ca, base, follower, convention)


class MarkedProbe:
    """Collects every (cell, t) whose state lies in ``subset``."""

    def __init__(self, ca: ImpulseCA, subset):
        unknown = set(subset) - set(ca.states)
        if unknown:
            raise UnknownState(f"not states of this automaton: {sorted(unknown)}")
        self.marked = np.array([s in subset for s in ca.states], dtype=bool)
        self.found: set = set()

    def observe(self, view):
        coords, codes = view.arrays()
        t = view.t
        self.found.update((tuple(u), t)
                          for u in coords[self.marked[codes]].tolist())


# ---------------------------------------------------------------------------
# reference anchor schedules


def ilog(base: int, n: int) -> int:
    """Largest e with base**e <= n, for n >= 1."""
    if base < 2 or n < 1:
        raise ValueError("need base >= 2 and n >= 1")
    e, p = 0, base
    while p <= n:
        e += 1
        p *= base
    return e


def log_anchor_signal(base: int, t_max: int, dim: int = 2):
    """Anchor schedule of a base-b logarithmic slow-down signal.

    Returns (site, time) pairs: the counter's walk sits at (t - L(t)) * 1bar
    at time t + L(t), where L(t) is the floor log of t+1.  Times are
    strictly increasing; between them the walk interpolates with single
    up/down excursions.
    """
    ones = all_ones(dim)
    out = []
    t = 0
    while True:
        level = ilog(base, t + 1)
        when = t + level
        if when > t_max:
            break
        site = tuple((t - level) * o for o in ones)
        out.append((site, when))
        t += 1
    return tuple(out)


def gap_profile(signal: Signal) -> list[int]:
    """m(t) = max over axes of (t - u_a(t)) for each t."""
    return [max(t - a for a in u) for t, u in enumerate(signal.sites)]


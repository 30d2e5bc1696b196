"""Analysis of diagonal words and signal gaps.

Eventual periods have one rule, ``_preperiod``: under a period q, the
preperiod is one past the last letter that differs from the letter q
later.  A diagonal word takes one exact path: ``exact_periods`` steps a
set of diagonals closed under the update to the first repeat (mu, lam) of
their joint state, and ``cycle_lens`` reads each word's minimal
(preperiod, period) off the rows held until then.  ``is_basic`` applies
the same rule to a signal's move word, which no automaton state
generates, over the window of its moves.

The two-state search is a depth-first search over partial rule tables,
each stepped by the engine (``run_probes``) on the box of diagonals its
targets read.
"""

from __future__ import annotations

import contextlib
import hashlib
import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .automaton import LAMBDA, TRELLIS2_ORDER, ImpulseCA
from .engine import (DEFAULT_SITE_BUDGET, DiagonalLetters, diagonal_start,
                     run_probes)
from .errors import OverflowHorizon
from .lattice import Neighborhood
from .signals import Signal, gap_profile

# ---------------------------------------------------------------------------
# eventual periods


def _preperiod(word: np.ndarray, q: int) -> int:
    """One past the last j with word[j] != word[j + q]: the least p such
    that word[p:] repeats with period q."""
    bad = np.flatnonzero(word[:len(word) - q] != word[q:])
    return int(bad[-1]) + 1 if len(bad) else 0


def is_basic(signal: Signal):
    """(alpha, beta) with the signal's moves alpha + beta repeated, or None.

    Over the window of all h moves, (p, q) = (|alpha|, |beta|) is the least
    pair with p = ``_preperiod`` under q that shows at least two repeats
    and a preperiod of at most half the window: p + 2q <= h and
    p <= h // 2.  A window where no pair commits returns None.
    """
    moves = signal.moves()
    h = len(moves)
    if h < 4:
        raise ValueError(f"window {h} is too short to show a repeat")
    ids = {x: k for k, x in enumerate(dict.fromkeys(moves))}
    word = np.array([ids[x] for x in moves])
    fits = [(p, q) for q in range(1, h // 2 + 1)
            if (p := _preperiod(word, q)) + 2 * q <= h and p <= h // 2]
    if not fits:
        return None
    p, q = min(fits)
    return moves[:p], moves[p:p + q]


# ---------------------------------------------------------------------------
# exact periods of diagonal words


def cycle_lens(rows: np.ndarray, mu: int) -> list[tuple[int, int]]:
    """Exact minimal (preperiod, period) of the infinite word each column of
    ``rows`` begins, given that letter t + lam equals letter t for t >= mu,
    with lam = len(rows) - mu.  The period is the least divisor of lam under
    which the tail rows[mu:] repeats, and the preperiod is the column's
    ``_preperiod`` under it."""
    lam = len(rows) - mu
    tail = rows[mu:]
    period = np.zeros(rows.shape[1], dtype=np.int64)
    for d in range(1, lam + 1):
        if lam % d == 0:
            # d divides lam, so tail[t] == tail[t + d] for t < lam - d
            # also covers the rows that wrap around
            fits = (tail[d:] == tail[:lam - d]).all(axis=0)
            period[(period == 0) & fits] = d
    # from mu on no letter differs from the one q later
    return [(_preperiod(col[:mu + q], q), q)
            for col, q in zip(rows.T, period.tolist())]


class _Stop(Exception):
    """Stops a run at the first step where an ``_Until`` condition holds."""


class _Until(DiagonalLetters):
    """The ``DiagonalLetters`` of ``points``, which raises ``_Stop`` after
    the first step t where ``stop(self, t)`` holds."""

    def __init__(self, points, stop):
        super().__init__(points)
        self.stop = stop

    def observe(self, view):
        super().observe(view)
        if self.stop(self, view.t):
            raise _Stop


def check_cap(n_points: int, cap: int, budget: int, name: str) -> None:
    """Refuse a cap ``name`` below 1, or ``exact_periods`` rows of
    ``n_points`` letters past the budget, before the points are built."""
    if cap < 1:
        raise ValueError(f"{name} must be >= 1, got {cap}")
    if n_points * cap > budget:
        raise OverflowHorizon(-1, budget)


def exact_periods(ca: ImpulseCA, points, cap: int, *,
                  budget: int = DEFAULT_SITE_BUDGET):
    """(lens, held, mu): the rows of codes of ``points`` (repeats dropped)
    held to the first repeat of their joint state or to t = ``cap``,
    whichever comes first.  ``points`` must be closed under the update,
    which does not depend on t, so only the window [0, max coordinate]^dim
    is stepped, and a repeat settles every word for all time: from row mu
    on, the rows repeat with period len(held) - mu, and ``lens`` holds each
    word's exact (preperiod, period) in ``points`` order.  With no repeat
    by ``cap``, lens and mu are None."""
    seen = {}   # held row -> its first t; a row seen before is the repeat
    letters = _Until(points, lambda held, t:
                     seen.setdefault(held.rows[-1], t) != t)
    with contextlib.suppress(_Stop):
        run_probes(ca, cap, [letters], budget=budget,
                   reach=max(map(max, letters.points)))
    if len(letters.rows) == len(seen):
        return None, letters.held, None
    mu = seen[letters.rows.pop()]
    held = letters.held
    lens = [(max(0, p - diagonal_start(i)), q)
            for i, (p, q) in zip(letters.points, cycle_lens(held, mu))]
    return lens, held, mu


# ---------------------------------------------------------------------------
# gap growth classification

GROWTH_RATIO = 1.10  # late/early max-ratio of t**(1/m) flagging sub-log growth


CONSTANT = "Constant"
LOG_OR_ABOVE = "LogarithmicOrAbove"
BELOW_LOG = "BelowLogSuspect"


@dataclass(frozen=True)
class GapReport:
    """Classification of a signal's trailing-gap profile m(t).

    classification is one of:
      * Constant: m is constant over the final half of the walk.
      * LogarithmicOrAbove: t**(1/m(t)) stays bounded; c_observed is the
        maximum over samples and fitted_C the smallest simple rational with
        t <= fitted_C**m(t) for all sampled t, so m(t) >= log(t) /
        log(fitted_C) over the window.
      * BelowLogSuspect: the maximum of t**(1/m(t)) over the late half of
        the samples exceeds GROWTH_RATIO times the early-half maximum, as a
        gap growing slower than any log would produce.
    """

    classification: str
    horizon: int
    samples: tuple[tuple[int, int], ...] = ()
    constant_value: int | None = None
    c_observed: float | None = None
    fitted_C: Fraction | None = None
    late_early_ratio: float | None = None


def _fewest_bumps(c: Fraction, samples) -> int:
    """The fewest k >= 0 with (c + k/10**6)**m >= t for every sample (t, m).

    That is the largest of the per-sample counts.  A float estimate of each
    count is within one of it, so only the samples whose estimate is within
    two of the largest estimate can hold the largest count; each of those is
    settled exactly with integer powers.
    """
    est = [math.ceil((t ** (1.0 / m) - float(c)) * 10 ** 6)
           for t, m in samples]
    top = max(est)
    num, den = c.numerator * 10 ** 6, c.denominator
    best = 0
    for (t, m), k in zip(samples, est):
        if k >= top - 2:
            # (c + k/10**6)**m >= t, times (den * 10**6)**m
            k, low = max(k, 0), t * (den * 10 ** 6) ** m
            while (num + k * den) ** m < low:
                k += 1
            while k and (num + (k - 1) * den) ** m >= low:
                k -= 1
            best = max(best, k)
    return best


def gap_probe(signal: Signal) -> GapReport:
    if signal.horizon + 1 < 64:
        raise ValueError(
            f"need at least 64 sites to classify, got {signal.horizon + 1}")
    m = gap_profile(signal)
    t_max = signal.horizon
    samples = tuple((t, mt) for t, mt in enumerate(m) if mt >= 1 and t >= 1)
    tail = m[t_max // 2:]
    if all(v == tail[0] for v in tail):
        return GapReport(CONSTANT, t_max, samples, constant_value=tail[0])

    cs = [t ** (1.0 / mt) for t, mt in samples]
    c_obs = max(cs)
    half = len(cs) // 2
    early = max(cs[:half]) if cs[:half] else cs[0]
    late = max(cs[half:])
    ratio = late / early
    if ratio > GROWTH_RATIO:
        return GapReport(BELOW_LOG, t_max, samples, c_observed=c_obs,
                         late_early_ratio=ratio)

    fitted = Fraction(c_obs).limit_denominator(10 ** 6)
    fitted += Fraction(_fewest_bumps(fitted, samples), 10 ** 6)
    return GapReport(LOG_OR_ABOVE, t_max, samples, c_observed=c_obs,
                     fitted_C=fitted, late_early_ratio=ratio)


# ---------------------------------------------------------------------------
# exhaustive search over two-state trellis impulse automata


@dataclass(frozen=True)
class SearchReport:
    total_candidates: int
    passing: int
    witnesses: tuple[int, ...]
    checked_sites: tuple
    digest: str


SEARCH_TARGETS = (
    (((0, 0), 0), 1),
    (((1, 1), 1), 0),
    (((0, 0), 2), 1),
    (((1, 1), 3), 1),
)


class _Unassigned(Exception):
    """A run met a neighbour code (``args[0]``) its table has not assigned."""


@dataclass(eq=False)
class _PartialTable:
    """A two-state trellis table over neighbour codes 8a + 4b + 2c + d, the
    live flags of the four arguments in ``TRELLIS2_ORDER``: ``bits`` maps
    each code assigned so far to its live flag, code 0 is quiescent, and
    any other code raises ``_Unassigned``."""

    bits: dict
    arity = 4
    assume_total = True

    def apply(self, neighbors):
        code = int("".join("0" if s == LAMBDA else "1" for s in neighbors), 2)
        if code and code not in self.bits:
            raise _Unassigned(code)
        return "1" if code and self.bits[code] else LAMBDA


def exhaustive_two_state_search() -> SearchReport:
    """Try every two-state trellis rule against SEARCH_TARGETS, the first
    values a binary-counter diagonal must take with digit 0 read as the
    quiescent state.

    A candidate n encodes f(code) = bit code-1 of n for neighbour codes
    1..15 (``_PartialTable``); f(0) = 0 is forced by quiescence.  The search
    is depth first over partial tables, each stepped by ``run_probes`` to
    the targets' last time on the box of diagonals they read (site (u, t)
    is diagonal t*1bar - u).  A run stops at a missed target, which prunes
    its table, or at a code its table has not assigned, and branches on
    the code's two values.  A partial table whose run meets every target
    passes every candidate that agrees with it.  The digest commits to the
    full enumeration and its outcome.
    """
    n_c = 1 << 15
    cands = np.arange(n_c, dtype=np.int64)
    ok = np.zeros(n_c, dtype=bool)
    table = _PartialTable({})
    ca = ImpulseCA((LAMBDA, "1"), LAMBDA, "1", Neighborhood("trellis", 2),
                   TRELLIS2_ORDER, table)
    targets = [(tuple(t - a for a in u), t, bool(live))
               for (u, t), live in SEARCH_TARGETS]
    steps = max(t for _, t, _ in targets)
    reach = max(0, *(max(i) for i, _, _ in targets))

    def missed(letters, t):
        row = letters.rows[-1]
        return any(t == at and bool(row[letters.column[i]]) != live
                   for i, at, live in targets)

    stack = [{}]
    while stack:
        table.bits = stack.pop()
        try:
            run_probes(ca, steps, [_Until((i for i, _, _ in targets), missed)],
                       reach=reach)
        except _Unassigned as exc:
            stack += [{**table.bits, exc.args[0]: b} for b in (1, 0)]
        except _Stop:
            pass
        else:
            # the candidates whose bits agree with every assigned code
            mask = sum(1 << c - 1 for c in table.bits)
            value = sum(b << c - 1 for c, b in table.bits.items())
            ok[(cands & mask) == value] = True
    witnesses = tuple(np.flatnonzero(ok).tolist())
    h = hashlib.sha256()
    h.update(b"two-state trellis impulse search v1\n")
    h.update(cands.astype("<u2").tobytes())
    h.update(ok.astype(np.uint8).tobytes())
    return SearchReport(n_c, len(witnesses), witnesses, SEARCH_TARGETS,
                        h.hexdigest())

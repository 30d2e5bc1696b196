"""Analysis of diagonal words and signal gaps.

A diagonal word takes one exact path: ``exact_periods`` steps a set of
diagonals closed under the update to the first repeat (mu, lam) of their
joint state, and ``cycle_lens`` reads each word's minimal (preperiod,
period) off the rows held until then.

The window is for ``is_basic`` only, whose move word no automaton state
generates: a length-H observation confirms an eventual period only under an
evidence policy (``_decompose``), and returns NotPeriodicWithin(H) rather
than guess.

Scans over every live cell of a slice are ``engine.CellScan`` probes,
built where each claim is checked; the two-track planes are proven from
the rule table and scanned only when that proof fails
(``engine.scan_never_fires``).
"""

from __future__ import annotations

import contextlib
import hashlib
import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import product
from operator import sub

import numpy as np

from .automaton import ImpulseCA
from .engine import (DEFAULT_SITE_BUDGET, DiagonalLetters, diagonal_start,
                     run_probes)
from .errors import CheckFailed, OverflowHorizon
from .signals import Signal, gap_profile

# ---------------------------------------------------------------------------
# windowed eventual periodicity of a signal's move word


@dataclass(frozen=True)
class PeriodDecomposition:
    """word = alpha + beta repeated, confirmed over a length-H window."""

    alpha: tuple
    beta: tuple
    window: int


@dataclass(frozen=True)
class NotPeriodicWithin:
    """No decomposition met the evidence policy inside the window."""

    window: int


def _z_array(s):
    n = len(s)
    z = [0] * n
    z[0] = n
    l = r = 0
    for i in range(1, n):
        if i < r:
            z[i] = min(r - i, z[i - l])
        while i + z[i] < n and s[z[i]] == s[i + z[i]]:
            z[i] += 1
        if i + z[i] > r:
            l, r = i, i + z[i]
    return z


def _min_preperiods(word):
    """For each period q >= 1, the smallest p making word[p:] q-periodic.

    The longest q-periodic suffix has length q + z[q] where z is the
    Z-array of the reversed word.
    """
    h = len(word)
    z = _z_array(word[::-1])
    out = {}
    for q in range(1, h // 2 + 1):
        length = min(h, q + z[q])
        out[q] = h - length
    return out


def _decompose(word, window, accept):
    h = window
    if h < 1 or h > len(word):
        raise ValueError(f"window {h} outside 1..{len(word)}")
    w = tuple(word[:h])
    best = None
    for q, p in _min_preperiods(w).items():
        if not accept(p, q, h):
            continue
        if best is None or (p, q) < best:
            best = (p, q)
    if best is None:
        return NotPeriodicWithin(h)
    p, q = best
    beta = w[p:p + q]
    for j in range(p, h):
        if w[j] != beta[(j - p) % q]:
            raise CheckFailed("period selection is unsound")
    return PeriodDecomposition(w[:p], beta, h)


def is_basic(signal: Signal):
    """Decompose the signal's move word as alpha + beta-repeats, or refuse.

    A signal is basic when its move sequence settles, within the window of
    all its moves, into a preperiod alpha no longer than half the window
    followed by repeats of beta.  Windows that never commit (the candidate
    preperiod would eat most of the window) return NotPeriodicWithin.
    """
    moves = signal.moves()
    h = len(moves)
    if h < 4:
        raise ValueError(f"window {h} is too short to show a repeat")
    return _decompose(moves, h,
                      lambda p, q, H: p + 2 * q <= H and p <= H // 2)


# ---------------------------------------------------------------------------
# exact periods and the recursive period bounds over diagonal words


@dataclass(frozen=True)
class DiagonalPeriod:
    i: tuple[int, ...]
    alpha_len: int
    beta_len: int
    decomposed: bool
    recursive_ok: bool
    closed_form_ok: bool


@dataclass(frozen=True)
class PeriodBoundsReport:
    rows: tuple[DiagonalPeriod, ...]

    @property
    def ok(self) -> bool:
        return all(r.decomposed and r.recursive_ok and r.closed_form_ok
                   for r in self.rows)


def cycle_lens(rows: np.ndarray, mu: int) -> list[tuple[int, int]]:
    """Exact minimal (preperiod, period) of the infinite word each column of
    ``rows`` begins, given that letter t + lam equals letter t for t >= mu,
    with lam = len(rows) - mu.  The period is the least divisor of lam under
    which the tail rows[mu:] repeats; the preperiod is one past the last
    t < mu whose letter differs from the letter at t + period."""
    lam = len(rows) - mu
    tail = rows[mu:]
    period = np.zeros(rows.shape[1], dtype=np.int64)
    for d in range(1, lam + 1):
        if lam % d == 0:
            # d divides lam, so tail[t] == tail[t + d] for t < lam - d
            # also covers the rows that wrap around
            fits = (tail[d:] == tail[:lam - d]).all(axis=0)
            period[(period == 0) & fits] = d
    out = []
    for c, q in enumerate(period.tolist()):
        bad = np.flatnonzero(rows[:mu, c] != rows[q:mu + q, c])
        out.append((int(bad[-1]) + 1 if len(bad) else 0, q))
    return out


class _Repeated(Exception):
    """Stops a run whose joint state has repeated."""


class _JointStates(DiagonalLetters):
    """Stops the run at the first repeat of a held row (``seen``: row -> t)."""

    def __init__(self, points):
        super().__init__(points)
        self.seen = {}

    def observe(self, view):
        super().observe(view)
        if self.seen.setdefault(self.rows[-1], view.t) != view.t:
            raise _Repeated


def check_cap(n_points: int, cap: int, budget: int, name: str) -> None:
    """Refuse a cap ``name`` below 1, or ``exact_periods`` rows of
    ``n_points`` letters past the budget, before the points are built."""
    if cap < 1:
        raise ValueError(f"{name} must be >= 1, got {cap}")
    if n_points * cap > budget:
        raise OverflowHorizon(-1, budget)


def exact_periods(ca: ImpulseCA, points, cap: int, *,
                  budget: int = DEFAULT_SITE_BUDGET):
    """(lens, held, mu): each diagonal word's exact (preperiod, period) in
    ``points`` order and the rows of codes held to find them, or None with no
    repeat by t = ``cap``.  ``points`` must be closed under the update, which
    does not depend on t, so the window [0, max coordinate]^dim is stepped
    only to the first repeat of their joint state: it settles every word for
    all time.  From row mu on, the rows repeat with period len(held) - mu."""
    states = _JointStates(points)
    with contextlib.suppress(_Repeated):
        run_probes(ca, cap, [states], budget=budget,
                   reach=max(map(max, states.points)))
    if len(states.rows) == len(states.seen):
        return None
    mu = states.seen[states.rows.pop()]
    held = states.held
    lens = [(max(0, p - diagonal_start(i)), q)
            for i, (p, q) in zip(states.points, cycle_lens(held, mu))]
    return lens, held, mu


def verify_period_bounds(ca: ImpulseCA, r_max: int, window: int, *,
                         budget: int = DEFAULT_SITE_BUDGET,
                         ) -> PeriodBoundsReport:
    """Decompose every diagonal word with coordinate sum <= r_max exactly and
    check that each (preperiod, period) obeys the bounds implied by the
    diagonals it depends on, plus the closed-form bound in terms of the
    state count.  The simplex sum(i) <= r_max is closed under the update;
    with no repeat by t = ``window``, no row decomposes.
    """
    if r_max < 0:
        raise ValueError(f"r_max must be >= 0, got {r_max}")
    dim = ca.dim
    check_cap(math.comb(r_max + dim, dim), window, budget, "window")
    n = len(ca.states)
    big_l = math.lcm(*range(1, n + 1))
    points = sorted((i for i in product(range(r_max + 1), repeat=dim)
                     if sum(i) <= r_max), key=lambda i: (sum(i), i))

    found = exact_periods(ca, points, window, budget=budget)
    if found is None:
        return PeriodBoundsReport(tuple(
            DiagonalPeriod(i, -1, -1, False, False, False) for i in points))

    lens = dict(zip(points, found[0]))
    # diagonal i reads diagonal i - x - 1bar through argument x (x = -1bar
    # reads i itself); one with a negative coordinate is quiescent
    ds = [tuple(a + 1 for a in x) for x in ca.arg_order if x != (-1,) * dim]
    rows = []
    for i, (a_len, b_len) in lens.items():
        lowers = [lens.get(tuple(map(sub, i, d)), (0, 1)) for d in ds]
        m_bound = max(a for a, _ in lowers)
        p_lcm = math.lcm(*(b for _, b in lowers))
        rec_ok = (a_len <= m_bound + n * p_lcm) and any(
            (v * p_lcm) % b_len == 0 for v in range(1, n + 1))

        r = sum(i)
        cor_ok = (a_len < n * big_l ** r) and (big_l ** (r + 1)) % b_len == 0
        rows.append(DiagonalPeriod(i, a_len, b_len, True, rec_ok, cor_ok))

    return PeriodBoundsReport(tuple(rows))


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


def exhaustive_two_state_search(limit: int | None = None) -> SearchReport:
    """Try every two-state trellis rule against four forced site values.

    A candidate n encodes f(code) = bit code-1 of n for neighbor codes
    1..15 (code = 8a + 4b + 2c + d over the live flags of the four
    neighbors); f(0) = 0 is forced by quiescence.  All candidates are
    simulated simultaneously to t = 3 and checked against SEARCH_TARGETS,
    which are the first values a binary-counter diagonal must take with
    digit 0 read as the quiescent state.  The returned digest commits to
    the full enumeration and its outcome.
    """
    if limit is not None and limit < 1:
        raise ValueError(f"limit must be >= 1, got {limit}")
    total = 1 << 15
    n_c = total if limit is None else min(limit, total)
    cands = np.arange(n_c, dtype=np.int64)
    zeros = np.zeros(n_c, dtype=np.int64)

    order = ((-1, -1), (-1, 1), (1, 1), (1, -1))

    def cells_at(t):
        return [(a, b)
                for a in range(-t, t + 1) if (a + t) % 2 == 0
                for b in range(-t, t + 1) if (b + t) % 2 == 0]

    slices = [{(0, 0): np.ones(n_c, dtype=np.int64)}]
    for t in range(1, 4):
        prev = slices[-1]
        cur = {}
        for cell in cells_at(t):
            code = zeros
            for x in order:
                code = 2 * code + prev.get((cell[0] + x[0], cell[1] + x[1]),
                                           zeros)
            val = np.where(code == 0, 0,
                           (cands >> np.maximum(code - 1, 0)) & 1)
            if val.any():
                cur[cell] = val
        slices.append(cur)

    ok = np.ones(n_c, dtype=bool)
    for (cell, t), want in SEARCH_TARGETS:
        got = slices[t].get(cell, zeros)
        ok &= got == want

    witnesses = tuple(int(c) for c in cands[ok])
    h = hashlib.sha256()
    h.update(b"two-state trellis impulse search v1\n")
    h.update(cands.astype("<u2").tobytes())
    h.update(ok.astype(np.uint8).tobytes())
    return SearchReport(n_c, len(witnesses), witnesses, SEARCH_TARGETS,
                        h.hexdigest())

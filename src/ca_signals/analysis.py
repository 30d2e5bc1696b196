"""Analysis of diagonal words, signal gaps, and digit readouts.

Periodicity here is always *windowed*: a length-H observation can only ever
confirm an eventual period up to evidence thresholds, so the decomposition
functions return NotPeriodicWithin(H) instead of guessing when the window
is too short.  Two evidence policies share one core (``_decompose``):

* ``ultimate_period``: the periodic part must cover the final third of
  the window and repeat at least twice.
* ``is_basic``, on a signal's move word: the preperiod must fit in the
  first half of the window and the period must repeat at least twice.  The
  stricter preperiod cap keeps a long drifting prefix with a constant tail
  from passing as periodic.

Digit readouts and the plane check are probes (``BinaryReadoutProbe``,
``BaseXYReadoutProbe``, ``PlaneProbe``), fed the slices ``run_probes`` steps
or a retained diagram's ``replay``.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .automaton import ImpulseCA
from .engine import (DEFAULT_SITE_BUDGET, DiagonalProbe, check_window,
                     run_probes)
from .errors import (BeyondHorizon, CheckFailed, NotCoprime, OverflowHorizon,
                     PlaneViolation)
from .signals import Signal, gap_profile

# ---------------------------------------------------------------------------
# windowed eventual periodicity


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


def ultimate_period(word, window=None):
    """Lexicographically minimal (|alpha|, |beta|) under the final-third rule."""
    h = len(word) if window is None else window
    if h < 4:
        raise ValueError(f"window {h} is too short to show a repeat")
    return _decompose(word, h,
                      lambda p, q, H: p + 2 * q <= H and H - p >= (H + 2) // 3)


def is_basic(signal: Signal, horizon: int | None = None):
    """Decompose the signal's move word as alpha + beta-repeats, or refuse.

    A signal is basic when its move sequence settles, within the inspected
    window, into a preperiod alpha no longer than half the window followed
    by repeats of beta.  Windows that never commit (the candidate preperiod
    would eat most of the window) raise NotPeriodicWithin.
    """
    moves = signal.moves()
    h = len(moves) if horizon is None else horizon
    if h > len(moves):
        raise ValueError(f"horizon {h} exceeds move count {len(moves)}")
    if h < 4:
        raise ValueError(f"window {h} is too short to show a repeat")
    return _decompose(tuple(moves[:h]), h,
                      lambda p, q, H: p + 2 * q <= H and p <= H // 2)


# ---------------------------------------------------------------------------
# recursive period bounds over diagonal words


@dataclass(frozen=True)
class DiagonalPeriod:
    i: tuple[int, ...]
    alpha_len: int
    beta_len: int
    decomposed: bool
    recursive_ok: bool
    closed_form_ok: bool
    notes: str = ""


@dataclass(frozen=True)
class PeriodBoundsReport:
    window: int
    rows: tuple[DiagonalPeriod, ...]
    findings: tuple[str, ...]

    @property
    def ok(self) -> bool:
        return not self.findings


def _lower_points(i, arg_order, dim):
    """Lattice points whose diagonal words feed the word at i.

    The diagonal recurrence reads point i - x - 1bar for each argument
    offset x; the offset -1bar reads i itself and is excluded.
    """
    minus_ones = (-1,) * dim
    return [tuple(a - b - 1 for a, b in zip(i, x))
            for x in arg_order if x != minus_ones]


def verify_period_bounds(ca: ImpulseCA, r_max: int, window: int, *,
                         budget: int = DEFAULT_SITE_BUDGET,
                         ) -> PeriodBoundsReport:
    """Decompose every diagonal word with coordinate sum <= r_max and check
    that each (preperiod, period) obeys the bounds implied by the diagonals
    it depends on, plus the closed-form bound in terms of the state count.

    Every such point lies in [0, r_max]^dim, so only that window of
    diagonals is stepped.  Before any stepping, the budget bounds both its
    (r_max+1)^dim sites and the ``window`` letters kept for each point.
    """
    if r_max < 0:
        raise ValueError(f"r_max must be >= 0, got {r_max}")
    if window < 4:
        raise ValueError(f"window must be >= 4 to show a repeat, got {window}")
    dim = ca.dim
    check_window(dim, r_max, budget)
    if math.comb(r_max + dim, dim) * window > budget:
        raise OverflowHorizon(-1, budget)
    n = len(ca.states)
    big_l = math.lcm(*range(1, n + 1))

    points = []

    def fill(prefix, remaining):
        if len(prefix) == dim:
            points.append(tuple(prefix))
            return
        for a in range(remaining + 1):
            fill(prefix + [a], remaining - a)

    fill([], r_max)
    points.sort(key=lambda i: (sum(i), i))

    probes = {i: DiagonalProbe(i, window) for i in points}
    horizon = max(pr.start for pr in probes.values()) + window - 1
    run_probes(ca, horizon, list(probes.values()), budget=budget, reach=r_max)

    decs: dict[tuple[int, ...], PeriodDecomposition | NotPeriodicWithin] = {}
    rows = []
    findings = []
    trivial = PeriodDecomposition((), (ca.quiescent,), window)

    for i in points:
        word = probes[i].word(ca.quiescent)
        dec = ultimate_period(word, window)
        decs[i] = dec
        if isinstance(dec, NotPeriodicWithin):
            rows.append(DiagonalPeriod(i, -1, -1, False, False, False,
                                       "no decomposition inside window"))
            findings.append(f"diagonal {i}: not periodic within {window}")
            continue
        a_len, b_len = len(dec.alpha), len(dec.beta)

        lowers = []
        unverifiable = None
        for lp in _lower_points(i, ca.arg_order, dim):
            if any(a < 0 for a in lp):
                lowers.append(trivial)
            elif isinstance(decs.get(lp), PeriodDecomposition):
                lowers.append(decs[lp])
            else:
                unverifiable = lp
                break
        if unverifiable is not None:
            rows.append(DiagonalPeriod(i, a_len, b_len, True, False, False,
                                       f"lower diagonal {unverifiable} undecomposed"))
            findings.append(f"diagonal {i}: depends on undecomposed {unverifiable}")
            continue

        m_bound = max(len(d.alpha) for d in lowers)
        p_lcm = math.lcm(*(len(d.beta) for d in lowers))
        rec_ok = (a_len <= m_bound + n * p_lcm) and any(
            (v * p_lcm) % b_len == 0 for v in range(1, n + 1))

        r = sum(i)
        cor_ok = (a_len < n * big_l ** r) and (big_l ** (r + 1)) % b_len == 0

        notes = []
        if not rec_ok:
            msg = (f"diagonal {i}: (|alpha|,|beta|)=({a_len},{b_len}) breaks "
                   f"recursive bound (M={m_bound}, P={p_lcm}, n={n})")
            findings.append(msg)
            notes.append("recursive bound violated")
        if not cor_ok:
            msg = (f"diagonal {i}: (|alpha|,|beta|)=({a_len},{b_len}) breaks "
                   f"closed-form bound (L={big_l}, r={r})")
            findings.append(msg)
            notes.append("closed-form bound violated")
        rows.append(DiagonalPeriod(i, a_len, b_len, True, rec_ok, cor_ok,
                                   "; ".join(notes)))

    return PeriodBoundsReport(window, tuple(rows), tuple(findings))


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
        the samples exceeds growth_ratio times the early-half maximum, as a
        gap growing slower than any log would produce.
    """

    classification: str
    horizon: int
    samples: tuple[tuple[int, int], ...] = ()
    constant_value: int | None = None
    c_observed: float | None = None
    fitted_C: Fraction | None = None
    late_early_ratio: float | None = None
    growth_ratio: float = GROWTH_RATIO


def gap_probe(signal: Signal, *, growth_ratio: float = GROWTH_RATIO) -> GapReport:
    if signal.horizon + 1 < 64:
        raise ValueError(
            f"need at least 64 sites to classify, got {signal.horizon + 1}")
    m = gap_profile(signal)
    t_max = signal.horizon
    samples = tuple((t, mt) for t, mt in enumerate(m) if mt >= 1 and t >= 1)
    tail = m[t_max // 2:]
    if all(v == tail[0] for v in tail):
        return GapReport(CONSTANT, t_max, samples, constant_value=tail[0],
                         growth_ratio=growth_ratio)

    cs = [t ** (1.0 / mt) for t, mt in samples]
    c_obs = max(cs)
    half = len(cs) // 2
    early = max(cs[:half]) if cs[:half] else cs[0]
    late = max(cs[half:])
    ratio = late / early
    if ratio > growth_ratio:
        return GapReport(BELOW_LOG, t_max, samples, c_observed=c_obs,
                         late_early_ratio=ratio, growth_ratio=growth_ratio)

    fitted = Fraction(c_obs).limit_denominator(10 ** 6)
    bump = Fraction(1, 10 ** 6)
    while any(t * fitted.denominator ** mt > fitted.numerator ** mt
              for t, mt in samples):
        fitted += bump
    return GapReport(LOG_OR_ABOVE, t_max, samples, c_observed=c_obs,
                     fitted_C=fitted, late_early_ratio=ratio,
                     growth_ratio=growth_ratio)


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


# ---------------------------------------------------------------------------
# digit readouts


def crt_digit(x: int, y: int, p_idx: int, k_idx: int) -> int:
    """Digit in 0..x*y-1 congruent to p_idx mod x and k_idx mod y."""
    if math.gcd(x, y) != 1:
        raise NotCoprime(f"moduli must be coprime, got ({x},{y})")
    if not (0 <= p_idx <= x and 0 <= k_idx <= y):
        raise ValueError(
            f"track indices ({p_idx},{k_idx}) outside 0..{x} x 0..{y}")
    a = p_idx % x
    b = k_idx % y
    if x == 1:
        return b
    inv = pow(x, -1, y)
    return a + x * (((b - a) * inv) % y)


class _RowReadout:
    """Digits along sheared rows k, read as the slices arrive: track l holds
    entry i at cell (k-i+l, k-i-l) at t = k+i+l (``engine.w_site``), so a
    row opens at t = k and a digit is complete with its last track.  Only
    open rows are held; a row closes with its word or its reads' error."""

    def __init__(self, ca: ImpulseCA, rows):
        self.lam, self.rows = ca.quiescent, frozenset(rows)
        self.open, self.closed, self.last = {}, {}, -1

    def observe(self, view):
        t = self.last = view.t
        if t in self.rows:
            self.open[t] = ([], [])
        for k, (digits, entries) in list(self.open.items()):
            while k + len(digits) + len(entries) == t:
                i, l = len(digits), len(entries)
                entries.append(view.state_at((k - i + l, k - i - l)))
                if len(entries) < self.tracks:
                    continue
                try:
                    d = self._digit(k, i, *entries)
                except ValueError as exc:
                    d = exc
                if d is None or isinstance(d, ValueError):
                    self.closed[k] = self._word(digits) if d is None else d
                    del self.open[k]
                    break
                digits.append(d)
                entries.clear()

    def word(self, k: int):
        """Row k's word; raises its reads' error, or BeyondHorizon if the
        row did not end inside the run."""
        out = self.closed.get(k)
        if out is None:
            raise BeyondHorizon(f"t={max(k, self.last + 1)} outside simulated "
                                f"range 0..{self.last}")
        if isinstance(out, ValueError):
            raise out
        return out


class BinaryReadoutProbe(_RowReadout):
    """Bit words of sheared rows (k, 0), low-order digit first, each ending
    at its first quiescent entry; on the binary counter row k spells k+1."""

    tracks = 1
    _word = "".join

    def _digit(self, k, i, s):
        if s == self.lam:
            return None
        if s not in ("0", "1"):
            raise ValueError(f"row ({k},0) entry {i} is {s!r}, not a bit")
        return s


def _track_index(sym: str, prefix: str, where: str) -> int:
    if sym.startswith(prefix + "_"):
        try:
            return int(sym[len(prefix) + 1:])
        except ValueError:
            pass
    raise PlaneViolation(f"{where} holds {sym!r}, expected a {prefix} state")


class BaseXYReadoutProbe(_RowReadout):
    """Base x*y digits of sheared rows (k,0)/(k,1), low-order digit first.

    Row (k, 0) carries the mod-x residue track and row (k, 1) the mod-y
    track; each digit is recovered by the Chinese remainder theorem.  On
    the two-track counter the digits are those of k+1.
    """

    tracks = 2
    _word = tuple

    def __init__(self, ca: ImpulseCA, rows, x: int, y: int):
        super().__init__(ca, rows)
        self.x, self.y = x, y

    def _digit(self, k, i, s0, s1):
        if s0 == self.lam and s1 == self.lam:
            return None
        if s0 == self.lam or s1 == self.lam:
            raise PlaneViolation(
                f"rows ({k},0)/({k},1) disagree on digit {i}: {s0!r}/{s1!r}")
        return crt_digit(self.x, self.y,
                         _track_index(s0, "π", f"row ({k},0) entry {i}"),
                         _track_index(s1, "κ", f"row ({k},1) entry {i}"))


class PlaneProbe:
    """Counts the live cells of a two-track run and keeps the first one off
    its carrier plane: a - b = 0 for the mod-x (π) track, a - b = 2 for the
    mod-y (κ) track.  ``count()`` raises it; keeping it lets a streamed run
    go on feeding its other probes."""

    def __init__(self, ca: ImpulseCA):
        self.states, self.checked, self.error = ca.states, 0, None
        self.plane = np.array([0 if s.startswith("π_") else
                               2 if s.startswith("κ_") else -1
                               for s in ca.states])

    def observe(self, view):
        coords, codes = view.arrays()
        self.checked += len(codes)
        bad = np.flatnonzero(coords[:, 0] - coords[:, 1] != self.plane[codes])
        if len(bad) and self.error is None:
            (a, b), s = coords[bad[0]].tolist(), self.states[codes[bad[0]]]
            on = {0: "π", 2: "κ"}.get(a - b)
            self.error = PlaneViolation(
                f"cell ({a},{b}) at t={view.t} " + (
                    f"holds {s!r} on the {on} plane" if on
                    else f"lies on plane offset {a - b}"))

    def count(self) -> int:
        if self.error is not None:
            raise self.error
        return self.checked

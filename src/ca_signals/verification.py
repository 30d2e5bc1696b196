"""End-to-end verification sweeps behind the ``verify`` CLI targets.

Each sweep re-derives its expected values from integer arithmetic (digit
strings, anchor schedules, trailing-one counts) and compares them against
simulated diagrams, reporting per-check pass/fail with the first offending
sites instead of stopping at the first failure.

Claims stream: every check is a probe, so each automaton is stepped once
by ``analysis.run_probes`` (one name for a tracer to wrap) and only its box
of diagonals is held.  Every claim steps the diagonal window
``run_probes(..., reach=R)``: the binary counter and ``verify_xy``'s
two-track and product runs with R = 2T, the whole light cone, whose live
cells fill a thin box of diagonals (at T = 1,037, 9,327 live cells of the
counter in a box of 12 by 1,038 strided entries); the period bounds,
stopped at the first repeat of their joint state; ``verify_basic``'s
counter walk, up to its highest anchor's diagonal; and ``verify_xy``'s
merged walk, up to the largest diagonal the two-track walk reads.  The
counter's wedge and the two-track planes are proven for every t from the
rule table before stepping (``engine.scan_never_fires``), and the run then
only counts live cells; where the proof fails, each is one ``CellScan``
with a numpy predicate over the window box's open grid, which names the
cells off the wedge or plane, as the product's marks always are.  Either
way the reach stays the whole light cone and the report is the same.
Walks are ``FollowProbe``s, a detection walk under its partition's
one-state follower.  ``verify_basic``'s random followers are not stepped.

Each digit, carry or two-track row is spelled by one ``DiagonalLetters`` per
claim, as its digits and their quiescent end: a row that does not read
back is a FAIL mismatch showing what it read, never an error.
"""

from __future__ import annotations

import contextlib
import math
import random
from dataclasses import dataclass, field
from itertools import islice, product, takewhile
from operator import sub

import numpy as np

from . import analysis
from .analysis import LOG_OR_ABOVE, cycle_lens, gap_probe, is_basic
from .automaton import LAMBDA, ImpulseCA, builtin_log2, builtin_xy, merged_xy
from .engine import (DEFAULT_SITE_BUDGET, CellScan, DiagonalLetters, SiteCount,
                     scan_never_fires, w_site)
from .errors import BeyondWindow, NotCoprime, XNotSmallest
from .lattice import Neighborhood, offsets
from .signals import (Follower, FollowProbe, Signal, follower_for_xy,
                      gap_profile, log2_partition, log_anchor_signal,
                      product_construct)

MISMATCH_CAP = 100
CARRY_SAMPLES = 50   # carry rows verify_log2 draws and reads
MOVE_HORIZON = 2000  # moves of the counter's walk verify_basic decomposes


@dataclass(frozen=True)
class Check:
    """One named pass/fail line with up to MISMATCH_CAP offending items."""

    name: str
    ok: bool
    detail: str = ""
    mismatches: tuple = ()

    def to_json_obj(self) -> dict:
        return {"name": self.name, "ok": self.ok, "detail": self.detail,
                "mismatches": [list(m) if isinstance(m, tuple) else m
                               for m in self.mismatches]}


@dataclass(frozen=True)
class VerifyReport:
    target: str
    checks: tuple[Check, ...]
    params: dict = field(default_factory=dict)

    @property
    def ok(self) -> bool:
        return all(c.ok for c in self.checks)

    def to_json_obj(self) -> dict:
        return {"target": self.target, "ok": self.ok, "params": self.params,
                "checks": [c.to_json_obj() for c in self.checks]}

    def lines(self):
        for c in self.checks:
            yield f"[{'PASS' if c.ok else 'FAIL'}] {self.target}/{c.name}" \
                  + (f": {c.detail}" if c.detail else "")


def _capped(items) -> tuple:
    return tuple(islice(items, MISMATCH_CAP))


def _anchor_check(sig: Signal, anchors, name: str) -> Check:
    bad = []
    levels = set()
    for site, when in anchors:
        levels.add((when - site[0]) // 2)
        if sig.sites[when] != site:
            bad.append((list(site), when, list(sig.sites[when])))
    lo, hi = (min(levels), max(levels)) if levels else (0, -1)
    contiguous = levels == set(range(lo, hi + 1))
    detail = f"{len(anchors)} anchors, slow-down levels {lo}..{hi}"
    if not contiguous:
        detail += " (level coverage has holes)"
    return Check(name, not bad and contiguous, detail, _capped(bad))


def _digits(n: int, base: int) -> tuple[int, ...]:
    out = []
    while n:
        out.append(n % base)
        n //= base
    return tuple(out)


# ---------------------------------------------------------------------------
# the scans over every live cell, proven from the rule table


def _proven_scan(ca: ImpulseCA, scan: CellScan) -> CellScan | SiteCount:
    """The probe of a claim's check over every live cell: a ``SiteCount``
    when the rule table proves that ``scan``'s select never fires, else
    ``scan``, which names the cells it marks.  Both report alike."""
    return SiteCount() if scan_never_fires(ca, scan.select) else scan


# ---------------------------------------------------------------------------
# binary counter


def _off_wedge(coords, _codes, t):
    """Marks the cells off the wedge -t <= b <= a <= t or off t's parity."""
    a, b = coords
    return (b > a) | (a > t) | (b < -t) | ((a ^ t) & 1).astype(bool) \
        | ((b ^ t) & 1).astype(bool)    # a+t or b+t odd


def verify_log2(steps: int, *, seed: int = 7,
                budget: int = DEFAULT_SITE_BUDGET) -> VerifyReport:
    """Anchor walk, digit readout, and sheared-row shape of the binary counter.

    Every check is a probe on one streamed run, which goes slightly past
    ``steps`` so that every digit row k <= steps ends inside it.  The run
    steps the diagonal window with the whole light cone as its reach, so
    ``budget`` bounds the box of diagonals each step holds, and the
    live-region check counts every live cell, and scans them where the rule
    table does not prove the wedge.  The sampled carry rows
    depend only on ``seed`` and ``steps``, so they are drawn before
    stepping.
    """
    if steps < 4:
        raise ValueError("need steps >= 4")
    ca = builtin_log2()
    horizon = steps + (steps + 2).bit_length() + 2

    rng = random.Random(seed)
    picked = []
    while len(picked) < CARRY_SAMPLES:
        k = rng.randrange(1, max(2, steps - 24))
        l = rng.randrange(1, 9)
        length = (k + 1).bit_length()
        if k + l + length <= horizon:
            picked.append((k, l, length))

    # digit rows (k, 0) and carry rows (k, l): n digits and a quiescent end
    rows = [(k, 0, (k + 1).bit_length()) for k in range(steps + 1)] + picked

    def sites():
        return ([w_site(k, l, i) for i in range(n + 1)] for k, l, n in rows)

    walk = FollowProbe(ca, log2_partition().follower(ca), steps)
    letters = DiagonalLetters(d for row in sites() for d, _ in row)
    region = _proven_scan(ca, CellScan(_off_wedge, cap=MISMATCH_CAP))
    analysis.run_probes(ca, horizon, [walk, letters, region], budget=budget,
                        reach=2 * horizon)
    read = {(k, l): "".join(row)
            for (k, l, _), row in zip(rows, letters.spell(sites()))}

    checks = []

    sig = walk.trace().signal
    anchors = log_anchor_signal(2, steps)
    checks.append(_anchor_check(sig, anchors, "anchor-walk"))

    bad = []
    for k in range(steps + 1):
        want = bin(k + 1)[2:][::-1]
        if read[k, 0] != want + ca.quiescent:
            bad.append((k, read[k, 0].partition(ca.quiescent)[0], want))
    checks.append(Check("binary-readout", not bad,
                        f"rows k=0..{steps} read back", _capped(bad)))

    bad = []
    for k, l, length in picked:
        n = k + 1
        ones = 0
        while (n >> ones) & 1:
            ones += 1
        want = "1" * ones + "0" * (length - ones)
        if read[k, l] != want + ca.quiescent:
            bad.append((k, l, read[k, l][:length], want))
    checks.append(Check("carry-rows", not bad,
                        f"{CARRY_SAMPLES} sampled rows with l >= 1",
                        _capped(bad)))

    checks.append(Check("live-region", not region.found,
                        f"{region.total} stored sites inside the wedge",
                        tuple((*u, t) for u, t, _ in region.found)))

    if steps >= 64:
        rep = gap_probe(sig)
        checks.append(Check(
            "gap-classification", rep.classification == LOG_OR_ABOVE,
            f"{rep.classification}, fitted C = {rep.fitted_C}"))

    return VerifyReport("log2", tuple(checks),
                        {"steps": steps, "convention": "negated"})


# ---------------------------------------------------------------------------
# two-track counter


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


def _plane_scan(ca: ImpulseCA) -> CellScan:
    """Keeps the first live cell of a two-track run off its carrier plane:
    a - b = 0 for the mod-x (π) track, a - b = 2 for the mod-y (κ) track."""
    plane = np.array([0 if s.startswith("π_") else
                      2 if s.startswith("κ_") else -1 for s in ca.states])
    return CellScan(lambda coords, codes, _t:
                    coords[0] - coords[1] != plane[codes], cap=1)


def _plane_check(scan: CellScan | SiteCount) -> Check:
    """The plane-discipline line of a finished ``_plane_scan``."""
    if not scan.found:
        return Check("plane-discipline", True,
                     f"{scan.total} live cells on the two carrier planes")
    [((a, b), t, s)] = scan.found
    on = {0: "π", 2: "κ"}.get(a - b)
    return Check("plane-discipline", False, f"cell ({a},{b}) at t={t} " + (
        f"holds {s!r} on the {on} plane" if on
        else f"lies on plane offset {a - b}"))


def verify_xy(x: int, y: int, steps: int, *,
              budget: int = DEFAULT_SITE_BUDGET) -> VerifyReport:
    """Follower anchors, CRT digit readout, plane discipline, the product
    construction, and the merged single-track variant, each automaton in
    one streamed run on the diagonal window: the two-track and product runs
    with the whole light cone as their reach, so the plane check (a scan
    only where the rule table does not prove the planes) and the mark scan
    see every live cell and ``budget`` bounds the box each step holds."""
    if steps < 4:
        raise ValueError("need steps >= 4")
    ca = builtin_xy(x, y)
    base = x * y
    # refuses x*y < 2 before the row count below, which needs a base >= 2
    anchors = log_anchor_signal(base, steps)
    fol = follower_for_xy(x, y)

    # row k reads back inside the run when its last read, track 1 at
    # t = k + len(digits) + 1, is at most steps
    k = 0
    while k + len(_digits(k + 1, base)) + 1 <= steps:
        k += 1
    rows = range(k)
    walk = FollowProbe(ca, fol, steps)
    # row k's mod-x (π) track l = 0 and mod-y (κ) track l = 1, each read as
    # the digits of k+1 and their quiescent end
    def sites():
        return ([w_site(k, l, i) for i in range(len(_digits(k + 1, base)) + 1)]
                for k in rows for l in (0, 1))

    letters = DiagonalLetters(d for row in sites() for d, _ in row)
    planes = _proven_scan(ca, _plane_scan(ca))
    analysis.run_probes(ca, steps, [walk, letters, planes], budget=budget,
                        reach=2 * steps)

    checks = []

    tr = walk.trace()
    checks.append(_anchor_check(tr.signal, anchors, "anchor-walk"))
    checks.append(Check(
        "no-defaulted-reads", not tr.defaulted_hits,
        "walk consumed only designed transitions",
        _capped(tr.defaulted_hits)))

    digit = {(f"π_{a}", f"κ_{b}"): crt_digit(x, y, a, b)
             for a in range(x + 1) for b in range(y + 1)}
    end = (ca.quiescent,) * 2
    bad = []
    tracks = iter(letters.spell(sites()))
    for k, pi, kappa in zip(rows, tracks, tracks):
        want = list(_digits(k + 1, base))
        # the digits up to the tracks' common quiescent end; a pair that is
        # no (π_a, κ_b) shows as "s0/s1"
        got = [digit.get(pair, "/".join(pair)) for pair in
               takewhile(end.__ne__, zip(pi, kappa))]
        if got != want:
            bad.append((k, got, want))
    checks.append(Check("digit-readout", not bad,
                        f"rows k=0..{len(rows) - 1} read back in base {base}",
                        _capped(bad)))

    checks.append(_plane_check(planes))

    t_prod = min(steps, 200)
    prod = product_construct(ca, fol)
    marked = np.array([s in prod.marked_states for s in prod.ca.states])
    marks = CellScan(lambda _coords, codes, _t: marked[codes])
    analysis.run_probes(prod.ca, t_prod, [marks], budget=budget,
                        reach=2 * t_prod)
    ms = {(u, t) for u, t, _ in marks.found}
    path = {(u, t) for t, u in enumerate(tr.signal.sites[:t_prod + 1])}
    diff = sorted(ms ^ path, key=lambda p: (p[1], p[0]))
    checks.append(Check(
        "product-marks", ms == path,
        f"{len(prod.ca.states)} product states, marked path to t={t_prod}",
        _capped((list(u), t, "extra" if (u, t) in ms else "missing")
                for u, t in diff)))

    try:
        merged = merged_xy(x, y)
        mfol = follower_for_xy(x, y, alphabet=merged.states)
        mwalk = FollowProbe(merged, mfol, steps)
        # Step only the diagonals the two-track walk reads.  A merged walk
        # that reads past them has left that walk, so the walked prefix
        # differs from it and the check fails.
        reach = max(gap_profile(tr.signal)[:steps])
        with contextlib.suppress(BeyondWindow):
            analysis.run_probes(merged, steps, [mwalk], budget=budget,
                                reach=reach)
        mtr = mwalk.trace()
        same = mtr.signal == tr.signal
        bad = [] if same else [
            (t, list(a), list(b)) for t, (a, b) in
            enumerate(zip(tr.signal.sites, mtr.signal.sites)) if a != b]
        checks.append(Check(
            "merged-variant", same and not mtr.defaulted_hits,
            f"two-track alphabet {len(ca.states)} states, merged "
            f"{len(merged.states)} states, identical followed signal",
            _capped(bad)))
    except (XNotSmallest, ValueError) as exc:
        checks.append(Check("merged-variant", True, f"skipped: {exc}"))

    return VerifyReport("xy", tuple(checks),
                        {"x": x, "y": y, "steps": steps,
                         "convention": "negated"})


# ---------------------------------------------------------------------------
# diagonal periodicity bounds


def verify_bounds(r_max: int, window: int, ca: ImpulseCA | None = None, *,
                  budget: int = DEFAULT_SITE_BUDGET) -> VerifyReport:
    """Decompose every diagonal word with coordinate sum <= r_max exactly and
    check that each (preperiod, period) obeys the bounds implied by the
    diagonals it depends on, plus the closed-form bound in terms of the
    state count.  The simplex sum(i) <= r_max is closed under the update;
    with no repeat by t = ``window``, no diagonal decomposes."""
    if ca is None:
        ca = builtin_log2()
    if r_max < 0:
        raise ValueError(f"r_max must be >= 0, got {r_max}")
    dim, n = ca.dim, len(ca.states)
    analysis.check_cap(math.comb(r_max + dim, dim), window, budget, "window")
    points = sorted((i for i in product(range(r_max + 1), repeat=dim)
                     if sum(i) <= r_max), key=lambda i: (sum(i), i))
    found = analysis.exact_periods(ca, points, window, budget=budget)[0]
    undec = points if found is None else []
    lens = dict(zip(points, found or ()))
    big_l = math.lcm(*range(1, n + 1))
    # diagonal i reads diagonal i - x - 1bar through argument x (x = -1bar
    # reads i itself); one with a negative coordinate is quiescent
    ds = [tuple(a + 1 for a in x) for x in ca.arg_order if x != (-1,) * dim]
    rec, cor = [], []
    for i, (p, q) in lens.items():
        lowers = [lens.get(tuple(map(sub, i, d)), (0, 1)) for d in ds]
        p_lcm = math.lcm(*(b for _, b in lowers))
        if not (p <= max(a for a, _ in lowers) + n * p_lcm and any(
                v * p_lcm % q == 0 for v in range(1, n + 1))):
            rec.append(i)
        if not (p < n * big_l ** sum(i) and big_l ** (sum(i) + 1) % q == 0):
            cor.append(i)

    checks = (
        Check("diagonal-decomposition", not undec,
              f"{len(points) - len(undec)}/{len(points)} diagonals "
              f"confirmed ultimately periodic within {window}",
              _capped(undec)),
        Check("recursive-bounds", not rec,
              "preperiod/period within the bounds from feeding diagonals",
              _capped(rec)),
        Check("closed-form-bounds", not cor,
              "preperiod < n*L^r and period divides L^(r+1) on every row",
              _capped(cor)),
    )
    params = {"r_max": r_max, "window": window,
              "lens": {str(i): v for i, v in sorted(lens.items())}}
    return VerifyReport("bounds", checks, params)


# ---------------------------------------------------------------------------
# basic signals


def random_follower(rng: random.Random) -> Follower:
    """Random total follower with at most 6 states that reads only λ and
    moves by 2-D trellis offsets."""
    moves = offsets(Neighborhood("trellis", 2))
    qs = tuple(f"a_{j}" for j in range(1, rng.randint(1, 6) + 1))
    delta = {(q, LAMBDA): (rng.choice(qs), rng.choice(moves)) for q in qs}
    return Follower(qs, qs[0], delta)


def verify_basic(count: int, *,
                 budget: int = DEFAULT_SITE_BUDGET) -> VerifyReport:
    """Random followers on the empty diagram walk ultimately periodically
    with preperiod + period <= |Q| + 1; the binary counter's detected walk
    shows no such decomposition within MOVE_HORIZON moves.  A follower reads
    only λ on the empty diagram, so its walk is the orbit of q -> delta(q, λ),
    decomposed exactly at the orbit's first repeat.  The counter is stepped
    on the diagonal window up to the diagonal of its highest anchor, so
    ``budget`` bounds the box of those diagonals each step holds.
    """
    if count < 1:
        raise ValueError(f"count must be >= 1, got {count}")
    rng = random.Random(11)
    bad = []
    for idx in range(count):
        fol = random_follower(rng)
        moves, mu = fol.orbit(LAMBDA)
        ids = {x: k for k, x in enumerate(dict.fromkeys(moves))}
        [(p, q)] = cycle_lens(np.array([[ids[x]] for x in moves]), mu)
        n_q = len(fol.states)
        if p + q > n_q + 1:
            bad.append((idx, n_q, f"(p,q)=({p},{q})"))
    checks = [Check(
        "follower-walks-basic", not bad,
        f"{count} random followers, p+q <= |Q|+1 on the empty diagram",
        _capped(bad))]

    ca = builtin_log2()
    probe = FollowProbe(ca, log2_partition().follower(ca), MOVE_HORIZON)
    # the counter's walk reads no diagonal past its highest anchor; a read
    # past it raises BeyondWindow
    reach = max(when - site[0]
                for site, when in log_anchor_signal(2, MOVE_HORIZON))
    analysis.run_probes(ca, MOVE_HORIZON, [probe], budget=budget, reach=reach)
    checks.append(Check(
        "counter-walk-not-basic", is_basic(probe.trace().signal) is None,
        f"binary-counter walk undecomposed within {MOVE_HORIZON} moves"))

    return VerifyReport("basic", tuple(checks),
                        {"count": count, "move_horizon": MOVE_HORIZON})


# One row per stage of ``ca-signals verify all``, in order: its name, its
# check and the keyword arguments it ships at.
CLAIMS = (
    ("log2", verify_log2, {"steps": 2048}),
    ("xy(2,3)", verify_xy, {"x": 2, "y": 3, "steps": 1500}),
    ("xy(3,4)", verify_xy, {"x": 3, "y": 4, "steps": 600}),
    ("bounds", verify_bounds, {"r_max": 20, "window": 4096}),
    ("basic", verify_basic, {"count": 50}),
)

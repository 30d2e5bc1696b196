"""End-to-end verification sweeps behind the ``verify`` CLI targets.

Each sweep re-derives its expected values from integer arithmetic (digit
strings, anchor schedules, trailing-one counts) and compares them against
simulated diagrams, reporting per-check pass/fail with the first offending
sites instead of stopping at the first failure.

Claims stream: every check is a probe, so each automaton is stepped once
by ``analysis.run_probes`` (one name for a tracer to wrap) and only its live
slice is held.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from itertools import islice

from . import analysis
from .analysis import (LOG_OR_ABOVE, BaseXYReadoutProbe, BinaryReadoutProbe,
                       NotPeriodicWithin, PlaneProbe, gap_probe, is_basic,
                       verify_period_bounds)
from .automaton import (LAMBDA, TRELLIS2_ORDER, WILDCARD, AnyOf, ImpulseCA,
                        Literal, Rule, RuleTable, builtin_log2,
                        builtin_quiescent, builtin_xy, merged_xy)
from .engine import DEFAULT_SITE_BUDGET, ReadSchedule, w_site
from .errors import PlaneViolation, XNotSmallest
from .lattice import Neighborhood, offsets
from .signals import (DetectProbe, Follower, FollowProbe, MarkedProbe, Signal,
                      follower_for_xy, log2_partition, log_anchor_signal,
                      product_construct)

MISMATCH_CAP = 100


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
# binary counter


class _RegionProbe:
    """Sums the live sites and keeps those off the wedge -t <= b <= a <= t
    or off t's parity."""

    def __init__(self):
        self.bad: list = []
        self.total = 0

    def observe(self, view):
        coords, t = view.arrays()[0], view.t
        a, b = coords.T
        off = (b > a) | (a > t) | (b < -t) \
            | (((a ^ t) | (b ^ t)) & 1).astype(bool)    # a+t or b+t odd
        self.total += len(coords)
        room = MISMATCH_CAP - len(self.bad)    # keep no more than a report shows
        self.bad += [(ua, ub, t) for ua, ub in coords[off][:room].tolist()]


def verify_log2(steps: int, *, samples: int = 50, seed: int = 7,
                budget: int = DEFAULT_SITE_BUDGET) -> VerifyReport:
    """Anchor walk, digit readout, and sheared-row shape of the binary counter.

    Every check is a probe on one streamed run, which goes slightly past
    ``steps`` so that every digit row k <= steps ends inside it.  The
    sampled carry rows depend only on ``seed`` and ``steps``, so they are
    drawn before stepping.
    """
    if steps < 4:
        raise ValueError("need steps >= 4")
    ca = builtin_log2()
    horizon = steps + (steps + 2).bit_length() + 2

    rng = random.Random(seed)
    picked = []
    while len(picked) < samples:
        k = rng.randrange(1, max(2, steps - 24))
        l = rng.randrange(1, 9)
        length = (k + 1).bit_length()
        if k + l + length <= horizon:
            picked.append((k, l, length))
    walk = DetectProbe(ca, log2_partition(), steps)
    readout = BinaryReadoutProbe(ca, range(steps + 1))
    carry = ReadSchedule([[w_site(k, l, i) for i in range(length + 1)]
                           for k, l, length in picked])
    region = _RegionProbe()
    analysis.run_probes(ca, horizon, [walk, readout, carry, region],
                        budget=budget)

    checks = []

    sig = walk.signal()
    anchors = log_anchor_signal(2, steps)
    checks.append(_anchor_check(sig, anchors, "anchor-walk"))

    bad = []
    for k in range(steps + 1):
        want = bin(k + 1)[2:][::-1]
        got = readout.word(k)
        if got != want:
            bad.append((k, got, want))
    checks.append(Check("binary-readout", not bad,
                        f"rows k=0..{steps} read back", _capped(bad)))

    bad = []
    for (k, l, length), row in zip(picked, carry.rows):
        n = k + 1
        ones = 0
        while (n >> ones) & 1:
            ones += 1
        want = "1" * ones + "0" * (length - ones)
        got, term = "".join(row[:length]), row[length]
        if got != want or term != ca.quiescent:
            bad.append((k, l, got, want))
    checks.append(Check("carry-rows", not bad,
                        f"{samples} sampled rows with l >= 1", _capped(bad)))

    checks.append(Check("live-region", not region.bad,
                        f"{region.total} stored sites inside the wedge",
                        _capped(region.bad)))

    if steps >= 64:
        rep = gap_probe(sig)
        checks.append(Check(
            "gap-classification", rep.classification == LOG_OR_ABOVE,
            f"{rep.classification}, fitted C = {rep.fitted_C}"))

    return VerifyReport("log2", tuple(checks),
                        {"steps": steps, "convention": "negated"})


# ---------------------------------------------------------------------------
# two-track counter


def verify_xy(x: int, y: int, steps: int, *,
              budget: int = DEFAULT_SITE_BUDGET) -> VerifyReport:
    """Follower anchors, CRT digit readout, plane discipline, the product
    construction, and the merged single-track variant, each automaton in
    one streamed run."""
    if steps < 4:
        raise ValueError("need steps >= 4")
    ca = builtin_xy(x, y)
    base = x * y
    fol = follower_for_xy(x, y)

    # row k reads back inside the run when its last read, track 1 at
    # t = k + len(digits) + 1, is at most steps
    k = 0
    while k + len(_digits(k + 1, base)) + 1 <= steps:
        k += 1
    rows = range(k)
    walk = FollowProbe(ca, fol, steps)
    readout = BaseXYReadoutProbe(ca, rows, x, y)
    planes = PlaneProbe(ca)
    analysis.run_probes(ca, steps, [walk, readout, planes], budget=budget)

    checks = []

    tr = walk.trace()
    anchors = log_anchor_signal(base, steps)
    checks.append(_anchor_check(tr.signal, anchors, "anchor-walk"))
    checks.append(Check(
        "no-defaulted-reads", not tr.defaulted_hits,
        "walk consumed only designed transitions",
        _capped(tr.defaulted_hits)))

    bad = []
    for k in rows:
        want = _digits(k + 1, base)
        got = readout.word(k)
        if got != want:
            bad.append((k, list(got), list(want)))
    checks.append(Check("digit-readout", not bad,
                        f"rows k=0..{len(rows) - 1} read back in base {base}",
                        _capped(bad)))

    try:
        n_cells = planes.count()
        checks.append(Check("plane-discipline", True,
                            f"{n_cells} live cells on the two carrier planes"))
    except PlaneViolation as e:
        checks.append(Check("plane-discipline", False, str(e)))

    t_prod = min(steps, 200)
    prod = product_construct(ca, fol)
    marks = MarkedProbe(prod.ca, prod.marked_states)
    analysis.run_probes(prod.ca, t_prod, [marks], budget=budget)
    ms = marks.found
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
        analysis.run_probes(merged, steps, [mwalk], budget=budget)
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


def verify_bounds(r_max: int = 6, window: int = 4096,
                  ca: ImpulseCA | None = None, *,
                  budget: int = DEFAULT_SITE_BUDGET) -> VerifyReport:
    if ca is None:
        ca = builtin_log2()
    rep = verify_period_bounds(ca, r_max, window, budget=budget)
    undec = [r.i for r in rep.rows if not r.decomposed]
    rec = [r.i for r in rep.rows if r.decomposed and not r.recursive_ok]
    cor = [r.i for r in rep.rows if r.decomposed and not r.closed_form_ok]
    lens = {r.i: (r.alpha_len, r.beta_len) for r in rep.rows if r.decomposed}
    checks = (
        Check("diagonal-decomposition", not undec,
              f"{len(rep.rows) - len(undec)}/{len(rep.rows)} diagonals "
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


def random_follower(rng: random.Random, max_states: int = 6,
                    neigh: Neighborhood | None = None,
                    inputs: tuple[str, ...] = (LAMBDA,)) -> Follower:
    """Random total follower over the given input symbols."""
    if neigh is None:
        neigh = Neighborhood("trellis", 2)
    moves = offsets(neigh)
    m = rng.randint(1, max_states)
    qs = tuple(f"a_{j}" for j in range(1, m + 1))
    delta = {}
    for q in qs:
        for s in inputs:
            delta[(q, s)] = (rng.choice(qs), rng.choice(moves))
    return Follower(qs, qs[0], delta)


def verify_basic(count: int = 50, *, window: int = 64,
                 move_horizon: int = 2000, seed: int = 11,
                 budget: int = DEFAULT_SITE_BUDGET) -> VerifyReport:
    """Random followers on the empty diagram walk ultimately periodically
    with preperiod + period <= |Q| + 1; the binary counter's detected walk
    shows no such decomposition within ``move_horizon``."""
    if count < 1:
        raise ValueError(f"count must be >= 1, got {count}")
    quiet = builtin_quiescent()
    rng = random.Random(seed)
    walks = [FollowProbe(quiet, random_follower(rng), window)
             for _ in range(count)]
    analysis.run_probes(quiet, window, walks, budget=budget)
    bad = []
    for idx, walk in enumerate(walks):
        n_q = len(walk.follower.states)
        dec = is_basic(walk.trace().signal, window)
        if isinstance(dec, NotPeriodicWithin):
            bad.append((idx, n_q, "not periodic in window"))
            continue
        p, q = len(dec.alpha), len(dec.beta)
        if p + q > n_q + 1:
            bad.append((idx, n_q, f"(p,q)=({p},{q})"))
    checks = [Check(
        "follower-walks-basic", not bad,
        f"{count} random followers, p+q <= |Q|+1 on the empty diagram",
        _capped(bad))]

    probe = DetectProbe(builtin_log2(), log2_partition(), move_horizon)
    analysis.run_probes(builtin_log2(), move_horizon, [probe], budget=budget)
    dec = is_basic(probe.signal(), move_horizon)
    checks.append(Check(
        "counter-walk-not-basic", isinstance(dec, NotPeriodicWithin),
        f"binary-counter walk undecomposed within {move_horizon} moves"))

    return VerifyReport("basic", tuple(checks),
                        {"count": count, "move_horizon": move_horizon})


# ---------------------------------------------------------------------------
# random rule tables (shared by the engine cross-check and property tests)


def random_impulse_ca(rng: random.Random, n_states: int | None = None,
                      max_states: int = 4,
                      neigh: Neighborhood | None = None) -> ImpulseCA:
    """Random total rule table with a guaranteed catch-all.

    Each rule constrains one to three argument positions and leaves the
    rest wildcard, so rules keep matching on large neighborhoods (a Moore
    dim-3 cell has 27 arguments) instead of all falling to the catch-all.
    """
    if neigh is None:
        neigh = Neighborhood("trellis", 2)
    order = offsets(neigh) if neigh.kind != "trellis" or neigh.dim != 2 \
        else TRELLIS2_ORDER
    v = len(order)
    n = n_states if n_states is not None else rng.randint(2, max_states)
    states = (LAMBDA,) + tuple("ABCDEFGH"[:n - 1])
    rules = [Rule((Literal(LAMBDA),) * v, LAMBDA)]
    for _ in range(rng.randint(0, 8)):
        pat = [WILDCARD] * v
        for pos in rng.sample(range(v), min(v, rng.randint(1, 3))):
            if rng.random() < 0.7:
                pat[pos] = Literal(rng.choice(states))
            else:
                # a proper subset, so the position is really constrained
                k = rng.randint(1, n - 1)
                pat[pos] = AnyOf(frozenset(rng.sample(states, k)))
        rules.append(Rule(tuple(pat), rng.choice(states)))
    rules.append(Rule((WILDCARD,) * v, rng.choice(states)))
    seed_state = rng.choice(states[1:])
    return ImpulseCA(
        states=states,
        quiescent=LAMBDA,
        seed=seed_state,
        neighborhood=neigh,
        arg_order=order,
        table=RuleTable(tuple(rules)),
        name=f"random-{n}",
    )

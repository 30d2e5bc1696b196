"""End-to-end verification sweeps behind the ``verify`` CLI targets.

Each sweep re-derives its expected values from integer arithmetic (digit
strings, anchor schedules, trailing-one counts) and compares them against
simulated diagrams, reporting per-check pass/fail with the first offending
sites instead of stopping at the first failure.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from itertools import islice

from .analysis import (LOG_OR_ABOVE, NotPeriodicWithin, base_xy_readout,
                       binary_readout, check_planes, gap_probe, is_basic,
                       verify_period_bounds)
from .automaton import (LAMBDA, TRELLIS2_ORDER, WILDCARD, AnyOf, ImpulseCA,
                        Literal, Rule, RuleTable, builtin_log2,
                        builtin_quiescent, builtin_xy, merged_xy)
from .engine import DEFAULT_SITE_BUDGET, run, run_probes, unpack_cells, w_row
from .errors import PlaneViolation, XNotSmallest
from .lattice import Neighborhood, offsets
from .signals import (DetectProbe, Follower, Signal, detect, follow,
                      follower_for_xy, log2_partition, log_anchor_signal,
                      marked_sites, product_construct)

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


def _region_check(diag) -> Check:
    """Every live cell (a, b) at time t satisfies -t <= b <= a <= t with
    both coordinates sharing t's parity."""
    bad = []
    for t in range(diag.horizon + 1):
        packed, _codes = diag.slices[t]
        if not len(packed):
            continue
        coords = unpack_cells(packed, 2)
        a, b = coords[:, 0], coords[:, 1]
        viol = (b > a) | (a > t) | (b < -t) | ((a + t) % 2 != 0) \
            | ((b + t) % 2 != 0)
        if viol.any():
            for row in coords[viol][:MISMATCH_CAP]:
                bad.append((int(row[0]), int(row[1]), t))
            if len(bad) >= MISMATCH_CAP:
                break
    return Check("live-region", not bad,
                 f"{diag.total_sites} stored sites inside the wedge",
                 _capped(bad))


def verify_log2(steps: int, *, samples: int = 50, seed: int = 7,
                budget: int = DEFAULT_SITE_BUDGET) -> VerifyReport:
    """Anchor walk, digit readout, and sheared-row shape of the binary counter.

    The simulation runs slightly past ``steps`` so that every digit row
    k <= steps is terminated inside the diagram.
    """
    if steps < 4:
        raise ValueError("need steps >= 4")
    ca = builtin_log2()
    pad = (steps + 2).bit_length() + 2
    diag = run(ca, steps + pad, budget=budget)

    checks = []

    sig = detect(diag, log2_partition(), steps)
    anchors = log_anchor_signal(2, steps)
    checks.append(_anchor_check(sig, anchors, "anchor-walk"))

    bad = []
    for k in range(steps + 1):
        want = bin(k + 1)[2:][::-1]
        got = binary_readout(diag, k)
        if got != want:
            bad.append((k, got, want))
    checks.append(Check("binary-readout", not bad,
                        f"rows k=0..{steps} read back", _capped(bad)))

    rng = random.Random(seed)
    bad = []
    tried = 0
    while tried < samples:
        k = rng.randrange(1, max(2, steps - 24))
        l = rng.randrange(1, 9)
        n = k + 1
        length = n.bit_length()
        if k + l + length > diag.horizon:
            continue
        tried += 1
        ones = 0
        while (n >> ones) & 1:
            ones += 1
        want = "1" * ones + "0" * (length - ones)
        row = w_row(diag, k, l, length + 1)
        got, term = "".join(row[:length]), row[length]
        if got != want or term != ca.quiescent:
            bad.append((k, l, got, want))
    checks.append(Check("carry-rows", not bad,
                        f"{samples} sampled rows with l >= 1", _capped(bad)))

    checks.append(_region_check(diag))

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
    construction, and the merged single-track variant."""
    if steps < 4:
        raise ValueError("need steps >= 4")
    ca = builtin_xy(x, y)
    base = x * y
    diag = run(ca, steps, budget=budget)

    checks = []

    fol = follower_for_xy(x, y)
    tr = follow(diag, fol, steps)
    anchors = log_anchor_signal(base, steps)
    checks.append(_anchor_check(tr.signal, anchors, "anchor-walk"))
    checks.append(Check(
        "no-defaulted-reads", not tr.defaulted_hits,
        "walk consumed only designed transitions",
        _capped(tr.defaulted_hits)))

    bad = []
    k = 0
    k_max = -1
    while True:
        length = len(_digits(k + 1, base))
        if k + length + 1 > steps:
            break
        k_max = k
        want = _digits(k + 1, base)
        got = base_xy_readout(diag, k, x, y)
        if got != want:
            bad.append((k, list(got), list(want)))
        k += 1
    checks.append(Check("digit-readout", not bad,
                        f"rows k=0..{k_max} read back in base {base}",
                        _capped(bad)))

    try:
        n_cells = check_planes(diag, steps)
        checks.append(Check("plane-discipline", True,
                            f"{n_cells} live cells on the two carrier planes"))
    except PlaneViolation as e:
        checks.append(Check("plane-discipline", False, str(e)))

    t_prod = min(steps, 200)
    prod = product_construct(ca, fol)
    pd = run(prod.ca, t_prod, budget=budget)
    ms = marked_sites(pd, prod.marked_states, t_prod)
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
        mdiag = run(merged, steps, budget=budget)
        mtr = follow(mdiag, mfol, steps)
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
    quiet = builtin_quiescent()
    qdiag = run(quiet, window, budget=budget)
    rng = random.Random(seed)
    bad = []
    for idx in range(count):
        fol = random_follower(rng)
        tr = follow(qdiag, fol, window)
        dec = is_basic(tr.signal, window)
        if isinstance(dec, NotPeriodicWithin):
            bad.append((idx, len(fol.states), "not periodic in window"))
            continue
        p, q = len(dec.alpha), len(dec.beta)
        if p + q > len(fol.states) + 1:
            bad.append((idx, len(fol.states), f"(p,q)=({p},{q})"))
    checks = [Check(
        "follower-walks-basic", not bad,
        f"{count} random followers, p+q <= |Q|+1 on the empty diagram",
        _capped(bad))]

    probe = DetectProbe(builtin_log2(), log2_partition(), move_horizon)
    run_probes(builtin_log2(), move_horizon, [probe], budget=budget)
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

"""Periodicity decomposition, period bounds, gap growth, readouts, search."""

import dataclasses
import itertools
import math
import random
from ast import literal_eval
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from ca_signals import (BeyondHorizon, DiagonalLetters, FollowProbe,
                        NotCoprime, NotPeriodicWithin, PeriodDecomposition,
                        Signal, analysis, builtin_log2, builtin_xy, crt_digit,
                        diagram_from_json_obj, exhaustive_two_state_search,
                        gap_probe, gap_profile, log2_partition, merged_xy, run,
                        run_probes, verification, verify_bounds, verify_xy,
                        w_site)
from ca_signals.analysis import (BELOW_LOG, CONSTANT, LOG_OR_ABOVE,
                                 SEARCH_TARGETS, _decompose, cycle_lens)
from ca_signals.automaton import LAMBDA, ImpulseCA, Literal, Rule, RuleTable
from ca_signals.engine import diagonal_start
from ca_signals.lattice import Neighborhood
from ca_signals.signals import MovePartition

from sites import letter_at
from tables import random_impulse_ca
from test_acceptance import FULL_SEARCH_DIGEST
from windowed import final_third_accept, ultimate_period

L = LAMBDA
UP, DOWN = (-1, -1), (1, 1)


def sites_from_moves(moves):
    u = (0, 0)
    out = [u]
    for m in moves:
        u = (u[0] + m[0], u[1] + m[1])
        out.append(u)
    return tuple(out)


# --- eventual periodicity ----------------------------------------------------


def test_ultimate_period_trivial_words():
    dec = ultimate_period((L,) * 8)
    assert dec == PeriodDecomposition((), (L,), 8)
    dec = ultimate_period(tuple("abcbcbcb"))
    assert dec.alpha == ("a",) and dec.beta == ("b", "c")


def test_ultimate_period_window_guards():
    with pytest.raises(ValueError):
        ultimate_period(tuple("abc"))
    with pytest.raises(ValueError):
        ultimate_period(tuple("abcd"), window=6)
    assert isinstance(ultimate_period(tuple("abcd")), NotPeriodicWithin)


def test_ultimate_period_prefers_small_preperiod():
    # (p,q) = (0,2) beats (1,2) and (0,4)
    dec = ultimate_period(tuple("10101010"))
    assert (len(dec.alpha), len(dec.beta)) == (0, 2)
    assert dec.beta == ("1", "0")


def brute_minimal_decomposition(word, h, accept):
    """Direct O(h^3) scan for the lexicographically least accepted (p, q)."""
    w = tuple(word[:h])
    best = None
    for q in range(1, h + 1):
        for p in range(0, h + 1):
            if not accept(p, q, h):
                continue
            if all(w[j] == w[p + (j - p) % q] for j in range(p, h)):
                if best is None or (p, q) < best:
                    best = (p, q)
                break
    return best


@given(st.integers(4, 40), st.data())
def test_decompose_matches_brute_force(h, data):
    word = tuple(data.draw(st.text(alphabet="ab", min_size=h, max_size=h)))
    want = brute_minimal_decomposition(word, h, final_third_accept)
    got = _decompose(word, h, final_third_accept)
    if want is None:
        assert isinstance(got, NotPeriodicWithin)
    else:
        assert (len(got.alpha), len(got.beta)) == want


@given(st.integers(4, 36), st.data())
def test_decompose_matches_brute_force_three_letters(h, data):
    word = tuple(data.draw(st.text(alphabet="abc", min_size=h, max_size=h)))
    want = brute_minimal_decomposition(word, h, final_third_accept)
    got = _decompose(word, h, final_third_accept)
    if want is None:
        assert isinstance(got, NotPeriodicWithin)
    else:
        assert (len(got.alpha), len(got.beta)) == want


# --- period bounds over diagonals ---------------------------------------------


def test_period_bounds_small_window():
    rep = verify_bounds(2, 256, builtin_log2())
    assert rep.ok
    lens = rep.params["lens"]
    assert len(lens) == 6               # lattice points with coordinate sum <= 2
    assert lens[str((0, 0))] == (0, 2)


def _windowed_lens(ca, r_max, window):
    """The windowed oracle: each diagonal's word of ``window`` letters, read
    point by point, decomposed under the final-third evidence policy."""
    points = sorted((i for i in itertools.product(range(r_max + 1),
                                                  repeat=ca.dim)
                     if sum(i) <= r_max), key=diagonal_start)
    letters = DiagonalLetters(points)
    horizon = diagonal_start(points[-1]) + window - 1
    run_probes(ca, horizon, [letters], reach=r_max)
    out = {}
    words = letters.spell([[(i, t) for t in range(diagonal_start(i),
                                                   diagonal_start(i) + window)]
                           for i in points])
    for i, word in zip(points, words):
        dec = ultimate_period(word, window)
        if isinstance(dec, PeriodDecomposition):
            out[i] = (len(dec.alpha), len(dec.beta))
    return out


def _exact_lens(ca, r_max, window):
    """Each diagonal's exact lens, read off a passing ``verify_bounds``."""
    rep = verify_bounds(r_max, window, ca)
    assert rep.ok, (ca.name, list(rep.lines()))
    return {literal_eval(i): v for i, v in rep.params["lens"].items()}


@pytest.mark.parametrize("ca", [builtin_log2(), builtin_xy(2, 3),
                                merged_xy(2, 3)], ids=lambda ca: ca.name)
def test_exact_lens_equal_the_windowed_oracle(ca):
    exact = _exact_lens(ca, 10, 4096)
    assert len(exact) == 66
    assert _windowed_lens(ca, 10, 4096) == exact


@pytest.mark.parametrize("kind", ["trellis", "moore", "von_neumann"])
@pytest.mark.parametrize("dim", [1, 2, 3])
def test_exact_lens_equal_the_windowed_oracle_on_random_tables(kind, dim):
    rng = random.Random(f"{kind}-{dim}")
    r_max = {1: 8, 2: 5, 3: 3}[dim]
    for _ in range(3):
        ca = random_impulse_ca(rng, neigh=Neighborhood(kind, dim))
        assert _windowed_lens(ca, r_max, 192) == _exact_lens(ca, r_max, 192)


@pytest.mark.parametrize("kind", ["trellis", "moore", "von_neumann"])
@pytest.mark.parametrize("dim", [1, 2, 3])
def test_each_box_gives_the_simplex_lens(kind, dim):
    # the box {j : 0 <= j <= i} and the simplex sum(j) <= r_max are both
    # closed under the update, so both decide diagonal i the same way
    rng = random.Random(f"box-{kind}-{dim}")
    r_max = {1: 8, 2: 5, 3: 3}[dim]
    for _ in range(3):
        ca = random_impulse_ca(rng, neigh=Neighborhood(kind, dim))
        for i, want in _exact_lens(ca, r_max, 192).items():
            box = itertools.product(*(range(a + 1) for a in i))
            lens, held, mu = analysis.exact_periods(ca, box, 192)
            assert lens[-1] == want, (ca.name, i)
            assert held.shape[1] == math.prod(a + 1 for a in i) and mu < 192


def test_cycle_lens_reads_each_column():
    # rows 1..4 are the cycle: row 5 would repeat row 1
    rows = np.array([[0, 3, 2, 0],
                     [1, 7, 1, 1],
                     [2, 7, 2, 2],
                     [1, 7, 1, 3],
                     [2, 7, 2, 4]])
    assert cycle_lens(rows, 1) == [(1, 2), (1, 1), (0, 2), (1, 4)]


def test_a_cap_below_the_first_repeat_decomposes_no_row():
    # log2's joint state on r <= 6 first repeats at t = 3 + 4
    short = verify_bounds(6, 6, builtin_log2())
    dec, rec, cor = short.checks
    assert not short.ok and short.params["lens"] == {}
    assert not dec.ok and dec.detail.startswith("0/28 diagonals")
    points = sorted((i for i in itertools.product(range(7), repeat=2)
                     if sum(i) <= 6), key=lambda i: (sum(i), i))
    assert dec.mismatches == tuple(points)
    assert rec.ok and cor.ok
    assert verify_bounds(6, 7, builtin_log2()).ok


def test_period_bounds_step_only_to_the_first_repeat(monkeypatch):
    seen = []

    class Times:
        def observe(self, view):
            seen.append(view.t)

    def counted(ca, steps, probes, **kwargs):
        return run_probes(ca, steps, [Times(), *probes], **kwargs)

    monkeypatch.setattr(analysis, "run_probes", counted)
    assert verify_bounds(6, 1024, builtin_log2()).ok
    # (mu, lam) = (3, 4): slices 0..7, where the old path stepped 1,030
    assert seen == list(range(8))


def test_stabilized_walks_keep_a_constant_gap():
    """Consistency of detected walks, gap_profile() and ultimate_period() on
    random rule tables.

    When a detected walk stops descending it climbs one diagonal forever,
    so its gap m(t) must stay constant from then on; and since the walk
    reads exactly that diagonal's word, a periodic part lying inside the
    stabilized stretch cannot contain the descending state class.
    """
    rng = random.Random(11)
    horizon = 96
    checked = 0
    drawn = 0
    while checked < 20:
        drawn += 1
        assert drawn <= 80, "random tables stopped producing stable walks"
        ca = random_impulse_ca(rng, n_states=3)
        down_state = ca.states[1]
        part = MovePartition({s: (DOWN if s == down_state else UP)
                              for s in ca.states})
        diag = run(ca, horizon)
        sig = diag.replay(FollowProbe(ca, part.follower(ca), horizon),
                          horizon).trace().signal
        moves = sig.moves()
        last_down = max((j for j, m in enumerate(moves) if m != (1, 1)),
                        default=-1)
        t0 = last_down + 1
        if t0 > horizon // 2:
            continue                    # did not stabilize inside the window
        checked += 1
        profile = gap_profile(sig)
        assert len(set(profile[t0:])) == 1, (ca.name, t0)
        c = t0 - sig.sites[t0][0]
        start = diagonal_start((c, c))
        letters = diag.replay(DiagonalLetters([(c, c)]), horizon)
        [word] = letters.spell([[((c, c), t) for t in range(start, horizon)]])
        dec = ultimate_period(word)
        assert not isinstance(dec, NotPeriodicWithin), (ca.name, c)
        if start + len(dec.alpha) >= t0:
            assert down_state not in dec.beta, (ca.name, c, dec)


# --- gap growth ---------------------------------------------------------------


def test_gap_probe_on_counter_walk(log2_diag):
    ca = log2_diag.ca
    walk = FollowProbe(ca, log2_partition().follower(ca), 256)
    sig = log2_diag.replay(walk, 256).trace().signal
    rep = gap_probe(sig)
    assert rep.classification == LOG_OR_ABOVE
    assert rep.fitted_C == Fraction(2)
    assert rep.c_observed == 2.0
    assert all(t >= 1 and m >= 1 for t, m in rep.samples)
    # every sample obeys t <= C**m(t)
    assert all(t <= 2 ** m for t, m in rep.samples)


def test_gap_probe_constant():
    sig = Signal(sites_from_moves([DOWN] * 128))
    rep = gap_probe(sig)
    assert rep.classification == CONSTANT
    assert rep.constant_value == 0


def test_gap_probe_flags_sublogarithmic_growth():
    # m(t) = isqrt(floor(log2(t+1))) grows like sqrt(log t): the gap jumps
    # from 2 to 3 at t = 511, inside the final half of the window, and
    # t**(1/m) keeps climbing between jumps.
    t_max = 600
    sites = tuple(
        (t - math.isqrt((t + 1).bit_length() - 1),) * 2
        for t in range(t_max + 1))
    rep = gap_probe(Signal(sites))
    assert rep.classification == BELOW_LOG
    assert rep.late_early_ratio > analysis.GROWTH_RATIO


def _fit_by_bumps(start, samples):
    """The fit as a loop: from ``start``, bump by 10**-6 until t <= C**m for
    every sample (t, m)."""
    fitted = start
    while any(t * fitted.denominator ** m > fitted.numerator ** m
              for t, m in samples):
        fitted += Fraction(1, 10 ** 6)
    return fitted


def _nearest(rep):
    return Fraction(rep.c_observed).limit_denominator(10 ** 6)


def test_gap_fit_of_a_linear_gap_is_pinned():
    # m(t) = 2t, so t**(1/m) peaks at 3**(1/6); the fit once re-checked
    # every sample with big-integer powers per bump (8 s at 4,001 sites)
    sig = Signal(tuple((t, -t) for t in range(4001)))
    rep = gap_probe(sig)
    assert rep.classification == LOG_OR_ABOVE
    assert rep.fitted_C == Fraction(1067693, 889050)
    small = gap_probe(Signal(sig.sites[:101]))
    assert small.fitted_C == _fit_by_bumps(_nearest(small), small.samples)
    assert small.fitted_C == rep.fitted_C


def test_gap_fit_equals_the_bump_loop_on_random_signals():
    rng = random.Random(15)
    fitted = 0
    for _ in range(60):
        a, n = rng.uniform(0.3, 3.0), rng.randint(64, 300)
        gaps = [min(2 * t, int(a * math.log2(t + 1)) + rng.choice((0, 0, 1)))
                for t in range(n)]
        rep = gap_probe(Signal(tuple((t - m,) for t, m in enumerate(gaps))))
        if rep.classification != LOG_OR_ABOVE:
            continue
        fitted += 1
        assert rep.fitted_C == _fit_by_bumps(_nearest(rep), rep.samples)
        # from further below, the count of bumps runs into the dozens
        start = _nearest(rep) - Fraction(rng.randint(0, 40), 10 ** 6)
        assert start + Fraction(analysis._fewest_bumps(start, rep.samples),
                                10 ** 6) == _fit_by_bumps(start, rep.samples)
    assert fitted >= 20


def test_gap_probe_needs_sites():
    with pytest.raises(ValueError):
        gap_probe(Signal(sites_from_moves([DOWN] * 32)))


# --- digit readouts -----------------------------------------------------------


def _digit_rows(rows, n_digits):
    """The sites of sheared rows (k, l), each read as its digits and their
    quiescent end, and a probe holding their diagonals."""
    sites = [[w_site(k, l, i) for i in range(n_digits(k) + 1)]
             for k, l in rows]
    return sites, DiagonalLetters(d for row in sites for d, _ in row)


def _bits(k):
    return (k + 1).bit_length()


def test_binary_readout_against_python_bin(log2_diag):
    sites, letters = _digit_rows(((k, 0) for k in range(65)), _bits)
    rows = log2_diag.replay(letters, log2_diag.horizon + 1).spell(sites)
    for k, row in enumerate(rows):
        assert "".join(row) == bin(k + 1)[2:][::-1] + L, k


def test_binary_readout_probe_streams_every_row():
    sites, letters = _digit_rows(((k, 0) for k in range(65)), _bits)
    run_probes(builtin_log2(), 80, [letters])
    assert ["".join(row) for row in letters.spell(sites)] == \
        [bin(k + 1)[2:][::-1] + L for k in range(65)]
    # the 65 rows read 8 diagonals (2i, 2i), one letter each per slice
    assert letters.points == tuple((2 * i, 2 * i) for i in range(8))
    assert letters.held.shape == (81, 8)


def test_readout_rows_that_do_not_end_are_beyond_the_horizon(log2_diag):
    def read(*ks):
        sites, letters = _digit_rows(((k, 0) for k in ks), _bits)
        return log2_diag.replay(letters, log2_diag.horizon + 1).spell(sites)

    # row 200 spells 201 = 10010011b: eight bits, then its quiescent end
    assert read(200) == [list("10010011") + [L]]
    # row 255 spells 256 = 100000000b: its end at t=264 is past t=256
    with pytest.raises(BeyondHorizon, match="t=257 outside .* 0..256"):
        read(200, 255, 300)
    with pytest.raises(BeyondHorizon, match="t=300 outside"):
        read(300)
    sites, letters = _digit_rows([(3, 0)], _bits)
    run_probes(builtin_log2(), 4, [letters])
    with pytest.raises(BeyondHorizon, match="t=5 outside simulated range "
                                            "0..4"):
        letters.spell(sites)


def test_readout_errors_surface_for_their_row(monkeypatch):
    # with rule 23, which seeds the mod-y track, sending to λ every row's
    # κ track reads quiescent next to a live π entry: each row fails with
    # the pairs it read
    base = builtin_xy(2, 3)
    rules = list(base.table.rules)
    rules[23] = Rule(rules[23].pattern, L)
    broken = dataclasses.replace(base, table=RuleTable(tuple(rules)))
    monkeypatch.setattr(verification, "builtin_xy", lambda x, y: broken)
    [digits] = [c for c in verify_xy(2, 3, 40).checks
                if c.name == "digit-readout"]
    assert not digits.ok
    assert digits.mismatches[:3] == ((0, ["π_1/λ"], [1]),
                                     (1, ["π_2/λ"], [2]),
                                     (2, ["π_1/λ"], [3]))


def base6_digits(n: int) -> tuple[int, ...]:
    out = []
    while n:
        out.append(n % 6)
        n //= 6
    return tuple(out)


def _base6_rows(rows):
    """Row k's tracks (π, κ) decoded digit by digit up to their end."""
    it = iter(rows)
    out = []
    for pi, kappa in zip(it, it):
        out.append(tuple(crt_digit(2, 3, int(a[2:]), int(b[2:]))
                         for a, b in zip(pi, kappa) if (a, b) != (L, L)))
        assert (pi[-1], kappa[-1]) == (L, L)
    return out


def test_base_xy_readout_against_int_division(xy23_diag):
    sites, letters = _digit_rows(((k, l) for k in range(41) for l in (0, 1)),
                                 lambda k: len(base6_digits(k + 1)))
    rows = xy23_diag.replay(letters, xy23_diag.horizon + 1).spell(sites)
    assert _base6_rows(rows) == [base6_digits(k + 1) for k in range(41)]


def test_crt_digit():
    assert crt_digit(2, 3, 1, 2) == 5
    assert crt_digit(2, 3, 0, 0) == 0
    assert crt_digit(1, 5, 0, 3) == 3
    seen = {crt_digit(2, 3, p % 2, k % 3) for p, k in
            ((n % 2, n % 3) for n in range(6))}
    assert seen == set(range(6))
    with pytest.raises(NotCoprime):
        crt_digit(2, 4, 0, 0)
    with pytest.raises(ValueError):
        crt_digit(2, 3, 3, 0)


def test_crt_digit_is_a_bijection_for_3_4():
    vals = {(p, k): crt_digit(3, 4, p, k) for p in range(3) for k in range(4)}
    assert sorted(vals.values()) == list(range(12))
    for (p, k), v in vals.items():
        assert v % 3 == p and v % 4 == k


def test_base_xy_readout_probe_streams_every_row():
    sites, letters = _digit_rows(((k, l) for k in range(41) for l in (0, 1)),
                                 lambda k: len(base6_digits(k + 1)))
    run_probes(builtin_xy(2, 3), 50, [letters])
    assert _base6_rows(letters.spell(sites)) == [base6_digits(k + 1) for k in range(41)]


def _planes(diag, stop=None):
    """The plane-discipline check over slices 0..stop-1 (all by default)."""
    stop = diag.horizon + 1 if stop is None else stop
    return verification._plane_check(
        diag.replay(verification._plane_scan(diag.ca), stop))


def test_check_planes_counts_and_rejects(xy23_diag):
    n_cells = sum(xy23_diag.view(t).n_sites for t in range(41))
    assert n_cells > 0
    assert _planes(xy23_diag, 41) == verification.Check(
        "plane-discipline", True,
        f"{n_cells} live cells on the two carrier planes")
    scan = verification._plane_scan(builtin_xy(2, 3))
    run_probes(builtin_xy(2, 3), 40, [scan])
    assert verification._plane_check(scan) == _planes(xy23_diag, 41)
    ca = builtin_xy(2, 3)
    bad = diagram_from_json_obj(ca, [
        {"t": 0, "cells": [{"u": [0, 0], "s": "π_1"}]},
        {"t": 1, "cells": [{"u": [1, -1], "s": "π_0"}]},
    ])
    assert _planes(bad) == verification.Check(
        "plane-discipline", False,
        "cell (1,-1) at t=1 holds 'π_0' on the κ plane")
    assert _planes(bad, 1).detail == "1 live cells on the two carrier planes"
    swapped = diagram_from_json_obj(ca, [
        {"t": 0, "cells": [{"u": [0, 0], "s": "κ_1"}]},
    ])
    assert _planes(swapped).detail == "cell (0,0) at t=0 holds 'κ_1' on " \
                                      "the π plane"
    off = diagram_from_json_obj(ca, [
        {"t": 0, "cells": []},
        {"t": 1, "cells": [{"u": [-1, 1], "s": "π_0"}]},
    ])
    assert _planes(off).detail == "cell (-1,1) at t=1 lies on plane offset -2"


def test_plane_scan_keeps_the_first_cell_off_its_plane():
    # every cell of every slice is off its plane: one is kept, all counted
    ca = builtin_xy(2, 3)
    diag = diagram_from_json_obj(ca, [
        {"t": t, "cells": [{"u": [a, t], "s": "π_1"}
                           for a in range(-t, t - 1, 2)]}
        for t in range(6)])
    scan = diag.replay(verification._plane_scan(ca), 6)
    assert scan.found == [((-1, 1), 1, "π_1")]
    assert scan.total == sum(range(6))


# --- exhaustive two-state search -----------------------------------------------


def two_state_ca(code: int) -> ImpulseCA:
    """Candidate table rebuilt rule-by-rule, for cross-checking the search."""
    live = "#"
    rules = []
    for idx in range(16):
        bits = [(idx >> 3) & 1, (idx >> 2) & 1, (idx >> 1) & 1, idx & 1]
        pat = tuple(Literal(live if b else L) for b in bits)
        out = L if idx == 0 else (live if (code >> (idx - 1)) & 1 else L)
        rules.append(Rule(pat, out))
    return ImpulseCA(
        states=(L, live), quiescent=L, seed=live,
        neighborhood=Neighborhood("trellis", 2),
        arg_order=((-1, -1), (-1, 1), (1, 1), (1, -1)),
        table=RuleTable(tuple(rules)))


def passes_targets(code: int) -> bool:
    diag = run(two_state_ca(code), 3)
    for (cell, t), want in SEARCH_TARGETS:
        live = letter_at(diag.view(t), cell) != L
        if live != bool(want):
            return False
    return True


def test_search_limited_run_is_frozen():
    rep = exhaustive_two_state_search()
    assert rep.total_candidates == 2**15
    assert rep.passing == 0
    assert rep.digest == FULL_SEARCH_DIGEST
    assert rep.checked_sites == SEARCH_TARGETS


def test_search_digest_is_stable():
    a = exhaustive_two_state_search()
    b = exhaustive_two_state_search()
    assert a.digest == b.digest
    assert a.passing == b.passing == 0


def test_search_agrees_with_the_engine_on_samples():
    rep = exhaustive_two_state_search()
    rng = random.Random(7)
    samples = {0, 1, 2**15 - 1, 0b101010101010101} | {
        rng.randrange(2**15) for _ in range(24)}
    for code in sorted(samples):
        assert passes_targets(code) == (code in rep.witnesses), code


def test_search_targets_are_the_counter_prefix(log2_diag):
    # the four forced values equal the binary counter's own first readings
    for (cell, t), want in SEARCH_TARGETS:
        live = letter_at(log2_diag.view(t), cell) == "1"
        assert live == bool(want)


def cone_values(code: int) -> dict:
    """Forced-site values for one candidate, by direct cone evaluation."""
    order = ((-1, -1), (-1, 1), (1, 1), (1, -1))

    def step_cell(cells, a, b):
        c = 0
        for dx, dy in order:
            c = 2 * c + cells.get((a + dx, b + dy), 0)
        return 0 if c == 0 else (code >> (c - 1)) & 1

    t1 = {}
    for a in (-1, 1):
        for b in (-1, 1):
            if step_cell({(0, 0): 1}, a, b):
                t1[(a, b)] = 1
    t2 = {}
    for a in (-2, 0, 2):
        for b in (-2, 0, 2):
            if step_cell(t1, a, b):
                t2[(a, b)] = 1
    return {
        ((0, 0), 0): 1,
        ((1, 1), 1): t1.get((1, 1), 0),
        ((0, 0), 2): t2.get((0, 0), 0),
        ((1, 1), 3): step_cell(t2, 1, 1),
    }


def test_search_contradiction_localizes_to_a_site_pair():
    # stronger than passing == 0: every candidate already fails on the
    # (1,1) site pair alone or on the (0,0) site pair alone
    for code in range(1 << 15):
        v = cone_values(code)
        pair_a = v[((1, 1), 1)] == 0 and v[((1, 1), 3)] == 1
        pair_b = v[((0, 0), 0)] == 1 and v[((0, 0), 2)] == 1
        assert not (pair_a and pair_b), code

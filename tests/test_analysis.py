"""Periodicity decomposition, period bounds, gap growth, readouts, search."""

import math
import random
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from ca_signals import (BaseXYReadoutProbe, BeyondHorizon, BinaryReadoutProbe,
                        DetectProbe, DiagonalProbe, NotCoprime,
                        NotPeriodicWithin, PeriodDecomposition, PlaneProbe,
                        PlaneViolation, Signal, builtin_log2, builtin_xy,
                        crt_digit, diagram_from_json_obj,
                        exhaustive_two_state_search, gap_probe, gap_profile,
                        log2_partition, run, run_probes, ultimate_period,
                        verify_period_bounds)
from ca_signals.analysis import (BELOW_LOG, CONSTANT, LOG_OR_ABOVE,
                                 SEARCH_TARGETS, _decompose)
from ca_signals.automaton import LAMBDA, ImpulseCA, Literal, Rule, RuleTable
from ca_signals.lattice import Neighborhood
from ca_signals.signals import MovePartition
from ca_signals.verification import random_impulse_ca

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


def final_third_accept(p: int, q: int, h: int) -> bool:
    return p + 2 * q <= h and h - p >= (h + 2) // 3


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
    rep = verify_period_bounds(builtin_log2(), 2, 256)
    assert rep.ok
    assert len(rep.rows) == 6           # lattice points with coordinate sum <= 2
    by_i = {r.i: r for r in rep.rows}
    assert by_i[(0, 0)].alpha_len == 0
    assert by_i[(0, 0)].beta_len == 2
    assert all(r.decomposed and r.recursive_ok and r.closed_form_ok
               for r in rep.rows)


def test_stabilized_walks_keep_a_constant_gap():
    """Consistency of DetectProbe, gap_profile() and ultimate_period() on
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
        sig = diag.replay(DetectProbe(ca, part, horizon), horizon).signal()
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
        word = DiagonalProbe((c, c), horizon - max(0, (c + 1) // 2))
        diag.replay(word, horizon)
        dec = ultimate_period(word.word(ca.quiescent))
        assert not isinstance(dec, NotPeriodicWithin), (ca.name, c)
        if word.start + len(dec.alpha) >= t0:
            assert down_state not in dec.beta, (ca.name, c, dec)


# --- gap growth ---------------------------------------------------------------


def test_gap_probe_on_counter_walk(log2_diag):
    walk = DetectProbe(log2_diag.ca, log2_partition(), 256)
    sig = log2_diag.replay(walk, 256).signal()
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
    assert rep.late_early_ratio > rep.growth_ratio


def test_gap_probe_needs_sites():
    with pytest.raises(ValueError):
        gap_probe(Signal(sites_from_moves([DOWN] * 32)))


# --- digit readouts -----------------------------------------------------------


def _replayed_rows(diag, probe):
    """A readout probe fed every slice of a retained diagram."""
    return diag.replay(probe, diag.horizon + 1)


def test_binary_readout_against_python_bin(log2_diag):
    probe = _replayed_rows(log2_diag, BinaryReadoutProbe(log2_diag.ca,
                                                         range(65)))
    for k in range(65):
        want = bin(k + 1)[2:][::-1]
        got = probe.word(k)
        assert isinstance(got, str)
        assert got == want, k


def test_binary_readout_probe_streams_every_row():
    probe = BinaryReadoutProbe(builtin_log2(), range(65))
    run_probes(builtin_log2(), 80, [probe])
    assert [probe.word(k) for k in range(65)] == \
        [bin(k + 1)[2:][::-1] for k in range(65)]
    assert len(probe.open) == 0


def test_readout_rows_that_do_not_end_are_beyond_the_horizon(log2_diag):
    # row 255 spells 256 = 100000000b: nine digits, past t=256
    probe = _replayed_rows(log2_diag, BinaryReadoutProbe(log2_diag.ca,
                                                         (200, 255, 300)))
    # row 200 spells 201 = 10010011b: eight bits, then its quiescent end
    assert probe.word(200) == "10010011"
    with pytest.raises(BeyondHorizon, match="t=257 outside"):
        probe.word(255)
    with pytest.raises(BeyondHorizon, match="t=300 outside"):
        probe.word(300)
    probe = BinaryReadoutProbe(builtin_log2(), (3,))
    run_probes(builtin_log2(), 4, [probe])
    with pytest.raises(BeyondHorizon):
        probe.word(3)


def test_readout_errors_surface_for_their_row():
    ca = builtin_xy(2, 3)
    # row (1,0) entry 0 holds a π state, row (1,1) entry 0 is empty
    bad = diagram_from_json_obj(ca, [
        {"t": 0, "cells": [{"u": [0, 0], "s": "π_1"}]},
        {"t": 1, "cells": [{"u": [1, 1], "s": "π_1"}]},
        {"t": 2, "cells": []},
        {"t": 3, "cells": []},
    ])
    probe = bad.replay(BaseXYReadoutProbe(ca, (0, 1), 2, 3), 4)
    with pytest.raises(PlaneViolation, match="rows \\(0,0\\)/\\(0,1\\)"):
        probe.word(0)
    with pytest.raises(PlaneViolation, match="rows \\(1,0\\)/\\(1,1\\)"):
        probe.word(1)
    bits = bad.replay(BinaryReadoutProbe(ca, (0,)), 4)
    with pytest.raises(ValueError, match="not a bit"):
        bits.word(0)


def base6_digits(n: int) -> tuple[int, ...]:
    out = []
    while n:
        out.append(n % 6)
        n //= 6
    return tuple(out)


def test_base_xy_readout_against_int_division(xy23_diag):
    probe = _replayed_rows(xy23_diag, BaseXYReadoutProbe(xy23_diag.ca,
                                                         range(41), 2, 3))
    for k in range(41):
        got = probe.word(k)
        assert isinstance(got, tuple)
        assert got == base6_digits(k + 1), k


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
    probe = BaseXYReadoutProbe(builtin_xy(2, 3), range(41), 2, 3)
    run_probes(builtin_xy(2, 3), 50, [probe])
    assert [probe.word(k) for k in range(41)] == \
        [base6_digits(k + 1) for k in range(41)]


def _planes(diag, stop=None):
    """PlaneProbe's count over slices 0..stop-1 (all by default)."""
    stop = diag.horizon + 1 if stop is None else stop
    return diag.replay(PlaneProbe(diag.ca), stop).count()


def test_check_planes_counts_and_rejects(xy23_diag):
    assert _planes(xy23_diag, 41) > 0
    assert _planes(xy23_diag, 41) == sum(
        xy23_diag.view(t).n_sites for t in range(41))
    probe = PlaneProbe(builtin_xy(2, 3))
    run_probes(builtin_xy(2, 3), 40, [probe])
    assert probe.count() == _planes(xy23_diag, 41)
    ca = builtin_xy(2, 3)
    bad = diagram_from_json_obj(ca, [
        {"t": 0, "cells": [{"u": [0, 0], "s": "π_1"}]},
        {"t": 1, "cells": [{"u": [1, -1], "s": "π_0"}]},
    ])
    with pytest.raises(PlaneViolation,
                       match=r"\(1,-1\) at t=1 holds 'π_0' on the κ plane"):
        _planes(bad)
    assert _planes(bad, 1) == 1
    swapped = diagram_from_json_obj(ca, [
        {"t": 0, "cells": [{"u": [0, 0], "s": "κ_1"}]},
    ])
    with pytest.raises(PlaneViolation, match="holds 'κ_1' on the π plane"):
        _planes(swapped)
    off = diagram_from_json_obj(ca, [
        {"t": 0, "cells": []},
        {"t": 1, "cells": [{"u": [-1, 1], "s": "π_0"}]},
    ])
    with pytest.raises(PlaneViolation, match="lies on plane offset -2"):
        _planes(off)


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
        live = diag.view(t).state_at(cell) != L
        if live != bool(want):
            return False
    return True


def test_search_limited_run_is_frozen():
    rep = exhaustive_two_state_search(limit=16)
    assert rep.total_candidates == 16
    assert rep.passing == 0
    assert rep.digest == ("f48e8a4f3308c23a365995d859adbf05"
                          "fc51459db77db7a100ce923a9cfebc85")
    assert rep.checked_sites == SEARCH_TARGETS


def test_search_digest_is_stable():
    a = exhaustive_two_state_search(limit=512)
    b = exhaustive_two_state_search(limit=512)
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
        live = log2_diag.view(t).state_at(cell) == "1"
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

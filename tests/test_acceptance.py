"""Acceptance gate: one test per shipped claim, run at the stated sizes.

``pytest tests/test_acceptance.py -v`` prints one pass/fail line per
criterion.  Heavy artifacts (the T=2048 counter run, the T=1500 two-track
run) are module-scoped fixtures.
"""

import ast
import math
import random
import re
import time

import numpy as np
import pytest

from ca_signals import (CellScan, FollowProbe, Signal, builtin_log2,
                        builtin_xy, dense_run, exhaustive_two_state_search,
                        follower_for_xy, gap_probe, gap_profile, ilog,
                        log2_partition, log_anchor_signal, product_construct,
                        run, run_probes, same_run, verify_basic,
                        verify_bounds, verify_log2, verify_xy)
from ca_signals.analysis import BELOW_LOG, CONSTANT, LOG_OR_ABOVE
from ca_signals.verification import CLAIMS

from tables import random_impulse_ca

pytestmark = pytest.mark.acceptance

FULL_SEARCH_DIGEST = ("436a026772a13828cab2af"
                      "d89cf4751315c4802ec0e0e1f9e725780b898d2424")


@pytest.fixture(scope="module")
def rep_log2():
    return verify_log2(2048)


@pytest.fixture(scope="module")
def rep_xy23():
    return verify_xy(2, 3, 1500)


@pytest.fixture(scope="module")
def rep_xy34():
    return verify_xy(3, 4, 600)


def _check(rep, name):
    c = next(c for c in rep.checks if c.name == name)
    assert c.ok, f"{name}: {c.detail} {c.mismatches[:5]}"
    return c


def test_criterion_1_counter_anchor_walk_to_2048(rep_log2):
    c = _check(rep_log2, "anchor-walk")
    anchors = log_anchor_signal(2, 2048)
    levels = sorted({(when - site[0]) // 2 for site, when in anchors})
    assert levels == list(range(11))
    assert "levels 0..10" in c.detail
    print("[PASS] criterion 1: detected walk hits every base-2 anchor "
          "site through t=2048, slow-down levels 0..10")


def test_criterion_2_digit_rows_to_2048(rep_log2):
    c = _check(rep_log2, "binary-readout")
    assert "k=0..2048" in c.detail
    _check(rep_log2, "carry-rows")
    print("[PASS] criterion 2: sheared rows spell the binary digits of "
          "k+1 for every k<=2048, plus 50 sampled carry rows")


def test_criterion_3_exhaustive_search_is_empty():
    t0 = time.perf_counter()
    rep = exhaustive_two_state_search()
    dt = time.perf_counter() - t0
    assert rep.total_candidates == 32768
    assert rep.passing == 0 and rep.witnesses == ()
    assert rep.digest == FULL_SEARCH_DIGEST
    assert dt < 60.0, f"search took {dt:.1f}s"
    print(f"[PASS] criterion 3: all 32768 two-state rules fail the forced "
          f"counter sites ({dt:.2f}s)")


def test_criterion_4_two_track_2_3_at_1500(rep_xy23):
    assert rep_xy23.ok, list(rep_xy23.lines())
    anchors = log_anchor_signal(6, 1500)
    levels = sorted({(when - site[0]) // 2 for site, when in anchors})
    assert levels == list(range(5))
    onset = min(t for t in range(1501) if ilog(6, t + 1) == 4)
    assert onset == 1295
    assert ((1291, 1291), 1299) in anchors
    c = _check(rep_xy23, "digit-readout")
    k_max = int(re.search(r"k=0\.\.(\d+)", c.detail).group(1))
    assert k_max >= 1296
    print("[PASS] criterion 4a: (2,3) follower walks the base-6 anchors "
          f"to t=1500 (level 4 onset t=1295) and rows k=0..{k_max} read "
          "back in base 6")


def test_criterion_4_two_track_3_4_at_600(rep_xy34):
    assert rep_xy34.ok, list(rep_xy34.lines())
    anchors = log_anchor_signal(12, 600)
    levels = sorted({(when - site[0]) // 2 for site, when in anchors})
    assert levels == list(range(3))
    print("[PASS] criterion 4b: (3,4) follower walks the base-12 anchors "
          "to t=600 and the digit rows read back in base 12")


def test_criterion_5_product_marks_equal_followed_path():
    ca = builtin_xy(2, 3)
    fol = follower_for_xy(2, 3)
    prod = product_construct(ca, fol)
    marked = np.array([s in prod.marked_states for s in prod.ca.states])
    marks = CellScan(lambda _coords, codes, _t: marked[codes])
    run_probes(prod.ca, 200, [marks])
    walk = FollowProbe(ca, fol, 200)
    run_probes(ca, 200, [walk])
    tr = walk.trace()
    full_path = {(u, t) for t, u in enumerate(tr.signal.sites)}
    assert {(u, t) for u, t, _ in marks.found} == full_path
    assert len(full_path) == 201
    for t_cap in (0, 1, 37, 200):
        want = {(u, t) for t, u in enumerate(tr.signal.sites[:t_cap + 1])}
        assert {(u, t) for u, t, _ in marks.found if t <= t_cap} == want
    print("[PASS] criterion 5: product-marked sites equal the followed "
          "path exactly for every horizon T<=200")


def _check_period_bounds(r_max, n_diagonals):
    rep = verify_bounds(r_max, 4096)
    assert rep.ok, list(rep.lines())
    lens = rep.params["lens"]
    assert len(lens) == n_diagonals
    for key, (alpha_len, beta_len) in lens.items():
        i = ast.literal_eval(key)
        r = sum(i)
        assert alpha_len < 3 * 6 ** r, (i, alpha_len)
        assert 6 ** (r + 1) % beta_len == 0, (i, beta_len)


def test_criterion_6_period_bounds_all_diagonals():
    _check_period_bounds(6, 28)
    print("[PASS] criterion 6: all 28 diagonals with r<=6 decompose "
          "within window 4096 with preperiod < 3*6^r and period | 6^(r+1)")


def test_criterion_6_period_bounds_to_r10():
    _check_period_bounds(10, 66)
    print("[PASS] criterion 6b: all 66 diagonals with r<=10 decompose "
          "within window 4096 with preperiod < 3*6^r and period | 6^(r+1)")


def test_criterion_6c_period_bounds_to_r20():
    _check_period_bounds(20, 231)
    # the joint state of the 231 diagonals first repeats at (mu, lam) =
    # (36, 64): lam is the lcm of their periods, and a cap of mu + lam - 1
    # rows is one too few
    lens = verify_bounds(20, 4096).params["lens"].values()
    assert math.lcm(*(beta for _, beta in lens)) == 64
    assert not verify_bounds(20, 99).ok and verify_bounds(20, 100).ok
    print("[PASS] criterion 6c: all 231 diagonals with r<=20 settle at the "
          "first repeat (36, 64) with preperiod < 3*6^r and period | 6^(r+1)")


def test_claim_table_ships_the_sizes_of_this_gate():
    # ``verify all`` runs CLAIMS; the fixtures and tests above state their
    # sizes themselves, so a shrink has to edit both places
    assert CLAIMS == (
        ("log2", verify_log2, {"steps": 2048}),
        ("xy(2,3)", verify_xy, {"x": 2, "y": 3, "steps": 1500}),
        ("xy(3,4)", verify_xy, {"x": 3, "y": 4, "steps": 600}),
        ("bounds", verify_bounds, {"r_max": 20, "window": 4096}),
        ("basic", verify_basic, {"count": 50}),
    )


def test_criterion_7_sparse_and_dense_engines_agree():
    rng = random.Random(20240817)
    for idx in range(100):
        ca = random_impulse_ca(rng, max_states=4)
        assert same_run(run(ca, 12), dense_run(ca, 12)), (idx, ca.name)
    log2 = builtin_log2()
    assert same_run(run(log2, 16), dense_run(log2, 16))
    print("[PASS] criterion 7: 100 random rule tables (|S|<=4) agree "
          "between engines at T=12, the counter agrees at T=16")


def test_criterion_8_follower_walks_are_basic_counter_is_not():
    rep = verify_basic(50)
    assert rep.ok, list(rep.lines())
    print("[PASS] criterion 8: 50 random followers walk ultimately "
          "periodically with p+q <= |Q|+1; the counter walk stays "
          "undecomposed over 2000 moves")


def test_criterion_9_gap_growth_classification():
    ca = builtin_log2()
    walk = FollowProbe(ca, log2_partition().follower(ca), 512)
    run_probes(ca, 512, [walk])
    sig = walk.trace().signal
    rep = gap_probe(sig)
    assert rep.classification == LOG_OR_ABOVE
    profile = gap_profile(sig)
    for site, when in log_anchor_signal(2, 512):
        t = (when + site[0]) // 2
        assert profile[when] == when - site[0] == 2 * ilog(2, t + 1)

    straight = Signal(tuple((t, t) for t in range(129)))
    assert gap_probe(straight).classification == CONSTANT
    assert gap_probe(straight).constant_value == 0

    sub = Signal(tuple((t - math.isqrt((t + 1).bit_length() - 1),) * 2
                       for t in range(601)))
    assert gap_probe(sub).classification == BELOW_LOG
    print("[PASS] criterion 9: counter walk classifies LogarithmicOrAbove "
          "with m = 2*floor(log2(t+1)) at anchors; a straight diagonal "
          "classifies Constant; sub-logarithmic growth is flagged")

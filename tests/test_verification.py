"""Report plumbing and the randomized generators behind the check suites."""

import dataclasses
import hashlib
import itertools
import json
import random

import pytest

from ca_signals import (LAMBDA, BeyondWindow, CellScan, DiagonalLetters,
                        Follower, FollowProbe, ImpulseCA, Literal, Rule,
                        RuleTable, analysis, builtin_log2, builtin_quiescent,
                        builtin_xy, dense_run, diagram_from_json_obj,
                        merged_xy, run, run_probes, same_run, verification,
                        verify_basic, verify_bounds, verify_log2, verify_xy)
from ca_signals import engine
from ca_signals.engine import SpaceTimeDiagram
from ca_signals.lattice import Neighborhood, offsets
from ca_signals.verification import (MISMATCH_CAP, Check, VerifyReport,
                                     _off_wedge, _plane_check, _plane_scan,
                                     random_follower)

import mutants
from tables import random_impulse_ca

# canonical report digests, the same as the benchmark's pinned outputs
COUNTER_1024 = "9d4e652e2aad459d2dbf119f214c4d8541c1ad4776012ac8ccb3450b728bb2fc"
TWO_TRACK_750 = "e08c90ba0b47efc2484e39373a8ae0bb8137bf809d26d23d95f33ca9891cb033"
# verify_log2(64) on the counter with rule 1 (1 λ λ λ -> 0) sending to 1
# instead, computed on the retained-diagram implementation
BROKEN_COUNTER_64 = \
    "cb77ad4ba933370da51c41496cd3cfd576f041d218a7789e171638530dd02fc5"
DIAGONALS_1024 = \
    "b5ae84279b00d85f79305aff2ec9754f76457d7e0bb1266a16b006859b59d868"
DIAGONALS_64 = \
    "2441112770993279294e4079e38078f42fe667c99312d96cc436206e291a2fbd"


def _digest(rep) -> str:
    text = json.dumps(rep.to_json_obj(), sort_keys=True, ensure_ascii=False,
                      separators=(",", ":"))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def test_check_json_shape():
    c = Check("thing", False, "broke", ((1, 2), "x"))
    obj = c.to_json_obj()
    assert obj == {"name": "thing", "ok": False, "detail": "broke",
                   "mismatches": [[1, 2], "x"]}
    json.dumps(obj)


def test_report_lines_and_json():
    rep = VerifyReport("demo", (
        Check("alpha", True, "fine"),
        Check("beta", False),
    ), params={"n": 3})
    assert not rep.ok
    lines = list(rep.lines())
    assert lines == ["[PASS] demo/alpha: fine", "[FAIL] demo/beta"]
    obj = rep.to_json_obj()
    assert obj["target"] == "demo" and obj["ok"] is False
    assert obj["params"] == {"n": 3}
    assert [c["name"] for c in obj["checks"]] == ["alpha", "beta"]
    json.dumps(obj)


def test_random_impulse_ca_is_total_and_quiescent():
    rng = random.Random(20240818)
    for _ in range(30):
        ca = random_impulse_ca(rng)
        assert isinstance(ca, ImpulseCA)
        assert ca.states[0] == LAMBDA
        assert ca.seed != LAMBDA
        for args in itertools.product(ca.states, repeat=4):
            out = ca.table.apply(args)
            assert out in ca.states
        assert ca.table.apply((LAMBDA,) * 4) == LAMBDA


def test_random_impulse_ca_respects_requested_size():
    rng = random.Random(5)
    ca = random_impulse_ca(rng, n_states=3)
    assert ca.states == (LAMBDA, "A", "B")


def test_random_followers_are_total():
    rng = random.Random(99)
    allowed = set(offsets(Neighborhood("trellis", 2)))
    for _ in range(30):
        fol = random_follower(rng)
        assert isinstance(fol, Follower)
        assert fol.initial == fol.states[0]
        for q in fol.states:
            q2, mv = fol.delta[(q, LAMBDA)]
            assert q2 in fol.states
            assert mv in allowed


def test_verify_log2_small_window():
    rep = verify_log2(16)
    assert rep.ok, list(rep.lines())
    assert rep.target == "log2"
    assert {c.name for c in rep.checks} >= {"anchor-walk", "binary-readout"}
    assert all(line.startswith("[PASS]") for line in rep.lines())


def test_verify_xy_small_window():
    rep = verify_xy(2, 3, 60)
    assert rep.ok, list(rep.lines())
    names = {c.name for c in rep.checks}
    assert {"anchor-walk", "no-defaulted-reads", "digit-readout",
            "plane-discipline", "product-marks", "merged-variant"} <= names


def test_verify_xy_skips_merged_variant_when_x_is_1():
    rep = verify_xy(1, 2, 40)
    assert rep.ok, list(rep.lines())
    merged = next(c for c in rep.checks if c.name == "merged-variant")
    assert merged.ok and "skipped" in merged.detail


def test_verify_basic_few_followers():
    rep = verify_basic(count=8)
    assert rep.ok, list(rep.lines())


def test_follower_orbits_equal_their_walks_on_the_empty_diagram():
    # the 50 followers verify_basic draws, walked 64 steps by the prober
    rng = random.Random(11)
    quiet = builtin_quiescent()
    for _ in range(50):
        fol = random_follower(rng)
        moves, mu = fol.orbit(LAMBDA)
        lam = len(moves) - mu
        assert 1 <= lam and mu + lam <= len(fol.states)
        walk = FollowProbe(quiet, fol, 64)
        run_probes(quiet, 64, [walk])
        want = [moves[t] if t < mu else moves[mu + (t - mu) % lam]
                for t in range(64)]
        assert walk.trace().signal.moves() == tuple(
            tuple(-a for a in x) for x in want)


def _record_runs(monkeypatch) -> list:
    """(CA name, steps, reach, BeyondWindow raised) of each run a claim steps
    through ``analysis.run_probes``; reach is None on the sparse engine."""
    stepped = []

    def recorded(ca, steps, probes, **kwargs):
        stepped.append([ca.name, steps, kwargs.get("reach"), False])
        try:
            return run_probes(ca, steps, probes, **kwargs)
        except BeyondWindow:
            stepped[-1][-1] = True
            raise

    monkeypatch.setattr(analysis, "run_probes", recorded)
    return stepped


def test_verify_basic_steps_only_the_counter_walk(monkeypatch):
    stepped = _record_runs(monkeypatch)
    assert verify_basic(50).ok
    # to the diagonal of the highest anchor, level 10 at t <= 2000
    assert stepped == [["log2", 2000, 20, False]]


def test_verify_xy_steps_the_merged_walk_on_the_window(monkeypatch):
    stepped = _record_runs(monkeypatch)
    assert verify_xy(2, 3, 60).ok
    # the two-track and product runs over the whole light cone; the
    # two-track walk reads no diagonal past 4 before t = 60
    assert stepped == [["xy:2,3", 60, 120, False],
                       ["product(xy:2,3)", 60, 120, False],
                       ["merged:2,3", 60, 4, False]]


def test_every_claim_steps_the_window(monkeypatch):
    stepped = _record_runs(monkeypatch)
    for claim in (lambda: verify_log2(64), lambda: verify_xy(2, 3, 60),
                  lambda: verify_bounds(3, 64), lambda: verify_basic(5)):
        del stepped[:]
        assert claim().ok
        assert stepped and all(reach is not None
                               for _, _, reach, _ in stepped), stepped


def test_merged_walk_that_leaves_the_window_fails(monkeypatch):
    # rule 5 (π_0 λ π_0|π_1|π_3 * -> π_0) writes the top symbol π_2
    # instead, so the merged walk reads it too often and climbs past the
    # two-track walk's diagonals
    base = merged_xy(2, 3)
    rules = list(base.table.rules)
    rules[5] = Rule(rules[5].pattern, "π_2")
    broken = dataclasses.replace(base, table=RuleTable(tuple(rules)))
    monkeypatch.setattr(verification, "merged_xy", lambda x, y: broken)
    stepped = _record_runs(monkeypatch)
    rep = verify_xy(2, 3, 60)
    assert [c.name for c in rep.checks if not c.ok] == ["merged-variant"]
    [merged] = [c for c in rep.checks if c.name == "merged-variant"]
    assert stepped[-1] == ["merged:2,3", 60, 4, True]
    # the mismatches end at the walked prefix's last site, the first one
    # on a diagonal past the window
    t, _two_track, site = merged.mismatches[-1]
    assert t - min(site) > 4
    assert all(t - min(site) <= 4 for t, _, site in merged.mismatches[:-1])


def test_merged_variant_leaves_the_two_track_walk_at_t_7348():
    # the shipped merged:2,3 table, unmended: both walks sit at
    # (7339, 7339) at t = 7347 and step apart
    rep = verify_xy(2, 3, 7348)
    [merged] = [c for c in rep.checks if not c.ok]
    assert merged.name == "merged-variant"
    assert merged.mismatches == ((7348, [7340, 7340], [7338, 7338]),)


def test_bounds_report_bytes_are_pinned():
    assert _digest(verify_bounds(6, 1024)) == DIAGONALS_1024
    assert _digest(verify_bounds(3, 64)) == DIAGONALS_64


def test_random_tables_still_agree_across_engines():
    rng = random.Random(424242)
    for _ in range(5):
        ca = random_impulse_ca(rng)
        assert same_run(run(ca, 8), dense_run(ca, 8))


def test_claims_stream_without_a_retained_diagram(monkeypatch):
    def refuse(*_args, **_kwargs):
        raise AssertionError("a claim built a SpaceTimeDiagram")

    monkeypatch.setattr(SpaceTimeDiagram, "__init__", refuse)
    for rep in (verify_log2(64), verify_xy(2, 3, 60), verify_basic(count=5),
                verify_bounds(3, 64)):
        assert rep.ok, list(rep.lines())


@pytest.mark.parametrize("seed", [7, 101])
def test_counter_report_bytes_are_pinned(seed):
    assert _digest(verify_log2(1024, seed=seed)) == COUNTER_1024


def test_two_track_report_bytes_are_pinned():
    assert _digest(verify_xy(2, 3, 750)) == TWO_TRACK_750


def test_failing_counter_report_bytes_are_pinned(monkeypatch):
    base = builtin_log2()
    rules = list(base.table.rules)
    rules[1] = Rule(rules[1].pattern, "1")
    broken = dataclasses.replace(base, table=RuleTable(tuple(rules)))
    monkeypatch.setattr(verification, "builtin_log2", lambda: broken)
    rep = verify_log2(64)
    assert [c.name for c in rep.checks if not c.ok] == [
        "anchor-walk", "binary-readout", "carry-rows", "gap-classification"]
    assert _digest(rep) == BROKEN_COUNTER_64


def test_live_region_fails_on_the_window_as_on_a_sparse_replay(monkeypatch):
    """The counter with the one entry (λ, λ, λ, 1) sent to 1 instead of λ:
    cell (-1, 1) at t = 1, whose only live argument is d = (0, 0), lights
    on diagonal (2, 0), i₁ < i₀, and more follow.  The window's box scan
    must report the first of them as a scan of the retained sparse slices
    does."""
    base = builtin_log2()
    lit = dict(zip(base.states, (Literal(s) for s in base.states)))
    entry = Rule((lit[LAMBDA], lit[LAMBDA], lit[LAMBDA], lit["1"]), "1")
    broken = dataclasses.replace(
        base, table=RuleTable((entry,) + base.table.rules))
    monkeypatch.setattr(verification, "builtin_log2", lambda: broken)
    steps = 16
    rep = verify_log2(steps)
    [region] = [c for c in rep.checks if c.name == "live-region"]
    assert not region.ok
    # verify_log2's run goes slightly past steps, to end every digit row
    horizon = steps + (steps + 2).bit_length() + 2
    scan = run(broken, horizon).replay(CellScan(_off_wedge, cap=MISMATCH_CAP),
                                       horizon + 1)
    assert len(scan.found) == MISMATCH_CAP
    assert scan.found[0] == ((-1, 1), 1, "1")
    assert region.mismatches == tuple((*u, t) for u, t, _ in scan.found)
    assert region.detail == f"{scan.total} stored sites inside the wedge"


def test_plane_discipline_fails_on_the_window_as_on_a_sparse_replay(
        monkeypatch):
    """The two-track counter with the one entry (λ, λ, λ, π_1) sent to π_1
    instead of λ: cell (-1, 1) at t = 1, whose only live argument is the
    seed, lights on plane offset -2, off both carrier planes.  The window's
    box scan must report the first live cell off its plane as a scan of
    the retained sparse slices does."""
    base = builtin_xy(2, 3)
    lit = dict(zip(base.states, (Literal(s) for s in base.states)))
    entry = Rule((lit[LAMBDA], lit[LAMBDA], lit[LAMBDA], lit["π_1"]), "π_1")
    broken = dataclasses.replace(
        base, table=RuleTable((entry,) + base.table.rules))
    monkeypatch.setattr(verification, "builtin_xy", lambda x, y: broken)
    steps = 60
    rep = verify_xy(2, 3, steps)
    [planes] = [c for c in rep.checks if c.name == "plane-discipline"]
    scan = run(broken, steps).replay(_plane_scan(broken), steps + 1)
    assert scan.found[0] == ((-1, 1), 1, "π_1")
    want = _plane_check(scan)
    assert not planes.ok and not want.ok
    assert planes.detail == want.detail == \
        "cell (-1,1) at t=1 lies on plane offset -2"


def _claim_letters(monkeypatch, claim):
    """The one DiagonalLetters probe a passing claim builds, and the rows of
    sites it spells."""
    made = []

    class Recording(DiagonalLetters):
        def spell(self, rows):
            rows = [list(row) for row in rows]
            made.append((self, rows))
            return super().spell(rows)

    monkeypatch.setattr(verification, "DiagonalLetters", Recording)
    assert claim().ok
    [(letters, rows)] = made
    return letters, rows


@pytest.mark.parametrize("ca,claim,n_rows", [
    (builtin_log2(), lambda: verify_log2(64), 65 + 50),
    (builtin_xy(2, 3), lambda: verify_xy(2, 3, 44), 2 * 41),
], ids=["log2", "xy:2,3"])
def test_claim_readouts_read_the_same_on_the_window(monkeypatch, ca, claim,
                                                    n_rows):
    # log2: digit rows k <= 64 and the carry rows; xy:2,3: both tracks of
    # rows k <= 40.  Entry (k, l, i) lies on diagonal (2i, 2i + 2l).
    letters, rows = _claim_letters(monkeypatch, claim)
    assert len(rows) == n_rows
    points = letters.points
    assert set(points) == {d for row in rows for d, _ in row}
    steps = max(t for row in rows for _, t in row)
    reach = max(map(max, points))
    sparse, window = DiagonalLetters(points), DiagonalLetters(points)
    run_probes(ca, steps, [sparse])
    run_probes(ca, steps, [window], reach=reach)
    assert window.held.tolist() == sparse.held.tolist()
    assert window.spell(rows) == sparse.spell(rows) == letters.spell(rows)
    with pytest.raises(BeyondWindow):
        run_probes(ca, steps, [DiagonalLetters(points)], reach=reach - 1)


def test_region_probe_reports_cells_off_the_wedge():
    diag = diagram_from_json_obj(builtin_log2(), [
        {"t": 0, "cells": [{"u": [0, 0], "s": "1"}]},
        {"t": 1, "cells": [{"u": [-1, 1], "s": "0"},
                           {"u": [1, -1], "s": "1"}]},
    ])
    scan = diag.replay(CellScan(_off_wedge, cap=MISMATCH_CAP), 2)
    assert scan.total == 3
    assert scan.found == [((-1, 1), 1, "0")]


def test_region_probe_keeps_no_more_than_a_report_shows():
    # every slice holds cells with b > a, more in all than a report lists
    slices = [{"t": t, "cells": [{"u": [a, b], "s": "1"}
                                 for a in range(-t, t + 1, 2)
                                 for b in range(a + 2, t + 1, 2)]}
              for t in range(20)]
    diag = diagram_from_json_obj(builtin_log2(), slices)
    scan = diag.replay(CellScan(_off_wedge, cap=MISMATCH_CAP), 20)
    assert scan.total == sum(len(s["cells"]) for s in slices)
    assert scan.total > 10 * MISMATCH_CAP
    assert len(scan.found) == MISMATCH_CAP
    assert scan.found[0] == ((-1, 1), 1, "1")


# --- the rule-table proof that a claim's scan finds nothing ------------------

PROVEN = [builtin_log2(), builtin_xy(2, 3), builtin_xy(3, 4), builtin_xy(2, 5),
          builtin_xy(5, 7)]


def _select(ca):
    """The select of the claim's scan over every live cell of ``ca``."""
    return _off_wedge if ca.name == "log2" else _plane_scan(ca).select


def _report_text(rep) -> tuple[str, list[str]]:
    return (json.dumps(rep.to_json_obj(), sort_keys=True, ensure_ascii=False),
            list(rep.lines()))


@pytest.mark.parametrize("ca", PROVEN, ids=lambda ca: ca.name)
def test_proof_classes_recur(ca):
    """The classes the proof checks, t <= PROOF_STEPS, hold every class of
    a later t up to 4 * PROOF_STEPS, and the proof holds."""
    k, select = engine.PROOF_STEPS, _select(ca)
    early = engine._scan_classes(ca, select, range(1, k + 1))
    later = engine._scan_classes(ca, select, range(k + 1, 4 * k + 1))
    assert later <= early
    assert engine.scan_never_fires(ca, select)


def test_proof_fails_on_the_hand_picked_entries():
    """The entries (λ, λ, λ, 1) -> 1 of the counter and (λ, λ, λ, π_1) -> π_1
    of the two-track counter, which the live-region and plane-discipline
    scans catch, break the proof."""
    for base, live in [(builtin_log2(), "1"), (builtin_xy(2, 3), "π_1")]:
        lit = dict(zip(base.states, (Literal(s) for s in base.states)))
        entry = Rule((lit[LAMBDA],) * 3 + (lit[live],), live)
        broken = dataclasses.replace(
            base, table=RuleTable((entry,) + base.table.rules))
        assert engine.scan_never_fires(base, _select(base))
        assert not engine.scan_never_fires(broken, _select(broken))


def _gate_keeps_reports(monkeypatch, make, claim, cas) -> int:
    """Each mutant's report FAILs, and is the same with the proof as with
    the scan alone; returns how many were proven."""
    proven = 0
    for ca in cas:
        monkeypatch.setattr(verification, make, lambda *_: ca)
        rep = claim()
        assert not rep.ok, ca.table.tup
        gated = _report_text(rep)
        if engine.scan_never_fires(ca, _select(ca)):
            proven += 1
            with monkeypatch.context() as mp:
                mp.setattr(verification, "scan_never_fires", lambda *_: False)
                assert _report_text(claim()) == gated, ca.table.tup
    return proven


def test_proof_never_changes_a_counter_report(monkeypatch):
    claim = lambda: verify_log2(128)
    tups = mutants.applied(monkeypatch, builtin_log2(), claim)
    assert len(tups) == 28
    cas = list(mutants.mutants(builtin_log2(), tups))
    assert len(cas) == 54
    assert 0 < _gate_keeps_reports(monkeypatch, "builtin_log2", claim,
                                   cas) < len(cas)


def test_proof_never_changes_a_two_track_report(monkeypatch):
    claim = lambda: verify_xy(2, 3, 60)
    tups = mutants.applied(monkeypatch, builtin_xy(2, 3), claim)
    assert len(tups) == 71
    cas = list(mutants.mutants(builtin_xy(2, 3), tups))
    assert len(cas) == 490
    sample = random.Random(24).sample(cas, 40)
    assert 0 < _gate_keeps_reports(monkeypatch, "builtin_xy", claim,
                                   sample) < len(sample)


def test_scans_find_nothing_where_the_proof_holds():
    """The wedge and plane scans, run as oracles at the shipped sizes on the
    window, find nothing and count what a ``SiteCount`` counts."""
    for ca, steps in zip(PROVEN, (2048, 1500)):
        assert engine.scan_never_fires(ca, _select(ca))
        scan, count = CellScan(_select(ca)), engine.SiteCount()
        run_probes(ca, steps, [scan, count], reach=2 * steps)
        assert not scan.found
        assert scan.total == count.total > steps

"""Signals: detection walks, followers, the product construction, anchors."""

import json
import random

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from ca_signals import (AlphabetMismatch, CheckFailed, DetectProbe, Follower,
                        FollowProbe, MarkedProbe, MoveConvention, NotCoprime,
                        NotPeriodicWithin, Signal, UnknownState, builtin_log2,
                        builtin_quiescent, builtin_xy, follower_for_xy,
                        gap_profile, is_basic, log2_partition,
                        log_anchor_signal, parse_move_partition,
                        product_construct, run, run_probes)
from ca_signals import engine, signals
from ca_signals.cli import EXIT_FAIL, main
from ca_signals.engine import _Evaluator, dense_run, same_run
from ca_signals.lattice import Neighborhood, offsets
from ca_signals.signals import MovePartition, ilog, valid_moves
from ca_signals.verification import random_impulse_ca

L = "λ"
UP = (-1, -1)    # negated convention: the site step is u - x
DOWN = (1, 1)


def sites_from_moves(moves):
    u = (0, 0)
    out = [u]
    for m in moves:
        u = (u[0] + m[0], u[1] + m[1])
        out.append(u)
    return tuple(out)


# --- Signal basics ----------------------------------------------------------


def test_signal_must_start_at_origin():
    with pytest.raises(ValueError):
        Signal(((1, 1), (2, 2)))
    with pytest.raises(ValueError):
        Signal(())


def test_signal_moves_and_json():
    sig = Signal(((0, 0), (1, 1), (0, 0)))
    assert sig.moves() == ((1, 1), (-1, -1))
    assert sig.horizon == 2
    back = Signal.from_json_obj(json.loads(sig.dumps()))
    assert back == sig
    with pytest.raises(ValueError):
        Signal.from_json_obj([{"t": 0, "u": [0, 0]}, {"t": 2, "u": [1, 1]}])


def test_valid_moves_checks_neighborhood():
    tre = Neighborhood("trellis", 2)
    good = Signal(sites_from_moves([(1, 1), (-1, 1)]))
    bad = Signal(sites_from_moves([(1, 0)]))
    assert valid_moves(good, tre)
    assert not valid_moves(bad, tre)


def test_partition_text_round_trip():
    p = parse_move_partition("0:(1,1);1:(-1,-1);λ:(1,1)", 2)
    assert p.classes == {"0": (1, 1), "1": (-1, -1), L: (1, 1)}
    assert parse_move_partition("lambda:(1,1)", 2).classes == {L: (1, 1)}
    with pytest.raises(ValueError):
        parse_move_partition("0:(1,1);0:(1,1)", 2)
    with pytest.raises(ValueError):
        parse_move_partition("", 2)


def test_partition_validation():
    with pytest.raises(AlphabetMismatch):
        DetectProbe(builtin_log2(), MovePartition({"0": DOWN}), 4)
    with pytest.raises(AlphabetMismatch):
        DetectProbe(builtin_log2(),
                    MovePartition({"0": DOWN, "1": UP, L: (2, 0)}), 4)


# --- detection --------------------------------------------------------------


def _replayed(diag, probe):
    """A walk probe fed the diagram's slices up to its last step."""
    return diag.replay(probe, probe.steps)


def test_detect_counter_walk_first_steps(log2_diag):
    sig = _replayed(log2_diag, DetectProbe(log2_diag.ca, log2_partition(),
                                           8)).signal()
    assert sig.sites[:5] == ((0, 0), (1, 1), (0, 0), (1, 1), (2, 2))


def test_detect_streaming_probe_agrees(log2_diag):
    probe = DetectProbe(builtin_log2(), log2_partition(), 64)
    run_probes(builtin_log2(), 64, [probe])
    retained = _replayed(log2_diag, DetectProbe(log2_diag.ca,
                                                log2_partition(), 64))
    assert probe.signal() == retained.signal()


def _streamed_signal(ca, partition, steps, **kwargs):
    probe = DetectProbe(ca, partition, steps, **kwargs)
    run_probes(ca, steps, [probe])
    return probe.signal()


def test_detect_on_quiescent_is_the_diagonal():
    sig = _streamed_signal(builtin_quiescent(), MovePartition({L: UP}), 64)
    assert sig.sites == tuple((t, t) for t in range(65))


def test_detect_as_written_flips_the_walk():
    sig = _streamed_signal(builtin_quiescent(), MovePartition({L: UP}), 8,
                           convention=MoveConvention.AS_WRITTEN)
    assert sig.sites == tuple((-t, -t) for t in range(9))


def test_detect_refuses_a_walk_off_the_neighborhood(monkeypatch, log2_diag,
                                                    capsys):
    step = signals._step_site
    monkeypatch.setattr(signals, "_step_site",
                        lambda u, x, conv: step(step(u, x, conv), x, conv))
    probe = _replayed(log2_diag, DetectProbe(log2_diag.ca, log2_partition(),
                                             4))
    with pytest.raises(CheckFailed):
        probe.signal()
    # the streamed walk runs the same check
    assert main(["detect", "--ca", "log2", "--steps", "4"]) == EXIT_FAIL
    assert main(["analyze", "gap", "--ca", "log2", "--steps", "64"]) \
        == EXIT_FAIL
    assert "outside the neighborhood" in capsys.readouterr().err


# --- anchors ----------------------------------------------------------------


def test_log_anchor_examples():
    assert log_anchor_signal(2, 0) == ((((0, 0)), 0),)
    a = dict(((s, w), None) for s, w in log_anchor_signal(2, 8))
    assert (((0, 0)), 0) in a and (((0, 0)), 2) in a
    sched = log_anchor_signal(2, 8)
    assert sched[0] == ((0, 0), 0)
    assert sched[1] == ((0, 0), 2)
    assert sched[2] == ((1, 1), 3)
    assert sched[3] == ((1, 1), 5)
    b6 = dict(log_anchor_signal(6, 8))
    assert b6[(4, 4)] == 6          # first slow-down of the base-6 counter


def test_log_anchor_times_strictly_increase():
    sched = log_anchor_signal(2, 300)
    whens = [w for _s, w in sched]
    assert whens == sorted(whens) and len(set(whens)) == len(whens)


def test_ilog_guard():
    assert ilog(2, 1) == 0 and ilog(2, 8) == 3 and ilog(6, 6) == 1
    with pytest.raises(ValueError):
        ilog(1, 5)
    with pytest.raises(ValueError):
        ilog(2, 0)


def test_log_floor_property_to_1e6():
    # b**l <= t+1 < b**(l+1), exercised with integer arithmetic only
    for b in (2, 6):
        for t in range(10 ** 6 + 1):
            l = ilog(b, t + 1)
            assert b ** l <= t + 1 < b ** (l + 1)


def test_anchor_inclusion_to_4096():
    ca = builtin_log2()
    probe = DetectProbe(ca, log2_partition(), 4096)
    run_probes(ca, 4096, [probe])
    sig = probe.signal()
    anchors = log_anchor_signal(2, 4096)
    for site, when in anchors:
        assert sig.sites[when] == site, (site, when)


# --- followers --------------------------------------------------------------


def test_follower_for_xy_delta_examples():
    f = follower_for_xy(2, 3)
    assert f.initial == "a_1"
    assert f.delta[("a_3", "π_2")] == ("a_1", (1, 1))
    assert f.delta[("a_1", "π_1")] == ("a_1", (-1, -1))
    assert f.delta[("a_1", "π_2")] == ("a_2", (-1, -1))
    # unlisted pairs are default-filled and flagged
    assert ("a_1", "κ_0") in f.defaulted
    assert f.delta[("a_1", "κ_0")] == ("a_1", (-1, -1))
    with pytest.raises(NotCoprime):
        follower_for_xy(2, 4)


def test_follower_totality_enforced():
    with pytest.raises(ValueError):
        Follower(states=("a",), initial="a", delta={("a", "x"): ("a", UP),
                                                    ("b", "y"): ("b", UP)})
    with pytest.raises(ValueError):
        Follower(states=("a",), initial="z", delta={("a", "x"): ("a", UP)})


@pytest.mark.parametrize("obj", [
    [{"t": 0, "u": [0.9, 0]}, {"t": 1.0, "u": [1.7, "1"]}],
    [{"t": 0, "u": [0, 0]}, {"t": 1, "u": [1.7, 1]}],
    [{"t": 0, "u": [0, 0]}, {"t": 1, "u": [1, "1"]}],
    [{"t": 0, "u": [0, 0]}, {"t": True, "u": [1, 1]}],
    [{"t": 0, "u": [False, 0]}],
])
def test_signal_json_rejects_non_integers(obj):
    # int() would have truncated these to sites ((0,0), (1,1))
    with pytest.raises(ValueError, match="non-integer|must be"):
        Signal.from_json_obj(obj)


@pytest.mark.parametrize("move", [[0.5, "-1"], [0.0, 1], [1, "1"],
                                  [True, 1]])
def test_follower_json_rejects_non_integer_moves(move):
    obj = {"states": ["a"], "initial": "a",
           "delta": [{"q": "a", "s": L, "q2": "a", "move": move}]}
    with pytest.raises(ValueError, match="non-integer component"):
        Follower.from_json_obj(obj)


def test_follower_json_round_trip():
    f = follower_for_xy(2, 3)
    back = Follower.from_json_obj(json.loads(f.dumps()))
    assert back.states == f.states
    assert back.initial == f.initial
    assert back.delta == f.delta


def test_follow_trace_on_xy(xy23_diag):
    tr = _replayed(xy23_diag, FollowProbe(xy23_diag.ca, follower_for_xy(2, 3),
                                          12)).trace()
    assert tr.signal.sites == (
        (0, 0), (1, 1), (2, 2), (3, 3), (4, 4), (5, 5),
        (4, 4), (5, 5), (6, 6), (7, 7), (8, 8), (9, 9), (10, 10))
    assert tr.automaton_states[:7] == (
        "a_1", "a_1", "a_2", "a_2", "a_3", "a_3", "a_1")
    assert not tr.defaulted_hits
    probe = FollowProbe(builtin_xy(2, 3), follower_for_xy(2, 3), 12)
    run_probes(builtin_xy(2, 3), 12, [probe])
    assert probe.trace() == tr


def test_follow_missing_transition_raises(log2_diag):
    f = Follower(states=("a",), initial="a", delta={("a", L): ("a", UP)})
    with pytest.raises(AlphabetMismatch):
        _replayed(log2_diag, FollowProbe(log2_diag.ca, f, 4))


def test_constant_follower_walks_a_line():
    ca = builtin_quiescent()
    f = Follower(states=("a",), initial="a", delta={("a", L): ("a", UP)})
    probe = FollowProbe(ca, f, 16)
    run_probes(ca, 16, [probe])
    assert probe.trace().signal.sites == tuple((t, t) for t in range(17))


# --- product construction ---------------------------------------------------


def test_product_state_count():
    prod = product_construct(builtin_xy(2, 3), follower_for_xy(2, 3))
    assert len(prod.ca.states) == 32          # 8 * (1 + 3)
    assert len(prod.marked_states) == 24


def test_product_of_quiescent_is_two_states():
    base = builtin_quiescent()
    f = Follower(states=("a",), initial="a", delta={("a", L): ("a", UP)})
    prod = product_construct(base, f)
    assert len(prod.ca.states) == 2


def test_product_rejects_alphabet_mismatch():
    f = follower_for_xy(2, 3)
    with pytest.raises(AlphabetMismatch):
        product_construct(builtin_log2(), f)


def test_product_of_a_moore_3_base_runs():
    # 27 arguments: neither the base nor the product table is tabulated
    base = random_impulse_ca(random.Random(3), n_states=2,
                             neigh=Neighborhood("moore", 3))
    f = Follower(("a",), "a",
                 {("a", s): ("a", (0, 0, 0)) for s in base.states})
    prod = product_construct(base, f)
    assert _Evaluator(prod.ca).flat is None
    diag = run(prod.ca, 4)
    assert diag.total_sites > 1
    assert same_run(diag, dense_run(prod.ca, 4))


def test_product_table_above_the_limit_runs_the_memo_evaluator(monkeypatch):
    # xy:2,3 has 32 product states, so 32**4 codes: above FLAT_ENUM_LIMIT
    prod = product_construct(builtin_xy(2, 3), follower_for_xy(2, 3))
    assert len(prod.ca.states) ** 4 > engine.FLAT_ENUM_LIMIT
    assert _Evaluator(prod.ca).flat is None
    memo = run(prod.ca, 20)
    with monkeypatch.context() as m:
        m.setattr(engine, "FLAT_ENUM_LIMIT", 32**4)
        assert len(_Evaluator(prod.ca).flat) == 32**4
        flat = run(prod.ca, 20)
    assert same_run(memo, flat)
    assert same_run(memo, dense_run(prod.ca, 20))


def test_large_product_table_is_not_allocated(monkeypatch):
    # xy:5,7 would need (15 * 8)**4 = 207 M codes
    prod = product_construct(builtin_xy(5, 7), follower_for_xy(5, 7))
    full = np.full

    def bounded(n, *args, **kwargs):
        if n > engine.FLAT_ENUM_LIMIT:
            raise AssertionError(f"allocated {n} codes")
        return full(n, *args, **kwargs)

    monkeypatch.setattr(np, "full", bounded)
    assert _Evaluator(prod.ca).flat is None


def _marked(diag, subset, t_max):
    """MarkedProbe's sites over slices 0..t_max of a retained diagram."""
    return diag.replay(MarkedProbe(diag.ca, subset), t_max + 1).found


def test_marked_probe_streams_the_marked_sites(log2_diag):
    probe = MarkedProbe(builtin_log2(), {"1"})
    run_probes(builtin_log2(), 30, [probe])
    assert probe.found == _marked(log2_diag, {"1"}, 30)


def test_product_marks_equal_follow_path(xy23_diag):
    prod = product_construct(builtin_xy(2, 3), follower_for_xy(2, 3))
    pd = run(prod.ca, 40)
    marks = _marked(pd, prod.marked_states, 40)
    walk = FollowProbe(xy23_diag.ca, follower_for_xy(2, 3), 40)
    path = _replayed(xy23_diag, walk).trace().signal
    assert marks == {(u, t) for t, u in enumerate(path.sites)}


def test_marked_sites_on_log2(log2_diag):
    # t=1 holds a live 1 at (1,-1); the diagonal cell (1,1) is a 0
    assert _marked(log2_diag, {"1"}, 1) == {((0, 0), 0), ((1, -1), 1)}
    assert log2_diag.view(1).state_at((1, 1)) == "0"
    assert _marked(log2_diag, set(), 3) == set()
    with pytest.raises(UnknownState):
        MarkedProbe(log2_diag.ca, {"no-such-state"})


# --- basic-signal test ------------------------------------------------------


def test_is_basic_constant_moves():
    sig = Signal(sites_from_moves([DOWN] * 16))
    dec = is_basic(sig)
    assert (len(dec.alpha), len(dec.beta)) == (0, 1)
    assert dec.beta == (DOWN,)


def test_is_basic_preperiod_example():
    a, b, c = (-1, 1), (1, 1), (1, -1)
    sig = Signal(sites_from_moves([a, b, c, b, c, b, c, b, c]))
    dec = is_basic(sig)
    assert (len(dec.alpha), len(dec.beta)) == (1, 2)
    assert dec.alpha == (a,) and set(dec.beta) == {b, c}


def test_is_basic_rejects_counter_walk():
    ca = builtin_log2()
    probe = DetectProbe(ca, log2_partition(), 200)
    run_probes(ca, 200, [probe])
    res = is_basic(probe.signal())
    assert isinstance(res, NotPeriodicWithin)
    assert res.window == 200


def test_is_basic_window_guards():
    sig = Signal(sites_from_moves([DOWN] * 16))
    with pytest.raises(ValueError):
        is_basic(sig, horizon=3)
    with pytest.raises(ValueError):
        is_basic(sig, horizon=17)


def test_gap_profile():
    sig = Signal(((0, 0), (1, 1), (0, 0), (1, 1)))
    assert gap_profile(sig) == [0, 0, 2, 2]


# --- properties -------------------------------------------------------------


@given(st.integers(0, 400))
def test_quiescent_detect_is_diagonal_any_horizon(t_max):
    sig = _streamed_signal(builtin_quiescent(), MovePartition({L: UP}), t_max)
    assert sig.sites == tuple((t, t) for t in range(t_max + 1))


@given(st.sampled_from([2, 3, 6, 10]), st.integers(0, 2000))
def test_anchor_l_is_integer_log(base, t):
    level = ilog(base, t + 1)
    assert base ** level <= t + 1
    assert base ** (level + 1) > t + 1


@given(st.lists(st.sampled_from(sorted(offsets(Neighborhood("trellis", 2)))),
                min_size=0, max_size=40))
def test_signal_moves_round_trip(moves):
    sig = Signal(sites_from_moves(moves))
    assert sig.moves() == tuple(moves)
    assert valid_moves(sig, Neighborhood("trellis", 2),
                       MoveConvention.AS_WRITTEN)

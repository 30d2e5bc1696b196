"""Both engines, the packed storage, diagonal words, and the sheared rows."""

import copy
import json
import random
from itertools import product

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from ca_signals import (BeyondHorizon, BeyondWindow, CoordinateOverflow,
                        DiagonalProbe, OverflowHorizon, builtin_log2,
                        builtin_quiescent, builtin_xy, dense_run,
                        diagram_from_json_obj, max_horizon, merged_xy, run,
                        run_probes, same_run, verify_xy, w_site)
from ca_signals import engine
from ca_signals.engine import (FLAT_ENUM_LIMIT, ReadSchedule, diagonal_start,
                               pack_cells, unpack_cells)
from ca_signals.lattice import Neighborhood
from ca_signals.verification import random_impulse_ca

L = "λ"


def test_seed_slice_and_frozen_early_cells(log2_diag):
    assert list(log2_diag.view(0).cells()) == [((0, 0), "1")]
    assert dict(log2_diag.view(1).cells()) == {(1, -1): "1", (1, 1): "0"}
    assert dict(log2_diag.view(3).cells()) == {
        (1, -1): "0", (1, 1): "1",
        (3, -3): "1", (3, -1): "0", (3, 1): "1", (3, 3): "0",
    }


def test_state_at_defaults_quiescent(log2_diag):
    assert log2_diag.view(0).state_at((0, 0)) == "1"
    assert log2_diag.view(2).state_at((100, 100)) == L
    with pytest.raises(BeyondHorizon):
        log2_diag.view(log2_diag.horizon + 1)
    with pytest.raises(ValueError):
        log2_diag.view(0).state_at((0, 0, 0))
    # 1 + 2**31 overflows its packed field; read as a key it would alias
    # the live cell (1, 1)
    assert log2_diag.view(1).state_at((1, 1)) == "0"
    assert log2_diag.view(1).state_at((1, 1 + 2**31)) == L
    assert log2_diag.view(0).state_at((2**31, 0)) == L


def test_view_is_the_stored_slice(log2_diag):
    view = log2_diag.view(3)
    packed, codes = log2_diag.slices[3]
    assert view.t == 3 and view.n_sites == len(packed)
    assert list(view.cells()) == [
        (tuple(u), log2_diag.ca.states[c])
        for u, c in zip(unpack_cells(packed, 2).tolist(), codes)]
    assert view.state_at((3, -3)) == "1"
    for t in (-1, log2_diag.horizon + 1):
        with pytest.raises(BeyondHorizon):
            log2_diag.view(t)


def test_run_is_deterministic():
    ca = builtin_xy(2, 3)
    assert same_run(run(ca, 40), run(ca, 40))


@pytest.mark.parametrize("builder,steps", [
    (builtin_log2, 16),
    (lambda: builtin_xy(2, 3), 12),
    (lambda: builtin_xy(1, 2), 12),
    (lambda: merged_xy(2, 3), 12),
    (builtin_quiescent, 8),
])
def test_sparse_equals_dense(builder, steps):
    ca = builder()
    assert same_run(run(ca, steps), dense_run(ca, steps))


class _Recorder:
    """Probe that keeps each streamed slice and two reads off its cone."""

    def __init__(self):
        self.cells, self.far = [], []

    def observe(self, view):
        t, dim = view.t, view.ca.dim
        self.cells.append(list(view.cells()))
        self.far.append((view.state_at((t + 1,) + (0,) * (dim - 1)),
                         view.state_at((2**31,) + (0,) * (dim - 1))))


# (kind, dim, horizon, max_states): alphabets stay small so that dense_run,
# which applies the rule list cell by cell, stays fast.  Moore dim 3 has 27
# arguments, so even two states exceed FLAT_ENUM_LIMIT and its tables cache
# their results in the memo dict.
CROSS_CHECK = [
    ("trellis", 1, 16, 4), ("trellis", 2, 10, 4), ("trellis", 3, 8, 3),
    ("von_neumann", 1, 16, 4), ("von_neumann", 2, 10, 4),
    ("von_neumann", 3, 8, 3),
    ("moore", 1, 16, 4), ("moore", 2, 8, 3), ("moore", 3, 6, 3),
]
# Tables per row.  Only a table with three or more states can show two live
# states, and about two in three of those do, so a dozen tables make a row
# that never shows two live states unlikely.
CROSS_CHECK_TABLES = 12


def _assert_window_matches(ca, diag, steps):
    """The diagonal window [0, R]^dim, R = steps // 2, against a full run:
    every diagonal word it holds and every live cell on its diagonals."""
    reach = steps // 2
    lam = ca.quiescent
    probes = [DiagonalProbe(i, steps + 1 - diagonal_start(i))
              for i in product(range(reach + 1), repeat=ca.dim)]
    rec = _Recorder()
    run_probes(ca, steps, probes + [rec], reach=reach)
    for p in probes:
        want = diag.replay(DiagonalProbe(p.i, p.length), steps + 1)
        assert p.word(lam) == want.word(lam), (ca.name, p.i)
    for t in range(steps + 1):
        want = [(u, s) for u, s in diag.view(t).cells()
                if max(t - a for a in u) <= reach]
        assert rec.cells[t] == want, (ca.name, t)
        assert rec.far[t] == (lam, lam)


@pytest.mark.parametrize("kind,dim,steps,max_states", CROSS_CHECK,
                         ids=[f"{k}-{d}" for k, d, *_ in CROSS_CHECK])
def test_sparse_equals_dense_on_random_tables(kind, dim, steps, max_states,
                                              monkeypatch):
    rng = random.Random(20240817)
    neigh = Neighborhood(kind, dim)
    lam_cell = [(t + 1,) + (0,) * (dim - 1) for t in range(steps + 1)]
    far_cell = (2**31,) + (0,) * (dim - 1)
    varied = []
    for _ in range(CROSS_CHECK_TABLES):
        ca = random_impulse_ca(rng, max_states=max_states, neigh=neigh)
        memo = len(ca.states) ** ca.table.arity > FLAT_ENUM_LIMIT
        assert memo == (kind == "moore" and dim == 3)
        diag = run(ca, steps)
        varied.append(len({s for t in range(steps + 1)
                           for _, s in diag.view(t).cells()}) >= 2)
        assert same_run(diag, dense_run(ca, steps)), ca.name
        rec = _Recorder()
        run_probes(ca, steps, [rec])
        lam = ca.quiescent
        for t in range(steps + 1):
            view = diag.view(t)
            assert rec.cells[t] == list(view.cells()), (ca.name, t)
            assert rec.far[t] == (lam, lam)
            assert view.state_at(lam_cell[t]) == lam
            assert view.state_at(far_cell) == lam
        _assert_window_matches(ca, diag, steps)
        # the same table through the memo evaluator
        with monkeypatch.context() as m:
            m.setattr(engine, "FLAT_ENUM_LIMIT", 0)
            assert same_run(run(ca, steps), diag), ca.name
            _assert_window_matches(ca, diag, steps)
    # a uniform diagram cannot tell one argument order from another
    assert any(varied), "no table shows two distinct live states"


def test_window_reads(log2_diag):
    """Off the light cone a window view reads quiescent; inside it, a cell
    on a diagonal past the reach raises instead of reading quiescent."""
    seen = []

    class Reader:
        def observe(self, view):
            if view.t != 4:
                return
            assert view.state_at((4, 2)) == log2_diag.view(4).state_at((4, 2))
            assert view.state_at((5, 0)) == view.state_at((4, -5)) == L
            with pytest.raises(BeyondWindow):
                view.state_at((0, 0))           # diagonal (4, 4)
            assert view.n_sites == sum(1 for _ in view.cells())
            seen.append(view.t)

    run_probes(builtin_log2(), 6, [Reader()], reach=2)
    assert seen == [4]
    with pytest.raises(BeyondWindow):
        run_probes(builtin_log2(), 8, [DiagonalProbe((3, 3), 4)], reach=2)
    with pytest.raises(OverflowHorizon, match="no slice was computed"):
        run_probes(builtin_log2(), 8, [], reach=9, budget=99)


def test_live_region_and_parity(log2_diag):
    # every live cell satisfies -t <= b <= a <= t with both parities even
    for t in range(log2_diag.horizon + 1):
        for (a, b), _s in log2_diag.view(t).cells():
            assert -t <= b <= a <= t, (t, a, b)
            assert (a + t) % 2 == 0 and (b + t) % 2 == 0, (t, a, b)


def test_pack_unpack_round_trip():
    coords = np.array([[0, 0], [5, -3], [-1000, 999], [2**30 - 1, -(2**30)]],
                      dtype=np.int64)
    packed = pack_cells(coords, 2)
    assert np.array_equal(unpack_cells(packed, 2), coords)
    # packed ordering is lexicographic cell ordering
    srt = np.sort(packed)
    cells = [tuple(r) for r in unpack_cells(srt, 2)]
    assert cells == sorted(cells)


@given(st.integers(1, 4), st.data())
def test_pack_unpack_random(dim, data):
    lim = 2 ** (62 // dim - 1) - 1
    n = data.draw(st.integers(1, 20))
    rows = [tuple(data.draw(st.integers(-lim, lim)) for _ in range(dim))
            for _ in range(n)]
    coords = np.array(rows, dtype=np.int64)
    packed = pack_cells(coords, dim)
    assert [tuple(r) for r in unpack_cells(packed, dim)] == rows
    order = np.argsort(packed, kind="stable")
    assert [rows[i] for i in order] == sorted(rows)


def test_horizon_guard():
    ca = builtin_log2()
    with pytest.raises(CoordinateOverflow):
        run(ca, max_horizon(2) + 1)
    # 31 bits per signed coordinate, minus stepping headroom
    assert 2**30 - 8 <= max_horizon(2) < 2**30
    assert max_horizon(1) > max_horizon(2) > max_horizon(3) > max_horizon(4)


def test_negative_sizes_are_rejected():
    ca = builtin_log2()
    for engine_run in (run, dense_run):
        with pytest.raises(ValueError, match="steps must be >= 0"):
            engine_run(ca, -1)
    for reach in (None, 4):
        with pytest.raises(ValueError, match="steps must be >= 0"):
            run_probes(ca, -1, [], reach=reach)
    with pytest.raises(ValueError, match="length must be >= 1"):
        DiagonalProbe((0, 0), 0)


class _CountingTable:
    """A table that counts its applies and forwards everything else."""

    def __init__(self, table):
        self.table, self.calls = table, 0

    def apply(self, neighbors):
        self.calls += 1
        return self.table.apply(neighbors)

    def __getattr__(self, name):
        return getattr(self.table, name)


def test_each_met_code_is_applied_once(monkeypatch):
    """Over verify_xy's runs every evaluator applies its table exactly once
    per distinct flat code it is asked to look up, and to no other code."""
    seen = []    # (CA with a counting table, set of flat codes looked up)
    init, lookup = engine._Evaluator.__init__, engine._Evaluator.lookup

    def counted_init(self, ca):
        ca = copy.copy(ca)
        object.__setattr__(ca, "table", _CountingTable(ca.table))
        init(self, ca)
        self.met = set()
        seen.append((ca, self.met))

    def recorded_lookup(self, codes):
        self.met.update(codes.tolist())
        return lookup(self, codes)

    monkeypatch.setattr(engine._Evaluator, "__init__", counted_init)
    monkeypatch.setattr(engine._Evaluator, "lookup", recorded_lookup)
    assert verify_xy(2, 3, 60).ok
    codes = [len(ca.states) ** ca.table.arity for ca, _ in seen]
    assert 8**4 in codes    # the base table
    for (ca, met), n_codes in zip(seen, codes):
        assert ca.table.calls == len(met) < n_codes, ca.name


def _spy_workspaces(monkeypatch):
    """Record after every step the workspace it used, its capacity and its
    buffer objects."""
    seen = []
    step = engine._step

    def spied(ca, sl, ev, shifts, ws):
        out = step(ca, sl, ev, shifts, ws)
        seen.append((ws, ws.cap, (ws.keys, ws.contrib, ws.skeys, ws.first)))
        return out

    monkeypatch.setattr(engine, "_step", spied)
    return seen


def _rise_and_fall_ca():
    """A random trellis-1 table whose live count climbs to 32 at t=31 and
    drops to 2 at t=32, so later steps run on a buffer sized for more."""
    return random_impulse_ca(random.Random(1), max_states=4,
                             neigh=Neighborhood("trellis", 1))


def test_retained_slices_never_view_the_workspace(monkeypatch):
    ca = _rise_and_fall_ca()
    seen = _spy_workspaces(monkeypatch)
    diag = run(ca, 40)
    sites = [diag.view(t).n_sites for t in range(41)]
    assert max(sites) == sites[31] == 32 and sites[32] == 2
    assert len({id(ws) for ws, _, _ in seen}) == 1
    buffers = {id(b): b for _, _, bufs in seen for b in bufs}
    for packed, codes in diag.slices:
        for b in buffers.values():
            assert not np.shares_memory(packed, b)
            assert not np.shares_memory(codes, b)
    assert same_run(diag, dense_run(ca, 40))


def test_workspace_buffers_are_kept_until_a_step_outgrows_them(monkeypatch):
    ca = _rise_and_fall_ca()
    seen = _spy_workspaces(monkeypatch)
    rec = _Recorder()
    run_probes(ca, 40, [rec])
    assert len(seen) == 40 and len({id(ws) for ws, _, _ in seen}) == 1
    need = [len(cells) * ca.table.arity for cells in rec.cells]
    cap, kept = 0, ()
    for t, (_, new_cap, bufs) in enumerate(seen):
        if need[t] <= cap:
            assert new_cap == cap
            assert all(a is b for a, b in zip(bufs, kept, strict=True)), t
        else:
            assert new_cap == need[t] + need[t] // 4
        assert all(len(b) == new_cap for b in bufs)
        cap, kept = new_cap, bufs
    # the step out of the peak at t=31 sized them last: the nine steps
    # after it all reuse the same objects
    assert cap == seen[31][1] > seen[30][1]


def test_budget_overflow_keeps_partial():
    ca = builtin_log2()
    with pytest.raises(OverflowHorizon) as ei:
        run(ca, 100, budget=50)
    exc = ei.value
    assert exc.budget == 50
    assert exc.partial.truncated
    assert exc.partial.horizon == exc.last_slice
    # the partial prefix agrees with an unconstrained run
    full = run(ca, exc.last_slice)
    assert all(
        np.array_equal(exc.partial.slices[t][0], full.slices[t][0])
        for t in range(exc.last_slice + 1))


def test_run_probes_matches_retained(log2_diag):
    probe = DiagonalProbe((0, 0), 32)
    run_probes(builtin_log2(), 40, [probe])
    retained = log2_diag.replay(DiagonalProbe((0, 0), 32), 32)
    assert probe.word(L) == retained.word(L)


def test_json_round_trip(xy23_diag):
    ca = builtin_xy(2, 3)
    small = run(ca, 12)
    back = diagram_from_json_obj(ca, json.loads(small.dumps()))
    assert same_run(small, back)
    obj = {"truncated": True, "slices": json.loads(small.dumps())}
    assert diagram_from_json_obj(ca, obj).truncated


def test_json_rejects_foreign_cells():
    ca = builtin_log2()
    with pytest.raises(ValueError):
        diagram_from_json_obj(ca, [{"t": 1, "cells": []}])
    from ca_signals import UnknownState
    with pytest.raises(UnknownState):
        diagram_from_json_obj(
            ca, [{"t": 0, "cells": [{"u": [0, 0], "s": "π_1"}]}])


@pytest.mark.parametrize("u,t,why", [
    ([2**31, 0], 0, "light cone"),      # used to wrap onto (0, 0)
    ([2**70, 0], 0, "light cone"),      # does not fit int64 at all
    ([2, 0], 1, "light cone"),
    ([1, 0], 1, "parity"),
    ([1.0, 1], 1, "non-integer"),
    (["1", 1], 1, "non-integer"),
])
def test_json_rejects_cells_off_the_cone(u, t, why):
    rows = [{"t": 0, "cells": [{"u": [0, 0], "s": "1"}]},
            {"t": 1, "cells": [{"u": [1, 1], "s": "0"}]}]
    rows[t]["cells"].append({"u": u, "s": "1"})
    with pytest.raises(ValueError, match=why):
        diagram_from_json_obj(builtin_log2(), rows)


def test_json_rejects_duplicate_cells():
    cells = [{"u": [1, 1], "s": "0"}, {"u": [1, -1], "s": "1"},
             {"u": [1, 1], "s": "1"}]
    with pytest.raises(ValueError, match="duplicate"):
        diagram_from_json_obj(builtin_log2(), [
            {"t": 0, "cells": [{"u": [0, 0], "s": "1"}]},
            {"t": 1, "cells": cells}])



# --- diagonal words ---------------------------------------------------------


def test_diagonal_start():
    assert diagonal_start((0, 0)) == 0
    assert diagonal_start((0, 2)) == 1
    assert diagonal_start((2, 2)) == 1
    assert diagonal_start((5, 0)) == 3


def _replayed_word(diag, i, length):
    """A DiagonalProbe fed the diagram's slices up to its last letter."""
    probe = DiagonalProbe(i, length)
    diag.replay(probe, probe.start + length)
    return probe


def test_diagonal_words(log2_diag):
    w = _replayed_word(log2_diag, (0, 0), 12)
    assert w.start == 0
    assert "".join(w.word(L)) == "101010101010"
    w = _replayed_word(log2_diag, (2, 2), 12)
    assert w.start == 1
    assert "".join(w.word(L)) == "λ11001100110"
    w = _replayed_word(log2_diag, (-1, 0), 5)
    assert w.word(L) == (L,) * 5 and w.start == 0
    assert w.letters == []      # a point off the cone reads no slice


def test_diagonal_beyond_horizon(log2_diag):
    with pytest.raises(BeyondHorizon):
        _replayed_word(log2_diag, (0, 0), log2_diag.horizon + 2)
    with pytest.raises(ValueError):
        _replayed_word(log2_diag, (0, 0, 0), 4)


# --- sheared rows -----------------------------------------------------------


def test_w_site_geometry():
    assert w_site(0, 0, 0) == ((0, 0), 0)
    assert w_site(5, 0, 0) == ((5, 5), 5)
    assert w_site(5, 1, 0) == ((6, 4), 6)
    # stepping i moves one diagonal step back in the cell, one forward in t
    (c0, t0) = w_site(3, 2, 0)
    (c1, t1) = w_site(3, 2, 1)
    assert t1 == t0 + 1 and c1 == (c0[0] - 1, c0[1] - 1)


def trailing_ones(n: int) -> int:
    k = 0
    while (n >> k) & 1:
        k += 1
    return k


@pytest.mark.parametrize("k", range(8))
def test_w_rows_spell_the_counter(log2_diag, k):
    n = k + 1
    digits = bin(n)[2:][::-1]
    width = len(digits) + 2
    reads = ReadSchedule([[w_site(k, l, i) for i in range(width)]
                          for l in range(3)])
    row0, *carries = log2_diag.replay(reads, k + width + 2).rows
    assert "".join(row0) == digits + L * 2
    ones = trailing_ones(n)
    carry = "1" * ones + "0" * (len(digits) - ones)
    for row in carries:
        assert "".join(row) == carry + L * 2

"""Both engines, the packed storage, diagonal words, and the sheared rows."""

import contextlib
import copy
import json
import random
from collections import Counter
from itertools import product
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from ca_signals import (BeyondHorizon, BeyondWindow, CellScan,
                        CoordinateOverflow, DiagonalLetters, Follower,
                        FollowProbe, OverflowHorizon, builtin_log2,
                        builtin_quiescent, builtin_xy, dense_run,
                        diagram_from_json_obj, max_horizon, merged_xy, run,
                        run_probes, same_run, verify_log2, verify_xy, w_site)
from ca_signals import engine
from ca_signals.engine import (FLAT_ENUM_LIMIT, diagonal_start, pack_cells,
                               unpack_cells)
from ca_signals.lattice import KINDS, Neighborhood, offsets

from boxreads import ix_grid, padded_diagonals
from coordscan import CoordScan
from sites import letter_at
from tables import random_impulse_ca

L = "λ"


def test_seed_slice_and_frozen_early_cells(log2_diag):
    assert list(log2_diag.view(0).cells()) == [((0, 0), "1")]
    assert dict(log2_diag.view(1).cells()) == {(1, -1): "1", (1, 1): "0"}
    assert dict(log2_diag.view(3).cells()) == {
        (1, -1): "0", (1, 1): "1",
        (3, -3): "1", (3, -1): "0", (3, 1): "1", (3, 3): "0",
    }


def test_site_reads_default_quiescent(log2_diag):
    assert letter_at(log2_diag.view(0), (0, 0)) == "1"
    assert letter_at(log2_diag.view(2), (100, 100)) == L
    with pytest.raises(BeyondHorizon):
        log2_diag.view(log2_diag.horizon + 1)
    with pytest.raises(ValueError):
        letter_at(log2_diag.view(0), (0, 0, 0))
    # 1 + 2**31 overflows its packed field; read as a key it would alias
    # the live cell (1, 1)
    assert letter_at(log2_diag.view(1), (1, 1)) == "0"
    assert letter_at(log2_diag.view(1), (1, 1 + 2**31)) == L
    assert letter_at(log2_diag.view(0), (2**31, 0)) == L


def test_view_is_the_stored_slice(log2_diag):
    view = log2_diag.view(3)
    packed, codes = log2_diag.slices[3]
    assert view.t == 3 and view.n_sites == len(packed)
    assert list(view.cells()) == [
        (tuple(u), log2_diag.ca.states[c])
        for u, c in zip(unpack_cells(packed, 2).tolist(), codes)]
    assert letter_at(view, (3, -3)) == "1"
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
    """Probe that keeps each streamed slice."""

    def __init__(self):
        self.cells = []

    def observe(self, view):
        self.cells.append(list(view.cells()))


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


def _far_points(points, dim):
    """Points off the light cone at every t whose keys, were they packed,
    would equal those of ``points``: one coordinate moves 2**b up, where b
    is the packed field width, and the one before it 1 down (or the other
    way round, making it negative)."""
    if dim == 1:
        return []
    b = engine._bits(dim)
    return [(*i[:-2], i[-2] + s, i[-1] - s * 2**b)
            for i in points for s in (1, -1) if i[-2] + s >= 0]


def _random_follower(rng, ca):
    """A random follower of at most three states that reads ``ca``'s
    alphabet and moves by its neighborhood's offsets."""
    moves = offsets(ca.neighborhood)
    qs = tuple(f"q{j}" for j in range(rng.randint(1, 3)))
    return Follower(qs, qs[0], {(q, s): (rng.choice(qs), rng.choice(moves))
                                for q in qs for s in ca.states})


def _assert_window_matches(ca, diag, steps, follower):
    """The diagonal window [0, R]^dim, R = steps // 2, against the sparse run
    and the replay of ``diag``, a full run: the letters each holds of every
    diagonal in the window, and every live cell on its diagonals.  Each
    reader also holds the window's points shifted below 0, and the sparse
    ones points off the cone that pack to the window's keys; all of them
    must read quiescent.  With R = 2 * steps, the whole light cone, the
    window's box holds every live cell.  ``follower`` walks the same trace
    on the sparse run, the replay and the whole cone's window; on the
    window of reach R it walks that trace up to its first read of a
    diagonal past R, which raises BeyondWindow."""
    reach = steps // 2
    lam = ca.quiescent
    inside = list(product(range(reach + 1), repeat=ca.dim))
    points = inside + [tuple(a - 2 * reach - 2 for a in i) for i in inside]
    far = _far_points(inside, ca.dim)
    window, rec = DiagonalLetters(points), _Recorder()
    run_probes(ca, steps, [window, rec], reach=reach)
    sparse = DiagonalLetters(points + far)
    walk = FollowProbe(ca, follower, steps)
    run_probes(ca, steps, [sparse, walk])
    trace = walk.trace()
    replayed = diag.replay(DiagonalLetters(points + far), steps + 1)
    assert diag.replay(FollowProbe(ca, follower, steps),
                       steps).trace() == trace, ca.name
    # the first time the walk reads a diagonal past R, if it does
    past = next((t for t, u in enumerate(trace.signal.sites[:steps])
                 if max(t - a for a in u) > reach), None)
    part = FollowProbe(ca, follower, steps)
    with (pytest.raises(BeyondWindow) if past is not None
          else contextlib.nullcontext()):
        run_probes(ca, steps, [part], reach=reach)
    n = steps + 1 if past is None else past + 1
    assert part.sites == list(trace.signal.sites[:n]), ca.name
    assert part.qs == list(trace.automaton_states[:n]), ca.name
    want = np.zeros((steps + 1, len(points) + len(far)), dtype=np.uint8)
    for t in range(steps + 1):
        cells = dict(diag.view(t).cells())
        want[t, :len(inside)] = [ca.state_code(cells.get(
            tuple(t - a for a in i), lam)) for i in inside]
    assert np.array_equal(window.held, want[:, :len(points)]), ca.name
    assert np.array_equal(sparse.held, want), ca.name
    assert np.array_equal(replayed.held, want), ca.name
    for t in range(steps + 1):
        want = [(u, s) for u, s in diag.view(t).cells()
                if max(t - a for a in u) <= reach]
        assert rec.cells[t] == want, (ca.name, t)
    whole, walk = _Recorder(), FollowProbe(ca, follower, steps)
    run_probes(ca, steps, [whole, walk], reach=2 * steps)
    for t in range(steps + 1):
        assert whole.cells[t] == list(diag.view(t).cells()), (ca.name, t)
    assert walk.trace() == trace, ca.name
    return trace


@pytest.mark.parametrize("kind,dim,steps,max_states", CROSS_CHECK,
                         ids=[f"{k}-{d}" for k, d, *_ in CROSS_CHECK])
def test_sparse_equals_dense_on_random_tables(kind, dim, steps, max_states,
                                              monkeypatch):
    rng = random.Random(20240817)
    # the followers draw from their own stream, so the tables stay the same
    walk_rng = random.Random(20261020)
    neigh = Neighborhood(kind, dim)
    varied, walked = [], []
    for _ in range(CROSS_CHECK_TABLES):
        ca = random_impulse_ca(rng, max_states=max_states, neigh=neigh)
        memo = len(ca.states) ** ca.table.arity > FLAT_ENUM_LIMIT
        assert memo == (kind == "moore" and dim == 3)
        diag = run(ca, steps)
        varied.append(len({s for t in range(steps + 1)
                           for _, s in diag.view(t).cells()}) >= 2)
        dense = dense_run(ca, steps)
        assert same_run(diag, dense), ca.name
        rec = _Recorder()
        run_probes(ca, steps, [rec])
        for t in range(steps + 1):
            assert rec.cells[t] == list(diag.view(t).cells()), (ca.name, t)
        follower = _random_follower(walk_rng, ca)
        trace = _assert_window_matches(ca, dense, steps, follower)
        # the walk reads a live cell after its seed
        walked.append(any(dict(dense.view(t).cells()).get(u, ca.quiescent)
                          != ca.quiescent
                          for t, u in enumerate(trace.signal.sites[1:steps],
                                                start=1)))
        # the same table through the memo evaluator
        with monkeypatch.context() as m:
            m.setattr(engine, "FLAT_ENUM_LIMIT", 0)
            assert same_run(run(ca, steps), diag), ca.name
            assert _assert_window_matches(ca, dense, steps,
                                          follower) == trace, ca.name
    # a uniform diagram cannot tell one argument order from another
    assert any(varied), "no table shows two distinct live states"
    # a walk that reads only quiescent cells reads no table's letters
    assert any(walked), "no follower reads a live cell after t = 0"


# (states, code dtype, need) of a 2-D trellis table, v = 4 arguments, at
# each boundary of the window's code widths: 4**4 = 256 and 16**4 = 65,536
# codes fill uint8 and uint16, 5 and 17 states need the next width.  The
# largest code the run meets must reach ``need``: past the signed range of
# the width at its top, past the narrower width above it.
CODE_WIDTHS = [(4, np.uint8, 128), (5, np.uint16, 256),
               (16, np.uint16, 32768), (17, np.uint32, 65536)]


@pytest.mark.parametrize("n_states,dtype,need", CODE_WIDTHS,
                         ids=[str(n) for n, *_ in CODE_WIDTHS])
def test_window_code_widths_match_dense_run(n_states, dtype, need,
                                            monkeypatch):
    """The window builds its flat codes in the narrowest unsigned dtype
    that holds n**v codes, whichever evaluator maps them, and its run
    agrees with ``dense_run`` letter for letter, cell for cell."""
    steps = 10
    ca = random_impulse_ca(random.Random(4), n_states=n_states,
                           neigh=Neighborhood("trellis", 2))
    follower = _random_follower(random.Random(20261020), ca)
    dense = dense_run(ca, steps)
    lookup, met = engine._Evaluator.lookup, []

    def recorded(self, codes):
        met.append((codes.dtype, int(codes.max(initial=0))))
        return lookup(self, codes)

    for limit in (FLAT_ENUM_LIMIT, 0):
        monkeypatch.setattr(engine, "FLAT_ENUM_LIMIT", limit)
        with monkeypatch.context() as m:
            m.setattr(engine._Evaluator, "lookup", recorded)
            met.clear()
            run_probes(ca, steps, [], reach=2 * steps)
        assert {d for d, _ in met} == {np.dtype(dtype)}, limit
        assert max(c for _, c in met) >= need, limit
        _assert_window_matches(ca, dense, steps, follower)


# (kind, dim, steps, reach): trellis boxes are strided (stride 2 on every
# axis); a reach below 2 * steps caps the box before the run ends
WINDOW_READS = [("trellis", 1, 12, 9), ("trellis", 2, 10, 7),
                ("trellis", 3, 6, 5), ("von_neumann", 2, 8, 5),
                ("moore", 3, 4, 3)]


def _window_read_cases():
    """Per WINDOW_READS row, four random tables and the reaches 2 * steps
    (the whole light cone) and ``reach``."""
    rng = random.Random(20261021)
    for kind, dim, steps, reach in WINDOW_READS:
        for _ in range(4):
            ca = random_impulse_ca(rng, max_states=3,
                                   neigh=Neighborhood(kind, dim))
            for r in (2 * steps, reach):
                yield ca, steps, r


class _ViewCheck:
    """Probe that runs ``check(view)`` on each window view and keeps which
    views had a strided box and which a box capped on some axis."""

    def __init__(self, check):
        self.check, self.strided, self.capped = check, False, False

    def observe(self, view):
        self.check(view)
        self.strided |= max(view._stride) > 1
        self.capped |= any(n == view._reach // g + 1 for g, n
                           in zip(view._stride, view._window.shape))


def test_window_grid_equals_the_ix_grid():
    """``SliceView.grid()`` on a window is the ``np.ix_`` open grid, axis
    by axis in value, dtype and shape, over the same flipped box, in dims
    1-3, on strided and capped boxes."""
    def check(view):
        coords, box = view.grid()
        want, want_box = ix_grid(view)
        assert len(coords) == len(want) == view.ca.dim
        for c, w in zip(coords, want):
            assert c.dtype == w.dtype == np.int64
            assert c.shape == w.shape and np.array_equal(c, w)
        assert np.array_equal(box, want_box)

    probes = []
    for ca, steps, reach in _window_read_cases():
        probes.append(_ViewCheck(check))
        run_probes(ca, steps, probes[-1:], reach=reach)
    assert any(p.strided and p.capped for p in probes)
    assert {p.strided for p in probes} == {p.capped for p in probes} == {
        True, False}


def test_window_gather_equals_the_padded_copy():
    """The window's gather, which clips each point into the current box,
    reads what the padded-copy gather reads: every diagonal of [-2, R]^dim
    at once (points off the stride, below 0 and past the current box among
    them) and, on its own, each fourth of them from a step-dependent
    start."""
    kinds = Counter()

    def check(view):
        points = list(product(range(-2, view._reach + 1), repeat=view.ca.dim))
        got = view.diagonals(view.diagonal_index(points))
        assert np.array_equal(got, padded_diagonals(view, points))
        for i in points[view.t % 4::4]:     # a quarter of them, in turn
            one = view.diagonals(view.diagonal_index([i]))
            assert np.array_equal(one, padded_diagonals(view, [i]))
            off = min(i) < 0 or any(a % g for a, g in zip(i, view._stride))
            past = not off and any(a // g >= n for a, g, n in zip(
                i, view._stride, view._window.shape))
            kinds["below 0" if min(i) < 0 else "off the stride" if off
                  else "past the box" if past else "in the box"] += 1
        assert view.diagonals(view.diagonal_index([])).shape == (0,)

    for ca, steps, reach in _window_read_cases():
        run_probes(ca, steps, [_ViewCheck(check)], reach=reach)
    assert len(kinds) == 4


def test_window_gather_keeps_one_index_across_box_shapes():
    """One index, built on the first view and kept for the whole run as
    ``DiagonalLetters`` keeps it, gathers what the padded copy reads at
    every step, while the box grows past the points on some steps and not
    on others."""
    runs = []

    def check(view):
        if view.t == 0:
            check.index = view.diagonal_index(points)
        assert np.array_equal(view.diagonals(check.index),
                              padded_diagonals(view, points))

    for ca, steps, reach in _window_read_cases():
        points = list(product(range(-1, reach // 2 + 2), repeat=ca.dim))
        run_probes(ca, steps, [_ViewCheck(check)], reach=reach)
        # the gathers the run built, one per box shape clipped to the points
        runs.append((len(check.index[-1]), steps + 1))
    assert all(1 < built <= views for built, views in runs)
    assert any(built < views for built, views in runs)


def test_window_reads(log2_diag):
    """A window view reads quiescent on a diagonal below 0, off the light
    cone; a diagonal past the reach raises instead of reading quiescent,
    inside the cone or off it."""
    seen = []

    class Reader:
        def observe(self, view):
            if view.t != 4:
                return
            assert letter_at(view, (4, 2)) == letter_at(log2_diag.view(4),
                                                        (4, 2))
            assert letter_at(view, (5, 0)) == L      # diagonal (-1, 4)
            with pytest.raises(BeyondWindow):
                letter_at(view, (4, -5))             # diagonal (0, 9)
            with pytest.raises(BeyondWindow):
                letter_at(view, (0, 0))              # diagonal (4, 4)
            assert view.n_sites == sum(1 for _ in view.cells())
            seen.append(view.t)

    run_probes(builtin_log2(), 6, [Reader()], reach=2)
    assert seen == [4]
    # a diagonal past the reach is refused when the index is built, at t=0
    with pytest.raises(BeyondWindow, match=r"diagonal \(3, 3\) lies past "
                                           r"the window \[0, 2\]\^2"):
        run_probes(builtin_log2(), 8, [DiagonalLetters([(0, 0), (3, 3)])],
                   reach=2)
    # one with a negative coordinate never enters the cone: it reads λ
    letters = DiagonalLetters([(-1, 2), (2, 2)])
    run_probes(builtin_log2(), 6, [letters], reach=2)
    assert not letters.held[:, 0].any()
    retained = log2_diag.replay(DiagonalLetters([(2, 2)]), 7)
    assert np.array_equal(letters.held[:, 1], retained.held[:, 0])
    # log2 is a trellis automaton, so its box keeps even diagonals only: at
    # reach 9 it grows from 1x1 through 2x2, 2x3 and 3x4 to 3x5 at t = 4,
    # 15 sites, which a budget of 12 refuses before stepping slice 4
    rec = _Recorder()
    with pytest.raises(OverflowHorizon, match="last complete slice is t=3"):
        run_probes(builtin_log2(), 8, [rec], reach=9, budget=12)
    assert len(rec.cells) == 4
    # its largest box to t = 8 is 4x5
    run_probes(builtin_log2(), 8, [], reach=9, budget=20)


def test_live_region_and_parity(log2_diag):
    # every live cell satisfies -t <= b <= a <= t with both parities even
    for t in range(log2_diag.horizon + 1):
        for (a, b), _s in log2_diag.view(t).cells():
            assert -t <= b <= a <= t, (t, a, b)
            assert (a + t) % 2 == 0 and (b + t) % 2 == 0, (t, a, b)


@given(st.sampled_from(KINDS), st.integers(1, 3), st.integers(0, 6),
       st.data())
def test_check_select_agrees_with_misplaced(kind, dim, t, data):
    # the selects read only the CA's neighborhood, its views its dimension
    ca = SimpleNamespace(neighborhood=Neighborhood(kind, dim), dim=dim)
    select = engine._misplaced_select(ca)
    cells = data.draw(st.lists(st.tuples(*[st.integers(-t - 2, t + 2)] * dim),
                               min_size=1, max_size=30))
    # a sparse view of the cells in the order drawn
    packed = pack_cells(np.array(cells, dtype=np.int64), dim)
    view = engine.SliceView(ca, t, (packed, np.ones(len(cells), np.uint8)))
    mask = select(*view.grid(), t)
    assert mask.tolist() == [engine._misplaced(c, t, ca) is not None
                             for c in cells]
    # a window view: entry j of its box is cell t*1bar - stride*j, and a box
    # this long reaches past the cone
    stride = tuple(data.draw(st.sampled_from([1, 2])) for _ in range(dim))
    shape = tuple(data.draw(st.integers(1, t + 3)) for _ in range(dim))
    view = engine.SliceView(ca, t, window=np.ones(shape, dtype=np.uint8),
                            stride=stride, reach=max(shape) * 2)
    coords, codes = view.grid()
    mask = np.broadcast_to(select(coords, codes, t), codes.shape)
    for k in np.ndindex(shape):
        cell = tuple(t - g * (n - 1 - i) for g, n, i in zip(stride, shape, k))
        assert tuple(int(c[tuple(min(i, m - 1) for i, m in zip(k, c.shape))])
                     for c in coords) == cell
        assert mask[k] == (engine._misplaced(cell, t, ca) is not None)


def test_run_check_reads_each_slice_once(monkeypatch):
    seen = []
    grid = engine.SliceView.grid

    def counted(view):
        seen.append(view.t)
        return grid(view)

    def per_cell(view):
        raise AssertionError("the check read a slice cell by cell")

    monkeypatch.setattr(engine.SliceView, "grid", counted)
    monkeypatch.setattr(engine.SliceView, "cells", per_cell)
    assert same_run(run(builtin_log2(), 20, check=True),
                    run(builtin_log2(), 20))
    assert seen == list(range(21))
    # the same check over the boxes of a window run
    seen.clear()
    scan = CellScan(engine._misplaced_select(builtin_log2()), cap=1)
    run_probes(builtin_log2(), 20, [scan], reach=40)
    assert seen == list(range(21))
    assert not scan.found
    assert scan.total == run(builtin_log2(), 20).total_sites


# The selects of the scan cross-check: every live cell, one that reads a
# coordinate, the codes and t, and the light-cone check, which marks none.
SCAN_SELECTS = [
    lambda _coords, _codes, _t: True,
    lambda coords, codes, t: (coords[-1] + codes + t) % 3 == 0,
]
SCAN_CAPS = (1, 7, None)
SCAN_TABLES = 4


def _scans(ca, scan):
    """One ``scan`` (``CellScan`` or the coordinate oracle) per select and
    cap, the light-cone check of ``ca`` among the selects."""
    selects = SCAN_SELECTS + [engine._misplaced_select(ca)]
    return [scan(sel, cap) for sel in selects for cap in SCAN_CAPS]


def _counts(scans):
    return [(s.total, s.found) for s in scans]


@pytest.mark.parametrize("kind,dim,steps,max_states", CROSS_CHECK,
                         ids=[f"{k}-{d}" for k, d, *_ in CROSS_CHECK])
def test_box_scan_equals_the_coordinate_scan(kind, dim, steps, max_states,
                                             monkeypatch):
    """The window's box scan, the sparse scan and the ``dense_run`` replay
    keep the same total and the same hits in the same order as the scan
    over every live cell's coordinates, under both evaluators; a window of
    half the steps as reach, whose box is capped, agrees with the
    coordinate scan of that window."""
    rng = random.Random(20261020)
    neigh = Neighborhood(kind, dim)
    kept = []
    for _ in range(SCAN_TABLES):
        ca = random_impulse_ca(rng, max_states=max_states, neigh=neigh)
        dense = dense_run(ca, steps)
        want = _counts(dense.replay(s, steps + 1)
                       for s in _scans(ca, CoordScan))
        kept.append(len(want[1][1]))
        assert want[2][0] == dense.total_sites
        assert want[2][1] == [(u, t, s) for t in range(steps + 1)
                              for u, s in dense.view(t).cells()]
        assert _counts(dense.replay(s, steps + 1)
                       for s in _scans(ca, CellScan)) == want, ca.name
        for limit in (FLAT_ENUM_LIMIT, 0):
            monkeypatch.setattr(engine, "FLAT_ENUM_LIMIT", limit)
            sparse, window = _scans(ca, CellScan), _scans(ca, CellScan)
            run_probes(ca, steps, sparse)
            run_probes(ca, steps, window, reach=2 * steps)
            assert _counts(sparse) == want, ca.name
            assert _counts(window) == want, ca.name
            part, oracle = _scans(ca, CellScan), _scans(ca, CoordScan)
            run_probes(ca, steps, part + oracle, reach=steps // 2)
            assert _counts(part) == _counts(oracle), ca.name
    # some table has more live cells than a cap of 7 keeps
    assert 7 in kept


def test_verify_log2_builds_no_cell_coordinates_on_the_window(monkeypatch):
    """The counter's wedge scan reads the window's box without building a
    coordinate for each live cell."""
    def refused(*_args, **_kwargs):
        raise AssertionError("a window slice was read cell by cell")

    monkeypatch.setattr(np, "argwhere", refused)
    monkeypatch.setattr(engine, "unpack_cells", refused)
    monkeypatch.setattr(engine.SliceView, "cells", refused)
    assert verify_log2(256).ok


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
    # the dense engine runs out at the same slice and keeps the same prefix
    with pytest.raises(OverflowHorizon) as ei:
        dense_run(ca, 100, budget=50)
    assert ei.value.last_slice == exc.last_slice
    assert ei.value.partial.truncated
    assert same_run(ei.value.partial, exc.partial)


def test_run_probes_matches_retained(log2_diag):
    letters = DiagonalLetters([(0, 0), (2, 4)])
    run_probes(builtin_log2(), 40, [letters])
    retained = log2_diag.replay(DiagonalLetters([(0, 0), (2, 4)]), 32)
    assert np.array_equal(letters.held[:32], retained.held)


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
    """Diagonal i's first ``length`` letters, fed the diagram's slices up to
    the last of them."""
    start = diagonal_start(i)
    letters = diag.replay(DiagonalLetters([i]), start + length)
    [word] = letters.spell([[(i, t) for t in range(start, start + length)]])
    return "".join(word)


def test_diagonal_words(log2_diag):
    assert _replayed_word(log2_diag, (0, 0), 12) == "101010101010"
    assert _replayed_word(log2_diag, (2, 2), 12) == "λ11001100110"
    # a point off the cone reads quiescent at every t
    assert _replayed_word(log2_diag, (-1, 0), 5) == L * 5
    # so do the points whose packed keys would wrap onto diagonal (2, 2)
    letters = log2_diag.replay(
        DiagonalLetters([(2, 2), (1, 2 + 2**31), (3, 2 - 2**31)]), 8)
    assert letters.held[:, 0].any() and not letters.held[:, 1:].any()


def test_diagonal_beyond_horizon(log2_diag):
    with pytest.raises(BeyondHorizon):
        _replayed_word(log2_diag, (0, 0), log2_diag.horizon + 2)
    with pytest.raises(ValueError):
        _replayed_word(log2_diag, (0, 0, 0), 4)
    letters = log2_diag.replay(DiagonalLetters([(0, 0)]), 10)
    with pytest.raises(BeyondHorizon, match="t=10 outside simulated range "
                                            "0..9"):
        letters.spell([[((0, 0), t) for t in range(12)]])
    with pytest.raises(BeyondHorizon, match="t=-1 outside"):
        letters.spell([[((0, 0), -1)]])


# --- sheared rows -----------------------------------------------------------


def test_w_site_geometry():
    # entry (k, l, i) is diagonal (2i, 2i + 2l) at t = k + i + l, the cell
    # (k - i + l, k - i - l)
    assert w_site(0, 0, 0) == ((0, 0), 0)
    assert w_site(5, 0, 0) == ((0, 0), 5)
    assert w_site(5, 1, 0) == ((0, 2), 6)
    for k, l, i in product(range(4), repeat=3):
        (d0, d1), t = w_site(k, l, i)
        assert (t - d0, t - d1) == (k - i + l, k - i - l)
    # stepping i moves one diagonal step back in the cell, one forward in t
    (d0, t0) = w_site(3, 2, 0)
    (d1, t1) = w_site(3, 2, 1)
    assert t1 == t0 + 1 and d1 == (d0[0] + 2, d0[1] + 2)


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
    sites = [[w_site(k, l, i) for i in range(width)] for l in range(3)]
    letters = DiagonalLetters(d for row in sites for d, _ in row)
    row0, *carries = log2_diag.replay(letters, k + width + 2).spell(sites)
    assert "".join(row0) == digits + L * 2
    ones = trailing_ones(n)
    carry = "1" * ones + "0" * (len(digits) - ones)
    for row in carries:
        assert "".join(row) == carry + L * 2

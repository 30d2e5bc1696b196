"""Simulation engines for impulse automata.

Three engines, one per job:

* ``run`` / ``run_probes``: sparse, vectorized, over the light cone.  Live
  cells of one time slice are kept as a sorted int64 array of packed
  coordinates plus a uint8 state code array.  A step merges the v shifted
  copies of that array with one stable sort, sums each candidate cell's
  neighbor codes with one ``reduceat``, and maps the sums to new states.
  The merge's n*v-sized scratch arrays live in one grow-only workspace per
  run, reused by every step; the slices a step returns never view it.
* ``run_probes(..., reach=R)``: the diagonal window, for every claim:
  ``verify log2`` and ``verify xy``'s two-track and product runs (R = 2T,
  the whole light cone, whose live cells fill a thin box of diagonals),
  exact periods (``verify bounds``, ``analyze period``), ``verify basic``'s
  counter walk and ``verify xy``'s merged walk.  Write a site as
  i = t*1bar - u; cell u at time t+1 reads
  u + x at time t, which is diagonal i - (x + 1bar), and every coordinate
  of x + 1bar is >= 0 for all three neighborhood kinds.  So the diagonals
  [0, R]^dim are closed under the update.  Only a strided box of them is
  stepped: on axis a only multiples of g_a, the gcd of the (x + 1bar)_a
  (2 for trellis, 1 otherwise), can be live, and each step an axis grows
  to one step's spread past its highest live entry, capped at R.  The box
  is one dense uint8 array; a step builds its flat codes in Horner form
  (per argument, codes *= n and one shifted slice-add), in the narrowest
  unsigned dtype that holds n**v codes, and maps them with one ``take``.
* ``dense_run``: a plain dict-of-cells reference engine that re-applies the
  rule list with first-match semantics, cell by cell.  It shares no stepping
  or pruning logic with the other two so it can cross-check them.

The sparse and window engines map flat neighbor codes through one evaluator
that applies the rule table the first time a run meets a code and caches the
result, so no table is enumerated before the first step.

Probes are the only way to read a diagram, and each observes one
``SliceView`` per time step.  A site u at time t is the letter of diagonal
t*1bar - u, read through ``SliceView.diagonal_index`` and ``diagonals``:
one gather from a window's box, one binary search of a sparse slice.  A
window index keeps one gather per box shape clipped to its points' extent,
so a run builds one for each of the few shapes it meets; a point past the
box, like a diagonal with a negative coordinate (never in the light cone),
reads quiescent.  Sites fixed before stepping (digit and carry rows,
``w_site``, and diagonal words) are the columns of one
``DiagonalLetters``; a walker (``signals.FollowProbe``) reads one site per
step and keeps its index while its diagonal stays the same.  ``CellScan``
is the one reader of whole slices: it evaluates one predicate per slice
over per-axis coordinates (on a window, an open grid over its box) and
builds cells only for its hits: the product's marks and
``run_views(..., check=True)``, and the counter's wedge and the two-track
planes only where the rule table does not prove them.  Beside it,
``scan_never_fires`` proves from the rule table, by induction over t, that
a scan's predicate never marks a live cell, in one batched predicate call
and a few hundred table lookups; a proven check steps a ``SiteCount``,
which only counts the live cells.  Runs stream: ``run_probes`` feeds
probes the live slice (or window) as it steps and retains nothing else,
and ``simulate`` writes each view of ``run_views`` as it is stepped.  Only
``run`` (the same views, kept for tests) and the dense oracle retain a
whole diagram, a ``SpaceTimeDiagram``, which also holds a loaded dump; its
``replay`` feeds probes the stored slices.

A dump (``json_chunks``) is written slice by slice, each slice one join of
string fields gathered by fancy indexing from tables built once per dump:
one entry per coordinate value up to the largest live |u_a| (doubled when
outgrown) and one per state, so no field is formatted per cell.

Coordinates are packed most-significant-axis-first with a per-axis bias, so
numeric order of packed values equals lexicographic order of cells.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from itertools import product

import numpy as np

from .automaton import MAX_STATES, ImpulseCA
from .errors import (BeyondHorizon, BeyondWindow, CheckFailed,
                     CoordinateOverflow, OverflowHorizon, UnknownState,
                     json_list, json_object)
from .lattice import in_light_cone, parity_valid

FLAT_ENUM_LIMIT = 10**6
DEFAULT_SITE_BUDGET = 1 << 28

_BITS = {1: 62, 2: 31, 3: 20, 4: 15}


def _bits(dim: int) -> int:
    return _BITS[dim]


def pack_cells(coords: np.ndarray, dim: int) -> np.ndarray:
    """Pack an (n, dim) int array of cells into sorted-compatible int64."""
    b = _bits(dim)
    half = np.int64(1) << (b - 1)
    out = np.zeros(len(coords), dtype=np.int64)
    for a in range(dim):
        out = (out << b) | (coords[:, a].astype(np.int64) + half)
    return out


def unpack_cells(packed: np.ndarray, dim: int) -> np.ndarray:
    b = _bits(dim)
    half = np.int64(1) << (b - 1)
    mask = (np.int64(1) << b) - 1
    out = np.empty((len(packed), dim), dtype=np.int64)
    for a in range(dim):
        shift = b * (dim - 1 - a)
        out[:, a] = ((packed >> shift) & mask) - half
    return out


def _offset_shift(x: tuple[int, ...], dim: int) -> np.int64:
    """Packed-value delta of moving a cell by offset x (no field borrow)."""
    b = _bits(dim)
    val = 0
    for a in range(dim):
        val += x[a] << (b * (dim - 1 - a))
    return np.int64(val)


def max_horizon(dim: int) -> int:
    return (1 << (_bits(dim) - 1)) - 5


# ---------------------------------------------------------------------------
# rule-table evaluation over flat codes


class _Evaluator:
    """Maps flat neighbor codes to new state codes.

    A neighbor tuple's flat code is sum codes[pos] * n**(v-1-pos), held in
    ``dtype``: the narrowest of uint8, uint16, uint32 and int64 that holds
    all n**v codes.  The table is applied the first time a code is met and
    the result cached: in a uint8 array over all n**v codes (255 marks a
    code not yet applied), read with one ``take``, when that fits
    FLAT_ENUM_LIMIT, else in a dict.
    """

    def __init__(self, ca: ImpulseCA):
        n, v = len(ca.states), ca.table.arity
        if n > MAX_STATES:
            raise ValueError(f"at most {MAX_STATES} states fit the uint8 state "
                             "codes")
        if n ** v > 2 ** 63:
            raise ValueError(f"{n} states over {v} arguments make {n}**{v} "
                             "neighbor codes; at most 2**63 fit int64 codes")
        self.ca = ca
        self.weights = np.array([n ** (v - 1 - pos) for pos in range(v)],
                                dtype=np.int64)
        self.dtype = next(d for d in (np.uint8, np.uint16, np.uint32, np.int64)
                          if n ** v <= np.iinfo(d).max + 1)
        self.flat = (np.full(n ** v, 255, dtype=np.uint8)
                     if n ** v <= FLAT_ENUM_LIMIT else None)
        self.memo: dict[int, int] = {}

    def _apply(self, code: int) -> int:
        tup = []
        for w in self.weights.tolist():
            digit, code = divmod(code, w)
            tup.append(self.ca.states[digit])
        return self.ca.state_code(self.ca.table.apply(tuple(tup)))

    def lookup(self, codes: np.ndarray) -> np.ndarray:
        flat = self.flat
        if flat is not None:
            out = flat.take(codes)
            if out.max(initial=0) == 255:
                for c in set(codes[out == 255].tolist()):
                    flat[c] = self._apply(c)
                out = flat.take(codes)
            return out
        uniq, inv = np.unique(codes, return_inverse=True)
        res = np.empty(len(uniq), dtype=np.uint8)
        for j, c in enumerate(uniq.tolist()):
            r = self.memo.get(c)
            if r is None:
                r = self.memo[c] = self._apply(c)
            res[j] = r
        return res[inv]


# ---------------------------------------------------------------------------
# space-time diagrams

Slice = tuple[np.ndarray, np.ndarray]  # (sorted packed int64, uint8 codes)


def _empty_slice() -> Slice:
    return (np.empty(0, dtype=np.int64), np.empty(0, dtype=np.uint8))


class SliceView:
    """Read-only view of one time slice, the input of every probe.

    It holds either a packed sparse slice or, for a windowed run, the box of
    diagonals a window run steps at time t: entry j holds diagonal
    i = stride * j, and the box covers the diagonals of [0, reach]^dim that
    can be live.
    """

    __slots__ = ("ca", "t", "_sl", "_window", "_stride", "_reach")

    def __init__(self, ca: ImpulseCA, t: int, sl: Slice | None = None, *,
                 window: np.ndarray | None = None,
                 stride: tuple[int, ...] = (), reach: int = -1):
        self.ca = ca
        self.t = t
        self._sl = sl
        self._window = window
        self._stride = stride
        self._reach = reach

    @property
    def n_sites(self) -> int:
        if self._window is not None:
            return int(np.count_nonzero(self._window))
        return len(self._sl[0])

    def grid(self) -> tuple[tuple[np.ndarray, ...], np.ndarray]:
        """Per-axis int64 cell coordinates and the uint8 codes they broadcast
        against, in cell order; on a window, the open grid t - stride*j over
        the box flipped on every axis, quiescent entries included."""
        if self._window is not None:
            box = self._window[(slice(None, None, -1),) * self.ca.dim]
            ones = (1,) * box.ndim
            return tuple(np.arange(self.t - g * (n - 1), self.t + 1, g)
                         .reshape(ones[:a] + (n,) + ones[a + 1:])
                         for a, (g, n) in enumerate(zip(self._stride,
                                                        box.shape))), box
        return tuple(unpack_cells(self._sl[0], self.ca.dim).T), self._sl[1]

    def diagonal_index(self, points):
        """For ``diagonals``, fixed for a run.  A point with a negative
        coordinate reads quiescent; a window refuses one past its reach."""
        dim, reach, stride = self.ca.dim, self._reach, self._stride
        for i in points:
            if len(i) != dim:
                raise ValueError(
                    f"diagonal {i} has {len(i)} coordinates, CA has {dim}")
        if self._window is None:
            # cell t*1bar - i packs to (t + half)*unit - shift(i) in the cone;
            # a point never in it (it could alias a live cell) reads ``off``
            top = 2 * max_horizon(dim)
            off = (top + 1,) + (0,) * (dim - 1)
            shifts = [_offset_shift(i if 0 <= min(i) and max(i) <= top
                                    else off, dim) for i in points]
            return (np.array(shifts, dtype=np.int64),
                    int(_offset_shift((1,) * dim, dim)), 1 << (_bits(dim) - 1))
        # per axis, the box entry of each point and the axis's end, one past
        # the largest; a point off the stride or below 0 reads entry 0, then
        # quiescent
        entries, off = [], []
        for j, i in enumerate(points):
            if max(i) > reach and min(i) >= 0:
                raise BeyondWindow(f"diagonal {i} lies past the window "
                                   f"[0, {reach}]^{dim}")
            q = []
            for a, g in zip(i, stride):
                k, r = divmod(a, g)
                if r or k < 0:
                    q = [0] * dim
                    off.append(j)
                    break
                q.append(k)
            entries += q
        # plain lists: a numpy max over the axes here raised the peak RSS
        # of a short run (verify_bounds) by about 0.1 MB
        cols = [entries[a::dim] for a in range(dim)]
        return (tuple(np.array(c, dtype=np.intp) for c in cols),
                [max(c, default=-1) + 1 for c in cols],
                np.array(off, dtype=np.intp) if off else None, {})

    def diagonals(self, index) -> np.ndarray:
        """The state codes on the diagonals of a ``diagonal_index``: one
        gather from a window's box, one binary search of a sparse slice."""
        if self._window is None:
            shifts, unit, half = index
            packed, codes = self._sl
            if not len(packed):
                return np.zeros(len(shifts), dtype=np.uint8)
            keys = (self.t + half) * unit - shifts
            pos = packed.searchsorted(keys)
            found = packed.take(pos, mode="clip") == keys
            return np.where(found, codes.take(pos, mode="clip"), 0)
        qs, ends, off, gathers = index
        box = self._window
        # the gather depends on the box only through its shape clipped to
        # the points' ends, which changes on a few steps of a run
        clipped = tuple(map(min, ends, box.shape))
        gather = gathers.get(clipped)
        if gather is None:
            gather = gathers[clipped] = _box_gather(qs, ends, off, clipped)
        qs, zero = gather
        codes = box[qs]
        if zero is not None:
            codes[zero] = 0
        return codes

    def cells(self):
        """(cell, symbol) of the non-quiescent cells in lexicographic order."""
        scan = CellScan(lambda *_: True)
        scan.observe(self)
        return ((u, s) for u, _, s in scan.found)


def _box_gather(qs, ends, off, shape):
    """A window gather of the points with per-axis box entries ``qs`` and
    ends ``ends`` from a box clipped to ``shape``: the entries clipped into
    the box, and the points that read quiescent, those ``off`` the stride
    or below 0 and those past the box (None if there are none)."""
    if shape == tuple(ends):
        return qs, off
    zero = np.zeros(len(qs[0]), dtype=bool)
    if off is not None:
        zero[off] = True
    clipped = []
    for q, e, n in zip(qs, ends, shape):
        if n < e:
            past = q >= n
            zero[past] = True
            q = q.copy()
            q[past] = n - 1
        clipped.append(q)
    return tuple(clipped), zero


@dataclass
class SpaceTimeDiagram:
    """Fully retained run, one (packed cells, state codes) pair per slice:
    ``run``'s, ``dense_run``'s or a loaded dump's."""

    ca: ImpulseCA
    slices: list[Slice]
    truncated: bool = False

    @property
    def horizon(self) -> int:
        return len(self.slices) - 1

    @property
    def total_sites(self) -> int:
        return sum(len(p) for p, _ in self.slices)

    def view(self, t: int) -> SliceView:
        """Slice t as the view a probe observes."""
        if not 0 <= t <= self.horizon:
            raise BeyondHorizon(f"t={t} outside simulated range 0..{self.horizon}")
        return SliceView(self.ca, t, self.slices[t])

    def replay(self, probe, stop: int):
        """Feed ``probe`` the views of slices 0..stop-1 in time order, as
        ``run_probes`` feeds the slices it steps, and return the probe."""
        for t in range(stop):
            probe.observe(self.view(t))
        return probe

    def dumps(self) -> str:
        views = map(self.view, range(self.horizon + 1))
        return "[" + "".join(json_chunks(self.ca, views)) + "]"


def json_chunks(ca: ImpulseCA, views):
    """Yield the compact JSON of each view's slice, ``{"t":T,"cells":[...]}``,
    ``,``-prefixed after slice 0: the items of a dump's slice array.  Symbols
    are written unescaped, as ``json.dumps(..., ensure_ascii=False)`` does.

    A slice is one join of its head and its cells' string fields, looked up
    by fancy indexing in tables over the coordinates -m..m
    (``_coord_tables``) and over the states; m, the largest live |u_a| so
    far, doubles when a slice outgrows it.  No view is kept past its
    slice."""
    tail = np.array(['],"s":' + json.dumps(s, ensure_ascii=False) + "}"
                     for s in ca.states], dtype=object)
    m, (first, mid) = 0, _coord_tables(0)
    for view in views:
        coords, codes = view.grid()
        need = max(int(np.abs(c).max(initial=0)) for c in coords)
        if need > m:
            m = max(need, 2 * m)
            first, mid = _coord_tables(m)
        fields = np.empty((len(codes), len(coords) + 1), dtype=object)
        for a, c in enumerate(coords):
            fields[:, a] = (mid if a else first)[c + m]
        fields[:, -1] = tail[codes]
        # every cell opens with its separating comma; the slice's head
        # takes the first one's place, and the slice is one join
        head = '%s{"t":%d,"cells":[' % ("," if view.t else "", view.t)
        cells = fields.ravel().tolist() or [","]
        cells[0] = head + cells[0][1:]
        cells.append("]}")
        yield "".join(cells)


def _coord_tables(m: int) -> tuple[np.ndarray, np.ndarray]:
    """The dump's strings for coordinates a = -m..m at index a + m: a cell's
    first coordinate opens it, ``,{"u":[a``, and each other one is ``,a``."""
    text = np.array([str(a) for a in range(-m, m + 1)], dtype=object)
    return ',{"u":[' + text, "," + text


def _seed_slice(ca: ImpulseCA) -> Slice:
    if ca.seed == ca.quiescent:
        return _empty_slice()
    origin = np.zeros((1, ca.dim), dtype=np.int64)
    return (pack_cells(origin, ca.dim),
            np.array([ca.state_code(ca.seed)], dtype=np.uint8))


class _Workspace:
    """Scratch buffers of one sparse run, shared by all of its steps.

    Fresh n*v-sized temporaries every step would be handed back to the OS
    by heap trimming and faulted in again page by page on the next step.
    These only grow, with headroom, when a step needs more than they hold.
    """

    def __init__(self):
        self._grow(0)

    def _grow(self, cap: int):
        self.cap = cap
        self.keys, self.contrib, self.skeys = (
            np.empty(cap, dtype=np.int64) for _ in range(3))
        self.first = np.empty(cap, dtype=bool)

    def take(self, m: int):
        """The first m entries of keys, contrib, skeys and first."""
        if m > self.cap:
            self._grow(m + m // 4)
        return self.keys[:m], self.contrib[:m], self.skeys[:m], self.first[:m]


def _step(ca: ImpulseCA, sl: Slice, ev: _Evaluator,
          shifts: list[np.int64], ws: _Workspace) -> Slice:
    packed, codes = sl
    n = len(packed)
    if n == 0:
        return _empty_slice()
    # A cell can wake only if some declared neighbor is live now.  Live cell
    # p is the argument at position pos of candidate p - shifts[pos] and adds
    # codes * ev.weights[pos] to its flat code; quiescent neighbors add 0.
    # Each shifted copy is sorted, so the stable sort (timsort) merges v runs.
    keys, contrib, skeys, first = ws.take(n * len(shifts))
    for j, (sh, w) in enumerate(zip(shifts, ev.weights)):
        np.subtract(packed, sh, out=keys[j * n:(j + 1) * n])
        np.multiply(codes, w, out=contrib[j * n:(j + 1) * n], dtype=np.int64)
    order = np.argsort(keys, kind="stable")
    # order is in range, so "clip" changes no index; the default "raise"
    # would gather into a fresh array and copy that into out
    np.take(keys, order, out=skeys, mode="clip")
    # the keys are spent, so their buffer takes the sorted contributions
    scontrib = np.take(contrib, order, out=keys, mode="clip")
    first[0] = True
    np.not_equal(skeys[1:], skeys[:-1], out=first[1:])
    starts = np.flatnonzero(first)
    # the slice outlives the step, so it must not view the workspace:
    # fancy and boolean indexing both copy
    cand = skeys[starts]
    new_codes = ev.lookup(np.add.reduceat(scontrib, starts))
    keep = new_codes != 0
    return (cand[keep], new_codes[keep])


def _check_horizon(ca: ImpulseCA, steps: int) -> None:
    if steps < 0:
        raise ValueError(f"steps must be >= 0, got {steps}")
    if steps > max_horizon(ca.dim):
        raise CoordinateOverflow(
            f"horizon {steps} exceeds packed range for dimension {ca.dim} "
            f"(max {max_horizon(ca.dim)})")


def _misplaced(cell: tuple[int, ...], t: int, ca: ImpulseCA) -> str | None:
    """Why a cell cannot be live at time t, or None if it can."""
    if not in_light_cone(cell, t):
        return f"cell {cell} outside light cone at t={t}"
    if not parity_valid(cell, t, ca.neighborhood):
        return f"cell {cell} parity-invalid at t={t}"
    return None


def _misplaced_select(ca: ImpulseCA):
    """``_misplaced`` over a slice's grid: a ``CellScan`` select marking
    the cells off the light cone or, for trellis, off t's parity."""
    def select(coords, _codes, t):
        off = False
        for c in coords:
            off = off | (np.abs(c) > t)
            if ca.neighborhood.kind == "trellis":
                off = off | ((c + t) & 1).astype(bool)
        return off
    return select


def run(ca: ImpulseCA, steps: int, *,
        budget: int = DEFAULT_SITE_BUDGET) -> SpaceTimeDiagram:
    """Simulate t = 0..steps inclusive, retaining every slice of
    ``run_views``: OverflowHorizon carries the finished part as its
    ``partial`` attribute."""
    slices = []
    try:
        for view in run_views(ca, steps, budget=budget):
            slices.append(view._sl)
    except OverflowHorizon as exc:
        exc.partial = SpaceTimeDiagram(ca, slices, truncated=True)
        raise
    return SpaceTimeDiagram(ca, slices)


def run_views(ca: ImpulseCA, steps: int, *, budget: int = DEFAULT_SITE_BUDGET,
              check: bool = False, dense: bool = False):
    """The views of slices t = 0..steps that ``run`` retains and
    ``simulate`` writes: the sparse stepper's or, with ``dense``, those of
    ``dense_run``'s diagram.  The budget bounds the sites yielded so far,
    seed included, and is checked before each slice is yielded; an
    OverflowHorizon names the last slice yielded.  With ``check``, each
    slice is checked before it is yielded."""
    overflow = None
    if dense:
        try:
            diag = dense_run(ca, steps, budget=budget)
        except OverflowHorizon as exc:
            diag, overflow = exc.partial, exc
        views = map(diag.view, range(diag.horizon + 1))
    else:
        views = _sparse_views(ca, steps, budget)
    total, scan = 0, CellScan(_misplaced_select(ca), cap=1)
    for view in views:
        total += view.n_sites
        if view.t and total > budget:
            raise OverflowHorizon(view.t - 1, budget)
        if check:
            scan.observe(view)
            if scan.found:
                [(cell, t, _)] = scan.found
                raise CheckFailed(_misplaced(cell, t, ca))
        yield view
    if overflow is not None:
        raise overflow


def _sparse_views(ca: ImpulseCA, steps: int, budget: int):
    """The sparse stepper, the one loop behind ``run_views`` and
    ``run_probes``: a view of each slice t = 0..steps; the budget bounds
    each slice."""
    _check_horizon(ca, steps)
    ev, ws = _Evaluator(ca), _Workspace()
    shifts = [_offset_shift(x, ca.dim) for x in ca.arg_order]
    sl = _seed_slice(ca)
    for t in range(steps + 1):
        yield SliceView(ca, t, sl)
        if t < steps:
            sl = _step(ca, sl, ev, shifts, ws)
            if len(sl[0]) > budget:
                raise OverflowHorizon(t, budget)


def _window_views(ca: ImpulseCA, steps: int, reach: int, budget: int):
    """The window stepper: a view of the strided box of diagonals at
    t = 0..steps (see the module docstring).  Argument x of diagonal i is
    diagonal i - d with d = x + 1bar >= 0; an index below 0 lies off the
    light cone and adds 0 (quiescent).  Codes are built in Horner form in
    ``arg_order`` and the evaluator's ``dtype``, then looked up once.  The
    budget bounds each box before it is allocated."""
    if reach < 0:
        raise ValueError(f"reach must be >= 0, got {reach}")
    if budget < 1:
        raise OverflowHorizon(-1, budget)
    ev, n = _Evaluator(ca), len(ca.states)
    ds = [tuple(a + 1 for a in x) for x in ca.arg_order]
    # the seed is on diagonal 0, so only multiples of the gcd are ever live
    stride = tuple(math.gcd(*col) for col in zip(*ds))
    # entry j of the new box reads entry j - k of the old one, padded with
    # quiescent entries to the new box's shape
    adds, spread = [], [0] * ca.dim
    for d in ds:
        k = [a // g for a, g in zip(d, stride)]
        spread = list(map(max, spread, k))
        adds.append((tuple(slice(a, None) for a in k),
                     tuple(slice(None, -a or None) for a in k)))
    cap = [reach // g + 1 for g in stride]
    growing = [a for a in range(ca.dim) if cap[a] > 1]
    window = np.zeros((1,) * ca.dim, dtype=np.uint8)
    window[(0,) * ca.dim] = ca.state_code(ca.seed)
    for t in range(steps + 1):
        yield SliceView(ca, t, window=window, stride=stride, reach=reach)
        if t == steps:
            return
        # an axis grows to one step's spread past its highest live entry:
        # a cell with no live argument stays quiescent
        shape = grown = window.shape
        if growing:
            grown = list(shape)
            for a in growing:
                for hi in range(shape[a] - 1,
                                max(shape[a] - spread[a], 0) - 1, -1):
                    slab = window[(slice(None),) * a + (hi,)]
                    if np.count_nonzero(slab):
                        grown[a] = min(cap[a], hi + spread[a] + 1)
                        break
            grown = tuple(grown)
        if grown != shape:
            if math.prod(grown) > budget:
                raise OverflowHorizon(t, budget)
            growing = [a for a in growing if grown[a] < cap[a]]
            wide = np.zeros(grown, dtype=np.uint8)
            wide[tuple(map(slice, shape))] = window
            window = wide
        codes = np.zeros(grown, dtype=ev.dtype)
        for dst, src in adds:
            codes *= n
            codes[dst] += window[src]
        window = ev.lookup(codes.ravel()).reshape(grown)


def run_probes(ca: ImpulseCA, steps: int, probes, *,
               budget: int = DEFAULT_SITE_BUDGET,
               reach: int | None = None) -> None:
    """Simulate while retaining only the live slice; feed each slice to probes.

    Each probe must implement ``observe(view: SliceView)``.  The budget here
    bounds a single slice, not the whole run.  With ``reach=R`` only the
    diagonals [0, R]^dim are stepped; a probe that reads a light-cone cell
    on any other diagonal gets BeyondWindow.  Of those, each step holds the
    strided box that can be live (``_window_views``), and the budget bounds
    that box before it is allocated: an overflow names the last complete
    slice, as on the sparse engine.
    """
    if steps < 0:
        raise ValueError(f"steps must be >= 0, got {steps}")
    views = (_sparse_views(ca, steps, budget) if reach is None
             else _window_views(ca, steps, reach, budget))
    for view in views:
        for p in probes:
            p.observe(view)


# ---------------------------------------------------------------------------
# dense reference engine


def dense_run(ca: ImpulseCA, steps: int, *,
              budget: int = DEFAULT_SITE_BUDGET) -> SpaceTimeDiagram:
    """Reference simulation over the full dense cone.

    Recomputes every cell of the region [-t, t]^dim from the rule list via
    first-match apply.  Intentionally shares no stepping, candidate, or
    pruning logic with the sparse engine; only the storage container is
    common so results compare directly.  The budget and its OverflowHorizon
    with ``partial`` mean what they do for ``run``.
    """
    _check_horizon(ca, steps)
    lam = ca.quiescent
    dim = ca.dim
    order = ca.arg_order
    table = ca.table
    dicts: list[dict[tuple[int, ...], str]] = []
    dicts.append({} if ca.seed == lam else {(0,) * dim: ca.seed})
    total, overflow = len(dicts[0]), None
    for t in range(1, steps + 1):
        prev = dicts[-1]
        cur: dict[tuple[int, ...], str] = {}
        for cell in product(range(-t, t + 1), repeat=dim):
            neigh = tuple(
                prev.get(tuple(c + x for c, x in zip(cell, off)), lam)
                for off in order)
            s = table.apply(neigh)
            if s != lam:
                cur[cell] = s
        total += len(cur)
        if total > budget:
            overflow = OverflowHorizon(t - 1, budget)
            break
        dicts.append(cur)
    slices = []
    for d in dicts:
        cells = sorted(d.items())
        coords = np.array([c for c, _ in cells], dtype=np.int64)
        codes = np.array([ca.state_code(s) for _, s in cells], dtype=np.uint8)
        slices.append((pack_cells(coords.reshape(-1, dim), dim), codes))
    diag = SpaceTimeDiagram(ca, slices, truncated=overflow is not None)
    if overflow is not None:
        overflow.partial = diag
        raise overflow
    return diag


def diagram_from_json_obj(ca: ImpulseCA, obj) -> SpaceTimeDiagram:
    """Rebuild a diagram from its JSON dump.

    Accepts either the plain slice array or the truncated-run wrapper
    ``{"truncated": true, "slices": [...]}``.
    """
    truncated = False
    if isinstance(obj, dict):
        truncated = json_object({"truncated": False, **obj}, "a dump wrapper",
                                truncated=bool)["truncated"]
        obj = obj.get("slices")
    rows = sorted((json_object(r, "a slice", t=int, cells=list)
                   for r in json_list(obj, "diagram slices")),
                  key=lambda r: r["t"])
    if [r["t"] for r in rows] != list(range(len(rows))):
        raise ValueError("slice times must be 0..T without gaps")
    known = set(ca.states)
    slices = []
    for r in rows:
        cells = r["cells"]
        for c in cells:
            json_object(c, f"a cell of slice t={r['t']}", u=list, s=str)
            if c["s"] not in known:
                raise UnknownState(f"symbol {c['s']!r} not in the CA alphabet")
            u = c["u"]
            if len(u) != ca.dim:
                raise ValueError(f"cell {u} has wrong dimension")
            if not all(type(a) is int for a in u):
                raise ValueError(f"cell {u} has a non-integer coordinate")
            # checked before packing: a cell outside the cone could overflow
            # its packed field and alias another cell
            problem = _misplaced(tuple(u), r["t"], ca)
            if problem:
                raise ValueError(problem)
        coords = np.array([c["u"] for c in cells], dtype=np.int64)
        codes = np.array([ca.state_code(c["s"]) for c in cells],
                         dtype=np.uint8)
        packed = pack_cells(coords.reshape(-1, ca.dim), ca.dim)
        order = np.argsort(packed)
        packed = packed[order]
        if np.any(packed[1:] == packed[:-1]):
            raise ValueError(f"duplicate cells in slice t={r['t']}")
        slices.append((packed, codes[order]))
    return SpaceTimeDiagram(ca, slices, truncated=truncated)


def same_run(a: SpaceTimeDiagram, b: SpaceTimeDiagram) -> bool:
    """True when two diagrams hold identical cells at every slice."""
    return a.horizon == b.horizon and all(
        np.array_equal(pa, pb) and np.array_equal(ca_, cb)
        for (pa, ca_), (pb, cb) in zip(a.slices, b.slices))


# ---------------------------------------------------------------------------
# diagonal words and the sheared-coordinate transform


def diagonal_start(i: tuple[int, ...]) -> int:
    """First time at which the diagonal through -i enters the light cone."""
    m = max(i)
    return max(0, (m + 1) // 2)


def w_site(k: int, l: int, i: int) -> tuple[tuple[int, int], int]:
    """Diagonal and time of entry (k, l, i): cell (k - i + l, k - i - l)."""
    return (2 * i, 2 * i + 2 * l), k + i + l


class CellScan:
    """Reads every live cell of each slice: ``total`` counts them, and
    ``found`` keeps (cell, t, symbol) for each live cell that the vectorised
    ``select(coords, codes, t)`` marks over ``SliceView.grid()``, in time
    and then lexicographic order.  It keeps no more than ``cap`` of them,
    all with ``cap=None``, and builds the cells of only those."""

    def __init__(self, select, cap: int | None = None):
        self.select, self.cap = select, cap
        self.total, self.found = 0, []

    def observe(self, view):
        coords, codes = view.grid()
        self.total += view.n_sites
        room = None if self.cap is None else self.cap - len(self.found)
        live = np.logical_and(self.select(coords, codes, view.t), codes)
        # count_nonzero, not any(): that reduction over a window's flipped
        # box raised the counter's peak RSS by about 0.1 MB
        if room == 0 or not np.count_nonzero(live):
            return
        hits = tuple(i[:room] for i in np.nonzero(live))
        # an array of a window's open grid is 1 long on all but its own axis
        cells = zip(*[(c if c.shape == codes.shape else
                       np.broadcast_to(c, codes.shape))[hits].tolist()
                      for c in coords])
        states = view.ca.states
        self.found += [(u, view.t, states[s])
                       for u, s in zip(cells, codes[hits].tolist())]


class SiteCount:
    """``total`` and ``found`` of a ``CellScan`` whose select is proven
    never to fire (``scan_never_fires``): it only counts the live cells."""

    found = ()

    def __init__(self):
        self.total = 0

    def observe(self, view):
        self.total += view.n_sites


PROOF_STEPS = 6     # the classes scan_never_fires collects, t = 1..6


def scan_never_fires(ca: ImpulseCA, select) -> bool:
    """True when the rule table proves that ``CellScan(select)`` finds no
    cell on any run of ``ca``, at every t; False when the proof fails.

    Cell u may hold λ at t, and a live code c only where ``select(u, c, t)``
    is false: its allowed set.  That holds for the seed slice if the seed
    is allowed at the origin.  It holds at t if it held at t - 1 and the
    table sends every assignment of allowed states to a cell's arguments
    into the cell's own allowed set; so the proof applies the table to each
    assignment of each class of a cell, the allowed sets of the cell at t
    and of its arguments at t - 1 (``_scan_classes``).  Cells off the light
    cone hold λ, so the classes of [-t-1, t+1]^dim for t = 1..PROOF_STEPS
    stand for every t when each class of a later t is among them.  They are
    for the selects the claims pass (``verification``): the counter's wedge
    and the two-track planes mark a cell by its parity and by which side of
    a constant each of a few linear forms in (u, t) lies on (b - a, a - t
    and b + t; a - b), and an argument moves each form by at most 2, so
    once t is past those constants every class recurs (from t = 3 for the
    wedge and t = 1 for the planes).  A test checks that the classes of
    t <= 4*PROOF_STEPS are among them."""
    dim, n = ca.dim, len(ca.states)
    seed = ca.state_code(ca.seed)
    origin = (np.zeros(1, dtype=np.int64),) * dim
    if seed and np.count_nonzero(select(origin, np.array([seed]), 0)):
        return False
    full = (1 << (n - 1)) - 1
    need = {}
    for own, *args in _scan_classes(ca, select, range(1, PROOF_STEPS + 1)):
        if own == full:
            continue
        for tup in product(*[[0] + [c for c in range(1, n) if a >> (c - 1) & 1]
                             for a in args]):
            need[tup] = need.get(tup, full) & own
    states = ca.states
    for tup, own in need.items():
        c = ca.state_code(ca.table.apply(tuple(states[c] for c in tup)))
        if c and not own >> (c - 1) & 1:
            return False
    return True


def _scan_classes(ca: ImpulseCA, select, times: range) -> set[tuple]:
    """The classes of the cells of [-t-1, t+1]^dim at each t in ``times``:
    the allowed set of the cell at t and those of its arguments (in
    ``arg_order``) at t - 1, each the mask of its allowed live codes, bit
    c - 1 for code c.  One batched ``select`` over t, codes and the box
    [-m, m]^dim that holds every argument gives them all."""
    dim, n = ca.dim, len(ca.states)
    lo, m = times.start - 1, times.stop + 1
    span = np.arange(-m, m + 1)
    shape = (len(times) + 1, n - 1) + (2 * m + 1,) * dim
    coords = tuple(span.reshape((1,) * (2 + a) + (-1,) + (1,) * (dim - a - 1))
                   for a in range(dim))
    codes = np.arange(1, n).reshape((1, -1) + (1,) * dim)
    ts = np.arange(lo, times.stop).reshape((-1,) + (1,) * (dim + 1))
    allowed = ~np.broadcast_to(select(coords, codes, ts), shape)
    # per t and cell, the nb bytes of its mask, little end first
    packed = np.packbits(allowed, axis=1, bitorder="little")
    nb = packed.shape[1]
    raw = set()
    for t in times:
        # the cell at t, then each argument x at t - 1, over [-t-1, t+1]^dim
        e, at = t + 1, [(t, (0,) * dim)] + [(t - 1, x) for x in ca.arg_order]
        parts = [packed[s - lo][(slice(None),) + tuple(
            slice(m - e + x, m + e + 1 + x) for x in xs)] for s, xs in at]
        raw.update(zip(*[row for p in parts
                         for row in p.reshape(nb, -1).tolist()]))
    return {tuple(int.from_bytes(bytes(cls[k:k + nb]), "little")
                  for k in range(0, len(cls), nb)) for cls in raw}



class DiagonalLetters:
    """Holds the letters of the diagonals ``points`` (repeats dropped) at each
    step: row t of ``held`` is their codes at time t, column j those of
    ``points[j]``; a step is one gather through its first view's index."""

    def __init__(self, points):
        self.column = {i: j for j, i in enumerate(dict.fromkeys(points))}
        self.points, self.index, self.rows = tuple(self.column), None, []

    def observe(self, view):
        if self.index is None:
            self.index = view.diagonal_index(self.points)
            self.states = view.ca.states
        self.rows.append(view.diagonals(self.index).tobytes())

    @property
    def held(self) -> np.ndarray:
        return np.frombuffer(b"".join(self.rows), dtype=np.uint8).reshape(
            len(self.rows), len(self.points))

    def spell(self, rows) -> list[list[str]]:
        """The state symbols at each list of (diagonal, t) sites in ``rows``,
        one fancy index into ``held`` per row; BeyondHorizon for a t unheld."""
        held, last, out = self.held, len(self.rows) - 1, []
        for row in rows:
            times = [t for _, t in row]
            bad = [t for t in times if not 0 <= t <= last]
            if bad:
                raise BeyondHorizon(f"t={min(bad)} outside simulated range "
                                    f"0..{last}")
            codes = held[times, [self.column[i] for i, _ in row]]
            out.append([self.states[c] for c in codes.tolist()])
        return out

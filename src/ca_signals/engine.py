"""Simulation engines for impulse automata.

Three engines, one per job:

* ``run`` / ``run_probes``: sparse, vectorized, over the light cone.  Live
  cells of one time slice are kept as a sorted int64 array of packed
  coordinates plus a uint8 state code array.  A step merges the v shifted
  copies of that array with one stable sort, sums each candidate cell's
  neighbor codes with one ``reduceat``, and maps the sums to new states.
  The merge's n*v-sized scratch arrays live in one grow-only workspace per
  run, reused by every step; the slices a step returns never view it.
  A point read (``SliceView.state_at``) is one binary search for a key
  packed with Python ints; cells outside the light cone read quiescent
  without being packed.
* ``run_probes(..., reach=R)``: the diagonal window, for claims that read
  known diagonals.  Write a site as i = t*1bar - u; cell u at time t+1 reads
  u + x at time t, which is diagonal i - (x + 1bar), and every coordinate of
  x + 1bar is >= 0 for all three neighborhood kinds.  So the diagonals
  [0, R]^dim are closed under the update: one dense uint8 array of them is
  stepped with v shifted slice-adds of flat codes and one table lookup.
* ``dense_run``: a plain dict-of-cells reference engine that re-applies the
  rule list with first-match semantics, cell by cell.  It shares no stepping
  or pruning logic with the other two so it can cross-check them.

The sparse and window engines map flat neighbor codes through one evaluator
that applies the rule table the first time a run meets a code and caches the
result, so no table is enumerated before the first step.

Probes are the only way to read a diagram: walkers, digit readouts, plane,
region and mark checks, diagonal words and fixed-site reads (``ReadSchedule``)
each observe one ``SliceView`` per time step.  Claims stream: ``run_probes``
feeds probes the live slice (or window) as it steps and retains nothing
else.  Only dumps retain: ``run`` keeps every slice the same stepper yields,
for ``simulate``, ``render`` and loaded diagrams, and
``SpaceTimeDiagram.replay`` feeds probes its stored slices.

A retained diagram's JSON dump is formatted slice by slice straight from the
packed arrays (``json_chunks``), with no object per cell.

Coordinates are packed most-significant-axis-first with a per-axis bias, so
numeric order of packed values equals lexicographic order of cells.
"""

from __future__ import annotations

import json
from collections import defaultdict
from dataclasses import dataclass
from itertools import product

import numpy as np

from .automaton import ImpulseCA
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

    A neighbor tuple's flat code is sum codes[pos] * n**(v-1-pos).  The table
    is applied the first time a code is met and the result cached: in a uint8
    array over all n**v codes (255 marks a code not yet applied) when that
    fits FLAT_ENUM_LIMIT, else in a dict.
    """

    def __init__(self, ca: ImpulseCA):
        n, v = len(ca.states), ca.table.arity
        if n > 255:
            raise ValueError("at most 255 states fit the uint8 state codes")
        if n ** v > 2 ** 63:
            raise ValueError(f"{n} states over {v} arguments make {n}**{v} "
                             "neighbor codes; at most 2**63 fit int64 codes")
        self.ca = ca
        self.weights = np.array([n ** (v - 1 - pos) for pos in range(v)],
                                dtype=np.int64)
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
            out = flat[codes]
            if out.max(initial=0) == 255:
                for c in set(codes[out == 255].tolist()):
                    flat[c] = self._apply(c)
                out = flat[codes]
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


def _read_cell(ca: ImpulseCA, sl: Slice, cell: tuple[int, ...], t: int) -> str:
    """State symbol of one cell of the slice at time t.

    No live cell lies outside the light cone, so such a cell reads quiescent
    before its key is packed; inside the cone every coordinate fits its
    packed field, so far-out coordinates cannot alias a stored cell.
    """
    b = _bits(ca.dim)
    half = 1 << (b - 1)
    key = 0
    for a in cell:
        if not -t <= a <= t:
            return ca.quiescent
        key = (key << b) | (a + half)
    packed, codes = sl
    i = packed.searchsorted(key)
    if i < len(packed) and packed[i] == key:
        return ca.states[codes[i]]
    return ca.quiescent


def _read_window(ca: ImpulseCA, window: np.ndarray, cell: tuple[int, ...],
                 t: int) -> str:
    """State symbol of one cell of a diagonal window at time t.

    A cell outside the light cone reads quiescent; a cell inside it whose
    diagonal t*1bar - cell lies past the window raises BeyondWindow.
    """
    i = tuple(t - a for a in cell)
    if min(i) < 0 or max(i) > 2 * t:
        return ca.quiescent
    if max(i) >= len(window):
        raise BeyondWindow(f"cell {cell} at t={t} is on diagonal {i}, past "
                           f"the window [0, {len(window) - 1}]^{ca.dim}")
    return ca.states[window[i]]


class SliceView:
    """Read-only view of one time slice, the input of every probe.

    It holds either a packed sparse slice or, for a windowed run, the
    window of diagonals [0, R]^dim at time t.
    """

    __slots__ = ("ca", "t", "_sl", "_window")

    def __init__(self, ca: ImpulseCA, t: int, sl: Slice | None = None, *,
                 window: np.ndarray | None = None):
        self.ca = ca
        self.t = t
        self._sl = sl
        self._window = window

    def state_at(self, cell: tuple[int, ...]) -> str:
        if len(cell) != self.ca.dim:
            raise ValueError(
                f"cell has {len(cell)} coordinates, CA has {self.ca.dim}")
        if self._window is not None:
            return _read_window(self.ca, self._window, cell, self.t)
        return _read_cell(self.ca, self._sl, cell, self.t)

    @property
    def n_sites(self) -> int:
        if self._window is not None:
            return int(np.count_nonzero(self._window))
        return len(self._sl[0])

    def arrays(self) -> tuple[np.ndarray, np.ndarray]:
        """(n, dim) int64 non-quiescent cells in lexicographic order and their
        uint8 state codes; a window view holds only its diagonals' cells."""
        if self._window is not None:
            # cell = t*1bar - i, so descending i is ascending cell order
            idx = np.argwhere(self._window)[::-1]
            return self.t - idx, self._window[tuple(idx.T)]
        return unpack_cells(self._sl[0], self.ca.dim), self._sl[1]

    def cells(self):
        """Yield (cell, symbol) for non-quiescent cells in lexicographic order."""
        coords, codes = self.arrays()
        states = self.ca.states
        for u, c in zip(coords.tolist(), codes.tolist()):
            yield tuple(u), states[c]


@dataclass
class SpaceTimeDiagram:
    """Fully retained run: one (packed cells, state codes) pair per slice.

    Its JSON dump is written one slice at a time from ``json_chunks``.
    """

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

    def json_chunks(self):
        """Yield the compact JSON dump: ``[``, then ``{"t":T,"cells":[...]}``
        per slice (``,``-prefixed after the first), then ``]``.  Symbols are
        written unescaped, as ``json.dumps(..., ensure_ascii=False)`` does."""
        dim = self.ca.dim
        cell = '{"u":[' + ",".join(["%d"] * dim) + '],"s":%s},'
        sym = np.array([json.dumps(s, ensure_ascii=False)
                        for s in self.ca.states], dtype=object)
        yield "["
        for t in range(self.horizon + 1):
            coords, codes = self.view(t).arrays()
            # one %-format per slice, fed each cell's coordinates and symbol
            fields = np.empty((len(codes), dim + 1), dtype=object)
            fields[:, :dim] = coords
            fields[:, dim] = sym[codes]
            body = (cell * len(codes))[:-1] % tuple(fields.ravel().tolist())
            yield '%s{"t":%d,"cells":[%s]}' % ("," if t else "", t, body)
        yield "]"

    def dumps(self) -> str:
        return "".join(self.json_chunks())


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


def run(ca: ImpulseCA, steps: int, *, budget: int = DEFAULT_SITE_BUDGET,
        check: bool = False) -> SpaceTimeDiagram:
    """Simulate t = 0..steps inclusive, retaining every slice.

    The budget bounds the retained sites, seed included, and is checked
    after each step.  Raises OverflowHorizon when it runs out; the
    exception carries the finished part as its ``partial`` attribute.
    """
    slices, total = [], 0
    try:
        for view in _sparse_views(ca, steps, budget):
            total += view.n_sites
            if view.t and total > budget:
                raise OverflowHorizon(view.t - 1, budget)
            slices.append(view._sl)
            if check:
                for cell, _ in view.cells():
                    problem = _misplaced(cell, view.t, ca)
                    if problem:
                        raise CheckFailed(problem)
    except OverflowHorizon as exc:
        exc.partial = SpaceTimeDiagram(ca, slices, truncated=True)
        raise
    return SpaceTimeDiagram(ca, slices)


def check_window(dim: int, reach: int, budget: int) -> None:
    """Raise OverflowHorizon if the window [0, reach]^dim exceeds the budget.

    A windowed run holds that one array as its only slice.
    """
    if reach < 0:
        raise ValueError(f"reach must be >= 0, got {reach}")
    if (reach + 1) ** dim > budget:
        raise OverflowHorizon(-1, budget)


def _sparse_views(ca: ImpulseCA, steps: int, budget: int):
    """The sparse stepper, the one loop behind ``run`` and ``run_probes``:
    a view of each slice t = 0..steps; the budget bounds each slice."""
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
    check_window(ca.dim, reach, budget)
    ev = _Evaluator(ca)
    size = reach + 1
    # Argument x of diagonal i is diagonal i - d with d = x + 1bar >= 0; an
    # index below 0 lies off the light cone and adds 0 (quiescent).
    adds = []
    for x, w in zip(ca.arg_order, ev.weights):
        d = [a + 1 for a in x]
        if max(d) < size:
            adds.append((tuple(slice(k, None) for k in d),
                         tuple(slice(0, size - k) for k in d), w))
    window = np.zeros((size,) * ca.dim, dtype=np.uint8)
    window[(0,) * ca.dim] = ca.state_code(ca.seed)
    for t in range(steps + 1):
        yield SliceView(ca, t, window=window)
        if t < steps:
            wide = window.astype(np.int64)
            codes = np.zeros_like(wide)
            for dst, src, w in adds:
                codes[dst] += wide[src] * w
            window = ev.lookup(codes.ravel()).reshape(window.shape)


def run_probes(ca: ImpulseCA, steps: int, probes, *,
               budget: int = DEFAULT_SITE_BUDGET,
               reach: int | None = None) -> None:
    """Simulate while retaining only the live slice; feed each slice to probes.

    Each probe must implement ``observe(view: SliceView)``.  The budget here
    bounds a single slice, not the whole run.  With ``reach=R`` only the
    diagonals [0, R]^dim are stepped; a probe that reads a light-cone cell
    on any other diagonal gets BeyondWindow.  The (R+1)^dim window counts
    against the budget before it is allocated.
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
    common so results compare directly.
    """
    _check_horizon(ca, steps)
    lam = ca.quiescent
    dim = ca.dim
    order = ca.arg_order
    table = ca.table
    dicts: list[dict[tuple[int, ...], str]] = []
    dicts.append({} if ca.seed == lam else {(0,) * dim: ca.seed})
    total = len(dicts[0])
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
            exc = OverflowHorizon(t - 1, budget)
            exc.partial = None
            raise exc
        dicts.append(cur)
    slices = []
    for d in dicts:
        cells = sorted(d.items())
        coords = np.array([c for c, _ in cells], dtype=np.int64)
        codes = np.array([ca.state_code(s) for _, s in cells], dtype=np.uint8)
        slices.append((pack_cells(coords.reshape(-1, dim), dim), codes))
    return SpaceTimeDiagram(ca, slices)


def diagram_from_json_obj(ca: ImpulseCA, obj) -> SpaceTimeDiagram:
    """Rebuild a diagram from its JSON dump.

    Accepts either the plain slice array or the truncated-run wrapper
    ``{"truncated": true, "slices": [...]}``.
    """
    truncated = False
    if isinstance(obj, dict):
        truncated = bool(obj.get("truncated", False))
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


class DiagonalProbe:
    """Collector for one diagonal word, fed slice views in time order."""

    def __init__(self, i: tuple[int, ...], length: int):
        if length < 1:
            raise ValueError(f"length must be >= 1, got {length}")
        self.i = tuple(i)
        self.length = length
        self.start = diagonal_start(self.i)
        self.letters: list[str] = []
        self.skip = any(a < 0 for a in self.i)

    def observe(self, view: SliceView):
        if self.skip or len(self.letters) >= self.length:
            return
        t = view.t
        if t < self.start:
            return
        cell = tuple(t - a for a in self.i)
        self.letters.append(view.state_at(cell))

    def word(self, quiescent: str) -> tuple[str, ...]:
        if self.skip:
            return (quiescent,) * self.length
        if len(self.letters) < self.length:
            raise BeyondHorizon(
                f"diagonal {self.i} collected {len(self.letters)} of "
                f"{self.length} letters")
        return tuple(self.letters)


def w_site(k: int, l: int, i: int) -> tuple[tuple[int, int], int]:
    """Cell and time of entry (k, l, i) of the sheared two-index family."""
    return (k - i + l, k - i - l), k + i + l


class ReadSchedule:
    """Reads sites fixed before stepping: ``rows[j]`` collects the states
    at the (cell, t) sites of ``sites[j]``, which are in time order."""

    def __init__(self, sites):
        self.rows: list[list[str]] = [[] for _ in sites]
        self.due = defaultdict(list)    # t -> [(row, cell)] still to read
        for row, row_sites in zip(self.rows, sites):
            for cell, t in row_sites:
                self.due[t].append((row, cell))

    def observe(self, view):
        for row, cell in self.due.pop(view.t, ()):
            row.append(view.state_at(cell))

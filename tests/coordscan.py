"""The coordinate scan, kept only to cross-check ``engine.CellScan`` in the
tests.

It builds the coordinates of every live cell of a slice first, an (n, dim)
int64 array (``np.argwhere`` over a window's box, ``unpack_cells`` of a
sparse slice's packed keys), and then evaluates the select over that array's columns.
``CellScan`` evaluates the same select once over the box or the slice and
builds coordinates only for the cells it keeps.
"""

import numpy as np

from ca_signals.engine import unpack_cells


def cell_arrays(view):
    """(n, dim) int64 live cells of a view in lexicographic order and their
    uint8 state codes; a window view holds only its diagonals' cells."""
    if view._window is not None:
        # cell = t*1bar - stride*j, so descending j is ascending cell order
        idx = np.argwhere(view._window)[::-1]
        return (view.t - idx * np.array(view._stride),
                view._window[tuple(idx.T)])
    return unpack_cells(view._sl[0], view.ca.dim), view._sl[1]


class CoordScan:
    """``total`` and ``found`` as ``CellScan`` keeps them, over the cells of
    ``cell_arrays``."""

    def __init__(self, select, cap=None):
        self.select, self.cap = select, cap
        self.total, self.found = 0, []

    def observe(self, view):
        coords, codes = cell_arrays(view)
        self.total += len(codes)
        room = None if self.cap is None else self.cap - len(self.found)
        mask = np.broadcast_to(self.select(tuple(coords.T), codes, view.t),
                               codes.shape)
        hits = np.flatnonzero(mask)[:room]
        states = view.ca.states
        self.found += [(tuple(u), view.t, states[c]) for u, c in
                       zip(coords[hits].tolist(), codes[hits].tolist())]

"""The window readers' earlier forms, kept only to cross-check
``SliceView.grid`` and ``SliceView.diagonals`` on a window in the tests.

``ix_grid`` builds the open grid with ``np.ix_``.  ``padded_diagonals``
copies the window's box into a zero box of the points' extent, padded with
one quiescent entry per axis, and gathers from that copy; a point off the
stride or below 0 reads the last, quiescent entry.
"""

import math

import numpy as np


def ix_grid(view):
    """The window's open grid t - stride*j over its box flipped on every
    axis, and that flipped box."""
    box = view._window[(slice(None, None, -1),) * view.ca.dim]
    return np.ix_(*[np.arange(view.t - g * (n - 1), view.t + 1, g)
                    for g, n in zip(view._stride, box.shape)]), box


def padded_diagonals(view, points):
    """The state codes on the diagonals ``points`` of a window view, none
    of them past its reach."""
    padded = [max(0, *c) // g + 2 for c, g in zip(zip(*points), view._stride)]
    flat = []
    for i in points:
        k = 0
        for a, g, n in zip(i, view._stride, padded):
            q, r = divmod(a, g)
            if r or q < 0:
                k = math.prod(padded) - 1
                break
            k = k * n + q
        flat.append(k)
    box = np.zeros(padded, dtype=np.uint8)
    part = view._window[tuple(slice(n - 1) for n in padded)]
    box[tuple(map(slice, part.shape))] = part
    return box.take(np.array(flat, dtype=np.int64))

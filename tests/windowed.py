"""The windowed oracle for diagonal words, kept only to cross-check the exact
path (``analysis.exact_periods``) in the tests.

It decomposes a finite word by the package's one rule (``_preperiod``)
under the final-third evidence policy: the periodic part must cover the
final third of the window and repeat at least twice.  A word that has not
settled inside the window can still read as a false period here, which is
why the package itself decides diagonal words exactly.
"""

import numpy as np

from ca_signals.analysis import _preperiod


def final_third_accept(p: int, q: int, h: int) -> bool:
    return p + 2 * q <= h and h - p >= (h + 2) // 3


def ultimate_period(word, window=None):
    """(alpha, beta) with the first ``window`` letters alpha + beta
    repeated and (|alpha|, |beta|) least under the final-third policy, or
    None if no pair meets it."""
    h = len(word) if window is None else window
    if h < 4:
        raise ValueError(f"window {h} is too short to show a repeat")
    if h > len(word):
        raise ValueError(f"window {h} outside 1..{len(word)}")
    w = np.unique(np.asarray(word[:h]), return_inverse=True)[1]
    fits = [(p, q) for q in range(1, h // 2 + 1)
            if final_third_accept(p := _preperiod(w, q), q, h)]
    if not fits:
        return None
    p, q = min(fits)
    return tuple(word[:p]), tuple(word[p:p + q])

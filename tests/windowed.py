"""The windowed oracle for diagonal words, kept only to cross-check the exact
path (``analysis.exact_periods``) in the tests.

It decomposes a finite word under the final-third evidence policy: the
periodic part must cover the final third of the window and repeat at least
twice.  A word that has not settled inside the window can still read as a
false period here, which is why the package itself decides diagonal words
exactly.
"""

from ca_signals.analysis import _decompose


def final_third_accept(p: int, q: int, h: int) -> bool:
    return p + 2 * q <= h and h - p >= (h + 2) // 3


def ultimate_period(word, window=None):
    """Lexicographically minimal (|alpha|, |beta|) under the final-third rule."""
    h = len(word) if window is None else window
    if h < 4:
        raise ValueError(f"window {h} is too short to show a repeat")
    return _decompose(word, h, final_third_accept)

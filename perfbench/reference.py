"""A fixed task that measures how fast the machine runs right now.

On a shared host the speed a process gets drifts by tens of percent over
minutes, for all code alike: the operations' own CPU time follows it, and
a run's median cannot average it away.  Each benchmark process therefore
also times this task, just after set-up and just after the operation.  The
task does not touch ``ca_signals``, so it never changes between commits.  It
mixes the kinds of work the operations do: ``np.unique`` over int64 keys
and a gather through a byte table (the engine's steps), and building and
encoding small Python containers (point reads, reports and the JSON dump).

``run.py`` divides each operation's time by the mean of the two task times
of its process, and each set-up time by the first, and multiplies by
``NOMINAL_S``, the task's median time on the machine named in ``NOTES.md``;
the results read as seconds on that machine at a steady speed.
"""

from __future__ import annotations

import gc
import json
import time

NOMINAL_S = 0.23
_ROUNDS = 7
_KEYS = 5_000       # small arrays and batches keep the task's memory small
_BATCH = 500


def _numpy_part(np, keys, table) -> int:
    cand = np.unique(np.concatenate([keys - 1, keys, keys + 1]))
    return int(table[cand % len(table)].sum())


def _python_part(batches: int) -> int:
    size = 0
    for b in range(batches):
        cells = [{"u": [i, -i], "s": "abc"[i % 3]}
                 for i in range(b, b + _BATCH)]
        size += len(json.dumps(cells, separators=(",", ":")))
    return size


def reference_s() -> float:
    """Return the time of the fixed task, after one untimed warm-up round.

    The task holds well under 1 MB at a time, so that running it before the
    operation hardly raises the operation process's peak RSS.  The cyclic
    garbage collector is off while it runs, so that the objects an
    operation left behind do not change its work.
    """
    import numpy as np
    keys = np.arange(_KEYS, dtype=np.int64) * 2654435761 % (1 << 40)
    table = (np.arange(1 << 12) % 251).astype(np.uint8)
    enabled = gc.isenabled()
    gc.disable()
    try:
        _numpy_part(np, keys, table)
        _python_part(1)
        start = time.perf_counter()
        for _ in range(_ROUNDS):
            for _ in range(6):
                _numpy_part(np, keys, table)
            _python_part(16)
        return time.perf_counter() - start
    finally:
        if enabled:
            gc.enable()

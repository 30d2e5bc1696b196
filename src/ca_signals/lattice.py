"""Integer-lattice geometry: neighborhoods, light cones, parity.

Cells are plain tuples of ints (length k), sites are (cell, time) pairs.
A neighborhood is a finite set of offsets in Z^k; the three stock kinds are

    moore        all offsets with every |x_a| <= 1        (3^k offsets)
    von_neumann  offsets with sum of |x_a| <= 1           (2k+1 offsets)
    trellis      offsets with every |x_a| = 1 exactly     (2^k offsets)

A trellis update never mixes parity classes: cell u is reachable at time t
only when every u_a + t is even, and everything off that sublattice stays
quiescent forever.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

KINDS = ("moore", "von_neumann", "trellis")

Cell = tuple[int, ...]
Offset = tuple[int, ...]


@dataclass(frozen=True)
class Neighborhood:
    kind: str
    dim: int

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ValueError(f"unknown neighborhood kind {self.kind!r}")
        if not 1 <= self.dim <= 4:
            raise ValueError("dimension must be between 1 and 4")


def offsets(neigh: Neighborhood) -> tuple[Offset, ...]:
    """All offsets of the neighborhood in lexicographic order (-1 < 0 < 1)."""
    k = neigh.dim
    if neigh.kind == "moore":
        out = itertools.product((-1, 0, 1), repeat=k)
        return tuple(out)
    if neigh.kind == "von_neumann":
        out = [x for x in itertools.product((-1, 0, 1), repeat=k)
               if sum(abs(a) for a in x) <= 1]
        return tuple(sorted(out))
    out = itertools.product((-1, 1), repeat=k)
    return tuple(out)


def in_light_cone(cell: Cell, t: int) -> bool:
    """Whether a cell can be non-quiescent at time t (|u_a| <= t for all a)."""
    return all(abs(a) <= t for a in cell)


def parity_valid(cell: Cell, t: int, neigh: Neighborhood) -> bool:
    """Trellis reachability parity: every u_a + t even.  Other kinds: True."""
    if neigh.kind != "trellis":
        return True
    return all((a + t) % 2 == 0 for a in cell)


def all_ones(k: int) -> Offset:
    return (1,) * k


def neg(x: Offset) -> Offset:
    return tuple(-a for a in x)


def parse_offset(text: str, dim: int | None = None) -> Offset:
    """Parse coordinate text like ``(-1,1)`` into an offset tuple."""
    s = text.strip()
    if not (s.startswith("(") and s.endswith(")")):
        raise ValueError(f"bad coordinate {text!r}: expected (a,b,...)")
    parts = s[1:-1].split(",")
    try:
        out = tuple(int(p.strip()) for p in parts)
    except ValueError:
        raise ValueError(f"bad coordinate {text!r}: non-integer component") from None
    if dim is not None and len(out) != dim:
        raise ValueError(f"bad coordinate {text!r}: expected {dim} components")
    return out


def format_offset(x: Offset) -> str:
    return "(" + ",".join(str(a) for a in x) + ")"

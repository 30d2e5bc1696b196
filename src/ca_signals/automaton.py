"""Impulse cellular automata and their rule tables.

An impulse CA starts from an all-quiescent configuration with a single seed
state at the origin and updates synchronously:

    state(u, t+1) = f(state(u + x1, t), ..., state(u + xv, t))

where (x1, ..., xv) is the declared argument order of the neighborhood.
The local map f is given as an ordered list of wildcard rules; the first
matching rule wins.  The quiescent state must be a fixed point of the
all-quiescent tuple.

A table is anything with ``arity``, ``apply(tuple) -> state`` and optionally
``assume_total`` (skip the totality enumeration); the stock implementation is
RuleTable.  The engine applies a table once per neighbor tuple a run meets.

Rule files are plain text:

    # comment
    states: λ 0 1            # first token is the quiescent state
    seed: 1
    neighborhood: trellis 2  # kind, dimension
    order: (-1,-1) (-1,1) (1,1) (1,-1)
    rule: 1 λ λ λ -> 0
    rule: * 1 {λ,1} * -> 1
    rule: * * * * -> λ

``*`` matches anything, ``{a,b}`` matches any listed state, a bare token
matches itself.  ``λ`` may be written ``lambda``.  State symbols must not
contain whitespace, ``#``, ``{``, ``}``, ``,`` or be ``*``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from itertools import product

from .errors import (
    ArityMismatch,
    NoMatch,
    NotCoprime,
    NotTotal,
    QuiescentViolation,
    RuleSyntaxError,
    UnknownState,
    XNotSmallest,
)
from .lattice import Neighborhood, format_offset, offsets, parse_offset

TOTALITY_ENUM_LIMIT = 10**6
MAX_STATES = 255    # the engine's state codes are uint8

LAMBDA = "λ"


class _WildcardType:
    _instance = None

    def __new__(cls):
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self):
        return "WILDCARD"


WILDCARD = _WildcardType()


@dataclass(frozen=True)
class Literal:
    state: str


@dataclass(frozen=True)
class AnyOf:
    states: frozenset[str]

    def __post_init__(self):
        if not self.states:
            raise ValueError("AnyOf must list at least one state")


Matcher = object  # WILDCARD | Literal | AnyOf


@dataclass(frozen=True)
class Rule:
    pattern: tuple[Matcher, ...]
    result: str


@dataclass(frozen=True)
class RuleTable:
    rules: tuple[Rule, ...]

    def __post_init__(self):
        if not self.rules:
            raise ValueError("a rule table needs at least one rule")
        v = len(self.rules[0].pattern)
        for i, r in enumerate(self.rules):
            if len(r.pattern) != v:
                raise ArityMismatch(
                    f"rule {i} has {len(r.pattern)} entries, expected {v}")

    @property
    def arity(self) -> int:
        return len(self.rules[0].pattern)

    def match_index(self, neighbors: tuple[str, ...]) -> int:
        """Index of the first rule matching the tuple; NoMatch if none."""
        if len(neighbors) != self.arity:
            raise ArityMismatch(
                f"tuple of {len(neighbors)} states, table arity {self.arity}")
        for i, rule in enumerate(self.rules):
            ok = True
            for m, s in zip(rule.pattern, neighbors):
                if m is WILDCARD:
                    continue
                if isinstance(m, Literal):
                    if m.state != s:
                        ok = False
                        break
                elif s not in m.states:
                    ok = False
                    break
            if ok:
                return i
        raise NoMatch(f"no rule matches {neighbors!r}")

    def apply(self, neighbors: tuple[str, ...]) -> str:
        return self.rules[self.match_index(neighbors)].result

    def pattern_states(self):
        seen = set()
        for r in self.rules:
            seen.add(r.result)
            for m in r.pattern:
                if isinstance(m, Literal):
                    seen.add(m.state)
                elif isinstance(m, AnyOf):
                    seen.update(m.states)
        return seen

    def has_catch_all(self) -> bool:
        return any(all(m is WILDCARD for m in r.pattern) for r in self.rules)


@dataclass(frozen=True)
class ImpulseCA:
    states: tuple[str, ...]
    quiescent: str
    seed: str
    neighborhood: Neighborhood
    arg_order: tuple[tuple[int, ...], ...]
    table: object
    name: str = field(default="", compare=False)
    _index: dict = field(init=False, compare=False, repr=False, default=None)

    def __post_init__(self):
        if len(set(self.states)) != len(self.states):
            raise UnknownState("duplicate state symbols")
        if self.quiescent != self.states[0]:
            raise QuiescentViolation("quiescent state must be listed first")
        if self.seed not in self.states:
            raise UnknownState(f"seed {self.seed!r} not among states")
        canon = offsets(self.neighborhood)
        if sorted(self.arg_order) != sorted(canon):
            raise RuleSyntaxError(
                "argument order is not a permutation of the neighborhood offsets")
        v = len(self.arg_order)
        if self.table.arity != v:
            raise ArityMismatch(
                f"table arity {self.table.arity} != neighborhood size {v}")
        if isinstance(self.table, RuleTable):
            unknown = self.table.pattern_states() - set(self.states)
            if unknown:
                raise UnknownState(f"rule states not in alphabet: {sorted(unknown)}")
        quiet = (self.quiescent,) * v
        if self.table.apply(quiet) != self.quiescent:
            raise QuiescentViolation(
                "all-quiescent neighborhood must map to the quiescent state")
        self._check_total()
        object.__setattr__(self, "_index",
                           {s: i for i, s in enumerate(self.states)})

    def _check_total(self):
        if getattr(self.table, "assume_total", False):
            return
        if isinstance(self.table, RuleTable) and self.table.has_catch_all():
            return
        n, v = len(self.states), len(self.arg_order)
        if n ** v > TOTALITY_ENUM_LIMIT:
            raise NotTotal(
                "no all-wildcard fallback rule and alphabet too large to enumerate")
        for tup in product(self.states, repeat=v):
            try:
                self.table.apply(tup)
            except NoMatch:
                raise NotTotal(f"no rule matches {tup!r}") from None

    @property
    def dim(self) -> int:
        return self.neighborhood.dim

    def state_code(self, s: str) -> int:
        return self._index[s]


# ---------------------------------------------------------------------------
# built-in automata


def _lit(s):
    return Literal(s)


def _any(syms):
    return AnyOf(frozenset(syms))


TRELLIS2_ORDER = ((-1, -1), (-1, 1), (1, 1), (1, -1))


def builtin_log2() -> ImpulseCA:
    """Three-state trellis automaton whose diagonal carries a binary counter.

    The sequence of states along the space-time diagonal spells out, column
    by column, the binary digits of t+1 (low-order digit at the tip), which
    is what makes a logarithmic slow-down signal detectable on it.
    Argument order is a=(-1,-1), b=(-1,1), c=(1,1), d=(1,-1).
    """
    L, Z, O = LAMBDA, "0", "1"
    W = WILDCARD
    rows = [
        ((L, L, L, L), L),
        ((O, L, L, L), Z),
        ((Z, L, L, L), O),
        ((L, L, Z, O), O),
        ((O, L, Z, O), Z),
        ((Z, L, Z, O), O),
        ((O, L, O, Z), O),
        ((O, L, Z, Z), O),
        ((Z, L, O, Z), Z),
        ((Z, L, Z, Z), Z),
        ((W, O, L, W), O),
        ((W, O, O, W), O),
        ((W, O, Z, W), Z),
        ((W, Z, W, W), Z),
        ((W, W, W, W), L),
    ]
    rules = tuple(
        Rule(tuple(m if m is W else _lit(m) for m in pat), res)
        for pat, res in rows
    )
    return ImpulseCA(
        states=(L, Z, O),
        quiescent=L,
        seed=O,
        neighborhood=Neighborhood("trellis", 2),
        arg_order=TRELLIS2_ORDER,
        table=RuleTable(rules),
        name="log2",
    )


def _xy_rule_rows(x: int, y: int, pi, ka, all_pi, pi_not_x, lam_d):
    """The shared row layout of the two-track counter and its merged variant.

    ``pi``/``ka`` are the symbol families of the two tracks, ``all_pi`` and
    ``pi_not_x`` the matcher classes standing for "any track-one symbol"
    and "any track-one symbol but the top", and ``lam_d`` the matcher used
    where the fourth column would be a quiescent literal.
    """
    L = LAMBDA
    W = WILDCARD
    pi_wrap = lambda j: pi[j + 1] if j < x else pi[1]
    all_ka = _any(ka)
    ka_not_last = _any(ka[:y - 1] + ka[y:])     # every κ except κ_{y-1}
    ka_not_top = _any(ka[:y])                   # every κ except κ_y
    lam_or_top = _any([L, ka[y]])

    rules = []
    add = lambda a, b, c, d, res: rules.append(Rule((a, b, c, d), res))

    add(_lit(L), _lit(L), _lit(L), lam_d, L)
    for j in range(x + 1):
        add(_lit(pi[j]), _lit(L), _lit(L), lam_d, pi_wrap(j))
    add(_lit(pi[x]), _lit(L), pi_not_x, all_ka, pi[0])
    for j in range(x):
        add(_lit(pi[j]), _lit(L), pi_not_x, all_ka, pi[j])
    add(_lit(pi[x]), _lit(L), _lit(pi[x]), ka_not_last, pi[0])
    for j in range(x):
        add(_lit(pi[j]), _lit(L), _lit(pi[x]), ka_not_last, pi[j])
    for j in range(x + 1):
        add(_lit(pi[j]), _lit(L), _lit(pi[x]), _lit(ka[y - 1]), pi_wrap(j))
    add(_lit(L), _lit(L), _lit(pi[x]), _lit(ka[y - 1]), pi[1])
    add(_lit(ka[y - 1]), _lit(pi[x]), lam_or_top, lam_d, ka[y])
    add(_lit(ka[y - 1]), pi_not_x, lam_or_top, lam_d, ka[0])
    add(_lit(ka[y]), all_pi, lam_or_top, lam_d, ka[1])
    for j in range(y - 1):
        add(_lit(ka[j]), all_pi, lam_or_top, lam_d, ka[j + 1])
    add(_lit(ka[y]), all_pi, ka_not_top, lam_d, ka[0])
    for j in range(y):
        add(_lit(ka[j]), all_pi, ka_not_top, lam_d, ka[j])
    add(_lit(L), _lit(pi[1]), lam_or_top, lam_d, ka[1])
    add(W, W, W, W, L)
    return tuple(rules)


def _check_alphabet(name: str, n: int) -> None:
    # called before the rule list, whose size grows quadratically in n
    if n > MAX_STATES:
        raise ValueError(f"{name} needs {n} states; at most {MAX_STATES} fit "
                         "the uint8 state codes")


def _xy_rules(x: int, y: int):
    """Ordered rule list of the two-track residue counter automaton.

    Track one (cells with equal coordinates) counts modulo x, track two
    (one diagonal step below) counts modulo y; together they spell the
    base-(x*y) digits of t+1 by the Chinese remainder theorem.
    """
    L = LAMBDA
    pi = [f"π_{i}" for i in range(x + 1)]
    ka = [f"κ_{i}" for i in range(y + 1)]
    rules = _xy_rule_rows(x, y, pi, ka,
                          all_pi=_any(pi), pi_not_x=_any(pi[:x]),
                          lam_d=_lit(L))
    return (L,) + tuple(pi) + tuple(ka), rules


def builtin_xy(x: int, y: int) -> ImpulseCA:
    """Two-track counter automaton for coprime moduli x and y."""
    if x < 1 or y < 1:
        raise ValueError("moduli must be positive")
    if math.gcd(x, y) != 1:
        raise NotCoprime(f"gcd({x},{y}) != 1")
    _check_alphabet(f"xy:{x},{y}", x + y + 3)
    states, rules = _xy_rules(x, y)
    return ImpulseCA(
        states=states,
        quiescent=LAMBDA,
        seed="π_1",
        neighborhood=Neighborhood("trellis", 2),
        arg_order=TRELLIS2_ORDER,
        table=RuleTable(rules),
        name=f"xy:{x},{y}",
    )


def merged_xy(x: int, y: int) -> ImpulseCA:
    """Alphabet-merged variant of builtin_xy: both tracks share π symbols.

    Every second-track symbol κ_i is renamed to π_i, and every literal λ in
    the fourth pattern column becomes a wildcard so the renamed track is not
    mistaken for an empty plane.  Because the two tracks now share symbols,
    the matcher classes that stood for "any first-track symbol" must cover
    the whole merged alphabet π_0..π_y; keeping them at their original
    π_0..π_x range lets stray debris from the relaxed fourth column rewrite
    the counter cells and desynchronize the walk.  Requires 2 <= x <= y:
    with x = 1 the top first-track symbol π_1 doubles as the seed and the
    shared alphabet collapses too far for the tracks to stay separated.

    Neither track is kept for all t.  For (2, 3), debris reaches the
    second track's plane (a - b = 2), which first differs from the
    two-track run's (κ_i read as π_i) at t = 77, where cell (71, 69) holds
    π_1; the π plane (a - b = 0) first differs at t = 867, where diagonal
    (8, 8) holds π_1 and the two-track run λ.  So the second-track digits
    do not read back, and ``verify_xy`` compares the walk, which leaves the
    two-track walk at t = 7,348.
    """
    if x < 1 or y < 1:
        raise ValueError("moduli must be positive")
    if x > y:
        raise XNotSmallest(f"expected x <= y, got ({x},{y})")
    if math.gcd(x, y) != 1:
        raise NotCoprime(f"gcd({x},{y}) != 1")
    if x < 2:
        raise ValueError(
            f"merged variant needs x >= 2, got ({x},{y}): with x = 1 the "
            "seed symbol is also the top first-track symbol and the tracks "
            "interfere")
    _check_alphabet(f"merged:{x},{y}", y + 2)
    pi = [f"π_{i}" for i in range(x + 1)]
    ka = [f"π_{i}" for i in range(y + 1)]
    live = [f"π_{i}" for i in range(y + 1)]
    rules = _xy_rule_rows(x, y, pi, ka,
                          all_pi=_any(live),
                          pi_not_x=_any([s for s in live if s != pi[x]]),
                          lam_d=WILDCARD)
    states = (LAMBDA,) + tuple(live)
    return ImpulseCA(
        states=states,
        quiescent=LAMBDA,
        seed="π_1",
        neighborhood=Neighborhood("trellis", 2),
        arg_order=TRELLIS2_ORDER,
        table=RuleTable(rules),
        name=f"merged:{x},{y}",
    )


def builtin_quiescent() -> ImpulseCA:
    """Single-state 2-D trellis automaton; every diagram slice is empty."""
    neigh = Neighborhood("trellis", 2)
    order = offsets(neigh)
    table = RuleTable((Rule((WILDCARD,) * len(order), LAMBDA),))
    return ImpulseCA(
        states=(LAMBDA,),
        quiescent=LAMBDA,
        seed=LAMBDA,
        neighborhood=neigh,
        arg_order=order,
        table=table,
        name="quiescent",
    )


# ---------------------------------------------------------------------------
# rule-file parsing and serialization

_RESERVED = set("#{},*")


def _check_symbol(tok: str, line: int) -> str:
    if tok == "lambda":
        tok = LAMBDA
    if not tok or any(c.isspace() or c in _RESERVED for c in tok):
        raise RuleSyntaxError(f"bad state symbol {tok!r}", line)
    return tok


def _parse_matcher(tok: str, states: set[str], line: int):
    if tok == "*":
        return WILDCARD
    if tok.startswith("{"):
        if not tok.endswith("}"):
            raise RuleSyntaxError(f"unterminated set {tok!r}", line)
        members = []
        for part in tok[1:-1].split(","):
            part = part.strip()
            s = _check_symbol(part, line)
            if s not in states:
                raise UnknownState(f"unknown state {s!r}", line)
            members.append(s)
        if not members:
            raise RuleSyntaxError("empty state set", line)
        return AnyOf(frozenset(members))
    s = _check_symbol(tok, line)
    if s not in states:
        raise UnknownState(f"unknown state {s!r}", line)
    return Literal(s)


def parse_rules(text: str) -> ImpulseCA:
    """Parse rule-file text into an ImpulseCA.

    Raises RuleSyntaxError / UnknownState / ArityMismatch with the offending
    line number, and QuiescentViolation / NotTotal from CA validation.
    """
    directives: dict[str, tuple[int, str]] = {}
    rule_lines: list[tuple[int, str]] = []
    for ln, raw in enumerate(text.splitlines(), start=1):
        body = raw.split("#", 1)[0].strip()
        if not body:
            continue
        if ":" not in body:
            raise RuleSyntaxError(f"expected 'key: value', got {body!r}", ln)
        key, value = body.split(":", 1)
        key = key.strip()
        value = value.strip()
        if key == "rule":
            rule_lines.append((ln, value))
        elif key in ("states", "seed", "neighborhood", "order"):
            if key in directives:
                raise RuleSyntaxError(f"duplicate directive {key!r}", ln)
            directives[key] = (ln, value)
        else:
            raise RuleSyntaxError(f"unknown directive {key!r}", ln)

    for req in ("states", "seed", "neighborhood"):
        if req not in directives:
            raise RuleSyntaxError(f"missing directive {req!r}")
    if not rule_lines:
        raise RuleSyntaxError("no rules")

    ln, value = directives["states"]
    state_list = [_check_symbol(t, ln) for t in value.split()]
    if not state_list:
        raise RuleSyntaxError("empty state list", ln)
    if len(set(state_list)) != len(state_list):
        raise RuleSyntaxError("duplicate state symbols", ln)
    states = tuple(state_list)
    state_set = set(states)

    ln, value = directives["seed"]
    seed = _check_symbol(value, ln)
    if seed not in state_set:
        raise UnknownState(f"unknown seed state {seed!r}", ln)

    ln, value = directives["neighborhood"]
    parts = value.split()
    if len(parts) != 2:
        raise RuleSyntaxError("expected 'neighborhood: kind dim'", ln)
    kind = parts[0].replace("-", "_")
    if kind == "vonneumann":
        kind = "von_neumann"
    try:
        neigh = Neighborhood(kind, int(parts[1]))
    except ValueError as e:
        raise RuleSyntaxError(str(e), ln) from None

    canon = offsets(neigh)
    if "order" in directives:
        ln, value = directives["order"]
        toks = value.split()
        try:
            order = tuple(parse_offset(t, neigh.dim) for t in toks)
        except ValueError as e:
            raise RuleSyntaxError(str(e), ln) from None
        if sorted(order) != sorted(canon) or len(order) != len(canon):
            raise RuleSyntaxError(
                "order must list each neighborhood offset exactly once", ln)
    else:
        order = canon

    v = len(order)
    rules = []
    for ln, value in rule_lines:
        if "->" not in value:
            raise RuleSyntaxError("rule needs '->'", ln)
        lhs, rhs = value.rsplit("->", 1)
        toks = lhs.split()
        if len(toks) != v:
            raise ArityMismatch(
                f"rule lists {len(toks)} neighbors, neighborhood has {v}", ln)
        pattern = tuple(_parse_matcher(t, state_set, ln) for t in toks)
        result = _check_symbol(rhs.strip(), ln)
        if result not in state_set:
            raise UnknownState(f"unknown result state {result!r}", ln)
        rules.append(Rule(pattern, result))

    return ImpulseCA(
        states=states,
        quiescent=states[0],
        seed=seed,
        neighborhood=neigh,
        arg_order=order,
        table=RuleTable(tuple(rules)),
    )


def serialize_rules(ca: ImpulseCA) -> str:
    """Canonical rule-file text; parse_rules(serialize_rules(ca)) == ca."""
    if not isinstance(ca.table, RuleTable):
        raise ValueError("only pattern rule tables serialize to rule files")
    pos = {s: i for i, s in enumerate(ca.states)}

    def fmt_matcher(m):
        if m is WILDCARD:
            return "*"
        if isinstance(m, Literal):
            return m.state
        return "{" + ",".join(sorted(m.states, key=pos.__getitem__)) + "}"

    lines = [
        "states: " + " ".join(ca.states),
        "seed: " + ca.seed,
        f"neighborhood: {ca.neighborhood.kind} {ca.neighborhood.dim}",
        "order: " + " ".join(format_offset(x) for x in ca.arg_order),
    ]
    for r in ca.table.rules:
        lines.append(
            "rule: " + " ".join(fmt_matcher(m) for m in r.pattern)
            + " -> " + r.result)
    return "\n".join(lines) + "\n"

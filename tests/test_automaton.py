"""Rule tables, the built-in automata, and the rule-file format."""

from itertools import product

import pytest

from ca_signals import (LAMBDA, WILDCARD, AnyOf, ArityMismatch, ImpulseCA,
                        Literal, NotCoprime, NotTotal, QuiescentViolation,
                        Rule, RuleTable, RuleSyntaxError, UnknownState,
                        XNotSmallest, builtin_log2, builtin_quiescent,
                        builtin_xy, merged_xy, parse_rules, run,
                        serialize_rules)
from ca_signals.automaton import MAX_STATES
from ca_signals.lattice import Neighborhood

L = LAMBDA
TRE2 = Neighborhood("trellis", 2)


def log2_reference(a: str, b: str, c: str, d: str) -> str:
    """The binary-counter table written out as chained ifs, first match wins.

    Independent of the package's matcher machinery; used to pin down the
    precedence of every one of the 3^4 neighbor tuples.
    """
    t = (a, b, c, d)
    if t == (L, L, L, L):
        return L
    if t == ("1", L, L, L):
        return "0"
    if t == ("0", L, L, L):
        return "1"
    if t == (L, L, "0", "1"):
        return "1"
    if t == ("1", L, "0", "1"):
        return "0"
    if t == ("0", L, "0", "1"):
        return "1"
    if t == ("1", L, "1", "0"):
        return "1"
    if t == ("1", L, "0", "0"):
        return "1"
    if t == ("0", L, "1", "0"):
        return "0"
    if t == ("0", L, "0", "0"):
        return "0"
    if b == "1" and c == L:
        return "1"
    if b == "1" and c == "1":
        return "1"
    if b == "1" and c == "0":
        return "0"
    if b == "0":
        return "0"
    return L


def test_log2_table_against_reference_on_all_tuples():
    ca = builtin_log2()
    for t in product(ca.states, repeat=4):
        assert ca.table.apply(t) == log2_reference(*t), t


def test_log2_shape():
    ca = builtin_log2()
    assert ca.states == (L, "0", "1")
    assert ca.quiescent == L
    assert ca.seed == "1"
    assert ca.neighborhood == TRE2
    assert ca.arg_order == ((-1, -1), (-1, 1), (1, 1), (1, -1))
    assert len(ca.table.rules) == 15


def test_log2_specific_applications():
    t = builtin_log2().table
    assert t.apply(("0", "0", "1", "0")) == "0"     # second digit 0 wins late
    assert t.apply((L, "1", L, "1")) == "1"
    assert t.apply(("1", L, "1", "1")) == L         # falls to the catch-all


def test_xy23_specific_applications():
    t = builtin_xy(2, 3).table
    # counter-track carry: top symbol seen with the wrap digit below
    assert t.apply(("κ_2", "π_2", L, L)) == "κ_3"
    assert t.apply(("κ_2", "π_1", L, L)) == "κ_0"
    assert t.apply((L, "π_1", L, L)) == "κ_1"       # second track is born
    assert t.apply((L, L, "π_2", "κ_2")) == "π_1"   # first track is reborn
    assert t.apply(("π_1", L, L, L)) == "π_2"       # free-run increment
    assert t.apply(("π_2", L, L, L)) == "π_1"       # wraps past the top
    assert t.apply(("π_1", L, "π_2", "κ_1")) == "π_1"


def test_xy_alphabet_and_coprimality():
    ca = builtin_xy(2, 3)
    assert len(ca.states) == 2 + 3 + 3              # lambda, pi_0..2, ka_0..3
    assert ca.seed == "π_1"
    with pytest.raises(NotCoprime):
        builtin_xy(2, 4)
    with pytest.raises(ValueError):
        builtin_xy(0, 3)


def test_two_track_alphabets_stop_at_the_state_code_limit():
    assert len(builtin_xy(251, 1).states) == MAX_STATES == 255
    assert len(merged_xy(2, 253).states) == MAX_STATES
    for build, x, y in ((builtin_xy, 252, 1), (builtin_xy, 8000, 1),
                        (merged_xy, 3, 254)):
        with pytest.raises(ValueError, match="at most 255 fit"):
            build(x, y)


def test_merged_alphabet_is_shared():
    ca = merged_xy(2, 3)
    assert ca.states == (L, "π_0", "π_1", "π_2", "π_3")
    assert ca.seed == "π_1"
    with pytest.raises(XNotSmallest):
        merged_xy(3, 2)
    with pytest.raises(NotCoprime):
        merged_xy(2, 4)
    with pytest.raises(ValueError):
        merged_xy(1, 2)  # shared alphabet degenerates, see docstring


def _plane(diag, d: int) -> list[dict]:
    """Per slice, the cells u with u_0 - u_1 = d, κ_i read as π_i."""
    return [{u: s.replace("κ", "π") for u, s in diag.view(t).cells()
             if u[0] - u[1] == d} for t in range(diag.horizon + 1)]


def test_merged_keeps_the_first_track_only():
    merged, two = run(merged_xy(2, 3), 100), run(builtin_xy(2, 3), 100)
    pi = _plane(merged, 0)
    assert pi == _plane(two, 0) and sum(map(len, pi)) > 100
    kappa, want = _plane(merged, 2), _plane(two, 2)
    first = next(t for t in range(101) if kappa[t] != want[t])
    assert first == 77
    assert {u for u in kappa[77].keys() | want[77].keys()
            if kappa[77].get(u) != want[77].get(u)} == {(71, 69)}
    assert kappa[77][(71, 69)] == "π_1" and (71, 69) not in want[77]


def test_quiescent_builtin():
    ca = builtin_quiescent()
    assert ca.states == (L,)
    assert ca.table.apply((L, L, L, L)) == L


def test_first_match_precedence():
    table = RuleTable((
        Rule((Literal(L),) * 4, L),
        Rule((Literal("A"), WILDCARD, WILDCARD, WILDCARD), "A"),
        Rule((WILDCARD, Literal("A"), WILDCARD, WILDCARD), "B"),
        Rule((WILDCARD,) * 4, L),
    ))
    ca = ImpulseCA(states=(L, "A", "B"), quiescent=L, seed="A",
                   neighborhood=TRE2, arg_order=ca_order(), table=table)
    # row 2 shadows row 3 whenever both match
    assert ca.table.apply(("A", "A", L, L)) == "A"
    assert ca.table.apply(("B", "A", L, L)) == "B"
    assert ca.table.apply(("B", "B", L, L)) == L


def ca_order():
    return ((-1, -1), (-1, 1), (1, 1), (1, -1))


def test_anyof_matcher():
    r = Rule((AnyOf(frozenset(("A", "B"))), WILDCARD, WILDCARD, WILDCARD), "A")
    table = RuleTable((Rule((Literal(L),) * 4, L), r, Rule((WILDCARD,) * 4, L)))
    ca = ImpulseCA(states=(L, "A", "B"), quiescent=L, seed="A",
                   neighborhood=TRE2, arg_order=ca_order(), table=table)
    assert ca.table.apply(("B", L, L, L)) == "A"
    assert ca.table.apply((L, L, L, L)) == L


def test_validation_errors():
    quiet = Rule((Literal(L),) * 4, L)
    catch = Rule((WILDCARD,) * 4, L)

    with pytest.raises(QuiescentViolation):
        # all-quiescent neighborhood must stay quiescent
        ImpulseCA(states=(L, "A"), quiescent=L, seed="A", neighborhood=TRE2,
                  arg_order=ca_order(),
                  table=RuleTable((Rule((WILDCARD,) * 4, "A"),)))
    with pytest.raises(QuiescentViolation):
        # quiescent state must be listed first
        ImpulseCA(states=("A", L), quiescent=L, seed="A", neighborhood=TRE2,
                  arg_order=ca_order(), table=RuleTable((quiet, catch)))
    with pytest.raises(UnknownState):
        ImpulseCA(states=(L, "A"), quiescent=L, seed="missing",
                  neighborhood=TRE2, arg_order=ca_order(),
                  table=RuleTable((quiet, catch)))
    with pytest.raises(UnknownState):
        ImpulseCA(states=(L, "A", "A"), quiescent=L, seed="A",
                  neighborhood=TRE2, arg_order=ca_order(),
                  table=RuleTable((quiet, catch)))
    with pytest.raises(ArityMismatch):
        ImpulseCA(states=(L, "A"), quiescent=L, seed="A", neighborhood=TRE2,
                  arg_order=ca_order(),
                  table=RuleTable((Rule((Literal(L),) * 3, L),)))
    with pytest.raises(NotTotal):
        # no catch-all and ("A","A","A","A") matches nothing
        ImpulseCA(states=(L, "A"), quiescent=L, seed="A", neighborhood=TRE2,
                  arg_order=ca_order(), table=RuleTable((quiet,)))
    with pytest.raises(UnknownState):
        # pattern names a state outside the alphabet
        ImpulseCA(states=(L, "A"), quiescent=L, seed="A", neighborhood=TRE2,
                  arg_order=ca_order(),
                  table=RuleTable((quiet,
                                   Rule((Literal("Z"),) + (WILDCARD,) * 3, L),
                                   catch)))


@pytest.mark.parametrize("builder", [
    builtin_log2,
    lambda: builtin_xy(2, 3),
    lambda: builtin_xy(3, 4),
    lambda: merged_xy(2, 3),
    builtin_quiescent,
])
def test_rule_file_round_trip(builder):
    ca = builder()
    back = parse_rules(serialize_rules(ca))
    assert back.states == ca.states
    assert back.seed == ca.seed
    assert back.arg_order == ca.arg_order
    for t in product(ca.states, repeat=4):
        assert back.table.apply(t) == ca.table.apply(t), t


def test_parse_rules_minimal():
    ca = parse_rules("""
# two symbols, dead simple
states: λ A
seed: A
neighborhood: trellis 2
rule: λ λ λ λ -> λ
rule: {A,λ} * * * -> A   # set matcher plus wildcards
rule: * * * * -> λ
""")
    assert ca.states == (L, "A")
    assert ca.table.apply(("A", L, L, L)) == "A"
    assert ca.table.apply((L, "A", L, L)) == "A"   # λ is in the set too
    assert ca.table.apply((L, L, L, L)) == L       # earlier row wins


def test_parse_rules_lambda_alias_and_default_order():
    ca = parse_rules("states: lambda A\nseed: A\nneighborhood: trellis 2\n"
                     "rule: * * * * -> lambda\n")
    assert ca.quiescent == L
    assert ca.arg_order == ((-1, -1), (-1, 1), (1, -1), (1, 1))


@pytest.mark.parametrize("text,exc,line", [
    ("states: λ A\nseed: A\nneighborhood: trellis 2\nrule: * * * -> λ\n",
     ArityMismatch, 4),
    ("states: λ A\nseed: A\nneighborhood: trellis 2\nrule: * * * B -> λ\n",
     UnknownState, 4),
    ("states: λ A\nseed: A\nneighborhood: trellis 2\nrule: * * * * -> B\n",
     UnknownState, 4),
    ("states: λ A\nseed: B\nneighborhood: trellis 2\nrule: * * * * -> λ\n",
     UnknownState, 2),
    ("states: λ A\nseed: A\nneighborhood: moore 0\nrule: * * * * -> λ\n",
     RuleSyntaxError, 3),
    ("states: λ A A\nseed: A\nneighborhood: trellis 2\nrule: * * * * -> λ\n",
     RuleSyntaxError, 1),
    ("states: λ A\nseed: A\nneighborhood: trellis 2\nbogus: 1\n",
     RuleSyntaxError, 4),
    ("states: λ A\nseed: A\nneighborhood: trellis 2\nrule: {A * * * -> λ\n",
     RuleSyntaxError, 4),
])
def test_parse_rules_error_lines(text, exc, line):
    with pytest.raises(exc) as ei:
        parse_rules(text)
    assert ei.value.line == line


def test_parse_rules_missing_directive():
    with pytest.raises(RuleSyntaxError):
        parse_rules("states: λ A\nseed: A\nrule: * * * * -> λ\n")
    with pytest.raises(RuleSyntaxError):
        parse_rules("states: λ\nseed: λ\nneighborhood: trellis 2\n")

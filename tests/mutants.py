"""Single-entry mutants of a claim's automaton, for the tests.

A mutant is the automaton with one neighbour tuple that a claim's run
applies, other than the all-quiescent one, sent to another state.
``applied`` records those tuples through ``engine._Evaluator._apply`` for
the one automaton under test, and ``mutants`` builds each mutant.
"""

import dataclasses

from ca_signals import engine


class MutantTable:
    """``table`` with the one tuple ``tup`` sent to ``result``."""

    assume_total = True

    def __init__(self, table, tup, result):
        self.table, self.tup, self.result = table, tup, result
        self.arity = table.arity

    def apply(self, tup):
        return self.result if tup == self.tup else self.table.apply(tup)


def applied(monkeypatch, ca, claim) -> list[tuple[str, ...]]:
    """The neighbour tuples that ``claim()`` applies for the automaton named
    ``ca.name``, in the order its runs first meet them."""
    seen = {}
    apply = engine._Evaluator._apply
    n, v = len(ca.states), ca.table.arity

    def record(self, code):
        if self.ca.name == ca.name:
            digits = [code // n ** (v - 1 - pos) % n for pos in range(v)]
            seen.setdefault(tuple(ca.states[d] for d in digits), None)
        return apply(self, code)

    with monkeypatch.context() as mp:
        mp.setattr(engine._Evaluator, "_apply", record)
        claim()
    return list(seen)


def mutants(ca, tups):
    """Each mutant of ``ca`` over the tuples ``tups``."""
    for tup in tups:
        if tup == (ca.quiescent,) * len(tup):
            continue
        was = ca.table.apply(tup)
        for s in ca.states:
            if s != was:
                yield dataclasses.replace(
                    ca, table=MutantTable(ca.table, tup, s))

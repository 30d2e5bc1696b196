"""Random rule tables, shared by the engine cross-checks and property tests."""

import random

from ca_signals.automaton import (LAMBDA, TRELLIS2_ORDER, WILDCARD, AnyOf,
                                  ImpulseCA, Literal, Rule, RuleTable)
from ca_signals.lattice import Neighborhood, offsets


def random_impulse_ca(rng: random.Random, n_states: int | None = None,
                      max_states: int = 4,
                      neigh: Neighborhood | None = None) -> ImpulseCA:
    """Random total rule table with a guaranteed catch-all.

    Each rule constrains one to three argument positions and leaves the
    rest wildcard, so rules keep matching on large neighborhoods (a Moore
    dim-3 cell has 27 arguments) instead of all falling to the catch-all.
    """
    if neigh is None:
        neigh = Neighborhood("trellis", 2)
    order = offsets(neigh) if neigh.kind != "trellis" or neigh.dim != 2 \
        else TRELLIS2_ORDER
    v = len(order)
    n = n_states if n_states is not None else rng.randint(2, max_states)
    states = (LAMBDA,) + tuple("ABCDEFGHIJKLMNOPQRSTUVWXYZ"[:n - 1])
    rules = [Rule((Literal(LAMBDA),) * v, LAMBDA)]
    for _ in range(rng.randint(0, 8)):
        pat = [WILDCARD] * v
        for pos in rng.sample(range(v), min(v, rng.randint(1, 3))):
            if rng.random() < 0.7:
                pat[pos] = Literal(rng.choice(states))
            else:
                # a proper subset, so the position is really constrained
                k = rng.randint(1, n - 1)
                pat[pos] = AnyOf(frozenset(rng.sample(states, k)))
        rules.append(Rule(tuple(pat), rng.choice(states)))
    rules.append(Rule((WILDCARD,) * v, rng.choice(states)))
    seed_state = rng.choice(states[1:])
    return ImpulseCA(
        states=states,
        quiescent=LAMBDA,
        seed=seed_state,
        neighborhood=neigh,
        arg_order=order,
        table=RuleTable(tuple(rules)),
        name=f"random-{n}",
    )

"""Shared generators for randomized checks, and a reference evaluator."""

import random

from uminflow import And, EventExpr, FiniteOrder, Not, Or


def random_atom(rng: random.Random, elements) -> FiniteOrder:
    k = rng.randint(1, min(3, len(elements)))
    return FiniteOrder(tuple(rng.sample(list(elements), k)))


def random_event(
    rng: random.Random, elements=(0, 1, 2, 3, 4, 5), max_atoms: int = 4
) -> EventExpr:
    """A small expression over the given elements, atoms + and/or/not."""

    def build(budget: int) -> EventExpr:
        if budget == 1:
            e = random_atom(rng, elements)
        else:
            cut = rng.randint(1, budget - 1)
            left, right = build(cut), build(budget - cut)
            e = And((left, right)) if rng.random() < 0.5 else Or((left, right))
        if rng.random() < 0.3:
            e = Not(e)
        return e

    return build(rng.randint(1, max_atoms))


def random_bijection(rng: random.Random, n: int) -> dict[int, int]:
    images = list(range(n))
    rng.shuffle(images)
    return dict(enumerate(images))


def reference_evaluate(e: EventExpr, rank) -> bool:
    """Membership of the order with positions ``rank[x]`` in the event, by
    all/any over the tree: a reference independent of the mask walk that
    ``evaluate`` and ``mu_exact`` share."""
    if isinstance(e, FiniteOrder):
        es = e.elements
        return all(rank[es[i]] < rank[es[i + 1]] for i in range(len(es) - 1))
    if isinstance(e, Not):
        return not reference_evaluate(e.child, rank)
    if isinstance(e, And):
        return all(reference_evaluate(c, rank) for c in e.children)
    if isinstance(e, Or):
        return any(reference_evaluate(c, rank) for c in e.children)
    raise TypeError(f"not an event expression: {e!r}")

import random
from itertools import permutations

import pytest

from uminflow import (
    And,
    FiniteOrder,
    Not,
    Or,
    OrderPrefix,
    ParseError,
    PartialPermutation,
    act,
    evaluate,
    parse_event,
    print_event,
    relabel_event,
    support,
)
from helpers import random_bijection, random_event


def test_parse_single_atom():
    e = parse_event("ord(0<1)")
    assert e == FiniteOrder((0, 1))


def test_parse_structure():
    e = parse_event("ord(0<1) & !ord(2<3)")
    assert e == And((FiniteOrder((0, 1)), Not(FiniteOrder((2, 3)))))


def test_parse_precedence_and_parens():
    e = parse_event("ord(0<1) | ord(1<2) & ord(2<3)")
    assert isinstance(e, Or) and isinstance(e.children[1], And)
    e2 = parse_event("(ord(0<1) | ord(1<2)) & ord(2<3)")
    assert isinstance(e2, And)


def test_parse_repeated_element_rejected():
    with pytest.raises(ParseError) as err:
        parse_event("ord(1<1)")
    assert err.value.position > 0


@pytest.mark.parametrize(
    "bad", ["", "ord(", "ord(1<)", "ord(1) &", "xyz", "ord(1))", "ord(²<1)"]
)
def test_parse_errors(bad):
    with pytest.raises(ParseError):
        parse_event(bad)


def test_finite_order_refuses_bools():
    # a bool would print as ord(False<True), which parse_event refuses
    with pytest.raises(ValueError, match="naturals, got False"):
        FiniteOrder((False, True))
    with pytest.raises(ValueError, match="naturals, got True"):
        FiniteOrder((0, True))


def test_parse_nesting_cap():
    # 200 enclosing "!" and "(" parse, print back and evaluate; one more is
    # refused where it starts, before the parser recurses into it
    at_cap = "!(" * 100 + "ord(0<1) & ord(2<1)" + ")" * 100
    e = parse_event(at_cap)
    assert parse_event(print_event(e)) == e
    assert evaluate(e, OrderPrefix.from_sequence([0, 2, 1])) is True
    refused = r"nested deeper than 200 \(at position 200\)"
    for deeper in ("!(" * 100 + "!ord(0<1)" + ")" * 100, "(" * 201 + "ord(0<1)" + ")" * 201):
        with pytest.raises(ParseError, match=refused):
            parse_event(deeper)


def test_print_round_trip_random():
    rng = random.Random(1)
    for _ in range(200):
        e = random_event(rng)
        assert parse_event(print_event(e)) == e


def test_support():
    assert support(parse_event("ord(0<1) | ord(5<2)")) == {0, 1, 2, 5}
    assert support(parse_event("!ord(3<4<7)")) == {3, 4, 7}
    assert support(FiniteOrder(())) == frozenset()


def test_evaluate_extension():
    e = parse_event("ord(0<1)")
    assert evaluate(e, OrderPrefix.from_sequence([0, 1, 2]))
    assert not evaluate(e, OrderPrefix.from_sequence([1, 0, 2]))


def test_evaluate_conjunction_counts():
    # exactly one of the six orders on {0,1,2} satisfies 0<1 and 1<2
    e = parse_event("ord(0<1)&ord(1<2)")
    hits = [
        perm
        for perm in permutations(range(3))
        if evaluate(e, OrderPrefix.from_sequence(perm))
    ]
    assert hits == [(0, 1, 2)]


def test_evaluate_missing_support_errors():
    e = parse_event("ord(0<5)")
    with pytest.raises(ValueError, match="support"):
        evaluate(e, OrderPrefix.from_sequence([0, 1]))


def test_evaluate_single_element_atom_is_vacuous():
    assert evaluate(parse_event("ord(2)"), OrderPrefix.from_sequence([2, 1, 0]))


def test_act_identity():
    o = OrderPrefix.from_sequence([2, 0, 1])
    assert act(PartialPermutation.identity(3), o) == o


def test_act_swap_example():
    # x <_swapped y iff swap(x) <_original swap(y): 0<1<2 becomes 1<0<2
    sigma = PartialPermutation.from_mapping({0: 1, 1: 0, 2: 2})
    o = OrderPrefix.from_sequence([0, 1, 2])
    assert act(sigma, o).to_sequence() == [1, 0, 2]


def test_act_requires_bijection():
    o = OrderPrefix.from_sequence([0, 1, 2])
    with pytest.raises(ValueError):
        act(PartialPermutation.from_mapping({0: 0, 1: 1}), o)
    with pytest.raises(ValueError):
        act(PartialPermutation.from_mapping({0: 0, 1: 1, 2: 5}), o)


def test_act_composition():
    rng = random.Random(7)
    for _ in range(50):
        sigma = PartialPermutation.from_mapping(random_bijection(rng, 5))
        tau = PartialPermutation.from_mapping(random_bijection(rng, 5))
        o = OrderPrefix.from_sequence(rng.sample(range(5), 5))
        assert act(sigma.compose(tau), o) == act(sigma, act(tau, o))


def test_act_inverse_round_trip():
    rng = random.Random(8)
    for _ in range(50):
        sigma = PartialPermutation.from_mapping(random_bijection(rng, 6))
        o = OrderPrefix.from_sequence(rng.sample(range(6), 6))
        assert act(sigma, act(sigma.inverse(), o)) == o


def test_act_on_event_relabels():
    sigma = PartialPermutation.from_mapping({0: 3, 1: 4})
    assert relabel_event(sigma, FiniteOrder((0, 1))) == FiniteOrder((3, 4))
    assert relabel_event(
        PartialPermutation.identity(2), FiniteOrder((0, 1))
    ) == FiniteOrder((0, 1))


def test_act_on_event_domain_errors():
    with pytest.raises(ValueError):
        relabel_event(PartialPermutation.identity(1), FiniteOrder((0, 1)))


def test_act_commutes_with_evaluate():
    # membership of the relabeled cylinder in the acted order matches the
    # original membership, across all permutations, atoms and orders on 4 points
    atoms = [FiniteOrder(t) for k in (2, 3) for t in permutations(range(4), k)]
    for perm in permutations(range(4)):
        sigma = PartialPermutation.from_mapping(dict(enumerate(perm)))
        for xi_seq in permutations(range(4)):
            xi = OrderPrefix.from_sequence(xi_seq)
            acted = act(sigma, xi)
            for l in atoms:
                assert evaluate(relabel_event(sigma, l), acted) == evaluate(l, xi)


def test_act_commutes_with_evaluate_five_points_sampled():
    rng = random.Random(17)
    for _ in range(400):
        sigma = PartialPermutation.from_mapping(random_bijection(rng, 5))
        xi = OrderPrefix.from_sequence(rng.sample(range(5), 5))
        l = FiniteOrder(tuple(rng.sample(range(5), rng.randint(2, 5))))
        assert evaluate(relabel_event(sigma, l), act(sigma, xi)) == evaluate(l, xi)


def test_evaluate_locality():
    # evaluation only depends on the order restricted to the support
    rng = random.Random(11)
    for _ in range(100):
        e = random_event(rng, elements=(0, 1, 2, 3))
        seq = rng.sample(range(8), 8)
        full = OrderPrefix.from_sequence(seq)
        restricted = {x: full.rank[x] for x in support(e)}
        assert evaluate(e, full) == evaluate(e, restricted)


def _demorgan(e):
    if isinstance(e, Not):
        c = e.child
        if isinstance(c, And):
            return Or(tuple(_demorgan(Not(x)) for x in c.children))
        if isinstance(c, Or):
            return And(tuple(_demorgan(Not(x)) for x in c.children))
        if isinstance(c, Not):
            return _demorgan(c.child)
        return Not(_demorgan(c))
    if isinstance(e, And):
        return And(tuple(_demorgan(x) for x in e.children))
    if isinstance(e, Or):
        return Or(tuple(_demorgan(x) for x in e.children))
    return e


def test_demorgan_rewrites_preserve_evaluation():
    rng = random.Random(13)
    for _ in range(150):
        e = random_event(rng)
        rewritten = _demorgan(e)
        seq = rng.sample(range(6), 6)
        o = OrderPrefix.from_sequence(seq)
        assert evaluate(e, o) == evaluate(rewritten, o)


def test_prefix_text_round_trip():
    o = OrderPrefix.from_sequence([3, 0, 2, 1])
    assert OrderPrefix.from_text(o.to_text()) == o
    assert o.to_text() == "4\n3 0 2 1\n"


def test_prefix_restriction_consistency():
    o = OrderPrefix.from_sequence([4, 1, 3, 0, 2])
    assert o.restrict(3).to_sequence() == [1, 0, 2]
    assert o.restrict(5) == o


def test_prefix_rejects_non_permutations():
    with pytest.raises(ValueError):
        OrderPrefix.from_sequence([0, 2])
    with pytest.raises(ValueError):
        OrderPrefix.from_sequence([0, 1, 1])
    with pytest.raises(ValueError):
        OrderPrefix(2, (0, 2))


def test_partial_permutation_invariants():
    with pytest.raises(ValueError):
        PartialPermutation(((0, 1), (1, 1)))
    with pytest.raises(ValueError):
        PartialPermutation(((0, 1), (0, 2)))
    p = PartialPermutation(((0, 2), (1, 0)))
    assert p.inverse()(2) == 0
    assert p.compose(p.inverse()).mapping == {2: 2, 0: 0}

import random
import tracemalloc
from collections.abc import Mapping
from fractions import Fraction
from itertools import permutations
from math import factorial

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from uminflow import (
    And,
    CapExceededError,
    FiniteOrder,
    FinitePoset,
    Not,
    Or,
    PartialPermutation,
    adjacency_event,
    evaluate,
    linear_extension_count,
    mu_adjacency,
    mu_cylinder,
    mu_exact,
    mu_weight_exact,
    mu_weight_recursive,
    parse_event,
    poset_canon_presentation,
    relabel_event,
    support,
    universal_poset_stage,
)
from uminflow import measure
from uminflow.fraisse import rational_code
from uminflow.measure import (
    BLOCK_WIDTH,
    _absorb,
    _add_cylinders,
    _atom_ids,
    _count_extensions,
    _dnf,
    _position_masks,
)
from helpers import random_bijection, random_event, reference_evaluate


def test_mu_cylinder_values():
    assert mu_cylinder(FiniteOrder((4, 1, 7))) == Fraction(1, 6)
    assert mu_cylinder(FiniteOrder(())) == 1
    assert mu_cylinder(FiniteOrder(tuple(range(8)))) == Fraction(1, 40320)


def test_mu_exact_basics():
    assert mu_exact(parse_event("ord(0<1)")) == Fraction(1, 2)
    assert mu_exact(parse_event("ord(0<1)|!ord(0<1)")) == 1
    assert mu_exact(parse_event("ord(0<1)&ord(1<2)&ord(2<0)")) == 0


def test_mu_exact_support_cap():
    big = parse_event("ord(0<1<2<3<4<5<6<7<8)")
    with pytest.raises(CapExceededError):
        mu_exact(big)
    assert mu_exact(big, support_cap=9) == Fraction(1, factorial(9))


def test_weight_path_single_atom():
    for k in (1, 8, 20):
        approx = mu_weight_recursive(parse_event("ord(0<1<2)"), k)
        assert abs(approx.as_fraction() - Fraction(1, 6)) < Fraction(1, 2**k)


def test_weight_path_tautology():
    approx = mu_weight_recursive(parse_event("ord(0<1)|!ord(0<1)"), 12)
    assert abs(approx.as_fraction() - 1) < Fraction(1, 2**12)


def test_weight_precision_cap():
    with pytest.raises(CapExceededError):
        mu_weight_recursive(parse_event("ord(0<1)"), 65)


def test_weight_negative_precision():
    with pytest.raises(ValueError, match="precision"):
        mu_weight_recursive(parse_event("ord(0<1)"), -3)


def test_weight_agrees_with_exact_oracle():
    rng = random.Random(20)
    for _ in range(200):
        e = random_event(rng)
        exact = mu_exact(e)
        assert mu_weight_exact(e) == exact
        beta = mu_weight_recursive(e, 20)
        assert abs(beta.as_fraction() - exact) < Fraction(1, 2**20)


def test_dyadic_format():
    d = mu_weight_recursive(parse_event("ord(0<1)"), 10)
    assert str(d) == "512/2^10"


def test_mu_adjacency_closed_form():
    assert mu_adjacency(0, 1, 5) == Fraction(2, 5)
    assert mu_adjacency(0, 1, 2) == 1
    for N in range(2, 11):
        for n in range(N):
            for m in range(N):
                if n != m:
                    assert mu_adjacency(n, m, N) == Fraction(2, N)


def test_mu_adjacency_matches_enumeration():
    for N in range(2, 8):
        for n in range(N):
            for m in range(n + 1, N):
                event = adjacency_event(n, m, N)
                assert mu_exact(event) == Fraction(2, N)


def test_mu_adjacency_argument_errors():
    with pytest.raises(ValueError):
        mu_adjacency(1, 1, 4)
    with pytest.raises(ValueError):
        mu_adjacency(0, 4, 4)
    with pytest.raises(ValueError):
        mu_adjacency(0, 1, 1)


def test_adjacency_monotone_vanishing():
    values = [mu_adjacency(0, 1, N) for N in range(2, 65)]
    assert all(a > b for a, b in zip(values, values[1:]))
    assert values[-1] == Fraction(2, 64)


def test_linear_extension_counts():
    assert linear_extension_count(FinitePoset.antichain(3)) == 6
    assert linear_extension_count(FinitePoset.chain(4)) == 1
    v = FinitePoset.from_pairs(3, [(0, 2), (1, 2)])
    assert linear_extension_count(v) == 2


def _count_by_enumeration(p: FinitePoset) -> int:
    total = 0
    for perm in permutations(range(p.n)):
        pos = {e: i for i, e in enumerate(perm)}
        if all(pos[a] < pos[b] for a, b in p.relation):
            total += 1
    return total


def test_linear_extension_random_posets():
    rng = random.Random(30)
    for _ in range(60):
        n = rng.randint(1, 6)
        pairs = set()
        if n >= 2:
            for _ in range(rng.randint(0, n)):
                a, b = rng.sample(range(n), 2)
                pairs.add((min(a, b), max(a, b)))
        p = FinitePoset.from_pairs(n, pairs)
        count = linear_extension_count(p)
        assert count == _count_by_enumeration(p)
        assert count <= factorial(n)
        assert (count == factorial(n)) == p.is_antichain()


def test_linear_extension_cap():
    with pytest.raises(CapExceededError):
        linear_extension_count(FinitePoset.antichain(17))
    assert linear_extension_count(FinitePoset.chain(17), cap=17) == 1


# one trigger per raise site, each with the message the CLI prints
CAP_TRIGGERS = [
    ("support", 8, 9, "support size 9 exceeds enumeration cap 8",
     lambda: mu_exact(parse_event("ord(0<1<2<3<4<5<6<7<8)"))),
    ("union", 2, 3, "union cap 2 exceeded: 3 minimal conjunctions kept from a DNF"
     " of 3 conjunctions",
     lambda: mu_weight_exact(parse_event("ord(0<1)|ord(2<3)|ord(4<5)"), union_cap=2)),
    ("precision", 64, 65, "precision 2^-65 exceeds cap 2^-64",
     lambda: mu_weight_recursive(parse_event("ord(0<1)"), 65)),
    ("extension", 16, 17, "poset size 17 exceeds extension-count cap 16",
     lambda: linear_extension_count(FinitePoset.antichain(17))),
    ("poset", 64, 65, "stage 65 exceeds poset cap 64",
     lambda: universal_poset_stage(65)),
    ("poset", 4, 5, "element 5 beyond poset cap 4",
     lambda: poset_canon_presentation(cap=4).less(0, 5)),
    ("rational", 16384, 16385, "p + q = 16385 exceeds rational code cap 16384",
     lambda: rational_code(Fraction(16384))),
]


@pytest.mark.parametrize("cap, limit, requested, message, trigger", CAP_TRIGGERS)
def test_cap_refusal_carries_its_numbers(cap, limit, requested, message, trigger):
    with pytest.raises(CapExceededError) as err:
        trigger()
    got = err.value
    assert (got.cap, got.limit, got.requested) == (cap, limit, requested)
    assert str(got) == message


def test_poset_validation():
    # masks: pred[b] holds the points below b
    with pytest.raises(ValueError):
        FinitePoset((0b10, 0b01))  # 1 < 0 and 0 < 1
    with pytest.raises(ValueError):
        FinitePoset((0b1, 0))  # 0 < 0
    with pytest.raises(ValueError):
        FinitePoset((0, 0b01, 0b10))  # 0 < 1 < 2, missing 0 < 2
    for outside in ((0b100, 0), (0, -1)):  # a bit at 2, or every bit
        with pytest.raises(ValueError):
            FinitePoset(outside)
    with pytest.raises(ValueError):
        FinitePoset.from_pairs(3, [(0, 1), (1, 2), (2, 0)])
    assert FinitePoset((0, 0b01, 0b11)).relation == {(0, 1), (0, 2), (1, 2)}


@pytest.mark.parametrize("n", [-1, -2])
def test_poset_refuses_a_negative_size(n):
    # stage -2 had a poset of size -2 and an empty extension, and counting
    # the extensions of a negative size raised "negative shift count"
    message = f"poset size must be non-negative, got {n}"
    for build in (FinitePoset.antichain, FinitePoset.chain, universal_poset_stage):
        with pytest.raises(ValueError, match=message):
            build(n)
    with pytest.raises(ValueError, match=message):
        FinitePoset.from_pairs(n, ())


@pytest.mark.parametrize("pair", [(-1, 0), (0, 5), (3, 0), (0, -3)])
def test_from_pairs_refuses_a_pair_outside_the_points(pair):
    # (-1, 0) wrapped round to the pair (2, 0), and (0, 5) raised IndexError
    message = rf"pair \({pair[0]}, {pair[1]}\) outside range\(3\)"
    with pytest.raises(ValueError, match=message):
        FinitePoset.from_pairs(3, [(0, 1), pair])


def _closure_by_fixpoint(n, pairs):
    """Reference closure on sets: grow each point's successor set by its
    successors' sets until none changes, then list the pairs."""
    succ = [set() for _ in range(n)]
    for a, b in pairs:
        succ[a].add(b)
    changed = True
    while changed:
        changed = False
        for a in range(n):
            extra = set()
            for b in succ[a]:
                extra |= succ[b] - succ[a]
            if extra:
                succ[a] |= extra
                changed = True
    return frozenset((a, b) for a in range(n) for b in succ[a])


def _pairs_form_a_poset(n, rel) -> bool:
    """Reference validation on pairs: inside range(n), irreflexive,
    antisymmetric and transitive."""
    succ: dict[int, set[int]] = {}
    for a, b in rel:
        if not (0 <= a < n and 0 <= b < n) or a == b or (b, a) in rel:
            return False
        succ.setdefault(a, set()).add(b)
    return all(succ.get(b, set()) <= bs for bs in succ.values() for b in bs)


def _small_relations(max_size=16):
    return st.integers(0, 8).flatmap(lambda n: st.tuples(
        st.just(n),
        st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)),
                 max_size=max_size) if n else st.just([]),
    ))


@settings(max_examples=200, deadline=None)
@given(_small_relations())
def test_from_pairs_matches_the_set_fixpoint(case):
    n, pairs = case
    want = _closure_by_fixpoint(n, pairs)
    cyclic = any((a, a) in want for a in range(n))
    if cyclic:
        with pytest.raises(ValueError):
            FinitePoset.from_pairs(n, pairs)
    else:
        assert FinitePoset.from_pairs(n, pairs).relation == want
    assert _pairs_form_a_poset(n, want) == (not cyclic)


@settings(max_examples=300, deadline=None)
@given(_small_relations(), st.data())
def test_mask_validation_matches_the_pair_validation(case, data):
    # a closed relation with at most one bit flipped, often a valid poset
    # and often one pair away from one, or random masks; bit n of a mask
    # lies outside range(n)
    n, pairs = case
    closed = _closure_by_fixpoint(n, [(a, b) for a, b in pairs if a < b])
    pred = [sum(1 << a for a, b in closed if b == x) for x in range(n)]
    if n:
        flip = data.draw(st.none() | st.integers(0, n * (n + 1) - 1))
        if flip is not None:
            pred[flip // (n + 1)] ^= 1 << flip % (n + 1)
    masks = st.lists(st.integers(0, (1 << n + 1) - 1), min_size=n, max_size=n)
    pred = data.draw(st.just(pred) | masks)  # or a random mask tuple
    rel = {(a, b) for b, p in enumerate(pred) for a in range(n + 1) if p >> a & 1}
    try:
        FinitePoset(tuple(pred))
        accepted = True
    except ValueError:
        accepted = False
    assert accepted == _pairs_form_a_poset(n, rel)


def test_additivity_on_disjoint_events():
    rng = random.Random(40)
    guard = parse_event("ord(0<1)")
    for _ in range(50):
        base1 = random_event(rng, elements=(0, 1, 2, 3))
        base2 = random_event(rng, elements=(0, 1, 2, 3))
        e1 = And((base1, guard))
        e2 = And((base2, parse_event("!ord(0<1)")))
        assert mu_exact(And((e1, e2))) == 0
        from uminflow import Or

        assert mu_exact(Or((e1, e2))) == mu_exact(e1) + mu_exact(e2)


@pytest.mark.parametrize("k", [1, 2, 3, 4, 5])
def test_partition_identity(k):
    # the k! relabelings of a full order on k points tile the whole space
    base = FiniteOrder(tuple(range(k)))
    total = Fraction(0)
    relabelings = []
    for perm in permutations(range(k)):
        sigma = PartialPermutation.from_mapping(dict(enumerate(perm)))
        image = FiniteOrder(tuple(sigma(e) for e in base.elements))
        relabelings.append(image)
        total += mu_cylinder(image)
    assert total == 1
    assert len(set(relabelings)) == factorial(k)
    if k >= 2:
        rng = random.Random(k)
        for _ in range(10):
            a, b = rng.sample(relabelings, 2)
            assert mu_exact(And((a, b))) == 0


def test_invariance_under_relabeling():
    rng = random.Random(50)
    for _ in range(50):
        e = random_event(rng)
        sigma = PartialPermutation.from_mapping(random_bijection(rng, 6))
        assert mu_exact(relabel_event(sigma, e)) == mu_exact(e)


def test_adjacency_event_degenerate_window():
    event = adjacency_event(0, 1, 2)
    assert evaluate(event, {0: 0, 1: 1})
    assert mu_exact(event) == 1


def test_weight_path_degenerate_atoms():
    full = FiniteOrder(())
    assert mu_weight_exact(full) == 1
    assert mu_weight_exact(Not(full)) == 0
    vacuous = FiniteOrder((5,))
    assert mu_weight_exact(vacuous) == 1
    assert mu_weight_exact(Not(vacuous)) == 0
    assert mu_exact(vacuous) == 1


# ---------------------------------------------------------------------------
# The bit-parallel enumeration and evaluate against the all/any reference


def _brute_force(e) -> Fraction:
    """Satisfying orders on the support, one reference_evaluate call per
    permutation."""
    sup = sorted(support(e))
    count = sum(
        reference_evaluate(e, dict(zip(sup, rank)))
        for rank in permutations(range(len(sup)))
    )
    return Fraction(count, factorial(len(sup)))


def _event_strategy(points: int):
    """Events whose atoms name at most 4 of range(points)."""
    atoms = st.lists(st.integers(0, points - 1), max_size=4, unique=True).map(
        lambda es: FiniteOrder(tuple(es))
    )
    return st.recursive(
        atoms,
        lambda children: st.one_of(
            children.map(Not),
            st.lists(children, min_size=1, max_size=3).map(lambda cs: And(tuple(cs))),
            st.lists(children, min_size=1, max_size=3).map(lambda cs: Or(tuple(cs))),
        ),
        max_leaves=5,
    )


_events = _event_strategy(6)


@settings(max_examples=200, deadline=None)
@given(_events)
def test_compiled_event_matches_evaluate(e):
    assert mu_exact(e) == _brute_force(e)
    assert mu_weight_exact(e) == mu_exact(e)


class _RecordingRanks(Mapping):
    """Positions of an order, logging each element read."""

    def __init__(self, ranks):
        self.ranks, self.reads = ranks, []

    def __getitem__(self, x):
        self.reads.append(x)
        return self.ranks[x]

    def __iter__(self):
        return iter(range(len(self.ranks)))

    def __len__(self):
        return len(self.ranks)


@settings(max_examples=300, deadline=None)
@given(_events, st.permutations(range(6)))
def test_evaluate_reads_what_the_reference_reads(e, ranks):
    # a leaf, an And and an Or stop where all/any stop, so a lazy order
    # (a stream's rank view) derives no key that the reference would not
    walked, reference = _RecordingRanks(ranks), _RecordingRanks(ranks)
    assert evaluate(e, walked) == reference_evaluate(e, reference)
    assert walked.reads == reference.reads


@pytest.mark.parametrize("w", range(BLOCK_WIDTH + 1))
def test_position_masks_match_permutation_order(w):
    # every width mu_exact counts in a block, up to 8! orders
    expected = [[0] * w for _ in range(w)]
    for p, perm in enumerate(permutations(range(w))):
        bit = 1 << p
        for c, v in enumerate(perm):
            expected[c][v] |= bit
    assert _position_masks(w) == expected


@settings(max_examples=200, deadline=None)
@given(_event_strategy(7))
def test_mu_exact_matches_brute_force_on_seven_points(e):
    assert mu_exact(e) == _brute_force(e)


@pytest.mark.parametrize("s", [9, 10])
def test_mu_exact_across_blocks(s):
    # past BLOCK_WIDTH the leading s - 8 ranks are fixed one assignment at a
    # time: pairs of fixed, of free and of mixed ranks all occur
    assert mu_exact(adjacency_event(0, 1, s), support_cap=s) == Fraction(2, s)
    assert mu_exact(adjacency_event(s - 1, 3, s), support_cap=s) == Fraction(2, s)
    for k in (2, 5, s):
        points = random.Random(k).sample(range(s), k)
        # one-point atoms widen the support to range(s) and constrain nothing
        padded = And(
            (FiniteOrder(tuple(points)),)
            + tuple(FiniteOrder((x,)) for x in range(s))
        )
        assert mu_exact(padded, support_cap=s) == Fraction(1, factorial(k))
    tree = parse_event(
        "(ord(0<4<8) | !ord(7<1)) & (ord(5<0) | ord(2<3<6)) & !(ord(8<2) & ord(6<5))"
        + (" & (ord(9<0) | ord(4<9<1<0))" if s == 10 else "")
    )
    assert support(tree) == frozenset(range(s))
    assert mu_exact(tree, support_cap=s) == mu_weight_exact(tree)
    if s == 9:
        assert mu_exact(tree, support_cap=s) == _brute_force(tree)


def test_mu_exact_small_supports_and_extremes():
    assert mu_exact(FiniteOrder(())) == 1
    assert mu_exact(Not(FiniteOrder(()))) == 0
    assert mu_exact(FiniteOrder((3,))) == 1
    assert mu_exact(Or((Not(FiniteOrder((3,))), FiniteOrder((3,))))) == 1
    assert mu_exact(And((Not(FiniteOrder((3,))), FiniteOrder((3,))))) == 0
    cyclic = parse_event("ord(0<1<2<3<4<5<6<7) & ord(7<0)")
    assert mu_exact(cyclic) == 0
    tautology = parse_event("ord(0<1<2<3<4<5<6<7) | !ord(0<1<2<3<4<5<6<7)")
    assert mu_exact(tautology) == 1


def test_mu_exact_memory_stays_at_one_block():
    event = adjacency_event(2, 7, 10)
    tracemalloc.start()
    try:
        assert mu_exact(event, support_cap=10) == Fraction(2, 10)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 4 * 2**20


def test_mu_exact_refuses_before_building_masks(monkeypatch):
    def no_masks(w):
        raise AssertionError("a mask table was built past the cap")

    monkeypatch.setattr(measure, "_position_masks", no_masks)
    with pytest.raises(CapExceededError):
        mu_exact(adjacency_event(0, 1, 11), support_cap=10)


# ---------------------------------------------------------------------------
# The reachable-downset DP and the union cap


def test_count_extensions_edge_cases():
    # 0 -> 1 -> 2 -> 0 is a cycle; 3 is free
    assert _count_extensions(0b1111, [0b0100, 0b0001, 0b0010, 0]) == 0
    assert _count_extensions((1 << 10) - 1, [0] * 10) == factorial(10)
    chain = [0] + [1 << (i - 1) for i in range(1, 16)]
    assert _count_extensions((1 << 16) - 1, chain) == 1
    assert _count_extensions(0, []) == 1
    # only the named elements are placed: 1 before 3, 0 and 2 left out
    assert _count_extensions(0b1010, [0, 0, 0, 0b0010]) == 1
    assert _count_extensions(0b1110, [0, 0, 0, 0b0010]) == 3
    # a cycle among elements left out of the mask is never read
    assert _count_extensions(0b1000, [0b0010, 0b0001, 0, 0]) == 1


def test_linear_extension_count_on_poset_stages():
    # recorded from the dense 2^N downset DP this one replaced
    expected = [1, 1, 1, 1, 3, 10, 18, 122, 146, 540, 2800, 6336]
    got = [linear_extension_count(universal_poset_stage(N).stage) for N in range(1, 13)]
    assert got == expected


def test_union_cap_counts_minimal_conjunctions():
    # 29 conjunctions before absorption, one (ord(0<1)) after
    pairs = [(a, b) for a in range(6) for b in range(6) if a != b and (a, b) != (0, 1)]
    e = Or(
        (FiniteOrder((0, 1)),)
        + tuple(And((FiniteOrder((0, 1)), FiniteOrder(p))) for p in pairs)
    )
    assert len(_literal_dnf(e, True)) > 16
    assert mu_weight_exact(e) == mu_exact(e) == Fraction(1, 2)


def test_union_cap_refuses_wide_and_of_or():
    points = list(range(8))
    clauses = [
        f"(ord({points[i % 8]}<{points[(i + 3) % 8]}) | "
        f"ord({points[(i + 5) % 8]}<{points[(i + 1) % 8]}))"
        for i in range(12)
    ]
    e = parse_event(" & ".join(clauses))
    dnf = _literal_dnf(e, True)
    assert dnf == _reference_dnf(e, True)
    raw = len(dnf)
    assert raw == 1296
    with pytest.raises(CapExceededError) as info:
        mu_weight_exact(e)
    assert str(info.value) == (
        f"union cap 16 exceeded: 17 minimal conjunctions kept from a DNF of {raw}"
        " conjunctions"
    )
    assert mu_exact(e) > 0



# ---------------------------------------------------------------------------
# The pruned peel recursion and the DNF rewrite


@pytest.mark.parametrize("N", range(3, 9))
def test_peel_skips_cyclic_branches(N, monkeypatch):
    calls = []
    count = measure._count_extensions

    def counted(full, pred):
        calls.append(full)
        return count(full, pred)

    monkeypatch.setattr(measure, "_count_extensions", counted)
    assert mu_weight_exact(adjacency_event(0, 1, N)) == Fraction(2, N)
    # 2(N - 2) negated literals; a peel making both n<j<m and m<j'<n positive
    # is cyclic, so only subsets of one orientation's N - 2 atoms are counted
    assert len(calls) <= 2 ** (N - 1)


@pytest.mark.parametrize("N", range(3, 9))
def test_peel_runs_at_most_two_to_the_n_nodes(N, monkeypatch):
    calls = []
    peel = measure._mu_conjunction

    def counted(*args):
        calls.append(args[:2])
        return peel(*args)

    monkeypatch.setattr(measure, "_mu_conjunction", counted)
    assert mu_weight_exact(adjacency_event(0, 1, N)) == Fraction(2, N)
    # a negated atom that the positive cylinders contradict is dropped
    # without a node of its own: 253 calls at N = 8, where peeling it made 631
    assert len(calls) <= 2**N


@pytest.mark.parametrize(
    "text, mu, counts",
    [
        # ord(0<1<2) implies ord(0<2): the conjunction is empty, nothing counted
        ("ord(0<1<2) & !ord(0<2)", Fraction(0), 0),
        # the cylinder contradicts the negated atom, which is dropped unpeeled
        ("ord(0<1<2) & !ord(2<0)", Fraction(1, 6), 1),
        ("ord(0<1) & !ord(1<0)", Fraction(1, 2), 1),
    ],
)
def test_peel_settles_implied_and_contradicted_negations(text, mu, counts, monkeypatch):
    calls = []
    count = measure._count_extensions

    def counted(full, pred):
        calls.append(full)
        return count(full, pred)

    monkeypatch.setattr(measure, "_count_extensions", counted)
    e = parse_event(text)
    assert mu_weight_exact(e) == mu_exact(e) == mu
    assert len(calls) == counts


def _closure(pred: list[int]) -> list[int]:
    """Warshall's transitive closure of the precedence masks."""
    closed = list(pred)
    for k in range(len(closed)):
        for x in range(len(closed)):
            if closed[x] >> k & 1:
                closed[x] |= closed[k]
    return closed


@st.composite
def _dags(draw, max_size: int):
    """(n, pred) for a random DAG on range(n): edges only run forward in a
    random topological order."""
    n = draw(st.integers(0, max_size))
    order = draw(st.permutations(range(n)))
    pred = [0] * n
    for i, b in enumerate(order):
        for a in order[:i]:
            if draw(st.booleans()):
                pred[b] |= 1 << a
    return n, pred


@settings(max_examples=200, deadline=None)
@given(_dags(8))
def test_closing_the_precedence_keeps_the_extension_count(dag):
    n, pred = dag
    full = (1 << n) - 1
    assert _count_extensions(full, pred) == _count_extensions(full, _closure(pred))


@settings(max_examples=200, deadline=None)
@given(st.lists(st.lists(st.integers(0, 5), min_size=2, max_size=3, unique=True),
                max_size=5))
def test_add_cylinders_keeps_the_precedence_closed(orders):
    atoms = [
        (sum(1 << x for x in es), [(a, 1 << a, b, 1 << b) for a, b in zip(es, es[1:])])
        for es in orders
    ]
    empty = [0] * 6
    added = _add_cylinders((1 << len(atoms)) - 1, empty, 0, atoms)
    raw = [0] * 6
    for es in orders:
        for a, b in zip(es, es[1:]):
            raw[b] |= 1 << a
    closed = _closure(raw)
    if any(closed[x] >> x & 1 for x in range(6)):
        assert added is None
        return
    pred, named = added
    assert pred == closed
    assert named == sum(1 << x for x in {x for es in orders for x in es})
    assert (pred is empty) == (not any(raw))


def _literals(ids, t):
    """A term ``pos | neg << W`` of ``_dnf`` (W = len(ids)) as its set of
    (order, sign) literals."""
    w = len(ids)
    pos, neg = t & (1 << w) - 1, t >> w
    return frozenset(
        (FiniteOrder(es), sign)
        for es, bit in ids.items()
        for sign, mask in ((True, pos), (False, neg))
        if mask & bit
    )


def _literal_dnf(e, positive):
    """``_dnf``'s terms as sets of (order, sign) literals, in the same order."""
    ids = _atom_ids(e)
    # ids number the atoms in sorted order, so the lowest negated id is the
    # least negated atom, the one the peel removes first
    assert list(ids) == sorted(ids)
    assert list(ids.values()) == [1 << i for i in range(len(ids))]
    return [_literals(ids, t) for t in _dnf(e, positive, ids)]


def _reference_dnf(e, positive):
    """The DNF rewrite as it was before merges tested only the new literals."""
    if isinstance(e, FiniteOrder):
        return [frozenset([(e, positive)])]
    if isinstance(e, Not):
        return _reference_dnf(e.child, not positive)
    both = e.children
    if (isinstance(e, And) and positive) or (isinstance(e, Or) and not positive):
        out = [frozenset()]
        for child in both:
            branches = _reference_dnf(child, positive)
            merged = []
            for acc in out:
                for b in branches:
                    t = acc | b
                    if not _reference_contradictory(t):
                        merged.append(t)
            out = _reference_dedupe(merged)
        return out
    out = []
    for child in both:
        out.extend(_reference_dnf(child, positive))
    return _reference_dedupe(out)


def _reference_contradictory(term):
    return any((order, not sign) in term for order, sign in term)


def _reference_dedupe(terms):
    seen = set()
    out = []
    for t in terms:
        if t not in seen:
            seen.add(t)
            out.append(t)
    return out


def _reference_absorb(terms):
    """The minimal terms of a list of literal sets, by increasing size."""
    kept = []
    for t in sorted(terms, key=len):
        if not any(k <= t for k in kept):
            kept.append(t)
    return kept


def _reference_refusal(e):
    """The union-cap refusal of the weight route as it was on frozensets of
    literals, or None where that route measured the event."""
    terms = _reference_dnf(e, True)
    kept = _reference_absorb(terms)
    if len(kept) <= 16:
        return None
    return (
        "union cap 16 exceeded: 17 minimal conjunctions kept from a DNF of"
        f" {len(terms)} conjunctions"
    )


def _weight_or_refusal(e):
    try:
        return mu_weight_exact(e)
    except CapExceededError as refusal:
        return str(refusal)


@st.composite
def _deep_events(draw, points: int, leaves: int):
    """Events on range(points) with leaves // 2 to ``leaves`` leaves, atoms of
    2 to 4 points, each atom and each And or Or negated half the time: deep
    peels, which the small events of ``_event_strategy`` seldom reach."""
    elements = st.lists(st.integers(0, points - 1), min_size=2, max_size=4, unique=True)

    def negated(node):
        return Not(node) if draw(st.booleans()) else node

    def tree(n):
        if n == 1:
            return negated(FiniteOrder(tuple(draw(elements))))
        k = draw(st.integers(2, min(4, n)))
        cuts = draw(st.sets(st.integers(1, n - 1), min_size=k - 1, max_size=k - 1))
        cuts = sorted(cuts)
        children = tuple(tree(b - a) for a, b in zip([0, *cuts], [*cuts, n]))
        return negated(draw(st.sampled_from([And, Or]))(children))

    return tree(draw(st.integers(leaves // 2, leaves)))


@settings(max_examples=200, deadline=None)
@given(_deep_events(8, 12))
def test_weight_route_matches_oracle_on_deep_events(e):
    # the oracle never refuses a support of 8 points; the weight route
    # refuses exactly where the frozenset route did, with the same text
    refusal = _reference_refusal(e)
    expected = mu_exact(e) if refusal is None else refusal
    assert _weight_or_refusal(e) == expected


@settings(max_examples=200, deadline=None)
@given(_deep_events(8, 12))
def test_absorb_keeps_the_reference_minimal_terms(e):
    ids = _atom_ids(e)
    w = len(ids)
    terms = _dnf(e, True, ids)
    assert all(t & t >> w == 0 for t in terms)  # no atom held both ways
    assert all(0 <= t < 2 ** (2 * w) for t in terms)
    try:
        kept = _absorb(terms, 16)
    except CapExceededError:
        return
    expected = _reference_absorb(_reference_dnf(e, True))
    assert [_literals(ids, t) for t in kept] == expected


def _binary_or(points: int):
    atoms = st.lists(st.integers(0, points - 1), min_size=2, max_size=3, unique=True)
    literals = atoms.map(lambda es: FiniteOrder(tuple(es)))
    literals = st.one_of(literals, literals.map(Not))
    return st.tuples(literals, literals).map(Or)


@settings(max_examples=100, deadline=None)
@given(st.lists(_binary_or(8), min_size=4, max_size=12))
def test_and_of_binary_ors_refused_as_before(clauses):
    e = And(tuple(clauses))
    refusal = _reference_refusal(e)
    expected = mu_exact(e) if refusal is None else refusal
    assert _weight_or_refusal(e) == expected


@settings(max_examples=200, deadline=None)
@given(_event_strategy(5), st.booleans())
def test_dnf_matches_reference_rewrite(e, positive):
    assert _literal_dnf(e, positive) == _reference_dnf(e, positive)

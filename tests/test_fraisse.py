import random
import tracemalloc
from collections import Counter
from fractions import Fraction
from functools import cache
from itertools import combinations, count, islice
from math import gcd

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from uminflow import (
    CapExceededError,
    FinitePoset,
    OrderPrefix,
    OrderPresentation,
    PosetStage,
    SearchBudgetError,
    back_and_forth,
    check_density,
    poset_canon_presentation,
    poset_extension_audit,
    rado_adjacent,
    rado_extension_witness,
    rational_order_less,
    rational_presentation,
    rational_presentation_variant,
    rational_value,
    universal_poset_stage,
)
from uminflow import fraisse
from uminflow.fraisse import StageBuilder, rational_code, simplest_between


# -- rational order


def test_rational_irreflexive_total():
    for a in range(101):
        assert not rational_order_less(a, a)
        for b in range(a + 1, 101):
            assert rational_order_less(a, b) != rational_order_less(b, a)


def test_rational_transitive_sample():
    rng = random.Random(3)
    for _ in range(300):
        a, b, c = rng.sample(range(200), 3)
        if rational_order_less(a, b) and rational_order_less(b, c):
            assert rational_order_less(a, c)


def test_rational_enumeration_prefix():
    values = [rational_value(n) for n in range(9)]
    assert values == [
        Fraction(0),
        Fraction(1),
        Fraction(-1),
        Fraction(1, 2),
        Fraction(-1, 2),
        Fraction(2),
        Fraction(-2),
        Fraction(1, 3),
        Fraction(-1, 3),
    ]


def test_rational_code_inverts_value():
    for n in range(500):
        assert rational_code(rational_value(n)) == n


def test_rational_code_refuses_past_its_cap():
    # the code of this 40-digit answer made the totient sieve raise OverflowError
    lo, hi = Fraction(10**40, 3), Fraction(10**40 + 1, 3)
    with pytest.raises(CapExceededError, match="exceeds rational code cap") as exc:
        rational_presentation().locate_fn(lo, hi, lo)
    assert exc.value.cap == "rational"
    assert exc.value.requested == 56666666666666666666666666666666666666667 + 17
    # p + q at the cap still gets a code: of the 2^13 reduced fractions with
    # p + q = 2^14, 1/(2^14 - 1) is enumerated first and 2^14 - 1 last
    cap = fraisse.RATIONAL_CODE_CAP
    assert cap == 1 << 14
    first, last = rational_code(Fraction(1, cap - 1)), rational_code(Fraction(cap - 1))
    assert last - first == 2 * ((1 << 13) - 1)
    assert rational_code(-Fraction(cap - 1)) == last + 1


def test_rational_value_refuses_past_the_capped_codes():
    # the last code whose p + q is within the cap is -(2^14 - 1); the next,
    # 1/2^14, would grow the sieve past the cap, and a code of p + q near
    # 2^35 grew it past 4 GB
    assert rational_value(163_198_674) == -(fraisse.RATIONAL_CODE_CAP - 1)
    for code in (163_198_675, 2**30, 2**70):
        with pytest.raises(CapExceededError) as exc:
            rational_value(code)
        got = exc.value
        assert (got.cap, got.limit, got.requested) == ("rational", 163_198_674, code)
        assert str(got) == (
            f"code {code} exceeds 163198674, the last with p + q <= rational code cap 16384"
        )


@pytest.mark.parametrize("code", [-1, -2, -5])
def test_rational_value_refuses_a_negative_code(code):
    # a negative code indexed the enumeration from its far end: IndexError
    with pytest.raises(ValueError, match=f"rational code {code} is negative"):
        rational_value(code)


def _reference_rationals():
    """0, then each reduced p/q by increasing p + q and then p, followed by
    its negative: the enumeration behind every rational code."""
    yield Fraction(0)
    s = 2
    while True:
        for p in range(1, s):
            if gcd(p, s) == 1:
                yield Fraction(p, s - p)
                yield -Fraction(p, s - p)
        s += 1


@cache
def _reference(count: int) -> list[Fraction]:
    return list(islice(_reference_rationals(), count))


def test_presentations_decode_the_reference_enumeration():
    ref = _reference(50_000)
    v1, v2 = rational_presentation().value_fn, rational_presentation_variant().value_fn
    assert [v1(n) for n in range(50_000)] == ref
    assert [v2(n) for n in range(50_000)] == [ref[n ^ 1] for n in range(50_000)]


def test_rational_value_and_code_at_random_codes():
    codes = sorted(random.Random(7).sample(range(10**6), 200))
    values = _reference_rationals()
    at = 0
    for code in codes:
        expected = next(islice(values, code - at, None))
        at = code + 1
        assert rational_value(code) == expected
        assert rational_code(expected) == code


_LEAST_BOUND = 4_000
_endpoint = (
    st.none()
    | st.just(Fraction(0))
    | st.integers(1, _LEAST_BOUND - 1).map(lambda code: _reference(_LEAST_BOUND)[code])
    | st.builds(Fraction, st.integers(-40, 40), st.integers(1, 30))
)


@settings(max_examples=300, deadline=None)
@given(_endpoint, _endpoint, st.sampled_from([0, 1]))
def test_least_fn_is_the_least_code_inside(x, y, flip):
    """The least element inside (lo, hi) of rational-v1, or of rational-v2
    through its flip, equals a scan of the codes below a bound."""
    lo, hi = (x, y) if x is None or y is None or x < y else (y, x)
    assume(lo is None or hi is None or lo < hi)
    pres = (rational_presentation, rational_presentation_variant)[flip]()
    ref = _reference(_LEAST_BOUND)
    scan = next(
        (c for c in range(_LEAST_BOUND)
         if (lo is None or lo < ref[c ^ flip]) and (hi is None or ref[c ^ flip] < hi)),
        None,
    )
    got = pres.least_fn(lo, hi)
    assert got == scan if scan is not None else got >= _LEAST_BOUND


def test_simplest_between():
    assert simplest_between(Fraction(1, 5), Fraction(1, 4)) == Fraction(2, 9)
    assert simplest_between(Fraction(-1), Fraction(1)) == 0
    assert simplest_between(None, Fraction(-3)) == Fraction(-4)
    assert simplest_between(Fraction(5, 2), None) == Fraction(3)


def test_rational_density_witnesses():
    report = check_density(rational_presentation(), 10, 200)
    assert report.all_witnessed
    # wider scale with a larger search bound
    report = check_density(rational_presentation(), 20, 500)
    assert report.all_witnessed


def test_rational_between_search_honors_enumeration():
    # witnesses are found by scanning the fixed enumeration in code order
    for a, b in combinations(range(21), 2):
        if rational_order_less(a, b):
            lo, hi = a, b
        else:
            lo, hi = b, a
        j = next(
            c
            for c in range(600)
            if c not in (lo, hi)
            and rational_order_less(lo, c)
            and rational_order_less(c, hi)
        )
        assert rational_value(lo) < rational_value(j) < rational_value(hi)


def test_naturals_are_not_dense():
    naturals = OrderPresentation("naturals", lambda a, b: a < b)
    report = check_density(naturals, 2, 50)
    assert not report.all_witnessed
    assert (0, 1) in report.unwitnessed_pairs
    assert 0 in report.unwitnessed_endpoints  # nothing below the minimum


# -- random graph


def test_rado_bit_predicate():
    assert rado_adjacent(0, 5)  # bit 0 of 101
    assert not rado_adjacent(1, 5)  # bit 1 of 101
    with pytest.raises(ValueError):
        rado_adjacent(3, 3)


def test_rado_symmetry():
    for i in range(51):
        for j in range(51):
            if i != j:
                assert rado_adjacent(i, j) == rado_adjacent(j, i)


def test_rado_witness_examples():
    assert rado_extension_witness({0, 2}, {1}) == 5
    assert rado_extension_witness(set(), {0, 1}) == 4


def test_rado_witness_exhaustive():
    universe = range(6)
    for size in range(7):
        for chosen in combinations(universe, size):
            for a_mask in range(2 ** len(chosen)):
                A = {e for i, e in enumerate(chosen) if a_mask >> i & 1}
                B = set(chosen) - A
                z = rado_extension_witness(A, B)
                assert z not in A | B
                assert all(rado_adjacent(z, a) for a in A)
                assert not any(rado_adjacent(z, b) for b in B)


def test_rado_witness_disjointness_required():
    with pytest.raises(ValueError):
        rado_extension_witness({1}, {1, 2})


# -- universal poset stages


def test_stage_one_point():
    st = universal_poset_stage(1)
    assert st.stage.n == 1 and not st.stage.relation
    assert st.canon.to_sequence() == [0]


def test_stage_nesting():
    big = universal_poset_stage(8)
    small = universal_poset_stage(5)
    restricted = frozenset(
        (a, b) for a, b in big.stage.relation if a < 5 and b < 5
    )
    assert restricted == small.stage.relation
    assert [e for e in big.canon.to_sequence() if e < 5] == small.canon.to_sequence()


def test_stage_nesting_sweep():
    stages = {n: universal_poset_stage(n) for n in range(1, 65)}
    for n in range(2, 65):
        prev = stages[n - 1]
        rel = frozenset(
            (a, b) for a, b in stages[n].stage.relation if a < n - 1 and b < n - 1
        )
        assert rel == prev.stage.relation


def test_canon_extends_stage():
    for n in (1, 7, 23, 64):
        st = universal_poset_stage(n)
        for a, b in st.stage.relation:
            assert st.canon.less(a, b)


def test_stage_cap():
    with pytest.raises(CapExceededError):
        universal_poset_stage(65)
    universal_poset_stage(65, cap=70)


def test_stage_determinism():
    b1, b2 = StageBuilder(), StageBuilder()
    b1.grow_to(80)
    b2.grow_to(80)
    assert b1.canon == b2.canon
    assert all(b1.down[i] == b2.down[i] for i in range(80))


def test_step_skips_the_decided_demands():
    # each demand the stream yields is decided once; only a demand that
    # names a missing element is read again, at a later step
    b = StageBuilder()
    yielded, decided, calls = [], Counter(), 0
    stream, decide = b._stream, b._decide

    def recorded():
        for demand in stream:
            yielded.append(demand)
            yield demand

    def counted(demand):
        nonlocal calls
        calls += 1
        got = decide(demand)
        if got is not None:
            decided[demand] += 1
        return got

    b._stream, b._decide = recorded(), counted
    b.grow_to(300)
    assert set(decided) == set(yielded) - set(b._waiting)
    assert set(decided.values()) == {1}
    assert calls < 2 * len(yielded)


def test_step_keeps_the_waiting_demands_in_order():
    # both patterns wait for point 1; the first is realized by point 2, and
    # the second must still wait, to be realized by point 3
    b = StageBuilder()
    b._stream = iter(
        [("pattern", 0, ()), ("pattern", 2, (1, 0)), ("pattern", 2, (0, 2)),
         ("just_above", 0)]
    )
    b.grow_to(4)
    assert b.down == [0b0001, 0b1011, 0b0101, 0b1000]  # {0}, {0,1,3}, {0,2}, {3}
    assert b.up == [0b0111, 0b0010, 0b0100, 0b1010]  # {0,1,2}, {1}, {2}, {1,3}
    assert b.canon == [0, 2, 3, 1]


def _mask(points) -> int:
    return sum(1 << p for p in points)


def _points(mask: int) -> frozenset:
    points = []
    while mask:
        low = mask & -mask
        points.append(low.bit_length() - 1)
        mask ^= low
    return frozenset(points)


def _mask_need(need):
    """A reference decision with its need's sets as masks."""
    return (_mask(need[0]), _mask(need[1])) if need else need


def _reference_decision(n, pos, down, up, demand):
    """A demand's decision by a full witness scan: every need carries its
    domain size and incomparable set, and every point is tested as a
    witness.  Works on sets: a pattern or neighbour demand reads the
    builder's masks as sets first."""
    kind, *args = demand
    if kind == "between":
        u, v = args
        if max(u, v) >= n:
            return None
        need = (u, v) if pos[u] < pos[v] else False
    else:
        s = args[0] if kind == "pattern" else args[0] + 1
        if s > n:
            return None
        down, up = list(map(_points, down)), list(map(_points, up))
        R = frozenset(range(s))
        if kind == "pattern":
            D = frozenset(i for i in R if args[1][i] == 1)
            U = frozenset(i for i in R if args[1][i] == 2)
        else:
            D = R & down[args[0]] if kind == "just_above" else frozenset()
            U = R & up[args[0]] if kind == "just_below" else frozenset()
        below = set().union(*(down[a] for a in D))
        above = set().union(*(up[u] for u in U))
        consistent = (
            below & R == D and above & R == U and all(U <= up[a] for a in D)
        )
        need = (s, D, U, R - D - U) if consistent else False

    def witnesses(x):
        if len(need) == 2:
            u, v = need
            return pos[u] < pos[x] < pos[v]
        s, D, U, I = need
        if x < s or not (D <= down[x] and U <= up[x]):
            return False
        return I.isdisjoint(down[x]) and I.isdisjoint(up[x])

    if need and any(witnesses(x) for x in range(n)):
        return False
    return need if not need or len(need) == 2 else need[1:3]


def test_decisions_match_the_witness_scan_reference(monkeypatch):
    decide = StageBuilder._decide

    def checked(self, demand):
        got = decide(self, demand)
        want = _reference_decision(self.n, self.pos, self.down, self.up, demand)
        assert got == _mask_need(want), (self.n, demand)
        kinds[demand[0]] += 1
        outcomes["live" if got else got] += 1
        return got

    kinds, outcomes = Counter(), Counter()
    monkeypatch.setattr(StageBuilder, "_decide", checked)
    StageBuilder().grow_to(500)
    assert set(kinds) == {"just_above", "just_below", "pattern"}
    assert set(outcomes) == {None, False, "live"}


def _stream_with_between_demands():
    """The demand stream as it was with "between u, v" demands, each asking
    for a point strictly between u and v in the extension, related to
    nothing, from round 11 on."""
    yield ("pattern", 0, ())
    tail = fraisse._tail_patterns()
    for r in count(1):
        e = r - 1
        yield ("just_above", e)
        yield ("just_below", e)
        if r <= 4:
            for p in fraisse._grade_patterns(r):
                yield ("pattern", r, p)
        if r >= 11:
            m = r - 11
            for j in range(m):
                yield ("between", m, j)
                yield ("between", j, m)
        for _ in range(2):
            yield next(tail)


def test_between_demands_are_never_live():
    # decided by the witness scan reference, every between demand is dead,
    # so the stream without them builds the same stages
    b = StageBuilder()
    decided = 0

    def decide(demand):
        nonlocal decided
        got = _reference_decision(b.n, b.pos, b.down, b.up, demand)
        if demand[0] == "between":
            assert not got, (b.n, demand)
            decided += got is False
        return _mask_need(got)

    b._stream, b._decide = _stream_with_between_demands(), decide
    b.grow_to(500)
    want = StageBuilder()
    want.grow_to(500)
    assert decided > 50_000
    assert (b.canon, b.down) == (want.canon, want.down)


@pytest.mark.parametrize("n", [600, 1200])
def test_decided_demands_are_freed(n):
    # each decided demand tuple was kept with its need and I set: growing
    # to 600 points peaked at 6.8 MB, and at 29.0 MB for 1,200; a False
    # slot kept for each decided demand still peaked at 4.67 MB for 1,200
    tracemalloc.start()
    try:
        StageBuilder().grow_to(n)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 3 * 2**20


def test_stage_builders_are_single_owner():
    # each presentation grows a builder of its own, and concurrent stage
    # calls share no builder, so they need no lock to agree
    import sys
    import threading

    def builder(pres) -> StageBuilder:
        cells = (cell.cell_contents for cell in pres.less_fn.__closure__)
        return next(c for c in cells if isinstance(c, StageBuilder))

    grown, idle = poset_canon_presentation(), poset_canon_presentation()
    grown.less(20, 40)
    assert (builder(grown).n, builder(idle).n) == (41, 0)

    results, errors = [], []

    def build():
        try:
            results.append(universal_poset_stage(60).to_json())
        except Exception as exc:  # noqa: BLE001 - surfaced via the main thread
            errors.append(exc)

    threads = [threading.Thread(target=build) for _ in range(4)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert not errors
    assert results == [StageBuilder().stage(60).to_json()] * 4


def test_one_point_extension_audit():
    audit = poset_extension_audit(range(4), witness_bound=160, cap=200)
    assert audit.demands_checked > 50
    assert audit.complete, audit.unrealized
    default = poset_extension_audit()
    assert (default.demands_checked, default.complete) == (104, True)


@pytest.mark.parametrize("base, point", [([100], 100), ([-1, 0], -1), ([0, 64], 64)])
def test_extension_audit_refuses_a_base_point_outside_the_stage(base, point):
    # such a point was reported as two unrealized demands over a point that
    # is not in the stage
    with pytest.raises(ValueError, match=rf"base point {point} outside range\(64\)"):
        poset_extension_audit(base, witness_bound=64)


def test_demand_stream_starts_with_the_empty_pattern():
    # the first point realizes the pattern over no points: nothing below or
    # above it
    assert next(fraisse._demand_stream()) == ("pattern", 0, ())
    b = StageBuilder()
    assert b._decide(("pattern", 0, ())) == (0, 0)
    b.grow_to(1)
    assert b._decide(("pattern", 0, ())) is False


def test_poset_stage_refuses_a_canon_of_another_size():
    # a longer canon was accepted and written out, a shorter one raised
    # IndexError
    chain = FinitePoset.chain(2)
    for seq in ([0, 1, 2], [0]):
        with pytest.raises(ValueError, match=f"canon of size {len(seq)}"):
            PosetStage(chain, OrderPrefix.from_sequence(seq))
    with pytest.raises(ValueError, match="canon of size 2 does not extend"):
        PosetStage(chain, OrderPrefix.from_sequence([1, 0]))
    assert PosetStage(chain, OrderPrefix.from_sequence([0, 1])).to_json() == {
        "n": 2, "pairs": [(0, 1)], "canon": [0, 1]
    }


def test_canon_presentation_is_dense_at_small_scale():
    pres = poset_canon_presentation(cap=200)
    report = check_density(pres, 6, 160)
    assert report.all_witnessed


def test_canon_presentation_cap():
    pres = poset_canon_presentation(cap=16)
    with pytest.raises(CapExceededError):
        pres.less(0, 20)


@pytest.mark.parametrize("code", [4, 9])
def test_canon_sort_key_refuses_as_less_does(code):
    # the sort key values codes in code order, yet a code past the cap is
    # refused under its own name, as a comparison with it is
    with pytest.raises(CapExceededError) as expected:
        poset_canon_presentation(cap=4).less(0, code)
    with pytest.raises(CapExceededError) as got:
        fraisse._sort_key(poset_canon_presentation(cap=4))(code)
    assert str(got.value) == str(expected.value) == f"element {code} beyond poset cap 4"
    assert (got.value.cap, got.value.limit, got.value.requested) == ("poset", 4, code)


def _surrogate_values(pres: OrderPresentation):
    """Rational stand-ins for a presentation without a value function,
    assigned in code order by midpoints and unit end steps."""
    cache: dict[int, Fraction] = {}

    def value(a: int) -> Fraction:
        for k in range(len(cache), a + 1):
            below = [v for c, v in cache.items() if pres.less(c, k)]
            above = [v for c, v in cache.items() if pres.less(k, c)]
            if below and above:
                v = (max(below) + min(above)) / 2
            elif below:
                v = max(below) + 1
            elif above:
                v = min(above) - 1
            else:
                v = Fraction(0)
            cache[k] = v
        return cache[a]

    return value


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 200).flatmap(
    lambda n: st.tuples(st.permutations(range(n)), st.permutations(range(n)))
))
def test_values_from_comparisons_match_the_quadratic_reference(drawn):
    # a random finite order (code a sits at place perm[a]), read in random order
    perm, reads = drawn
    pres = OrderPresentation("finite", lambda a, b: perm[a] < perm[b])
    value, reference = fraisse._values(pres), _surrogate_values(pres)
    got = {a: value(a) for a in reads}
    assert got == {a: reference(a) for a in reads}
    by_order = sorted(got, key=perm.__getitem__)
    assert all(got[a] < got[b] for a, b in zip(by_order, by_order[1:]))


def test_stage_json_shape():
    data = universal_poset_stage(5).to_json()
    assert set(data) == {"n", "pairs", "canon"}
    assert data["n"] == 5
    assert sorted(data["canon"]) == list(range(5))
    assert all(len(p) == 2 for p in data["pairs"])


# -- back and forth


def test_back_and_forth_identity():
    iso = back_and_forth(rational_presentation(), rational_presentation(), 40)
    assert iso.pairs == tuple((i, i) for i in range(40))


def test_back_and_forth_between_variants():
    v1, v2 = rational_presentation(), rational_presentation_variant()
    iso = back_and_forth(v1, v2, 50)
    dom = sorted(iso.domain())
    assert set(range(50)) <= iso.domain()
    assert set(range(50)) <= iso.range()
    for a in dom:
        for b in dom:
            if a != b:
                assert v1.less(a, b) == v2.less(iso(a), iso(b))


@pytest.mark.parametrize("n", [0, -1])
def test_back_and_forth_empty_depth(n):
    # range(0) is empty, so the empty map already covers it on both sides
    v1, v2 = rational_presentation(), rational_presentation_variant()
    if n < 0:
        with pytest.raises(ValueError, match=r"^depth must be non-negative, got -1$"):
            back_and_forth(v1, v2, n)
    else:
        assert back_and_forth(v1, v2, n).pairs == ()


def test_back_and_forth_composition():
    v1, v2 = rational_presentation(), rational_presentation_variant()
    f = back_and_forth(v1, v2, 60)
    g = back_and_forth(v2, v1, 60)
    comp = g.compose(f)
    assert comp.domain()
    assert all(comp(a) == a for a in comp.domain())


@pytest.mark.parametrize(
    "budget, blocking, interval",
    [
        (3, 1, (Fraction(1), None)),
        (5, 3, (Fraction(1), Fraction(2))),
        (20, 7, (Fraction(1), Fraction(3, 2))),
    ],
)
def test_iso_refusal_interval_holds_values(budget, blocking, interval):
    # recorded before iso sorted values float first: the refusal names the
    # values themselves, not the (float, value) sort keys
    v1, v2 = rational_presentation(), rational_presentation_variant()
    with pytest.raises(SearchBudgetError) as err:
        back_and_forth(v1, v2, 40, search_budget=budget)
    assert err.value.blocking == blocking
    assert err.value.interval == interval
    assert all(v is None or type(v) is Fraction for v in err.value.interval)


def test_back_and_forth_budget_violation_reports():
    naturals = OrderPresentation("naturals", lambda a, b: a < b)
    v1 = rational_presentation()
    # the naturals have no point below 0, so the search for a partner of a
    # rational below everything must exhaust its budget
    with pytest.raises(SearchBudgetError) as err:
        back_and_forth(v1, naturals, 10, search_budget=200)
    assert err.value.blocking is not None
    # the naturals have no value function: the interval holds the values
    # read off their comparisons, as it does for the rational presentations
    assert err.value.interval == (None, Fraction(0))
    assert type(err.value.interval[1]) is Fraction

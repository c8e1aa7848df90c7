import random
import time
from collections import Counter
from fractions import Fraction
from itertools import combinations, count, permutations
from math import sqrt

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from uminflow import (
    And,
    Atom,
    FiniteOrder,
    MLLevelUnavailable,
    Or,
    OrderPrefix,
    OrderPresentation,
    PresentationOrderSource,
    RandomOrderStream,
    adjacency_event,
    bits_from_graph,
    density_test_family,
    evaluate,
    graph_extension_witness,
    graph_from_bits,
    mu_exact,
    pair_code,
    poset_canon_presentation,
    poset_extension_test,
    poset_level_measure,
    poset_test_family,
    run_ml_tests,
    sample_bits,
    sample_prefix,
    support,
    unbounded_test_family,
    universal_poset_stage,
)
from uminflow.cli import main
from uminflow import sampler
from uminflow.fraisse import PosetStage, StageBuilder
from uminflow.sampler import _digest, code_pair


# -- sampling


def test_single_point_prefix():
    assert sample_prefix(123, 1).to_sequence() == [0]


@pytest.mark.parametrize("seed", [0, 5, -1, 2**64 + 5])
def test_key_is_the_order_digest(seed):
    stream = RandomOrderStream(seed)
    for n in (0, 1, 2**63, 2**64 - 1):
        expected = int.from_bytes(_digest(b"uminflow-order", seed, n), "big")
        assert stream.key(n) == expected
    for n in (2**64, -1):
        with pytest.raises(OverflowError):
            stream.key(n)


@settings(max_examples=200, deadline=None)
@given(
    seed=st.sampled_from([0, 5, -1, 2**64 + 5]) | st.integers(),
    start=st.integers(-40, 40) | st.integers(2**64 - 40, 2**64 + 1),
    length=st.integers(0, 40),
)
def test_keys_derive_a_range_and_keep_none(seed, start, length):
    stream = RandomOrderStream(seed)
    stream.key(7)
    kept = dict(stream._keys)
    stop = start + length
    if length and (start < 0 or stop > 2**64):  # reaches -1 or 2^64, as key does
        with pytest.raises(OverflowError):
            stream.keys(start, stop)
        return
    expected = [
        int.from_bytes(_digest(b"uminflow-order", seed, n), "big")
        for n in range(start, stop)
    ]
    assert stream.keys(start, stop) == expected
    assert stream._keys == kept
    assert [stream.key(n) for n in range(start, stop)] == expected


def test_prefix_consistency_many_seeds():
    for seed in range(100):
        big = sample_prefix(seed, 10)
        assert big.restrict(5) == sample_prefix(seed, 5)


def test_prefix_determinism():
    assert sample_prefix(9, 50) == sample_prefix(9, 50)
    assert sample_prefix(9, 50) != sample_prefix(10, 50)


def test_exchangeability_small():
    trials = 20_000
    counts = {}
    for seed in range(trials):
        seq = tuple(sample_prefix(seed, 3).to_sequence())
        counts[seq] = counts.get(seq, 0) + 1
    assert len(counts) == 6
    p = 1 / 6
    tol = 4 * sqrt(p * (1 - p) / trials)
    for c in counts.values():
        assert abs(c / trials - p) <= tol


def test_stream_less_matches_prefix():
    stream = RandomOrderStream(77)
    prefix = stream.prefix(20)
    for a in range(20):
        for b in range(20):
            if a != b:
                assert stream.less(a, b) == prefix.less(a, b)


# -- test families


def test_density_family_levels():
    fam = density_test_family((0, 1))
    lvl1 = fam.level(1)
    assert lvl1.exact_measure == Fraction(1, 4)  # window 8
    assert fam.level(3).exact_measure == Fraction(2, 32)
    for k in range(1, 6):
        lvl = fam.level(k)
        assert lvl.exact_measure <= Fraction(1, 2**k)


def test_density_family_rejects_equal_pair():
    with pytest.raises(ValueError):
        density_test_family((2, 2))


def test_unbounded_family_measure_by_enumeration():
    fam = unbounded_test_family(0)
    for k in (1, 2):
        lvl = fam.level(k)
        sup = support(lvl.event)
        if len(sup) <= 7:
            assert mu_exact(lvl.event, support_cap=8) == lvl.exact_measure


def test_minimum_event_measure():
    # the chance that 0 is least among {0..N} is 1/(N+1)
    for N in range(1, 7):
        hits = 0
        for perm in permutations(range(N + 1)):
            if perm[0] == 0:
                hits += 1
        assert Fraction(hits, len(list(permutations(range(N + 1))))) == Fraction(
            1, N + 1
        )


def test_unbounded_family_bounds():
    fam = unbounded_test_family(0)
    for k in range(1, 6):
        assert fam.level(k).exact_measure <= Fraction(1, 2**k)


def test_unbounded_family_pass_rate():
    fam = unbounded_test_family(0)
    lvl = fam.level(5)
    sup = max(support(lvl.event)) + 1
    passes = sum(
        1 for seed in range(1000) if not evaluate(lvl.event, sample_prefix(seed, sup))
    )
    assert passes >= 950


def test_poset_extension_test_canon():
    for N in (1, 4, 9, 14):
        stage = universal_poset_stage(N)
        assert poset_extension_test(stage.canon, stage)


def test_poset_level_measure_decreasing():
    values = [poset_level_measure(universal_poset_stage(N)) for N in range(3, 11)]
    assert all(a > b for a, b in zip(values, values[1:]))


def test_poset_extension_frequency():
    N = 6
    stage = universal_poset_stage(N)
    exact = float(poset_level_measure(stage))
    trials = 4000
    hits = sum(
        1 for seed in range(trials) if poset_extension_test(sample_prefix(seed, N), stage)
    )
    se = sqrt(exact * (1 - exact) / trials)
    assert abs(hits / trials - exact) <= 4 * se


def test_poset_family_levels_bounded():
    fam = poset_test_family()
    for k in range(1, 6):
        assert fam.level(k).exact_measure <= Fraction(1, 2**k)


# -- verdicts


def test_run_ml_tests_depth_zero():
    reports = run_ml_tests(RandomOrderStream(0), [density_test_family((0, 1))], 0)
    assert len(reports) == 1
    assert reports[0].levels == ()
    assert reports[0].verdict == "passes to depth 0"


def test_canon_stream_fails_poset_family():
    # the distinguished linear extension lands in every level event
    stream = PresentationOrderSource(poset_canon_presentation())
    reports = run_ml_tests(stream, [poset_test_family()], 4)
    (report,) = reports
    assert all(r.member for r in report.levels)
    assert report.verdict == "fails level 4"


def test_presentation_source_prefixes_nest():
    source = PresentationOrderSource(poset_canon_presentation())
    assert source.prefix(12).restrict(7) == source.prefix(7)


def test_random_streams_mostly_pass_density():
    fam = density_test_family((0, 1))
    fail = 0
    for seed in range(200):
        (report,) = run_ml_tests(RandomOrderStream(seed), [fam], 3)
        if report.verdict.startswith("fails"):
            fail += 1
    # union bound: at most mu(1)+mu(2)+mu(3) = 7/16 of seeds, typically far less
    assert fail / 200 < 0.5


def test_report_locality():
    fam = density_test_family((0, 1))
    stream = RandomOrderStream(5)
    run_ml_tests(stream, [fam], 3)
    deepest = [max(support(fam.level(k).event)) + 1 for k in range(1, 4)]
    assert stream.max_prefix_requested == max(deepest)


def test_verdict_json_schema():
    (report,) = run_ml_tests(RandomOrderStream(1), [unbounded_test_family(0)], 2)
    data = report.to_json()
    assert set(data) == {"family", "levels", "verdict"}
    assert all(set(l) == {"k", "exact_mu", "member"} for l in data["levels"])


# -- levels built once, evaluated lazily

LEVEL_ORDERS = (range(1, 7), (6, 2, 5))


def _unbounded_event(n, N):
    others = [j for j in range(N + 1) if j != n]
    is_min = And(tuple(Atom(FiniteOrder((n, j))) for j in others))
    is_max = And(tuple(Atom(FiniteOrder((j, n))) for j in others))
    return Or((is_min, is_max))


@pytest.mark.parametrize("order", LEVEL_ORDERS)
@pytest.mark.parametrize("pair", [(0, 1), (1, 0), (3, 1), (2, 5)])
def test_density_levels_equal_fresh_build(pair, order):
    n, m = pair
    fam = density_test_family(pair)
    for k in order:
        N = 2 ** (k + 1) * max(2, n + 1, m + 1)
        lvl = fam.level(k)
        assert lvl.event == adjacency_event(n, m, N)
        assert lvl.window == N


@pytest.mark.parametrize("order", LEVEL_ORDERS)
@pytest.mark.parametrize("n", [0, 4])
def test_unbounded_levels_equal_fresh_build(n, order):
    fam = unbounded_test_family(n)
    for k in order:
        N = max(2 ** (k + 1) - 1, n + 1)
        lvl = fam.level(k)
        assert lvl.event == _unbounded_event(n, N)
        assert lvl.window == N + 1


@pytest.mark.parametrize("order", LEVEL_ORDERS)
def test_poset_levels_equal_fresh_family(order):
    fam = poset_test_family()
    for k in order:
        lvl, fresh = fam.level(k), poset_test_family().level(k)
        assert (lvl.k, lvl.exact_measure, lvl.window, lvl.event) == (
            fresh.k, fresh.exact_measure, fresh.window, fresh.event
        )


@pytest.mark.parametrize(
    "make", [lambda: density_test_family((0, 1)), lambda: unbounded_test_family(0),
             poset_test_family],
)
def test_level_window_covers_support(make):
    fam = make()
    for k in range(1, 9):
        lvl = fam.level(k)
        assert lvl.window >= max(support(lvl.event)) + 1


def _prefix_verdicts(source, families, depth):
    """Membership read off a sorted prefix covering each event's support."""
    out = []
    for fam in families:
        for k in range(1, depth + 1):
            lvl = fam.level(k)
            prefix = source.prefix(max(support(lvl.event)) + 1)
            out.append((fam.name, k, evaluate(lvl.event, prefix)))
    return out


def _lazy_verdicts(source, families, depth):
    return [
        (report.family, r.k, r.member)
        for report in run_ml_tests(source, families, depth)
        for r in report.levels
    ]


def test_lazy_verdicts_match_sorted_prefix():
    families = [
        density_test_family((0, 1)), unbounded_test_family(0), poset_test_family()
    ]
    for seed in range(100):
        assert _lazy_verdicts(RandomOrderStream(seed), families, 6) == (
            _prefix_verdicts(RandomOrderStream(seed), families, 6)
        )
    canon = poset_canon_presentation()
    assert _lazy_verdicts(PresentationOrderSource(canon), families, 4) == (
        _prefix_verdicts(PresentationOrderSource(canon), families, 4)
    )


def test_lazy_view_derives_only_compared_keys():
    stream = RandomOrderStream(3)
    fam = density_test_family((0, 1))
    run_ml_tests(stream, [fam], 9)
    assert stream.max_prefix_requested == fam.level(9).window == 2048
    assert len(stream._keys) < 100


def test_poset_family_counts_each_stage_once(monkeypatch, capsys):
    # each stage's extensions are counted once per family, read off the
    # builder's masks: the family builds no PosetStage
    counted = Counter()  # stage size -> extension counts in this run
    count = sampler._count_extensions

    def counting(full, pred):
        counted[full.bit_count()] += 1
        return count(full, pred)

    def no_stage(self):
        raise AssertionError("the family built a PosetStage")

    monkeypatch.setattr(sampler, "_count_extensions", counting)
    monkeypatch.setattr(PosetStage, "__post_init__", no_stage)
    for seed in (0, 1, 2):
        counted.clear()
        argv = ["test", "--seed", str(seed), "--depth", "9", "--families", "poset"]
        assert main(argv) == 0
        assert len(counted) > 5 and set(counted.values()) == {1}
    assert "poset-extension" in capsys.readouterr().out


def test_poset_family_stages_equal_the_stage_snapshots():
    builder = StageBuilder()
    for N in range(1, 17):
        stage = universal_poset_stage(N)
        measure, pairs = sampler._stage_level(builder, N)
        assert measure == poset_level_measure(stage)
        assert pairs == sorted(stage.stage.relation)
    fam = poset_test_family()
    for k in range(1, 23):
        lvl = fam.level(k)
        stage = universal_poset_stage(lvl.window)
        assert lvl.exact_measure == poset_level_measure(stage)
        assert lvl.event == And(
            tuple(Atom(FiniteOrder(p)) for p in sorted(stage.stage.relation))
        )


def test_stream_order_view_covers_its_window():
    view = RandomOrderStream(8).order(5)
    assert list(view) == list(range(5)) and 4 in view and 5 not in view
    with pytest.raises(ValueError, match=r"cover support elements \[5\]"):
        evaluate(Atom(FiniteOrder((0, 5))), view)
    with pytest.raises(ValueError, match="exceeds cap"):
        RandomOrderStream(8).order(10**6 + 1)


@pytest.mark.parametrize(
    "fam, k", [(density_test_family((0, 1)), 18), (unbounded_test_family(0), 19)]
)
def test_level_over_sample_cap_is_unavailable_before_building(fam, k):
    t0 = time.perf_counter()
    with pytest.raises(MLLevelUnavailable, match="over the sample cap"):
        fam.level(k)
    assert time.perf_counter() - t0 < 0.5


def _natural_order_source():
    return PresentationOrderSource(OrderPresentation("naturals", lambda a, b: a < b))


def test_member_at_every_level_reads_every_part():
    # in the natural order 0 and 1 are adjacent and 0 is minimal, so every
    # level is a member and deciding it reads each of its parts
    density, unbounded = density_test_family((0, 1)), unbounded_test_family(0)
    for depth in range(1, 11):
        reports = run_ml_tests(_natural_order_source(), [density, unbounded], depth)
        for report in reports:
            assert report.verdict == f"fails level {depth}"
            assert all(r.member for r in report.levels)
        N = 2 ** (depth + 1) * 2
        assert density.level(depth).event == adjacency_event(0, 1, N)
        assert unbounded.level(depth).event == _unbounded_event(0, 2 ** (depth + 1) - 1)


def test_deciding_deep_levels_builds_few_parts():
    families = [density_test_family((0, 1)), unbounded_test_family(0)]
    run_ml_tests(RandomOrderStream(0), families, 17)
    for fam in families:
        assert sum(len(parts.built) for parts, _ in fam.level(17).prefixes) < 100


# -- codec


def test_pair_code_bijection():
    seen = set()
    for j in range(1, 20):
        for i in range(j):
            c = pair_code(i, j)
            assert code_pair(c) == (i, j)
            seen.add(c)
    assert seen == set(range(190))


def test_all_zero_bits_empty_graph():
    g = graph_from_bits("0" * 45)
    assert g.n == 10 and not g.edges


def test_codec_round_trip():
    rng = random.Random(99)
    for _ in range(100):
        bits = "".join(rng.choice("01") for _ in range(45))
        assert bits_from_graph(graph_from_bits(bits)) == bits


def test_codec_round_trip_20_vertices():
    bits = sample_bits(17, 190)
    g = graph_from_bits(bits)
    assert g.n == 20
    assert bits_from_graph(g) == bits


def test_codec_matches_the_pair_code_reference():
    # bit c is the edge code_pair(c), at every length up to 37 vertices,
    # triangular or not
    rng = random.Random(5)
    for length in range(37 * 36 // 2 + 1):
        bits = "".join(rng.choice("01") for _ in range(length))
        g = graph_from_bits(bits)
        n = next(v for v in count() if v * (v - 1) // 2 >= length)
        edges = {code_pair(c) for c, b in enumerate(bits) if b == "1"}
        assert (g.n, g.edges) == (n, edges)
        full = bits.ljust(n * (n - 1) // 2, "0")
        assert bits_from_graph(g) == full


def test_codec_round_trip_800_vertices():
    # a code_pair call per bit made this take seconds
    bits = sample_bits(3, 800 * 799 // 2)
    g = graph_from_bits(bits)
    assert g.n == 800 and len(g.edges) == bits.count("1")
    assert bits_from_graph(g) == bits


def test_graph_extension_property_monte_carlo():
    # each demand (A, B) over {0..4} is witnessed inside a 20-vertex fair-coin
    # graph with the exact per-draw probability 1 - (1 - 2^-t)^pool
    demands = []
    for size in (1, 2, 3):
        for chosen in combinations(range(5), size):
            for a_mask in range(2**size):
                A = {e for i, e in enumerate(chosen) if a_mask >> i & 1}
                demands.append((A, set(chosen) - A))
    trials = 1000
    graphs = [graph_from_bits(sample_bits(seed, 190)) for seed in range(trials)]
    for A, B in demands[:20]:
        pool = 20 - len(A | B)
        p = 1 - (1 - 2.0 ** -(len(A) + len(B))) ** pool
        hits = sum(
            1 for g in graphs if graph_extension_witness(g, A, B) is not None
        )
        se = sqrt(p * (1 - p) / trials)
        assert abs(hits / trials - p) <= 4 * se + 1e-9


def test_sample_bits_deterministic():
    assert sample_bits(3, 100) == sample_bits(3, 100)
    assert sample_bits(3, 100) != sample_bits(4, 100)
    assert len(sample_bits(0, 7)) == 7

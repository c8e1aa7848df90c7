"""The acceptance suite: one test per criterion, each printing a verdict line.

Every claim asserts its stated tolerance; randomness claims are per-level
statements about exactly computed event measures, never about any single
prefix being "random".
"""

import random
import time
from fractions import Fraction
from itertools import combinations
from math import factorial, sqrt

from uminflow import (
    FiniteOrder,
    PartialPermutation,
    RandomOrderStream,
    adjacency_event,
    back_and_forth,
    bits_from_graph,
    compute_randomizer,
    conjugation_check,
    density_test_family,
    evaluate,
    graph_from_bits,
    mu_adjacency,
    mu_cylinder,
    mu_exact,
    mu_weight_recursive,
    poset_extension_test,
    poset_level_measure,
    rado_adjacent,
    rado_extension_witness,
    rational_presentation,
    rational_presentation_variant,
    relabel_event,
    sample_prefix,
    support,
    universal_poset_stage,
    verify_certificate,
)
from helpers import random_bijection, random_event

RESULT_LINES = []


def _finish(number, label, t0, limit):
    elapsed = time.perf_counter() - t0
    RESULT_LINES.append(f"PASS  criterion {number:2d}  {label}  ({elapsed:.2f}s)")
    print(RESULT_LINES[-1])
    assert elapsed < limit, f"criterion {number} took {elapsed:.2f}s, limit {limit}s"


def test_criterion_01_cylinder_measures():
    t0 = time.perf_counter()
    for k in range(9):
        assert mu_cylinder(FiniteOrder(tuple(range(k)))) == Fraction(1, factorial(k))
    _finish(1, "cylinder measure 1/k! for k <= 8", t0, 1)


def test_criterion_02_weight_recursion_oracle_agreement():
    t0 = time.perf_counter()
    rng = random.Random(2024)
    bound = Fraction(1, 2**20)
    for _ in range(200):
        e = random_event(rng, elements=(0, 1, 2, 3, 4, 5))
        assert len(support(e)) <= 6
        exact = mu_exact(e)
        beta = mu_weight_recursive(e, 20)
        assert abs(beta.as_fraction() - exact) < bound
    _finish(2, "weight recursion within 2^-20 of oracle on 200 events", t0, 30)


def test_criterion_03_adjacency_family():
    t0 = time.perf_counter()
    for N in range(2, 11):
        for n in range(N):
            for m in range(N):
                if n != m:
                    assert mu_adjacency(n, m, N) == Fraction(2, N)
    for N in range(2, 8):
        for n in range(N):
            for m in range(n + 1, N):
                assert mu_exact(adjacency_event(n, m, N)) == Fraction(2, N)
    _finish(3, "adjacency measure 2/N, cross-checked by enumeration", t0, 10)


def test_criterion_04_invariance():
    t0 = time.perf_counter()
    rng = random.Random(44)
    for _ in range(100):
        e = random_event(rng, elements=(0, 1, 2, 3, 4, 5))
        sigma = PartialPermutation.from_mapping(random_bijection(rng, 6))
        assert mu_exact(relabel_event(sigma, e)) == mu_exact(e)
    _finish(4, "measure invariant under 100 random relabelings", t0, 10)


def test_criterion_05_sampler_exchangeability():
    t0 = time.perf_counter()
    trials = 100_000
    counts = {}
    for seed in range(trials):
        seq = tuple(sample_prefix(seed, 4).to_sequence())
        counts[seq] = counts.get(seq, 0) + 1
    assert len(counts) == 24
    p = 1 / 24
    tol = 4 * sqrt(p * (1 - p) / trials)
    for seq, c in counts.items():
        assert abs(c / trials - p) <= tol, (seq, c / trials)
    _finish(5, "all 24 orders uniform at N=4 over 1e5 seeds (4 s.e.)", t0, 60)


def test_criterion_06_rado_extension_property():
    t0 = time.perf_counter()
    for size in range(7):
        for chosen in combinations(range(6), size):
            for mask in range(2**size):
                A = {e for i, e in enumerate(chosen) if mask >> i & 1}
                B = set(chosen) - A
                z = rado_extension_witness(A, B)
                assert z not in A | B
                assert all(rado_adjacent(z, a) for a in A)
                assert not any(rado_adjacent(z, b) for b in B)
    _finish(6, "graph extension witness for all disjoint A,B in {0..5}", t0, 1)


def test_criterion_07_poset_extension_decay():
    t0 = time.perf_counter()
    stages = {N: universal_poset_stage(N) for N in range(3, 11)}
    measures = {N: poset_level_measure(stages[N]) for N in range(3, 11)}
    values = [measures[N] for N in range(3, 11)]
    assert all(a > b for a, b in zip(values, values[1:]))
    trials = 10_000
    for N in range(3, 11):
        hits = sum(
            1
            for seed in range(trials)
            if poset_extension_test(sample_prefix(seed, N), stages[N])
        )
        p = float(measures[N])
        se = sqrt(p * (1 - p) / trials)
        assert abs(hits / trials - p) <= 4 * se, (N, hits / trials, p)
    _finish(7, "extension measure strictly decaying, matches Monte Carlo", t0, 60)


def test_criterion_08_back_and_forth():
    t0 = time.perf_counter()
    v1, v2 = rational_presentation(), rational_presentation_variant()
    identity = back_and_forth(v1, v1, 200)
    assert identity.pairs == tuple((i, i) for i in range(200))
    iso = back_and_forth(v1, v2, 200)
    dom = sorted(iso.domain())
    assert set(range(200)) <= iso.domain() and set(range(200)) <= iso.range()
    for a in dom:
        for b in dom:
            if a != b:
                assert v1.less(a, b) == v2.less(iso(a), iso(b))
    _finish(8, "order isomorphism verified on domain covering {0..199}", t0, 5)


def test_criterion_09_randomizer_certificates():
    t0 = time.perf_counter()
    tau = rational_presentation()
    rng = random.Random(9)
    sigmas = []
    for seed in range(20):
        cert = compute_randomizer(tau, RandomOrderStream(seed), 100)
        assert cert.sigma.domain() >= set(range(100))
        assert verify_certificate(cert, tau, RandomOrderStream(seed))
        sigmas.append((seed, cert.sigma))
    instances = 0
    for seed, sigma in sigmas:
        small = PartialPermutation(tuple((a, sigma(a)) for a in range(50)))
        xi = RandomOrderStream(seed).prefix(max(small.range()) + 1)
        for _ in range(5):
            images = list(range(10))
            rng.shuffle(images)
            mapping = dict(enumerate(images))
            mapping.update({a: a for a in small.domain() if a >= 10})
            pi = PartialPermutation.from_mapping(mapping)
            assert conjugation_check(small, pi, tau, xi)
            instances += 1
    assert instances == 100
    _finish(9, "20 certificates at depth 100; 100 conjugation instances", t0, 30)


def test_criterion_10_density_test_soundness():
    t0 = time.perf_counter()
    fam = density_test_family((0, 1))
    trials = 1000
    for k in range(1, 6):
        lvl = fam.level(k)
        assert lvl.exact_measure <= Fraction(1, 2**k)
        assert lvl.exact_measure == mu_adjacency(0, 1, 2 ** (k + 1) * 2)
        n = max(support(lvl.event)) + 1
        fails = sum(
            1
            for seed in range(trials)
            if evaluate(lvl.event, sample_prefix(seed, n))
        )
        p = float(lvl.exact_measure)
        se = sqrt(p * (1 - p) / trials)
        assert abs(fails / trials - p) <= 4 * se, (k, fails / trials, p)
    _finish(10, "level measures <= 2^-k; failure rates match (4 s.e.)", t0, 60)


def test_criterion_11_codec_round_trip():
    t0 = time.perf_counter()
    rng = random.Random(11)
    for _ in range(100):
        bits = "".join(rng.choice("01") for _ in range(45))
        assert bits_from_graph(graph_from_bits(bits)) == bits
    _finish(11, "bits <-> graph round trip on 100 random 45-bit strings", t0, 1)

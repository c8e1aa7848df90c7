"""The indexed candidate scan and the taken-point invariant of the engine.

``reference_scan`` is the linear scan the back-and-forth engine used before
it kept an index: it restarts at index 0 on every call and skips the points
already taken.  The index must return the same candidate on every query of
a sequence, and a least-index query must not reveal a key past its answer.
"""

import random
from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

import uminflow.fraisse as fraisse
import uminflow.randomizer as randomizer
from uminflow import (
    RandomOrderStream,
    back_and_forth,
    compute_randomizer,
    poset_canon_presentation,
    rational_presentation,
    rational_presentation_variant,
)
from uminflow.fraisse import _SCAN_CHUNKS, _each, _scanner


def reference_scan(key, taken, lo, hi, budget: int, target=None, enough: int = 1) -> int | None:
    """An index c < budget, not taken, with lo < key(c) < hi (None: no bound).

    Without a target, the least such index.  With one, indices are scanned
    in growing chunks, and the first chunk to end with at least ``enough``
    candidates seen (or the budget reached) gives the candidate whose key is
    nearest the target.  None when the budget holds no candidate.
    """
    best = best_dist = None
    seen = start = 0
    for end in (*_SCAN_CHUNKS, budget):
        for c in range(start, min(end, budget)):
            if c in taken:
                continue
            k = key(c)
            if (lo is not None and not lo < k) or (hi is not None and not k < hi):
                continue
            if target is None:
                return c
            seen += 1
            d = abs(k - target)
            if best_dist is None or d < best_dist:
                best, best_dist = c, d
        if best is not None and (seen >= enough or end >= budget):
            return best
        start = end
    return None


# budgets below, at and above each chunk end
BUDGETS = [0, 1, 7, 200, 1023, 1024, 1025, 3000, 4095, 4096, 4097, 16384, 16385]


@st.composite
def scan_cases(draw):
    budget = draw(st.sampled_from(BUDGETS))
    spread = draw(st.sampled_from([3, 50, 10**4, 10**6]))  # small: repeated keys
    rng = random.Random(draw(st.integers(0, 2**32)))
    if draw(st.booleans()):
        keys = [rng.randrange(spread) for _ in range(budget)]
    else:
        keys = [
            Fraction(rng.randrange(spread), rng.randrange(1, 4)) for _ in range(budget)
        ]
    point = st.integers(-spread // 4, spread + spread // 4)
    queries = []
    for _ in range(draw(st.integers(1, 4))):
        lo = draw(st.none() | point)
        width = draw(st.sampled_from([0, 1, 2, 10, 1000, spread]))
        hi = draw(st.none() | st.just(None if lo is None else lo + width) | point)
        target = draw(st.none() | point)  # inside or outside (lo, hi)
        queries.append((lo, hi, target, draw(st.sampled_from([1, 3]))))
    return budget, keys, queries


@settings(max_examples=150, deadline=None)
@given(scan_cases())
def test_index_matches_reference_scan(case):
    budget, keys, queries = case
    calls = []

    def key(c):
        calls.append(c)
        return keys[c]

    scan = _scanner(_each(key), budget)
    for lo, hi, target, enough in queries:
        # taken points: mapped ones never lie inside (lo, hi)
        taken = {
            c for c in range(0, budget, 7)
            if not ((lo is None or lo < keys[c]) and (hi is None or keys[c] < hi))
        }
        expected = reference_scan(
            keys.__getitem__, taken, lo, hi, budget, target, enough
        )
        calls.clear()
        assert scan(lo, hi, target, enough) == expected
        if target is None:
            last = budget - 1 if expected is None else expected
            assert all(c <= last for c in calls)


def test_nearest_counts_candidates_across_chunks():
    # two candidates in the first chunk and one in the second make three:
    # the scan stops at the second chunk's end, before the nearer key at 5000
    keys = {10: 100, 20: 100, 2000: 100, 5000: 50}

    def key(c):
        return keys.get(c, 0)

    assert reference_scan(key, (), 1, 1000, 1 << 16, target=50, enough=3) == 10
    assert _scanner(_each(key), 1 << 16)(1, 1000, target=50, enough=3) == 10
    assert _scanner(_each(key), 1 << 16)(1, 1000, target=50, enough=4) == 5000


def test_least_index_reveals_nothing_past_its_answer():
    revealed = []

    def key(c):
        revealed.append(c)
        return c % 10

    scan = _scanner(_each(key), 1 << 16)
    assert scan(4, 6) == 5 and max(revealed) == 5
    assert scan(None, 1) == 0 and max(revealed) == 5  # answered from the index
    assert scan(8, None) == 9 and max(revealed) == 9
    assert scan(6, 8, target=7, enough=3) == 7 and max(revealed) == 1023
    assert scan(10, None) is None and max(revealed) == (1 << 16) - 1


def recording(key, calls):
    """A range deriver over ``key`` that records each range asked of it."""

    def keys(start, stop):
        calls.append((start, stop))
        return [key(c) for c in range(start, stop)]

    return keys


@settings(max_examples=150, deadline=None)
@given(scan_cases())
def test_chunked_deriver_asks_for_each_index_once(case):
    """The cases above through a deriver of ranges: a target scan asks only
    for [revealed, chunk end), a least-index scan for one index at a time and
    none past its answer, and no index is asked for twice."""
    budget, keys, queries = case
    ends = {min(e, budget) for e in _SCAN_CHUNKS} | {budget}
    calls = []
    scan = _scanner(recording(keys.__getitem__, calls), budget)
    revealed = 0
    for lo, hi, target, enough in queries:
        taken = {
            c for c in range(0, budget, 7)
            if not ((lo is None or lo < keys[c]) and (hi is None or keys[c] < hi))
        }
        expected = reference_scan(
            keys.__getitem__, taken, lo, hi, budget, target, enough
        )
        calls.clear()
        assert scan(lo, hi, target, enough) == expected
        for start, stop in calls:
            assert start == revealed
            assert stop == start + 1 if target is None else stop in ends
            revealed = stop
        if target is None:
            last = budget - 1 if expected is None else expected
            assert all(stop <= last + 1 for _, stop in calls)


def test_chunked_nearest_counts_candidates_across_chunks():
    keys = {10: 100, 20: 100, 2000: 100, 5000: 50}
    calls = []
    scan = _scanner(recording(lambda c: keys.get(c, 0), calls), 1 << 16)
    assert scan(1, 1000, target=50, enough=3) == 10
    assert calls == [(0, 1024), (1024, 4096)]
    calls.clear()
    scan = _scanner(recording(lambda c: keys.get(c, 0), calls), 1 << 16)
    assert scan(1, 1000, target=50, enough=4) == 5000
    assert calls == [(0, 1024), (1024, 4096), (4096, 16384)]


def test_chunked_least_index_reveals_nothing_past_its_answer():
    calls = []
    scan = _scanner(recording(lambda c: c % 10, calls), 1 << 16)
    assert scan(4, 6) == 5 and calls == [(c, c + 1) for c in range(6)]
    assert scan(None, 1) == 0 and len(calls) == 6  # answered from the index
    assert scan(8, None) == 9 and calls[6:] == [(c, c + 1) for c in range(6, 10)]
    calls.clear()
    assert scan(6, 8, target=7, enough=3) == 7 and calls == [(10, 1024)]
    calls.clear()
    assert scan(6, 8, target=7, enough=10**6) == 7
    assert calls == [(1024, 4096), (4096, 16384), (16384, 1 << 16)]
    calls.clear()
    assert scan(10, None) is None and calls == []  # every index revealed once


def test_engine_never_finds_a_taken_point_inside_the_interval(monkeypatch):
    """The map is an order isomorphism at every step, so no point already
    mapped on the other side lies strictly between the neighbours' partners:
    the reason the pickers need no record of the taken points."""
    engine = fraisse._alternate

    def checked(n, key_a, key_b, pick_forth, pick_back, budget):
        mapped = ([], [])  # keys of the mapped points on each side

        def watch(pick, s, key_y):
            def pick_checked(kx, lo, hi):
                (_, lo_y), (_, hi_y) = lo, hi
                assert not any(
                    (lo_y is None or lo_y < k) and (hi_y is None or k < hi_y)
                    for k in mapped[1 - s]
                )
                y = pick(kx, lo, hi)
                if y is not None:
                    mapped[s].append(kx)
                    mapped[1 - s].append(key_y(y))
                return y

            return pick_checked

        forth, back = watch(pick_forth, 0, key_b), watch(pick_back, 1, key_a)
        return engine(n, key_a, key_b, forth, back, budget)

    v1, v2 = rational_presentation(), rational_presentation_variant()
    runs = [
        lambda: back_and_forth(v1, v2, 60),
        lambda: back_and_forth(v1, poset_canon_presentation(), 5),
        lambda: compute_randomizer(v1, RandomOrderStream(3), 60),
        lambda: compute_randomizer(v2, RandomOrderStream(1), 40),
        lambda: compute_randomizer(
            RandomOrderStream(2).presentation(), RandomOrderStream(2), 20
        ),
    ]
    expected = [run() for run in runs]
    monkeypatch.setattr(fraisse, "_alternate", checked)
    monkeypatch.setattr(randomizer, "_alternate", checked)
    assert [run() for run in runs] == expected

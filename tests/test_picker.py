"""The integer rational picker and the float-first sort key of iso.

``ref_simplest_positive``, ``ref_simplest_between`` and ``ref_rational_near``
are the ``Fraction`` versions the int-pair picker replaced, copied verbatim.
The new code must return equal ``Fraction``s (and the same rational codes)
on small values, values with 40-digit continued-fraction terms, open ends on
either side, intervals below, around and above 0, and targets inside and
outside the interval.
"""

from fractions import Fraction
from math import inf

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from uminflow import OrderPresentation, rational_presentation
from uminflow.fraisse import (
    _simplest_positive,
    _sort_key,
    rational_code,
    rational_near,
    simplest_between,
)


def ref_simplest_positive(lo: Fraction, hi: Fraction | None) -> Fraction:
    """Smallest-complexity rational strictly inside (lo, hi), 0 <= lo."""
    n = lo.numerator // lo.denominator + 1
    if hi is None or n < hi:
        return Fraction(n)
    whole = lo.numerator // lo.denominator
    frac_lo = lo - whole
    inner_lo = 1 / (hi - whole)
    inner_hi = None if frac_lo == 0 else 1 / frac_lo
    return whole + 1 / ref_simplest_positive(inner_lo, inner_hi)


def ref_simplest_between(lo: Fraction | None, hi: Fraction | None) -> Fraction:
    """A low-complexity rational strictly inside the open interval."""
    if lo is not None and hi is not None and not lo < hi:
        raise ValueError(f"empty interval ({lo}, {hi})")
    if (lo is None or lo < 0) and (hi is None or hi > 0):
        return Fraction(0)
    if hi is not None and hi <= 0:
        mirrored = ref_simplest_positive(-hi, None if lo is None else -lo)
        return -mirrored
    return ref_simplest_positive(lo if lo is not None else Fraction(0), hi)


def ref_rational_near(
    lo: Fraction | None, hi: Fraction | None, target: Fraction
) -> Fraction:
    """A modest-complexity rational strictly inside the interval, close to
    the target (within a sixteenth of the interval when it is bounded)."""
    if lo is None:
        lo = min(target, hi) - 1 if hi is not None else target - 1
    if hi is None:
        hi = max(target, lo) + 1
    tolerance = (hi - lo) / 16
    cur_lo, cur_hi = lo, hi
    best = ref_simplest_between(cur_lo, cur_hi)
    for _ in range(64):
        if abs(best - target) <= tolerance:
            break
        if best < target:
            cur_lo = best
        else:
            cur_hi = best
        best = ref_simplest_between(cur_lo, cur_hi)
    return best


def _continued_fraction(terms: list[int]) -> Fraction:
    value = Fraction(terms[-1])
    for t in reversed(terms[:-1]):
        value = t + 1 / value
    return value


small = st.builds(Fraction, st.integers(-60, 60), st.integers(1, 12))
term = st.integers(1, 9) | st.integers(10**39, 10**40 - 1)  # 40-digit terms
deep = st.builds(
    lambda sign, whole, rest: sign * _continued_fraction([whole] + rest),
    st.sampled_from([1, -1]),
    st.integers(0, 5) | st.integers(10**39, 10**40 - 1),
    st.lists(term, min_size=1, max_size=6),
)
value = small | deep


@st.composite
def intervals(draw):
    """(lo, hi, target) with lo < hi where both are given."""
    lo, hi = sorted([draw(value), draw(value)])
    assume(lo < hi)
    shift = draw(st.sampled_from(["as drawn", "below 0", "around 0", "above 0"]))
    if shift == "below 0":
        lo, hi = lo - hi - 1, Fraction(-1)
    elif shift == "above 0":
        lo, hi = Fraction(1), hi - lo + 1
    elif shift == "around 0":
        lo, hi = -abs(lo) - 1, abs(hi) + 1
    where = draw(st.sampled_from(["inside", "anywhere", "below", "above"]))
    if where == "inside":
        target = lo + (hi - lo) * draw(st.fractions(0, 1, max_denominator=50))
    elif where == "below":
        target = lo - abs(draw(value))
    elif where == "above":
        target = hi + abs(draw(value))
    else:
        target = draw(value)
    open_end = draw(st.sampled_from(["none", "lo", "hi", "both"]))
    if open_end in ("lo", "both"):
        lo = None
    if open_end in ("hi", "both"):
        hi = None
    return lo, hi, target


@settings(max_examples=400, deadline=None)
@given(intervals())
def test_rational_near_matches_fraction_reference(case):
    lo, hi, target = case
    expected = ref_rational_near(lo, hi, target)
    got = rational_near(lo, hi, target)
    assert type(got) is Fraction and got == expected
    assert simplest_between(lo, hi) == ref_simplest_between(lo, hi)
    if abs(expected.numerator) + expected.denominator < 10**4:  # codes scan p + q
        locate = rational_presentation().locate_fn
        assert locate(lo, hi, target) == rational_code(expected)


@settings(max_examples=200, deadline=None)
@given(value, value, st.booleans())
def test_simplest_positive_matches_fraction_reference(x, y, open_above):
    lo, hi = sorted([abs(x), abs(y)])
    assume(lo < hi)
    hi = None if open_above else hi
    c, d = (1, 0) if hi is None else (hi.numerator, hi.denominator)
    p, q = _simplest_positive(lo.numerator, lo.denominator, c, d)
    assert Fraction(p, q) == ref_simplest_positive(lo, hi)


@pytest.mark.parametrize(
    "lo, hi", [(Fraction(1), Fraction(1)), (Fraction(3, 2), Fraction(-7, 5))]
)
def test_empty_interval_refused_alike(lo, hi):
    with pytest.raises(ValueError) as expected:
        ref_rational_near(lo, hi, Fraction(0))
    with pytest.raises(ValueError) as got:
        rational_near(lo, hi, Fraction(0))
    assert str(got.value) == str(expected.value) == f"empty interval ({lo}, {hi})"
    with pytest.raises(ValueError, match="^empty interval"):
        simplest_between(lo, hi)


def test_float_first_key_orders_as_values():
    big = Fraction(10**17)
    values = [
        big + 1, big, Fraction(10**400), -Fraction(10**400), Fraction(0),
        Fraction(10**400 + 1), -Fraction(10**400 + 1), Fraction(1, 10**400),
        Fraction(-1, 3), Fraction(2**-1074) / 3, big - 1,
    ]
    assert float(big) == float(big + 1)  # a float tie the exact value breaks
    pres = OrderPresentation(
        "values", lambda a, b: values[a] < values[b], values.__getitem__
    )
    key = _sort_key(pres)
    assert key(2) == (inf, values[2]) and key(3) == (-inf, values[3])
    for a in range(len(values)):
        for b in range(len(values)):
            assert (key(a) < key(b)) == (values[a] < values[b])
    by_value = sorted(range(len(values)), key=values.__getitem__)
    assert sorted(range(len(values)), key=key) == by_value
    no_values = OrderPresentation("no values", pres.less_fn)
    assert sorted(range(len(values)), key=_sort_key(no_values)) == by_value

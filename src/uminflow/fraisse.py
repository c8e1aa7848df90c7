"""Recursive presentations of three universal countable structures.

A presentation is a decidable relation on N: the dense linear order without
endpoints (compare by a fixed enumeration of the rationals), the random graph
(a binary-digit adjacency predicate), and a universal poset built in stages by
a deterministic demand-filling construction together with a distinguished
linear extension of it.  Each rational presentation decodes and encodes its
codes through a table of its own, so no state is shared between calls.

One back-and-forth engine (``_alternate``) builds both the isomorphisms
between order presentations (``back_and_forth``) and the randomizer
certificates of the randomizer module.  It owns the alternation, the
nearest-neighbour lookup by sort key, the coverage stop and the budget
error; each caller supplies only a picker per side that chooses the image
inside the neighbours' interval.  Each side's mapped keys are kept sorted,
so one bisect finds both neighbours; the map is an order isomorphism at
every step, so no taken point lies inside the interval, and the pickers
keep no record of them.  ``back_and_forth`` picks the least compatible
index by a presentation's ``least_fn`` (for a rational one, the code of the
simplest rational in the interval), or else from ``_scanner``, whose chunks
keep their indices sorted by key.  The rational pickers work on int pairs.

Every consumer orders a presentation's points by one sort key, their
values float first (``_sort_key``).  ``_values`` gives those values: the
presentation's ``value_fn``, or else rationals read off its comparisons.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right, insort
from dataclasses import dataclass
from fractions import Fraction
from itertools import chain, combinations, count, product
from math import gcd, inf
from operator import itemgetter
from typing import Callable, Iterable, Iterator

from .measure import CapExceededError, FinitePoset
from .orders import OrderPrefix, PartialPermutation

DEFAULT_POSET_CAP = 64
DEFAULT_SEARCH_BUDGET = 1 << 16
RATIONAL_CODE_CAP = 1 << 14  # the largest p + q that rational_code encodes
# the largest code with p + q within the cap: -(2^14 - 1), twice the number
# of reduced p/q with p + q <= 2^14
_LARGEST_CAPPED_CODE = 163_198_674


class SearchBudgetError(RuntimeError):
    """A witness search was abandoned; the presentation is not homogeneous
    at the explored scale, or the budget is too small for it.  ``blocking``
    is the point whose partner was not found, ``budget`` the number of
    candidate indices searched, and ``interval`` the (lo, hi) bounds that
    held no candidate, None at an open end: the other side's values (stream
    keys on a certificate's forth step), for every presentation."""

    def __init__(self, message: str, blocking: int, budget: int, interval: tuple):
        super().__init__(message)
        self.blocking = blocking
        self.budget = budget
        self.interval = interval


@dataclass(frozen=True, eq=False)
class OrderPresentation:
    """A total, decidable, irreflexive comparison predicate on N.

    ``value_fn`` (optional) realizes the order by rational values; without
    it, consumers read values off the comparisons (``_values``).
    ``locate_fn`` (optional) finds an element strictly inside an open value
    interval (either end may be None for unbounded), near a target value;
    ``least_fn`` (optional, with ``value_fn``) gives the least element inside
    one, or inf when it lies past any search budget.  All three are
    capabilities used to steer witness searches; the comparison predicate
    alone determines the structure.
    """

    name: str
    less_fn: Callable[[int, int], bool]
    value_fn: Callable[[int], Fraction] | None = None
    locate_fn: Callable[[Fraction | None, Fraction | None, Fraction], int] | None = None
    least_fn: Callable[[Fraction | None, Fraction | None], int | float] | None = None

    def less(self, a: int, b: int) -> bool:
        return self.less_fn(a, b)


# ---------------------------------------------------------------------------
# The rational order


class _CodeTable:
    """The fixed bijection N <-> Q, decoded and encoded on demand: code 0 is
    0, then each reduced p/q by increasing p + q and then p, followed by its
    negative.  ``cum[s]`` counts the reduced p/q with p + q < s, from a
    totient sieve grown by doubling; ``rows[s]`` lists the p < s coprime to
    s, and ``values`` the codes decoded so far.  Single-owner mutable: each
    rational presentation keeps its own."""

    def __init__(self):
        self.cum = [0, 0, 0]
        self.rows: dict[int, list[int]] = {}
        self.values = {0: Fraction(0)}

    def _grow(self, s: int):  # extend cum past index s
        top = max(2 * len(self.cum), s + 1)
        phi = list(range(top))
        for d in range(2, top):
            if phi[d] == d:  # d prime
                for mult in range(d, top, d):
                    phi[mult] -= phi[mult] // d
        self.cum = cum = [0, 0, 0]
        for d in range(2, top):
            cum.append(cum[-1] + phi[d])

    def _row(self, s: int) -> list[int]:
        row = self.rows.get(s)
        if row is None:
            row = self.rows[s] = [p for p in range(1, s) if gcd(p, s) == 1]
        return row

    def value(self, n: int) -> Fraction:
        """The rational of code n >= 0; a code past the last whose p + q is
        at most RATIONAL_CODE_CAP is refused before the sieve grows, with the
        limit and the request counted in codes."""
        v = self.values.get(n)
        if v is None:
            if n < 0:
                raise ValueError(f"rational code {n} is negative")
            if n > _LARGEST_CAPPED_CODE:
                message = (
                    f"code {n} exceeds {_LARGEST_CAPPED_CODE}, the last with"
                    f" p + q <= rational code cap {RATIONAL_CODE_CAP}"
                )
                raise CapExceededError(message, "rational", _LARGEST_CAPPED_CODE, n)
            i = (n - 1) >> 1  # codes 2i + 1 and 2i + 2: the i-th p/q and -p/q
            while self.cum[-1] <= i:
                self._grow(len(self.cum))
            s = bisect_right(self.cum, i) - 1
            p = self._row(s)[i - self.cum[s]]
            v = self.values[n] = Fraction(p if n & 1 else -p, s - p)
        return v

    def code(self, value: Fraction) -> int:
        """The code of a rational whose p + q is at most RATIONAL_CODE_CAP;
        a larger one is refused before the sieve runs."""
        if value == 0:
            return 0
        p, q = abs(value.numerator), value.denominator
        s = p + q
        if s > RATIONAL_CODE_CAP:
            message = f"p + q = {s} exceeds rational code cap {RATIONAL_CODE_CAP}"
            raise CapExceededError(message, "rational", RATIONAL_CODE_CAP, s)
        if s >= len(self.cum):
            self._grow(s)
        index = self.cum[s] + bisect_left(self._row(s), p)
        return 2 * index + 1 if value > 0 else 2 * index + 2


def rational_value(n: int) -> Fraction:
    """The fixed bijection N -> Q: 0, then each positive rational and its
    negative, by increasing p + q and then p."""
    return _CodeTable().value(n)


def rational_code(value: Fraction) -> int:
    """Inverse of rational_value: the code enumerating the given rational.

    The code counts the reduced fractions whose p + q is smaller, by a sieve
    up to p + q, so a value with p + q over RATIONAL_CODE_CAP is refused
    before the sieve runs."""
    return _CodeTable().code(value)


def rational_order_less(a: int, b: int) -> bool:
    """Dense order without endpoints on N, compared through rational_value."""
    return rational_value(a) < rational_value(b)


def _simplest_positive(a: int, b: int, c: int, d: int) -> tuple[int, int]:
    """Smallest-complexity rational strictly inside (a/b, c/d), 0 <= a/b,
    as (numerator, denominator) in lowest terms; d = 0 leaves it open above."""
    w = a // b
    if (w + 1) * d < c:
        return w + 1, 1
    # w + 1/x with x inside (1/(c/d - w), 1/(a/b - w)): each pair stays in
    # lowest terms, as gcd(d, c - w*d) = gcd(d, c)
    p, q = _simplest_positive(d, c - w * d, b, a - w * b)
    return w * p + q, p


def _simplest_pair(a: int, b: int, c: int, d: int) -> tuple[int, int]:
    """simplest_between on (a/b, c/d) as int pairs; -1/0 and 1/0 are open ends."""
    if a < 0 < c:
        return 0, 1
    if c <= 0:
        p, q = _simplest_positive(-c, d, -a, b)
        return -p, q
    return _simplest_positive(a, b, c, d)


def _ends(lo: Fraction | None, hi: Fraction | None) -> tuple[int, int, int, int]:
    if lo is not None and hi is not None and not lo < hi:
        raise ValueError(f"empty interval ({lo}, {hi})")
    a, b = (-1, 0) if lo is None else (lo.numerator, lo.denominator)
    c, d = (1, 0) if hi is None else (hi.numerator, hi.denominator)
    return a, b, c, d


def simplest_between(lo: Fraction | None, hi: Fraction | None) -> Fraction:
    """A low-complexity rational strictly inside the open interval."""
    return Fraction(*_simplest_pair(*_ends(lo, hi)))


def rational_near(
    lo: Fraction | None, hi: Fraction | None, target: Fraction
) -> Fraction:
    """A modest-complexity rational strictly inside the interval, close to
    the target (within a sixteenth of the interval when it is bounded).
    Cuts the interval at its simplest rational, on the target's side, until
    that rational is within tolerance of it, all on int pairs; the tolerance
    test is cross-multiplied against the original bounds."""
    if lo is None:
        lo = min(target, hi) - 1 if hi is not None else target - 1
    if hi is None:
        hi = max(target, lo) + 1
    a, b, c, d = x, y, z, w = _ends(lo, hi)
    t, u = target.numerator, target.denominator
    width, scale = c * b - a * d, 16 * b * d  # |p/q - t/u| <= width/scale
    p, q = _simplest_pair(a, b, c, d)
    for _ in range(64):
        off = p * u - t * q
        if scale * abs(off) <= width * q * u:
            break
        if off < 0:
            x, y = p, q
        else:
            z, w = p, q
        p, q = _simplest_pair(x, y, z, w)
    return Fraction(p, q)


def _rational(name: str, flip: int) -> OrderPresentation:
    """A rational presentation over a code table of its own: element a has
    the value of code a ^ flip."""
    table = _CodeTable()

    def value(a: int) -> Fraction:
        return table.value(a ^ flip)

    def least(lo, hi) -> int | float:
        # the simplest rational inside has the least p and q there: the least code
        p, q = _simplest_pair(*_ends(lo, hi))
        if abs(p) + q > RATIONAL_CODE_CAP:
            return inf  # its code exceeds 1.6e8, past any search budget
        m = table.code(Fraction(p, q)) ^ flip
        if m & flip:  # the even m - 1 reads code m, which may lie inside too
            v = value(m - 1)
            if (lo is None or lo < v) and (hi is None or v < hi):
                return m - 1
        return m

    def locate(lo, hi, target) -> int:
        return table.code(rational_near(lo, hi, target)) ^ flip

    return OrderPresentation(
        name, lambda a, b: value(a) < value(b), value, locate, least
    )


def rational_presentation() -> OrderPresentation:
    return _rational("rational-v1", 0)


def rational_presentation_variant() -> OrderPresentation:
    """A second recursive dense order: the same values read through a
    re-enumeration that swaps each even code with its odd successor."""
    return _rational("rational-v2", 1)


# ---------------------------------------------------------------------------
# The random graph


def rado_adjacent(i: int, j: int) -> bool:
    """Binary-digit adjacency: for i < j, test bit i of j; symmetrized."""
    if i == j:
        raise ValueError("adjacency is irreflexive")
    lo, hi = (i, j) if i < j else (j, i)
    return (hi >> lo) & 1 == 1


def rado_extension_witness(A: Iterable[int], B: Iterable[int]) -> int:
    """A point adjacent to everything in A and nothing in B.

    The bit pattern of sum(2^a for a in A) realizes the demand whenever the
    candidate is fresh and dominates B; otherwise shifting it above
    max(A u B) always does.
    """
    A, B = set(A), set(B)
    if A & B:
        raise ValueError(f"demand sets intersect: {sorted(A & B)}")
    z = sum(1 << a for a in A)
    if A and _valid_witness(z, A, B):
        return z
    return z + (1 << (max(A | B, default=-1) + 1))


def _valid_witness(z: int, A: set[int], B: set[int]) -> bool:
    if z in A | B:
        return False
    return all(rado_adjacent(z, a) for a in A) and not any(
        rado_adjacent(z, b) for b in B
    )


# ---------------------------------------------------------------------------
# The universal poset with its distinguished linear extension
#
# Points are added one at a time.  A fixed dovetailed stream of demands is
# read in order, and each new point realizes the first demand that is
# consistent with the current stage and not yet witnessed.  A demand is
# decided once, when every element it names exists: it becomes a need, or
# False if that need is inconsistent with the stage (dead) or already
# witnessed (met).  A live need is realized by the step that decides it, so
# no need waits for a later point.  Sets of points are int masks, bit x for
# point x, and the builder keeps down[x] and up[x], x with every point
# below it and above it.  A need (D, U) over the domain R = {0..s-1}, mask
# (1 << s) - 1, asks for a point outside R above exactly the points of the
# mask D and below exactly those of U among R:
#
#   "pattern s, p"   D and U read from p (1 below the point, 2 above it)
#   "genesis"        the first point, s = 0
#   "just_above e"   a point directly above e in the linear extension:
#                    s = e + 1 and D = down[e] & R
#   "just_below e"   the dual: U = up[e] & R
#
# It is consistent when D is closed downward and U upward within R
# (below & R == D for the union below of down[a] over a in D, and dually)
# and every point of D lies below every point of U.  It is met by a point
# x >= s with down[x] & R == D and up[x] & R == U; such an x lies in up[a]
# for each a in D and in down[u] for each u in U, which narrows the scan.
#
# Full pattern pools are emitted for domains up to 4 elements so that every
# one-point extension demand over {0,...,3} is eventually realized, and an
# infinite tail of larger patterns keeps the construction fair.
#
# No demand asks for a point between two others in the extension: none
# would ever be live.  just_above m and just_below m, read in round m + 1,
# are always consistent, and for m >= 5 neither is met when it is decided.
# That rests on one condition: every pattern read before round m + 1 names
# at most m points (the full pools name at most 4, and the tail starts at
# 5 and grows logarithmically).  A witness x > m that exists by then
# realized a demand read earlier, as once m exists no later demand is
# decided first.  The point of genesis or just_below e starts with nothing
# below it.  The point of just_above e (e < m) or of a pattern over s <= m
# points lies above m only through some a < m below it, with m below a;
# but a witness of just_above m has m's lower set among {0..m}, so a lies
# below m as well, which cannot be.  The dual covers just_below m, which
# the just_above m point, above m, cannot meet either.  So the two points
# sit directly after and directly before m (gaps pos[m] + 1 and pos[m]),
# and from then on both of m's neighbours in the extension are newer than
# m: no point j < m is ever next to it.  Points 0-4 are fixed, and the
# tests check them.

_FULL_PATTERN_ROUNDS = 4
_TAIL_CHUNK = 2


def _bits(mask: int) -> Iterator[int]:
    """The points of a mask, least first."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def _grade_patterns(s: int) -> Iterator[tuple[int, ...]]:
    """Patterns over {0..s-1} with at least one relation: 0 incomparable,
    1 below the new point, 2 above it; fewest relations first."""
    for r in range(1, s + 1):
        for positions in combinations(range(s), r):
            for signs in product((1, 2), repeat=r):
                p = [0] * s
                for i, sign in zip(positions, signs):
                    p[i] = sign
                yield tuple(p)


def _tail_patterns() -> Iterator[tuple[str, int, tuple[int, ...]]]:
    for s in count(_FULL_PATTERN_ROUNDS + 1):
        for p in _grade_patterns(s):
            yield ("pattern", s, p)


def _demand_stream() -> Iterator[tuple]:
    yield ("genesis",)
    tail = _tail_patterns()
    for r in count(1):
        e = r - 1
        yield ("just_above", e)
        yield ("just_below", e)
        if r <= _FULL_PATTERN_ROUNDS:
            for p in _grade_patterns(r):
                yield ("pattern", r, p)
        for _ in range(_TAIL_CHUNK):
            yield next(tail)


class StageBuilder:
    """Deterministic incremental construction of the poset and its extension.

    Points are the bits of int masks: ``down[x]`` holds x and every point
    below it, ``up[x]`` x and every point above it, and ``pos[x]`` is x's
    position in the extension ``canon``.  Each step decides the waiting
    demands and then the unread stream, in order, and realizes the first
    live need.  A demand that names a missing element waits for a later
    step, in its place in the order; every other demand is decided once and
    dropped, and a live one is realized by the step that decides it, so no
    need waits between steps.  Deciding once is exact: a new point changes
    no relation among the old points and keeps their order in the
    extension, so consistency is static and a witness stays one.  Only the
    decision reads the demand's kind.  Single-owner mutable: each caller
    grows its own builder.
    """

    def __init__(self):
        self.canon: list[int] = []
        self.pos: dict[int, int] = {}
        self.down: list[int] = []
        self.up: list[int] = []
        self._stream = _demand_stream()
        self._waiting: list[tuple] = []  # read, not yet decided, in order

    @property
    def n(self) -> int:
        return len(self.canon)

    def grow_to(self, n: int):
        while self.n < n:
            self._step()

    def _decide(self, demand: tuple):
        """The demand's live need (D, U) as masks, False if it is dead or
        met, or None while an element the demand names is missing."""
        kind, *args = demand
        if kind == "pattern":
            s = args[0]
        else:  # genesis; just_above e and just_below e
            s = args[0] + 1 if args else 0
        if s > self.n:
            return None
        R = (1 << s) - 1
        down, up = self.down, self.up
        if kind == "pattern":
            D = sum(1 << i for i, sign in enumerate(args[1]) if sign == 1)
            U = sum(1 << i for i, sign in enumerate(args[1]) if sign == 2)
        else:
            D = down[args[0]] & R if kind == "just_above" else 0
            U = up[args[0]] & R if kind == "just_below" else 0
        below, above = self._spans(D, U)
        if below & R != D or above & R != U:
            return False
        if U and any(U & ~up[a] for a in _bits(D)):  # a point of D not below all U
            return False
        # a witness x >= s lies in up[a] for a in D and in down[u] for u in U:
        # scan only those of the highest-numbered a and u
        witnesses = ~R & ((1 << self.n) - 1)
        if D:
            witnesses &= up[D.bit_length() - 1]
        if U:
            witnesses &= down[U.bit_length() - 1]
        if any(down[x] & R == D and up[x] & R == U for x in _bits(witnesses)):
            return False
        return D, U

    def _spans(self, D: int, U: int) -> tuple[int, int]:
        """The masks of what lies below some point of D, and above some point
        of U."""
        below = above = 0
        for a in _bits(D):
            below |= self.down[a]
        for u in _bits(U):
            above |= self.up[u]
        return below, above

    # -- construction steps

    def _step(self):
        waiting = iter(self._waiting)
        self._waiting = []
        for demand in chain(waiting, self._stream):
            need = self._decide(demand)
            if need is None:
                self._waiting.append(demand)
            elif need:
                break
        self._waiting.extend(waiting)  # the waiting demands after the live one
        self._realize(need)

    def _realize(self, need: tuple[int, int]):
        """Add the point x = n above the lower span of D and below the upper
        span of U (``_spans``).  The extension respects the order, so the
        first point of the upper span in it is a point of U, and the last of
        the lower span one of D: x goes just before the first of U, else just
        after the last of D.  Only the points after x change position."""
        D, U = need
        x, bit = self.n, 1 << self.n
        below, above = self._spans(D, U)
        down, up, pos, canon = self.down, self.up, self.pos, self.canon
        for y in _bits(below):
            up[y] |= bit
        for u in _bits(above):
            down[u] |= bit
        down.append(below | bit)
        up.append(above | bit)
        if U:
            gap = min(pos[u] for u in _bits(U))
        elif D:
            gap = max(pos[a] for a in _bits(D)) + 1
        else:
            gap = 0
        canon.insert(gap, x)
        pos.update(zip(canon[gap:], range(gap, len(canon))))

    # -- snapshots

    def preds(self, n: int) -> list[int]:
        """Stage n's relation as masks, grown to if need be: pred[b] holds
        the points of range(n) below b."""
        self.grow_to(n)
        R = (1 << n) - 1
        return [self.down[b] & R & ~(1 << b) for b in range(n)]

    def stage(self, n: int) -> PosetStage:
        """Stage n, grown to if need be: the relation and extension on range(n)."""
        self.grow_to(n)
        pairs = frozenset(
            (a, b) for b in range(n) for a in _bits(self.down[b]) if a != b and a < n
        )
        canon = OrderPrefix.from_sequence([e for e in self.canon if e < n])
        return PosetStage(FinitePoset(n, pairs), canon)

    def canon_less(self, a: int, b: int) -> bool:
        self.grow_to(max(a, b) + 1)
        return self.pos[a] < self.pos[b]


@dataclass(frozen=True)
class PosetStage:
    """A stage of the universal poset with its linear extension prefix."""

    stage: FinitePoset
    canon: OrderPrefix

    def __post_init__(self):
        for a, b in self.stage.relation:
            if not self.canon.less(a, b):
                raise ValueError(f"extension violates {a} < {b}")

    def to_json(self) -> dict:
        return {
            "n": self.stage.n,
            "pairs": sorted(self.stage.relation),
            "canon": self.canon.to_sequence(),
        }


def universal_poset_stage(N: int, *, cap: int = DEFAULT_POSET_CAP) -> PosetStage:
    """Stage N of the deterministic generic construction.

    Stages are nested: the relation and extension of stage N restricted to
    {0,...,M-1} equal those of stage M.
    """
    if N > cap:
        raise CapExceededError(f"stage {N} exceeds poset cap {cap}", "poset", cap, N)
    return StageBuilder().stage(N)


def poset_canon_presentation(*, cap: int = DEFAULT_POSET_CAP) -> OrderPresentation:
    """The linear extension of the universal poset as an order on all of N,
    read from a stage builder that this presentation owns."""
    builder = StageBuilder()

    def less(a: int, b: int) -> bool:
        if max(a, b) >= cap:
            message = f"element {max(a, b)} beyond poset cap {cap}"
            raise CapExceededError(message, "poset", cap, max(a, b))
        return builder.canon_less(a, b)

    return OrderPresentation("poset-canon", less)


@dataclass(frozen=True)
class ExtensionAudit:
    """Outcome of the bounded one-point extension audit."""

    base: tuple[int, ...]
    witness_bound: int
    demands_checked: int
    unrealized: tuple[tuple, ...]

    @property
    def complete(self) -> bool:
        return not self.unrealized


def poset_extension_audit(
    base: Iterable[int] = range(4),
    witness_bound: int = DEFAULT_POSET_CAP,
    *,
    cap: int = DEFAULT_POSET_CAP,
) -> ExtensionAudit:
    """Check that every admissible demand (A, B, Z) over the base elements is
    realized by some point below the witness bound."""
    base = tuple(sorted(base))
    stage = universal_poset_stage(witness_bound, cap=cap)
    rel = stage.stage.relation
    checked = 0
    unrealized = []
    for assignment in product((0, 1, 2, 3), repeat=len(base)):
        A = {e for e, a in zip(base, assignment) if a == 1}
        B = {e for e, a in zip(base, assignment) if a == 2}
        Z = {e for e, a in zip(base, assignment) if a == 3}
        if not _demand_admissible(A, B, Z, rel):
            continue
        checked += 1
        witness = None
        for x in range(witness_bound):
            if x in A | B | Z:
                continue
            if (
                all((a, x) in rel for a in A)
                and all((x, b) in rel for b in B)
                and all((z, x) not in rel and (x, z) not in rel for z in Z)
            ):
                witness = x
                break
        if witness is None:
            unrealized.append((tuple(sorted(A)), tuple(sorted(B)), tuple(sorted(Z))))
    return ExtensionAudit(base, witness_bound, checked, tuple(unrealized))


def _demand_admissible(A: set, B: set, Z: set, rel: frozenset) -> bool:
    if not all((a, b) in rel for a in A for b in B):
        return False
    if any((z, a) in rel for a in A for z in Z):
        return False
    if any((b, z) in rel for b in B for z in Z):
        return False
    return True


# ---------------------------------------------------------------------------
# Density reports and back-and-forth


@dataclass
class DensityReport:
    """Witness table for density and unboundedness at a finite scale."""

    presentation: str
    n: int
    search_bound: int
    between: dict[tuple[int, int], int | None]
    below: dict[int, int | None]
    above: dict[int, int | None]

    @property
    def unwitnessed_pairs(self) -> list[tuple[int, int]]:
        return sorted(k for k, v in self.between.items() if v is None)

    @property
    def unwitnessed_endpoints(self) -> list[int]:
        bad = {k for k, v in self.below.items() if v is None}
        bad |= {k for k, v in self.above.items() if v is None}
        return sorted(bad)

    @property
    def all_witnessed(self) -> bool:
        return not self.unwitnessed_pairs and not self.unwitnessed_endpoints


def check_density(
    pres: OrderPresentation, n: int, search_bound: int
) -> DensityReport:
    """Search witnesses j <= search_bound for betweenness of every pair
    a != b <= n and for points below and above every a <= n: the least
    index in each interval."""
    key = _sort_key(pres)
    scan = _scanner(_each(key), search_bound + 1)
    between = {
        (a, b): scan(key(a), key(b))
        for a, b in product(range(n + 1), repeat=2)
        if a != b and pres.less(a, b)
    }
    below = {a: scan(None, key(a)) for a in range(n + 1)}
    above = {a: scan(key(a), None) for a in range(n + 1)}
    return DensityReport(pres.name, n, search_bound, between, below, above)


_SCAN_CHUNKS = (1 << 10, 1 << 12, 1 << 14)


def _each(key):
    """A per-index key as a range deriver: keys(start, stop) lists key(c)
    for c in range(start, stop)."""
    return lambda start, stop: list(map(key, range(start, stop)))


def _scanner(keys, budget: int):
    """A per-call index over the candidate indices c < budget, whose keys
    come from the range deriver ``keys(start, stop)``.

    ``scan(lo, hi, target=None, enough=1)`` returns an index c < budget with
    lo < key(c) < hi (None: no bound), or None when the budget holds none.
    Without a target, the least such index.  With one, the key nearest the
    target (the least index on equal distance) among the chunks up to the
    first to end with at least ``enough`` candidates in it and before it, or
    the budget reached.  Keys are revealed in index order into one list, and
    each chunk keeps its indices sorted by key, so a block's candidates are
    one bisected slice.  A target scan asks for each chunk's unrevealed rest
    in one ``keys(revealed, end)`` call; a least-index scan asks for one
    index at a time and reveals nothing past its answer.  No index is asked
    for twice.
    """
    ends = sorted({min(e, budget) for e in _SCAN_CHUNKS} | {budget})
    blocks: list[list[int]] = [[] for _ in ends]
    revealed: list = []  # revealed[c] = key(c) for every revealed index c
    by_key = revealed.__getitem__

    def scan(lo, hi, target=None, enough: int = 1) -> int | None:
        def inside(block) -> tuple[int, int]:
            i = 0 if lo is None else bisect_right(block, lo, key=by_key)
            j = len(block) if hi is None else bisect_left(block, hi, key=by_key)
            return i, max(i, j)

        if target is None:
            for block in blocks:
                i, j = inside(block)
                if i < j:
                    return min(block[i:j])
            for c in range(len(revealed), budget):
                revealed.append(k := keys(c, c + 1)[0])
                insort(blocks[bisect_right(ends, c)], c, key=by_key)
                if (lo is None or lo < k) and (hi is None or k < hi):
                    return c
            return None
        best = None  # (distance, index)
        seen = 0
        for block, end in zip(blocks, ends):
            start = len(revealed)
            if start < end:
                revealed.extend(keys(start, end))
                block.extend(range(start, end))
                block.sort(key=by_key)  # stable: equal keys stay in index order
            i, j = inside(block)
            seen += j - i
            at = bisect_left(block, target, i, j, key=by_key)
            for q in (at - 1, at):  # the nearest keys below and above the target
                if i <= q < j:
                    c = block[bisect_left(block, revealed[block[q]], i, q, key=by_key)]
                    near = (abs(revealed[c] - target), c)
                    best = near if best is None else min(best, near)
            if best is not None and (seen >= enough or end >= budget):
                return best[1]
        return None

    return scan


def _values(pres: OrderPresentation) -> Callable[[int], Fraction]:
    """A presentation's rational values: its ``value_fn``, or else values
    given by its comparisons, kept per call.  Code k then takes the midpoint
    of the values of its nearest smaller and larger codes among 0..k-1, the
    smaller's + 1 or the larger's - 1 if only one exists, or else 0; a binary
    search on ``less`` places it among them, O(log k) comparisons."""
    if pres.value_fn is not None:
        return pres.value_fn
    ranked: list[int] = []  # the codes valued so far, in the order
    values: dict[int, Fraction] = {}

    def value(a: int) -> Fraction:
        if a > len(values):  # a presentation that refuses a names a itself,
            pres.less(a, a)  # not the first refused code below it
        for k in range(len(values), a + 1):
            at = bisect_left(ranked, True, key=lambda c: not pres.less(c, k))
            lo = values[ranked[at - 1]] if at else None
            hi = values[ranked[at]] if at < len(ranked) else None
            if lo is not None and hi is not None:
                values[k] = (lo + hi) / 2
            elif lo is not None:
                values[k] = lo + 1
            elif hi is not None:
                values[k] = hi - 1
            else:
                values[k] = Fraction(0)
            ranked.insert(at, k)
        return values[a]

    return value


def _sort_key(pres: OrderPresentation):
    """The sort key of every presentation: (float(v), v) for the value v of
    ``_values``.  Correctly rounded float() is monotone, so the pairs sort
    as the values do, and exact values are compared only when two floats tie
    (past float range, at +-inf)."""
    value = _values(pres)

    def key(a: int) -> tuple:
        v = value(a)
        try:
            return float(v), v
        except OverflowError:
            return (inf if v > 0 else -inf), v

    return key


def _alternate(
    n: int, key_a, key_b, pick_forth, pick_back, budget: int
) -> dict[int, int]:
    """Cantor's back-and-forth between two orders on N, to depth n.

    Forth steps map the least unmapped point of A into B, back steps the
    least unmapped point of B into A, alternating until the domain and the
    range both cover range(n).  The map is an order isomorphism at every
    step, so an image is compatible with every mapped pair exactly when it
    lies strictly between the partners of the point's nearest mapped
    neighbours, and no point already mapped lies there: a picker needs no
    record of the points taken.  Each side keeps its mapped sort keys in
    order, each beside its partner's key, so both neighbours come from one
    bisect.  ``pick(kx, lo, hi)`` gets the point's key and each neighbour as
    (its key, its partner's key), (None, None) at an end; it returns the
    image, or None when its search budget runs out.  Returns the forward map.
    """
    if n < 0:
        raise ValueError(f"depth must be non-negative, got {n}")
    maps: tuple[dict[int, int], dict[int, int]] = ({}, {})
    mapped: tuple[list, list] = ([], [])  # per side: (key, partner's key), sorted
    least, covered = [0, 0], [0, 0]  # per side: least unmapped, mapped points < n
    first = itemgetter(0)
    sides = ((0, key_a, key_b, pick_forth), (1, key_b, key_a, pick_back))
    while True:
        for s, key_x, key_y, pick in sides:
            if min(covered) >= n:
                return maps[0]
            while least[s] in maps[s]:
                least[s] += 1
            x = least[s]
            kx = key_x(x)
            at = bisect_left(mapped[s], kx, key=first)
            lo = mapped[s][at - 1] if at else (None, None)
            hi = mapped[s][at] if at < len(mapped[s]) else (None, None)
            y = pick(kx, lo, hi)
            if y is None:  # a (float, value) sort key stands for its value
                ends = (lo[1], hi[1])
                interval = tuple(k[1] if isinstance(k, tuple) else k for k in ends)
                message = f"no partner for {x} within budget"
                raise SearchBudgetError(message, x, budget, interval)
            ky, t = key_y(y), 1 - s
            maps[s][x], maps[t][y] = y, x
            mapped[s].insert(at, (kx, ky))
            insort(mapped[t], (ky, kx), key=first)
            covered[s] += x < n
            covered[t] += y < n


def back_and_forth(
    pres_a: OrderPresentation,
    pres_b: OrderPresentation,
    n: int,
    *,
    search_budget: int = DEFAULT_SEARCH_BUDGET,
) -> PartialPermutation:
    """A partial order-isomorphism whose domain and range cover {0,...,n-1}.

    Alternates forth steps (map the least unmapped point to the least
    compatible image) with back steps.  Deterministic given the
    presentations; a witness search that exceeds the budget raises
    SearchBudgetError naming the blocking point.  Points are sorted by their
    values, float first, where a presentation gives them (``_sort_key``).
    """
    key_a, key_b = _sort_key(pres_a), _sort_key(pres_b)

    def least_in(pres, key):
        if pres.least_fn is None:
            scan = _scanner(_each(key), search_budget)
            return lambda kx, lo, hi: scan(lo[1], hi[1])

        def pick(kx, lo, hi):  # the keys are (float(v), v)
            c = pres.least_fn(*(None if k is None else k[1] for k in (lo[1], hi[1])))
            return c if c < search_budget else None

        return pick

    pick_forth, pick_back = least_in(pres_b, key_b), least_in(pres_a, key_a)
    fwd = _alternate(n, key_a, key_b, pick_forth, pick_back, search_budget)
    return PartialPermutation.from_mapping(fwd)

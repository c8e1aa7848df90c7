"""Exact measure of order events under the unique permutation-invariant law.

Every cylinder named by a k-element finite order has measure 1/k!, and events
built from finitely many cylinders are local to their support.  Two
independent computation paths are provided:

- ``mu_exact``, the oracle, counts the orders on the support that satisfy
  the event, every one of them.  The count is bit-parallel: bit p of a
  Python int stands for the p-th permutation of ``range(w)`` in
  ``itertools.permutations`` order, so one int holds an event's members
  among all w! orders.  They are found by ``orders._event_mask``, the walk
  that ``evaluate`` runs on a single order, with ``Not``, ``And`` and
  ``Or`` one ``^``, ``&`` or ``|`` each.  The width w is at most
  ``BLOCK_WIDTH`` = 8; on a larger support the leading ranks are fixed one
  assignment at a time and the last 8 are counted in a block, so no mask is
  longer than 8! bits at any support cap.
- ``mu_weight_recursive`` rewrites the event as a union of conjunctions, each
  one int pos | neg << w over the w atom ids (the ids number the distinct
  leaves in sorted order), keeps only the minimal ones, measures the union by
  inclusion-exclusion and each conjunction by peeling negated atoms.  The
  cylinders' precedence is carried down the peel as transitively closed
  masks, one atom's pairs added per step.  A negated atom that the positive
  cylinders contradict is dropped without a peel, and one that they imply
  makes the conjunction empty; neither is measured.  Every measure is kept
  as an integer numerator over |support|!, and one Fraction is built per
  event.  The union cap is checked while the minimal conjunctions are
  collected, so an event past it is refused after at most union_cap + 1
  subset tests per conjunction and before any inclusion-exclusion.  It agrees
  with the oracle and rounds to a requested dyadic precision only at the end.

Positive conjunctions and posets are measured by counting linear extensions
with a dynamic program over the downsets reachable from the empty set.

Exponential work: ``mu_exact`` visits |support|! orders, after the support
cap is checked.  The weight route's three exponential steps have no bound:
``_dnf`` multiplies out every And before the union cap sees the list,
``_mu_union`` visits up to 2^k intersections of the k minimal terms (k within
the union cap), each with a peel, and each peel leaf runs the downset DP over
up to 2^|named| states, with no cap on |named|.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from fractions import Fraction
from itertools import permutations
from math import factorial
from typing import Iterator

from .orders import (
    And,
    EventExpr,
    FiniteOrder,
    Not,
    Or,
    _event_mask,
    _leaves,
    support,
)

DEFAULT_SUPPORT_CAP = 8
DEFAULT_EXTENSION_CAP = 16
DEFAULT_UNION_CAP = 16
PRECISION_CAP = 64
# Rank positions counted bit-parallel by mu_exact: one mask holds 8! bits.
BLOCK_WIDTH = 8


class CapExceededError(RuntimeError):
    """A computation was requested beyond its configured resource cap:
    ``cap`` names it ("support", "union", "precision", "extension", "poset"
    or "rational"), ``limit`` is its value and ``requested`` the value over
    it (a rational code refused on decoding counts both in codes)."""

    def __init__(self, message: str, cap: str, limit: int, requested: int):
        super().__init__(message)
        self.cap, self.limit, self.requested = cap, limit, requested


@dataclass(frozen=True)
class DyadicApprox:
    """A binary rational numerator/2^exponent within 2^-exponent of a target."""

    numerator: int
    exponent: int

    @classmethod
    def from_fraction(cls, value: Fraction, k: int) -> "DyadicApprox":
        return cls(round(value * 2**k), k)

    def as_fraction(self) -> Fraction:
        return Fraction(self.numerator, 2**self.exponent)

    def __str__(self) -> str:
        return f"{self.numerator}/2^{self.exponent}"


def _bits(mask: int) -> Iterator[int]:
    """The points of a mask, least first."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


@dataclass(frozen=True)
class FinitePoset:
    """A strict partial order on {0, ..., n-1} as transitively closed
    predecessor masks: bit a of ``pred[b]`` is set iff a < b, n = len(pred).
    Each mask lies in range(n) without its own point and holds pred[a] for
    each a in it, so no cycle (a point below itself) can occur."""

    pred: tuple[int, ...]

    def __post_init__(self):
        n, pred = len(self.pred), self.pred
        for b, p in enumerate(pred):
            if p >> n or p >> b & 1:  # also when p < 0
                raise ValueError(f"mask {p} of {b} leaves range({n}) or holds {b}")
            if any(pred[a] & ~p for a in _bits(p)):
                raise ValueError(f"relation is not transitive below {b}")

    @classmethod
    def from_pairs(cls, n: int, pairs) -> "FinitePoset":
        """Close strict pairs on range(n) by Warshall's algorithm on masks;
        reject cycles and pairs outside range(n)."""
        if n < 0:
            raise ValueError(f"poset size must be non-negative, got {n}")
        pred = [0] * n
        for a, b in pairs:
            if not (0 <= a < n and 0 <= b < n):
                raise ValueError(f"pair ({a}, {b}) outside range({n})")
            pred[b] |= 1 << a
        for k in range(n):  # now every path through points 0..k is closed
            pred = [p | pred[k] if p >> k & 1 else p for p in pred]
        return cls(tuple(pred))

    @classmethod
    def chain(cls, n: int) -> "FinitePoset":
        return cls.from_pairs(n, zip(range(n), range(1, n)))

    @classmethod
    def antichain(cls, n: int) -> "FinitePoset":
        return cls.from_pairs(n, ())

    @property
    def n(self) -> int:
        return len(self.pred)

    @property
    def relation(self) -> frozenset[tuple[int, int]]:  # the pairs (a, b), a < b
        return frozenset((a, b) for b, p in enumerate(self.pred) for a in _bits(p))

    def less(self, a: int, b: int) -> bool:
        return 0 <= a and 0 <= b < self.n and self.pred[b] >> a & 1 == 1

    def is_antichain(self) -> bool:
        return not any(self.pred)


def mu_cylinder(l: FiniteOrder) -> Fraction:
    """Measure of the cylinder of total orders extending l: 1/k! for k elements."""
    return Fraction(1, factorial(len(l.elements)))


def mu_exact(e: EventExpr, *, support_cap: int = DEFAULT_SUPPORT_CAP) -> Fraction:
    """Oracle measure: satisfying orders on the support divided by |support|!.

    Valid because events in the cylinder algebra are determined by the
    restriction of an order to their support.  The support is relabelled onto
    range(s) and every rank tuple r (a permutation of range(s), r[i] the
    position of the i-th support element) is counted once, 8! of them per
    Python int: the leading s - 8 ranks run over
    ``permutations(range(s), s - 8)``, and for each assignment the event's
    mask over the orders of the last w = min(s, 8) ranks is built and its
    bits counted.  An atom is the AND of its consecutive pair masks
    r[a] < r[b]; a pair with a fixed rank x reads the mask "the free rank is
    at least the number of free values below x".  The support cap is checked
    before any mask is built, and memory stays at one block's tables, about
    1 MB at w = 8.
    """
    sup = sorted(support(e))
    s = len(sup)
    if s > support_cap:
        raise CapExceededError(
            f"support size {s} exceeds enumeration cap {support_cap}",
            "support", support_cap, s,
        )
    index = {x: i for i, x in enumerate(sup)}
    lead = max(s - BLOCK_WIDTH, 0)
    w = s - lead
    table = _position_masks(w)
    full = (1 << factorial(w)) - 1
    # at_least[c][k]: the orders whose free rank at position lead + c is >= k
    at_least = []
    for row in table:
        suffix = [0] * (w + 1)
        for v in range(w - 1, -1, -1):
            suffix[v] = suffix[v + 1] | row[v]
        at_least.append(suffix)
    free_pairs: dict[tuple[int, int], int] = {}

    def free_less(a: int, b: int) -> int:
        m = free_pairs.get((a, b))
        if m is None:
            ra, gb = table[a], at_least[b]
            m = 0
            for v in range(w - 1):
                m |= ra[v] & gb[v + 1]
            free_pairs[a, b] = m
        return m

    count = 0
    for head in permutations(range(s), lead):
        free_values = sorted(set(range(s)).difference(head))
        # below[i]: free values under the fixed rank head[i]
        below = [bisect_left(free_values, x) for x in head]

        def less(i: int, j: int) -> int:
            if i < lead:
                if j < lead:
                    return full if head[i] < head[j] else 0
                return at_least[j - lead][below[i]]
            if j < lead:
                return full ^ at_least[i - lead][below[j]]
            return free_less(i - lead, j - lead)

        count += _event_mask(e, index, less, full).bit_count()
    return Fraction(count, factorial(s))


def _position_masks(w: int) -> list[list[int]]:
    """table[c][v]: bit p set iff the p-th permutation of range(w), in
    ``itertools.permutations`` order, has the value v at position c.

    Built up from w = 1 by the lexicographic block structure: the
    permutations of range(n) form n blocks of (n-1)! each, block j has
    position 0 equal to j, and its positions 1..n-1 run through the
    permutations of range(n) without j in the same order as those of
    range(n-1), value u standing for u + (u >= j).
    """
    table: list[list[int]] = []
    for n in range(1, w + 1):
        size = factorial(n - 1)
        grown = [[((1 << size) - 1) << (j * size) for j in range(n)]]
        for row in table:
            masks = []
            for v in range(n):
                m = 0
                for j in range(n):
                    if j != v:
                        m |= row[v if v < j else v - 1] << (j * size)
                masks.append(m)
            grown.append(masks)
        table = grown
    return table


# ---------------------------------------------------------------------------
# Weight recursion over signed conjunctions


def _atom_ids(e: EventExpr) -> dict[tuple[int, ...], int]:
    """Each distinct leaf's elements mapped to its id bit 1 << i, where i is
    the leaf's place among them in sorted order."""
    found = {leaf.elements for leaf in _leaves(e)}
    return {es: 1 << i for i, es in enumerate(sorted(found))}


def _dnf(e: EventExpr, positive: bool, ids: dict) -> list[int]:
    """Rewrite an expression as a union of conjunctions of signed atoms,
    deduplicated in first-seen order, each one int pos | neg << len(ids):
    ``ids`` maps an atom's elements to its id bit, and pos and neg mask the
    ids that it holds as cylinders and as complements."""
    if isinstance(e, FiniteOrder):
        bit = ids[e.elements]
        return [bit if positive else bit << len(ids)]
    if isinstance(e, Not):
        return _dnf(e.child, not positive, ids)
    if (isinstance(e, And) and positive) or (isinstance(e, Or) and not positive):
        w = len(ids)
        out = [0]
        for child in e.children:
            # a merge is contradictory when it holds an atom both ways
            branches = _dnf(child, positive, ids)
            out = list(dict.fromkeys([
                u for a in out for b in branches if not (u := a | b) & u >> w
            ]))
        return out
    return list(dict.fromkeys(t for c in e.children for t in _dnf(c, positive, ids)))


def _absorb(terms: list[int], union_cap: int) -> list[int]:
    """The distinct minimal conjunctions: drop any term t that contains
    another k (k & ~t == 0: t denotes a subset of k) or repeats one.

    Terms are visited by increasing size, so every proper subset of a term is
    seen before it and a term kept is never absorbed later.  The union cap is
    therefore checked as terms are kept: CapExceededError as soon as
    union_cap + 1 are, after O(len(terms) * union_cap) subset tests.
    """
    kept: list[int] = []
    for t in sorted(terms, key=int.bit_count):
        if any(k & ~t == 0 for k in kept):
            continue
        kept.append(t)
        if len(kept) > union_cap:
            raise CapExceededError(
                f"union cap {union_cap} exceeded: {len(kept)} minimal conjunctions"
                f" kept from a DNF of {len(terms)} conjunctions",
                "union", union_cap, len(kept),
            )
    return kept


def _mu_conjunction(pos, neg, pred, named, atoms, scale, memo: dict) -> int:
    """The weight recursion, as a numerator over ``scale`` = |support|!: peel
    the lowest negated atom z until none remain, as
    mu(pos, neg) = mu(pos, neg - z) - mu(pos + z, neg - z).

    ``pred[x]`` is the transitively closed mask of the support indices that
    the cylinders of pos place before x, and ``named`` the mask of the indices
    they name.  Adding z to pos settles two cases without a peel: if pos
    contradicts z, pos + z is empty and z is dropped; if pos implies z, no
    order is in pos and outside z, so the measure is 0.  A leaf counts the
    extensions of the named indices and scales the count by
    scale // |named|!, so every value is an exact integer.
    """
    key = (pos, neg)
    if key in memo:
        return memo[key]
    while neg:
        z = neg & -neg
        neg ^= z
        with_z = _add_cylinders(z, pred, named, atoms)
        if with_z is None:  # pos contradicts z: mu(pos, neg) = mu(pos, neg - z)
            continue
        if with_z[0] is pred:  # pos implies z
            result = 0
        else:
            result = _mu_conjunction(pos, neg, pred, named, atoms, scale, memo)
            result -= _mu_conjunction(pos | z, neg, *with_z, atoms, scale, memo)
        break
    else:
        weight = scale // factorial(named.bit_count())
        result = _count_extensions(named, pred) * weight
    memo[key] = result
    return result


def _add_cylinders(bits: int, pred: list[int], named: int, atoms: list):
    """(pred, named) with the cylinders of the atom ids in ``bits`` added:
    their named indices and consecutive pairs a < b, listed in ``atoms``.

    ``pred`` is kept transitively closed.  A pair whose b already precedes a
    closes a cycle, so no order extends the cylinders and the result is None.
    A pair whose a already precedes b is implied and skipped.  Any other adds
    a and everything before it to b and to everything after b, in a copy; if
    no pair is added, ``pred`` itself is returned.
    """
    out = pred
    while bits:
        low = bits & -bits
        bits ^= low
        atom_named, pairs = atoms[low.bit_length() - 1]
        named |= atom_named
        for a, a_bit, b, b_bit in pairs:
            if out[a] & b_bit:
                return None
            if out[b] & a_bit:
                continue
            if out is pred:
                out = pred.copy()
            before = out[a] | a_bit
            out[b] |= before
            for y, p in enumerate(out):
                if p & b_bit:
                    out[y] = p | before
    return out, named


def _count_extensions(full: int, pred: list[int]) -> int:
    """Linear extensions of the elements in the mask ``full``, where pred[x]
    is the bitmask of the elements that must precede x.

    A dynamic program over downsets, run layer by layer from the empty set:
    layer i maps each downset of size i reachable by placing elements whose
    predecessors are all placed to the number of ways to reach it.  Only
    reachable downsets are ever stored, so constrained inputs stay small and
    a cyclic one (nothing on the cycle is ever placeable) ends in 0.
    """
    layer = {0: 1}
    for _ in range(full.bit_count()):
        nxt: dict[int, int] = {}
        for mask, ways in layer.items():
            rest = full & ~mask
            while rest:
                low = rest & -rest
                rest ^= low
                if pred[low.bit_length() - 1] & ~mask == 0:
                    up = mask | low
                    nxt[up] = nxt.get(up, 0) + ways
        layer = nxt
    return layer.get(full, 0)


def _mu_union(terms: list[int], ids: dict) -> Fraction:
    """Inclusion-exclusion over a union of signed conjunctions, ints as
    ``_dnf`` builds them, with the support relabelled onto range(s) once:
    ``atoms`` holds each id's mask of named indices and its consecutive pairs
    (a, 1 << a, b, 1 << b).

    The intersections are visited depth first, each built from its parent by
    one OR and by adding only the new atoms to the parent's closed precedence.
    A contradictory intersection (an atom both held and negated, or cylinders
    forming a cycle) is empty, and so is every intersection above it, so its
    whole subtree is skipped.  Every term is an integer numerator over s!, and
    one Fraction is built at the end."""
    index = {x: i for i, x in enumerate(sorted({x for es in ids for x in es}))}
    atoms = [
        (sum(1 << index[x] for x in es),
         [(index[a], 1 << index[a], index[b], 1 << index[b])
          for a, b in zip(es, es[1:])])
        for es in ids
    ]
    scale, w = factorial(len(index)), len(ids)
    low = (1 << w) - 1  # a term's pos half
    memo: dict = {}

    def include(first: int, u: int, pred: list[int], named: int) -> int:
        """The sum over the nonempty sets S of terms from ``first`` on of
        (-1)^(|S|+1) times the measure of u intersected with S."""
        total = 0
        for j in range(first, len(terms)):
            v = terms[j] | u
            if v & v >> w:
                continue
            added = _add_cylinders((v ^ u) & low, pred, named, atoms)  # new pos ids
            if added is None:
                continue
            total += _mu_conjunction(v & low, v >> w, *added, atoms, scale, memo)
            total -= include(j + 1, v, *added)
        return total

    return Fraction(include(0, 0, [0] * len(index), 0), scale)


def mu_weight_exact(e: EventExpr, *, union_cap: int = DEFAULT_UNION_CAP) -> Fraction:
    """The weight-recursion path kept exact (no rounding)."""
    ids = _atom_ids(e)
    return _mu_union(_absorb(_dnf(e, True, ids), union_cap), ids)


def mu_weight_recursive(
    e: EventExpr,
    k: int,
    *,
    union_cap: int = DEFAULT_UNION_CAP,
) -> DyadicApprox:
    """Dyadic approximation of the measure within 2^-k via the weight recursion.

    The expression is first rewritten as a union of conjunctions of signed
    atoms; the union is handled by inclusion-exclusion and each conjunction by
    peeling negated factors one at a time.  Weight-0 terms are evaluated
    exactly, so the only error is the final rounding.
    """
    if k < 0:
        raise ValueError(f"precision must be a natural number, got {k}")
    if k > PRECISION_CAP:
        message = f"precision 2^-{k} exceeds cap 2^-{PRECISION_CAP}"
        raise CapExceededError(message, "precision", PRECISION_CAP, k)
    exact = mu_weight_exact(e, union_cap=union_cap)
    return DyadicApprox.from_fraction(exact, k)


# ---------------------------------------------------------------------------
# The adjacency family and linear extension counting


def adjacency_event(n: int, m: int, N: int) -> EventExpr:
    """The event that no j < N lies strictly between n and m.

    Equivalently: n and m are adjacent in the order restricted to {0,...,N-1}.
    """
    _check_adjacency_args(n, m, N)
    clauses = [adjacency_clause(n, m, j) for j in range(N) if j != n and j != m]
    if not clauses:
        return FiniteOrder(())
    if len(clauses) == 1:
        return clauses[0]
    return And(tuple(clauses))


def adjacency_clause(n: int, m: int, j: int) -> EventExpr:
    """The event that j does not lie strictly between n and m."""
    return Not(Or((FiniteOrder((n, j, m)), FiniteOrder((m, j, n)))))


def mu_adjacency(n: int, m: int, N: int) -> Fraction:
    """Exact measure of adjacency_event(n, m, N): 2(N-1)(N-2)!/N! = 2/N."""
    _check_adjacency_args(n, m, N)
    return Fraction(2, N)


def _check_adjacency_args(n: int, m: int, N: int):
    if n == m:
        raise ValueError("the two points must differ")
    if N < 2:
        raise ValueError("window size must be at least 2")
    if not (0 <= n < N and 0 <= m < N):
        raise ValueError(f"points must lie inside the window range({N})")


def linear_extension_count(
    p: FinitePoset, *, cap: int = DEFAULT_EXTENSION_CAP
) -> int:
    """Exact number of total orders on {0,...,n-1} extending the poset."""
    if p.n > cap:
        message = f"poset size {p.n} exceeds extension-count cap {cap}"
        raise CapExceededError(message, "extension", cap, p.n)
    return _count_extensions((1 << p.n) - 1, p.pred)

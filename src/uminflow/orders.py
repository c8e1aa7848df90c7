"""Total orders on finite sets of naturals, cylinder events, and the group action.

A finite order ``l`` on a subset of N names the cylinder of all total orders
of N that extend it.  Boolean combinations of such cylinders form the event
algebra this package computes measures on; everything here is an immutable
value and every operation is pure.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Mapping, Union


class ParseError(ValueError):
    """Raised on malformed event text; carries the offending position."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position})")
        self.position = position


@dataclass(frozen=True, slots=True)
class FiniteOrder:
    """A total order on a finite set of naturals.

    ``elements`` lists the members in increasing order position.  The empty
    order is valid and denotes the vacuous constraint (the full space).
    """

    elements: tuple[int, ...]

    def __post_init__(self):
        for e in self.elements:
            if not isinstance(e, int) or e < 0:
                raise ValueError(f"order elements must be naturals, got {e!r}")
        if len(set(self.elements)) != len(self.elements):
            raise ValueError(f"repeated element in order {self.elements}")

    def __len__(self) -> int:
        return len(self.elements)


@dataclass(frozen=True, slots=True)
class Atom:
    order: FiniteOrder


@dataclass(frozen=True, slots=True)
class Not:
    child: "EventExpr"


@dataclass(frozen=True, slots=True)
class And:
    children: tuple["EventExpr", ...]


@dataclass(frozen=True, slots=True)
class Or:
    children: tuple["EventExpr", ...]


EventExpr = Union[Atom, Not, And, Or]


@dataclass(frozen=True)
class OrderPrefix:
    """A total order on {0, ..., n-1}: the restriction of a total order on N.

    ``rank[x]`` is the position of element x, so comparisons are O(1) and
    equal prefixes compare equal structurally.
    """

    n: int
    rank: tuple[int, ...]

    def __post_init__(self):
        if len(self.rank) != self.n or sorted(self.rank) != list(range(self.n)):
            raise ValueError(f"rank {self.rank} is not a bijection on range({self.n})")

    @classmethod
    def from_sequence(cls, seq: Iterable[int]) -> "OrderPrefix":
        """Build from the elements listed in increasing order."""
        seq = list(seq)
        if sorted(seq) != list(range(len(seq))):
            raise ValueError(f"sequence must list 0..{len(seq) - 1} exactly once")
        rank = [0] * len(seq)
        for pos, elt in enumerate(seq):
            rank[elt] = pos
        return cls(len(seq), tuple(rank))

    def to_sequence(self) -> list[int]:
        """Elements of the domain listed in increasing order."""
        seq = [0] * self.n
        for elt, pos in enumerate(self.rank):
            seq[pos] = elt
        return seq

    def less(self, a: int, b: int) -> bool:
        return self.rank[a] < self.rank[b]

    def restrict(self, m: int) -> "OrderPrefix":
        """The induced order on {0, ..., m-1}."""
        if not 0 <= m <= self.n:
            raise ValueError(f"cannot restrict prefix of size {self.n} to {m}")
        sub = [e for e in self.to_sequence() if e < m]
        return OrderPrefix.from_sequence(sub)

    def to_text(self) -> str:
        return f"{self.n}\n{' '.join(map(str, self.to_sequence()))}\n"

    @classmethod
    def from_text(cls, text: str) -> "OrderPrefix":
        lines = text.split()
        if not lines:
            raise ValueError("empty prefix text")
        n = int(lines[0])
        seq = [int(tok) for tok in lines[1:]]
        if len(seq) != n or sorted(seq) != list(range(n)):
            raise ValueError("prefix text does not list 0..n-1 exactly once")
        return cls.from_sequence(seq)


@dataclass(frozen=True)
class PartialPermutation:
    """A finite injective map on naturals; a prefix of a permutation of N."""

    pairs: tuple[tuple[int, int], ...]

    def __post_init__(self):
        dom = [a for a, _ in self.pairs]
        ran = [b for _, b in self.pairs]
        if len(set(dom)) != len(dom):
            raise ValueError("duplicate source in partial permutation")
        if len(set(ran)) != len(ran):
            raise ValueError("partial permutation is not injective")
        object.__setattr__(self, "_map", dict(self.pairs))

    @classmethod
    def from_mapping(cls, mapping: Mapping[int, int]) -> "PartialPermutation":
        return cls(tuple(sorted(mapping.items())))

    @classmethod
    def identity(cls, n: int) -> "PartialPermutation":
        return cls(tuple((i, i) for i in range(n)))

    @property
    def mapping(self) -> dict[int, int]:
        return dict(self._map)

    def __call__(self, x: int) -> int:
        try:
            return self._map[x]
        except KeyError:
            raise ValueError(f"{x} is outside the permutation's domain") from None

    def domain(self) -> frozenset[int]:
        return frozenset(a for a, _ in self.pairs)

    def range(self) -> frozenset[int]:
        return frozenset(b for _, b in self.pairs)

    def inverse(self) -> "PartialPermutation":
        return PartialPermutation(tuple(sorted((b, a) for a, b in self.pairs)))

    def compose(self, other: "PartialPermutation") -> "PartialPermutation":
        """self after other: x -> self(other(x)), on the domain where defined."""
        out = {}
        for a, b in other.pairs:
            if b in self._map:
                out[a] = self._map[b]
        return PartialPermutation.from_mapping(out)

    def is_bijection_on(self, universe: Iterable[int]) -> bool:
        universe = set(universe)
        return self.domain() >= universe and {self._map[x] for x in universe} == universe


# ---------------------------------------------------------------------------
# Parsing and printing
#
# expr   := term { "|" term }
# term   := factor { "&" factor }
# factor := "!" factor | "(" expr ")" | atom
# atom   := "ord(" nat { "<" nat } ")"
#
# A factor may sit inside at most MAX_EVENT_NESTING "!" and "(": the parser
# refuses deeper text before it recurses, so that parsing (three frames a
# level), printing, evaluating, the order-mask walk of ``mu_exact`` and the
# DNF rewrite (one frame a level each) stay inside Python's default recursion
# limit of 1000.

MAX_EVENT_NESTING = 200


class _Parser:
    def __init__(self, text: str):
        self.text = text
        self.pos = 0
        self.depth = 0  # "!" and "(" enclosing the current factor

    def error(self, message: str) -> ParseError:
        return ParseError(message, self.pos)

    def skip_ws(self):
        while self.pos < len(self.text) and self.text[self.pos].isspace():
            self.pos += 1

    def peek(self) -> str:
        self.skip_ws()
        return self.text[self.pos] if self.pos < len(self.text) else ""

    def eat(self, token: str) -> bool:
        self.skip_ws()
        if self.text.startswith(token, self.pos):
            self.pos += len(token)
            return True
        return False

    def expect(self, token: str):
        if not self.eat(token):
            raise self.error(f"expected {token!r}")

    def nat(self) -> int:
        self.skip_ws()
        start = self.pos
        while self.pos < len(self.text) and self.text[self.pos].isdigit():
            self.pos += 1
        if self.pos == start:
            raise self.error("expected a natural number")
        return int(self.text[start:self.pos])

    def atom(self) -> Atom:
        self.skip_ws()
        if not self.eat("ord("):
            raise self.error("expected 'ord('")
        elements = [self.nat()]
        while self.eat("<"):
            elements.append(self.nat())
        self.expect(")")
        if len(set(elements)) != len(elements):
            raise self.error(f"repeated element in atom {elements}")
        return Atom(FiniteOrder(tuple(elements)))

    def factor(self) -> EventExpr:
        if self.peek() not in ("!", "("):
            return self.atom()
        if self.depth == MAX_EVENT_NESTING:
            raise self.error(f"event nested deeper than {MAX_EVENT_NESTING}")
        self.depth += 1
        if self.eat("!"):
            e = Not(self.factor())
        else:
            self.expect("(")
            e = self.expr()
            self.expect(")")
        self.depth -= 1
        return e

    def term(self) -> EventExpr:
        factors = [self.factor()]
        while self.eat("&"):
            factors.append(self.factor())
        return factors[0] if len(factors) == 1 else And(tuple(factors))

    def expr(self) -> EventExpr:
        terms = [self.term()]
        while self.eat("|"):
            terms.append(self.term())
        return terms[0] if len(terms) == 1 else Or(tuple(terms))

    def parse(self) -> EventExpr:
        e = self.expr()
        self.skip_ws()
        if self.pos != len(self.text):
            raise self.error("unexpected trailing input")
        return e


def parse_event(text: str) -> EventExpr:
    """Parse event text into an expression tree; round-trips through print_event."""
    return _Parser(text).parse()


def print_event(e: EventExpr) -> str:
    """Render an expression in the grammar accepted by parse_event."""
    if isinstance(e, Atom):
        return f"ord({'<'.join(map(str, e.order.elements))})"
    if isinstance(e, Not):
        inner = print_event(e.child)
        if isinstance(e.child, (And, Or)):
            inner = f"({inner})"
        return f"!{inner}"
    if isinstance(e, And):
        parts = []
        for c in e.children:
            text = print_event(c)
            # parentheses around nested conjunctions keep the tree shape
            parts.append(f"({text})" if isinstance(c, (Or, And)) else text)
        return " & ".join(parts)
    if isinstance(e, Or):
        parts = []
        for c in e.children:
            text = print_event(c)
            parts.append(f"({text})" if isinstance(c, Or) else text)
        return " | ".join(parts)
    raise TypeError(f"not an event expression: {e!r}")


# ---------------------------------------------------------------------------
# Semantics


def support(e: EventExpr) -> frozenset[int]:
    """Union of the element sets of all atoms in the expression."""
    out: set[int] = set()
    stack = [e]
    while stack:
        e = stack.pop()
        if isinstance(e, Atom):
            out.update(e.order.elements)
        elif isinstance(e, Not):
            stack.append(e.child)
        elif isinstance(e, (And, Or)):
            stack.extend(e.children)
        else:
            raise TypeError(f"not an event expression: {e!r}")
    return frozenset(out)


def _rank_of(order) -> Mapping[int, int]:
    if isinstance(order, OrderPrefix):
        return order.rank
    return order


def evaluate(e: EventExpr, order) -> bool:
    """Membership of a total order in the denoted event.

    ``order`` is an OrderPrefix or a mapping element -> position whose domain
    covers support(e).  An atom holds iff the order extends it; negation of an
    atom means the order does not extend it.
    """
    rank = _rank_of(order)
    try:
        return _evaluate(e, rank)
    except (KeyError, IndexError):
        missing = sorted(x for x in support(e) if not _covers(rank, x))
        raise ValueError(f"order does not cover support elements {missing}") from None


def _covers(rank, x: int) -> bool:
    if isinstance(rank, tuple):
        return 0 <= x < len(rank)
    return x in rank


def _evaluate(e: EventExpr, rank) -> bool:
    if isinstance(e, Atom):
        es = e.order.elements
        return all(rank[es[i]] < rank[es[i + 1]] for i in range(len(es) - 1))
    if isinstance(e, Not):
        return not _evaluate(e.child, rank)
    if isinstance(e, And):
        return all(_evaluate(c, rank) for c in e.children)
    if isinstance(e, Or):
        return any(_evaluate(c, rank) for c in e.children)
    raise TypeError(f"not an event expression: {e!r}")


def act(sigma: PartialPermutation, o: OrderPrefix) -> OrderPrefix:
    """The order sigma.o with x < y iff sigma^-1(x) < sigma^-1(y) in o.

    sigma must be a bijection of the prefix domain {0, ..., n-1}.
    """
    if not sigma.is_bijection_on(range(o.n)):
        raise ValueError(f"permutation is not a bijection of range({o.n})")
    rank = [0] * o.n
    for x in range(o.n):
        rank[sigma(x)] = o.rank[x]
    return OrderPrefix(o.n, tuple(rank))


def act_on_event(sigma: PartialPermutation, l: FiniteOrder) -> FiniteOrder:
    """Relabel the order's elements through sigma, keeping positions."""
    dom = sigma.domain()
    outside = [e for e in l.elements if e not in dom]
    if outside:
        raise ValueError(f"elements {outside} outside the permutation's domain")
    return FiniteOrder(tuple(sigma(e) for e in l.elements))


def relabel_event(sigma: PartialPermutation, e: EventExpr) -> EventExpr:
    """Apply sigma to every atom of the expression."""
    if isinstance(e, Atom):
        return Atom(act_on_event(sigma, e.order))
    if isinstance(e, Not):
        return Not(relabel_event(sigma, e.child))
    if isinstance(e, And):
        return And(tuple(relabel_event(sigma, c) for c in e.children))
    if isinstance(e, Or):
        return Or(tuple(relabel_event(sigma, c) for c in e.children))
    raise TypeError(f"not an event expression: {e!r}")

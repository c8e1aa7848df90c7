"""Seed-deterministic sampling of random total orders and finite-level tests.

Each element of N gets an independent 256-bit key derived from the seed; the
sampled order is the order of the keys.  Key order is exchangeable, so every
k-element cylinder has frequency 1/k!, which pins the sampled law down as the
unique invariant one.  Test families package shrinking event sequences whose
exact measures come from the measure module.  A level is an Or of And-prefixes
of part lists its family owns, and part i is made from its index the first
time it is read, so deciding a level builds only the parts its short-circuit
evaluation reads.  A verdict reports the deepest level a sampled order lands
in, read through a lazy rank view of the order.
"""

from __future__ import annotations

from collections.abc import Mapping
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from hashlib import sha256
from itertools import repeat
from math import factorial
from typing import Callable, Iterable, Sequence

from .fraisse import DEFAULT_POSET_CAP, OrderPresentation, PosetStage, StageBuilder
from .fraisse import _sort_key
from .measure import (
    DEFAULT_EXTENSION_CAP,
    _bits,
    _count_extensions,
    adjacency_clause,
    linear_extension_count,
    mu_adjacency,
)
from .orders import (
    And,
    EventExpr,
    FiniteOrder,
    Or,
    OrderPrefix,
    evaluate,
)

SAMPLE_SIZE_CAP = 10**6
KEY_BITS = 256


class MLLevelUnavailable(RuntimeError):
    """No event of small enough measure is reachable within the caps."""


def _digest(tag: bytes, seed: int, n: int) -> bytes:
    material = tag + (seed % 2**64).to_bytes(8, "big") + n.to_bytes(8, "big")
    return sha256(material).digest()


class _RankView(Mapping):
    """Element x < n -> its sort key, derived only when read."""

    def __init__(self, n: int, rank: Callable[[int], object]):
        self._n = n
        self._rank = rank

    def __getitem__(self, x: int):
        if 0 <= x < self._n:
            return self._rank(x)
        raise KeyError(x)

    def __len__(self) -> int:
        return self._n

    def __iter__(self):
        return iter(range(self._n))


class _RankedOrderSource:
    """An order on N given by a sort key per element, read two ways.

    Subclasses provide ``_rank(x)``, the sort key of element x.
    ``prefix(N)`` sorts range(N) by it; ``order(N)`` hands out the keys
    themselves as a mapping that evaluate can compare, deriving each one only
    when it is read, so the two agree, ties included.  Both share the size
    cap and max_prefix_requested.
    """

    max_prefix_requested = 0

    def _claim(self, N: int):
        if N > SAMPLE_SIZE_CAP:
            raise ValueError(f"prefix size {N} exceeds cap {SAMPLE_SIZE_CAP}")
        self.max_prefix_requested = max(self.max_prefix_requested, N)

    def order(self, N: int) -> Mapping:
        """The order on range(N) as element -> sort key, revealed lazily."""
        self._claim(N)
        return _RankView(N, self._rank)

    def prefix(self, N: int) -> OrderPrefix:
        self._claim(N)
        return OrderPrefix.from_sequence(sorted(range(N), key=self._rank))


class RandomOrderStream(_RankedOrderSource):
    """A lazily revealed random total order on N, determined by the seed.

    ``keys(start, stop)`` is the one loop that derives keys; it returns them
    and keeps none, so a caller that reads a whole range (the certificate
    scanner) stores each key once, in its own list.  ``key(n)`` memoizes the
    single reads in ``_keys``.  Single-owner mutable (the key table grows on
    demand); drive distinct seeds concurrently instead of sharing one stream.
    """

    def __init__(self, seed: int):
        self.seed = seed
        self._prefix = sha256(b"uminflow-order" + (seed % 2**64).to_bytes(8, "big"))
        self._keys: dict[int, int] = {}

    def keys(self, start: int, stop: int) -> list[int]:
        """The keys of elements start..stop-1, derived and not kept; an index
        outside [0, 2^64) raises OverflowError."""
        copy = self._prefix.copy
        digests = []
        for n in range(start, stop):
            h = copy()
            h.update(n.to_bytes(8, "big"))
            digests.append(h.digest())
        return list(map(int.from_bytes, digests, repeat("big")))

    def key(self, n: int) -> int:
        """Element n's key: _digest(b"uminflow-order", seed, n) as an integer."""
        k = self._keys.get(n)
        if k is None:
            k = self._keys[n] = self.keys(n, n + 1)[0]
        return k

    def less(self, a: int, b: int) -> bool:
        ka, kb = self.key(a), self.key(b)
        # equal keys (2^-256 per pair) fall back to the index, as _rank does
        return ka < kb or (ka == kb and a < b)

    def _rank(self, x: int) -> tuple[int, int]:
        return (self.key(x), x)

    def presentation(self) -> OrderPresentation:
        return OrderPresentation(
            f"stream-{self.seed}",
            self.less,
            lambda n: Fraction(self.key(n), 2**KEY_BITS),
        )


def sample_prefix(seed: int, N: int) -> OrderPrefix:
    """A uniform draw over the N! orders on {0,...,N-1}; same seed, same order."""
    return RandomOrderStream(seed).prefix(N)


class PresentationOrderSource(_RankedOrderSource):
    """A fixed decidable order exposed through the prefix interface, so that
    structured orders can be run through the same tests as sampled ones."""

    def __init__(self, pres: OrderPresentation):
        self.pres = pres
        self._rank = _sort_key(pres)


def sample_bits(seed: int, count: int) -> str:
    """A deterministic fair-coin bit string, independent of the order keys."""
    chunks = []
    block = 0
    while 256 * len(chunks) < count:
        chunks.append(_digest(b"uminflow-bits", seed, block))
        block += 1
    bits = "".join(f"{byte:08b}" for chunk in chunks for byte in chunk)
    return bits[:count]


# ---------------------------------------------------------------------------
# Test families


class _Parts:
    """A family's part list: part i is made from its index on first read.

    Reading part i makes any missing part below it too.  Reads come in index
    order from 0 (an evaluation stops at the first part that fails, a built
    event reads a whole prefix), so that makes no part a read does not need.
    """

    def __init__(self, make: Callable[[int], EventExpr]):
        self._make = make
        self.built: list[EventExpr] = []

    def __getitem__(self, i: int) -> EventExpr:
        built = self.built
        while len(built) <= i:
            built.append(self._make(len(built)))
        return built[i]


@dataclass(frozen=True, eq=False)
class TestLevel:
    """One level of a shrinking family: its exact measure, its window (the
    size of the initial segment range(window) that holds the event's
    support), and its event, the Or of the And-prefixes in ``prefixes``.

    ``prefixes`` holds (parts, length) pairs whose parts are made on first
    read, so a level costs nothing until it is decided; run_ml_tests reads
    the parts one at a time.  ``event`` builds the whole expression on first
    access (a single prefix is its bare And).

    A family raises MLLevelUnavailable for a level whose window exceeds the
    sample cap SAMPLE_SIZE_CAP, before it builds any of the level, and
    run_ml_tests reports that as "level budget exhausted at k".
    """

    k: int
    exact_measure: Fraction
    window: int
    prefixes: tuple[tuple[_Parts, int], ...]

    @cached_property
    def event(self) -> EventExpr:
        ands = tuple(
            And(tuple(parts[i] for i in range(length)))
            for parts, length in self.prefixes
        )
        return ands[0] if len(ands) == 1 else Or(ands)


def _check_window(k: int, window: int):
    if window > SAMPLE_SIZE_CAP:
        raise MLLevelUnavailable(
            f"level {k} needs a window of {window}, over the sample cap "
            f"{SAMPLE_SIZE_CAP}"
        )


@dataclass(frozen=True, eq=False)
class MLTestFamily:
    """A named family of events with measure at level k at most 2^-k."""

    name: str
    level_fn: Callable[[int], TestLevel]

    def level(self, k: int) -> TestLevel:
        lvl = self.level_fn(k)
        if lvl.exact_measure > Fraction(1, 2**k):
            raise AssertionError(
                f"family {self.name} level {k} has measure {lvl.exact_measure}"
            )
        return lvl


def density_test_family(n_pair: tuple[int, int]) -> MLTestFamily:
    """Levels assert that the pair stays adjacent inside a growing window.

    Level k uses window size N(k) = 2^(k+1) * max(2, n+1, m+1), so the exact
    measure 2/N(k) is at most 2^-k.  Its event is adjacency_event(n, m, N(k)),
    the And of the first N(k) - 2 parts of one clause list: part i is
    adjacency_clause(n, m, j) for the i-th j outside {n, m}, made the first
    time a level reads it.
    """
    n, m = n_pair
    if n == m:
        raise ValueError("the two points must differ")
    if n < 0 or m < 0:
        raise ValueError(f"points must be non-negative, got ({n}, {m})")
    lo, hi = sorted(n_pair)

    def clause(i: int) -> EventExpr:
        j = i + (i >= lo)
        return adjacency_clause(n, m, j + (j >= hi))

    clauses = _Parts(clause)

    def level(k: int) -> TestLevel:
        N = 2 ** (k + 1) * max(2, n + 1, m + 1)
        measure = mu_adjacency(n, m, N)
        _check_window(k, N)
        return TestLevel(k, measure, N, ((clauses, N - 2),))

    return MLTestFamily(f"density({n},{m})", level)


def unbounded_test_family(n: int) -> MLTestFamily:
    """Levels assert that n stays extremal among {0,...,N(k)}.

    Being minimal and being maximal in a window of w points each have
    measure 1/w and cannot happen together, so the level measure is exactly
    2/(N(k)+1) <= 2^-k for N(k) = max(2^(k+1)-1, n+1).  Its event is the Or
    of the first N(k) parts of two atom lists, ``n<j`` and ``j<n`` for the
    i-th j other than n, each atom made the first time a level reads it.
    """
    if n < 0:
        raise ValueError(f"the point must be non-negative, got {n}")
    below = _Parts(lambda i: FiniteOrder((n, i + (i >= n))))
    above = _Parts(lambda i: FiniteOrder((i + (i >= n), n)))

    def level(k: int) -> TestLevel:
        N = max(2 ** (k + 1) - 1, n + 1)
        _check_window(k, N + 1)
        return TestLevel(k, Fraction(2, N + 1), N + 1, ((below, N), (above, N)))

    return MLTestFamily(f"unbounded({n})", level)


def poset_level_measure(
    stage: PosetStage, *, extension_cap: int = DEFAULT_EXTENSION_CAP
) -> Fraction:
    """Exact measure of the event of extending a stage of the universal poset."""
    count = linear_extension_count(stage.stage, cap=extension_cap)
    return Fraction(count, factorial(stage.stage.n))


def _stage_level(builder: StageBuilder, N: int) -> tuple[Fraction, list]:
    """Stage N's extension measure and its relation as sorted pairs, read
    off the builder's masks.  It is not folded into ``poset_level_measure``:
    a fold over raw masks would let public callers pass unvalidated masks."""
    pred = builder.preds(N)
    pairs = sorted((a, b) for b, p in enumerate(pred) for a in _bits(p))
    return Fraction(_count_extensions((1 << N) - 1, pred), factorial(N)), pairs


def poset_test_family(
    *,
    poset_cap: int = DEFAULT_POSET_CAP,
    extension_cap: int = DEFAULT_EXTENSION_CAP,
) -> MLTestFamily:
    """Levels assert extension of ever-larger stages of the universal poset.

    There is no a-priori window schedule; level k searches for the least
    stage whose exact extension measure drops below 2^-k, and raises
    MLLevelUnavailable once the exact-counting cap or the sample cap is hit.
    Measures decrease with the stage, so every stage below the one a lower
    level j < k chose has measure above 2^-j > 2^-k: the search resumes
    there.  Asked in order, the levels count each stage's extensions at most
    once per family.  The family grows one stage builder of its own and
    reads each stage's relation off the builder's masks (``_stage_level``),
    with no stage object built; the search range stops at the poset cap and
    at the extension cap.  A level's event is the And of its stage's
    relation atoms in sorted order, one part list per stage, each atom made
    the first time a level reads it.
    """
    builder = StageBuilder()
    stages: dict[int, tuple[Fraction, tuple[_Parts, int]]] = {}  # N -> measure, atoms
    chosen: dict[int, int] = {}  # level k -> its stage

    def level(k: int) -> TestLevel:
        bound = Fraction(1, 2**k)
        start = max((N for j, N in chosen.items() if j < k), default=1)
        for N in range(start, min(poset_cap, extension_cap, SAMPLE_SIZE_CAP) + 1):
            if N not in stages:
                measure, pairs = _stage_level(builder, N)
                atoms = _Parts(lambda i, pairs=pairs: FiniteOrder(pairs[i]))
                stages[N] = measure, (atoms, len(pairs))
            measure, atoms = stages[N]
            if measure <= bound:
                chosen[k] = N
                return TestLevel(k, measure, N, (atoms,))
        raise MLLevelUnavailable(
            f"no stage within cap has extension measure below 2^-{k}"
        )

    return MLTestFamily("poset-extension", level)


# ---------------------------------------------------------------------------
# Verdicts


@dataclass(frozen=True)
class LevelResult:
    k: int
    exact_measure: Fraction
    member: bool


@dataclass(frozen=True)
class FamilyVerdict:
    family: str
    levels: tuple[LevelResult, ...]
    verdict: str

    def to_json(self) -> dict:
        return {
            "family": self.family,
            "levels": [
                {"k": r.k, "exact_mu": str(r.exact_measure), "member": r.member}
                for r in self.levels
            ],
            "verdict": self.verdict,
        }


def _prefix_holds(parts: _Parts, length: int, order, known: dict) -> bool:
    """Whether parts 0..length-1 all hold in the order, reading them in order
    and stopping at the first that fails.

    A part's truth depends only on the order, and the levels of a family
    read prefixes of the same part lists, so ``known[parts]`` = (h, fails)
    carries over between levels: parts 0..h-1 hold, and part h fails if
    ``fails``.  Each part is evaluated at most once per stream.
    """
    held, fails = known.get(parts, (0, False))
    while held < length and not fails:
        if evaluate(parts[held], order):
            held += 1
        else:
            fails = True
    known[parts] = (held, fails)
    return held >= length


def run_ml_tests(
    stream, families: Iterable[MLTestFamily], depth: int
) -> list[FamilyVerdict]:
    """Evaluate membership of the stream in each family level up to depth.

    Each level is decided on ``stream.order(lvl.window)``, a lazy view of
    the order on the level's window, by evaluating its parts one at a time
    and stopping where the Or of And-prefixes would stop: the answer is
    ``evaluate(lvl.event, ...)``, but only the parts read are ever made,
    none is evaluated twice for one stream (see _prefix_holds), and only the
    keys of the elements they compare are derived; no prefix is sorted.
    The verdict names the greatest failed level, or reports a pass to the
    depth actually reached; a level the family cannot provide (over a cap)
    ends the run with "level budget exhausted at k", a verdict, not an
    error.
    """
    if depth < 0:
        raise ValueError(f"depth must be non-negative, got {depth}")
    out = []
    known: dict[_Parts, tuple[int, bool]] = {}
    for family in families:
        levels: list[LevelResult] = []
        exhausted_at: int | None = None
        for k in range(1, depth + 1):
            try:
                lvl = family.level(k)
            except MLLevelUnavailable:
                exhausted_at = k
                break
            order = stream.order(lvl.window)
            member = any(
                _prefix_holds(parts, length, order, known)
                for parts, length in lvl.prefixes
            )
            levels.append(LevelResult(k, lvl.exact_measure, member))
        failed = [r.k for r in levels if r.member]
        if failed:
            verdict = f"fails level {max(failed)}"
        else:
            verdict = f"passes to depth {levels[-1].k if levels else 0}"
        if exhausted_at is not None:
            verdict += f" (level budget exhausted at {exhausted_at})"
        out.append(FamilyVerdict(family.name, tuple(levels), verdict))
    return out


# ---------------------------------------------------------------------------
# The bitstream <-> graph codec


@dataclass(frozen=True)
class GraphPrefix:
    """A finite simple graph on {0,...,n-1}; edges stored as (i, j), i < j."""

    n: int
    edges: frozenset[tuple[int, int]]

    def __post_init__(self):
        if self.n < 0:
            raise ValueError(f"graph vertex count must be non-negative, got {self.n}")
        for i, j in self.edges:
            if not (0 <= i < j < self.n):
                raise ValueError(f"bad edge ({i}, {j}) for {self.n} vertices")

    def adjacent(self, i: int, j: int) -> bool:
        if i == j:
            return False
        return (min(i, j), max(i, j)) in self.edges

    def edge_list(self) -> list[tuple[int, int]]:
        return sorted(self.edges)


def pair_code(i: int, j: int) -> int:
    """The fixed pairing bijection: colex rank of the pair {i < j}."""
    if i == j:
        raise ValueError("pairs have two distinct members")
    if i > j:
        i, j = j, i
    return j * (j - 1) // 2 + i


def code_pair(c: int) -> tuple[int, int]:
    j = 1
    while j * (j + 1) // 2 <= c:
        j += 1
    return c - j * (j - 1) // 2, j


def _vertex_count(n_bits: int) -> int:
    v = 0
    while v * (v - 1) // 2 < n_bits:
        v += 1
    return v


def _as_bits(bits) -> list[int]:
    if isinstance(bits, str):
        if set(bits) - {"0", "1"}:
            raise ValueError("bit strings contain only 0 and 1")
        return [int(c) for c in bits]
    return [int(b) for b in bits]


def graph_from_bits(bits: str | Sequence[int]) -> GraphPrefix:
    """Decode a bit string into a graph: bit pair_code({i,j}) is the edge {i,j}."""
    values = _as_bits(bits)
    n = _vertex_count(len(values))
    pairs = ((i, j) for j in range(n) for i in range(j))  # in pair_code order
    edges = frozenset(p for p, b in zip(pairs, values) if b)
    return GraphPrefix(n, edges)


def bits_from_graph(g: GraphPrefix) -> str:
    """Inverse of graph_from_bits on graphs with a full triangular bit count."""
    return "".join(
        "1" if (i, j) in g.edges else "0" for j in range(g.n) for i in range(j)
    )


def graph_extension_witness(
    g: GraphPrefix, A: Iterable[int], B: Iterable[int]
) -> int | None:
    """Least vertex adjacent to all of A and none of B, if one exists."""
    A, B = set(A), set(B)
    if A & B:
        raise ValueError(f"demand sets intersect: {sorted(A & B)}")
    for z in range(g.n):
        if z in A or z in B:
            continue
        if all(g.adjacent(z, a) for a in A) and not any(g.adjacent(z, b) for b in B):
            return z
    return None

"""Permutation prefixes that transport a recursive dense order onto a sampled one.

A depth-n certificate records a partial permutation sigma with
a <_tau b  iff  sigma(a) <_xi sigma(b) over its whole domain: the finite,
checkable part of "sigma carries tau to the sampled order".  Full membership
in the randomizer set is a tail property and is never asserted; certificates
only ever claim their verified depth, and verify only if their pairs cover it.

Certificates come from the back-and-forth engine of the fraisse module, with
this module's two pickers: forth steps take the stream index whose key lies
nearest a target interpolated from tau's values (``fraisse._values``, read
off the comparisons when tau has no value function), back steps take tau's
``locate_fn`` image, or else the code nearest the interpolated value.
Sigma preserves order at every step, so no index already in it lies between
the images of a point's nearest mapped neighbours (found by bisecting sorted
keys): the pickers scan that interval with no record of taken indices.
Verification and the conjugation check sort a map's domain by tau's sort
key and check that its images rise (``_carries``).

The automorphism search (``_automorphisms``) has no bound of its own: on an
antichain of n points all n! maps are automorphisms.  ``stage_automorphisms``
is bounded only by the poset cap, and ``poset_automorphism_obstruction``
checks the extension cap first.  Stage 16 has one automorphism.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .fraisse import (
    DEFAULT_POSET_CAP,
    DEFAULT_SEARCH_BUDGET,
    OrderPresentation,
    _alternate,
    _each,
    _scanner,
    _sort_key,
    _values,
    poset_extension_test,
    universal_poset_stage,
)
from .measure import DEFAULT_EXTENSION_CAP, _bits
from .orders import OrderPrefix, PartialPermutation, act
from .sampler import KEY_BITS, RandomOrderStream, poset_level_measure

_KEY_SPACE = 2**KEY_BITS
_STREAM_INDICES = 2**64  # a stream derives keys for indices below this


@dataclass(frozen=True)
class RandomizerCertificate:
    """A verified-depth witness that sigma carries tau onto the seeded order."""

    sigma: PartialPermutation
    tau_id: str
    seed: int
    n: int

    def to_json(self) -> dict:
        return {
            "seed": self.seed,
            "tau": self.tau_id,
            "pairs": [list(p) for p in self.sigma.pairs],
            "depth": self.n,
        }

    @classmethod
    def from_json(cls, data) -> "RandomizerCertificate":
        """Parse to_json output; ValueError names what is malformed."""
        if not isinstance(data, dict):
            raise ValueError("certificate must be a JSON object")
        missing = sorted({"seed", "tau", "pairs", "depth"} - data.keys())
        if missing:
            raise ValueError(f"certificate lacks {', '.join(missing)}")
        seed, tau, pairs, depth = (data[k] for k in ("seed", "tau", "pairs", "depth"))
        if not (type(seed) is int and _is_natural(depth)):
            raise ValueError("certificate seed must be an integer, depth a natural")
        if not isinstance(tau, str):
            raise ValueError("certificate tau must be a string")
        if not isinstance(pairs, list) or not all(
            isinstance(p, list) and len(p) == 2 and all(map(_is_natural, p))
            for p in pairs
        ):
            raise ValueError("certificate pairs must be [a, b] pairs of naturals")
        if any(b >= _STREAM_INDICES for _, b in pairs):
            raise ValueError("certificate images must be stream indices below 2^64")
        sigma = PartialPermutation(tuple((a, b) for a, b in pairs))
        return cls(sigma, tau, seed, depth)


def _is_natural(v) -> bool:
    return type(v) is int and v >= 0  # not a bool, though bool subclasses int


def compute_randomizer(
    tau: OrderPresentation,
    xi: RandomOrderStream,
    n: int,
    *,
    search_budget: int = DEFAULT_SEARCH_BUDGET,
) -> RandomizerCertificate:
    """Back-and-forth between tau and the stream's order, to depth n.

    Greedy least-index images wedge quickly here: nested order demands (for
    example a chain of values shrinking toward a point) cut the feasible key
    interval by a random factor each step, so the witness index blows up
    exponentially with depth.  Images are instead chosen near the key
    proportional to the element's position in value space, which keeps the
    shrinkage polynomial.  The stream still reveals keys on demand, a scan
    chunk at a time (``xi.keys``, kept only in the scanner's list), and a
    search past the budget raises with the blocking point.
    """
    value = _values(tau)

    scan_keys = _scanner(xi.keys, search_budget)
    scan_codes = _scanner(_each(value), search_budget)

    def forth(va, lo, hi):
        # lo, hi: (value, image key) of the nearest mapped neighbours in tau
        (v_lo, lo_key), (v_hi, hi_key) = lo, hi
        if v_lo is not None and v_hi is not None:
            t = (va - v_lo) / (v_hi - v_lo)
        elif v_lo is not None:
            t = Fraction(1, 10)  # new maximum: leave most key space above
        elif v_hi is not None:
            t = Fraction(9, 10)  # new minimum: leave most key space below
        else:
            t = Fraction(1, 2)
        lo_key = 0 if lo_key is None else lo_key
        hi_key = _KEY_SPACE if hi_key is None else hi_key
        target = lo_key + int(t * (hi_key - lo_key))
        return scan_keys(lo_key, hi_key, target, enough=3)

    def back(kb, lo, hi):
        # lo, hi: (key, preimage value) of the nearest mapped neighbours in xi
        (k_lo, v_lo), (k_hi, v_hi) = lo, hi
        interior = v_lo is not None and v_hi is not None
        if interior:
            target = v_lo + Fraction(kb - k_lo, k_hi - k_lo) * (v_hi - v_lo)
        elif v_lo is not None:
            target = v_lo + 1
        elif v_hi is not None:
            target = v_hi - 1
        else:
            target = Fraction(0)
        if tau.locate_fn is not None:
            return tau.locate_fn(v_lo, v_hi, target)
        # no scale at the ends: take the least code there
        return scan_codes(v_lo, v_hi, target if interior else None)

    fwd = _alternate(n, value, xi.key, forth, back, search_budget)
    return RandomizerCertificate(
        PartialPermutation.from_mapping(fwd), tau.name, xi.seed, n
    )


def _carries(pairs, key, less) -> bool:
    """Whether the injective map ``pairs`` carries the order of ``key`` onto
    the strict total order ``less``: a < b iff f(a) < f(b) over every pair.
    Both orders are total and the map injective, so that holds exactly when
    the images, read in key order, rise under ``less``: O(n log n) work."""
    images = [fa for _, fa in sorted(pairs, key=lambda p: key(p[0]))]
    return all(less(fa, fb) for fa, fb in zip(images, images[1:]))


def verify_certificate(
    c: RandomizerCertificate, tau: OrderPresentation, xi: RandomOrderStream
) -> bool:
    """Check that the pairs cover range(c.n) on both sides and, re-deriving
    the stream order, that the invariant holds over every pair."""
    if c.seed != xi.seed:
        raise ValueError(f"certificate seed {c.seed} does not match stream {xi.seed}")
    if c.tau_id != tau.name:
        raise ValueError(
            f"certificate source {c.tau_id!r} does not match presentation {tau.name!r}"
        )
    depth = set(range(c.n))
    if not (c.sigma.domain() >= depth and c.sigma.range() >= depth):
        return False
    return _carries(c.sigma.pairs, _sort_key(tau), xi.less)


def conjugation_check(
    sigma: PartialPermutation,
    pi: PartialPermutation,
    tau: OrderPresentation,
    xi_prefix: OrderPrefix,
) -> bool:
    """The prefix image of conjugating the randomizer set by a permutation.

    Checks that sigma carries tau to the prefix order exactly when
    sigma o pi^-1 carries pi.tau to it, and reports whether the two sides
    agree (they must, in both the holding and the failing case).
    """
    if any(b >= xi_prefix.n for _, b in sigma.pairs):
        raise ValueError("sigma maps outside the prefix domain")
    if not pi.domain() >= sigma.domain():
        raise ValueError("pi is not defined on sigma's domain")

    key = _sort_key(tau)
    lhs = _carries(sigma.pairs, key, xi_prefix.less)
    pushed = {pi(a): key(a) for a in sigma.domain()}  # pi.tau's key, read along pi
    sigma_conj = sigma.compose(pi.inverse())  # sigma o pi^-1, defined on pi(dom)
    rhs = _carries(sigma_conj.pairs, pushed.__getitem__, xi_prefix.less)
    return lhs == rhs


@dataclass(frozen=True)
class ObstructionReport:
    """Every stage automorphism leaves the distinguished extension trapped."""

    n: int
    automorphism_count: int
    trapped_count: int
    event_measure: Fraction

    @property
    def all_trapped(self) -> bool:
        return self.trapped_count == self.automorphism_count


def stage_automorphisms(n: int, *, cap: int = DEFAULT_POSET_CAP):
    """All relation-preserving bijections of stage n of the universal poset,
    in ``itertools.permutations`` order."""
    yield from _automorphisms(universal_poset_stage(n, cap=cap).stage.pred)


def _automorphisms(below: tuple[int, ...]):
    """The bijections of range(n), n = len(below), that preserve a relation
    both ways, in ``itertools.permutations`` order; ``below[b]`` masks the
    points related to b, as ``FinitePoset.pred`` does for a poset.

    A partial map is extended point by point.  Point x tries, in increasing
    order, each unused point y with x's down- and up-degree whose relations
    to the images of 0..x-1 are those of x to 0..x-1; so each complete map
    preserves the relation both ways, and the maps come in lexicographic
    order.
    """
    n = len(below)
    above = [0] * n  # per point: the points above it
    for b, p in enumerate(below):
        for a in _bits(p):
            above[a] |= 1 << b
    degree = [(below[x].bit_count(), above[x].bit_count()) for x in range(n)]
    candidates = [[y for y in range(n) if degree[y] == degree[x]] for x in range(n)]
    image: list[int] = []

    def extend(x: int, used: int):
        if x == n:
            yield PartialPermutation(tuple(enumerate(image)))
            return
        earlier = (1 << x) - 1
        want_below = sum(1 << image[a] for a in _bits(below[x] & earlier))
        want_above = sum(1 << image[a] for a in _bits(above[x] & earlier))
        for y in candidates[x]:
            if (
                not used >> y & 1
                and below[y] & used == want_below
                and above[y] & used == want_above
            ):
                image.append(y)
                yield from extend(x + 1, used | 1 << y)
                image.pop()

    return extend(0, 0)


def poset_automorphism_obstruction(
    n: int,
    *,
    cap: int = DEFAULT_POSET_CAP,
    extension_cap: int = DEFAULT_EXTENSION_CAP,
) -> ObstructionReport:
    """Demonstrate at finite scale why no stage automorphism randomizes.

    Acting on the stage's own linear extension by any automorphism lands
    back inside the extension event, whose exact measure shrinks with n.
    """
    stage = universal_poset_stage(n, cap=cap)
    # measured first: the extension cap refuses before the n! search below
    measure = poset_level_measure(stage, extension_cap=extension_cap)
    automorphisms = _automorphisms(stage.stage.pred)
    trapped = [poset_extension_test(act(g, stage.canon), stage) for g in automorphisms]
    return ObstructionReport(n, len(trapped), sum(trapped), measure)

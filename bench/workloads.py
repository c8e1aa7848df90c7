"""Workload generators, the ops they run and the checks on every output.

Each workload yields cycles of ops.  An op is built from the workload seed
and its position alone, runs one or more public uminflow calls, checks what
came back and returns the canonical text of its output (hashed into the
run's seeded-output digest).  An op that raises, or whose CLI call exits
non-zero, is a failed op; an op whose output is wrong is a failed op that
also makes the run incorrect.  A certificate whose search runs out of budget
is a refused op: counted by kind and hashed into the digest, but not failed.
"""

from __future__ import annotations

import json
import os
import random
import time
from dataclasses import dataclass
from fractions import Fraction
from math import factorial, gcd
from typing import Callable


class WrongOutput(Exception):
    """An output check failed: the program returned a wrong answer."""


class OpFailed(Exception):
    """The program refused or crashed on an op (counted, not fatal)."""

    def __init__(self, kind: str, detail: str):
        super().__init__(f"{kind}: {detail}")
        self.kind = kind


class Refused(Exception):
    """The program gave its documented refusal (counted, not a failure)."""

    def __init__(self, kind: str, detail: str):
        super().__init__(f"{kind}: {detail}")
        self.kind = kind


class Stopwatch:
    """Accumulates the time an op spends inside uminflow calls."""

    def __init__(self):
        self.seconds = 0.0

    def call(self, fn, *args):
        t0 = time.perf_counter()
        try:
            return fn(*args)
        finally:
            self.seconds += time.perf_counter() - t0


@dataclass
class Op:
    kind: str
    key: str  # names the input; equal keys in one run must give equal outputs
    run: Callable[[Stopwatch], str]  # -> canonical output text


def _check(cond: bool, message: str):
    if not cond:
        raise WrongOutput(message)


def _call(sw: Stopwatch, fn, *args):
    """Call into uminflow; an exception that escapes it fails the op."""
    try:
        return sw.call(fn, *args)
    except Exception as exc:  # the op boundary: record the type, keep running
        raise OpFailed(type(exc).__name__, str(exc)) from None


def _cli(um, sw: Stopwatch, argv: list[str]):
    """Run the CLI in process; a non-zero exit also fails the op."""
    code = _call(sw, um.cli.main, argv)
    if code != 0:
        raise OpFailed(f"exit{code}", " ".join(argv))


def _read(path: str) -> str:
    with open(path) as fh:
        return fh.read()


# ---------------------------------------------------------------------------
# exact-measure: parse an event, measure it by both routes, compare


def _literal(rng: random.Random, points: list[int]) -> str:
    atom = f"ord({'<'.join(map(str, rng.sample(points, rng.choice((2, 3)))))})"
    return "!" + atom if rng.random() < 1 / 3 else atom


def _tree_text(rng: random.Random, s: int) -> str:
    """A boolean tree over exactly s points whose signed DNF stays small:
    an Or of 2-3 conjunctions, each holding at most one binary Or."""
    points = rng.sample(range(64), s)
    shuffled = points[:]
    rng.shuffle(shuffled)
    chunks, i = [], 0
    while i < s:  # 2- and 3-point atoms that together cover every point
        size = 2 if s - i in (2, 4) else 3
        chunks.append(f"ord({'<'.join(map(str, shuffled[i:i + size]))})")
        i += size
    groups = [[c] for c in chunks[:2]] + [[] for _ in range(rng.choice((0, 1)))]
    for c in chunks[2:]:
        rng.choice(groups).append(c)
    conjunctions = []
    for g in groups:
        factors = g + [_literal(rng, points) for _ in range(rng.choice((1, 2)))]
        factors.append(f"({_literal(rng, points)} | {_literal(rng, points)})")
        rng.shuffle(factors)
        conjunctions.append("(" + " & ".join(factors) + ")")
    return " | ".join(conjunctions)


def _adjacency_text(rng: random.Random, N: int) -> tuple[str, Fraction]:
    """No point of an N-point window lies between n and m: measure 2/N."""
    window = rng.sample(range(64), N)
    n, m, rest = window[0], window[1], window[2:]
    clauses = [f"!(ord({n}<{j}<{m}) | ord({m}<{j}<{n}))" for j in rest]
    return " & ".join(clauses), Fraction(2, N)


def _and_of_or_text(rng: random.Random, width: int) -> str:
    """An And of binary Ors of 2-point atoms on 8 points: its DNF has about
    2^width conjunctions, past the weight route's union cap of 16."""
    points = rng.sample(range(64), 8)
    clauses = []
    for _ in range(width):
        a, b, c, d = rng.sample(points, 4)
        clauses.append(f"(ord({a}<{b}) | ord({c}<{d}))")
    return " & ".join(clauses)


# Two adjacency events over 6 points sit at the middle of a cycle's latency
# order, and their cost does not depend on the seed, so the median op is
# always one of them rather than whichever tree shape the seed drew.
EXACT_CYCLE = (
    [("cylinder", k) for k in (5, 6, 7, 8)]
    + [("adjacency", N) for N in (5, 6, 6, 7, 8)]
    + [("tree", s) for s in (5, 6, 7, 8)]
    + [("and-of-or", 12)]
)


def exact_measure_cycle(um, seed: int, cycle: int, scratch: str) -> list[Op]:
    rng = random.Random(f"exact-measure/{seed}/{cycle}")
    ops = []
    for kind, size in EXACT_CYCLE:
        expected = None
        if kind == "cylinder":
            text = f"ord({'<'.join(map(str, rng.sample(range(64), size)))})"
            expected = Fraction(1, factorial(size))
        elif kind == "adjacency":
            text, expected = _adjacency_text(rng, size)
        elif kind == "tree":
            text = _tree_text(rng, size)
        else:
            text = _and_of_or_text(rng, size)
        ops.append(Op(f"{kind}-{size}", text, _exact_op(um, kind, text, expected)))
    return ops


def _exact_op(um, kind: str, text: str, expected: Fraction | None):
    def run(sw: Stopwatch) -> str:
        event = _call(sw, um.orders.parse_event, text)
        exact = _call(sw, um.measure.mu_exact, event)
        try:
            weight = sw.call(um.measure.mu_weight_exact, event)
        except um.measure.CapExceededError as exc:
            if kind != "and-of-or":
                raise OpFailed("CapExceededError", str(exc)) from None
            weight = "refused"  # the documented refusal past the union cap
        except Exception as exc:
            raise OpFailed(type(exc).__name__, str(exc)) from None
        _check(0 <= exact <= 1, f"mu_exact {exact} outside [0, 1] for {text}")
        if weight != "refused":
            _check(exact == weight, f"routes disagree on {text}: {exact} != {weight}")
        if expected is not None:
            _check(exact == expected, f"closed form {expected} != {exact} for {text}")
        return f"{text}\t{exact}\t{weight}"

    return run


# ---------------------------------------------------------------------------
# ml-verdicts: one `uminflow test` per seed, verdict JSON checked level by level

# Op seeds of workload seed n start at SEED_STRIDE * n, so runs with
# different workload seeds never share an op.
SEED_STRIDE = 100_000
ML_DEPTH = 9
ML_CYCLE_OPS = 10


def _density_mu(k: int, n: int = 0, m: int = 1) -> Fraction:
    return Fraction(2, 2 ** (k + 1) * max(2, n + 1, m + 1))


def _unbounded_mu(k: int, n: int = 0) -> Fraction:
    return Fraction(2, max(2 ** (k + 1) - 1, n + 1) + 1)


def ml_verdicts_cycle(um, seed: int, cycle: int, scratch: str) -> list[Op]:
    base = SEED_STRIDE * seed + ML_CYCLE_OPS * cycle
    return [Op("test", f"test {s}", _ml_op(um, s, scratch))
            for s in range(base, base + ML_CYCLE_OPS)]


def _ml_op(um, s: int, scratch: str):
    out = os.path.join(scratch, "verdicts.json")

    def run(sw: Stopwatch) -> str:
        _cli(um, sw, [
            "test", "--seed", str(s), "--depth", str(ML_DEPTH),
            "--families", "density,unbounded,poset", "--format", "json",
            "--out", out,
        ])
        text = _read(out)
        runs = json.loads(text)
        _check(len(runs) == 1 and runs[0]["seed"] == s, f"seed {s}: wrong runs")
        reports = runs[0]["reports"]
        _check([r["family"] for r in reports]
               == ["density(0,1)", "unbounded(0)", "poset-extension"],
               f"seed {s}: wrong families")
        for rep in reports:
            levels = rep["levels"]
            for lvl in levels:
                k, mu = lvl["k"], Fraction(lvl["exact_mu"])
                _check(0 < mu <= Fraction(1, 2**k), f"seed {s}: level {k} mu {mu}")
                if rep["family"] == "density(0,1)":
                    _check(mu == _density_mu(k), f"seed {s}: density level {k}")
                elif rep["family"] == "unbounded(0)":
                    _check(mu == _unbounded_mu(k), f"seed {s}: unbounded level {k}")
            ks = [lvl["k"] for lvl in levels]
            _check(ks == list(range(1, len(ks) + 1)), f"seed {s}: level gaps")
            if rep["family"] != "poset-extension":
                _check(len(ks) == ML_DEPTH, f"seed {s}: {rep['family']} short")
            failed = [lvl["k"] for lvl in levels if lvl["member"]]
            verdict = (f"fails level {max(failed)}" if failed
                       else f"passes to depth {ks[-1] if ks else 0}")
            _check(rep["verdict"].startswith(verdict),
                   f"seed {s}: verdict {rep['verdict']!r} != {verdict!r}")
        return text

    return run


# ---------------------------------------------------------------------------
# transport: randomizer certificates and back-and-forth isomorphisms

CERT_DEPTH = 150
ISO_SIZES = (100, 200, 400)
# Seeds whose depth-150 certificate exhausts the search budget on the
# revision that introduced this benchmark; kept in every cycle so that the
# refusal shows in every run until the back-and-forth engine is fixed.
BUDGET_SEEDS = (5, 28)


def transport_cycle(um, seed: int, cycle: int, scratch: str) -> list[Op]:
    """One new certificate seed, the three iso sizes and one budget seed.

    Certificate costs and refusals vary from seed to seed, so one new seed
    per cycle keeps that variance from swamping the run's metrics."""
    ops = [_cert_op(um, SEED_STRIDE * seed + cycle, scratch)]
    for n in ISO_SIZES:
        ops.append(Op(f"iso-{n}", f"iso {n}", _iso_op(um, n, scratch)))
    ops.append(_cert_op(um, BUDGET_SEEDS[cycle % len(BUDGET_SEEDS)], scratch))
    return ops


def _cert_op(um, s: int, scratch: str) -> Op:
    cert_path = os.path.join(scratch, "cert.json")
    verify_path = os.path.join(scratch, "verify.json")

    def run(sw: Stopwatch) -> str:
        try:
            _cli(um, sw, ["randomizer", "--seed", str(s), "--depth",
                          str(CERT_DEPTH), "--out", cert_path])
        except OpFailed as exc:
            # The back-and-forth search gives up past its key budget; the
            # same seed always gives up at the same demand (see the digest).
            if exc.kind != "SearchBudgetError":
                raise
            raise Refused(exc.kind, f"certificate {s}: {exc}") from None
        cert_text = _read(cert_path)
        cert = json.loads(cert_text)
        _check(cert["seed"] == s and cert["depth"] == CERT_DEPTH,
               f"certificate {s}: wrong header")
        _covers(cert["pairs"], CERT_DEPTH, f"certificate {s}")
        _cli(um, sw, ["randomizer", "--seed", str(s), "--verify",
                             cert_path, "--out", verify_path])
        verify_text = _read(verify_path)
        _check(json.loads(verify_text) == {"verified": True, "depth": CERT_DEPTH},
               f"certificate {s}: verify said {verify_text.strip()}")
        return cert_text + verify_text

    return Op("certificate", f"certificate {s}", run)


def _covers(pairs, n: int, what: str):
    """verify_certificate checks order only, so check coverage here."""
    dom = {a for a, _ in pairs}
    ran = {b for _, b in pairs}
    _check(len(dom) == len(pairs) == len(ran), f"{what}: not injective")
    _check(dom >= set(range(n)) and ran >= set(range(n)),
           f"{what}: domain or range misses part of range({n})")


def _iso_op(um, n: int, scratch: str):
    path = os.path.join(scratch, "iso.json")

    def run(sw: Stopwatch) -> str:
        _cli(um, sw, ["iso", "--a", "rational-v1", "--b", "rational-v2",
                            "--depth", str(n), "--out", path])
        text = _read(path)
        pairs = json.loads(text)["pairs"]
        _covers(pairs, n, f"iso {n}")
        # order preservation for every pair, by sorting on the source values
        by_source = sorted(pairs, key=lambda p: _rational(p[0]))
        images = [_rational(b ^ 1) for _, b in by_source]
        _check(all(x < y for x, y in zip(images, images[1:])),
               f"iso {n}: map does not preserve order")
        return text

    return run


def _positive_rationals():
    total = 2
    while True:
        for p in range(1, total):
            if gcd(p, total - p) == 1:
                yield Fraction(p, total - p)
        total += 1


_RATIONALS: list[Fraction] = [Fraction(0)]
_POSITIVE = _positive_rationals()


def _rational(code: int) -> Fraction:
    """The enumeration N -> Q of the rational presentations, rebuilt here so
    that iso maps are checked against an independent copy: 0, then each
    reduced p/q by increasing p+q and then p, followed by its negative."""
    while len(_RATIONALS) <= code:
        r = next(_POSITIVE)
        _RATIONALS.extend((r, -r))
    return _RATIONALS[code]


WORKLOADS = {
    "exact-measure": exact_measure_cycle,
    "ml-verdicts": ml_verdicts_cycle,
    "transport": transport_cycle,
}

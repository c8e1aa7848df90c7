"""Golden outputs of ``uminflow measure`` and ``uminflow sample``.

Each expected value is the SHA-256 of a transcript: for every argv of a
fixed corpus, the exit code, then what the command printed to stdout and
stderr.  The measure corpus holds events shaped like the benchmark's
``exact-measure`` cycle (cylinders, adjacency windows, small boolean trees
and a 12-way And of binary Ors, drawn from a fixed RNG), the adjacency
events ``adjacency_event(0, 1, N)`` for N = 3..8 and the README examples.
It is measured by both methods, in text and JSON, at the default precision
``-k 20`` and at ``-k 64``.  A change to how either route measures, refuses
or prints must leave every transcript byte-identical.
"""

import hashlib
import random

import pytest

from uminflow import adjacency_event, parse_event
from uminflow.cli import main


def _tree_text(rng: random.Random, s: int) -> str:
    """An Or of 2-3 conjunctions over exactly s points, each with a binary Or."""
    points = rng.sample(range(64), s)
    chunks = [points[i:i + 3] for i in range(0, s, 3)]
    if len(chunks[-1]) == 1:
        chunks[-2:] = [chunks[-2][:2], chunks[-2][2:] + chunks[-1]]

    def literal() -> str:
        atom = "ord(" + "<".join(map(str, rng.sample(points, rng.choice((2, 3))))) + ")"
        return "!" + atom if rng.random() < 1 / 3 else atom

    groups = [[] for _ in range(rng.choice((2, 3)))]
    for c in chunks:
        rng.choice(groups).append("ord(" + "<".join(map(str, c)) + ")")
    conjunctions = []
    for g in groups:
        factors = g + [literal() for _ in range(rng.choice((1, 2)))]
        factors.append(f"({literal()} | {literal()})")
        conjunctions.append("(" + " & ".join(factors) + ")")
    return " | ".join(conjunctions)


def _adjacency_text(n: int, m: int, *rest: int) -> str:
    return " & ".join(f"!(ord({n}<{j}<{m}) | ord({m}<{j}<{n}))" for j in rest)


def _and_of_or_text(rng: random.Random, width: int) -> str:
    points = rng.sample(range(64), 8)
    clauses = []
    for _ in range(width):
        a, b, c, d = rng.sample(points, 4)
        clauses.append(f"(ord({a}<{b}) | ord({c}<{d}))")
    return " & ".join(clauses)


def _benchmark_shaped(seed: int) -> list[str]:
    rng = random.Random(f"measure-golden/{seed}")
    return (
        ["ord(" + "<".join(map(str, rng.sample(range(64), k))) + ")" for k in (5, 8)]
        + [_adjacency_text(*rng.sample(range(64), N)) for N in (5, 6, 7, 8)]
        + [_tree_text(rng, s) for s in (5, 6, 7, 8)]
    )


AND_OF_OR = _and_of_or_text(random.Random("measure-golden/and-of-or"), 12)
EVENTS = (
    _benchmark_shaped(0)
    + _benchmark_shaped(1)
    + [_adjacency_text(0, 1, *range(2, N)) for N in range(3, 9)]
    + ["ord(0<1<2)", "ord(0<1)&!ord(2<3)", "ord(0<1) & !ord(2<3)"]
    + [AND_OF_OR]
)

MEASURE = [
    ("--method exact",
     "fb07c4bffd0dfbf861cad4c0f119d7d58a3e46756f58a73c3f63a9cd923cb2e3"),
    ("--method exact --format json",
     "b06a7a637d7b207a758e119e4913fdcda851b7867afdf9c99aa25ec0f6de9c4a"),
    ("--method weight -k 20",
     "13c386c139e4097ab19e7fb895c2e23eb4ea8f873469ea36d737da9c2efab5a7"),
    ("--method weight -k 20 --format json",
     "f1cede46609dad0f2bca37cef7c1e1bce8d700893783b86e7e73a3e7d59d482c"),
    ("--method weight -k 64 --format json",
     "5b646bf2cb2bf63f6869b161bfbcc1323881c53d16c2aa8e8dec877301608c2e"),
]

SAMPLE_SEEDS = (0, 5, 2024)
SAMPLE_SIZES = (0, 1, 2, 5, 17)
SAMPLE = [
    ("--kind order",
     "f73992922940666bdbdd258cc9635fa5bcdfed1f4bcf417e1dc9c511b6d6809e"),
    ("--kind order --format json",
     "d0887297923e35bc19b8c3aafe6db008623191d5a258b35b15d6d8f1011d9f66"),
    ("--kind graph",
     "0fd08402205169d691b16e17e01e2e29ac1d341037e2c16906ad4635a2e2cb08"),
    ("--kind graph --format json",
     "b7ca1ceab9b02909dbfbd50bddbdb7626892635290fadd45b6ae3d95d83b43ee"),
]


def _transcript(capsys, argvs) -> str:
    parts = []
    for argv in argvs:
        code = main(argv)
        out = capsys.readouterr()
        parts.append(f"{code}\n{out.out}{out.err}")
    return "".join(parts)


def _digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


@pytest.mark.parametrize("flags, digest", MEASURE)
def test_measure_digest(capsys, flags, digest):
    argvs = [["measure", *flags.split(), e] for e in EVENTS]
    assert _digest(_transcript(capsys, argvs)) == digest


@pytest.mark.parametrize("flags, digest", SAMPLE)
def test_sample_digest(capsys, flags, digest):
    argvs = [
        ["sample", "--seed", str(seed), "--n", str(n), *flags.split()]
        for seed in SAMPLE_SEEDS
        for n in SAMPLE_SIZES
    ]
    assert _digest(_transcript(capsys, argvs)) == digest


def test_adjacency_texts_are_adjacency_events():
    for N in range(3, 9):
        text = _adjacency_text(0, 1, *range(2, N))
        assert parse_event(text) == adjacency_event(0, 1, N)


def test_weight_route_refuses_the_and_of_or_in_one_line(capsys):
    assert main(["measure", "--method", "weight", AND_OF_OR]) == 3
    out = capsys.readouterr()
    assert out.out == ""
    assert out.err == (
        "cap exceeded: union cap 16 exceeded: 17 minimal conjunctions kept"
        " from a DNF of 4096 conjunctions\n"
    )


def test_one_vertex_graph_sample_as_printed_today(capsys):
    # ROADMAP item 2 lists this "n": 0 as a defect; its fix changes this pin
    assert main(["sample", "--seed", "0", "--n", "1", "--kind", "graph",
                 "--format", "json"]) == 0
    assert capsys.readouterr().out == '{"seed": 0, "n": 0, "edges": []}\n'

"""Golden verdicts of ``uminflow test``.

Each expected value is the SHA-256 of the text the command prints; the deep
run's two lines are pinned verbatim.  They pin the seeded verdicts of the
three test families (density, unbounded, poset) in text and JSON, and the
"level budget exhausted" verdicts of levels over the sample cap: a change to
how levels are built or decided must leave every one byte-identical.
"""

import hashlib

import pytest

from uminflow.cli import main

VERDICTS = [
    ("test --seeds 0:50 --depth 9 --format json",
     "b2ca4e5853f90b66db5688bf95a80a1f5816eb95891ace022466a831dd5fb127"),
    ("test --stream poset-canon --families poset --depth 5",
     "c8dbdbbfd1e72785c6b771bf6439d883dbe33210c05fdeeb158b75441ae917f9"),
    ("test --stream poset-canon --families poset --depth 5 --format json",
     "1d85bc612cb243f9a8fd064acbe9e8b02d7e6b51ecaac4d8e82b0af748fa4f99"),
]


@pytest.mark.parametrize("argv, digest", VERDICTS)
def test_verdict_digest(capsys, argv, digest):
    assert main(argv.split()) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == digest


def test_deep_run_reports_the_exhausted_budgets(capsys):
    # density level 18 and unbounded level 19 need windows over the cap
    assert main("test --seed 0 --depth 19 --families density,unbounded".split()) == 0
    assert capsys.readouterr().out == (
        "seed 0 density(0,1): passes to depth 17 (level budget exhausted at 18)\n"
        "seed 0 unbounded(0): fails level 1 (level budget exhausted at 19)\n"
    )

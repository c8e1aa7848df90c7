"""Golden stages of the universal poset and their extension measures.

Each block digest is the SHA-256 of ``json.dumps`` of the list of
``[n, sorted relation pairs (as lists), canon sequence]`` for the twenty
stages n of the block, each the restriction of the block's last stage to
range(n) (stages are nested).  The block's first and last stages are also
built directly.  They pin every stage up to 200, stages 381-400 (where the
tail patterns over five or more points dominate), stages 781-800,
1181-1200 and 1981-2000 (deep in the demand stream, where most points
realize just_above and just_below demands) and the extension measures of
stages 3-12: a change to the stage builder must leave all of them
byte-identical.
"""

import hashlib
import json
from fractions import Fraction

import pytest

from uminflow import poset_level_measure, universal_poset_stage

BLOCK = 20
STAGE_DIGESTS = {
    20: "966a9cbebd2962f6508c1dec6775c890cb833ecc277c9328435501691c312307",
    40: "d4c4cb223e5cf7361f7a5ca08f81672296f7bf3df333a15f842d5f2ec421891f",
    60: "15308cac20bbb34042960efe9aeb7a77265348128699c6352a3ccb8a915c6d6b",
    80: "9ce1bc7bbbc4f252d27c7d8367df340ebc24b33b963da3a8fa107ce4f5e4ef5e",
    100: "c8079d1f14aefc75496d09fe4bff187dca0b9583690a2c970e975db61df4482b",
    120: "ad32b2ee0b0318263d5e4602841a50daff85db56cd38cb182c37570f2a30d210",
    140: "778b1767a3484329d13524494a3e82714b7dafc72ae441f788eaeafd68e00d79",
    160: "d7bbfb461518769ce951a65e9ed5a784dcc8d64c1d52fd56ca2c0b0b8779421f",
    180: "f7c07d822b05ffdc299ceff716fa50b15de6e1b75a6631df07ff6ecef7b3e618",
    200: "f1737656f42cda0add91d7752f4150e44f13429e5c982b2ea597d588ec5a76b6",
    400: "bf98834da78d525eebd8286ab9b6761a44a28225a575b8d9ed2e1055ad2a8269",
    800: "3779258ff4dedb3223c6891cdfc16099e9f547bc1469b3ea91782592cadc62b4",
    1200: "ce688bdba8a9bc8f3142efd64802fc7a9c9463cdea865f9a7bede7be7e498b14",
    2000: "5572c9f2204b3c5368206795be7ef292ee28e6854a42b9996cce558a2f7885f3",
}
LEVEL_MEASURES = {
    3: "1/6",
    4: "1/24",
    5: "1/40",
    6: "1/72",
    7: "1/280",
    8: "61/20160",
    9: "73/181440",
    10: "1/6720",
    11: "1/14256",
    12: "1/75600",
}


def _row(stage) -> list:
    pairs = [list(p) for p in sorted(stage.stage.relation)]
    return [stage.stage.n, pairs, stage.canon.to_sequence()]


@pytest.mark.parametrize("end", sorted(STAGE_DIGESTS))
def test_stage_block_digest(end):
    last = universal_poset_stage(end, cap=end)
    rows = []
    for n in range(end - BLOCK + 1, end + 1):
        pairs = [list(p) for p in sorted(last.stage.relation) if max(p) < n]
        rows.append([n, pairs, [e for e in last.canon.to_sequence() if e < n]])
    assert rows[-1] == _row(last)
    assert rows[0] == _row(universal_poset_stage(end - BLOCK + 1, cap=end))
    digest = hashlib.sha256(json.dumps(rows).encode()).hexdigest()
    assert digest == STAGE_DIGESTS[end]


def test_level_measures():
    got = {N: poset_level_measure(universal_poset_stage(N)) for N in LEVEL_MEASURES}
    assert got == {N: Fraction(v) for N, v in LEVEL_MEASURES.items()}

"""Golden iso maps and randomizer certificates.

Each expected value is the SHA-256 of ``json.dumps`` of the iso map's pairs
(as lists) or of the certificate's ``to_json()``, the text the CLI prints.
They pin the seeded outputs of the back-and-forth engine: a refactor of it
must leave every one byte-identical.
"""

import hashlib
import json

import pytest

from uminflow import (
    CapExceededError,
    OrderPresentation,
    RandomOrderStream,
    SearchBudgetError,
    back_and_forth,
    compute_randomizer,
    poset_canon_presentation,
    rational_presentation,
    rational_presentation_variant,
)

PRESENTATIONS = {
    "rational-v1": rational_presentation,
    "rational-v2": rational_presentation_variant,
    "poset-canon": poset_canon_presentation,
}


def _sha(obj) -> str:
    return hashlib.sha256(json.dumps(obj).encode()).hexdigest()


ISO_MAPS = [
    ("rational-v1", "rational-v2", 50,
     "8f23f27a3dce5f4a8664d60e4ae3d11518b4f270f231266750b39cecbec14095"),
    ("rational-v1", "rational-v2", 200,
     "78dec032f0c718c9fad5fe169723142f7e59c1003a2ca56929b1a54d5dcc3a28"),
    ("rational-v2", "rational-v1", 200,
     "9fe509bd39230f4acffbf02e9cd64f07647ebb7f447e41c607874437dcde17f4"),
    ("rational-v1", "rational-v1", 100,
     "2f56b4e072b6aac9eade220eeea8ed613e86e82f0fc4ce87c3f6dfdb82d6b1a1"),
    ("poset-canon", "rational-v1", 5,
     "c05c745cf1e42abd7cb523bfeffc7e4610e6d147711c4651996151babd6a1e4f"),
    ("rational-v1", "poset-canon", 5,
     "ed5255ecf829cf40458422760d954f546fe62c6fec073293e7c474e46eb17ccb"),
]


@pytest.mark.parametrize("a, b, n, digest", ISO_MAPS)
def test_iso_map(a, b, n, digest):
    sigma = back_and_forth(PRESENTATIONS[a](), PRESENTATIONS[b](), n)
    assert _sha([list(p) for p in sigma.pairs]) == digest


def test_iso_map_past_default_poset_cap():
    sigma = back_and_forth(
        poset_canon_presentation(cap=512), rational_presentation_variant(), 20
    )
    assert _sha([list(p) for p in sigma.pairs]) == (
        "552603c332b2f0ea10830780d9ff11f6f294d7f51722d44697bc0870415b4a3a"
    )


def test_iso_budget_refusal():
    naturals = OrderPresentation("naturals", lambda a, b: a < b)
    with pytest.raises(SearchBudgetError) as err:
        back_and_forth(rational_presentation(), naturals, 10, search_budget=200)
    assert str(err.value) == "no partner for 2 within budget"
    assert err.value.blocking == 2


CERTIFICATES = [
    ("rational-v1", 100, seed, digest)
    for seed, digest in enumerate([
        "d6d44e8d5b8699b5ef37bf5e2a61c6cd1b3c413b6020e87862ac0258ad1242e8",
        "75e10ac2a5785dc6f3b44c647eecf12059f6bd30aae3ef9b103a70aee95028e6",
        "98dea01fa69a92b257a8208be0f11a9b29fd5dcf239344d9441e6e87159029f8",
        "4bba159d39ad5b169b14ac12abf216dd53f266c223b356b9d546a033e70b88ad",
        "357882d82cf1def0d080d6942c413fd5f458a2dd8b8cb19271b85cda71b6b889",
        "afb532e45fe65cb210b9afb086df8eb24e59cb0707288e2566535fec93eb638f",
        "ae6a547a74874aa12252995f2cbaed4605ebd8cbdb85f1cc84dbf1bce5c9ca5a",
        "04af331f4017ff61d6035630f2683784274d5fbcff370437afb6c4c1fcc836e7",
        "e400111710851b500b7744150e7f87c8b67ed656ce30d5b94786137ed096ea7b",
        "c778d2bd89225cf453949926c10e4d3dbccaaeee454ce190a1cc86b01bcc2295",
        "64471b164330f6486885e8d80fc2f2eccd5097a99d37c4b2972076744e424341",
        "8aa4beaf58e394c1aa7993034829cab225e9c8d33ead099de8e5366d4d17d376",
        "40e793ec1b759cc8e4ae75c4cea91ca5f60040d0103917a0357fee199a45f4af",
        "d20bbdfe4cb5d01fc6173d260c47b898154f3964b4bb4a9d9c46e0dd0d69ee2b",
        "1ef3fb453d67eda5cd634714d8040a575c9f890a02e6537ce7542ca12383538d",
        "465fda26e32590d805a89b2d1b9d40e9cd75fd8fdad3ae5d0ad3c32409a4ffb5",
        "4f4f9a31f1a56688242ef988a1a45813fda3b3be717e09aa14c710a34a827cc1",
        "4a903cb3fc00812e83b90882140a717b32dfbda7f98c5fe6f80184e4f3b8e0f9",
        "f4c1a7737cb4726cb3396bc6cda5deba305203610221d757699b15e44b0b5f9c",
        "6f565ae6d5b07b1293dc549f2a22df49eca58a055660df413600a5d5b5ba9723",
    ])
] + [
    ("rational-v2", 60, seed, digest)
    for seed, digest in enumerate([
        "db9b98b25f963026c77ccb9e89615e43bd49276eb9e8ae8568fcedeff479f050",
        "e601576f8ba4a67b8b9fc267bbf4b801c02343e55d2125f49b99d6c5d3ed0b97",
        "f5e1a04931a3a1296ae7d79f6327e87d589cc80bec5f9cdc9517fed57b6a1731",
        "f2965c14d8dc28b6f2d345084ea21ba8ac1ffc43a60f5f944e530d326e4213b9",
        "682dc67d05a2e3cf057d59ca84f1374709e82ed2b1509fde55d999773cdd9a9a",
    ])
]


@pytest.mark.parametrize("tau, depth, seed, digest", CERTIFICATES)
def test_certificate(tau, depth, seed, digest):
    cert = compute_randomizer(PRESENTATIONS[tau](), RandomOrderStream(seed), depth)
    assert _sha(cert.to_json()) == digest


STREAM_CERTIFICATES = [
    "ee383f15ec6fc40369b8be7de88393632e37836d440b07c6918e6623f78c559f",
    "881fb9baf48aacd83e644893b7d06ab1820e33926d46d61560e7e4de04455c48",
    "a5b4e019abb6aafe191877d36ae9fec777845af9ddbdd52eedab0fd56ffca232",
    "34449808331bd0e49e2ef739829a43e28c3307ecd991d2703a98ebbcc5eb7332",
    "0cdc940947f47c2afbd20cbf450ce8e97ef9eeb288f95168bd49d9b1b43bb9e9",
]


@pytest.mark.parametrize("seed", range(len(STREAM_CERTIFICATES)))
def test_certificate_from_stream_presentation(seed):
    # a source with values but no locate function: back steps scan codes
    # for the value nearest the interpolated target
    stream = RandomOrderStream(seed)
    cert = compute_randomizer(stream.presentation(), stream, 20)
    assert _sha(cert.to_json()) == STREAM_CERTIFICATES[seed]


def test_certificate_from_poset_canon():
    # no values and no locate function: surrogate values, least-code scans
    tau = poset_canon_presentation()
    pairs = {1: [[0, 917], [1, 0]], 2: [[0, 917], [1, 0], [2, 60], [8, 1]]}
    for depth, expected in pairs.items():
        cert = compute_randomizer(tau, RandomOrderStream(0), depth)
        assert cert.to_json() == {
            "seed": 0, "tau": "poset-canon", "pairs": expected, "depth": depth
        }
    with pytest.raises(CapExceededError, match="^element 64 beyond poset cap 64$"):
        compute_randomizer(tau, RandomOrderStream(0), 3)

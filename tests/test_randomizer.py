import json
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from uminflow import (
    CapExceededError,
    OrderPresentation,
    OrderPrefix,
    PartialPermutation,
    RandomOrderStream,
    RandomizerCertificate,
    SearchBudgetError,
    act,
    compute_randomizer,
    conjugation_check,
    poset_automorphism_obstruction,
    poset_extension_test,
    poset_level_measure,
    rational_presentation,
    rational_presentation_variant,
    stage_automorphisms,
    universal_poset_stage,
    verify_certificate,
)
from uminflow import randomizer
from uminflow.fraisse import _sort_key

TAU = rational_presentation()


def _cert(seed, depth):
    return compute_randomizer(TAU, RandomOrderStream(seed), depth)


def test_certificate_invariant_small():
    for seed in range(5):
        cert = _cert(seed, 40)
        assert cert.sigma.domain() >= set(range(40))
        assert verify_certificate(cert, TAU, RandomOrderStream(seed))


@pytest.mark.parametrize("n", [0, -1])
def test_certificate_empty_depth(n):
    if n < 0:
        with pytest.raises(ValueError, match=r"^depth must be non-negative, got -1$"):
            compute_randomizer(TAU, RandomOrderStream(0), n)
    else:
        cert = compute_randomizer(TAU, RandomOrderStream(0), n)
        assert cert.sigma.pairs == () and cert.n == n


def test_own_presentation_certificate():
    stream = RandomOrderStream(5)
    cert = compute_randomizer(stream.presentation(), stream, 20)
    fresh = RandomOrderStream(5)
    assert cert.sigma.domain() >= set(range(20))
    assert verify_certificate(cert, fresh.presentation(), fresh)


def test_transport_matches_action():
    # the certificate map carries the source order onto the sampled order
    seed = 9
    cert = _cert(seed, 30)
    sigma = cert.sigma
    xi = RandomOrderStream(seed).prefix(max(sigma.range()) + 1)
    for a in range(30):
        for b in range(30):
            if a != b:
                assert TAU.less(a, b) == xi.less(sigma(a), sigma(b))


def test_action_form_on_initial_segment():
    # reading {0..m-1} in source order, the images appear in sampled order
    seed = 2
    m = 12
    cert = _cert(seed, m)
    restriction = {a: cert.sigma(a) for a in range(m)}
    xi = RandomOrderStream(seed).prefix(max(restriction.values()) + 1)
    tau_seq = sorted(range(m), key=lambda a: sum(TAU.less(b, a) for b in range(m)))
    for i in range(m - 1):
        a, b = tau_seq[i], tau_seq[i + 1]
        assert TAU.less(a, b) and xi.less(restriction[a], restriction[b])


def test_monotone_refinement():
    c_small = compute_randomizer(TAU, RandomOrderStream(3), 50)
    c_large = compute_randomizer(TAU, RandomOrderStream(3), 100)
    for a, b in c_small.sigma.pairs:
        assert c_large.sigma(a) == b


def test_verify_rejects_corruption():
    cert = _cert(4, 30)
    pairs = dict(cert.sigma.pairs)
    ks = sorted(pairs)[:2]
    pairs[ks[0]], pairs[ks[1]] = pairs[ks[1]], pairs[ks[0]]
    bad = RandomizerCertificate(
        PartialPermutation.from_mapping(pairs), cert.tau_id, cert.seed, cert.n
    )
    assert not verify_certificate(bad, TAU, RandomOrderStream(4))


def test_verify_rejects_uncovered_depth():
    stream = RandomOrderStream(4)
    empty = RandomizerCertificate(PartialPermutation(()), TAU.name, 4, 100)
    assert not verify_certificate(empty, TAU, stream)
    cert = _cert(4, 30)
    deeper = max(cert.sigma.domain()) + 2
    short = RandomizerCertificate(cert.sigma, cert.tau_id, cert.seed, deeper)
    assert not verify_certificate(short, TAU, stream)


def _pairwise_verify(c, tau, xi):
    """Coverage, then the invariant over all n^2 / 2 pairs: the check
    verify_certificate made before it sorted the pairs."""
    depth = set(range(c.n))
    if not (c.sigma.domain() >= depth and c.sigma.range() >= depth):
        return False
    items = c.sigma.pairs
    for i, (a, fa) in enumerate(items):
        for b, fb in items[i + 1 :]:
            if tau.less(a, b) != xi.less(fa, fb):
                return False
    return True


def _corruptions(cert, rng):
    """Certificates with two images swapped, one image replaced by a fresh
    index, and the pairs shuffled."""
    pairs = list(cert.sigma.pairs)
    fresh_from = max(b for _, b in pairs) + 1
    for _ in range(6):
        i, j = rng.sample(range(len(pairs)), 2)
        swapped = list(pairs)
        swapped[i], swapped[j] = (pairs[i][0], pairs[j][1]), (pairs[j][0], pairs[i][1])
        yield swapped
    for i in rng.sample(range(len(pairs)), 6):
        for fresh in range(fresh_from, fresh_from + 8):
            yield pairs[:i] + [(pairs[i][0], fresh)] + pairs[i + 1 :]
    for _ in range(3):
        yield rng.sample(pairs, len(pairs))


@pytest.mark.parametrize("source", ["rational-v1", "rational-v2", "stream"])
def test_verify_agrees_with_pairwise_check(source):
    rng = random.Random(source)
    outcomes = set()
    for seed in range(3):
        if source == "stream":
            tau, depth = RandomOrderStream(seed).presentation(), 20
        else:
            tau = TAU if source == "rational-v1" else rational_presentation_variant()
            depth = 30
        cert = compute_randomizer(tau, RandomOrderStream(seed), depth)
        for pairs in [list(cert.sigma.pairs), *_corruptions(cert, rng)]:
            bad = RandomizerCertificate(
                PartialPermutation(tuple(pairs)), cert.tau_id, seed, depth
            )
            expected = _pairwise_verify(bad, tau, RandomOrderStream(seed))
            assert verify_certificate(bad, tau, RandomOrderStream(seed)) == expected
            outcomes.add(expected)
    assert outcomes == {True, False}


@pytest.mark.parametrize("seed, blocking", [(5, 140), (28, 126)])
def test_budget_refusal_names_the_point(seed, blocking):
    with pytest.raises(SearchBudgetError) as err:
        _cert(seed, 150)
    assert err.value.blocking == blocking
    assert str(err.value) == f"no partner for {blocking} within budget"
    assert err.value.budget == 65536
    lo, hi = err.value.interval  # stream keys; None at an open end
    assert (lo, hi) != (None, None) and (lo is None or hi is None or lo < hi)


@pytest.mark.parametrize("seed", [0, 5])
def test_certificate_derives_scanned_keys_a_chunk_at_a_time(seed):
    # the scanner asks the stream for each chunk in one call and keeps the
    # keys itself; the stream's memo holds only the single reads
    xi = RandomOrderStream(seed)
    derive, calls = xi.keys, []

    def keys(start, stop):
        calls.append((start, stop))
        return derive(start, stop)

    xi.keys = keys
    chunks = [(0, 1024), (1024, 4096), (4096, 16384)]
    if seed == 5:
        with pytest.raises(SearchBudgetError) as err:
            compute_randomizer(TAU, xi, 150)
        assert err.value.blocking == 140
        chunks.append((16384, 65536))
    else:
        assert verify_certificate(compute_randomizer(TAU, xi, 150), TAU, xi)
    assert [c for c in calls if c[1] - c[0] > 1] == chunks
    singles = [start for start, stop in calls if stop - start == 1]
    assert sorted(singles) == sorted(xi._keys)
    assert len(xi._keys) <= 2 * 150


def test_value_less_refusal_compares_in_n_log_n():
    # the naturals have no value function and no point below 0; valuing the
    # budget's 65,536 codes from comparisons took about 2e9 of them when each
    # code was compared with every earlier one
    calls = 0

    def less(a, b):
        nonlocal calls
        calls += 1
        if calls > 2_000_000:
            raise AssertionError("over 2,000,000 comparisons")
        return a < b

    naturals = OrderPresentation("naturals", less)
    with pytest.raises(SearchBudgetError) as err:
        compute_randomizer(naturals, RandomOrderStream(0), 10)
    assert str(err.value) == "no partner for 1 within budget"
    assert err.value.interval == (None, 0)
    assert calls == 917_522


def test_verify_seed_mismatch():
    cert = _cert(4, 10)
    with pytest.raises(ValueError):
        verify_certificate(cert, TAU, RandomOrderStream(5))


def test_verify_presentation_mismatch():
    cert = _cert(4, 10)
    from uminflow import rational_presentation_variant

    with pytest.raises(ValueError):
        verify_certificate(cert, rational_presentation_variant(), RandomOrderStream(4))


def test_certificate_json_round_trip():
    cert = _cert(6, 25)
    data = json.loads(json.dumps(cert.to_json()))
    assert set(data) == {"seed", "tau", "pairs", "depth"}
    restored = RandomizerCertificate.from_json(data)
    assert restored == cert
    assert verify_certificate(restored, TAU, RandomOrderStream(6))


def _pi_on(sigma, rng):
    images = list(range(10))
    rng.shuffle(images)
    mapping = dict(enumerate(images))
    for a in sigma.domain():
        if a >= 10:
            mapping[a] = a
    return PartialPermutation.from_mapping(mapping)


def test_conjugation_identity_pi():
    cert = _cert(1, 20)
    xi = RandomOrderStream(1).prefix(max(cert.sigma.range()) + 1)
    n = max(cert.sigma.domain()) + 1
    assert conjugation_check(cert.sigma, PartialPermutation.identity(n), TAU, xi)


def test_conjugation_random_instances():
    rng = random.Random(0)
    for seed in range(5):
        cert = _cert(seed, 25)
        xi = RandomOrderStream(seed).prefix(max(cert.sigma.range()) + 1)
        for _ in range(10):
            pi = _pi_on(cert.sigma, rng)
            assert conjugation_check(cert.sigma, pi, TAU, xi)


def test_conjugation_wrong_sigma_fails_on_both_sides():
    rng = random.Random(1)
    cert = _cert(2, 25)
    xi = RandomOrderStream(2).prefix(max(cert.sigma.range()) + 1)
    pairs = dict(cert.sigma.pairs)
    ks = sorted(pairs)[:2]
    pairs[ks[0]], pairs[ks[1]] = pairs[ks[1]], pairs[ks[0]]
    bad = PartialPermutation.from_mapping(pairs)
    pi = _pi_on(bad, rng)
    assert conjugation_check(bad, pi, TAU, xi)  # equivalence: both sides fail


def _all_pairs(sigma, tau, xi_prefix):
    """conjugation_check's former all-pairs test of one side, verbatim."""
    dom = sorted(sigma.domain())
    return all(
        tau.less(a, b) == xi_prefix.less(sigma(a), sigma(b))
        for a in dom
        for b in dom
        if a != b
    )


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_carries_matches_the_all_pairs_reference(data):
    n = data.draw(st.integers(1, 30))
    perm = data.draw(st.permutations(range(n)))  # code a sits at place perm[a]
    tau = OrderPresentation("finite", lambda a, b: perm[a] < perm[b])
    xi = OrderPrefix.from_sequence(data.draw(st.permutations(range(n + 5))))
    dom = data.draw(st.lists(st.integers(0, n - 1), unique=True))
    images = data.draw(st.lists(
        st.integers(0, n + 4), min_size=len(dom), max_size=len(dom), unique=True
    ))
    if data.draw(st.booleans()):  # make the map carry tau onto xi
        dom.sort(key=perm.__getitem__)
        images.sort(key=xi.rank.__getitem__)
    sigma = PartialPermutation.from_mapping(dict(zip(dom, images)))
    got = randomizer._carries(sigma.pairs, _sort_key(tau), xi.less)
    assert got == _all_pairs(sigma, tau, xi)


def test_conjugation_domain_mismatch():
    cert = _cert(2, 10)
    xi = RandomOrderStream(2).prefix(max(cert.sigma.range()) + 1)
    with pytest.raises(ValueError):
        conjugation_check(cert.sigma, PartialPermutation.identity(2), TAU, xi)


# -- the automorphism obstruction


def test_obstruction_trivial_stage():
    report = poset_automorphism_obstruction(1)
    assert report.automorphism_count == 1
    assert report.all_trapped
    assert report.event_measure == 1


def test_obstruction_refuses_before_searching_automorphisms(monkeypatch):
    def search(*args, **kwargs):
        raise AssertionError("searched the 17! candidate maps")

    monkeypatch.setattr(randomizer, "stage_automorphisms", search)
    with pytest.raises(CapExceededError) as err:
        poset_automorphism_obstruction(17)
    assert (err.value.cap, err.value.limit, err.value.requested) == ("extension", 16, 17)


def _brute_automorphisms(n, rel):
    """Every permutation of range(n) that preserves the relation both ways."""
    from itertools import permutations

    return [
        PartialPermutation(tuple(enumerate(perm)))
        for perm in permutations(range(n))
        if all(((perm[a], perm[b]) in rel) == ((a, b) in rel)
               for a in range(n) for b in range(n) if a != b)
    ]


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 8).flatmap(lambda n: st.tuples(
    st.just(n),
    st.sets(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1))
            .filter(lambda p: p[0] != p[1]), max_size=12) if n > 1 else st.just(set()),
)))
def test_automorphism_search_matches_brute_force(case):
    # relations with many symmetries too: sparse ones on 8 points have
    # thousands of automorphisms, all found in permutations order
    n, rel = case
    assert list(randomizer._automorphisms(n, rel)) == _brute_automorphisms(n, rel)


def test_stage_automorphisms_match_brute_force():
    for n in range(9):
        rel = universal_poset_stage(n).stage.relation
        assert list(stage_automorphisms(n)) == _brute_automorphisms(n, rel)
    assert list(randomizer._automorphisms(8, set())) == _brute_automorphisms(8, set())


def test_obstruction_at_the_extension_cap():
    # the search extends partial maps, so stage 16 is not a 16! scan
    report = poset_automorphism_obstruction(16)
    assert (report.automorphism_count, report.all_trapped) == (1, True)
    assert report.event_measure == poset_level_measure(universal_poset_stage(16))


def test_obstruction_stage_six():
    report = poset_automorphism_obstruction(6)
    assert report.all_trapped
    assert report.event_measure == poset_level_measure(universal_poset_stage(6))


def test_non_extending_orders_are_not_automorphism_images():
    # exhaustively at stage 4: the automorphism orbit of the distinguished
    # extension stays inside the extension event, so no order outside the
    # event is of that form
    from itertools import permutations

    from uminflow import OrderPrefix

    stage = universal_poset_stage(4)
    orbit = set()
    for g in stage_automorphisms(4):
        orbit.add(tuple(act(g, stage.canon).to_sequence()))
    for perm in permutations(range(4)):
        o = OrderPrefix.from_sequence(perm)
        extends = poset_extension_test(o, stage)
        if not extends:
            assert tuple(perm) not in orbit
        else:
            pass  # extending orders may or may not be in the orbit
    assert all(
        poset_extension_test(OrderPrefix.from_sequence(seq), stage) for seq in orbit
    )

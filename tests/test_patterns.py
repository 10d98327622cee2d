import math

import pytest

from hsagg.patterns import (
    BadSurvivorSet,
    CommPattern,
    SamplingExhausted,
    TooFewReceivers,
    enumerate_patterns,
    enumerate_survivors,
    format_pattern,
    parse_pattern,
    sample_pattern,
    validate,
)
from hsagg.protocol import SchemeParams

EXAMPLE = SchemeParams(2, 4, 3, 1, 7, 2)


def test_parse_and_format_roundtrip():
    text = "nu=1:1,2,3;2:1,2,4 hm=2,3,4"
    pattern = parse_pattern(text)
    assert pattern.receivers == (frozenset({1, 2, 3}), frozenset({1, 2, 4}))
    assert pattern.survivors == frozenset({2, 3, 4})
    assert format_pattern(pattern) == text
    bare = parse_pattern("nu=1:1,2")
    assert bare.survivors is None
    assert format_pattern(bare) == "nu=1:1,2"


def test_parse_errors():
    with pytest.raises(ValueError):
        parse_pattern("hm=1,2")
    with pytest.raises(ValueError):
        parse_pattern("nu=1:1,2;1:3,4")
    with pytest.raises(ValueError):
        parse_pattern("nu=2:1,2")  # users must start at 1
    with pytest.raises(ValueError):
        parse_pattern("nu=1:1,2 bogus=3")


@pytest.mark.parametrize(
    "text",
    ["nu=1:1,1,2,3;2:1,2,4 hm=2,3,4", "nu=1:1,2,3;2:1,2,4,2", "nu=1:1,2,3;2:1,2,4 hm=2,3,3,4"],
)
def test_parse_rejects_repeated_helper_ids(text):
    with pytest.raises(ValueError, match="repeat a helper id"):
        parse_pattern(text)


def test_validate_worked_example():
    pattern = parse_pattern("nu=1:1,2,3;2:1,2,4 hm=2,3,4")
    validate(pattern, EXAMPLE)  # no error


def test_validate_too_few_receivers():
    pattern = CommPattern((frozenset({1}), frozenset({1, 2, 4})))
    with pytest.raises(TooFewReceivers) as err:
        validate(pattern, EXAMPLE)
    assert err.value.user == 1


def test_validate_survivors_must_be_active():
    pattern = CommPattern(
        (frozenset({1, 2, 3}), frozenset({1, 2, 3})), frozenset({2, 3, 4})
    )
    with pytest.raises(BadSurvivorSet):
        validate(pattern, EXAMPLE)
    small = parse_pattern("nu=1:1,2,3;2:1,2,4 hm=2,3")
    with pytest.raises(BadSurvivorSet):
        validate(small, EXAMPLE)


def test_validate_rejects_out_of_range_helpers():
    pattern = CommPattern((frozenset({1, 2, 5}), frozenset({1, 2, 3})))
    with pytest.raises(TooFewReceivers):
        validate(pattern, EXAMPLE)


def count_formula(params):
    per_user = sum(
        math.comb(params.num_helpers, s)
        for s in range(params.resiliency, params.num_helpers + 1)
    )
    return per_user**params.num_users


def test_enumeration_counts():
    assert len(list(enumerate_patterns(EXAMPLE))) == 25 == count_formula(EXAMPLE)
    tiny = SchemeParams(1, 2, 1, 1, 5, 1)
    pats = list(enumerate_patterns(tiny))
    assert [p.receivers[0] for p in pats] == [
        frozenset({1}),
        frozenset({2}),
        frozenset({1, 2}),
    ]
    mid = SchemeParams(2, 3, 2, 1, 5, 1)
    assert len(list(enumerate_patterns(mid))) == 16 == count_formula(mid)


def test_enumerated_patterns_validate_and_are_consistent():
    for pattern in enumerate_patterns(EXAMPLE):
        validate(pattern, EXAMPLE)
        for n in range(1, 5):
            for k in (1, 2):
                assert (k in pattern.users_of(n)) == (n in pattern.receivers_of(k))


def test_enumerate_survivors():
    pattern = parse_pattern("nu=1:1,2,3;2:1,2,4")
    assert len(list(enumerate_survivors(pattern, EXAMPLE))) == 5
    snug = CommPattern((frozenset({1, 2, 3}), frozenset({1, 2, 3})))
    assert list(enumerate_survivors(snug, EXAMPLE)) == [frozenset({1, 2, 3})]
    params32 = SchemeParams(1, 3, 2, 1, 5, 1)
    wide = CommPattern((frozenset({1, 2, 3}),))
    assert len(list(enumerate_survivors(wide, params32))) == 4


def test_sample_no_drops_is_full():
    pattern = sample_pattern(EXAMPLE, 0.0, 1)
    assert all(rs == frozenset({1, 2, 3, 4}) for rs in pattern.receivers)
    assert pattern.survivors == frozenset({1, 2, 3, 4})


def test_sample_deterministic_per_seed():
    a = sample_pattern(EXAMPLE, 0.3, "seed-x")
    b = sample_pattern(EXAMPLE, 0.3, "seed-x")
    c = sample_pattern(EXAMPLE, 0.3, "seed-y")
    assert a == b
    assert a != c or True  # different seeds may collide, just must not crash
    validate(a, EXAMPLE)


def test_sample_rejects_bad_probability():
    with pytest.raises(ValueError):
        sample_pattern(EXAMPLE, 1.0, 0)
    with pytest.raises(ValueError):
        sample_pattern(EXAMPLE, -0.1, 0)


def test_sample_exhaustion():
    with pytest.raises(SamplingExhausted):
        sample_pattern(EXAMPLE, 0.9999, 123)


def test_sample_matches_conditioned_binomial():
    """Per-link survival frequency vs. exact conditioned probability.

    The sampler redraws a user's whole link row until at least Nr
    links survive, so P(link up) is the binomial probability
    conditioned on acceptance, computable by enumerating all 2^N rows.
    """
    drop = 0.2
    params = EXAMPLE
    n, nr = params.num_helpers, params.resiliency
    keep = 1 - drop
    total = 0.0
    link_up = 0.0
    for mask in range(2**n):
        ups = [bool(mask >> i & 1) for i in range(n)]
        if sum(ups) < nr:
            continue
        p = 1.0
        for up in ups:
            p *= keep if up else drop
        total += p
        if ups[0]:
            link_up += p
    expected = link_up / total

    samples = 10_000
    hits = 0
    for i in range(samples):
        pattern = sample_pattern(params, drop, f"mc:{i}")
        hits += 1 in pattern.receivers_of(1)
    freq = hits / samples
    sigma = (expected * (1 - expected) / samples) ** 0.5
    assert abs(freq - expected) < 3 * sigma

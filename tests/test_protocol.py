import gc
import random
import sys
from dataclasses import replace
from fractions import Fraction
from itertools import combinations

import pytest
from hypothesis import given, settings, strategies as st

from hsagg import protocol
from hsagg.harness import DEFAULT_GRID
from hsagg.matrix import DimensionMismatch, FieldTooSmall, GfMatrix, RowSpace, vandermonde
from hsagg.patterns import (
    BadSurvivorSet,
    CommPattern,
    TooFewReceivers,
    enumerate_patterns,
    enumerate_survivors,
    parse_pattern,
    sample_pattern,
)
from hsagg.protocol import (
    BadBlockLength,
    BadParams,
    Gradient,
    Infeasible,
    MissingRecovery,
    NotEnoughResponses,
    NotEnoughShares,
    SchemeParams,
    ShapeMismatch,
    UserRandomness,
    dealer_generate,
    encode_round_uploads,
    encode_uploads,
    helper_recover,
    helper_respond,
    helper_share,
    keys_from_noise,
    master_decode,
    measure_rates,
    run_helpers,
    run_round,
    setup,
)

EXAMPLE = SchemeParams(2, 4, 3, 1, 7, 2)
EXAMPLE_PATTERN = parse_pattern("nu=1:1,2,3;2:1,2,4 hm=2,3,4")


@pytest.fixture(scope="module")
def ctx():
    return setup(EXAMPLE)


def make_round_inputs(params, seed):
    rng = random.Random(seed)
    grads = [Gradient.random(k, params, rng) for k in range(1, params.num_users + 1)]
    noises = [
        UserRandomness.random(k, params, rng)
        for k in range(1, params.num_users + 1)
    ]
    return grads, noises


def gradient_sum(grads, q):
    length = len(grads[0].symbols())
    return tuple(sum(g.symbols()[i] for g in grads) % q for i in range(length))


# -- setup -------------------------------------------------------------------


def test_setup_golden_context(ctx):
    assert ctx.upload_matrix.data == ((1, 1, 1), (1, 2, 4), (1, 3, 2), (1, 4, 2))
    assert ctx.decode_matrices[2].data == ((1, 2, 5), (2, 5, 1), (1, 0, 0), (5, 1, 2))
    assert ctx.decode_matrices[3].data == ((3, 6, 6), (6, 6, 3), (3, 4, 1), (1, 0, 0))
    # mask coefficient tables for helpers 3 and 4
    assert ctx.mask_maps[2].data == ((0, 5), (6, 3), (0, 0), (3, 3))
    assert ctx.mask_maps[3].data == ((5, 3), (2, 6), (5, 5), (0, 0))


def test_setup_rejections():
    with pytest.raises(Infeasible):
        setup(SchemeParams(2, 4, 2, 2, 7, 2))
    with pytest.raises(FieldTooSmall):
        setup(SchemeParams(2, 4, 3, 1, 5, 2))
    with pytest.raises(BadBlockLength):
        setup(SchemeParams(2, 4, 3, 1, 7, 3))
    with pytest.raises(BadParams):
        setup(SchemeParams(2, 4, 4, 1, 11, 2))  # resiliency = N
    with pytest.raises(BadParams):
        setup(SchemeParams(2, 4, 3, 0, 7, 2))  # collusion below 1
    with pytest.raises(BadParams):
        setup(SchemeParams(2, 4, 3, 1, 9, 2))  # composite modulus
    with pytest.raises(BadParams):
        setup(SchemeParams(0, 4, 3, 1, 7, 2))


def test_params_csv_roundtrip():
    assert SchemeParams.from_csv("2,4,3,1,7,2") == EXAMPLE
    assert EXAMPLE.label() == "2,4,3,1,7,2"
    with pytest.raises(ValueError):
        SchemeParams.from_csv("2,4,3")


# -- user encoding -----------------------------------------------------------


def test_encode_golden_formulas(ctx):
    grads, noises = make_round_inputs(EXAMPLE, 7)
    for k, helper, coeff in [(2, 3, 3), (1, 4, 4)]:
        g, f = grads[k - 1], noises[k - 1]
        msgs = encode_uploads(ctx, g, f)
        got = next(m.payload for m in msgs if m.helper == helper)
        expect = (
            (g.parts[0][0] + coeff * g.parts[1][0] + (coeff**2 % 7) * f.parts[0][0]) % 7,
        )
        assert got == expect


def test_encode_zero_inputs_give_zero_uploads(ctx):
    g = Gradient.from_symbols(1, [0, 0], EXAMPLE)
    f = UserRandomness(1, ((0,),))
    assert all(m.payload == (0,) for m in encode_uploads(ctx, g, f))


def test_encode_shape_errors(ctx):
    g = Gradient.from_symbols(1, [1, 2], EXAMPLE)
    with pytest.raises(ShapeMismatch):
        encode_uploads(ctx, g, UserRandomness(2, ((1,),)))
    with pytest.raises(ShapeMismatch):
        encode_uploads(ctx, g, UserRandomness(1, ((1,), (2,))))
    with pytest.raises(ShapeMismatch):
        encode_uploads(ctx, Gradient(1, ((1,),)), UserRandomness(1, ((1,),)))
    with pytest.raises(ShapeMismatch, match="every part must have 1 symbols"):
        encode_uploads(ctx, g, UserRandomness(1, ((1, 2),)))
    with pytest.raises(ShapeMismatch):
        Gradient.from_symbols(1, [1, 2, 3], EXAMPLE)


# -- dealer ------------------------------------------------------------------


def test_dealer_masks_match_coefficient_tables(ctx):
    keys = dealer_generate(ctx, 99)
    for n in (3, 4):
        table = ctx.mask_maps[n - 1]
        for k in (1, 2):
            q1 = keys.noise[(n, 1, k)][0]
            q2 = keys.noise[(n, 2, k)][0]
            for i in range(1, 5):
                expect = ((table[i - 1, 0] * q1 + table[i - 1, 1] * q2) % 7,)
                assert keys.masks[(i, n, k)] == expect


def test_dealer_own_mask_is_zero(ctx):
    keys = dealer_generate(ctx, 1)
    for n in range(1, 5):
        for k in (1, 2):
            assert keys.masks[(n, n, k)] == (0,)


def test_dealer_deterministic_by_seed(ctx):
    assert dealer_generate(ctx, "s").noise == dealer_generate(ctx, "s").noise
    assert dealer_generate(ctx, "s").noise != dealer_generate(ctx, "t").noise


@pytest.mark.parametrize("params", DEFAULT_GRID, ids=SchemeParams.label)
def test_masks_are_each_users_noise_mixed_by_the_helpers_map(params):
    """One product per helper over every user's noise side by side gives,
    for each (i, n, k), row i of ``mask_maps[n]`` times user k's slots."""
    ctx = setup(params)
    keys = dealer_generate(ctx, "mask-slices")
    assert len(keys.masks) == params.num_helpers**2 * params.num_users
    for n in range(1, params.num_helpers + 1):
        for k in range(1, params.num_users + 1):
            slots = GfMatrix(ctx.field, [keys.noise[n, j, k] for j in range(1, params.resiliency)])
            mixed = ctx.mask_maps[n - 1] @ slots
            for i in range(1, params.num_helpers + 1):
                assert keys.masks[i, n, k] == mixed.row(i - 1)
                assert len(keys.masks[i, n, k]) == params.block_len


def test_degenerate_empty_noise_gives_zero_masks(ctx):
    zero_noise = {
        (n, j, k): (0,)
        for n in range(1, 5)
        for j in (1, 2)
        for k in (1, 2)
    }
    keys = keys_from_noise(ctx, zero_noise)
    assert all(v == (0,) for v in keys.masks.values())


# -- sharing and recovery ----------------------------------------------------


def upload_table(ctx, grads, noises):
    table = {}
    for g, f in zip(grads, noises):
        for m in encode_uploads(ctx, g, f):
            table[(m.user, m.helper)] = m.payload
    return table


def test_share_worked_example(ctx):
    grads, noises = make_round_inputs(EXAMPLE, 3)
    keys = dealer_generate(ctx, 3)
    x = upload_table(ctx, grads, noises)
    sent = {}
    for k, receivers in enumerate(EXAMPLE_PATTERN.receivers, start=1):
        uploads = {i: x[(k, i)] for i in receivers}
        for (i, n), payload in helper_share(ctx, keys, k, receivers, uploads).items():
            sent.setdefault((i, n), {})[k] = payload

    # helper 3 misses user 2: senders are exactly N_2 = {1, 2, 4}
    for i in (1, 2, 4):
        expect = ((x[(2, i)][0] + keys.masks[(i, 3, 2)][0]) % 7,)
        assert sent[(i, 3)] == {2: expect}
    # helper 4 misses user 1: senders are exactly N_1 = {1, 2, 3}
    for i in (1, 2, 3):
        expect = ((x[(1, i)][0] + keys.masks[(i, 4, 1)][0]) % 7,)
        assert sent[(i, 4)] == {1: expect}
    # helpers 1 and 2 hold both users: nobody sends to them
    assert not any(r in (1, 2) for (_, r) in sent)


def test_share_full_pattern_is_silent(ctx):
    full = CommPattern(
        (frozenset({1, 2, 3, 4}),) * 2, frozenset({1, 2, 3, 4})
    )
    grads, noises = make_round_inputs(EXAMPLE, 4)
    keys = dealer_generate(ctx, 4)
    x = upload_table(ctx, grads, noises)
    for k, receivers in enumerate(full.receivers, start=1):
        uploads = {i: x[(k, i)] for i in receivers}
        assert helper_share(ctx, keys, k, receivers, uploads) == {}


def test_recover_equals_direct_upload_worked_example(ctx):
    grads, noises = make_round_inputs(EXAMPLE, 5)
    keys = dealer_generate(ctx, 5)
    x = upload_table(ctx, grads, noises)
    pattern = EXAMPLE_PATTERN
    shares_to_3 = {
        i: ((x[(2, i)][0] + keys.masks[(i, 3, 2)][0]) % 7,) for i in (1, 2, 4)
    }
    assert helper_recover(ctx, 3, 2, pattern.receivers_of(2), shares_to_3) == x[(2, 3)]
    shares_to_4 = {
        i: ((x[(1, i)][0] + keys.masks[(i, 4, 1)][0]) % 7,) for i in (1, 2, 3)
    }
    assert helper_recover(ctx, 4, 1, pattern.receivers_of(1), shares_to_4) == x[(1, 4)]


def test_recover_matches_encoder_on_random_patterns(ctx):
    rng = random.Random(12)
    for trial in range(200):
        grads, noises = make_round_inputs(EXAMPLE, f"rec:{trial}")
        keys = dealer_generate(ctx, f"rec-keys:{trial}")
        x = upload_table(ctx, grads, noises)
        patterns = list(enumerate_patterns(EXAMPLE))
        pattern = patterns[rng.randrange(len(patterns))]
        for n in sorted(pattern.active_helpers):
            for k in (1, 2):
                if k in pattern.users_of(n):
                    continue
                receivers = pattern.receivers_of(k)
                shares = {
                    i: ((x[(k, i)][0] + keys.masks[(i, n, k)][0]) % 7,)
                    for i in receivers
                }
                assert helper_recover(ctx, n, k, receivers, shares) == x[(k, n)]


def test_recover_errors(ctx):
    pattern = EXAMPLE_PATTERN
    with pytest.raises(NotEnoughShares):
        helper_recover(ctx, 3, 2, pattern.receivers_of(2), {1: (0,), 2: (0,)})
    with pytest.raises(ValueError):
        helper_recover(ctx, 1, 2, pattern.receivers_of(2), {})  # helper 1 already has user 2


# -- responses and decoding --------------------------------------------------


def test_respond_golden(ctx):
    grads, noises = make_round_inputs(EXAMPLE, 6)
    keys = dealer_generate(ctx, 6)
    x = upload_table(ctx, grads, noises)
    resp = helper_respond(ctx, 1, {1: x[(1, 1)], 2: x[(2, 1)]})
    assert resp.payload == ((x[(1, 1)][0] + x[(2, 1)][0]) % 7,)
    with pytest.raises(MissingRecovery):
        helper_respond(ctx, 3, {1: x[(1, 3)]})


def test_responses_equal_upload_sums_exhaustively(ctx):
    """Recovered responses match the ground-truth sum of uploads on
    every pattern of the worked instance."""
    grads, noises = make_round_inputs(EXAMPLE, 8)
    keys = dealer_generate(ctx, 8)
    x = upload_table(ctx, grads, noises)
    for pattern in enumerate_patterns(EXAMPLE):
        full = pattern.with_survivors(pattern.active_helpers)
        transcript = run_round(ctx, full, grads, noises, keys)
        for resp in transcript.responses:
            expect = ((x[(1, resp.helper)][0] + x[(2, resp.helper)][0]) % 7,)
            assert resp.payload == expect


def test_master_decode_golden(ctx):
    grads, noises = make_round_inputs(EXAMPLE, 9)
    keys = dealer_generate(ctx, 9)
    transcript = run_round(ctx, EXAMPLE_PATTERN, grads, noises, keys)
    assert transcript.decoded == gradient_sum(grads, 7)


def test_master_decode_zero_single_user():
    params = SchemeParams(1, 4, 3, 1, 7, 2)
    ctx1 = setup(params)
    grads = [Gradient.from_symbols(1, [0, 0], params)]
    noises = [UserRandomness(1, ((0,),))]
    keys = dealer_generate(ctx1, 0)
    full = CommPattern((frozenset({1, 2, 3, 4}),), frozenset({1, 2, 3, 4}))
    assert run_round(ctx1, full, grads, noises, keys).decoded == (0, 0)


def test_master_decode_needs_enough_responses(ctx):
    with pytest.raises(NotEnoughResponses):
        master_decode(ctx, [])


def test_decoder_choice_independence(ctx):
    """Any admissible responder subset yields the identical output."""
    grads, noises = make_round_inputs(EXAMPLE, 10)
    keys = dealer_generate(ctx, 10)
    full = CommPattern((frozenset({1, 2, 3, 4}),) * 2, frozenset({1, 2, 3, 4}))
    transcript = run_round(ctx, full, grads, noises, keys)
    expected = gradient_sum(grads, 7)
    for subset in combinations(transcript.responses, 3):
        assert master_decode(ctx, subset) == expected


def test_decode_inverses_are_keyed_by_matrix_content(ctx):
    """The round's inverses are memoized by matrix content and row
    selection: a context with equal params but other matrices, as the
    broken-scheme tests build with ``replace``, never reads the correct
    context's inverse, whichever ran first.  The memo is the context's:
    it dies with it, a ``replace``d copy gets its own, and a widened
    copy shares its parent's."""
    grads, noises = make_round_inputs(EXAMPLE, 16)
    keys = dealer_generate(ctx, 16)
    full = CommPattern((frozenset({1, 2, 3, 4}),) * 2, frozenset({1, 2, 3, 4}))
    responses = run_round(ctx, full, grads, noises, keys).responses
    assert master_decode(ctx, responses) == gradient_sum(grads, 7)  # fills the memo
    owned = setup(EXAMPLE)
    assert master_decode(owned, responses) == gradient_sum(grads, 7)
    inverse = owned.memo[owned.upload_matrix, (0, 1, 2)]
    del owned
    gc.collect()
    assert sys.getrefcount(inverse) == 2  # held by this name and the call's argument only
    other = replace(ctx, upload_matrix=vandermonde(ctx.field, (2, 3, 4, 5), 3))
    assert other.params == ctx.params and other.upload_matrix != ctx.upload_matrix
    assert other.memo == {} and other.memo is not ctx.memo
    wide = ctx.widened(4 * EXAMPLE.gradient_len)
    assert wide.params.gradient_len == 8 and wide.memo is ctx.memo
    solved = other.upload_matrix.select_rows([0, 1, 2]).inv() @ GfMatrix(
        ctx.field, [r.payload for r in responses[:3]]
    )
    got = master_decode(other, responses)
    assert got == tuple(s for i in range(EXAMPLE.block_count) for s in solved.row(i))
    assert got != master_decode(ctx, responses)

    # helper 3 recovers user 2 from helpers 1, 2 and 4 (rows 0, 1, 3)
    x = upload_table(ctx, grads, noises)
    shares = {i: ((x[(2, i)][0] + keys.masks[(i, 3, 2)][0]) % 7,) for i in (1, 2, 4)}
    assert helper_recover(ctx, 3, 2, EXAMPLE_PATTERN.receivers_of(2), shares) == x[(2, 3)]
    doubled = GfMatrix(ctx.field, [[2 * v for v in row] for row in ctx.decode_matrices[2].data])
    maps = ctx.decode_matrices
    other = replace(ctx, decode_matrices=maps[:2] + (doubled,) + maps[3:])
    # the inverse halves, so helper 3 now rebuilds half the upload
    assert x[(2, 3)] != (0,)
    assert helper_recover(other, 3, 2, EXAMPLE_PATTERN.receivers_of(2), shares) == (
        x[(2, 3)][0] * 4 % 7,
    )


_CANONICAL_POINTS = [
    EXAMPLE,
    SchemeParams(2, 3, 2, 1, 5, 1),
    SchemeParams(3, 5, 4, 2, 11, 2),
    SchemeParams(2, 4, 3, 1, 2**31 - 1, 4),
]


@settings(max_examples=80, deadline=None)
@given(st.sampled_from(_CANONICAL_POINTS), st.data())
def test_every_round_payload_is_a_canonical_residue(params, data):
    """Whatever integers the inputs hold, reduced or not, every payload a
    round produces (uploads, masks, shares, recovered uploads, responses
    and the decoded sum) is a plain int in [0, q), and the decode is the
    sum of the gradients mod q."""
    ctx = setup(params)
    q, l = params.modulus, params.block_len
    pattern = sample_pattern(params, data.draw(st.floats(0, 0.6)), data.draw(st.integers(0, 99)))
    users, helpers = range(1, params.num_users + 1), range(1, params.num_helpers + 1)
    vec = st.lists(st.integers(-2 * q, 3 * q), min_size=l, max_size=l).map(tuple)
    grads = [
        Gradient(k, tuple(data.draw(vec) for _ in range(params.block_count))) for k in users
    ]
    noises = [
        UserRandomness(k, tuple(data.draw(vec) for _ in range(params.collusion))) for k in users
    ]
    noise = {
        (n, j, k): data.draw(vec)
        for n in helpers
        for j in range(1, params.resiliency)
        for k in users
    }
    t = run_round(ctx, pattern, grads, noises, keys_from_noise(ctx, noise))
    payloads = (
        [u.payload for u in t.uploads]
        + list(t.keys.masks.values())
        + list(t.shares.values())
        + list(t.recovered.values())
        + [r.payload for r in t.responses]
        + [t.decoded]
    )
    assert all(type(v) is int and 0 <= v < q for p in payloads for v in p)
    assert t.decoded == tuple(sum(col) % q for col in zip(*(g.symbols() for g in grads)))


@settings(max_examples=80, deadline=None)
@given(st.sampled_from(_CANONICAL_POINTS), st.data())
def test_whole_vector_arithmetic_matches_the_matrix_products(params, data):
    """On unreduced and negative integers, ``_vec_add`` gives a row of
    ones times the stacked vectors, ``helper_recover`` the first row of
    the chosen senders' decode inverse times their stacked shares, and
    ``master_decode`` the first ``block_count`` rows of the chosen
    responders' upload inverse times their stacked responses, joined, as
    ``GfMatrix`` computes them.  A share or response of another length
    still raises."""
    ctx = setup(params)
    field, q = ctx.field, params.modulus
    width = data.draw(st.integers(1, 5))
    vec = st.lists(st.integers(-3 * q, 3 * q), min_size=width, max_size=width).map(tuple)
    vectors = data.draw(st.lists(vec, min_size=1, max_size=6))
    ones = GfMatrix(field, [[1] * len(vectors)])
    assert protocol._vec_add(q, *vectors) == (ones @ GfMatrix(field, vectors)).row(0)

    missing = [(p, n) for p in enumerate_patterns(params) for n in sorted(p.active_helpers)
               if len(p.users_of(n)) < params.num_users]
    pattern, n = data.draw(st.sampled_from(missing))
    k = data.draw(st.sampled_from(sorted(set(range(1, params.num_users + 1)) - pattern.users_of(n))))
    receivers = pattern.receivers_of(k)
    shares = {i: data.draw(vec) for i in sorted(receivers)}
    chosen = sorted(shares)[:params.resiliency]
    first = ctx.decode_matrices[n - 1].select_rows([i - 1 for i in chosen]).inv().data[:1]
    expected = GfMatrix.of_reduced(field, first) @ GfMatrix(field, [shares[i] for i in chosen])
    assert helper_recover(ctx, n, k, receivers, shares) == expected.row(0)
    bad = data.draw(st.sampled_from(chosen))
    ragged = {**shares, bad: data.draw(st.sampled_from([shares[bad] + (0,), shares[bad][1:]]))}
    with pytest.raises(DimensionMismatch):
        helper_recover(ctx, n, k, receivers, ragged)

    helpers = range(1, params.num_helpers + 1)
    ids = data.draw(st.lists(st.sampled_from(helpers), min_size=params.resiliency, unique=True))
    responses = [protocol.HelperResponse(i, data.draw(vec)) for i in ids]
    chosen = sorted(ids)[:params.resiliency]
    solved = ctx.upload_matrix.select_rows([i - 1 for i in chosen]).inv() @ GfMatrix(
        field, [r.payload for r in sorted(responses, key=lambda r: r.helper)[:len(chosen)]]
    )
    expected = tuple(s for i in range(params.block_count) for s in solved.row(i))
    assert master_decode(ctx, responses) == expected
    bad = data.draw(st.sampled_from(range(len(chosen))))
    ragged = [replace(r, payload=r.payload + (0,)) if r.helper == chosen[bad] else r
              for r in responses]
    with pytest.raises(DimensionMismatch):
        master_decode(ctx, ragged)


def test_roundtrip_exhaustive_at_small_point():
    params = SchemeParams(2, 3, 2, 1, 5, 1)
    ctx2 = setup(params)
    grads, noises = make_round_inputs(params, 11)
    keys = dealer_generate(ctx2, 11)
    expected = gradient_sum(grads, 5)
    cases = 0
    for pattern in enumerate_patterns(params):
        for survivors in enumerate_survivors(pattern, params):
            t = run_round(ctx2, pattern.with_survivors(survivors), grads, noises, keys)
            assert t.decoded == expected
            cases += 1
    assert cases > 16


def test_a_round_is_its_helpers_on_its_uploads_then_the_decode():
    """``run_round`` is ``run_helpers`` on ``encode_round_uploads`` of its
    inputs and its keys, then ``master_decode`` of the survivors'
    responses, at every pattern and survivor set."""
    params = SchemeParams(2, 3, 2, 1, 5, 1)
    ctx2 = setup(params)
    grads, noises = make_round_inputs(params, 12)
    keys = dealer_generate(ctx2, 12)
    uploads = encode_round_uploads(ctx2, grads[::-1], noises)
    assert uploads == tuple(m for g, f in zip(grads, noises) for m in encode_uploads(ctx2, g, f))
    cases = 0
    for pattern in enumerate_patterns(params):
        for survivors in enumerate_survivors(pattern, params):
            full = pattern.with_survivors(survivors)
            phase = run_helpers(ctx2, full, uploads, keys)
            assert phase.decoded is None
            phase.decoded = master_decode(
                ctx2, [r for r in phase.responses if r.helper in survivors]
            )
            assert phase == run_round(ctx2, full, grads, noises, keys)
            cases += 1
    assert cases == 55


def test_message_sizes_are_one_block(ctx):
    grads, noises = make_round_inputs(EXAMPLE, 13)
    keys = dealer_generate(ctx, 13)
    t = run_round(ctx, EXAMPLE_PATTERN, grads, noises, keys)
    l = EXAMPLE.block_len
    assert all(len(u.payload) == l for u in t.uploads)
    assert all(len(r.payload) == l for r in t.responses)
    assert all(len(v) == l for v in t.shares.values())


def test_measure_rates():
    cases = [
        (SchemeParams(2, 4, 3, 1, 7, 2), Fraction(1, 2)),
        (SchemeParams(2, 6, 5, 2, 13, 3), Fraction(1, 3)),
        (SchemeParams(2, 3, 2, 1, 5, 1), Fraction(1, 1)),
    ]
    for params, expect in cases:
        c = setup(params)
        grads, noises = make_round_inputs(params, 14)
        keys = dealer_generate(c, 14)
        helpers = frozenset(range(1, params.num_helpers + 1))
        full = CommPattern((helpers,) * params.num_users, helpers)
        rx, ry = measure_rates(run_round(c, full, grads, noises, keys))
        assert (rx, ry) == (expect, expect)
        assert rx == params.rate_bound


def test_gradient_recoverable_from_any_resilient_upload_set(ctx):
    """Elimination-level recoverability: the gradient rows of the mixing
    matrix lie in the row space of any >= resiliency upload rows."""
    params = EXAMPLE
    v = ctx.upload_matrix
    for size in range(params.resiliency, params.num_helpers + 1):
        for rows in combinations(range(params.num_helpers), size):
            space = RowSpace(ctx.field, params.resiliency)
            space.insert_matrix(v.select_rows(rows))
            base_rank = space.rank
            for i in range(params.block_count):
                unit = [0] * params.resiliency
                unit[i] = 1
                assert not space.insert(unit), "gradient row escapes the span"
            assert space.rank == base_rank


def test_run_round_validates_inputs(ctx):
    """Errors in order: the pattern's, then a missing survivor set, then
    a gradient count other than one per user, then randomness other than
    one per user: for one user only, one user's twice, or for a user the
    scheme lacks."""
    grads, noises = make_round_inputs(EXAMPLE, 15)
    keys = dealer_generate(ctx, 15)
    short = parse_pattern("nu=1:1,2;2:1,2,4")
    bare = parse_pattern("nu=1:1,2,3;2:1,2,4")
    with pytest.raises(TooFewReceivers):
        run_round(ctx, short, grads[:1], noises, keys)
    with pytest.raises(BadSurvivorSet, match="needs a survivor set to decode"):
        run_round(ctx, bare, grads[:1], noises, keys)
    with pytest.raises(ShapeMismatch):
        run_round(ctx, EXAMPLE_PATTERN, grads[:1], noises, keys)
    with pytest.raises(ShapeMismatch, match="one gradient per user"):
        run_round(ctx, EXAMPLE_PATTERN, grads[:1], noises[:1], keys)
    for bad in ([noises[0]], [noises[0], noises[0]], [replace(noises[1], owner=3), noises[0]]):
        with pytest.raises(ShapeMismatch, match="one randomness per user"):
            run_round(ctx, EXAMPLE_PATTERN, grads, bad, keys)
    uploads = encode_round_uploads(ctx, grads, noises)
    with pytest.raises(TooFewReceivers):
        run_helpers(ctx, short, uploads, keys)
    # the helper phase stops at the responses and needs no survivor set
    stopped = run_helpers(ctx, bare, uploads, keys)
    decoded = run_round(ctx, bare.with_survivors({2, 3, 4}), grads, noises, keys)
    assert stopped.decoded is None and stopped.responses == decoded.responses


import copy
import gc
import random
import weakref
from dataclasses import fields, is_dataclass, replace
from fractions import Fraction
from functools import reduce
from itertools import combinations, product
from math import comb
from operator import or_

import numpy as np
import pytest
from hypothesis import event, given, settings, strategies as st

from hsagg import leakage, protocol
from hsagg.field import PrimeField
from hsagg.harness import DEFAULT_GRID, RunConfig, verify_point
from hsagg.leakage import (
    BadSubset,
    BruteForceOracle,
    LayoutMismatch,
    LeakageError,
    LinearTranscript,
    LinearVar,
    MiQuery,
    SourceLayout,
    TooLargeToEnumerate,
    TranscriptMismatch,
    UnitRound,
    _counted_entropy,
    _extended_kernel,
    _sharing_ranks,
    _split_observed,
    _split_quadruple,
    build_linear_transcript,
    build_static_vars,
    check_mask_independence,
    check_sharing_leakage,
    check_upload_recoverability,
    check_security_helpers,
    check_security_master,
    concrete_transcript_values,
    cond_mutual_info,
    entropy_rank,
    helper_observation,
    infeasibility_witness,
    joint_rank,
    rank_quadruple,
    response_entropy_given_sum,
)
from hsagg.matrix import GfMatrix, RowSpace, Singular
from hsagg.patterns import (
    enumerate_patterns,
    enumerate_survivors,
    no_straggler_pattern,
    parse_pattern,
    subsets,
)
from hsagg.protocol import HelperResponse, SchemeParams, setup

EXAMPLE = SchemeParams(2, 4, 3, 1, 7, 2)
EXAMPLE_PATTERN = parse_pattern("nu=1:1,2,3;2:1,2,4 hm=2,3,4")

TINY = SchemeParams(1, 3, 2, 1, 5, 1)
TINY_PATTERN = parse_pattern("nu=1:1,2 hm=1,2")


@pytest.fixture(scope="module")
def ctx():
    return setup(EXAMPLE)


@pytest.fixture(scope="module")
def tvars(ctx):
    return build_linear_transcript(ctx, EXAMPLE_PATTERN)


@pytest.fixture(scope="module")
def tiny_ctx():
    return setup(TINY)


@pytest.fixture(scope="module")
def tiny_oracle(tiny_ctx):
    return BruteForceOracle(tiny_ctx, TINY_PATTERN)


def _rows(variables):
    """The coefficient rows of ``variables``, in order."""
    return [row for v in variables for row in v.rows]


def _unit_split(variables):
    """The columns of the variables' unit rows and their other nonzero
    rows; every row lies in the user columns."""
    units, rest = set(), []
    for v in variables:
        u = v.layout.user_dim
        for row in v.rows:
            assert not any(row[u:])
            support = [j for j in range(u) if row[j]]
            if len(support) == 1:
                units.add(support[0])
            elif support:
                rest.append(row)
    return frozenset(units), tuple(rest)


def apply_linear(var, assignment, q, block_len):
    out = []
    for row in var.rows:
        for s in range(block_len):
            acc = sum(c * assignment[i * block_len + s] for i, c in enumerate(row))
            out.append(acc % q)
    return tuple(out)


def test_layout_slots_cover_dimension():
    layout = SourceLayout(EXAMPLE)
    slots = [layout.w_slot(k, i) for k in (1, 2) for i in (1, 2)]
    slots += [layout.f_slot(k, 1) for k in (1, 2)]
    slots += [
        layout.q_slot(n, j, k) for n in range(1, 5) for j in (1, 2) for k in (1, 2)
    ]
    assert sorted(slots) == list(range(layout.dim))
    assert layout.dim == 22
    assert len(layout.labels()) == 22


def test_golden_upload_coefficients(tvars):
    layout = tvars["W"].layout
    row = tvars["X[2,3]"].rows[0]
    nonzero = {i: c for i, c in enumerate(row) if c}
    assert nonzero == {
        layout.w_slot(2, 1): 1,
        layout.w_slot(2, 2): 3,
        layout.f_slot(2, 1): 2,
    }


def test_golden_mask_coefficients(tvars):
    layout = tvars["W"].layout
    for k in (1, 2):
        row = tvars[f"Z[1,3,{k}]"].rows[0]
        nonzero = {i: c for i, c in enumerate(row) if c}
        assert nonzero == {layout.q_slot(3, 2, k): 5}
        row4 = tvars[f"Z[4,3,{k}]"].rows[0]
        nonzero4 = {i: c for i, c in enumerate(row4) if c}
        assert nonzero4 == {layout.q_slot(3, 1, k): 3, layout.q_slot(3, 2, k): 3}


def test_response_coefficients_are_upload_sums(tvars):
    q = EXAMPLE.modulus
    for n in (1, 2, 3, 4):
        got = tvars[f"Y[{n}]"].rows[0]
        expect = tuple(
            (a + b) % q
            for a, b in zip(tvars[f"X[1,{n}]"].rows[0], tvars[f"X[2,{n}]"].rows[0])
        )
        assert got == expect


def test_recovered_coefficients_equal_direct(tvars):
    assert tvars["Xhat[2,3]"].rows == tvars["X[2,3]"].rows
    assert tvars["Xhat[1,4]"].rows == tvars["X[1,4]"].rows


def test_linear_model_reproduces_concrete_transcript(ctx):
    rng = random.Random(77)
    layout = SourceLayout(EXAMPLE)
    width = layout.dim * EXAMPLE.block_len
    patterns = list(enumerate_patterns(EXAMPLE))
    for trial in range(10):
        pattern = patterns[rng.randrange(len(patterns))]
        tv = build_linear_transcript(ctx, pattern)
        assignment = [rng.randrange(7) for _ in range(width)]
        concrete = concrete_transcript_values(ctx, pattern, assignment)
        assert set(concrete) == set(tv)
        for name, var in tv.items():
            assert apply_linear(var, assignment, 7, EXAMPLE.block_len) == concrete[name], name


@pytest.mark.parametrize(
    "params, cases",
    [
        (SchemeParams(2, 4, 3, 1, 7, 2), 109),
        (SchemeParams(3, 4, 3, 2, 11, 1), 609),
        (SchemeParams(2, 5, 4, 2, 11, 2), 191),
    ],
    ids=["2,4,3,1,7,2", "3,4,3,2,11,1", "2,5,4,2,11,2"],
)
def test_unit_round_decodes_the_sum_symbolically(params, cases):
    """The roles are linear, so a decode of the survivors' response rows
    in the linear transcript that gives the rows of W decodes the sum
    for every input."""
    ctx = setup(params)
    dim = SourceLayout(params).dim
    unit_ctx = ctx.widened(dim * params.block_count)
    seen = 0
    for pattern in enumerate_patterns(params):
        tv = build_linear_transcript(ctx, pattern)
        for survivors in enumerate_survivors(pattern, params):
            responses = [HelperResponse(n, sum(tv[f"Y[{n}]"].rows, ())) for n in sorted(survivors)]
            decoded = protocol.master_decode(unit_ctx, responses)
            rows = tuple(decoded[i:i + dim] for i in range(0, len(decoded), dim))
            assert rows == tv["W"].rows, (pattern, survivors)
            seen += 1
    assert seen == cases


def _forward_unmasked_shares(ctx, monkeypatch):
    share = protocol.helper_share

    def unmasked(ctx, keys, user, receivers, uploads):
        return {(i, n): uploads[i] for i, n in share(ctx, keys, user, receivers, uploads)}

    monkeypatch.setattr(protocol, "helper_share", unmasked)
    return ctx


def _zero_masks(ctx, monkeypatch):
    zeros = tuple(GfMatrix(ctx.field, [[0] * m.cols] * m.rows, m.cols) for m in ctx.mask_maps)
    return replace(ctx, mask_maps=zeros)


def _helper4_upload_without_randomness(ctx, monkeypatch):
    # One row stripped: every other helper's uploads stay masked, so
    # the leak is confined to the views that include the last helper's
    # data (helper 4 of EXAMPLE).
    p = ctx.params
    rows = list(ctx.upload_matrix.data)
    rows[-1] = rows[-1][: p.block_count] + (0,) * p.collusion
    return replace(ctx, upload_matrix=GfMatrix(ctx.field, rows))


def _uploads_without_randomness(ctx, monkeypatch):
    # No Nr-row submatrix is invertible now, so the master cannot
    # decode; the linear transcript stops at the responses and the
    # leakage is still measured.
    p = ctx.params
    rows = [r[: p.block_count] + (0,) * p.collusion for r in ctx.upload_matrix.data]
    return replace(ctx, upload_matrix=GfMatrix(ctx.field, rows))


@pytest.mark.parametrize(
    "break_scheme, leaks",
    [
        (_forward_unmasked_shares, [0, 0, 2, 2]),
        (_zero_masks, [0, 0, 2, 2]),
        (_helper4_upload_without_randomness, [0, 0, 1, 2]),
        (_uploads_without_randomness, [2, 2, 2, 2]),
    ],
    ids=[
        "unmasked-shares",
        "zero-masks",
        "upload-row-without-randomness",
        "uploads-without-randomness",
    ],
)
def test_verifier_reports_leakage_of_broken_schemes(ctx, monkeypatch, break_scheme, leaks):
    broken = break_scheme(ctx, monkeypatch)
    pattern = parse_pattern("nu=1:1,2,3;2:1,2,4")
    got = [check_security_helpers(broken, pattern, [], [t]).value for t in (1, 2, 3, 4)]
    assert got == leaks


def _sharing_query(ctx, tv, pattern, tset):
    """The sharing query of a helper set, built as
    ``check_sharing_leakage`` builds it."""
    params = ctx.params
    view = helper_observation(tv, tset)
    return MiQuery(
        target=tuple(
            tv[f"X[{k},{n}]"]
            for k in range(1, params.num_users + 1)
            for n in range(1, params.num_helpers + 1)
        ),
        observed=tuple(v for v in view if v.name.startswith("M[")),
        given=tuple(v for v in view if not v.name.startswith("M[")),
    )


@pytest.mark.parametrize(
    "break_scheme, leaks",
    [
        (_forward_unmasked_shares, [0, 0, 2, 2]),
        (_zero_masks, [0, 0, 2, 2]),
        (_helper4_upload_without_randomness, [0, 0, 1, 1]),
        (_uploads_without_randomness, [0, 0, 0, 0]),
    ],
    ids=[
        "unmasked-shares",
        "zero-masks",
        "upload-row-without-randomness",
        "uploads-without-randomness",
    ],
)
def test_sharing_check_reports_leakage_of_broken_schemes(ctx, monkeypatch, break_scheme, leaks):
    broken = break_scheme(ctx, monkeypatch)
    pattern = parse_pattern("nu=1:1,2,3;2:1,2,4")
    tv = build_linear_transcript(broken, pattern)
    got = []
    for t in (1, 2, 3, 4):
        record = check_sharing_leakage(broken, pattern, [t], tvars=tv)
        query = _sharing_query(broken, tv, pattern, [t])
        assert record.ranks == rank_quadruple(query)
        got.append(record.value)
    assert got == leaks


def test_undecodable_scheme_is_measured_but_its_rounds_raise(ctx, monkeypatch):
    broken = _uploads_without_randomness(ctx, monkeypatch)
    pattern = parse_pattern("nu=1:1,2,3;2:1,2,4")
    got = [check_security_master(broken, pattern, [], [t]).value for t in (1, 2, 3, 4)]
    assert got == [1, 1, 1, 1]
    rng = random.Random(3)
    grads = [protocol.Gradient.random(k, EXAMPLE, rng) for k in (1, 2)]
    noises = [protocol.UserRandomness.random(k, EXAMPLE, rng) for k in (1, 2)]
    keys = protocol.dealer_generate(broken, "dealer:0")
    with pytest.raises(Singular):
        protocol.run_round(broken, pattern.with_survivors({1, 2, 3}), grads, noises, keys)


def test_entropy_examples(tvars, ctx):
    l = EXAMPLE.block_len
    # masks seen by a strict subset of peers are full-entropy
    for n in (1, 2, 3, 4):
        others = [i for i in range(1, 5) if i != n]
        for size in (1, 2):
            for subset in combinations(others, size):
                group = [tvars[f"Z[{i},{n},1]"] for i in subset]
                assert entropy_rank(group) == Fraction(size * l)
    assert entropy_rank([]) == 0
    w = tvars["W[1]"]
    assert cond_mutual_info(MiQuery((w,), (w,), (w,))) == 0


def test_full_recovery_from_resilient_responses(tvars):
    """The gradient sum is fully determined by any resiliency-many
    responses: I(sum; responses) = L."""
    responses = tuple(tvars[f"Y[{n}]"] for n in (1, 2, 3))
    assert cond_mutual_info(MiQuery((tvars["W"],), responses)) == Fraction(2)


def test_security_helpers_golden(ctx, tvars):
    rec = check_security_helpers(ctx, EXAMPLE_PATTERN, [], [3], tvars=tvars)
    assert rec.value == 0 and rec.ok
    assert rec.ranks[0] == 4  # the two gradients alone carry 4 blocks
    rec_all = check_security_helpers(ctx, EXAMPLE_PATTERN, [1, 2], [], tvars=tvars)
    assert rec_all.value == 0


def test_security_master_golden(ctx, tvars):
    rec = check_security_master(ctx, EXAMPLE_PATTERN, [], [3], tvars=tvars)
    assert rec.value == 0 and rec.ok
    rec_all = check_security_master(ctx, EXAMPLE_PATTERN, [1, 2], [3], tvars=tvars)
    assert rec_all.value == 0


def test_security_flags_oversized_collusion(ctx, tvars):
    """A helper set beyond T is evaluated, not refused: its helper,
    master and sharing records are flagged exploratory, with the values
    of the incremental ``rank_quadruple`` path, and pass unjudged; a set
    within the bound is never flagged."""
    bound, helpers = EXAMPLE.collusion, range(1, EXAMPLE.num_helpers + 1)
    flagged = set()
    for check, uset, tset, query in _security_queries(
        ctx, EXAMPLE_PATTERN, tvars, beyond=EXAMPLE.num_helpers - bound
    ):
        rec = check(ctx, EXAMPLE_PATTERN, uset, tset, tvars=tvars)
        assert rec.ranks == rank_quadruple(query) and rec.value == cond_mutual_info(query)
        assert rec.exploratory == (len(tset) > bound), (rec.kind, uset, tset)
        flagged.add((rec.kind, rec.exploratory))
    for tset in (t for size in range(len(helpers) + 1) for t in combinations(helpers, size)):
        query = _sharing_query(ctx, tvars, EXAMPLE_PATTERN, tset)
        rec = check_sharing_leakage(ctx, EXAMPLE_PATTERN, tset, tvars=tvars)
        assert rec.ranks == rank_quadruple(query) and rec.value == cond_mutual_info(query)
        assert rec.exploratory == (len(tset) > bound), tset
        flagged.add((rec.kind, rec.exploratory))
    assert flagged == {(kind, f) for kind in ("helpers", "master", "sharing") for f in (False, True)}
    rec = check_security_helpers(ctx, EXAMPLE_PATTERN, [], [3, 4], tvars=tvars)
    assert rec.exploratory and rec.value > 0 and rec.ok


@pytest.mark.parametrize("users, tset, named", [
    ([0], [1], r"users \[0\] lie outside 1..2"),
    ([-1], [1], r"users \[-1\] lie outside 1..2"),
    ([1, 3], [], r"users \[3\] lie outside 1..2"),
    ([], [0], r"helpers \[0\] lie outside 1..3"),
    ([], [4], r"helpers \[4\] lie outside 1..3"),
], ids=["user-0", "user-minus-1", "user-3", "helper-0", "helper-4"])
def test_checks_reject_colluding_ids_out_of_range(users, tset, named):
    """An id outside 1..K or 1..N names no user's columns and no
    helper's variables: it is refused, not read as another user's or
    failed on a missing name."""
    ctx, pattern = setup(SchemeParams(2, 3, 2, 1, 5, 1)), parse_pattern("nu=1:1,2;2:1,3")
    tv = build_linear_transcript(ctx, pattern)
    for check in (check_security_helpers, check_security_master):
        with pytest.raises(BadSubset, match=named):
            check(ctx, pattern, users, tset, tvars=tv)
    if not users:  # the sharing and response checks take helpers only
        with pytest.raises(BadSubset, match=named):
            check_sharing_leakage(ctx, pattern, tset, tvars=tv)
        with pytest.raises(BadSubset, match=named):
            response_entropy_given_sum(build_static_vars(ctx), tset)
        with pytest.raises(BadSubset, match=named):
            helper_observation(tv, tset)
    rec = check_security_helpers(ctx, pattern, [2], [1], tvars=tv)
    assert rec.colluding_users == (2,) and rec.value == 0


@pytest.mark.parametrize("kind, users, tset, named", [
    ("helpers", (), (3, 3), r"helpers \[3, 3\] repeat an id"),
    ("master", (), (3, 3), r"helpers \[3, 3\] repeat an id"),
    ("sharing", (), (3, 3), r"helpers \[3, 3\] repeat an id"),
    ("helpers", (1, 1), (3,), r"users \[1, 1\] repeat an id"),
], ids=["helpers", "master", "sharing", "user"])
def test_checks_reject_a_repeated_colluding_id(ctx, kind, users, tset, named):
    """A repeated id would give one set a second record key:
    ``tset=[3, 3]`` was recorded as ``colluding_helpers=(3, 3)``, judged
    within the bound, with the ranks of ``[3]``.  It is refused, as the
    CLI refuses it, also once the set without the repeat is memoized."""
    tv = build_linear_transcript(ctx, EXAMPLE_PATTERN)

    def record(users, tset):
        if kind == "sharing":
            return check_sharing_leakage(ctx, EXAMPLE_PATTERN, tset, tvars=tv)
        check = check_security_master if kind == "master" else check_security_helpers
        return check(ctx, EXAMPLE_PATTERN, users, tset, tvars=tv)

    distinct = record(tuple(sorted(set(users))), tuple(sorted(set(tset))))  # fills the memos
    assert distinct.colluding_helpers == (3,) and distinct.value == 0
    with pytest.raises(BadSubset, match=named):
        record(users, tset)
    if len(set(tset)) < len(tset):  # a view would hold each variable twice
        with pytest.raises(BadSubset, match=named):
            helper_observation(tv, tset)


def test_another_patterns_transcript_cannot_hide_a_leak(ctx, monkeypatch):
    """Under zero masks, helper 2 sees user 2's upload masked by nothing
    when user 2 did not reach it; the transcript of a pattern where
    user 2 did would report no leak, so it is refused."""
    broken = _zero_masks(ctx, monkeypatch)
    pattern = parse_pattern("nu=1:1,2,3;2:1,3,4")
    own = check_security_helpers(broken, pattern, (), (2,))
    assert (own.value, own.ranks) == (2, (4, 4, 6, 0))
    other = build_linear_transcript(broken, parse_pattern("nu=1:1,2,3;2:1,2,4"))
    with pytest.raises(TranscriptMismatch, match="queried for nu=1:1,2,3;2:1,3,4"):
        check_security_helpers(broken, pattern, (), (2,), tvars=other)


def test_a_transcript_with_other_active_helpers_is_refused(ctx):
    """Helper 4 straggles in the transcript's pattern but not in the
    queried one, whose response and shares the transcript lacks."""
    tv = build_linear_transcript(ctx, parse_pattern("nu=1:1,2,3;2:1,2,3"))
    pattern = parse_pattern("nu=1:1,2,3;2:1,2,4")
    for check in (check_security_helpers, check_security_master):
        with pytest.raises(TranscriptMismatch):
            check(ctx, pattern, (), (3,), tvars=tv)
    with pytest.raises(TranscriptMismatch):
        check_sharing_leakage(ctx, pattern, (3,), tvars=tv)


def test_a_transcript_of_another_context_is_refused(ctx, tvars, monkeypatch):
    """A ``replace``d context is another scheme; an equal context built
    anew is the same one."""
    broken = _zero_masks(ctx, monkeypatch)
    for check in (check_security_helpers, check_security_master):
        with pytest.raises(TranscriptMismatch, match="another scheme context"):
            check(broken, EXAMPLE_PATTERN, (), (3,), tvars=tvars)
    with pytest.raises(TranscriptMismatch, match="another scheme context"):
        check_sharing_leakage(broken, EXAMPLE_PATTERN, (3,), tvars=tvars)
    again = check_security_helpers(setup(EXAMPLE), EXAMPLE_PATTERN, (), (3,), tvars=tvars)
    assert again == check_security_helpers(ctx, EXAMPLE_PATTERN, (), (3,), tvars=tvars)


def test_static_suites_read_the_context_of_their_transcript(ctx, tvars, monkeypatch):
    """The mask and recoverability suites judge the context their
    transcript was built from, a broken one included, and read any
    pattern's transcript of it alike."""
    static = build_static_vars(ctx)
    zero_masks = _zero_masks(ctx, monkeypatch)
    upload = ctx.upload_matrix
    zeros = GfMatrix(ctx.field, [[0] * upload.cols] * upload.rows)
    zero_uploads = replace(ctx, upload_matrix=zeros)
    for suite, broken, violations in (
        (check_mask_independence, zero_masks, 48),
        (check_upload_recoverability, zero_uploads, 10),
    ):
        assert len(suite(build_static_vars(broken))[1]) == violations
        assert suite(tvars) == suite(static)
        assert not suite(static)[1]


@pytest.mark.parametrize(
    "params, patterns",
    [
        (SchemeParams(2, 3, 2, 1, 5, 1), None),
        (
            SchemeParams(3, 4, 3, 2, 11, 1),
            ("nu=1:1,2,3;2:2,3,4;3:1,3,4", "nu=1:1,2,3;2:1,2,3;3:1,2,3"),
        ),
    ],
    ids=["2,3,2,1,5,1-every-pattern", "3,4,3,2,11,1-straggling"],
)
def test_a_shared_unit_round_gives_each_pattern_a_fresh_transcripts_rows(params, patterns):
    """One unit round, as a campaign shares it across a point's patterns,
    gives every variable of each pattern the rows that a fresh
    ``build_linear_transcript`` gives it, with probe columns beside the
    identity as without.  Its ``probed_sum`` is the sum of the probes in
    the gradient slots, part after part, and empty without probes."""
    ctx, layout, q = setup(params), SourceLayout(params), params.modulus
    rng = random.Random(f"probes:{params.label()}")
    probes = [[rng.randrange(q) for _ in range(3)] for _ in range(layout.dim)]
    units = (UnitRound(ctx), UnitRound(ctx, probes))
    users = range(1, params.num_users + 1)
    parts = [zip(*(probes[layout.w_slot(k, i)] for k in users))
             for i in range(1, params.block_count + 1)]
    assert units[1].probed_sum == tuple(sum(c) % q for part in parts for c in part)
    assert units[0].probed_sum == ()
    chosen = enumerate_patterns(params) if patterns is None else map(parse_pattern, patterns)
    for pattern in chosen:
        fresh = build_linear_transcript(ctx, pattern)
        for shared in (unit.run(pattern)[1] for unit in units):
            assert (shared.ctx, shared.pattern) == (ctx, pattern)
            assert list(shared) == list(fresh)
            assert all(shared[name].rows == fresh[name].rows for name in fresh)


@pytest.mark.parametrize("shape", ["one-short", "ragged", "one-over"])
def test_a_unit_round_refuses_probes_that_are_not_one_per_slot_of_one_length(shape):
    """A unit round takes one probe per source slot, all of one length,
    or none.  Too few probes would shift every later slot's unit column,
    and the transcript's rows would no longer be its coefficients; a
    ragged or a surplus probe has no slot of its own.  Each is refused,
    naming the expected and the given counts; one probe per slot reads
    the rows that no probe reads."""
    params = SchemeParams(2, 3, 2, 1, 5, 1)
    ctx, dim = setup(params), SourceLayout(params).dim
    probes = {"one-short": [[1]] * (dim - 1), "ragged": [[1]] * (dim - 1) + [[1, 2]],
              "one-over": [[1]] * (dim + 1)}[shape]
    with pytest.raises(ValueError, match=rf"expected {dim} probes .* got {len(probes)} of"):
        UnitRound(ctx, probes)
    pattern = no_straggler_pattern(params)
    plain, probed = (UnitRound(ctx, p).run(pattern)[1] for p in ((), [[1]] * dim))
    assert all(probed[name].rows == plain[name].rows for name in plain)


def test_a_unit_rounds_transcript_answers_only_for_its_context(ctx, monkeypatch):
    """A unit round keeps the context it ran at, so its transcripts are
    refused for a ``replace``d broken context, whose own unit round shows
    the leak: no transcript pairs one context's rows with another's name."""
    broken = _zero_masks(ctx, monkeypatch)
    pattern = parse_pattern("nu=1:1,2,3;2:1,3,4")
    unit = UnitRound(ctx)
    with pytest.raises(TranscriptMismatch, match="another scheme context"):
        check_security_helpers(broken, pattern, (), (2,), tvars=unit.run(pattern)[1])
    own = UnitRound(broken).run(pattern)[1]
    assert check_security_helpers(broken, pattern, (), (2,), tvars=own).value == 2
    assert check_security_helpers(ctx, pattern, (), (2,), tvars=unit.run(pattern)[1]).ok


def test_response_entropy_refuses_a_straggling_transcript(ctx):
    straggling = build_linear_transcript(ctx, parse_pattern("nu=1:1,2,3;2:1,2,3"))
    with pytest.raises(TranscriptMismatch, match="queried for nu=1:1,2,3,4;2:1,2,3,4"):
        response_entropy_given_sum(straggling, [1])
    assert response_entropy_given_sum(build_static_vars(setup(EXAMPLE)), [1]) == 0


def test_layout_mismatch_detected(ctx):
    other = setup(SchemeParams(2, 3, 2, 1, 5, 1))
    a = build_static_vars(ctx)["W[1]"]
    b = build_static_vars(other)["W[1]"]
    with pytest.raises(LayoutMismatch):
        entropy_rank([a, b])


def test_mask_independence_report(ctx):
    checks, violations = check_mask_independence(build_static_vars(ctx))
    assert not violations
    # the maximal family, then 1 or 2 of the other 3 helpers' masks per group
    assert checks == 1 + 4 * 2 * 6


def _dependent_mask_rows(ctx, monkeypatch):
    # helper 1's masks held by helpers 2 and 3 are equal
    rows = list(ctx.mask_maps[0].data)
    rows[2] = rows[1]
    return replace(ctx, mask_maps=(GfMatrix(ctx.field, rows),) + ctx.mask_maps[1:])


def _noise_shared_across_users(ctx, monkeypatch):
    # every user's masks come from user 1's noise: each group keeps full
    # rank, but the groups of different users coincide
    derive = leakage.keys_from_noise
    monkeypatch.setattr(
        leakage,
        "keys_from_noise",
        lambda ctx, noise: derive(ctx, {(n, j, k): noise[(n, j, 1)] for n, j, k in noise}),
    )
    return ctx


@pytest.mark.parametrize(
    "break_scheme, violations",
    [
        (_zero_masks, 48 * [" = 0, expected "]),
        (
            _dependent_mask_rows,
            [f"H(masks (2, 3) of helper 1, user {k}) = 1, expected 2" for k in (1, 2)],
        ),
        (_noise_shared_across_users, ["maximal mask family is not independent"]),
    ],
    ids=["zero-masks", "dependent-mask-rows", "noise-shared-across-users"],
)
def test_mask_suite_catches_broken_masks(ctx, monkeypatch, break_scheme, violations):
    checks, found = check_mask_independence(build_static_vars(break_scheme(ctx, monkeypatch)))
    assert checks == 49
    assert len(found) == len(violations)
    assert all(want in got for want, got in zip(violations, found))


@pytest.mark.parametrize("params", DEFAULT_GRID, ids=SchemeParams.label)
def test_invariant_suites_count_in_closed_form(params):
    ctx = setup(params)
    tvars = build_static_vars(ctx)
    n, k, nr = params.num_helpers, params.num_users, params.resiliency
    masks, _ = check_mask_independence(tvars)
    assert masks == 1 + n * k * sum(comb(n - 1, s) for s in range(1, nr))
    recovery, _ = check_upload_recoverability(tvars)
    assert recovery == k * sum(comb(n, s) for s in range(nr, n + 1))


def test_sharing_leaks_nothing_on_worked_pattern(ctx, tvars):
    for tset in ([], [1], [2], [3], [4]):
        rec = check_sharing_leakage(ctx, EXAMPLE_PATTERN, tset, tvars=tvars)
        assert rec.value == 0


def test_uploads_carry_full_gradient_information(ctx):
    checks, violations = check_upload_recoverability(build_static_vars(ctx))
    assert not violations
    assert checks == 2 * 5  # two users, C(4,3)+C(4,4) helper sets


def test_response_entropy_vanishes_given_sum(ctx):
    """A T-set past the bound, in any order, is evaluated, not refused:
    it sees more, so it leaves nothing either."""
    static = build_static_vars(ctx)
    for tset in ([1], [2], [3], [4], [2, 1], [4, 1, 3, 2]):
        assert response_entropy_given_sum(static, tset) == 0


def test_infeasibility_witness():
    params = SchemeParams(2, 4, 2, 2, 7, 2)
    assert infeasibility_witness(params) >= params.gradient_len == 2
    with pytest.raises(ValueError):
        infeasibility_witness(EXAMPLE)
    with pytest.raises(ValueError, match="no feasible sibling"):
        infeasibility_witness(SchemeParams(2, 3, 1, 1, 5, 1))  # Nr = 1 has no sibling


# -- brute-force oracle -------------------------------------------------------


def test_oracle_rejects_large_instances(ctx):
    with pytest.raises(TooLargeToEnumerate):
        BruteForceOracle(ctx, EXAMPLE_PATTERN)


def test_oracle_single_symbol_entropies(tiny_oracle):
    assert tiny_oracle.entropy(["W[1]"]) == 1
    assert tiny_oracle.entropy(["F[1]"]) == 1
    assert tiny_oracle.entropy([]) == 0
    # a helper's own mask coordinate is identically zero
    assert tiny_oracle.entropy(["Z[1,1,1]"]) == 0


def test_oracle_matches_rank_on_random_subsets(tiny_ctx, tiny_oracle):
    tv = build_linear_transcript(tiny_ctx, TINY_PATTERN)
    names = list(tiny_oracle.names)
    rng = random.Random(5)
    for _ in range(120):
        subset = [n for n in names if rng.random() < 0.35]
        assert tiny_oracle.entropy(subset) == entropy_rank([tv[n] for n in subset])


def test_oracle_matches_rank_conditional_mi(tiny_ctx, tiny_oracle):
    tv = build_linear_transcript(tiny_ctx, TINY_PATTERN)
    names = list(tiny_oracle.names)
    rng = random.Random(6)
    for _ in range(50):
        a = [n for n in names if rng.random() < 0.25]
        b = [n for n in names if rng.random() < 0.25]
        c = [n for n in names if rng.random() < 0.25]
        got = tiny_oracle.cond_mutual_info(a, b, c)
        expect = cond_mutual_info(
            MiQuery(
                tuple(tv[n] for n in a),
                tuple(tv[n] for n in b),
                tuple(tv[n] for n in c),
            )
        )
        assert got == expect


def test_oracle_matches_sharing_leakage_value(tiny_ctx, tiny_oracle):
    """Rank result equals the brute-force conditional-entropy difference."""
    tv = build_linear_transcript(tiny_ctx, TINY_PATTERN)
    uploads = [f"X[1,{n}]" for n in (1, 2, 3)]
    shares = [n for n in tiny_oracle.names if n.startswith("M[") and n.endswith("->3,1]")]
    given = ["X[1,3]"] + [n for n in tiny_oracle.names if n.startswith("Z[3,")]
    got = tiny_oracle.cond_mutual_info(uploads, shares, given)
    rec = check_sharing_leakage(tiny_ctx, TINY_PATTERN, [3], tvars=tv)
    assert got == rec.value == 0


def test_oracle_count_rejects_non_uniform_keys():
    for dtype in (np.int32, np.int64):
        for keys in ([0, 0, 1, 2], [0, 0, 0, 1, 2, 2]):  # 4 % 3 != 0; runs of 2 not constant
            with pytest.raises(LeakageError, match="not uniform"):
                _counted_entropy(np.array(keys, dtype=dtype), 3, ["x"])
        with pytest.raises(LeakageError, match="not a power of 5"):
            _counted_entropy(np.array([2, 0, 1, 2, 1, 0], dtype=dtype), 5, ["x"])
        keys = np.array([7, 3, 3, 7, 1, 8, 8, 1, 4, 4, 5, 5, 9, 9, 0, 0], dtype=dtype)
        assert _counted_entropy(keys, 2, ["x"]) == 3


def test_oracle_relabels_a_key_before_its_span_reaches_2_62(tiny_oracle, key_forms):
    """The all-pairs copy of TINY (``_all_pairs``) has radix 5**2 per
    name and no packed word, so a key of 14 members would span
    25**14 > 2**62: ``_joined`` relabels the key of the first 13 densely
    first, so the key ``entropy`` counts stays one nonnegative int64
    column below 2**62, and a key of up to 23 members stays below the
    assignment count times 25 per member after the 13th.  Its keys
    induce the partition of the members' table rows."""
    wide = _stacked_copy(tiny_oracle, _all_pairs(tiny_oracle.names))
    assert wide._packed is None and 25**13 < 2**62 <= 25**14
    rng = random.Random(3)
    for size in (14, 15, 19, 23, 60, 171):
        subset = rng.sample(wide.names, size)
        key_forms.clear()
        wide.entropy(subset)
        [(got, keys)] = key_forms
        assert got == "int64" and 0 <= keys.min() and keys.max() < 2**62
        assert size > 23 or keys.max() < wide.count * 25 ** (size - 13)
        assert _keys_match_rows(keys, np.hstack([wide.tables[n] for n in subset])), subset


def test_oracle_repeated_and_overlapping_names(tiny_ctx, tiny_oracle):
    tv = build_linear_transcript(tiny_ctx, TINY_PATTERN)
    assert tiny_oracle.entropy(["W[1]", "W[1]"]) == tiny_oracle.entropy(["W[1]"]) == 1
    assert tiny_oracle.entropy(["X[1,1]", "W", "X[1,1]", "W[1]"]) == 2
    # q copies of one variable's code would carry into the next one's digits
    names = tiny_oracle.names
    a, b = next((a, b) for a, b in zip(names, names[1:]) if tiny_oracle.entropy([a, b]) == 2)
    assert tiny_oracle.entropy([a] * TINY.modulus + [b]) == 2
    a, b, c = ["W[1]", "X[1,1]"], ["X[1,1]", "Y[1]", "M[1->3,1]"], ["X[1,1]", "F[1]"]
    expect = cond_mutual_info(MiQuery(*(tuple(tv[n] for n in part) for part in (a, b, c))))
    assert tiny_oracle.cond_mutual_info(a, b, c) == expect


@pytest.fixture
def key_forms(monkeypatch):
    """Every key the oracle counts, in order, with its form: its dtype's
    name."""
    forms = []
    counted = leakage._counted_entropy

    def spy(keys, q, names):
        forms.append((keys.dtype.name, keys.copy()))
        return counted(keys, q, names)

    monkeypatch.setattr(leakage, "_counted_entropy", spy)
    return forms


def _oracle_counting(oracle, tables):
    """A copy of ``oracle`` over ``tables``, with the codes and packed
    word ``__init__`` derives from them."""
    copied = copy.copy(oracle)
    copied.tables, copied.codes = tables, leakage._variable_codes(tables, oracle.q)
    copied._packed = leakage._packed_word(copied.codes)
    return copied


def _stacked_tables_of(oracle, members):
    """Each name ``n`` of ``members`` with the tables of ``members[n]``,
    names of ``oracle``, side by side."""
    return {n: np.hstack([oracle.tables[m] for m in ms]) for n, ms in members.items()}


def _stacked_copy(oracle, members):
    return _oracle_counting(oracle, _stacked_tables_of(oracle, members))


def _cyclic_pairs(names):
    """Each name beside the next, the last beside the first."""
    return {f"{a}+{b}": (a, b) for a, b in zip(names, names[1:] + names[:1])}


def _all_pairs(names):
    """Every two names side by side: 171 of TINY's 19."""
    return {f"{a}+{b}": (a, b) for a, b in combinations(names, 2)}


def _keys_match_rows(keys, rows):
    """``keys``, one per row of ``rows``, induce the partition the rows
    induce: as many distinct keys as distinct rows and as distinct
    (key, row) pairs."""
    joint = len(np.unique(np.column_stack([keys, rows]), axis=0))
    return len(np.unique(keys)) == len(np.unique(rows, axis=0)) == joint


def test_oracle_counts_the_same_on_every_key_form(tiny_ctx, tiny_oracle, key_forms):
    """TINY's 19 variables induce 10 distinct nonconstant partitions,
    3-bit fields, 30 bits in all, so ``entropy`` takes the packed int32
    key ``word & mask`` at every subset size.  A copy whose names are
    each TINY name beside the next (``_cyclic_pairs``) packs into an
    int64 word.  A copy whose names are every two TINY names
    (``_all_pairs``) needs more than 63 bits, so ``entropy`` falls back
    to mixed-radix keys, whose radix 5**2 puts keys of 1-6 members on
    int32 and of 7 or more on int64.  On every form a subset's key
    induces the partition of its tables' rows, and its entropy is
    TINY's, and the rank formula's, on the union of its members."""
    assert all(t.shape[1] == 1 for t in tiny_oracle.tables.values())
    assert TINY.modulus == 5 and len(tiny_oracle.names) == 19
    assert 25**6 < 2**31 <= 25**7
    tv = build_linear_transcript(tiny_ctx, TINY_PATTERN)
    names = list(tiny_oracle.names)
    cyclic, pairs = _cyclic_pairs(names), _all_pairs(names)
    forms = [
        (tiny_oracle, {n: (n,) for n in names}, lambda size: "int32"),
        (_stacked_copy(tiny_oracle, cyclic), cyclic, lambda size: "int64"),
        (_stacked_copy(tiny_oracle, pairs), pairs,
         lambda size: "int32" if size <= 6 else "int64"),
    ]
    assert [oracle._packed and oracle._packed[0].dtype.name for oracle, _, _ in forms] == [
        "int32", "int64", None
    ]
    rng = random.Random(7)
    for oracle, members, form in forms:
        for size in [1, 2, 3, 4, 6, 7, 8, 12, 19] * 3:
            subset = rng.sample(list(members), size)
            union = sorted({m for n in subset for m in members[n]})
            key_forms.clear()
            got = oracle.entropy(subset)
            [(dtype, keys)] = key_forms
            assert dtype == form(size)
            assert _keys_match_rows(keys, np.hstack([oracle.tables[n] for n in subset]))
            assert got == tiny_oracle.entropy(union) == entropy_rank([tv[n] for n in union])


def test_oracle_refuses_a_skewed_table_on_every_key_form(tiny_oracle, key_forms):
    """Negative control: a table whose every symbol is 0 in one
    assignment of 5 and 1 otherwise is not uniform, and ``entropy`` says
    so on every key form: TINY's packed int32 word (the skewed W[1] has
    a 1-bit field of its own, 31 bits in all), the cyclic copy's packed
    int64 word, and the all-pairs copy's mixed-radix keys, int32, int64
    and relabelled.  The skewed table is the gradient's, and the other
    members are built from F[1] and the Z masks alone, which are
    independent of it: members that fixed the whole assignment would
    make any joint key uniform."""
    names = list(tiny_oracle.names)
    pool = {"F[1]", *(n for n in names if n.startswith("Z["))}
    cases = [
        ({n: (n,) for n in names}, "W[1]", [1, 2, 8], ["int32"] * 3),
        (_cyclic_pairs(names), "W+W[1]", [1, 2, 8], ["int64"] * 3),
        (_all_pairs(names), "W+W[1]", [1, 2, 7, 16], ["int32", "int32", "int64", "int64"]),
    ]
    rng = random.Random(5)
    for members, name, sizes, forms in cases:
        tables = _stacked_tables_of(tiny_oracle, members)
        tables[name] = np.minimum(tables[name], 1)
        skewed = _oracle_counting(tiny_oracle, tables)
        others = [n for n, ms in members.items() if pool.issuperset(ms)]
        key_forms.clear()
        for size in sizes:
            with pytest.raises(LeakageError, match="not uniform"):
                skewed.entropy([name, *rng.sample(others, size - 1)])
        assert [got for got, _ in key_forms] == forms


def test_oracle_fields_merge_exactly_the_names_of_one_partition(tiny_oracle):
    """On TINY two names share a field mask exactly when their joint
    table has as many distinct rows as each table alone, that is when
    they induce one partition of the assignments, and other names'
    fields are disjoint.  The constant tables, the self-masks Z[n,n,1],
    have mask 0; the 10 fields of 3 bits fill 30 bits of an int32 word."""
    word, masks = tiny_oracle._packed
    tables, names = tiny_oracle.tables, tiny_oracle.names

    def distinct(*members):
        return len(np.unique(np.hstack([tables[n] for n in members]), axis=0))

    for a, b in combinations(names, 2):
        same = distinct(a, b) == distinct(a) == distinct(b)
        assert (masks[a] == masks[b]) == same, (a, b)
        assert same or masks[a] & masks[b] == 0, (a, b)
    constant = ["Z[1,1,1]", "Z[2,2,1]", "Z[3,3,1]"]
    assert [n for n in names if masks[n] == 0] == [n for n in names if distinct(n) == 1] == constant
    assert word.dtype == np.int32 and len(set(masks.values()) - {0}) == 10
    assert reduce(or_, masks.values()) == 2**30 - 1


def test_oracle_catches_fields_merged_by_support_alone(tiny_ctx, tiny_oracle, monkeypatch):
    """Negative control: a labelling that keeps only each code's support
    size gives every name of 5 values one shared field, and some pair's
    ``entropy`` then differs from the rank formula, where the real
    labelling matches it on every pair."""
    tv = build_linear_transcript(tiny_ctx, TINY_PATTERN)
    pairs = list(combinations(tiny_oracle.names, 2))

    def mismatches(oracle):
        return [(a, b) for a, b in pairs if oracle.entropy([a, b]) != entropy_rank([tv[a], tv[b]])]

    assert mismatches(tiny_oracle) == []
    labelled = leakage._first_labels

    def by_support(code, radix):
        support = labelled(code, radix)[1]
        return np.arange(len(code), dtype=np.int32) % support, support

    monkeypatch.setattr(leakage, "_first_labels", by_support)
    merged = _oracle_counting(tiny_oracle, tiny_oracle.tables)
    assert len(set(merged._packed[1].values()) - {0}) == 1
    assert mismatches(merged) != []


def test_oracle_refuses_unknown_names(tiny_oracle):
    with pytest.raises(BadSubset, match=r"unknown variables \['nope'\]"):
        tiny_oracle.entropy(["W[1]", "nope"])
    with pytest.raises(BadSubset, match=r"\['nope', 'Q\[1\]'\]"):
        tiny_oracle.cond_mutual_info(["W[1]"], ["nope"], ["X[1,1]", "Q[1]"])


def _per_assignment_tables(ctx, pattern, assignments):
    """Each variable's table the slow way: one round of its own per
    assignment (``concrete_transcript_values``), a row each."""
    runs = [concrete_transcript_values(ctx, pattern, a) for a in assignments]
    return {n: np.array([run[n] for run in runs], dtype=np.int64) for n in sorted(runs[0])}


def _differing_tables(got, expect):
    """The names, in order, whose tables differ in dtype, shape or values."""
    assert list(got) == list(expect)
    return [n for n in expect
            if got[n].dtype != expect[n].dtype or not np.array_equal(got[n], expect[n])]


WIDE = replace(TINY, gradient_len=2)  # block length 2: its own oracle would need 5^10 assignments


def _wide_sample(count=200):
    rng = random.Random(11)
    return [[rng.randrange(5) for _ in range(10)] for _ in range(count)]


def test_stacked_oracle_tables_equal_per_assignment_rounds(tiny_ctx, tiny_oracle):
    """The oracle's one stacked round gives the tables of one round per
    assignment, in dtype, shape and values: on every assignment of TINY,
    in ``itertools.product`` order, and, through the same stacking, on
    seeded assignments of a block length 2 scheme."""
    every = list(product(range(TINY.modulus), repeat=5))
    assert tiny_oracle.count == len(every) == 3125
    reference = _per_assignment_tables(tiny_ctx, TINY_PATTERN, every)
    assert _differing_tables(tiny_oracle.tables, reference) == []
    wide = setup(WIDE)
    assert wide.params.block_len == 2 and SourceLayout(WIDE).dim * 2 == 10
    sample = _wide_sample()
    got = leakage._stacked_tables(wide, TINY_PATTERN, np.array(sample))
    assert _differing_tables(got, _per_assignment_tables(wide, TINY_PATTERN, sample)) == []


def test_oracle_build_in_rounds_gives_the_one_round_tables(tiny_ctx, tiny_oracle, monkeypatch):
    """Rounds of at most ``_ORACLE_ROUND_LIMIT`` assignments, here a
    non-divisor of the count, fill the tables of one round and of one
    round per assignment, in dtype, shape and values: on every
    assignment of TINY and on seeded assignments of block length 2.  A
    round's size is its source assignment's length over one assignment's
    ``dim * block_len`` symbols."""
    lengths = []
    concrete = leakage.concrete_transcript_values

    def counted(ctx, pattern, assignment):
        lengths.append(len(assignment))
        return concrete(ctx, pattern, assignment)

    def sizes(params):
        return [n // (SourceLayout(params).dim * params.block_len) for n in lengths]

    monkeypatch.setattr(leakage, "concrete_transcript_values", counted)
    monkeypatch.setattr(leakage, "_ORACLE_ROUND_LIMIT", 1000)
    chunked = BruteForceOracle(tiny_ctx, TINY_PATTERN).tables
    assert sizes(TINY) == [1000, 1000, 1000, 125]
    assert _differing_tables(chunked, tiny_oracle.tables) == []
    every = list(product(range(TINY.modulus), repeat=5))
    assert _differing_tables(chunked, _per_assignment_tables(tiny_ctx, TINY_PATTERN, every)) == []
    monkeypatch.setattr(leakage, "_ORACLE_ROUND_LIMIT", 64)
    lengths.clear()
    wide, sample = setup(WIDE), _wide_sample()
    got = leakage._stacked_tables(wide, TINY_PATTERN, np.array(sample))
    assert sizes(WIDE) == [64, 64, 64, 8]
    assert _differing_tables(got, _per_assignment_tables(wide, TINY_PATTERN, sample)) == []


def test_stacked_tables_catch_a_role_that_mixes_columns(tiny_ctx, monkeypatch):
    """Negative control: a ``helper_respond`` that rotates its payload by
    one symbol moves each assignment's response symbol into another's
    columns of the stacked round, but rotates a round of its own within
    the assignment (at block length 1, not at all), so the comparison
    fails and names the responses."""
    respond = protocol.helper_respond

    def rotated(*args):
        r = respond(*args)
        return HelperResponse(r.helper, r.payload[1:] + r.payload[:1])

    monkeypatch.setattr(protocol, "helper_respond", rotated)
    every = list(product(range(TINY.modulus), repeat=5))
    got = BruteForceOracle(tiny_ctx, TINY_PATTERN).tables
    responses = [n for n in got if n.startswith("Y[")]
    assert responses == ["Y[1]", "Y[2]"]
    reference = _per_assignment_tables(tiny_ctx, TINY_PATTERN, every)
    assert _differing_tables(got, reference) == responses
    wide, sample = setup(WIDE), _wide_sample()
    got = leakage._stacked_tables(wide, TINY_PATTERN, np.array(sample))
    assert _differing_tables(got, _per_assignment_tables(wide, TINY_PATTERN, sample)) == responses


def test_oracle_matches_rank_where_fields_pack_into_int64(key_forms):
    """A second oracle instance: 1,4,2,1,7,1 under ``nu=1:1,2,3 hm=1,2``,
    7^6 = 117,649 assignments and N = 4.  Its 29 variables induce 13
    distinct nonconstant partitions, 3-bit fields, 39 bits in all, so
    ``entropy`` takes the packed int64 key ``word & mask`` at every
    subset size.  Seeded subsets of every size and seeded MI queries, 50
    comparisons, match the rank formula."""
    params = SchemeParams(1, 4, 2, 1, 7, 1)
    ctx, pattern = setup(params), parse_pattern("nu=1:1,2,3 hm=1,2")
    oracle = BruteForceOracle(ctx, pattern)
    tv = build_linear_transcript(ctx, pattern)
    names = list(oracle.names)
    assert oracle.count == 7**6 and len(names) == 29 and set(names) == set(tv)
    word, masks = oracle._packed
    assert word.dtype == np.int64 and len(set(masks.values()) - {0}) == 13
    assert reduce(or_, masks.values()) == 2**39 - 1
    rng = random.Random(12)
    for size in [0, 1, 2, 5, 8, 11, 12, 15, 18, 22] * 3 + [23, 24, 25, 26, 27, 29] * 2:
        subset = rng.sample(names, size)
        key_forms.clear()
        assert oracle.entropy(subset) == entropy_rank([tv[n] for n in subset]), subset
        assert [form for form, _ in key_forms] == (["int64"] if size else [])
    for _ in range(8):
        a, b, c = (rng.sample(names, rng.randrange(1, 7)) for _ in range(3))
        expect = cond_mutual_info(MiQuery(*(tuple(tv[n] for n in part) for part in (a, b, c))))
        assert oracle.cond_mutual_info(a, b, c) == expect, (a, b, c)


# q = 2, where every nonzero pivot is 1 already, two small primes, and two
# at or above 2**31, whose residues are Python ints past any machine word
RANK_MODULI = (2, 5, 11, 2**31 - 1, 2**61 - 1)


def _rank_mismatches(q):
    """Random canonical matrices over GF(q) as the variables of a 1,3,2,1,q,1
    layout (5 columns, block length 1), with each subset's ``joint_rank``
    set against ``RowSpace``'s rank; the subsets where they differ.
    Every row is a random combination of a few random rows, so that
    dependent rows, repeats and zero rows occur."""
    layout, field = SourceLayout(SchemeParams(1, 3, 2, 1, q, 1)), PrimeField(q)
    rng, found = random.Random(q), []
    for _ in range(40):
        span = [[rng.randrange(q) for _ in range(layout.dim)] for _ in range(rng.randrange(1, 5))]

        def row():
            coeffs = [rng.choice((0, 1, rng.randrange(q))) for _ in span]
            return [sum(c * r[j] for c, r in zip(coeffs, span)) % q for j in range(layout.dim)]

        variables = [
            LinearVar(f"v{i}", layout, GfMatrix(field, [row() for _ in range(rng.randrange(1, 4))]))
            for i in range(rng.randrange(1, 6))
        ]
        for chosen in subsets(variables):
            space = RowSpace(field, layout.dim)
            for v in chosen:
                space.insert_matrix(v.coeffs)
            if joint_rank(chosen) != space.rank:
                found.append(([v.name for v in chosen], joint_rank(chosen), space.rank))
    return found


@pytest.mark.parametrize("q", RANK_MODULI)
def test_forward_ranks_match_row_space_ranks(q):
    """``joint_rank`` eliminates forward; on random canonical matrices
    it gives ``RowSpace``'s rank, exactly, at every modulus: past 2**31
    too, where the entries are wider than a machine word."""
    assert _rank_mismatches(q) == []


@pytest.mark.parametrize("q", RANK_MODULI[1:])
def test_forward_ranks_without_unit_pivots_fail_the_comparison(q, monkeypatch):
    """Negative control: a forward echelon that keeps each pivot as found,
    instead of scaling it to 1, leaves a dependent row nonzero and counts
    it.  At q = 2 every pivot is 1, so only the other moduli show it."""
    def unscaled(echelon, rows, field):
        for r in rows:
            for p, base in echelon:
                if c := r[p]:
                    r = [(x - c * y) % field.q for x, y in zip(r, base)]
            if any(r):
                echelon.append((next(j for j, c in enumerate(r) if c), r))
        return echelon

    monkeypatch.setattr(leakage, "_forward_echelon", unscaled)
    assert _rank_mismatches(q) != []


def test_a_unit_rounds_variables_share_one_layout_object(ctx, monkeypatch):
    """Every variable of every transcript one ``UnitRound`` runs holds the
    same ``SourceLayout`` object, so ``_common_layout`` compares them by
    identity and never runs the dataclass ``__eq__``."""
    unit = UnitRound(ctx)
    transcripts = [unit.run(p)[1] for p in list(enumerate_patterns(EXAMPLE))[:3]]
    assert len({id(v.layout) for tv in transcripts for v in tv.values()}) == 1

    def refuse(self, other):
        raise AssertionError("layouts compared by value")

    monkeypatch.setattr(SourceLayout, "__eq__", refuse)
    everything = [v for tv in transcripts for v in tv.values()]
    assert entropy_rank(everything) == SourceLayout(EXAMPLE).dim * EXAMPLE.block_len


def test_rank_quadruple_shape(tvars):
    q = MiQuery((tvars["W[1]"],), (tvars["X[1,1]"],), (tvars["F[1]"],))
    ac, bc, abc, c = rank_quadruple(q)
    assert (ac, bc, abc, c) == (3, 2, 3, 1)
    # one unmasked upload symbol reveals exactly one symbol about W1
    assert cond_mutual_info(q) == Fraction(1)


def test_cond_entropy_examples(tvars):
    # H(A | C) = rank(AC) - rank(C): one upload given the user's data
    # carries nothing new, and W1 alone has its two parts
    ac, _, _, c = rank_quadruple(MiQuery((tvars["X[1,1]"],), (), (tvars["W[1]"], tvars["F[1]"])))
    assert ac - c == 0
    ac, _, _, c = rank_quadruple(MiQuery((tvars["W[1]"],), ()))
    assert (ac - c) * EXAMPLE.block_len == 2


# -- the split kernel against the incremental path ---------------------------


def _security_queries(ctx, pattern, tv, beyond=0):
    """Every helper and master query of the pattern, built as the checks
    build them, each with its check; helper subsets up to the collusion
    bound plus ``beyond``."""
    params = ctx.params
    users = range(1, params.num_users + 1)
    targets = tuple(tv[f"W[{k}]"] for k in users)
    responses = tuple(tv[f"Y[{n}]"] for n in sorted(pattern.active_helpers))
    for size in range(params.num_users + 1):
        for uset in combinations(users, size):
            colluders = tuple(tv[f"{v}[{u}]"] for u in uset for v in ("W", "F"))
            for tsize in range(params.collusion + 1 + beyond):
                for tset in combinations(range(1, params.num_helpers + 1), tsize):
                    view = helper_observation(tv, tset)
                    yield check_security_helpers, uset, tset, MiQuery(targets, view, colluders)
                    yield check_security_master, uset, tset, MiQuery(
                        targets, responses + view, (tv["W"],) + colluders
                    )


@pytest.mark.parametrize(
    "params, stride, queries",
    [(SchemeParams(2, 4, 3, 1, 7, 2), 1, 1000), (SchemeParams(3, 4, 3, 2, 11, 1), 9, 2464)],
    ids=["2,4,3,1,7,2", "3,4,3,2,11,1"],
)
def test_split_kernel_matches_incremental_path(params, stride, queries):
    ctx = setup(params)
    seen = 0
    for pattern in list(enumerate_patterns(params))[::stride]:
        tv = build_linear_transcript(ctx, pattern)
        assert isinstance(tv, LinearTranscript)
        # tv shares the context's store across patterns; an equal fresh
        # context's transcript has a store of its own
        fresh = build_linear_transcript(setup(params), pattern)
        for check, uset, tset, query in _security_queries(ctx, pattern, tv):
            expect = rank_quadruple(query)
            assert check(ctx, pattern, uset, tset, tvars=tv).ranks == expect
            assert check(ctx, pattern, uset, tset, tvars=fresh).ranks == expect
            seen += 1
    assert seen == queries


@pytest.mark.parametrize(
    "params, stride, queries",
    [(SchemeParams(2, 4, 3, 1, 7, 2), 1, 400), (SchemeParams(3, 4, 3, 2, 11, 1), 9, 224)],
    ids=["2,4,3,1,7,2", "3,4,3,2,11,1"],
)
def test_sharing_split_matches_incremental_path(params, stride, queries):
    """Every helper subset's sharing query, oversized ones included, on
    a memo the security sweep filled first, on one it did not, and on a
    transcript of an equal fresh context, with a store of its own.  An
    oversized set's sharing ranks are read off its collusion, as
    ``check_sharing_leakage`` reads them within the bound."""
    ctx = setup(params)
    layout = SourceLayout(params)

    def sharing_ranks(tv, tset):
        collusion = tv.collusion(tset)
        uploads = _sharing_query(ctx, tv, tv.pattern, tset).target
        kernel_a = _split_observed(_rows(uploads), layout, ctx.field)[1]
        return _sharing_ranks(
            kernel_a,
            collusion.prefix_reduction,
            collusion.view_reduction,
            layout.user_dim,
            ctx.field,
        )

    users = range(1, params.num_users + 1)
    helpers = range(1, params.num_helpers + 1)
    user_sets = [u for size in range(len(users) + 1) for u in combinations(users, size)]
    tsets = [t for size in range(len(helpers) + 1) for t in combinations(helpers, size)]
    seen = 0
    for pattern in list(enumerate_patterns(params))[::stride]:
        swept = build_linear_transcript(ctx, pattern)
        for uset in user_sets:
            for tset in tsets:
                for check in (check_security_helpers, check_security_master):
                    check(ctx, pattern, uset, tset, tvars=swept)
        unswept = build_linear_transcript(ctx, pattern)
        fresh = build_linear_transcript(setup(params), pattern)
        for tset in tsets:
            query = _sharing_query(ctx, swept, pattern, tset)
            expect = rank_quadruple(query)
            for tv in (swept, unswept, fresh):
                assert sharing_ranks(tv, tset) == expect
            if len(tset) <= params.collusion:
                for tv in (swept, unswept, fresh):
                    assert check_sharing_leakage(ctx, pattern, tset, tvars=tv).ranks == expect
            seen += 1
    assert seen == queries


def test_sharing_queries_take_their_tuples_from_the_transcript():
    """The sharing query's given and given-plus-observed are the prefix
    and view of the collusion the security sweep reduced, and its
    target's reduction is the store's, so running a pattern's sharing
    queries adds no collusion entry and reduces only the all-uploads
    target, once."""
    params = SchemeParams(3, 4, 3, 2, 11, 1)
    ctx = setup(params)
    pattern = list(enumerate_patterns(params))[7]
    tv = build_linear_transcript(ctx, pattern)
    helpers = range(1, params.num_helpers + 1)
    tsets = [t for size in range(params.collusion + 1) for t in combinations(helpers, size)]
    for size in range(params.num_users + 1):
        for uset in combinations(range(1, params.num_users + 1), size):
            for tset in tsets:
                check_security_helpers(ctx, pattern, uset, tset, tvars=tv)
                check_security_master(ctx, pattern, uset, tset, tvars=tv)
    collusions, reductions = len(tv._collusions), len(tv._store.reductions)
    first = [check_sharing_leakage(ctx, pattern, tset, tvars=tv) for tset in tsets]
    assert len(tv._collusions) == collusions
    assert len(tv._store.reductions) == reductions + 1  # the all-uploads target
    again = [check_sharing_leakage(ctx, pattern, tset, tvars=tv) for tset in tsets]
    assert len(tv._collusions) == collusions
    assert len(tv._store.reductions) == reductions + 1
    assert again == first
    assert all(record.value == 0 for record in first)


def test_store_derives_each_given_once_and_the_unit_round_finds_the_uploads_kernel_once(
    monkeypatch,
):
    """The store derives each user subset's given once, with and without
    the sum, however many queries and transcripts read it, and the
    uploads' kernel, of every upload's rows in k-major order, is found
    once per unit round, however many of its transcripts ask; the
    uploads are never split."""
    params = SchemeParams(3, 4, 3, 2, 11, 1)
    ctx = setup(params)
    patterns = list(enumerate_patterns(params))[7:9]
    unit = UnitRound(ctx)
    transcripts = [unit.run(pattern)[1] for pattern in patterns]
    upload_lookups = []
    reduction = leakage._RankStore.reduction
    uploads = [transcripts[0][f"X[{k},{n}]"] for k in (1, 2, 3) for n in (1, 2, 3, 4)]
    upload_rows = tuple(_rows(uploads))

    def counted_reduction(store, rows):
        if rows == upload_rows:
            upload_lookups.append(rows)
        return reduction(store, rows)

    monkeypatch.setattr(leakage._RankStore, "reduction", counted_reduction)
    helpers = range(1, params.num_helpers + 1)
    tsets = [t for size in range(params.collusion + 1) for t in combinations(helpers, size)]
    user_sets = [u for size in range(4) for u in combinations(range(1, 4), size)]
    for _ in range(2):
        for pattern, tv in zip(patterns, transcripts):
            for uset in user_sets:
                for tset in tsets:
                    check_security_helpers(ctx, pattern, uset, tset, tvars=tv)
                    check_security_master(ctx, pattern, uset, tset, tvars=tv)
            for tset in tsets:
                check_sharing_leakage(ctx, pattern, tset, tvars=tv)
    # each user subset's given with and without the sum
    assert sorted(unit._store.givens) == sorted(
        (with_sum, uset) for with_sum in (False, True) for uset in user_sets
    )
    assert len(upload_lookups) == 1
    assert upload_rows not in unit._store.splits
    # a transcript of another unit round finds the kernel again, in the store
    other = build_linear_transcript(ctx, patterns[0])
    check_sharing_leakage(ctx, patterns[0], (1,), tvars=other)
    assert len(upload_lookups) == 2 and other._unit.uploads_kernel is unit.uploads_kernel


def test_a_second_transcript_of_a_unit_round_splits_only_its_shares(monkeypatch):
    """The unit round splits each helper's uploads and stored masks the
    first time one of its transcripts' collusions needs that helper, and
    keeps the splits: a second transcript of the round, swept over every
    helper subset, calls ``_RankStore.split`` once per helper, on the
    rows of the shares that helper receives under its own pattern, and
    its collusions are those a fresh round gives."""
    params = SchemeParams(3, 4, 3, 2, 11, 1)
    ctx = setup(params)
    patterns = list(enumerate_patterns(params))
    helpers = range(1, params.num_helpers + 1)
    tsets = [t for size in range(len(helpers) + 1) for t in combinations(helpers, size)]
    unit = UnitRound(ctx)
    first = unit.run(patterns[7])[1]
    for tset in tsets:
        first.collusion(tset)
    split_rows, split = [], leakage._RankStore.split
    monkeypatch.setattr(
        leakage._RankStore, "split", lambda store, rows: split_rows.append(rows) or split(store, rows)
    )
    second = unit.run(patterns[8])[1]
    got = [second.collusion(tset) for tset in tsets]
    shares = [tuple(_rows(second.groups(t)[2])) for t in helpers]
    assert len(split_rows) == len(helpers) and sorted(split_rows) == sorted(shares)
    split_rows.clear()
    fresh = build_linear_transcript(ctx, patterns[8])
    assert [fresh.collusion(tset) for tset in tsets] == got
    assert len(split_rows) == 3 * len(helpers)  # a fresh round splits its prefixes too


def test_records_do_not_depend_on_unsorted_sets_asked_before():
    """A record names the sorted helper and user sets whatever was asked
    before: after ``collusion`` and ``_RankStore.given`` are called with
    unsorted sets, the helper, master and sharing records equal those of
    a fresh context's transcript, which never saw them."""
    params = SchemeParams(3, 4, 3, 2, 11, 1)
    pattern = next(enumerate_patterns(params))
    tsets, usets = [(2, 1), (4, 2), (3, 2, 1)], [(1,), (3, 1)]

    def records(ctx, tv):
        return [
            (check_security_helpers(ctx, pattern, users, tset, tvars=tv),
             check_security_master(ctx, pattern, users, tset, tvars=tv),
             check_sharing_leakage(ctx, pattern, tset, tv))
            for tset in tsets for users in usets
        ]

    fresh_ctx = setup(params)
    fresh = records(fresh_ctx, build_linear_transcript(fresh_ctx, pattern))
    assert {rec.colluding_helpers for recs in fresh for rec in recs} == {
        tuple(sorted(t)) for t in tsets}
    assert {rec.colluding_users for recs in fresh for rec in recs[:2]} == {(1,), (1, 3)}
    ctx = setup(params)
    tv = build_linear_transcript(ctx, pattern)
    for tset in tsets:
        tv.collusion(tset)
    for users, with_sum in product(usets, (False, True)):
        tv._store.given(with_sum, users)
    assert records(ctx, tv) == fresh


SPLIT_PARAMS = {q: SchemeParams(2, 4, 3, 1, q, 2) for q in (5, 11)}


@st.composite
def split_queries(draw, noisy_given=False):
    """Random queries of the split shape: observed rows over every
    column; given rows in the user columns, unit rows mixed with
    arbitrary ones (the way W and W[k] mix), and target rows unit rows,
    as every target the rank store sees is.  With ``noisy_given``, given
    rows over every column and target rows as the given's, as in the
    sharing query."""
    q = draw(st.sampled_from(sorted(SPLIT_PARAMS)))
    layout = SourceLayout(SPLIT_PARAMS[q])
    field = PrimeField(q)
    u, dim = layout.user_dim, layout.dim
    symbol = st.integers(0, q - 1)

    def unit_row():
        row = [0] * dim
        row[draw(st.integers(0, u - 1))] = draw(st.integers(1, q - 1))
        return row

    def user_row():
        if draw(st.booleans()):
            return unit_row()
        return draw(st.lists(symbol, min_size=u, max_size=u)) + [0] * (dim - u)

    def variables(name, make_row, max_vars):
        return tuple(
            LinearVar(
                f"{name}{i}",
                layout,
                GfMatrix(field, [make_row() for _ in range(draw(st.integers(1, 3)))]),
            )
            for i in range(draw(st.integers(0, max_vars)))
        )

    def any_row():
        return draw(st.lists(symbol, min_size=dim, max_size=dim))

    return MiQuery(
        target=variables("A", user_row if noisy_given else unit_row, 3),
        observed=variables("B", any_row, 5),
        given=variables("C", any_row if noisy_given else user_row, 4),
    )


_REFERENCE_RANKS = {}


def _reference_ranks(query):
    """``rank_quadruple(query)``, once per layout and row content, of
    which it is a function."""
    parts = (query.target, query.observed, query.given)
    key = tuple((v.layout, v.rows) for part in parts for v in part), tuple(map(len, parts))
    if key not in _REFERENCE_RANKS:
        _REFERENCE_RANKS[key] = rank_quadruple(query)
    return _REFERENCE_RANKS[key]


def _store_ranks(store, reduction, target, given):
    """The store's split-path quadruple of ``reduction``'s kernel, with
    its ``r_noise`` added back, as the security checks add it."""
    r_noise, kernel = reduction
    r_ac, r_bc, r_abc, r_c = store.quadruple(kernel, target, given)
    return (r_ac, r_bc + r_noise, r_abc + r_noise, r_c)


@settings(max_examples=150, deadline=None)
@given(split_queries(), st.data())
def test_split_kernel_matches_incremental_path_on_random_rows(query, data):
    """The rank store's split path on A's unit columns, C's unit split
    and the split reduction of B, and of B extended by random
    user-column rows Y through ``_extended_kernel``: one
    ``_split_query`` of A and C, prepared once, answers both kernels."""
    expect = _reference_ranks(query)
    everything = query.target + query.observed + query.given
    if not everything:
        assert expect == (0, 0, 0, 0)
        return
    layout, field = everything[0].layout, everything[0].coeffs.field
    (target, rest), given = _unit_split(query.target), _unit_split(query.given)
    assert rest == ()
    event("given rest rows" if given[1] else "unit given")
    store = leakage._RankStore(layout.params, field)
    reduction = _split_observed(_rows(query.observed), layout, field)
    assert _store_ranks(store, reduction, target, given) == expect

    u = layout.user_dim
    symbol = st.integers(0, field.q - 1)
    rows = data.draw(st.lists(st.lists(symbol, min_size=u, max_size=u), min_size=1, max_size=3))
    added = (LinearVar("Y", layout, GfMatrix(field, [r + [0] * (layout.dim - u) for r in rows])),)
    r_noise, kernel = reduction
    extended = (r_noise, _extended_kernel(kernel, _rows(added), layout, field))
    assert extended == _split_observed(_rows(query.observed + added), layout, field)
    assert _store_ranks(store, extended, target, given) == _reference_ranks(
        replace(query, observed=query.observed + added)
    )
    assert list(store.split_queries) == [(id(target), id(given), u)]
    prepared = store.split_queries[id(target), id(given), u]
    ranks = store.quadruples[id(kernel), id(target), id(given)]
    assert _split_quadruple(prepared, kernel, field) == ranks


@settings(max_examples=150, deadline=None)
@given(split_queries(noisy_given=True))
def test_noisy_given_split_matches_incremental_path_on_random_rows(query):
    """``_sharing_ranks`` on the split reductions of C and of C then B.
    A split reduction does not depend on the order of the rows, which
    the per-user assembly, grouping a view's rows by user, relies on."""
    expect = rank_quadruple(query)
    everything = query.target + query.observed + query.given
    if not everything:
        assert expect == (0, 0, 0, 0)
        return
    layout, field = everything[0].layout, everything[0].coeffs.field
    kernel_a = _split_observed(_rows(query.target), layout, field)[1]
    reduction_c = _split_observed(_rows(query.given), layout, field)
    reduction_bc = _split_observed(_rows(query.given + query.observed), layout, field)
    assert reduction_bc == _split_observed(
        _rows(query.observed[::-1] + query.given), layout, field
    )
    assert _sharing_ranks(kernel_a, reduction_c, reduction_bc, layout.user_dim, field) == expect


def test_split_memo_checks_the_variables_behind_the_names(ctx, tvars, monkeypatch):
    """A store hit needs the very rows it reduced, not just the names:
    the pattern's transcript built again under the same context, with
    the shares forwarded unmasked, shares the store that the correct
    transcript filled, and its records are those of its own rows."""
    pattern = EXAMPLE_PATTERN
    correct = [
        check(ctx, pattern, uset, tset, tvars=tvars)
        for check, uset, tset, _ in _security_queries(ctx, pattern, tvars)
    ]
    correct += [check_sharing_leakage(ctx, pattern, [t], tvars=tvars) for t in (1, 2, 3, 4)]
    _forward_unmasked_shares(ctx, monkeypatch)
    unmasked = build_linear_transcript(ctx, pattern)
    assert unmasked._store is tvars._store
    got = [
        (check(ctx, pattern, uset, tset, tvars=unmasked), rank_quadruple(query))
        for check, uset, tset, query in _security_queries(ctx, pattern, unmasked)
    ]
    got += [
        (
            check_sharing_leakage(ctx, pattern, [t], tvars=unmasked),
            rank_quadruple(_sharing_query(ctx, unmasked, pattern, [t])),
        )
        for t in (1, 2, 3, 4)
    ]
    assert len(got) == len(correct) == 44
    assert all(record.ranks == expect for record, expect in got)
    changed = [(g.kind, g.colluding_helpers) for (g, _), c in zip(got, correct) if g != c]
    assert ("helpers", (3,)) in changed and ("sharing", (4,)) in changed
    assert all(record.value == 0 for record in correct)
    assert [record.value for record, _ in got[-4:]] == [0, 0, 2, 2]


def test_collusion_assembles_its_chain_from_per_user_blocks(monkeypatch):
    """A collusion reduces its chain once: each user's blocks of the
    prefix and of the view in user-local width, each distinct block
    once and no row at full width, and the responses, which lie in the
    user columns, into the view's kernel in user width.  The context is
    fresh, so its store holds none of these rows yet; a second call
    does no work."""
    ctx = setup(EXAMPLE)
    tv = build_linear_transcript(ctx, EXAMPLE_PATTERN)
    layout, local = SourceLayout(EXAMPLE), SourceLayout(replace(EXAMPLE, num_users=1))
    responses = tuple(tv[f"Y[{n}]"] for n in sorted(EXAMPLE_PATTERN.active_helpers))
    assert all(not any(row[layout.user_dim:]) for v in responses for row in v.rows)
    widths = []
    insert = RowSpace.insert
    monkeypatch.setattr(
        RowSpace, "insert", lambda space, row: widths.append(space.width) or insert(space, row)
    )
    collusion = tv.collusion((3,))
    view = helper_observation(tv, [3])
    prefix = tuple(v for v in view if not v.name.startswith("M["))  # uploads and masks
    store = tv._store
    assert store.local == local  # the store is built for the context's parameters
    prefix_blocks, view_blocks = store.by_user(_rows(prefix)), store.by_user(_rows(view))
    # the store reduced each user's blocks, and no set whole
    assert set(store.reductions) == set(prefix_blocks + view_blocks)
    assert collusion.users == tuple(store.reductions[rows] for rows in view_blocks)
    assert store.views == {"assembled": 1, "whole": 0}
    assert view[:len(prefix)] == prefix and len(prefix) < len(view)
    response_rows = sum(len(v.rows) for v in responses)
    block_rows = sum(map(len, set(prefix_blocks + view_blocks)))
    assert widths == [local.dim] * block_rows + [layout.user_dim] * response_rows
    widths.clear()
    assert tv.collusion((3,)) is collusion and widths == []
    for observed, reduction in (
        (prefix, collusion.prefix_reduction),
        (view, collusion.view_reduction),
        (view + responses, collusion.master_reduction),
    ):
        assert reduction == _split_observed(_rows(observed), layout, ctx.field)


def test_a_row_belongs_to_the_user_whose_columns_hold_every_nonzero(ctx):
    """``_RankStore.by_user`` on hand-built rows at 2,4,3,1,7,2, whose 22
    columns are w1.1 w1.2 w2.1 w2.2 f1.1 f2.1, then the noise q(n).(j).(k)
    with user k's in every other column from 6 + k - 1: a row on user 2's
    columns goes to user 2 in user-local coordinates (w, f, then noise by
    helper and mixing slot), a zero row to user 1, and a row that spans
    users to None, whichever user's column comes first."""
    store = leakage._RankStore(ctx.params, ctx.field)
    layout = store.layout

    def row(entries):
        return tuple(entries.get(column, 0) for column in range(layout.dim))

    user2 = row({layout.w_slot(2, 1): 3, layout.f_slot(2, 1): 4, layout.q_slot(3, 2, 2): 5})
    local2 = (3, 0, 4, 0, 0, 0, 0, 0, 5, 0, 0)
    assert store.by_user([user2]) == ((), (local2,))
    assert store.by_user([row({}), user2]) == (((0,) * 11,), (local2,))
    for spans in ({layout.q_slot(1, 1, 2): 1, layout.q_slot(1, 2, 1): 6},  # user 2's column first
                  {layout.w_slot(1, 1): 2, layout.q_slot(4, 2, 2): 1},
                  {layout.f_slot(2, 1): 1, layout.w_slot(1, 2): 1}):
        assert store.by_user([user2, row(spans)]) is None
    # the same rule as one projection per user, on a transcript's rows
    for r in (r for v in build_linear_transcript(ctx, EXAMPLE_PATTERN).values() for r in v.rows):
        local = [tuple(r[j] for j in cols) for cols in store.columns]
        owner = next((k for k, u in enumerate(local) if sum(map(bool, u)) == sum(map(bool, r))), None)
        assert store.by_user([r]) == (None if owner is None else tuple(
            (u,) if k == owner else () for k, u in enumerate(local)))


def _dict_embedding(columns, row, width):
    """A user-local row in user width, column by column, as the rank
    store built it before its embeddings became gathers: the reference."""
    return tuple(dict(zip(columns, row)).get(j, 0) for j in range(width))


@pytest.mark.parametrize("q", [2, 5, 11, 2**31 - 1])
def test_the_store_gathers_match_the_per_column_construction(q):
    """At K = 3, ``_RankStore``'s gathers against per-column Python on the
    rows of random user-local kernels (``_split_observed``): each user's
    ``_embed`` of a row and a trailing zero equals ``_dict_embedding``,
    and ``by_user`` projects the embedded row back onto that user.  A
    zero row belongs to user 1 and a row that spans users to none.  An
    embedding shifted by one column fails the same check."""
    params = SchemeParams(3, 4, 3, 2, q, 1)  # the field sizes only the entries
    field, store = PrimeField(q), leakage._RankStore(params, PrimeField(q))
    local, layout = store.local, store.layout
    rng = random.Random(f"gathers:{q}")
    def random_row(width):
        return tuple(rng.randrange(q) for _ in range(width)) + (0,) * (local.dim - width)

    # a few rows in the user columns and a few over every column: kernels of 1 to 3 rows
    kernels = [_split_observed([random_row(local.user_dim) for _ in range(rng.randrange(1, 3))]
                               + [random_row(local.dim) for _ in range(rng.randrange(4))],
                               local, field)[1] for _ in range(30)]
    rows = [row for kernel in kernels for row in kernel]
    assert len(rows) > 30 and all(len(row) == local.user_dim for row in rows)

    def mismatches(embed):
        return [(k, row) for k, columns in enumerate(store.columns) for row in rows
                if embed[k](row + (0,)) != _dict_embedding(columns, row, layout.user_dim)]

    assert mismatches(store._embed) == []
    shifted = [lambda row, e=e: (0,) + e(row)[:-1] for e in store._embed]
    assert len(mismatches(shifted)) == 3 * len(rows)

    def full(local_row, k):
        return store._embed[k](local_row + (0,)) + (0,) * (layout.dim - layout.user_dim)

    for k in range(3):
        for row in rows:
            blocks = store.by_user([full(row, k)])
            assert blocks == tuple((row + (0,) * (local.dim - local.user_dim),) if u == k else ()
                                   for u in range(3))
    zero = (0,) * layout.dim
    assert store.by_user([zero]) == (((0,) * local.dim,), (), ())
    spans = tuple(a or b for a, b in zip(full(rows[0], 0), full(rows[0], 2)))  # users 1 and 3
    assert store.by_user([spans]) is None


@pytest.mark.parametrize("kept", [0, 1], ids=["no-column", "one-column"])
def test_split_quadruple_on_orders_of_zero_and_one_column(kept):
    """A given whose unit columns leave ``kept`` user columns (none: a
    master query with every user colluding) makes a split query whose
    reorder gathers ``kept`` columns, where ``itemgetter`` takes no
    index or returns a bare item; the split quadruple of random kernels
    is still ``rank_quadruple``'s."""
    params = SchemeParams(2, 4, 3, 1, 7, 2)
    layout, field = SourceLayout(params), PrimeField(7)
    u, dim = layout.user_dim, layout.dim
    rng = random.Random(f"orders:{kept}")

    def var(name, rows):
        return (LinearVar(name, layout, GfMatrix(field, rows, dim)),)

    def unit(j):
        return tuple(int(i == j) for i in range(dim))

    for _ in range(30):
        e_c = frozenset(rng.sample(range(u), u - kept))
        target = frozenset(rng.sample(range(u), rng.randrange(1, u + 1)))
        rest = tuple(tuple(rng.randrange(7) for _ in range(u)) + (0,) * (dim - u)
                     for _ in range(rng.randrange(3)))
        observed = [tuple(rng.randrange(7) for _ in range(u)) + (0,) * (dim - u)
                    for _ in range(rng.randrange(4))]
        observed += [tuple(rng.randrange(7) for _ in range(dim)) for _ in range(rng.randrange(3))]
        r_noise, kernel = _split_observed(observed, layout, field)
        query = leakage._split_query(target, (e_c, rest), u, field)
        assert len(query[0](tuple(range(u)))) == kept
        r_ac, r_bc, r_abc, r_c = _split_quadruple(query, kernel, field)
        assert (r_ac, r_bc + r_noise, r_abc + r_noise, r_c) == rank_quadruple(MiQuery(
            target=var("A", [unit(j) for j in sorted(target)]), observed=var("B", observed),
            given=var("C", [unit(j) for j in sorted(e_c)] + list(rest))))


@pytest.mark.parametrize(
    "params, pattern",
    [(EXAMPLE, EXAMPLE_PATTERN), (SchemeParams(3, 4, 3, 2, 11, 1), 7)],
    ids=["2,4,3,1,7,2", "3,4,3,2,11,1"],
)
def test_a_transcript_splits_each_helpers_rows_once(params, pattern, monkeypatch):
    """Each distinct content of a helper group (its uploads, its stored
    masks or the shares it receives) reaches ``by_user`` at most once
    per rank store.  A full sweep of one transcript on a fresh context
    (every user subset, every helper subset, oversized ones included,
    and each bounded subset's sharing query) splits exactly its helpers'
    distinct group contents.  A second transcript of the same pattern on
    the same context splits and eliminates nothing, and makes equal
    records; the collusions of other patterns split only contents not
    split before."""
    ctx = setup(params)
    patterns = list(enumerate_patterns(params))
    if isinstance(pattern, int):
        pattern = patterns[pattern]
    tv = build_linear_transcript(ctx, pattern)
    split_rows, inserted = [], []
    by_user, insert = leakage._RankStore.by_user, RowSpace.insert
    monkeypatch.setattr(
        leakage._RankStore, "by_user",
        lambda store, rows: split_rows.append(rows) or by_user(store, rows),
    )
    monkeypatch.setattr(
        RowSpace, "insert", lambda space, row: inserted.append(row) or insert(space, row)
    )
    users, helpers = range(1, params.num_users + 1), range(1, params.num_helpers + 1)
    user_sets = [u for size in range(len(users) + 1) for u in combinations(users, size)]
    tsets = [t for size in range(len(helpers) + 1) for t in combinations(helpers, size)]

    def sweep(tv):
        records = [
            check(ctx, pattern, uset, tset, tvars=tv)
            for uset in user_sets for tset in tsets
            for check in (check_security_helpers, check_security_master)
        ]
        bounded = [t for t in tsets if len(t) <= params.collusion]
        return records + [check_sharing_leakage(ctx, pattern, t, tvars=tv) for t in bounded]

    first = sweep(tv)
    contents = {tuple(_rows(group)) for t in helpers for group in tv.groups(t)}
    assert len(split_rows) == len(set(split_rows)) == len(contents)
    assert set(split_rows) == contents and inserted
    split_rows.clear(), inserted.clear()
    assert sweep(build_linear_transcript(ctx, pattern)) == first
    assert split_rows == [] and inserted == []
    done = set(contents)
    for other in patterns[:8]:
        other_tv = build_linear_transcript(ctx, other)
        for tset in tsets:
            other_tv.collusion(tset)
        contents |= {tuple(_rows(group)) for t in helpers for group in other_tv.groups(t)}
    assert len(split_rows) == len(set(split_rows)) and done.isdisjoint(split_rows)
    assert done | set(split_rows) == contents != done


def test_records_are_dataclasses_compared_by_field(ctx, tvars):
    """Every kind of record is a dataclass with slots: ``replace`` makes
    a changed copy (the benchmark's self-check makes a leaky record this
    way), ``==`` compares the fields, and ``ok`` judges the value."""
    records = [
        check_security_helpers(ctx, EXAMPLE_PATTERN, (2, 1), (3,), tvars=tvars),
        check_security_master(ctx, EXAMPLE_PATTERN, (2, 1), (3,), tvars=tvars),
        check_sharing_leakage(ctx, EXAMPLE_PATTERN, (3,), tvars=tvars),
    ]
    for record in records:
        assert is_dataclass(record) and not hasattr(record, "__dict__")
        assert record.ok and record.value == 0 and record.colluding_helpers == (3,)
        leaky = replace(record, value=1)
        assert not leaky.ok and record.ok and leaky != record
        assert replace(leaky, value=0) == record
        values = {f.name: getattr(record, f.name) for f in fields(record)}
        assert record == leakage.LeakageRecord(**values)
        assert replace(record, value=1, exploratory=True).ok
    assert [r.colluding_users for r in records] == [(1, 2), (1, 2), ()]
    # lists work too, sorted or not, and the records hold sorted tuples
    listed = [
        check_security_helpers(ctx, EXAMPLE_PATTERN, [1, 2], [3], tvars=tvars),
        check_security_master(ctx, EXAMPLE_PATTERN, [2, 1], [3], tvars=tvars),
        check_sharing_leakage(ctx, EXAMPLE_PATTERN, [3], tvars=tvars),
    ]
    assert listed == records
    wide = [check(ctx, EXAMPLE_PATTERN, users, tset, tvars=tvars)
            for check in (check_security_helpers, check_security_master)
            for users, tset in (([2], [4, 3]), ((2,), (3, 4)))]
    assert [(r.colluding_users, r.colluding_helpers) for r in wide] == 4 * [((2,), (3, 4))]
    assert all(type(r.colluding_users) is type(r.colluding_helpers) is tuple
               for r in listed + wide)


# -- the per-user direct sum against the incremental path --------------------


def _user1_mask_mixes_user2_noise(ctx, monkeypatch):
    # user 1's masks take user 2's dealer noise on top of its own, so
    # each of user 1's mask rows spans two users' columns
    derive, q = leakage.keys_from_noise, ctx.params.modulus

    def mixed(ctx, noise):
        return derive(ctx, {
            (n, j, k): tuple((a + b) % q for a, b in zip(v, noise[n, j, 2])) if k == 1 else v
            for (n, j, k), v in noise.items()
        })

    monkeypatch.setattr(leakage, "keys_from_noise", mixed)
    return ctx


PER_USER_SCHEMES = {
    "correct": lambda ctx, monkeypatch: ctx,
    "unmasked-shares": _forward_unmasked_shares,
    "zero-masks": _zero_masks,
    "upload-row-without-randomness": _helper4_upload_without_randomness,
    "uploads-without-randomness": _uploads_without_randomness,
    "noise-shared-across-users": _noise_shared_across_users,
    "user1-mask-mixes-user2-noise": _user1_mask_mixes_user2_noise,
}


@pytest.mark.parametrize("scheme", PER_USER_SCHEMES)
@pytest.mark.parametrize("params", DEFAULT_GRID, ids=SchemeParams.label)
def test_per_user_path_matches_incremental_path(params, scheme, monkeypatch):
    """Every helper and master record of every pattern, for every user
    subset and helper subset up to T + 1, equals ``rank_quadruple``, on
    one context whose store the sweep fills.  A view with a row that
    spans users is reduced whole, never inferred: the correct scheme has
    none, and when user 1's masks mix user 2's noise every nonempty view
    has one.  The reference is memoized by row content, of which it is a
    function."""
    ctx = PER_USER_SCHEMES[scheme](setup(params), monkeypatch)
    reference, oversized_leaks, seen = {}, 0, 0
    patterns = list(enumerate_patterns(params))
    for pattern in patterns:
        tv = build_linear_transcript(ctx, pattern)
        for check, uset, tset, query in _security_queries(ctx, pattern, tv, beyond=1):
            parts = (query.target, query.observed, query.given)
            key = tuple(tuple(v.rows for v in part) for part in parts)
            if key not in reference:
                reference[key] = rank_quadruple(query)
            record = check(ctx, pattern, uset, tset, tvars=tv)
            assert record.ranks == reference[key], (check.__name__, uset, tset, pattern)
            if scheme == "correct":
                assert record.value == 0 or record.exploratory
                oversized_leaks += record.value != 0
            seen += 1
    tsets = sum(comb(params.num_helpers, size) for size in range(params.collusion + 2))
    assert seen == 2 * len(patterns) * 2**params.num_users * tsets
    views = leakage._rank_store(ctx).views
    assert views["assembled"] + views["whole"] == len(patterns) * tsets
    if scheme == "correct":
        assert views["whole"] == 0 and oversized_leaks > 0
    elif scheme == "user1-mask-mixes-user2-noise":
        assert views["whole"] == len(patterns) * (tsets - 1)  # every view but the empty one


def _collusion_mismatches(ctx):
    """Each (pattern, T, part) whose collusion reduction, the prefix's,
    the view's or the master's set's, differs from ``_split_observed`` of
    its rows joined, over every pattern and helper subset within the
    bound.  The reference uses no store and is memoized by row content,
    of which it is a function."""
    params, layout = ctx.params, SourceLayout(ctx.params)
    helpers = range(1, params.num_helpers + 1)
    tsets = [t for size in range(params.collusion + 1) for t in combinations(helpers, size)]
    reference, mismatches = {}, []
    for pattern in enumerate_patterns(params):
        tv = build_linear_transcript(ctx, pattern)
        responses = tuple(tv[f"Y[{n}]"] for n in sorted(pattern.active_helpers))
        for tset in tsets:
            c, view = tv.collusion(tset), helper_observation(tv, tset)
            prefix = tuple(v for v in view if not v.name.startswith("M["))
            for part, observed, got in (
                ("prefix", prefix, c.prefix_reduction),
                ("view", view, c.view_reduction),
                ("master", view + responses, c.master_reduction),
            ):
                rows = tuple(_rows(observed))
                if rows not in reference:
                    reference[rows] = _split_observed(rows, layout, ctx.field)
                if got != reference[rows]:
                    mismatches.append((tv.label, tset, part))
    return mismatches


@pytest.mark.parametrize("scheme", PER_USER_SCHEMES)
@pytest.mark.parametrize("params", DEFAULT_GRID, ids=SchemeParams.label)
def test_collusions_found_by_block_identity_match_a_storeless_reference(
    params, scheme, monkeypatch
):
    """Every collusion the store assembles from held splits, found by
    their identities, equals the reduction of its rows joined, on one
    context whose store every pattern fills, for each scheme."""
    ctx = PER_USER_SCHEMES[scheme](setup(params), monkeypatch)
    assert _collusion_mismatches(ctx) == []


@pytest.mark.parametrize("key", ["helper set", "group position"])
def test_collusions_keyed_by_helper_set_or_group_position_fail_the_reference(key, monkeypatch):
    """Negative control: a collusion found by its helper set across
    transcripts, or an assembly found by its groups' positions and row
    counts, instead of by the identities of the held splits, reads
    another pattern's reduction, and the storeless reference catches it."""
    memo = {}
    if key == "helper set":
        collusion = LinearTranscript.collusion
        monkeypatch.setattr(
            LinearTranscript, "collusion",
            lambda tv, tset: memo.get(tset) or memo.setdefault(tset, collusion(tv, tset)),
        )
    else:
        assembled = leakage._RankStore.assembled

        def by_position(store, splits):
            found = memo.get(k := tuple((i, len(rows)) for i, (rows, _) in enumerate(splits)))
            return found or memo.setdefault(k, assembled(store, splits))

        monkeypatch.setattr(leakage._RankStore, "assembled", by_position)
    assert _collusion_mismatches(setup(EXAMPLE)) != []


def _respond_with_first_upload_twice(ctx, monkeypatch):
    # each helper adds user 1's upload once more, so its response is no
    # longer its share of the sum
    respond = protocol.helper_respond

    def twice(ctx, helper, uploads):
        r = respond(ctx, helper, uploads)
        extra, q = uploads[1], ctx.params.modulus
        return HelperResponse(helper, tuple((a + b) % q for a, b in zip(r.payload, extra)))

    monkeypatch.setattr(protocol, "helper_respond", twice)
    return ctx


RESPONSE_SCHEMES = PER_USER_SCHEMES | {
    "response-adds-first-upload": _respond_with_first_upload_twice,
}


@pytest.fixture(scope="module")
def response_reference():
    """H(responses | W, view) on the full-width path, by block length and
    row content, of which it is a function, shared by the schemes."""
    return {}


@pytest.mark.parametrize("scheme", RESPONSE_SCHEMES)
@pytest.mark.parametrize("params", DEFAULT_GRID, ids=SchemeParams.label)
def test_response_entropy_matches_the_full_width_reference(
    params, scheme, response_reference, monkeypatch
):
    """At every T-set, the response check read from the rank store
    equals rank(AC) - rank(C) of ``rank_quadruple`` with the responses
    as A and the sum and the view as C.  The correct scheme's is 0; the
    control whose responses add an upload once more leaves the same
    nonzero entropy at every T-set."""
    ctx = RESPONSE_SCHEMES[scheme](setup(params), monkeypatch)
    static = build_static_vars(ctx)
    responses = tuple(static[f"Y[{n}]"] for n in range(1, params.num_helpers + 1))
    values = []
    for tset in combinations(range(1, params.num_helpers + 1), params.collusion):
        given = (static["W"],) + helper_observation(static, tset)
        key = (params.block_len, *(tuple(v.rows for v in part) for part in (responses, given)))
        if key not in response_reference:
            r_ac, _, _, r_c = rank_quadruple(MiQuery(responses, (), given))
            response_reference[key] = (r_ac - r_c) * params.block_len
        values.append(response_entropy_given_sum(static, tset))
        assert values[-1] == response_reference[key], tset
    if scheme == "correct":
        assert set(values) == {0}
    elif scheme == "response-adds-first-upload":
        control = {"2,3,2,1,5,1": 1, "2,4,3,1,7,2": 2, "3,4,3,2,11,1": 1, "2,5,4,2,11,2": 2}
        assert set(values) == {control[params.label()]}


def test_verify_reports_responses_that_add_an_upload_twice(monkeypatch):
    """The campaign names every T-set whose view and the sum leave the
    control's responses undetermined."""
    params = DEFAULT_GRID[0]
    _respond_with_first_upload_twice(setup(params), monkeypatch)
    report = verify_point(params, RunConfig(mode="verify", draws=1))
    assert [f for f in report.failures if f.startswith("responses")] == [
        f"responses not determined by sum and uploads of {(t,)}: H = 1" for t in (1, 2, 3)
    ]


# -- the context's rank store ----------------------------------------------------


@pytest.mark.parametrize("scheme", ["correct", "zero-masks", "uploads-without-randomness"])
@pytest.mark.parametrize("params", DEFAULT_GRID + (TINY,), ids=SchemeParams.label)
def test_store_derives_each_target_and_given_from_the_layout(params, scheme, monkeypatch):
    """The helper and master queries' target and givens, which the store
    derives from its layout, are the unit splits of the transcript's own
    ``W[k]``, ``F[k]`` and ``W`` in a broken scheme too; at K = 1 the
    sum's rows are unit rows as well."""
    ctx = PER_USER_SCHEMES[scheme](setup(params), monkeypatch)
    tv = build_linear_transcript(ctx, next(enumerate_patterns(params)))
    store, users = tv._store, range(1, params.num_users + 1)
    assert (store.gradients, ()) == _unit_split([tv[f"W[{k}]"] for k in users])
    for size in range(params.num_users + 1):
        for uset in combinations(users, size):
            own = [tv[f"{v}[{u}]"] for u in uset for v in "WF"]
            assert store.given(False, uset) == _unit_split(own)
            assert store.given(True, uset) == _unit_split([tv["W"]] + own)


def test_a_repeated_query_reads_its_ranks_by_identity(monkeypatch):
    """A helper or master query the store has answered is read from
    ``quadruples`` by the identities of its kernel, target and given
    (one object per content), so a second sweep on new transcripts adds
    no quadruple.  Each transcript finds its
    response rows once, however many collusions extend by them, and
    equal rows are one object."""
    ctx = setup(EXAMPLE)
    store = leakage._rank_store(ctx)
    found = []
    responses = leakage._RankStore.responses
    monkeypatch.setattr(
        leakage._RankStore, "responses",
        lambda self, ys: found.append(responses(self, ys)) or found[-1],
    )
    users, helpers = range(1, EXAMPLE.num_users + 1), range(1, EXAMPLE.num_helpers + 1)
    usets = [u for size in range(len(users) + 1) for u in combinations(users, size)]
    tsets = [t for size in range(EXAMPLE.collusion + 1) for t in combinations(helpers, size)]
    patterns = list(enumerate_patterns(EXAMPLE))[:3]

    def sweep():
        return [
            check(ctx, pattern, uset, tset, tvars=tv)
            for pattern in patterns
            for tv in [build_linear_transcript(ctx, pattern)]
            for tset in tsets
            for uset in usets
            for check in (check_security_helpers, check_security_master)
        ]

    first = sweep()
    assert len(found) == len(patterns)
    held = [store.gradients, *store.givens.values()]
    assert len(set(map(id, held))) == len(set(held))
    quadruples = dict(store.quadruples)
    assert sweep() == first
    assert store.quadruples == quadruples
    assert len(found) == 2 * len(patterns)
    assert all(a[0] is b[0] for a, b in zip(found, found[len(patterns):]))


def test_a_helper_query_sums_one_split_per_non_colluding_user_kernel(monkeypatch):
    """A helper query's per-user branch runs no ``_split_quadruple`` for
    a colluding user, whose share is its own column count in each rank,
    and one for each distinct kernel of another user, against that
    user's gradient parts given nothing, however many queries share it:
    at EXAMPLE, whose views all split by user."""
    ctx = setup(EXAMPLE)
    store = leakage._rank_store(ctx)
    split, kernels = leakage._split_quadruple, []

    def counted(query, kernel, field):
        kernels.append(kernel)
        return split(query, kernel, field)

    monkeypatch.setattr(leakage, "_split_quadruple", counted)
    users, helpers = range(1, EXAMPLE.num_users + 1), range(1, EXAMPLE.num_helpers + 1)
    usets = [u for size in range(len(users) + 1) for u in combinations(users, size)]
    n = store.local.user_dim
    transcripts = [build_linear_transcript(ctx, p) for p in list(enumerate_patterns(EXAMPLE))[:4]]
    for tv in transcripts:
        for t in helpers:
            record = check_security_helpers(ctx, tv.pattern, usets[-1], [t], tvars=tv)
            assert record.ranks[0] == record.ranks[3] == n * len(users)
    assert kernels == []
    shares = set()
    for tv in transcripts:
        for t in helpers:
            shares.update(kernel for _, kernel in tv.collusion((t,)).users)
            for uset in usets:
                check_security_helpers(ctx, tv.pattern, uset, [t], tvars=tv)
    assert store.views["whole"] == 0
    assert len(kernels) == len(set(map(id, kernels))) == len(shares)
    assert set(map(id, kernels)) == set(map(id, shares))
    assert set(store.split_queries) == {
        (id(store._own_gradients), id(store._nothing), n)
    }


def _campaign_sweep(ctx, params):
    """Every pattern's helper and master records (all user subsets,
    helper subsets within the bound) and sharing records, as the
    campaign makes them, each with its query on the incremental path."""
    helpers = range(1, params.num_helpers + 1)
    tsets = [t for size in range(params.collusion + 1) for t in combinations(helpers, size)]
    out = []
    for pattern in enumerate_patterns(params):
        tv = build_linear_transcript(ctx, pattern)
        for check, uset, tset, query in _security_queries(ctx, pattern, tv):
            record = check(ctx, pattern, uset, tset, tvars=tv)
            out.append((record, rank_quadruple(query)))
        for tset in tsets:
            record = check_sharing_leakage(ctx, pattern, tset, tvars=tv)
            query = _sharing_query(ctx, tv, pattern, tset)
            out.append((record, rank_quadruple(query)))
    return out


def test_rank_store_answers_a_broken_scheme_from_its_own_rows(monkeypatch):
    """The store is keyed by row content, so a scheme broken under the
    very context whose correct sweep filled it still shows its leaks."""
    ctx = setup(EXAMPLE)
    correct = _campaign_sweep(ctx, EXAMPLE)
    assert len(correct) == 1125
    assert all(record.value == 0 for record, _ in correct)
    broken = _campaign_sweep(_noise_shared_across_users(ctx, monkeypatch), EXAMPLE)
    assert len(broken) == 1125
    assert all(record.ranks == expect for record, expect in broken)
    leaks = [record.kind for record, _ in broken if record.value != 0]
    assert {kind: leaks.count(kind) for kind in set(leaks)} == {
        "helpers": 12,
        "master": 4,
        "sharing": 4,
    }


def _responses_with_a_dealer_mask(ctx, monkeypatch):
    # each helper adds to its response the mask it stores for the next
    # helper and user 1, so every response row touches the noise columns
    share, respond = protocol.helper_share, protocol.helper_respond
    round_keys = {}

    def keep_keys(ctx, keys, user, receivers, uploads):
        round_keys["now"] = keys
        return share(ctx, keys, user, receivers, uploads)

    def masked(ctx, helper, uploads):
        payload = respond(ctx, helper, uploads).payload
        mask = round_keys["now"].masks[helper, helper % ctx.params.num_helpers + 1, 1]
        q = ctx.params.modulus
        return HelperResponse(helper, tuple((a + b) % q for a, b in zip(payload, mask)))

    monkeypatch.setattr(protocol, "helper_share", keep_keys)
    monkeypatch.setattr(protocol, "helper_respond", masked)
    return ctx


def test_rank_store_extends_a_kernel_only_by_user_rows(monkeypatch):
    """Responses that carry a dealer mask touch the noise columns, so
    the master's set cannot extend its view's kernel in user width.
    Swept on the context whose store the correct sweep filled, every
    record equals the incremental path, and the master's records see
    the changed responses."""
    ctx = setup(EXAMPLE)
    correct = _campaign_sweep(ctx, EXAMPLE)
    masked = _campaign_sweep(_responses_with_a_dealer_mask(ctx, monkeypatch), EXAMPLE)
    assert len(masked) == len(correct) == 1125
    assert all(record.ranks == expect for record, expect in masked)
    changed = [m.kind for (m, _), (c, _) in zip(masked, correct) if m.ranks != c.ranks]
    assert changed and set(changed) == {"master"}


def _responses_without_user_1(ctx, monkeypatch):
    # each helper leaves user 1's upload out of its response: the rows
    # stay in the user columns but span less than the scheme's
    respond = protocol.helper_respond

    def partial(ctx, helper, uploads):
        return respond(ctx, helper, {**uploads, 1: (0,) * len(uploads[1])})

    monkeypatch.setattr(protocol, "helper_respond", partial)
    return ctx


def test_master_kernels_are_keyed_by_the_response_rows(monkeypatch):
    """Responses without user 1 lie in the user columns, so each master's
    set extends a view kernel that the correct sweep on the same context
    already extended by other responses.  Every record equals the
    incremental path, and the master's records see the changed
    responses."""
    ctx = setup(EXAMPLE)
    correct = _campaign_sweep(ctx, EXAMPLE)
    partial = _campaign_sweep(_responses_without_user_1(ctx, monkeypatch), EXAMPLE)
    assert len(partial) == len(correct) == 1125
    assert all(record.ranks == expect for record, expect in partial)
    changed = [p.kind for (p, _), (c, _) in zip(partial, correct) if p.ranks != c.ranks]
    assert changed and set(changed) == {"master"}


@pytest.mark.parametrize(
    "params, stride",
    [(SchemeParams(2, 4, 3, 1, 7, 2), 1), (SchemeParams(3, 4, 3, 2, 11, 1), 9)],
    ids=["2,4,3,1,7,2", "3,4,3,2,11,1"],
)
def test_records_do_not_depend_on_query_order(params, stride):
    """Each order sweeps its patterns on one context, oversized helper
    subsets included: the patterns in reverse, or each master query
    (and the sharing queries) before the helper query, give the same
    records."""
    users = range(1, params.num_users + 1)
    helpers = range(1, params.num_helpers + 1)
    user_sets = [u for size in range(len(users) + 1) for u in combinations(users, size)]
    tsets = [t for size in range(len(helpers) + 1) for t in combinations(helpers, size)]
    bounded = [t for t in tsets if len(t) <= params.collusion]
    patterns = list(enumerate_patterns(params))[::stride]

    def sweep(reverse, master_first):
        ctx = setup(params)
        checks = (check_security_helpers, check_security_master)
        records = {}

        def sharing(tv, pattern):
            for tset in bounded:
                rec = check_sharing_leakage(ctx, pattern, tset, tvars=tv)
                records[rec.kind, (), tset, rec.pattern] = rec

        for pattern in patterns[::-1] if reverse else patterns:
            tv = build_linear_transcript(ctx, pattern)
            if master_first:
                sharing(tv, pattern)
            for uset in user_sets:
                for tset in tsets:
                    for check in checks[::-1] if master_first else checks:
                        rec = check(ctx, pattern, uset, tset, tvars=tv)
                        records[rec.kind, uset, tset, rec.pattern] = rec
            if not master_first:
                sharing(tv, pattern)
        return records

    forward = sweep(reverse=False, master_first=False)
    assert len(forward) == len(patterns) * (2 * len(user_sets) * len(tsets) + len(bounded))
    assert sweep(reverse=True, master_first=False) == forward
    assert sweep(reverse=False, master_first=True) == forward


def test_rank_store_dies_with_its_context():
    ctx = setup(EXAMPLE)
    tv = build_linear_transcript(ctx, EXAMPLE_PATTERN)
    check_security_master(ctx, EXAMPLE_PATTERN, [1], [3], tvars=tv)
    assert build_linear_transcript(ctx, EXAMPLE_PATTERN)._store is tv._store
    store = weakref.ref(tv._store)
    del ctx, tv
    gc.collect()
    assert store() is None

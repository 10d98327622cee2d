import random
from dataclasses import replace
from fractions import Fraction
from itertools import combinations

import pytest

from hsagg import protocol
from hsagg.leakage import (
    BadSubset,
    BruteForceOracle,
    LayoutMismatch,
    MiQuery,
    SourceLayout,
    TooLargeToEnumerate,
    brute_force_entropy,
    build_linear_transcript,
    build_static_vars,
    check_mask_independence,
    check_sharing_leakage,
    check_upload_recoverability,
    check_security_helpers,
    check_security_master,
    concrete_transcript_values,
    cond_entropy,
    cond_mutual_info,
    entropy_rank,
    infeasibility_witness,
    rank_quadruple,
    response_entropy_given_sum,
    unit_round,
)
from hsagg.matrix import GfMatrix
from hsagg.patterns import enumerate_patterns, enumerate_survivors, parse_pattern
from hsagg.protocol import InterHelperMessage, SchemeParams, setup

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
    """The roles are linear, so a round on unit inputs whose decoded
    rows are the rows of W decodes the sum for every input."""
    ctx = setup(params)
    dim = SourceLayout(params).dim
    seen = 0
    for pattern in enumerate_patterns(params):
        for survivors in enumerate_survivors(pattern, params):
            transcript, tv = unit_round(ctx, pattern.with_survivors(survivors))
            decoded = transcript.decoded
            rows = tuple(decoded[i:i + dim] for i in range(0, len(decoded), dim))
            assert rows == tv["W"].rows, (pattern, survivors)
            seen += 1
    assert seen == cases


def _forward_unmasked_shares(ctx, monkeypatch):
    share = protocol.helper_share

    def unmasked(ctx, keys, pattern, helper, received):
        return tuple(
            InterHelperMessage(m.sender, m.receiver, {k: received[k] for k in m.payloads})
            for m in share(ctx, keys, pattern, helper, received)
        )

    monkeypatch.setattr(protocol, "helper_share", unmasked)
    return ctx


def _zero_masks(ctx, monkeypatch):
    zeros = tuple(GfMatrix.zeros(ctx.field, m.rows, m.cols) for m in ctx.mask_maps)
    return replace(ctx, mask_maps=zeros)


def _helper4_upload_without_randomness(ctx, monkeypatch):
    # Zeroing the randomness columns of every row would leave no
    # invertible Nr-row submatrix for the master's decode; the master
    # decodes from helpers 1-3 here, so helper 4's row is free to break.
    rows = list(ctx.upload_matrix.data)
    rows[3] = rows[3][: EXAMPLE.block_count] + (0,) * EXAMPLE.collusion
    return replace(ctx, upload_matrix=GfMatrix(ctx.field, rows))


@pytest.mark.parametrize(
    "break_scheme, leaks",
    [
        (_forward_unmasked_shares, [0, 0, 2, 2]),
        (_zero_masks, [0, 0, 2, 2]),
        (_helper4_upload_without_randomness, [0, 0, 1, 2]),
    ],
    ids=["unmasked-shares", "zero-masks", "upload-row-without-randomness"],
)
def test_verifier_reports_leakage_of_broken_schemes(ctx, monkeypatch, break_scheme, leaks):
    broken = break_scheme(ctx, monkeypatch)
    pattern = parse_pattern("nu=1:1,2,3;2:1,2,4")
    got = [check_security_helpers(broken, pattern, [], [t]).value for t in (1, 2, 3, 4)]
    assert got == leaks


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


def test_security_rejects_oversized_collusion(ctx, tvars):
    with pytest.raises(BadSubset):
        check_security_helpers(ctx, EXAMPLE_PATTERN, [], [3, 4], tvars=tvars)
    with pytest.raises(BadSubset):
        check_security_master(ctx, EXAMPLE_PATTERN, [], [1, 2], tvars=tvars)
    with pytest.raises(BadSubset):
        check_sharing_leakage(ctx, EXAMPLE_PATTERN, [1, 2], tvars=tvars)
    rec = check_security_helpers(
        ctx, EXAMPLE_PATTERN, [], [3, 4], tvars=tvars, exploratory=True
    )
    assert rec.exploratory and rec.value > 0


def test_layout_mismatch_detected(ctx):
    other = setup(SchemeParams(2, 3, 2, 1, 5, 1))
    a = build_static_vars(ctx)["W[1]"]
    b = build_static_vars(other)["W[1]"]
    with pytest.raises(LayoutMismatch):
        entropy_rank([a, b])


def test_mask_independence_report(ctx):
    report = check_mask_independence(ctx)
    assert report.ok
    assert report.families_checked >= 4096
    assert report.subsets_checked == 4 * 2 * 8
    # subsets larger than resiliency - 1 are reported informationally
    assert len(report.boundary) == 4 * 2


def test_sharing_leaks_nothing_on_worked_pattern(ctx, tvars):
    for tset in ([], [1], [2], [3], [4]):
        rec = check_sharing_leakage(ctx, EXAMPLE_PATTERN, tset, tvars=tvars)
        assert rec.value == 0


def test_uploads_carry_full_gradient_information(ctx):
    report = check_upload_recoverability(ctx)
    assert report.ok
    assert report.checks == 2 * 5  # two users, C(4,3)+C(4,4) helper sets


def test_response_entropy_vanishes_given_sum(ctx):
    for tset in ([1], [2], [3], [4]):
        assert response_entropy_given_sum(ctx, tset) == 0


def test_infeasibility_witness():
    report = infeasibility_witness(SchemeParams(2, 4, 2, 2, 7, 2))
    assert report.value >= report.required == Fraction(2)
    assert report.ok
    with pytest.raises(ValueError):
        infeasibility_witness(EXAMPLE)


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


def test_oracle_brute_force_entropy_convenience(tiny_ctx):
    assert brute_force_entropy(tiny_ctx, TINY_PATTERN, ["X[1,1]", "X[1,2]"]) == 2


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


def test_rank_quadruple_shape(tvars):
    q = MiQuery((tvars["W[1]"],), (tvars["X[1,1]"],), (tvars["F[1]"],))
    ac, bc, abc, c = rank_quadruple(q)
    assert (ac, bc, abc, c) == (3, 2, 3, 1)
    # one unmasked upload symbol reveals exactly one symbol about W1
    assert cond_mutual_info(q) == Fraction(1)


def test_cond_entropy_examples(tvars):
    # one upload given the user's data carries nothing new
    h = cond_entropy(
        (tvars["X[1,1]"],), (tvars["W[1]"], tvars["F[1]"])
    )
    assert h == 0
    assert cond_entropy((tvars["W[1]"],), ()) == Fraction(2)

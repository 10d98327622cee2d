import copy
import random
from dataclasses import replace
from fractions import Fraction
from itertools import combinations
from math import comb

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from hsagg import leakage, protocol
from hsagg.field import PrimeField
from hsagg.harness import DEFAULT_GRID
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
    _counted_entropy,
    _incremental_quadruple,
    all_subset_entropies_rank,
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
    helper_observation,
    infeasibility_witness,
    rank_quadruple,
    response_entropy_given_sum,
    unit_round,
)
from hsagg.matrix import GfMatrix, Singular
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
    # One row stripped: every other helper's uploads stay masked, so
    # the leak is confined to the views that include helper 4's data.
    rows = list(ctx.upload_matrix.data)
    rows[3] = rows[3][: EXAMPLE.block_count] + (0,) * EXAMPLE.collusion
    return replace(ctx, upload_matrix=GfMatrix(ctx.field, rows))


def _uploads_without_randomness(ctx, monkeypatch):
    # No Nr-row submatrix is invertible now, so the master cannot
    # decode; the linear transcript stops at the responses and the
    # leakage is still measured.
    rows = [r[: EXAMPLE.block_count] + (0,) * EXAMPLE.collusion for r in ctx.upload_matrix.data]
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
    # the maximal family, then 1 or 2 of the other 3 helpers' masks per group
    assert report.checks == 1 + 4 * 2 * 6


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
    report = check_mask_independence(break_scheme(ctx, monkeypatch))
    assert report.checks == 49
    assert len(report.violations) == len(violations)
    assert all(want in got for want, got in zip(violations, report.violations))


@pytest.mark.parametrize("params", DEFAULT_GRID, ids=SchemeParams.label)
def test_invariant_suites_count_in_closed_form(params):
    ctx = setup(params)
    tvars = build_static_vars(ctx)
    n, k, nr = params.num_helpers, params.num_users, params.resiliency
    masks = check_mask_independence(ctx, tvars=tvars)
    assert masks.checks == 1 + n * k * sum(comb(n - 1, s) for s in range(1, nr))
    recovery = check_upload_recoverability(ctx, tvars=tvars)
    assert recovery.checks == k * sum(comb(n, s) for s in range(nr, n + 1))


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


def test_oracle_count_rejects_non_uniform_keys():
    for keys in ([0, 0, 1, 2], [0, 0, 0, 1, 2, 2]):  # 4 % 3 != 0; runs of 2 not constant
        with pytest.raises(LeakageError, match="not uniform"):
            _counted_entropy(np.array(keys), 3, ["x"])
    with pytest.raises(LeakageError, match="not a power of 5"):
        _counted_entropy(np.array([2, 0, 1, 2, 1, 0]), 5, ["x"])
    assert _counted_entropy(np.array([7, 3, 3, 7, 1, 8, 8, 1, 4, 4, 5, 5, 9, 9, 0, 0]), 2, ["x"]) == 3


def test_oracle_count_of_rows():
    """Keys too wide for an int64 code come as rows of symbols."""
    square = np.array([[a, b] for a in range(3) for b in range(3)] * 2)
    assert _counted_entropy(square, 3, ["x"]) == 2
    with pytest.raises(LeakageError, match="not uniform"):
        _counted_entropy(np.vstack([square, square[:1]]), 3, ["x"])
    with pytest.raises(LeakageError, match="not a power of 2"):
        _counted_entropy(square[:3], 2, ["x"])


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


def test_oracle_without_packed_codes_counts_the_same(tiny_ctx, tiny_oracle):
    """The path for instances too wide to pack gives the same entropies."""
    tv = build_linear_transcript(tiny_ctx, TINY_PATTERN)
    names = list(tiny_oracle.names)[::3]
    small = copy.copy(tiny_oracle)
    small.tables = {n: tiny_oracle.tables[n] for n in names}
    packed = list(small.all_subset_entropies())
    assert packed == list(all_subset_entropies_rank([tv[n] for n in names]))
    small._packed = None
    assert list(small.all_subset_entropies()) == packed
    rng = random.Random(7)
    for _ in range(40):
        subset = [n for n in tiny_oracle.names if rng.random() < 0.4]
        wide = copy.copy(tiny_oracle)
        wide._packed = None
        assert wide.entropy(subset) == tiny_oracle.entropy(subset)


def test_subset_walks_are_depth_first(tvars):
    names = ["W[1]", "W[2]", "X[1,1]"]
    walk = list(all_subset_entropies_rank([tvars[n] for n in names]))
    assert [subset for subset, _ in walk] == [
        (), ("W[1]",), ("W[1]", "W[2]"), ("W[1]", "W[2]", "X[1,1]"), ("W[1]", "X[1,1]"),
        ("W[2]",), ("W[2]", "X[1,1]"), ("X[1,1]",),
    ]
    assert all(h == entropy_rank([tvars[n] for n in subset]) for subset, h in walk)
    with pytest.raises(ValueError, match="distinct names"):
        list(all_subset_entropies_rank([tvars["W"], tvars["W"]]))


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


# -- the split kernel against the incremental path ---------------------------


def _security_queries(ctx, pattern, tv):
    """Every helper and master query of the pattern, built as the checks
    build them, each with its check."""
    params = ctx.params
    users = range(1, params.num_users + 1)
    targets = tuple(tv[f"W[{k}]"] for k in users)
    responses = tuple(tv[f"Y[{n}]"] for n in sorted(pattern.active_helpers))
    for size in range(params.num_users + 1):
        for uset in combinations(users, size):
            colluders = tuple(tv[f"{v}[{u}]"] for u in uset for v in ("W", "F"))
            for tsize in range(params.collusion + 1):
                for tset in combinations(range(1, params.num_helpers + 1), tsize):
                    view = helper_observation(tv, ctx, pattern, tset)
                    yield check_security_helpers, uset, tset, MiQuery(
                        targets, view, colluders, transcript=tv
                    )
                    yield check_security_master, uset, tset, MiQuery(
                        targets, responses + view, (tv["W"],) + colluders, transcript=tv
                    )


@pytest.mark.parametrize(
    "params, stride, queries",
    [(SchemeParams(2, 4, 3, 1, 7, 2), 1, 1000), (SchemeParams(3, 4, 3, 2, 11, 1), 9, 2464)],
    ids=["2,4,3,1,7,2", "3,4,3,2,11,1"],
)
def test_split_kernel_matches_incremental_path(params, stride, queries):
    ctx = setup(params)
    layout = SourceLayout(params)
    seen = 0
    for pattern in list(enumerate_patterns(params))[::stride]:
        tv = build_linear_transcript(ctx, pattern)
        assert isinstance(tv, LinearTranscript)
        plain = dict(tv)
        for check, uset, tset, query in _security_queries(ctx, pattern, tv):
            expect = _incremental_quadruple(query, layout, ctx.field)
            # tv shares its reductions across queries; a fresh memo reduces anew
            assert rank_quadruple(query) == expect
            assert rank_quadruple(replace(query, transcript=LinearTranscript(plain))) == expect
            assert check(ctx, pattern, uset, tset, tvars=tv).ranks == expect
            assert check(ctx, pattern, uset, tset, tvars=plain).ranks == expect
            seen += 1
    assert seen == queries


SPLIT_PARAMS = {q: SchemeParams(2, 4, 3, 1, q, 2) for q in (5, 11)}


@st.composite
def split_queries(draw):
    """Random queries of the split shape: observed rows over every
    column; target and given rows in the user columns, unit rows mixed
    with arbitrary ones (the way W and W[k] mix)."""
    q = draw(st.sampled_from(sorted(SPLIT_PARAMS)))
    layout = SourceLayout(SPLIT_PARAMS[q])
    field = PrimeField(q)
    u, dim = layout.user_dim, layout.dim
    symbol = st.integers(0, q - 1)

    def user_row():
        if draw(st.booleans()):
            row = [0] * dim
            row[draw(st.integers(0, u - 1))] = draw(st.integers(1, q - 1))
            return row
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
        target=variables("A", user_row, 3),
        observed=variables("B", any_row, 5),
        given=variables("C", user_row, 4),
    )


@settings(max_examples=150, deadline=None)
@given(split_queries())
def test_split_kernel_matches_incremental_path_on_random_rows(query):
    everything = query.target + query.observed + query.given
    expect = (
        _incremental_quadruple(query, everything[0].layout, everything[0].coeffs.field)
        if everything
        else (0, 0, 0, 0)
    )
    memo = LinearTranscript({v.name: v for v in everything})
    cached = replace(query, transcript=memo)
    assert rank_quadruple(cached) == expect
    assert rank_quadruple(cached) == expect  # answered from the memo


def test_split_memo_checks_the_variables_behind_the_names(tvars):
    """A memo hit needs the very variables it reduced, not just the names."""
    query = MiQuery((tvars["W[1]"],), (tvars["X[1,1]"],), (tvars["F[1]"],), transcript=tvars)
    assert rank_quadruple(query) == (3, 2, 3, 1)
    impostor = replace(tvars["Z[1,3,1]"], name="X[1,1]")
    assert rank_quadruple(replace(query, observed=(impostor,))) == (3, 2, 4, 1)
    assert rank_quadruple(query) == (3, 2, 3, 1)

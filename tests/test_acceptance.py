"""Acceptance suite: one test per criterion, each printing a PASS/FAIL
line (run with ``pytest tests/test_acceptance.py -v -s``).

All checks are exact: decoded sums, rates, and every entropy value are
compared as integers or rationals, never within a float tolerance.
"""

import random
import time
from contextlib import contextmanager
from fractions import Fraction
from itertools import chain, combinations

import pytest

from hsagg.harness import DEFAULT_GRID, RunConfig, render_json, run_rates, run_verify
from hsagg.leakage import (
    BruteForceOracle,
    MiQuery,
    all_subset_entropies_rank,
    build_linear_transcript,
    check_mask_independence,
    check_sharing_leakage,
    check_upload_recoverability,
    check_security_helpers,
    check_security_master,
    cond_mutual_info,
    entropy_rank,
    infeasibility_witness,
    response_entropy_given_sum,
)
from hsagg.matrix import FieldTooSmall
from hsagg.patterns import enumerate_patterns, enumerate_survivors, parse_pattern
from hsagg.protocol import (
    Gradient,
    Infeasible,
    SchemeParams,
    UserRandomness,
    dealer_generate,
    encode_uploads,
    helper_recover,
    run_round,
    setup,
)

EXAMPLE = SchemeParams(2, 4, 3, 1, 7, 2)


@contextmanager
def criterion(number: int, description: str, budget: float | None = None):
    start = time.perf_counter()
    try:
        yield
    except Exception:
        print(f"criterion {number}: FAIL - {description}", flush=True)
        raise
    elapsed = time.perf_counter() - start
    if budget is not None:
        assert elapsed < budget, (
            f"criterion {number} took {elapsed:.1f}s, budget {budget}s"
        )
    print(f"criterion {number}: PASS ({elapsed:.2f}s) - {description}", flush=True)


def subsets(items, cap=None):
    cap = len(items) if cap is None else cap
    return chain.from_iterable(combinations(items, r) for r in range(cap + 1))


def test_criterion_1_worked_example_golden_vectors():
    with criterion(1, "worked-example golden vectors", budget=1.0):
        ctx = setup(EXAMPLE)
        assert ctx.decode_matrices[2].data == (
            (1, 2, 5), (2, 5, 1), (1, 0, 0), (5, 1, 2)
        )
        assert ctx.decode_matrices[3].data == (
            (3, 6, 6), (6, 6, 3), (3, 4, 1), (1, 0, 0)
        )
        assert ctx.mask_maps[2].data == ((0, 5), (6, 3), (0, 0), (3, 3))
        assert ctx.mask_maps[3].data == ((5, 3), (2, 6), (5, 5), (0, 0))

        rng = random.Random("golden")
        grads = [Gradient.random(k, EXAMPLE, rng) for k in (1, 2)]
        noises = [UserRandomness.random(k, EXAMPLE, rng) for k in (1, 2)]
        uploads = {}
        for g, f in zip(grads, noises):
            for m in encode_uploads(ctx, g, f):
                uploads[(m.user, m.helper)] = m.payload
        w2, f2 = grads[1], noises[1]
        assert uploads[(2, 3)] == (
            (w2.parts[0][0] + 3 * w2.parts[1][0] + 2 * f2.parts[0][0]) % 7,
        )

        # helper 4 misses user 1 under the worked pattern; recovery must
        # return exactly W11 + 4 W12 + 2 F1
        pattern = parse_pattern("nu=1:1,2,3;2:1,2,4 hm=2,3,4")
        keys = dealer_generate(ctx, "golden-keys")
        shares = {
            i: ((uploads[(1, i)][0] + keys.masks[(i, 4, 1)][0]) % 7,)
            for i in (1, 2, 3)
        }
        recovered = helper_recover(ctx, pattern, 4, 1, shares)
        w1, f1 = grads[0], noises[0]
        assert recovered == (
            (w1.parts[0][0] + 4 * w1.parts[1][0] + 2 * f1.parts[0][0]) % 7,
        )
        assert recovered == uploads[(1, 4)]


def test_criterion_2_exhaustive_correctness():
    with criterion(2, "exhaustive decode over all patterns and survivors", budget=10.0):
        ctx = setup(EXAMPLE)
        rng = random.Random("exhaustive")
        keys = dealer_generate(ctx, "exhaustive-keys")
        patterns = list(enumerate_patterns(EXAMPLE))
        assert len(patterns) == 25
        cases = 0
        for pattern in patterns:
            for survivors in enumerate_survivors(pattern, EXAMPLE):
                full = pattern.with_survivors(survivors)
                for _ in range(20):
                    grads = [Gradient.random(k, EXAMPLE, rng) for k in (1, 2)]
                    noises = [UserRandomness.random(k, EXAMPLE, rng) for k in (1, 2)]
                    t = run_round(ctx, full, grads, noises, keys)
                    expected = tuple(
                        (a + b) % 7
                        for a, b in zip(grads[0].symbols(), grads[1].symbols())
                    )
                    assert t.decoded == expected
                cases += 1
        assert cases == 109  # all (pattern, survivor-set) pairs


def test_criterion_3_rate_optimality():
    with criterion(3, "measured rates equal 1/(Nr-T) on every feasible grid point"):
        rows = run_rates(RunConfig(mode="rates", grid=DEFAULT_GRID))
        assert len(rows) == 4
        for row, params in zip(rows, DEFAULT_GRID):
            assert row["feasible"]
            bound = Fraction(1, params.resiliency - params.collusion)
            assert Fraction(row["rate_x"]["value"]) == bound
            assert Fraction(row["rate_y"]["value"]) == bound
            assert row["equal"] is True


def test_criterion_4_infeasibility():
    with criterion(4, "setup rejects Nr <= T and the contradiction check yields I >= L"):
        for tup in [(2, 4, 2, 2, 7, 2), (2, 4, 3, 3, 7, 2), (3, 5, 2, 4, 11, 2)]:
            params = SchemeParams(*tup)
            with pytest.raises(Infeasible):
                setup(params)
            witness = infeasibility_witness(params)
            assert witness.value >= Fraction(params.gradient_len)
            assert witness.ok


SECURITY_POINTS = [SchemeParams(2, 4, 3, 1, 7, 2), SchemeParams(2, 3, 2, 1, 5, 1)]


def test_criterion_5_zero_leakage_helpers():
    with criterion(5, "security against helpers: exhaustive exact zeros", budget=60.0):
        for params in SECURITY_POINTS:
            ctx = setup(params)
            users = list(range(1, params.num_users + 1))
            helpers = list(range(1, params.num_helpers + 1))
            queries = 0
            for pattern in enumerate_patterns(params):
                tvars = build_linear_transcript(ctx, pattern)
                for uset in subsets(users):
                    for tset in subsets(helpers, params.collusion):
                        rec = check_security_helpers(
                            ctx, pattern, uset, tset, tvars=tvars
                        )
                        assert rec.value == 0, (params, rec)
                        queries += 1
            expected_patterns = 25 if params.num_helpers == 4 else 16
            assert queries == expected_patterns * 2**params.num_users * (
                1 + params.num_helpers
            )


def test_criterion_6_zero_leakage_master():
    with criterion(6, "security against the master: exhaustive exact zeros", budget=60.0):
        for params in SECURITY_POINTS:
            ctx = setup(params)
            users = list(range(1, params.num_users + 1))
            helpers = list(range(1, params.num_helpers + 1))
            for pattern in enumerate_patterns(params):
                tvars = build_linear_transcript(ctx, pattern)
                for uset in subsets(users):
                    for tset in subsets(helpers, params.collusion):
                        rec = check_security_master(
                            ctx, pattern, uset, tset, tvars=tvars
                        )
                        assert rec.value == 0, (params, rec)
            # responses carry nothing beyond the sum once a full-size
            # colluding set's uploads are known
            for tset in combinations(helpers, params.collusion):
                assert response_entropy_given_sum(ctx, tset) == 0


def test_criterion_7_invariant_suites():
    with criterion(7, "mask, sharing and recoverability suites exact on the grid"):
        for params in DEFAULT_GRID:
            ctx = setup(params)
            r1 = check_mask_independence(ctx)
            assert r1.ok, (params, r1.violations)
            r3 = check_upload_recoverability(ctx)
            assert r3.ok, (params, r3.violations)
            helpers = list(range(1, params.num_helpers + 1))
            for pattern in enumerate_patterns(params):
                tvars = build_linear_transcript(ctx, pattern)
                for tset in subsets(helpers, params.collusion):
                    rec = check_sharing_leakage(ctx, pattern, tset, tvars=tvars)
                    assert rec.value == 0, (params, rec)


def test_criterion_8_oracle_cross_validation():
    with criterion(
        8, "rank entropies equal brute-force enumeration, all subsets", budget=300.0
    ):
        # A two-user tuple over GF(3) would keep the source space at
        # 3^10 = 59049 assignments, but no such scheme exists: the
        # construction needs N + Nr - 1 = 4 distinct nonzero evaluation
        # points and GF(3) has only 2, so setup must reject it.
        with pytest.raises(FieldTooSmall):
            setup(SchemeParams(2, 3, 2, 1, 3, 1))

        # Closest instance whose full source space stays enumerable:
        # (K=1, N=3, Nr=2, T=1, q=5, L=1), 5 source slots, 5^5 = 3125
        # assignments, under a pattern that exercises straggling, shares
        # and recovery.
        tiny = SchemeParams(1, 3, 2, 1, 5, 1)
        ctx = setup(tiny)
        pattern = parse_pattern("nu=1:1,2 hm=1,2")
        oracle = BruteForceOracle(ctx, pattern)
        assert oracle.count == 3125
        tvars = build_linear_transcript(ctx, pattern)
        names = list(oracle.names)
        assert set(names) == set(tvars)

        # every subset, both sides walked depth-first in the same order;
        # a seeded sample is also checked against the per-call paths
        rng = random.Random("oracle-subsets")
        sample = set()
        while len(sample) < 300:
            chosen = set(rng.sample(names, rng.randrange(len(names) + 1)))
            sample.add(tuple(n for n in names if n in chosen))
        walks = zip(
            oracle.all_subset_entropies(),
            all_subset_entropies_rank([tvars[n] for n in names]),
            strict=True,
        )
        compared = sampled = 0
        for (subset, h_oracle), (rank_subset, h_rank) in walks:
            assert subset == rank_subset and h_oracle == h_rank, subset
            if subset in sample:
                assert oracle.entropy(subset) == h_oracle, subset
                assert entropy_rank([tvars[n] for n in subset]) == h_rank, subset
                sampled += 1
            compared += 1
        assert compared == 2 ** len(names) == 524288
        assert sampled == len(sample)

        rng = random.Random("oracle-mi")
        for _ in range(50):
            a = [n for n in names if rng.random() < 0.25]
            b = [n for n in names if rng.random() < 0.25]
            c = [n for n in names if rng.random() < 0.25]
            assert oracle.cond_mutual_info(a, b, c) == cond_mutual_info(
                MiQuery(
                    tuple(tvars[n] for n in a),
                    tuple(tvars[n] for n in b),
                    tuple(tvars[n] for n in c),
                )
            )


def test_criterion_9_deterministic_reports():
    with criterion(9, "identical config and seeds give byte-identical reports"):
        config = dict(
            mode="verify",
            grid=(SchemeParams(2, 3, 2, 1, 5, 1),),
            draws=2,
            seed="acc",
            dealer_seed="acc",
        )
        first = render_json(run_verify(RunConfig(**config)).to_json())
        second = render_json(run_verify(RunConfig(**config)).to_json())
        assert first == second

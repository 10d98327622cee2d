import ast
import hashlib
import json
import os
import re
import subprocess
import sys
import time
from collections import Counter
from dataclasses import replace
from fractions import Fraction
from math import comb
from pathlib import Path

import pytest

from hsagg.cli import main
from hsagg.harness import (
    BudgetExceeded,
    ConfigError,
    DEFAULT_GRID,
    RunConfig,
    estimate_work,
    load_config_file,
    pad_symbols,
    render_json,
    render_leakage_csv,
    render_rates_csv,
    render_verify_csv,
    run_leakage,
    run_rates,
    run_single_round,
    run_verify,
    transcript_to_json,
    verify_point,
)
from hsagg import harness, leakage as lk, protocol
from hsagg.matrix import GfMatrix, RowSpace
from hsagg.patterns import (
    enumerate_patterns,
    enumerate_survivors,
    format_pattern,
    parse_pattern,
)
from hsagg.protocol import HelperResponse, SchemeParams

EXAMPLE = SchemeParams(2, 4, 3, 1, 7, 2)
SMALL = SchemeParams(2, 3, 2, 1, 5, 1)
EXAMPLE_LITERAL = "nu=1:1,2,3;2:1,2,4 hm=2,3,4"


def test_pad_symbols():
    assert pad_symbols([1, 2, 3], 2) == ([1, 2, 3, 0], 3)
    assert pad_symbols([1, 2, 3, 4], 2) == ([1, 2, 3, 4], 4)
    assert pad_symbols([], 3) == ([], 0)


def test_load_config_file(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text(
        "# campaign\nparams = 2,4,3,1,7,2\nseed=42  # inline comment\n\nformat=csv\n"
    )
    assert load_config_file(str(path)) == {
        "params": "2,4,3,1,7,2",
        "seed": "42",
        "format": "csv",
    }
    bad = tmp_path / "bad.cfg"
    bad.write_text("params 2,4\n")
    with pytest.raises(ConfigError):
        load_config_file(str(bad))


def test_run_single_round_matches_sum():
    config = RunConfig(
        mode="round", params=EXAMPLE, pattern=EXAMPLE_LITERAL, seed="5"
    )
    transcript, doc = run_single_round(config)
    assert doc["result"]["match"] is True
    assert doc["decoded"] == doc["result"]["expected_sum"]
    assert doc["result"]["rate_x"] == {"value": "1/2", "decimal": 0.5}
    assert list(doc)[:2] == ["params", "pattern"]


def test_round_transcript_document_shape():
    config = RunConfig(
        mode="round", params=EXAMPLE, pattern=EXAMPLE_LITERAL, seed="1"
    )
    transcript, doc = run_single_round(config)
    assert doc["params"] == {"K": 2, "N": 4, "Nr": 3, "T": 1, "q": 7, "L": 2}
    assert doc["pattern"]["nu"] == {"1": [1, 2, 3], "2": [1, 2, 4]}
    assert doc["pattern"]["hm"] == [2, 3, 4]
    assert len(doc["uploads"]) == 8
    assert all(set(u) == {"k", "n", "payload"} for u in doc["uploads"])
    assert len(doc["dealer_noise"]) == 4 * 2 * 2
    assert len(doc["dealer_masks"]) == 4 * 4 * 2
    # helper 3 misses user 2, helper 4 misses user 1: three shares each
    assert len(doc["messages"]) == 6
    assert all(
        0 <= v < 7 for u in doc["uploads"] for v in u["payload"]
    )
    round2 = transcript_to_json(transcript)
    round2.pop("result", None)
    base = dict(doc)
    base.pop("result")
    assert render_json(round2) == render_json(base)


def test_round_with_gradient_file(tmp_path):
    grads = tmp_path / "grads.json"
    # raw length 3 pads to 4 = L with block count 2
    params = SchemeParams(2, 4, 3, 1, 7, 4)
    grads.write_text(json.dumps({"1": [1, 2, 3], "2": [4, 5, 6]}))
    config = RunConfig(
        mode="round",
        params=params,
        pattern=EXAMPLE_LITERAL,
        gradient_file=str(grads),
    )
    _, doc = run_single_round(config)
    assert doc["result"]["match"] is True
    assert doc["result"]["original_lengths"] == {"1": 3, "2": 3}
    assert doc["result"]["decoded_trimmed"] == [5, 0, 2]
    assert doc["decoded"] == [5, 0, 2, 0]


def test_round_gradient_file_errors(tmp_path):
    grads = tmp_path / "grads.json"
    grads.write_text(json.dumps({"1": [1, 2]}))
    config = RunConfig(
        mode="round", params=EXAMPLE, pattern=EXAMPLE_LITERAL,
        gradient_file=str(grads),
    )
    with pytest.raises(ConfigError):
        run_single_round(config)
    grads.write_text(json.dumps({"1": [1, 9], "2": [0, 0]}))
    with pytest.raises(ConfigError):
        run_single_round(config)
    grads.write_text(json.dumps({"1": [1, 2, 3, 4, 5], "2": [0, 0]}))
    with pytest.raises(ConfigError):
        run_single_round(config)


def test_round_needs_survivors():
    config = RunConfig(mode="round", params=EXAMPLE, pattern="nu=1:1,2,3;2:1,2,4")
    with pytest.raises(ConfigError):
        run_single_round(config)
    both = RunConfig(
        mode="round", params=EXAMPLE, pattern=EXAMPLE_LITERAL, drop_prob=0.1
    )
    with pytest.raises(ConfigError):
        run_single_round(both)


def test_round_with_sampled_pattern():
    config = RunConfig(mode="round", params=EXAMPLE, drop_prob=0.2, seed="9")
    _, doc = run_single_round(config)
    assert doc["result"]["match"] is True


def test_verify_small_grid_counts():
    config = RunConfig(mode="verify", grid=(SMALL,), draws=3)
    report = run_verify(config)
    assert report.ok
    point = report.points[0]
    assert point.feasible
    assert point.patterns == 16
    assert point.decode_cases == point.survivor_sets * 3
    assert point.security_queries == 16 * 4 * 4 * 2
    assert point.rates_equal
    assert point.rate_x == Fraction(1, 1)
    doc = report.to_json()
    assert doc["pass"] is True
    assert doc["grid"][0]["params"] == "2,3,2,1,5,1"


def test_verify_worked_example_point():
    config = RunConfig(mode="verify", grid=(EXAMPLE,), draws=2)
    report = run_verify(config)
    assert report.ok
    point = report.points[0]
    assert point.patterns == 25
    assert point.survivor_sets == 109
    assert point.failures == []
    assert point.rate_x == Fraction(1, 2)


def _decode_failures(report):
    return [f for f in report.failures if f.startswith("decode mismatch")]


@pytest.mark.parametrize("column", [0, -1], ids=["first-column", "last-column"])
def test_stacked_decode_catches_a_master_decode_off_by_one(monkeypatch, column):
    decode = protocol.master_decode

    def off_by_one(ctx, responses):
        out = list(decode(ctx, responses))
        out[column] = (out[column] + 1) % ctx.params.modulus
        return tuple(out)

    monkeypatch.setattr(protocol, "master_decode", off_by_one)
    report = verify_point(EXAMPLE, RunConfig(mode="verify", draws=2))
    assert report.decode_cases == 2 * report.survivor_sets == 218
    # the column is one draw of each survivor set's decode
    assert len(_decode_failures(report)) == report.survivor_sets


def test_stacked_decode_catches_the_corrupted_last_draw_of_every_survivor_set(monkeypatch):
    """The campaign's one helper phase per pattern is the unit round's
    (``leakage.run_helpers``); its last column is the last draw's."""
    run_helpers = lk.run_helpers

    def corrupt_last_column(*args, **kwargs):
        t = run_helpers(*args, **kwargs)
        q = t.params.modulus
        t.responses = tuple(
            HelperResponse(r.helper, r.payload[:-1] + ((r.payload[-1] + 1) % q,))
            for r in t.responses
        )
        return t

    monkeypatch.setattr(lk, "run_helpers", corrupt_last_column)
    report = verify_point(EXAMPLE, RunConfig(mode="verify", draws=2))
    # every survivor set decodes the whole round: the last column is
    # the last draw of each
    assert _decode_failures(report) == [
        f"decode mismatch at pattern {format_pattern(p.with_survivors(s))}"
        for p in enumerate_patterns(EXAMPLE)
        for s in enumerate_survivors(p, EXAMPLE)
    ]
    assert len(_decode_failures(report)) == report.survivor_sets == 109


def test_verify_point_draws_each_points_inputs_once(monkeypatch):
    """Every pattern and survivor set of a point decodes the same
    ``draws`` inputs under the same dealer noise: one probed unit round
    per feasible point and no dealer table, still ``draws`` decode cases
    per survivor set.  An infeasible point draws nothing: its witness's
    sibling's unit round carries no probes."""
    unit_round, built, seeds = lk.UnitRound, [], []

    def unit_spy(ctx, probes=()):
        built.append((ctx.params, len(probes)))
        return unit_round(ctx, probes)

    monkeypatch.setattr(lk, "UnitRound", unit_spy)
    monkeypatch.setattr(protocol, "dealer_generate", lambda ctx, seed: seeds.append(seed))
    infeasible = SchemeParams(2, 4, 2, 2, 7, 2)
    report = run_verify(RunConfig(mode="verify", grid=(SMALL, EXAMPLE, infeasible), draws=2))
    dims = [lk.SourceLayout(p).dim for p in (SMALL, EXAMPLE)]
    sibling = lk.witness_sibling(infeasible)
    assert built == [(SMALL, dims[0]), (EXAMPLE, dims[1]), (sibling, 0)] and seeds == []
    small, example, infeasible = report.points
    assert (small.patterns, example.patterns, infeasible.feasible) == (16, 25, False)
    assert example.decode_cases == 2 * example.survivor_sets == 218
    assert small.decode_cases == 2 * small.survivor_sets
    assert report.ok


def test_stacked_decode_reads_each_survivor_sets_responses(monkeypatch):
    run_helpers = lk.run_helpers

    def corrupt_helper_1(*args, **kwargs):
        t = run_helpers(*args, **kwargs)
        q = t.params.modulus
        t.responses = tuple(
            HelperResponse(r.helper, tuple((v + (r.helper == 1)) % q for v in r.payload))
            for r in t.responses
        )
        return t

    monkeypatch.setattr(lk, "run_helpers", corrupt_helper_1)
    report = verify_point(EXAMPLE, RunConfig(mode="verify", draws=2))
    # the master decodes from the Nr lowest-numbered survivors
    assert _decode_failures(report) == [
        f"decode mismatch at pattern {format_pattern(p.with_survivors(s))}"
        for p in enumerate_patterns(EXAMPLE)
        for s in enumerate_survivors(p, EXAMPLE)
        for _ in range(2)
        if 1 in sorted(s)[:EXAMPLE.resiliency]
    ]


@pytest.mark.parametrize(
    "column, kinds",
    [
        (0, {"master leakage": 125, "responses not": 4}),
        (-1, {"decode mismatch": 109}),
    ],
    ids=["identity-column", "probe-column"],
)
def test_the_decode_reads_the_probe_columns_and_the_sweep_the_identity(
    monkeypatch, column, kinds
):
    """One helper phase per pattern serves both checks: its first ``dim``
    columns are the coefficient rows, the rest the decode draws.  Column
    0 of a response is ``Y[n]``'s coefficient on ``w1.1``: corrupted, the
    master learns more than the sum, yet every decode holds.  The last
    column is the last draw's: corrupted, each survivor set's decode
    fails, yet no coefficient row changes."""
    run_helpers = lk.run_helpers

    def corrupt_column(*args, **kwargs):
        t = run_helpers(*args, **kwargs)
        q = t.params.modulus
        corrupted = []
        for r in t.responses:
            payload = list(r.payload)
            payload[column] = (payload[column] + 1) % q
            corrupted.append(HelperResponse(r.helper, tuple(payload)))
        t.responses = tuple(corrupted)
        return t

    monkeypatch.setattr(lk, "run_helpers", corrupt_column)
    report = verify_point(EXAMPLE, RunConfig(mode="verify", draws=2))
    assert Counter(" ".join(f.split()[:2]) for f in report.failures) == kinds


def test_verify_fails_a_master_that_decodes_from_too_few_responses(monkeypatch, capsys):
    """A master that inverts only Nr - 1 responses cannot decode: every
    decode case fails and verify exits 1, not 2 as for a bad
    configuration."""

    def nr_minus_one(ctx, responses):
        by_helper = {r.helper: r.payload for r in responses}
        chosen = sorted(by_helper)[:ctx.params.resiliency - 1]
        sub = ctx.upload_matrix.select_rows([n - 1 for n in chosen])
        return sub.inv() @ GfMatrix(ctx.field, [by_helper[n] for n in chosen])

    monkeypatch.setattr(protocol, "master_decode", nr_minus_one)
    code = main(["verify", "--grid", EXAMPLE.label(), "--draws", "1"])
    out, err = capsys.readouterr()
    assert code == 1
    assert "Traceback" not in err and "error:" not in err
    (point,) = json.loads(out)["grid"]
    assert len(point["failures"]) == point["decode_cases"] == 109
    assert all(f.startswith("decode mismatch at pattern ") for f in point["failures"])


def test_verify_catches_a_nonzero_own_mask_row(monkeypatch):
    """With the mask basis's first row nonzero, a helper's own mask
    coordinate no longer vanishes: decodes fail and every kind of
    security query leaks, while the mask suite alone sees nothing."""
    real_setup = protocol.setup

    def own_mask_row(params):
        ctx = real_setup(params)
        rows = [(1,) * ctx.mask_basis.cols] + list(ctx.mask_basis.data[1:])
        basis = GfMatrix(ctx.field, rows)
        maps = tuple(d @ basis for d in ctx.decode_matrices)
        return replace(ctx, mask_basis=basis, mask_maps=maps)

    monkeypatch.setattr(protocol, "setup", own_mask_row)
    report = verify_point(EXAMPLE, RunConfig(mode="verify", draws=2))
    assert report.decode_cases == 218
    # which decode cases fail depends on the point's one draw of every source slot
    assert Counter(" ".join(f.split()[:2]) for f in report.failures) == {
        "decode mismatch": 174,
        "helpers leakage": 76,
        "master leakage": 36,
        "sharing leakage": 36,
    }


def _entry_mutants(matrix):
    """Each (row, column, delta) of ``matrix`` and the matrix with that
    entry changed by that nonzero delta."""
    q, data = matrix.field.q, matrix.data
    for i, row in enumerate(data):
        for j in range(len(row)):
            for delta in range(1, q):
                changed = list(map(list, data))
                changed[i][j] += delta
                yield (i, j, delta), GfMatrix(matrix.field, changed)


def _public_matrix_mutants(ctx):
    """Each entry mutant of ``upload_matrix`` and of each ``mask_maps[n]``
    (``_entry_mutants``) as a named context, the other matrices kept."""
    for where, m in _entry_mutants(ctx.upload_matrix):
        yield ("upload", *where), replace(ctx, upload_matrix=m)
    for n, maps in enumerate(ctx.mask_maps):
        for where, m in _entry_mutants(maps):
            changed = ctx.mask_maps[:n] + (m,) + ctx.mask_maps[n + 1:]
            yield ("mask", n, *where), replace(ctx, mask_maps=changed)


def test_verify_fails_every_public_matrix_mutant_a_role_reads(monkeypatch):
    """Every entry of ``upload_matrix`` and of each ``mask_maps[n]``,
    changed by each nonzero delta, the derived matrices left as they
    are: verify fails every mutant except those of row n of
    ``mask_maps[n]``, the mask helper n would add toward itself, which
    no role sends."""
    mutants = list(_public_matrix_mutants(protocol.setup(SMALL)))
    passed = []
    for name, mutant in mutants:
        monkeypatch.setattr(protocol, "setup", lambda params, _mutant=mutant: _mutant)
        if not verify_point(SMALL, RunConfig(mode="verify", draws=2)).failures:
            passed.append(name)
    q, helpers = SMALL.modulus, SMALL.num_helpers
    assert sum(name[0] == "upload" for name, _ in mutants) == 24
    assert sum(name[0] == "mask" for name, _ in mutants) == 36
    assert passed == [("mask", n, n, j, delta) for n in range(helpers)
                      for j in range(SMALL.resiliency - 1) for delta in range(1, q)]


def test_single_user_mutants_leak_what_the_oracle_counts(monkeypatch):
    """At K = 1, every entry of ``upload_matrix`` and of each
    ``mask_maps[n]`` changed by +1: for each mutant that verify fails,
    its first nonzero helper record is what the brute-force oracle counts
    for the same query, I(W[1]; view | W[u], F[u] for u in U), so a
    broken scheme's leakage is checked by counting, not only by rank
    arithmetic.  The master conditions on W = W[1] at K = 1, so none of
    its records is nonzero.  The mutants that pass are those of row n
    of ``mask_maps[n]``, which no role reads."""
    params = SchemeParams(1, 3, 2, 1, 5, 1)
    mutants = [(name, m) for name, m in _public_matrix_mutants(protocol.setup(params))
               if name[-1] == 1]
    passed, checked = [], 0
    for name, mutant in mutants:
        monkeypatch.setattr(protocol, "setup", lambda params, _mutant=mutant: _mutant)
        failures = verify_point(params, RunConfig(mode="verify", draws=2)).failures
        if not failures:
            passed.append(name)
            continue
        assert not any(f.startswith("master leakage") for f in failures), name
        first = next(f for f in failures if f.startswith("helpers leakage"))
        value, users, tset, label = re.fullmatch(
            r"helpers leakage (\d+) at U=(\(.*?\)) T=(\(.*?\)) (.+)", first
        ).groups()
        users, tset, pattern = ast.literal_eval(users), ast.literal_eval(tset), parse_pattern(label)
        tvars = lk.build_linear_transcript(mutant, pattern)
        view = [v.name for v in lk.helper_observation(tvars, tset)]
        given = [f"{x}[{u}]" for u in users for x in ("W", "F")]
        oracle = lk.BruteForceOracle(mutant, pattern)
        assert oracle.cond_mutual_info(["W[1]"], view, given) == int(value), name
        checked += 1
    assert (len(mutants), checked) == (15, 12)
    assert passed == [("mask", n, n, 0, 1) for n in range(params.num_helpers)]


def test_thousand_seeded_random_rounds():
    """Sampled straggling at (3,5,4,2,11,2): every decode is exact."""
    import random

    from hsagg.patterns import sample_pattern
    from hsagg.protocol import (
        Gradient,
        UserRandomness,
        dealer_generate,
        run_round,
        setup,
    )

    params = SchemeParams(3, 5, 4, 2, 11, 2)
    ctx = setup(params)
    keys = dealer_generate(ctx, "bulk")
    for i in range(1000):
        pattern = sample_pattern(params, 0.15, f"bulk:{i}")
        rng = random.Random(f"bulk-data:{i}")
        grads = [Gradient.random(k, params, rng) for k in (1, 2, 3)]
        noises = [UserRandomness.random(k, params, rng) for k in (1, 2, 3)]
        t = run_round(ctx, pattern, grads, noises, keys)
        expected = tuple(
            sum(g.symbols()[j] for g in grads) % 11
            for j in range(params.gradient_len)
        )
        assert t.decoded == expected


def test_verify_infeasible_point_is_not_failure():
    config = RunConfig(
        mode="verify", grid=(SchemeParams(2, 4, 2, 2, 7, 2),), draws=1
    )
    report = run_verify(config)
    assert report.ok
    point = report.points[0]
    assert not point.feasible
    assert point.witness_value is not None
    assert point.witness_value >= Fraction(2)
    doc = report.to_json()
    assert doc["grid"][0]["witness_value"] == {"value": "2", "decimal": 2.0}


def test_verify_invalid_point_is_config_error():
    config = RunConfig(
        mode="verify", grid=(SchemeParams(2, 4, 3, 1, 5, 2),), draws=1
    )
    with pytest.raises(ConfigError):
        run_verify(config)


def test_verify_budget():
    big = SchemeParams(2, 8, 5, 1, 17, 4)
    assert estimate_work(big, 20, 1_000_000) > 1_000_000
    config = RunConfig(mode="verify", grid=(big,), draws=20, budget=1000)
    with pytest.raises(BudgetExceeded) as err:
        run_verify(config)
    assert "2,8,5,1,17,4" in str(err.value)


def test_verify_budget_counts_the_infeasibility_witness(monkeypatch):
    """An infeasible point's witness builds a sibling scheme's
    transcript, so its size counts toward the budget and a large one is
    refused before the witness is built."""
    monkeypatch.setattr(lk, "infeasibility_witness", lambda *args: pytest.fail("a witness ran"))
    point = SchemeParams(12, 16, 3, 5, 23, 1)
    config = RunConfig(mode="verify", grid=(point,), draws=1, budget=1000)
    with pytest.raises(BudgetExceeded) as err:
        run_verify(config)
    assert "12,16,3,5,23,1" in str(err.value)


def test_subset_counts_are_capped_sums_of_binomials():
    """Every range at every n up to 12 counts as the sum it stands for,
    capped; at n = 10^6 any range counts at once."""
    for cap, n in ((cap, n) for cap in (1, 7, 10**6, 10**30) for n in range(13)):
        for lo, hi in ((lo, hi) for lo in range(n + 1) for hi in range(lo, n + 1)):
            want = min(sum(comb(n, s) for s in range(lo, hi + 1)), cap)
            assert harness._subsets(n, lo, hi, cap) == want, (n, lo, hi, cap)
    n = 10**6
    for cap in (1, 7, 10**6, 10**30):
        for lo, hi in ((0, n), (0, 0), (0, 3), (0, 99), (5, 10), (n // 2, n // 2),
                       (n - 99, n), (n - 3, n), (n, n), (1, n - 1)):
            start = time.perf_counter()
            harness._subsets(n, lo, hi, cap)
            assert time.perf_counter() - start < 0.1, (lo, hi, cap)


@pytest.mark.parametrize(
    "params", DEFAULT_GRID + (SchemeParams(5, 3, 2, 1, 5, 1),), ids=SchemeParams.label
)
def test_estimate_covers_every_counted_check(params):
    """With one draw the decode cases no longer pad the estimate, so it
    holds only if it counts the no-straggler suites too.  Every user
    subset is checked, at every K."""
    report = verify_point(params, RunConfig(mode="verify", draws=1))
    counted = report.decode_cases + report.security_queries + report.invariant_checks
    assert estimate_work(params, 1, 1_000_000) >= counted
    n_tsets = sum(comb(params.num_helpers, s) for s in range(params.collusion + 1))
    assert report.security_queries == report.patterns * 2**params.num_users * n_tsets * 2


# RowSpace (insert, clone) calls, _split_quadruple calls and the rows
# they and the _split_query preparations reduce into forward echelons,
# in each point's one-draw campaign; the same under any PYTHONHASHSEED
RANK_WORK = {
    "2,3,2,1,5,1": (158, 8, 20, 37),
    "2,4,3,1,7,2": (366, 10, 25, 65),
    "3,4,3,2,11,1": (761, 15, 99, 383),
    "2,5,4,2,11,2": (1460, 12, 80, 275),
}


@pytest.mark.parametrize("params", DEFAULT_GRID, ids=SchemeParams.label)
def test_rank_work_does_not_grow(params, monkeypatch):
    """A memo change that loses reuse shows as more row reductions or
    more quadruple eliminations.  The correct scheme's views are direct
    sums over users, so the store assembles every one of them and
    reduces none whole: each pattern's helper subsets within the bound,
    then each T-set's on the no-straggler transcript, for the response
    checks."""
    calls = {"insert": 0, "clone": 0, "split": 0, "echelon rows": 0}
    for name in ("insert", "clone"):
        method = getattr(RowSpace, name)

        def counted(self, *args, _name=name, _method=method):
            calls[_name] += 1
            return _method(self, *args)

        monkeypatch.setattr(RowSpace, name, counted)
    split_quadruple, echelon = lk._split_quadruple, lk._forward_echelon
    rank_store, stores = lk._rank_store, []

    def counted_split(*args):
        calls["split"] += 1
        return split_quadruple(*args)

    def counted_echelon(into, rows, field):
        calls["echelon rows"] += len(rows)
        return echelon(into, rows, field)

    def kept_store(ctx):
        stores.append(rank_store(ctx))
        return stores[-1]

    monkeypatch.setattr(lk, "_split_quadruple", counted_split)
    monkeypatch.setattr(lk, "_forward_echelon", counted_echelon)
    monkeypatch.setattr(lk, "_rank_store", kept_store)
    verify_point(params, RunConfig(mode="verify", draws=1))
    bounds = dict(zip(calls, RANK_WORK[params.label()]))
    assert all(calls[name] <= bounds[name] for name in calls), calls
    assert len({id(store) for store in stores}) == 1
    n_tsets = sum(1 for _ in enumerate_patterns(params)) * sum(
        comb(params.num_helpers, size) for size in range(params.collusion + 1)
    )
    responses = comb(params.num_helpers, params.collusion)
    assert stores[0].views == {"assembled": n_tsets + responses, "whole": 0}


# GfMatrix.inv calls of each point's one-draw campaign, setup included:
# the round's inverses are memoized by matrix content and row selection
ROUND_WORK = {
    "2,3,2,1,5,1": 9,
    "2,4,3,1,7,2": 12,
    "3,4,3,2,11,1": 12,
    "2,5,4,2,11,2": 15,
}


@pytest.mark.parametrize("params", DEFAULT_GRID, ids=SchemeParams.label)
def test_round_work_does_not_grow(params, monkeypatch):
    """A round that inverts its decode matrices again, instead of
    reading the memo, shows as more inversions."""
    calls = []
    inv = GfMatrix.inv

    def counted(self):
        calls.append(self)
        return inv(self)

    monkeypatch.setattr(GfMatrix, "inv", counted)
    verify_point(params, RunConfig(mode="verify", draws=1))
    assert len(calls) <= ROUND_WORK[params.label()], len(calls)


# GfMatrix.__matmul__ calls of each point's one-draw campaign, setup
# included: a helper combines its shares, sums its uploads, and the master
# combines the responses, on whole vectors with no product; one product
# per recovery made (84, 155, 912, 258) calls at these points, and one
# per decode on top of that (66, 123, 624, 208)
PRODUCT_WORK = {
    "2,3,2,1,5,1": 11,
    "2,4,3,1,7,2": 14,
    "3,4,3,2,11,1": 15,
    "2,5,4,2,11,2": 17,
}


@pytest.mark.parametrize("params", DEFAULT_GRID, ids=SchemeParams.label)
def test_product_work_does_not_grow(params, monkeypatch):
    """A round that goes back to a matrix product per recovered upload,
    or per decode, shows as more products."""
    calls = []
    matmul = GfMatrix.__matmul__

    def counted(self, other):
        calls.append(self)
        return matmul(self, other)

    monkeypatch.setattr(GfMatrix, "__matmul__", counted)
    verify_point(params, RunConfig(mode="verify", draws=1))
    assert len(calls) <= PRODUCT_WORK[params.label()], len(calls)


# Calls of each point's one-draw campaign to dealer_generate (none: the
# probes hold the dealer noise), UnitRound, encode_uploads and
# keys_from_noise: the work that no pattern changes, so the counts do not
# grow with the pattern count P; and to run_helpers, one helper phase per
# pattern and one for the invariant suites' no-straggler transcript, P + 1.
# A campaign that dealt, drew, encoded and derived masks per pattern made
# (P, P, 2KP + K, 2P + 1) such calls: (16, 16, 66, 33), (25, 25, 102, 51),
# (125, 125, 753, 251) and (36, 36, 146, 73) at these points; one that
# ran a decode round beside the unit round made 2K encode_uploads calls
# and 2P + 1 helper phases.
PREFIX_WORK = {
    "2,3,2,1,5,1": (0, 1, 2, 1, 17),
    "2,4,3,1,7,2": (0, 1, 2, 1, 26),
    "3,4,3,2,11,1": (0, 1, 3, 1, 126),
    "2,5,4,2,11,2": (0, 1, 2, 1, 37),
}


@pytest.mark.parametrize("params", DEFAULT_GRID, ids=SchemeParams.label)
def test_prefix_work_does_not_grow(params, monkeypatch):
    """A campaign that draws, deals, encodes or derives masks again for
    each pattern, instead of once per point, or that runs more than one
    helper phase per pattern, shows as more calls."""
    names = ("dealer_generate", "UnitRound", "encode_uploads", "keys_from_noise",
             "run_helpers")
    calls = Counter()
    for owner, name in ((protocol, names[0]), (lk, names[1]), (protocol, names[2]),
                        (protocol, names[3]), (lk, names[3]), (protocol, names[4]),
                        (lk, names[4])):
        def counted(*args, _name=name, _method=getattr(owner, name), **kwargs):
            calls[_name] += 1
            return _method(*args, **kwargs)

        monkeypatch.setattr(owner, name, counted)
    verify_point(params, RunConfig(mode="verify", draws=1))
    made = tuple(calls[name] for name in names)
    assert all(c <= bound for c, bound in zip(made, PREFIX_WORK[params.label()])), made


def test_a_broken_scheme_on_a_swept_context_fails_as_on_a_fresh_one(monkeypatch):
    """A point's unit round lives in ``verify_point``'s locals, never in
    the context's memo: on a context whose memo a correct campaign filled, a
    campaign under keys whose every user's masks come from user 1's noise
    reports the failures it reports on a fresh context."""
    swept, fresh = protocol.setup(EXAMPLE), protocol.setup(EXAMPLE)
    config = RunConfig(mode="verify", draws=1)
    monkeypatch.setattr(protocol, "setup", lambda params: swept)
    assert verify_point(EXAMPLE, config).failures == []
    derive = lk.keys_from_noise
    monkeypatch.setattr(lk, "keys_from_noise", lambda ctx, noise: derive(
        ctx, {(n, j, k): noise[n, j, 1] for n, j, k in noise}))
    broken = verify_point(EXAMPLE, config).failures
    monkeypatch.setattr(protocol, "setup", lambda params: fresh)
    assert broken == verify_point(EXAMPLE, config).failures
    assert Counter(" ".join(f.split()[:2]) for f in broken) == {
        "helpers leakage": 12,
        "master leakage": 4,
        "sharing leakage": 4,
        "maximal mask": 1,
    }


# Two one-draw campaigns at each of two default points, in one fresh
# interpreter, so that no earlier test has filled a memo that outlives
# its context; prints each campaign's inversion and insert counts.
_REPEATED_CAMPAIGNS = """
import json
from hsagg.harness import DEFAULT_GRID, RunConfig, verify_point
from hsagg.matrix import GfMatrix, RowSpace

calls = {"inv": 0, "insert": 0}
for owner, name in ((GfMatrix, "inv"), (RowSpace, "insert")):
    def counted(self, *args, _name=name, _method=getattr(owner, name)):
        calls[_name] += 1
        return _method(self, *args)
    setattr(owner, name, counted)
runs = {}
for params in DEFAULT_GRID[::2]:
    for _ in range(2):
        verify_point(params, RunConfig(mode="verify", draws=1))
        runs.setdefault(params.label(), []).append(dict(calls))
        calls.update(inv=0, insert=0)
print(json.dumps(runs))
"""


def test_repeated_campaign_does_the_same_work():
    """Every memo lives in the scheme context, so a second campaign at
    the same point in one process inverts and inserts as often as the
    first: no cache outlives the context it serves."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    done = subprocess.run(
        [sys.executable, "-c", _REPEATED_CAMPAIGNS],
        env={**os.environ, "PYTHONPATH": src}, capture_output=True, text=True, timeout=600,
    )
    assert done.returncode == 0, done.stderr
    runs = json.loads(done.stdout)
    assert sorted(runs) == sorted(p.label() for p in DEFAULT_GRID[::2])
    for label, (first, second) in runs.items():
        assert first == second and first["inv"] > 0, (label, first, second)


class _Drawn(Exception):
    """Raised in place of ``lk.UnitRound`` by ``_drawn_probes``, with the
    probes it was handed."""


def _drawn_probes(monkeypatch, params, **options):
    """The probes that ``verify_point`` hands ``lk.UnitRound`` at
    ``params`` under ``options``, the campaign stopped there."""

    def stop(ctx, probes=()):
        raise _Drawn(probes)

    with monkeypatch.context() as patch, pytest.raises(_Drawn) as drawn:
        patch.setattr(lk, "UnitRound", stop)
        verify_point(params, RunConfig(mode="verify", **options))
    return drawn.value.args[0]


def test_verify_draws_one_uniform_probe_per_source_slot(monkeypatch):
    """The decode draws are source slots: ``dim`` probes of ``draws * l``
    symbols in [0, q), every residue occurring.  ``seed`` moves only the
    users' slots, before ``user_dim``, and ``dealer_seed`` only the dealer
    noise's after it."""
    layout, draws = lk.SourceLayout(EXAMPLE), 3
    cut = layout.user_dim
    probes = _drawn_probes(monkeypatch, EXAMPLE, draws=draws)
    assert len(probes) == layout.dim
    assert all(len(p) == draws * EXAMPLE.block_len for p in probes)
    symbols = [v for p in probes for v in p]
    assert all(type(v) is int for v in symbols) and set(symbols) == set(range(EXAMPLE.modulus))
    users = _drawn_probes(monkeypatch, EXAMPLE, draws=draws, seed="1")
    dealer = _drawn_probes(monkeypatch, EXAMPLE, draws=draws, dealer_seed="1")
    assert all(a != b for a, b in zip(users[:cut], probes[:cut])) and users[cut:] == probes[cut:]
    assert dealer[:cut] == probes[:cut] and all(a != b for a, b in zip(dealer[cut:], probes[cut:]))


# SHA-256 of the probes that ``verify_point`` draws at each point, first
# for 20 draws, then for 3, under the default seeds: the decode's inputs
DRAWN_INPUTS = {
    "2,4,3,1,7,2": "b550b163a49599ed5e193f55242451be2d1b48f34455bbfa23678556a4c18fd9",
    "3,4,3,2,11,1": "8add887c2f1443d6bb220b52a48b71edaf31b8501c9126514ec02fe3cbeb8fa3",
}


@pytest.mark.parametrize("label", sorted(DRAWN_INPUTS))
def test_drawn_decode_inputs_are_pinned(label, monkeypatch):
    """A verify report holds counts, not inputs, so the pinned report
    digests cannot show a change in the draw; these digests do."""
    params = SchemeParams.from_csv(label)
    drawn = [_drawn_probes(monkeypatch, params, draws=draws) for draws in (20, 3)]
    assert hashlib.sha256(repr(drawn).encode()).hexdigest() == DRAWN_INPUTS[label]


def test_verify_report_does_not_depend_on_the_draws():
    """A verify report holds counts, not inputs: two seeds or two dealer
    seeds, whose decode draws differ, render the same bytes."""
    a, b, c = (
        render_json(run_verify(RunConfig(mode="verify", grid=(SMALL,), draws=2, **seeds)).to_json())
        for seeds in ({"seed": "a"}, {"seed": "b"}, {"seed": "a", "dealer_seed": "b"})
    )
    assert a == b == c


def test_verify_deterministic_bytes():
    config = RunConfig(mode="verify", grid=(SMALL,), draws=2, seed="d", dealer_seed="d")
    a = render_json(run_verify(config).to_json())
    b = render_json(run_verify(config).to_json())
    assert a == b


def test_run_rates_default_grid():
    rows = run_rates(RunConfig(mode="rates"))
    assert len(rows) == len(DEFAULT_GRID)
    for row in rows:
        assert row["feasible"] and row["equal"]
    infeasible = run_rates(
        RunConfig(mode="rates", grid=(SchemeParams(2, 4, 2, 2, 7, 2),))
    )
    assert infeasible[0] == {"params": "2,4,2,2,7,2", "feasible": False}


BAD_GRID_POINTS = {
    "bad-second-point": (
        (SchemeParams(3, 4, 3, 2, 11, 1), SchemeParams(2, 3, 2, 1, 6, 1)),
        "grid point 2,3,2,1,6,1: modulus must be prime, got 6",
    ),
    "composite-q-beyond-budget": (
        (SchemeParams(6, 6, 4, 1, 4, 1),),
        "grid point 6,6,4,1,4,1: modulus must be prime, got 4",
    ),
    "witness-field-too-small": (
        (SchemeParams(2, 5, 3, 3, 5, 1),),
        "grid point 2,5,3,3,5,1: need 7 distinct nonzero points, GF(5) has 4",
    ),
}


@pytest.mark.parametrize("grid, message", BAD_GRID_POINTS.values(), ids=BAD_GRID_POINTS.keys())
def test_every_grid_point_is_set_up_before_any_work(monkeypatch, grid, message):
    """A bad point, the witness's sibling of an infeasible one included,
    is refused by name before the budget check and before any point or
    rates round runs."""
    monkeypatch.setattr(harness, "verify_point", lambda *args: pytest.fail("a point ran"))
    monkeypatch.setattr(protocol, "run_round", lambda *args: pytest.fail("a round ran"))
    for run, mode in ((run_verify, "verify"), (run_rates, "rates")):
        with pytest.raises(ConfigError) as refused:
            run(RunConfig(mode=mode, grid=grid))
        assert str(refused.value) == message


def test_each_point_is_set_up_once_per_campaign(monkeypatch):
    """``verify`` and ``rates`` check their points with no matrix built,
    charge the budget, then build each feasible point's matrices once;
    an infeasible point's witness builds its sibling's once."""
    built, real = Counter(), protocol.setup

    def counted(params):
        built[params.label()] += 1
        return real(params)

    monkeypatch.setattr(protocol, "setup", counted)
    monkeypatch.setattr(lk, "setup", counted)
    grid = (DEFAULT_GRID[0], SchemeParams(2, 4, 2, 2, 7, 2), DEFAULT_GRID[1])
    assert run_verify(RunConfig(mode="verify", grid=grid, draws=1)).ok
    assert built == {"2,3,2,1,5,1": 1, "2,4,2,1,7,2": 1, "2,4,3,1,7,2": 1}
    built.clear()
    run_rates(RunConfig(mode="rates", grid=grid))
    assert built == {"2,3,2,1,5,1": 1, "2,4,3,1,7,2": 1}


def test_run_leakage_explicit_query():
    config = RunConfig(
        mode="leakage",
        params=EXAMPLE,
        pattern="nu=1:1,2,3;2:1,2,4",
        uset=(),
        tset=(3,),
    )
    doc = run_leakage(config)
    assert doc["queries"] == 2
    helpers_rec = doc["records"][0]
    assert helpers_rec["kind"] == "helpers"
    assert helpers_rec["value"] == {"value": "0", "decimal": 0.0}
    assert helpers_rec["ranks"] == [4, 10, 14, 0]
    assert doc["pass"] is True


def test_run_leakage_exploratory_oversized_tset():
    config = RunConfig(
        mode="leakage",
        params=EXAMPLE,
        pattern="nu=1:1,2,3;2:1,2,4",
        uset=(),
        tset=(3, 4),
    )
    doc = run_leakage(config)
    assert all(rec["exploratory"] for rec in doc["records"])
    assert any(rec["value"]["value"] != "0" for rec in doc["records"])
    assert doc["pass"] is True  # exploratory values are reported, not judged


def test_run_leakage_exhaustive_small():
    doc = run_leakage(RunConfig(mode="leakage", params=SMALL))
    assert doc["queries"] == 16 * 4 * 4 * 2
    assert doc["pass"] is True


def test_leakage_budget():
    # 25 patterns x 4 user subsets x 5 helper subsets x 2 queries = 1,000
    with pytest.raises(BudgetExceeded):
        run_leakage(RunConfig(mode="leakage", params=EXAMPLE, budget=10))
    # an explicit pattern, user set and helper set are one of each: two
    # queries, plus the unit round's 1,606 transcript entries, 7 items
    one = RunConfig(
        mode="leakage", params=EXAMPLE, pattern="nu=1:1,2,3;2:1,2,4",
        uset=(), tset=(3,), budget=9,
    )
    assert run_leakage(one)["queries"] == 2
    one.budget = 8
    with pytest.raises(BudgetExceeded, match="at least 9, beyond budget 8"):
        run_leakage(one)


@pytest.mark.parametrize(
    "run, options",
    [
        (run_leakage, {"params": SMALL, "drop_prob": 0.3}),
        (run_rates, {"pattern": EXAMPLE_LITERAL}),
        (run_rates, {"drop_prob": 0.3}),
        (run_verify, {"grid": (SMALL,), "pattern": "nu=1:1,2;2:1,2 hm=1,2"}),
        (run_verify, {"grid": (SMALL,), "drop_prob": 0.3}),
        (run_single_round, {"params": EXAMPLE, "grid": (SMALL,)}),
        (run_single_round, {"params": EXAMPLE, "uset": (1,)}),
        (run_leakage, {"params": SMALL, "draws": 1}),
        (run_leakage, {"params": SMALL, "seed": "5"}),
    ],
    ids=["leakage-drop-prob", "rates-pattern", "rates-drop-prob", "verify-pattern",
         "verify-drop-prob", "round-grid", "round-uset", "leakage-draws", "leakage-seed"],
)
def test_unused_pattern_options_raise(run, options):
    """A mode that would ignore a pattern option refuses it instead."""
    with pytest.raises(ConfigError, match="does not use"):
        run(RunConfig(mode="any", **options))


@pytest.mark.parametrize("run", [run_verify, run_rates], ids=["verify", "rates"])
def test_params_and_grid_are_exclusive(run):
    """A campaign given both a point and a grid refuses them, rather
    than run the grid and drop the point."""
    with pytest.raises(ConfigError, match="give either params or grid, not both"):
        run(RunConfig(mode="any", params=SMALL, grid=(EXAMPLE,)))


# SHA-256 of six reports, each with every unnamed field at its RunConfig
# default, so that a change to a report's bytes shows up across commits
# and not only between two runs in one process; the CLI writes the same
# bytes.
PINNED_REPORTS = {
    "verify": (
        lambda: render_json(
            run_verify(RunConfig(mode="verify", grid=(SMALL, EXAMPLE), draws=2)).to_json()
        ),
        ["verify", "--grid", "2,3,2,1,5,1;2,4,3,1,7,2", "--draws", "2"],
        "fd80bb8d22171c50f625718347adb535b057f6e4a725f7fca9c2adbd74fb9022",
    ),
    "verify-default": (
        lambda: render_json(run_verify(RunConfig(mode="verify")).to_json()),
        ["verify"],
        "888cc5ee5d454155c666e0bd523e5dd9daaae30f8eea3b0c7ae579edc41e2fc4",
    ),
    "verify-stretch": (  # 625 patterns on one point's unit round
        lambda: render_json(
            run_verify(RunConfig(mode="verify", grid=(SchemeParams(4, 4, 3, 1, 7, 2),))).to_json()
        ),
        ["verify", "--grid", "4,4,3,1,7,2"],
        "9461be157f584903f8361dcbe049c0fe7d7dfaf2e1080808e6fd72b1298e8017",
    ),
    "leakage": (
        lambda: render_leakage_csv(run_leakage(RunConfig(mode="leakage", params=EXAMPLE))),
        ["leakage", "--params", "2,4,3,1,7,2", "--format", "csv"],
        "11246e0f18aec5618812a57a770e675a441437fd0fbd7eb96f56ab308bbc0912",
    ),
    "rates": (
        lambda: render_rates_csv(run_rates(RunConfig(mode="rates"))),
        ["rates", "--format", "csv"],
        "1a21f510c6fd6cc02f17285c29ef30458dc058ec1840a8f3c7492469315d2558",
    ),
    "round": (
        lambda: render_json(
            run_single_round(
                RunConfig(mode="round", params=EXAMPLE, drop_prob=0.3, seed="5")
            )[1]
        ),
        ["round", "--params", "2,4,3,1,7,2", "--drop-prob", "0.3", "--seed", "5"],
        "4e8490ac6ff897f78f3d09bb1212d9be85791516cb769a6c63267d844f2bb710",
    ),
}


def test_report_bytes_pinned(tmp_path):
    for name, (render, argv, digest) in PINNED_REPORTS.items():
        report = render()
        assert hashlib.sha256(report).hexdigest() == digest, name
        out = tmp_path / name
        assert main([*argv, "--out", str(out)]) == 0
        assert out.read_bytes() == report, name


# SHA-256 of the CLI's verify report at each stretch point, past the
# default grid, where most of a speed-up shows.  Together they take about
# 10 s of CPU, so they run only on request: pytest -m stretch
STRETCH_REPORTS = {
    "2,5,4,2,11,2 --draws 3": "502ffe6a6d4f93a1d483010c537437a6d67edab2a0fcf76214f8a626033c031d",
    "4,4,3,1,7,2": "9461be157f584903f8361dcbe049c0fe7d7dfaf2e1080808e6fd72b1298e8017",
    "2,6,4,2,11,2": "1ee310dea070724957635c36d6d04529504f59067c17e22beb9391db06a0b639",
    "4,5,4,2,11,2": "cd26b4106bd38f3c653bb00d0831daa373b4c22ea8a22a98517c75eea29f2a7a",
    "5,4,3,1,7,2 --budget 3000000":
        "1767668e81d51b5e3b5205d4ae469f13ef928be1f7648c0c9c69e3a7f345baf0",
}


@pytest.mark.stretch
@pytest.mark.parametrize("grid", STRETCH_REPORTS)
def test_stretch_report_bytes_pinned(grid, tmp_path):
    out = tmp_path / "report.json"
    assert main(["verify", "--grid", *grid.split(), "--out", str(out)]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == STRETCH_REPORTS[grid]


def test_render_csv_outputs():
    rows = run_rates(RunConfig(mode="rates", grid=(EXAMPLE,)))
    csv_bytes = render_rates_csv(rows)
    lines = csv_bytes.decode().splitlines()
    assert lines[0] == "params,feasible,rate_x,rate_y,bound,equal"
    assert lines[1] == '"2,4,3,1,7,2",True,1/2,1/2,1/2,True'

    doc = run_leakage(
        RunConfig(
            mode="leakage", params=EXAMPLE, pattern="nu=1:1,2,3;2:1,2,4",
            uset=(), tset=(3,),
        )
    )
    leak_lines = render_leakage_csv(doc).decode().splitlines()
    assert leak_lines[0].startswith("kind,pattern,")
    assert len(leak_lines) == 3

    report = run_verify(RunConfig(mode="verify", grid=(SMALL,), draws=1))
    verify_lines = render_verify_csv(report).decode().splitlines()
    assert verify_lines[0].startswith("params,feasible,")
    assert len(verify_lines) == 2

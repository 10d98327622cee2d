import hashlib
import json
import os
import random
import subprocess
import sys
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
from hsagg.harness import _draw_inputs
from hsagg import harness, leakage as lk, protocol
from hsagg.matrix import GfMatrix, RowSpace
from hsagg.patterns import enumerate_patterns, enumerate_survivors, format_pattern
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


def test_stacked_decode_catches_one_corrupted_survivor_slice(monkeypatch):
    run_round = protocol.run_round

    def corrupt_last_column(*args, **kwargs):
        t = run_round(*args, **kwargs)
        q = t.params.modulus
        t.responses = tuple(
            HelperResponse(r.helper, r.payload[:-1] + ((r.payload[-1] + 1) % q,))
            for r in t.responses
        )
        return t

    monkeypatch.setattr(protocol, "run_round", corrupt_last_column)
    report = verify_point(EXAMPLE, RunConfig(mode="verify", draws=2))
    # the last column is the last draw of the last survivor set
    last = [
        p.with_survivors(list(enumerate_survivors(p, EXAMPLE))[-1])
        for p in enumerate_patterns(EXAMPLE)
    ]
    assert _decode_failures(report) == [
        f"decode mismatch at pattern {format_pattern(p)}" for p in last
    ]


def test_stacked_decode_reads_each_survivor_sets_responses(monkeypatch):
    run_round = protocol.run_round

    def corrupt_helper_1(*args, **kwargs):
        t = run_round(*args, **kwargs)
        q = t.params.modulus
        t.responses = tuple(
            HelperResponse(r.helper, tuple((v + (r.helper == 1)) % q for v in r.payload))
            for r in t.responses
        )
        return t

    monkeypatch.setattr(protocol, "run_round", corrupt_helper_1)
    report = verify_point(EXAMPLE, RunConfig(mode="verify", draws=2))
    # the master decodes from the Nr lowest-numbered survivors
    assert _decode_failures(report) == [
        f"decode mismatch at pattern {format_pattern(p.with_survivors(s))}"
        for p in enumerate_patterns(EXAMPLE)
        for s in enumerate_survivors(p, EXAMPLE)
        for _ in range(2)
        if 1 in sorted(s)[:EXAMPLE.resiliency]
    ]


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
    assert Counter(" ".join(f.split()[:2]) for f in report.failures) == {
        "decode mismatch": 160,
        "helpers leakage": 76,
        "master leakage": 36,
        "sharing leakage": 36,
    }


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
    assert estimate_work(big, 20) > 1_000_000
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


@pytest.mark.parametrize(
    "params", DEFAULT_GRID + (SchemeParams(5, 3, 2, 1, 5, 1),), ids=SchemeParams.label
)
def test_estimate_covers_every_counted_check(params):
    """With one draw the decode cases no longer pad the estimate, so it
    holds only if it counts the no-straggler suites too.  Every user
    subset is checked, at every K."""
    report = verify_point(params, RunConfig(mode="verify", draws=1))
    counted = report.decode_cases + report.security_queries + report.invariant_checks
    assert estimate_work(params, 1) >= counted
    n_tsets = sum(comb(params.num_helpers, s) for s in range(params.collusion + 1))
    assert report.security_queries == report.patterns * 2**params.num_users * n_tsets * 2


# RowSpace (insert, clone) calls and _split_quadruple eliminations of
# each point's one-draw campaign; the same under any PYTHONHASHSEED
RANK_WORK = {
    "2,3,2,1,5,1": (232, 8, 24),
    "2,4,3,1,7,2": (504, 10, 30),
    "3,4,3,2,11,1": (1484, 15, 110),
    "2,5,4,2,11,2": (2122, 12, 96),
}


@pytest.mark.parametrize("params", DEFAULT_GRID, ids=SchemeParams.label)
def test_rank_work_does_not_grow(params, monkeypatch):
    """A memo change that loses reuse shows as more row reductions or
    more quadruple eliminations.  The correct scheme's views are direct
    sums over users, so the store assembles every one of them and
    reduces none whole."""
    calls = {"insert": 0, "clone": 0, "split": 0}
    for name in ("insert", "clone"):
        method = getattr(RowSpace, name)

        def counted(self, *args, _name=name, _method=method):
            calls[_name] += 1
            return _method(self, *args)

        monkeypatch.setattr(RowSpace, name, counted)
    split_quadruple, rank_store, stores = lk._split_quadruple, lk._rank_store, []

    def counted_split(*args):
        calls["split"] += 1
        return split_quadruple(*args)

    def kept_store(ctx):
        stores.append(rank_store(ctx))
        return stores[-1]

    monkeypatch.setattr(lk, "_split_quadruple", counted_split)
    monkeypatch.setattr(lk, "_rank_store", kept_store)
    verify_point(params, RunConfig(mode="verify", draws=1))
    inserts, clones, splits = RANK_WORK[params.label()]
    assert (
        calls["insert"] <= inserts and calls["clone"] <= clones and calls["split"] <= splits
    ), calls
    assert len({id(store) for store in stores}) == 1
    n_tsets = sum(1 for _ in enumerate_patterns(params)) * sum(
        comb(params.num_helpers, size) for size in range(params.collusion + 1)
    )
    assert stores[0].views == {"assembled": n_tsets, "whole": 0}


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


class _CountingRandom(random.Random):
    """A generator that counts its ``getrandbits`` calls wider than any
    q < 2^64: the bulk draw's chunks."""

    def __init__(self, seed):
        super().__init__(seed)
        self.wide_calls = 0

    def getrandbits(self, k):
        self.wide_calls += k > 64
        return super().getrandbits(k)


def _stacked_symbols(params, cases, grads, noises):
    """Every drawn symbol, after checking the stacked shape: user k's
    gradient has ``block_count`` parts and its randomness ``collusion``
    parts, each of ``cases * block_len`` ints in [0, q)."""
    width = cases * params.block_len
    symbols = []
    for inputs, count in ((grads, params.block_count), (noises, params.collusion)):
        assert [x.owner for x in inputs] == list(range(1, params.num_users + 1))
        for x in inputs:
            assert len(x.parts) == count and all(len(part) == width for part in x.parts)
            symbols += [v for part in x.parts for v in part]
    assert all(type(v) is int and 0 <= v < params.modulus for v in symbols)
    return symbols


@pytest.mark.parametrize("q", [2, 3, 11, 2**31 - 1, 2**61 - 1, 2**64 - 59])
def test_bulk_draw_gives_field_symbols_in_the_stacked_layout(q):
    """One draw path for every q < 2^64: symbols in [0, q) in the
    stacked shape, fixed by the seed.  Every residue of a small field
    occurs, and a wide field's upper half is reached, so no bit of the
    kept top bits is lost."""
    params = SchemeParams(2, 5, 4, 2, q, 4)  # two gradient parts, two randomness parts

    def draw(seed):
        return _draw_inputs(params, random.Random(seed), 20)

    first = draw("a")
    symbols = _stacked_symbols(params, 20, *first)
    assert draw("a") == first and draw("b") != first
    if q < 100:
        assert set(symbols) == set(range(q))
    else:
        assert max(symbols) >= q // 2


def test_bulk_draw_takes_further_chunks_when_one_falls_short():
    """At q = 2 half the words are rejected, so some seeds need a second
    chunk; the inputs keep their stacked shape."""
    params = replace(SMALL, modulus=2)
    longest = 0
    for seed in range(60):
        rng = _CountingRandom(seed)
        _stacked_symbols(params, 250, *_draw_inputs(params, rng, 250))
        longest = max(longest, rng.wide_calls)
    assert longest >= 2


# SHA-256 of two consecutive ``_draw_inputs`` calls (20 cases, then 3)
# from ``random.Random("draw-pin")``, then the generator's next 64 bits:
# the stacked decode's inputs, and the state the draws leave
DRAWN_INPUTS = {
    "2,4,3,1,7,2": "dbf82bd657bca53e851b8f232264977ed433a73d1d4ad88879384e78df88d63b",
    "3,4,3,2,11,1": "ef315525624308d5fb667ab429bd855bd43ecde0cba9ac75032828f80e15ed08",
}


@pytest.mark.parametrize("label", sorted(DRAWN_INPUTS))
def test_drawn_decode_inputs_are_pinned(label):
    """A verify report holds counts, not inputs, so the pinned report
    digests cannot show a change in the draw; these digests do.  The
    second call and the generator's next bits show a state left
    otherwise by the first."""
    params = SchemeParams.from_csv(label)
    rng = random.Random("draw-pin")
    drawn = [_draw_inputs(params, rng, cases) for cases in (20, 3)]
    text = repr([[(x.owner, x.parts) for x in grads + noises] for grads, noises in drawn])
    text += repr(rng.getrandbits(64))
    assert hashlib.sha256(text.encode()).hexdigest() == DRAWN_INPUTS[label]


def test_verify_report_does_not_depend_on_the_draws():
    """A verify report holds counts, not inputs: two seeds, whose decode
    draws differ, render the same bytes."""
    a, b = (
        render_json(run_verify(RunConfig(mode="verify", grid=(SMALL,), draws=2, seed=s)).to_json())
        for s in "ab"
    )
    assert a == b


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
    # an explicit pattern, user set and helper set are one of each: two queries
    one = RunConfig(
        mode="leakage", params=EXAMPLE, pattern="nu=1:1,2,3;2:1,2,4",
        uset=(), tset=(3,), budget=2,
    )
    assert run_leakage(one)["queries"] == 2
    one.budget = 1
    with pytest.raises(BudgetExceeded):
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


# SHA-256 of four reports, each with every unnamed field at its RunConfig
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

import hashlib
import json
from fractions import Fraction

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
)
from hsagg.protocol import SchemeParams

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
    ],
    ids=["leakage-drop-prob", "rates-pattern", "rates-drop-prob", "verify-pattern",
         "verify-drop-prob"],
)
def test_unused_pattern_options_raise(run, options):
    """A mode that would ignore a pattern option refuses it instead."""
    with pytest.raises(ConfigError, match="does not use"):
        run(RunConfig(mode="any", **options))


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

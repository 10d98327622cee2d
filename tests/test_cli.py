import contextlib
import io
import json
import os
import pathlib
import subprocess
import sys

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from hsagg import harness
from hsagg.cli import main

EXAMPLE_ARGS = ["--params", "2,4,3,1,7,2"]
PATTERN = "nu=1:1,2,3;2:1,2,4 hm=2,3,4"


def test_round_success(tmp_path, capsys):
    out = tmp_path / "round.json"
    code = main(
        ["round", *EXAMPLE_ARGS, "--pattern", PATTERN, "--seed", "3", "--out", str(out)]
    )
    assert code == 0
    doc = json.loads(out.read_text())
    assert doc["result"]["match"] is True
    assert doc["pattern"]["hm"] == [2, 3, 4]


def test_round_stdout(capsys):
    code = main(["round", *EXAMPLE_ARGS, "--pattern", PATTERN])
    captured = capsys.readouterr()
    assert code == 0
    assert json.loads(captured.out)["result"]["match"] is True


def test_round_infeasible_params(capsys):
    code = main(["round", "--params", "2,4,2,2,7,2", "--pattern", PATTERN])
    assert code == 2
    assert "contradict" in capsys.readouterr().err


def test_round_bad_params_text(capsys):
    assert main(["round", "--params", "2,4,3", "--pattern", PATTERN]) == 2
    assert main(["round", "--params", "2,4,3,1,8,2", "--pattern", PATTERN]) == 2
    assert main(["round", *EXAMPLE_ARGS, "--pattern", "nu=zzz"]) == 2
    assert main(["round", "--pattern", PATTERN]) == 2  # params are required


def test_round_default_pattern_is_full(capsys):
    # no --pattern and no --drop-prob: every link up, all helpers survive
    code = main(["round", *EXAMPLE_ARGS, "--seed", "4"])
    doc = json.loads(capsys.readouterr().out)
    assert code == 0
    assert doc["pattern"]["nu"] == {"1": [1, 2, 3, 4], "2": [1, 2, 3, 4]}
    assert doc["messages"] == []


def test_verify_small_grid(tmp_path, capsys):
    out = tmp_path / "verify.json"
    code = main(
        ["verify", "--grid", "2,3,2,1,5,1", "--draws", "2", "--out", str(out)]
    )
    assert code == 0
    doc = json.loads(out.read_text())
    assert doc["pass"] is True
    assert doc["grid"][0]["patterns"] == 16


def test_verify_budget_exceeded(capsys):
    code = main(
        ["verify", "--grid", "2,8,5,1,17,4", "--budget", "1000"]
    )
    assert code == 3
    assert "budget" in capsys.readouterr().err


def test_verify_estimate_counts_the_gradient_length(capsys, monkeypatch):
    """A decode case counts one item per payload symbol, so a long
    gradient at a small point exceeds the default budget before any
    round runs."""
    monkeypatch.setattr(harness, "verify_point", lambda *args: pytest.fail("a point ran"))
    assert main(["verify", "--params", "2,4,3,1,7,2000"]) == 3
    err = capsys.readouterr().err
    assert "2,4,3,1,7,2000" in err and "2501188" in err


def test_verify_estimate_counts_the_infeasibility_witness(capsys, monkeypatch):
    """The witness of a large infeasible point exceeds the default
    budget, so the run exits 3 before the witness is built."""
    monkeypatch.setattr(
        harness.lk, "infeasibility_witness", lambda *args: pytest.fail("a witness ran")
    )
    assert main(["verify", "--grid", "40,50,3,5,53,1"]) == 3
    assert "40,50,3,5,53,1" in capsys.readouterr().err


def test_leakage_budget_exceeded(capsys):
    # 16,777,216 patterns: the query count is compared before any is listed
    code = main(["leakage", "--params", "6,5,3,1,11,2", "--budget", "10"])
    assert code == 3
    assert "budget" in capsys.readouterr().err


def test_verify_deterministic_reports(tmp_path):
    out1, out2 = tmp_path / "a.json", tmp_path / "b.json"
    args = ["verify", "--grid", "2,3,2,1,5,1", "--draws", "2", "--seed", "s",
            "--dealer-seed", "d"]
    assert main([*args, "--out", str(out1)]) == 0
    assert main([*args, "--out", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()


def test_rates_csv(capsys):
    code = main(["rates", "--grid", "2,4,3,1,7,2;2,4,2,2,7,2", "--format", "csv"])
    captured = capsys.readouterr()
    assert code == 0
    lines = captured.out.splitlines()
    assert lines[1] == '"2,4,3,1,7,2",True,1/2,1/2,1/2,True'
    assert lines[2].startswith('"2,4,2,2,7,2",False')


def test_leakage_single_query(capsys):
    code = main(
        ["leakage", *EXAMPLE_ARGS, "--pattern", "nu=1:1,2,3;2:1,2,4",
         "--uset", "", "--tset", "3"]
    )
    captured = capsys.readouterr()
    assert code == 0
    doc = json.loads(captured.out)
    assert doc["records"][0]["ranks"] == [4, 10, 14, 0]
    assert doc["records"][0]["value"]["value"] == "0"


def test_leakage_csv_format(capsys):
    code = main(
        ["leakage", *EXAMPLE_ARGS, "--pattern", "nu=1:1,2,3;2:1,2,4",
         "--uset", "1", "--tset", "3", "--format", "csv"]
    )
    captured = capsys.readouterr()
    assert code == 0
    assert captured.out.splitlines()[0].startswith("kind,pattern")


def test_config_file_with_flag_override(tmp_path, capsys):
    cfg = tmp_path / "round.cfg"
    cfg.write_text(
        f"params=2,4,3,1,7,2\npattern={PATTERN}\nseed=7\nformat=json\n"
    )
    out = tmp_path / "out.json"
    code = main(["round", "--config", str(cfg), "--out", str(out)])
    assert code == 0
    assert json.loads(out.read_text())["result"]["match"] is True

    # flag overrides the file's seed: transcripts must differ
    out2 = tmp_path / "out2.json"
    code = main(["round", "--config", str(cfg), "--seed", "8", "--out", str(out2)])
    assert code == 0
    assert out.read_bytes() != out2.read_bytes()


def test_unknown_format_rejected(capsys):
    cfg_code = main(["round", *EXAMPLE_ARGS, "--pattern", PATTERN, "--format", "json"])
    assert cfg_code == 0
    import pytest

    with pytest.raises(SystemExit):
        main(["round", *EXAMPLE_ARGS, "--format", "xml"])


def test_missing_config_file(capsys):
    assert main(["round", "--config", "/nonexistent/file.cfg"]) == 2


BAD_INPUTS = {
    "uset-outside-users": ["leakage", *EXAMPLE_ARGS, "--pattern", "nu=1:1,2,3;2:1,2,4",
                           "--uset", "9"],
    "tset-outside-helpers": ["leakage", *EXAMPLE_ARGS, "--pattern", "nu=1:1,2,3;2:1,2,4",
                             "--tset", "9"],
    "zero-draws": ["verify", "--grid", "2,3,2,1,5,1", "--draws", "0"],
    "gradient-not-a-list": ["round", *EXAMPLE_ARGS, "--gradients", "NOT_A_LIST"],
    "duplicate-ids": ["leakage", *EXAMPLE_ARGS, "--pattern", "nu=1:1,2,3;2:1,2,4",
                      "--uset", "1,1", "--tset", "1,1"],
    "boolean-symbols": ["round", *EXAMPLE_ARGS, "--gradients", "BOOLEANS"],
    "repeated-receiver": ["round", *EXAMPLE_ARGS, "--pattern", "nu=1:1,1,2,3;2:1,2,4 hm=2,3,4"],
    "repeated-survivor": ["round", *EXAMPLE_ARGS, "--pattern", "nu=1:1,2,3;2:1,2,4 hm=2,2,3,4"],
    "leakage-drop-prob": ["leakage", "--params", "2,3,2,1,5,1", "--drop-prob", "0.3"],
    "rates-pattern": ["rates", *EXAMPLE_ARGS, "--pattern", "nu=1:1,2,3;2:1,2,4 hm=2,3,4"],
    "rates-drop-prob": ["rates", *EXAMPLE_ARGS, "--drop-prob", "0.3"],
    "verify-pattern": ["verify", "--grid", "2,3,2,1,5,1", "--pattern", "nu=1:1,2;2:1,2 hm=1,2"],
    "verify-drop-prob": ["verify", "--grid", "2,3,2,1,5,1", "--drop-prob", "0.3"],
    "round-format-csv": ["round", *EXAMPLE_ARGS, "--format", "csv"],
    "round-format-csv-in-config": ["round", *EXAMPLE_ARGS, "--config", "CSV_CONFIG"],
    "leakage-seed": ["leakage", "--params", "2,3,2,1,5,1", "--seed", "5"],
    "leakage-dealer-seed": ["leakage", "--params", "2,3,2,1,5,1", "--dealer-seed", "5"],
    "leakage-seed-in-config": ["leakage", "--params", "2,3,2,1,5,1", "--config", "SEED_CONFIG"],
    "leakage-dealer-seed-in-config": ["leakage", "--params", "2,3,2,1,5,1",
                                      "--config", "DEALER_SEED_CONFIG"],
    "verify-gradient-file": ["verify", "--grid", "2,3,2,1,5,1", "--draws", "1",
                             "--config", "GRADIENTS_CONFIG"],
    "rates-gradient-file": ["rates", *EXAMPLE_ARGS, "--config", "GRADIENTS_CONFIG"],
    "leakage-gradient-file": ["leakage", "--params", "2,3,2,1,5,1",
                              "--config", "GRADIENTS_CONFIG"],
    "unknown-config-key": ["round", *EXAMPLE_ARGS, "--config", "TYPO_CONFIG"],
    "round-uset-in-config": ["round", *EXAMPLE_ARGS, "--config", "USET_CONFIG"],
    "verify-uset-in-config": ["verify", "--grid", "2,3,2,1,5,1", "--draws", "1",
                              "--config", "USET_CONFIG"],
    "rates-tset-in-config": ["rates", *EXAMPLE_ARGS, "--config", "TSET_CONFIG"],
    "round-grid-in-config": ["round", *EXAMPLE_ARGS, "--config", "GRID_CONFIG"],
    "leakage-grid-in-config": ["leakage", "--params", "2,3,2,1,5,1", "--config", "GRID_CONFIG"],
    "rates-draws-in-config": ["rates", *EXAMPLE_ARGS, "--config", "DRAWS_CONFIG"],
    "leakage-draws-in-config": ["leakage", "--params", "2,3,2,1,5,1",
                                "--config", "DRAWS_CONFIG"],
    "verify-empty-grid": ["verify", "--grid", ""],
    "verify-semicolon-grid": ["verify", "--grid", ";"],
    "rates-blank-grid": ["rates", "--grid", " ; "],
    "verify-empty-grid-in-config": ["verify", "--config", "EMPTY_GRID_CONFIG"],
    "verify-semicolon-grid-in-config": ["verify", "--config", "SEMICOLON_GRID_CONFIG"],
    "verify-empty-params": ["verify", "--params", ""],
    "verify-negative-budget": ["verify", "--grid", "2,3,2,1,5,1", "--budget", "-5"],
    "leakage-negative-budget": ["leakage", "--params", "2,3,2,1,5,1", "--budget", "-1"],
    "verify-negative-budget-in-config": ["verify", "--grid", "2,3,2,1,5,1",
                                         "--config", "NEGATIVE_BUDGET_CONFIG"],
    "leakage-negative-budget-in-config": ["leakage", "--params", "2,3,2,1,5,1",
                                          "--config", "NEGATIVE_BUDGET_CONFIG"],
    "verify-bad-second-point": ["verify", "--grid", "3,4,3,2,11,1;2,3,2,1,6,1"],
    "verify-composite-q-beyond-budget": ["verify", "--grid", "6,6,4,1,4,1"],
    "verify-witness-field-too-small": ["verify", "--grid", "2,5,3,3,5,1"],
    "rates-bad-second-point": ["rates", "--grid", "2,3,2,1,5,1;2,3,2,1,6,1"],
    "gradient-unknown-keys": ["round", *EXAMPLE_ARGS, "--gradients", "UNKNOWN_KEYS"],
    "repeated-config-key": ["round", "--config", "REPEATED_KEY_CONFIG"],
    "verify-params-and-grid": ["verify", "--params", "2,3,2,1,5,1", "--grid", "2,4,3,1,7,2",
                               "--draws", "1"],
    "rates-params-and-grid-in-config": ["rates", "--config", "PARAMS_AND_GRID_CONFIG"],
    "verify-uset-flag": ["verify", "--grid", "2,3,2,1,5,1", "--uset", "1"],
    "leakage-malformed-uset": ["leakage", "--params", "2,3,2,1,5,1", "--uset", "1,,2"],
    "verify-malformed-budget-in-config": ["verify", "--grid", "2,3,2,1,5,1",
                                          "--config", "BAD_BUDGET_CONFIG"],
}

GRADIENT_FILES = {
    "NOT_A_LIST": {"1": 5, "2": [1, 2]},
    "BOOLEANS": {"1": [True, False], "2": [1, 2]},
    "UNKNOWN_KEYS": {"1": [1, 2], "2": [3, 4], "3": [5, 6], "x": [1]},
}

CONFIG_FILES = {
    "CSV_CONFIG": "format = csv\n",
    "SEED_CONFIG": "seed = 5\n",
    "DEALER_SEED_CONFIG": "dealer_seed = 5\n",
    "GRADIENTS_CONFIG": "gradient_file = missing.json\n",
    "TYPO_CONFIG": "sede = 5\n",
    "USET_CONFIG": "uset = 1\n",
    "TSET_CONFIG": "tset = 1\n",
    "GRID_CONFIG": "grid = 2,3,2,1,5,1\n",
    "DRAWS_CONFIG": "draws = 1\n",
    "EMPTY_GRID_CONFIG": "grid =\n",
    "SEMICOLON_GRID_CONFIG": "grid = ;\n",
    "NEGATIVE_BUDGET_CONFIG": "budget = -5\n",
    "REPEATED_KEY_CONFIG": "params = 2,4,3,1,7,2\nseed = 1\nparams = 2,3,2,1,5,1\n",
    "PARAMS_AND_GRID_CONFIG": "params = 2,3,2,1,5,1\ngrid = 2,4,3,1,7,2\n",
    "PARAMS_CONFIG": "params = 2,4,3,1,7,2\n",
    "BAD_BUDGET_CONFIG": "budget = many\n",
}


def _with_files(argv, tmp_path):
    """``argv`` with each gradient or config file name replaced by the
    path of that file, written under ``tmp_path``."""
    files = {name: json.dumps(table) for name, table in GRADIENT_FILES.items()}
    files.update(CONFIG_FILES)
    for name, text in files.items():
        (tmp_path / name).write_text(text)
    return [str(tmp_path / a) if a in files else a for a in argv]


@pytest.mark.parametrize("argv", BAD_INPUTS.values(), ids=BAD_INPUTS.keys())
def test_bad_input_exits_2_without_traceback(argv, tmp_path, capsys):
    assert main(_with_files(argv, tmp_path)) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ")
    assert "Traceback" not in err


@pytest.mark.parametrize(
    "argv, message",
    [
        (BAD_INPUTS["round-format-csv"], "round does not use format csv"),
        (BAD_INPUTS["leakage-seed-in-config"], "leakage does not use seed"),
        (["leakage", "--params", "2,3,2,1,5,1", "--seed", "5", "--dealer-seed", "5"],
         "leakage does not use seed or dealer_seed"),
        (BAD_INPUTS["rates-gradient-file"], "rates does not use gradient_file"),
        (BAD_INPUTS["unknown-config-key"], "unknown config key sede"),
        (BAD_INPUTS["verify-uset-in-config"], "verify does not use uset"),
        (BAD_INPUTS["round-grid-in-config"], "round does not use grid"),
        (BAD_INPUTS["rates-draws-in-config"], "rates does not use draws"),
        (BAD_INPUTS["verify-semicolon-grid-in-config"], "grid ';' names no point"),
        (BAD_INPUTS["rates-blank-grid"], "grid ' ; ' names no point"),
        (BAD_INPUTS["verify-negative-budget"], "budget must be at least 0, got -5"),
        (BAD_INPUTS["leakage-negative-budget-in-config"], "budget must be at least 0, got -5"),
        (BAD_INPUTS["verify-bad-second-point"],
         "grid point 2,3,2,1,6,1: modulus must be prime, got 6"),
        (BAD_INPUTS["verify-composite-q-beyond-budget"],
         "grid point 6,6,4,1,4,1: modulus must be prime, got 4"),
        (BAD_INPUTS["verify-witness-field-too-small"],
         "grid point 2,5,3,3,5,1: need 7 distinct nonzero points, GF(5) has 4"),
        (BAD_INPUTS["rates-bad-second-point"],
         "grid point 2,3,2,1,6,1: modulus must be prime, got 6"),
        (BAD_INPUTS["gradient-unknown-keys"], "gradient file keys 3, x name no user in 1..2"),
        (BAD_INPUTS["repeated-config-key"], "REPEATED_KEY_CONFIG:3: key params repeats line 1"),
        (BAD_INPUTS["verify-params-and-grid"], "give either params or grid, not both"),
        (BAD_INPUTS["rates-params-and-grid-in-config"], "give either params or grid, not both"),
        (BAD_INPUTS["verify-uset-flag"], "error: verify does not use uset"),
        (["round", "--params", "2,3,2,1,5,1", "--draws", "1"], "error: round does not use draws"),
        (["rates", "--gradients", "g.json"], "error: rates does not use gradient_file"),
        (["leakage", "--grid", "2,3,2,1,5,1"], "error: leakage does not use grid"),
        (BAD_INPUTS["leakage-malformed-uset"],
         "error: uset: invalid literal for int() with base 10: ''"),
        (BAD_INPUTS["verify-malformed-budget-in-config"],
         "error: budget: invalid literal for int() with base 10: 'many'"),
    ],
    ids=["format", "seed", "both-seeds", "gradient-file", "unknown-key", "uset-key",
         "grid-key", "draws-key", "empty-grid-in-config", "blank-grid", "negative-budget",
         "negative-budget-in-config", "bad-second-point", "composite-q-beyond-budget",
         "witness-field-too-small", "rates-bad-second-point", "gradient-unknown-keys",
         "repeated-config-key", "params-and-grid-flags", "params-and-grid-keys", "uset-flag",
         "draws-flag", "gradients-flag", "grid-flag", "malformed-flag", "malformed-key"],
)
def test_refusals_name_what_is_refused(argv, message, tmp_path, capsys):
    assert main(_with_files(argv, tmp_path)) == 2
    assert message in capsys.readouterr().err


def test_a_flag_displaces_the_files_other_exclusive_option(tmp_path, capsys):
    """A config file's ``params`` gives way to a ``--grid`` flag, and
    its ``grid`` to a ``--params`` flag."""
    argv = _with_files(["rates", "--config", "PARAMS_AND_GRID_CONFIG"], tmp_path)
    assert main([*argv, "--grid", "2,5,4,2,11,2"]) == 0
    assert [row["params"] for row in json.loads(capsys.readouterr().out)["rates"]] == [
        "2,5,4,2,11,2"
    ]
    assert main([*argv, "--params", "2,5,4,2,11,2"]) == 0
    assert json.loads(capsys.readouterr().out)["rates"][0]["params"] == "2,5,4,2,11,2"
    argv = _with_files(["rates", "--config", "PARAMS_CONFIG", "--grid", "2,3,2,1,5,1"], tmp_path)
    assert main(argv) == 0
    assert json.loads(capsys.readouterr().out)["rates"][0]["params"] == "2,3,2,1,5,1"


def test_module_entry_point_runs_the_cli(tmp_path):
    """``python -m hsagg`` from a checkout: same report, same exit codes."""
    src = pathlib.Path(__file__).resolve().parent.parent / "src"
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(src)] + ([os.environ["PYTHONPATH"]] if os.environ.get("PYTHONPATH") else [])
    ))

    def run(*argv):
        return subprocess.run(
            [sys.executable, "-m", "hsagg", *argv], env=env, cwd=tmp_path,
            capture_output=True, text=True,
        )

    args = ["verify", "--grid", "2,3,2,1,5,1", "--draws", "1", "--out"]
    done = run(*args, str(tmp_path / "module.json"))
    assert done.returncode == 0, done.stderr
    assert main([*args, str(tmp_path / "main.json")]) == 0
    assert (tmp_path / "module.json").read_bytes() == (tmp_path / "main.json").read_bytes()
    bad = run("verify", "--grid", "2,3,2,1,5,1", "--draws", "0")
    assert bad.returncode == 2 and bad.stderr.startswith("error: ")
    assert run("verify", "--grid", "2,8,5,1,17,4", "--budget", "1000").returncode == 3


# -- fuzzed argv -----------------------------------------------------------------

FUZZ_FLAGS = {
    "round": ("--params", "--pattern", "--drop-prob", "--seed", "--dealer-seed",
              "--format", "--gradients"),
    "verify": ("--params", "--pattern", "--drop-prob", "--seed", "--dealer-seed",
               "--format", "--grid", "--draws"),
    "rates": ("--params", "--pattern", "--drop-prob", "--format", "--grid"),
    "leakage": ("--params", "--pattern", "--drop-prob", "--seed", "--format",
                "--uset", "--tset"),
}
# a valid start for each subcommand, which the fuzzed flags then add to
# or override; small feasible points only, so that no accepted run is long
FUZZ_BASE = {
    "round": ("--params", "2,3,2,1,5,1"),
    "verify": ("--grid", "2,3,2,1,5,1", "--draws", "1"),
    "rates": ("--grid", "2,3,2,1,5,1"),
    "leakage": ("--params", "2,3,2,1,5,1", "--pattern", "nu=1:1,2;2:1,2"),
}
FUZZ_VALUES = {
    "--params": ("2,3,2,1,5,1", "1,3,2,1,5,1", "2,4,2,2,7,2", "", "2,3", "x"),
    "--grid": ("2,3,2,1,5,1", "2,4,2,2,7,2", "2,3,2,1,5,1;", "", ";", " ; ", "y"),
    "--pattern": ("nu=1:1,2;2:1,2 hm=1,2", "nu=1:1,2;2:2,3", "nu=1:1,9;2:1,2",
                  "nu=zzz", ""),
    "--drop-prob": ("0", "0.3", "1", "-1", "2", "p"),
    "--seed": ("1", "", "s"),
    "--dealer-seed": ("1", "d"),
    "--format": ("json", "csv", "xml"),
    "--draws": ("1", "0", "-1", "n"),
    "--uset": ("1", "1,2", "", "9", "1,1", "u"),
    "--tset": ("1", "1,2", "", "9", "0", "t"),
    "--budget": ("10", "10000", "0", "-1", "b"),
    "--gradients": ("GOOD_GRADIENTS", "NOT_A_LIST", "BOOLEANS", "MISSING"),
}
FUZZ_CONFIGS = {
    "EMPTY_GRID": "grid =\n",
    "SEMICOLON_GRID": "grid = ;\n",
    "PARAMS": "params = 2,3,2,1,5,1\n",
    "BAD_BUDGET": "budget = many\n",
    "DRAWS": "draws = 1\n",
    "USET": "uset = 9\n",
    "TYPO": "sede = 1\n",
    "CSV": "format = csv\n",
    "NO_EQUALS": "params 2,3,2,1,5,1\n",
}


@pytest.fixture(scope="module")
def fuzz_dir(tmp_path_factory):
    root = tmp_path_factory.mktemp("fuzz")
    files = {name: json.dumps(table) for name, table in GRADIENT_FILES.items()}
    files["GOOD_GRADIENTS"] = json.dumps({"1": [1, 2], "2": [3, 4]})
    files.update(FUZZ_CONFIGS)
    for name, text in files.items():
        (root / name).write_text(text)
    return root


@st.composite
def fuzzed_argv(draw):
    """A subcommand, maybe its valid start, a budget of at most 10**4,
    some of its flags with values from a small alphabet, and maybe a
    config file."""
    mode = draw(st.sampled_from(sorted(FUZZ_FLAGS)))
    flags = draw(st.lists(st.sampled_from(FUZZ_FLAGS[mode]), unique=True, max_size=3))
    argv = [mode, *(FUZZ_BASE[mode] if draw(st.booleans()) else ())]
    argv += ["--budget", draw(st.sampled_from(FUZZ_VALUES["--budget"]))]
    for flag in flags:
        argv += [flag, draw(st.sampled_from(FUZZ_VALUES[flag]))]
    config = draw(st.none() | st.sampled_from(sorted(FUZZ_CONFIGS)))
    if config is not None:
        argv += ["--config", config]
    return argv


@settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(argv=fuzzed_argv())
def test_fuzzed_argv_exits_cleanly(fuzz_dir, argv):
    """Any such argv exits 0, 2 or 3, and never with a traceback."""
    named = set(FUZZ_CONFIGS) | set(GRADIENT_FILES) | {"GOOD_GRADIENTS", "MISSING"}
    argv = [str(fuzz_dir / a) if a in named else a for a in argv]
    out, err = io.TextIOWrapper(io.BytesIO()), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse refuses the flag's form
            code = exc.code
    assert code in (0, 2, 3), (argv, err.getvalue())
    assert "Traceback" not in err.getvalue()

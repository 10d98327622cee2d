import json

import pytest

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
}

GRADIENT_FILES = {
    "NOT_A_LIST": {"1": 5, "2": [1, 2]},
    "BOOLEANS": {"1": [True, False], "2": [1, 2]},
}

CONFIG_FILES = {
    "CSV_CONFIG": "format = csv\n",
    "SEED_CONFIG": "seed = 5\n",
    "DEALER_SEED_CONFIG": "dealer_seed = 5\n",
    "GRADIENTS_CONFIG": "gradient_file = missing.json\n",
    "TYPO_CONFIG": "sede = 5\n",
}


@pytest.mark.parametrize("argv", BAD_INPUTS.values(), ids=BAD_INPUTS.keys())
def test_bad_input_exits_2_without_traceback(argv, tmp_path, capsys):
    files = {name: json.dumps(table) for name, table in GRADIENT_FILES.items()}
    files.update(CONFIG_FILES)
    for name, text in files.items():
        (tmp_path / name).write_text(text)
    argv = [str(tmp_path / a) if a in files else a for a in argv]
    assert main(argv) == 2
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
    ],
    ids=["format", "seed", "both-seeds", "gradient-file", "unknown-key"],
)
def test_refusals_name_what_is_refused(argv, message, tmp_path, capsys):
    for name, text in CONFIG_FILES.items():
        (tmp_path / name).write_text(text)
    assert main([str(tmp_path / a) if a in CONFIG_FILES else a for a in argv]) == 2
    assert message in capsys.readouterr().err

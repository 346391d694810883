"""End-to-end CLI tests, run in-process through cli.main."""

import json
import os
import subprocess
import sys

import pytest

import signbase
from signbase.cli import main

TINY3_TEXT = "sdg n=3\n1 2 +\n2 1 -\n2 3 +\n3 1 +\n"


@pytest.fixture
def tiny3_file(tmp_path):
    path = tmp_path / "tiny3.sdg"
    path.write_text(TINY3_TEXT)
    return str(path)


def test_analyze_text(tiny3_file, capsys):
    assert main(["analyze", tiny3_file]) == 0
    out = capsys.readouterr().out
    assert "order n=3" in out
    assert "powerful: no" in out
    assert "l_S=11" in out
    assert "L_k table: k=1:11" in out


def test_analyze_json_stable(tiny3_file, capsys):
    assert main(["analyze", tiny3_file, "--json"]) == 0
    first = capsys.readouterr().out
    assert main(["analyze", tiny3_file, "--json"]) == 0
    second = capsys.readouterr().out
    assert first == second
    doc = json.loads(first)
    assert doc["schema_version"] == 1
    assert doc["input_digest"].startswith("sha256:")
    assert doc["powerfulness"]["powerful"] is False
    assert doc["powerfulness"]["witness_pair"]["condition"] == "odd-even-negative"
    assert doc["bases"]["generalized_base"] == 11
    assert [row["value"] for row in doc["bases"]["table"]] == [11, 9, 7]
    assert [row["value"] for row in doc["exponents"]["table"]] == [5, 3, 0]


def test_analyze_single_k(tiny3_file, capsys):
    assert main(["analyze", tiny3_file, "--json", "--k", "2"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert [row["k"] for row in doc["bases"]["table"]] == [2]


def test_generate_then_upper_base(tmp_path, capsys):
    out_file = str(tmp_path / "d1.sdg")
    assert main(["generate", "d1", "--n", "6", "--policy", "canonical",
                 "--out", out_file]) == 0
    capsys.readouterr()
    assert main(["upper-base", out_file, "--k", "1"]) == 0
    assert capsys.readouterr().out.strip() == "56"


def test_generate_to_stdout(capsys):
    assert main(["generate", "d2", "--n", "6", "--policy", "same-sign"]) == 0
    out = capsys.readouterr().out
    assert out.startswith("sdg n=6\n")
    assert len(out.strip().splitlines()) == 9  # header + n+2 arcs


def test_multiexponent(tmp_path, capsys):
    out_file = str(tmp_path / "d2.sdg")
    main(["generate", "d2", "--n", "6", "--policy", "same-sign", "--out", out_file])
    capsys.readouterr()
    assert main(["multiexponent", out_file, "--k", "1"]) == 0
    assert capsys.readouterr().out.strip() == "25"


def test_frobenius_command(capsys):
    assert main(["frobenius", "--gens", "5,6"]) == 0
    assert capsys.readouterr().out.strip() == "20"
    assert main(["frobenius", "--gens", "4,6"]) == 1
    assert "gcd" in capsys.readouterr().err
    assert main(["frobenius", "--gens", "5;6"]) == 2


def test_oracle_command(tiny3_file, capsys):
    assert main(["oracle", tiny3_file, "--from", "1", "--to", "1", "--len", "6"]) == 0
    assert capsys.readouterr().out.strip() == "pos=true neg=true"
    assert main(["oracle", tiny3_file, "--from", "1", "--to", "2", "--len", "1"]) == 0
    assert capsys.readouterr().out.strip() == "pos=true neg=false"


def test_exit_codes(tmp_path, capsys):
    powerful = tmp_path / "pos.sdg"
    powerful.write_text("sdg n=3\n1 2 +\n2 3 +\n3 1 +\n2 1 +\n")
    assert main(["upper-base", str(powerful), "--k", "1"]) == 1
    assert "non-powerful" in capsys.readouterr().err
    bad = tmp_path / "bad.sdg"
    bad.write_text("sdg n=2\n1 7 +\n")
    assert main(["analyze", str(bad)]) == 2
    err = capsys.readouterr().err
    assert "line 2" in err
    missing = str(tmp_path / "missing.sdg")
    assert main(["analyze", missing]) == 1
    with pytest.raises(SystemExit) as exc_info:
        main(["analyze"])  # missing positional: argparse usage error
    assert exc_info.value.code == 2


def test_analyze_cycle_limit_message(tmp_path, capsys, monkeypatch):
    import signbase.digraph as dg

    monkeypatch.setattr(dg, "CYCLE_OUTPUT_LIMIT", 10)
    arcs = "".join(
        f"{u} {v} {'-' if (u, v) == (1, 2) else '+'}\n"
        for u in range(1, 6) for v in range(1, 6) if u != v
    )
    path = tmp_path / "complete5.sdg"
    path.write_text("sdg n=5\n" + arcs)
    assert main(["analyze", str(path)]) == 1
    err = capsys.readouterr().err
    assert "more than 10 cycles: the report lists every simple cycle" in err
    assert "upper-base and multiexponent still work on this input" in err
    assert "length_cap" not in err
    assert main(["upper-base", str(path), "--k", "1"]) == 0
    assert main(["multiexponent", str(path), "--k", "1"]) == 0


def test_verify_closed_forms_cli(capsys):
    assert main(["verify", "--suite", "closed-forms", "--n-min", "6",
                 "--n-max", "6"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["suite"] == "closed-forms"
    assert doc["passed"] is True
    assert doc["outcome_count"] == 18


def test_verify_oracle_cli(capsys):
    assert main(["verify", "--suite", "oracle", "--samples", "20",
                 "--seed", "4"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["passed"] is True and doc["outcome_count"] == 20


def test_verify_gap_cli_small(capsys):
    assert main(["verify", "--suite", "gap", "--n-min", "6", "--n-max", "6",
                 "--samples", "5", "--seed", "2"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["passed"] is True


@pytest.mark.parametrize(
    "argv",
    [
        ["--suite", "gap", "--n-min", "8", "--n-max", "6"],
        ["--suite", "closed-forms", "--n-min", "9", "--n-max", "6"],
        ["--suite", "oracle", "--samples", "0"],
        ["--suite", "oracle", "--samples", "-1"],
        ["--suite", "gap", "--n-min", "6", "--n-max", "6", "--samples", "-1"],
    ],
)
def test_verify_rejects_empty_runs(argv, capsys):
    assert main(["verify", *argv]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "--" in captured.err


def test_cli_import_leaves_out_thread_pool():
    code = "import sys, signbase.cli; print('concurrent.futures' in sys.modules)"
    src_dir = os.path.dirname(os.path.dirname(signbase.__file__))
    env = {**os.environ, "PYTHONPATH": src_dir}
    result = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env=env,
        check=True,
    )
    assert result.stdout.strip() == "False"

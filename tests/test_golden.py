"""Golden output bytes: ``analyze --json`` and ``verify`` must reproduce
the stored files.

Each ``tests/data/<name>.sdg`` input has its expected report next to it in
``<name>.json``.  The inputs are tiny3, a relabeled d1 at n = 7, relabeled
d2 same-sign and different-sign members at n = 8 and the first member of
``sample_nonpowerful_population(6, 1, 5)``.  The ``verify_*.json`` files
hold the output of one small run of each verification suite, so the order
and content of their outcomes stay fixed.
"""

from pathlib import Path

import pytest

from signbase import sample_nonpowerful_population, serialize_sdg
from signbase.cli import main

DATA = Path(__file__).parent / "data"
NAMES = sorted(p.stem for p in DATA.glob("*.sdg"))


def test_golden_inputs_present():
    assert NAMES == [
        "d1_n7_relabeled",
        "d2_diff_n8_relabeled",
        "d2_same_n8_relabeled",
        "sampled_n6_seed5",
        "tiny3",
    ]


@pytest.mark.parametrize("name", NAMES)
def test_analyze_json_bytes(name, capsys):
    assert main(["analyze", str(DATA / f"{name}.sdg"), "--json"]) == 0
    assert capsys.readouterr().out.encode() == (DATA / f"{name}.json").read_bytes()


VERIFY_RUNS = {
    "verify_closed_forms_n6_7": "--suite closed-forms --n-min 6 --n-max 7",
    "verify_gap_n6_samples8_seed2": "--suite gap --n-min 6 --n-max 6 --samples 8 --seed 2",
    "verify_oracle_samples20_seed4": "--suite oracle --samples 20 --seed 4",
}


@pytest.mark.parametrize("name", sorted(VERIFY_RUNS))
def test_verify_json_bytes(name, capsys):
    assert main(["verify", *VERIFY_RUNS[name].split()]) == 0
    assert capsys.readouterr().out.encode() == (DATA / f"{name}.json").read_bytes()


def test_sampled_input_is_the_seeded_sample():
    sample = sample_nonpowerful_population(6, 1, 5)[0]
    assert serialize_sdg(sample) == (DATA / "sampled_n6_seed5.sdg").read_text()

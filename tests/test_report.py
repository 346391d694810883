"""Report assembly and self-audit tests."""

import copy
import json

import pytest

from signbase import (
    ConsistencyError,
    SignedDigraph,
    build_d1,
    digraph,
    gsign,
    parse_sdg,
    signed,
)
from signbase.report import build_report, input_digest, render_text, report_json

from conftest import TINY3_ARCS


@pytest.fixture
def tiny3_report(tiny3):
    return build_report(tiny3)


def test_digest_tracks_content_not_formatting(tiny3):
    same = parse_sdg("# reordered, commented\nsdg n=3\n3 1 +\n1 2 +\n2 3 +\n2 1 -\n")
    assert input_digest(same) == input_digest(tiny3)
    other = SignedDigraph(3, [(1, 2, 1), (2, 1, 1), (2, 3, 1), (3, 1, 1)])
    assert input_digest(other) != input_digest(tiny3)


def test_report_sections(tiny3_report):
    doc = tiny3_report
    assert doc["structure"]["cycle_count"] == 2
    assert doc["primitivity"]["primitive"] is True
    assert doc["powerfulness"]["powerful"] is False
    assert doc["bases"]["generalized_base"] == 11
    assert [r["value"] for r in doc["bases"]["table"]] == [11, 9, 7]
    assert doc["bounds"][0]["walk_pair"]["value"] == 12
    text = render_text(doc)
    assert "l_S=11" in text and "F_k table" in text
    json.loads(report_json(doc))


def test_report_non_primitive():
    doc = build_report(SignedDigraph(2, [(1, 2, 1)]))
    assert doc["primitivity"]["primitive"] is False
    assert doc["powerfulness"]["powerful"] is None
    assert doc["bases"] is None and doc["bounds"] is None
    assert "undetermined" in render_text(doc)


def test_report_powerful():
    doc = build_report(SignedDigraph(3, [(1, 2, 1), (2, 3, 1), (3, 1, 1), (2, 1, 1)]))
    assert doc["powerfulness"]["powerful"] is True
    assert doc["powerfulness"]["witness_pair"] is None
    assert "table" not in doc["bases"]
    assert doc["exponents"] is not None


def test_audit_rejects_broken_chain(tiny3_report):
    from signbase.report import _audit

    doc = copy.deepcopy(tiny3_report)
    doc["bases"]["table"][1]["value"] = doc["bases"]["table"][0]["value"] + 1
    with pytest.raises(ConsistencyError, match="monotone"):
        _audit(doc)


def test_audit_rejects_ceiling_violation(tiny3_report):
    from signbase.report import _audit

    doc = copy.deepcopy(tiny3_report)
    doc["structure"]["n"] = 6  # pretend the ceiling applies
    doc["bases"]["table"][0]["value"] = 999
    doc["bounds"][0]["walk_pair"]["value"] = 10**6
    with pytest.raises(ConsistencyError, match="ceiling"):
        _audit(doc)


def test_audit_rejects_bound_below_value(tiny3_report):
    from signbase.report import _audit

    doc = copy.deepcopy(tiny3_report)
    doc["bounds"][0]["walk_pair"]["value"] = 1
    with pytest.raises(ConsistencyError, match="walk-pair"):
        _audit(doc)


def test_report_computes_each_power_once(monkeypatch):
    # d1 at n = 9 has L_1 = 137 = its generalized base with period 1: the
    # power cache holds a^1..a^138, built by 137 products, and the power
    # trace must read that cache instead of multiplying again.
    calls = []
    real = gsign.mat_mul

    def counting(a, b):
        calls.append(1)
        return real(a, b)

    monkeypatch.setattr(gsign, "mat_mul", counting)
    monkeypatch.setattr(signed, "mat_mul", counting)
    doc = build_report(build_d1(9))
    assert doc["bases"]["table"][0]["value"] == 137
    assert len(calls) <= 137


def test_report_scans_reach_rows_at_most_four_times(monkeypatch):
    # The exponent, the F_k table and the two bound tables; the bounds must
    # not rescan the reach rows once per k.
    calls = []
    real = digraph.iter_reach_rows

    def counting(d):
        calls.append(1)
        return real(d)

    monkeypatch.setattr(digraph, "iter_reach_rows", counting)
    doc = build_report(build_d1(9))
    assert len(doc["bounds"]) == 9
    assert len(calls) <= 4

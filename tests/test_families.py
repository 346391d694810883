"""Family builders, samplers and the verification harness."""

import pytest

from signbase import (
    ALL_POSITIVE,
    CANONICAL_NONPOWERFUL,
    DIFFERENT_SIGN_NM1,
    SAME_SIGN_NM1,
    PolicyError,
    SignPolicy,
    build_d1,
    build_d2,
    cycles,
    is_powerful,
    is_primitive,
    random_primitive_nonpowerful,
    random_primitive_digraph,
    verify_closed_forms,
    verify_oracle_agreement,
    verify_third_bound_and_gap,
)
from signbase.families import policy_named


def test_build_d1_structure():
    for n in (3, 6, 9):
        s = build_d1(n, CANONICAL_NONPOWERFUL)
        assert len(s.arcs) == n + 1
        lengths = sorted(c.length for c in cycles(s))
        assert lengths == [n - 1, n]
        assert is_primitive(s.underlying())
        assert not is_powerful(s)
    with pytest.raises(ValueError):
        build_d1(2, CANONICAL_NONPOWERFUL)


def test_build_d1_canonical_flips_even_cycle():
    # The negative cycle must be the even-length one, whichever that is.
    for n in (6, 7):
        s = build_d1(n, CANONICAL_NONPOWERFUL)
        negative = [c for c in cycles(s) if c.sign < 0]
        assert len(negative) == 1
        assert negative[0].length % 2 == 0


def test_build_d1_policies():
    assert is_powerful(build_d1(6, ALL_POSITIVE))
    with pytest.raises(PolicyError):
        build_d1(6, SAME_SIGN_NM1)
    explicit = SignPolicy.explicit(
        {(1, 2): 1, (2, 3): 1, (3, 1): -1, (2, 1): 1}
    )
    s = build_d1(3, explicit)
    assert s.arc_sign(3, 1) == -1
    with pytest.raises(PolicyError):
        build_d1(4, explicit)


def test_build_d2_structure():
    for n in (4, 6, 7):
        s = build_d2(n, SAME_SIGN_NM1)
        assert len(s.arcs) == n + 2
        by_verts = {frozenset(c.vertices) for c in cycles(s) if c.length == n - 1}
        assert by_verts == {frozenset(range(1, n)), frozenset(range(2, n + 1))}
        assert not is_powerful(s)
    with pytest.raises(ValueError):
        build_d2(3, SAME_SIGN_NM1)


def test_build_d2_sign_policies():
    for n in (6, 7, 8):
        same = build_d2(n, SAME_SIGN_NM1)
        signs = [c.sign for c in cycles(same) if c.length == n - 1]
        assert signs[0] == signs[1]
        diff = build_d2(n, DIFFERENT_SIGN_NM1)
        signs = [c.sign for c in cycles(diff) if c.length == n - 1]
        assert signs[0] == -signs[1]
        assert not is_powerful(diff)
    # Odd order forces both (n-1)-cycles negative in the same-sign case.
    s7 = build_d2(7, SAME_SIGN_NM1)
    assert all(c.sign == -1 for c in cycles(s7) if c.length == 6)
    with pytest.raises(PolicyError):
        build_d2(6, CANONICAL_NONPOWERFUL)


def test_policy_names():
    assert policy_named("canonical") is CANONICAL_NONPOWERFUL
    assert policy_named("same-sign") is SAME_SIGN_NM1
    with pytest.raises(ValueError):
        policy_named("mystery")


def test_random_primitive_nonpowerful_deterministic():
    a = random_primitive_nonpowerful(6, 9, 42)
    b = random_primitive_nonpowerful(6, 9, 42)
    assert a == b
    assert is_primitive(a.underlying())
    assert not is_powerful(a)
    c = random_primitive_nonpowerful(6, 9, 43)
    assert c != a  # overwhelmingly likely under a different seed
    with pytest.raises(ValueError):
        random_primitive_nonpowerful(6, 5, 1)
    with pytest.raises(ValueError):
        random_primitive_nonpowerful(6, 37, 1)


def test_random_primitive_digraph():
    d = random_primitive_digraph(5, 8, 7)
    assert is_primitive(d)
    assert len(d.arcs) == 8
    assert d == random_primitive_digraph(5, 8, 7)


def test_full_budget_sampler_complete_variant():
    s = random_primitive_nonpowerful(6, 36, 11)
    assert len(s.arcs) == 36
    assert is_primitive(s.underlying())
    assert not is_powerful(s)


def test_verify_closed_forms_small():
    outcomes = verify_closed_forms([6], k_values=[1, 3, 6])
    assert len(outcomes) == 9
    assert all(o.passed for o in outcomes)
    d1_k1 = next(
        o for o in outcomes if o.claim == "d1-upper-base-closed-form" and o.k == 1
    )
    assert d1_k1.computed == 56 and d1_k1.relation == "equals"
    with pytest.raises(ValueError):
        verify_closed_forms([5])


def test_verify_third_bound_and_gap_small():
    outcomes = verify_third_bound_and_gap(6, sample_count=15, seed=5)
    assert all(o.passed for o in outcomes)
    claims = {o.claim for o in outcomes}
    assert "upper-base-gap" in claims
    assert "upper-base-third-bound" in claims
    assert "isomorph-d1-exact-value" in claims  # the built d1 is in the population
    with pytest.raises(ValueError):
        verify_third_bound_and_gap(5)


def test_verify_oracle_agreement_small():
    outcomes = verify_oracle_agreement(sample_count=25, seed=3)
    assert len(outcomes) == 25
    assert all(o.passed for o in outcomes)
    assert all(o.computed == 0 for o in outcomes)


def test_outcome_dict_shape():
    outcome = verify_closed_forms([6], k_values=[6])[0]
    d = outcome.as_dict()
    assert list(d) == [
        "claim", "n", "k", "relation", "target_low", "target_high",
        "computed", "passed", "witness", "note",
    ]

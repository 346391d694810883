"""Differential tests of the coverage kernel behind the k-set maxima.

``kth_upper_base``, ``upper_base_table``, ``upper_multiexponent`` and
``multiexponent_table`` never visit vertex subsets.  Here every k-set is
visited: the brute-force reference maximizes ``set_base`` and
``set_exponent`` over all k-sets, ties going to the lexicographically least
set, and the fast paths must agree with it, witnesses included.
"""

from itertools import combinations

import pytest

from signbase import (
    DIFFERENT_SIGN_NM1,
    SAME_SIGN_NM1,
    ConsistencyError,
    SignedDigraph,
    build_d1,
    build_d2,
    kth_upper_base,
    multiexponent_table,
    sample_nonpowerful_population,
    set_base,
    set_exponent,
    upper_base_table,
    upper_multiexponent,
)
from signbase import digraph, signed

from conftest import TINY3_ARCS


def _population():
    """Seeded primitive non-powerful inputs for n = 3..7 and the three
    families for n <= 8."""
    out = [SignedDigraph(3, TINY3_ARCS)]
    for n in range(3, 8):
        out += sample_nonpowerful_population(n, 4, 300 + n)
    for n in range(3, 9):
        out.append(build_d1(n))
    for n in range(4, 9):
        out.append(build_d2(n, SAME_SIGN_NM1))
        out.append(build_d2(n, DIFFERENT_SIGN_NM1))
    return out


POPULATION = _population()


def _brute_max(value_of, n, k):
    """Largest value over all k-sets and the least k-set attaining it;
    ``combinations`` runs in lexicographic order, so the first maximum wins."""
    best, witness = -1, None
    for xs in combinations(range(1, n + 1), k):
        value = value_of(xs)
        if value > best:
            best, witness = value, xs
    return best, witness


@pytest.mark.parametrize("s", POPULATION, ids=lambda s: f"n{s.n}-{len(s.arcs)}arcs")
def test_upper_bases_match_subset_scan(s):
    table = upper_base_table(s)
    for k in range(1, s.n + 1):
        value, witness = _brute_max(lambda xs: set_base(s, xs), s.n, k)
        assert (table[k - 1].k, table[k - 1].value, table[k - 1].witness) == (
            k,
            value,
            witness,
        )
        assert kth_upper_base(s, k) == table[k - 1]


@pytest.mark.parametrize("s", POPULATION, ids=lambda s: f"n{s.n}-{len(s.arcs)}arcs")
def test_multiexponents_match_subset_scan(s):
    d = s.underlying()
    table = multiexponent_table(d)
    for k in range(1, s.n + 1):
        value, _ = _brute_max(lambda xs: set_exponent(d, xs), s.n, k)
        assert table[k - 1] == value
        assert upper_multiexponent(d, k) == value


def test_upper_base_ceiling_still_raises(monkeypatch):
    s = build_d1(7)
    l1 = kth_upper_base(s, 1).value
    monkeypatch.setattr(signed, "_scan_cap", lambda s, k: 3)
    with pytest.raises(ConsistencyError, match="ceiling 3"):
        upper_base_table(s)
    with pytest.raises(ConsistencyError, match="ceiling 3"):
        kth_upper_base(s, s.n)
    # A value may sit on its ceiling but not one past it.
    monkeypatch.setattr(signed, "_scan_cap", lambda s, k: l1 - 1)
    with pytest.raises(ConsistencyError):
        kth_upper_base(s, 1)
    monkeypatch.setattr(signed, "_scan_cap", lambda s, k: l1)
    assert upper_base_table(s)[0].value == l1


def test_multiexponent_ceiling_still_raises(monkeypatch):
    d = build_d1(7).underlying()
    f1 = upper_multiexponent(d, 1)
    _, (worst,) = _brute_max(lambda xs: set_exponent(d, xs), d.n, 1)
    monkeypatch.setattr(digraph, "_multiexponent_cap", lambda n, k: 2)
    with pytest.raises(ConsistencyError, match="ceiling 2"):
        multiexponent_table(d)
    with pytest.raises(ConsistencyError, match="ceiling 2"):
        upper_multiexponent(d, 1)
    monkeypatch.setattr(digraph, "_multiexponent_cap", lambda n, k: f1 - 1)
    with pytest.raises(ConsistencyError):
        upper_multiexponent(d, 1)
    # The one-set reference shares the kernel's ceiling and its rule.
    with pytest.raises(ConsistencyError):
        set_exponent(d, [worst])
    monkeypatch.setattr(digraph, "_multiexponent_cap", lambda n, k: f1)
    assert multiexponent_table(d)[0] == f1
    assert set_exponent(d, [worst]) == f1


def test_kernel_resolves_k1_and_kn_at_their_first_lengths():
    # k = 1 needs every row full, k = n only a full union; before the first
    # length every row misses every column, so the least uncovered set is
    # then 1..k.
    stream = iter([(1, [0b01, 0b00]), (2, [0b11, 0b00]), (3, [0b11, 0b11])])
    found = digraph._coverage_lengths(stream, {1: 5, 2: 5}, "test")
    assert found == {2: (2, [0b01, 0b00]), 1: (3, [0b11, 0b00])}
    assert digraph._least_uncovered(found[2][1], 2) == (1, 2)
    assert digraph._least_uncovered(found[1][1], 1) == (2,)
    found = digraph._coverage_lengths(iter([(1, [0b11, 0b11])]), {2: 1}, "test")
    assert found == {2: (1, [0, 0])}
    assert digraph._least_uncovered(found[2][1], 2) == (1, 2)

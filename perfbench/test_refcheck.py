"""Tests of the benchmark's reference checker against signbase's oracle.

Run from the repository root:

    PYTHONPATH=src python -m pytest -q perfbench/test_refcheck.py
"""

from __future__ import annotations

import os
import random
import sys

import pytest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import refcheck  # noqa: E402
from signbase.digraph import Digraph, is_primitive  # noqa: E402
from signbase.errors import CapacityError  # noqa: E402
from signbase.families import sample_nonpowerful_population  # noqa: E402
from signbase.oracle import enumerate_signs, oracle_set_base  # noqa: E402
from signbase.report import input_digest  # noqa: E402
from signbase.signed import SignedDigraph, is_powerful_by_powers  # noqa: E402


def _random_signed(rng: random.Random, n: int, m: int) -> list[tuple[int, int, int]]:
    pairs = [(u, v) for u in range(1, n + 1) for v in range(1, n + 1)]
    return sorted((u, v, rng.choice((1, -1))) for u, v in rng.sample(pairs, m))


def _tiny_inputs(seed: int, count: int, max_order: int = 4):
    rng = random.Random(seed)
    for _ in range(count):
        n = rng.randint(2, max_order)
        yield n, _random_signed(rng, n, rng.randint(1, min(8, n * n)))


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_walk_sign_sets_match_enumerate_signs(seed):
    for n, arcs in _tiny_inputs(seed, 40):
        s = SignedDigraph(n, arcs)
        for u in range(1, n + 1):
            seq = refcheck.walk_sign_sets(n, arcs, u, 7)
            for length in range(1, 8):
                for v in range(1, n + 1):
                    pos, neg = enumerate_signs(s, u, v, length)
                    got = seq[length - 1]
                    assert ((v, 1) in got, (v, -1) in got) == (pos, neg)


@pytest.mark.parametrize("seed", [4, 5])
def test_set_bases_match_oracle(seed):
    rng = random.Random(seed)
    checked = 0
    while checked < 25:
        n = rng.randint(3, 5)
        arcs = _random_signed(rng, n, rng.randint(n + 1, 2 * n))
        if not refcheck.is_primitive(n, arcs) or refcheck.is_powerful(n, arcs):
            continue
        s = SignedDigraph(n, arcs)
        sets = [[x] for x in range(1, n + 1)] + [list(range(1, n + 1))]
        try:
            expected = [oracle_set_base(s, xs) for xs in sets]
        except CapacityError:  # a base beyond the oracle's length cap
            continue
        got = [refcheck.set_base(n, arcs, xs) for xs in sets]
        assert got == expected
        table = refcheck.upper_bases(n, arcs, [1, 2, n])
        assert table[1] == refcheck.upper_base_1(n, arcs) == max(expected[:-1])
        assert table[n] == refcheck.upper_base_n(n, arcs) == expected[-1]
        checked += 1


@pytest.mark.parametrize("seed", [6, 7])
def test_structure_tests_match_signbase(seed):
    rng = random.Random(seed)
    primitive = powerful = 0
    for _ in range(300):
        n = rng.randint(2, 5)
        arcs = _random_signed(rng, n, rng.randint(n, min(n * n, 3 * n)))
        prim = refcheck.is_primitive(n, arcs)
        assert prim == is_primitive(Digraph(n, [(u, v) for u, v, _ in arcs]))
        if prim:
            primitive += 1
            pw = refcheck.is_powerful(n, arcs)
            assert pw == is_powerful_by_powers(SignedDigraph(n, arcs))
            powerful += pw
    assert primitive and powerful and powerful < primitive


@pytest.mark.parametrize("n", [6, 7, 8])
def test_family_closed_forms(n):
    for family in ("d1", "d2-same"):
        arcs = refcheck.family_arcs(family, n)
        assert refcheck.upper_base_1(n, arcs) == refcheck.closed_upper_base(family, n, 1)
        assert refcheck.upper_base_n(n, arcs) == refcheck.closed_upper_base(family, n, n)
    arcs = refcheck.family_arcs("d2-diff", n)
    assert refcheck.upper_base_1(n, arcs) <= refcheck.closed_upper_base("d2-diff", n, 1)
    for family in ("d1", "d2-same", "d2-diff"):
        arcs = refcheck.family_arcs(family, n)
        assert refcheck.is_primitive(n, arcs) and not refcheck.is_powerful(n, arcs)
        perm = list(range(1, n + 1))
        random.Random(n).shuffle(perm)
        moved = refcheck.relabel(arcs, perm)
        assert refcheck.upper_base_1(n, moved) == refcheck.upper_base_1(n, arcs)


def test_digest_matches_report():
    for n, arcs in _tiny_inputs(8, 20):
        assert refcheck.input_digest(n, arcs) == input_digest(SignedDigraph(n, arcs))


@pytest.mark.parametrize("n,seed", [(6, 11), (7, 12)])
def test_population_replay(n, seed):
    expected = [list(s.arcs) for s in sample_nonpowerful_population(n, 4, seed)]
    assert refcheck.nonpowerful_population(n, 4, seed) == expected

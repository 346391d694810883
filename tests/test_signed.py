"""Signed-digraph analysis tests.

Frozen tiny3 constants were derived by exhaustive walk enumeration before
the matrix path existed: set bases 10/9/11 for the singletons, 7 for the
full set, upper bases (11, 9, 7), first ambiguous power 5, first
all-ambiguous power 11.
"""

import random
from itertools import combinations
from math import lcm

import pytest

from signbase import (
    ALL_POSITIVE,
    CANONICAL_NONPOWERFUL,
    DIFFERENT_SIGN_NM1,
    SAME_SIGN_NM1,
    GenSign,
    PairCondition,
    SignedDigraph,
    StructuralError,
    build_d1,
    build_d2,
    closed_walk_bounds,
    cycles,
    diameter,
    distinguished_pairs,
    enumerate_signs,
    is_powerful,
    is_powerful_by_powers,
    is_primitive,
    kth_upper_base,
    oracle_set_base,
    power_sequence_base,
    random_primitive_nonpowerful,
    serialize_sdg,
    set_base,
    sssd_matrix,
    upper_base_table,
    upper_multiexponent,
    walk_pair_bounds,
)

from signbase import signed
from signbase.cli import main

from conftest import TINY3_ARCS


def random_signed(rng, n, arc_count):
    pairs = [(u, v) for u in range(1, n + 1) for v in range(1, n + 1)]
    chosen = rng.sample(pairs, arc_count)
    return SignedDigraph(n, [(u, v, rng.choice((1, -1))) for u, v in chosen])


def test_construction_validation():
    with pytest.raises(ValueError, match="duplicate arc"):
        SignedDigraph(2, [(1, 2, 1), (1, 2, 1)])
    with pytest.raises(ValueError, match="opposite sign"):
        SignedDigraph(2, [(1, 2, 1), (1, 2, -1)])
    with pytest.raises(ValueError):
        SignedDigraph(2, [(1, 3, 1)])
    with pytest.raises(ValueError):
        SignedDigraph(2, [(1, 2, 2)])


def test_pattern_round_trip(tiny3):
    a = tiny3.pattern()
    assert a.entry(1, 2) is GenSign.POS
    assert a.entry(2, 1) is GenSign.NEG
    assert a.entry(3, 3) is GenSign.ZERO
    assert SignedDigraph.from_pattern(a) == tiny3
    from signbase import mat_power

    with pytest.raises(ValueError):
        SignedDigraph.from_pattern(mat_power(a, 11))


def test_cycles_with_signs(tiny3):
    recs = cycles(tiny3)
    assert [(c.vertices, c.length, c.sign) for c in recs] == [
        ((1, 2), 2, -1),
        ((1, 2, 3), 3, 1),
    ]


def test_is_powerful_examples(tiny3):
    assert not is_powerful(tiny3)
    assert not is_powerful(build_d1(6, CANONICAL_NONPOWERFUL))
    # All-positive signings admit no opposite-sign walk pair at all.
    assert is_powerful(build_d1(6, ALL_POSITIVE))
    assert is_powerful(build_d1(7, ALL_POSITIVE))
    with pytest.raises(StructuralError):
        is_powerful(SignedDigraph(2, [(1, 2, 1)]))


def powerful_by_cycle_classes(s):
    """The cycle-pair characterization, over (length, sign) classes: the
    reference that the switching test replaced."""
    classes = signed._cycle_classes(s)
    return not any(signed._pair_condition(a, b) for a, b in combinations(classes, 2))


def balanced_signs(rng, arcs):
    """Signs eps * sigma(u) * sigma(v) for random eps and vertex signs
    sigma: a switching class that is powerful whenever it is primitive."""
    eps = rng.choice((1, -1))
    sigma = {v: rng.choice((1, -1)) for arc in arcs for v in arc}
    return {(u, v): eps * sigma[u] * sigma[v] for u, v in arcs}


def assert_powerful_routes_agree(s, rng, by_classes=True):
    """Switching test, power sequence and (optionally) class pairs agree on
    ``s``, on a random switching D·A·D of it and on its negation."""
    verdict = is_powerful_by_powers(s)
    assert is_powerful(s) == verdict
    if by_classes:
        assert powerful_by_cycle_classes(s) == verdict
    flip = {v for v in range(1, s.n + 1) if rng.random() < 0.5}
    switched = SignedDigraph(
        s.n, [(u, v, -x if (u in flip) != (v in flip) else x) for u, v, x in s.arcs]
    )
    negated = SignedDigraph(s.n, [(u, v, -x) for u, v, x in s.arcs])
    for t in (switched, negated):
        assert is_powerful(t) == is_powerful_by_powers(t) == verdict
    return verdict


def test_powerful_routes_agree_small_and_sampled(tiny3):
    rng = random.Random(515)
    checked = 0
    for _ in range(200):
        n = rng.randint(2, 5)
        s = random_signed(rng, n, rng.randint(n, n * n))
        if not is_primitive(s.underlying()):
            continue
        assert_powerful_routes_agree(s, rng)
        checked += 1
    assert checked > 60
    for _ in range(25):
        n = rng.randint(6, 7)
        s = random_signed(rng, n, rng.randint(n + 1, 2 * n))
        if is_primitive(s.underlying()):
            assert_powerful_routes_agree(s, rng)
    assert is_powerful_by_powers(tiny3) == is_powerful(tiny3) == False

    # Loops of both signs and opposite-sign 2-cycles, on balanced signings
    # (some perturbed by one flipped arc) so that both verdicts occur.
    seen = set()
    for _ in range(300):
        n = rng.randint(2, 6)
        pairs = [(u, v) for u in range(1, n + 1) for v in range(1, n + 1)]
        signs = balanced_signs(rng, rng.sample(pairs, rng.randint(n, min(n * n, 3 * n))))
        if rng.random() < 0.4:
            arc = rng.choice(sorted(signs))
            signs[arc] = -signs[arc]
        opposite = rng.random() < 0.25
        if opposite:
            u, v = rng.sample(range(1, n + 1), 2)
            signs[(u, v)] = 1
            signs[(v, u)] = -1
        s = SignedDigraph(n, [(u, v, x) for (u, v), x in signs.items()])
        if not is_primitive(s.underlying()):
            continue
        verdict = assert_powerful_routes_agree(s, rng)
        assert not (opposite and verdict)
        seen |= {(verdict, x) for (u, v), x in signs.items() if u == v}
        seen.add((verdict, "opposite" if opposite else None))
    assert {(True, 1), (True, -1), (False, 1), (False, -1), (False, "opposite")} <= seen

    # Dense inputs (every off-diagonal arc): random signs, balanced signs
    # (powerful), balanced signs with one arc flipped, and balanced signs
    # plus loops.  Listing the cycles for the class reference costs about a
    # second per input at n = 9, so it runs at n = 8 only.
    for n in (8, 9):
        arcs = [(u, v) for u in range(1, n + 1) for v in range(1, n + 1) if u != v]
        balanced = balanced_signs(rng, arcs)
        eps = balanced[(1, 2)] * balanced[(2, 3)] * balanced[(3, 1)]  # sign eps^3
        flipped = dict(balanced)
        flipped[rng.choice(arcs)] *= -1
        looped = dict(balanced)
        looped.update({(v, v): eps for v in range(1, n + 1)})
        bad_loop = dict(looped)
        bad_loop[(n, n)] = -eps
        cases = [
            ({arc: rng.choice((1, -1)) for arc in arcs}, False),
            (balanced, True),
            (flipped, None),
            (looped, True),
            (bad_loop, False),
        ]
        for signs, expected in cases:
            s = SignedDigraph(n, [(u, v, x) for (u, v), x in signs.items()])
            verdict = assert_powerful_routes_agree(s, rng, by_classes=n == 8)
            assert expected is None or verdict == expected


def complete_signed(n, seed):
    """Every off-diagonal arc, with signs from ``Random(seed)``."""
    rng = random.Random(seed)
    return SignedDigraph(
        n,
        [(u, v, rng.choice((1, -1)))
         for u in range(1, n + 1) for v in range(1, n + 1) if u != v],
    )


def test_base_calls_list_no_cycles(monkeypatch, tmp_path, capsys):
    """No base computation lists cycles, so complete inputs with millions of
    cycles get their upper bases."""
    def refuse(*args, **kwargs):
        raise AssertionError("a base computation enumerated cycles")

    monkeypatch.setattr(signed, "enumerate_cycles", refuse)
    s = complete_signed(10, 10)
    assert not is_powerful(s)
    first, last = kth_upper_base(s, 1), kth_upper_base(s, s.n)
    table = upper_base_table(s)
    assert (table[0].value, table[-1].value) == (first.value, last.value)
    for bound, row in zip(walk_pair_bounds(s), table):
        assert bound.value >= row.value
    sampled = random_primitive_nonpowerful(7, 14, 17)
    assert not is_powerful_by_powers(sampled)
    for n in (10, 12, 16):
        s = complete_signed(n, n)
        path = tmp_path / f"complete{n}.sdg"
        path.write_text(serialize_sdg(s))
        l_1 = max(set_base(s, [v]) for v in range(1, n + 1))
        l_n = set_base(s, range(1, n + 1))
        assert main(["upper-base", str(path), "--k", "1"]) == 0
        assert capsys.readouterr().out.strip() == str(l_1)
        assert main(["upper-base", str(path), "--k", str(n)]) == 0
        assert capsys.readouterr().out.strip() == str(l_n)


def test_distinguished_pairs_examples(tiny3):
    assert distinguished_pairs(build_d1(6, ALL_POSITIVE)) == []
    pairs = distinguished_pairs(tiny3)
    assert len(pairs) == 1
    pair = pairs[0]
    assert pair.condition is PairCondition.ODD_EVEN_NEGATIVE
    assert pair.c1.length == 3 and pair.c2.length == 2
    assert pair.c2.sign == -1
    assert pair.lcm_length == 6
    assert pair.product_length == 6


def test_distinguished_pairs_d2_same_sign():
    s = build_d2(7, SAME_SIGN_NM1)
    pairs = distinguished_pairs(s)
    # Each 6-cycle pairs with the 7-cycle; the two 6-cycles share a sign so
    # they cannot pair with each other.
    assert len(pairs) == 2
    for pair in pairs:
        assert {pair.c1.length, pair.c2.length} == {6, 7}
        assert pair.condition is PairCondition.ODD_EVEN_NEGATIVE
        assert pair.lcm_length == 42


def test_distinguished_pairs_odd_odd():
    s = build_d2(6, DIFFERENT_SIGN_NM1)
    pairs = distinguished_pairs(s)
    odd_odd = [p for p in pairs if p.condition is PairCondition.ODD_ODD_OPPOSITE]
    assert len(odd_odd) == 1
    assert odd_odd[0].c1.length == odd_odd[0].c2.length == 5
    assert odd_odd[0].c1.sign == -odd_odd[0].c2.sign


def test_cycle_classes_match_cycle_pairs():
    """Pairs of (length, sign) classes certify the same lcm lengths as the
    full cycle-pair list, and some class pair qualifies exactly when the
    power sequence develops an ambiguous entry."""
    rng = random.Random(1313)
    checked = nonpowerful = 0
    while checked < 400:
        n = rng.randint(3, 7)
        s = random_signed(rng, n, rng.randint(n + 1, 2 * n))
        if not is_primitive(s.underlying()):
            continue
        classes = signed._cycle_classes(s)
        assert len(classes) <= 2 * n
        class_lengths = {
            lcm(a[0], b[0])
            for a, b in combinations(classes, 2)
            if signed._pair_condition(a, b)
        }
        pairs = distinguished_pairs(s)
        assert class_lengths == {p.lcm_length for p in pairs}
        assert (not class_lengths) == is_powerful(s) == is_powerful_by_powers(s)
        if class_lengths:
            carried = [
                r for r in sorted(class_lengths)
                if any(m >> u & 1 for u, m in enumerate(s.amb_row_masks(r)))
            ]
            bound = closed_walk_bounds(s)[0]
            assert [c.closed_length for c in bound.candidates] == carried
            nonpowerful += 1
        checked += 1
    assert nonpowerful > 200


def test_sssd_matrix_length_one_empty(tiny3):
    assert not any(any(row) for row in sssd_matrix(tiny3, 1))
    with pytest.raises(ValueError):
        sssd_matrix(tiny3, 0)


def test_sssd_matrix_tiny3_frozen(tiny3):
    # Oracle-derived: at length 6 exactly the closed pairs at the two
    # cycle-shared vertices exist; at length 5 only (2, 1).
    assert sssd_matrix(tiny3, 6) == (
        (True, False, False),
        (False, True, False),
        (False, False, False),
    )
    assert sssd_matrix(tiny3, 5) == (
        (False, False, False),
        (True, False, False),
        (False, False, False),
    )
    assert all(all(row) for row in sssd_matrix(tiny3, 11))
    assert not all(all(row) for row in sssd_matrix(tiny3, 10))


def test_sssd_matrix_d1_negative_witness():
    s = build_d1(6, CANONICAL_NONPOWERFUL)
    assert sssd_matrix(s, 55)[5][5] is False
    assert sssd_matrix(s, 26)[4][0] is True


def test_sssd_matrix_agrees_with_oracle_n5():
    rng = random.Random(606)
    for _ in range(40):
        n = rng.randint(2, 5)
        s = random_signed(rng, n, rng.randint(1, min(9, n * n)))
        for l in range(1, 9):
            grid = sssd_matrix(s, l)
            for u in range(1, n + 1):
                for v in range(1, n + 1):
                    pos, neg = enumerate_signs(s, u, v, l)
                    assert grid[u - 1][v - 1] == (pos and neg)


def test_set_base_tiny3_frozen(tiny3):
    assert set_base(tiny3, [1]) == 10
    assert set_base(tiny3, [2]) == 9
    assert set_base(tiny3, [3]) == 11
    assert set_base(tiny3, [1, 2, 3]) == 7
    with pytest.raises(ValueError):
        set_base(tiny3, [])
    with pytest.raises(StructuralError):
        set_base(build_d1(6, ALL_POSITIVE), [1])


def test_set_base_matches_oracle(tiny3):
    rng = random.Random(707)
    population = [tiny3]
    while len(population) < 7:
        n = rng.randint(2, 5)
        s = random_signed(rng, n, rng.randint(n + 1, n * n))
        if is_primitive(s.underlying()) and not is_powerful(s):
            population.append(s)
    for s in population:
        for k in range(1, s.n + 1):
            for xs in combinations(range(1, s.n + 1), k):
                try:
                    expected = oracle_set_base(s, xs)
                except Exception:
                    continue  # oracle cap hit; skip this subset
                assert set_base(s, xs) == expected


def test_set_base_family_witness_values():
    assert set_base(build_d1(6, CANONICAL_NONPOWERFUL), [6]) == 56
    assert set_base(build_d2(6, SAME_SIGN_NM1), [1, 6]) == 50


def test_kth_upper_base_examples(tiny3):
    r = kth_upper_base(build_d1(7, CANONICAL_NONPOWERFUL), 3)
    assert r.value == 67
    r = kth_upper_base(build_d2(6, SAME_SIGN_NM1), 1)
    assert r.value == 55
    r = kth_upper_base(build_d2(6, DIFFERENT_SIGN_NM1), 2)
    assert r.value == 25
    assert r.value <= (6 - 2 + 1) * 5 + 2
    with pytest.raises(ValueError):
        kth_upper_base(tiny3, 0)
    with pytest.raises(ValueError):
        kth_upper_base(tiny3, 4)


def test_kth_upper_base_witness_attains_value(tiny3):
    for s in (tiny3, build_d2(6, DIFFERENT_SIGN_NM1)):
        for k in range(1, s.n + 1):
            r = kth_upper_base(s, k)
            assert len(r.witness) == k
            assert set_base(s, r.witness) == r.value


def test_upper_base_table_tiny3(tiny3):
    table = upper_base_table(tiny3)
    assert [(r.k, r.value, r.witness) for r in table] == [
        (1, 11, (3,)),
        (2, 9, (2, 3)),
        (3, 7, (1, 2, 3)),
    ]


def test_upper_base_table_matches_per_k():
    s = build_d2(6, DIFFERENT_SIGN_NM1)
    table = upper_base_table(s)
    for row in table:
        single = kth_upper_base(s, row.k)
        assert (single.value, single.witness) == (row.value, row.witness)


def test_d2_different_sign_frozen_tables():
    # Regression freeze of the exact different-sign values (the contract
    # only bounds them by (n-k+1)(n-1)+2).
    expected = {
        6: [30, 25, 20, 15, 10, 6],
        7: [42, 36, 30, 24, 18, 12, 7],
        8: [56, 49, 42, 35, 28, 21, 14, 8],
    }
    for n, values in expected.items():
        table = upper_base_table(build_d2(n, DIFFERENT_SIGN_NM1))
        assert [r.value for r in table] == values


def test_monotone_chain_and_base_identity(tiny3):
    for s in (
        tiny3,
        build_d1(6, CANONICAL_NONPOWERFUL),
        build_d2(7, SAME_SIGN_NM1),
        build_d2(6, DIFFERENT_SIGN_NM1),
    ):
        table = upper_base_table(s)
        values = [r.value for r in table]
        assert values == sorted(values, reverse=True)
        assert values[0] == power_sequence_base(s.pattern()).base_l


def test_bound_sssd_pair_tiny3(tiny3):
    b = walk_pair_bounds(tiny3)[0]
    # Oracle-derived ingredients: first pair at length 5 from 2 to 1.
    assert (b.multiexponent, b.diameter, b.pair_length) == (5, 2, 5)
    assert (b.source, b.target) == (2, 1)
    assert b.value == 12


def test_bound_sssd_pair_d2_different_sign():
    b = walk_pair_bounds(build_d2(6, DIFFERENT_SIGN_NM1))[0]
    # The two sign-differing routes of length 2 from n-1 into 2.
    assert (b.multiexponent, b.diameter, b.pair_length) == (25, 5, 2)
    assert (b.source, b.target) == (5, 2)
    assert b.value == 32


def test_bound_common_vertices_examples(tiny3):
    b = closed_walk_bounds(tiny3)[0]
    assert b.value == 12
    assert len(b.candidates) == 1
    cand = b.candidates[0]
    assert cand.closed_length == 6
    assert cand.vertices == (1, 2)
    b = closed_walk_bounds(build_d2(7, SAME_SIGN_NM1))[0]
    # Every vertex carries a closed pair of length n(n-1) = 42, so the
    # bound collapses to F_1 + 42 and is tight against L_1 = 78.
    assert b.value == 78
    assert b.candidates[0].closed_length == 42
    assert b.candidates[0].vertices == tuple(range(1, 8))


def test_bounds_dominate_upper_base(tiny3):
    rng = random.Random(808)
    population = [
        tiny3,
        build_d1(6, CANONICAL_NONPOWERFUL),
        build_d2(6, SAME_SIGN_NM1),
        build_d2(6, DIFFERENT_SIGN_NM1),
    ]
    for i in range(6):
        population.append(random_primitive_nonpowerful(6, 9 + i % 3, 900 + i))
    for s in population:
        rows = zip(upper_base_table(s), walk_pair_bounds(s), closed_walk_bounds(s))
        for base, wp, cw in rows:
            assert base.k == wp.k == cw.k
            assert wp.value >= base.value
            if cw.value is not None:
                assert cw.value >= base.value


def _bound_population(tiny3):
    population = [tiny3]
    for n in range(6, 9):
        population.append(build_d1(n))
        population.append(build_d2(n, SAME_SIGN_NM1))
        population.append(build_d2(n, DIFFERENT_SIGN_NM1))
    for i in range(6):
        population.append(random_primitive_nonpowerful(6 + i % 2, 9 + i % 3, 700 + i))
    return population


def test_walk_pair_rows_match_their_definition(tiny3):
    for s in _bound_population(tiny3):
        d = s.underlying()
        rows = walk_pair_bounds(s)
        assert [b.k for b in rows] == list(range(1, s.n + 1))
        for b in rows:
            assert b.multiexponent == upper_multiexponent(d, b.k)
            assert b.diameter == diameter(d)
            assert sssd_matrix(s, b.pair_length)[b.source - 1][b.target - 1]
            for l in range(1, b.pair_length):
                assert not any(any(row) for row in sssd_matrix(s, l))
            assert b.value == b.multiexponent + b.diameter + b.pair_length


def test_closed_walk_rows_match_their_definition(tiny3):
    for s in _bound_population(tiny3):
        d = s.underlying()
        lengths = sorted({p.lcm_length for p in distinguished_pairs(s)})
        carried = []
        for r in lengths:
            grid = sssd_matrix(s, r)
            vertices = tuple(u for u in range(1, s.n + 1) if grid[u - 1][u - 1])
            if vertices:
                carried.append((r, vertices))
        rows = closed_walk_bounds(s)
        assert [b.k for b in rows] == list(range(1, s.n + 1))
        for b in rows:
            f_k = upper_multiexponent(d, b.k)
            assert b.multiexponent == f_k
            assert [(c.closed_length, c.vertices) for c in b.candidates] == carried
            for c in b.candidates:
                assert c.value == f_k + c.closed_length + s.n - len(c.vertices)
            expected = min((c.value for c in b.candidates), default=None)
            assert b.value == expected


def test_coverage_monotone_in_length(tiny3):
    rng = random.Random(909)
    population = [tiny3]
    while len(population) < 5:
        s = random_signed(rng, rng.randint(3, 5), rng.randint(6, 10))
        if is_primitive(s.underlying()) and not is_powerful(s):
            population.append(s)
    for s in population:
        full = (1 << s.n) - 1
        for xs in ([1], list(range(1, s.n + 1))):
            p0 = set_base(s, xs)
            for p in range(p0, p0 + 6):
                union = 0
                for x in xs:
                    union |= s.amb_row_masks(p)[x - 1]
                assert union == full

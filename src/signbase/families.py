"""Extremal family constructors, random generators, and the verification
harness that recomputes the closed forms, bounds and the gap at small order.

Family "d1" is the Hamiltonian cycle 1 -> 2 -> ... -> n -> 1 plus the chord
n-1 -> 1; it carries exactly two cycles, of lengths n and n-1.  Family "d2"
adds the chord n -> 2 as well, giving one n-cycle and two (n-1)-cycles on
the vertex windows 1..n-1 and 2..n.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Iterable, Mapping, Sequence

from .digraph import Digraph, is_primitive, isomorphic_to
from .errors import PolicyError
from .oracle import enumerate_signs
from .signed import (
    SignedDigraph,
    cycles,
    is_powerful,
    sssd_matrix,
    upper_base_table,
)


@dataclass(frozen=True)
class SignPolicy:
    """How a family builder assigns arc signs.

    The named policies flip at most two arcs away from all-positive; the
    explicit policy supplies every arc sign itself.
    """

    kind: str
    arc_signs: tuple[tuple[tuple[int, int], int], ...] | None = None

    @classmethod
    def explicit(cls, arc_signs: Mapping[tuple[int, int], int]) -> "SignPolicy":
        return cls("explicit", tuple(sorted(arc_signs.items())))


ALL_POSITIVE = SignPolicy("all-positive")
#: Flip one arc so the even-length cycle turns negative, which is the one
#: way a two-cycle family of consecutive lengths can be non-powerful.
CANONICAL_NONPOWERFUL = SignPolicy("canonical-nonpowerful")
#: d2 only: give the two (n-1)-cycles equal signs while staying non-powerful.
SAME_SIGN_NM1 = SignPolicy("same-sign")
#: d2 only: give the two (n-1)-cycles opposite signs.
DIFFERENT_SIGN_NM1 = SignPolicy("different-sign")

_POLICIES_BY_NAME = {
    "all-positive": ALL_POSITIVE,
    "canonical": CANONICAL_NONPOWERFUL,
    "canonical-nonpowerful": CANONICAL_NONPOWERFUL,
    "same-sign": SAME_SIGN_NM1,
    "different-sign": DIFFERENT_SIGN_NM1,
}


def policy_named(name: str) -> SignPolicy:
    try:
        return _POLICIES_BY_NAME[name]
    except KeyError:
        raise ValueError(
            f"unknown policy {name!r}; expected one of {sorted(_POLICIES_BY_NAME)}"
        ) from None


def _apply_signs(
    arcs: Sequence[tuple[int, int]],
    flips: Iterable[tuple[int, int]],
) -> list[tuple[int, int, int]]:
    flip_set = set(flips)
    return [(u, v, -1 if (u, v) in flip_set else 1) for u, v in arcs]


def _explicit_signs(
    arcs: Sequence[tuple[int, int]], policy: SignPolicy
) -> list[tuple[int, int, int]]:
    given = dict(policy.arc_signs or ())
    missing = [a for a in arcs if a not in given]
    extra = [a for a in given if a not in set(arcs)]
    if missing or extra:
        raise PolicyError(
            f"explicit policy must map the family arc set exactly; "
            f"missing {missing}, extraneous {extra}"
        )
    return [(u, v, given[(u, v)]) for u, v in arcs]


def _d1_arcs(n: int) -> list[tuple[int, int]]:
    return [(i, i + 1) for i in range(1, n)] + [(n, 1), (n - 1, 1)]


def _d2_arcs(n: int) -> list[tuple[int, int]]:
    return _d1_arcs(n) + [(n, 2)]


def build_d1(n: int, policy: SignPolicy = CANONICAL_NONPOWERFUL) -> SignedDigraph:
    """Signed d1 of order ``n`` (>= 3) under the given sign policy.

    The canonical non-powerful signing keeps every arc positive except one
    that lies only on the even-length cycle: the chord when n is odd (the
    (n-1)-cycle is even), the closing arc (n, 1) when n is even (the
    n-cycle is even).  Flipping the chord alone cannot work for even n
    because the chord sits on the odd cycle there.
    """
    if n < 3:
        raise ValueError("d1 needs order at least 3")
    arcs = _d1_arcs(n)
    if policy.kind == "all-positive":
        return SignedDigraph(n, _apply_signs(arcs, []))
    if policy.kind == "canonical-nonpowerful":
        flip = (n - 1, 1) if n % 2 else (n, 1)
        s = SignedDigraph(n, _apply_signs(arcs, [flip]))
        _validate_nonpowerful(s, "d1 canonical")
        return s
    if policy.kind == "explicit":
        return SignedDigraph(n, _explicit_signs(arcs, policy))
    raise PolicyError(
        f"policy {policy.kind!r} does not apply to d1 (it has no pair of (n-1)-cycles)"
    )


def build_d2(n: int, policy: SignPolicy) -> SignedDigraph:
    """Signed d2 of order ``n`` (>= 4) under the given sign policy.

    same-sign: equal signs on the two (n-1)-cycles while non-powerful.
    For odd n both (n-1)-cycles are even, so both must be negative: flip
    both chords.  For even n they are odd and the n-cycle must be negative
    instead: flip only the arc (n, 1), which no (n-1)-cycle uses.

    different-sign: flip the chord (n-1, 1) only, which lies on exactly one
    of the (n-1)-cycles; this is non-powerful for every n.
    """
    if n < 4:
        raise ValueError("d2 needs order at least 4")
    arcs = _d2_arcs(n)
    if policy.kind == "all-positive":
        return SignedDigraph(n, _apply_signs(arcs, []))
    if policy.kind == "same-sign":
        flips = [(n, 1)] if n % 2 == 0 else [(n - 1, 1), (n, 2)]
        s = SignedDigraph(n, _apply_signs(arcs, flips))
        _validate_d2_pair_signs(s, same=True)
        _validate_nonpowerful(s, "d2 same-sign")
        return s
    if policy.kind == "different-sign":
        s = SignedDigraph(n, _apply_signs(arcs, [(n - 1, 1)]))
        _validate_d2_pair_signs(s, same=False)
        _validate_nonpowerful(s, "d2 different-sign")
        return s
    if policy.kind == "explicit":
        return SignedDigraph(n, _explicit_signs(arcs, policy))
    if policy.kind == "canonical-nonpowerful":
        raise PolicyError(
            "canonical-nonpowerful is ambiguous for d2; choose same-sign or "
            "different-sign"
        )
    raise PolicyError(f"policy {policy.kind!r} does not apply to d2")


def _validate_nonpowerful(s: SignedDigraph, label: str) -> None:
    if is_powerful(s):
        raise PolicyError(f"{label} signing failed to be non-powerful")


def _validate_d2_pair_signs(s: SignedDigraph, same: bool) -> None:
    nm1_signs = [c.sign for c in cycles(s) if c.length == s.n - 1]
    if len(nm1_signs) != 2:
        raise PolicyError("d2 must carry exactly two (n-1)-cycles")
    if same and nm1_signs[0] != nm1_signs[1]:
        raise PolicyError("same-sign signing produced unequal (n-1)-cycle signs")
    if not same and nm1_signs[0] == nm1_signs[1]:
        raise PolicyError("different-sign signing produced equal (n-1)-cycle signs")


_SAMPLER_MAX_ATTEMPTS = 50_000


def random_primitive_digraph(n: int, arc_budget: int, seed: int) -> Digraph:
    """Rejection-sample a primitive digraph with exactly ``arc_budget`` arcs.

    Deterministic for a given seed.  Loops are part of the sample space.
    """
    rng = random.Random(seed)
    _check_budget(n, arc_budget)
    pairs = [(u, v) for u in range(1, n + 1) for v in range(1, n + 1)]
    for _ in range(_SAMPLER_MAX_ATTEMPTS):
        d = Digraph(n, rng.sample(pairs, arc_budget))
        if is_primitive(d):
            return d
    raise ValueError(
        f"no primitive digraph with {arc_budget} arcs on {n} vertices found "
        f"within {_SAMPLER_MAX_ATTEMPTS} attempts"
    )


def random_primitive_nonpowerful(n: int, arc_budget: int, seed: int) -> SignedDigraph:
    """Rejection-sample a primitive non-powerful signed digraph.

    Deterministic for a given seed: the same seed always returns the same
    signed digraph.
    """
    rng = random.Random(seed)
    _check_budget(n, arc_budget)
    pairs = [(u, v) for u in range(1, n + 1) for v in range(1, n + 1)]
    for _ in range(_SAMPLER_MAX_ATTEMPTS):
        chosen = rng.sample(pairs, arc_budget)
        s = SignedDigraph(n, [(u, v, rng.choice((1, -1))) for u, v in chosen])
        if is_primitive(s.underlying()) and not is_powerful(s):
            return s
    raise ValueError(
        f"no primitive non-powerful signed digraph with {arc_budget} arcs on "
        f"{n} vertices found within {_SAMPLER_MAX_ATTEMPTS} attempts"
    )


def _check_budget(n: int, arc_budget: int) -> None:
    if n < 2:
        raise ValueError("sampling needs order at least 2")
    if arc_budget > n * n:
        raise ValueError(f"arc budget {arc_budget} exceeds the {n * n} possible arcs")
    # Strong connectivity needs n arcs and primitivity at least two cycle
    # lengths, so n+1 arcs is the least workable budget.
    if arc_budget < n + 1:
        raise ValueError(
            f"arc budget {arc_budget} is too small; a primitive digraph on "
            f"{n} vertices needs at least {n + 1} arcs"
        )


def sample_nonpowerful_population(
    n: int, sample_count: int, seed: int
) -> list[SignedDigraph]:
    """The seeded sample population the gap verifier analyzes.

    Arc budgets are drawn from [n+2, 2n]: dense enough to be primitive
    often, sparse enough to keep exponents interesting.
    """
    rng = random.Random(seed)
    out = []
    for _ in range(sample_count):
        budget = rng.randint(n + 2, 2 * n)
        out.append(random_primitive_nonpowerful(n, budget, rng.getrandbits(32)))
    return out


def sample_signed_population(
    sample_count: int, seed: int, max_order: int = 4, max_arcs: int = 7
) -> list[SignedDigraph]:
    """Unconstrained small signed digraphs for oracle cross-checks."""
    rng = random.Random(seed)
    out = []
    for _ in range(sample_count):
        n = rng.randint(2, max_order)
        pairs = [(u, v) for u in range(1, n + 1) for v in range(1, n + 1)]
        budget = rng.randint(1, min(max_arcs, len(pairs)))
        chosen = rng.sample(pairs, budget)
        out.append(SignedDigraph(n, [(u, v, rng.choice((1, -1))) for u, v in chosen]))
    return out


@dataclass(frozen=True)
class VerificationOutcome:
    """One checked claim: a computed quantity against its allowed range.

    ``relation`` is "equals" (computed == target_low == target_high),
    "at-most" (computed <= target_high) or "outside-open-interval"
    (computed must not fall strictly between the targets).
    """

    claim: str
    n: int
    k: int
    relation: str
    target_low: int
    target_high: int
    computed: int
    passed: bool
    witness: tuple[int, ...] = ()
    note: str = ""

    def as_dict(self) -> dict:
        return {
            "claim": self.claim,
            "n": self.n,
            "k": self.k,
            "relation": self.relation,
            "target_low": self.target_low,
            "target_high": self.target_high,
            "computed": self.computed,
            "passed": self.passed,
            "witness": list(self.witness),
            "note": self.note,
        }


def _outcome(
    claim: str,
    n: int,
    k: int,
    relation: str,
    low: int,
    high: int,
    computed: int,
    witness: tuple[int, ...] = (),
    note: str = "",
) -> VerificationOutcome:
    if relation == "equals":
        passed = computed == low == high
    elif relation == "at-most":
        passed = computed <= high
    elif relation == "outside-open-interval":
        passed = not (low < computed < high)
    else:
        raise ValueError(f"unknown relation {relation!r}")
    return VerificationOutcome(
        claim=claim,
        n=n,
        k=k,
        relation=relation,
        target_low=low,
        target_high=high,
        computed=computed,
        passed=passed,
        witness=witness,
        note=note,
    )


def verify_closed_forms(
    n_values: Iterable[int] = (6, 7, 8),
    k_values: Iterable[int] | None = None,
) -> list[VerificationOutcome]:
    """Recompute the exact upper bases of both families and compare.

    Checks, for every requested n and k: d1 equals (2n-k)(n-1)+1, same-sign
    d2 equals (2n-k)(n-1), and different-sign d2 stays within
    (n-k+1)(n-1)+2.
    """
    ns = sorted(set(n_values))
    for n in ns:
        if not (6 <= n <= 9):
            raise ValueError("closed-form verification covers orders 6..9")
    out = []
    for n in ns:
        ks = sorted(set(k_values)) if k_values is not None else list(range(1, n + 1))
        d1 = upper_base_table(build_d1(n, CANONICAL_NONPOWERFUL))
        d2_same = upper_base_table(build_d2(n, SAME_SIGN_NM1))
        d2_diff = upper_base_table(build_d2(n, DIFFERENT_SIGN_NM1))
        for k in ks:
            if not (1 <= k <= n):
                raise ValueError(f"k must be in 1..{n}")
            r1 = d1[k - 1]
            expected = (2 * n - k) * (n - 1) + 1
            out.append(
                _outcome(
                    "d1-upper-base-closed-form", n, k, "equals",
                    expected, expected, r1.value, r1.witness,
                )
            )
            r2 = d2_same[k - 1]
            expected = (2 * n - k) * (n - 1)
            out.append(
                _outcome(
                    "d2-same-sign-upper-base-closed-form", n, k, "equals",
                    expected, expected, r2.value, r2.witness,
                )
            )
            r3 = d2_diff[k - 1]
            bound = (n - k + 1) * (n - 1) + 2
            out.append(
                _outcome(
                    "d2-different-sign-upper-base-bound", n, k, "at-most",
                    0, bound, r3.value, r3.witness,
                )
            )
    return out


def _gap_outcome(n: int, k: int, computed: int, note: str) -> VerificationOutcome:
    ceiling = (2 * n - k) * (n - 1)
    return _outcome(
        "upper-base-gap", n, k, "outside-open-interval",
        ceiling - 3, ceiling, computed, note=note,
    )


def verify_third_bound_and_gap(
    n: int,
    k_values: Iterable[int] | None = None,
    sample_count: int = 200,
    seed: int = 0,
    extra: Iterable[SignedDigraph] = (),
) -> list[VerificationOutcome]:
    """Sampled evidence for the third bound and the gap at order ``n``.

    Draws primitive non-powerful samples, checks every sample whose shape
    is neither family against the ceiling (2n-k)(n-1)-3, checks samples
    shaped like d1 against that family's exact value, and checks the whole
    analyzed population (samples, both families, any extras) for values
    inside the open interval ((2n-k)(n-1)-3, (2n-k)(n-1)).  Evidence, not
    proof: the population is a sample, never an exhaustive enumeration.
    """
    if n < 6:
        raise ValueError("the third bound and gap are asserted for order >= 6 only")
    ks = sorted(set(k_values)) if k_values is not None else sorted({1, 2, n})
    for k in ks:
        if not (1 <= k <= n):
            raise ValueError(f"k must be in 1..{n}")
    population: list[tuple[str, SignedDigraph]] = [
        ("d1-canonical", build_d1(n, CANONICAL_NONPOWERFUL)),
        ("d2-same-sign", build_d2(n, SAME_SIGN_NM1)),
        ("d2-different-sign", build_d2(n, DIFFERENT_SIGN_NM1)),
    ]
    for i, s in enumerate(sample_nonpowerful_population(n, sample_count, seed)):
        population.append((f"sample-{i}", s))
    for i, s in enumerate(extra):
        population.append((f"extra-{i}", s))

    out = []
    for label, s in population:
        d = s.underlying()
        iso_d1 = isomorphic_to(d, "d1")
        iso_d2 = isomorphic_to(d, "d2")
        table = upper_base_table(s)
        for k in ks:
            result = table[k - 1]
            ceiling = (2 * n - k) * (n - 1)
            if iso_d1:
                out.append(
                    _outcome(
                        "isomorph-d1-exact-value", n, k, "equals",
                        ceiling + 1, ceiling + 1, result.value, result.witness,
                        note=f"{label}: d1-shaped, excluded from the third bound",
                    )
                )
            elif iso_d2:
                out.append(
                    _outcome(
                        "isomorph-d2-at-family-ceiling", n, k, "at-most",
                        0, ceiling, result.value, result.witness,
                        note=f"{label}: d2-shaped, excluded from the third bound",
                    )
                )
            else:
                out.append(
                    _outcome(
                        "upper-base-third-bound", n, k, "at-most",
                        0, ceiling - 3, result.value, result.witness, note=label,
                    )
                )
            out.append(_gap_outcome(n, k, result.value, note=label))
    return out


def verify_oracle_agreement(
    sample_count: int = 500,
    seed: int = 0,
    max_order: int = 4,
    max_arcs: int = 7,
    max_length: int = 8,
) -> list[VerificationOutcome]:
    """Compare the matrix path against brute-force walk enumeration.

    Each sampled signed digraph is checked at every vertex pair and every
    length up to ``max_length``; the outcome counts disagreeing entries,
    which must be zero.
    """
    out = []
    samples = sample_signed_population(sample_count, seed, max_order, max_arcs)
    for index, s in enumerate(samples):
        mismatches = 0
        for l in range(1, max_length + 1):
            grid = sssd_matrix(s, l)
            power = s.power(l)
            for u in range(1, s.n + 1):
                for v in range(1, s.n + 1):
                    pos, neg = enumerate_signs(s, u, v, l)
                    entry = power.entry(u, v)
                    if (pos, neg) != (bool(entry & 1), bool(entry & 2)):
                        mismatches += 1
                    if grid[u - 1][v - 1] != (pos and neg):
                        mismatches += 1
        out.append(
            _outcome(
                "matrix-vs-walk-enumeration", s.n, 0, "equals", 0, 0, mismatches,
                note=f"sample-{index}",
            )
        )
    return out

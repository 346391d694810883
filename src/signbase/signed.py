"""Signed digraphs and their base analysis.

A signed digraph assigns +1 or -1 to every arc; a walk's sign is the
product over its arcs.  Two walks with the same endpoints and length but
different signs (an "SSSD pair") are the central object: the base of a
vertex set X is the least length p at which every vertex receives such a
pair from somewhere in X, and the kth upper base maximizes that over all
k-element X.  This module computes those quantities exactly from the power
sequence of the arc-sign matrix, plus the structural upper bounds that
come from cycle pairs.
"""

from __future__ import annotations

import enum
import threading
from dataclasses import dataclass
from itertools import combinations, count
from math import lcm
from typing import Iterable

from .digraph import (
    Digraph,
    _coverage_lengths,
    _least_uncovered,
    _vertex_mask,
    diameter,
    enumerate_cycles,
    is_primitive,
    multiexponent_table,
)
from .errors import CapacityError, ConsistencyError, StructuralError
from .gsign import MAX_ORDER, GenSign, PowerTrace, SignPattern, _first_repeat, mat_mul


class SignedDigraph:
    """Digraph on vertices 1..n whose arcs carry signs +1 or -1.

    At most one arc per ordered pair: parallel arcs of opposite sign have
    no sign-matrix counterpart and are rejected.  Instances are immutable;
    derived data (underlying digraph, sign matrix, matrix powers, cycles)
    is cached internally behind a lock, so values are safely shareable
    across threads.
    """

    __slots__ = (
        "n",
        "arcs",
        "_signs",
        "_lock",
        "_underlying",
        "_pattern",
        "_pow_cache",
        "_cycles",
        "_trace",
    )

    def __init__(self, n: int, arcs: Iterable[tuple[int, int, int]]):
        if n < 1:
            raise ValueError("order must be at least 1")
        if n > MAX_ORDER:
            raise CapacityError(f"order {n} exceeds the supported maximum {MAX_ORDER}")
        signs: dict[tuple[int, int], int] = {}
        for u, v, sign in arcs:
            if not (1 <= u <= n and 1 <= v <= n):
                raise ValueError(f"arc ({u}, {v}) out of range for order {n}")
            if sign not in (1, -1):
                raise ValueError(f"arc ({u}, {v}) must carry sign +1 or -1, got {sign!r}")
            if (u, v) in signs:
                extra = (
                    "; parallel arcs of opposite sign cannot be expressed "
                    "as a single sign-matrix entry"
                    if signs[(u, v)] != sign
                    else ""
                )
                raise ValueError(f"duplicate arc ({u}, {v}){extra}")
            signs[(u, v)] = sign
        object.__setattr__(self, "n", n)
        object.__setattr__(
            self, "arcs", tuple(sorted((u, v, s) for (u, v), s in signs.items()))
        )
        object.__setattr__(self, "_signs", signs)
        object.__setattr__(self, "_lock", threading.Lock())
        object.__setattr__(self, "_underlying", None)
        object.__setattr__(self, "_pattern", None)
        object.__setattr__(self, "_pow_cache", [])
        object.__setattr__(self, "_cycles", None)
        object.__setattr__(self, "_trace", None)

    def __setattr__(self, name, value):
        raise AttributeError("SignedDigraph is immutable")

    def _set(self, name, value):
        object.__setattr__(self, name, value)

    @classmethod
    def from_pattern(cls, a: SignPattern) -> "SignedDigraph":
        """Inverse of :meth:`pattern`; requires a pure pattern."""
        arcs = []
        for i in range(1, a.n + 1):
            for j in range(1, a.n + 1):
                entry = a.entry(i, j)
                if entry is GenSign.POS:
                    arcs.append((i, j, 1))
                elif entry is GenSign.NEG:
                    arcs.append((i, j, -1))
                elif entry is GenSign.AMB:
                    raise ValueError("pattern with ambiguous entries has no arc form")
        return cls(a.n, arcs)

    def arc_sign(self, u: int, v: int) -> int:
        """Sign of the arc (u, v); 0 when absent."""
        return self._signs.get((u, v), 0)

    def underlying(self) -> Digraph:
        with self._lock:
            if self._underlying is None:
                self._set("_underlying", Digraph(self.n, [(u, v) for u, v, _ in self.arcs]))
            return self._underlying

    def pattern(self) -> SignPattern:
        """The n x n arc-sign matrix of this signed digraph."""
        with self._lock:
            if self._pattern is None:
                pos = [0] * self.n
                neg = [0] * self.n
                for u, v, sign in self.arcs:
                    if sign > 0:
                        pos[u - 1] |= 1 << (v - 1)
                    else:
                        neg[u - 1] |= 1 << (v - 1)
                self._set("_pattern", SignPattern(self.n, pos, neg))
            return self._pattern

    def power(self, l: int) -> SignPattern:
        """``l``-th matrix power (l >= 1), from a shared growing cache."""
        if l < 1:
            raise ValueError("power index must be at least 1")
        a = self.pattern()
        with self._lock:
            cache = self._pow_cache
            while len(cache) < l:
                cache.append(mat_mul(cache[-1], a) if cache else a)
            return cache[l - 1]

    def amb_row_masks(self, l: int) -> list[int]:
        """Per-row bitmasks of the ambiguous entries of the l-th power."""
        p = self.power(l)
        return [pr & nr for pr, nr in zip(p.pos_rows, p.neg_rows)]

    def power_trace(self) -> PowerTrace:
        """First repetition in the power sequence, read from the power cache."""
        with self._lock:
            trace = self._trace
        if trace is None:
            trace = _first_repeat(self.power(l) for l in count(1))
            with self._lock:
                self._set("_trace", trace)
        return trace

    def __eq__(self, other) -> bool:
        if not isinstance(other, SignedDigraph):
            return NotImplemented
        return self.n == other.n and self.arcs == other.arcs

    def __hash__(self) -> int:
        return hash((self.n, self.arcs))

    def __repr__(self) -> str:
        return f"SignedDigraph(n={self.n}, arcs={list(self.arcs)!r})"


@dataclass(frozen=True)
class CycleRecord:
    """A simple cycle with its length and the product of its arc signs."""

    vertices: tuple[int, ...]
    length: int
    sign: int


class PairCondition(enum.Enum):
    """Why a cycle pair certifies non-powerfulness."""

    #: Lengths of opposite parity and the even cycle is negative.
    ODD_EVEN_NEGATIVE = "odd-even-negative"
    #: Both lengths odd and the signs differ.
    ODD_ODD_OPPOSITE = "odd-odd-opposite"


@dataclass(frozen=True)
class DistinguishedPair:
    """Cycle pair meeting one of the two non-powerfulness conditions.

    Walking cycle 1 ``lcm/p1`` times and cycle 2 ``lcm/p2`` times gives
    closed walks of the same length (``lcm_length``) and opposite signs;
    ``p2`` copies of cycle 1 against ``p1`` copies of cycle 2 do the same
    at ``product_length``.
    """

    c1: CycleRecord
    c2: CycleRecord
    condition: PairCondition
    lcm_length: int
    product_length: int


def cycles(s: SignedDigraph) -> tuple[CycleRecord, ...]:
    """All simple cycles of ``s`` with their signs, canonically rotated."""
    with s._lock:
        cached = s._cycles
    if cached is not None:
        return cached
    records = []
    for verts in enumerate_cycles(s.underlying()):
        sign = 1
        for i, u in enumerate(verts):
            sign *= s.arc_sign(u, verts[(i + 1) % len(verts)])
        records.append(CycleRecord(vertices=verts, length=len(verts), sign=sign))
    result = tuple(records)
    with s._lock:
        s._set("_cycles", result)
    return result


def _require_primitive(s: SignedDigraph, what: str) -> None:
    if not is_primitive(s.underlying()):
        raise StructuralError(f"{what} requires a primitive signed digraph")


def _cycle_classes(s: SignedDigraph) -> set[tuple[int, int]]:
    """The distinct (length, sign) classes of the cycles of ``s``; there are
    at most 2n of them."""
    # Signed lengths are small cached ints, so this pass over possibly
    # millions of cycles allocates nothing per cycle.
    signed_lengths = {c.length * c.sign for c in cycles(s)}
    return {(abs(x), 1 if x > 0 else -1) for x in signed_lengths}


def _pair_condition(a: tuple[int, int], b: tuple[int, int]) -> PairCondition | None:
    """Which condition cycles of the (length, sign) classes ``a`` and ``b``
    meet, or None when such a pair does not certify non-powerfulness.

    Two cycles of one class never qualify, so a signed digraph is
    non-powerful exactly when two of its classes do.
    """
    (la, sa), (lb, sb) = a, b
    if la % 2 != lb % 2:
        even_sign = sb if la % 2 else sa
        return PairCondition.ODD_EVEN_NEGATIVE if even_sign < 0 else None
    if la % 2 and sa != sb:
        return PairCondition.ODD_ODD_OPPOSITE
    return None


def is_powerful(s: SignedDigraph) -> bool:
    """True iff no power of the sign matrix ever develops an ambiguous entry.

    Decided by a switching test, without listing cycles.  By Li, Hall and
    Eschenbach (LAA 1994) a primitive signed digraph is powerful exactly
    when no cycle pair certifies otherwise (an odd cycle with a negative
    even cycle, or two odd cycles of opposite sign), that is, when for some
    ``eps`` in {+1, -1} every cycle C has sign ``eps ** len(C)``.  Then
    multiplying every arc sign by ``eps`` makes all cycles positive; for a
    strongly connected digraph the directed cycles span the cycle space, so
    by Harary's balance theorem (1953) that holds exactly when vertex signs
    ``sigma`` exist with ``sign(u, v) = eps * sigma(u) * sigma(v)`` on every
    arc, direction ignored (a loop needs ``eps * sign = +1``).  One
    traversal from vertex 1 per ``eps`` either finds such ``sigma`` or a
    conflicting arc.  :func:`is_powerful_by_powers` evaluates the defining
    property directly; the two must always agree.
    """
    _require_primitive(s, "the powerfulness test")
    links: list[list[tuple[int, int]]] = [[] for _ in range(s.n)]
    for u, v, sign in s.arcs:
        links[u - 1].append((v - 1, sign))
        links[v - 1].append((u - 1, sign))
    return _switches_to_sign(links, 1) or _switches_to_sign(links, -1)


def _switches_to_sign(links: list[list[tuple[int, int]]], eps: int) -> bool:
    """Whether vertex signs ``sigma`` exist with ``sign = eps * sigma(u) *
    sigma(v)`` for every link (v, sign) in ``links[u]``, for every u.  The
    links must connect every vertex to vertex 0."""
    sigma = [0] * len(links)
    sigma[0] = 1
    stack = [0]
    while stack:
        u = stack.pop()
        for v, sign in links[u]:
            want = eps * sign * sigma[u]
            if not sigma[v]:
                sigma[v] = want
                stack.append(v)
            elif sigma[v] != want:
                return False
    return True


def is_powerful_by_powers(s: SignedDigraph) -> bool:
    """Powerfulness straight from the definition: scan every distinct power.

    Powers repeat from ``base_l`` with period ``period_p``, so checking
    indices 1 .. base_l + period_p - 1 covers the whole infinite sequence.
    """
    trace = s.power_trace()
    last = trace.base_l + trace.period_p - 1
    return not any(any(m for m in s.amb_row_masks(l)) for l in range(1, last + 1))


def distinguished_pairs(s: SignedDigraph) -> list[DistinguishedPair]:
    """All unordered cycle pairs certifying non-powerfulness.

    For mixed parities the odd cycle is reported first.  Sorted by
    (lcm length, lengths, vertex sequences) so reports are reproducible.
    """
    _require_primitive(s, "the cycle-pair search")
    records = cycles(s)
    pairs = []
    for a, b in combinations(records, 2):
        cond = _pair_condition((a.length, a.sign), (b.length, b.sign))
        if cond is PairCondition.ODD_EVEN_NEGATIVE:
            odd, even = (a, b) if a.length % 2 else (b, a)
            pairs.append(_make_pair(odd, even, cond))
        elif cond is PairCondition.ODD_ODD_OPPOSITE:
            c1, c2 = sorted((a, b), key=lambda c: (c.length, c.vertices))
            pairs.append(_make_pair(c1, c2, cond))
    pairs.sort(
        key=lambda p: (
            p.lcm_length,
            p.c1.length,
            p.c2.length,
            p.c1.vertices,
            p.c2.vertices,
        )
    )
    return pairs


def _make_pair(c1: CycleRecord, c2: CycleRecord, cond: PairCondition) -> DistinguishedPair:
    return DistinguishedPair(
        c1=c1,
        c2=c2,
        condition=cond,
        lcm_length=lcm(c1.length, c2.length),
        product_length=c1.length * c2.length,
    )


def sssd_matrix(s: SignedDigraph, l: int) -> tuple[tuple[bool, ...], ...]:
    """Boolean matrix: entry (u, v) is True iff a pair of same-length,
    opposite-sign walks of length ``l`` runs from u to v.

    These are exactly the ambiguous entries of the l-th power of the
    arc-sign matrix; walk enumeration must agree with this bit for bit.
    """
    if l < 1:
        raise ValueError("walk length must be positive")
    masks = s.amb_row_masks(l)
    return tuple(
        tuple(bool(masks[u] >> v & 1) for v in range(s.n)) for u in range(s.n)
    )


def _require_base_input(s: SignedDigraph, what: str) -> None:
    _require_primitive(s, what)
    if is_powerful(s):
        raise StructuralError(f"{what} is defined for non-powerful signed digraphs only")


def _scan_cap(s: SignedDigraph, k: int) -> int:
    # For order >= 6 the closed-form ceiling (2n-k)(n-1)+1 bounds every
    # base, so passing it signals a bug.  Below order 6 no such ceiling is
    # asserted; the power sequence stabilizes at the all-ambiguous matrix,
    # so its base plus period always suffices.
    n = s.n
    if n >= 6:
        return (2 * n - k) * (n - 1) + 1
    trace = s.power_trace()
    return trace.base_l + trace.period_p


def set_base(s: SignedDigraph, xs: Iterable[int]) -> int:
    """Base of the vertex set ``xs``: least p at which every vertex receives
    an opposite-sign walk pair of length exactly p from somewhere in ``xs``.

    For strongly connected inputs the coverage predicate is monotone in p
    (extend both walks of a pair through an in-neighbor), which justifies
    the upward scan; the definition alone does not promise monotonicity
    without strong connectivity, and this function requires primitivity.
    """
    _require_base_input(s, "the set base")
    x_mask = _vertex_mask(s.n, xs)
    if not x_mask:
        raise ValueError("vertex set must be nonempty")
    k = bin(x_mask).count("1")
    full = (1 << s.n) - 1
    cap = _scan_cap(s, k)
    for p in range(1, cap + 1):
        masks = s.amb_row_masks(p)
        union = 0
        m = x_mask
        while m:
            u = (m & -m).bit_length() - 1
            m &= m - 1
            union |= masks[u]
        if union == full:
            return p
    raise ConsistencyError(
        f"set-base scan passed its ceiling {cap}; this indicates a bug"
    )


@dataclass(frozen=True)
class UpperBaseResult:
    """Value of the kth upper base together with a maximizing vertex set."""

    k: int
    value: int
    witness: tuple[int, ...]


def kth_upper_base(s: SignedDigraph, k: int) -> UpperBaseResult:
    """Largest set base over all k-element vertex sets, with a witness.

    Coverage is monotone in the length (see :func:`set_base`), so this is
    the first length p at which every k-set is served: no column of the
    p-th ambiguity matrix may miss k or more rows.  The witness is the
    lexicographically smallest k-set still unserved at p - 1, which is the
    smallest among the k-sets whose base is the maximum.
    """
    _require_base_input(s, "the upper base")
    if not (1 <= k <= s.n):
        raise ValueError(f"k must be in 1..{s.n}")
    return _upper_bases(s, [k])[0]


def upper_base_table(s: SignedDigraph) -> tuple[UpperBaseResult, ...]:
    """Upper bases with witnesses for every k = 1..n from a single scan of
    the power sequence, as in :func:`kth_upper_base`."""
    _require_base_input(s, "the upper base")
    return tuple(_upper_bases(s, list(range(1, s.n + 1))))


def _upper_bases(s: SignedDigraph, k_values: list[int]) -> list[UpperBaseResult]:
    found = _coverage_lengths(
        ((p, s.amb_row_masks(p)) for p in count(1)),
        {k: _scan_cap(s, k) for k in k_values},
        "upper-base",
    )
    results = []
    for k in k_values:
        p, before = found[k]
        results.append(UpperBaseResult(k=k, value=p, witness=_least_uncovered(before, k)))
    return results


@dataclass(frozen=True)
class WalkPairBound:
    """Upper bound on the kth upper base from one opposite-sign walk pair.

    If some pair of same-length opposite-sign walks of length r exists
    anywhere, every vertex set of size k is served within
    F(k) + diameter + r: route to the pair's source in F(k) + slack steps,
    traverse either walk, then follow a shortest path onward.
    """

    k: int
    value: int
    multiexponent: int
    diameter: int
    pair_length: int
    source: int
    target: int


def walk_pair_bounds(s: SignedDigraph) -> tuple[WalkPairBound, ...]:
    """Tightest walk-pair bound for every k = 1..n: uses the least r
    carrying any opposite-sign pair, found by scanning the power sequence.
    Only F(k) depends on k."""
    _require_base_input(s, "the walk-pair bound")
    d = s.underlying()
    diam = diameter(d)
    for r in range(1, _scan_cap(s, 1) + 1):
        masks = s.amb_row_masks(r)
        u = next((u for u, m in enumerate(masks) if m), None)
        if u is not None:
            v = (masks[u] & -masks[u]).bit_length() - 1
            return tuple(
                WalkPairBound(
                    k=k,
                    value=f_k + diam + r,
                    multiexponent=f_k,
                    diameter=diam,
                    pair_length=r,
                    source=u + 1,
                    target=v + 1,
                )
                for k, f_k in enumerate(multiexponent_table(d), 1)
            )
    raise ConsistencyError(
        "no opposite-sign walk pair found below the stabilization ceiling"
    )


@dataclass(frozen=True)
class ClosedWalkCandidate:
    """Vertices carrying closed opposite-sign walk pairs of one common length."""

    closed_length: int
    vertices: tuple[int, ...]
    value: int


@dataclass(frozen=True)
class ClosedWalkBound:
    """Upper bound on the kth upper base from closed walk pairs.

    If every vertex in a set V1 carries a closed opposite-sign pair of one
    common length r, every vertex set of size k is served within
    F(k) + r + n - |V1|.  Candidate lengths come from the cycle-pair
    certificates (their lcm closed-walk lengths); the carrying sets are
    read off the diagonal ambiguities of the corresponding power, which
    subsumes the vertices shared by the two cycles.
    """

    k: int
    value: int | None
    multiexponent: int
    candidates: tuple[ClosedWalkCandidate, ...]


def closed_walk_bounds(s: SignedDigraph) -> tuple[ClosedWalkBound, ...]:
    """Closed-walk bound for every k = 1..n.  The candidate lengths and
    their carrying sets do not depend on k; only F(k) does."""
    _require_base_input(s, "the closed-walk bound")
    classes = _cycle_classes(s)
    lengths = sorted(
        {lcm(a[0], b[0]) for a, b in combinations(classes, 2) if _pair_condition(a, b)}
    )
    carried = []
    for r in lengths:
        masks = s.amb_row_masks(r)
        carriers = tuple(u + 1 for u in range(s.n) if masks[u] >> u & 1)
        if carriers:
            carried.append((r, carriers))
    rows = []
    for k, f_k in enumerate(multiexponent_table(s.underlying()), 1):
        candidates = tuple(
            ClosedWalkCandidate(
                closed_length=r, vertices=carriers, value=f_k + r + s.n - len(carriers)
            )
            for r, carriers in carried
        )
        value = min((c.value for c in candidates), default=None)
        rows.append(
            ClosedWalkBound(k=k, value=value, multiexponent=f_k, candidates=candidates)
        )
    return tuple(rows)

"""Independent reference computations for checking signbase outputs.

Nothing here imports signbase.  A signed digraph is a pair ``(n, arcs)``
with vertices 1..n and ``arcs`` a sequence of ``(tail, head, sign)``
triples, sign +1 or -1.  The walk-sign DP works on plain Python sets of
``(vertex, sign)`` pairs, primitivity comes from breadth-first levels, and
powerfulness from switching (balance), so none of it shares an algorithm
with the bit-packed matrix powers and cycle enumeration of the program.
"""

from __future__ import annotations

import hashlib
import random
from itertools import combinations
from math import gcd
from typing import Iterable, Sequence

Arc = tuple[int, int, int]


# -- canonical text and digest ------------------------------------------------


def sdg_text(n: int, arcs: Iterable[Arc]) -> str:
    """Canonical ``.sdg`` text: header, then arcs sorted by tail and head."""
    lines = [f"sdg n={n}"]
    for u, v, s in sorted(arcs):
        lines.append(f"{u} {v} {'+' if s > 0 else '-'}")
    return "\n".join(lines) + "\n"


def input_digest(n: int, arcs: Iterable[Arc]) -> str:
    return "sha256:" + hashlib.sha256(sdg_text(n, arcs).encode()).hexdigest()


# -- walk-sign set-base DP ----------------------------------------------------


def _out(n: int, arcs: Iterable[Arc]) -> list[list[tuple[int, int]]]:
    out: list[list[tuple[int, int]]] = [[] for _ in range(n + 1)]
    for u, v, s in arcs:
        out[u].append((v, s))
    return out


def _cap(n: int) -> int:
    # Generous: every primitive non-powerful input of order n is covered
    # well within this length (the proven ceiling is (2n-1)(n-1)+1).
    return 4 * n * n + 8


def walk_sign_sets(n: int, arcs: Iterable[Arc], source: int, length: int):
    """Sets of ``(vertex, sign)`` reached from ``source`` by walks of length
    exactly 1..length; entry p-1 is the set for length p."""
    out = _out(n, arcs)
    cur = {(source, 1)}
    seq = []
    for _ in range(length):
        cur = {(w, s * a) for v, s in cur for w, a in out[v]}
        seq.append(frozenset(cur))
    return seq


def _ambiguous(cur: set) -> set[int]:
    """Vertices reached with both signs."""
    return {v for v, s in cur if s > 0 and (v, -1) in cur}


def set_base(n: int, arcs: Sequence[Arc], sources: Iterable[int]) -> int | None:
    """Least p >= 1 at which every vertex v has some source x with walks of
    both signs and length exactly p from x to v; None if not within the cap."""
    out = _out(n, arcs)
    curs = [{(x, 1)} for x in set(sources)]
    if not curs:
        raise ValueError("source set must be nonempty")
    for p in range(1, _cap(n) + 1):
        covered: set[int] = set()
        for i, cur in enumerate(curs):
            curs[i] = cur = {(w, s * a) for v, s in cur for w, a in out[v]}
            covered |= _ambiguous(cur)
        if len(covered) == n:
            return p
    return None


def singleton_sequences(n: int, arcs: Sequence[Arc]) -> list[list[frozenset]] | None:
    """Per source x, the sets of vertices x reaches with both signs, for
    lengths 1, 2, ... up to the first length at which that set is every
    vertex (x's own base); None if some x never gets there."""
    out = _out(n, arcs)
    seqs = []
    for x in range(1, n + 1):
        cur = {(x, 1)}
        seq: list[frozenset] = []
        while not seq or len(seq[-1]) < n:
            if len(seq) == _cap(n):
                return None
            cur = {(w, s * a) for v, s in cur for w, a in out[v]}
            seq.append(frozenset(_ambiguous(cur)))
        seqs.append(seq)
    return seqs


def _union_base(seqs: list[list[frozenset]], combo: Iterable[int], n: int) -> int:
    chosen = [seqs[x - 1] for x in combo]
    for p in range(min(len(s) for s in chosen)):
        union: set[int] = set()
        for s in chosen:
            union |= s[p]
        if len(union) == n:
            return p + 1
    raise AssertionError("a member's own base bounds the union's")


def upper_base_1(n: int, arcs: Sequence[Arc]) -> int | None:
    """``L_1``: the largest set base over all singletons."""
    seqs = singleton_sequences(n, arcs)
    return None if seqs is None else max(len(s) for s in seqs)


def upper_base_n(n: int, arcs: Sequence[Arc]) -> int | None:
    """``L_n``: the set base of the full vertex set."""
    return set_base(n, arcs, range(1, n + 1))


def upper_bases(n: int, arcs: Sequence[Arc], ks: Iterable[int]) -> dict[int, int] | None:
    """``L_k`` for each requested k, exhaustively over k-subsets; the
    per-source sets are computed once and shared.  Small n only."""
    seqs = singleton_sequences(n, arcs)
    if seqs is None:
        return None
    return {
        k: max(_union_base(seqs, combo, n) for combo in combinations(range(1, n + 1), k))
        for k in ks
    }


# -- structure: primitivity and powerfulness -----------------------------------


def _levels(n: int, adj: list[list[int]], start: int) -> list[int | None]:
    level: list[int | None] = [None] * (n + 1)
    level[start] = 0
    frontier = [start]
    while frontier:
        nxt = []
        for v in frontier:
            for w in adj[v]:
                if level[w] is None:
                    level[w] = level[v] + 1
                    nxt.append(w)
        frontier = nxt
    return level


def is_primitive(n: int, arcs: Sequence[Arc]) -> bool:
    """Strongly connected, and the cycle lengths have gcd 1.

    For a strongly connected digraph, the gcd of ``level(u) + 1 - level(v)``
    over all arcs (u, v), with BFS levels from one root, is its period.
    """
    fwd: list[list[int]] = [[] for _ in range(n + 1)]
    back: list[list[int]] = [[] for _ in range(n + 1)]
    for u, v, _ in arcs:
        fwd[u].append(v)
        back[v].append(u)
    level = _levels(n, fwd, 1)
    if None in level[1:]:
        return False
    if None in _levels(n, back, 1)[1:]:
        return False
    g = 0
    for u, v, _ in arcs:
        g = gcd(g, abs(level[u] + 1 - level[v]))
    return g == 1


def is_powerful(n: int, arcs: Sequence[Arc]) -> bool:
    """Switching test for a strongly connected signed digraph.

    Powerful iff for some eps in {+1, -1} there are vertex signs sigma with
    sign(u, v) = eps * sigma(u) * sigma(v) on every arc (Harary's balance
    theorem applied to eps times the arc signs).
    """
    nbrs: list[list[tuple[int, int]]] = [[] for _ in range(n + 1)]
    for u, v, s in arcs:
        nbrs[u].append((v, s))
        nbrs[v].append((u, s))
    for eps in (1, -1):
        sigma = [0] * (n + 1)
        balanced = True
        for root in range(1, n + 1):
            if sigma[root] or not balanced:
                continue
            sigma[root] = 1
            stack = [root]
            while stack and balanced:
                u = stack.pop()
                for v, s in nbrs[u]:
                    want = eps * s * sigma[u]
                    if sigma[v] == 0:
                        sigma[v] = want
                        stack.append(v)
                    elif sigma[v] != want:
                        balanced = False
                        break
        if balanced:
            return True
    return False


# -- the extremal families and their closed forms ------------------------------


def d1_arcs(n: int) -> list[Arc]:
    """d1 with its canonical non-powerful signing: the Hamiltonian cycle
    1 -> ... -> n -> 1 plus the chord n-1 -> 1, one arc negative on the
    even cycle (the chord for odd n, the arc n -> 1 for even n)."""
    flip = (n - 1, 1) if n % 2 else (n, 1)
    pairs = [(i, i + 1) for i in range(1, n)] + [(n, 1), (n - 1, 1)]
    return [(u, v, -1 if (u, v) == flip else 1) for u, v in pairs]


def d2_arcs(n: int, same_sign: bool) -> list[Arc]:
    """d2 (d1 plus the chord n -> 2).  same_sign gives the two (n-1)-cycles
    equal signs (negative n-cycle for even n, both chords negative for odd
    n); otherwise only the chord n-1 -> 1 is negative."""
    pairs = [(i, i + 1) for i in range(1, n)] + [(n, 1), (n - 1, 1), (n, 2)]
    if same_sign:
        flips = {(n, 1)} if n % 2 == 0 else {(n - 1, 1), (n, 2)}
    else:
        flips = {(n - 1, 1)}
    return [(u, v, -1 if (u, v) in flips else 1) for u, v in pairs]


def family_arcs(family: str, n: int) -> list[Arc]:
    if family == "d1":
        return d1_arcs(n)
    if family == "d2-same":
        return d2_arcs(n, True)
    if family == "d2-diff":
        return d2_arcs(n, False)
    raise ValueError(f"unknown family {family!r}")


def ceiling(n: int, k: int) -> int:
    """(2n-k)(n-1): the d2 same-sign value, one below the d1 value."""
    return (2 * n - k) * (n - 1)


def closed_upper_base(family: str, n: int, k: int) -> int:
    """Exact ``L_k`` for d1 and d2 same-sign; for d2 different-sign the
    upper bound (n-k+1)(n-1)+2."""
    if family == "d1":
        return ceiling(n, k) + 1
    if family == "d2-same":
        return ceiling(n, k)
    if family == "d2-diff":
        return (n - k + 1) * (n - 1) + 2
    raise ValueError(f"unknown family {family!r}")


def closed_multiexponent(family: str, n: int, k: int) -> int:
    """``F_k``: (n-k)(n-1)+1 for d1 (k < n), (n-k)(n-1) for d2; F_n = 0."""
    if k == n:
        return 0
    return (n - k) * (n - 1) + (1 if family == "d1" else 0)


def closed_exponent(family: str, n: int) -> int:
    return (n - 1) ** 2 + (1 if family == "d1" else 0)


def relabel(arcs: Iterable[Arc], perm: Sequence[int]) -> list[Arc]:
    """Apply the vertex map ``v -> perm[v - 1]``."""
    return sorted((perm[u - 1], perm[v - 1], s) for u, v, s in arcs)


# -- the gap suite's seeded population ------------------------------------------

SAMPLER_MAX_ATTEMPTS = 50_000


def nonpowerful_population(n: int, count: int, seed: int) -> list[list[Arc]]:
    """The primitive non-powerful samples ``verify --suite gap`` draws.

    Replays the documented draw sequence (a budget in [n+2, 2n] and a
    32-bit sub-seed per sample; per attempt, a sample of the n*n ordered
    pairs and one sign each) and accepts with this module's own tests.
    """
    rng = random.Random(seed)
    pairs = [(u, v) for u in range(1, n + 1) for v in range(1, n + 1)]
    out = []
    for _ in range(count):
        budget = rng.randint(n + 2, 2 * n)
        sub = random.Random(rng.getrandbits(32))
        for _ in range(SAMPLER_MAX_ATTEMPTS):
            chosen = sub.sample(pairs, budget)
            arcs = [(u, v, sub.choice((1, -1))) for u, v in chosen]
            if is_primitive(n, arcs) and not is_powerful(n, arcs):
                out.append(sorted(arcs))
                break
        else:
            raise ValueError(f"no sample within {SAMPLER_MAX_ATTEMPTS} attempts")
    return out

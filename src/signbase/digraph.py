"""Structural analysis of unsigned digraphs.

Covers strong connectivity, diameter, simple-cycle enumeration, primitivity,
the exponent, set exponents and upper multiexponents.  Vertices are 1-based
in the public API; adjacency and reachability live in bit-packed row masks,
so a set's coverage check is a single-word union.  The maximum of a
coverage length over all k-sets never visits the sets: one private kernel
reads it off how many rows each column misses.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import reduce
from math import gcd
from operator import and_, or_
from typing import Iterable, Iterator, Mapping, Sequence

from .errors import CapacityError, ConsistencyError, StructuralError
from .gsign import MAX_ORDER

#: enumerate_cycles aborts rather than return more cycles than this.
CYCLE_OUTPUT_LIMIT = 10**6


class Digraph:
    """Digraph on vertices 1..n with a set of ordered arcs; loops allowed."""

    __slots__ = ("n", "arcs", "_out_masks", "_in_masks", "_out_lists")

    def __init__(self, n: int, arcs: Iterable[tuple[int, int]]):
        if n < 1:
            raise ValueError("order must be at least 1")
        if n > MAX_ORDER:
            raise CapacityError(f"order {n} exceeds the supported maximum {MAX_ORDER}")
        arc_set = set()
        for u, v in arcs:
            if not (1 <= u <= n and 1 <= v <= n):
                raise ValueError(f"arc ({u}, {v}) out of range for order {n}")
            arc_set.add((u, v))
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "arcs", tuple(sorted(arc_set)))
        out_masks = [0] * n
        in_masks = [0] * n
        for u, v in arc_set:
            out_masks[u - 1] |= 1 << (v - 1)
            in_masks[v - 1] |= 1 << (u - 1)
        object.__setattr__(self, "_out_masks", tuple(out_masks))
        object.__setattr__(self, "_in_masks", tuple(in_masks))
        object.__setattr__(
            self,
            "_out_lists",
            tuple(
                tuple(v for v in range(n) if out_masks[u] >> v & 1) for u in range(n)
            ),
        )

    def __setattr__(self, name, value):
        raise AttributeError("Digraph is immutable")

    def __eq__(self, other) -> bool:
        if not isinstance(other, Digraph):
            return NotImplemented
        return self.n == other.n and self.arcs == other.arcs

    def __hash__(self) -> int:
        return hash((self.n, self.arcs))

    def __repr__(self) -> str:
        return f"Digraph(n={self.n}, arcs={list(self.arcs)!r})"


def _reached_mask(d: Digraph, start: int, masks: Sequence[int]) -> int:
    """Bitmask of vertices reachable from 0-based ``start`` along ``masks``."""
    seen = 1 << start
    frontier = seen
    while frontier:
        nxt = 0
        m = frontier
        while m:
            v = (m & -m).bit_length() - 1
            m &= m - 1
            nxt |= masks[v]
        frontier = nxt & ~seen
        seen |= nxt
    return seen


def strongly_connected(d: Digraph) -> bool:
    """True iff every ordered vertex pair is joined by a directed path."""
    full = (1 << d.n) - 1
    return (
        _reached_mask(d, 0, d._out_masks) == full
        and _reached_mask(d, 0, d._in_masks) == full
    )


def _bfs_distances(d: Digraph, src: int) -> list[int | None]:
    """Shortest path lengths from 0-based ``src``; None when unreachable."""
    dist: list[int | None] = [None] * d.n
    dist[src] = 0
    frontier = 1 << src
    seen = frontier
    level = 0
    while frontier:
        level += 1
        nxt = 0
        m = frontier
        while m:
            v = (m & -m).bit_length() - 1
            m &= m - 1
            nxt |= d._out_masks[v]
        frontier = nxt & ~seen
        seen |= nxt
        m = frontier
        while m:
            v = (m & -m).bit_length() - 1
            m &= m - 1
            dist[v] = level
    return dist


def _all_distances(d: Digraph) -> list[list[int | None]]:
    return [_bfs_distances(d, u) for u in range(d.n)]


def diameter(d: Digraph) -> int:
    """Largest shortest-path distance over all ordered vertex pairs."""
    if not strongly_connected(d):
        raise StructuralError("diameter requires a strongly connected digraph")
    best = 0
    for row in _all_distances(d):
        for value in row:
            assert value is not None
            best = max(best, value)
    return best


def enumerate_cycles(d: Digraph, length_cap: int | None = None) -> list[tuple[int, ...]]:
    """All simple directed cycles of length <= ``length_cap``.

    Each cycle appears once, rotated so its minimal vertex comes first, and
    the result is sorted by (length, vertex sequence).  The search roots at
    each vertex in increasing order and only walks through larger vertices,
    which yields the canonical rotation for free.
    """
    cap = d.n if length_cap is None else length_cap
    if not (1 <= cap <= d.n):
        raise ValueError(f"length cap must be in 1..{d.n}")
    out_lists = d._out_lists
    cycles: list[tuple[int, ...]] = []
    path: list[int] = []
    on_path = [False] * d.n

    def extend(v: int, root: int) -> None:
        for w in out_lists[v]:
            if w == root:
                cycles.append(tuple(x + 1 for x in path))
                if len(cycles) > CYCLE_OUTPUT_LIMIT:
                    raise CapacityError(
                        f"more than {CYCLE_OUTPUT_LIMIT} cycles; tighten length_cap"
                    )
            elif w > root and not on_path[w] and len(path) < cap:
                path.append(w)
                on_path[w] = True
                extend(w, root)
                on_path[w] = False
                path.pop()

    for root in range(d.n):
        path = [root]
        on_path[root] = True
        extend(root, root)
        on_path[root] = False
    cycles.sort(key=lambda c: (len(c), c))
    return cycles


def _cycle_length_gcd(d: Digraph) -> int:
    """gcd of all closed-walk lengths of a strongly connected digraph.

    Computed from one BFS: every arc (u, v) closes a walk of length
    dist(u) + 1 - dist(v) modulo the period, so the gcd over arcs of these
    residues is the gcd of all cycle lengths.  Returns 0 when arc-free.
    """
    dist = _bfs_distances(d, 0)
    g = 0
    for u, v in d.arcs:
        du, dv = dist[u - 1], dist[v - 1]
        assert du is not None and dv is not None
        g = gcd(g, abs(du + 1 - dv))
    return g


def is_primitive(d: Digraph) -> bool:
    """True iff strongly connected with cycle lengths of gcd 1.

    Equivalent to some boolean power of the adjacency matrix being all-true.
    """
    return strongly_connected(d) and _cycle_length_gcd(d) == 1


def iter_reach_rows(d: Digraph) -> Iterator[tuple[int, list[int]]]:
    """Yield ``(l, rows)`` where ``rows[u]`` masks the vertices reachable
    from u by a walk of length exactly l; starts at l = 0 (identity)."""
    rows = [1 << u for u in range(d.n)]
    l = 0
    while True:
        yield l, rows
        nxt = []
        for mask in rows:
            acc = 0
            m = mask
            while m:
                v = (m & -m).bit_length() - 1
                m &= m - 1
                acc |= d._out_masks[v]
            nxt.append(acc)
        rows = nxt
        l += 1


@dataclass(frozen=True)
class ReachabilityProfile:
    """Boolean matrix of exact-length reachability: reach[u][v] is True iff
    a walk of length ``power`` runs from u+1 to v+1."""

    power: int
    reach: tuple[tuple[bool, ...], ...]


def reachability_profile(d: Digraph, power: int) -> ReachabilityProfile:
    if power < 0:
        raise ValueError("power must be nonnegative")
    for l, rows in iter_reach_rows(d):
        if l == power:
            reach = tuple(
                tuple(bool(rows[u] >> v & 1) for v in range(d.n)) for u in range(d.n)
            )
            return ReachabilityProfile(power=power, reach=reach)
    raise AssertionError("unreachable")


def _exponent_cap(n: int) -> int:
    # Wielandt bound plus slack; a primitive digraph stabilizes within it.
    return (n - 1) * (n - 1) + 2


def exponent(d: Digraph) -> int:
    """Least k with a walk of length exactly k between every vertex pair."""
    if not is_primitive(d):
        raise StructuralError("exponent requires a primitive digraph")
    full = (1 << d.n) - 1
    for l, rows in iter_reach_rows(d):
        if l >= 1 and all(r == full for r in rows):
            return l
        if l > _exponent_cap(d.n):
            raise ConsistencyError("exponent scan exceeded the Wielandt bound")
    raise AssertionError("unreachable")


def _vertex_mask(n: int, xs: Iterable[int]) -> int:
    mask = 0
    for x in xs:
        if not (1 <= x <= n):
            raise ValueError(f"vertex {x} out of range for order {n}")
        mask |= 1 << (x - 1)
    return mask


def set_exponent(d: Digraph, xs: Iterable[int]) -> int:
    """Least p such that walks of length exactly p from ``xs`` reach every
    vertex.  The full vertex set returns 0 via length-0 walks."""
    if not is_primitive(d):
        raise StructuralError("set exponent requires a primitive digraph")
    x_mask = _vertex_mask(d.n, xs)
    if not x_mask:
        raise ValueError("vertex set must be nonempty")
    k = bin(x_mask).count("1")
    full = (1 << d.n) - 1
    cap = _multiexponent_cap(d.n, k)
    for l, rows in iter_reach_rows(d):
        union = 0
        m = x_mask
        while m:
            u = (m & -m).bit_length() - 1
            m &= m - 1
            union |= rows[u]
        if union == full:
            return l
        if l >= cap:
            raise ConsistencyError(f"set-exponent scan passed its ceiling {cap}")
    raise AssertionError("unreachable")


def _multiexponent_cap(n: int, k: int) -> int:
    # The kth upper multiexponent of a primitive digraph is at most
    # (n-k)(n-1)+1 (Brualdi and Liu); one step of slack.
    return (n - k) * (n - 1) + 2


def multiexponent_table(d: Digraph) -> tuple[int, ...]:
    """Upper multiexponents for every subset size k = 1..n in one scan.

    Walks length up one step at a time; the value for k is the first
    length at which every k-set reaches all vertices, which the coverage
    kernel reads off the reach rows without visiting any subset.  Coverage
    by exact-length walks is monotone in the length for strongly connected
    digraphs (extend any walk through an in-neighbor), as the kernel needs.
    """
    if not is_primitive(d):
        raise StructuralError("multiexponent requires a primitive digraph")
    n = d.n
    found = _coverage_lengths(
        iter_reach_rows(d),
        {k: _multiexponent_cap(n, k) for k in range(1, n + 1)},
        "multiexponent",
    )
    return tuple(found[k][0] for k in range(1, n + 1))


def upper_multiexponent(d: Digraph, k: int) -> int:
    """Largest set exponent over all vertex subsets of size ``k``."""
    if not is_primitive(d):
        raise StructuralError("multiexponent requires a primitive digraph")
    if not (1 <= k <= d.n):
        raise ValueError(f"k must be in 1..{d.n}")
    found = _coverage_lengths(
        iter_reach_rows(d), {k: _multiexponent_cap(d.n, k)}, "multiexponent"
    )
    return found[k][0]


def _coverage_lengths(
    stream: Iterable[tuple[int, Sequence[int]]],
    ceilings: Mapping[int, int],
    what: str,
) -> dict[int, tuple[int, Sequence[int]]]:
    """Per requested k, the first length at which every k-set of rows
    covers every column, with the rows one length earlier.

    ``stream`` yields ``(length, rows)`` at consecutive lengths, where bit v
    of ``rows[u]`` says row u covers column v; coverage of a row set must
    be monotone in the length.  A k-set fails to cover exactly when it lies
    inside the rows one column misses, so k resolves at the first length
    where no column misses k or more rows.  A larger k resolves no later,
    so each length tests only the largest pending k, and column counts are
    taken only when it resolves.  Before the first length every row
    misses every column.  A k still pending at ``ceilings[k]`` raises
    :class:`ConsistencyError`.
    """
    pending = sorted(ceilings, reverse=True)
    found: dict[int, tuple[int, Sequence[int]]] = {}
    prev: Sequence[int] | None = None
    for length, rows in stream:
        n = len(rows)
        if prev is None:
            prev = [0] * n
        if _no_column_misses(rows, pending[0], n):
            most = max(sum(not r >> v & 1 for r in rows) for v in range(n))
            while pending and pending[0] > most:
                found[pending.pop(0)] = (length, prev)
            if not pending:
                return found
        for k in pending:
            if length >= ceilings[k]:
                raise ConsistencyError(
                    f"{what} scan for k={k} passed its ceiling {ceilings[k]}; "
                    "this indicates a bug"
                )
        prev = rows
    raise AssertionError("unreachable")


def _no_column_misses(rows: Sequence[int], k: int, n: int) -> bool:
    """True iff no column is missed by ``k`` or more of ``rows``.

    For k = 1 every row must be full and for k = n the union must be; both
    are single reductions.  Otherwise saturating bit-sliced counters count
    each column's misses up to k.
    """
    full = (1 << n) - 1
    if k == 1:
        return reduce(and_, rows) == full
    if k == n:
        return reduce(or_, rows) == full
    at_least = [full] + [0] * k
    for r in rows:
        missed = r ^ full
        for j in range(k, 0, -1):
            at_least[j] |= at_least[j - 1] & missed
    return not at_least[k]


def _least_uncovered(rows: Sequence[int], k: int) -> tuple[int, ...]:
    """Lexicographically least k-set of rows, 1-based, that leaves some
    column uncovered: the least over columns of the k smallest rows that
    miss it."""
    n = len(rows)
    sets = []
    for v in range(n):
        missing = [u + 1 for u in range(n) if not rows[u] >> v & 1]
        if len(missing) >= k:
            sets.append(tuple(missing[:k]))
    return min(sets)


def shortest_cycle_length(d: Digraph) -> int:
    """Length of a shortest simple cycle; loops count as length 1."""
    dists = _all_distances(d)
    best: int | None = None
    for u, v in d.arcs:
        back = dists[v - 1][u - 1]
        if back is not None:
            length = back + 1
            if best is None or length < best:
                best = length
    if best is None:
        raise StructuralError("digraph is acyclic; no shortest cycle exists")
    return best


def _hamiltonian_cycles(d: Digraph) -> list[tuple[int, ...]]:
    """All Hamiltonian cycles, each as a 0-based vertex sequence from 0."""
    n = d.n
    out_lists = d._out_lists
    found: list[tuple[int, ...]] = []
    path = [0]
    visited = [False] * n
    visited[0] = True

    def extend(v: int) -> None:
        if len(path) == n:
            if d._out_masks[v] & 1:
                found.append(tuple(path))
            return
        for w in out_lists[v]:
            if not visited[w]:
                visited[w] = True
                path.append(w)
                extend(w)
                path.pop()
                visited[w] = False

    extend(0)
    return found


#: Chord positions, relative to a Hamiltonian cycle relabeled 1 -> 2 -> ... -> n -> 1,
#: that characterize the two extremal families.
_FAMILY_CHORDS = {
    "d1": lambda n: {(n - 1, 1)},
    "d2": lambda n: {(n - 1, 1), (n, 2)},
}
_FAMILY_MIN_ORDER = {"d1": 3, "d2": 4}


def isomorphic_to(d: Digraph, family: str) -> bool:
    """True iff ``d`` is isomorphic to the named extremal family member of
    the same order ("d1": Hamiltonian cycle plus the chord n-1 -> 1;
    "d2": plus the chords n-1 -> 1 and n -> 2).

    Both targets contain a unique Hamiltonian cycle, so any isomorphism
    maps a Hamiltonian cycle of ``d`` onto it; it suffices to scan the
    Hamiltonian cycles of ``d`` and compare the leftover arcs under every
    rotation.  The arc-count precheck keeps the candidates sparse enough
    for the scan to be cheap.
    """
    key = family.lower()
    if key not in _FAMILY_CHORDS:
        raise ValueError(f"unknown family {family!r}; expected 'd1' or 'd2'")
    n = d.n
    if n < _FAMILY_MIN_ORDER[key]:
        return False
    target = _FAMILY_CHORDS[key](n)
    if len(d.arcs) != n + len(target):
        return False
    arc_set = set(d.arcs)
    for ham in _hamiltonian_cycles(d):
        cycle_arcs = {
            (ham[i] + 1, ham[(i + 1) % n] + 1) for i in range(n)
        }
        leftover = arc_set - cycle_arcs
        if len(leftover) != len(target):
            continue
        for t in range(n):
            label = {ham[(t + i) % n] + 1: i + 1 for i in range(n)}
            if {(label[u], label[v]) for u, v in leftover} == target:
                return True
    return False

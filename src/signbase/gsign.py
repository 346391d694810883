"""Arithmetic for four-valued walk signs and bit-packed sign matrices.

A scalar sign is one of ZERO, POS, NEG, AMB.  AMB ("ambiguous", printed
``#``) records that both a positive and a negative contribution are present,
which is exactly what happens when walks of both signs run between the same
pair of vertices.  Encoding a sign as two bits, "has a positive part" and
"has a negative part", turns the sign sum into a bitwise OR and the sign
product into an AND/swap pair, so matrix products over this algebra reduce
to word-parallel operations on bit-packed rows.

Matrix entry (i, j) of the l-th power of an arc-sign matrix then reads off
directly as: the positive bit is set iff a positive walk of length l runs
from i to j, and the negative bit iff a negative one does.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from itertools import accumulate, repeat
from typing import Iterable, Sequence

from .errors import CapacityError, OrderMismatchError

#: Hard cap on matrix order; all analyses here are exact and desk-scale.
MAX_ORDER = 16


class GenSign(enum.IntFlag):
    """Walk sign value; bit 0 is the positive part, bit 1 the negative part."""

    ZERO = 0
    POS = 1
    NEG = 2
    AMB = 3

    @classmethod
    def from_sign(cls, sign: int) -> "GenSign":
        """Map a conventional sign (+1, -1 or 0) to its four-valued form."""
        if sign == 1:
            return cls.POS
        if sign == -1:
            return cls.NEG
        if sign == 0:
            return cls.ZERO
        raise ValueError(f"expected +1, -1 or 0, got {sign!r}")

    def char(self) -> str:
        """Single-character rendering: 0, +, - or #."""
        return "0+-#"[int(self)]


def gsign_add(a: GenSign, b: GenSign) -> GenSign:
    """Sum of two signs: the union of their attainable walk signs.

    ZERO is the identity, equal signs are idempotent, POS + NEG = AMB and
    AMB absorbs everything.  Commutative and associative.
    """
    return GenSign(int(a) | int(b))


def gsign_mul(a: GenSign, b: GenSign) -> GenSign:
    """Product of two signs: concatenation of walk segments.

    ZERO annihilates, POS is the identity, NEG * NEG = POS, and AMB times
    anything nonzero is AMB.  Commutative and associative.
    """
    ap, an = int(a) & 1, (int(a) >> 1) & 1
    bp, bn = int(b) & 1, (int(b) >> 1) & 1
    return GenSign(((ap & bp) | (an & bn)) | (((ap & bn) | (an & bp)) << 1))


class SignPattern:
    """Square matrix over :class:`GenSign`, stored as two bit-packed planes.

    ``pos_rows[i]`` has bit ``j`` set iff entry ``(i+1, j+1)`` carries a
    positive part; ``neg_rows[i]`` the negative part.  The public API is
    1-based, matching vertex numbering everywhere else in the package.
    Instances are immutable and hashable.
    """

    __slots__ = ("n", "pos_rows", "neg_rows")

    def __init__(self, n: int, pos_rows: Sequence[int], neg_rows: Sequence[int]):
        if n < 1:
            raise ValueError("order must be at least 1")
        if n > MAX_ORDER:
            raise CapacityError(f"order {n} exceeds the supported maximum {MAX_ORDER}")
        pos = tuple(int(r) for r in pos_rows)
        neg = tuple(int(r) for r in neg_rows)
        if len(pos) != n or len(neg) != n:
            raise ValueError("each bitplane needs exactly n rows")
        mask = (1 << n) - 1
        if any(r & ~mask for r in pos + neg):
            raise ValueError("row bits outside the n-column range")
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "pos_rows", pos)
        object.__setattr__(self, "neg_rows", neg)

    def __setattr__(self, name, value):
        raise AttributeError("SignPattern is immutable")

    @classmethod
    def from_rows(cls, rows: Sequence[Sequence[GenSign | int]]) -> "SignPattern":
        """Build from an n x n grid of :class:`GenSign` values."""
        n = len(rows)
        if any(len(row) != n for row in rows):
            raise ValueError("matrix must be square")
        pos, neg = [], []
        for row in rows:
            p = q = 0
            for j, value in enumerate(row):
                v = int(GenSign(value))
                p |= (v & 1) << j
                q |= ((v >> 1) & 1) << j
            pos.append(p)
            neg.append(q)
        return cls(n, pos, neg)

    @classmethod
    def identity(cls, n: int) -> "SignPattern":
        """Identity pattern: POS on the diagonal, ZERO elsewhere."""
        return cls(n, [1 << i for i in range(n)], [0] * n)

    def entry(self, i: int, j: int) -> GenSign:
        """Entry at row ``i``, column ``j`` (both 1-based)."""
        if not (1 <= i <= self.n and 1 <= j <= self.n):
            raise ValueError(f"entry ({i}, {j}) out of range for order {self.n}")
        bit = 1 << (j - 1)
        p = 1 if self.pos_rows[i - 1] & bit else 0
        q = 2 if self.neg_rows[i - 1] & bit else 0
        return GenSign(p | q)

    def rows(self) -> tuple[tuple[GenSign, ...], ...]:
        return tuple(
            tuple(self.entry(i, j) for j in range(1, self.n + 1))
            for i in range(1, self.n + 1)
        )

    @property
    def is_pure(self) -> bool:
        """True iff no entry is AMB (the only form user input may take)."""
        return not has_amb(self)

    def __eq__(self, other) -> bool:
        if not isinstance(other, SignPattern):
            return NotImplemented
        return (
            self.n == other.n
            and self.pos_rows == other.pos_rows
            and self.neg_rows == other.neg_rows
        )

    def __hash__(self) -> int:
        return hash((self.n, self.pos_rows, self.neg_rows))

    def __repr__(self) -> str:
        body = "; ".join(
            "".join(self.entry(i, j).char() for j in range(1, self.n + 1))
            for i in range(1, self.n + 1)
        )
        return f"SignPattern({body})"


def has_amb(a: SignPattern) -> bool:
    """True iff any entry of ``a`` is AMB."""
    return any(p & q for p, q in zip(a.pos_rows, a.neg_rows))


def mat_mul(a: SignPattern, b: SignPattern) -> SignPattern:
    """Matrix product over the walk-sign algebra."""
    if a.n != b.n:
        raise OrderMismatchError(f"cannot multiply orders {a.n} and {b.n}")
    n = a.n
    bp, bn = b.pos_rows, b.neg_rows
    out_p, out_n = [], []
    for i in range(n):
        cp = cn = 0
        m = a.pos_rows[i]
        while m:
            t = (m & -m).bit_length() - 1
            m &= m - 1
            cp |= bp[t]
            cn |= bn[t]
        m = a.neg_rows[i]
        while m:
            t = (m & -m).bit_length() - 1
            m &= m - 1
            cp |= bn[t]
            cn |= bp[t]
        out_p.append(cp)
        out_n.append(cn)
    return SignPattern(n, out_p, out_n)


def mat_power(a: SignPattern, l: int) -> SignPattern:
    """``l``-th power of ``a``; the 0-th power is the identity pattern."""
    if l < 0:
        raise ValueError("power must be nonnegative")
    result = SignPattern.identity(a.n)
    for _ in range(l):
        result = mat_mul(result, a)
    return result


@dataclass(frozen=True)
class PowerTrace:
    """First repetition in the power sequence of a pattern.

    ``base_l`` is the least l with ``a**l == a**(l + p)`` for some period p,
    ``period_p`` the least such p at that index, and ``stabilized`` the
    matrix ``a**base_l``.
    """

    base_l: int
    period_p: int
    stabilized: SignPattern


def power_sequence_base(a: SignPattern) -> PowerTrace:
    """Locate the first repetition in the sequence a, a^2, a^3, ...

    The sequence is an orbit of the deterministic map X -> X * a over a
    finite set (at most 4**(n*n) patterns), so the first repeated matrix
    is the entry point of the terminal cycle: its first index is the least
    base and the index gap is the least period there.
    """
    if has_amb(a):
        raise ValueError("power-sequence base is defined for pure patterns only")
    return _first_repeat(accumulate(repeat(a), mat_mul))


def _first_repeat(powers: Iterable[SignPattern]) -> PowerTrace:
    """:class:`PowerTrace` of a power sequence given as a^1, a^2, ..."""
    seen: dict[tuple[tuple[int, ...], tuple[int, ...]], int] = {}
    for l, p in enumerate(powers, 1):
        key = (p.pos_rows, p.neg_rows)
        first = seen.setdefault(key, l)
        if first != l:
            return PowerTrace(base_l=first, period_p=l - first, stabilized=p)
    raise AssertionError("unreachable")

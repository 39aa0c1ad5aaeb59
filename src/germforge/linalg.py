"""Exact sparse linear algebra: one fraction-free integer row-echelon engine.

A row is a dict from an int column to a nonzero int. RowBasis keeps the
reduced row echelon form of the rows it is given without fractions, as in
Bareiss (Math. Comp. 22, 1968): a stored row's pivot is its least column,
its entry there is positive, its content is 1, and no stored row holds
another's pivot. Callers number their columns so that the label they want
as a pivot first is the least. extend() takes a whole batch in one loop,
latest pivots first (short rows, which the long ones then reduce against in
one pass); it is the hot path of the truncated local quotient, so it makes
no method call per row. add(), reduce() and contains() are one-row steps.

nullspace() reads the kernel through identity columns: input t gets one
column after the data columns, a later input a smaller one, and the pivot
rows in that block span the kernel in reduced form. For each input that
depends on the inputs before it, they hold e_t minus its unique combination
of the earlier independent inputs.

perfbench/tracer.py times this layer by rebinding nullspace and
RowBasis.{reduce, add, contains, extend} by name, so all five stay defined.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from typing import Dict, Iterable, List, Mapping, Sequence, Set

Row = Dict[int, int]


def integral(row: Mapping[int, Fraction]) -> Row:
    """row times the lcm of its denominators: the same line, integer entries."""
    den = lcm(*(c.denominator for c in row.values()))
    return {k: c.numerator * (den // c.denominator) for k, c in row.items() if c}


def _cancel(row: Row, p: int, prow: Row) -> int:
    """Clear column p of row in place, fraction-free: row becomes
    b*row - a*prow, where a/b is row[p]/prow[p] in lowest terms; returns b."""
    a, b = row.pop(p), prow[p]
    if b != 1:
        g = gcd(a, b)
        a, b = a // g, b // g
        for k in row:
            row[k] *= b
    for k, c in prow.items():
        if k != p:
            v = row.get(k, 0) - a * c
            if v:
                row[k] = v
            else:
                del row[k]
    return b


def _make_primitive(row: Row, p: int) -> None:
    """Divide row by its content, signed so that row[p] is positive."""
    g = 0
    for c in row.values():
        g = gcd(g, c)
    if row[p] < 0:
        g = -g
    if g != 1:
        for k in row:
            row[k] //= g


class RowBasis:
    """Reduced row echelon form of integer rows, keyed by pivot column."""

    __slots__ = ("rows", "holders")

    def __init__(self) -> None:
        self.rows: Dict[int, Row] = {}
        self.holders: Dict[int, Set[int]] = {}  # column -> pivots whose rows may hold it

    @property
    def rank(self) -> int:
        return len(self.rows)

    def extend(self, rows: Iterable[Row]) -> int:
        """Insert a batch of rows and return how many were independent. The
        rows are taken over: they are reduced in place and may be stored."""
        pivots, holders = self.rows, self.holders
        before = len(pivots)
        for row in sorted(filter(None, rows), key=min, reverse=True):
            for p in [k for k in row if k in pivots]:
                _cancel(row, p, pivots[p])
            if not row:
                continue
            p = min(row)
            _make_primitive(row, p)
            for q in holders.pop(p, ()):
                held = pivots[q]
                if p in held:
                    _cancel(held, p, row)
                    _make_primitive(held, q)
                    for k in row:
                        if k in held:
                            holders.setdefault(k, set()).add(q)
            pivots[p] = row
            for k in row:
                if k != p:
                    holders.setdefault(k, set()).add(p)
        return len(pivots) - before

    def add(self, row: Row) -> bool:
        """Insert one row, taken over; True when it was independent."""
        return self.extend([row]) == 1

    def reduce(self, row: Row) -> Dict[int, Fraction]:
        """Residual of row modulo the span: row minus the element of the span
        that clears every pivot column. The row itself is left unchanged."""
        work, scale = dict(row), 1
        for p in [k for k in work if k in self.rows]:
            scale *= _cancel(work, p, self.rows[p])
        return {k: Fraction(c, scale) for k, c in work.items()}

    def contains(self, row: Row) -> bool:
        return not self.reduce(row)


def nullspace(rows: Sequence[Mapping[int, Fraction]]) -> List[Dict[int, Fraction]]:
    """Kernel of the map sending unit t to rows[t], whose entries may be ints
    or Fractions: one combination {t: coeff} per input that depends on the
    inputs before it, with coefficient 1 at t and its other terms on earlier
    independent inputs, in input order."""
    top = 1 + max((k for row in rows for k in row), default=-1)
    last = top + len(rows) - 1
    basis = RowBasis()
    basis.extend(integral({**row, last - t: 1}) for t, row in enumerate(rows))
    return identity_kernel(basis, top, last)


def identity_kernel(basis: RowBasis, top: int, last: int) -> List[Dict[int, Fraction]]:
    """The kernel held in the identity columns top..last, where column
    last - t stands for input t: the pivot rows there divided by their pivot
    entry, as combinations {t: coeff} in input order."""
    return [{last - k: Fraction(c, row[p]) for k, c in row.items()}
            for p, row in sorted(basis.rows.items(), reverse=True) if p >= top]

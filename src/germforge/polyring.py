"""Exact multivariate polynomial arithmetic over the rationals.

Coefficients are Q, a slotted rational in lowest terms with a positive
denominator. Q is registered as a numbers.Rational, so fractions.Fraction(q),
comparisons with Fractions, mixed arithmetic (whose result is a Q) and hashing
agree with Fraction; Q itself needs neither fractions nor decimal.

A polynomial is a finite map from exponent tuples to nonzero Q coefficients:

  Mono = tuple[int, ...]      (one entry per variable, that variable's degree)
  terms: dict[Mono, Q]        (canonical: no zero coefficients stored)

The Poly constructor is the one zero filter and the one coercion point: it
drops what cancelled and turns an int, a Fraction or any other Rational into a
Q. Arithmetic adds coefficients into a plain map and leaves the rest to it.
Ring.sum is the one running sum: every term of every summand goes into a
single map, and one Poly is built at the end. Poly.substitute is the one ring
map: a re-indexing into another ring sends each variable to a variable there,
a shift of the origin to a point p sends x_i to x_i + p_i, and evaluation at
p sends x_i to the constant p_i. Poly * Poly is the one product, a term
times a polynomial included.

Two monomial orders are provided: 'dp' (degree reverse lexicographic, global,
1 is the smallest monomial) and 'ds' (negative degree reverse lexicographic,
local, 1 is the largest monomial). Both are total and multiplicative.

All values are immutable after construction and freely shareable.
"""

from __future__ import annotations

import sys
from collections.abc import Iterable, Sequence
from functools import lru_cache
from math import comb, gcd
from numbers import Rational
from operator import add

from .errors import GermforgeError, ParseError

Mono = tuple[int, ...]


# ---------------------------------------------------------------------------
# rationals

_HASH_MODULUS = sys.hash_info.modulus
_HASH_INF = sys.hash_info.inf


class Q:
    """An exact rational numerator/denominator in lowest terms, denominator
    positive. Q(n) takes an int or a Rational, Q(n, d) two ints and
    Q("n/d") text, each part of at most MAX_DIGITS digits; arithmetic with
    an int or another Rational gives a Q."""

    __slots__ = ("numerator", "denominator")

    def __new__(cls, numerator=0, denominator=None):
        if denominator is not None:
            return _normal(numerator, denominator)
        if type(numerator) is int:
            return _q(numerator, 1)
        if type(numerator) is Q:
            return numerator
        if isinstance(numerator, str):
            num, slash, den = numerator.partition("/")
            return _normal(_read_int(num), _read_int(den)) if slash else _q(_read_int(num), 1)
        if isinstance(numerator, Rational):
            return _normal(numerator.numerator, numerator.denominator)
        raise TypeError(f"cannot make a rational from {numerator!r}")

    # -- arithmetic; each operand is an int or a Q once _other has run

    def __add__(a, b):
        if type(b) is int:
            return _q(a.numerator + b * a.denominator, a.denominator)
        if type(b) is not Q:
            b = _other(b)
            if b is NotImplemented:
                return b
        na, da, nb, db = a.numerator, a.denominator, b.numerator, b.denominator
        if da == 1 and db == 1:
            return _q(na + nb, 1)
        g = gcd(da, db)
        if g == 1:
            return _q(na * db + nb * da, da * db)
        s = da // g
        t = na * (db // g) + nb * s
        g2 = gcd(t, g)
        return _q(t, s * db) if g2 == 1 else _q(t // g2, s * (db // g2))

    __radd__ = __add__

    def __sub__(a, b):
        if type(b) is int:
            return _q(a.numerator - b * a.denominator, a.denominator)
        b = _other(b)
        return b if b is NotImplemented else a + _q(-b.numerator, b.denominator)

    def __rsub__(a, b):
        return -a + b

    def __mul__(a, b):
        if type(b) is int:
            if a.denominator == 1:
                return _q(a.numerator * b, 1)
            g = gcd(b, a.denominator)
            return _q(a.numerator * (b // g), a.denominator // g)
        if type(b) is not Q:
            b = _other(b)
            if b is NotImplemented:
                return b
        na, da, nb, db = a.numerator, a.denominator, b.numerator, b.denominator
        if da == 1 and db == 1:
            return _q(na * nb, 1)
        g1 = gcd(na, db)
        if g1 > 1:
            na //= g1
            db //= g1
        g2 = gcd(nb, da)
        if g2 > 1:
            nb //= g2
            da //= g2
        return _q(na * nb, da * db)

    __rmul__ = __mul__

    def __truediv__(a, b):
        if type(b) is not Q:
            b = _other(b)
            if b is NotImplemented:
                return b
        if not b.numerator:
            raise ZeroDivisionError(f"Q({a}) / 0")
        return a * _inverse(b)

    def __rtruediv__(a, b):
        b = _other(b)
        if b is NotImplemented:
            return b
        if not a.numerator:
            raise ZeroDivisionError(f"{b} / Q(0)")
        return _inverse(a) * b

    def __pow__(a, b):
        if type(b) is not int:
            return NotImplemented
        if b >= 0:
            return _q(a.numerator ** b, a.denominator ** b)
        if not a.numerator:
            raise ZeroDivisionError(f"Q({a}) ** {b}")
        return _inverse(a) ** -b

    def __neg__(a):
        return _q(-a.numerator, a.denominator)

    # -- conversions

    def __bool__(a):
        return a.numerator != 0

    def __int__(a):
        n, d = a.numerator, a.denominator
        return n // d if n >= 0 else -(-n // d)

    # -- comparison and hashing, consistent with int and Fraction

    def __eq__(a, b):
        if type(b) is Q:
            return a.numerator == b.numerator and a.denominator == b.denominator
        if type(b) is int:
            return a.denominator == 1 and a.numerator == b
        if isinstance(b, Rational):
            return a.numerator == b.numerator and a.denominator == b.denominator
        return NotImplemented

    def _cmp(a, b):
        """a - b times a positive int, for the orderings; None if b is not
        rational."""
        if type(b) is int:
            return a.numerator - b * a.denominator
        if isinstance(b, Rational):
            return a.numerator * b.denominator - b.numerator * a.denominator
        return None

    def __lt__(a, b):
        c = a._cmp(b)
        return NotImplemented if c is None else c < 0

    def __le__(a, b):
        c = a._cmp(b)
        return NotImplemented if c is None else c <= 0

    def __gt__(a, b):
        c = a._cmp(b)
        return NotImplemented if c is None else c > 0

    def __ge__(a, b):
        c = a._cmp(b)
        return NotImplemented if c is None else c >= 0

    def __hash__(a):
        n, d = a.numerator, a.denominator
        if d == 1:
            return hash(n)
        try:
            h = hash(hash(abs(n)) * pow(d, -1, _HASH_MODULUS))
        except ValueError:  # d is a multiple of the modulus
            h = _HASH_INF
        h = h if n >= 0 else -h
        return -2 if h == -1 else h

    def __str__(a):
        return str(a.numerator) if a.denominator == 1 else f"{a.numerator}/{a.denominator}"

    def __repr__(a):
        return f"Q({a.numerator}, {a.denominator})"


Rational.register(Q)

_new = object.__new__

# The most digits a number in a problem file may have. Python 3.11 and
# 3.10.7 on refuse int() of more than 4300 by default, earlier 3.10
# releases read any length; with a limit of its own germforge refuses the
# same numbers on each, with PARSE_ERROR instead of a ValueError.
MAX_DIGITS = 4300


def _read_int(text: str, column: int = 0) -> int:
    """int(text), or PARSE_ERROR (at column, when given) for a text of more
    than MAX_DIGITS characters, checked before int() reads it."""
    if len(text) > MAX_DIGITS:
        raise ParseError(f"number with more than {MAX_DIGITS} digits", column=column)
    return int(text)


def _q(n: int, d: int) -> Q:
    """The Q n/d, for n/d already in lowest terms with d > 0."""
    q = _new(Q)
    q.numerator = n
    q.denominator = d
    return q


def _normal(n: int, d: int) -> Q:
    if not d:
        raise ZeroDivisionError(f"Q({n}, 0)")
    g = gcd(n, d)
    if d < 0:
        g = -g
    return _q(n // g, d // g)


def _inverse(a: Q) -> Q:
    n, d = a.numerator, a.denominator
    return _q(d, n) if n > 0 else _q(-d, -n)


def _other(b):
    """An int or a Q for the operand b, NotImplemented when it is not
    rational."""
    if type(b) is int or type(b) is Q:
        return b
    if isinstance(b, Rational):
        return Q(b)
    return NotImplemented


Coeff = int | Q | Rational

_ZERO = Q(0)
_ONE = Q(1)


# ---------------------------------------------------------------------------
# monomial helpers


def mono_mul(a: Mono, b: Mono) -> Mono:
    return tuple(map(add, a, b))


def mono_divides(a: Mono, b: Mono) -> bool:
    """True when a divides b componentwise."""
    return all(x <= y for x, y in zip(a, b))


def mono_lcm(a: Mono, b: Mono) -> Mono:
    return tuple(map(max, a, b))


def mono_deg(a: Mono) -> int:
    return sum(a)


@lru_cache(maxsize=None)
def monomials_of_degree(n: int, d: int) -> tuple[Mono, ...]:
    """All exponent tuples in n variables of total degree exactly d."""
    if n == 1:
        return ((d,),)
    return tuple((first,) + rest for first in range(d, -1, -1)
                 for rest in monomials_of_degree(n - 1, d - first))


@lru_cache(maxsize=None)
def monomials_up_to_degree(n: int, d: int) -> tuple[Mono, ...]:
    return tuple(m for k in range(d + 1) for m in monomials_of_degree(n, k))


# ---------------------------------------------------------------------------
# rings and orders


class Ring:
    """Ordered tuple of variable names; the ambient polynomial ring."""

    __slots__ = ("names", "index")

    def __init__(self, names: Sequence[str]) -> None:
        names = tuple(names)
        if not names:
            raise ValueError("a ring needs at least one variable")
        if len(set(names)) != len(names):
            raise ValueError("duplicate variable names")
        self.names = names
        self.index = {nm: i for i, nm in enumerate(names)}

    @property
    def n(self) -> int:
        return len(self.names)

    def zero(self) -> Poly:
        return Poly(self, {})

    def one(self) -> Poly:
        return self.const(1)

    def const(self, c: Coeff) -> Poly:
        return Poly(self, {(0,) * self.n: c})

    def var(self, which: int | str) -> Poly:
        i = self.index[which] if isinstance(which, str) else which
        if not 0 <= i < self.n:
            raise IndexError(f"variable index {i} out of range")
        exp = [0] * self.n
        exp[i] = 1
        return Poly(self, {tuple(exp): _ONE})

    def monomial(self, mono: Mono, c: Coeff = 1) -> Poly:
        if len(mono) != self.n:
            raise ValueError("exponent tuple has wrong length")
        return Poly(self, {tuple(mono): c})

    def sum(self, polys: Iterable[Poly]) -> Poly:
        """The sum of polys, all in this ring, added term by term into one map."""
        out: dict[Mono, Q] = {}
        for p in polys:
            if p.ring is not self and p.ring != self:
                raise ValueError("polynomials from different rings")
            for m, c in p.terms.items():
                prev = out.get(m)
                out[m] = c if prev is None else prev + c
        return Poly(self, out)

    def extend(self, extra: Sequence[str]) -> Ring:
        return Ring(self.names + tuple(extra))

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Ring) and self.names == other.names

    def __hash__(self) -> int:
        return hash(self.names)

    def __repr__(self) -> str:
        return f"Ring({', '.join(self.names)})"


class Order:
    """Monomial order: 'dp' global degrevlex, 'ds' local negative degrevlex."""

    __slots__ = ("kind",)

    def __init__(self, kind: str) -> None:
        if kind not in ("dp", "ds"):
            raise ValueError("order kind must be 'dp' or 'ds'")
        self.kind = kind

    @property
    def is_local(self) -> bool:
        return self.kind == "ds"

    def key(self, m: Mono):
        """Sort key: greater monomial = greater key."""
        d = sum(m)
        tail = tuple(-e for e in reversed(m))
        return (d, tail) if self.kind == "dp" else (-d, tail)

    def __repr__(self) -> str:
        return f"Order({self.kind!r})"

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Order) and self.kind == other.kind

    def __hash__(self) -> int:
        return hash(self.kind)


GLOBAL_DP = Order("dp")
LOCAL_DS = Order("ds")


# ---------------------------------------------------------------------------
# polynomials


class Poly:
    """Immutable sparse polynomial with exact rational coefficients."""

    __slots__ = ("ring", "terms")

    def __init__(self, ring: Ring, terms: dict[Mono, Coeff]) -> None:
        self.ring = ring
        self.terms = {m: c if type(c) is Q else Q(c) for m, c in terms.items() if c}

    # -- queries

    def is_zero(self) -> bool:
        return not self.terms

    def total_degree(self) -> int:
        """Max total degree of a term; -1 for the zero polynomial."""
        return max((mono_deg(m) for m in self.terms), default=-1)

    def constant_term(self) -> Q:
        return self.terms.get((0,) * self.ring.n, _ZERO)

    def leading(self, order: Order) -> tuple[Mono, Q]:
        """(leading monomial, coefficient) under the order; zero poly errors."""
        if not self.terms:
            raise ValueError("zero polynomial has no leading term")
        m = max(self.terms, key=order.key)
        return m, self.terms[m]

    # -- arithmetic

    def __add__(self, other: Poly | Coeff) -> Poly:
        return self.ring.sum((self, self._coerce(other)))

    def __sub__(self, other: Poly | Coeff) -> Poly:
        return self.ring.sum((self, -self._coerce(other)))

    def __neg__(self) -> Poly:
        return Poly(self.ring, {m: -c for m, c in self.terms.items()})

    def __mul__(self, other: Poly | Coeff) -> Poly:
        if not isinstance(other, Poly):
            c = Q(other)
            return Poly(self.ring, {m: c * v for m, v in self.terms.items()})
        if other.ring != self.ring:
            raise ValueError("polynomials from different rings")
        out: dict[Mono, Q] = {}
        for m1, c1 in self.terms.items():
            for m2, c2 in other.terms.items():
                m = tuple(map(add, m1, m2))
                prev = out.get(m)
                out[m] = c1 * c2 if prev is None else prev + c1 * c2
        return Poly(self.ring, out)

    def __rmul__(self, other: Coeff) -> Poly:
        return self.__mul__(other)

    def __pow__(self, e: int) -> Poly:
        if e < 0:
            raise ValueError("negative power")
        out = self.ring.one()
        base = self
        while e:
            if e & 1:
                out = out * base
            base = base * base if e > 1 else base
            e >>= 1
        return out

    def _coerce(self, other: Poly | Coeff) -> Poly:
        """other, a constant made a Poly of this ring; Ring.sum checks rings."""
        return other if isinstance(other, Poly) else self.ring.const(other)

    # -- calculus and truncation

    def derive(self, which: int | str) -> Poly:
        """Formal partial derivative with respect to one variable."""
        i = self.ring.index[which] if isinstance(which, str) else which
        if not 0 <= i < self.ring.n:
            raise IndexError(f"variable index {i} out of range")
        out: dict[Mono, Q] = {}
        for m, c in self.terms.items():
            e = m[i]
            if e:
                m2 = m[:i] + (e - 1,) + m[i + 1:]
                out[m2] = out.get(m2, _ZERO) + c * e
        return Poly(self.ring, out)

    def truncate(self, N: int) -> Poly:
        """Drop all terms of total degree > N."""
        if N < 0:
            return Poly(self.ring, {})
        return Poly(self.ring, {m: c for m, c in self.terms.items() if mono_deg(m) <= N})

    # -- the ring map

    def substitute(self, images: Sequence[Poly], target: Ring | None = None) -> Poly:
        """Ring map sending variable i to images[i]; images live in target.
        powers[i][e] is images[i] ** e, each power one product from the last."""
        if len(images) != self.ring.n:
            raise ValueError("need one image per variable")
        if target is None:
            target = images[0].ring if images else self.ring
        powers = [[target.one()] for _ in images]
        terms = []
        for m, c in sorted(self.terms.items()):
            term = target.const(c)
            for i, e in enumerate(m):
                if e:
                    pw = powers[i]
                    while len(pw) <= e:
                        pw.append(pw[-1] * images[i])
                    term = term * pw[e]
            terms.append(term)
        return target.sum(terms)

    # -- comparison and printing

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Poly):
            if not isinstance(other, Rational):
                return False
            other = self.ring.const(other)
        return self.ring == other.ring and self.terms == other.terms

    def __hash__(self) -> int:
        return hash((self.ring.names, frozenset(self.terms.items())))

    def __str__(self) -> str:
        return format_poly(self)

    def __repr__(self) -> str:
        return f"Poly({format_poly(self)})"


def format_mono(ring: Ring, m: Mono) -> str:
    parts = []
    for i, e in enumerate(m):
        if e == 1:
            parts.append(ring.names[i])
        elif e > 1:
            parts.append(f"{ring.names[i]}^{e}")
    return "*".join(parts)


def format_poly(p: Poly) -> str:
    """Canonical text form: terms descending in the global order, re-parseable."""
    if p.is_zero():
        return "0"
    chunks: list[str] = []
    for m, c in sorted(p.terms.items(), key=lambda t: GLOBAL_DP.key(t[0]), reverse=True):
        mono_txt = format_mono(p.ring, m)
        neg = c < 0
        a = -c if neg else c
        if not mono_txt:
            body = str(a)
        elif a == 1:
            body = mono_txt
        else:
            body = f"{a}*{mono_txt}"
        if not chunks:
            chunks.append(f"-{body}" if neg else body)
        else:
            chunks.append(f"- {body}" if neg else f"+ {body}")
    return " ".join(chunks)


# ---------------------------------------------------------------------------
# expression parser
#
# Grammar:  expr   := term (('+'|'-') term)*
#           term   := factor (('*')? factor)*   (implicit * only before a variable
#                                                or a parenthesized group)
#           factor := atom ('^' INT)?
#           atom   := NUMBER | IDENT | '(' expr ')' | ('+'|'-') factor
#           NUMBER := digits ('/' digits)?


_TOK_NUM = "num"
_TOK_IDENT = "ident"
_TOK_OP = "op"
_TOK_END = "end"


def _tokenize(text: str) -> list[tuple[str, str, int]]:
    toks: list[tuple[str, str, int]] = []
    i, n = 0, len(text)
    while i < n:
        ch = text[i]
        if ch in " \t\r\n":
            i += 1
            continue
        if ch.isdigit():
            j = i
            while j < n and text[j].isdigit():
                j += 1
            if j < n and text[j] == "/" and j + 1 < n and text[j + 1].isdigit():
                j += 1
                while j < n and text[j].isdigit():
                    j += 1
            toks.append((_TOK_NUM, text[i:j], i))
            i = j
            continue
        if ch.isalpha():
            j = i
            while j < n and (text[j].isalnum() or text[j] == "_"):
                j += 1
            toks.append((_TOK_IDENT, text[i:j], i))
            i = j
            continue
        if ch in "+-*^()":
            toks.append((_TOK_OP, ch, i))
            i += 1
            continue
        raise ParseError(f"unexpected character {ch!r}", column=i + 1)
    toks.append((_TOK_END, "", n))
    return toks


# The most terms a product or power may have while it is parsed, so that a
# line such as (x+y+1)^200 cannot run on; the largest in the tests, golden
# files and corpus is (y - 1/2)^2 (y + 3)^3, at most 12 terms.
MAX_PARSED_TERMS = 1000

# The most coefficient bits a product or power may have while it is parsed,
# its term bound times the estimated bits of one coefficient, so that a line
# under the term bound such as (3x+2)^499 (5x-7)^500 cannot run on either; a
# power of one term such as (2x y^3)^40000 is one coefficient of 40001 bits.
MAX_PARSED_BITS = 100_000


def _height(p: Poly) -> int:
    """The estimated bits of p's largest coefficient: ceil(log2) of the sum
    of its |numerators| plus ceil(log2) of its largest denominator. For
    integer coefficients it is a bound, and a product's height is at most the
    sum of its factors', a power's e times its base's."""
    num = sum(abs(c.numerator) for c in p.terms.values())
    den = max((c.denominator for c in p.terms.values()), default=1)
    return (max(num, 1) - 1).bit_length() + (den - 1).bit_length()


class _ExprParser:
    def __init__(self, toks: list[tuple[str, str, int]], ring: Ring) -> None:
        self.toks = toks
        self.ring = ring
        self.pos = 0

    def peek(self) -> tuple[str, str, int]:
        return self.toks[self.pos]

    def take(self) -> tuple[str, str, int]:
        t = self.toks[self.pos]
        self.pos += 1
        return t

    def fail(self, msg: str) -> None:
        _, _, at = self.peek()
        raise ParseError(msg, column=at + 1)

    def parse(self) -> Poly:
        p = self.expr()
        if self.peek()[0] != _TOK_END:
            self.fail(f"unexpected {self.peek()[1]!r}")
        return p

    def expr(self) -> Poly:
        terms = [self.term()]
        while self.peek()[:2] in ((_TOK_OP, "+"), (_TOK_OP, "-")):
            op = self.take()[1]
            q = self.term()
            terms.append(q if op == "+" else -q)
        return self.ring.sum(terms)

    def refuse_past(self, terms: int, degree: int, height: int, at: int) -> None:
        """Refuse a product or power, before it is formed, that may have more
        than MAX_PARSED_TERMS terms or MAX_PARSED_BITS coefficient bits: it
        has at most terms of them, and at most C(n + degree, n), the
        monomials of degree at most degree, each of about height bits."""
        bound = min(terms, comb(self.ring.n + max(degree, 0), self.ring.n))
        if bound > MAX_PARSED_TERMS:
            raise ParseError(f"expansion may have more than {MAX_PARSED_TERMS} terms",
                             column=at + 1)
        if bound * height > MAX_PARSED_BITS:
            raise ParseError(f"expansion may have more than {MAX_PARSED_BITS} "
                             "coefficient bits", column=at + 1)

    def term(self) -> Poly:
        p = self.factor()
        while True:
            kind, val, at = self.peek()
            if kind == _TOK_OP and val == "*":
                self.take()
            elif not (kind == _TOK_IDENT or (kind == _TOK_OP and val == "(")):
                return p
            q = self.factor()  # after '*', or implicit, e.g. 2x or 3(x+y)
            self.refuse_past(len(p.terms) * len(q.terms), p.total_degree() + q.total_degree(),
                             _height(p) + _height(q), at)
            p = p * q

    def factor(self) -> Poly:
        p = self.atom()
        if self.peek()[:2] == (_TOK_OP, "^"):
            self.take()
            kind, val, at = self.take()
            if kind != _TOK_NUM or "/" in val:
                raise ParseError("exponent must be a nonnegative integer", column=at + 1)
            e = _read_int(val, at + 1)
            # p^e has at most C(t + e - 1, e) terms, t the terms of p; past the
            # limit e decides alike clamped (for t >= 2 both counts pass it)
            clamped = min(e, MAX_PARSED_TERMS)
            self.refuse_past(comb(max(len(p.terms), 1) + clamped - 1, clamped),
                             e * p.total_degree(), e * _height(p), at)
            p = p ** e
        return p

    def atom(self) -> Poly:
        kind, val, at = self.take()
        if kind == _TOK_NUM:
            num, slash, den = val.partition("/")
            n, d = _read_int(num, at + 1), (_read_int(den, at + 1) if slash else 1)
            if not d:
                raise ParseError("zero denominator", column=at + 1)
            return self.ring.const(Q(n, d))
        if kind == _TOK_IDENT:
            if val not in self.ring.index:
                raise GermforgeError("UNKNOWN_VARIABLE", f"unknown variable {val!r}")
            return self.ring.var(val)
        if kind == _TOK_OP and val == "(":
            p = self.expr()
            if self.peek()[:2] != (_TOK_OP, ")"):
                self.fail("expected ')'")
            self.take()
            return p
        if kind == _TOK_OP and val in "+-":
            q = self.factor()
            return q if val == "+" else -q
        if kind == _TOK_END:
            raise ParseError("expected a term at the end of the expression", column=at + 1)
        raise ParseError(f"unexpected {val!r}", column=at + 1)


def parse_poly(text: str, ring: Ring) -> Poly:
    """Parse a polynomial expression; raises ParseError / UNKNOWN_VARIABLE."""
    try:
        return _ExprParser(_tokenize(text), ring).parse()
    except RecursionError:
        raise ParseError("expression nested too deeply") from None

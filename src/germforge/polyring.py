"""Exact multivariate polynomial arithmetic over the rationals.

A polynomial is a finite map from exponent tuples to nonzero Fraction
coefficients:

  Mono = Tuple[int, ...]      (one entry per variable, that variable's degree)
  terms: Dict[Mono, Fraction] (canonical: no zero coefficients stored)

Two monomial orders are provided: 'dp' (degree reverse lexicographic, global,
1 is the smallest monomial) and 'ds' (negative degree reverse lexicographic,
local, 1 is the largest monomial). Both are total and multiplicative.

All values are immutable after construction and freely shareable.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Dict, List, Optional, Sequence, Tuple, Union

from .errors import GermforgeError, ParseError

Mono = Tuple[int, ...]
Coeff = Union[int, Fraction]

_ZERO = Fraction(0)
_ONE = Fraction(1)


# ---------------------------------------------------------------------------
# monomial helpers


def mono_mul(a: Mono, b: Mono) -> Mono:
    return tuple(x + y for x, y in zip(a, b))


def mono_divides(a: Mono, b: Mono) -> bool:
    """True when a divides b componentwise."""
    return all(x <= y for x, y in zip(a, b))


def mono_div(a: Mono, b: Mono) -> Mono:
    """a / b; caller guarantees divisibility."""
    return tuple(x - y for x, y in zip(a, b))


def mono_lcm(a: Mono, b: Mono) -> Mono:
    return tuple(max(x, y) for x, y in zip(a, b))


def mono_deg(a: Mono) -> int:
    return sum(a)


def monomials_of_degree(n: int, d: int) -> List[Mono]:
    """All exponent tuples in n variables of total degree exactly d."""
    if n == 1:
        return [(d,)]
    out: List[Mono] = []
    for first in range(d, -1, -1):
        out.extend((first,) + rest for rest in monomials_of_degree(n - 1, d - first))
    return out


def monomials_up_to_degree(n: int, d: int) -> List[Mono]:
    out: List[Mono] = []
    for k in range(d + 1):
        out.extend(monomials_of_degree(n, k))
    return out


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

    def zero(self) -> "Poly":
        return Poly(self, {})

    def one(self) -> "Poly":
        return self.const(1)

    def const(self, c: Coeff) -> "Poly":
        c = Fraction(c)
        if c == 0:
            return Poly(self, {})
        return Poly(self, {(0,) * self.n: c})

    def var(self, which: Union[int, str]) -> "Poly":
        i = self.index[which] if isinstance(which, str) else which
        if not 0 <= i < self.n:
            raise IndexError(f"variable index {i} out of range")
        exp = [0] * self.n
        exp[i] = 1
        return Poly(self, {tuple(exp): _ONE})

    def monomial(self, mono: Mono, c: Coeff = 1) -> "Poly":
        c = Fraction(c)
        if c == 0:
            return Poly(self, {})
        if len(mono) != self.n:
            raise ValueError("exponent tuple has wrong length")
        return Poly(self, {tuple(mono): c})

    def extend(self, extra: Sequence[str]) -> "Ring":
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

    def __init__(self, ring: Ring, terms: Dict[Mono, Fraction]) -> None:
        self.ring = ring
        self.terms = {m: c for m, c in terms.items() if c != 0}

    # -- queries

    def is_zero(self) -> bool:
        return not self.terms

    def total_degree(self) -> int:
        """Max total degree of a term; -1 for the zero polynomial."""
        return max((mono_deg(m) for m in self.terms), default=-1)

    def constant_term(self) -> Fraction:
        return self.terms.get((0,) * self.ring.n, _ZERO)

    def leading(self, order: Order) -> Tuple[Mono, Fraction]:
        """(leading monomial, coefficient) under the order; zero poly errors."""
        if not self.terms:
            raise ValueError("zero polynomial has no leading term")
        m = max(self.terms, key=order.key)
        return m, self.terms[m]

    # -- arithmetic

    def __add__(self, other: Union["Poly", Coeff]) -> "Poly":
        other = self._coerce(other)
        out = dict(self.terms)
        for m, c in other.terms.items():
            s = out.get(m, _ZERO) + c
            if s:
                out[m] = s
            else:
                out.pop(m, None)
        return Poly(self.ring, out)

    def __radd__(self, other: Coeff) -> "Poly":
        return self.__add__(other)

    def __sub__(self, other: Union["Poly", Coeff]) -> "Poly":
        other = self._coerce(other)
        out = dict(self.terms)
        for m, c in other.terms.items():
            s = out.get(m, _ZERO) - c
            if s:
                out[m] = s
            else:
                out.pop(m, None)
        return Poly(self.ring, out)

    def __rsub__(self, other: Coeff) -> "Poly":
        return self._coerce(other).__sub__(self)

    def __neg__(self) -> "Poly":
        return Poly(self.ring, {m: -c for m, c in self.terms.items()})

    def __mul__(self, other: Union["Poly", Coeff]) -> "Poly":
        if isinstance(other, (int, Fraction)):
            c = Fraction(other)
            if c == 0:
                return Poly(self.ring, {})
            return Poly(self.ring, {m: c * v for m, v in self.terms.items()})
        if other.ring != self.ring:
            raise ValueError("polynomials from different rings")
        out: Dict[Mono, Fraction] = {}
        for m1, c1 in self.terms.items():
            for m2, c2 in other.terms.items():
                m = mono_mul(m1, m2)
                s = out.get(m, _ZERO) + c1 * c2
                if s:
                    out[m] = s
                else:
                    out.pop(m, None)
        return Poly(self.ring, out)

    def __rmul__(self, other: Coeff) -> "Poly":
        return self.__mul__(other)

    def __pow__(self, e: int) -> "Poly":
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

    def term_mul(self, mono: Mono, coeff: Fraction) -> "Poly":
        """Multiply by a single term coeff * x^mono."""
        if coeff == 0:
            return Poly(self.ring, {})
        return Poly(self.ring, {mono_mul(m, mono): c * coeff for m, c in self.terms.items()})

    def _coerce(self, other: Union["Poly", Coeff]) -> "Poly":
        if isinstance(other, Poly):
            if other.ring != self.ring:
                raise ValueError("polynomials from different rings")
            return other
        return self.ring.const(other)

    # -- calculus and truncation

    def derive(self, which: Union[int, str]) -> "Poly":
        """Formal partial derivative with respect to one variable."""
        i = self.ring.index[which] if isinstance(which, str) else which
        if not 0 <= i < self.ring.n:
            raise IndexError(f"variable index {i} out of range")
        out: Dict[Mono, Fraction] = {}
        for m, c in self.terms.items():
            e = m[i]
            if e:
                m2 = m[:i] + (e - 1,) + m[i + 1:]
                out[m2] = out.get(m2, _ZERO) + c * e
        return Poly(self.ring, out)

    def truncate(self, N: int) -> "Poly":
        """Drop all terms of total degree > N."""
        if N < 0:
            return Poly(self.ring, {})
        return Poly(self.ring, {m: c for m, c in self.terms.items() if mono_deg(m) <= N})

    # -- substitution and evaluation

    def substitute(self, images: Sequence["Poly"], target: Optional[Ring] = None) -> "Poly":
        """Ring map sending variable i to images[i]; images live in target."""
        if len(images) != self.ring.n:
            raise ValueError("need one image per variable")
        if target is None:
            target = images[0].ring if images else self.ring
        out = target.zero()
        for m, c in sorted(self.terms.items()):
            term = target.const(c)
            for i, e in enumerate(m):
                if e:
                    term = term * (images[i] ** e)
            out = out + term
        return out

    def rename(self, target: Ring, where: Sequence[int]) -> "Poly":
        """Cheap variable re-indexing: variable i becomes target variable where[i]."""
        out: Dict[Mono, Fraction] = {}
        for m, c in self.terms.items():
            exp = [0] * target.n
            for i, e in enumerate(m):
                if e:
                    exp[where[i]] += e
            m2 = tuple(exp)
            s = out.get(m2, _ZERO) + c
            if s:
                out[m2] = s
            else:
                out.pop(m2, None)
        return Poly(target, out)

    def evaluate(self, point: Sequence[Coeff]) -> Fraction:
        if len(point) != self.ring.n:
            raise ValueError("need one value per variable")
        pt = [Fraction(v) for v in point]
        total = _ZERO
        for m, c in self.terms.items():
            v = c
            for i, e in enumerate(m):
                if e:
                    v *= pt[i] ** e
            total += v
        return total

    def translate(self, point: Sequence[Coeff]) -> "Poly":
        """Shift the origin: substitute x_i -> x_i + point[i]."""
        images = [self.ring.var(i) + Fraction(point[i]) for i in range(self.ring.n)]
        return self.substitute(images, self.ring)

    # -- comparison and printing

    def __eq__(self, other: object) -> bool:
        if isinstance(other, (int, Fraction)):
            other = self.ring.const(other)
        return isinstance(other, Poly) and self.ring == other.ring and self.terms == other.terms

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
    chunks: List[str] = []
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


def _tokenize(text: str) -> List[Tuple[str, str, int]]:
    toks: List[Tuple[str, str, int]] = []
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


class _ExprParser:
    def __init__(self, toks: List[Tuple[str, str, int]], ring: Ring) -> None:
        self.toks = toks
        self.ring = ring
        self.pos = 0

    def peek(self) -> Tuple[str, str, int]:
        return self.toks[self.pos]

    def take(self) -> Tuple[str, str, int]:
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
        p = self.term()
        while self.peek()[:2] in ((_TOK_OP, "+"), (_TOK_OP, "-")):
            op = self.take()[1]
            q = self.term()
            p = p + q if op == "+" else p - q
        return p

    def term(self) -> Poly:
        p = self.factor()
        while True:
            kind, val, _ = self.peek()
            if kind == _TOK_OP and val == "*":
                self.take()
                p = p * self.factor()
            elif kind == _TOK_IDENT or (kind == _TOK_OP and val == "("):
                p = p * self.factor()  # implicit multiplication, e.g. 2x or 3(x+y)
            else:
                return p

    def factor(self) -> Poly:
        p = self.atom()
        if self.peek()[:2] == (_TOK_OP, "^"):
            self.take()
            kind, val, at = self.take()
            if kind != _TOK_NUM or "/" in val:
                raise ParseError("exponent must be a nonnegative integer", column=at + 1)
            p = p ** int(val)
        return p

    def atom(self) -> Poly:
        kind, val, at = self.take()
        if kind == _TOK_NUM:
            return self.ring.const(Fraction(val))
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
        raise ParseError(f"unexpected {val!r}", column=at + 1)


def parse_poly(text: str, ring: Ring) -> Poly:
    """Parse a polynomial expression; raises ParseError / UNKNOWN_VARIABLE."""
    return _ExprParser(_tokenize(text), ring).parse()

"""Independent membership oracle for the test suite.

Everything here is deliberately redundant with the package: plain dense-ish
Gaussian elimination over Fraction on dict-of-exponent-tuple vectors, with
its own monomial enumeration. Tests compare package answers against these.
"""

from fractions import Fraction
from itertools import product


def degkey(m):
    return (sum(m), tuple(-e for e in reversed(m)))


def monos_upto(n, N):
    out = [m for m in product(range(N + 1), repeat=n) if sum(m) <= N]
    out.sort(key=degkey)
    return out


def dict_trunc(d, N):
    return {m: c for m, c in d.items() if sum(m) <= N and c}


def dict_shift(d, delta):
    return {tuple(a + b for a, b in zip(m, delta)): c for m, c in d.items()}


def echelon(rows, keyf=degkey):
    """Forward-eliminated rows as (pivot, row) pairs, pivot coefficient 1."""
    ech = []
    for r in rows:
        r = {m: Fraction(c) for m, c in r.items() if c}
        for piv, er in ech:
            c = r.get(piv)
            if c:
                for k, v in er.items():
                    nv = r.get(k, Fraction(0)) - c * v
                    if nv:
                        r[k] = nv
                    else:
                        r.pop(k, None)
        if r:
            piv = max(r, key=keyf)
            inv = 1 / r[piv]
            ech.append((piv, {k: v * inv for k, v in r.items()}))
    return ech


def gauss_rank(rows):
    return len(echelon(rows))


def gauss_member(target, rows, keyf=degkey):
    work = {m: Fraction(c) for m, c in target.items() if c}
    for piv, er in echelon(rows, keyf):
        c = work.get(piv)
        if c:
            for k, v in er.items():
                nv = work.get(k, Fraction(0)) - c * v
                if nv:
                    work[k] = nv
                else:
                    work.pop(k, None)
    return not work


def multiples_upto(gen_dicts, n, N):
    """Truncations of x^delta * g for |delta| <= N: a spanning set of the
    degree-<=N slice of the polynomial ideal."""
    rows = []
    for g in gen_dicts:
        for delta in monos_upto(n, N):
            r = dict_trunc(dict_shift(g, delta), N)
            if r:
                rows.append(r)
    return rows


def member_upto(p_dict, gen_dicts, n, N):
    """Exact decision of p in <gens> + m^{N+1}."""
    return gauss_member(dict_trunc(p_dict, N), multiples_upto(gen_dicts, n, N))


def member_global(p_dict, gen_dicts, n, margin=0):
    """Sound one-sided polynomial-ideal membership: p lies in the span of
    untruncated multiples x^delta * g up to degree deg(p) + margin. A hit
    proves membership; a miss only bounds the combination degree."""
    D = max((sum(m) for m in p_dict), default=0) + margin
    rows = []
    for g in gen_dicts:
        dg = max((sum(m) for m in g), default=0)
        for delta in monos_upto(n, D - dg):
            if sum(delta) + dg <= D:
                rows.append(dict_shift(g, delta))
    return gauss_member(p_dict, rows)


def quotient_dim_upto(gen_dicts, n, N):
    """dim of O/I read from the degree-<=N slice; exact when m^{N+1} is
    contained in I."""
    total = len(monos_upto(n, N))
    return total - gauss_rank(multiples_upto(gen_dicts, n, N))


def reduce_against(target, ech):
    """Residual of target modulo an echelon() result."""
    work = {m: Fraction(c) for m, c in target.items() if c}
    for piv, er in ech:
        c = work.get(piv)
        if c:
            for k, v in er.items():
                nv = work.get(k, Fraction(0)) - c * v
                if nv:
                    work[k] = nv
                else:
                    work.pop(k, None)
    return work


def kernel_combos(vectors, labels, keyf=None):
    """Kernel of the map unit_t -> vectors[t], as combination dicts.

    Fresh implementation for the test side: eliminate with combination
    tracking; a vector that reduces to zero yields a kernel element.
    """
    keyf = keyf or (lambda k: k)
    ech = []  # (pivot, row, combo)
    kernel = []
    for t, v in enumerate(vectors):
        work = {k: Fraction(c) for k, c in v.items() if c}
        combo = {labels[t]: Fraction(1)}
        for piv, er, ec in ech:
            c = work.get(piv)
            if c:
                for k, val in er.items():
                    nv = work.get(k, Fraction(0)) - c * val
                    if nv:
                        work[k] = nv
                    else:
                        work.pop(k, None)
                for k, val in ec.items():
                    nv = combo.get(k, Fraction(0)) - c * val
                    if nv:
                        combo[k] = nv
                    else:
                        combo.pop(k, None)
        if work:
            piv = max(work, key=keyf)
            inv = 1 / work[piv]
            ech.append((piv, {k: c * inv for k, c in work.items()},
                        {k: c * inv for k, c in combo.items()}))
        else:
            kernel.append(combo)
    return kernel


def d(p):
    """Poly -> plain dict of its terms."""
    return dict(p.terms)


def evalp(p, vals):
    """Exact value of a Poly at a rational point (list of Fractions)."""
    total = Fraction(0)
    for mono, coeff in p.terms.items():
        v = coeff
        for x, e in zip(vals, mono):
            for _ in range(e):
                v *= x
        total += v
    return total


def to_sympy(p, symbols):
    """Poly -> sympy expression in symbols (sympy is imported on use)."""
    import sympy

    return sum((sympy.Rational(c.numerator, c.denominator)
                * sympy.Mul(*(s ** e for s, e in zip(symbols, m)))
                for m, c in p.terms.items()), sympy.Integer(0))

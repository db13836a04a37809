"""Exact multivariate rational functions over Q or a finite field.

``MultiPoly`` is a sparse polynomial keyed by exponent tuples; ``RatFn`` is a
reduced fraction of two such polynomials with a monic (graded-lex) denominator.
The coefficient domain is either the rationals (``QQ``) or an ``FqContext``.
A rational coefficient is a Python ``int`` when its denominator is 1 and a
``Fraction`` only when it is not, so the products and sums of integer
polynomials never leave int arithmetic; every quotient of two coefficients
goes through ``_div``, which is exact and never a float.

``poly_gcd`` takes a monomial argument's gcd as x^min, and any other by the
primitive PRS (pseudo-remainder sequence).
"""

from __future__ import annotations

from fractions import Fraction
from functools import partial
from operator import add, mul

from .errors import (DivisionByZero, DomainMismatch, IndeterminateForm,
                     PoleAtPoint, UnboundVariable)
from .exactfield import FqContext, FqElement, _power, _term_sum, common_field


class RationalDomain:
    """The field Q, mirroring FqContext's interface.  An element is an int
    when its denominator is 1 and a Fraction otherwise; the two compare and
    hash equal, so term dicts and equality do not see the difference."""

    char = 0
    zero = 0
    one = 1

    def coerce(self, v):
        if isinstance(v, (int, Fraction)):
            return v.numerator if v.denominator == 1 else v
        raise DomainMismatch("cannot coerce %r into Q" % (v,))

    def from_int(self, n):
        return int(n)

    def __repr__(self):
        return "QQ"


QQ = RationalDomain()


def _same_domain(a, b):
    if a is b:
        return True
    if isinstance(a, FqContext) and isinstance(b, FqContext):
        return a.p == b.p and a.modulus == b.modulus
    return isinstance(a, RationalDomain) and isinstance(b, RationalDomain)


def _grlex_key(expo):
    return (sum(expo), expo)


class MultiPoly:
    """Sparse multivariate polynomial; ``terms`` maps exponent tuple -> coeff."""

    __slots__ = ("domain", "vars", "terms")

    def __init__(self, domain, vars, terms):
        self.domain = domain
        self.vars = tuple(vars)
        self.terms = _nonzero_terms(terms)

    # -- constructors -------------------------------------------------------

    @classmethod
    def zero(cls, domain, vars):
        return cls(domain, vars, {})

    @classmethod
    def const(cls, domain, vars, c):
        c = domain.coerce(c)
        z = (0,) * len(vars)
        return cls(domain, vars, {z: c})

    @classmethod
    def var(cls, domain, vars, name):
        i = vars.index(name)
        e = tuple(1 if j == i else 0 for j in range(len(vars)))
        return cls(domain, vars, {e: domain.one})

    # -- structure ----------------------------------------------------------

    def is_zero(self):
        return not self.terms

    def is_constant(self):
        return all(sum(e) == 0 for e in self.terms)

    def constant_value(self):
        z = (0,) * len(self.vars)
        return self.terms.get(z, self.domain.zero)

    def degree_in(self, i):
        return max((e[i] for e in self.terms), default=-1) if self.terms else -1

    def occurring(self):
        out = set()
        for e in self.terms:
            for i, d in enumerate(e):
                if d:
                    out.add(i)
        return out

    def leading(self):
        """(exponent, coeff) of the graded-lex leading term."""
        e = max(self.terms, key=_grlex_key)
        return e, self.terms[e]

    def _check(self, other):
        if not _same_domain(self.domain, other.domain) or self.vars != other.vars:
            raise DomainMismatch("incompatible polynomial rings")

    # -- arithmetic ---------------------------------------------------------

    def __add__(self, other):
        if not isinstance(other, MultiPoly):
            other = MultiPoly.const(self.domain, self.vars, other)
        self._check(other)
        t = dict(self.terms)
        for e, c in other.terms.items():
            t[e] = t.get(e, self.domain.zero) + c
        return MultiPoly(self.domain, self.vars, t)

    __radd__ = __add__

    def __neg__(self):
        return MultiPoly(self.domain, self.vars, {e: -c for e, c in self.terms.items()})

    def __sub__(self, other):
        if not isinstance(other, MultiPoly):
            other = MultiPoly.const(self.domain, self.vars, other)
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if not isinstance(other, MultiPoly):
            return _scaled(self, self.domain.coerce(other))
        self._check(other)
        if _is_one(other):  # polynomials are immutable: no copy needed
            return self
        if _is_one(self):
            return other
        small, big = sorted((self.terms, other.terms), key=len)
        items = list(big.items())
        t = {}
        get, z = t.get, self.domain.zero
        for e1, c1 in small.items():
            for e2, c2 in items:
                e = tuple(map(add, e1, e2))
                t[e] = get(e, z) + c1 * c2
        return MultiPoly(self.domain, self.vars, t)

    __rmul__ = __mul__

    def __pow__(self, n):
        if n < 0:
            raise ValueError("negative power of a polynomial")
        return _power(mul, self, n) if n else \
            MultiPoly.const(self.domain, self.vars, self.domain.one)

    def __eq__(self, other):
        return (isinstance(other, MultiPoly) and self.vars == other.vars
                and _same_domain(self.domain, other.domain) and self.terms == other.terms)

    def __hash__(self):
        return hash((self.vars, frozenset(self.terms.items())))

    def __repr__(self):
        return render_poly(self)


def _is_one(p):
    """Whether p is the constant 1."""
    if len(p.terms) != 1:
        return False
    (e, c), = p.terms.items()
    return c == 1 and not any(e)


def _scaled(p, c):  # p times the scalar c of its domain
    return MultiPoly(p.domain, p.vars, {e: x * c for e, x in p.terms.items()})


def _nonzero_terms(terms):
    """The nonzero terms, a rational coefficient of denominator 1 as an int."""
    out = {}
    for e, c in terms.items():
        if type(c) is int:
            if c:
                out[e] = c
        elif isinstance(c, FqElement):
            if not c.is_zero():
                out[e] = c
        elif c:
            out[e] = c.numerator if c.denominator == 1 else c
    return out


def _czero(c):
    return c == 0 if isinstance(c, (int, Fraction)) else c.is_zero()


def _div(a, b):
    """a / b for coefficients or values of one field, exact: over Q an int
    when the quotient is integral, else a Fraction, and never a float."""
    if isinstance(a, (int, Fraction)) and isinstance(b, (int, Fraction)):
        q = Fraction(a, b)
        return q.numerator if q.denominator == 1 else q
    return a / b


def _coded(p, ctx):
    """p's terms as (coefficient, ((variable index, degree), ...)) for a
    term sum (``FqContext.term_sum``): each coefficient as its code in ctx,
    or as itself with ctx None."""
    return tuple((c if ctx is None else _coerce(c, ctx).code,
                  tuple((i, d) for i, d in enumerate(e) if d))
                 for e, c in p.terms.items())


def _coerce(c, dom):
    """c in the domain dom: PoleAtPoint for a Fraction whose denominator
    the characteristic of an F_q domain divides."""
    try:
        return dom.coerce(c)
    except ZeroDivisionError:
        raise PoleAtPoint("coefficient denominator vanishes in characteristic %d"
                          % dom.p)


# ---------------------------------------------------------------------------
# gcd machinery
# ---------------------------------------------------------------------------

def poly_divexact(f, g):
    """Exact division f / g, or None when g does not divide f."""
    if g.is_zero():
        raise DivisionByZero("division by the zero polynomial")
    if f.is_zero():
        return f
    quo = {}
    rem = dict(f.terms)
    ge, gc = g.leading()
    z = f.domain.zero
    while rem:
        e = max(rem, key=_grlex_key)
        c = rem[e]
        qe = tuple(a - b for a, b in zip(e, ge))
        if any(x < 0 for x in qe):
            return None
        qc = _div(c, gc)
        quo[qe] = qc
        for e2, c2 in g.terms.items():
            ne = tuple(a + b for a, b in zip(qe, e2))
            nc = rem.get(ne, z) - qc * c2
            if _czero(nc):
                rem.pop(ne, None)
            else:
                rem[ne] = nc
    return MultiPoly(f.domain, f.vars, quo)


def _normalize(f):
    if f.is_zero():
        return f
    _, lc = f.leading()
    return f * _div(f.domain.one, lc)


def poly_gcd(f, g):
    """Monic (graded-lex) gcd of two polynomials over a field domain."""
    if f.is_zero():
        return _normalize(g)
    if g.is_zero():
        return _normalize(f)
    if len(f.terms) == 1 or len(g.terms) == 1:
        # every divisor of a monomial is a monomial (a constant is x^0)
        low = tuple(map(min, *f.terms, *g.terms))
        return MultiPoly(f.domain, f.vars, {low: f.domain.one})
    return _normalize(_gcd_prs(f, g))


def _content_pp(f, v):
    """Content and primitive part of f as a polynomial in variable v."""
    coeffs = {}
    for e, c in f.terms.items():
        de = e[v]
        key = tuple(0 if i == v else x for i, x in enumerate(e))
        coeffs.setdefault(de, {})[key] = c
    polys = [MultiPoly(f.domain, f.vars, t) for t in coeffs.values()]
    cont = polys[0]
    for p in polys[1:]:
        cont = poly_gcd(cont, p)
        if cont.is_constant():
            cont = MultiPoly.const(f.domain, f.vars, f.domain.one)
            break
    pp = poly_divexact(f, cont)
    return cont, pp


def _coeff_in(f, v, d):
    t = {tuple(0 if i == v else x for i, x in enumerate(e)): c
         for e, c in f.terms.items() if e[v] == d}
    return MultiPoly(f.domain, f.vars, t)


def _shift_var(f, v, d):
    t = {tuple(x + d if i == v else x for i, x in enumerate(e)): c
         for e, c in f.terms.items()}
    return MultiPoly(f.domain, f.vars, t)


def _prem(a, b, v):
    """Pseudo-remainder of a by b with respect to variable v."""
    db = b.degree_in(v)
    lcb = _coeff_in(b, v, db)
    r = a
    guard = a.degree_in(v) - db + 2
    while not r.is_zero() and r.degree_in(v) >= db and guard > 0:
        dr = r.degree_in(v)
        lcr = _coeff_in(r, v, dr)
        r = r * lcb - _shift_var(lcr * b, v, dr - db)
        guard -= 1
    return r


def _gcd_prs(f, g):
    if f.is_zero():
        return g
    if g.is_zero():
        return f
    if f.is_constant() or g.is_constant():
        return MultiPoly.const(f.domain, f.vars, f.domain.one)
    inter = f.occurring() & g.occurring()
    if not inter:
        return MultiPoly.const(f.domain, f.vars, f.domain.one)
    v = min(inter)
    cf, pf = _content_pp(f, v)
    cg, pg = _content_pp(g, v)
    c = _gcd_prs(cf, cg)
    a, b = (pf, pg) if pf.degree_in(v) >= pg.degree_in(v) else (pg, pf)
    while True:
        if b.is_zero():
            gpart = a
            break
        if b.degree_in(v) == 0:
            gpart = MultiPoly.const(f.domain, f.vars, f.domain.one)
            break
        r = _prem(a, b, v)
        if r.is_zero():
            gpart = b
            break
        a, b = b, _content_pp(r, v)[1]
    if not gpart.is_constant():
        gpart = _content_pp(gpart, v)[1]
    return c * gpart


# ---------------------------------------------------------------------------
# rational functions
# ---------------------------------------------------------------------------

class RatFn:
    """Reduced fraction num/den of MultiPolys; den is graded-lex monic.
    ``_text`` and ``_hash`` hold ``render(self)`` and the hash once they
    have been asked for."""

    __slots__ = ("num", "den", "_text", "_hash")

    def __init__(self, num, den, reduce=True):
        num._check(den)
        if den.is_zero():
            raise DivisionByZero("zero denominator")
        if reduce and not num.is_zero():
            g = poly_gcd(num, den)
            if not g.is_constant():
                num = poly_divexact(num, g)
                den = poly_divexact(den, g)
        _, lc = den.leading()
        if lc != den.domain.one:
            inv = _div(den.domain.one, lc)
            num, den = _scaled(num, inv), _scaled(den, inv)
        if num.is_zero():
            den = MultiPoly.const(den.domain, den.vars, den.domain.one)
        self.num = num
        self.den = den
        self._text = self._hash = None

    # -- constructors -------------------------------------------------------

    @classmethod
    def from_poly(cls, p):
        return cls(p, MultiPoly.const(p.domain, p.vars, p.domain.one), reduce=False)

    @classmethod
    def const(cls, domain, vars, c):
        return cls.from_poly(MultiPoly.const(domain, vars, c))

    @classmethod
    def var(cls, domain, vars, name):
        return cls.from_poly(MultiPoly.var(domain, vars, name))

    # -- structure ----------------------------------------------------------

    @property
    def domain(self):
        return self.num.domain

    @property
    def vars(self):
        return self.num.vars

    def is_zero(self):
        return self.num.is_zero()

    def is_constant(self):
        return self.num.is_constant() and self.den.is_constant()

    def constant_value(self):
        return _div(self.num.constant_value(), self.den.constant_value())

    def occurring(self):
        return self.num.occurring() | self.den.occurring()

    def __eq__(self, other):
        if not isinstance(other, RatFn):
            return NotImplemented
        return self.num == other.num and self.den == other.den

    def __hash__(self):
        if self._hash is None:
            self._hash = hash((self.num, self.den))
        return self._hash

    def __repr__(self):
        if self._text is None:
            self._text = render(self)
        return self._text

    # -- arithmetic ---------------------------------------------------------

    def _lift(self, other):
        if isinstance(other, RatFn):
            return other
        return RatFn.const(self.domain, self.vars, other)

    def __add__(self, other):
        o = self._lift(other)
        return RatFn(self.num * o.den + o.num * self.den, self.den * o.den)

    __radd__ = __add__

    def __neg__(self):
        return RatFn(-self.num, self.den, reduce=False)

    def __sub__(self, other):
        return self + (-self._lift(other))

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        o = self._lift(other)
        return RatFn(self.num * o.num, self.den * o.den)

    __rmul__ = __mul__

    def __truediv__(self, other):
        o = self._lift(other)
        if o.is_zero():
            raise DivisionByZero("division by the zero rational function")
        return RatFn(self.num * o.den, self.den * o.num)

    def __rtruediv__(self, other):
        return self._lift(other) / self

    def inverse(self):
        if self.is_zero():
            raise DivisionByZero("inverse of zero")
        return RatFn(self.den, self.num)

    def __pow__(self, n):
        if n == 0:
            return RatFn.const(self.domain, self.vars, self.domain.one)
        if n < 0:
            return self.inverse() ** (-n)
        return _power(mul, self, n)

    # -- substitution and evaluation ----------------------------------------

    def compose_pair(self, bindings):
        """Unreduced (numerator, denominator) of self under substitution,
        both cleared by one product of binding denominators: no gcd."""
        occ = {self.vars[i] for i in self.occurring()}
        missing = occ - set(bindings)
        if missing:
            raise UnboundVariable("unbound variables: %s" % sorted(missing))
        names = sorted(occ, key=self.vars.index)
        sample = bindings[names[0]] if names else next(iter(bindings.values()))
        maxdeg = {n: max(self.num.degree_in(self.vars.index(n)),
                         self.den.degree_in(self.vars.index(n)), 0)
                  for n in names}
        ncomp = _compose_poly(self.num, bindings, maxdeg, sample)
        dcomp = _compose_poly(self.den, bindings, maxdeg, sample)
        return ncomp, dcomp

    def substitute(self, bindings):
        """Substitute RatFns for variables; one reduction at the end."""
        occ = {self.vars[i] for i in self.occurring()}
        if not occ:
            return self
        ncomp, dcomp = self.compose_pair(bindings)
        if dcomp.is_zero():
            raise IndeterminateForm("denominator vanishes under substitution")
        return RatFn(ncomp, dcomp)

    def evaluate(self, values):
        """Exact value at field elements keyed by variable name, with one
        table of powers for both parts: on integer codes in the field of the
        coefficients and every value (``common_field`` raises ValueError for
        mixed fields) at an F_q point, with only the result an FqElement;
        on the values (int, Fraction) at a rational point, through ``_div``."""
        vs, occ = self.vars, self.occurring()
        missing = {vs[i] for i in occ} - set(values)
        if missing:
            raise UnboundVariable("unbound variables: %s" % sorted(missing))
        ctx = self.domain if isinstance(self.domain, FqContext) else None
        for v in values.values():
            if isinstance(v, FqElement) and v.ctx is not ctx:
                ctx = v.ctx if ctx is None else common_field(ctx, v.ctx)
        powers = {(i, 1): values[vs[i]] if ctx is None else
                  _coerce(values[vs[i]], ctx).code for i in occ}
        term_sum = partial(_term_sum, add, mul, pow) if ctx is None else \
            ctx.term_sum
        d, n = term_sum((_coded(self.den, ctx), _coded(self.num, ctx)), powers)
        if d == 0:
            raise PoleAtPoint("denominator vanishes at the given point")
        return _div(n, d) if ctx is None else \
            FqElement(ctx, ctx.mul(n, ctx.inv(d)))


def _compose_poly(p, bindings, maxdeg, sample):
    """p with vars replaced by bindings, cleared by prod den^maxdeg; a MultiPoly."""
    dom, vs = sample.domain, sample.vars
    slots = [(p.vars.index(n), top, _pow_table(bindings[n].num, top),
              _pow_table(bindings[n].den, top)) for n, top in maxdeg.items()]
    one = MultiPoly.const(dom, vs, dom.one)
    acc = {}
    get, z = acc.get, dom.zero
    for e, c in p.terms.items():
        c = _coerce(c, dom)
        term = one
        for i, top, numpow, denpow in slots:
            d = e[i]
            if d:
                term = term * numpow[d]
            if d < top:
                term = term * denpow[top - d]
        for e2, c2 in term.terms.items():
            acc[e2] = get(e2, z) + c2 * c
    return MultiPoly(dom, vs, acc)


def _pow_table(p, n):
    out = [MultiPoly.const(p.domain, p.vars, p.domain.one)]
    for _ in range(n):
        out.append(out[-1] * p)
    return out


# ---------------------------------------------------------------------------
# rendering
# ---------------------------------------------------------------------------

def _render_coeff(c):
    if isinstance(c, (int, Fraction)):
        return str(c)
    return str(c.encode())


def _render_term(vars, e, c, lead):
    parts = []
    body = []
    for i, d in enumerate(e):
        if d == 1:
            body.append(vars[i])
        elif d > 1:
            body.append("%s^%d" % (vars[i], d))
    cs = _render_coeff(c)
    if not body:
        return cs
    if cs == "1":
        return " * ".join(body)
    if cs == "-1" and lead:
        return "-" + " * ".join(body)
    parts.append(cs)
    parts.extend(body)
    return " * ".join(parts)


def render_poly(p):
    """Graded-lex descending, explicit '*', caret powers."""
    if p.is_zero():
        return "0"
    items = sorted(p.terms.items(), key=lambda t: _grlex_key(t[0]), reverse=True)
    out = []
    for idx, (e, c) in enumerate(items):
        if idx == 0:
            out.append(_render_term(p.vars, e, c, lead=True))
            continue
        neg = (c < 0) if isinstance(c, (int, Fraction)) else False
        if neg:
            out.append("- " + _render_term(p.vars, e, -c, lead=True).lstrip("-"))
        else:
            out.append("+ " + _render_term(p.vars, e, c, lead=True))
    return " ".join(out)


def render(r):
    """Render a RatFn; monomial denominators appear as '^-1' factors."""
    if r.den.is_constant():
        return render_poly(r.num)
    num_s = render_poly(r.num)
    if len(r.num.terms) > 1:
        num_s = "(%s)" % num_s
    if len(r.den.terms) == 1:
        e, c = next(iter(r.den.terms.items()))
        den_s = _render_term(r.den.vars, e, c, lead=True)
        if not (sum(e) == 1 and _render_coeff(c) == "1"):
            den_s = "(%s)" % den_s
        return "%s * %s^-1" % (num_s, den_s)
    return "%s * (%s)^-1" % (num_s, render_poly(r.den))

"""The field of cross-ratios: symbolic [i,j;k,l] in K(x_1..x_n), the rewriting
of any cross-ratio in the generators t_i = [1,2;3,i], the induced S_n action,
and Prop 3.2's certificate (``verify_faithful``): (1 2) and (1 2 ... n) keep
K(t_4..t_n) stable, and S_n acts on it faithfully, as the kernel is normal,
the normal subgroups of S_n (n >= 5) are 1, A_n and S_n, and (1 2 3) moves t_4.
``cr_define``'s sides and a rewrite's, the same four-term products
(``_cross_product``) on the slice (x_1, x_2, x_3) = (inf, 0, 1), x_m = t_m,
are built reduced, with no gcd.  ``check_rewrite`` proves a rewrite by exact
composition at x_1 = 0, x_2 = 1, with the generators' cleared products shared
through one table for every n, keyed by the t_m the rewrite holds
(``_generator_image``), on packed monomials: _FIELD bits per x_m, so a
product of monomials is one int addition (Monagan and Pearce, CASC 2007).  A
rewrite has degree <= 1 in at most four t_m, so no exponent passes 5 (4 in
x_3 from the cleared generators, 1 from cr_define); a field holds 5 below a
spare top bit, and a product that reaches one raises.
"""

from __future__ import annotations

from functools import lru_cache, reduce
from operator import or_

from .errors import AmbientOutOfRange, AmbientTooSmall, DegreeTooLarge
from .ratfunc import QQ, MultiPoly, RatFn
from .record import Record


class CRSymbol(Record):
    """The cross-ratio [i,j;k,l] of four of n ambient variables."""

    __slots__ = ("n", "indices")  # indices: (i, j, k, l), distinct, in [1, n]

    def __post_init__(self):
        i, j, k, l = self.indices
        if self.n < 4:
            raise AmbientTooSmall("cross-ratios need n >= 4")
        if len({i, j, k, l}) != 4:
            raise ValueError("indices must be pairwise distinct")
        if not all(1 <= x <= self.n for x in self.indices):
            raise AmbientOutOfRange("index outside [1, %d]" % self.n)

    def __str__(self):
        return "[%d,%d;%d,%d]" % self.indices


def xvars(n):
    return tuple("x%d" % i for i in range(1, n + 1))


@lru_cache(maxsize=None)
def tvars(n):
    return tuple("t%d" % i for i in range(4, n + 1))


def _cross_product(mono, a, b, c, d):
    """(x_a - x_c)(x_b - x_d) = x_a x_b - x_a x_d - x_c x_b + x_c x_d as its
    terms {mono(p, q): coefficient}, ``mono`` spelling x_p x_q, or None for
    a term it drops; for distinct a, b, c, d the monomials differ."""
    terms = {mono(a, b): 1, mono(a, d): -1, mono(c, b): -1, mono(c, d): 1}
    terms.pop(None, None)
    return terms


def _exponents(n, first):
    """x_p x_q as an exponent tuple over x_first..x_n, dropping x_m < first."""
    def mono(p, q):
        e = [0] * (n + 1)
        e[p] = e[q] = 1
        return tuple(e[first:])
    return mono


def cr_define(sym):
    """[i,j;k,l] = (x_i-x_k)(x_j-x_l) / ((x_i-x_l)(x_j-x_k)), built reduced:
    the four linear factors join distinct pairs of variables."""
    i, j, k, l = sym.indices
    vs, mono = xvars(sym.n), _exponents(sym.n, 1)
    return RatFn(MultiPoly(QQ, vs, _cross_product(mono, i, j, k, l)),
                 MultiPoly(QQ, vs, _cross_product(mono, i, j, l, k)),
                 reduce=False)


def generator_symbol(n, i):
    return CRSymbol(n, (1, 2, 3, i))


# perfbench/make_catalog.py clears this cache to time a cold rewrite
@lru_cache(maxsize=None)
def _rewrite(n, indices):
    """cr_define's sides on the slice: x_2 = 0 drops a term, x_3 = 1 and
    x_m = t_m respell one, and x_1 = inf keeps, when 1 is an index, only the
    terms in x_1 (the leading coefficient in x_1)."""
    vs, mono, at_inf = tvars(n), _exponents(n, 4), 1 in indices

    def side(*abcd):
        terms = _cross_product(lambda *pq: pq, *abcd)
        return MultiPoly(QQ, vs, {mono(*pq): c for pq, c in terms.items()
                                  if 2 not in pq and (1 in pq) == at_inf})

    i, j, k, l = indices
    return RatFn(side(i, j, k, l), side(i, j, l, k), reduce=False)


def cr_rewrite(sym):
    """sym in the generators t_4..t_n: [i,j;k,l] on the slice x_1 = inf,
    x_2 = 0, x_3 = 1, x_m = t_m, where [1,2;3,m] is t_m.  Sound, as both
    sides are PGL_2-invariant and PGL_2 is sharply 3-transitive, so a Mobius
    map moves a generic point onto the slice.  Reduced by construction: each
    index is in one factor above and one below, so the two with x_1 cancel
    and the rest are pairwise non-associate linear forms (t_a, t_a - 1,
    t_a - t_b, or -1)."""
    if sym.n < 5:
        raise AmbientTooSmall("rewriting needs n >= 5")
    return _rewrite(sym.n, sym.indices)


def _image_symbols(sigma):
    """sigma(t_i) = [s(1),s(2);s(3),s(i)] for each generator t_i, sigma a
    permutation as a 0-based tuple of length n >= 5."""
    if len(sigma) < 5:
        raise AmbientTooSmall("the action is modeled for n >= 5")
    n, s = len(sigma), [None, *(x + 1 for x in sigma)]  # 1-based
    return {i: CRSymbol(n, (s[1], s[2], s[3], s[i])) for i in range(4, n + 1)}


def sn_action(sigma):
    """Generator images under a permutation (0-based tuple of length n): t_i
    maps to the rewriting of its image symbol."""
    return {i: cr_rewrite(sym) for i, sym in _image_symbols(sigma).items()}


def apply_action(action, expr):
    """Apply a generator map (from sn_action) to a RatFn in t_4..t_n."""
    bindings = {"t%d" % i: img for i, img in action.items()}
    return expr.substitute(bindings)


class FaithfulReport(Record):
    __slots__ = ("n", "passed", "checked")  # checked: identities proven


def verify_faithful(n):
    """Prop 3.2's certificate for n >= 5 (Buhler and Reichstein, Compositio
    Math. 106, 1997; module docstring): check_rewrite proves sigma(t_m) for
    the generators sigma = (1 2), (1 2 ... n) of S_n and m in 4..n, and that
    (1 2 3) sends t_4 to [2,3;1,4], a rewrite other than t_4."""
    syms = [*_image_symbols((1, 0, *range(2, n))).values(),  # (1 2)
            *_image_symbols((*range(1, n), 0)).values(),  # (1 2 ... n)
            _image_symbols((1, 2, 0, *range(3, n)))[4]]  # (1 2 3) on t_4
    proven = sum(map(check_rewrite, syms))
    moves = cr_rewrite(syms[-1]) != RatFn.var(QQ, tvars(n), "t4")
    return FaithfulReport(n, proven == len(syms) and moves, proven)


def check_rewrite(sym):
    """Exact soundness of cr_rewrite(sym), independent of the slice argument:
    with t_i = [1,2;3,i] the rewrite is cr_define(sym), checked as
    ncomp * den == dcomp * num on the unreduced composition (cr_define can
    only negate both).  Every factor is a difference x_a - x_b, so the two
    sides' difference is homogeneous and unchanged by x -> x - x_1: it
    vanishes iff it does at x_1 = 0, x_2 = 1, where the check runs."""
    composed = _composed(cr_rewrite(sym), sym.indices)
    if composed is None:
        return False
    i, j, k, l = sym.indices
    den = _cross_product(_packed_pair, i, j, l, k)
    neg_num = _cross_product(_packed_pair, k, j, i, l)  # (x_k-x_i)(x_j-x_l)
    return not _product_sum(((composed[0], den), (composed[1], neg_num)))


def _composed(rewritten, indices):
    """``rewritten.compose_pair`` under t_m = [1,2;3,m], packed at x_1 = 0,
    x_2 = 1: A/B cleared by prod_m den_m^top_m, top_m = max(deg_m A,
    deg_m B), a term c t^e to c ``_generator_image(((m, e_m, top_m), ...))``,
    over the t_m at indices m > 3; None if a term's degree shows another."""
    terms = (*rewritten.num.terms, *rewritten.den.terms)
    held = [(m, top) for m in sorted(indices) if m > 3
            for top in [max(e[m - 4] for e in terms)] if top]
    out = []
    for p in (rewritten.num, rewritten.den):
        pairs = []
        for e, c in p.terms.items():
            key = tuple([(m, e[m - 4], top) for m, top in held])
            if sum(e) != sum(d for _, d, _ in key):
                return None
            pairs.append(({0: c}, _generator_image(key)))
        out.append(_product_sum(pairs))
    return out


@lru_cache(maxsize=None)
def _generator_image(key):
    """M_e = prod_m num_m^e_m den_m^(top_m - e_m) over key = ((m, e_m, top_m),
    ...), (num_m, den_m) the sides of cr_define([1,2;3,m]), packed as by
    ``_packed_pair``: what ``RatFn.compose_pair`` multiplies out.  A key
    names each m, so one table serves every n, with few keys."""
    image = {0: 1}
    for m, e, top in key:
        for abcd in [(1, 2, 3, m)] * e + [(1, 2, m, 3)] * (top - e):
            side = _cross_product(_packed_pair, *abcd)
            image = _product_sum([(image, side)])
    return image


_MAX_EXPONENT = 5  # the degree bound of the module docstring
_FIELD = _MAX_EXPONENT.bit_length() + 1  # bits per variable, with a top bit
_TOP = 1 << (_FIELD - 1)


def _packed_pair(p, q):  # x_p x_q, p != q, packed at x_1 = 0, x_2 = 1
    if 1 not in (p, q):  # else None: the term drops
        return sum(1 << _FIELD * (m - 1) for m in (p, q) if m != 2)


def _product_sum(pairs):
    """The sum of p * q over pairs of packed polynomials, without zero terms;
    DegreeTooLarge when an exponent reaches its field's top bit, _TOP."""
    out = {}
    get = out.get
    for p, q in pairs:
        if len(p) > len(q):
            p, q = q, p
        for e1, c1 in p.items():
            for e2, c2 in q.items():
                e = e1 + e2
                out[e] = get(e, 0) + c1 * c2
    used = reduce(or_, out, 0)
    fields = -(-used.bit_length() // _FIELD)  # each field to the last used
    if used & ((1 << _FIELD * fields) - 1) // ((1 << _FIELD) - 1) * _TOP:
        raise DegreeTooLarge("an exponent needs over %d bits" % (_FIELD - 1))
    return {e: c for e, c in out.items() if c}

"""The field of cross-ratios: symbolic [i,j;k,l] in K(x_1..x_n), the rewriting
of any cross-ratio in the generators t_i = [1,2;3,i], the induced S_n action,
and faithfulness verification.  ``cr_define``'s sides and a rewrite's, the
same four-term products (``_cross_product``) on the slice (x_1, x_2, x_3) =
(inf, 0, 1), x_m = t_m, are built reduced, with no gcd.  ``check_rewrite``
proves a rewrite independently, by exact composition, with the generators'
cleared products shared through a per-n table (``_generator_image``), on
polynomials keyed by packed monomials: _FIELD bits per x_m, so a product of
monomials is one int addition (Monagan and Pearce, CASC 2007).  A rewrite has
degree <= 1 in at most four t_m, so no exponent passes 5 (4 in x_1, x_2, x_3
from the cleared generators, 1 from cr_define); a field holds 5 below a
spare top bit, and a product that reaches one raises.
"""

from __future__ import annotations

import itertools
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


def tvars(n):
    return tuple("t%d" % i for i in range(4, n + 1))


def _cross_product(mono, a, b, c, d):
    """(x_a - x_c)(x_b - x_d) = x_a x_b - x_a x_d - x_c x_b + x_c x_d as its
    four terms {mono(p, q): coefficient}, ``mono`` spelling x_p x_q; for
    distinct a, b, c, d the monomials differ."""
    return {mono(a, b): 1, mono(a, d): -1, mono(c, b): -1, mono(c, d): 1}


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
    """cr_define's four-term sides on the slice: x_2 = 0 drops a term, x_3 = 1
    and x_m = t_m respell one, and x_1 = inf keeps, when 1 is an index, only
    the terms in x_1 (a side's leading coefficient in x_1)."""
    vs, mono, at_inf = tvars(n), _exponents(n, 4), 1 in indices

    def side(*abcd):
        terms = _cross_product(lambda *pq: pq, *abcd)
        return MultiPoly(QQ, vs, {mono(*pq): c for pq, c in terms.items()
                                  if 2 not in pq and (1 in pq) == at_inf})

    i, j, k, l = indices
    return RatFn(side(i, j, k, l), side(i, j, l, k), reduce=False)


def cr_rewrite(sym):
    """Express sym as a rational function of the generators t_4..t_n.

    The result is [i,j;k,l] restricted to the slice x_1 = inf, x_2 = 0,
    x_3 = 1, x_m = t_m, on which [1,2;3,m] is t_m itself.  This is sound:
    both sym and its rewrite with t_m = [1,2;3,m] are PGL_2-invariant
    functions of (x_1..x_n), PGL_2 is sharply 3-transitive, so one Mobius map
    moves a generic point onto the slice, and two invariant functions that
    agree on the slice agree everywhere.  It is reduced by construction: each
    index occurs in one factor above and one below, so the two that contain
    x_1 cancel, and the rest join distinct pairs of indices, so they are
    pairwise non-associate linear forms (t_a, t_a - 1, t_a - t_b, or the
    constant -1).
    """
    if sym.n < 5:
        raise AmbientTooSmall("rewriting needs n >= 5")
    return _rewrite(sym.n, sym.indices)


def sn_action(sigma):
    """Generator images under a permutation (0-based tuple of length n).

    t_i = [1,2;3,i] maps to the rewriting of [s(1),s(2);s(3),s(i)].
    """
    n = len(sigma)
    if n < 5:
        raise AmbientTooSmall("the action is modeled for n >= 5")

    def s(m):  # 1-based application
        return sigma[m - 1] + 1

    return {i: cr_rewrite(CRSymbol(n, (s(1), s(2), s(3), s(i))))
            for i in range(4, n + 1)}


def apply_action(action, expr):
    """Apply a generator map (from sn_action) to a RatFn in t_4..t_n."""
    bindings = {"t%d" % i: img for i, img in action.items()}
    return expr.substitute(bindings)


class FaithfulReport(Record):
    __slots__ = ("n", "passed", "checked", "details")


def verify_faithful(n):
    """Check that S_n acts with trivial kernel on K(t_4..t_n).

    n = 5, 6: every non-identity permutation moves some generator.
    n = 7: a transposition and a 3-cycle suffice — the kernel is normal and
    the only candidates are S_7, A_7 and the trivial group.
    """
    if not 5 <= n <= 7:
        raise AmbientOutOfRange("faithfulness verification supports 5 <= n <= 7")
    vs = tvars(n)
    gens = {i: RatFn.var(QQ, vs, "t%d" % i) for i in range(4, n + 1)}
    if n == 7:  # the transposition (1 2) and the 3-cycle (1 2 3)
        perms = [(1, 0, 2, 3, 4, 5, 6), (1, 2, 0, 3, 4, 5, 6)]
    else:  # all but the identity, which comes first
        perms = list(itertools.permutations(range(n)))[1:]
    details = []
    passed = True
    for sigma in perms:
        action = sn_action(sigma)
        moved = next((i for i in action if action[i] != gens[i]), None)
        if moved is None:
            passed = False
            details.append((sigma, "acts trivially"))
        else:
            details.append((sigma, "moves t%d" % moved))
    return FaithfulReport(n, passed, len(perms), tuple(details))


def check_rewrite(sym):
    """Exact soundness of cr_rewrite(sym), independent of the slice argument:
    substituting t_i = [1,2;3,i] into the rewrite returns cr_define(sym),
    checked as ncomp * den == dcomp * num on the unreduced composition and
    packed monomials, with no gcd (module docstring), num and den built as by
    cr_define, whose monic normalization can only negate both."""
    ncomp, dcomp = _composed(sym.n, cr_rewrite(sym))
    i, j, k, l = sym.indices
    den = _cross_product(_packed_pair, i, j, l, k)
    neg_num = _cross_product(_packed_pair, k, j, i, l)  # (x_k-x_i)(x_j-x_l)
    return not _product_sum(((ncomp, den), (dcomp, neg_num)), sym.n)


def _composed(n, rewritten):
    """The pair ``rewritten.compose_pair`` returns under t_m = [1,2;3,m],
    packed: A/B cleared by prod_m den_m^top_m, top_m = max(deg_m A, deg_m B),
    so that a term c t^e clears to c times ``_generator_image(n, e, tops)``."""
    num, den = rewritten.num, rewritten.den
    tops = tuple(max(num.degree_in(i), den.degree_in(i), 0)
                 for i in range(n - 3))
    return tuple(_product_sum((({0: c}, _generator_image(n, e, tops))
                               for e, c in p.terms.items()), n)
                 for p in (num, den))


@lru_cache(maxsize=None)
def _generator_image(n, expo, tops):
    """M_e = prod_m num_m^e_m den_m^(top_m - e_m), (num_m, den_m) the sides
    of cr_define([1,2;3,m]), packed: the product ``RatFn.compose_pair`` would
    multiply out.  A rewrite has degree <= 1 in each t_m (every index occurs
    in one factor above and one below): at most 3^(n-3) keys per n."""
    image = {0: 1}
    for m, e, top in zip(range(4, n + 1), expo, tops):
        for abcd in [(1, 2, 3, m)] * e + [(1, 2, m, 3)] * (top - e):
            side = _cross_product(_packed_pair, *abcd)
            image = _product_sum([(image, side)], n)
    return image


_MAX_EXPONENT = 5  # the degree bound of the module docstring
_FIELD = _MAX_EXPONENT.bit_length() + 1  # bits per variable, with a top bit
_TOP = 1 << (_FIELD - 1)


def _packed_pair(p, q):  # x_p x_q, p != q, as a packed monomial
    return 1 << _FIELD * (p - 1) | 1 << _FIELD * (q - 1)


def _product_sum(pairs, n):
    """The sum of p * q over pairs of packed polynomials in n variables,
    without zero terms; DegreeTooLarge when an exponent reaches a top bit."""
    out = {}
    get = out.get
    for p, q in pairs:
        if len(p) > len(q):
            p, q = q, p
        for e1, c1 in p.items():
            for e2, c2 in q.items():
                e = e1 + e2
                out[e] = get(e, 0) + c1 * c2
    if reduce(or_, out, 0) & sum(_TOP << _FIELD * i for i in range(n)):
        raise DegreeTooLarge("an exponent needs over %d bits" % (_FIELD - 1))
    return {e: c for e, c in out.items() if c}

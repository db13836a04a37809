"""The field of cross-ratios: symbolic [i,j;k,l] in K(x_1..x_n), the rewriting
of any cross-ratio in the generators t_i = [1,2;3,i], the induced S_n action,
and faithfulness verification.  A rewrite is the symbol on the slice
(x_1, x_2, x_3) = (inf, 0, 1), x_m = t_m, a product of linear forms in closed
form; ``cr_define`` and the rewrite are both built reduced, with no gcd.
``check_rewrite`` proves a rewrite independently, by exact composition.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import lru_cache

from .errors import AmbientOutOfRange, AmbientTooSmall
from .ratfunc import QQ, MultiPoly, RatFn


@dataclass(frozen=True)
class CRSymbol:
    """The cross-ratio [i,j;k,l] of four of n ambient variables."""

    n: int
    indices: tuple  # (i, j, k, l), pairwise distinct, in [1, n]

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


def _cross_product(n, a, b, c, d):
    """(x_a - x_c)(x_b - x_d) = x_a x_b - x_a x_d - x_c x_b + x_c x_d, built
    as its four terms; for distinct a, b, c, d the four monomials differ."""
    def mono(p, q):
        e = [0] * n
        e[p - 1] = e[q - 1] = 1
        return tuple(e)
    return MultiPoly(QQ, xvars(n), {mono(a, b): 1, mono(a, d): -1,
                                    mono(c, b): -1, mono(c, d): 1})


def cr_define(sym):
    """[i,j;k,l] = (x_i-x_k)(x_j-x_l) / ((x_i-x_l)(x_j-x_k)), built reduced:
    the four linear factors join distinct pairs of variables.  Each side is
    one four-term polynomial, with no products of MultiPolys."""
    i, j, k, l = sym.indices
    return RatFn(_cross_product(sym.n, i, j, k, l),
                 _cross_product(sym.n, i, j, l, k), reduce=False)


def generator_symbol(n, i):
    return CRSymbol(n, (1, 2, 3, i))


# perfbench/make_catalog.py clears this cache to time a cold rewrite
@lru_cache(maxsize=None)
def _rewrite(n, indices):
    vs = tvars(n)
    zero, one = MultiPoly.zero(QQ, vs), MultiPoly.const(QQ, vs, 1)

    def x(m):  # the slice value of x_m for m >= 2
        return zero if m == 2 else one if m == 3 else \
            MultiPoly.var(QQ, vs, "t%d" % m)

    def diff(a, b):  # x_a - x_b, with the factors that contain x_1 cancelled
        return one if 1 in (a, b) else x(a) - x(b)

    i, j, k, l = indices
    return RatFn(diff(i, k) * diff(j, l), diff(i, l) * diff(j, k),
                 reduce=False)


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


@dataclass(frozen=True)
class FaithfulReport:
    n: int
    passed: bool
    checked: int
    details: tuple


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
    if n == 7:
        perms = [_transposition(7, 0, 1), _three_cycle(7)]
    else:
        perms = [p for p in _all_perms(n) if p != tuple(range(n))]
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


def _transposition(n, a, b):
    p = list(range(n))
    p[a], p[b] = p[b], p[a]
    return tuple(p)


def _three_cycle(n):
    p = list(range(n))
    p[0], p[1], p[2] = 1, 2, 0
    return tuple(p)


def _all_perms(n):
    return itertools.permutations(range(n))


def check_rewrite(sym):
    """Exact soundness of cr_rewrite(sym), independent of the slice argument:
    substituting t_i = [1,2;3,i] into the rewritten form returns
    cr_define(sym); checked by cross-multiplying the unreduced composition
    against the definition (no gcd needed)."""
    rewritten = cr_rewrite(sym)
    bindings = {"t%d" % i: cr_define(generator_symbol(sym.n, i))
                for i in range(4, sym.n + 1)}
    ncomp, dcomp = rewritten.compose_pair(bindings)
    direct = cr_define(sym)
    return ncomp * direct.den == dcomp * direct.num

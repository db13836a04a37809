"""The field of cross-ratios: symbolic [i,j;k,l] in K(x_1..x_n), the rewriting
of any cross-ratio in the generators t_i = [1,2;3,i], the induced S_n action,
and faithfulness verification.  The Mobius map a reordering of four points
induces is read from a table keyed by position permutation; its unimodular
matrix keeps a reduced fraction reduced, and ``cr_define`` is built reduced,
so rewriting needs no gcd but one per split.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

from .errors import AmbientOutOfRange, AmbientTooSmall
from .ratfunc import QQ, MultiPoly, RatFn

_BASE = (1, 2, 3)


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


def cr_define(sym):
    """[i,j;k,l] = (x_i-x_k)(x_j-x_l) / ((x_i-x_l)(x_j-x_k)), built reduced:
    the four linear factors join distinct pairs of variables."""
    vs = xvars(sym.n)
    i, j, k, l = sym.indices
    x = lambda m: MultiPoly.var(QQ, vs, "x%d" % m)
    return RatFn((x(i) - x(k)) * (x(j) - x(l)), (x(i) - x(l)) * (x(j) - x(k)),
                 reduce=False)


# the six Mobius images t -> (a t + b) / (c t + d) of a cross-ratio under
# permuting its four points, generated by the Step-2 identities
# (12).t = (34).t = 1/t and (23).t = 1 - t; every determinant is +-1
MOBIUS = ((1, 0, 0, 1), (0, 1, 1, 0), (-1, 1, 0, 1), (0, 1, -1, 1),
          (1, -1, 1, 0), (1, 0, 1, -1))


def generator_symbol(n, i):
    return CRSymbol(n, (1, 2, 3, i))


def _position_table():
    """The MOBIUS matrix each position permutation induces, read off at one
    point whose six images are distinct: points (0, 1, 3, 7), t = 9/7."""
    cr = lambda i, j, k, l: (i - k) * (j - l) / ((i - l) * (j - k))
    points = [Fraction(x) for x in (0, 1, 3, 7)]
    t = cr(*points)
    images = [(a * t + b) / (c * t + d) for a, b, c, d in MOBIUS]
    assert len(set(images)) == len(MOBIUS)
    return {perm: MOBIUS[images.index(cr(*(points[p] for p in perm)))]
            for perm in itertools.permutations(range(4))}


_POSITIONS = _position_table()


def _mobius(reference, indices, r):
    """The value of the reordering ``indices`` of ``reference`` from the
    reduced value r of ``reference``; reduced, as the matrix is unimodular."""
    a, b, c, d = _POSITIONS[tuple(reference.index(x) for x in indices)]
    return RatFn(r.num * a + r.den * b, r.num * c + r.den * d, reduce=False)


@lru_cache(maxsize=None)
def _rewrite(n, indices):
    if len(set(indices) & set(_BASE)) == 3:
        # the symbol lies in the 4-point orbit of t_m = [1,2;3,m]
        m = next(x for x in indices if x not in _BASE)
        return _mobius(_BASE + (m,), indices,
                       RatFn.var(QQ, tvars(n), "t%d" % m))
    # reorder so the base indices sit in the first pair, then split the second
    # pair through the spare base index c: [i,j;k,l] = [i,j;c,l][i,j;c,k]^{-1}
    first = sorted(x for x in indices if x in _BASE)
    rest = sorted(x for x in indices if x not in _BASE)
    arranged = tuple(first + rest)
    i, j, k, l = arranged
    c = min(x for x in _BASE if x not in arranged)
    return _mobius(arranged, indices,
                   _rewrite(n, (i, j, c, l)) / _rewrite(n, (i, j, c, k)))


def cr_rewrite(sym):
    """Express sym as a rational function of the generators t_4..t_n."""
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
    """Exact soundness of cr_rewrite(sym): substituting t_i = [1,2;3,i] into
    the rewritten form returns cr_define(sym); checked by cross-multiplying
    the unreduced composition against the definition (no gcd needed)."""
    rewritten = cr_rewrite(sym)
    bindings = {"t%d" % i: cr_define(generator_symbol(sym.n, i))
                for i in range(4, sym.n + 1)}
    ncomp, dcomp = rewritten.compose_pair(bindings)
    direct = cr_define(sym)
    return ncomp * direct.den == dcomp * direct.num

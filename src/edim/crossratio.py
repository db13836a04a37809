"""The field of cross-ratios: symbolic [i,j;k,l] in K(x_1..x_n), the rewriting
of any cross-ratio in the generators t_i = [1,2;3,i], the induced S_n action,
and faithfulness verification.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

from .errors import AmbientOutOfRange, AmbientTooSmall
from .ratfunc import QQ, RatFn

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
    """[i,j;k,l] = (x_i-x_k)(x_j-x_l) / ((x_i-x_l)(x_j-x_k))."""
    vs = xvars(sym.n)
    i, j, k, l = sym.indices
    x = lambda m: RatFn.var(QQ, vs, "x%d" % m)
    return ((x(i) - x(k)) * (x(j) - x(l))) / ((x(i) - x(l)) * (x(j) - x(k)))


# the six Mobius images of a cross-ratio under permuting its four points,
# generated by the Step-2 identities (12).t = (34).t = 1/t and (23).t = 1 - t
MOBIUS = (
    lambda t: t,
    lambda t: 1 / t,
    lambda t: 1 - t,
    lambda t: 1 / (1 - t),
    lambda t: (t - 1) / t,
    lambda t: t / (t - 1),
)


def generator_symbol(n, i):
    return CRSymbol(n, (1, 2, 3, i))


def _match_mobius(value, reference):
    """Index of the Mobius map with value = MOBIUS[idx](reference)."""
    for idx, phi in enumerate(MOBIUS):
        if value == phi(reference):
            return idx
    raise AssertionError("cross-ratio values not Mobius-related")


@lru_cache(maxsize=None)
def _rewrite(n, indices):
    sym = CRSymbol(n, indices)
    vs = tvars(n)
    tvar = lambda m: RatFn.var(QQ, vs, "t%d" % m)
    overlap = sorted(set(indices) & set(_BASE))
    value = cr_define(sym)
    if len(overlap) == 3:
        # the symbol lies in the 4-point orbit of t_m = [1,2;3,m]
        m = next(x for x in indices if x not in _BASE)
        idx = _match_mobius(value, cr_define(generator_symbol(n, m)))
        return MOBIUS[idx](tvar(m))
    # reorder so the base indices sit in the first pair, then split the second
    # pair through the spare base index c: [i,j;k,l] = [i,j;c,l][i,j;c,k]^{-1}
    first = sorted(x for x in indices if x in _BASE)
    rest = sorted(x for x in indices if x not in _BASE)
    arranged = tuple(first + rest)
    i, j, k, l = arranged
    c = min(x for x in _BASE if x not in arranged)
    idx = _match_mobius(value, cr_define(CRSymbol(n, arranged)))
    left = _rewrite(n, (i, j, c, l))
    right = _rewrite(n, (i, j, c, k))
    return MOBIUS[idx](left / right)


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
    import itertools
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

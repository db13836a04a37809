"""Enumerating oracles for the structural facts the library decides in
closed form.

``edim`` decides Thm 4.5's hypotheses for C_n (``edengine._thm45_cyclic``),
centres (``edengine.center_order``), l-cores (``edengine.l_core_trivial``),
element orders (``groups.element_orders``), the R-S-LB and R-A lower
bounds, zeta_n in F_q (``FiniteField.contains_zeta``) and multiplicative
orders (``exactfield.order_mod``) without enumerating anything.  The
functions here are the slow paths those replace: each one walks an
explicit permutation group, the partitions of n, or the elements of F_q,
and the tests check the closed forms against them.

``ExtField`` is the extension-field arithmetic the Tschirnhaus root oracle
and criterion 5 compute in; the library itself never leaves F_q.
``check_rewrite_by_products`` is the cross-ratio check on MultiPoly products,
the path ``crossratio.check_rewrite``'s packed monomials replace, and
``rewrite_by_products`` the rewrite as MultiPoly products of differences,
the path ``crossratio._rewrite``'s term dicts replace, and
``faithful_by_enumeration`` the faithfulness of the S_n action by walking
every permutation, the path ``crossratio.verify_faithful``'s certificate
replaces.
"""

import itertools
import math
from dataclasses import dataclass

from edim.crossratio import (cr_define, cr_rewrite, generator_symbol,
                             sn_action, tvars)
from edim.errors import NotPrime, TooLarge, ZeroElement
from edim.exactfield import _power, is_prime
from edim.fielddesc import (NO, UNKNOWN, YES, char_of, contains_zeta,
                            extend_with_zeta)
from edim.groups import PermGroup, _closure, pident, pmul
from edim.ratfunc import QQ, MultiPoly, RatFn
from edim.unipoly import divmod_poly, monic, mul, sub, trim

CORE_CAP = 10 ** 5


# ---------------------------------------------------------------------------
# permutation groups
# ---------------------------------------------------------------------------

def porder(a):
    """The lcm of a's cycle lengths."""
    seen, order = [False] * len(a), 1
    for i in range(len(a)):
        ln, j = 0, i
        while not seen[j]:
            seen[j], j, ln = True, a[j], ln + 1
        order = math.lcm(order, max(ln, 1))
    return order


def enumerated_orders(g):
    """The element orders of the permutation group g, one element at a
    time: the oracle for ``groups.element_orders``."""
    return {porder(x) for x in g.elements()}


def pinv(a):
    out = [0] * len(a)
    for i, x in enumerate(a):
        out[x] = i
    return tuple(out)


def _pow(x, e):
    r = pident(len(x))
    b = x
    while e:
        if e & 1:
            r = pmul(r, b)
        b = pmul(b, b)
        e >>= 1
    return r


def center(g):
    """Subgroup of elements commuting with every generator."""
    cent = [x for x in g.elements()
            if all(pmul(x, gen) == pmul(gen, x) for gen in g.generators)]
    return PermGroup(g.degree, cent, order=len(cent))


def l_core(g, l):
    """The largest normal l-subgroup O_l(G)."""
    if not is_prime(l):
        raise NotPrime("%d is not prime" % l)
    if g.order > CORE_CAP:
        raise TooLarge("l_core capped at order %d" % CORE_CAP)
    elems = g.elements(CORE_CAP)
    m = 1
    n = g.order
    while n % l == 0:
        n //= l
        m *= l
    # build one Sylow l-subgroup by normalizer extension
    syl = {pident(g.degree)}
    while len(syl) < m:
        for x in elems:
            o = porder(x)
            if o == 1 or m % o or x in syl:
                continue
            xi = pinv(x)
            if all(pmul(pmul(x, s), xi) in syl for s in syl):
                syl = _closure(g.degree, [*syl, x], CORE_CAP)
                break
        else:
            raise AssertionError("Sylow extension failed")  # unreachable
    core = set(syl)
    for h in elems:
        hi = pinv(h)
        core &= {pmul(pmul(h, s), hi) for s in syl}
        if len(core) == 1:
            break
    return PermGroup(g.degree, sorted(core), order=len(core))


# ---------------------------------------------------------------------------
# linear characters
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CharacterWitness:
    target_order: int
    values: tuple  # residue mod target_order per generator

    def value_of(self, group, perm):
        """chi at an arbitrary element, by coset labeling."""
        labels = _labels(group, self.target_order, self.values)
        return labels[tuple(perm)]


def _labels(group, m, values):
    """Consistent Z/m labeling extending generator values, or None."""
    ident = pident(group.degree)
    labels = {ident: 0}
    frontier = [ident]
    while frontier:
        nxt = []
        for x in frontier:
            for g, v in zip(group.generators, values):
                y = pmul(g, x)
                lab = (labels[x] + v) % m
                if y in labels:
                    if labels[y] != lab:
                        return None
                else:
                    labels[y] = lab
                    nxt.append(y)
        frontier = nxt
    return labels


def character_exists(g, sigma, fd):
    """Search for a linear character chi: G -> K^x with chi(sigma) != 1.

    Returns (YES, CharacterWitness), (NO, None) or (UNKNOWN, None).  A
    character with chi(sigma) a nontrivial p-power root of unity exists over
    K iff zeta_{p^j} in K for the least j with the image of sigma outside the
    p^j-th powers of G/[G,G]; both conditions are decided explicitly.
    """
    sigma = tuple(sigma)
    if g.order > CORE_CAP:
        raise TooLarge("character search capped at order %d" % CORE_CAP)
    p = porder(sigma)
    if not is_prime(p):
        raise ValueError("sigma must have prime order, got %d" % p)
    elems = g.elements(CORE_CAP)
    if sigma not in elems:
        raise ValueError("sigma is not an element of the group")
    comms = []
    for a in g.generators:
        for b in g.generators:
            comms.append(pmul(pmul(a, b), pmul(pinv(a), pinv(b))))
    conj = []
    for h in elems:
        hi = pinv(h)
        conj.extend(pmul(pmul(h, c), hi) for c in comms)
    derived = _closure(g.degree, conj, CORE_CAP)
    # N_j = <[G,G], p^j-th powers> descends and is constant once p^j reaches
    # the p-part of the exponent; sigma in N_j for all such j means chi(sigma)
    # = 1 for every linear character into a root-of-unity group.
    expnt = 1
    for x in elems:
        expnt = math.lcm(expnt, porder(x))
    big_e = 0
    while expnt % p == 0:
        expnt //= p
        big_e += 1
    j = None
    for cand in range(1, big_e + 1):
        powers = {_pow(x, p ** cand) for x in elems}
        nj = _closure(g.degree, [*derived, *powers], CORE_CAP)
        if sigma not in nj:
            j = cand
            break
    if j is None:
        return NO, None
    m = p ** j
    ans = fd.contains_zeta(m)
    if ans is UNKNOWN:
        return UNKNOWN, None
    if ans is NO:
        return NO, None
    # exhaustive search over generator labelings in Z/m
    k = len(g.generators)
    if m ** k > 10 ** 6:
        raise TooLarge("character search space too large")
    best = None
    for code in range(m ** k):
        vals = []
        c = code
        for _ in range(k):
            vals.append(c % m)
            c //= m
        labels = _labels(g, m, tuple(vals))
        if labels is not None and labels[sigma] != 0:
            best = CharacterWitness(m, tuple(vals))
            break
    assert best is not None, "witness guaranteed by the abelianization criterion"
    return YES, best


# ---------------------------------------------------------------------------
# Thm 4.5 on an explicit group
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Thm45Result:
    applicable: bool
    witness: object = None  # CharacterWitness when applicable
    reason: str = ""


def check_thm45(g, sigma, fd):
    """Hypotheses (i)-(iv) for ed(G) = ed(G/<sigma>) + 1 on an explicit
    permutation group with a chosen central element sigma."""
    sigma = tuple(sigma)
    if g.order > CORE_CAP:
        raise TooLarge("check_thm45 capped at order %d" % CORE_CAP)
    p = porder(sigma)
    if not is_prime(p):
        raise ValueError("sigma must have prime order, got %d" % p)
    zc = center(g)
    zelems = zc.elements()
    if sigma not in zelems:
        raise ValueError("sigma is not central")
    l = char_of(fd)
    if l > 0 and l_core(g, l).order > 1:
        return Thm45Result(False, reason="(i) nontrivial normal %d-subgroup"
                                         % l)
    ans, wit = character_exists(g, sigma, fd)
    if ans is not YES:
        word = "unknown" if ans is UNKNOWN else "no character"
        return Thm45Result(False, reason="(iii) %s" % word)
    sig_cyc = _cyclic_closure(sigma)
    for tau in zelems:
        tau_cyc = _cyclic_closure(tau)
        if sig_cyc < tau_cyc:
            m = porder(tau)
            z = contains_zeta(fd, m)
            if z is YES:
                return Thm45Result(False, reason="(iv) zeta_%d present" % m)
            if z is UNKNOWN:
                return Thm45Result(False, reason="(iv) zeta_%d unknown" % m)
    return Thm45Result(True, witness=wit)


def _cyclic_closure(x):
    out = {pident(len(x))}
    acc = x
    while acc not in out:
        out.add(acc)
        acc = pmul(acc, x)
    return out


# ---------------------------------------------------------------------------
# the element orders of S_n and A_n, by a walk over partitions
# ---------------------------------------------------------------------------

def partitions(n, most=None):
    """Partitions of n into parts <= most (default n), largest part first."""
    if n == 0:
        yield ()
        return
    for first in range(min(n, most or n), 0, -1):
        for rest in partitions(n - first, first):
            yield (first,) + rest


def partition_orders(n):
    """The element orders of S_n and of A_n: the lcm of the cycle type of
    each permutation, an even one when n minus its number of cycles is
    even."""
    orders = {False: set(), True: set()}
    for lam in partitions(n):
        order = math.lcm(*lam) if lam else 1
        orders[False].add(order)
        if (n - len(lam)) % 2 == 0:
            orders[True].add(order)
    return orders


# ---------------------------------------------------------------------------
# the raw recurrences behind R-S-LB and R-A
# ---------------------------------------------------------------------------

def s_lower_recurrence(n, fd):
    """Lower bound for ed(S_n) using only the raw Thm 5.4 recurrences over
    the Thm 1.2 base values."""
    base = {1: 0, 2: 1, 3: 1, 4: 2, 5: 2}
    lo = [0] * (n + 1)
    for k, v in base.items():
        if k <= n:
            lo[k] = v
    if char_of(fd) != 2:
        if n >= 6:
            lo[6] = max(lo[6], 3)
        for m in range(3, n + 1):
            lo[m] = max(lo[m], lo[m - 2] + 1)
        return lo[n]
    if contains_zeta(fd, 3) is YES:
        for m in range(4, n + 1):
            if m - 3 >= 1 and m - 3 != 4:
                lo[m] = max(lo[m], lo[m - 3] + 1)
        return lo[n]
    return s_lower_recurrence(n, extend_with_zeta(fd, 3))


def a_lower_recurrence(n, fd):
    """Lower bound for ed(A_n) using only the raw Thm 5.6 recurrences."""
    if n < 3:
        return 0
    lo = [0] * (n + 1)
    if char_of(fd) != 2:
        for k, v in ((3, 1), (4, 2), (5, 2)):
            if k <= n:
                lo[k] = v
        for m in range(8, n + 1):
            if m - 4 >= 4:
                lo[m] = max(lo[m], lo[m - 4] + 2)
        return lo[n]
    if contains_zeta(fd, 3) is YES:
        if n >= 3:
            lo[3] = 1  # A_3 = C_3 and zeta_3 in K
        if n >= 5:
            lo[5] = 1  # Lemma 5.5(2)
        for m in range(6, n + 1):
            if m - 3 >= 3 and m - 3 != 4:
                lo[m] = max(lo[m], lo[m - 3] + 1)
        return lo[n]
    return a_lower_recurrence(n, extend_with_zeta(fd, 3))


# ---------------------------------------------------------------------------
# F_q and its extensions
# ---------------------------------------------------------------------------

def multiplicative_order(x):
    """Smallest d >= 1 with x^d = 1, by repeated multiplication."""
    if x.is_zero():
        raise ZeroElement("order of zero is undefined")
    d, y = 1, x
    while y != x.ctx.one:
        d, y = d + 1, y * x
    return d


def has_zeta(ctx, n):
    """True iff some element of F_q^x has order exactly n, found by
    enumeration: a primitive n-th root of unity (none when p | n)."""
    if n < 1:
        raise ValueError("n must be positive")
    return any(multiplicative_order(x) == n for x in ctx.elements()
               if not x.is_zero())


def scale(a, c):
    return trim([x * c for x in a])


class ExtField:
    """The field base[X]/(modulus), for an FqContext base and a modulus
    irreducible over it: the splitting fields the root-based Tschirnhaus
    oracle and criterion 5 compute in."""

    def __init__(self, base, modulus):
        self.base = base
        self.modulus = tuple(monic(list(modulus)))
        self.d = len(modulus) - 1
        self.zero = self.element([])
        self.one = self.element([base.one])

    def element(self, coeffs):
        coeffs = list(coeffs)[: self.d]
        coeffs += [self.base.zero] * (self.d - len(coeffs))
        return ExtElement(self, coeffs)

    def from_int(self, n):
        return self.element([self.base.from_int(n)])

    def from_base(self, x):
        return self.element([x])

    def gen(self):
        """The canonical root of the modulus (X reduced mod the modulus)."""
        if self.d == 1:
            return self.from_base(-self.modulus[0])
        return self.element([self.base.zero, self.base.one])


class ExtElement:
    """An element of an ExtField: its coefficients in the power basis."""

    __slots__ = ("field", "coeffs")

    def __init__(self, field, coeffs):
        self.field = field
        self.coeffs = tuple(coeffs)

    def __add__(self, o):
        return ExtElement(self.field,
                          [a + b for a, b in zip(self.coeffs, o.coeffs)])

    def __sub__(self, o):
        return ExtElement(self.field,
                          [a - b for a, b in zip(self.coeffs, o.coeffs)])

    def __neg__(self):
        return ExtElement(self.field, [-a for a in self.coeffs])

    def __mul__(self, o):
        F = self.field
        zero = F.base.zero
        prod = mul(list(self.coeffs), list(o.coeffs), zero)
        return F.element(divmod_poly(prod, list(F.modulus), zero)[1])

    def inverse(self):
        """By the extended Euclidean algorithm against the modulus."""
        if self.is_zero():
            raise ZeroElement("inverse of zero")
        F = self.field
        zero = F.base.zero
        r0, r1 = list(F.modulus), trim(list(self.coeffs))
        s0, s1 = [], [F.base.one]
        while r1:
            q, r = divmod_poly(r0, r1, zero)
            r0, r1 = r1, r
            s0, s1 = s1, sub(s0, mul(q, s1, zero), zero)
        s0 = scale(s0, F.base.one / r0[0])
        return F.element(divmod_poly(s0, list(F.modulus), zero)[1])

    def __truediv__(self, o):
        return self * o.inverse()

    def __pow__(self, e):  # e >= 1
        return _power(ExtElement.__mul__, self, e)

    def is_zero(self):
        return all(c.is_zero() for c in self.coeffs)

    def __eq__(self, other):
        return (isinstance(other, ExtElement)
                and self.field.modulus == other.field.modulus
                and self.coeffs == other.coeffs)

    def __hash__(self):
        return hash(self.coeffs)

    def encode(self):
        v = 0
        for c in reversed(self.coeffs):
            v = v * self.field.base.q + c.encode()
        return v

    def __repr__(self):
        return "Ext(%s)" % (list(self.coeffs),)


# ---------------------------------------------------------------------------
# cross-ratios
# ---------------------------------------------------------------------------

def check_rewrite_by_products(sym):
    """``crossratio.check_rewrite`` without its table or packing: compose the
    rewrite with t_m = [1,2;3,m] by ``RatFn.compose_pair`` and cross-multiply
    the MultiPolys against ``cr_define(sym)``."""
    n = sym.n
    bindings = {"t%d" % i: cr_define(generator_symbol(n, i))
                for i in range(4, n + 1)}
    ncomp, dcomp = cr_rewrite(sym).compose_pair(bindings)
    direct = cr_define(sym)
    return ncomp * direct.den == dcomp * direct.num


def rewrite_by_products(sym):
    """``crossratio.cr_rewrite`` by MultiPoly arithmetic: each linear form
    x_a - x_b on the slice (x_1, x_2, x_3) = (inf, 0, 1), x_m = t_m, built
    with ``MultiPoly.var`` and ``-``, and the two pairs multiplied."""
    vs = tvars(sym.n)
    zero, one = MultiPoly.zero(QQ, vs), MultiPoly.const(QQ, vs, 1)

    def x(m):  # the slice value of x_m for m >= 2
        return zero if m == 2 else one if m == 3 else \
            MultiPoly.var(QQ, vs, "t%d" % m)

    def diff(a, b):  # x_a - x_b, with the factors that contain x_1 cancelled
        return one if 1 in (a, b) else x(a) - x(b)

    i, j, k, l = sym.indices
    return RatFn(diff(i, k) * diff(j, l), diff(i, l) * diff(j, k),
                 reduce=False)


def faithful_by_enumeration(n):
    """``crossratio.verify_faithful`` by enumeration: every non-identity
    permutation of 1..n moves some generator t_m under ``sn_action``."""
    gens = {m: RatFn.var(QQ, tvars(n), "t%d" % m) for m in range(4, n + 1)}
    perms = itertools.permutations(range(n))
    next(perms)  # the identity comes first
    return all(any(img != gens[m] for m, img in sn_action(sigma).items())
               for sigma in perms)

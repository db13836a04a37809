"""Finite group model: family expressions, permutation realizations, and the
structural queries consumed by the bound engine (orders, centers, normal
l-subgroups, linear characters, embedding certificates).

Permutations are 0-based tuples; ``a * b`` composes as functions, so
``(pmul(a, b))[i] = a[b[i]]``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

from .errors import NotPrime, NotPrimeOrder, TooLarge
from .exactfield import is_prime
from .fielddesc import NO, UNKNOWN, YES

ORDER_CAP = 10 ** 6
CORE_CAP = 10 ** 5


# ---------------------------------------------------------------------------
# group expressions
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class GroupExpr:
    def __mul__(self, other):
        return Product(self, other)


@dataclass(frozen=True)
class Sym(GroupExpr):
    n: int

    def __str__(self):
        return "S%d" % self.n


@dataclass(frozen=True)
class Alt(GroupExpr):
    n: int

    def __str__(self):
        return "A%d" % self.n


@dataclass(frozen=True)
class Dih(GroupExpr):
    n: int

    def __str__(self):
        return "D%d" % self.n


@dataclass(frozen=True)
class Cyc(GroupExpr):
    n: int

    def __str__(self):
        return "C%d" % self.n


@dataclass(frozen=True)
class ElemAb(GroupExpr):
    p: int
    r: int

    def __post_init__(self):
        if not is_prime(self.p):
            raise NotPrime("%d is not prime" % self.p)

    def __str__(self):
        return "E(%d,%d)" % (self.p, self.r)


@dataclass(frozen=True)
class Product(GroupExpr):
    left: GroupExpr
    right: GroupExpr

    def __str__(self):
        return "%s x %s" % (self.left, self.right)


def expr_order(e):
    if isinstance(e, Sym):
        return math.factorial(e.n)
    if isinstance(e, Alt):
        return max(1, math.factorial(e.n) // 2)
    if isinstance(e, Dih):
        return 2 * e.n
    if isinstance(e, Cyc):
        return e.n
    if isinstance(e, ElemAb):
        return e.p ** e.r
    return expr_order(e.left) * expr_order(e.right)


def _validate(e):
    if isinstance(e, Product):
        _validate(e.left)
        _validate(e.right)
        return
    if isinstance(e, ElemAb):
        if e.r < 1:
            raise ValueError("rank must be >= 1")
        return
    if e.n < 1 and not isinstance(e, (Sym, Alt)):
        raise ValueError("index must be >= 1")
    if e.n < 0:
        raise ValueError("index must be >= 0")


# ---------------------------------------------------------------------------
# permutations
# ---------------------------------------------------------------------------

def pmul(a, b):
    return tuple(a[x] for x in b)


def pinv(a):
    out = [0] * len(a)
    for i, x in enumerate(a):
        out[x] = i
    return tuple(out)


def pident(n):
    return tuple(range(n))


def porder(a):
    n = len(a)
    seen = [False] * n
    orders = 1
    for i in range(n):
        if not seen[i]:
            ln = 0
            j = i
            while not seen[j]:
                seen[j] = True
                j = a[j]
                ln += 1
            orders = math.lcm(orders, ln)
    return orders


def _cycle(points, degree):
    a = list(range(degree))
    for i, x in enumerate(points):
        a[x] = points[(i + 1) % len(points)]
    return tuple(a)


def _shift(perm, offset, degree):
    a = list(range(degree))
    for i, x in enumerate(perm):
        a[i + offset] = x + offset
    return tuple(a)


# ---------------------------------------------------------------------------
# permutation groups
# ---------------------------------------------------------------------------

class PermGroup:
    """Immutable permutation group with a cached deterministic order."""

    def __init__(self, degree, generators, order=None, expr=None):
        self.degree = degree
        self.generators = tuple(tuple(g) for g in generators)
        for g in self.generators:
            if sorted(g) != list(range(degree)):
                raise ValueError("generator is not a permutation of the degree")
        self.expr = expr
        self._elements = None
        if order is None:
            order = len(self.elements(ORDER_CAP))
        self.order = order

    def elements(self, cap=ORDER_CAP):
        if self._elements is None:
            ident = pident(self.degree)
            seen = {ident}
            frontier = [ident]
            while frontier:
                nxt = []
                for x in frontier:
                    for g in self.generators:
                        y = pmul(g, x)
                        if y not in seen:
                            seen.add(y)
                            nxt.append(y)
                            if len(seen) > cap:
                                raise TooLarge("group exceeds enumeration cap %d" % cap)
                frontier = nxt
            self._elements = frozenset(seen)
        if len(self._elements) > cap:
            raise TooLarge("group exceeds enumeration cap %d" % cap)
        return self._elements

    def contains(self, perm):
        return tuple(perm) in self.elements()

    def __repr__(self):
        return "PermGroup(degree=%d, order=%d)" % (self.degree, self.order)


def realize(expr):
    """Faithful permutation realization with standard generators."""
    _validate(expr)
    order = expr_order(expr)
    if isinstance(expr, Sym):
        n = expr.n
        if n <= 1:
            return PermGroup(max(n, 1), [], order=1, expr=expr)
        if n == 2:
            return PermGroup(2, [(1, 0)], order=2, expr=expr)
        gens = [_cycle((0, 1), n), _cycle(tuple(range(n)), n)]
        return PermGroup(n, gens, order=order, expr=expr)
    if isinstance(expr, Alt):
        n = expr.n
        if n <= 2:
            return PermGroup(max(n, 1), [], order=1, expr=expr)
        if n == 3:
            return PermGroup(3, [_cycle((0, 1, 2), 3)], order=3, expr=expr)
        if n % 2:
            gens = [_cycle((0, 1, 2), n), _cycle(tuple(range(n)), n)]
        else:
            gens = [_cycle((0, 1, 2), n), _cycle(tuple(range(1, n)), n)]
        return PermGroup(n, gens, order=order, expr=expr)
    if isinstance(expr, Dih):
        n = expr.n
        if n == 1:
            return PermGroup(2, [(1, 0)], order=2, expr=expr)
        if n == 2:
            return PermGroup(4, [(1, 0, 2, 3), (0, 1, 3, 2)], order=4, expr=expr)
        rot = _cycle(tuple(range(n)), n)
        refl = tuple((n - j) % n for j in range(n))
        return PermGroup(n, [rot, refl], order=order, expr=expr)
    if isinstance(expr, Cyc):
        n = expr.n
        if n == 1:
            return PermGroup(1, [], order=1, expr=expr)
        return PermGroup(n, [_cycle(tuple(range(n)), n)], order=order, expr=expr)
    if isinstance(expr, ElemAb):
        p, r = expr.p, expr.r
        deg = p * r
        gens = [_cycle(tuple(range(i * p, (i + 1) * p)), deg) for i in range(r)]
        return PermGroup(deg, gens, order=order, expr=expr)
    if isinstance(expr, Product):
        gl = realize(expr.left)
        gr = realize(expr.right)
        deg = gl.degree + gr.degree
        gens = [_shift(g, 0, deg) for g in gl.generators]
        gens += [_shift(g, gl.degree, deg) for g in gr.generators]
        return PermGroup(deg, gens, order=gl.order * gr.order, expr=expr)
    raise TypeError("unknown group expression %r" % (expr,))


# ---------------------------------------------------------------------------
# structural queries
# ---------------------------------------------------------------------------

def _partitions(n, most=None):
    """Partitions of n into parts <= most (default n), largest part first."""
    if n == 0:
        yield ()
        return
    for first in range(min(n, most or n), 0, -1):
        for rest in _partitions(n - first, first):
            yield (first,) + rest


@lru_cache(maxsize=None)
def _partition_orders(n, even_only):
    out = set()
    for lam in _partitions(n):
        if even_only and (n - len(lam)) % 2:
            continue
        out.add(math.lcm(*lam) if lam else 1)
    return frozenset(out)


def element_orders(g):
    """Exact set of element orders."""
    if isinstance(g.expr, (Sym, Alt)):
        n = g.expr.n
        if n > 40:
            raise TooLarge("symmetric/alternating order census capped at n = 40")
        return set(_partition_orders(n, isinstance(g.expr, Alt)))
    return {porder(x) for x in g.elements(ORDER_CAP)}


def center(g):
    """Subgroup of elements commuting with every generator."""
    cent = [x for x in g.elements(ORDER_CAP)
            if all(pmul(x, gen) == pmul(gen, x) for gen in g.generators)]
    return PermGroup(g.degree, cent, order=len(cent))


def _closure(degree, base, extra, cap=ORDER_CAP):
    seen = set(base)
    seen.add(pident(degree))
    gens = list(extra) + list(base)
    frontier = list(seen)
    while frontier:
        nxt = []
        for x in frontier:
            for g in gens:
                y = pmul(g, x)
                if y not in seen:
                    seen.add(y)
                    nxt.append(y)
                    if len(seen) > cap:
                        raise TooLarge("closure exceeds cap")
        frontier = nxt
    return frozenset(seen)


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
                syl = _closure(g.degree, syl, [x], cap=CORE_CAP)
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
        raise NotPrimeOrder("sigma must have prime order, got %d" % p)
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
    derived = _closure(g.degree, [], conj, cap=CORE_CAP)
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
        nj = _closure(g.degree, derived, powers, cap=CORE_CAP)
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


def _pow(x, e):
    r = pident(len(x))
    b = x
    while e:
        if e & 1:
            r = pmul(r, b)
        b = pmul(b, b)
        e >>= 1
    return r


# ---------------------------------------------------------------------------
# embedding certificates
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Embedding:
    source: object
    target: object
    images: tuple  # one permutation of the target's degree per source generator


def _verify_embedding(h_pg, images, degree, cap=200):
    """Check that generator -> image extends to an injective homomorphism."""
    if len(images) != len(h_pg.generators):
        return False
    for im in images:
        if sorted(im) != list(range(degree)):
            return False
    if h_pg.order > cap:
        # large source: verify the generator orders and sampled word relations
        for gsrc, gim in zip(h_pg.generators, images):
            if porder(gsrc) != porder(gim):
                return False
        return True
    ident_h = pident(h_pg.degree)
    ident_g = pident(degree)
    phi = {ident_h: ident_g}
    frontier = [ident_h]
    while frontier:
        nxt = []
        for x in frontier:
            for gsrc, gim in zip(h_pg.generators, images):
                y = pmul(gsrc, x)
                fy = pmul(gim, phi[x])
                if y in phi:
                    if phi[y] != fy:
                        return False
                else:
                    phi[y] = fy
                    nxt.append(y)
        frontier = nxt
    # phi is a total map built along words; homomorphism + injectivity checks
    items = list(phi.items())
    for x, fx in items:
        for y, fy in items:
            if phi[pmul(x, y)] != pmul(fx, fy):
                return False
    return len(set(phi.values())) == len(phi)


def _pad(perm, degree):
    return tuple(perm) + tuple(range(len(perm), degree))


def embedding_certificate(h, g):
    """Explicit verified generator images for a built-in inclusion h <= g.

    Returns an Embedding or None; None is absence of a certificate, not a
    proof of non-embeddability.
    """
    images = _find_images(h, g)
    if images is None:
        return None
    h_pg = realize(h)
    g_pg = realize(g)
    images = tuple(tuple(im) for im in images)
    if not _verify_embedding(h_pg, images, g_pg.degree):
        return None
    if h_pg.order <= 200:
        sub = PermGroup(g_pg.degree, images or [pident(g_pg.degree)])
        if sub.order != h_pg.order:
            return None
    return Embedding(h, g, images)


def _find_images(h, g):
    if h == g:
        return [tuple(gen) for gen in realize(g).generators]
    # natural inclusions among atoms
    if isinstance(h, Sym) and isinstance(g, Sym) and h.n <= g.n:
        return [_pad(gen, g.n) for gen in realize(h).generators]
    if isinstance(h, Alt) and isinstance(g, Alt) and h.n <= g.n:
        return [_pad(gen, g.n) for gen in realize(h).generators]
    if isinstance(h, Alt) and isinstance(g, Sym) and h.n <= g.n:
        return [_pad(gen, g.n) for gen in realize(h).generators]
    if isinstance(h, Dih) and isinstance(g, Sym) and 3 <= h.n <= g.n:
        return [_pad(gen, g.n) for gen in realize(h).generators]
    if isinstance(h, ElemAb) and isinstance(g, Sym) and h.p * h.r <= g.n:
        return [_pad(gen, g.n) for gen in realize(h).generators]
    if isinstance(h, ElemAb) and isinstance(g, ElemAb) and h.p == g.p and h.r <= g.r:
        return [_pad(gen, g.p * g.r) for gen in realize(h).generators]
    if isinstance(h, Cyc) and isinstance(g, Cyc) and g.n % h.n == 0:
        k = g.n // h.n
        step = _pow(_cycle(tuple(range(g.n)), g.n), k)
        return [step] if h.n > 1 else []
    # ElemAb(3,2) inside A_6: two disjoint 3-cycles are even
    if h == ElemAb(3, 2) and isinstance(g, Alt) and g.n >= 6:
        return [_pad(_cycle((0, 1, 2), 6), g.n), _pad(_cycle((3, 4, 5), 6), g.n)]
    if isinstance(h, Product):
        imgs = _product_images(h, g)
        if imgs is not None:
            return imgs
    # factor inclusion: h inside one slot of a product target
    if isinstance(g, Product):
        dl = realize(g.left).degree
        deg = dl + realize(g.right).degree
        li = _find_images(h, g.left)
        if li is not None:
            return [_shift(im, 0, deg) for im in li]
        ri = _find_images(h, g.right)
        if ri is not None:
            return [_shift(im, dl, deg) for im in ri]
    return None


def _product_images(h, g):
    hl, hr = h.left, h.right
    # componentwise into a product target
    if isinstance(g, Product):
        li = _find_images(hl, g.left)
        ri = _find_images(hr, g.right)
        if li is not None and ri is not None:
            dl = realize(g.left).degree
            deg = dl + realize(g.right).degree
            return ([_shift(im, 0, deg) for im in li]
                    + [_shift(im, dl, deg) for im in ri])
        return None
    # S_m x C_2 inside S_{m+2}
    if (isinstance(g, Sym) and isinstance(hl, Sym) and hr == Cyc(2)
            and hl.n + 2 <= g.n):
        base = [_pad(gen, g.n) for gen in realize(hl).generators]
        return base + [_pad(_cycle((hl.n, hl.n + 1), hl.n + 2), g.n)]
    if (isinstance(g, Sym) and isinstance(hr, Sym) and hl == Cyc(2)
            and hr.n + 2 <= g.n):
        base = [_pad(gen, g.n) for gen in realize(hr).generators]
        return [_pad(_cycle((hr.n, hr.n + 1), hr.n + 2), g.n)] + base
    if isinstance(g, Alt):
        # A_m x V_4 inside A_{m+4}: the double transpositions are even
        if isinstance(hl, Alt) and hr == ElemAb(2, 2) and hl.n + 4 <= g.n:
            m = hl.n
            base = [_pad(gen, g.n) for gen in realize(hl).generators]
            v1 = pmul(_cycle((m, m + 1), g.n), _cycle((m + 2, m + 3), g.n))
            v2 = pmul(_cycle((m, m + 2), g.n), _cycle((m + 1, m + 3), g.n))
            return base + [v1, v2]
        # A_m x C_3 inside A_{m+3}
        if isinstance(hl, Alt) and hr == Cyc(3) and hl.n + 3 <= g.n:
            m = hl.n
            base = [_pad(gen, g.n) for gen in realize(hl).generators]
            return base + [_cycle((m, m + 1, m + 2), g.n)]
        # V_4 x V_4 inside A_8
        if hl == ElemAb(2, 2) and hr == ElemAb(2, 2) and g.n >= 8:
            def dd(a, b, c, d):
                return pmul(_cycle((a, b), g.n), _cycle((c, d), g.n))
            return [dd(0, 1, 2, 3), dd(0, 2, 1, 3), dd(4, 5, 6, 7), dd(4, 6, 5, 7)]
    return None

"""Finite group model: family expressions, permutation realizations, and the
structural queries consumed by the bound engine (orders, centers, normal
l-subgroups, linear characters, embedding certificates).

Permutations are 0-based tuples; ``a * b`` composes as functions, so
``(pmul(a, b))[i] = a[b[i]]``.  C_n is realized on its CRT points: one
cycle for each prime power exactly dividing n, on consecutive blocks, so its
degree is the sum of those prime powers rather than n.  An embedding
certificate is a point map: an injective map from H's points into G's
points, carrying H's own generators into G.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

from .errors import NotPrime, NotPrimeOrder, TooLarge
from .exactfield import factorize, is_prime
from .fielddesc import NO, UNKNOWN, YES

ORDER_CAP = 10 ** 6
CORE_CAP = 10 ** 5
POINT_CAP = 2 * 10 ** 6  # the largest degree a point-map certificate builds


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


def degree(e):
    """The degree of realize(e), in closed form."""
    if isinstance(e, (Sym, Alt)):
        return max(e.n, 1)
    if isinstance(e, Dih):
        return 2 * e.n if e.n <= 2 else e.n
    if isinstance(e, Cyc):
        return sum(_prime_power_parts(e.n)) or 1
    if isinstance(e, ElemAb):
        return e.p * e.r
    return degree(e.left) + degree(e.right)


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


def _cycle_lengths(a):
    seen = [False] * len(a)
    lengths = []
    for i in range(len(a)):
        if not seen[i]:
            ln, j = 0, i
            while not seen[j]:
                seen[j] = True
                j = a[j]
                ln += 1
            lengths.append(ln)
    return lengths


def porder(a):
    return math.lcm(*_cycle_lengths(a))


def _cycle(points, degree):
    a = list(range(degree))
    for x, y in zip(points, points[1:] + points[:1]):
        a[x] = y
    return tuple(a)


def _rotations(lengths):
    """One cycle on each consecutive block of the given lengths."""
    a, start = [], 0
    for ln in lengths:
        a += [start + (i + 1) % ln for i in range(ln)]
        start += ln
    return tuple(a)


def _prime_power_parts(n):
    """The prime powers exactly dividing n, by ascending prime."""
    return [p ** a for p, a in factorize(n)]


def _shift(perm, offset, degree):
    a = list(range(degree))
    for i, x in enumerate(perm):
        a[i + offset] = x + offset
    return tuple(a)


# ---------------------------------------------------------------------------
# permutation groups
# ---------------------------------------------------------------------------

class PermGroup:
    """Immutable permutation group; its order, unless given, is read off its
    expression when first asked for."""

    def __init__(self, degree, generators, order=None, expr=None):
        self.degree = degree
        self.generators = tuple(tuple(g) for g in generators)
        for g in self.generators:
            if sorted(g) != list(range(degree)):
                raise ValueError("generator is not a permutation of the degree")
        self.expr = expr
        self._elements = None
        self._order = order

    @property
    def order(self):
        if self._order is None:
            self._order = expr_order(self.expr)
        return self._order

    def elements(self, cap=ORDER_CAP):
        if self._elements is None:
            self._elements = _closure(self.degree, [], self.generators, cap)
        if len(self._elements) > cap:
            raise TooLarge("group exceeds enumeration cap %d" % cap)
        return self._elements

    def contains(self, perm):
        return tuple(perm) in self.elements()

    def __repr__(self):
        return "PermGroup(degree=%d, order=%d)" % (self.degree, self.order)


def realize(expr):
    """Faithful permutation realization with standard generators.

    S_n, A_n and D_n (n >= 3) act on n points, E(p,r) on r blocks of p
    points (one p-cycle generator per block), a product on the disjoint
    union of its factors' points.  C_n acts on its CRT points: its one
    generator is a product of disjoint cycles, one of each length p^a
    exactly dividing n, on sum(p^a) points (61 for C720720).
    """
    _validate(expr)
    if isinstance(expr, Sym):
        n = expr.n
        if n <= 1:
            return PermGroup(max(n, 1), [], expr=expr)
        if n == 2:
            return PermGroup(2, [(1, 0)], expr=expr)
        gens = [_cycle((0, 1), n), _cycle(tuple(range(n)), n)]
        return PermGroup(n, gens, expr=expr)
    if isinstance(expr, Alt):
        n = expr.n
        if n <= 2:
            return PermGroup(max(n, 1), [], expr=expr)
        if n == 3:
            return PermGroup(3, [_cycle((0, 1, 2), 3)], expr=expr)
        if n % 2:
            gens = [_cycle((0, 1, 2), n), _cycle(tuple(range(n)), n)]
        else:
            gens = [_cycle((0, 1, 2), n), _cycle(tuple(range(1, n)), n)]
        return PermGroup(n, gens, expr=expr)
    if isinstance(expr, Dih):
        n = expr.n
        if n == 1:
            return PermGroup(2, [(1, 0)], expr=expr)
        if n == 2:
            return PermGroup(4, [(1, 0, 2, 3), (0, 1, 3, 2)], expr=expr)
        rot = _cycle(tuple(range(n)), n)
        refl = (0,) + tuple(range(n - 1, 0, -1))  # j -> -j (mod n)
        return PermGroup(n, [rot, refl], expr=expr)
    if isinstance(expr, Cyc):
        if expr.n == 1:
            return PermGroup(1, [], expr=expr)
        gen = _rotations(_prime_power_parts(expr.n))
        return PermGroup(len(gen), [gen], expr=expr)
    if isinstance(expr, ElemAb):
        p, r = expr.p, expr.r
        deg = p * r
        gens = [_cycle(tuple(range(i * p, (i + 1) * p)), deg) for i in range(r)]
        return PermGroup(deg, gens, expr=expr)
    if isinstance(expr, Product):
        gl = realize(expr.left)
        gr = realize(expr.right)
        deg = gl.degree + gr.degree
        gens = [_shift(g, 0, deg) for g in gl.generators]
        gens += [_shift(g, gl.degree, deg) for g in gr.generators]
        return PermGroup(deg, gens, expr=expr)
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
    """The element orders of S_n, or of A_n when even_only."""
    if n > 40:
        raise TooLarge("symmetric/alternating order census capped at n = 40")
    out = set()
    for lam in _partitions(n):
        if even_only and (n - len(lam)) % 2:
            continue
        out.add(math.lcm(*lam) if lam else 1)
    return frozenset(out)


def element_orders(g):
    """Exact set of element orders."""
    if isinstance(g.expr, (Sym, Alt)):
        return set(_partition_orders(g.expr.n, isinstance(g.expr, Alt)))
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
                        raise TooLarge("group exceeds enumeration cap %d"
                                       % cap)
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
    points: tuple  # source point i goes to target point points[i]
    images: tuple  # each source generator carried along points


def _transport(perm, points, degree):
    """perm carried along points (points[i] -> points[perm[i]]); every other
    point of the degree is fixed."""
    a = list(range(degree))
    for x, y in zip(points, map(points.__getitem__, perm)):
        a[x] = y
    return tuple(a)


def _contains(g, perm):
    """Whether realize(g) contains perm, a permutation of its degree."""
    if isinstance(g, Product):
        dl = degree(g.left)
        return (all(x < dl for x in perm[:dl]) and _contains(g.left, perm[:dl])
                and _contains(g.right, tuple(x - dl for x in perm[dl:])))
    if isinstance(g, (Sym, Alt)):
        return isinstance(g, Sym) or \
            (len(perm) - len(_cycle_lengths(perm))) % 2 == 0
    if isinstance(g, Dih) and g.n >= 3:  # i -> a + i or a - i (mod n)
        step = (perm[1] - perm[0]) % g.n
        return step in (1, g.n - 1) and all(
            x == (perm[0] + i * step) % g.n for i, x in enumerate(perm))
    # C_n, E(p,r), D_1 and D_2 are all the rotations of their blocks
    blocks = (_prime_power_parts(g.n) if isinstance(g, Cyc)
              else [g.p] * g.r if isinstance(g, ElemAb) else [2] * g.n)
    start = 0
    for ln in blocks:
        k = perm[start] - start
        if any(perm[start + i] != start + (i + k) % ln for i in range(ln)):
            return False
        start += ln
    return True


def _carry(h_pg, g, points):
    """h_pg's generators carried along the point map points into realize(g),
    or None unless points is injective into g's points and every image lies
    in realize(g); O(degree) each.

    Carrying along an injective point map is conjugation by a relabeling,
    so generator -> image extends to an injective homomorphism whatever the
    order of H.
    """
    deg = degree(g)
    if len(points) != h_pg.degree or len(set(points)) != len(points) \
            or not 0 <= min(points) <= max(points) < deg:
        return None
    images = tuple(_transport(gen, points, deg) for gen in h_pg.generators)
    return images if all(_contains(g, im) for im in images) else None


def embedding_certificate(h, g):
    """A verified point-map certificate for a built-in inclusion h <= g.

    Certified: h == g; S_m, A_m, D_m (m >= 3), E(p,r) (pr <= n) in S_n,
    A_m in A_n, E(p,s) in E(p,r), E(3,2) in A_n (n >= 6), S_m x C_2 in
    S_{m+2} and A_m x C_3 in A_{m+3}, all on h's own points; C_d in C_n for
    d | n coprime to n/d, onto C_n's CRT blocks for the primes dividing d;
    a product into a product factorwise; h into one factor of a product,
    on that factor's points.  Returns an Embedding or None; None is absence
    of a certificate, not a proof of non-embeddability.  Raises TooLarge
    when g's degree is above POINT_CAP.
    """
    if degree(g) > POINT_CAP:
        raise TooLarge("point-map certificates capped at degree %d"
                       % POINT_CAP)
    points = _find_points(h, g)
    images = None if points is None else _carry(realize(h), g, points)
    return None if images is None else Embedding(h, g, points, images)


def _find_points(h, g):
    dl = degree(g.left) if isinstance(g, Product) else 0
    if isinstance(h, Product) and isinstance(g, Product):
        li, ri = _find_points(h.left, g.left), _find_points(h.right, g.right)
        if li is not None and ri is not None:
            return li + tuple(dl + x for x in ri)
    if _on_own_points(h, g):
        dh = degree(h)
        return tuple(range(dh)) if dh <= degree(g) else None
    if isinstance(h, Cyc) and isinstance(g, Cyc) and g.n % h.n == 0 \
            and math.gcd(h.n, g.n // h.n) == 1:
        starts, start = {}, 0
        for q in _prime_power_parts(g.n):
            starts[q], start = start, start + q
        return tuple(starts[q] + i for q in _prime_power_parts(h.n)
                     for i in range(q)) or (0,)  # C_1 is one fixed point
    if isinstance(g, Product):  # h inside one factor
        li = _find_points(h, g.left)
        if li is not None:
            return li
        ri = _find_points(h, g.right)
        return None if ri is None else tuple(dl + x for x in ri)
    return None


def _on_own_points(h, g):
    if h == g:
        return True
    if isinstance(g, Sym):
        return (isinstance(h, (Sym, Alt)) and h.n <= g.n
                or isinstance(h, Dih) and 3 <= h.n <= g.n
                or isinstance(h, ElemAb) and h.p * h.r <= g.n
                or isinstance(h, Product) and any(
                    isinstance(a, Sym) and b == Cyc(2) and a.n + 2 <= g.n
                    for a, b in ((h.left, h.right), (h.right, h.left))))
    if isinstance(g, Alt):
        return (isinstance(h, Alt) and h.n <= g.n
                or h == ElemAb(3, 2) and g.n >= 6
                or isinstance(h, Product) and isinstance(h.left, Alt)
                and h.right == Cyc(3) and h.left.n + 3 <= g.n)
    return isinstance(h, ElemAb) and isinstance(g, ElemAb) \
        and h.p == g.p and h.r <= g.r

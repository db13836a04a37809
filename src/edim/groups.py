"""Finite group model: family expressions, permutation realizations, and the
structural queries consumed by the bound engine (element orders and
embedding certificates).

Permutations are 0-based tuples; ``a * b`` composes as functions, so
``(pmul(a, b))[i] = a[b[i]]``.  C_n is realized on its CRT points: one
cycle for each prime power exactly dividing n, on consecutive blocks, so its
degree is the sum of those prime powers rather than n.  An embedding
certificate gives H's own generators in G's blocks, and names no point.
"""

from __future__ import annotations

import math
from functools import lru_cache

from .errors import NotPrime, TooLarge
from .exactfield import divisors, factorize, is_prime
from .record import Record

ORDER_CAP = 10 ** 6


# ---------------------------------------------------------------------------
# group expressions
# ---------------------------------------------------------------------------

class GroupExpr(Record, interned=True):
    __slots__ = ()

    def __mul__(self, other):
        return Product(self, other)


class _Indexed(GroupExpr):
    """S_n, A_n, D_n or C_n.  An index below ``least`` names no group, and
    the constructor rejects it, so every expression names a group."""

    __slots__ = ("n",)
    least = 1

    def __init__(self, n):
        object.__setattr__(self, "n", n)
        if n < self.least:
            raise ValueError("%s names no group: the index must be at least %d"
                             % (self, self.least))

    def __str__(self):
        return "%s%d" % (self.letter, self.n)


class Sym(_Indexed):
    __slots__ = ()
    letter, least = "S", 0


class Alt(_Indexed):
    __slots__ = ()
    letter, least = "A", 0


class Dih(_Indexed):
    __slots__ = ()
    letter = "D"


class Cyc(_Indexed):
    __slots__ = ()
    letter = "C"


class ElemAb(GroupExpr):
    __slots__ = ("p", "r")

    def __post_init__(self):
        if not is_prime(self.p):
            raise NotPrime("%d is not prime" % self.p)
        if self.r < 1:
            raise ValueError("%s names no group: the rank must be at least 1"
                             % self)

    def __str__(self):
        return "E(%d,%d)" % (self.p, self.r)


class Product(GroupExpr):
    """A direct product: one flat tuple of atoms in written order, a
    Product argument giving its own factors."""

    __slots__ = ("factors",)

    def __init__(self, *factors):
        flat = []
        for f in factors:
            flat += _atoms(f)
        object.__setattr__(self, "factors", tuple(flat))

    def __str__(self):
        return " x ".join(map(str, self.factors))


def _atoms(e):
    return e.factors if isinstance(e, Product) else (e,)


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
    return math.prod(map(expr_order, e.factors))


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
    return sum(map(degree, e.factors))


# ---------------------------------------------------------------------------
# permutations
# ---------------------------------------------------------------------------

def pmul(a, b):
    return tuple(a[x] for x in b)


def pident(n):
    return tuple(range(n))


def _cycle(points, degree):
    a = list(range(degree))
    for x, y in zip(points, points[1:] + points[:1]):
        a[x] = y
    return tuple(a)


def _turn(lengths, image):
    """The permutation turning each consecutive block b of the given
    lengths by image.get(b, 0)."""
    a, start = [], 0
    for b, ln in enumerate(lengths):
        a += [start + (i + image.get(b, 0)) % ln for i in range(ln)]
        start += ln
    return tuple(a)


def _prime_power_parts(n):
    """The prime powers exactly dividing n, by ascending prime."""
    return [p ** a for p, a in factorize(n)]


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
            self._elements = _closure(self.degree, self.generators, cap)
        if len(self._elements) > cap:
            raise TooLarge("group exceeds enumeration cap %d" % cap)
        return self._elements

    def __repr__(self):
        return "PermGroup(degree=%d, order=%d)" % (self.degree, self.order)


def realize(expr):
    """Faithful permutation realization with standard generators.

    S_n, A_n and D_n (n >= 3) act on n points, a product on the disjoint
    union of its factors' points.  The others turn their blocks, as their
    embedding certificates into themselves do: E(p,r) has one p-cycle per
    block, D_1 and D_2 one 2-cycle; C_n's one generator is a product of
    disjoint cycles, one of each length p^a exactly dividing n, on sum(p^a)
    points (61 for C720720).
    """
    if isinstance(expr, (Sym, Alt)):
        # (0 1) for S_n, (0 1 2) for A_n, then an n-cycle, or an (n - 1)-cycle
        # fixing 0 for A_n with n even; _parities says how many there are
        n = expr.n
        first = (0, 1) if isinstance(expr, Sym) else (0, 1, 2)
        last = range(1 - n % 2 if isinstance(expr, Alt) else 0, n)
        gens = [_cycle(first, n), _cycle(tuple(last), n)] \
            if n >= len(first) else []
        return PermGroup(max(n, 1), gens[:len(_parities(expr))], expr=expr)
    if isinstance(expr, Dih) and expr.n >= 3:
        n = expr.n
        rot = _cycle(tuple(range(n)), n)
        refl = (0,) + tuple(range(n - 1, 0, -1))  # j -> -j (mod n)
        return PermGroup(n, [rot, refl], expr=expr)
    if isinstance(expr, (Cyc, ElemAb, Dih)):
        lengths = [ln for ln, _ in _blocks(expr)]
        gens = [_turn(lengths, im) for im in _images(expr, expr)]
        return PermGroup(degree(expr), gens, expr=expr)
    if isinstance(expr, Product):
        deg, gens, start = degree(expr), [], 0
        for f in map(realize, expr.factors):
            end = start + f.degree
            gens += [pident(start) + tuple(start + x for x in g)
                     + tuple(range(end, deg)) for g in f.generators]
            start = end
        return PermGroup(deg, gens, expr=expr)
    raise TypeError("unknown group expression %r" % (expr,))


# ---------------------------------------------------------------------------
# structural queries
# ---------------------------------------------------------------------------

@lru_cache(maxsize=None)
def _partition_orders(n, even_only):
    """The element orders of S_n, or of A_n when even_only, by a walk over
    prime powers.  m is the order of a permutation of n points iff the prime
    powers exactly dividing m sum to at most n: one cycle of each, the other
    points fixed.  That permutation is even when m is odd; an even m is the
    order of an even permutation iff the sum plus 2 is at most n, since a
    transposition on two more points evens out the odd cycle of length 2^a,
    and two cycles of even length cost at least that much."""
    if n > 40:
        raise TooLarge("symmetric/alternating order census capped at n = 40")
    found = [(1, 0)]  # (m, the sum of the prime powers exactly dividing m)
    for p in filter(is_prime, range(2, n + 1)):
        powers = [p ** a for a in range(1, n.bit_length()) if p ** a <= n]
        found += [(m * q, s + q) for m, s in found for q in powers
                  if s + q <= n]
    return frozenset(m for m, s in found
                     if not (even_only and m % 2 == 0 and s + 2 > n))


@lru_cache(maxsize=None)
def element_orders(e):
    """The exact set of element orders of the expression e, from its family
    structure, with no element enumerated; memoized per group, a product's
    factors included.  The enumerating form is a test oracle."""
    if isinstance(e, Product):
        orders = {1}
        for f in e.factors:
            orders = {math.lcm(a, b) for a in orders
                      for b in element_orders(f)}
        return frozenset(orders)
    if isinstance(e, Cyc):
        return frozenset(divisors(e.n))
    if isinstance(e, Dih):
        return element_orders(Cyc(e.n)) | {1, 2}
    if isinstance(e, ElemAb):
        return frozenset({1, e.p})
    return _partition_orders(e.n, isinstance(e, Alt))  # S_n, A_n


def _closure(degree, gens, cap=ORDER_CAP):
    """The group the permutations gens generate, by breadth-first search."""
    seen = {pident(degree)}
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


# ---------------------------------------------------------------------------
# embedding certificates
# ---------------------------------------------------------------------------

class Embedding(Record):
    # images: realize(source)'s generators in target's blocks
    __slots__ = ("source", "target", "images")


def _on_points(a):
    """Whether atom a is S_n, A_n or D_n (n >= 3); the elements of any
    other atom are exactly the rotations of its blocks."""
    return isinstance(a, (Sym, Alt)) or isinstance(a, Dih) and a.n >= 3


def _blocks(g):
    """g's blocks in point order: (length, None) for a rotation block,
    (degree, atom) for all the points of an atom on points."""
    out = []
    for a in _atoms(g):
        out += ([(degree(a), a)] if _on_points(a) else
                [(ln, None) for ln in _prime_power_parts(a.n)]
                if isinstance(a, Cyc) else
                [(a.p, None)] * a.r if isinstance(a, ElemAb) else
                [(2, None)] * a.n)  # D_1 or D_2
    return out


def _parities(a):
    """1 or 0 for each generator of realize(a) as it is odd or even."""
    if isinstance(a, Sym):  # (0 1), and from n = 3 the n-cycle
        return () if a.n <= 1 else (1,) if a.n == 2 else (1, (a.n - 1) % 2)
    if isinstance(a, Alt):  # a 3-cycle, and from n = 4 an odd-length cycle
        return (0,) * min(max(a.n - 2, 0), 2)
    if isinstance(a, Dih) and a.n >= 3:  # j -> -j is (n - 1) // 2 swaps
        return ((a.n - 1) % 2, (a.n - 1) // 2 % 2)
    if isinstance(a, Cyc):  # of its cycles only the one of length 2^k is odd
        return ((a.n + 1) % 2,) * (a.n > 1)
    return (int(a.p == 2),) * a.r if isinstance(a, ElemAb) else (1,) * a.n


def _images(h, g):
    """realize(h)'s generators in g's blocks under a built-in inclusion
    h <= g, or None: the atoms of h factorwise, or else all of h in one
    factor, each part in the first factor of g past the previous part's
    that holds it (see ``_held``)."""
    for parts in ([*h.factors], [h]) if isinstance(h, Product) else ([h],):
        images, start, fs = (), 0, _atoms(g)
        for i, f in enumerate(fs):
            start += i and len(_blocks(fs[i - 1]))  # where f's blocks start
            held = _held(parts[0], f, start)
            if held is not None:
                images += held
                del parts[0]
                if not parts:
                    return images
    return None


def _held(h, f, start):
    """realize(h)'s generators in the blocks of the atom f, numbered from
    start, under a built-in inclusion h <= f, or None: h on its own points
    of f (see ``_on_own_points``), or C_d in C_n for d | n coprime to n/d,
    onto C_n's CRT blocks."""
    if isinstance(h, Cyc) and isinstance(f, Cyc) and f.n % h.n == 0 \
            and math.gcd(h.n, f.n // h.n) == 1:  # onto C_n's CRT blocks
        at = {q: start + i for i, q in enumerate(_prime_power_parts(f.n))}
        return ({at[q]: 1 for q in _prime_power_parts(h.n)},) * (h.n > 1)
    if not (_on_own_points(h, f) and degree(h) <= degree(f)):
        return None
    if not _on_points(f):  # h = f, or E(p,s) in E(p,r)
        return tuple({start + i: 1} for i in range(len(_blocks(h))))
    images, offset = (), 0  # each atom of h on its own points
    for a in _atoms(h):
        images += ({start: offset},) * len(_parities(a))
        offset += degree(a)
    return images


def _verify(h, g, images):
    """Whether images give an injective homomorphism h -> realize(g), in
    O(#blocks + #generators).  An image maps each block of g it moves to
    the amount 0 < k < l it turns that block of length l by, or on a point
    block to the offset it moves its own generator up by.  The atoms of h
    take disjoint blocks, or ascending ranges of a point block, so their
    images commute and the map is injective iff it is on each atom."""
    blocks, used, pos = dict(enumerate(_blocks(g))), {}, 0
    for a in filter(_parities, _atoms(h)):  # the atoms with generators
        count = len(_parities(a))
        ims, pos = images[pos:pos + count], pos + count
        cells = [(b, k, blocks.get(b)) for im in ims for b, k in im.items()]
        if len(ims) < count or not all(ims) or any(
                block is None for _, _, block in cells):
            return False
        b, offset, (length, target) = cells[0]
        if target is not None:  # a relabeling: in A_n if even, in D_n if D_n
            if any(im != {b: offset} for im in ims) \
                    or not used.get(b, 0) <= offset <= length - degree(a) \
                    or isinstance(target, Alt) and any(_parities(a)) \
                    or isinstance(target, Dih) and (a, offset) != (target, 0):
                return False
            used[b] = offset + degree(a)
            continue
        if _on_points(a) or any(b in used or t is not None or not 0 < k < ln
                                for b, k, (ln, t) in cells):
            return False
        used.update((b, ln) for b, _, (ln, _) in cells)
        # C_d's image has order d; E(p,s)'s (D_1, D_2 are E(2,1), E(2,2))
        # turn one block each, all distinct, by order p (l divides kp), so
        # they are independent over F_p with no elimination
        if not (a.n == math.lcm(*(ln // math.gcd(k, ln)
                                  for _, k, (ln, _) in cells))
                if isinstance(a, Cyc) else
                len(cells) == count == len({b for b, _, _ in cells})
                and all(k * getattr(a, "p", 2) % ln == 0
                        for _, k, (ln, _) in cells)):
            return False
    return pos == len(images)


def embedding_certificate(h, g):
    """A certificate for a built-in inclusion h <= g (see ``_images``):
    realize(h)'s generators in g's blocks, checked by ``_verify`` with no
    point of g built.  Returns an Embedding or None; None is absence of a
    certificate, not a proof of non-embeddability."""
    images = _images(h, g)
    return None if images is None or not _verify(h, g, images) \
        else Embedding(h, g, images)


_C2, _C3, _E32 = Cyc(2), Cyc(3), ElemAb(3, 2)  # built once: ElemAb checks p


def _on_own_points(h, g):
    """Whether h sits on its own points of the atom g: h = g; S_m, A_m,
    D_m, E(p,r), S_m x C_2 in S_n; A_m, E(3,2), A_m x C_3 in A_n."""
    if h == g:
        return True
    pair = getattr(h, "factors", ())  # S_m x C_2, A_m x C_3
    if isinstance(g, Sym):
        return (isinstance(h, (Sym, Alt)) and h.n <= g.n
                or isinstance(h, Dih) and 3 <= h.n <= g.n
                or isinstance(h, ElemAb) and h.p * h.r <= g.n
                or len(pair) == 2 and _C2 in pair and any(  # either order
                    isinstance(a, Sym) and a.n + 2 <= g.n for a in pair))
    if isinstance(g, Alt):
        return (isinstance(h, Alt) and h.n <= g.n
                or h == _E32 and g.n >= 6
                or len(pair) == 2 and isinstance(pair[0], Alt)
                and pair[1] == _C3 and pair[0].n + 3 <= g.n)
    return isinstance(h, ElemAb) and isinstance(g, ElemAb) \
        and h.p == g.p and h.r <= g.r

import itertools
import json
import math
from pathlib import Path

import pytest

from edim import edengine, groups
from edim.cli import parse_field, parse_group
from edim.errors import TooLarge
from edim.fielddesc import (NO, UNKNOWN, YES, Cyclotomic, FiniteField,
                            RationalField)
from edim.groups import (Alt, Cyc, Dih, ElemAb, Product, Sym, _atoms,
                         _blocks, _closure, _on_own_points, _partition_orders,
                         _prime_power_parts, degree,
                         element_orders, embedding_certificate, expr_order,
                         pident, pmul, realize)
from oracles import (center, character_exists, enumerated_orders, l_core,
                     partition_orders, partitions, pinv, porder)

Q = RationalField()


def test_expr_order():
    assert expr_order(Sym(5)) == 120
    assert expr_order(Alt(5)) == 60
    assert expr_order(Dih(7)) == 14
    assert expr_order(Cyc(9)) == 9
    assert expr_order(ElemAb(3, 2)) == 9
    assert expr_order(Product(Sym(3), Cyc(4))) == 24


def test_degree_is_the_realized_degree():
    exprs = ([f(n) for f in (Sym, Alt) for n in range(9)]
             + [Dih(n) for n in range(1, 12)] + [Cyc(n) for n in range(1, 81)]
             + [ElemAb(p, r) for p in (2, 3, 5) for r in (1, 2, 3)]
             + [Product(Product(Dih(2), Cyc(12)), Alt(5))])
    for e in exprs:
        assert degree(e) == realize(e).degree, e


def test_str_forms():
    assert str(Sym(6)) == "S6"
    assert str(ElemAb(3, 2)) == "E(3,2)"
    assert str(Product(Alt(5), Cyc(3))) == "A5 x C3"


def test_perm_primitives():
    a = (1, 2, 0, 3)  # 3-cycle
    assert porder(a) == 3
    assert pmul(a, pinv(a)) == pident(4)
    assert porder(pident(4)) == 1


@pytest.mark.parametrize("expr,orders", [
    (Sym(4), {1, 2, 3, 4}),
    (Alt(5), {1, 2, 3, 5}),
    (Dih(6), {1, 2, 3, 6}),
    (Cyc(12), {1, 2, 3, 4, 6, 12}),
    (ElemAb(5, 2), {1, 5}),
    (Cyc(30), {1, 2, 3, 5, 6, 10, 15, 30}),
    (Cyc(36), {1, 2, 3, 4, 6, 9, 12, 18, 36}),
])
def test_element_orders_match_enumeration(expr, orders):
    assert element_orders(expr) == orders
    assert enumerated_orders(realize(expr)) == orders


def test_cyclic_realized_on_crt_points():
    # one cycle per prime power exactly dividing n, never a degree-n cycle
    for n, parts in ((2, [2]), (12, [4, 3]), (30, [2, 3, 5]), (36, [4, 9]),
                     (64, [64]), (720720, [16, 9, 5, 7, 11, 13])):
        g = realize(Cyc(n))
        assert g.degree == sum(parts), n
        assert porder(g.generators[0]) == n
    assert realize(Cyc(720720)).degree == 61
    assert realize(Cyc(1)).degree == 1


@pytest.mark.parametrize("expr,zorder", [
    (Sym(3), 1), (Sym(4), 1), (Alt(4), 1), (Alt(5), 1),
    (Dih(4), 2), (Dih(5), 1), (Cyc(6), 6), (ElemAb(2, 3), 8),
    (Product(Cyc(2), Sym(3)), 2),
])
def test_center_by_enumeration(expr, zorder):
    g = realize(expr)
    assert center(g).order == zorder


@pytest.mark.parametrize("expr,l,trivial", [
    (Sym(3), 3, False), (Sym(4), 2, False), (Alt(4), 2, False),
    (Alt(5), 2, True), (Dih(5), 2, True), (Dih(4), 2, False),
    (Cyc(6), 2, False), (Cyc(6), 5, True),
])
def test_l_core_by_enumeration(expr, l, trivial):
    g = realize(expr)
    assert (l_core(g, l).order == 1) == trivial


def test_character_exists_spec_cases():
    g = realize(Cyc(4))
    gen = next(x for x in g.elements() if porder(x) == 4)
    sigma = pmul(gen, gen)  # the square: order 2, in every character kernel
    tri, wit = character_exists(g, sigma, Q)
    assert tri is NO and wit is None

    g2 = realize(Cyc(2))
    s2 = next(x for x in g2.elements() if porder(x) == 2)
    tri, wit = character_exists(g2, s2, FiniteField(3, 1))
    assert tri is YES and wit is not None
    assert wit.value_of(g2, s2) != wit.value_of(g2, pident(len(s2)))

    g3 = realize(Cyc(3))
    s3 = next(x for x in g3.elements() if porder(x) == 3)
    tri, _ = character_exists(g3, s3, FiniteField(2, 2))
    assert tri is YES
    tri, _ = character_exists(g3, s3, Q)  # no zeta_3 in Q
    assert tri is NO


def test_character_witness_is_homomorphism():
    g = realize(Cyc(6))
    sigma = next(x for x in g.elements() if porder(x) == 2)
    tri, wit = character_exists(g, sigma, Q)
    assert tri is YES
    m = wit.target_order
    els = list(g.elements())
    for a in els:
        for b in els:
            # chi is written additively as a labeling into Z/m
            assert wit.value_of(g, pmul(a, b)) == \
                (wit.value_of(g, a) + wit.value_of(g, b)) % m
    assert wit.value_of(g, sigma) != 0


# --- the point-map oracle ----------------------------------------------------
# The certificate the library used before block coordinates: an injective
# map from h's points into g's points, with each generator of realize(h)
# carried along it as a whole permutation and checked to lie in realize(g);
# O(degree) per inclusion.

def _transport(perm, points, deg):
    """perm carried along points (points[i] -> points[perm[i]]); every other
    point of the degree is fixed."""
    a = list(range(deg))
    for x, y in zip(points, map(points.__getitem__, perm)):
        a[x] = y
    return tuple(a)


def _odd(perm):
    return (len(perm) - len(_cycles(perm))) % 2


def _cycles(perm):
    seen, out = set(), []
    for i in range(len(perm)):
        cycle = []
        while i not in seen:
            seen.add(i)
            cycle.append(i)
            i = perm[i]
        if cycle:
            out.append(cycle)
    return out


def _contains(g, perm):
    """Whether realize(g) contains perm, a permutation of its degree."""
    if isinstance(g, Product):  # each factor's points onto themselves
        start = 0
        for f in g.factors:
            end = start + degree(f)
            part = perm[start:end]
            if not all(start <= x < end for x in part) \
                    or not _contains(f, tuple(x - start for x in part)):
                return False
            start = end
        return True
    if isinstance(g, (Sym, Alt)):
        return isinstance(g, Sym) or not _odd(perm)
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
    in realize(g).  Carrying along an injective point map is conjugation by
    a relabeling, so generator -> image extends to an injective
    homomorphism whatever the order of H."""
    deg = degree(g)
    if len(points) != h_pg.degree or len(set(points)) != len(points) \
            or not 0 <= min(points) <= max(points) < deg:
        return None
    images = tuple(_transport(gen, points, deg) for gen in h_pg.generators)
    return images if all(_contains(g, im) for im in images) else None


def _points_in(h, f):
    """h's points among those of the atom f, for h an atom or S_m x C_2 or
    A_m x C_3 on its own points, or None."""
    if _on_own_points(h, f):
        dh = degree(h)
        return tuple(range(dh)) if dh <= degree(f) else None
    if isinstance(h, Cyc) and isinstance(f, Cyc) and f.n % h.n == 0 \
            and math.gcd(h.n, f.n // h.n) == 1:
        starts, start = {}, 0
        for q in _prime_power_parts(f.n):
            starts[q], start = start, start + q
        return tuple(starts[q] + i for q in _prime_power_parts(h.n)
                     for i in range(q)) or (0,)  # C_1 is one fixed point
    return None


def _find_points(h, g):
    """h's points among g's: h's factors in g's, or else all of h in one of
    them, each part in the first factor of g past the previous part's that
    holds it."""
    factors, start = [], 0
    for f in g.factors if isinstance(g, Product) else (g,):
        factors.append((f, start))
        start += degree(f)
    for parts in ([*h.factors], [h]) if isinstance(h, Product) else ([h],):
        points = ()
        for f, start in factors:
            held = _points_in(parts[0], f) if parts else None
            if held is not None:
                points += tuple(start + x for x in held)
                parts.pop(0)
        if not parts:
            return points
    return None


def _point_map_certificate(h, g):
    """(points, images) for the built-in inclusion h <= g, or None."""
    points = _find_points(h, g)
    images = None if points is None else _carry(realize(h), g, points)
    return None if images is None else (points, images)


def _expand(h, g, images):
    """Block-coordinate images as permutations of realize(g)'s points: a
    rotation block turned by its amount, or on a point block the image's
    own generator of realize(h) moved up by the offset."""
    blocks, starts, at = _blocks(g), [], 0
    for a in _atoms(g):
        for ln, _ in _blocks(a):
            starts.append(at)
            at += ln
        at += degree(a) - sum(ln for ln, _ in _blocks(a))  # C_1's point
    gens = [x for a in _atoms(h) for x in realize(a).generators]
    out = []
    for gen, im in zip(gens, images):
        perm = list(range(degree(g)))
        for b, value in im.items():
            ln, target = blocks[b]
            if target is None:  # a rotation block
                base, moves = starts[b], [(i + value) % ln for i in range(ln)]
            else:
                base, moves = starts[b] + value, gen
            for i, x in enumerate(moves):
                perm[base + i] = base + x
        out.append(tuple(perm))
    return tuple(out)


def _agrees_with_oracle(h, g):
    emb, oracle = embedding_certificate(h, g), _point_map_certificate(h, g)
    if (emb is None) != (oracle is None):
        return False
    return emb is None or degree(g) > 10 ** 4 \
        or _expand(h, g, emb.images) == oracle[1]


def test_embedding_certificates():
    for h, g in [(Alt(5), Sym(5)), (Dih(3), Sym(3)),
                 (Sym(3), Sym(4)), (ElemAb(2, 2), Sym(4)),
                 (ElemAb(3, 2), Alt(6)), (Cyc(3), Cyc(12)),
                 (Cyc(3), Product(Alt(5), Cyc(3)))]:
        emb = embedding_certificate(h, g)
        assert emb is not None, (h, g)
        elements = realize(g).elements()
        images = _expand(h, g, emb.images)
        assert len(images) == len(realize(h).generators)
        assert all(im in elements for im in images), (h, g)
    assert embedding_certificate(Sym(4), Alt(5)) is None
    assert embedding_certificate(Cyc(7), Sym(5)) is None
    # cyclic-inside-dihedral is deliberately not a certified edge
    assert embedding_certificate(Cyc(6), Dih(6)) is None


def _enumerated_embedding_ok(h, g, images):
    """Oracle for |H| <= 200: generator -> image extends along words to a
    well-defined map on all of H that is multiplicative and injective, and
    every image lies in realize(g).  Quadratic in |H|."""
    h_pg, g_pg = realize(h), realize(g)
    assert h_pg.order <= 200
    ident = pident(h_pg.degree)
    phi = {ident: pident(g_pg.degree)}
    frontier = [ident]
    while frontier:
        nxt = []
        for x in frontier:
            for gen, im in zip(h_pg.generators, images):
                y, fy = pmul(gen, x), pmul(im, phi[x])
                if y not in phi:
                    phi[y] = fy
                    nxt.append(y)
                elif phi[y] != fy:
                    return False
        frontier = nxt
    assert len(phi) == h_pg.order
    items = list(phi.items())
    if any(phi[pmul(x, y)] != pmul(fx, fy)
           for x, fx in items for y, fy in items):
        return False
    return len(set(phi.values())) == len(phi) and \
        all(im in g_pg.elements() for im in images)


# one or more small instances of every certified inclusion shape
CERTIFIED_SHAPES = [
    (Dih(5), Dih(5)), (Product(Cyc(2), Sym(3)), Product(Cyc(2), Sym(3))),
    (Sym(3), Sym(5)), (Alt(5), Sym(5)), (Alt(4), Alt(6)),
    (Dih(3), Sym(3)), (Dih(5), Sym(5)), (Dih(4), Sym(6)),
    (ElemAb(2, 2), Sym(4)), (ElemAb(3, 2), Sym(7)),
    (ElemAb(2, 2), ElemAb(2, 4)), (ElemAb(3, 1), ElemAb(3, 3)),
    (ElemAb(3, 2), Alt(6)), (ElemAb(3, 2), Alt(7)),
    (Cyc(1), Cyc(6)), (Cyc(3), Cyc(12)), (Cyc(4), Cyc(60)),
    (Cyc(15), Cyc(60)), (Cyc(36), Cyc(180)),
    (Product(Sym(3), Cyc(2)), Sym(5)), (Product(Cyc(2), Sym(4)), Sym(7)),
    (Product(Alt(4), Cyc(3)), Alt(7)),
    (Product(Cyc(3), Dih(4)), Product(Cyc(15), Sym(4))),
    (Cyc(3), Product(Alt(5), Cyc(3))), (Sym(3), Product(Sym(3), Cyc(4))),
    (Cyc(4), Product(Sym(3), Cyc(4))),
    (Cyc(5), Product(Product(Dih(4), Cyc(12)), Cyc(10))),
]


def test_embedding_matches_enumeration_oracle():
    for h, g in CERTIFIED_SHAPES:
        emb = embedding_certificate(h, g)
        assert emb is not None, (h, g)
        images = _expand(h, g, emb.images)
        assert all(len(im) == realize(g).degree for im in images)
        assert _enumerated_embedding_ok(h, g, images), (h, g)


def _catalog_pairs():
    """Every (h, g) the engine asks for a certificate over the non-hang
    bound queries of the benchmark catalog."""
    path = Path(__file__).resolve().parents[1] / "perfbench" / "catalog.json"
    workloads = json.loads(path.read_text())["workloads"]
    queries = {e["query"] for w in ("bound-structural", "bound-pgl2")
               for stratum, entries in workloads[w].items()
               if stratum != "hang" for e in entries}
    pairs, engine = set(), edengine._Engine()  # one engine shares queries
    certify = edengine.embedding_certificate
    edengine.embedding_certificate = \
        lambda h, g: pairs.add((h, g)) or certify(h, g)
    try:
        for query in sorted(queries):
            group, field = query.split("/", 1)
            engine.query(parse_group(group), parse_field(field))
    finally:
        edengine.embedding_certificate = certify
    return pairs


def test_block_certificates_match_the_point_map_oracle():
    # the engine's own pairs, all certified; then every pair over small
    # atoms and the products of two of every fifth atom, C_2 and C_3 (so
    # S_m x C_2 and A_m x C_3 are there): 51,076 pairs, 1,986 certified
    pairs = _catalog_pairs()
    assert len(pairs) > 150
    assert all(embedding_certificate(h, g) for h, g in pairs)
    atoms = ([f(n) for f in (Sym, Alt) for n in range(8)]
             + [Dih(n) for n in range(1, 9)] + [Cyc(n) for n in range(1, 25)]
             + [ElemAb(p, r) for p in (2, 3, 5) for r in (1, 2, 3)])
    factors = list(dict.fromkeys(atoms[::5] + [Cyc(2), Cyc(3)]))
    exprs = atoms + [Product(a, b) for a in factors for b in factors]
    grid = set(itertools.product(exprs, repeat=2))
    assert (len(grid), sum(1 for h, g in grid
                           if embedding_certificate(h, g))) == (51076, 1986)
    pairs |= set(CERTIFIED_SHAPES) | grid
    bad = [(str(h), str(g)) for h, g in pairs if not _agrees_with_oracle(h, g)]
    assert bad == []


def _verify_embedding(h_pg, g, points, images):
    """Whether images are h_pg's generators carried along the point map
    points into realize(g), each lying in realize(g)."""
    return _carry(h_pg, g, points) == tuple(map(tuple, images))


def test_verify_rejects_forged_point_maps():
    s6 = realize(Sym(6))  # |H| = 720
    points, images = _point_map_certificate(Sym(6), Sym(6))
    assert _verify_embedding(s6, Sym(6), points, images)
    # (0 1) -> (0 2) keeps both generator orders but breaks a relation: the
    # graph of the map generates 25,920 elements, not 720
    swap, rot = images
    forged = ((2, 1, 0, 3, 4, 5), rot)
    assert [porder(x) for x in forged] == [porder(swap), porder(rot)]
    graph = [a + tuple(6 + x for x in b) for a, b in zip(s6.generators, forged)]
    assert len(_closure(12, graph)) == 25920
    assert not _verify_embedding(s6, Sym(6), points, forged)
    # a point map that is not injective, out of range, or short; (0, 0)
    # carries C2's generator to the identity, which lies in every target
    assert not _verify_embedding(s6, Sym(6), (0, 0, 2, 3, 4, 5), images)
    assert not _verify_embedding(realize(Cyc(2)), Sym(3), (0, 0),
                                 (pident(3),))
    assert not _verify_embedding(s6, Sym(6), (0, 1, 2, 3, 4, 6), images)
    assert not _verify_embedding(s6, Sym(6), (0, 1, 2, 3, 4), images)
    # transported images outside the target: a transposition is odd, i -> 2i
    # (mod 5) is not in D5, and a 3-cycle on C12's 4-block is not in C12
    assert not _verify_embedding(realize(Cyc(2)), Alt(4), (0, 1),
                                 ((1, 0, 2, 3),))
    assert not _verify_embedding(realize(Cyc(4)), Dih(5), (1, 2, 4, 3),
                                 ((0, 2, 4, 1, 3),))
    assert not _verify_embedding(realize(Cyc(3)), Cyc(12), (0, 1, 2),
                                 ((1, 2, 0, 3, 4, 5, 6),))


@pytest.mark.parametrize("h,g,images", [
    # C4's image turns C4's block by 2: order 2, not 4
    (Cyc(4), Cyc(4), ({0: 2},)),
    # E(2,2)'s two images are the same involution
    (ElemAb(2, 2), ElemAb(2, 2), ({0: 1}, {0: 1})),
    (ElemAb(2, 2), ElemAb(2, 3), ({0: 1, 1: 1}, {0: 1, 1: 1})),
    # an odd image in A_n: C2's generator is a transposition
    (Cyc(2), Alt(4), ({0: 0},)),
    (Sym(3), Alt(5), ({0: 0}, {0: 0})),
    # a block index out of range: C12 has two blocks, 4 and 3 points
    (Cyc(3), Cyc(12), ({2: 1},)),
    (Cyc(3), Cyc(12), ({-1: 1},)),
    # block maps that are not injective: both factors on one block, or on
    # overlapping ranges of one point block
    (Product(Cyc(2), Cyc(2)), Product(Cyc(2), Cyc(2)), ({0: 1}, {0: 1})),
    (Product(Sym(3), Cyc(2)), Sym(5), ({0: 0}, {0: 0}, {0: 2})),
    # a generator sent to the identity, a missing image, a spare one
    (Cyc(3), Cyc(3), ({},)),
    (Dih(2), Dih(2), ({0: 1},)),
    (Cyc(3), Cyc(3), ({0: 1}, {0: 1})),
    # rotations for an atom on points (S_3 is not V_4), a point offset past
    # the block, a rotation amount outside the block, D_n's points for a
    # subgroup
    (Sym(3), ElemAb(2, 2), ({0: 1}, {1: 1})),
    (Sym(3), Sym(4), ({0: 2}, {0: 2})),
    (Cyc(3), Cyc(3), ({0: 3},)),
    (Cyc(2), Dih(4), ({0: 0},)),
    # E(2,1)'s image turns C4's block by 1: order 4, not 2
    (ElemAb(2, 1), Cyc(4), ({0: 1},)),
])
def test_forged_block_certificates_are_rejected(monkeypatch, h, g, images):
    # the engine's own entry point, with the builder replaced by a forgery
    monkeypatch.setattr(groups, "_images", lambda h, g: images)
    assert embedding_certificate(h, g) is None


def test_certificates_name_no_point():
    # degree 10^7 + 19: each certificate is a few block coordinates
    n = 10000019
    assert embedding_certificate(Dih(n), Sym(n)).images == ({0: 0}, {0: 0})
    emb = embedding_certificate(Cyc(999983), Cyc(1999966))
    assert emb.images == ({1: 1},)
    assert embedding_certificate(ElemAb(2, 3), ElemAb(2, 10 ** 6)).images \
        == ({0: 1}, {1: 1}, {2: 1})


def test_dropped_inclusions_are_not_certified():
    # only coprime cyclic pairs; no A_m x V_4 in A_{m+4}, V_4 x V_4 in A_8
    assert embedding_certificate(Cyc(2), Cyc(4)) is None
    assert embedding_certificate(Cyc(6), Cyc(12)) is None
    assert embedding_certificate(Product(Alt(4), ElemAb(2, 2)), Alt(8)) is None
    assert embedding_certificate(Product(ElemAb(2, 2), ElemAb(2, 2)),
                                 Alt(8)) is None
    # C16 turns the first of C720720's six CRT blocks, 16 + 9 + ... + 13
    emb = embedding_certificate(Cyc(16), Cyc(720720))
    assert emb.images == ({0: 1},) and len(_blocks(Cyc(720720))) == 6


def test_product_factor_embeds():
    g = Product(Sym(3), Cyc(4))
    for h in (Sym(3), Cyc(4)):
        assert embedding_certificate(h, g) is not None


def test_partition_counts():
    # p(n) by the coin-change recurrence over part sizes 1..n
    ways = [1] + [0] * 30
    for part in range(1, 31):
        for n in range(part, 31):
            ways[n] += ways[n - part]
    assert (ways[20], ways[30]) == (627, 5604)
    for n in range(31):
        parts = list(partitions(n))
        assert len(parts) == ways[n], n
        assert len(set(parts)) == len(parts)
        assert all(sum(lam) == n and list(lam) == sorted(lam, reverse=True)
                   for lam in parts)


def test_partition_orders_match_permutations():
    for n in range(1, 9):
        orders = {False: set(), True: set()}
        for perm in itertools.permutations(range(n)):
            seen, lengths = set(), []
            for i in range(n):
                if i not in seen:
                    j, length = i, 0
                    while j not in seen:
                        seen.add(j)
                        j, length = perm[j], length + 1
                    lengths.append(length)
            order = math.lcm(*lengths)
            orders[False].add(order)
            if (n - len(lengths)) % 2 == 0:
                orders[True].add(order)
        assert partition_orders(n) == orders, n
        for even_only in (False, True):
            assert _partition_orders(n, even_only) == orders[even_only], \
                (n, even_only)


def test_prime_power_census_matches_the_partition_walk():
    # m is an order of S_n iff its prime-power parts sum to at most n, and
    # an even m is one of A_n iff that sum plus 2 is
    for n in range(41):
        walked = partition_orders(n)
        for even_only in (False, True):
            assert _partition_orders(n, even_only) == walked[even_only], \
                (n, even_only)
    assert {35, 60} <= _partition_orders(12, False)  # 5 + 7, 4 + 3 + 5
    assert 420 not in _partition_orders(18, False)  # 4 + 3 + 5 + 7 = 19
    assert 6 not in _partition_orders(6, True)  # (1 2 3)(4 5) is odd
    assert 6 in _partition_orders(7, True)  # (1 2 3)(4 5)(6 7)
    for even_only in (False, True):
        with pytest.raises(TooLarge, match="capped at n = 40"):
            _partition_orders(41, even_only)


def test_constructors_reject_indices_that_name_no_group():
    for make in (lambda: Cyc(0), lambda: Dih(0), lambda: Sym(-1),
                 lambda: Alt(-2), lambda: ElemAb(2, 0), lambda: Cyc(-5)):
        with pytest.raises(ValueError, match="names no group"):
            make()
    # S_0 and A_0 are the trivial group, as S_1 and A_1 are
    assert expr_order(Sym(0)) == expr_order(Alt(0)) == 1
    assert str(Cyc(1)) == "C1" and str(Dih(1)) == "D1"

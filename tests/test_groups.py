import itertools
import math

import pytest

from edim.fielddesc import (NO, UNKNOWN, YES, Cyclotomic, FiniteField,
                            RationalField)
from edim.groups import (Alt, Cyc, Dih, ElemAb, Product, Sym,
                         _partition_orders, _partitions, center,
                         character_exists, element_orders,
                         embedding_certificate, expr_order, l_core, pident,
                         pinv, pmul, porder, realize)

Q = RationalField()


def test_expr_order():
    assert expr_order(Sym(5)) == 120
    assert expr_order(Alt(5)) == 60
    assert expr_order(Dih(7)) == 14
    assert expr_order(Cyc(9)) == 9
    assert expr_order(ElemAb(3, 2)) == 9
    assert expr_order(Product(Sym(3), Cyc(4))) == 24


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
])
def test_element_orders_match_enumeration(expr, orders):
    g = realize(expr)
    assert element_orders(g) == orders
    assert {porder(x) for x in g.elements()} == orders


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


def test_embedding_certificates():
    for h, g in [(Alt(5), Sym(5)), (Dih(3), Sym(3)),
                 (Sym(3), Sym(4)), (ElemAb(2, 2), Sym(4)),
                 (ElemAb(3, 2), Alt(6)), (Cyc(3), Cyc(12)),
                 (Cyc(3), Product(Alt(5), Cyc(3)))]:
        emb = embedding_certificate(h, g)
        assert emb is not None, (h, g)
        gr = realize(g)
        hh = realize(h)
        gens = hh.generators
        images = emb.images
        assert len(images) == len(gens)
        for im in images:
            assert gr.contains(im), (h, g)
    assert embedding_certificate(Sym(4), Alt(5)) is None
    assert embedding_certificate(Cyc(7), Sym(5)) is None
    # cyclic-inside-dihedral is deliberately not a certified edge
    assert embedding_certificate(Cyc(6), Dih(6)) is None


def test_embedding_preserves_relations():
    emb = embedding_certificate(Dih(5), Sym(5))
    assert emb is not None
    hh = realize(Dih(5))
    # the map gens -> images extends to an injective homomorphism: check
    # products of generator pairs agree in order
    for i, a in enumerate(hh.generators):
        assert porder(a) == porder(emb.images[i])


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
        parts = list(_partitions(n))
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
        for even_only in (False, True):
            assert _partition_orders(n, even_only) == orders[even_only], \
                (n, even_only)

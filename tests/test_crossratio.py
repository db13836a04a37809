import itertools
import random
from collections import Counter

import pytest

from edim import crossratio, ratfunc
from edim.crossratio import (CRSymbol, apply_action, check_rewrite, cr_define,
                             cr_rewrite, generator_symbol, sn_action, tvars,
                             verify_faithful, xvars)
from edim.errors import AmbientTooSmall, DegreeTooLarge
from edim.exactfield import fq_context
from edim.ratfunc import QQ, MultiPoly, RatFn, render
from oracles import (check_rewrite_by_products, faithful_by_enumeration,
                     rewrite_by_products)

# the six Mobius images of a cross-ratio t under reordering its four points,
# generated by the paper's Step-2 identities (12).t = (34).t = 1/t and
# (23).t = 1 - t; with _match_mobius, the oracle for the closed-form rewrite
_MOBIUS_FNS = (
    lambda t: t,
    lambda t: 1 / t,
    lambda t: 1 - t,
    lambda t: 1 / (1 - t),
    lambda t: (t - 1) / t,
    lambda t: t / (t - 1),
)


def _match_mobius(value, reference):
    """Index of the Mobius map with value = _MOBIUS_FNS[idx](reference)."""
    for idx, phi in enumerate(_MOBIUS_FNS):
        if value == phi(reference):
            return idx
    raise AssertionError("cross-ratio values not Mobius-related")


def test_symbol_validation():
    with pytest.raises(AmbientTooSmall):
        CRSymbol(3, (1, 2, 3, 1))
    with pytest.raises(ValueError):
        CRSymbol(5, (1, 2, 3, 3))
    with pytest.raises(ValueError):
        CRSymbol(5, (1, 2, 3, 6))


def test_rewrite_generator_is_identity():
    for n in (5, 6):
        for i in range(4, n + 1):
            sym = generator_symbol(n, i)
            got = cr_rewrite(sym)
            assert render(got) == "t%d" % i


def test_rewrite_example_grammar():
    # [1,2;5,4] in ambient 5 rewrites to t4 / t5
    got = cr_rewrite(CRSymbol(5, (1, 2, 5, 4)))
    assert render(got) == "t4 * t5^-1"


@pytest.mark.parametrize("n, idx, want", [
    (5, (3, 1, 4, 2), "-t4 + 1"),
    (5, (5, 1, 2, 4), "-t5 * (t4 - t5)^-1"),
    (5, (2, 4, 3, 5), "(t4 - t5) * (t4 * t5 - t5)^-1"),
    (7, (4, 5, 6, 7), "(t4 * t5 - t4 * t7 - t5 * t6 + t6 * t7)"
                      " * (t4 * t5 - t4 * t6 - t5 * t7 + t6 * t7)^-1"),
])
def test_rewrite_renderings(n, idx, want):
    # one symbol of each shape: base indices 1, 2 and 3; 1 and one more;
    # 2 and 3 only; none
    assert render(cr_rewrite(CRSymbol(n, idx))) == want


def test_reorderings_rewrite_to_the_six_mobius_images():
    # the Klein four-group fixes a cross-ratio, so each of the six images of
    # t_m comes from 4 of the 24 reorderings of (1,2,3,m)
    for n in (5, 6):
        for m in range(4, n + 1):
            t = RatFn.var(QQ, tvars(n), "t%d" % m)
            hits = Counter(_match_mobius(cr_rewrite(CRSymbol(n, p)), t)
                           for p in itertools.permutations((1, 2, 3, m)))
            assert hits == {idx: 4 for idx in range(6)}, (n, m, hits)


def test_cross_ratio_is_mobius_invariant():
    # the lemma behind the slice: [i,j;k,l] is fixed by x -> x + a, x -> a x
    # and x -> 1/x applied to every point at once, which generate PGL_2
    ring = xvars(4) + ("a",)
    x = {v: RatFn.var(QQ, ring, v) for v in xvars(4)}
    a = RatFn.var(QQ, ring, "a")
    moves = [{v: xv + a for v, xv in x.items()},
             {v: a * xv for v, xv in x.items()},
             {v: 1 / xv for v, xv in x.items()}]
    for idx in itertools.permutations(range(1, 5)):
        cr = cr_define(CRSymbol(4, idx))
        lifted = cr.substitute(x)
        for move in moves:
            assert cr.substitute(move) == lifted, (idx, move)


def test_structure_proves_coprimality(monkeypatch):
    defs = [CRSymbol(n, idx) for n in range(4, 8)
            for idx in itertools.permutations(range(1, n + 1), 4)]
    syms = [CRSymbol(n, idx) for n in range(5, 9)
            for idx in itertools.permutations(range(1, n + 1), 4)]

    def no_gcd(*args, **kwargs):
        raise AssertionError("poly_gcd called")

    with monkeypatch.context() as m:
        m.setattr(ratfunc, "poly_gcd", no_gcd)
        crossratio._rewrite.cache_clear()
        defined = [cr_define(s) for s in defs]
        rewritten = [cr_rewrite(s) for s in syms]
    for d in defined:
        one = MultiPoly.const(QQ, d.vars, 1)
        assert ratfunc.poly_gcd(d.num, d.den) == one, render(d)
    for s, r in zip(syms, rewritten):
        if s.n <= 7:
            assert ratfunc._gcd_prs(r.num, r.den).is_constant(), s


def test_check_rewrite_random_sample():
    rng = random.Random(2)
    for n in (5, 6, 7):
        idxs = list(itertools.permutations(range(1, n + 1), 4))
        for idx in rng.sample(idxs, 25):
            assert check_rewrite(CRSymbol(n, idx)), (n, idx)


@pytest.mark.parametrize("n", [5, 6, 7])
def test_check_rewrite_rejects_forged_rewrites(n, monkeypatch):
    # each forgery is the rewrite of a reordering of the same four indices
    # that is a different function: a Mobius image of the true one
    real = crossratio._rewrite
    rng = random.Random(n)
    idxs = list(itertools.permutations(range(1, n + 1), 4))
    forged = 0
    for idx in rng.sample(idxs, 5):
        sym = CRSymbol(n, idx)
        assert check_rewrite(sym), idx
        for other in itertools.permutations(idx):
            if real(n, other) == real(n, idx):
                continue
            monkeypatch.setattr(crossratio, "_rewrite",
                                lambda n_, idx_, other=other: real(n_, other))
            assert check_rewrite(sym) is False, (idx, other)
            assert check_rewrite_by_products(sym) is False, (idx, other)
            monkeypatch.setattr(crossratio, "_rewrite", real)
            forged += 1
    assert forged == 5 * 20


def test_check_rewrite_rejects_a_rewrite_in_other_generators(monkeypatch):
    # check_rewrite reads only the t_m at the symbol's indices; a rewrite
    # that holds any other t_m is refused, not read as if that t_m were 1:
    # t4 * t7 for [1,2;3,4] would pass so
    n, real = 7, crossratio._rewrite
    t7 = MultiPoly.var(QQ, tvars(n), "t7")
    forgeries = {(1, 2, 3, 4): lambda r: RatFn(r.num * t7, r.den),
                 (4, 5, 6, 1): lambda r: RatFn(r.num * (t7 + 1),
                                               r.den * (t7 + 1), reduce=False),
                 (2, 4, 5, 6): lambda r: real(n, (1, 2, 3, 7))}
    for idx, forge in forgeries.items():
        monkeypatch.setattr(crossratio, "_rewrite",
                            lambda n_, idx_, f=forge: f(real(n_, idx_)))
        assert check_rewrite(CRSymbol(n, idx)) is False, idx
        monkeypatch.setattr(crossratio, "_rewrite", real)
        assert check_rewrite(CRSymbol(n, idx)) is True, idx


def _unpacked(poly, n):
    """A packed polynomial of ``crossratio`` as {exponent tuple: coeff}."""
    width = crossratio._FIELD
    return {tuple(e >> width * i & (1 << width) - 1 for i in range(n)): c
            for e, c in poly.items()}


def _affine(terms):
    """{exponent tuple: coeff} over x_1..x_n at x_1 = 0 and x_2 = 1."""
    out = {}
    for e, c in terms.items():
        if not e[0]:
            e = (0, 0, *e[2:])
            out[e] = out.get(e, 0) + c
    return {e: c for e, c in out.items() if c}


def test_generator_table_matches_compose_pair():
    # RatFn.compose_pair is the oracle, at x_1 = 0 and x_2 = 1: the table
    # only shares its products
    crossratio._generator_image.cache_clear()
    for n in (5, 6, 7):
        bindings = {"t%d" % i: cr_define(generator_symbol(n, i))
                    for i in range(4, n + 1)}
        for idx in itertools.permutations(range(1, n + 1), 4):
            rewritten = cr_rewrite(CRSymbol(n, idx))
            got = crossratio._composed(rewritten, idx)
            want = rewritten.compose_pair(bindings)
            assert [_unpacked(p, n) for p in got] == \
                [_affine(p.terms) for p in want], idx
    # criterion 7's 1,320 symbols meet 62 keys: one table for every n
    assert crossratio._generator_image.cache_info().currsize <= 62


def test_packed_check_matches_the_product_oracle():
    # every symbol with n = 5..7: the packed check and the MultiPoly
    # cross-multiplication both accept
    for n in (5, 6, 7):
        for idx in itertools.permutations(range(1, n + 1), 4):
            sym = CRSymbol(n, idx)
            assert check_rewrite(sym) is check_rewrite_by_products(sym) \
                is True, idx


def test_packing_refuses_an_exponent_past_its_field():
    # a field holds the degree bound below its top bit: a product whose
    # exponent sum reaches the top bit raises, before any sum could carry
    # into the next field
    n, top, width = 3, crossratio._TOP, crossratio._FIELD
    assert crossratio._MAX_EXPONENT < top

    def power(i, a):  # x_(i+1)^a, packed
        return {a << width * i: 1}

    for i in (0, n - 1):  # the last field too: its carry has no neighbour
        for a, b in ((top - 1, 1), (top // 2, top // 2), (top - 1, top - 1)):
            with pytest.raises(DegreeTooLarge):
                crossratio._product_sum([(power(i, a), power(i, b))])
    # below the top bit a product is exact
    p = {3 + (1 << width * 2): 1}  # x_1^3 x_3
    assert _unpacked(crossratio._product_sum([(p, power(0, 4))]), n) == \
        {(top - 1, 0, 1): 1}


def test_packed_sides_match_cr_define():
    # check_rewrite's packed num, den and -num are cr_define's sides at
    # x_1 = 0, x_2 = 1, up to the one sign its monic normalization may put
    # on both
    cross, pair = crossratio._cross_product, crossratio._packed_pair

    def negated(p):
        return {e: -c for e, c in p.items()}

    for n in range(4, 8):
        for idx in itertools.permutations(range(1, n + 1), 4):
            i, j, k, l = idx
            defined = cr_define(CRSymbol(n, idx))
            want = _affine(defined.num.terms), _affine(defined.den.terms)
            num = _unpacked(cross(pair, i, j, k, l), n)
            den = _unpacked(cross(pair, i, j, l, k), n)
            assert (num, den) in (want, tuple(map(negated, want))), idx
            assert _unpacked(cross(pair, k, j, i, l), n) == negated(num), idx


def test_rewrite_matches_the_product_oracle():
    # every symbol with n = 5..8: the term-dict rewrite has the terms, in
    # the same order, and the rendering of the MultiPoly products
    for n in range(5, 9):
        for idx in itertools.permutations(range(1, n + 1), 4):
            sym = CRSymbol(n, idx)
            got, want = cr_rewrite(sym), rewrite_by_products(sym)
            for p, q in ((got.num, want.num), (got.den, want.den)):
                assert list(p.terms.items()) == list(q.terms.items()), idx
            assert render(got) == render(want), idx


@pytest.mark.parametrize("n", [5, 6])
def test_check_rewrite_rejects_a_forged_generator_image(n, monkeypatch):
    # the forged table swaps num_m and den_m of one generator t_m, i.e.
    # binds t_m to its inverse: every rewrite in t_m must then fail
    real = crossratio._generator_image
    for j in range(n - 3):
        def forged(key, m=j + 4):
            return real(tuple((m_, top - e if m_ == m else e, top)
                              for m_, e, top in key))

        monkeypatch.setattr(crossratio, "_generator_image", forged)
        for idx in itertools.permutations(range(1, n + 1), 4):
            sym = CRSymbol(n, idx)
            uses = j in cr_rewrite(sym).occurring()
            assert check_rewrite(sym) is not uses, (j, idx)


def test_rewrite_specializes_to_definition():
    ctx = fq_context(101, 1)
    rng = random.Random(9)
    n = 6
    for _ in range(30):
        idx = tuple(rng.sample(range(1, n + 1), 4))
        sym = CRSymbol(n, idx)
        xs = {}
        while len({v.encode() for v in xs.values()}) != n:
            xs = {"x%d" % i: ctx.from_int(rng.randrange(101))
                  for i in range(1, n + 1)}
        ts = {"t%d" % i: cr_define(generator_symbol(n, i)).evaluate(xs)
              for i in range(4, n + 1)}
        try:
            got = cr_rewrite(sym).evaluate(ts)
        except Exception:
            continue
        assert got == cr_define(sym).evaluate(xs), (idx,)


def test_sn_action_is_group_action():
    n = 5
    rng = random.Random(4)
    perms = [tuple(rng.sample(range(n), n)) for _ in range(5)]
    t4 = cr_rewrite(generator_symbol(n, 4))
    for a in perms:
        for b in perms:
            ab = tuple(a[b[i]] for i in range(n))
            lhs = apply_action(sn_action(ab), t4)
            rhs = apply_action(sn_action(a), apply_action(sn_action(b), t4))
            assert lhs == rhs, (a, b)


def test_action_identity():
    n = 6
    ident = tuple(range(n))
    action = sn_action(ident)
    t5 = cr_rewrite(generator_symbol(n, 5))
    assert apply_action(action, t5) == t5


def test_action_matches_symbol_permutation():
    # acting by sigma on the rewrite of [i,j;k,l] equals the rewrite of
    # [sigma(i), sigma(j); sigma(k), sigma(l)]
    n = 5
    rng = random.Random(6)
    for _ in range(15):
        sigma = tuple(rng.sample(range(n), n))
        idx = tuple(rng.sample(range(1, n + 1), 4))
        lhs = apply_action(sn_action(sigma), cr_rewrite(CRSymbol(n, idx)))
        moved = tuple(sigma[i - 1] + 1 for i in idx)
        rhs = cr_rewrite(CRSymbol(n, moved))
        assert lhs == rhs, (sigma, idx)


def test_verify_faithful():
    # every n that R-S-UB reaches in the catalog: 2(n - 3) stability
    # identities and the image of t_4 under (1 2 3), all proven
    for n in range(5, 41):
        rep = verify_faithful(n)
        assert rep.passed, n
        assert rep.checked == 2 * (n - 3) + 1, n
    for n in (4, 3, 0):
        with pytest.raises(AmbientTooSmall):
            verify_faithful(n)


@pytest.mark.parametrize("n", [5, 6])
def test_certificate_agrees_with_the_enumeration(n):
    assert faithful_by_enumeration(n) is verify_faithful(n).passed is True


# one image symbol of each permutation the certificate reads, n = 6:
# (1 2) on t_5, the 6-cycle on t_6 and (1 2 3) on t_4
@pytest.mark.parametrize("sigma, m", [((1, 0, 2, 3, 4, 5), 5),
                                      ((1, 2, 3, 4, 5, 0), 6),
                                      ((1, 2, 0, 3, 4, 5), 4)],
                         ids=["swap", "cycle", "three-cycle"])
def test_a_forged_image_rewrite_fails_the_certificate(sigma, m, monkeypatch):
    # forge the image's rewrite to t_m itself (the permutation fixing t_m)
    # and to the rewrite of the reciprocal [j,i;k,l]
    n, real = len(sigma), crossratio._rewrite
    target = crossratio._image_symbols(sigma)[m].indices
    i, j, k, l = target
    for wrong in ((1, 2, 3, m), (j, i, k, l)):
        assert real(n, wrong) != real(n, target)
        monkeypatch.setattr(crossratio, "_rewrite", lambda n_, idx, w=wrong:
                            real(n_, w if idx == target else idx))
        assert verify_faithful(n).passed is False, wrong
        monkeypatch.setattr(crossratio, "_rewrite", real)
    assert verify_faithful(n).passed is True


def _cr_define_by_products(sym):
    """The definition as a product of differences of variables: the oracle
    for cr_define's four-term construction."""
    vs = xvars(sym.n)
    i, j, k, l = sym.indices
    x = lambda m: MultiPoly.var(QQ, vs, "x%d" % m)
    return RatFn((x(i) - x(k)) * (x(j) - x(l)), (x(i) - x(l)) * (x(j) - x(k)),
                 reduce=False)


def test_cr_define_matches_product_of_differences():
    for n in range(4, 8):
        for idx in itertools.permutations(range(1, n + 1), 4):
            sym = CRSymbol(n, idx)
            got, want = cr_define(sym), _cr_define_by_products(sym)
            assert got.vars == want.vars == xvars(n)
            assert got.num.terms == want.num.terms, idx
            assert got.den.terms == want.den.terms, idx
            for p in (got.num, got.den):
                assert len(p.terms) == 4
                assert all(type(c) is int for c in p.terms.values()), idx

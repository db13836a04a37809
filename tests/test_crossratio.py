import itertools
import random

import pytest

from edim import crossratio, ratfunc
from edim.crossratio import (MOBIUS, CRSymbol, apply_action, check_rewrite,
                             cr_define, cr_rewrite, generator_symbol,
                             sn_action, verify_faithful)
from edim.errors import AmbientOutOfRange, AmbientTooSmall
from edim.exactfield import fq_context
from edim.ratfunc import QQ, MultiPoly, render

# the six Mobius images of a cross-ratio t, in MOBIUS order; with
# _match_mobius, the search the position table replaced, kept as its oracle
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


def test_position_table_matches_mobius_search():
    ref = CRSymbol(6, (4, 1, 6, 2))
    value = cr_define(ref)
    for perm in itertools.permutations(range(4)):
        moved = tuple(ref.indices[p] for p in perm)
        want = cr_define(CRSymbol(6, moved))
        assert crossratio._POSITIONS[perm] == \
            MOBIUS[_match_mobius(want, value)], perm
        assert crossratio._mobius(ref.indices, moved, value) == want, perm


def test_structure_proves_coprimality(monkeypatch):
    syms = [CRSymbol(n, idx) for n in range(4, 8)
            for idx in itertools.permutations(range(1, n + 1), 4)]
    orbit = [s for s in syms
             if s.n >= 5 and len(set(s.indices) & {1, 2, 3}) == 3]

    def no_gcd(*args, **kwargs):
        raise AssertionError("poly_gcd called")

    with monkeypatch.context() as m:
        m.setattr(ratfunc, "poly_gcd", no_gcd)
        crossratio._rewrite.cache_clear()
        defined = [cr_define(s) for s in syms]
        for s in orbit:
            cr_rewrite(s)
    for d in defined:
        one = MultiPoly.const(QQ, d.vars, 1)
        assert ratfunc.poly_gcd(d.num, d.den) == one, render(d)


def test_check_rewrite_random_sample():
    rng = random.Random(2)
    for n in (5, 6, 7):
        idxs = list(itertools.permutations(range(1, n + 1), 4))
        for idx in rng.sample(idxs, 25):
            assert check_rewrite(CRSymbol(n, idx)), (n, idx)


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
    for n in (5, 6, 7):
        rep = verify_faithful(n)
        assert rep.passed
        assert rep.checked > 0
    with pytest.raises(AmbientOutOfRange):
        verify_faithful(4)
    with pytest.raises(AmbientOutOfRange):
        verify_faithful(8)

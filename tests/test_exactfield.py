import math
import random

import pytest

from edim.errors import NotPrime, TooLarge
from edim.exactfield import (FACTOR_CAP, FqContext, divisors, factorize,
                             fq_context, has_zeta, is_prime,
                             multiplicative_order, order_mod)


def test_is_prime_small():
    primes = {2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47}
    for n in range(-2, 50):
        assert is_prime(n) == (n in primes), n


def test_prime_factors_match_a_sieve():
    # every prime d <= N marks itself on all its multiples
    N = 10 ** 4
    factors = [set() for _ in range(N + 1)]
    for d in range(2, N + 1):
        if not factors[d]:
            for m in range(d, N + 1, d):
                factors[m].add(d)
    for n in range(1, N + 1):
        parts = factorize(n)
        assert [p for p, _ in parts] == sorted(factors[n]), n
        assert math.prod(p ** a for p, a in parts) == n
        assert is_prime(n) == (factors[n] == {n})


def test_divisors_and_orders_match_brute_force():
    for n in range(1, 300):
        assert divisors(n) == [d for d in range(1, n + 1) if n % d == 0]
        for a in range(1, n):
            if math.gcd(a, n) == 1:
                want = next(d for d in range(1, n + 1) if pow(a, d, n) == 1)
                assert order_mod(a, n) == want, (a, n)


def test_factoring_is_capped():
    # every n <= 10^12 factors: its second-largest prime is <= 10^6
    big = 1000000000039  # prime, just above 10^12
    assert FACTOR_CAP ** 2 < big < (FACTOR_CAP + 1) ** 2
    assert factorize(2 * big) == ((2, 1), (big, 1)) and is_prime(big)
    d = order_mod(2, big)  # 2 is a square mod big, so d | (big - 1) / 2
    assert d == (big - 1) // 2 and pow(2, d, big) == 1
    assert all(pow(2, d // p, big) != 1 for p, _ in factorize(d))
    for n in (10 ** 20 + 39, 1000003 * 1000033, (FACTOR_CAP + 3) ** 2):
        with pytest.raises(TooLarge):
            factorize(n)
    assert not is_prime(2 * (10 ** 20 + 39))  # a factor below the cap


def test_context_rejects_composite_characteristic():
    with pytest.raises(NotPrime):
        fq_context(6, 1)


def test_context_caching():
    assert fq_context(5, 2) is fq_context(5, 2)


@pytest.mark.parametrize("p,k", [(2, 1), (2, 3), (3, 2), (5, 1), (7, 2)])
def test_field_axioms_randomized(p, k):
    ctx = fq_context(p, k)
    rng = random.Random(p * 100 + k)
    els = list(ctx.elements())
    assert len(els) == p ** k
    assert len({e.encode() for e in els}) == p ** k
    for _ in range(60):
        a, b, c = (rng.choice(els) for _ in range(3))
        assert a + b == b + a
        assert (a + b) + c == a + (b + c)
        assert a * (b + c) == a * b + a * c
        assert a * ctx.one == a and a + ctx.zero == a
        assert a - a == ctx.zero
        if not b.is_zero():
            assert b * b.inverse() == ctx.one
            assert (a / b) * b == a


def test_frobenius_fixes_prime_subfield():
    ctx = fq_context(3, 3)
    for n in range(3):
        x = ctx.from_int(n)
        assert x ** 3 == x


def test_from_int_is_ring_hom():
    ctx = fq_context(7, 2)
    for a in range(-5, 15):
        for b in range(0, 10):
            assert ctx.from_int(a) + ctx.from_int(b) == ctx.from_int(a + b)
            assert ctx.from_int(a) * ctx.from_int(b) == ctx.from_int(a * b)


def test_orders_divide_group_order():
    for p, k in [(2, 4), (3, 2), (13, 1)]:
        ctx = fq_context(p, k)
        q = p ** k
        orders = {multiplicative_order(x) for x in ctx.elements()
                  if not x.is_zero()}
        assert all((q - 1) % d == 0 for d in orders)
        assert q - 1 in orders  # F_q* is cyclic


def test_multiplicative_order_of_zero_rejected():
    from edim.errors import ZeroElement
    ctx = fq_context(5, 1)
    with pytest.raises(ZeroElement):
        multiplicative_order(ctx.zero)


def test_has_zeta_matches_divisibility():
    # zeta_n exists in F_q exactly when n | q - 1, or n is a p-power times
    # such a divisor collapsing to it; the definitive law: n coprime to p
    # and n | q - 1
    for p, k in [(2, 2), (3, 1), (5, 1), (7, 1)]:
        ctx = fq_context(p, k)
        q = p ** k
        for n in range(1, 20):
            want = n % p != 0 and (q - 1) % n == 0
            assert has_zeta(ctx, n) == want, (p, k, n)


def test_coerce_between_contexts():
    f2 = fq_context(2, 1)
    f4 = fq_context(2, 2)
    x = f2.one
    assert f4.coerce(x) == f4.one
    with pytest.raises(Exception):
        fq_context(3, 1).coerce(f4.gen())

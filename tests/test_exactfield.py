import math
import random
from fractions import Fraction

import pytest

from edim.errors import NotPrime, TooLarge, ZeroElement
from edim.exactfield import (FACTOR_CAP, TABLE_CAP, FqContext, FqElement,
                             _digits, _is_irreducible, _pmod, _pmul, _power,
                             _power_product, _taylor_shift, _term_sum, _trim,
                             divisors, factorize, fq_context, is_prime,
                             order_mod, totient)
from oracles import has_zeta, multiplicative_order


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


def _has_factor(m, p):
    """Whether some monic polynomial of degree 1..deg(m)/2 divides m, by
    trial division against every candidate."""
    k = len(m) - 1
    for d in range(1, k // 2 + 1):
        for code in range(p ** d):
            cand = [code // p ** i % p for i in range(d)] + [1]
            if not _pmod(m, cand, p):
                return True
    return False


def test_moduli_are_the_least_irreducibles():
    for p, kmax in [(2, 9), (3, 6), (5, 4), (7, 3), (11, 3), (13, 2)]:
        for k in range(2, kmax + 1):
            low = list(fq_context(p, k).modulus)
            assert not _has_factor(low + [1], p), (p, k)
            code = sum(c * p ** i for i, c in enumerate(low))
            for smaller in range(code):  # ordered by (c_{k-1}, ..., c_0)
                cand = [smaller // p ** i % p for i in range(k)] + [1]
                assert _has_factor(cand, p), (p, k, smaller)


def test_binomial_skip_finds_the_same_modulus():
    # Rabin's test on every code from 0, binomials X^k + c included, finds
    # the modulus fq_context finds; the grid has p = 1 and 3 mod 4, and k
    # with primes that do and do not divide p - 1
    for p in (n for n in range(2, 44) if is_prime(n)):
        for k in range(2, 7):
            want = next(_digits(idx, p, k) for idx in range(p ** k)
                        if _is_irreducible(_digits(idx, p, k) + [1], p))
            assert list(fq_context(p, k).modulus) == want, (p, k)


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


def test_order_mod_matches_the_enumerating_order():
    for p in (2, 3, 13, 101):
        for x in fq_context(p, 1).elements():
            if not x.is_zero():
                assert order_mod(x.code, p) == multiplicative_order(x)


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


def test_totient_counts_units():
    for n in range(1, 300):
        assert totient(n) == sum(math.gcd(a, n) == 1 for a in range(1, n + 1))


# ---------------------------------------------------------------------------
# the tuple oracle: an element as its coefficient tuple (c_0, ..., c_{k-1}),
# with polynomial products mod the modulus, inverses by extended Euclid and
# powers by repeated squaring from one -- the arithmetic integer codes replaced
# ---------------------------------------------------------------------------

def _psub(a, b, p):
    out = [0] * max(len(a), len(b))
    for i, c in enumerate(a):
        out[i] = c
    for i, c in enumerate(b):
        out[i] = (out[i] - c) % p
    return _trim(out)


def _pdivmod(a, b, p):
    """Quotient and remainder of a by b over F_p (b nonzero)."""
    a = list(a)
    db = len(b) - 1
    inv = pow(b[-1], p - 2, p)
    quo = [0] * max(0, len(a) - db)
    while len(a) - 1 >= db and a:
        c = (a[-1] * inv) % p
        d = len(a) - 1 - db
        if c:
            quo[d] = c
            for i in range(db + 1):
                a[d + i] = (a[d + i] - c * b[i]) % p
        while a and a[-1] == 0:
            a.pop()
    return _trim(quo), _trim(a)


class _TupleOracle:
    def __init__(self, ctx):
        self.p, self.k = ctx.p, ctx.k
        self.m = list(ctx.modulus) + [1]

    def tup(self, x):
        """The coefficient tuple of an element, read from its code."""
        code, out = x.encode(), []
        for _ in range(self.k):
            code, c = divmod(code, self.p)
            out.append(c)
        return tuple(out)

    def code(self, t):
        return sum(c * self.p ** i for i, c in enumerate(t))

    def _pad(self, c):
        return tuple(c) + (0,) * (self.k - len(c))

    def add(self, a, b):
        return tuple((x + y) % self.p for x, y in zip(a, b))

    def neg(self, a):
        return tuple(-x % self.p for x in a)

    def mul(self, a, b):
        return self._pad(_pmod(_pmul(list(a), list(b), self.p), self.m,
                               self.p))

    def inverse(self, a):
        p, m = self.p, self.m
        r0, r1 = m, _trim(list(a))
        s0, s1 = [], [1]
        while r1:
            quo, rem = _pdivmod(r0, r1, p)
            r0, r1 = r1, rem
            s0, s1 = s1, _psub(s0, _pmul(quo, s1, p), p)
        c = pow(r0[0], p - 2, p)  # r0 is the gcd, a nonzero constant
        return self._pad([(x * c) % p for x in _pmod(s0, m, p)])

    def pow(self, a, e):
        if e < 0:
            a, e = self.inverse(a), -e
        result = self._pad([1])
        while e:
            if e & 1:
                result = self.mul(result, a)
            a = self.mul(a, a)
            e >>= 1
        return result


def _check_against_oracle(ctx, pairs, exponents):
    o = _TupleOracle(ctx)
    inv = {}
    for a, b in pairs:
        ta, tb = o.tup(a), o.tup(b)
        assert (a + b).encode() == o.code(o.add(ta, tb)), (a, b)
        assert (a - b).encode() == o.code(o.add(ta, o.neg(tb))), (a, b)
        assert (a * b).encode() == o.code(o.mul(ta, tb)), (a, b)
        assert (a == b) == (ta == tb) and (hash(a) == hash(b)) == (ta == tb)
        if not b.is_zero():
            if tb not in inv:
                inv[tb] = o.inverse(tb)
                assert b.inverse().encode() == o.code(inv[tb]), b
            assert (a / b).encode() == o.code(o.mul(ta, inv[tb])), (a, b)
    for a in {a for a, _ in pairs}:
        for e in exponents:
            if e < 0 and a.is_zero():
                with pytest.raises(ZeroElement):
                    a ** e
            else:
                assert (a ** e).encode() == o.code(o.pow(o.tup(a), e)), (a, e)


@pytest.mark.parametrize("p,k", [(2, 1), (7, 1), (2, 2), (2, 3), (3, 2),
                                 (2, 4), (5, 2), (3, 3), (7, 2)])
def test_every_pair_matches_the_tuple_oracle(p, k):
    ctx = fq_context(p, k)
    els = list(ctx.elements())
    q = ctx.q
    exponents = (-q - 1, -2, -1, 0, 1, 2, 3, q - 2, q - 1, q, 2 * q + 3)
    _check_against_oracle(ctx, [(a, b) for a in els for b in els], exponents)


@pytest.mark.parametrize("p,k", [(1009, 2), (2, 11), (3, 7), (10007, 1)])
def test_sampled_pairs_above_the_table_cap_match_the_tuple_oracle(p, k):
    ctx = fq_context(p, k)
    rng = random.Random(p * 100 + k)
    codes = [0, 1, p - 1, ctx.q - 1] + [rng.randrange(ctx.q)
                                        for _ in range(40)]
    els = [FqElement(ctx, c) for c in codes]
    pairs = [(a, b) for a in els[:12] for b in els] + [
        (rng.choice(els), rng.choice(els)) for _ in range(100)]
    _check_against_oracle(ctx, pairs, (-5, -1, 0, 1, 2, 3, 17, ctx.q - 1,
                                       rng.randrange(ctx.q)))


def test_inverses_above_the_table_cap_are_fermat_powers():
    # the extended-Euclid inverse against a^(q-2)
    for p, k in ((999999999989, 2), (1031, 3), (2, 11), (3, 7)):
        ctx = fq_context(p, k)
        rng = random.Random(p + k)
        for a in [1, ctx.q - 1] + [rng.randrange(1, ctx.q) for _ in range(30)]:
            assert ctx.inv(a) == _power(ctx.mul, a, ctx.q - 2), (p, k, a)


def test_zero_powers_and_inverses():
    for p, k in [(5, 1), (2, 3), (3, 2), (1009, 2)]:
        ctx = fq_context(p, k)
        assert ctx.zero ** 0 == ctx.one
        assert ctx.zero ** 3 == ctx.zero
        with pytest.raises(ZeroElement):
            ctx.zero.inverse()
        with pytest.raises(ZeroElement):
            ctx.one / ctx.zero


def test_prime_field_inverses_are_fermat_powers():
    # pow(a, -1, p) against a^(p-2), for the closure, for FqElement and for
    # a Fraction's denominator; zero still has no inverse
    for p in (2, 3, 101, 999999999989):
        ctx = fq_context(p, 1)
        rng = random.Random(p)
        for a in [1, p - 1] + [rng.randrange(1, p) for _ in range(30)]:
            want = pow(a, p - 2, p)
            assert ctx.inv(a) == FqElement(ctx, a).inverse().code == want
            assert ctx.coerce(Fraction(1, a + p)).code == want, (p, a)
        with pytest.raises(ZeroElement):
            FqElement(ctx, 0).inverse()
        with pytest.raises(ZeroDivisionError):
            ctx.coerce(Fraction(1, p))


def test_prime_field_elements_promote_by_code():
    for p in (2, 3, 5, 1009):
        fp, fq = fq_context(p, 1), fq_context(p, 2)
        rng = random.Random(p)
        for _ in range(30):
            a = fp.from_int(rng.randrange(p))
            b = FqElement(fq, rng.randrange(fq.q))
            up = fq.coerce(a)
            assert up.encode() == a.encode() and up.ctx is fq
            for got, want in ((a + b, up + b), (b + a, b + up),
                              (a - b, up - b), (b - a, b - up),
                              (a * b, up * b), (b * a, b * up)):
                assert got.ctx is fq and got == want
            if not a.is_zero():
                assert b / a == b / up and (a / a).ctx is fp


def test_equal_contexts_built_separately_agree():
    for p, k in [(7, 1), (2, 3), (5, 2), (2, 11)]:
        ctx = fq_context(p, k)
        twin = FqContext(p, k, ctx.modulus)
        rng = random.Random(p + k)
        for _ in range(50):
            x, y = rng.randrange(ctx.q), rng.randrange(ctx.q)
            a, b = FqElement(ctx, x), FqElement(twin, y)
            c = FqElement(twin, x)
            assert c == a and hash(c) == hash(a)
            assert b * a == FqElement(ctx, y) * a and a + b == b + a
            assert twin.coerce(a).encode() == x


def test_operations_are_installed_on_first_arithmetic():
    assert 2 ** 10 <= TABLE_CAP < 2 ** 11  # tables for F_1024, none for F_2048
    for p, k in [(7, 1), (3, 2), (2, 10), (2, 11)]:
        ctx = FqContext(p, k, fq_context(p, k).modulus)
        assert {"add", "mul", "inv"}.isdisjoint(vars(ctx))
        x = ctx.gen()
        assert x * x == fq_context(p, k).gen() ** 2
        assert {"add", "sub", "neg", "mul", "inv", "pow", "term_sum",
                "power_product", "taylor_shift"} <= set(vars(ctx))


def test_whole_sum_kernels_match_their_one_operation_forms():
    # each kernel returns the codes that the same sums, products and
    # Taylor shifts give one closure call at a time: over F_p the kernels
    # compute in plain ints, so this checks their reduction; the other kinds
    # run the closures inside the same kernels.  The shift is also checked
    # against its binomial form, sum_i C(i, k) s^(i-k) u_i at X^k
    rng = random.Random(39)
    for p, k in [(2, 1), (101, 1), (999999999989, 1), (5, 2), (2, 11)]:
        ctx = fq_context(p, k)
        add, mul, pow_, inv = ctx.add, ctx.mul, ctx.pow, ctx.inv

        def codes(count, low=0):
            return [rng.randrange(low, ctx.q) for _ in range(count)]
        for _ in range(30):
            sums = [tuple((c, tuple((i, rng.randrange(1, 5)) for i in
                                    rng.sample(range(4), rng.randrange(4))))
                          for c in codes(rng.randrange(5)))
                    for _ in range(3)]
            point = {(i, 1): x for i, x in enumerate(codes(4))}
            assert ctx.term_sum(sums, dict(point)) == \
                _term_sum(add, mul, pow_, sums, dict(point))
            values = codes(5, 1) + [0]
            products = [tuple((rng.randrange(5), rng.choice((-3, -1, 1, 2)))
                              for _ in range(rng.randrange(4)))
                        + ((5, 1),) * rng.randrange(2) for _ in range(4)]
            assert ctx.power_product(values, products) == \
                _power_product(mul, pow_, inv, values, products)
            u, s = codes(rng.randrange(1, 9)), rng.randrange(ctx.q)
            binomial = [0] * len(u)
            for i, x in enumerate(u):
                for j in range(i + 1):
                    term = mul(math.comb(i, j) % p, mul(pow_(s, i - j), x))
                    binomial[j] = add(binomial[j], term)
            assert ctx.taylor_shift(u, s) == _taylor_shift(add, mul, u, s) \
                == binomial, (p, k, u, s)

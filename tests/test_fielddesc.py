import math

import pytest

from edim.errors import CharZero, InconsistentCustom
from edim.exactfield import fq_context
from oracles import has_zeta
from edim.fielddesc import (INF, NO, UNKNOWN, YES, Custom, Cyclotomic,
                            FiniteField, RationalField, finite_field_from_q)

Q = RationalField()


def test_rationals():
    assert Q.char() == 0
    assert Q.contains_zeta(1) is YES
    assert Q.contains_zeta(2) is YES
    for n in (3, 4, 5, 7, 8):
        assert Q.contains_zeta(n) is NO
    # real zeta_n (= zeta_n + zeta_n^{-1}) lies in Q only for n <= 4 and n=6
    for n in (1, 2, 3, 4, 6):
        assert Q.contains_real_zeta(n) is YES
    for n in (5, 7, 8, 9):
        assert Q.contains_real_zeta(n) is NO
    with pytest.raises(CharZero):
        Q.fp_dimension()


def test_cyclotomic():
    k = Cyclotomic(5)
    assert k.contains_zeta(5) is YES
    assert k.contains_zeta(10) is YES  # -zeta_5 has order 10
    assert k.contains_zeta(3) is NO
    assert k.contains_real_zeta(5) is YES
    assert Cyclotomic(8).contains_zeta(4) is YES
    assert Cyclotomic(3).contains_real_zeta(5) is NO


def _real_zeta_by_scan(m, n):
    """zeta_n + zeta_n^-1 lies in Q(zeta_m) iff every a mod N = lcm(n, 2m)
    prime to N with a = 1 mod lcm(2, m) is +-1 mod n (Galois descent)."""
    N, fix = math.lcm(n, 2 * m), math.lcm(2, m)
    return all(a % n in (1 % n, (n - 1) % n)
               for a in range(1, N + 1, fix) if math.gcd(a, N) == 1)


def test_cyclotomic_real_zeta_matches_the_galois_scan():
    for m in range(1, 61):
        k = Cyclotomic(m)
        for n in range(1, 121):
            if n not in (1, 2, 3, 4, 6):
                want = YES if _real_zeta_by_scan(m, n) else NO
                assert k.contains_real_zeta(n) is want, (m, n)


def test_cyclotomic_extend():
    k = Cyclotomic(3).extend_with_zeta(5)
    assert k.contains_zeta(15) is YES


def test_finite_field_matches_exact_computation():
    for q in (2, 3, 4, 5, 8, 9, 25):
        fd = finite_field_from_q(q)
        ctx = fq_context(fd.p, fd.k)
        for n in range(1, 25):
            want = YES if has_zeta(ctx, n) else NO
            assert fd.contains_zeta(n) is want, (q, n)


def test_finite_field_real_zeta():
    # zeta_5 + zeta_5^{-1} lives in F_4 (zeta_5 is in F_16, invariant
    # under x -> x^4)
    assert FiniteField(2, 2).contains_real_zeta(5) is YES
    assert FiniteField(2, 1).contains_real_zeta(5) is NO
    # q must be +-1 mod n: 9 = -1 mod 5, 3 is neither
    assert FiniteField(3, 2).contains_real_zeta(5) is YES
    assert FiniteField(3, 1).contains_real_zeta(5) is NO


def test_finite_field_extend_with_zeta():
    fd = FiniteField(2, 1).extend_with_zeta(3)
    assert (fd.p, fd.k) == (2, 2)
    from edim.errors import CharDividesM
    with pytest.raises(CharDividesM):
        FiniteField(3, 1).extend_with_zeta(3)


def test_fp_dimension():
    assert FiniteField(2, 3).fp_dimension() == 3


def test_finite_field_from_q_rejects_non_prime_power():
    with pytest.raises(Exception):
        finite_field_from_q(6)
    with pytest.raises(Exception):
        finite_field_from_q(1)


def test_custom_descriptor_three_valued():
    fd = Custom(characteristic=0, zeta_yes=(5,), zeta_no=(7,),
                real_zeta_yes=(5,))
    assert fd.contains_zeta(5) is YES
    # multiples of asserted indices stay conservative
    assert fd.contains_zeta(10) is UNKNOWN
    # zeta_yes must be accompanied by the real part it implies
    with pytest.raises(InconsistentCustom):
        Custom(characteristic=0, zeta_yes=(5,))
    assert fd.contains_zeta(7) is NO
    assert fd.contains_zeta(11) is UNKNOWN
    # closure: zeta_5 present forces real zeta_5 present
    assert fd.contains_real_zeta(5) is YES


def test_custom_descriptor_consistency_checked():
    with pytest.raises(InconsistentCustom):
        Custom(characteristic=0, zeta_yes=(5,), zeta_no=(5,))
    with pytest.raises(InconsistentCustom):
        # char 3 cannot contain a primitive 3rd root of unity
        Custom(characteristic=3, zeta_yes=(3,), fp_dim=1)


def test_custom_fp_dim():
    fd = Custom(characteristic=2, fp_dim=3)
    assert fd.fp_dimension() == 3
    inf = Custom(characteristic=2, fp_dim=INF)
    assert inf.fp_dimension() is INF
    # fp_dim alone does not settle root-of-unity membership
    assert inf.contains_zeta(9) is UNKNOWN


def test_describe_round_trips_through_kind():
    for fd in (Q, Cyclotomic(7), FiniteField(5, 2),
               Custom(characteristic=0, zeta_yes=(3,))):
        assert isinstance(fd.describe(), str) and fd.describe()

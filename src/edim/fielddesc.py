"""Decidable descriptors of the ground field K.

A descriptor answers the three questions the bound engine asks about K:
its characteristic, whether ζ_n ∈ K, whether ζ_n + ζ_n^{-1} ∈ K, and (in
positive characteristic) the dimension [K : F_p].  Answers are three-valued:
``Unknown`` soundly blocks an inference instead of guessing.
"""

from __future__ import annotations

import enum
import math
import sys

from .errors import (CharDividesM, CharZero, InconsistentCustom, NotPrime,
                     TooLarge)
from .exactfield import divisors, factorize, is_prime, order_mod, totient
from .record import Record

INF = math.inf


class TriBool(enum.Enum):
    YES = "Yes"
    NO = "No"
    UNKNOWN = "Unknown"

    def __bool__(self):
        raise TypeError("TriBool is not implicitly boolean; compare explicitly")

    def __str__(self):
        return self.value


YES, NO, UNKNOWN = TriBool.YES, TriBool.NO, TriBool.UNKNOWN


class FieldDescriptor(Record, interned=True):
    """Base class; use the concrete constructors below.  Each answers
    ``char()``, ``contains_zeta(n)``, ``contains_real_zeta(n)``,
    ``fp_dimension()`` and ``extend_with_zeta(m)``.  ``describe()`` (and
    ``str``) writes the grammar ``cli.parse_field`` reads back: ``Q``,
    ``Qzeta(m)``, ``F(q)``, ``custom{...}``."""

    __slots__ = ()

    def fp_dimension(self):
        raise CharZero("field has characteristic 0")

    # shared preambles ------------------------------------------------------

    def _zeta_universal(self, n):
        """Facts true for every field of this characteristic, else None."""
        p = self.char()
        if p > 0 and n % p == 0:
            return NO  # no element of order divisible by char
        if n == 1:
            return YES
        if n == 2:
            return YES if p != 2 else NO
        return None

    def _real_zeta_universal(self, n):
        p = self.char()
        if p > 0 and n % p == 0:
            return NO
        # zeta_n + zeta_n^{-1} is -1, 0, 1 for n = 3, 4, 6: prime-field values
        if n in (1, 2, 3, 4, 6):
            return YES
        return None


class Cyclotomic(FieldDescriptor):
    __slots__ = ("m",)

    def __post_init__(self):
        if self.m < 1:
            raise ValueError("cyclotomic index must be positive")

    def char(self):
        return 0

    def contains_zeta(self, n):
        return YES if math.lcm(2, self.m) % n == 0 else NO

    def contains_real_zeta(self, n):
        base = self._real_zeta_universal(n)
        if base is not None:
            return base
        # Galois descent: Gal(K(zeta_n)/K), K = Q(zeta_m), acts on zeta_n as
        # the units a = 1 mod g, g = gcd(n, lcm(2, m)), a group of order
        # phi(n)/phi(g).  It fixes zeta_n + zeta_n^{-1} exactly when it lies
        # in {1, -1}: it is trivial, or it has order 2 and -1 = 1 mod g.
        g = math.gcd(n, math.lcm(2, self.m))
        ratio = totient(n) // totient(g)
        return YES if ratio == 1 or ratio == 2 and g <= 2 else NO

    def extend_with_zeta(self, m):
        if self.contains_zeta(m) is YES:
            return self
        return Cyclotomic(math.lcm(self.m, m))

    def describe(self):
        return "Qzeta(%d)" % self.m

    __str__ = describe


class RationalField(Cyclotomic):
    """Q, which is Q(zeta_1): every question is answered as for Cyclotomic(1).
    The two are distinct records, as interning keeps one per exact class."""

    __slots__ = ()

    def __init__(self):
        object.__setattr__(self, "m", 1)

    def __repr__(self):
        return "RationalField()"

    def describe(self):
        return "Q"

    __str__ = describe


class FiniteField(FieldDescriptor):
    __slots__ = ("p", "k")

    def __post_init__(self):
        if not is_prime(self.p):
            raise NotPrime("%d is not prime" % self.p)
        if self.k < 1:
            raise ValueError("extension degree must be positive")

    @property
    def q(self):
        return self.p ** self.k

    def char(self):
        return self.p

    def contains_zeta(self, n):
        return YES if (self.q - 1) % n == 0 else NO

    def contains_real_zeta(self, n):
        base = self._real_zeta_universal(n)
        if base is not None:
            return base
        return YES if self.q % n in (1 % n, (n - 1) % n) else NO

    def fp_dimension(self):
        return self.k

    def extend_with_zeta(self, m):
        if math.gcd(m, self.p) != 1:
            raise CharDividesM("char %d divides %d" % (self.p, m))
        if self.contains_zeta(m) is YES:
            return self
        d = order_mod(pow(self.p, self.k, m), m)
        return FiniteField(self.p, self.k * d)

    def describe(self):
        limit = sys.get_int_max_str_digits()
        if limit and self.k * math.log10(self.p) >= limit:
            raise TooLarge("F(q) has a q of more than %d digits" % limit)
        return "F(%d)" % self.q

    __str__ = describe


class Custom(FieldDescriptor):
    # fp_dim: a positive int or math.inf; None when char = 0
    __slots__ = ("characteristic", "zeta_yes", "zeta_no", "real_zeta_yes",
                 "real_zeta_no", "fp_dim")
    _defaults = {"characteristic": 0, "zeta_yes": frozenset(),
                 "zeta_no": frozenset(), "real_zeta_yes": frozenset(),
                 "real_zeta_no": frozenset(), "fp_dim": None}

    def __post_init__(self):
        p = self.characteristic
        if p != 0 and not is_prime(p):
            raise NotPrime("characteristic must be 0 or prime")
        for name in ("zeta_yes", "zeta_no", "real_zeta_yes", "real_zeta_no"):
            s = frozenset(getattr(self, name))
            object.__setattr__(self, name, s)
            if any(n < 1 for n in s):
                raise InconsistentCustom("non-positive index in %s" % name)
            if p > 0 and any(n % p == 0 for n in s):
                raise InconsistentCustom("index divisible by char in %s" % name)
        if self.zeta_yes & self.zeta_no or self.real_zeta_yes & self.real_zeta_no:
            raise InconsistentCustom("yes/no sets overlap")
        for n in self.zeta_yes:
            for d in divisors(n):
                if d not in self.zeta_yes and self._zeta_universal(d) is None:
                    raise InconsistentCustom(
                        "zeta_yes not divisor-closed: %d in, %d out" % (n, d))
            if n not in self.real_zeta_yes and self._real_zeta_universal(n) is None:
                raise InconsistentCustom(
                    "zeta_%d asserted without zeta_%d + inverse" % (n, n))
        for n in self.real_zeta_yes:
            for d in divisors(n):
                if d not in self.real_zeta_yes and self._real_zeta_universal(d) is None:
                    raise InconsistentCustom(
                        "real_zeta_yes not divisor-closed: %d in, %d out" % (n, d))
        if self._conflicts():
            raise InconsistentCustom("yes facts imply a member of a no set")
        if p > 0:
            if self.fp_dim is None:
                raise InconsistentCustom("fp_dim required when char > 0")
            if self.fp_dim is not INF and (not isinstance(self.fp_dim, int)
                                           or self.fp_dim < 1):
                raise InconsistentCustom("fp_dim must be a positive int or inf")
        elif self.fp_dim is not None:
            raise InconsistentCustom("fp_dim is meaningless in characteristic 0")

    def _conflicts(self):
        for n in self.zeta_no:
            if any(m % n == 0 for m in self.zeta_yes):
                return True
            if self._zeta_universal(n) is YES:
                return True
        for n in self.real_zeta_no:
            if any(m % n == 0 for m in self.real_zeta_yes):
                return True
            if any(m % n == 0 for m in self.zeta_yes):
                return True
            if self._real_zeta_universal(n) is YES:
                return True
        return False

    def char(self):
        return self.characteristic

    def contains_zeta(self, n):
        base = self._zeta_universal(n)
        if base is not None:
            return base
        if any(m % n == 0 for m in self.zeta_yes):
            return YES
        if any(n % d == 0 for d in self.zeta_no):
            return NO
        return UNKNOWN

    def contains_real_zeta(self, n):
        base = self._real_zeta_universal(n)
        if base is not None:
            return base
        if any(m % n == 0 for m in self.real_zeta_yes | self.zeta_yes):
            return YES
        if any(n % d == 0 for d in self.real_zeta_no):
            return NO
        return UNKNOWN

    def fp_dimension(self):
        if self.characteristic == 0:
            raise CharZero("field has characteristic 0")
        return self.fp_dim

    def extend_with_zeta(self, m):
        p = self.characteristic
        if p > 0 and math.gcd(m, p) != 1:
            raise CharDividesM("char %d divides %d" % (p, m))
        if self.contains_zeta(m) is YES:
            return self
        new_zy = set(self.zeta_yes)
        new_ry = set(self.real_zeta_yes)
        for d in divisors(m):
            if self._zeta_universal(d) is None:
                new_zy.add(d)
            if self._real_zeta_universal(d) is None:
                new_ry.add(d)
        new_zn = {n for n in self.zeta_no if not any(x % n == 0 for x in new_zy)}
        new_rn = {n for n in self.real_zeta_no
                  if not any(x % n == 0 for x in new_ry | new_zy)}
        dim = self.fp_dim
        if p > 0 and dim is not INF:
            # a field of finite dimension s over F_p is F_{p^s}
            dim = dim * order_mod(pow(p, dim, m), m)
        return Custom(p, frozenset(new_zy), frozenset(new_zn),
                      frozenset(new_ry), frozenset(new_rn), dim)

    def describe(self):
        bits = ["char=%d" % self.characteristic]
        for name, s in (("zeta_yes", self.zeta_yes), ("zeta_no", self.zeta_no),
                        ("real_zeta_yes", self.real_zeta_yes),
                        ("real_zeta_no", self.real_zeta_no)):
            if s:
                bits.append("%s=[%s]" % (name, ",".join(map(str, sorted(s)))))
        if self.fp_dim is not None:
            bits.append("fp_dim=%s" % ("inf" if self.fp_dim is INF else self.fp_dim))
        return "custom{%s}" % ", ".join(bits)

    __str__ = describe


def char_of(fd):
    return fd.char()


def contains_zeta(fd, n):
    return fd.contains_zeta(n)


def contains_real_zeta(fd, n):
    return fd.contains_real_zeta(n)


def fp_dimension(fd):
    return fd.fp_dimension()


def extend_with_zeta(fd, m):
    return fd.extend_with_zeta(m)


def finite_field_from_q(q):
    """Factor a prime power q into FiniteField(p, k)."""
    parts = factorize(q) if q > 1 else ()
    if len(parts) != 1:
        raise NotPrime("not a prime power")
    return FiniteField(*parts[0])

import random

import pytest

from edim import ratfunc, tschirnhaus, unipoly
from edim.errors import PoleAtAssignment, PoleAtPoint, Unsupported
from edim.exactfield import fq_context
from edim.ratfunc import QQ, RatFn, render
from edim.tschirnhaus import (GeneralPoly, InvertRoot, PowerProduct,
                              ScaleRoots, Shift, TransformRecord,
                              _specialize_coeffs, general_poly,
                              parameter_count, reduce_general,
                              verify_specialization)

# criterion 8's (degree, characteristic) pairs
PAIRS = [(2, 0), (3, 0), (4, 0), (5, 0), (6, 0), (7, 0),
         (2, 2), (3, 3), (3, 2), (4, 3), (5, 2), (5, 3),
         (6, 5), (7, 2), (7, 3)]


def _verify_by_roots(f, h, record, assignment, ctx):
    """The root-based oracle: factor f over F_q, push every conjugate root of
    every irreducible factor through the record inside F_q[X]/(factor), and
    compare the product of (X - image) with h."""
    values = dict(assignment)
    f_spec = _specialize_coeffs(f, values, ctx)
    h_spec = _specialize_coeffs(h, values, ctx)
    lam_values = []
    for step in record.steps:
        if step.lam is None:
            lam_values.append(None)
            continue
        try:
            lv = ctx.coerce(step.lam.evaluate(values))
        except (PoleAtPoint, ZeroDivisionError):
            raise PoleAtAssignment("step parameter has a pole at the assignment")
        if isinstance(step, ScaleRoots) and lv.is_zero():
            raise PoleAtAssignment("scaling parameter vanishes at the assignment")
        lam_values.append(lv)
    fpoly = list(reversed([ctx.one] + f_spec))  # low-to-high
    hpoly = list(reversed([ctx.one] + h_spec))
    mapped = [ctx.one]
    for p, mult in unipoly.factor_monic(fpoly, ctx):
        ext = unipoly.ExtField(ctx, p)
        r = ext.gen()
        charpoly = [ext.one]
        for _ in range(len(p) - 1):
            im = r
            for step, lv in zip(record.steps, lam_values):
                if isinstance(step, Shift):
                    im = im - ext.from_base(lv)
                elif isinstance(step, ScaleRoots):
                    im = im / ext.from_base(lv)
                elif im.is_zero():
                    raise PoleAtAssignment("root hits zero before inversion")
                else:
                    im = im.inverse()
            charpoly = unipoly.mul(charpoly, [-im, ext.one], ext.zero)
            r = r ** ctx.q
        base_poly = []
        for cf in charpoly:
            assert all(x.is_zero() for x in cf.coeffs[1:])
            base_poly.append(cf.coeffs[0])
        for _ in range(mult):
            mapped = unipoly.mul(mapped, base_poly, ctx.zero)
    return mapped == hpoly


def _outcome(check, *args):
    try:
        return check(*args)
    except PoleAtAssignment:
        return "pole"


def test_general_poly_shape():
    f = general_poly(5, 0)
    assert f.n == 5 and f.char == 0
    assert parameter_count(f) == 5
    assert f.coefficient(3).render() == "t3"


def test_reduce_kills_subleading_coefficient():
    for n, char in [(4, 0), (5, 0), (5, 2), (7, 3)]:
        h, record = reduce_general(n, char)
        assert h.coefficient(1).is_zero(), (n, char)


def test_reduce_normalizes_a_coefficient():
    # after rescaling some later coefficient is constant, cutting the count
    # to n - 2
    for n in (4, 5, 6, 7):
        h, _ = reduce_general(n, 0)
        assert parameter_count(h) == n - 2


def test_quadratic_and_cubic_reduce_to_one_parameter():
    for n, char in [(2, 0), (3, 0), (2, 3), (3, 2)]:
        h, _ = reduce_general(n, char)
        assert parameter_count(h) == 1, (n, char)


def test_wild_cases():
    h2, rec2 = reduce_general(2, 2)
    assert parameter_count(h2) == 1
    h3, rec3 = reduce_general(3, 3)
    assert parameter_count(h3) == 1
    with pytest.raises(Unsupported):
        reduce_general(4, 2)
    with pytest.raises(Unsupported):
        reduce_general(6, 3)
    with pytest.raises(Unsupported):
        reduce_general(1, 0)


def test_record_steps_are_transformations():
    _, record = reduce_general(5, 0)
    for step in record.steps:
        assert isinstance(step, (Shift, ScaleRoots, InvertRoot))
        assert step.kind() in ("Shift", "ScaleRoots", "InvertRoot")


def test_specialization_oracle_accepts():
    rng = random.Random(17)
    for n, char in [(4, 0), (5, 0), (5, 3), (3, 2)]:
        f = general_poly(n, char)
        h, record = reduce_general(n, char)
        ctx = fq_context(101 if char == 0 else char, 1 if char == 0 else 2)
        els = list(ctx.elements())
        done = 0
        while done < 10:
            assignment = {"t%d" % (i + 1): rng.choice(els) for i in range(n)}
            try:
                assert verify_specialization(f, h, record, assignment, ctx)
            except PoleAtAssignment:
                continue
            done += 1


def test_specialization_oracle_rejects_tampering():
    rng = random.Random(23)
    n = 4
    f = general_poly(n, 0)
    h, record = reduce_general(n, 0)
    # tamper: swap the reduced polynomial for the wrong degree-4 reduction
    wrong = GeneralPoly(n, 0, (h.coeffs[1], h.coeffs[0]) + h.coeffs[2:])
    ctx = fq_context(101, 1)
    els = list(ctx.elements())
    rejected = 0
    for _ in range(20):
        assignment = {"t%d" % (i + 1): rng.choice(els) for i in range(n)}
        try:
            if not verify_specialization(f, wrong, record, assignment, ctx):
                rejected += 1
        except PoleAtAssignment:
            continue
    assert rejected > 0


def test_oracle_agreement_on_criterion_8_pairs():
    # genuine h, h with its coefficients rotated, and h := f; outcome is
    # True, False or "pole" and must be the same under both checks
    rng = random.Random(8)
    seen = set()
    for n, char in PAIRS:
        f = general_poly(n, char)
        h, record = reduce_general(n, char)
        rotated = GeneralPoly(n, char, h.coeffs[1:] + h.coeffs[:1])
        for target in (h, rotated, f):
            for _ in range(6):
                ctx = fq_context(101, 1) if char == 0 else \
                    fq_context(char, rng.choice([1, 1, 2]))
                els = list(ctx.elements())
                assignment = {"t%d" % (i + 1): rng.choice(els)
                              for i in range(n)}
                args = (f, target, record, assignment, ctx)
                got = _outcome(verify_specialization, *args)
                assert got == _outcome(_verify_by_roots, *args), \
                    (n, char, target is h, assignment)
                seen.add(got)
    assert seen == {True, False, "pole"}


def test_mobius_check_finds_roots_sent_to_infinity():
    # X^2 + t1 X + t2 with t2 = 0 has the root 0, which InvertRoot sends
    # to infinity; the oracle reports the same point as a pole
    f = general_poly(2, 0)
    record = TransformRecord((InvertRoot(),))
    ctx = fq_context(101, 1)
    assignment = {"t1": ctx.from_int(3), "t2": ctx.zero}
    for check in (verify_specialization, _verify_by_roots):
        with pytest.raises(PoleAtAssignment):
            check(f, f, record, assignment, ctx)


def test_every_pole_message_says_pole():
    # callers skip a draw on PoleAtAssignment, and some match on the word
    f = general_poly(2, 0)
    vs = ("t1", "t2")
    t1 = RatFn.var(QQ, vs, "t1")
    inv_t1 = RatFn.const(QQ, vs, QQ.one) / t1
    ctx = fq_context(101, 1)
    at_zero = {"t1": ctx.zero, "t2": ctx.one}
    cases = [
        (GeneralPoly(2, 0, (PowerProduct.of(inv_t1), f.coeffs[1])),
         TransformRecord(()), at_zero),
        (f, TransformRecord((Shift(inv_t1),)), at_zero),
        (f, TransformRecord((ScaleRoots(t1),)), at_zero),
        (f, TransformRecord((InvertRoot(),)), {"t1": ctx.one, "t2": ctx.zero}),
    ]
    messages = set()
    for h, record, assignment in cases:
        with pytest.raises(PoleAtAssignment) as exc:
            verify_specialization(f, h, record, assignment, ctx)
        messages.add(str(exc.value))
    assert len(messages) == 4
    assert all("pole" in m.lower() for m in messages), messages


def test_large_degree_verifies_without_a_cap():
    # degrees whose splitting fields exceed any fixed cap: f's factors over
    # F_q may have any degree pattern, and the check never factors f
    for n, char, ctx in ((9, 2, fq_context(2, 1)),
                         (16, 0, fq_context(101, 1))):
        f = general_poly(n, char)
        h, record = reduce_general(n, char)
        rng = random.Random(n)
        els = list(ctx.elements())
        outcomes = set()
        for _ in range(12):
            assignment = {"t%d" % (i + 1): rng.choice(els) for i in range(n)}
            outcomes.add(_outcome(verify_specialization, f, h, record,
                                  assignment, ctx))
        assert True in outcomes and outcomes <= {True, "pole"}, (n, outcomes)


def _rendered(n, char):
    h, record = reduce_general(n, char)
    return ([c.render() for c in h.coeffs],
            [(s.kind(), None if s.lam is None else render(s.lam))
             for s in record.steps])


def _rescaled(lam, bodies):
    """Coefficients 0, lam^-j * body_j, with the last two tied."""
    coeffs = ["0"] + ["(%s)^-%d * %s" % (lam, j, body)
                      for j, body in enumerate(bodies, 2)]
    return coeffs + coeffs[-1:]


def test_rendered_reductions_are_pinned():
    # as `edim tschirnhaus reduce` prints them: the wild cubic, and two
    # pairs whose depressed coefficients are reduced mod p
    w = "(t1^3 * t3 + 2 * t1^2 * t2^2 + t2^3) * (t1^3)^-1"
    c33 = "(%s)^-1 * (1 * t1^-1)^-2 * t1" % w
    assert _rendered(3, 3) == (
        ["0", c33, c33],
        [("Shift", "t2 * t1^-1"), ("InvertRoot", None),
         ("ScaleRoots", "1 * t1^-1")])
    lam = ("(4 * t1^4 * t2 + t1^3 * t3 + 4 * t1^2 * t4 + t1 * t5 + 4 * t6)"
           " * (t1^5 + 4 * t1^3 * t2 + 2 * t1^2 * t3 + 2 * t1 * t4"
           " + 4 * t5)^-1")
    assert _rendered(6, 5) == (
        _rescaled(lam, ["t2", "(t1 * t2 + t3)",
                        "(t1^2 * t2 + 2 * t1 * t3 + t4)",
                        "(4 * t1^5 + t1^3 * t2 + 3 * t1^2 * t3"
                        " + 3 * t1 * t4 + t5)"]),
        [("Shift", "4 * t1"), ("ScaleRoots", lam)])
    an1 = "(t1^6 + 2 * t1^4 * t2 + 2 * t1^3 * t3 + t1 * t5 + t6)"
    lam = ("(2 * t1^5 * t2 + t1^4 * t3 + 2 * t1^3 * t4 + t1^2 * t5"
           " + 2 * t1 * t6 + t7) * %s^-1" % an1)
    assert _rendered(7, 3) == (
        _rescaled(lam, ["t2", "(t1^3 + t1 * t2 + t3)",
                        "(t1^2 * t2 + 2 * t1 * t3 + t4)",
                        "(2 * t1^3 * t2 + t5)", an1]),
        [("Shift", "2 * t1"), ("ScaleRoots", lam)])


def test_rendered_char0_reductions_are_pinned():
    # over Q the depression brings in denominators; each coefficient renders
    # as a reduced fraction, or as a bare integer when it is integral
    lam = ("(-4/75 * t1^5 + 1/3 * t1^3 * t2 - 5/3 * t1^2 * t3"
           " + 25/3 * t1 * t4 - 125/3 * t5) * (t1^4 - 5 * t1^2 * t2"
           " + 50/3 * t1 * t3 - 125/3 * t4)^-1")
    assert _rendered(5, 0) == (
        _rescaled(lam, ["(-2/5 * t1^2 + t2)",
                        "(4/25 * t1^3 - 3/5 * t1 * t2 + t3)",
                        "(-3/125 * t1^4 + 3/25 * t1^2 * t2 - 2/5 * t1 * t3"
                        " + t4)"]),
        [("Shift", "-1/5 * t1"), ("ScaleRoots", lam)])
    lam = ("(-6/245 * t1^7 + 1/5 * t1^5 * t2 - 7/5 * t1^4 * t3"
           " + 49/5 * t1^3 * t4 - 343/5 * t1^2 * t5 + 2401/5 * t1 * t6"
           " - 16807/5 * t7) * (t1^6 - 7 * t1^4 * t2 + 196/5 * t1^3 * t3"
           " - 1029/5 * t1^2 * t4 + 4802/5 * t1 * t5 - 16807/5 * t6)^-1")
    assert _rendered(7, 0) == (
        _rescaled(lam, ["(-3/7 * t1^2 + t2)",
                        "(10/49 * t1^3 - 5/7 * t1 * t2 + t3)",
                        "(-15/343 * t1^4 + 10/49 * t1^2 * t2 - 4/7 * t1 * t3"
                        " + t4)",
                        "(12/2401 * t1^5 - 10/343 * t1^3 * t2"
                        " + 6/49 * t1^2 * t3 - 3/7 * t1 * t4 + t5)",
                        "(-5/16807 * t1^6 + 5/2401 * t1^4 * t2"
                        " - 4/343 * t1^3 * t3 + 3/49 * t1^2 * t4"
                        " - 2/7 * t1 * t5 + t6)"]),
        [("Shift", "-1/7 * t1"), ("ScaleRoots", lam)])


def test_structure_decides_every_reduction_gcd(monkeypatch):
    # the shift reduces over a constant or monomial denominator, and the
    # rescale's a_n / a_{n-1} has unit content in t_n; only the wild cubic
    # expands products whose gcd needs the PRS
    def no_gcd(*args, **kwargs):
        raise AssertionError("gcd by PRS")

    monkeypatch.setattr(ratfunc, "_gcd_prs", no_gcd)
    reduced = 0
    for n in range(2, 10):
        for char in (0, 2, 3, 5, 7):
            if (n, char) == (3, 3):
                continue
            try:
                # past the memo, so every pair is derived under the patch
                reduce_general.__wrapped__(n, char)
            except Unsupported:
                assert n % char == 0, (n, char)
                continue
            reduced += 1
    assert reduced == 32


def test_zero_products_share_a_hash():
    vs = ("t1", "t2")
    zero = RatFn.const(QQ, vs, QQ.zero)
    t1 = RatFn.var(QQ, vs, "t1")
    a = PowerProduct([(zero, 1)])
    b = PowerProduct([(zero, 2), (t1, 1)])
    assert a == b and hash(a) == hash(b)
    assert len({a, b}) == 1
    # reduce_general(5, 0) builds one: its X^4 coefficient is 0 * lam^-1
    h, _ = reduce_general(5, 0)
    c1 = h.coefficient(1)
    assert c1.is_zero() and len(c1.factors) == 2
    assert len({c1, a, b}) == 1


def _render_poly(gp):
    return gp.n, gp.char, [c.render() for c in gp.coeffs]


def _render_reduction(result):
    h, record = result
    return (_render_poly(h),
            [(s.kind(), None if s.lam is None else render(s.lam))
             for s in record.steps])


def test_memo_matches_fresh_derivations():
    for n, char in PAIRS + [(n, 0) for n in range(2, 10)]:
        assert _render_poly(general_poly(n, char)) == \
            _render_poly(general_poly.__wrapped__(n, char)), (n, char)
        assert _render_reduction(reduce_general(n, char)) == \
            _render_reduction(reduce_general.__wrapped__(n, char)), (n, char)


def test_memo_returns_the_same_records():
    for n, char in [(5, 0), (3, 3), (7, 2)]:
        assert general_poly(n, char) is general_poly(n, char)
        h, record = reduce_general(n, char)
        h2, record2 = reduce_general(n, char)
        assert h is h2 and record is record2


def test_memo_keeps_raising_unsupported():
    for n, char in [(4, 2), (1, 0)]:
        for _ in range(3):
            with pytest.raises(Unsupported):
                reduce_general(n, char)


def test_memo_derives_once(monkeypatch):
    calls = []
    original = tschirnhaus.depress

    def counted(gp):
        calls.append((gp.n, gp.char))
        return original(gp)

    monkeypatch.setattr(tschirnhaus, "depress", counted)
    reduce_general.cache_clear()
    try:
        first = reduce_general(5, 0)
        assert reduce_general(5, 0) is first
        assert calls == [(5, 0)]
    finally:
        # drop the entry derived under the patch
        reduce_general.cache_clear()

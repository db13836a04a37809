"""Each value class behaves as the ``@dataclass(frozen=True)`` it replaces:
equality by exact class and field values, hashing by field values, the
dataclass ``repr``, keyword and default construction, refused assignment
and validation in the constructor.  The interned classes, the group
expressions and field descriptors, give one object for equal values, so
they compare and hash by identity."""

from dataclasses import field, make_dataclass

import pytest

from edim import record
from edim.crossratio import CRSymbol, FaithfulReport
from edim.edengine import (INF, BoundInterval, Rule, Thm46Result, TraceNode,
                           check_thm46)
from edim.errors import (AmbientTooSmall, Inconsistent, InconsistentCustom,
                         NotPrime)
from edim.exactfield import fq_context
from edim.fielddesc import (Custom, Cyclotomic, FieldDescriptor, FiniteField,
                            RationalField)
from edim.groups import (Alt, Cyc, Dih, ElemAb, Embedding, GroupExpr,
                         Product, Sym, _Indexed, embedding_certificate)
from edim.pgl2 import Mat2, PGL2Element, PGL2Witness
from edim.ratfunc import QQ, RatFn
from edim.tschirnhaus import (GeneralPoly, InvertRoot, ScaleRoots, Shift,
                              TransformRecord)

F5 = fq_context(5, 1)
T1 = RatFn.var(QQ, ("t1",), "t1")
GP = RatFn.const(QQ, ("t1",), 2)


def _default(value):
    return field(default=value)


# The fields of the frozen dataclass each value class replaced, declared
# here so the comparison does not read the classes under test.
TWIN_FIELDS = {
    Sym: ["n"], Alt: ["n"], Dih: ["n"], Cyc: ["n"],
    ElemAb: ["p", "r"],
    Product: ["factors"],
    Embedding: ["source", "target", "images"],
    Cyclotomic: ["m"],
    RationalField: [("m", int, field(default=1, init=False, repr=False))],
    FiniteField: ["p", "k"],
    Custom: [("characteristic", int, _default(0)),
             ("zeta_yes", frozenset, _default(frozenset())),
             ("zeta_no", frozenset, _default(frozenset())),
             ("real_zeta_yes", frozenset, _default(frozenset())),
             ("real_zeta_no", frozenset, _default(frozenset())),
             ("fp_dim", object, _default(None))],
    BoundInterval: ["lo", "hi"],
    Rule: ["id", "citation"],
    TraceNode: ["rule", "citation", "premises", "conclusion"],
    Thm46Result: ["applicable", ("reason", str, _default(""))],
    PGL2Element: ["rep"],
    PGL2Witness: ["group", "images"],
    Shift: ["lam"], ScaleRoots: ["lam"], InvertRoot: [],
    TransformRecord: ["steps"],
    GeneralPoly: ["n", "char", "coeffs"],
    CRSymbol: ["n", "indices"],
    FaithfulReport: ["n", "passed", "checked"],
}
# methods a value class writes itself that its twin needs too: the repr
# its dataclass kept, and Product's constructor over any number of factors
TWIN_METHODS = {
    PGL2Element: {"__repr__": lambda e: "PGL2(%r)" % (e.rep,)},
    Product: {"__init__": lambda p, *factors:
              object.__setattr__(p, "factors", factors)},
}
BASES = {GroupExpr, _Indexed, FieldDescriptor}


def _twin(cls):
    return make_dataclass(cls.__name__, TWIN_FIELDS[cls], frozen=True,
                          namespace=TWIN_METHODS.get(cls))


def _element(a, b, c, d):
    return PGL2Element(Mat2(F5, a, b, c, d))


# (class, arguments, other arguments): equal calls give equal records, the
# two calls unequal ones.  A dict is passed as keywords.
CASES = [
    (Sym, (5,), (6,)), (Alt, (4,), (5,)), (Dih, (3,), (4,)),
    (Cyc, (5,), {"n": 7}),
    (ElemAb, (3, 2), {"p": 2, "r": 3}),
    (Product, (Cyc(5), Dih(3)), (Dih(3), Cyc(5))),
    (Embedding, (Cyc(2), Sym(3), ((0, 1),)), (Cyc(3), Sym(3), ((1,),))),
    (Cyclotomic, (7,), (1,)),
    (RationalField, (), ()),
    (FiniteField, (2, 3), (3, 2)),
    (Custom, {"characteristic": 0, "zeta_yes": frozenset({5}),
              "real_zeta_yes": frozenset({5})}, {}),
    (BoundInterval, (1, INF), (1, 3)),
    (Rule, ("R-X", "Lemma 1"), ("R-X", "Lemma 2")),
    (TraceNode, ("R-TRIV", "c", (), (("C1", "Q"), BoundInterval(0, 0))),
     ("R-TRIV", "c", (), (("C2", "Q"), BoundInterval(1, INF)))),
    (Thm46Result, (True,), (False, "(iii) zeta_3 absent")),
    (PGL2Element, (Mat2(F5, 1, 1, 0, 1),), (Mat2(F5, 0, 1, 1, 0),)),
    (PGL2Witness, (Cyc(2), (_element(0, 1, 1, 0),)),
     (Cyc(2), (_element(0, 2, 1, 0),))),
    (Shift, (T1,), (GP,)), (ScaleRoots, (T1,), (GP,)),
    (InvertRoot, (), ()),
    (TransformRecord, ((InvertRoot(),),), ((Shift(T1),),)),
    (GeneralPoly, (2, 0, (T1, GP)), (2, 3, (T1, GP))),
    (CRSymbol, (5, (1, 2, 3, 4)), (5, (2, 1, 3, 4))),
    (FaithfulReport, (5, True, 5), (6, True, 7)),
]


def _call(cls, args):
    return cls(**args) if isinstance(args, dict) else cls(*args)


def _subclasses(cls):
    for sub in cls.__subclasses__():
        yield sub
        yield from _subclasses(sub)


def test_every_value_class_has_a_twin_and_a_case():
    classes = set(_subclasses(record.Record)) - BASES
    assert classes == set(TWIN_FIELDS) == {c for c, _, _ in CASES}


@pytest.mark.parametrize("cls,args,other", CASES,
                         ids=[c.__name__ for c, _, _ in CASES])
def test_records_behave_as_frozen_dataclasses(cls, args, other):
    twin = _twin(cls)
    a, b, c = _call(cls, args), _call(cls, args), _call(cls, other)
    ta, tb, tc = _call(twin, args), _call(twin, args), _call(twin, other)
    assert (a == b, a != b, a == c, a != c) \
        == (ta == tb, ta != tb, ta == tc, ta != tc)
    assert a != ta and ta != a  # a twin is another class
    if cls._interned:
        assert a is b and hash(a) == hash(b)
    else:
        assert hash(a) == hash(b) == hash(ta)
        assert hash(c) == hash(tc)
    assert repr(a) == repr(ta) and repr(c) == repr(tc)
    for name in cls._fields + ("extra",):
        with pytest.raises(AttributeError):
            setattr(a, name, None)
        with pytest.raises(AttributeError):
            delattr(a, name)
    assert a == b


def test_equality_checks_the_exact_class():
    assert Cyc(5) != Sym(5) and Sym(5) != Cyc(5)
    assert Cyc(5) == Cyc(n=5) and hash(Cyc(5)) == hash(Cyc(n=5))
    assert RationalField() != Cyclotomic(1)
    assert RationalField() is not Cyclotomic(1)
    assert len({Cyc(5), Sym(5), Cyc(5), RationalField(), Cyclotomic(1)}) == 4
    nested = Product(Product(Cyc(5), Dih(3)), Sym(4))
    assert nested == Product(Cyc(5), Product(Dih(3), Sym(4)))
    assert hash(nested) == hash(Product(Cyc(5), Dih(3), Sym(4)))


def test_interned_classes_keep_one_object_per_value():
    interned = {c for c, _, _ in CASES if c._interned}
    assert interned == {c for c in TWIN_FIELDS
                        if issubclass(c, (GroupExpr, FieldDescriptor))}
    for cls in interned:
        assert cls.__eq__ is object.__eq__ and cls.__hash__ is object.__hash__
    assert Cyc(5) is Cyc(n=5) and ElemAb(3, 2) is ElemAb(r=2, p=3)
    assert Custom() is Custom(0) is Custom(characteristic=0, fp_dim=None)
    assert Custom(0, {5}, real_zeta_yes={5}) \
        is Custom(0, frozenset({5}), frozenset(), frozenset({5}))
    a, b, c = Cyc(5), Dih(3), Sym(4)
    assert Product(Product(a, b), c) is Product(a, b, c) \
        is Product(a, Product(b, c))
    assert RationalField() is RationalField() is not Cyclotomic(1)
    for _ in range(2):  # a refused call is not remembered as a spelling
        with pytest.raises(TypeError):
            RationalField(1)
        with pytest.raises(ValueError):
            Cyc(0)


def test_keyword_calls_hit_the_call_cache(monkeypatch):
    # a keyword call of a class with the built __init__ is looked up by its
    # field values in order, as the positional call of every field with the
    # same values, so once either has been made the other builds and
    # validates nothing; a shorter positional call gives the same record
    no = frozenset({977})
    known = [Custom(0, frozenset(), frozenset(), frozenset(), no, None),
             ElemAb(3, 2), FiniteField(5, 2)]
    builds = []

    def counted(real):
        def build(*args, **kwargs):
            builds.append(args)
            return real(*args, **kwargs)
        return build

    for cls in (Custom, ElemAb, FiniteField):
        monkeypatch.setattr(cls, "_build", counted(cls._build))
    assert [Custom(real_zeta_no=no, characteristic=0),
            ElemAb(r=2, p=3), FiniteField(k=2, p=5)] == known
    assert Custom(0, real_zeta_no=no, fp_dim=None) is known[0]
    assert ElemAb(3, r=2) is known[1] and builds == []
    assert Custom(0, frozenset(), frozenset(), frozenset(), no) is known[0]


def test_short_keyword_and_full_calls_build_once(monkeypatch):
    # a positional call that leaves out trailing defaults and misses is
    # looked up again under its full field tuple, and is kept under both:
    # whichever of the three spellings comes first, only it builds
    empty, builds = frozenset(), []

    def build(*args, **kwargs):
        builds.append(args)
        return real(*args, **kwargs)

    real = Custom._build
    monkeypatch.setattr(Custom, "_build", build)
    no = frozenset({991})
    first = Custom(0, empty, empty, empty, no)
    assert Custom(characteristic=0, real_zeta_no=no) is first
    assert Custom(0, empty, empty, empty, no, None) is first
    assert len(builds) == 1
    # and a repeat of the short call hits at once
    assert Custom._calls[0, empty, empty, empty, no] is first
    no = frozenset({997})
    first = Custom(characteristic=0, real_zeta_no=no)
    assert Custom(0, empty, empty, empty, no) is first
    assert Custom(0, empty, empty, empty, no, None) is first
    assert len(builds) == 2


def test_keyword_and_default_construction():
    assert repr(Product(Cyc(5), Dih(3))) \
        == "Product(factors=(Cyc(n=5), Dih(n=3)))"
    assert Thm46Result(True) == Thm46Result(applicable=True, reason="")
    assert Thm46Result(True).reason == ""
    assert check_thm46(Cyc(1), 3, Cyclotomic(3)) == Thm46Result(True)
    kw = {"characteristic": 5, "zeta_yes": {4}, "fp_dim": INF}
    custom = Custom(**kw)
    assert custom.zeta_yes == frozenset({4})
    assert isinstance(custom.zeta_yes, frozenset)  # normalized on the way in
    assert custom == Custom(5, frozenset({4}), fp_dim=INF)
    assert Custom() == Custom(0)
    assert repr(RationalField()) == "RationalField()"
    cert = embedding_certificate(Alt(4), Sym(4))
    assert cert == Embedding(source=Alt(4), target=Sym(4), images=cert.images)


@pytest.mark.parametrize("cls,args,kwargs", [
    (Cyc, (), {}), (Cyc, (5, 6), {}), (Cyc, (), {"m": 5}),
    (ElemAb, (3,), {}), (ElemAb, (3, 2, 1), {}), (ElemAb, (3,), {"p": 3}),
    (RationalField, (1,), {}), (InvertRoot, (1,), {}),
    (Thm46Result, (), {"reason": "x"}), (Custom, (), {"char": 0}),
])
def test_bad_call_shapes_raise_type_error(cls, args, kwargs):
    twin = _twin(cls)
    with pytest.raises(TypeError):
        twin(*args, **kwargs)
    with pytest.raises(TypeError):
        cls(*args, **kwargs)


@pytest.mark.parametrize("build,error", [
    (lambda: Cyc(0), ValueError), (lambda: Dih(0), ValueError),
    (lambda: Sym(-1), ValueError), (lambda: ElemAb(4, 1), NotPrime),
    (lambda: ElemAb(3, 0), ValueError), (lambda: Cyclotomic(0), ValueError),
    (lambda: FiniteField(6, 1), NotPrime),
    (lambda: FiniteField(5, 0), ValueError),
    (lambda: Custom(characteristic=4, fp_dim=1), NotPrime),
    (lambda: Custom(zeta_yes={5}, zeta_no={5}), InconsistentCustom),
    (lambda: Custom(characteristic=3), InconsistentCustom),
    (lambda: BoundInterval(-1, 2), Inconsistent),
    (lambda: BoundInterval(3, 2), Inconsistent),
    (lambda: CRSymbol(3, (1, 2, 3, 4)), AmbientTooSmall),
], ids=["C0", "D0", "S-1", "E(4,1)", "E(3,0)", "Qzeta(0)", "F(6)",
        "F(5^0)", "custom-char-4", "custom-overlap", "custom-no-fp-dim",
        "lo<0", "lo>hi", "cr-n3"])
def test_constructors_validate(build, error):
    with pytest.raises(error):
        build()

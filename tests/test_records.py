"""The frozen value records: construction, equality, hashing, immutability
and repr, the same for all ten."""

import pickle

import pytest

from charzeta.fibercount import BiprojectivePoint, Descent
from charzeta.globalzeta import CHI5, CharacterDesc, ElementaryTerm, GlobalZetaExpr, ZetaFactorTerm
from charzeta.localzeta import LocalZetaFactors
from charzeta.specialvalues import LaurentLeading, QuadraticFieldData
from charzeta.surfaces import CountTotals

# (class, field names in order, one value per field)
RECORDS = [
    # L0 at p = 3 (fibercount._descent)
    (Descent, ("roots", "quadratics", "root_classes", "quadratic_classes", "infinity", "generic"),
     ((0, 1, 2), ((1, 0, 1),), ((2, 2), (2, 1), (2, 1)), ((2, 2),), (1, 4), 2)),
    (CountTotals, ("surface", "p", "n", "biprojective", "affine", "nonaffine"),
     ("L0", 5, 1, 36, 25, 11)),
    (CharacterDesc, ("label", "modulus", "values"), ("chi5", 5, (0, 1, -1, -1, 1))),
    (ZetaFactorTerm, ("kind", "shift", "exp", "char"), ("dirichlet", 1, -1, CHI5)),
    (ElementaryTerm, ("p", "sign", "shift", "exp"), (2, 1, 0, 1)),
    (GlobalZetaExpr, ("factors", "elementary"),
     ((ZetaFactorTerm("riemann", 0, 1),), (ElementaryTerm(2, 1, 0, 1),))),
    (LocalZetaFactors, ("p", "factors"), (5, ((25, 1), (5, 1), (1, 1)))),
    (QuadraticFieldData, ("d", "discriminant", "class_number", "roots_of_unity",
                          "fundamental_unit", "regulator"), (2, 8, 1, 2, 2.5, 0.75)),
    (LaurentLeading, ("s0", "order", "coefficient"), (1.0, -1, 0.5)),
    (BiprojectivePoint, ("xyu", "zw"), ((1, 0, 2), (0, 1))),
]
IDS = [cls.__name__ for cls, _, _ in RECORDS]


@pytest.mark.parametrize("cls, names, values", RECORDS, ids=IDS)
def test_record_construction_and_equality(cls, names, values):
    rec = cls(*values)
    assert [getattr(rec, name) for name in names] == list(values)
    assert cls(**dict(zip(names, values))) == rec
    assert rec == cls(*values) and not rec != cls(*values)
    # a change to any one field makes a different record
    for i in range(len(values)):
        other = cls(*values[:i], ("changed",), *values[i + 1:])
        assert rec != other and other != rec
    # a record never equals a tuple of its values, nor a record of another type
    assert rec != tuple(values) and tuple(values) != rec
    assert rec.__eq__(tuple(values)) is NotImplemented
    for other_cls, _, other_values in RECORDS:
        if other_cls is not cls:
            assert rec != other_cls(*other_values)
    assert pickle.loads(pickle.dumps(rec)) == rec


@pytest.mark.parametrize("cls, names, values", RECORDS, ids=IDS)
def test_record_hash_is_the_hash_of_its_fields(cls, names, values):
    rec = cls(*values)
    assert hash(rec) == hash(cls(*values)) == hash(tuple(values))


@pytest.mark.parametrize("cls, names, values", RECORDS, ids=IDS)
def test_record_is_immutable(cls, names, values):
    rec = cls(*values)
    for name in (*names, "not_a_field"):
        with pytest.raises(AttributeError):
            setattr(rec, name, 0)
    for name in names:
        with pytest.raises(AttributeError):
            delattr(rec, name)
    assert [getattr(rec, name) for name in names] == list(values)


@pytest.mark.parametrize("cls, names, values", RECORDS, ids=IDS)
def test_record_refuses_a_bad_arity(cls, names, values):
    with pytest.raises(TypeError):
        cls(*values, None)
    with pytest.raises(TypeError):
        cls(*values[:-1], **{names[-1]: values[-1], "not_a_field": 0})
    with pytest.raises(TypeError):
        cls(*values, **{names[0]: values[0]})
    if cls is not ZetaFactorTerm:  # the only record with defaults
        with pytest.raises(TypeError):
            cls(*values[:-1])


@pytest.mark.parametrize("cls, names, values", RECORDS, ids=IDS)
def test_record_repr_lists_its_fields(cls, names, values):
    fields = ", ".join(f"{name}={value!r}" for name, value in zip(names, values))
    assert repr(cls(*values)) == f"{cls.__name__}({fields})"


def test_record_defaults_and_keywords():
    term = ZetaFactorTerm("riemann", 0, 1)
    assert term.char is None
    assert term == ZetaFactorTerm(kind="riemann", shift=0, exp=1, char=None)
    chi5_term = ZetaFactorTerm("dirichlet", -1, 1, char=CHI5)
    assert chi5_term == ZetaFactorTerm("dirichlet", -1, 1, CHI5)
    assert ZetaFactorTerm(exp=1, shift=0, kind="riemann") == term
    with pytest.raises(TypeError):
        ZetaFactorTerm("riemann", 0)
    with pytest.raises(TypeError):
        ZetaFactorTerm("riemann", shift=0, char=CHI5)
    assert repr(ElementaryTerm(2, 1, 0, 1)) == "ElementaryTerm(p=2, sign=1, shift=0, exp=1)"
    assert ElementaryTerm(2, 1, 0, 1) != (2, 1, 0, 1)


def test_points_work_as_set_members():
    a = BiprojectivePoint((1, 0, 2), (0, 1))
    points = {a, BiprojectivePoint((1, 0, 2), (0, 1)), BiprojectivePoint((0, 1, 0), (1, 0))}
    assert len(points) == 2 and BiprojectivePoint((1, 0, 2), (0, 1)) in points
    assert (1, 0, 2) not in points and ((1, 0, 2), (0, 1)) not in points

"""The public records behave as frozen value objects: construction by
position or keyword, equality and hashing by fields, a `Name(field=...)`
repr, no assignment or deletion, pickling, and cached derived values."""

import pickle
from fractions import Fraction

import pytest

from linfgraph import (
    Classification,
    Cover,
    DistanceFunction,
    FinfBounds,
    GenericityReport,
    Graph,
    MinorEmbedding,
    Orientation,
    Potential,
    Realization,
    SearchOutcome,
    Tree,
    ValidationReport,
    VerifyResult,
    Violation,
)

_EDGE = Graph((1, 2), ((1, 2),))
_ORIENTATION = Orientation(((1, 2),))
_POTENTIAL = Potential({1: Fraction(0), 2: Fraction(1)})

# (class, field names, one small instance's field values, its exact repr, hashable)
_RECORDS = [
    (Graph, ("vertices", "edges"), ((1, 2), ((1, 2),)),
     "Graph(vertices=(1, 2), edges=((1, 2),))", True),
    (DistanceFunction, ("weights",), ((Fraction(1),),),
     "DistanceFunction(weights=(Fraction(1, 1),))", True),
    (Violation, ("edge", "path", "length"), ((1, 3), (1, 2, 3), Fraction(2)),
     "Violation(edge=(1, 3), path=(1, 2, 3), length=Fraction(2, 1))", True),
    (ValidationReport, ("valid", "violations"), (True, ()),
     "ValidationReport(valid=True, violations=())", True),
    (GenericityReport, ("status", "pairs_checked", "cycle", "subset"),
     ("not_generic", 4, (0, 1, 2), frozenset({0})),
     "GenericityReport(status='not_generic', pairs_checked=4, cycle=(0, 1, 2), "
     "subset=frozenset({0}))", True),
    (Orientation, ("arcs",), (((1, 2),),), "Orientation(arcs=((1, 2),))", True),
    (Potential, ("values",), ({1: Fraction(0)},), "Potential(values={1: Fraction(0, 1)})", False),
    (Cover, ("parts", "potentials"), ((_ORIENTATION,), (_POTENTIAL,)),
     "Cover(parts=(Orientation(arcs=((1, 2),)),), "
     "potentials=(Potential(values={1: Fraction(0, 1), 2: Fraction(1, 1)}),))", False),
    (Realization, ("points", "k"), ({1: (Fraction(0),)}, 1),
     "Realization(points={1: (Fraction(0, 1),)}, k=1)", False),
    (SearchOutcome, ("cover", "nodes", "prunes", "expanded"), (None, 3, {"conflict": 1}, 2),
     "SearchOutcome(cover=None, nodes=3, prunes={'conflict': 1}, expanded=2)", False),
    (VerifyResult, ("ok", "edge", "detail"), (False, (1, 2), "gap"),
     "VerifyResult(ok=False, edge=(1, 2), detail='gap')", True),
    (FinfBounds, ("lower", "upper", "witness"), (2, 3, None),
     "FinfBounds(lower=2, upper=3, witness=None)", True),
    (MinorEmbedding, ("pattern", "branch_sets", "edge_realization"),
     (_EDGE, {1: frozenset({1}), 2: frozenset({2})}, {(1, 2): (1, 2)}),
     "MinorEmbedding(pattern=Graph(vertices=(1, 2), edges=((1, 2),)), "
     "branch_sets={1: frozenset({1}), 2: frozenset({2})}, edge_realization={(1, 2): (1, 2)})",
     False),
    (Classification, ("verdict", "witness"), ("dim_at_most_2", None),
     "Classification(verdict='dim_at_most_2', witness=None)", True),
    (Tree, ("graph",), (_EDGE,), "Tree(graph=Graph(vertices=(1, 2), edges=((1, 2),)))", True),
]
_IDS = [r[0].__name__ for r in _RECORDS]


def _copy(value):
    """An equal value that is not the same object, container by container."""
    if isinstance(value, tuple):
        return tuple([_copy(x) for x in value])
    if isinstance(value, dict):
        return {k: _copy(v) for k, v in value.items()}
    return value


@pytest.mark.parametrize("cls, names, values, text, hashable", _RECORDS, ids=_IDS)
def test_construction_equality_and_repr(cls, names, values, text, hashable):
    r = cls(*values)
    assert cls(**dict(zip(names, values))) == r
    assert tuple(getattr(r, n) for n in names) == values
    twin = cls(*_copy(values))
    assert twin == r and not twin != r
    assert repr(r) == text
    changed = cls(*values[:-1], "other")
    assert changed != r and not changed == r
    # a record never equals a record of another class, or its own field values
    other = Orientation(values[0]) if cls is not Orientation else DistanceFunction(values[0])
    assert r != other and r != values and r != values[0]
    if hashable:
        assert hash(twin) == hash(r)
        assert len({r, twin, changed}) == 2
    else:
        with pytest.raises(TypeError):
            hash(r)


@pytest.mark.parametrize("cls, names, values, text, hashable", _RECORDS, ids=_IDS)
def test_fields_are_read_only(cls, names, values, text, hashable):
    r = cls(*values)
    for name in names + ("not_a_field",):
        with pytest.raises(AttributeError):
            setattr(r, name, None)
    for name in names:
        with pytest.raises(AttributeError):
            delattr(r, name)
        assert getattr(r, name) == values[names.index(name)]


@pytest.mark.parametrize("cls, names, values, text, hashable", _RECORDS, ids=_IDS)
def test_pickle_round_trip(cls, names, values, text, hashable):
    r = cls(*values)
    back = pickle.loads(pickle.dumps(r))
    assert type(back) is cls and back == r and repr(back) == text
    with pytest.raises(AttributeError):
        setattr(back, names[0], None)


def test_defaults():
    assert GenericityReport("generic", 7) == GenericityReport("generic", 7, None, None)
    assert VerifyResult(True) == VerifyResult(True, None, None)
    assert VerifyResult(False, detail="x") == VerifyResult(False, None, "x")
    assert Classification("dim_at_most_2") == Classification("dim_at_most_2", None)


def test_derived_values_are_cached():
    g = Graph.build([1, 2, 3], [(1, 2), (2, 3)])
    assert g.adjacency is g.adjacency
    assert g.adjacency == {1: ((2, 0),), 2: ((1, 0), (3, 1)), 3: ((2, 1),)}
    d = DistanceFunction.from_values(["1/2", "1/3"])
    assert d.integers is d.integers and d.integers == (3, 2) and d.scale == 6
    # a cached value is not a field: equality, hashing and repr ignore it
    fresh = Graph.build([1, 2, 3], [(1, 2), (2, 3)])
    assert fresh == g and hash(fresh) == hash(g) and repr(fresh) == repr(g)
    back = pickle.loads(pickle.dumps(g))
    assert back == g and back.adjacency == g.adjacency

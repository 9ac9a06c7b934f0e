"""The record contract: what every record class of the package gives its callers.

Each class is built from one row of field values.  The checks are those a
frozen dataclass met: construction, binding errors, `__post_init__` on
construction and on `replace`, no assignment or deletion, equality and
hashing by value (or by identity with `eq=False`), no tuple behaviour, and
the `repr` text that `dataclasses` writes.
"""
from __future__ import annotations

import dataclasses
import inspect
from typing import NamedTuple

import numpy as np
import pytest

from qcageom import causal, infogeo, qca, statealg, topo
from qcageom.qca import Record


class Row(NamedTuple):
    cls: type
    values: dict  # every field, in field order
    defaults: dict  # the fields that may be left out, with the value they then hold
    change: dict  # a valid change to one field
    bad: dict | None  # a change that __post_init__ rejects with ValueError


W0, W1 = causal.Wire(1, 0), causal.Wire(2, 0)
CONFIG = qca.QcaConfig(4, qca.PULSE_RULE)
I2 = qca.IDENTITY_2

ROWS = [
    Row(qca.UpdateRule, dict(u0=I2, u1=I2, u2=I2, u3=I2, name="r"), {"name": "rule"},
        {"name": "s"}, {"name": 3}),
    Row(qca.QcaConfig, dict(n_sites=4, rule=qca.PULSE_RULE, b_parity="odd"),
        {"b_parity": "odd"}, {"b_parity": "even"}, {"n_sites": 1}),
    Row(qca.GateRecord, dict(target=2, controls=(1, 3), kind="rule"), {"kind": "rule"},
        {"target": 3}, None),
    Row(qca.LayerRecord, dict(index=1, species="B", gates=(qca.GateRecord(1, (2,)),)), {},
        {"index": 2}, None),
    Row(qca.RunTrace, dict(config=CONFIG, granularity="per_species_layer", layers=(),
                           snapshots=()), {}, {"granularity": "per_global_step"}, None),
    Row(causal.Wire, dict(site=1, layer=0), {}, {"layer": 1}, None),
    Row(causal.Gate, dict(site=1, layer=1, kind="rule"), {}, {"kind": "identity"}, None),
    Row(causal.AntiChain, dict(nodes=frozenset({W0})), {}, {"nodes": frozenset({W1})}, None),
    Row(causal.ThickenedAntiChain, dict(members=frozenset({W0, W1}), maximal_nodes=frozenset({W0})),
        {}, {"maximal_nodes": frozenset({W1})}, None),
    Row(topo.SimplicialComplex, dict(vertices=(1, 2), cover=frozenset({frozenset({1, 2})})), {},
        {"cover": frozenset({frozenset({1}), frozenset({2})})}, {"vertices": (1,)}),
    Row(topo.StableComplexResult, dict(t_star=None, complex=None, filtration=((1, (1,)),),
                                       note="n"), {}, {"note": "m"}, None),
    Row(statealg.StateVector, dict(amplitudes=np.array([1, 0], dtype=complex), labels=(1,)),
        {"labels": (0,)}, {"labels": (2,)}, {"amplitudes": np.array([1, 1], dtype=complex)}),
    Row(statealg.DensityMatrix, dict(matrix=np.eye(2) / 2, labels=(1,)), {"labels": (0,)},
        {"labels": (2,)}, {"matrix": np.array([[1, 1], [0, 0]], dtype=complex)}),
    Row(infogeo.DistanceField, dict(time_step=0, labels=(1, 2), values=np.zeros((2, 2)),
                                    site_entropies={1: 0.0}, site_p1={1: 0.0}),
        {"site_entropies": {}, "site_p1": {}}, {"time_step": 1},
        {"values": np.array([[0.0, 1.0], [2.0, 0.0]])}),
    Row(infogeo.BlockReport, dict(regions=((1,), (2,)), pattern_holds=False, cross_min=None,
                                  note="x"), {}, {"pattern_holds": True}, None),
    Row(infogeo.SweepCurve, dict(grid=(0.0, 1.0), values=(1.0, 2.0)), {}, {"values": (1.0, 3.0)},
        {"grid": (1.0, 0.0)}),
]
EQ = {row.cls for row in ROWS if row.cls.__eq__ is Record.__eq__}
IDS = [row.cls.__name__ for row in ROWS]


def build(row: Row, **changes) -> Record:
    return row.cls(**{**row.values, **changes})


def test_every_record_class_has_a_row():
    classes = {cls for cls in Record.__subclasses__() if cls.__module__.startswith("qcageom.")}
    assert classes == {row.cls for row in ROWS}
    assert {cls.__name__ for cls in EQ} == {
        "UpdateRule", "QcaConfig", "GateRecord", "LayerRecord", "Wire", "Gate", "AntiChain",
        "ThickenedAntiChain", "SimplicialComplex", "StableComplexResult", "BlockReport",
        "SweepCurve"}


@pytest.mark.parametrize("row", ROWS, ids=IDS)
class TestRecordContract:
    def test_fields_are_the_annotations(self, row):
        assert row.cls._fields == tuple(row.values)

    def test_positional_keyword_and_defaults(self, row):
        by_keyword = build(row)
        assert repr(row.cls(*row.values.values())) == repr(by_keyword)
        given = {f: v for f, v in row.values.items() if f not in row.defaults}
        made = row.cls(**given)
        for field, value in row.defaults.items():
            assert getattr(made, field) == value, field
        if row.defaults:
            assert repr(row.cls(*given.values())) == repr(made)

    def test_binding_errors(self, row):
        first, *_ = row.values
        values = list(row.values.values())
        calls = {
            "missing": lambda: row.cls(**{f: v for f, v in row.values.items() if f != first}),
            "extra positional": lambda: row.cls(*values, 0),
            "extra keyword": lambda: row.cls(**row.values, no_such_field=0),
            "repeated": lambda: row.cls(values[0], **row.values),
        }
        for what, call in calls.items():
            with pytest.raises(TypeError):
                call()
                pytest.fail(what)

    def test_post_init_on_construction_and_replace(self, row):
        record = build(row)
        changed = record.replace(**row.change)
        assert type(changed) is row.cls
        for field in row.values:
            want = row.change[field] if field in row.change else getattr(record, field)
            assert repr(getattr(changed, field)) == repr(want), field
        if row.bad is not None:
            with pytest.raises(ValueError):
                build(row, **row.bad)
            with pytest.raises(ValueError):
                record.replace(**row.bad)

    def test_no_assignment_or_deletion(self, row):
        record = build(row)
        for field in (*row.values, "no_such_field"):
            with pytest.raises(AttributeError):
                setattr(record, field, 0)
            with pytest.raises(AttributeError):
                delattr(record, field)
        assert repr(record) == repr(build(row))

    def test_equality_and_hash(self, row):
        a, b = build(row), build(row)
        assert a == a
        if row.cls in EQ:
            assert a == b and hash(a) == hash(b)
            assert a != a.replace(**row.change)
            assert hash(a) == hash(tuple(row.values.values()))  # as a frozen dataclass hashes
        else:
            assert a != b
            assert hash(a) == object.__hash__(a)

    def test_other_class_with_the_same_fields_is_not_equal(self, row):
        twin = type(row.cls.__name__, (Record,), {"__annotations__": dict(row.values)},
                    eq=row.cls in EQ)
        a, t = build(row), twin(**row.values)
        assert a != t and t != a

    def test_not_a_tuple(self, row):
        record = build(row)
        assert not isinstance(record, tuple)
        with pytest.raises(TypeError):
            iter(record)
        as_tuple = tuple(getattr(record, f) for f in row.values)
        if row.cls in EQ:
            assert record != as_tuple and as_tuple != record

    def test_signature_is_the_fields(self, row):
        params = inspect.signature(row.cls).parameters.values()
        assert [p.name for p in params] == list(row.values)
        assert all(p.kind is p.POSITIONAL_OR_KEYWORD for p in params)
        defaults = {p.name: p.default for p in params if p.default is not p.empty}
        assert defaults.keys() == row.defaults.keys()
        assert all(vars(row.cls)[name] is value for name, value in defaults.items())

    def test_init_is_named_for_its_class(self, row):
        init = row.cls.__init__
        assert init.__qualname__ == f"{row.cls.__qualname__}.__init__"
        assert init.__module__ == row.cls.__module__
        assert row.cls.__qualname__ in init.__code__.co_filename

    def test_repr_is_the_dataclass_repr(self, row):
        record = build(row)
        reference = dataclasses.make_dataclass(row.cls.__qualname__, list(row.values),
                                               frozen=True)
        assert repr(record) == repr(reference(**{f: getattr(record, f) for f in row.values}))


class TestSimplicialComplexRecord:
    """`SimplicialComplex` is a plain record: `__post_init__` stores the cover of any family."""

    def make(self, vertices=(1, 2)):
        return topo.SimplicialComplex(vertices, [[v] for v in vertices] + [list(vertices)])

    def test_init_takes_the_fields(self):
        c = self.make()
        assert topo.SimplicialComplex(vertices=[1, 2], cover=[[1], [2], [1, 2]]) == c
        assert c._fields == ("vertices", "cover")
        with pytest.raises(TypeError):
            topo.SimplicialComplex(vertices=(1, 2), _cover=frozenset())
        with pytest.raises(TypeError):
            topo.SimplicialComplex((1, 2))

    def test_post_init_closes_any_family(self):
        c = topo.SimplicialComplex([2, 1], [[1], [1, 2], [], [2, 1]])
        assert c.vertices == (1, 2) and c.cover == {frozenset({1, 2})}
        assert c.simplices == {frozenset({1}), frozenset({2}), frozenset({1, 2})}
        assert topo.SimplicialComplex((1, 2), c.simplices) == c

    def test_vertices_are_0_simplices(self):
        c = self.make().replace(vertices=(3, 1, 2))
        assert c.vertices == (1, 2, 3)
        assert c.cover == {frozenset({1, 2}), frozenset({3})}
        assert topo.SimplicialComplex((), ()).cover == frozenset()

    def test_equality_hash_frozen_and_repr(self):
        c = self.make()
        assert c == self.make() and hash(c) == hash(self.make())
        assert c != self.make((1, 3))
        assert topo.SimplicialComplex.from_maximal([[1, 2]]) == c
        with pytest.raises(AttributeError):
            c.vertices = ()
        assert repr(c) == "SimplicialComplex(vertices=(1, 2), cover=frozenset({frozenset({1, 2})}))"


def test_a_record_class_that_defines_init_is_a_type_error():
    with pytest.raises(TypeError, match="^Own: a record's __init__ is made from its fields"):
        type("Own", (Record,), {"__annotations__": {"a": "int"}, "__init__": lambda self, a: None})


@pytest.mark.parametrize("given, normal", [
    (causal.AntiChain([W0, W1]), causal.AntiChain(frozenset({W0, W1}))),
    (infogeo.SweepCurve([0, 1], [1, 2]), infogeo.SweepCurve((0.0, 1.0), (1.0, 2.0))),
], ids=["AntiChain", "SweepCurve"])
def test_equality_reads_the_fields_post_init_left(given, normal):
    assert given == normal and hash(given) == hash(normal)
    assert given.replace() == normal


def test_defaults_fill_from_the_last_given_field():
    class Three(Record):
        a: int
        b: int = 1
        c: int = 2

    assert Three(0) == Three(0, 1, 2)
    assert Three(0, 5) == Three(a=0, b=5) == Three(0, c=2, b=5)
    with pytest.raises(TypeError):
        Three()
    with pytest.raises(TypeError):
        type("Bad", (Record,), {"__annotations__": {"a": "int", "b": "int"}, "a": 0})


@pytest.mark.parametrize("fields", [
    {"a b": "int"}, {"a=0": "int"}, {"1a": "int"}, {0: "int"}, {"class": "int"},
    {"x": "int", "None": "int"}, {"self": "int"},
], ids=["space", "default", "digit", "not-str", "keyword", "keyword-constant", "self"])
def test_field_list_that_is_not_a_parameter_list(fields):
    with pytest.raises(TypeError, match="^Bad: the fields"):
        type("Bad", (Record,), {"__annotations__": fields})

"""What the immutable records of the finite-map and robustness layers promise.

Every record refuses assignment and deletion, prints as its constructor
call, and survives ``pickle`` and ``copy``.  ``FiniteMap``,
``FunctionalKind`` and ``AttackResult`` compare and hash by value;
``EmpiricalDistribution`` and ``InfluenceProfile`` by identity.  No record
is a tuple.
"""

import copy
import pickle

import pytest

from illposed.finite_maps import FiniteMap
from illposed.robustness import (
    MEAN,
    AttackResult,
    EmpiricalDistribution,
    Functional,
    FunctionalKind,
    InfluenceProfile,
    trimmed_mean,
)


def make(name):
    """A fresh record of the named class, equal in value on every call."""
    return {
        "FiniteMap": lambda: FiniteMap(2, 3, (0, 1)),
        "FunctionalKind": lambda: FunctionalKind(Functional.TRIMMED_MEAN, 0.25),
        "EmpiricalDistribution": lambda: EmpiricalDistribution([2.0, 1.0], [0.75, 0.25]),
        "InfluenceProfile": lambda: InfluenceProfile(
            probe_points=(1.0, 2.0),
            values=(0.5, -0.5),
            gross_error_sensitivity=0.5,
            unbounded_flag=False,
            asymptotic_variance=0.25,
        ),
        "AttackResult": lambda: AttackResult(y=3.0, achieved=1.5, distance=0.5),
    }[name]()


FIELDS = {
    "FiniteMap": ("domain_size", "codomain_size", "table"),
    "FunctionalKind": ("kind", "trim_fraction"),
    "EmpiricalDistribution": ("locations", "weights"),
    "InfluenceProfile": (
        "probe_points", "values", "gross_error_sensitivity", "unbounded_flag",
        "asymptotic_variance",
    ),
    "AttackResult": ("y", "achieved", "distance"),
}

REPRS = {
    "FiniteMap": "FiniteMap(domain_size=2, codomain_size=3, table=(0, 1))",
    "FunctionalKind": (
        "FunctionalKind(kind=<Functional.TRIMMED_MEAN: 'TRIMMED_MEAN'>, trim_fraction=0.25)"
    ),
    "EmpiricalDistribution": "EmpiricalDistribution(locations=(1.0, 2.0), weights=(0.25, 0.75))",
    "InfluenceProfile": (
        "InfluenceProfile(probe_points=(1.0, 2.0), values=(0.5, -0.5), "
        "gross_error_sensitivity=0.5, unbounded_flag=False, asymptotic_variance=0.25)"
    ),
    "AttackResult": "AttackResult(y=3.0, achieved=1.5, distance=0.5)",
}

BY_VALUE = ["FiniteMap", "FunctionalKind", "AttackResult"]
BY_IDENTITY = ["EmpiricalDistribution", "InfluenceProfile"]


@pytest.mark.parametrize("name", FIELDS)
class TestEveryRecord:
    def test_fields_cannot_be_assigned_or_deleted(self, name):
        record = make(name)
        for field in (*FIELDS[name], "extra"):
            with pytest.raises(AttributeError):
                setattr(record, field, 1)
            with pytest.raises(AttributeError):
                delattr(record, field)

    def test_repr(self, name):
        assert repr(make(name)) == REPRS[name]

    @pytest.mark.parametrize(
        "clone",
        [lambda r: pickle.loads(pickle.dumps(r)), copy.copy, copy.deepcopy],
        ids=["pickle", "copy", "deepcopy"],
    )
    def test_round_trips(self, name, clone):
        record = make(name)
        back = clone(record)
        assert type(back) is type(record)
        assert repr(back) == REPRS[name]
        assert [getattr(back, f) for f in FIELDS[name]] == [
            getattr(record, f) for f in FIELDS[name]
        ]
        assert (back == record) is (name in BY_VALUE)

    def test_is_not_a_tuple(self, name):
        record = make(name)
        fields = tuple(getattr(record, f) for f in FIELDS[name])
        assert not isinstance(record, tuple)
        assert record != fields and fields != record
        with pytest.raises(TypeError):
            len(record)


@pytest.mark.parametrize("name", BY_VALUE)
def test_value_records_compare_and_hash_by_fields(name):
    a, b = make(name), make(name)
    assert a is not b
    assert a == b and not a != b
    assert hash(a) == hash(b) == hash(tuple(getattr(a, f) for f in FIELDS[name]))


@pytest.mark.parametrize("name", BY_IDENTITY)
def test_identity_records_compare_by_identity(name):
    a, b = make(name), make(name)
    assert a == a and a != b
    assert hash(a) == object.__hash__(a)


def test_value_records_differ_by_any_field():
    assert FiniteMap(2, 3, (0, 1)) != FiniteMap(2, 3, (0, 2))
    assert FiniteMap(2, 3, (0, 1)) != FiniteMap(2, 2, (0, 1))
    assert FiniteMap(2, 3, (0, 1)) != (2, 3, (0, 1))
    assert trimmed_mean(0.25) != trimmed_mean(0.2)
    assert AttackResult(1.0, 2.0, 0.5) != AttackResult(1.0, 2.0, 0.25)
    # records of different classes never compare equal
    assert MEAN != FiniteMap(1, 1, (0,))


def test_functional_kind_defaults_to_no_trim():
    assert FunctionalKind(Functional.MEAN) == MEAN
    assert MEAN.trim_fraction is None
    assert repr(MEAN) == "FunctionalKind(kind=<Functional.MEAN: 'MEAN'>, trim_fraction=None)"


def test_keyword_construction():
    assert FiniteMap(domain_size=1, codomain_size=2, table=[1]) == FiniteMap(1, 2, (1,))
    assert FunctionalKind(kind=Functional.MEDIAN, trim_fraction=None).kind is Functional.MEDIAN
    dist = EmpiricalDistribution(locations=(1.0,), weights=(1.0,))
    assert tuple(zip(dist.locations, dist.weights)) == ((1.0, 1.0),)

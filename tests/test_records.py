"""What the immutable records of every layer promise.

Every record refuses assignment and deletion, prints as its constructor
call, takes its fields by position or by name, and survives ``pickle`` and
``copy``.  The records in ``BY_VALUE`` compare and hash by value, those in
``BY_IDENTITY`` by identity.  No record is a tuple.
"""

import copy
import pickle

import numpy as np
import pytest

from illposed.diagnostics import DiagnosisReport, StabilityBound
from illposed.finite_maps import FiniteMap
from illposed.fredholm import (
    FredholmProblem,
    InstabilityResult,
    heaviside_operator,
)
from illposed.linop import DenseOperator, SvdFactors
from illposed.robustness import (
    MEAN,
    MEDIAN,
    AttackResult,
    EmpiricalDistribution,
    FunctionalKind,
    InfluenceProfile,
    trimmed_mean,
)


def make(name):
    """A fresh record of the named class, equal in value on every call."""
    return {
        "FiniteMap": lambda: FiniteMap(2, 3, (0, 1)),
        "FunctionalKind": lambda: FunctionalKind(0.25),
        "EmpiricalDistribution": lambda: EmpiricalDistribution([2.0, 1.0], [0.75, 0.25]),
        "InfluenceProfile": lambda: InfluenceProfile(
            probe_points=(1.0, 2.0),
            values=(0.5, -0.5),
            gross_error_sensitivity=0.5,
            asymptotic_variance=0.25,
        ),
        "AttackResult": lambda: AttackResult(y=3.0, achieved=1.5, distance=0.5),
        "DenseOperator": lambda: DenseOperator([[1.0, 2.0], [0.0, 4.0]]),
        "SvdFactors": lambda: SvdFactors(
            left_vectors=[[1.0], [0.0]],
            singular_values=[2.0],
            right_vectors=[[0.0], [1.0]],
        ),
        "DiagnosisReport": lambda: DiagnosisReport(
            identifiable=True,
            numerical_rank=2,
            sigma_max=2.0,
            sigma_min=0.5,
            condition_number=4.0,
            stability_constant=0.5,
            classification="WELL_POSED",
            spectrum=(2.0, 0.5),
            decay_exponent=None,
        ),
        "StabilityBound": lambda: StabilityBound(lhs=0.5, rhs=1.0, holds=True),
        "FredholmProblem": lambda: FredholmProblem(rhs=[0.5, 1.0]),
        "InstabilityResult": lambda: InstabilityResult(
            rhs_dev=0.125, sol_dev=1.0, amplification=8.0, delta=0.125
        ),
    }[name]()


FIELDS = {
    "FiniteMap": ("domain_size", "codomain_size", "table"),
    "FunctionalKind": ("trim_fraction",),
    "EmpiricalDistribution": ("locations", "weights"),
    "InfluenceProfile": (
        "probe_points", "values", "gross_error_sensitivity", "asymptotic_variance",
    ),
    "AttackResult": ("y", "achieved", "distance"),
    "DenseOperator": ("matrix",),
    "SvdFactors": ("left_vectors", "singular_values", "right_vectors"),
    "DiagnosisReport": (
        "identifiable", "numerical_rank", "sigma_max", "sigma_min", "condition_number",
        "stability_constant", "classification", "spectrum", "decay_exponent",
    ),
    "StabilityBound": ("lhs", "rhs", "holds"),
    "FredholmProblem": ("rhs",),
    "InstabilityResult": ("rhs_dev", "sol_dev", "amplification", "delta"),
}

REPRS = {
    "FiniteMap": "FiniteMap(domain_size=2, codomain_size=3, table=(0, 1))",
    "FunctionalKind": "FunctionalKind(trim_fraction=0.25)",
    "EmpiricalDistribution": "EmpiricalDistribution(locations=(1.0, 2.0), weights=(0.25, 0.75))",
    "InfluenceProfile": (
        "InfluenceProfile(probe_points=(1.0, 2.0), values=(0.5, -0.5), "
        "gross_error_sensitivity=0.5, asymptotic_variance=0.25)"
    ),
    "AttackResult": "AttackResult(y=3.0, achieved=1.5, distance=0.5)",
    # the numpy layers' records print as the dataclasses they replace did
    "DenseOperator": "DenseOperator(matrix=array([[1., 2.],\n       [0., 4.]]))",
    "SvdFactors": (
        "SvdFactors(left_vectors=array([[1.],\n       [0.]]), singular_values=array([2.]), "
        "right_vectors=array([[0.],\n       [1.]]))"
    ),
    "DiagnosisReport": (
        "DiagnosisReport(identifiable=True, numerical_rank=2, sigma_max=2.0, sigma_min=0.5, "
        "condition_number=4.0, stability_constant=0.5, "
        "classification='WELL_POSED', spectrum=(2.0, 0.5), "
        "decay_exponent=None)"
    ),
    "StabilityBound": "StabilityBound(lhs=0.5, rhs=1.0, holds=True)",
    "FredholmProblem": "FredholmProblem(rhs=array([0.5, 1. ]))",
    "InstabilityResult": (
        "InstabilityResult(rhs_dev=0.125, sol_dev=1.0, amplification=8.0, delta=0.125)"
    ),
}

BY_VALUE = [
    "FiniteMap", "FunctionalKind", "AttackResult", "StabilityBound", "InstabilityResult",
]
BY_IDENTITY = [
    "EmpiricalDistribution", "InfluenceProfile", "DenseOperator", "SvdFactors",
    "DiagnosisReport", "FredholmProblem",
]


def same(a, b) -> bool:
    """Field equality that compares arrays entry by entry."""
    if isinstance(a, np.ndarray):
        return type(b) is np.ndarray and np.array_equal(a, b)
    return a == b


def field_values(record) -> tuple:
    return tuple(getattr(record, f) for f in FIELDS[type(record).__name__])


def test_every_record_is_listed_once():
    assert sorted(BY_VALUE + BY_IDENTITY) == sorted(FIELDS) == sorted(REPRS)


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
        assert all(map(same, field_values(back), field_values(record)))
        assert (back == record) is (name in BY_VALUE)

    def test_fields_by_position_or_by_name(self, name):
        values = field_values(make(name))
        cls = type(make(name))
        assert repr(cls(*values)) == REPRS[name]
        assert repr(cls(**dict(zip(FIELDS[name], values)))) == REPRS[name]
        assert repr(cls(*values[:1], **dict(zip(FIELDS[name][1:], values[1:])))) == REPRS[name]

    def test_missing_unknown_or_extra_field_is_a_type_error(self, name):
        values = field_values(make(name))
        cls, named = type(make(name)), dict(zip(FIELDS[name], values))
        first = FIELDS[name][0]
        with pytest.raises(TypeError):  # missing: the first field is never optional
            cls(**{f: v for f, v in named.items() if f != first})
        with pytest.raises(TypeError):
            cls(*values, extra=1)
        with pytest.raises(TypeError):
            cls(*values, 1)
        with pytest.raises(TypeError):  # given twice
            cls(*values[:1], **named)

    def test_is_not_a_tuple(self, name):
        record = make(name)
        fields = field_values(record)
        assert not isinstance(record, tuple)
        assert record != fields and fields != record
        with pytest.raises(TypeError):
            len(record)


@pytest.mark.parametrize("name", BY_VALUE)
def test_value_records_compare_and_hash_by_fields(name):
    a, b = make(name), make(name)
    assert a is not b
    assert a == b and not a != b
    assert hash(a) == hash(b) == hash(field_values(a))


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


def test_mean_is_the_trimmed_mean_that_trims_nothing():
    assert MEAN == trimmed_mean(0.0)
    assert hash(MEAN) == hash(trimmed_mean(0.0))
    assert repr(MEAN) == "FunctionalKind(trim_fraction=0.0)"
    # the median is the one functional without a trim fraction
    assert MEDIAN == FunctionalKind(None)
    assert hash(MEDIAN) == hash(FunctionalKind(None))


def test_keyword_construction():
    assert FiniteMap(domain_size=1, codomain_size=2, table=[1]) == FiniteMap(1, 2, (1,))
    assert FunctionalKind(trim_fraction=None) == MEDIAN
    dist = EmpiricalDistribution(locations=(1.0,), weights=(1.0,))
    assert tuple(zip(dist.locations, dist.weights)) == ((1.0, 1.0),)


def test_type_error_names_the_fields():
    with pytest.raises(TypeError, match=r"^StabilityBound\(\) takes the fields lhs, rhs, holds; "
                       r"got 2 of them and the extra names \['hold'\]$"):
        StabilityBound(0.5, 1.0, hold=True)
    with pytest.raises(TypeError, match=r"got 4 of them and the extra names \[\]$"):
        StabilityBound(0.5, 1.0, True, False)


@pytest.mark.parametrize(
    "clone",
    [lambda r: pickle.loads(pickle.dumps(r)), copy.copy, copy.deepcopy],
    ids=["pickle", "copy", "deepcopy"],
)
def test_a_cloned_operator_factors_itself_again(clone):
    k = heaviside_operator(3)
    factors = k._factors
    back = clone(k)
    assert type(back) is type(k)
    assert repr(back) == repr(k)
    assert vars(back) == {}  # the cache is not carried
    assert all(map(np.array_equal, back._factors, factors))
    assert set(vars(back)) == {"_factors", "_spectrum"}


def test_vars_lists_only_cached_entries():
    a = DenseOperator([[2.0, 0.0], [0.0, 1.0]])
    assert vars(a) == {}
    a._spectrum
    assert list(vars(a)) == ["_spectrum"]

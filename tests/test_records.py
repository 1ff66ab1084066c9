"""The public record classes: immutable values compared, hashed, printed and
pickled by their fields, in declaration order."""

import pickle

import numpy as np
import pytest

from hypoexp import (
    ExponentialVerdict,
    HypoexpDistribution,
    Lemma2Report,
    RateVector,
    ResidualReport,
    ScaleVector,
    Series,
    StructuralCoefficients,
    WeightVector,
)
from hypoexp import oracles
from hypoexp.core import report_dict

WEIGHTS = WeightVector((2.0, -1.0), (1, -1), (0.6931471805599453, 0.0))

#: (class, fields in declaration order, exact repr of the record they build)
RECORDS = [
    (RateVector, {"rates": (1.0, 2.0)}, "RateVector(rates=(1.0, 2.0))"),
    (ScaleVector, {"scales": (1.0, 2.0)}, "ScaleVector(scales=(1.0, 2.0))"),
    (
        WeightVector,
        {"weights": (2.0, -1.0), "signs": (1, -1),
         "log_magnitudes": (0.6931471805599453, 0.0), "exact": True},
        "WeightVector(weights=(2.0, -1.0), signs=(1, -1),"
        " log_magnitudes=(0.6931471805599453, 0.0), exact=True)",
    ),
    (
        HypoexpDistribution,
        {"rates": RateVector((1.0, 2.0)), "weights": WEIGHTS},
        "HypoexpDistribution(rates=RateVector(rates=(1.0, 2.0)),"
        " weights=WeightVector(weights=(2.0, -1.0), signs=(1, -1),"
        " log_magnitudes=(0.6931471805599453, 0.0), exact=False))",
    ),
    (Series, {"coefficients": (1.0, 0.5)}, "Series(coefficients=(1.0, 0.5))"),
    (
        ResidualReport,
        {"order": 2, "residuals": (0.0, 1e-17, -0.0), "tolerance": 1e-10,
         "verdict": "exponential-compatible", "first_violation_k": None,
         "fitted_lambda": 1.0},
        "ResidualReport(order=2, residuals=(0.0, 1e-17, -0.0), tolerance=1e-10,"
        " verdict='exponential-compatible', first_violation_k=None, fitted_lambda=1.0)",
    ),
    (
        StructuralCoefficients,
        {"kind": "c", "values": (0.0, -0.5), "term_scales": (1.5, 1.75)},
        "StructuralCoefficients(kind='c', values=(0.0, -0.5), term_scales=(1.5, 1.75))",
    ),
    (
        Lemma2Report,
        {"order": 2, "weight_sum_residual": 0.0, "power_sum_residuals": (0.0,),
         "reciprocal_gaps": (0.0, 0.5), "symmetric_residuals": (0.0, 0.0),
         "tolerance": 1e-10, "passed": True},
        "Lemma2Report(order=2, weight_sum_residual=0.0, power_sum_residuals=(0.0,),"
        " reciprocal_gaps=(0.0, 0.5), symmetric_residuals=(0.0, 0.0),"
        " tolerance=1e-10, passed=True)",
    ),
    (
        ExponentialVerdict,
        {"is_exponential": True, "fitted_lambda": 2.0, "degenerate": False},
        "ExponentialVerdict(is_exponential=True, fitted_lambda=2.0, degenerate=False)",
    ),
    (
        oracles.TestReport,
        {"statistic": 0.01, "threshold": 0.1, "alpha": 0.01, "n_observations": 100,
         "n_tuples": 50, "fitted_lambda": 1.5, "seed": 7, "verdict": "consistent"},
        "TestReport(statistic=0.01, threshold=0.1, alpha=0.01, n_observations=100,"
        " n_tuples=50, fitted_lambda=1.5, seed=7, verdict='consistent')",
    ),
]

IDS = [cls.__name__ for cls, _, _ in RECORDS]


def changed(value):
    """A value unequal to ``value``, of a type the record accepts."""
    return value + (3.0,) if isinstance(value, tuple) else "changed"


@pytest.mark.parametrize("cls, fields, text", RECORDS, ids=IDS)
class TestRecord:
    def test_keyword_and_positional_construction_agree(self, cls, fields, text):
        record = cls(**fields)
        assert cls(*fields.values()) == record
        assert [getattr(record, name) for name in fields] == list(fields.values())

    def test_equal_records_are_equal_and_hash_alike(self, cls, fields, text):
        a, b = cls(**fields), cls(**fields)
        assert a is not b
        assert a == b and not a != b
        assert hash(a) == hash(b)
        assert len({a, b}) == 1

    def test_a_changed_field_is_unequal(self, cls, fields, text):
        for name, value in fields.items():
            other = dict(fields, **{name: changed(value)})
            assert cls(**fields) != cls(**other), name

    def test_only_equal_within_the_class(self, cls, fields, text):
        record = cls(**fields)
        assert record != tuple(fields.values())
        assert (record == tuple(fields.values())) is False
        assert record != object()

    def test_repr(self, cls, fields, text):
        assert repr(cls(**fields)) == text

    def test_pickle_round_trip(self, cls, fields, text):
        record = cls(**fields)
        back = pickle.loads(pickle.dumps(record))
        assert type(back) is cls
        assert back == record and hash(back) == hash(record) and repr(back) == text

    def test_fields_cannot_be_assigned_or_deleted(self, cls, fields, text):
        record = cls(**fields)
        for name, value in fields.items():
            with pytest.raises(AttributeError):
                setattr(record, name, value)
            with pytest.raises(AttributeError):
                delattr(record, name)
        with pytest.raises(AttributeError):
            record.no_such_field = 1
        assert record == cls(**fields)

    def test_bad_arguments_raise_type_error(self, cls, fields, text):
        values = list(fields.values())
        with pytest.raises(TypeError):
            cls(*values, values[0])
        with pytest.raises(TypeError):
            cls(**fields, no_such_field=1)
        with pytest.raises(TypeError):
            cls(values[0], **fields)
        with pytest.raises(TypeError):
            cls()


def test_same_values_in_another_class_are_unequal():
    assert RateVector((1.0, 2.0)) != ScaleVector((1.0, 2.0))
    assert not RateVector((1.0, 2.0)) == ScaleVector((1.0, 2.0))
    assert ScaleVector((1.0, 2.0)) != RateVector((1.0, 2.0))


def test_defaults():
    assert WeightVector((2.0, -1.0), (1, -1), (0.7, 0.0)).exact is False
    report = ResidualReport(order=1, residuals=(0.0, 0.0), tolerance=1e-10,
                            verdict="degenerate")
    assert report.first_violation_k is None
    assert report.fitted_lambda is None
    assert report == ResidualReport(1, (0.0, 0.0), 1e-10, "degenerate", None, None)


def test_cached_values_leave_identity_alone():
    dist = HypoexpDistribution.from_rates([1.0, 2.0])
    twin = HypoexpDistribution(dist.rates, dist.weights)
    dist.pdf(0.5)
    assert dist == twin and hash(dist) == hash(twin) and repr(dist) == repr(twin)


def test_grid_density_holds_arrays():
    grid, values = np.array([0.0, 0.5]), np.array([1.0, 0.5])
    record = oracles.GridDensity(grid=grid, values=values, step=0.5)
    assert repr(record) == (
        "GridDensity(grid=array([0. , 0.5]), values=array([1. , 0.5]), step=0.5)"
    )
    assert record == oracles.GridDensity(grid, values, 0.5)  # the very same arrays
    assert record != (grid, values, 0.5)
    with pytest.raises(TypeError):
        hash(record)
    with pytest.raises(AttributeError):
        record.step = 1.0
    back = pickle.loads(pickle.dumps(record))
    assert np.array_equal(back.grid, grid) and np.array_equal(back.values, values)
    assert back.step == 0.5


def test_report_dict_keeps_declaration_order():
    assert list(report_dict(WEIGHTS).items()) == [
        ("weights", [2.0, -1.0]),
        ("signs", [1, -1]),
        ("log_magnitudes", [0.6931471805599453, 0.0]),
        ("exact", False),
    ]
    for cls, fields, _ in RECORDS:
        if cls is HypoexpDistribution:
            continue
        expected = [(k, list(v) if isinstance(v, tuple) else v) for k, v in fields.items()]
        assert list(report_dict(cls(**fields)).items()) == expected, cls.__name__

"""The record types: fields in order, keyword construction, equality and
hashing, immutability and the validation their constructors do.

They are ``NamedTuple``s, so a record also equals the plain tuple of its
fields, has their number as its ``len`` and iterates over them."""

import re

import pytest

from dyckarea.datasets import ScanDataset
from dyckarea.enumeration import AreaPolynomial, CoefficientTable
from dyckarea.errors import DomainError
from dyckarea.qseries import EvalSettings, HSeriesResult, RemainderCheck
from dyckarea.special_functions import AiryPair
from dyckarea.asymptotics import SaddleData

ROW = AreaPolynomial(n=2, coeffs=(1, 1))
SADDLE = ["t", "z1", "z2", "d", "f1", "f2", "alpha", "beta", "p0_h", "q0_h", "p0_hqt", "q0_hqt"]

# type, its fields with one value each, and other values for some of them
RECORDS = [
    (AiryPair, {"ai": 0.35, "ai_prime": -0.26}, {"ai": 0.36}),
    (AreaPolynomial, {"n": 2, "coeffs": (1, 1)}, {"n": 1, "coeffs": (1,)}),
    (CoefficientTable, {"rows": (AreaPolynomial(0, (1,)), AreaPolynomial(1, (1,)), ROW)}, {"rows": ()}),
    (EvalSettings, {"q": 0.5}, {"q": 0.25}),
    (HSeriesResult, {"value": 0.8, "terms_used": 12, "bits_lost": 3.5, "last_term": 1e-17,
                     "precision_bits": 149}, {"precision_bits": 150}),
    (RemainderCheck, {"z": 0.3 + 0.3j, "remainder": 0.01j, "bound": 0.02}, {"bound": 0.03}),
    (SaddleData, {name: 0.1 * k + (1j if name in ("z1", "z2", "f1", "f2") else 0.0)
                  for k, name in enumerate(SADDLE)}, {"q0_hqt": 0.15}),
    (ScanDataset, {"kind": "g_vs_t", "columns": {"t": [0.1, 0.2], "G": [1.1, 1.3]}, "metadata": {"q": 0.5}},
     {"metadata": {}}),
]
IDS = [kind.__name__ for kind, _, _ in RECORDS]


@pytest.mark.parametrize("kind, fields, other", RECORDS, ids=IDS)
def test_fields_in_order_and_keyword_construction(kind, fields, other):
    assert list(kind._fields) == list(fields)
    record = kind(**fields)
    assert kind(*fields.values()) == record
    assert [getattr(record, name) for name in fields] == list(fields.values())
    assert tuple(record) == tuple(fields.values()) and len(record) == len(fields)


@pytest.mark.parametrize("kind, fields, other", RECORDS, ids=IDS)
def test_equality_and_hashing(kind, fields, other):
    record, same = kind(**fields), kind(**fields)
    assert record == same and not record != same
    assert record != kind(**dict(fields, **other))
    if kind is ScanDataset:  # dict fields: no hash, as before
        with pytest.raises(TypeError):
            hash(record)
    else:
        assert hash(record) == hash(same)


@pytest.mark.parametrize("kind, fields, other", RECORDS, ids=IDS)
def test_fields_cannot_be_assigned(kind, fields, other):
    record = kind(**fields)
    for name, value in fields.items():
        with pytest.raises(AttributeError):
            setattr(record, name, value)
    with pytest.raises(AttributeError):
        record.extra = 1
    assert kind(**fields) == record


@pytest.mark.parametrize("make, message", [
    (lambda: AreaPolynomial(n=3, coeffs=(1, 2, 1)), "row 3 must have 4 coefficients, got 3"),
    (lambda: AreaPolynomial(3, ()), "row 3 must have 4 coefficients, got 0"),
    (lambda: EvalSettings(q=1.5), "q must lie in (0, 1), got 1.5"),
    (lambda: EvalSettings(0.0), "q must lie in (0, 1), got 0.0"),
    (lambda: ScanDataset("g_vs_t", {"t": [0.1, 0.2], "G": [1.1]}), "ragged columns in dataset: {1, 2}"),
    (lambda: ScanDataset(kind="x", columns={"a": [1], "b": []}, metadata={}), "ragged columns in dataset: {0, 1}"),
])
def test_validation_errors(make, message):
    with pytest.raises(DomainError, match=f"^{re.escape(message)}$"):
        make()


def test_methods_and_defaults():
    assert ROW.total() == 2
    assert CoefficientTable(rows=(AreaPolynomial(0, (1,)), ROW)).n_max == 1
    assert EvalSettings(q=0.5).bits_for(0.0) == 53
    assert RemainderCheck(z=0.5, remainder=0.01, bound=0.02).within_bound
    assert not RemainderCheck(z=0.5, remainder=0.03, bound=0.02).within_bound
    # metadata defaults to a new dict for each dataset
    a, b = ScanDataset("x", {"a": [1]}), ScanDataset("x", {"a": [1]})
    assert a.metadata == {} and a.metadata is not b.metadata
    assert a.n_rows == 1 and ScanDataset("x", {}).n_rows == 0

"""Result records: immutable NamedTuples with keyword construction and a
``Name(field=value, ...)`` repr, a CLI start-up that loads neither
``dataclasses`` nor ``fractions``, and type hints that resolve."""

import os
import pathlib
import subprocess
import sys
from fractions import Fraction

import pytest

from dts_ldpc import analysis as an
from dts_ldpc.code import MinFieldParams, density
from dts_ldpc.dts import (
    DifferenceTriangleSet,
    DuplicateDifference,
    SearchCertificate,
    SearchResult,
    ValidationReport,
)

DTS = DifferenceTriangleSet(sets=((1, 2, 6), (1, 2, 4)))
CERTIFICATE = SearchCertificate(exhausted_scopes=(3, 4, 5), nodes=42)
NO_WITNESS = an.AssumptionReport(witnesses=())

# one record per class, its fields in declaration order
RECORDS = [
    (DifferenceTriangleSet, {"sets": ((1, 2, 6), (1, 2, 4))}),
    (DuplicateDifference, {"value": 1, "witnesses": ((1, 2, 1), (2, 2, 1))}),
    (ValidationReport, {"mode": "strict", "valid": False,
                        "duplicates": (DuplicateDifference(1, ((1, 2, 1), (2, 2, 1))),)}),
    (SearchCertificate, {"exhausted_scopes": (3, 4, 5), "nodes": 42}),
    (SearchResult, {"dts": DTS, "scope": 6, "certificate": CERTIFICATE}),
    (an.MinorFailure, {"rows": (2, 3, 4), "cols": (2, 5, 8), "pattern": an.PATTERN_CYCLE}),
    (an.MinorReport, {"size": 2, "horizon": 5, "class_counts": {an.PATTERN_FULL: 3},
                      "failures": ()}),
    (an.TannerCycle, {"rows": (1, 7), "cols": (1, 2), "singular": True}),
    (an.CycleReport, {"length": 6, "horizon": 5, "cycles": (), "girth": None}),
    (an.AssumptionWitness, {"rows": (3, 6), "cols": (1, 2)}),
    (an.AssumptionReport, {"witnesses": (an.AssumptionWitness(rows=(3, 6), cols=(1, 2)),)}),
    (an.DistanceProfile, {"column_distances": (2, 3, 4), "free": 4, "horizon": 2,
                          "predicted_free": 4, "predicted_column": (2, 3, 4),
                          "assumption_check": NO_WITNESS}),
    (MinFieldParams, {"q_2x2": 12, "n_3x3": 5, "q_case_ii": 9, "p": 2, "n": 5}),
]


@pytest.mark.parametrize("cls, fields", RECORDS, ids=[cls.__name__ for cls, _ in RECORDS])
def test_records_behave_as_frozen_records(cls, fields):
    record = cls(**fields)
    assert {name: getattr(record, name) for name in fields} == fields
    assert repr(record) == f"{cls.__name__}(" + ", ".join(
        f"{name}={value!r}" for name, value in fields.items()) + ")"
    for name in fields:
        with pytest.raises(AttributeError):
            setattr(record, name, fields[name])
    with pytest.raises(AttributeError):
        record.extra = 1
    twin = cls(**fields)
    assert twin == record and twin is not record
    if cls is an.MinorReport:  # its class_counts is a dict
        with pytest.raises(TypeError):
            hash(record)
    else:
        assert hash(twin) == hash(record)


def test_difference_triangle_set_checks_every_way_it_is_built():
    assert DifferenceTriangleSet(sets=[[1, 2, 6], [1, 2, 4]]) == DTS
    assert type(DTS.sets[0]) is tuple
    for build in (lambda: DifferenceTriangleSet(sets=((1, 2), (2, 1))),
                  lambda: DTS._replace(sets=((1, 2), (2, 1))),
                  lambda: DifferenceTriangleSet._make([((1, 2), (2, 1))])):
        with pytest.raises(ValueError, match="set 2 is not strictly increasing"):
            build()
    with pytest.raises(ValueError, match="at least one set is required"):
        DifferenceTriangleSet(sets=())


def test_cli_import_loads_no_dataclasses_or_fractions():
    # a fresh interpreter: pytest and hypothesis load dataclasses themselves
    root = pathlib.Path(__file__).resolve().parents[1]
    probe = ("import sys, dts_ldpc.cli; "
             "print(sorted({'dataclasses', 'inspect', 'fractions', 'decimal'} & set(sys.modules)))")
    proc = subprocess.run(
        [sys.executable, "-c", probe],
        cwd=root, env={**os.environ, "PYTHONPATH": str(root / "src")},
        capture_output=True, text=True, timeout=60,
    )
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, "[]\n", "")
    assert type(density(3, 3, 5, 18)) is Fraction


# every function, method, property and class of the package, by name, with the
# names of its type hints that do not resolve
HINTS_PROBE = """
import functools, importlib, inspect, pkgutil, typing
typing.TYPE_CHECKING = True  # as a type checker reads the package
import dts_ldpc
failed = []
def check(name, obj):
    try:
        typing.get_type_hints(obj)
    except Exception as exc:
        failed.append((name, repr(exc)))
for info in pkgutil.iter_modules(dts_ldpc.__path__):
    if info.name == "__main__":  # running it parses the command line
        continue
    module = importlib.import_module("dts_ldpc." + info.name)
    for name, obj in vars(module).items():
        if getattr(obj, "__module__", None) != module.__name__:
            continue
        if inspect.isfunction(obj):
            check(name, obj)
        elif inspect.isclass(obj):
            check(name, obj)
            for attr, member in vars(obj).items():
                member = getattr(member, "__func__", member)  # classmethod, staticmethod
                member = getattr(member, "fget", None) or getattr(member, "func", member)  # properties
                if inspect.isfunction(member) and member.__module__ == module.__name__:
                    check(name + "." + attr, member)
print(failed)
"""


def test_every_type_hint_resolves():
    # a fresh interpreter, so the package is imported with TYPE_CHECKING set
    # and names imported only for the type checker (code.density's Fraction) count
    root = pathlib.Path(__file__).resolve().parents[1]
    proc = subprocess.run(
        [sys.executable, "-c", HINTS_PROBE],
        cwd=root, env={**os.environ, "PYTHONPATH": str(root / "src")},
        capture_output=True, text=True, timeout=60,
    )
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, "[]\n", "")

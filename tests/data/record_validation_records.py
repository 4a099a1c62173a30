"""Regenerate validation_records.json from a full validation run.

The file pins every record of ``geodet validate`` in the order the suite
reports them: name, expected value, tolerance, pass flag and computed value
(``runtime_ms`` is left out).  ``tests/test_validation.py`` compares a fresh
run against it.  Run from the root of a source checkout:

    PYTHONPATH=src python tests/data/record_validation_records.py

The script prints each record whose pinned fields changed.  A numpy
RuntimeWarning is an error here, as it is in the tests.
"""

import dataclasses
import json
import pathlib
import warnings

from geodet.validation import run_validation

RECORDS = pathlib.Path(__file__).with_name("validation_records.json")
FIELDS = ("check_name", "expected", "tolerance", "passed", "computed")


def record() -> list:
    """The pinned fields of every record of one full validation run."""
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        records = run_validation()
    return [{key: dataclasses.asdict(rec)[key] for key in FIELDS} for rec in records]


def regenerate() -> list:
    """Record the suite again; return the names whose pinned fields changed."""
    old = json.loads(RECORDS.read_text()) if RECORDS.exists() else []
    old = {rec["check_name"]: rec for rec in old}
    new = record()
    RECORDS.write_text(json.dumps(new, indent=1) + "\n")
    return [rec["check_name"] for rec in new if old.get(rec["check_name"]) != rec]


if __name__ == "__main__":
    for name in regenerate():
        print(name)

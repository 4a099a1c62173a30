"""Regenerate validation_records.json from a full validation run.

The file pins every record of ``geodet validate`` in the order the suite
reports them: name, expected value, tolerance, pass flag and computed value
(``runtime_ms`` is left out).  ``tests/test_validation.py`` compares a fresh
run against it.  Run from the root of a source checkout:

    PYTHONPATH=src python tests/data/record_validation_records.py            # every record
    PYTHONPATH=src python tests/data/record_validation_records.py NAME ...   # only these

Records not named keep their pinned fields, so a change meant to move some
records pins no drift of the others; a name the suite does not report is an
error.  The script prints each record whose pinned fields changed, with its
old and new ``computed`` value, their relative move and any other field that
moved.  A numpy RuntimeWarning is an error here, as it is in the tests.
"""

import dataclasses
import json
import pathlib
import sys
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


def regenerate(names=None) -> list:
    """Record ``names`` (default: all) again; return (old or None, new) for each record that changed."""
    old = json.loads(RECORDS.read_text()) if RECORDS.exists() else []
    old = {rec["check_name"]: rec for rec in old}
    fresh = {rec["check_name"]: rec for rec in record()}
    unknown = set(names or ()) - set(fresh)
    if unknown:
        raise SystemExit(f"no validation record named {', '.join(sorted(unknown))}")
    pinned = {**old, **{name: fresh[name] for name in names}} if names else fresh
    new = [pinned[name] for name in sorted(pinned)]
    RECORDS.write_text(json.dumps(new, indent=1) + "\n")
    return [(old.get(rec["check_name"]), rec) for rec in new if old.get(rec["check_name"]) != rec]


def describe(old, new) -> str:
    """One line naming a changed record and what moved in it."""
    name, value = new["check_name"], new["computed"]
    if old is None:
        return f"{name}: new record, computed {value!r}"
    line = f"{name}: computed {old['computed']!r} -> {value!r}"
    if old["computed"] != value:
        if old["computed"]:
            line += f" (relative move {abs(value - old['computed']) / abs(old['computed']):.2g})"
        else:
            line += f" (absolute move {abs(value):.2g})"
    for key in FIELDS[:-1]:
        if old[key] != new[key]:
            line += f"; {key} {old[key]!r} -> {new[key]!r}"
    return line


if __name__ == "__main__":
    for old, new in regenerate(sys.argv[1:]):
        print(describe(old, new))

"""The validation suite: one full run against its pinned records."""

import collections
import json
import pathlib

import pytest

from geodet import galerkin
from geodet.validation import run_validation

PINNED = json.loads(
    (pathlib.Path(__file__).parent / "data" / "validation_records.json").read_text()
)
COUNTED = (
    "fredholm_det", "fredholm_det_deflated", "evaluation_map_jacobian", "fredholm_det_piecewise",
)


def counted_run(name_filter=None):
    """(records, calls per COUNTED function) of one validation run."""
    calls = collections.Counter()

    def counting(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    with pytest.MonkeyPatch.context() as mp:
        for name in COUNTED:
            mp.setattr(galerkin, name, counting(name, getattr(galerkin, name)))
        records = run_validation(name_filter)
    return records, calls


@pytest.fixture(scope="module")
def full_run():
    return counted_run()


def test_full_run_matches_pinned_records(full_run):
    records, _ = full_run
    got = [(r.check_name, r.expected, r.tolerance, r.passed) for r in records]
    want = [(p["check_name"], p["expected"], p["tolerance"], p["passed"]) for p in PINNED]
    assert got == want
    for rec, pin in zip(records, PINNED):
        # ratios of rounding-level errors (rk4-order4-step-halving) move in
        # late digits across numpy builds; every other record is far tighter
        bound = max(1e-9, 0.01 * pin["tolerance"]) * max(1.0, abs(pin["computed"]))
        assert abs(rec.computed - pin["computed"]) <= bound, rec.check_name


def test_full_run_computes_each_shared_quantity_once(full_run):
    # 25 distinct Fourier determinants plus the determinism record's two
    # reports; one deflated determinant per dimension; one mesh sweep of five
    # evaluation maps per scaling case plus the flat record; one piecewise
    # level per filtration case and segment count
    _, calls = full_run
    assert dict(calls) == {
        "fredholm_det": 27,
        "fredholm_det_deflated": 2,
        "evaluation_map_jacobian": 16,
        "fredholm_det_piecewise": 12,
    }


def test_filtered_run_computes_only_what_it_reads():
    records, calls = counted_run("eval-jacobian-mesh2")
    assert len(records) == 6
    assert dict(calls) == {"evaluation_map_jacobian": 15}

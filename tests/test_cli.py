"""CLI behavior: dispatch, formats, config files, exit codes, determinism."""

import json
import math
import pathlib
import re
import warnings

import numpy as np
import pytest

from geodet.cli import USAGE, build_report, main, parse_config_text
from geodet.errors import UsageError


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_det_fredholm_json(capsys):
    code, out, _ = run_cli(
        capsys, "det-fredholm", "--kappa", "1", "--r", "1.5707963267948966", "--n", "3"
    )
    assert code == 0
    report = json.loads(out)
    assert report["command"] == "det-fredholm"
    assert report["route"] == "fredholm_fourier"
    assert report["value"] == pytest.approx(0.4052847, abs=1e-6)
    assert len(report["series"]) == 4


def test_det_zeta_laplacian(capsys):
    code, out, _ = run_cli(capsys, "det-zeta", "--laplacian", "--t", "1", "--n", "3")
    assert code == 0
    assert json.loads(out)["value"] == 8.0


def test_det_gy_matches_fredholm(capsys):
    code, out, _ = run_cli(capsys, "det-gy", "--kappa", "-1", "--r", "1", "--n", "2")
    assert code == 0
    assert json.loads(out)["value"] == pytest.approx(np.sinh(1.0), abs=1e-8)


def test_eval_jacobian_flat(capsys):
    code, out, _ = run_cli(
        capsys, "eval-jacobian", "--kappa", "0", "--r", "1", "--n", "2", "--partition-N", "8"
    )
    assert code == 0
    assert json.loads(out)["value"] == 1.0


def test_eval_jacobian_flat_huge_speed(capsys):
    # kappa r^2 = 0 passes the GeodesicData check; r**2 raised OverflowError
    code, out, err = run_cli(
        capsys, "eval-jacobian", "--kappa", "0", "--r", "1e200", "--n", "2", "--partition-N", "2"
    )
    assert code == 0 and err == ""
    assert json.loads(out)["value"] == 1.0


def test_no_arguments_usage_exit_2(capsys):
    code, out, err = run_cli(capsys)
    assert code == 2
    assert "usage:" in err


@pytest.mark.parametrize("argv", [["--help"], ["det-gy", "-h"]])
def test_help_prints_usage_to_stdout_exit_0(capsys, argv):
    assert run_cli(capsys, *argv) == (0, USAGE, "")


def test_unknown_command_exit_2(capsys):
    code, _, err = run_cli(capsys, "det-everything")
    assert code == 2
    assert "unknown command" in err


def test_missing_required_exit_2(capsys):
    code, _, err = run_cli(capsys, "det-fredholm", "--kappa", "1")
    assert code == 2
    assert "missing required" in err


def test_module_error_surfaces_named_exit_1(capsys):
    # antipodal input makes the truncation singular: named error, exit 1
    code, out, _ = run_cli(
        capsys, "det-fredholm", "--kappa", "1", "--r", "3.141592653589793", "--n", "2"
    )
    assert code == 1
    report = json.loads(out)
    assert report["error"] == "DegenerateOperatorError"
    assert "message" in report


def test_near_conjugate_fredholm_is_degenerate_exit_1(capsys):
    # the finest truncation has the eigenvalue 2.3e-9: a numeric kernel,
    # not a determinant of 1e-18
    code, out, _ = run_cli(
        capsys, "det-fredholm", "--kappa", "1", "--r", "3.14159265", "--n", "3"
    )
    assert code == 1
    assert json.loads(out)["error"] == "DegenerateOperatorError"


@pytest.mark.parametrize("fmt", ["text", "csv"])
def test_module_error_follows_format(capsys, fmt):
    code, out, _ = run_cli(
        capsys,
        "det-fredholm", "--kappa", "1", "--r", "3.141592653589793", "--n", "2",
        "--format", fmt,
    )
    assert code == 1
    assert "DegenerateOperatorError" in out
    if fmt == "text":
        assert out.startswith("error: DegenerateOperatorError: ")
    else:
        lines = out.strip().splitlines()
        assert lines[0] == "command,error,message"
        assert lines[1].startswith("det-fredholm,DegenerateOperatorError,")


def test_heat_limit_command(capsys):
    code, out, _ = run_cli(
        capsys,
        "heat-limit",
        "--n", "2", "--radius", "1", "--case", "antipodal",
        "--t0", "0.2", "--levels", "4",
    )
    assert code == 0
    report = json.loads(out)
    assert report["inputs"]["predicted_limit"] == pytest.approx(2 * np.pi**2, rel=1e-12)
    assert abs(report["value"] - 2 * np.pi**2) < 0.05
    assert len(report["series"]) == 4


@pytest.mark.parametrize("d", ["3.1415926535893", "3.141592653589793", "4"])
def test_heat_limit_at_conjugate_distance_exit_1(capsys, d):
    # the nondegenerate limit needs a unique minimizer, which ends at pi R:
    # within 1e-12 of it, at it and beyond it the error is the same
    code, out, _ = run_cli(
        capsys, "heat-limit", "--n", "3", "--radius", "1", "--case", "nondegenerate", "--d", d
    )
    assert code == 1
    assert json.loads(out)["error"] == "ConjugatePointError"


def test_every_error_class_is_exported_and_raised():
    # a class no module raises is dead, or a second name for another's condition
    import geodet
    from geodet import errors

    classes = [
        cls for cls in vars(errors).values()
        if isinstance(cls, type) and issubclass(cls, errors.GeodetError) and cls is not errors.GeodetError
    ]
    src = pathlib.Path(errors.__file__).parent
    text = "\n".join(p.read_text() for p in sorted(src.glob("*.py")) if p.name != "errors.py")
    for cls in classes:
        assert getattr(geodet, cls.__name__, None) is cls, cls.__name__
        assert re.search(rf"raise {cls.__name__}\b", text), cls.__name__


def test_csv_format(capsys):
    code, out, _ = run_cli(
        capsys,
        "det-fredholm", "--kappa", "1", "--r", "1.0", "--n", "2",
        "--modes", "16,32", "--format", "csv",
    )
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "level,value"
    assert lines[-1].startswith("final,")


def test_text_format(capsys):
    code, out, _ = run_cli(
        capsys, "det-zeta", "--laplacian", "--t", "0.5", "--n", "1", "--format", "text"
    )
    assert code == 0
    assert "value: 1" in out


def test_bad_format_rejected(capsys):
    code, _, err = run_cli(capsys, "det-zeta", "--laplacian", "--n", "1", "--format", "xml")
    assert code == 2


def test_out_file(tmp_path, capsys):
    target = tmp_path / "report.json"
    code, out, _ = run_cli(
        capsys, "det-zeta", "--laplacian", "--n", "2", "--out", str(target)
    )
    assert code == 0
    assert out == ""
    assert json.loads(target.read_text())["value"] == 4.0


@pytest.mark.parametrize(
    "argv",
    [
        ["det-gy", "--kappa", "1", "--r", "1", "--n", "2"],
        # ends in DegenerateOperatorError, so the error report is the one written
        ["det-gy", "--kappa", "1", "--r", "3.141592653589793", "--n", "2"],
    ],
    ids=["report", "error-report"],
)
def test_unwritable_out_file_is_usage_error(tmp_path, capsys, argv):
    target = tmp_path / "missing" / "report.json"
    code, out, err = run_cli(capsys, *argv, "--out", str(target))
    assert code == 2
    assert out == ""
    assert err.startswith("error: cannot write output file: ")
    assert err.count("\n") == 1
    assert not target.exists()


def test_config_file_with_flag_override(tmp_path, capsys):
    cfg = tmp_path / "run.toml"
    cfg.write_text(
        "# determinant run\n"
        'command = "det-fredholm"\n'
        "kappa = 1.0\n"
        "r = 1.0\n"
        "n = 3\n"
        "modes = [16, 32]\n"
    )
    code, out, _ = run_cli(capsys, "--config", str(cfg))
    assert code == 0
    base = json.loads(out)
    assert base["inputs"]["n"] == 3
    # flags override file values
    code, out, _ = run_cli(capsys, "--config", str(cfg), "--n", "2")
    assert code == 0
    assert json.loads(out)["inputs"]["n"] == 2


def test_config_tables_rejected():
    with pytest.raises(UsageError, match="tables"):
        parse_config_text('n = 2\n[run]\nkappa = 1.0\n')


def test_config_parser_values():
    parsed = parse_config_text(
        'command = "validate"\nflag = true\nxs = [1, 2, 3]\nv = 2.5  # trailing\n'
    )
    assert parsed == {"command": "validate", "flag": True, "xs": [1, 2, 3], "v": 2.5}


@pytest.mark.parametrize(
    "argv, inputs",
    [
        (
            ["det-fredholm", "--kappa", "1", "--r", "1", "--n", "2"],
            {"kappa": 1.0, "r": 1.0, "n": 2, "modes": [64, 128, 256, 512]},
        ),
        (
            ["det-gy", "--kappa", "0.5", "--r", "1", "--n", "2"],
            {"kappa": 0.5, "r": 1.0, "n": 2, "steps": 2048},
        ),
        (
            ["det-zeta", "--laplacian", "--n", "2"],
            # the closed form takes no step count, so none is echoed
            {"laplacian": True, "n": 2, "t": 1.0},
        ),
        (
            ["det-zeta", "--kappa", "0.5", "--r", "1", "--n", "2", "--steps", "512"],
            {"kappa": 0.5, "r": 1.0, "n": 2, "t": 1.0, "steps": 512},
        ),
        (
            ["heat-limit", "--n", "2", "--radius", "1", "--case", "antipodal"],
            {"n": 2, "radius": 1.0, "case": "antipodal", "t0": 0.2, "levels": 5, "k": 1},
        ),
        (
            ["eval-jacobian", "--kappa", "1", "--r", "1", "--n", "2", "--partition-N", "4"],
            {"kappa": 1.0, "r": 1.0, "n": 2, "partition-N": 4},
        ),
        (["validate", "--filter", "zeta-laplacian"], {"filter": "zeta-laplacian"}),
    ],
    ids=["det-fredholm", "det-gy", "det-zeta-laplacian", "det-zeta", "heat-limit",
         "eval-jacobian", "validate"],
)
def test_report_inputs_with_defaults(capsys, argv, inputs):
    code, out, _ = run_cli(capsys, *argv)
    assert code == 0
    got = json.loads(out)["inputs"]
    if argv[0] == "heat-limit":
        assert got.pop("predicted_limit") == pytest.approx(2 * np.pi**2, rel=1e-12)
    assert got == inputs


@pytest.mark.parametrize(
    "argv, config",
    [
        (["det-gy", "--kappa", "abc", "--r", "1", "--n", "2"], None),
        (["det-fredholm", "--kappa", "1", "--r", "1", "--n", "2", "--modes", "16,x"], None),
        (["det-gy", "--kappa", "1", "--r", "1", "--n", "2.5"], None),
        ([], 'command = "det-gy"\nkappa = "abc"\nr = 1.0\nn = 2\n'),
        # TOML floats and bools are not truncated to integers or read as numbers
        ([], 'command = "det-gy"\nkappa = 1.0\nr = 1.0\nn = 2.5\n'),
        ([], 'command = "det-gy"\nkappa = 1.0\nr = 1.0\nn = true\n'),
        ([], 'command = "det-gy"\nkappa = true\nr = 1.0\nn = 2\n'),
        ([], 'command = "det-fredholm"\nkappa = 1.0\nr = 1.0\nn = 2\nmodes = [16, 32.5]\n'),
        ([], '[run]\ncommand = "det-gy"\nkappa = 1.0\nr = 1.0\nn = 2\n'),
        ([], 'command = "det-gy"\nkappa 1.0\n'),
        # configs are strict TOML: lowercase booleans, each key once
        ([], 'command = "det-zeta"\nlaplacian = True\nn = 2\n'),
        ([], 'command = "det-gy"\nkappa = 1.0\nkappa = 2.0\nr = 1.0\nn = 2\n'),
    ],
    ids=["kappa-abc", "modes-16x", "n-2.5", "config-kappa-abc", "config-n-2.5", "config-n-true",
         "config-kappa-true", "config-modes-float", "config-table", "config-syntax",
         "config-bool-case", "config-repeated-key"],
)
def test_malformed_options_are_usage_errors(tmp_path, capsys, argv, config):
    if config is not None:
        cfg = tmp_path / "run.toml"
        cfg.write_text(config)
        argv = ["--config", str(cfg)] + argv
    code, out, err = run_cli(capsys, *argv)
    assert code == 2
    assert out == ""
    assert err.startswith("usage:")
    assert err.splitlines()[-1].startswith("error: ")


def test_reports_byte_stable(tmp_path, capsys):
    args = ["det-gy", "--kappa", "0.3", "--r", "1.0", "--n", "2", "--steps", "256"]
    f1, f2 = tmp_path / "a.json", tmp_path / "b.json"
    assert main(args + ["--out", str(f1)]) == 0
    assert main(args + ["--out", str(f2)]) == 0
    capsys.readouterr()
    assert f1.read_bytes() == f2.read_bytes()


REPORTS = json.loads((pathlib.Path(__file__).parent / "data" / "cli_reports.json").read_text())


@pytest.mark.parametrize("case", sorted(REPORTS))
def test_reports_match_recorded_bytes(capsys, case):
    # recorded when the CLI ran every determinant a second time at steps // 2
    # for its error estimate; the routes' own fine/coarse pairs reproduce the
    # values, estimates and error messages byte for byte
    rec = REPORTS[case]
    code, out, err = run_cli(capsys, *rec["argv"])
    assert (code, out, err) == (rec["exit"], rec["stdout"], rec["stderr"])


def test_pinned_jacobi_reports_stay_at_n_up_to_8():
    # the end chain of a Jacobi run is bit-stable across the Haswell, Zen and
    # AVX-512 BLAS kernels for n <= 8 only (gelfand_yaglom._end_state), so a
    # pinned report with a value read off a run keeps to those n
    def reads_a_run(argv):
        command = argv[0]
        if command == "det-gy":
            return True
        if command == "det-zeta":
            return "--laplacian" not in argv
        return command == "heat-limit" and argv[argv.index("--case") + 1] == "nondegenerate"

    pinned = {case: rec["argv"] for case, rec in REPORTS.items() if rec["exit"] == 0 and reads_a_run(rec["argv"])}
    assert {argv[0] for argv in pinned.values()} == {"det-gy", "det-zeta", "heat-limit"}
    assert {case: int(argv[argv.index("--n") + 1]) for case, argv in pinned.items()
            if int(argv[argv.index("--n") + 1]) > 8} == {}


def test_build_report_deterministic_dict():
    params = {"command": "det-fredholm", "kappa": -1.0, "r": 1.0, "n": 2, "modes": [16, 32]}
    a = json.dumps(build_report(dict(params)), sort_keys=True)
    b = json.dumps(build_report(dict(params)), sort_keys=True)
    assert a == b


def test_build_report_rejects_unknown_command():
    with pytest.raises(UsageError, match="unknown command 'nope'"):
        build_report({"command": "nope"})


def test_validate_text_format(capsys):
    # runtime_ms makes the bytes unstable: check the record lines and the summary
    code, out, _ = run_cli(capsys, "validate", "--filter", "trace-identity", "--format", "text")
    assert code == 0
    lines = out.splitlines()
    records = [line for line in lines if line.startswith(("PASS", "FAIL"))]
    assert len(records) == 24
    assert all(line.startswith("PASS  trace-identity-") for line in records)
    assert lines[-1] == "summary: 24/24 passed, 0 failed"


def test_validate_filtered_subset(capsys):
    code, out, _ = run_cli(
        capsys, "validate", "--filter", "zeta-laplacian", "--format", "json"
    )
    assert code == 0
    report = json.loads(out)
    assert report["value"] == 0.0
    names = [rec["check_name"] for rec in report["series"]]
    assert names == ["zeta-laplacian-closed-form"]
    assert all(rec["passed"] for rec in report["series"])


def test_validate_filter_matching_nothing_is_usage_error(capsys):
    # a mistyped filter must not read as a passing validation
    code, out, err = run_cli(capsys, "validate", "--filter", "zzz")
    assert code == 2
    assert out == ""
    assert err == "error: no validation record matches --filter 'zzz'\n"


def test_validate_json_with_numpy_expected_values(capsys):
    # this record's expected value is a numpy float, so its pass flag must
    # still come out as a JSON-serializable Python bool
    code, out, _ = run_cli(
        capsys, "validate", "--filter", "fredholm-hyperbolic", "--format", "json"
    )
    assert code == 0
    report = json.loads(out)
    assert [rec["passed"] for rec in report["series"]] == [True]


def test_validate_records_sorted_and_complete(capsys):
    code, out, _ = run_cli(capsys, "validate", "--filter", "bernoulli", "--format", "json")
    assert code == 0
    report = json.loads(out)
    names = [rec["check_name"] for rec in report["series"]]
    assert names == sorted(names)
    assert len(names) == 3
    for rec in report["series"]:
        assert set(rec) == {
            "check_name", "expected", "computed", "tolerance", "passed", "runtime_ms",
        }


def test_validate_csv_format(capsys):
    code, out, _ = run_cli(
        capsys, "validate", "--filter", "telescoping", "--format", "csv"
    )
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0].startswith("check_name,")
    assert lines[1].startswith("telescoping-partial-product,")


@pytest.mark.parametrize("command", ["det-gy", "det-zeta"])
def test_overflowing_propagation_exit_1(capsys, command):
    # sinh(sqrt(1e6)) overflows float64: a named error, not NaN with exit 0
    code, out, _ = run_cli(capsys, command, "--kappa", "-1e4", "--r", "10", "--n", "2")
    assert code == 1
    assert json.loads(out)["error"] == "IntegrationError"


def test_det_gy_antipodal_is_degenerate_exit_1(capsys):
    code, out, _ = run_cli(
        capsys, "det-gy", "--kappa", "1", "--r", "3.141592653589793", "--n", "3"
    )
    assert code == 1
    report = json.loads(out)
    assert report["error"] == "DegenerateOperatorError"
    assert "det-zeta" in report["message"]


def test_det_gy_near_conjugate_is_not_degenerate(capsys):
    # det J(1) = (sin r / r)^3 ~ 3.3e-7 is small, but J(1) has no kernel
    code, out, _ = run_cli(capsys, "det-gy", "--kappa", "1", "--r", "3.12", "--n", "4")
    assert code == 0
    assert json.loads(out)["value"] == pytest.approx((math.sin(3.12) / 3.12) ** 3, rel=1e-9, abs=0.0)


def run_interpreter(*args):
    """Run a fresh interpreter that imports geodet from this tree; the finished process."""
    import os
    import subprocess
    import sys

    import geodet

    src = os.path.dirname(os.path.dirname(os.path.abspath(geodet.__file__)))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    return subprocess.run(
        [sys.executable, *args], capture_output=True, text=True, check=True, env=env
    )


def run_python(code):
    """Run code in a fresh interpreter that imports geodet from this tree; its stdout."""
    return run_interpreter("-c", code).stdout.strip()


def test_cli_import_leaves_scipy_out():
    assert run_python("import sys, geodet.cli; print('scipy' in sys.modules)") == "False"


_ABSENT_FROM_GY = ["geodet.galerkin", "geodet.heat", "numpy.polynomial"]
_ABSENT_FROM_GALERKIN = ["geodet.gelfand_yaglom", "geodet.heat"]
# the closed form (2t)^n is taken in Python floats, with no route module and no numpy
_ABSENT_FROM_LAPLACIAN = ["numpy", "dataclasses", "inspect", "geodet.geometry", "geodet.gelfand_yaglom",
                          "geodet.galerkin", "geodet.heat", "geodet.interval"]


@pytest.mark.parametrize(
    "argv, absent",
    [
        (["det-gy", "--kappa", "0.5", "--r", "1", "--n", "3"], _ABSENT_FROM_GY),
        (["det-zeta", "--kappa", "0.5", "--r", "1", "--n", "3"], _ABSENT_FROM_GY),
        (["det-zeta", "--laplacian", "--t", "1", "--n", "3"], _ABSENT_FROM_LAPLACIAN),
        (["heat-limit", "--n", "3", "--radius", "1", "--case", "nondegenerate", "--d", "1"],
         ["geodet.galerkin"]),
        (["det-fredholm", "--kappa", "1", "--r", "1", "--n", "3", "--modes", "16,32"], _ABSENT_FROM_GALERKIN),
        (["eval-jacobian", "--kappa", "1", "--r", "1", "--n", "3", "--partition-N", "8"], _ABSENT_FROM_GALERKIN),
        (["validate", "--filter", "bernoulli-series"], _ABSENT_FROM_GALERKIN),
        (["validate", "--filter", "zeta-laplacian"], ["numpy", *_ABSENT_FROM_LAPLACIAN[3:]]),
    ],
    ids=["det-gy", "det-zeta", "det-zeta-laplacian", "heat-limit", "det-fredholm", "eval-jacobian",
         "validate-bernoulli", "validate-zeta-laplacian"],
)
def test_command_imports_only_its_routes(argv, absent):
    code = (
        "import contextlib, io, sys, geodet.cli\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        f"    code = geodet.cli.main({argv!r})\n"
        f"print(code, [name for name in {absent!r} if name in sys.modules])"
    )
    assert run_python(code) == "0 []"


def test_package_import_loads_no_route():
    code = "import sys, geodet; print(sorted(m for m in sys.modules if m.startswith(('geodet.', 'numpy'))))"
    assert run_python(code) == "[]"


def test_module_run_holds_one_copy_of_the_cli():
    # the determinism record imports geodet.cli by name; run as
    # ``python -m geodet.cli`` it must find the running module, not load a second
    proc = run_interpreter(
        "-X", "importtime", "-m", "geodet.cli", "validate", "--filter", "determinism"
    )
    assert json.loads(proc.stdout)["value"] == 0.0
    imported = [line.rsplit("|", 1)[-1].strip() for line in proc.stderr.splitlines()]
    assert "geodet.validation" in imported and "geodet.cli" not in imported


def test_cli_runs_without_mpmath():
    # t0 = 0.2 with 5 levels reaches t = 0.0125, 86 digits of cancellation
    code = (
        "import contextlib, io, sys, geodet.cli\n"
        "imported = 'mpmath' in sys.modules\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    code = geodet.cli.main(['heat-limit', '--n', '2', '--radius', '1', '--case', 'antipodal'])\n"
        "print(imported, code, 'mpmath' in sys.modules)"
    )
    assert run_python(code) == "False 0 False"


def test_eval_jacobian_steep_negative_curvature(capsys):
    # kappa r^2 = -1e8: sinh overflowed in the segment stiffness and the
    # value came out NaN; the Gram tends to (2/delta) m, m = sqrt(-kappa) r
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        code, out, err = run_cli(
            capsys, "eval-jacobian", "--kappa", "-1e6", "--r", "10", "--n", "2", "--partition-N", "2"
        )
    assert code == 0 and err == ""
    assert json.loads(out)["value"] == pytest.approx(0.02, rel=1e-12)


def test_steep_negative_curvature_names_where_propagation_leaves_float64(capsys):
    # the blocked propagation names the first grid point beyond float64, the
    # point the per-step loop Y + D_m Y names: grid index 1879 of 2048, where
    # J' = sqrt(6e5) cosh(sqrt(6e5) s) overflows
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        code, out, err = run_cli(capsys, "det-gy", "--kappa", "-6e5", "--r", "1", "--n", "2")
    assert code == 1 and err == ""
    report = json.loads(out)
    assert report["error"] == "IntegrationError"
    assert report["message"] == "J or J' left the float64 range at s = 0.9175 of t = 1"


def test_steep_negative_curvature_within_float64_has_a_value(capsys):
    # at kappa = -5e5 J and J' stay finite, so det J(1) = sinh(707.1)/707.1
    # = 8.751e303 has a value; the propagation of the second solution, whose
    # K' = sqrt(5e5) sinh(sqrt(5e5) s) no route reads, raised IntegrationError
    # at s = 0.9956.  RK4 at 2048 steps is 6% low, with an estimate of half
    # that error
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        code, out, err = run_cli(capsys, "det-gy", "--kappa", "-5e5", "--r", "1", "--n", "2")
    assert code == 0 and err == ""
    report = json.loads(out)
    assert report["value"] == pytest.approx(8.7510e303, rel=0.07)
    assert 0.5 * 5.3e302 < report["error_estimate"] < 5.3e302


@pytest.mark.parametrize(
    "n, error",
    [(33, "DomainError"), (50, "DomainError"), (71, "DomainError"), (72, "DomainError"),
     (73, "DomainError"), (74, "DomainError"), (99, "DomainError"), (100, "DomainError"),
     (343, "OutOfScopeError"), (344, "OutOfScopeError")],
)
def test_high_dimensional_antipodal_heat_limit_ends_in_a_named_error(capsys, n, error):
    # the closed-form kernel at t/R^2 = 0.1 is past its jets' reach from S^33
    # on: it lost digits without an error (8e-4 at n = 50, 8.23e27 for the
    # limit 3.03e13 at n = 72), cancelled to a value <= 0 (odd n from 71) or
    # overflowed a 1/k! (even n >= 74); Gamma overflows in the volume and the
    # limit from n = 343: raw ValueError and OverflowError tracebacks
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        code, out, err = run_cli(capsys, "heat-limit", "--n", str(n), "--radius", "1", "--case", "antipodal")
    assert (code, err, json.loads(out)["error"]) == (1, "", error)


@pytest.mark.parametrize(
    "argv, error",
    [
        # (2t)^n overflows: inf for t = 1e308, OverflowError for t = 1e200
        (["det-zeta", "--laplacian", "--t", "1e308", "--n", "2"], "DomainError"),
        (["det-zeta", "--laplacian", "--t", "1e200", "--n", "2"], "DomainError"),
        # kappa r^2 overflows: NaN with exit 0, a LinAlgError traceback, or
        # IntegrationError after a RuntimeWarning
        (["eval-jacobian", "--kappa", "-1e308", "--r", "10", "--n", "2", "--partition-N", "2"], "DomainError"),
        (["det-fredholm", "--kappa", "-1e308", "--r", "2", "--n", "3"], "DomainError"),
        (["det-gy", "--kappa", "-1e308", "--r", "2", "--n", "3"], "DomainError"),
        (["det-zeta", "--kappa", "-1e308", "--r", "2", "--n", "3"], "DomainError"),
        # the 512-mode determinant exp(log|det|) overflows: inf with exit 0
        (["det-fredholm", "--kappa", "-1e4", "--r", "10", "--n", "2"], "DomainError"),
        # the tail series in c/k^2 diverges: c = 5e5/pi^2 > (64 + 1)^2
        (["det-fredholm", "--kappa", "-5e5", "--r", "1", "--n", "2", "--modes", "32,64"], "DomainError"),
        # J stays finite but det J overflows: np.linalg.det warned before the
        # IntegrationError, a traceback under -W error::RuntimeWarning
        (["det-zeta", "--kappa", "-3e5", "--r", "1", "--n", "3"], "IntegrationError"),
        (["det-gy", "--kappa", "-3e5", "--r", "1", "--n", "3"], "IntegrationError"),
        # det J(1) = 1.7e307 is finite but (2t)^n det J(1) is not: inf with exit 0
        (["det-zeta", "--kappa", "-33400", "--r", "1", "--n", "5"], "IntegrationError"),
    ],
    ids=["laplacian-t-1e308", "laplacian-t-1e200", "eval-jacobian-kappa-r2", "det-fredholm-kappa-r2",
         "det-gy-kappa-r2", "det-zeta-kappa-r2", "det-fredholm-overflow", "det-fredholm-divergent-tail",
         "det-zeta-det-overflow", "det-gy-det-overflow", "det-zeta-scaling-overflow"],
)
def test_float64_range_exit_1(capsys, argv, error):
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        code, out, err = run_cli(capsys, *argv)
    assert code == 1
    assert err == ""
    assert json.loads(out)["error"] == error

"""CLI behavior: dispatch, formats, config files, exit codes, determinism."""

import json
import math
import pathlib
import warnings

import numpy as np
import pytest

from geodet.cli import build_report, main, parse_config_text
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


def test_no_arguments_usage_exit_2(capsys):
    code, out, err = run_cli(capsys)
    assert code == 2
    assert "usage:" in err


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
            {"laplacian": True, "n": 2, "t": 1.0, "steps": 2048},
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


def test_build_report_deterministic_dict():
    params = {"command": "det-fredholm", "kappa": -1.0, "r": 1.0, "n": 2, "modes": [16, 32]}
    a = json.dumps(build_report(dict(params)), sort_keys=True)
    b = json.dumps(build_report(dict(params)), sort_keys=True)
    assert a == b


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
    assert json.loads(out)["value"] == pytest.approx((math.sin(3.12) / 3.12) ** 3, rel=1e-9)


def run_python(code):
    """Run code in a fresh interpreter that imports geodet from this tree; its stdout."""
    import os
    import subprocess
    import sys

    import geodet

    src = os.path.dirname(os.path.dirname(os.path.abspath(geodet.__file__)))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    out = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, check=True, env=env
    )
    return out.stdout.strip()


def test_cli_import_leaves_scipy_out():
    assert run_python("import sys, geodet.cli; print('scipy' in sys.modules)") == "False"


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


@pytest.mark.parametrize(
    "argv",
    [
        # (2t)^n overflows: inf for t = 1e308, OverflowError for t = 1e200
        ["det-zeta", "--laplacian", "--t", "1e308", "--n", "2"],
        ["det-zeta", "--laplacian", "--t", "1e200", "--n", "2"],
        # kappa r^2 overflows: NaN with exit 0
        ["eval-jacobian", "--kappa", "-1e308", "--r", "10", "--n", "2", "--partition-N", "2"],
        # the 512-mode determinant exp(log|det|) overflows: inf with exit 0
        ["det-fredholm", "--kappa", "-1e4", "--r", "10", "--n", "2"],
        # the tail series in c/k^2 diverges: c = 5e5/pi^2 > (64 + 1)^2
        ["det-fredholm", "--kappa", "-5e5", "--r", "1", "--n", "2", "--modes", "32,64"],
    ],
    ids=["laplacian-t-1e308", "laplacian-t-1e200", "eval-jacobian-kappa-r2", "det-fredholm-overflow",
         "det-fredholm-divergent-tail"],
)
def test_float64_range_exit_1(capsys, argv):
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        code, out, err = run_cli(capsys, *argv)
    assert code == 1
    assert err == ""
    assert json.loads(out)["error"] == "DomainError"

"""Command-line interface: determinant routes, heat limits, validation suite.

Configuration comes from flags, from a TOML file (--config), or both, with
flags overriding file values.  Every command emits one report in JSON, CSV
or text with the fixed schema {command, inputs, value, error_estimate,
route, series?}; errors surface as named error reports.  Exit codes:
0 success, 1 module error (or failed validation records), 2 usage error.
"""

import io
import csv as _csv
import json
import sys

import numpy as np

from . import galerkin, gelfand_yaglom as gy, geometry, heat
from .errors import GeodetError, UsageError

__all__ = ["main", "build_report", "parse_config_text"]

USAGE = """usage: geodet [--config FILE] COMMAND [options]

commands:
  det-fredholm   --kappa K --r R --n N [--modes 64,128,256,512]
                 Galerkin/Fredholm determinant of the Hessian form
  det-gy         --kappa K --r R --n N [--steps 2048]
                 determinant ratio through the Jacobi ODE
  det-zeta       --laplacian --t T --n N   closed-form free determinant
                 --kappa K --r R --n N [--t 1.0] [--steps 2048]
                 zeta determinant of the Jacobi operator
  heat-limit     --n N --radius R --case antipodal|nondegenerate [--d D]
                 [--t0 0.2] [--levels 5]   oracle vs predicted limit
  eval-jacobian  --kappa K --r R --n N --partition-N N
                 evaluation-map Jacobian times the mesh normalization
  validate       [--filter SUBSTRING]   run the bundled validation suite

common options: --format json|csv|text (default json), --out PATH
"""

_LIST_KEYS = {"modes"}
_INT_KEYS = {"n", "steps", "levels", "partition-N"}
_FLOAT_KEYS = {"kappa", "r", "t", "radius", "d", "t0"}
_STR_KEYS = {"case", "filter", "format", "out", "command"}
_FLAG_KEYS = {"laplacian"}

_COMMAND_PARAMS = {
    "det-fredholm": {"kappa", "r", "n", "modes"},
    "det-gy": {"kappa", "r", "n", "steps"},
    "det-zeta": {"laplacian", "t", "n", "kappa", "r", "steps"},
    "heat-limit": {"n", "radius", "case", "d", "t0", "levels"},
    "eval-jacobian": {"kappa", "r", "n", "partition-N"},
    "validate": {"filter"},
}

_REQUIRED = {
    "det-fredholm": {"kappa", "r", "n"},
    "det-gy": {"kappa", "r", "n"},
    "det-zeta": {"n"},
    "heat-limit": {"n", "radius", "case"},
    "eval-jacobian": {"kappa", "r", "n", "partition-N"},
    "validate": set(),
}

_DEFAULTS = {
    "modes": [64, 128, 256, 512],
    "steps": 2048,
    "t": 1.0,
    "t0": 0.2,
    "levels": 5,
}


def _convert(key: str, raw):
    if key in _FLAG_KEYS:
        if isinstance(raw, bool):
            return raw
        return str(raw).lower() in ("1", "true", "yes")
    if key in _LIST_KEYS:
        if isinstance(raw, (list, tuple)):
            return [int(v) for v in raw]
        return [int(v) for v in str(raw).split(",") if v.strip()]
    if key in _INT_KEYS:
        return int(raw)
    if key in _FLOAT_KEYS:
        return float(raw)
    return str(raw)


def _toml_scalar(text: str):
    text = text.strip()
    if text.startswith('"') and text.endswith('"') and len(text) >= 2:
        return text[1:-1]
    if text.lower() in ("true", "false"):
        return text.lower() == "true"
    if text.startswith("[") and text.endswith("]"):
        inner = text[1:-1].strip()
        if not inner:
            return []
        return [_toml_scalar(part) for part in inner.split(",")]
    try:
        return int(text)
    except ValueError:
        pass
    try:
        return float(text)
    except ValueError:
        raise UsageError(f"cannot parse TOML value {text!r}")


def parse_config_text(text: str) -> dict:
    """Parse the flat TOML subset used for run configs.

    Supports ``key = value`` lines with strings, numbers, booleans and
    arrays of numbers; comments and section headers are skipped.  (The
    runtime lacks a stdlib TOML reader on this Python version.)
    """
    out = {}
    for raw in text.splitlines():
        line = raw.strip()
        if not line or line.startswith("#") or line.startswith("["):
            continue
        if "=" not in line:
            raise UsageError(f"malformed config line {line!r}")
        key, _, val = line.partition("=")
        val = val.strip()
        if not val.startswith('"') and "#" in val:
            val = val.split("#", 1)[0].strip()
        out[key.strip()] = _toml_scalar(val)
    return out


def _parse_argv(argv):
    """Return (params dict incl. 'command', format, out_path)."""
    config_path = None
    command = None
    flags = {}
    i = 0
    while i < len(argv):
        tok = argv[i]
        if tok in ("-h", "--help"):
            raise _HelpRequested()
        if tok.startswith("--"):
            key = tok[2:]
            if key in _FLAG_KEYS:
                flags[key] = True
                i += 1
                continue
            if i + 1 >= len(argv):
                raise UsageError(f"option --{key} needs a value")
            if key == "config":
                config_path = argv[i + 1]
            else:
                flags[key] = argv[i + 1]
            i += 2
            continue
        if command is None:
            command = tok
            i += 1
            continue
        raise UsageError(f"unexpected argument {tok!r}")

    params = {}
    if config_path is not None:
        try:
            with open(config_path, "r", encoding="utf-8") as fh:
                params.update(parse_config_text(fh.read()))
        except OSError as exc:
            raise UsageError(f"cannot read config file: {exc}")
    # normalize config keys spelled with underscores
    params = {k.replace("_", "-") if k != "command" else k: v for k, v in params.items()}
    for k, v in flags.items():
        params[k] = v

    if command is None:
        command = params.get("command")
    if command is None:
        raise UsageError("no command given")
    if command not in _COMMAND_PARAMS:
        raise UsageError(f"unknown command {command!r}")

    fmt = str(params.pop("format", "json"))
    if fmt not in ("json", "csv", "text"):
        raise UsageError(f"unknown format {fmt!r}")
    out_path = params.pop("out", None)
    params.pop("command", None)

    allowed = _COMMAND_PARAMS[command]
    clean = {"command": command}
    for key, raw in params.items():
        if key not in allowed:
            raise UsageError(f"option --{key} is not valid for {command}")
        clean[key] = _convert(key, raw)
    missing = _REQUIRED[command] - set(clean)
    if missing:
        raise UsageError(f"{command} is missing required options: {sorted(missing)}")
    for key in allowed:
        if key not in clean and key in _DEFAULTS:
            clean[key] = _DEFAULTS[key]
    for key in ("kappa", "r", "t", "radius", "d", "t0"):
        if key in clean and not np.isfinite(clean[key]):
            raise UsageError(f"parameter {key} must be finite")
    return clean, fmt, out_path


class _HelpRequested(Exception):
    pass


def _curved_system(kappa: float, r: float, n: int):
    return geometry.jacobi_endomorphism(
        geometry.GeodesicData(geometry.ConstantCurvature(n, kappa), r)
    )


def build_report(params: dict) -> dict:
    """Compute the report dict for a parsed parameter set."""
    params = dict(params)
    command = params.pop("command")
    inputs = {k: v for k, v in params.items() if v is not None}

    if command == "det-fredholm":
        sys_ = _curved_system(params["kappa"], params["r"], params["n"])
        est = galerkin.fredholm_det(sys_, params.get("modes", _DEFAULTS["modes"]))
        return {
            "command": command,
            "inputs": inputs,
            "value": est.extrapolated,
            "error_estimate": est.error_estimate,
            "route": "fredholm_fourier",
            "series": [[dim, val] for dim, val in est.levels],
        }

    if command == "det-gy":
        steps = params.get("steps", _DEFAULTS["steps"])
        n = params["n"]
        free = geometry.JacobiSystem.constant(np.zeros((n, n)), 1.0)
        sys_ = _curved_system(params["kappa"], params["r"], n)
        fine = gy.gy_ratio(free, sys_, steps=steps)
        coarse = gy.gy_ratio(free, sys_, steps=max(steps // 2, 16))
        return {
            "command": command,
            "inputs": inputs,
            "value": fine,
            "error_estimate": abs(fine - coarse) / 15.0,
            "route": "gelfand_yaglom",
        }

    if command == "det-zeta":
        if params.get("laplacian"):
            z = gy.zeta_det_dirichlet_laplacian(params.get("t", 1.0), params["n"])
            err = 0.0
        else:
            if "kappa" not in params or "r" not in params:
                raise UsageError("det-zeta needs either --laplacian or --kappa and --r")
            sys_ = _curved_system(params["kappa"], params["r"], params["n"])
            if params.get("t", 1.0) != 1.0:
                raise UsageError("curved det-zeta is defined on the unit interval")
            steps = params.get("steps", _DEFAULTS["steps"])
            z = gy.zeta_det_jacobi(sys_, steps=steps)
            zc = gy.zeta_det_jacobi(sys_, steps=max(steps // 2, 16))
            err = abs(z.value - zc.value) / 15.0
        report = {
            "command": command,
            "inputs": inputs,
            "value": z.value,
            "error_estimate": err,
            "route": z.route,
        }
        if z.excluded_zero_modes:
            report["inputs"]["excluded_zero_modes"] = z.excluded_zero_modes
        return report

    if command == "heat-limit":
        report = heat.heat_limit_validation(
            params["n"],
            params["radius"],
            params["case"],
            d=params.get("d"),
            t0=params.get("t0", _DEFAULTS["t0"]),
            levels=params.get("levels", _DEFAULTS["levels"]),
        )
        inputs = dict(inputs)
        inputs["predicted_limit"] = report.predicted
        inputs["k"] = report.k
        return {
            "command": command,
            "inputs": inputs,
            "value": report.extrapolated_oracle,
            "error_estimate": abs(report.predicted - report.extrapolated_oracle),
            "route": f"heat_{params['case']}",
            "series": [[t, r] for t, r in report.oracle_values],
        }

    if command == "eval-jacobian":
        g = geometry.GeodesicData(
            geometry.ConstantCurvature(params["n"], params["kappa"]), params["r"]
        )
        part = galerkin.Partition.uniform(params["partition-N"])
        val = galerkin.evaluation_map_jacobian(g, part)
        return {
            "command": command,
            "inputs": inputs,
            "value": val,
            "error_estimate": None,
            "route": "evaluation_map",
        }

    if command == "validate":
        from .validation import run_validation

        records = run_validation(params.get("filter"))
        failed = sum(1 for rec in records if not rec.passed)
        return {
            "command": command,
            "inputs": inputs,
            "value": float(failed),
            "error_estimate": None,
            "route": "validation_suite",
            "series": [rec.to_json_dict() for rec in records],
        }

    raise UsageError(f"unknown command {command!r}")


def _render_csv(report: dict) -> str:
    buf = io.StringIO()
    writer = _csv.writer(buf, lineterminator="\n")
    if "error" in report:
        writer.writerow(("command", "error", "message"))
        writer.writerow((report["command"], report["error"], report["message"]))
        return buf.getvalue()
    if report.get("command") == "validate":
        writer.writerow(
            ("check_name", "expected", "computed", "tolerance", "passed", "runtime_ms")
        )
        for rec in report.get("series", []):
            writer.writerow(
                (
                    rec["check_name"],
                    repr(rec["expected"]),
                    repr(rec["computed"]),
                    repr(rec["tolerance"]),
                    rec["passed"],
                    f"{rec['runtime_ms']:.3f}",
                )
            )
        return buf.getvalue()
    if "series" in report:
        writer.writerow(("level", "value"))
        for level, value in report["series"]:
            writer.writerow((level, repr(value)))
        writer.writerow(("final", repr(report["value"])))
        return buf.getvalue()
    writer.writerow(("command", "value", "error_estimate", "route"))
    writer.writerow(
        (
            report["command"],
            repr(report["value"]),
            "" if report["error_estimate"] is None else repr(report["error_estimate"]),
            report["route"],
        )
    )
    return buf.getvalue()


def _render_text(report: dict) -> str:
    if "error" in report:
        return f"error: {report['error']}: {report['message']}\n"
    lines = [f"command: {report['command']}"]
    for key, val in sorted(report.get("inputs", {}).items()):
        lines.append(f"  {key} = {val}")
    if report.get("command") == "validate":
        for rec in report.get("series", []):
            status = "PASS" if rec["passed"] else "FAIL"
            lines.append(
                f"{status}  {rec['check_name']}: expected={rec['expected']:.10g} "
                f"computed={rec['computed']:.10g} tol={rec['tolerance']:.3g} "
                f"({rec['runtime_ms']:.1f} ms)"
            )
        failed = int(report["value"])
        total = len(report.get("series", []))
        lines.append(f"summary: {total - failed}/{total} passed, {failed} failed")
    else:
        lines.append(f"value: {report['value']:.12g}")
        if report.get("error_estimate") is not None:
            lines.append(f"error_estimate: {report['error_estimate']:.3g}")
        lines.append(f"route: {report['route']}")
        if "series" in report:
            for level, value in report["series"]:
                lines.append(f"  level {level}: {value:.12g}")
    return "\n".join(lines) + "\n"


def _render(report: dict, fmt: str) -> str:
    if fmt == "json":
        return json.dumps(report, sort_keys=True, indent=2) + "\n"
    if fmt == "csv":
        return _render_csv(report)
    return _render_text(report)


def _emit(text: str, out_path):
    if out_path:
        with open(out_path, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def main(argv=None) -> int:
    argv = list(sys.argv[1:]) if argv is None else list(argv)
    try:
        params, fmt, out_path = _parse_argv(argv)
    except _HelpRequested:
        sys.stdout.write(USAGE)
        return 0
    except UsageError as exc:
        sys.stderr.write(USAGE)
        sys.stderr.write(f"error: {exc}\n")
        return 2

    command = params["command"]
    try:
        report = build_report(params)
    except UsageError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 2
    except GeodetError as exc:
        report = {
            "command": command,
            "inputs": {k: v for k, v in params.items() if k != "command"},
            "error": exc.name,
            "message": str(exc),
        }
        _emit(_render(report, fmt), out_path)
        return 1

    _emit(_render(report, fmt), out_path)

    if command == "validate" and report["value"] > 0:
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Command-line interface: determinant routes, heat limits, validation suite.

Configuration comes from flags, from a TOML file (--config), or both, with
flags overriding file values.  Every command emits one report in JSON, CSV
or text with the fixed schema {command, inputs, value, error_estimate,
route, series?}; errors surface as named error reports.  Exit codes:
0 success, 1 module error (or failed validation records), 2 usage error.

Each runner imports the route it calls, so a process loads only its
command's modules: det-gy and curved det-zeta load geometry and
gelfand_yaglom, det-zeta --laplacian loads zeta alone and no numpy,
heat-limit adds heat and interval, det-fredholm and eval-jacobian load
galerkin and interval, and validate loads the routes its records read.
"""

import io
import json
import math
import sys

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


def _int(raw):
    # through str, so that a TOML float (2.7) or bool (true) is rejected, not truncated
    return int(str(raw))


def _float(raw):
    return float(str(raw))


def _int_list(raw):
    if isinstance(raw, (list, tuple)):
        return [_int(v) for v in raw]
    return [_int(v) for v in str(raw).split(",") if v.strip()]


def _flag(raw):
    return str(raw).lower() in ("1", "true", "yes")


# one converter per option; a converter that raises is a usage error
_CONVERTERS = {
    **dict.fromkeys(("kappa", "r", "t", "radius", "d", "t0"), _float),
    **dict.fromkeys(("n", "steps", "levels", "partition-N"), _int),
    "modes": _int_list, "laplacian": _flag, "case": str, "filter": str,
}


def _geodesic(p):
    from .geometry import ConstantCurvature, GeodesicData

    return GeodesicData(ConstantCurvature(p["n"], p["kappa"]), p["r"])


def _curved_system(p):
    from .geometry import jacobi_endomorphism

    return jacobi_endomorphism(_geodesic(p))


# each runner takes the parsed parameters and returns what its report holds
# beyond them: (value, error_estimate, route, series or None, extra inputs)
def _det_fredholm(p):
    from .galerkin import fredholm_det

    est = fredholm_det(_curved_system(p), p["modes"])
    series = [[dim, val] for dim, val in est.levels]
    return est.extrapolated, est.error_estimate, "fredholm_fourier", series, {}


def _det_gy(p):
    from .gelfand_yaglom import _free_reference_ratio

    z = _free_reference_ratio(_curved_system(p), p["steps"])
    return z.value, z.error_estimate, "gelfand_yaglom", None, {}


def _det_zeta(p):
    if p.get("laplacian"):
        from .zeta import zeta_det_dirichlet_laplacian

        if "kappa" in p or "r" in p:
            raise UsageError("det-zeta --laplacian takes no --kappa or --r")
        if "steps" in p:
            raise UsageError("det-zeta --laplacian takes no --steps: its determinant is a closed form")
        z = zeta_det_dirichlet_laplacian(p["t"], p["n"])
    else:
        from .gelfand_yaglom import zeta_det_jacobi

        if "kappa" not in p or "r" not in p:
            raise UsageError("det-zeta needs either --laplacian or --kappa and --r")
        if p["t"] != 1.0:
            raise UsageError("curved det-zeta is defined on the unit interval")
        z = zeta_det_jacobi(_curved_system(p), steps=p["steps"])
    extra = {"excluded_zero_modes": z.excluded_zero_modes} if z.excluded_zero_modes else {}
    return z.value, z.error_estimate, z.route, None, extra


def _heat_limit(p):
    from .heat import heat_limit_validation

    rep = heat_limit_validation(
        p["n"], p["radius"], p["case"], d=p.get("d"), t0=p["t0"], levels=p["levels"]
    )
    error = abs(rep.predicted - rep.extrapolated_oracle)
    series = [[t, r] for t, r in rep.oracle_values]
    extra = {"predicted_limit": rep.predicted, "k": rep.k}
    return rep.extrapolated_oracle, error, f"heat_{p['case']}", series, extra


def _eval_jacobian(p):
    from .galerkin import Partition, evaluation_map_jacobian

    val = evaluation_map_jacobian(_geodesic(p), Partition.uniform(p["partition-N"]))
    return val, None, "evaluation_map", None, {}


def _validate(p):
    import dataclasses

    from .validation import run_validation

    records = run_validation(p.get("filter"))
    if not records:
        raise UsageError(f"no validation record matches --filter {p['filter']!r}")
    failed = sum(1 for rec in records if not rec.passed)
    return float(failed), None, "validation_suite", [dataclasses.asdict(r) for r in records], {}


# command -> (its options, each with a default value, _REQUIRED or _OPTIONAL; its runner)
_REQUIRED, _OPTIONAL = "required", "optional"
_CURVED = {"kappa": _REQUIRED, "r": _REQUIRED, "n": _REQUIRED}
_COMMANDS = {
    "det-fredholm": ({**_CURVED, "modes": [64, 128, 256, 512]}, _det_fredholm),
    "det-gy": ({**_CURVED, "steps": 2048}, _det_gy),
    "det-zeta": ({"laplacian": _OPTIONAL, "n": _REQUIRED, "kappa": _OPTIONAL, "r": _OPTIONAL,
                  "t": 1.0, "steps": 2048}, _det_zeta),
    "heat-limit": ({"n": _REQUIRED, "radius": _REQUIRED, "case": _REQUIRED, "d": _OPTIONAL,
                    "t0": 0.2, "levels": 5}, _heat_limit),
    "eval-jacobian": ({**_CURVED, "partition-N": _REQUIRED}, _eval_jacobian),
    "validate": ({"filter": _OPTIONAL}, _validate),
}


def parse_config_text(text: str) -> dict:
    """Parse a flat TOML run config: ``key = value`` lines, no tables."""
    import tomllib  # imported here: only --config runs pay for it

    try:
        config = tomllib.loads(text)
    except tomllib.TOMLDecodeError as exc:
        raise UsageError(f"malformed config: {exc}")
    tables = sorted(key for key, val in config.items() if isinstance(val, dict))
    if tables:
        raise UsageError(f"config tables are not supported: {tables}")
    return config


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
            if _CONVERTERS.get(key) is _flag:
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
    if command not in _COMMANDS:
        raise UsageError(f"unknown command {command!r}")

    fmt = str(params.pop("format", "json"))
    if fmt not in ("json", "csv", "text"):
        raise UsageError(f"unknown format {fmt!r}")
    out_path = params.pop("out", None)
    params.pop("command", None)

    options = _COMMANDS[command][0]
    clean = {"command": command}
    for key, raw in params.items():
        if key not in options:
            raise UsageError(f"option --{key} is not valid for {command}")
        try:
            clean[key] = _CONVERTERS[key](raw)
        except (ValueError, TypeError, OverflowError):
            raise UsageError(f"option --{key} has the malformed value {raw!r}")
    missing = [key for key, default in options.items() if default is _REQUIRED and key not in clean]
    if missing:
        raise UsageError(f"{command} is missing required options: {sorted(missing)}")
    if clean.get("laplacian"):  # the closed form reads no step count, so it gets no default
        options = {key: default for key, default in options.items() if key != "steps"}
    for key, default in options.items():
        if key not in clean and default is not _REQUIRED and default is not _OPTIONAL:
            clean[key] = default
        if isinstance(clean.get(key), float) and not math.isfinite(clean[key]):
            raise UsageError(f"parameter {key} must be finite")
    return clean, fmt, out_path


class _HelpRequested(Exception):
    pass


def build_report(params: dict) -> dict:
    """Compute the report dict for a parsed parameter set, defaults included."""
    params = dict(params)
    command = params.pop("command")
    if command not in _COMMANDS:
        raise UsageError(f"unknown command {command!r}")
    value, error_estimate, route, series, extra = _COMMANDS[command][1](params)
    report = {
        "command": command,
        "inputs": {**{k: v for k, v in params.items() if v is not None}, **extra},
        "value": value,
        "error_estimate": error_estimate,
        "route": route,
    }
    if series is not None:
        report["series"] = series
    return report


def _render_csv(report: dict) -> str:
    import csv

    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
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
        code = 1 if command == "validate" and report["value"] > 0 else 0
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
        code = 1

    text = _render(report, fmt)
    if not out_path:
        sys.stdout.write(text)
        return code
    try:
        with open(out_path, "w", encoding="utf-8") as fh:
            fh.write(text)
    except OSError as exc:
        sys.stderr.write(f"error: cannot write output file: {exc}\n")
        return 2
    return code


if __name__ == "__main__":
    # run as ``python -m geodet.cli``: the validation suite imports this
    # module by its name, and must find this copy rather than run a second
    sys.modules.setdefault(__spec__.name, sys.modules[__name__])
    sys.exit(main())

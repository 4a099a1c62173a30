"""Seeded workloads of the geodet benchmark, their references and checks.

A workload is a sequence of rounds.  A round is a fixed list of strata
(route, resolution, dimension, command, format); the seed only draws the
continuous parameters and the potential of each stratum, so every round
has the same mix of costs whatever the seed.  The timed phase runs whole
rounds, which keeps the median and p90 inside the same strata from run to
run.

Every instance is checked against an independent reference where one
exists (closed forms on constant curvature; the other determinant route at
much finer resolution for varying potentials, stored in ``refs.json``) and
against values stored from the seed commit otherwise.
"""

import json
import math
import os
import subprocess
import sys
from dataclasses import dataclass

import numpy as np

from geodet import galerkin, gelfand_yaglom as gy, geometry, heat
from geodet.errors import GeodetError

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
REFS_PATH = os.path.join(HERE, "refs.json")

# potential catalog: CATALOG_SIZE smooth potentials per dimension n
CATALOG_SEED = 1607
CATALOG_SIZE = 16
DIMS = (2, 3, 4)
# sum of the spectral norms of A, B, C stays below pi^2, so
# -d^2/du^2 + A + B sin(2 pi u) + C u is positive on [0, 1]
POTENTIAL_NORM_RANGE = (2.0, 7.0)

ROUTE_TOL = 1e-5  # route agreement
HEAT_TOL = {"antipodal": 1e-2, "nondegenerate": 5e-3}
DIGITS_CAP = 14.0

# heat grid of the paper's oracle check: sphere dimension, radius, levels
HEAT_DIMS = (2, 3, 4, 5)
HEAT_RADII = (0.5, 1.0, 2.0)
HEAT_LEVELS = (5, 6, 7)
HEAT_T0 = 0.2
HEAT_FRACTION_RANGE = (0.05, 0.9)  # d / (pi R) of nondegenerate points
# exp(-d^2/(4t)) underflows float64 near 745; the oracle ratio then divides
# by zero.  Points beyond this depth go to the known-defects workload.
HEAT_UNDERFLOW_DEPTH = 700.0
# short-time regime: the smallest time of the grid is at most R^2/40
HEAT_SHORT_TIME = 1.0 / 40.0

VALIDATE_GROUPS = (
    "bernoulli-series",
    "antipodal-deflated",
    "fredholm-sphere",
    "zeta-laplacian",
    "telescoping",
    "antipodal-kernel-dim",
    "trace-identity",
    "wronskian",
    "chapman",
    "determinism",
    "nondegenerate-S3",
    "antipodal-S2",
    "eval-jacobian-flat",
)
# seed-commit crashes of the CLI, kept in the known-defects workload
DEFECT_VALIDATE_GROUPS = ("fredholm-hyperbolic", "degenerate-gy")
EVAL_KAPPAS = (-1.0, -0.5, 0.5, 1.0)
EVAL_SPEEDS = (0.5, 1.0, 1.5)
EVAL_PARTITIONS = (8, 16, 32, 64)
FORMATS = ("json", "csv", "text")


# ---------------------------------------------------------------------------
# potentials


class Potential:
    """V(s) = (A + B sin(2 pi s/t) + C s/t) / t^2 on [0, t].

    On the unit interval of the Jacobi operator it reads
    A + B sin(2 pi u) + C u, independent of t.
    """

    def __init__(self, A, B, C, t):
        self.t = float(t)
        scale = 1.0 / (self.t * self.t)
        self.A, self.B, self.C = A * scale, B * scale, C * scale

    def __call__(self, s):
        u = s / self.t
        return self.A + self.B * math.sin(2.0 * math.pi * u) + self.C * u


def _symmetric(rng, m):
    X = rng.standard_normal((m, m))
    return 0.5 * (X + X.T)


def catalog_potential(n: int, index: int) -> Potential:
    """Catalog entry `index` for sphere dimension n: an (n-1)x(n-1) block."""
    rng = np.random.default_rng([CATALOG_SEED, n, index])
    m = n - 1
    mats = [_symmetric(rng, m) for _ in range(3)]
    norms = rng.dirichlet([1.0, 1.0, 1.0]) * rng.uniform(*POTENTIAL_NORM_RANGE)
    A, B, C = (X * (w / np.linalg.norm(X, 2)) for X, w in zip(mats, norms))
    return Potential(A, B, C, rng.uniform(0.5, 2.0))


def synthetic_system(n: int, potential, t: float) -> geometry.JacobiSystem:
    """Jacobi system along the straight geodesic [0, t] of a synthetic manifold."""
    manifold = geometry.SyntheticPotential(n, potential, t)
    return geometry.jacobi_endomorphism(geometry.GeodesicData(manifold, t))


def catalog_system(n: int, index: int, potential_hook) -> geometry.JacobiSystem:
    pot = catalog_potential(n, index)
    return synthetic_system(n, potential_hook(pot), pot.t)


def antipodal_system(n: int, kappa: float) -> geometry.JacobiSystem:
    """Jacobi system to the antipode of the n-sphere of curvature kappa."""
    m = geometry.ConstantCurvature(n, kappa)
    return geometry.jacobi_endomorphism(geometry.GeodesicData(m, math.pi / math.sqrt(kappa)))


# ---------------------------------------------------------------------------
# closed-form references


def sine_product(kappa: float, r: float, n: int) -> float:
    """(sin(sqrt(k) r)/(sqrt(k) r))^(n-1), sinh for negative curvature."""
    if kappa == 0.0 or r == 0.0:
        return 1.0
    x = math.sqrt(abs(kappa)) * r
    ratio = math.sin(x) / x if kappa > 0 else math.sinh(x) / x
    return ratio ** (n - 1)


def degenerate_ratio(n: int) -> float:
    """det'_zeta/det_zeta(free) at the antipode: (1/(2 pi^2))^(n-1)."""
    return (2.0 * math.pi**2) ** (1 - n)


def antipodal_coefficient(n: int, R: float) -> float:
    return 2.0 * math.pi ** (1.5 * n - 1.0) * R ** (n - 1) / math.gamma(n / 2.0)


def nondegenerate_limit(n: int, R: float, d: float) -> float:
    """J(x, y)^(-1/2) on the n-sphere of radius R."""
    return sine_product(1.0 / R**2, d, n) ** -0.5


def load_refs(path: str = REFS_PATH) -> dict:
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)


# ---------------------------------------------------------------------------
# instances and outcomes


@dataclass
class Instance:
    """One user-level call with its reference.

    ``stratum`` names the cost class; ``reference`` is the expected value
    (None for validate, which compares whole reports) and ``tol`` the
    relative tolerance.
    """

    kind: str  # "galerkin" | "ode" | "heat" | "cli"
    stratum: str
    params: dict
    reference: float = None
    tol: float = ROUTE_TOL
    argv: list = None  # CLI instances only


@dataclass
class Outcome:
    ok: bool
    value: float = None
    rel_err: float = None
    reason: str = ""


@dataclass
class Workload:
    name: str
    rounds: list  # list of lists of Instance
    warmup: Instance
    repeats: int  # passes of the timed phase; an instance keeps its best time
    round_s: float  # nominal duration of one round, 2 vCPUs of a Xeon at 2.1 GHz

    @property
    def cli(self) -> bool:
        return all(inst.kind == "cli" for inst in self.rounds[0])


def judge(inst: Instance, value) -> Outcome:
    """Compare a reported value with the instance's reference."""
    if value is None or not math.isfinite(value):
        return Outcome(False, value, None, f"non-finite value {value!r} reported as success")
    ref = inst.reference
    rel = abs(value - ref) / abs(ref)
    if rel > inst.tol:
        return Outcome(False, value, rel, f"relative error {rel:.3g} above {inst.tol:g}")
    return Outcome(True, value, rel)


def accuracy_digits(rel_err: float) -> float:
    if rel_err <= 10.0**-DIGITS_CAP:
        return DIGITS_CAP
    return min(DIGITS_CAP, -math.log10(rel_err))


# ---------------------------------------------------------------------------
# galerkin-varying


def _galerkin_round(rng, refs):
    cat = refs["catalog"]
    plan = [("fourier", (16, 32, 64), n) for n in DIMS]
    plan += [("fourier", (32, 64, 128), n) for n in DIMS]
    plan += [("piecewise", (64, 128), n) for n in DIMS]
    plan += [("piecewise", (128, 256), n) for n in DIMS]
    plan += [("piecewise", (256, 512), 2)]
    out = []
    for route, schedule, n in plan:
        idx = int(rng.integers(CATALOG_SIZE))
        out.append(
            Instance(
                "galerkin",
                f"{route}-{schedule[-1]}-n{n}",
                {"route": route, "schedule": schedule, "n": n, "index": idx},
                reference=cat[str(n)][idx]["ode_ref"],
            )
        )
    return out


def _galerkin_exec(inst, potential_hook):
    p = inst.params
    sys_ = catalog_system(p["n"], p["index"], potential_hook)
    if p["route"] == "fourier":
        return galerkin.fredholm_det(sys_, p["schedule"]).extrapolated
    return galerkin.fredholm_det_piecewise(sys_, p["schedule"]).extrapolated


# ---------------------------------------------------------------------------
# ode-varying


def _ode_round(rng, refs):
    cat = refs["catalog"]
    out = []

    def add(stratum, reference, **params):
        out.append(Instance("ode", stratum, params, reference=reference))

    for n in DIMS:
        fref = [e["fourier_ref"] for e in cat[str(n)]]
        for steps in (1024, 2048, 4096):
            i = int(rng.integers(CATALOG_SIZE))
            add(f"zeta-{steps}-n{n}", 2.0**n * fref[i], call="zeta", n=n, index=i, steps=steps)
        # the costliest stratum twice, so the p90 falls inside it
        for steps in (2048, 4096, 4096):
            i, j = (int(v) for v in rng.choice(CATALOG_SIZE, 2, replace=False))
            add(f"ratio-{steps}-n{n}", fref[j] / fref[i],
                call="ratio", n=n, index=i, index2=j, steps=steps)
        i, kappa = int(rng.integers(CATALOG_SIZE)), float(rng.uniform(0.25, 4.0))
        add(f"degenerate-ratio-n{n}", degenerate_ratio(n) / fref[i],
            call="degenerate_ratio", n=n, index=i, kappa=kappa, steps=2048)
        kappa = float(rng.uniform(0.25, 4.0))
        add(f"zeta-degenerate-n{n}", 2.0**n * degenerate_ratio(n),
            call="zeta_degenerate", n=n, kappa=kappa, steps=2048)
    return out


def _ode_exec(inst, potential_hook):
    p = inst.params
    n, steps = p["n"], p["steps"]
    call = p["call"]
    if call == "zeta_degenerate":
        return gy.zeta_det_jacobi(antipodal_system(n, p["kappa"]), steps).value
    sys_ = catalog_system(n, p["index"], potential_hook)
    if call == "zeta":
        return gy.zeta_det_jacobi(sys_, steps).value
    if call == "ratio":
        sys2 = catalog_system(n, p["index2"], potential_hook)
        return gy.gy_ratio(sys_, sys2, steps)
    return gy.gy_degenerate_ratio(antipodal_system(n, p["kappa"]), sys_, steps)


# ---------------------------------------------------------------------------
# sphere-heat


def _heat_depth(d: float, levels: int) -> float:
    t_min = HEAT_T0 * 2.0 ** (1 - levels)
    return d * d / (4.0 * t_min)


def _heat_instance(n, R, case, levels, frac=None):
    if case == "antipodal":
        d = math.pi * R
        ref = antipodal_coefficient(n, R)
    else:
        d = frac * math.pi * R
        ref = nondegenerate_limit(n, R, d)
    return Instance(
        "heat",
        f"heat-{case}-n{n}-R{R:g}-L{levels}",
        {"n": n, "R": R, "case": case, "levels": levels, "d": None if case == "antipodal" else d},
        reference=ref,
        tol=HEAT_TOL[case],
    )


def _heat_round(rng, refs, defects=False):
    """The (n, R, levels) grid with antipodal and seeded nondegenerate points.

    The default keeps the short-time cells whose Euclidean kernel stays
    representable; ``defects`` keeps exactly the points beyond the underflow
    depth instead.  The cells that share (R, levels) draw d/(pi R) from
    equal slices of the allowed range, one slice per dimension in a seeded
    order, so every round spans the same range of cancellation depths.
    """
    out = []
    lo, hi = HEAT_FRACTION_RANGE
    for R in HEAT_RADII:
        for levels in HEAT_LEVELS:
            t_min = HEAT_T0 * 2.0 ** (1 - levels)
            if t_min > HEAT_SHORT_TIME * R * R:
                continue
            deep_anti = _heat_depth(math.pi * R, levels) > HEAT_UNDERFLOW_DEPTH
            f_edge = math.sqrt(HEAT_UNDERFLOW_DEPTH * 4.0 * t_min) / (math.pi * R)
            a, b = (max(f_edge, lo) * 1.02, hi) if defects else (lo, min(hi, f_edge))
            for n, k in zip(HEAT_DIMS, rng.permutation(len(HEAT_DIMS))):
                if deep_anti == defects:
                    out.append(_heat_instance(n, R, "antipodal", levels))
                if a < b:
                    frac = a + (b - a) * (k + rng.uniform()) / len(HEAT_DIMS)
                    out.append(_heat_instance(n, R, "nondegenerate", levels, float(frac)))
    return out


def _heat_exec(inst, potential_hook):
    p = inst.params
    report = heat.heat_limit_validation(p["n"], p["R"], p["case"], d=p["d"], levels=p["levels"])
    return report.extrapolated_oracle


# ---------------------------------------------------------------------------
# cli-mix


def cli_argv(command: str, fmt: str, **opts) -> list:
    argv = [command]
    for key, val in opts.items():
        flag = "--" + key.replace("_", "-")
        argv += [flag] if val is True else [flag, repr(val) if isinstance(val, float) else str(val)]
    return argv + ["--format", fmt]


def _cli(stratum, argv, reference=None, tol=ROUTE_TOL, **params):
    return Instance("cli", stratum, dict(params), reference=reference, tol=tol, argv=argv)


def _curved(rng):
    kappa = float(rng.uniform(-1.0, 1.0))
    r = float(rng.uniform(0.2, 1.5))
    n = int(rng.integers(2, 5))
    return kappa, r, n


def _cli_round(rng, refs):
    out = []
    fmt = lambda: FORMATS[int(rng.integers(3))]  # noqa: E731
    kappa, r, n = _curved(rng)
    out.append(_cli("det-fredholm", cli_argv("det-fredholm", fmt(), kappa=kappa, r=r, n=n),
                    sine_product(kappa, r, n)))
    for f in ("json", "text"):
        kappa, r, n = _curved(rng)
        out.append(_cli(f"det-gy-{f}", cli_argv("det-gy", f, kappa=kappa, r=r, n=n),
                        sine_product(kappa, r, n)))
    kappa, r, n = _curved(rng)
    out.append(_cli("det-zeta-csv", cli_argv("det-zeta", "csv", kappa=kappa, r=r, n=n),
                    2.0**n * sine_product(kappa, r, n)))
    kappa, n = float(rng.uniform(0.25, 4.0)), int(rng.integers(2, 5))
    out.append(_cli("det-zeta-antipodal-json",
                    cli_argv("det-zeta", "json", kappa=kappa, r=math.pi / math.sqrt(kappa), n=n),
                    2.0**n * degenerate_ratio(n)))
    t, n = float(rng.uniform(0.1, 3.0)), int(rng.integers(1, 7))
    out.append(_cli("det-zeta-laplacian-text",
                    cli_argv("det-zeta", "text", laplacian=True, t=t, n=n), (2.0 * t) ** n))
    out.append(_cli("heat-antipodal", cli_argv("heat-limit", fmt(), n=4, radius=1.0, case="antipodal"),
                    antipodal_coefficient(4, 1.0), HEAT_TOL["antipodal"]))
    n, frac = int(rng.integers(2, 4)), float(rng.uniform(0.3, 0.9))
    d = frac * math.pi
    out.append(_cli("heat-nondegenerate",
                    cli_argv("heat-limit", fmt(), n=n, radius=1.0, case="nondegenerate", d=d),
                    nondegenerate_limit(n, 1.0, d), HEAT_TOL["nondegenerate"]))
    key = (EVAL_KAPPAS[int(rng.integers(len(EVAL_KAPPAS)))], EVAL_SPEEDS[int(rng.integers(len(EVAL_SPEEDS)))],
           int(rng.integers(2, 5)), EVAL_PARTITIONS[int(rng.integers(len(EVAL_PARTITIONS)))])
    kappa, r, n, N = key
    out.append(_cli("eval-jacobian", cli_argv("eval-jacobian", fmt(), kappa=kappa, r=r, n=n, partition_N=N),
                    refs["eval_jacobian"][eval_key(*key)], 1e-12))
    # the largest group by memory runs in every round, so peak RSS is
    # comparable across seeds; the other group is drawn
    name = VALIDATE_GROUPS[1 + int(rng.integers(len(VALIDATE_GROUPS) - 1))]
    for group in (VALIDATE_GROUPS[0], name):
        out.append(_cli("validate", cli_argv("validate", fmt(), filter=group), group=group))
    return out


def _cli_defect_round(rng, refs):
    out = [_cli("heat-antipodal-n2-R2", cli_argv("heat-limit", "json", n=2, radius=2.0, case="antipodal"),
                antipodal_coefficient(2, 2.0), HEAT_TOL["antipodal"])]
    for name in DEFECT_VALIDATE_GROUPS:
        out.append(_cli("validate", cli_argv("validate", "json", filter=name), group=name))
    d = 0.2 * math.pi  # rational angle: the float64 oracle stops at a zero term
    out.append(_cli("heat-nondegenerate-n3-rational",
                    cli_argv("heat-limit", "json", n=3, radius=1.0, case="nondegenerate", d=d),
                    nondegenerate_limit(3, 1.0, d), HEAT_TOL["nondegenerate"]))
    return out


def eval_key(kappa, r, n, N) -> str:
    return f"{kappa!r}|{r!r}|{n}|{N}"


def cli_env() -> dict:
    env = dict(os.environ)
    src = os.path.join(ROOT, "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def run_cli_subprocess(argv, env):
    """Run ``python -m geodet.cli`` once; returns (returncode, stdout, stderr)."""
    proc = subprocess.run(
        [sys.executable, "-m", "geodet.cli"] + list(argv),
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=120,
    )
    return proc.returncode, proc.stdout, proc.stderr


def parse_cli_value(fmt: str, text: str) -> float:
    """The reported value of a non-validate command in any output format."""
    if fmt == "json":
        return float(json.loads(text)["value"])
    if fmt == "csv":
        rows = [line.split(",") for line in text.strip().splitlines()]
        if rows[-1][0] == "final":
            return float(rows[-1][1])
        return float(rows[1][1])
    for line in text.splitlines():
        if line.startswith("value:"):
            return float(line.split(":", 1)[1])
    raise ValueError("no value line in text output")


def parse_validate(fmt: str, text: str) -> dict:
    """{check_name: (computed, passed)} from a validate report."""
    if fmt == "json":
        return {r["check_name"]: (float(r["computed"]), bool(r["passed"]))
                for r in json.loads(text)["series"]}
    if fmt == "csv":
        rows = [line.split(",") for line in text.strip().splitlines()[1:]]
        return {r[0]: (float(r[2]), r[4] == "True") for r in rows}
    out = {}
    for line in text.splitlines():
        if line.startswith(("PASS  ", "FAIL  ")):
            status, rest = line.split("  ", 1)
            name, fields = rest.split(": ", 1)
            computed = float(fields.split("computed=", 1)[1].split()[0])
            out[name] = (computed, status == "PASS")
    return out


def judge_cli(inst: Instance, refs: dict, rc: int, stdout: str, stderr: str) -> Outcome:
    if "Traceback (most recent call last)" in stderr:
        return Outcome(False, reason="traceback: " + stderr.strip().splitlines()[-1])
    fmt = inst.argv[inst.argv.index("--format") + 1]
    if inst.stratum == "validate":
        return _judge_validate(inst, refs["validate"][inst.params["group"]], rc, fmt, stdout)
    if rc != 0:
        return Outcome(False, reason=f"exit code {rc}: {stdout.strip()[:200]}")
    try:
        value = parse_cli_value(fmt, stdout)
    except (ValueError, KeyError, IndexError) as exc:
        return Outcome(False, reason=f"unparsable {fmt} output: {exc}")
    return judge(inst, value)


def _judge_validate(inst, stored, rc, fmt, stdout) -> Outcome:
    """Compare a validate report with the records stored from the seed commit."""
    if rc != stored["rc"]:
        return Outcome(False, reason=f"exit code {rc}, seed commit gave {stored['rc']}")
    try:
        got = parse_validate(fmt, stdout)
    except (ValueError, KeyError, IndexError) as exc:
        return Outcome(False, reason=f"unparsable {fmt} output: {exc}")
    if sorted(got) != sorted(stored["records"]):
        return Outcome(False, reason="record names differ from the seed commit")
    for name, (computed, passed, tol) in stored["records"].items():
        value, ok = got[name]
        if not math.isfinite(value):
            return Outcome(False, value, None, f"{name}: non-finite value {value!r}")
        if passed and not ok:
            return Outcome(False, value, None, f"{name} fails; it passed at the seed commit")
        # text reports keep 10 significant digits; a value may move within
        # its record's own tolerance
        rel = abs(value - computed) / max(1.0, abs(computed))
        if rel > max(tol, 1e-9):
            return Outcome(False, value, rel, f"{name}: {value!r} vs seed {computed!r}")
    return Outcome(True)


# ---------------------------------------------------------------------------
# workload assembly


ROUNDS = {
    "galerkin-varying": _galerkin_round,
    "ode-varying": _ode_round,
    "sphere-heat": _heat_round,
    "cli-mix": _cli_round,
    "known-defects": lambda rng, refs: _heat_round(rng, refs, defects=True)
    + _cli_defect_round(rng, refs),
}
WORKLOAD_IDS = {name: i for i, name in enumerate(ROUNDS)}
REPEATS = {"galerkin-varying": 3, "ode-varying": 3, "sphere-heat": 3, "cli-mix": 2, "known-defects": 1}
ROUND_S = {"galerkin-varying": 3.0, "ode-varying": 4.1, "sphere-heat": 2.7, "cli-mix": 6.0,
           "known-defects": 6.0}
MAX_ROUNDS = 64
_EXEC = {"galerkin": _galerkin_exec, "ode": _ode_exec, "heat": _heat_exec}


def _warmup(name, rng, refs) -> Instance:
    """One cheap instance of the workload's own kind."""
    if name == "galerkin-varying":
        idx = int(rng.integers(CATALOG_SIZE))
        return Instance("galerkin", "warmup",
                        {"route": "fourier", "schedule": (16, 32, 64), "n": 2, "index": idx},
                        reference=refs["catalog"]["2"][idx]["ode_ref"])
    if name == "ode-varying":
        idx = int(rng.integers(CATALOG_SIZE))
        return Instance("ode", "warmup", {"call": "zeta", "n": 2, "index": idx, "steps": 1024},
                        reference=4.0 * refs["catalog"]["2"][idx]["fourier_ref"])
    if name in ("sphere-heat", "known-defects"):
        return _heat_instance(2, 1.0, "antipodal", 5)
    t = float(rng.uniform(0.1, 3.0))
    return _cli("warmup", cli_argv("det-zeta", "json", laplacian=True, t=t, n=3), (2.0 * t) ** 3)


def build_workload(name: str, seed: int, refs: dict, rounds: int = MAX_ROUNDS) -> Workload:
    """Generate the first ``rounds`` rounds of a workload from its seed."""
    if name not in ROUNDS:
        raise KeyError(f"unknown workload {name!r}; choose from {sorted(ROUNDS)}")
    rng = np.random.default_rng([seed, WORKLOAD_IDS[name]])
    warmup = _warmup(name, np.random.default_rng([seed, WORKLOAD_IDS[name], 1]), refs)
    rounds = [ROUNDS[name](rng, refs) for _ in range(rounds)]
    return Workload(name, rounds, warmup, REPEATS[name], ROUND_S[name])


def execute(inst: Instance, refs: dict, env: dict, potential_hook=None) -> Outcome:
    """Run one instance and judge its output.

    Exceptions other than the library's named errors count as failures,
    like a traceback exit of the CLI.
    """
    if inst.kind == "cli":
        rc, out, err = run_cli_subprocess(inst.argv, env)
        return judge_cli(inst, refs, rc, out, err)
    try:
        value = _EXEC[inst.kind](inst, potential_hook or (lambda pot: pot))
    except GeodetError as exc:
        return Outcome(False, reason=f"named error {exc.name} where a value is expected: {exc}")
    except Exception as exc:  # noqa: BLE001 - any other exception is a defect
        return Outcome(False, reason=f"uncaught {type(exc).__name__}: {exc}")
    return judge(inst, value)

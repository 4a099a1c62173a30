"""Regenerate perfbench/refs.json, the stored references of the benchmark.

    python3 perfbench/make_refs.py

Run it on the commit whose values the benchmark should hold as the
reference (the seed commit); it takes a few minutes on one core.  It stores

* for every catalog potential, the determinant by the two routes at much
  finer resolution than any workload uses: the Gel'fand-Yaglom ODE at
  16384 RK4 steps (``ode_ref``) and the Fourier filtration at K = 128 and
  256 with one K^-3 Richardson step (``fourier_ref``), with their agreement;
* the records of every ``validate --filter`` group the workloads call,
  computed in process;
* the evaluation-map Jacobian on the cli-mix parameter grid, which has no
  independent closed form.
"""

import os
import sys

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"
_HERE = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [os.path.join(os.path.dirname(_HERE), "src"), _HERE]

import itertools  # noqa: E402
import json  # noqa: E402

from geodet import galerkin, gelfand_yaglom as gy, geometry  # noqa: E402
from geodet.validation import run_validation  # noqa: E402

import workloads as wl  # noqa: E402

REF_STEPS = 16384
REF_MODES = (128, 256)


def catalog_refs(n: int, index: int) -> dict:
    sys_ = wl.catalog_system(n, index, lambda pot: pot)
    ode = gy.zeta_det_jacobi(sys_, REF_STEPS).value / 2.0**n
    coarse, fine = (galerkin.fredholm_det(sys_, (K,)).extrapolated for K in REF_MODES)
    fourier = fine + (fine - coarse) / ((REF_MODES[1] / REF_MODES[0]) ** 3 - 1.0)
    return {"ode_ref": ode, "fourier_ref": fourier, "route_gap": abs(ode - fourier) / abs(ode)}


def validate_refs(group: str) -> dict:
    records = run_validation(group)
    return {
        "rc": int(any(not rec.passed for rec in records)),
        "records": {
            rec.check_name: [rec.computed, bool(rec.passed), rec.tolerance] for rec in records
        },
    }


def eval_jacobian_refs() -> dict:
    out = {}
    grid = itertools.product(wl.EVAL_KAPPAS, wl.EVAL_SPEEDS, (2, 3, 4), wl.EVAL_PARTITIONS)
    for kappa, r, n, N in grid:
        g = geometry.GeodesicData(geometry.ConstantCurvature(n, kappa), r)
        val = galerkin.evaluation_map_jacobian(g, galerkin.Partition.uniform(N))
        out[wl.eval_key(kappa, r, n, N)] = val
    return out


def main():
    refs = {
        "catalog": {},
        "validate": {g: validate_refs(g) for g in wl.VALIDATE_GROUPS + wl.DEFECT_VALIDATE_GROUPS},
        "eval_jacobian": eval_jacobian_refs(),
    }
    for n in wl.DIMS:
        refs["catalog"][str(n)] = []
        for i in range(wl.CATALOG_SIZE):
            entry = catalog_refs(n, i)
            refs["catalog"][str(n)].append(entry)
            print(f"n={n} index={i} route gap {entry['route_gap']:.2e}", flush=True)
    with open(wl.REFS_PATH, "w", encoding="utf-8") as fh:
        json.dump(refs, fh, indent=1, sort_keys=True)
        fh.write("\n")


if __name__ == "__main__":
    main()

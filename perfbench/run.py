"""geodet benchmark: one seeded workload, checked outputs, named metrics.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; geodet is imported from ``src/``.
Workloads: galerkin-varying, ode-varying, sphere-heat and cli-mix (listed
in BENCHMARK.json), plus known-defects, a probe of in-domain inputs that
fail at the seed commit.

With ``--trace 0`` the end-to-end metrics are measured untraced: set-up in
SETUP_SAMPLES fresh processes (median), one of which then runs whole
rounds in a closed loop with one client for about ``--seconds``.  With
``--trace 1`` one process reports the per-layer metrics from spans around
geodet's public functions, and the tracing overhead.

The last line of standard output is the result object
``{"correct", "attempted", "failed", "metrics"}``; the line before it holds
the environment, sample counts and the first failures.  Both are also
written to ``perfbench/out/``.  BLAS and OpenMP run one thread.
"""

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
import time

THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT_DIR = os.path.join(HERE, "out")
DEADLINE_S = 170.0  # a run ends within 180 s
SETUP_SAMPLES = 3  # fresh processes: one before, one running the timed phase, one after

UNITS = {
    "solve_p50_ms": "ms",
    "solve_p90_ms": "ms",
    "solves_per_s": "1/s",
    "accuracy_digits": "digits",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}


def _args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def _worker(role, args, deadline):
    """Run worker.py in a fresh process group; its parsed last line."""
    cmd = [sys.executable, os.path.join(HERE, "worker.py"), "--role", role,
           "--workload", args.workload, "--seed", str(args.seed), "--seconds", str(args.seconds)]
    proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                            text=True, start_new_session=True)
    try:
        out, err = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise RuntimeError(f"{role} worker exceeded the deadline")
    if proc.returncode != 0:
        raise RuntimeError(f"{role} worker exited with {proc.returncode}:\n{err.strip()}")
    return json.loads(out.strip().splitlines()[-1])


def _git_commit():
    """HEAD of the checkout if it is a git work tree, read without git."""
    try:
        with open(os.path.join(ROOT, ".git", "HEAD"), "r", encoding="utf-8") as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        with open(os.path.join(ROOT, ".git", head[5:]), "r", encoding="utf-8") as fh:
            return fh.read().strip()
    except OSError:
        return None


def main(argv=None):
    args = _args(argv)
    deadline = time.monotonic() + DEADLINE_S
    if not os.path.isfile(os.path.join(ROOT, "src", "geodet", "__init__.py")):
        sys.stderr.write(f"no geodet sources under {ROOT}/src; run from a source checkout\n")
        return 2
    try:
        if args.trace:
            res = _worker("trace", args, deadline)
            metrics = res["metrics"]
            units = {name: _layer_unit(name) for name in metrics}
        else:
            # set-up samples before, in and after the timed phase, so a
            # burst of contention on the machine moves few of them
            before = [_worker("setup", args, deadline) for _ in range(SETUP_SAMPLES // 2)]
            res = _worker("run", args, deadline)
            after = [_worker("setup", args, deadline) for _ in range(SETUP_SAMPLES // 2)]
            samples = before + [res] + after
            metrics = dict(res["metrics"], setup_s=statistics.median(r["setup_s"] for r in samples))
            res["setup_unscaled_s"] = [r["setup_unscaled_s"] for r in samples]
            units = UNITS
    except RuntimeError as exc:
        sys.stderr.write(f"{exc}\n")
        return 1

    info = {k: v for k, v in res.items() if k not in ("metrics", "attempted", "failed")}
    info["environment"].update(seed=args.seed, workload=args.workload, git_commit=_git_commit())
    result = {
        "correct": res["failed"] == 0,
        "attempted": res["attempted"],
        "failed": res["failed"],
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }
    os.makedirs(OUT_DIR, exist_ok=True)
    path = os.path.join(OUT_DIR, f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump({"info": info, "result": result}, fh, indent=1)
    print(json.dumps(info))
    print(json.dumps(result))
    return 0


def _layer_unit(name):
    if name.endswith("ms"):
        return "ms"
    if name.endswith("_frac"):
        return "ratio"
    return "count"


if __name__ == "__main__":
    sys.exit(main())

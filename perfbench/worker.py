"""One benchmark process: set-up, the timed phase or the traced run.

Started by run.py in a fresh interpreter; prints one JSON object as its
last line.  Roles:

* ``setup``: import geodet, build the inputs, run one warm-up instance and
  report the set-up time;
* ``run``: the same set-up, then whole rounds in a closed loop with one
  client until ``--seconds`` is spent; reports the end-to-end metrics;
* ``trace``: the same set-up, then whole rounds for ``--seconds`` in which
  every instance runs untraced and then again with geodet's public
  functions wrapped in spans; reports the per-layer metrics and the
  tracing overhead.
"""

import os
import sys
import time

THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(HERE, "out")
# passes after the first may run until this multiple of --seconds
PASS_SLACK = 1.25


def _args(argv):
    p = argparse.ArgumentParser()
    p.add_argument("--role", choices=("setup", "run", "trace"), required=True)
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    return p.parse_args(argv)


def _setup(args):
    """Import geodet, build the inputs, run the warm-up; (state, seconds)."""
    t0 = time.perf_counter()
    sys.path[:0] = [SRC, HERE]
    import geodet

    if not os.path.abspath(geodet.__file__).startswith(SRC + os.sep):
        raise SystemExit(f"geodet was imported from {geodet.__file__}, not from {SRC}")
    import workloads as wl

    refs = wl.load_refs()
    workload = wl.build_workload(args.workload, args.seed, refs)
    env = wl.cli_env()
    warm = wl.execute(workload.warmup, refs, env)
    if not warm.ok:
        raise SystemExit(f"warm-up instance failed: {warm.reason}")
    return (wl, refs, workload, env), time.perf_counter() - t0


def pick_rounds(workload, seconds, runs_per_instance):
    """The first whole rounds that fill ``seconds`` at the nominal speed.

    The count depends only on the arguments, so a seed always gives the
    same instances and every run has the same mix of strata.
    """
    nominal = runs_per_instance * workload.round_s
    count = max(1, int(seconds // nominal))
    return [inst for rnd in workload.rounds[:count] for inst in rnd], count


class SpeedProbe:
    """Fixed work, independent of geodet, that tracks the machine's speed.

    The benchmark shares its virtual CPUs with other tenants; while they
    are busy, the same work takes up to 70% longer, for seconds up to
    minutes.  The probe mixes small-matrix Python loops and a GEMM, like
    the workloads, and runs after every instance.  ``factor(i)`` is
    ``REF_S`` over the median probe time around the i-th run, which scales
    that run's time to the machine's unloaded speed; a change to geodet
    does not move the probe.
    """

    REF_S = 2.2e-3  # unloaded probe time, 2 vCPUs of a Xeon at 2.1 GHz
    HALF_WINDOW = 5

    def __init__(self):
        import numpy as np

        rng = np.random.default_rng(0)
        self._A = rng.standard_normal((3, 3))
        self._y = np.ones((3, 3))
        self._M = rng.standard_normal((200, 200))
        self.times = []

    def __call__(self) -> int:
        """Run the probe once; returns the index of its time."""
        t0 = time.perf_counter()
        z = self._y
        for _ in range(700):
            z = self._A @ z * 0.5 + self._y
        for _ in range(4):
            self._M @ self._M
        self.times.append(time.perf_counter() - t0)
        return len(self.times) - 1

    def factor(self, i: int) -> float:
        lo = max(0, i - self.HALF_WINDOW)
        return self.REF_S / statistics.median(self.times[lo:i + self.HALF_WINDOW + 1])


def run_passes(instances, repeats, step, probe=None, budget_s=math.inf):
    """Run every instance once per pass, up to ``repeats`` passes in a row.

    An instance's time is its best run; its runs are a whole pass apart,
    so a burst of contention rarely reaches all of them.  A pass after the
    first starts only if it would end within ``budget_s``.  With a
    ``probe``, the best run's time is scaled to the unloaded speed.
    ``step(inst)`` runs and judges one instance; an instance fails if any
    of its runs fails.  Returns ([(inst, scaled best seconds, best
    seconds, outcome)], passes run).
    """
    best = [math.inf] * len(instances)
    at = [None] * len(instances)
    outcomes = [None] * len(instances)
    start = time.perf_counter()
    passes = 0
    while passes < repeats:
        elapsed = time.perf_counter() - start
        if passes and elapsed * (passes + 1) / passes > budget_s:
            break
        for j, inst in enumerate(instances):
            t0 = time.perf_counter()
            out = step(inst)
            dt = time.perf_counter() - t0
            idx = probe() if probe else None
            if dt < best[j]:
                best[j], at[j] = dt, idx
            if outcomes[j] is None or not out.ok:
                outcomes[j] = out
        passes += 1
    scaled = [b * probe.factor(i) if probe else b for b, i in zip(best, at)]
    return list(zip(instances, scaled, best, outcomes)), passes


def _percentile(sorted_vals, q):
    """Linear interpolation between closest ranks (numpy's default)."""
    pos = (len(sorted_vals) - 1) * q
    lo = int(pos)
    hi = min(lo + 1, len(sorted_vals) - 1)
    return sorted_vals[lo] + (sorted_vals[hi] - sorted_vals[lo]) * (pos - lo)


def _strata(results):
    by = {}
    for inst, dt, *_ in results:
        by.setdefault(inst.stratum, []).append(1e3 * dt)
    return {name: round(statistics.median(ts), 3) for name, ts in sorted(by.items())}


def _failures(results):
    return [f"{inst.stratum} {inst.argv or inst.params}: {out.reason}"
            for inst, *_, out in results if not out.ok]


def timed(args, state):
    wl, refs, workload, env = state
    instances, rounds = pick_rounds(workload, args.seconds, workload.repeats)
    t0 = time.perf_counter()
    results, passes = run_passes(instances, workload.repeats,
                                 lambda inst: wl.execute(inst, refs, env), SpeedProbe(),
                                 PASS_SLACK * args.seconds)
    wall = time.perf_counter() - t0
    times = sorted(1e3 * dt for _, dt, _, _ in results)
    raw = sorted(1e3 * dt for _, _, dt, _ in results)
    ok = [out for *_, out in results if out.ok]
    ok_ms = sum(1e3 * dt for _, dt, _, out in results if out.ok)
    raw_ok_ms = sum(1e3 * dt for _, _, dt, out in results if out.ok)
    digits = [wl.accuracy_digits(out.rel_err) for out in ok if out.rel_err is not None]
    who = resource.RUSAGE_CHILDREN if workload.cli else resource.RUSAGE_SELF
    p90 = _percentile(times, 0.9)
    return {
        "metrics": {
            "solve_p50_ms": _percentile(times, 0.5),
            "solve_p90_ms": p90,
            # one pass over the instances at each instance's best time
            "solves_per_s": 1e3 * len(ok) / ok_ms if ok_ms else 0.0,
            "accuracy_digits": min(digits) if digits else wl.DIGITS_CAP,
            "peak_rss_mb": resource.getrusage(who).ru_maxrss / 1024.0,
        },
        "attempted": len(results),
        "failed": len(results) - len(ok),
        "failures": _failures(results)[:20],
        "samples": len(times),
        "beyond_p90": sum(t > p90 for t in times),
        "unscaled_p50_ms": _percentile(raw, 0.5),
        "unscaled_p90_ms": _percentile(raw, 0.9),
        "unscaled_solves_per_s": 1e3 * len(ok) / raw_ok_ms if raw_ok_ms else 0.0,
        "strata_median_ms": _strata(results),
        "rounds": rounds,
        "passes": passes,
        "timed_s": wall,
    }


def _cli_inprocess(cli, argv):
    """cli.main(argv) in this process with its output discarded; seconds."""
    t0 = time.perf_counter()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        try:
            cli.main(list(argv))
        except Exception:  # noqa: BLE001 - the subprocess run already judged it
            pass
    return time.perf_counter() - t0


def traced(args, state):
    """Per-layer metrics; each instance runs untraced, then traced.

    Interleaving the two runs of an instance keeps drift of the machine out
    of the overhead.  For CLI workloads the untraced run is the subprocess
    (which judges the output) followed by cli.main in process; their
    difference is interpreter start plus import.
    """
    wl, refs, workload, env = state
    import tracing
    from geodet import cli

    tracer = tracing.Tracer()
    totals = {"plain": 0.0, "traced": 0.0, "process": 0.0}
    failed = set()

    def step(inst):
        i = tracer.instance = tracer.instance + 1
        t0 = time.perf_counter()
        out = wl.execute(inst, refs, env)
        plain = time.perf_counter() - t0
        if workload.cli:
            sub, plain = plain, _cli_inprocess(cli, inst.argv)
            totals["process"] += sub - plain
            with tracing.installed(tracer):
                totals["traced"] += _cli_inprocess(cli, inst.argv)
        else:
            with tracing.installed(tracer):
                t0 = time.perf_counter()
                out = wl.execute(inst, refs, env, tracer.potential_hook)
                totals["traced"] += time.perf_counter() - t0
        totals["plain"] += plain
        if not out.ok:
            failed.add(i)
        return out

    # an instance runs about twice per traced round: untraced, then traced
    instances, _ = pick_rounds(workload, args.seconds, 2)
    results = [(inst, dt, out) for inst, dt, _, out in run_passes(instances, 1, step)[0]]
    metrics = tracing.per_layer_metrics(
        tracer, failed, totals["plain"], totals["traced"], totals["process"])
    os.makedirs(OUT_DIR, exist_ok=True)
    tracer.write(os.path.join(OUT_DIR, f"spans-{args.workload}-seed{args.seed}.jsonl"))
    return {
        "metrics": metrics,
        "attempted": len(results),
        "failed": len(failed),
        "failures": _failures(results)[:20],
        "samples": len(results),
    }


def environment() -> dict:
    """Machine and library facts recorded with every result."""
    import mpmath
    import numpy
    import scipy

    cpu = platform.processor() or None
    try:
        with open("/proc/cpuinfo", "r", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")), cpu)
    except OSError:
        pass
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError, ValueError):
        blas = None
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "mpmath": mpmath.__version__,
        "blas": blas,
        "threads": {var: os.environ.get(var) for var in THREAD_VARS},
    }


def main(argv=None):
    args = _args(argv)
    state, setup_s = _setup(args)
    probe = SpeedProbe()
    for _ in range(2 * probe.HALF_WINDOW + 1):
        probe()
    # scaled to the unloaded speed like the instance times
    out = {"setup_s": setup_s * probe.factor(probe.HALF_WINDOW), "setup_unscaled_s": setup_s}
    if args.role == "run":
        out.update(timed(args, state))
    elif args.role == "trace":
        out.update(traced(args, state))
    if args.role != "setup":
        out["environment"] = environment()
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())

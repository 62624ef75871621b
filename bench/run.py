"""lsqctrl benchmark: time to a stated accuracy, per workload.

Run from the repository root:

    python3 bench/run.py --workload control16 --seed 0 --seconds 40 --trace 0

One process, one solve at a time (closed loop), one BLAS thread.
``--trace 0`` measures the end-to-end metrics: the set-up time of a few
fresh processes, then the workload solved again and again on the same
seeded inputs for ``--seconds`` seconds (at least twice).  The gated
times, setup_s and solve_cal_s, are calibrated: each timed call is cut
into short segments, each segment is divided by a fixed kernel timed just
before and after it, and the sum is scaled by CAL_NOMINAL_S.  ``--trace 1``
is the separate traced run: it alternates an untraced and a traced solve
and reports the per-layer metrics, the trace coverage and the tracing
overhead.  Every solve's output is checked, and iteration count and
final energy must repeat bit for bit across the solves of a run.

The report is printed first; the last line of standard output is one
JSON object with the keys correct, attempted, failed and metrics, whose
metric names and units are those listed in BENCHMARK.json.  The exit
code is 0 when every check passed, 1 when one failed and 2 when the
package sources or BENCHMARK.json are missing.
"""

import os

# Pin the BLAS and OpenMP pools before anything imports numpy.  The
# package's LSQCTRL_THREADS knob is read by lsqctrl.cli, after numpy is
# already loaded, so it cannot be relied on here.
THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(THREADS)

import argparse  # noqa: E402
import itertools  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = ROOT / ".bench_out"
SETUP_PROBES = 5
PROBE_TIMEOUT_S = 120
# Median time of the calibration kernel (workloads.calibration_s) on the
# machine the benchmark was defined on, see bench/README.md.  The gated
# times are relative times scaled by it: seconds at that machine's speed.
CAL_NOMINAL_S = 0.02


def summarize(samples):
    """Median, the highest nearest-rank percentile with at least ten
    samples beyond it (None below eleven samples), and the count."""
    xs = sorted(samples)
    n = len(xs)
    if n < 11:
        return statistics.median(xs), None, n
    k = n - 11
    return statistics.median(xs), (100.0 * (k + 1) / n, xs[k]), n


def describe(samples):
    med, pct, n = summarize(samples)
    tail = f"p{pct[0]:.0f} {pct[1]:.6g}" if pct else "no percentile with 10 samples beyond"
    return med, f"median of {n}; {tail}"


def environment():
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    head = ROOT / ".git" / "HEAD"
    sha = "unavailable (not a git checkout)"
    if head.is_file():
        ref = head.read_text().strip()
        sha = ref
        if ref.startswith("ref: ") and (ROOT / ".git" / ref[5:]).is_file():
            sha = (ROOT / ".git" / ref[5:]).read_text().strip()
    return {
        "machine": platform.machine(),
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": THREADS,
        "git": sha,
    }


def probe_setup(workload, seed):
    """Seconds from starting a fresh interpreter to its workload being ready."""
    t0 = time.perf_counter()
    proc = subprocess.Popen([sys.executable, str(BENCH / "probe.py"), workload, str(seed)],
                            stdout=subprocess.PIPE, cwd=ROOT)
    try:
        line = proc.stdout.readline()
        elapsed = time.perf_counter() - t0
        proc.wait(timeout=PROBE_TIMEOUT_S)
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
        proc.stdout.close()
    if line.strip() != b"ready" or proc.returncode != 0:
        raise RuntimeError(f"set-up probe failed with exit code {proc.returncode}")
    return elapsed


def repeat(step, seconds):
    """Call step() at least twice, then while another call fits in the window."""
    results, laps = [], []
    t0 = time.perf_counter()
    while True:
        t = time.perf_counter()
        results.append(step())
        laps.append(time.perf_counter() - t)
        if len(results) >= 2 and time.perf_counter() - t0 + statistics.median(laps) > seconds:
            return results


def determinism_failures(outcomes):
    """Iteration count and final energy must repeat bit for bit."""
    first = outcomes[0]
    return [[] if (o.iters, o.energy) == (first.iters, first.energy)
             else [f"iters/energy {o.iters}/{o.energy!r} differ from "
                   f"{first.iters}/{first.energy!r}"]
             for o in outcomes]


def timed_run(workload_cls, args, report):
    from workloads import calibration_s

    wl = workload_cls(args.seed, OUT / args.workload)
    report(f"inputs: {wl.inputs}")
    setup, setup_rel = [], []

    def probe():
        before = calibration_s()
        setup.append(probe_setup(args.workload, args.seed))
        setup_rel.append(2.0 * setup[-1] / (before + calibration_s()))

    def step():
        # probes are spread over the window so that they meet the same
        # machine load as the solves
        out = wl.solve()
        if len(setup) < SETUP_PROBES:
            probe()
        return out

    outcomes = repeat(step, args.seconds)
    while len(setup) < SETUP_PROBES:
        probe()
    failures = [o.failures + d for o, d in zip(outcomes, determinism_failures(outcomes))]

    samples = {
        "setup_wall_s": setup,
        "setup_s": [CAL_NOMINAL_S * r for r in setup_rel],
        "solve_s": [o.solve_s for o in outcomes],
        "solve_cal_s": [CAL_NOMINAL_S * o.solve_rel for o in outcomes],
        "solve_cpu_s": [o.solve_cpu_s for o in outcomes],
        "ms_per_iter": [1e3 * o.solve_s / o.iters for o in outcomes],
        "output_s": [o.output_s for o in outcomes],
    }
    metrics, notes = {}, {}
    for name, xs in samples.items():
        metrics[name], notes[name] = describe(xs)
    metrics["iters"] = int(statistics.median_low(o.iters for o in outcomes))
    metrics["total_s"] = metrics["setup_wall_s"] + metrics["solve_s"] + metrics["output_s"]
    notes["total_s"] = "setup_wall_s + solve_s + output_s"
    metrics["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    metrics["final_residual"], notes["final_residual"] = describe(
        [o.final_residual for o in outcomes])
    metrics["l2_error"], notes["l2_error"] = describe([o.l2_error for o in outcomes])
    return metrics, notes, failures


def _counter(stats, key):
    return stats.get(key, 0.0)


def traced_run(workload_cls, args, report):
    import workloads
    from tracing import Tracer

    workloads.CALIBRATE = False
    tracer = Tracer()
    with tracer.active(-1):
        wl = workload_cls(args.seed, OUT / args.workload)
    report(f"inputs: {wl.inputs}")
    setup_stats = tracer.layer_stats(-1)

    run_ids = itertools.count()

    def pair():
        untraced = wl.solve()
        with tracer.active(next(run_ids)):
            traced = wl.solve()
        return untraced, traced

    pairs = repeat(pair, args.seconds)
    outcomes = [o for p in pairs for o in p]
    failures = [o.failures + d for o, d in zip(outcomes, determinism_failures(outcomes))]

    per_run = []
    for rid, (_, traced) in enumerate(pairs):
        st = tracer.layer_stats(rid)
        trials = _counter(st, "steady_nse.energy_steady.trials")
        st["steady_nse.armijo_accept_ratio"] = (
            traced.extra["accepted_steps"] / trials if trials else 0.0)
        st["cli.bytes_written"] = traced.extra.get("bytes_written", 0)
        st["cli.parse_config_s"] = st["cli.parse_config.total_s"]
        per_run.append(st)
    keys = sorted(set().union(*per_run))
    metrics = {k: statistics.median(_counter(st, k) for st in per_run) for k in keys}
    for layer in ("elliptic.sine_transform", "elliptic.time_modes"):
        for key in ("elements", "bytes_computed", "flops_computed"):
            metrics.setdefault(f"{layer}.{key}", 0.0)
    metrics["oracles.manufactured_s"] = setup_stats["oracles.manufactured.total_s"]
    # fastest against fastest: the least disturbed solve of each kind
    untraced_s = min(p[0].solve_s for p in pairs)
    traced_s = min(p[1].solve_s for p in pairs)
    metrics["trace.overhead_s"] = traced_s - untraced_s

    report(f"traced solves: {len(pairs)}, fastest untraced solve {untraced_s:.6g} s, "
           f"fastest traced solve {traced_s:.6g} s, overhead {traced_s - untraced_s:.6g} s")
    spans = OUT / args.workload / f"spans-seed{args.seed}.csv"
    tracer.write(spans)
    report(f"spans written to {spans.relative_to(ROOT)}")
    notes = {k: f"median of {len(per_run)} traced solves" for k in metrics}
    return metrics, notes, failures


UNITS = {"iters": "count", "ms_per_iter": "ms", "peak_rss_mb": "MB",
         "fail_frac": "ratio", "final_residual": "1", "l2_error": "1", "trace.coverage": "ratio",
         "steady_nse.armijo_accept_ratio": "ratio", "cli.bytes_written": "B"}
SUFFIX_UNITS = (("_s", "s"), (".calls", "count"), (".elements", "count"), (".trials", "count"),
                (".bytes_computed", "B"), (".flops_computed", "flop"))


def unit_of(name):
    return UNITS.get(name) or next(u for suffix, u in SUFFIX_UNITS if name.endswith(suffix))


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    spec_path = ROOT / "BENCHMARK.json"
    if not (ROOT / "src" / "lsqctrl" / "__init__.py").is_file() or not spec_path.is_file():
        print("bench: run from a checkout holding src/lsqctrl and BENCHMARK.json",
              file=sys.stderr)
        return 2
    spec = json.loads(spec_path.read_text())
    sys.path.insert(0, str(ROOT / "src"))
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"bench: unknown workload {args.workload!r}; one of {sorted(WORKLOADS)}",
              file=sys.stderr)
        return 2

    def report(line):
        print(line, flush=True)

    report(f"lsqctrl benchmark: workload {args.workload}, seed {args.seed}, "
           f"{args.seconds:g} s, trace {args.trace}")
    report(f"environment: {json.dumps(environment())}")
    try:
        run = traced_run if args.trace else timed_run
        metrics, notes, failures = run(WORKLOADS[args.workload], args, report)
    except Exception:
        traceback.print_exc()
        failures = [["raised"]]
        metrics, notes = {}, {}
    attempted = len(failures)
    failed = sum(1 for f in failures if f)
    metrics["fail_frac"] = failed / attempted
    for i, fails in enumerate(failures):
        for msg in fails:
            report(f"check failed (solve {i}): {msg}")

    report(f"{'metric':38s} {'value':>14s} {'unit':8s} statistic")
    for name in sorted(metrics):
        report(f"{name:38s} {metrics[name]:14.6g} {unit_of(name):8s} {notes.get(name, '')}")

    listed = spec["per_layer" if args.trace else "end_to_end"]
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        # a failed run may lack metrics; a passing one must have them all
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]}
                    for m in listed if failed == 0 or m["name"] in metrics},
    }
    print(json.dumps(result), flush=True)
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())

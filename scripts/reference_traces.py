"""Hash the reference runs of a source tree, for refactors that must
keep every run bit-identical.

Usage:

    python3 scripts/reference_traces.py SRC_DIR [--against OTHER_SRC]

SRC_DIR is a checkout of this repository (its ``src`` is put on
PYTHONPATH).  Each config is run as ``python -m lsqctrl.cli`` in a
subprocess at one BLAS thread, in a fresh temporary directory that is
removed afterwards.  One line is printed per run: its exit code, the
sha256 of its ``trace.csv`` and one sha256 over its ``fields/`` files
(names and contents, in sorted order).  Two checkouts run the same
iterates when they print the same lines.  The whole set takes a few
seconds.

With ``--against OTHER_SRC`` every run is made in both checkouts.  For
a run whose ``trace.csv`` differs, the lines that follow its hash line
give the row counts of both traces and the largest relative difference
|a - b| / max(|a|, |b|) in each column over the rows both hold, so a
change at roundoff reads as numbers rather than as a hash mismatch;
they also say whether ``fields/`` and the exit codes agree.
"""

import argparse
import csv
import hashlib
import math
import os
import subprocess
import sys
import tempfile
from pathlib import Path

# the four reference runs, then runs that reach the epsilon terms, a
# time-windowed support, field snapshots, steady steepest descent and a
# non-cubic grid
RUNS = {
    "control16-cg": ["stokes-control", "--grid.nx=16", "--grid.ny=16", "--grid.nt=16",
                     "--physics.nu=1.0", "--control.omega=0.0,0.3333,0.0,1.0",
                     "--solver.max_iter=4000", "--solver.tol_energy_rel=1e-3",
                     "--solver.algorithm=cg"],
    "direct-manufactured": ["stokes-direct", "--problem.manufactured=true",
                            "--solver.algorithm=cg", "--solver.tol_grad=1e-8",
                            "--solver.max_iter=2000"],
    "steady-manufactured": ["steady-nse", "--problem.manufactured=true",
                            "--solver.algorithm=cg", "--solver.tol_grad=1e-8"],
    "abstract-demo": ["abstract-demo", "--seed=3", "--solver.tol_grad=1e-12"],
    "control-eps-window": ["stokes-control", "--grid.nx=12", "--grid.ny=12", "--grid.nt=12",
                           "--control.omega=0.0,0.5,0.0,1.0,0.25,0.75",
                           "--solver.epsilon=0.01", "--solver.algorithm=cg",
                           "--solver.max_iter=300", "--io.dump_every=50"],
    "direct-manufactured-eps": ["stokes-direct", "--problem.manufactured=true",
                                "--solver.epsilon=0.01", "--solver.algorithm=cg",
                                "--solver.tol_grad=1e-8", "--solver.max_iter=2000"],
    "steady-manufactured-steepest": ["steady-nse", "--problem.manufactured=true",
                                     "--solver.max_iter=500"],
    "steady-manufactured-eps": ["steady-nse", "--problem.manufactured=true",
                                "--solver.epsilon=0.01", "--solver.algorithm=cg",
                                "--solver.tol_grad=1e-8"],
    "control-24x20x18-cg": ["stokes-control", "--grid.nx=24", "--grid.ny=20", "--grid.nt=18",
                            "--solver.algorithm=cg", "--solver.tol_energy_rel=1e-3",
                            "--solver.max_iter=400"],
}

THREADS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def fields_digest(folder):
    """One sha256 over the names and bytes of every file in folder."""
    h = hashlib.sha256()
    for path in sorted(folder.rglob("*")) if folder.is_dir() else []:
        if path.is_file():
            h.update(str(path.relative_to(folder)).encode() + b"\0")
            h.update(path.read_bytes())
    return h.hexdigest()


def run(src, args):
    """Exit code, trace.csv bytes (None if not written) and fields/
    digest of one CLI run."""
    env = dict(os.environ, PYTHONPATH=str(src / "src"), **dict.fromkeys(THREADS, "1"))
    with tempfile.TemporaryDirectory(prefix="lsqctrl-ref-") as tmp:
        out = Path(tmp) / "out"
        proc = subprocess.run([sys.executable, "-m", "lsqctrl.cli", *args,
                               f"--io.out_dir={out}"], cwd=tmp, env=env,
                              capture_output=True, text=True)
        trace = out / "trace.csv"
        return (proc.returncode, trace.read_bytes() if trace.is_file() else None,
                fields_digest(out / "fields"))


def trace_digest(data):
    return "-" if data is None else hashlib.sha256(data).hexdigest()


def relative_difference(a, b):
    """|a - b| / max(|a|, |b|) of two CSV cells: 0 for equal cells
    (both empty included), inf where only one is empty."""
    if a == b:
        return 0.0
    if not (a and b):
        return math.inf
    x, y = float(a), float(b)
    scale = max(abs(x), abs(y))
    return abs(x - y) / scale if scale else 0.0


def compare_traces(data, other):
    """Lines that report how two differing trace.csv files differ."""
    if data is None or other is None:
        return [f"  trace.csv written: {data is not None} here, {other is not None} there"]
    (head, *rows), (other_head, *other_rows) = (list(csv.reader(d.decode().splitlines()))
                                                for d in (data, other))
    lines = [f"  rows: {len(rows)} here, {len(other_rows)} there"]
    if head != other_head:
        return lines + [f"  columns differ: {head} here, {other_head} there"]
    for j, name in enumerate(head):
        diff = max((relative_difference(a[j], b[j]) for a, b in zip(rows, other_rows)),
                   default=0.0)
        lines.append(f"  {name:15s} max rel diff {diff:.3g}")
    return lines


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("src", type=Path, help="root of a checkout of this repository")
    parser.add_argument("--against", type=Path, metavar="OTHER_SRC",
                        help="a second checkout: report how each run's trace differs")
    args = parser.parse_args(argv)
    src = args.src.resolve()
    other_src = args.against.resolve() if args.against else None
    for name, cli_args in RUNS.items():
        code, trace, fields = run(src, cli_args)
        print(f"{name:30s} exit={code} trace.csv={trace_digest(trace)} fields={fields}",
              flush=True)
        if other_src is None:
            continue
        other_code, other_trace, other_fields = run(other_src, cli_args)
        if other_code != code:
            print(f"  exit {code} here, {other_code} there")
        if other_trace != trace:
            print("\n".join(compare_traces(trace, other_trace)))
        print(f"  fields/ {'identical' if other_fields == fields else 'differ'}, "
              f"trace.csv {'identical' if other_trace == trace else 'differs'}", flush=True)


if __name__ == "__main__":
    main()

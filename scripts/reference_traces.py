"""Hash the reference runs of a source tree, for refactors that must
keep every run bit-identical.

Usage:

    python3 scripts/reference_traces.py SRC_DIR

SRC_DIR is a checkout of this repository (its ``src`` is put on
PYTHONPATH).  Each config is run as ``python -m lsqctrl.cli`` in a
subprocess at one BLAS thread, in a fresh temporary directory that is
removed afterwards.  One line is printed per run: its exit code, the
sha256 of its ``trace.csv`` and one sha256 over its ``fields/`` files
(names and contents, in sorted order).  Two checkouts run the same
iterates when they print the same lines.  The whole set takes a few
seconds.
"""

import argparse
import hashlib
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


def sha256(path):
    return hashlib.sha256(path.read_bytes()).hexdigest()


def fields_digest(folder):
    """One sha256 over the names and bytes of every file in folder."""
    h = hashlib.sha256()
    for path in sorted(folder.rglob("*")) if folder.is_dir() else []:
        if path.is_file():
            h.update(str(path.relative_to(folder)).encode() + b"\0")
            h.update(path.read_bytes())
    return h.hexdigest()


def run(src, args):
    """Exit code, trace.csv hash and fields/ digest of one CLI run."""
    env = dict(os.environ, PYTHONPATH=str(src / "src"), **dict.fromkeys(THREADS, "1"))
    with tempfile.TemporaryDirectory(prefix="lsqctrl-ref-") as tmp:
        out = Path(tmp) / "out"
        proc = subprocess.run([sys.executable, "-m", "lsqctrl.cli", *args,
                               f"--io.out_dir={out}"], cwd=tmp, env=env,
                              capture_output=True, text=True)
        trace = out / "trace.csv"
        return (proc.returncode, sha256(trace) if trace.is_file() else "-",
                fields_digest(out / "fields"))


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("src", type=Path, help="root of a checkout of this repository")
    src = parser.parse_args(argv).src.resolve()
    for name, args in RUNS.items():
        code, trace, fields = run(src, args)
        print(f"{name:30s} exit={code} trace.csv={trace} fields={fields}", flush=True)


if __name__ == "__main__":
    main()

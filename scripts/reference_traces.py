"""Hash the reference runs of a source tree, for refactors that must
keep every run bit-identical, and tell a roundoff-level trace change
from a real one.

Usage:

    python3 scripts/reference_traces.py SRC_DIR [--against OTHER_SRC [--envelope K]]

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
they also say whether ``fields/`` and the exit codes agree.  Before
the runs, a table gives the line count of every module under
``src/lsqctrl`` in both checkouts and the difference, the lines a
refactor removed.

With ``--envelope K`` (K even) every run that has a
``problem.amplitude`` key is made K more times in OTHER_SRC, at
amplitude 1 +- j 2^-52 for j = 1..K/2: inputs one to a few ulps away,
whose traces show how far OTHER_SRC's own roundoff carries.  The
envelope is the per-row, per-column maximum relative difference of
those traces from OTHER_SRC's own.  Per band of rows (0-9, 10-49,
50-99, 100-199, 200+) the run then reports the largest relative
difference of SRC_DIR's trace from OTHER_SRC's, the envelope's largest
value and their ratio, the multiple, and the column whose own two
maxima have the largest ratio.  A change at roundoff reads near 1; a
real change reads far above it, until the envelope itself reaches the
change.  The report also gives the first row where the envelope
exceeds 1e-12, and each side's exit code and ``reason``,
``iterations``, ``E_last`` and ``l2_error`` from ``summary.json``.  A run without the key
(``abstract-demo``) has no envelope: it must stay byte-identical.  The
tool decides nothing; its output is read beside the change.
"""

import argparse
import csv
import hashlib
import json
import math
import os
import subprocess
import sys
import tempfile
from pathlib import Path
from typing import NamedTuple

# the four reference runs, then runs that reach the epsilon terms, a
# time-windowed support, field snapshots, steady steepest descent, a
# non-cubic grid and the 64^3 workspace (the benchmark's cli-control64
# run at seed 0: 4 iterates)
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
    "control64-cg": ["stokes-control", "--grid.nx=64", "--grid.ny=64", "--grid.nt=64",
                     f"--control.omega=0,{1 / 3!r},0,1", "--solver.algorithm=cg",
                     "--solver.tol_energy_rel=1e-3", "--solver.max_iter=200",
                     "--io.dump_every=0", "--problem.amplitude=1.0"],
}

THREADS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

BANDS = ((0, 10), (10, 50), (50, 100), (100, 200), (200, math.inf))
AMPLITUDE = "--problem.amplitude="
# subcommands whose configs have a problem.amplitude key
AMPLITUDE_RUNS = ("stokes-control", "stokes-direct", "steady-nse")
SUMMARY_KEYS = ("reason", "iterations", "E_last", "l2_error")


class Run(NamedTuple):
    """What one CLI run leaves: its exit code, trace.csv bytes (None if
    not written), fields/ digest and summary.json (None if not written)."""

    code: int
    trace: bytes | None
    fields: str
    summary: dict | None


def fields_digest(folder):
    """One sha256 over the names and bytes of every file in folder."""
    h = hashlib.sha256()
    for path in sorted(folder.rglob("*")) if folder.is_dir() else []:
        if path.is_file():
            h.update(str(path.relative_to(folder)).encode() + b"\0")
            h.update(path.read_bytes())
    return h.hexdigest()


def run(src, args):
    """One CLI run of the checkout src, in a fresh temporary directory."""
    env = dict(os.environ, PYTHONPATH=str(src / "src"), **dict.fromkeys(THREADS, "1"))
    with tempfile.TemporaryDirectory(prefix="lsqctrl-ref-") as tmp:
        out = Path(tmp) / "out"
        proc = subprocess.run([sys.executable, "-m", "lsqctrl.cli", *args,
                               f"--io.out_dir={out}"], cwd=tmp, env=env,
                              capture_output=True, text=True)
        trace, summary = out / "trace.csv", out / "summary.json"
        return Run(proc.returncode, trace.read_bytes() if trace.is_file() else None,
                   fields_digest(out / "fields"),
                   json.loads(summary.read_text()) if summary.is_file() else None)


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


def parse_trace(data):
    """The header and the rows of trace.csv bytes, as lists of cells."""
    return list(csv.reader(data.decode().splitlines()))


def compare_traces(data, other):
    """Lines that report how two differing trace.csv files differ."""
    if data is None or other is None:
        return [f"  trace.csv written: {data is not None} here, {other is not None} there"]
    (head, *rows), (other_head, *other_rows) = parse_trace(data), parse_trace(other)
    lines = [f"  rows: {len(rows)} here, {len(other_rows)} there"]
    if head != other_head:
        return lines + [f"  columns differ: {head} here, {other_head} there"]
    maxima = [max(column) for column in zip(*deviations(data, other))] or [0.0] * len(head)
    return lines + [f"  {name:15s} max rel diff {diff:.3g}" for name, diff in zip(head, maxima)]


def deviations(data, other):
    """Per-row, per-column relative differences of two traces with the
    same columns, over the rows both hold (None if either is missing or
    their columns differ)."""
    if data is None or other is None:
        return None
    (head, *rows), (other_head, *other_rows) = parse_trace(data), parse_trace(other)
    if head != other_head:
        return None
    return [[relative_difference(a, b) for a, b in zip(ra, rb)]
            for ra, rb in zip(rows, other_rows)]


def envelope(base, perturbed):
    """Per-row, per-column maximum of the deviations of the perturbed
    traces from base, over the runs that reach each row."""
    env = []
    for trace in perturbed:
        for r, row in enumerate(deviations(base, trace) or []):
            if r == len(env):
                env.append(row)
            else:
                env[r] = [max(a, b) for a, b in zip(env[r], row)]
    return env


def perturbed_args(args, j):
    """args with problem.amplitude set to 1 + j 2^-52."""
    amplitude = 1.0 + j * 2.0**-52
    return [a for a in args if not a.startswith(AMPLITUDE)] + [f"{AMPLITUDE}{amplitude!r}"]


def ratio(d, e):
    """d as a multiple of e: 0 where d is 0, inf where only e is."""
    return d / e if e else (math.inf if d else 0.0)


def band_report(head, dev, env):
    """Lines that compare a change's deviations with the envelope, band
    by band, over the rows both reach: the band maxima, their ratio, and
    the column whose own maxima have the largest ratio."""
    n = min(len(dev), len(env))
    lines = [f"  {'rows':10s} {'deviation':>10s} {'envelope':>10s} {'multiple':>9s}  worst column"]
    for lo, hi in BANDS:
        if lo >= n:
            break
        d, e = dev[lo:min(hi, n)], env[lo:min(hi, n)]
        top_d, top_e = max(map(max, d)), max(map(max, e))
        cols = [ratio(a, b) for a, b in zip(map(max, zip(*d)), map(max, zip(*e)))]
        worst = max(range(len(cols)), key=cols.__getitem__)
        name = f"{lo}-{hi - 1}" if hi < math.inf else f"{lo}+"
        lines.append(f"  {name:10s} {top_d:10.2g} {top_e:10.2g} {ratio(top_d, top_e):9.2f}  "
                     + (f"{head[worst]} {cols[worst]:.2f}" if cols[worst] else "-"))
    first = next((r for r, row in enumerate(env) if max(row) > 1e-12), None)
    lines.append(f"  rows compared: {n}; first row where the envelope exceeds 1e-12: "
                 f"{'none' if first is None else first}")
    return lines


def summary_line(side, result):
    """A side's exit code and end-of-run quantities from summary.json."""
    summary = result.summary or {}
    cells = [f"{key} {summary.get(key, '-')}" for key in SUMMARY_KEYS]
    return f"  {side:6s} exit {result.code}, " + ", ".join(cells)


def envelope_report(other_src, cli_args, here, there, k):
    """Lines that read a change's trace against the envelope of the
    other checkout's roundoff, over k perturbed runs of it."""
    lines = [summary_line("here", here), summary_line("there", there)]
    if cli_args[0] not in AMPLITUDE_RUNS:
        return lines + [f"  no amplitude key: byte-identical "
                        f"{'yes' if here.trace == there.trace else 'NO'}"]
    perturbed = [run(other_src, perturbed_args(cli_args, sign * j)).trace
                 for j in range(1, k // 2 + 1) for sign in (1, -1)]
    dev, env = deviations(here.trace, there.trace), envelope(there.trace, perturbed)
    if not dev or not env:
        return lines + ["  no envelope: a trace is missing or its columns differ"]
    return lines + [f"  envelope of {k} runs at amplitude 1 +- j 2^-52"] + band_report(
        parse_trace(there.trace)[0], dev, env)


def module_lines(src):
    """Line count of every module under src/lsqctrl, by its path there."""
    pkg = src / "src" / "lsqctrl"
    return {path.relative_to(pkg).as_posix(): len(path.read_bytes().splitlines())
            for path in pkg.rglob("*.py")}


def compare_sizes(here, there):
    """Lines that give both checkouts' module sizes and the difference."""
    rows = [(name, here.get(name, 0), there.get(name, 0))
            for name in sorted(here.keys() | there.keys())]
    rows.append(("total", sum(here.values()), sum(there.values())))
    return [f"{'src/lsqctrl':30s} {'here':>6s} {'there':>6s} {'diff':>6s}"] + [
        f"{name:30s} {a:6d} {b:6d} {a - b:+6d}" for name, a, b in rows]


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("src", type=Path, help="root of a checkout of this repository")
    parser.add_argument("--against", type=Path, metavar="OTHER_SRC",
                        help="a second checkout: report how each run's trace differs")
    parser.add_argument("--envelope", type=int, metavar="K", default=0,
                        help="read each difference against K perturbed runs of OTHER_SRC")
    args = parser.parse_args(argv)
    if args.envelope and (args.against is None or args.envelope < 2 or args.envelope % 2):
        parser.error("--envelope K needs --against and an even K >= 2")
    src = args.src.resolve()
    other_src = args.against.resolve() if args.against else None
    if other_src is not None:
        print("\n".join(compare_sizes(module_lines(src), module_lines(other_src))), flush=True)
    for name, cli_args in RUNS.items():
        here = run(src, cli_args)
        print(f"{name:30s} exit={here.code} trace.csv={trace_digest(here.trace)} "
              f"fields={here.fields}", flush=True)
        if other_src is None:
            continue
        there = run(other_src, cli_args)
        if there.code != here.code:
            print(f"  exit {here.code} here, {there.code} there")
        if there.trace != here.trace:
            print("\n".join(compare_traces(here.trace, there.trace)))
        print(f"  fields/ {'identical' if there.fields == here.fields else 'differ'}, "
              f"trace.csv {'identical' if there.trace == here.trace else 'differs'}", flush=True)
        if args.envelope:
            print("\n".join(envelope_report(other_src, cli_args, here, there, args.envelope)),
                  flush=True)


if __name__ == "__main__":
    main()

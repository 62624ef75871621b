"""The benchmark workloads: seeded inputs, one timed solve, output checks.

Each workload is built from a seed (building it is the set-up the
benchmark times) and then solved any number of times on the same
inputs.  Seed 0 gives the reference inputs; other seeds give inputs of
the same family.  The program only sees the generated inputs.

Every package function is called through its module attribute
(``sc.descend``, ``oracles.manufactured_stokes``), so the traced run,
which wraps module bindings, sees these calls too.
"""

import json
import math
import shutil
import time
import warnings
from dataclasses import dataclass, field

import numpy as np

from lsqctrl import cli, oracles
from lsqctrl import steady_nse as sn
from lsqctrl import stokes_control as sc
from lsqctrl.discretization import SpaceTimeGrid, SpatialGrid, SupportMask, elliptic

# Discretization-level L2 errors of the manufactured workloads at seed 0
# (amplitude 1); a solve passes when its error, divided by the seeded
# amplitude, is within L2_TOLERANCE of these.
DIRECT32_L2 = 4.773e-3
STEADY32_L2 = 7.504e-3
L2_TOLERANCE = 0.05


@dataclass
class Outcome:
    solve_s: float
    solve_cpu_s: float
    iters: int
    energy: float            # final energy, compared bit for bit across repeats
    final_residual: float    # absolute corrector norm at the end
    solve_rel: float         # solve time in calibration-kernel times, see _timed
    output_s: float = 0.0
    l2_error: float = float("nan")
    failures: list = field(default_factory=list)
    extra: dict = field(default_factory=dict)


# Fixed inputs of the calibration kernel, the same for every seed.
_CAL_A, _CAL_B = np.random.default_rng(0).standard_normal((2, 2, 33, 33))


def calibration_s():
    """Wall time of a fixed kernel that never calls the package.

    Half of it is a pure-Python loop and half is arithmetic on small numpy
    arrays, the two kinds of work a solve is made of.  It lasts about 20 ms
    on the machine described in bench/README.md.
    """
    t0 = time.perf_counter()
    acc = 0
    for i in range(90_000):
        acc += i * i % 7
    a, b = _CAL_A, _CAL_B
    for _ in range(340):
        d = a[:, 2:, 1:-1] + a[:, :-2, 1:-1] - 2.0 * a[:, 1:-1, 1:-1]
        e = 0.5 * b - a
        acc += float(np.vdot(d, d)) + float(np.sum(e * e))
    return time.perf_counter() - t0


# The timed calls are cut into segments of about this many seconds, with a
# calibration kernel between them; the traced run turns CALIBRATE off, so
# that no kernel time falls inside its spans.
SEGMENT_S = 0.3
CALIBRATE = True


def _timed(fn, *args, **kwargs):
    """fn(*args, **kwargs) with its wall time, CPU time and relative time.

    The speed of a shared machine drifts by a factor of 1.5 within seconds
    to minutes, and the calibration kernel drifts with it when it runs
    within a fraction of a second of the timed work.  So the call is cut
    into segments of about SEGMENT_S at calls of elliptic.sine_transform,
    which every solver makes a few times per iteration, and the kernel runs
    before the first segment and after each.  A segment's relative time is
    its wall time over the mean of the kernel times before and after it;
    the call's is their sum.  Wall and CPU time leave the kernel out.
    Returns (result, wall, cpu, relative); relative is nan when CALIBRATE
    is off.
    """
    if not CALIBRATE:
        t0, c0 = time.perf_counter(), time.process_time()
        out = fn(*args, **kwargs)
        return out, time.perf_counter() - t0, time.process_time() - c0, math.nan
    original = elliptic.sine_transform
    segments, cal = [], [calibration_s()]
    start = [time.perf_counter(), time.process_time()]

    def cut():
        segments.append((time.perf_counter() - start[0], time.process_time() - start[1]))
        cal.append(calibration_s())
        start[:] = time.perf_counter(), time.process_time()

    def sliced(*a, **k):
        if time.perf_counter() - start[0] >= SEGMENT_S:
            cut()
        return original(*a, **k)

    elliptic.sine_transform = sliced
    try:
        start[:] = time.perf_counter(), time.process_time()
        out = fn(*args, **kwargs)
        cut()
    finally:
        elliptic.sine_transform = original
    relative = sum(2.0 * wall / (a + b) for (wall, _), a, b in zip(segments, cal, cal[1:]))
    return (out, sum(w for w, _ in segments), sum(c for _, c in segments), relative)


def _seeded(seed, lo, hi, reference):
    """Uniform draws from [lo, hi), shaped like reference, for seed > 0;
    the reference values themselves for seed 0."""
    if not seed:
        return reference
    return np.random.default_rng(seed).uniform(lo, hi, np.shape(reference)).tolist()


def _st_l2(a, grid):
    """Trapezoid-in-time, nodal-in-space L2 norm over Q_T (independent of
    the package's quadrature helpers)."""
    w = np.full(grid.nt + 1, grid.ht)
    w[[0, -1]] *= 0.5
    per_level = (np.asarray(a) ** 2).reshape(grid.nt + 1, -1).sum(axis=1)
    return math.sqrt(grid.hx * grid.hy * float(per_level @ w))


def _stop_checks(rep, reason):
    """The solve must stop by its stated target, not by max_iter."""
    return [] if rep.reason == reason else [f"stopped by {rep.reason!r}, not by {reason!r}"]


def _bump_y0(grid, mx=0.5, my=-0.3):
    """curl of sin^2(pi x) sin^2(pi y) (1 + mx x + my y): divergence free,
    vanishing on the walls.  mx, my = 0.5, -0.3 is the bump of the
    null-control acceptance run."""
    X, Y = grid.meshgrid()
    S, T = np.sin(np.pi * X) ** 2, np.sin(np.pi * Y) ** 2
    Sx, Ty = np.pi * np.sin(2 * np.pi * X), np.pi * np.sin(2 * np.pi * Y)
    M = 1.0 + mx * X + my * Y
    return np.stack([S * Ty * M + my * S * T, -(Sx * T * M + mx * S * T)])


class Control16:
    """16^3 null control of the modulated bump, CG, to E <= 1e-3 E(s_A)."""

    name = "control16"
    TARGET = 1e-3
    MAX_ITER = 6000

    def __init__(self, seed, out_dir):
        # seeded smooth divergence-free perturbation: the modulation slopes
        dmx, dmy = _seeded(seed, -0.05, 0.05, [0.0, 0.0])
        self.inputs = {"mx": 0.5 + dmx, "my": -0.3 + dmy}
        grid = SpaceTimeGrid(16, 16, 16)
        y0 = _bump_y0(grid, **self.inputs)
        self.problem = sc.ControlProblem(grid, 1.0, y0, SupportMask(0.0, 1 / 3, 0.0, 1.0))
        self.config = sc.SolveConfig(max_iter=self.MAX_ITER, tol_energy_rel=self.TARGET,
                                     refresh_every=50, algorithm="cg")

    def solve(self):
        p = self.problem
        (s, rep), wall, cpu, rel = _timed(sc.descend, p, self.config)
        E = rep.energies
        out = Outcome(wall, cpu, rep.iterates_count, float(E[-1]),
                      float(rep.extras["corrector"].weak_residual_norm), rel)
        out.failures = _stop_checks(rep, "energy_tol")
        if not E[-1] <= self.TARGET * E[0]:
            out.failures.append(f"E = {E[-1]:.6g} above the target {self.TARGET * E[0]:.6g}")
        if not (np.diff(E) <= 1e-12 * E[:-1] + 1e-15 * E[0]).all():
            out.failures.append("energy not monotone")
        if not np.array_equal(s.y[0], p.y0):
            out.failures.append("y[0] != y0")
        if np.abs(s.y[-1]).max() != 0.0:
            out.failures.append("y[-1] != 0")
        if np.abs(s.f * (1 - p.mask_array())).max() != 0.0:
            out.failures.append("f nonzero off the control support")
        return out


class Direct32:
    """32^3 manufactured direct problem, CG, to 1e-5 of the first gradient.

    At 1e-5 the L2 error already equals the discretization error (4.7724e-3
    against 4.7731e-3 at 1e-6, in 117 iterations instead of 277), so the
    tighter target would only polish, at twice the cost per sample.
    """

    name = "direct32"
    TOL_GRAD = 1e-5
    MAX_ITER = 3000

    def __init__(self, seed, out_dir):
        amp = _seeded(seed, 0.8, 1.25, 1.0)
        self.inputs = {"amplitude": amp}
        grid = SpaceTimeGrid(32, 32, 32)
        self.exact, _ = oracles.manufactured_stokes(oracles.default_unsteady_case(), grid, 1.0)
        # the direct problem is linear: the scaled triplet is exact too
        for part in (self.exact.y, self.exact.pi, self.exact.f):
            part *= amp
        self.problem = sc.ControlProblem(grid, 1.0, self.exact.y[0].copy(),
                                         SupportMask(0.0, 1.0, 0.0, 1.0), mode="direct")
        self.config = sc.SolveConfig(max_iter=self.MAX_ITER, tol_grad=self.TOL_GRAD,
                                     refresh_every=50, algorithm="cg")

    def solve(self):
        p = self.problem
        s0 = sc.lift_sA(p)
        s0.f = self.exact.f.copy()  # the control is frozen at the exact forcing
        (s, rep), wall, cpu, rel = _timed(sc.descend, p, self.config, s_init=s0)
        out = Outcome(wall, cpu, rep.iterates_count, float(rep.energies[-1]),
                      float(rep.extras["corrector"].weak_residual_norm), rel)
        out.failures = _stop_checks(rep, "grad_tol")
        out.l2_error = _st_l2(s.y - self.exact.y, p.grid)
        bound = (1 + L2_TOLERANCE) * DIRECT32_L2 * self.inputs["amplitude"]
        if not out.l2_error <= bound:
            out.failures.append(f"L2 error {out.l2_error:.4g} above {bound:.4g}")
        return out


class Steady32:
    """A batch of 32x32 manufactured steady Navier-Stokes problems, PR+ CG,
    each to E <= 1e-7 E(0).

    One instance per seed would not do: the PR+ CG iteration count to a
    fixed target moves by about 10% between amplitudes 0.1% apart (the
    Armijo step sequence is chaotic), so the workload solves a batch of
    seeded amplitudes and the spread of its total shrinks with the batch.
    The spread over seeds (interquartile range over median) was 0.074 to
    0.085 at 16 problems; 32 halve its variance.
    """

    name = "steady32"
    BATCH = 32
    TARGET = 1e-7
    MAX_ITER = 8000

    def __init__(self, seed, out_dir):
        amps = np.random.default_rng(seed).uniform(0.9, 1.1, self.BATCH)
        self.inputs = {"amplitudes": [round(float(a), 6) for a in amps]}
        self.grid = g = SpatialGrid(32, 32)
        base = oracles.default_steady_case()
        # Scaling psi and the pressure by a keeps the analytic solution
        # exact, with forcing a L + a^2 C (viscous/pressure part L,
        # convection C); two samples of the analytic case give L and C.
        samples = [oracles.manufactured_steady(
            oracles.ManufacturedCase(a * base.psi, a * base.pressure), g, 1.0) for a in (1, 2)]
        y1, f1, f2 = samples[0][0], samples[0][2], samples[1][2]
        conv = 0.5 * (f2 - 2.0 * f1)
        lin = f1 - conv
        self.cases = []
        for a in amps:
            p = sn.SteadyProblem(g, 1.0, a * lin + a * a * conv)
            e0 = sn.energy_steady(p, sn.SteadyState.zeros(g))
            cfg = sn.SteadyConfig(max_iter=self.MAX_ITER, tol_energy=self.TARGET * e0,
                                  algorithm="cg")
            self.cases.append((float(a), a * y1, p, cfg))

    def solve(self):
        g = self.grid
        with warnings.catch_warnings():
            # descend_steady warns that data this large may have several
            # steady solutions; the manufactured one is checked below
            warnings.simplefilter("ignore", UserWarning)
            runs, wall, cpu, rel = _timed(
                lambda: [sn.descend_steady(p, cfg) for _, _, p, cfg in self.cases])
        reps = [rep for _, rep in runs]
        out = Outcome(wall, cpu, sum(r.iterates_count for r in reps),
                      float(sum(r.energies[-1] for r in reps)),
                      max(float(r.extras["residual_norms"][-1]) for r in reps), rel)
        errors = []
        for (amp, y_exact, _, _), (s, rep) in zip(self.cases, runs):
            out.failures += _stop_checks(rep, "energy_tol")
            err = math.sqrt(g.hx * g.hy * float(np.sum((s.y - y_exact) ** 2)))
            errors.append(err)
            bound = (1 + L2_TOLERANCE) * STEADY32_L2 * amp
            if not err <= bound:
                out.failures.append(f"L2 error {err:.4g} above {bound:.4g} at amplitude {amp}")
        out.l2_error = max(errors)
        out.extra["accepted_steps"] = sum(len(rep.steps) for rep in reps)
        return out


class _Ready(Exception):
    """Raised by the set-up probe when the CLI is about to start the solve."""


def _reject_constant(token):
    raise ValueError(f"non-standard JSON constant {token}")


class CliControl64:
    """``lsqctrl stokes-control`` at 64^3 through cli.main, with output."""

    name = "cli-control64"
    NT = 64

    def __init__(self, seed, out_dir):
        amp = _seeded(seed, 0.8, 1.25, 1.0)
        self.inputs = {"amplitude": amp}
        self.out_dir = out_dir
        self.runs = 0
        n = self.NT
        self.argv = ["stokes-control", f"--grid.nx={n}", f"--grid.ny={n}", f"--grid.nt={n}",
                     f"--control.omega=0,{1 / 3!r},0,1", "--solver.algorithm=cg",
                     "--solver.tol_energy_rel=1e-3", "--solver.max_iter=200",
                     "--io.dump_every=0", f"--problem.amplitude={amp!r}"]

    def _main(self, out, on_descend):
        """cli.main with sc.descend replaced by on_descend(original, ...)."""
        original = sc.descend
        sc.descend = lambda *a, **k: on_descend(original, *a, **k)
        try:
            return cli.main(self.argv + [f"--io.out_dir={out}"])
        finally:
            sc.descend = original

    def setup_probe(self):
        """Run the CLI up to the start of the solve, then stop."""
        def stop(original, *args, **kwargs):
            raise _Ready

        out = self.out_dir / "probe"
        try:
            self._main(out, stop)
        except _Ready:
            pass
        finally:
            shutil.rmtree(out, ignore_errors=True)

    def solve(self):
        self.runs += 1
        out = self.out_dir / f"run{self.runs}"
        shutil.rmtree(out, ignore_errors=True)
        seen = {}

        def timed_descend(original, *args, **kwargs):
            result, seen["wall"], seen["cpu"], seen["rel"] = _timed(original, *args, **kwargs)
            seen["result"] = result
            seen["end"] = time.perf_counter()
            return result

        code = self._main(out, timed_descend)
        output_s = time.perf_counter() - seen["end"]
        s, rep = seen["result"]
        res = Outcome(seen["wall"], seen["cpu"], rep.iterates_count, float(rep.energies[-1]),
                      float(rep.extras["corrector"].weak_residual_norm), seen["rel"],
                      output_s=output_s)
        try:
            res.failures = self._check_output(out, code, s, rep)
            res.extra["bytes_written"] = sum(f.stat().st_size for f in out.rglob("*")
                                             if f.is_file())
        finally:
            shutil.rmtree(out, ignore_errors=True)
        return res

    def _check_output(self, out, code, s, rep):
        fails = _stop_checks(rep, "energy_tol")
        if code != 0:
            fails.append(f"exit code {code}")
        try:
            summary = json.loads((out / "summary.json").read_text(),
                                 parse_constant=_reject_constant)
        except ValueError as exc:
            return fails + [f"summary.json is not strict JSON: {exc}"]
        if summary.get("iterations") != rep.iterates_count:
            fails.append("summary iterations differ from the run")
        if not summary["E_last"] <= 1e-3 * summary["E_first"]:
            fails.append("summary E_last above the target")
        rows = (out / "trace.csv").read_text().splitlines()[1:]
        if len(rows) != rep.iterates_count:
            fails.append(f"trace.csv has {len(rows)} rows for {rep.iterates_count} iterations")
        fields = out / "fields"
        for tag, arr in (("y", s.y), ("pi", s.pi), ("f", s.f)):
            if not np.array_equal(cli.read_raw(fields / f"final_{tag}.bin"), arr):
                fails.append(f"final_{tag}.bin does not round-trip")
        vtk = len(list(fields.glob("final_t*.vtk")))
        if vtk != self.NT + 1:
            fails.append(f"{vtk} VTK slices, expected {self.NT + 1}")
        return fails


WORKLOADS = {w.name: w for w in (Control16, Direct32, Steady32, CliControl64)}

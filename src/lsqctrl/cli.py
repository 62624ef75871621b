"""Batch front end: config parsing, solver dispatch, trace/field output.

Config files are line-based ``section.key = value`` text ('#' starts a
comment); every key can also be given on the command line as
``--section.key=value``, which overrides the file.  Runs stream
``trace.csv`` (one row per iterate, written as the run goes, schema fixed
per run family), write ``summary.json`` and final field dumps, and with
``io.dump_every`` also snapshots of every N-th iterate, into
``io.out_dir``.  A field dump is one binary legacy-VTK file per time
slice (velocity and pressure, for viewers) plus flat ``lsqctrl-raw``
dumps of y, pi and, for unsteady runs, the control f (``read_raw``);
both store the float64 values exactly.

Exit codes: 0 solved/stopped by a convergence criterion, 2 bad
configuration (the offending key is named on stderr), 3 iteration
budget exhausted, 4 solver failure (a ValueError raised by the solve
and a non-finite summary value included).
"""

import argparse
import contextlib
import json
import math
import os
import platform
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

__all__ = ["RunConfig", "ConfigError", "parse_config", "emit_config", "run", "main"]

SUBCOMMANDS = ("stokes-control", "stokes-direct", "steady-nse", "abstract-demo")

UNSTEADY_HEADER = "iter,E,grad_norm,step,kernel_ratio,div_norm,yT_norm,f_norm"
STEADY_HEADER = "iter,E,grad_norm,step,residual_norm,div_norm"
ABSTRACT_HEADER = "iter,E,grad_norm,step"


class ConfigError(ValueError):
    def __init__(self, key, message):
        self.key = key
        super().__init__(f"{key}: {message}")


def _parse_bool(s):
    if s.lower() in ("true", "1", "yes", "on"):
        return True
    if s.lower() in ("false", "0", "no", "off"):
        return False
    raise ValueError(f"not a boolean: {s!r}")


def _parse_floats(s):
    return tuple(float(tok) for tok in s.split(","))


# key -> (parser, default, help)
REGISTRY = {
    "domain.Lx": (float, 1.0, "domain length in x"),
    "domain.Ly": (float, 1.0, "domain length in y"),
    "time.T": (float, 1.0, "time horizon"),
    "grid.nx": (int, 12, "interior nodes in x"),
    "grid.ny": (int, 12, "interior nodes in y"),
    "grid.nt": (int, 12, "time intervals"),
    "physics.nu": (float, 1.0, "viscosity"),
    "control.omega": (_parse_floats, (0.0, 1.0, 0.0, 1.0),
                      "support rectangle x0,x1,y0,y1[,t0,t1]"),
    "problem.y0": (str, "bump", "initial velocity: bump | zero"),
    "problem.amplitude": (float, 1.0, "data amplitude factor"),
    "problem.manufactured": (_parse_bool, False,
                             "use the built-in analytic case for data"),
    "problem.error_bound": (float, float("inf"),
                            "acceptable final L2 error for manufactured runs"),
    "solver.max_iter": (int, 200, "iteration budget"),
    "solver.tol_energy": (float, 0.0, "absolute energy target"),
    "solver.tol_energy_rel": (float, 0.0, "energy target relative to start"),
    "solver.tol_grad": (float, 0.0, "gradient target relative to start "
                                    "(absolute for abstract-demo)"),
    "solver.tol_kernel": (float, 0.0, "kernel-ratio stopping threshold"),
    "solver.epsilon": (float, 0.0, "quasi-incompressibility weight"),
    "solver.algorithm": (str, "steepest", "steepest | cg"),
    "io.out_dir": (str, "out", "output directory"),
    "io.dump_every": (int, 0, "field dump cadence in iterations (0: final only)"),
    "seed": (int, 0, "instance seed (abstract-demo)"),
}


@dataclass
class RunConfig:
    subcommand: str
    values: dict = field(default_factory=dict)

    def __getitem__(self, key):
        return self.values[key]


def _convert(key, raw):
    if key not in REGISTRY:
        raise ConfigError(key, "unknown key")
    parser = REGISTRY[key][0]
    try:
        return parser(raw.strip())
    except (ValueError, TypeError) as exc:
        raise ConfigError(key, f"bad value {raw.strip()!r} ({exc})") from None


def _validate(cfg: RunConfig):
    v = cfg.values
    for key, val in v.items():
        for x in val if isinstance(val, tuple) else (val,):
            if isinstance(x, float) and not math.isfinite(x):
                if key != "problem.error_bound":
                    raise ConfigError(key, "must be finite")
                if x != math.inf:
                    raise ConfigError(key, "must be finite or inf")
    for key in ("domain.Lx", "domain.Ly", "time.T", "physics.nu"):
        if not (v[key] > 0):
            raise ConfigError(key, "must be positive")
    for key in ("grid.nx", "grid.ny", "grid.nt"):
        if v[key] < 2:
            raise ConfigError(key, "must be an integer >= 2")
    for key in ("solver.tol_energy", "solver.tol_energy_rel", "solver.tol_grad",
                "solver.tol_kernel", "solver.epsilon", "problem.error_bound",
                "solver.max_iter", "io.dump_every", "seed"):
        if not (v[key] >= 0):
            raise ConfigError(key, "must be nonnegative")
    om = v["control.omega"]
    if len(om) not in (4, 6):
        raise ConfigError("control.omega", "needs 4 or 6 comma-separated numbers")
    x0, x1, y0, y1 = om[:4]
    if not (0.0 <= x0 < x1 <= v["domain.Lx"] and 0.0 <= y0 < y1 <= v["domain.Ly"]):
        raise ConfigError("control.omega", "rectangle must lie inside the domain")
    if len(om) == 6 and not (0.0 <= om[4] < om[5] <= v["time.T"]):
        raise ConfigError("control.omega", "time window must lie inside [0, T]")
    if v["solver.algorithm"] not in ("steepest", "cg"):
        raise ConfigError("solver.algorithm", "must be steepest or cg")
    if v["solver.algorithm"] != "steepest" and cfg.subcommand == "abstract-demo":
        raise ConfigError("solver.algorithm", "abstract-demo runs steepest descent only")
    if v["problem.y0"] not in ("bump", "zero"):
        raise ConfigError("problem.y0", "must be bump or zero")
    if (v["problem.manufactured"] and cfg.subcommand in ("stokes-direct", "steady-nse")
            and (v["domain.Lx"], v["domain.Ly"]) != (1.0, 1.0)):
        raise ConfigError("problem.manufactured", "analytic case needs the unit square")
    # the frozen forcing acts only on the support, the analytic solution on the whole domain
    if (v["problem.manufactured"] and cfg.subcommand == "stokes-direct"
            and om != REGISTRY["control.omega"][1]):
        raise ConfigError("control.omega", "a manufactured stokes-direct run is scored "
                          "against the whole-domain forcing: keep the default")
    return cfg


def parse_config(subcommand, path=None, flags=()):
    """Build a validated RunConfig from defaults, a file, then flags."""
    if subcommand not in SUBCOMMANDS:
        raise ConfigError("subcommand", f"unknown subcommand {subcommand!r}")
    values = {key: default for key, (_, default, _) in REGISTRY.items()}
    if path is not None:
        text = Path(path).read_text()
        for lineno, line in enumerate(text.splitlines(), 1):
            body = line.split("#", 1)[0].strip()
            if not body:
                continue
            if "=" not in body:
                raise ConfigError(f"line {lineno}", f"expected 'key = value', got {line!r}")
            key, raw = body.split("=", 1)
            values[key.strip()] = _convert(key.strip(), raw)
    for flag in flags:
        if not flag.startswith("--") or "=" not in flag:
            raise ConfigError(flag, "expected --section.key=value")
        key, raw = flag[2:].split("=", 1)
        values[key] = _convert(key, raw)
    return _validate(RunConfig(subcommand, values))


def emit_config(cfg: RunConfig):
    """Canonical text form; parsing it again reproduces cfg exactly."""
    lines = [f"# lsqctrl config ({cfg.subcommand})"]
    for key in REGISTRY:
        val = cfg.values[key]
        if isinstance(val, tuple):
            val = ",".join(repr(x) for x in val)
        elif isinstance(val, bool):
            val = "true" if val else "false"
        elif isinstance(val, float):
            val = repr(val)
        lines.append(f"{key} = {val}")
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# output helpers
# ---------------------------------------------------------------------------

def _fmt(x):
    return repr(float(x))


@contextlib.contextmanager
def _trace_observer(path, header, dump_every=0, dump=None):
    """Open a trace file and yield a descent observer that streams it.

    Each call writes and flushes one row: the record's values under the
    header's column names, 0.0 for a column the record lacks (no step
    taken, no kernel ratio).  For iterates k with k % dump_every == 0,
    ``dump(f"iter{k:06d}", state)`` then snapshots the iterate.
    """
    columns = header.split(",")[1:]
    with open(path, "w") as fh:
        fh.write(header + "\n")
        fh.flush()

        def observe(record, state):
            k = record["iter"]
            fh.write(",".join([str(k)] + [_fmt(record.get(c, 0.0)) for c in columns]) + "\n")
            fh.flush()
            if dump_every and k % dump_every == 0:
                dump(f"iter{k:06d}", state)

        yield observe


def write_vtk_slice(path, grid, velocity, pressure, title="fields"):
    """Legacy BINARY STRUCTURED_POINTS snapshot of one time slice.

    After the text header each field is one block of big-endian float64,
    x fastest, so every value reads back exactly: velocity as (vx, vy, 0)
    per node, then the pressure.
    """
    header = [
        "# vtk DataFile Version 3.0",
        title,
        "BINARY",
        "DATASET STRUCTURED_POINTS",
        f"DIMENSIONS {grid.nx} {grid.ny} 1",
        f"ORIGIN {_fmt(grid.hx)} {_fmt(grid.hy)} 0.0",
        f"SPACING {_fmt(grid.hx)} {_fmt(grid.hy)} 1.0",
        f"POINT_DATA {grid.nx * grid.ny}",
    ]
    with open(path, "wb") as fh:
        fh.write(("\n".join(header) + "\n").encode())
        vec = np.zeros((grid.ny, grid.nx, 3), dtype=">f8")
        vec[..., :2] = np.moveaxis(velocity, 0, -1)
        fh.write(b"VECTORS velocity double\n" + vec.tobytes() + b"\n")
        fh.write(b"SCALARS pressure double 1\nLOOKUP_TABLE default\n")
        fh.write(np.asarray(pressure, dtype=">f8").tobytes() + b"\n")


def write_raw(path, array):
    """Flat little-endian float64 dump with a one-line ASCII header."""
    arr = np.ascontiguousarray(array, dtype="<f8")
    dims = ",".join(str(d) for d in arr.shape)
    with open(path, "wb") as fh:
        fh.write(f"lsqctrl-raw float64 little-endian dims={dims}\n".encode())
        fh.write(arr.tobytes())


def read_raw(path):
    with open(path, "rb") as fh:
        header = fh.readline().decode()
        if not header.startswith("lsqctrl-raw float64 little-endian dims="):
            raise ValueError(f"not an lsqctrl raw dump: {path}")
        dims = tuple(int(d) for d in header.rsplit("=", 1)[1].strip().split(","))
        data = np.frombuffer(fh.read(), dtype="<f8")
    return data.reshape(dims)


def _dump_fields(out_dir, grid, s, tag):
    fdir = Path(out_dir) / "fields"
    fdir.mkdir(parents=True, exist_ok=True)
    for k in range(grid.nt + 1):
        write_vtk_slice(
            fdir / f"{tag}_t{k:04d}.vtk", grid,
            velocity=s.y[k], pressure=s.pi[k],
            title=f"lsqctrl {tag} slice {k} t={k * grid.ht}",
        )
    write_raw(fdir / f"{tag}_y.bin", s.y)
    write_raw(fdir / f"{tag}_pi.bin", s.pi)
    write_raw(fdir / f"{tag}_f.bin", s.f)


def _dump_steady(out_dir, grid, state, tag):
    fdir = Path(out_dir) / "fields"
    fdir.mkdir(parents=True, exist_ok=True)
    write_vtk_slice(fdir / f"{tag}.vtk", grid, velocity=state.y,
                    pressure=state.pi, title=f"lsqctrl {tag}")
    write_raw(fdir / f"{tag}_y.bin", state.y)
    write_raw(fdir / f"{tag}_pi.bin", state.pi)


# ---------------------------------------------------------------------------
# run implementations
# ---------------------------------------------------------------------------

def _bump_y0(grid, amplitude):
    X, Y = grid.meshgrid()
    S = np.sin(np.pi * X / grid.Lx) ** 2
    T = np.sin(np.pi * Y / grid.Ly) ** 2
    Sx = np.pi / grid.Lx * np.sin(2 * np.pi * X / grid.Lx)
    Ty = np.pi / grid.Ly * np.sin(2 * np.pi * Y / grid.Ly)
    M = 1.0 + 0.5 * X / grid.Lx - 0.3 * Y / grid.Ly
    bump = np.stack([S * Ty * M - 0.3 / grid.Ly * S * T, -(Sx * T * M + 0.5 / grid.Lx * S * T)])
    with np.errstate(over="ignore", invalid="ignore"):  # reported as a non-finite y0
        return amplitude * bump


@contextlib.contextmanager
def _blame(key):
    """Report a ValueError raised in the block as a ConfigError naming key."""
    try:
        yield
    except ValueError as exc:
        raise ConfigError(key, str(exc)) from None


def _exit_code(reason):
    if reason in ("energy_tol", "grad_tol", "kernel_stall", "line_search_stall"):
        return 0
    return 3 if reason == "max_iter" else 4


def _unsteady(cfg: RunConfig, mode):
    from .discretization import SpaceTimeGrid, SupportMask, st_inner
    from . import stokes_control as sc
    from .oracles import default_unsteady_case, manufactured_stokes

    v = cfg.values
    grid = SpaceTimeGrid(v["grid.nx"], v["grid.ny"], v["grid.nt"],
                         v["domain.Lx"], v["domain.Ly"], v["time.T"])
    mask = SupportMask(*v["control.omega"])
    exact = None
    if mode == "direct" and v["problem.manufactured"]:
        case = default_unsteady_case(T_final=v["time.T"])
        exact, _ = manufactured_stokes(case, grid, v["physics.nu"])
        with np.errstate(over="ignore", invalid="ignore"):  # reported as a non-finite y0
            exact.y *= v["problem.amplitude"]
            exact.f *= v["problem.amplitude"]
        y0 = exact.y[0].copy()
    elif v["problem.y0"] == "bump":
        y0 = _bump_y0(grid, v["problem.amplitude"])
    else:
        y0 = np.zeros((2, grid.ny, grid.nx))

    with _blame("control.omega"):
        mask.validate(grid)
    with _blame("problem.amplitude"):  # the one input left that can make y0 non-finite
        problem = sc.ControlProblem(grid, v["physics.nu"], y0, mask, mode=mode,
                                    epsilon=v["solver.epsilon"])
    scfg = sc.SolveConfig(
        max_iter=v["solver.max_iter"], tol_energy=v["solver.tol_energy"],
        tol_energy_rel=v["solver.tol_energy_rel"], tol_grad=v["solver.tol_grad"],
        tol_kernel=v["solver.tol_kernel"], algorithm=v["solver.algorithm"],
    )
    s_init = None
    if exact is not None:
        s_init = sc.lift_sA(problem)
        s_init.f = exact.f.copy()

    def solve(observer):
        return sc.descend(problem, scfg, s_init=s_init, observer=observer)

    def summary(s, rep):
        ratios = rep.kernel_ratios
        return {"mode": mode, "div_last": float(rep.extras["div_norms"][-1]),
                "yT_last": float(rep.extras["yT_norms"][-1]),
                "residual_norm_last": float(rep.extras["corrector"].weak_residual_norm),
                "f_norm_last": float(rep.extras["f_norms"][-1]),
                "kernel_ratio_last": float(ratios[-1]) if len(ratios) else None}

    def l2_error(s):
        dy = s.y - exact.y
        return float(np.sqrt(st_inner(dy, dy, grid)))

    return (UNSTEADY_HEADER, solve, lambda tag, s: _dump_fields(v["io.out_dir"], grid, s, tag),
            summary, l2_error if exact is not None else None)


def _steady(cfg: RunConfig):
    from .discretization import SpatialGrid, space_inner
    from . import steady_nse as sn
    from .oracles import ManufacturedCase, default_steady_case, manufactured_steady

    v = cfg.values
    grid = SpatialGrid(v["grid.nx"], v["grid.ny"], v["domain.Lx"], v["domain.Ly"])
    exact = None
    if v["problem.manufactured"]:
        # the problem is nonlinear: a * y needs the forcing of the scaled case;
        # an overflow is reported below as a non-finite f, naming the amplitude
        base, a = default_steady_case(), v["problem.amplitude"]
        with np.errstate(over="ignore", invalid="ignore"):
            exact, _, forcing = manufactured_steady(
                ManufacturedCase(a * base.psi, a * base.pressure), grid, v["physics.nu"])
    else:
        forcing = np.zeros((2, grid.ny, grid.nx))

    with _blame("problem.amplitude"):  # the one input left that can make f non-finite
        problem = sn.SteadyProblem(grid, v["physics.nu"], forcing, epsilon=v["solver.epsilon"])
    scfg = sn.SteadyConfig(
        max_iter=v["solver.max_iter"], tol_energy=v["solver.tol_energy"],
        tol_energy_rel=v["solver.tol_energy_rel"], tol_grad=v["solver.tol_grad"],
        algorithm=v["solver.algorithm"],
    )

    def solve(observer):
        return sn.descend_steady(problem, scfg, observer=observer)

    def summary(state, rep):
        return {"mode": "steady", "residual_norm_last": float(rep.extras["residual_norms"][-1]),
                "div_norm_last": float(rep.extras["div_norms"][-1]),
                "small_data_ratio": rep.extras["small_data_ratio"]}

    def l2_error(state):
        dy = state.y - exact
        return float(np.sqrt(space_inner(dy, dy, grid)))

    return (STEADY_HEADER, solve, lambda tag, s: _dump_steady(v["io.out_dir"], grid, s, tag),
            summary, l2_error if exact is not None else None)


def _abstract_demo(cfg: RunConfig):
    from . import abstract_descent as ad

    v = cfg.values
    p = ad.random_instance(v["seed"])
    dcfg = ad.DescentConfig(max_iter=v["solver.max_iter"], tol_energy=v["solver.tol_energy"],
                            tol_grad=v["solver.tol_grad"])

    def solve(observer):
        return ad.descend(p, np.zeros(p.dim_H), dcfg, observer=observer)

    def summary(u, rep):
        return {"seed": v["seed"], "dim_H": p.dim_H,
                "distance_to_oracle": float(p.norm_H(u - ad.oracle_minimizer(p)))}

    return ABSTRACT_HEADER, solve, None, summary, None


def _environment():
    """What a rerun needs to reproduce trace.csv bit for bit: the thread
    settings in force (None where unset) and the Python and numpy
    versions."""
    env = {var: os.environ.get(var) for var in ("LSQCTRL_THREADS", "OPENBLAS_NUM_THREADS",
                                               "OMP_NUM_THREADS", "MKL_NUM_THREADS")}
    return {**env, "python": platform.python_version(), "numpy": np.__version__}


_BUILDERS = {
    "stokes-control": lambda cfg: _unsteady(cfg, "null_control"),
    "stokes-direct": lambda cfg: _unsteady(cfg, "direct"),
    "steady-nse": _steady,
    "abstract-demo": _abstract_demo,
}


def run(cfg: RunConfig):
    """Execute one configured run; returns the process exit code.

    The subcommand's builder builds the problem (a ConfigError, before
    anything is written) and returns the trace header, ``solve(observer)
    -> (state, report)``, ``dump(tag, state)`` or None, the family's own
    summary fields ``summary(state, report)`` and the manufactured
    ``l2_error(state)`` or None.  Every summary gets the fields all
    families share, read off the report: ``iterations``, ``reason``,
    ``E_first``, ``E_last`` and ``grad_norm_last``, the run's
    ``environment`` (``_environment``), and the wall time of the solve
    call, ``wall_s``, and ``ms_per_iter`` over its iterates; the times
    stay out of ``trace.csv``, which reruns reproduce bit for bit.
    A solver failure (a ValueError of the solve too) or a non-finite
    summary value exits 4.
    """
    from .abstract_descent import DescentDivergence

    header, solve, dump, summary_of, l2_error = _BUILDERS[cfg.subcommand](cfg)
    v = cfg.values
    out = Path(v["io.out_dir"])
    out.mkdir(parents=True, exist_ok=True)
    (out / "config.txt").write_text(emit_config(cfg))
    try:
        with _trace_observer(out / "trace.csv", header, v["io.dump_every"] if dump else 0,
                             dump) as observe:
            start = time.perf_counter()
            state, rep = solve(observe)
            wall_s = time.perf_counter() - start
    except (DescentDivergence, ValueError, np.linalg.LinAlgError, FloatingPointError) as exc:
        print(f"solver failure: {exc}", file=sys.stderr)
        return 4
    if dump:
        dump("final", state)
    summary = {"iterations": rep.iterates_count, "reason": rep.reason,
               "E_first": float(rep.energies[0]), "E_last": float(rep.energies[-1]),
               "grad_norm_last": float(rep.grad_norms[-1]), **summary_of(state, rep),
               "environment": _environment(), "wall_s": wall_s,
               "ms_per_iter": 1e3 * wall_s / rep.iterates_count}
    code = _exit_code(rep.reason)
    if l2_error is not None:
        summary["l2_error"] = err = l2_error(state)
        if err > v["problem.error_bound"]:
            summary["error_bound_exceeded"] = True
            code = max(code, 3)
    bad = [key for key, x in summary.items() if isinstance(x, float) and not math.isfinite(x)]
    if bad:
        print(f"solver failure: non-finite summary value: {', '.join(bad)}", file=sys.stderr)
        return 4
    (out / "summary.json").write_text(json.dumps(summary, indent=2, allow_nan=False) + "\n")
    return code


def main(argv=None):
    parser = argparse.ArgumentParser(
        prog="lsqctrl",
        description="least-squares variational solvers for Stokes null control "
                    "and the steady Navier-Stokes direct problem",
        allow_abbrev=False,
    )
    parser.add_argument("subcommand", choices=SUBCOMMANDS)
    parser.add_argument("--config", default=None, help="path to a config file")
    args, extra = parser.parse_known_args(argv)
    try:
        cfg = parse_config(args.subcommand, args.config, extra)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except FileNotFoundError as exc:
        print(f"config error: --config: {exc}", file=sys.stderr)
        return 2
    try:
        return run(cfg)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())

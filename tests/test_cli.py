"""CLI: config validation, round trips, runs, determinism, dumps."""

import json
import os
import platform
import subprocess
import sys
import tempfile
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import lsqctrl
from lsqctrl import abstract_descent as ad
from lsqctrl import steady_nse as sn
from lsqctrl import stokes_control as sc
from lsqctrl.cli import (
    SUBCOMMANDS,
    ConfigError,
    _exit_code,
    emit_config,
    main,
    parse_config,
    read_raw,
    write_raw,
)
from lsqctrl.discretization import SpaceTimeGrid, SpatialGrid, SupportMask
from lsqctrl.oracles import default_steady_case, manufactured_steady


# 8^3 CG null-control run of 40 iterations: with a field dump every 7
# iterates it must run exactly as without
CG8 = ["stokes-control", "--grid.nx=8", "--grid.ny=8", "--grid.nt=8",
       "--solver.algorithm=cg", "--solver.max_iter=40", "--control.omega=0,0.34,0,1"]


def invoke(args, cwd=None):
    return subprocess.run([sys.executable, "-m", "lsqctrl.cli", *args],
                          capture_output=True, text=True, cwd=cwd)


THREAD_VARS = ("LSQCTRL_THREADS", "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
               "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS")

# Prints the BLAS thread variables as numpy starts to load.
THREAD_PROBE = """
import os, sys

class NumpySpy:
    def find_spec(self, name, path=None, target=None):
        if name == "numpy":
            print("numpy", os.environ.get("OPENBLAS_NUM_THREADS"), os.environ.get("OMP_NUM_THREADS"))
        return None

sys.meta_path.insert(0, NumpySpy())
import lsqctrl
"""


def read_vtk(path):
    """Header lines and fields of a binary legacy-VTK slice, read line by
    line up to each data block (a marker searched for in the whole file
    could match inside the binary data)."""
    with open(path, "rb") as fh:
        header = [fh.readline().decode().rstrip("\n") for _ in range(8)]
        n = int(header[7].split()[1])
        fields = {}
        while line := fh.readline():
            kind, name = line.decode().split()[:2]
            width = {"VECTORS": 3, "SCALARS": 1}[kind]
            if kind == "SCALARS":
                assert fh.readline() == b"LOOKUP_TABLE default\n"
            fields[name] = np.frombuffer(fh.read(8 * width * n), dtype=">f8")
            assert fh.read(1) == b"\n"
    return header, fields


def thread_probe(threads):
    env = {k: v for k, v in os.environ.items() if k not in THREAD_VARS}
    if threads is not None:
        env["LSQCTRL_THREADS"] = threads
    src = str(Path(lsqctrl.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, "-c", THREAD_PROBE], env=env,
                          capture_output=True, text=True)


class TestParseConfig:
    def test_minimal_defaults(self):
        cfg = parse_config("stokes-control")
        assert cfg["solver.epsilon"] == 0.0
        assert cfg["solver.algorithm"] == "steepest"
        assert cfg["grid.nx"] == 12

    def test_file_and_flag_precedence(self, tmp_path):
        f = tmp_path / "run.cfg"
        f.write_text("grid.nx = 6\nphysics.nu = 2.0  # comment\n\n")
        cfg = parse_config("stokes-control", f, ["--grid.nx=8"])
        assert cfg["grid.nx"] == 8
        assert cfg["physics.nu"] == 2.0

    def test_omega_outside_domain_names_key(self):
        with pytest.raises(ConfigError) as exc:
            parse_config("stokes-control", None, ["--control.omega=0,1.5,0,1"])
        assert exc.value.key == "control.omega"

    def test_omega_time_window(self):
        cfg = parse_config("stokes-control", None,
                           ["--control.omega=0,0.5,0,1,0.2,0.8"])
        assert cfg["control.omega"] == (0.0, 0.5, 0.0, 1.0, 0.2, 0.8)
        with pytest.raises(ConfigError):
            parse_config("stokes-control", None,
                         ["--control.omega=0,0.5,0,1,0.2,1.5"])

    @pytest.mark.parametrize("omega", ["0,1,0,1,0,0.5", "0,0.3333333333333333,0,1"])
    def test_manufactured_direct_rejects_a_partial_support(self, tmp_path, omega):
        # the frozen forcing would act on the support only while l2_error is
        # taken against the whole-domain solution (1.06 for the time window)
        code = main(["stokes-direct", "--problem.manufactured=true", f"--control.omega={omega}",
                     "--grid.nx=4", "--grid.ny=4", "--grid.nt=4", f"--io.out_dir={tmp_path}/o"])
        assert code == 2
        assert not (tmp_path / "o").exists()
        with pytest.raises(ConfigError) as exc:
            parse_config("stokes-direct", None, ["--problem.manufactured=true",
                                                 f"--control.omega={omega}"])
        assert exc.value.key == "control.omega"
        for sub, flags in (("stokes-direct", ["--control.omega=0,1,0,1"]),
                           ("stokes-direct", [f"--control.omega={omega}"]),
                           ("stokes-control", ["--problem.manufactured=true",
                                               f"--control.omega={omega}"])):
            assert parse_config(sub, None, flags)["control.omega"]

    def test_unknown_key_rejected(self):
        with pytest.raises(ConfigError) as exc:
            parse_config("stokes-control", None, ["--grid.nz=3"])
        assert exc.value.key == "grid.nz"

    def test_old_config_with_the_metric_key_names_it(self, tmp_path, capsys):
        # config.txt files written while solver.metric existed carry it
        text = emit_config(parse_config("stokes-control", None, ["--grid.nx=4"]))
        old = tmp_path / "config.txt"
        old.write_text(text.replace("solver.epsilon", "solver.metric = a0_exact\nsolver.epsilon"))
        assert main(["stokes-control", "--config", str(old), f"--io.out_dir={tmp_path}/o"]) == 2
        assert "solver.metric: unknown key" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()
        old.write_text(text)
        assert parse_config("stokes-control", old)["grid.nx"] == 4

    @pytest.mark.parametrize("flag,key", [
        ("--grid.nx=1", "grid.nx"),
        ("--physics.nu=-1", "physics.nu"),
        ("--solver.tol_grad=-0.5", "solver.tol_grad"),
        ("--solver.metric=fancy", "solver.metric"),
        ("--solver.algorithm=newton", "solver.algorithm"),
        ("--problem.y0=vortex", "problem.y0"),
        ("--grid.nx=abc", "grid.nx"),
    ])
    def test_malformed_values_name_key(self, flag, key):
        with pytest.raises(ConfigError) as exc:
            parse_config("stokes-control", None, [flag])
        assert exc.value.key == key

    def test_error_bound_may_be_infinite(self):
        assert parse_config("stokes-direct", None,
                            ["--problem.error_bound=inf"])["problem.error_bound"] == float("inf")
        for flag in ("--problem.error_bound=nan", "--problem.error_bound=-inf",
                     "--problem.error_bound=-1"):
            with pytest.raises(ConfigError) as exc:
                parse_config("stokes-direct", None, [flag])
            assert exc.value.key == "problem.error_bound"

    def test_round_trip(self, tmp_path):
        cfg = parse_config("steady-nse", None,
                           ["--grid.nx=9", "--solver.epsilon=0.01",
                            "--control.omega=0,0.5,0.25,0.75",
                            "--problem.manufactured=true"])
        f = tmp_path / "canon.cfg"
        f.write_text(emit_config(cfg))
        cfg2 = parse_config("steady-nse", f)
        assert cfg == cfg2


class TestRawIO:
    def test_round_trip(self, tmp_path):
        rng = np.random.default_rng(0)
        arr = rng.standard_normal((3, 2, 4, 5))
        path = tmp_path / "field.bin"
        write_raw(path, arr)
        back = read_raw(path)
        assert back.shape == arr.shape
        assert np.array_equal(back, arr)


class TestRuns:
    def test_zero_data_null_control_single_row(self, tmp_path):
        code = main(["stokes-control", f"--io.out_dir={tmp_path}", "--problem.y0=zero",
                     "--grid.nx=4", "--grid.ny=4", "--grid.nt=4"])
        assert code == 0
        lines = (tmp_path / "trace.csv").read_text().strip().splitlines()
        assert lines[0] == "iter,E,grad_norm,step,kernel_ratio,div_norm,yT_norm,f_norm"
        assert len(lines) == 2

    def test_direct_manufactured_below_error_bound(self, tmp_path):
        code = main(["stokes-direct", f"--io.out_dir={tmp_path}",
                     "--grid.nx=6", "--grid.ny=6", "--grid.nt=6",
                     "--problem.manufactured=true", "--solver.algorithm=cg",
                     "--solver.max_iter=400", "--solver.tol_grad=1e-8",
                     "--problem.error_bound=0.3"])
        assert code == 0
        summary = json.loads((tmp_path / "summary.json").read_text())
        assert summary["l2_error"] <= 0.3

    def test_direct_manufactured_peak_memory(self, tmp_path):
        # tracemalloc peak of a short manufactured stokes-direct run at 24^3,
        # in vector fields ((nt+1, 2, ny, nx) float64, 230 kB here): 16.45
        # with the exact control written into the lift's own f, that is the
        # manufactured triplet, the lift, the descent's copy of it (2.5
        # fields each) and the descent's workspace (8.5); 17.45 while the
        # lift's f was replaced by a copy of the control and so held twice.
        argv = ["stokes-direct", f"--io.out_dir={tmp_path}", "--grid.nx=24", "--grid.ny=24",
                "--grid.nt=24", "--problem.manufactured=true", "--solver.algorithm=cg",
                "--solver.max_iter=4"]
        main(argv)  # the cached operators and bases are built here, not measured
        tracemalloc.start()
        try:
            tracemalloc.reset_peak()
            base = tracemalloc.get_traced_memory()[0]
            code = main(argv)
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        assert code == 3
        assert peak <= 16.95 * SpaceTimeGrid(24, 24, 24).vector_zeros().nbytes

    def test_steady_run_schema(self, tmp_path):
        code = main(["steady-nse", f"--io.out_dir={tmp_path}",
                     "--grid.nx=6", "--grid.ny=6", "--problem.manufactured=true",
                     "--problem.amplitude=0.05", "--solver.algorithm=cg",
                     "--solver.max_iter=400", "--solver.tol_grad=1e-6",
                     "--io.dump_every=10"])
        assert code == 0
        lines = (tmp_path / "trace.csv").read_text().splitlines()
        assert lines[0] == "iter,E,grad_norm,step,residual_norm,div_norm"
        snaps = sorted((tmp_path / "fields").glob("iter*_y.bin"))
        assert [p.name for p in snaps] == [f"iter{k:06d}_y.bin"
                                           for k in range(0, len(lines) - 1, 10)]

    def test_steady_summary_carries_absolute_end_values(self, tmp_path):
        assert main(["steady-nse", f"--io.out_dir={tmp_path}", "--grid.nx=6", "--grid.ny=6",
                     "--problem.manufactured=true", "--solver.algorithm=cg",
                     "--solver.max_iter=50"]) == 3
        summary = json.loads((tmp_path / "summary.json").read_text(),
                             parse_constant=_reject_constant)
        lines = (tmp_path / "trace.csv").read_text().splitlines()
        header, last = lines[0].split(","), [float(x) for x in lines[-1].split(",")]
        # the trace's last row holds the same end values, printed with repr
        for key, column in (("grad_norm_last", "grad_norm"),
                            ("residual_norm_last", "residual_norm"),
                            ("div_norm_last", "div_norm")):
            assert summary[key] == last[header.index(column)] > 0.0, key
        assert summary["wall_s"] > 0.0 and summary["ms_per_iter"] > 0.0
        # the uniqueness heuristic nu^-2 ||f||_-1 of the warning; the built-in
        # case lies outside the small-data regime
        g = SpatialGrid(6, 6)
        _, _, f = manufactured_steady(default_steady_case(), g, nu=1.0)
        ratio = sn.SteadyProblem(g, 1.0, f).forcing_dual_norm()
        assert summary["small_data_ratio"] == ratio
        assert 18.0 < ratio < 19.0

    def test_unsteady_summary_carries_absolute_end_values(self, tmp_path, monkeypatch):
        reports = []
        original = sc.descend

        def kept(*args, **kwargs):
            state, rep = original(*args, **kwargs)
            reports.append(rep)
            return state, rep

        monkeypatch.setattr(sc, "descend", kept)
        assert main(["stokes-direct", f"--io.out_dir={tmp_path}/direct", "--grid.nx=5",
                     "--grid.ny=5", "--grid.nt=5", "--problem.manufactured=true",
                     "--solver.algorithm=cg", "--solver.max_iter=20"]) == 3
        assert main(["stokes-control", f"--io.out_dir={tmp_path}/control", "--grid.nx=5",
                     "--grid.ny=5", "--grid.nt=5", "--control.omega=0,0.34,0,1",
                     "--solver.algorithm=cg", "--solver.max_iter=20"]) == 3
        for run, rep in zip(("direct", "control"), reports, strict=True):
            summary = json.loads((tmp_path / run / "summary.json").read_text(),
                                 parse_constant=_reject_constant)
            lines = (tmp_path / run / "trace.csv").read_text().splitlines()
            header, last = lines[0].split(","), [float(x) for x in lines[-1].split(",")]
            assert summary["grad_norm_last"] == last[header.index("grad_norm")] > 0.0, run
            residual = rep.extras["corrector"].weak_residual_norm
            assert summary["residual_norm_last"] == residual > 0.0, run
            # the control's size, and the last kernel ratio (the trace's last
            # row, where no step is taken, reads 0.0)
            assert summary["f_norm_last"] == last[header.index("f_norm")] > 0.0, run
            assert summary["kernel_ratio_last"] == rep.kernel_ratios[-1] > 0.0, run

    def test_unsteady_summary_without_a_step_has_no_kernel_ratio(self, tmp_path):
        assert main(["stokes-control", f"--io.out_dir={tmp_path}", "--grid.nx=4",
                     "--grid.ny=4", "--grid.nt=4", "--solver.max_iter=0"]) == 3
        text = (tmp_path / "summary.json").read_text()
        summary = json.loads(text, parse_constant=_reject_constant)
        assert summary["kernel_ratio_last"] is None and '"kernel_ratio_last": null' in text
        assert summary["f_norm_last"] == 0.0  # the lift carries no control

    def test_summary_records_the_environment(self, tmp_path, monkeypatch):
        monkeypatch.setenv("OPENBLAS_NUM_THREADS", "3")
        for var in ("LSQCTRL_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
            monkeypatch.delenv(var, raising=False)
        assert main(["abstract-demo", f"--io.out_dir={tmp_path}", "--solver.max_iter=3"]) == 3
        summary = json.loads((tmp_path / "summary.json").read_text(),
                             parse_constant=_reject_constant)
        assert summary["environment"] == {
            "LSQCTRL_THREADS": None, "OPENBLAS_NUM_THREADS": "3", "OMP_NUM_THREADS": None,
            "MKL_NUM_THREADS": None, "python": platform.python_version(),
            "numpy": np.__version__}

    def test_steady_stops_on_relative_energy(self, tmp_path):
        code = main(["steady-nse", f"--io.out_dir={tmp_path}", "--grid.nx=6", "--grid.ny=6",
                     "--problem.manufactured=true", "--solver.tol_energy_rel=0.5",
                     "--solver.max_iter=200"])
        assert code == 0
        summary = json.loads((tmp_path / "summary.json").read_text())
        assert summary["reason"] == "energy_tol"
        assert summary["iterations"] == 2  # iterates 0 and 1
        assert summary["E_last"] <= 0.5 * summary["E_first"]

    def test_steady_manufactured_error_scales_with_amplitude(self, tmp_path):
        # the exact solution a y needs the forcing a L + a^2 C (viscous and
        # pressure part L, convection C) of the scaled case; a times the
        # amplitude-1 forcing made the error ratio 2.25 here
        errors = []
        for a in (1, 2):
            assert main(["steady-nse", f"--io.out_dir={tmp_path}/{a}", "--grid.nx=12",
                         "--grid.ny=12", "--problem.manufactured=true",
                         f"--problem.amplitude={a}", "--solver.algorithm=cg",
                         "--solver.tol_energy_rel=1e-12", "--solver.max_iter=2000"]) == 0
            errors.append(json.loads((tmp_path / str(a) / "summary.json").read_text())["l2_error"])
        assert errors[1] / errors[0] == pytest.approx(2.0, abs=0.1)

    def test_max_iter_exit_code(self, tmp_path):
        code = main(["stokes-control", f"--io.out_dir={tmp_path}",
                     "--grid.nx=4", "--grid.ny=4", "--grid.nt=4",
                     "--solver.max_iter=3", "--control.omega=0,0.4,0,1"])
        assert code == 3

    def test_windowed_run_builds_the_support_indicator_once(self, tmp_path, monkeypatch):
        # the (nt+1)-level indicator is built by the problem alone; the
        # CLI's and the problem's validate test the rectangle and the
        # window apart, and still reject either when it holds no node
        calls = []
        original = SupportMask.indicator

        def counted(mask, grid):
            calls.append(mask)
            return original(mask, grid)

        monkeypatch.setattr(SupportMask, "indicator", counted)
        code = main(["stokes-control", f"--io.out_dir={tmp_path}",
                     "--grid.nx=4", "--grid.ny=4", "--grid.nt=4",
                     "--solver.max_iter=3", "--control.omega=0,0.4,0,1,0.25,0.75"])
        assert code == 3
        assert calls == [SupportMask(0.0, 0.4, 0.0, 1.0, 0.25, 0.75)]
        g = SpaceTimeGrid(4, 4, 4)
        for mask in (SupportMask(0.0, 1.0, 0.0, 1.0, 0.3, 0.32),  # between two levels
                     SupportMask(0.0, 0.01, 0.0, 0.01, 0.25, 0.75)):  # between two nodes
            with pytest.raises(ValueError, match="no space-time grid node"):
                mask.validate(g)
        assert len(calls) == 1

    def test_abstract_demo_matches_oracle(self, tmp_path):
        code = main(["abstract-demo", f"--io.out_dir={tmp_path}", "--seed=3",
                     "--solver.max_iter=500", "--solver.tol_grad=1e-12"])
        assert code == 0
        summary = json.loads((tmp_path / "summary.json").read_text())
        assert summary["distance_to_oracle"] <= 1e-8
        assert summary["wall_s"] > 0.0 and summary["ms_per_iter"] > 0.0

    def test_dump_every_writes_snapshots(self, tmp_path):
        code = main(["stokes-control", f"--io.out_dir={tmp_path}",
                     "--grid.nx=4", "--grid.ny=4", "--grid.nt=4",
                     "--solver.max_iter=10", "--io.dump_every=5",
                     "--control.omega=0,0.4,0,1"])
        assert code in (0, 3)
        fields = sorted((tmp_path / "fields").glob("iter*_y.bin"))
        assert len(fields) >= 2
        lines = (tmp_path / "trace.csv").read_text().strip().splitlines()
        assert len(lines) == 12  # header + 11 iterate rows

    def test_dump_every_leaves_run_unchanged(self, tmp_path):
        for every in (0, 7):
            assert main(CG8 + [f"--io.dump_every={every}",
                               f"--io.out_dir={tmp_path}/d{every}"]) == 3
        for name in ("trace.csv", "fields/final_y.bin", "fields/final_pi.bin",
                     "fields/final_f.bin", "fields/final_t0000.vtk"):
            d0, d7 = (tmp_path / "d0" / name), (tmp_path / "d7" / name)
            assert d0.read_bytes() == d7.read_bytes()
        lines = (tmp_path / "d7" / "trace.csv").read_text().splitlines()
        assert len(lines) == 42  # header + iterates 0..40

    def test_dump_snapshots_are_the_iterates(self, tmp_path):
        main(CG8 + ["--io.dump_every=7", f"--io.out_dir={tmp_path}/dumped"])
        fields = tmp_path / "dumped" / "fields"
        iterates = range(0, 41, 7)
        assert sorted(p.name for p in fields.glob("iter*_y.bin")) == [
            f"iter{k:06d}_y.bin" for k in iterates]
        for k in iterates:
            # iterate k of the run is the final state of the same run cut at k
            cut = tmp_path / f"cut{k}"
            main(CG8 + [f"--solver.max_iter={k}", f"--io.out_dir={cut}"])
            expected = (cut / "fields" / "final_y.bin").read_bytes()
            assert (fields / f"iter{k:06d}_y.bin").read_bytes() == expected

    def test_trace_streamed_up_to_observer_failure(self, tmp_path, monkeypatch):
        class Stop(Exception):
            pass

        original = sc.descend

        def failing_at_5(*args, observer, **kwargs):
            def observe(record, state):
                if record["iter"] == 5:
                    raise Stop
                observer(record, state)
            return original(*args, observer=observe, **kwargs)

        monkeypatch.setattr(sc, "descend", failing_at_5)
        with pytest.raises(Stop):
            main(CG8 + [f"--io.out_dir={tmp_path}"])
        lines = (tmp_path / "trace.csv").read_text().splitlines()
        assert lines[0] == "iter,E,grad_norm,step,kernel_ratio,div_norm,yT_norm,f_norm"
        assert [line.split(",")[0] for line in lines[1:]] == ["0", "1", "2", "3", "4"]

    def test_vtk_slices_read_back_exactly(self, tmp_path, monkeypatch):
        states = []
        for module, name in ((sc, "descend"), (sn, "descend_steady")):
            def kept(*args, _original=getattr(module, name), **kwargs):
                state, rep = _original(*args, **kwargs)
                states.append(state)
                return state, rep
            monkeypatch.setattr(module, name, kept)
        # nx != ny, so that fields written with x and y swapped fail
        assert main(["stokes-control", f"--io.out_dir={tmp_path}/u", "--grid.nx=5",
                     "--grid.ny=4", "--grid.nt=3", "--solver.max_iter=2"]) == 3
        assert main(["steady-nse", f"--io.out_dir={tmp_path}/s", "--grid.nx=6",
                     "--grid.ny=5", "--problem.manufactured=true",
                     "--solver.max_iter=2"]) == 3
        unsteady, steady = states
        assert unsteady.pi.any() and steady.pi.any()
        g, gs = SpaceTimeGrid(5, 4, 3), SpatialGrid(6, 5)
        slices = [(tmp_path / "u" / "fields" / f"final_t{k:04d}.vtk", g, unsteady.y[k],
                   unsteady.pi[k], f"lsqctrl final slice {k} t={k * g.ht}") for k in range(4)]
        slices.append((tmp_path / "s" / "fields" / "final.vtk", gs, steady.y, steady.pi,
                       "lsqctrl final"))
        for path, grid, y, pi, title in slices:
            header, fields = read_vtk(path)
            assert header == ["# vtk DataFile Version 3.0", title, "BINARY",
                              "DATASET STRUCTURED_POINTS",
                              f"DIMENSIONS {grid.nx} {grid.ny} 1",
                              f"ORIGIN {grid.hx!r} {grid.hy!r} 0.0",
                              f"SPACING {grid.hx!r} {grid.hy!r} 1.0",
                              f"POINT_DATA {grid.nx * grid.ny}"]
            assert list(fields) == ["velocity", "pressure"]
            velocity = fields["velocity"].reshape(grid.ny, grid.nx, 3)
            assert np.array_equal(velocity[..., 0], y[0]), path.name
            assert np.array_equal(velocity[..., 1], y[1]), path.name
            assert not velocity[..., 2].any()
            assert np.array_equal(fields["pressure"].reshape(grid.ny, grid.nx), pi), path.name


class TestProcessLevel:
    def test_unknown_subcommand_exits_2(self):
        r = invoke(["frobnicate"])
        assert r.returncode == 2

    def test_bad_key_exits_2_with_key_name(self, tmp_path):
        r = invoke(["stokes-control", "--control.omega=0,2,0,1",
                    f"--io.out_dir={tmp_path}"])
        assert r.returncode == 2
        assert "control.omega" in r.stderr

    @pytest.mark.parametrize("argv", [
        *(["stokes-control", flag] for flag in (
            "--physics.nu=nan", "--solver.tol_grad=nan", "--time.T=inf", "--domain.Lx=inf",
            "--problem.amplitude=nan", "--problem.amplitude=inf", "--physics.nu=inf",
            "--solver.epsilon=inf", "--control.omega=0,nan,0,1")),
        # values that pass the config checks but not problem construction
        ["stokes-control", "--grid.nx=4", "--grid.ny=4", "--grid.nt=4",
         "--control.omega=0,0.01,0,0.01"],
        # a time window between two time nodes
        ["stokes-control", "--grid.nx=4", "--grid.ny=4", "--grid.nt=4",
         "--control.omega=0,1,0,1,0.3,0.32"],
        ["stokes-control", "--grid.nx=4", "--grid.ny=4", "--grid.nt=4",
         "--problem.amplitude=1e308"],
        ["stokes-direct", "--grid.nx=4", "--grid.ny=4", "--grid.nt=4",
         "--problem.manufactured=true", "--problem.amplitude=1e308"],
        # the scaled control overflows where y0 does not
        ["stokes-direct", "--grid.nx=4", "--grid.ny=4", "--grid.nt=4",
         "--problem.manufactured=true", "--problem.amplitude=1e307"],
        ["steady-nse", "--problem.manufactured=true", "--problem.amplitude=1e308"],
        # the dense engine has only the exact steepest step
        ["abstract-demo", "--solver.algorithm=cg"],
        ["abstract-demo", "--solver.algorithm=split"],
        # numpy's generator takes no negative seed
        ["abstract-demo", "--seed=-1"],
        # the algorithm and the keys of the removed splitting scheme
        ["stokes-control", "--solver.algorithm=split"],
        ["stokes-control", "--solver.inner_max_iter=5"],
        ["stokes-control", "--solver.inner_tol_grad=1e-3"],
    ], ids=lambda argv: " ".join(a for a in argv if a != "stokes-control"))
    def test_nan_value_exits_2_with_key_name(self, tmp_path, argv):
        r = invoke(argv + [f"--io.out_dir={tmp_path}/out"])
        assert r.returncode == 2
        assert f"config error: {argv[-1][2:].split('=')[0]}:" in r.stderr
        # an overflowing amplitude is reported as the config error alone
        assert "RuntimeWarning" not in r.stderr
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("amplitude", ["1e300", "1e308"])
    def test_overflowing_manufactured_forcing_exits_2_quietly(self, tmp_path, amplitude):
        # the forcing a L + a^2 C of the scaled case overflows: the config
        # error names the key, and numpy's overflow warnings are not printed
        r = invoke(["steady-nse", "--problem.manufactured=true",
                    f"--problem.amplitude={amplitude}", f"--io.out_dir={tmp_path}/out"])
        assert r.returncode == 2
        assert r.stderr == "config error: problem.amplitude: f contains non-finite values\n"

    def test_steady_inf_amplitude_exits_2_with_key_name(self, tmp_path):
        r = invoke(["steady-nse", "--problem.amplitude=inf", f"--io.out_dir={tmp_path}"])
        assert r.returncode == 2
        assert "problem.amplitude" in r.stderr

    def test_runs_cli_module_once(self, tmp_path):
        # lsqctrl/__init__ must not import cli, or python -m executes it twice
        r = invoke(["stokes-control", "--problem.y0=zero", "--grid.nx=4", "--grid.ny=4",
                    "--grid.nt=4", f"--io.out_dir={tmp_path}"])
        assert r.returncode == 0
        assert "RuntimeWarning" not in r.stderr

    def test_import_loads_numpy_only(self, tmp_path):
        # the manufactured runs sample closed forms: neither sympy nor scipy loads
        probe = (
            "import sys\n"
            "import lsqctrl.cli\n"
            "loaded = lambda: sorted({m.split('.')[0] for m in sys.modules} & {'scipy', 'sympy'})\n"
            "print(loaded())\n"
            "for argv in (['stokes-direct', '--grid.nt=4'], ['steady-nse']):\n"
            "    code = lsqctrl.cli.main(argv + ['--problem.manufactured=true', '--grid.nx=4',\n"
            f"        '--grid.ny=4', '--solver.max_iter=3', '--io.out_dir={tmp_path}/' + argv[0]])\n"
            "    print(code, loaded())\n"
        )
        src = str(Path(lsqctrl.__file__).resolve().parents[1])
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
        r = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True,
                           text=True)
        assert r.returncode == 0, r.stderr
        assert r.stdout.splitlines() == ["[]", "3 []", "3 []"]
        for run in ("stokes-direct", "steady-nse"):
            assert "l2_error" in json.loads((tmp_path / run / "summary.json").read_text())

    def test_missing_config_file_exits_2(self, tmp_path):
        r = invoke(["stokes-control", "--config", str(tmp_path / "nope.cfg")])
        assert r.returncode == 2

    def test_determinism_bit_identical_traces(self, tmp_path):
        args = ["stokes-control", "--grid.nx=6", "--grid.ny=6", "--grid.nt=6",
                "--solver.max_iter=25", "--control.omega=0,0.34,0,1"]
        r1 = invoke(args + [f"--io.out_dir={tmp_path}/r1"])
        r2 = invoke(args + [f"--io.out_dir={tmp_path}/r2"])
        assert r1.returncode == r2.returncode
        t1 = (tmp_path / "r1" / "trace.csv").read_bytes()
        t2 = (tmp_path / "r2" / "trace.csv").read_bytes()
        assert t1 == t2
        # the solve's wall time goes to summary.json only, and nothing
        # else in the summary differs between the reruns
        assert b"wall_s" not in t1 and b"ms_per_iter" not in t1
        s1, s2 = (json.loads((tmp_path / run / "summary.json").read_text(),
                             parse_constant=_reject_constant) for run in ("r1", "r2"))
        for s in (s1, s2):
            assert s["wall_s"] > 0.0
            assert s["ms_per_iter"] == pytest.approx(1e3 * s["wall_s"] / s["iterations"],
                                                     rel=1e-12)
        timing = {"wall_s", "ms_per_iter"}
        assert ({k: v for k, v in s1.items() if k not in timing}
                == {k: v for k, v in s2.items() if k not in timing})

    @pytest.mark.parametrize("threads, expected", [
        ("2", ["numpy 2 2"]),
        (None, ["numpy None None"]),
    ])
    def test_threads_knob_set_before_numpy_loads(self, threads, expected):
        r = thread_probe(threads)
        assert r.returncode == 0, r.stderr
        assert r.stdout.splitlines() == expected

    @pytest.mark.parametrize("threads", ["0", " 2", "abc"])
    def test_bad_threads_value_ignored_with_warning(self, threads):
        r = thread_probe(threads)
        assert r.returncode == 0, r.stderr
        assert r.stdout.splitlines() == ["numpy None None"]
        assert "LSQCTRL_THREADS" in r.stderr


def _reject_constant(token):
    raise ValueError(f"non-standard JSON constant {token}")


# config values that must exit 2; a drawn run breaks at most one key
BROKEN = {
    "physics.nu": [0.0, -1.0, np.nan, np.inf],
    "time.T": [0.0, np.nan, np.inf],
    "problem.amplitude": [np.nan, np.inf, -np.inf],
    "control.omega": ["0,1.5,0,1", "0,1,0,1,0.5,2", "0.5,0,0,1", "0,0.01,0,0.01",
                      "0,1,0,1,0.3,0.32"],
}


class TestExitCodeContract:
    @pytest.mark.parametrize("reason, code", [
        ("energy_tol", 0), ("grad_tol", 0), ("kernel_stall", 0), ("line_search_stall", 0),
        ("max_iter", 3), ("no_such_reason", 4)])
    def test_stop_reason_maps_to_exit_code(self, reason, code):
        # the one rule for which stops succeed
        assert _exit_code(reason) == code

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")  # the run overflows on purpose
    def test_overflowing_steady_data_is_a_solver_failure(self, tmp_path, capsys):
        # the forcing a L + a^2 C passes the checks, then the energy overflows in
        # the solve (at a = 1e300 the forcing itself overflows: exit 2, as at 1e308)
        code = main(["steady-nse", "--grid.nx=4", "--grid.ny=4", "--problem.manufactured=true",
                     "--problem.amplitude=1e150", "--solver.max_iter=20",
                     f"--io.out_dir={tmp_path}"])
        assert code == 4
        err = capsys.readouterr().err
        assert "solver failure: " in err
        # the failure's own summary, strict JSON: the rows the trace holds
        summary = json.loads((tmp_path / "summary.json").read_text(),
                             parse_constant=_reject_constant)
        rows = len((tmp_path / "trace.csv").read_text().splitlines()) - 1
        assert set(summary) == {"reason", "error", "iterations", "wall_s"}
        assert summary["reason"] == "solver_failure"
        assert summary["error"] == err.strip().removeprefix("solver failure: ")
        assert summary["iterations"] == rows
        assert summary["wall_s"] >= 0.0

    @pytest.mark.parametrize("argv, module, name", [
        (["stokes-control", "--grid.nx=4", "--grid.ny=4", "--grid.nt=4"], sc, "descend"),
        (["stokes-direct", "--grid.nx=4", "--grid.ny=4", "--grid.nt=4"], sc, "descend"),
        (["steady-nse", "--grid.nx=4", "--grid.ny=4"], sn, "descend_steady"),
        (["abstract-demo"], ad, "descend"),
    ], ids=["stokes-control", "stokes-direct", "steady-nse", "abstract-demo"])
    def test_non_finite_summary_exits_4(self, tmp_path, monkeypatch, capsys, argv, module,
                                        name):
        original = getattr(module, name)

        def nan_last(*args, **kwargs):
            state, rep = original(*args, **kwargs)
            rep.energies[-1] = np.nan
            return state, rep

        monkeypatch.setattr(module, name, nan_last)
        code = main(argv + ["--solver.max_iter=3", f"--io.out_dir={tmp_path}"])
        assert code == 4
        err = capsys.readouterr().err.strip().removeprefix("solver failure: ")
        # E_first too where the run stopped at its first iterate
        bad = err.removeprefix("non-finite summary value: ").split(", ")
        assert "E_last" in bad
        summary = json.loads((tmp_path / "summary.json").read_text(),
                             parse_constant=_reject_constant)
        rows = len((tmp_path / "trace.csv").read_text().splitlines()) - 1
        assert summary == {"reason": "solver_failure", "error": err, "iterations": rows,
                           "wall_s": summary["wall_s"], **dict.fromkeys(bad)}
        assert summary["iterations"] >= 1 and summary["wall_s"] >= 0.0

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")  # amplitudes 1e160, 1e300 overflow
    @settings(derandomize=True, deadline=None, max_examples=50)
    @given(
        sub=st.sampled_from(SUBCOMMANDS),
        sizes=st.tuples(*[st.integers(2, 5)] * 3),
        values=st.fixed_dictionaries({
            "physics.nu": st.floats(1e-3, 10.0),
            "time.T": st.floats(1e-3, 10.0),
            # 1e160 and 1e300 pass the config checks and overflow in the run, or
            # in the steady manufactured forcing a L + a^2 C (exit 2)
            "problem.amplitude": st.one_of(st.floats(-10.0, 10.0),
                                           st.sampled_from([1e160, 1e300])),
            "control.omega": st.sampled_from(["0,1,0,1", "0,0.34,0,1", "0,1,0,0.5,0.2,0.8"]),
            "solver.max_iter": st.integers(0, 5),
            "solver.algorithm": st.sampled_from(["steepest", "cg"]),
            "problem.manufactured": st.sampled_from(["true", "false"]),
            "seed": st.integers(-3, 10),
        }),
        broken=st.one_of(st.none(), st.sampled_from(sorted(BROKEN)).flatmap(
            lambda key: st.tuples(st.just(key), st.sampled_from(BROKEN[key])))),
    )
    # a negative seed, drawn or not: numpy's generator rejects it in the run
    @example(sub="abstract-demo", sizes=(2, 2, 2), broken=None, values={
        "physics.nu": 1.0, "time.T": 1.0, "problem.amplitude": 1.0, "control.omega": "0,1,0,1",
        "solver.max_iter": 5, "solver.algorithm": "steepest", "problem.manufactured": "false",
        "seed": -1})
    def test_exit_code_and_strict_summary(self, sub, sizes, values, broken):
        if broken:
            values[broken[0]] = broken[1]
        flags = [f"--grid.n{axis}={n}" for axis, n in zip("xyt", sizes)]
        flags += [f"--{key}={val if isinstance(val, str) else repr(val)}"
                  for key, val in values.items()]
        with tempfile.TemporaryDirectory() as tmp:
            out = Path(tmp) / "out"
            code = main([sub, *flags, f"--io.out_dir={out}"])
            assert code in (0, 2, 3, 4)
            if code == 2:
                assert not out.exists()
            if code != 2:  # every run that starts writes a strict summary
                summary = json.loads((out / "summary.json").read_text(),
                                     parse_constant=_reject_constant)
                assert (summary["reason"] == "solver_failure") == (code == 4)

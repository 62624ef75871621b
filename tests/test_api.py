"""Public API: every exported name resolves, removed names stay gone, and
no module keeps an import it does not use."""

import ast
import dataclasses
import importlib
import inspect
import types
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "lsqctrl"

MODULES = (
    "lsqctrl",
    "lsqctrl.abstract_descent",
    "lsqctrl.cli",
    "lsqctrl.discretization",
    "lsqctrl.discretization.a0",
    "lsqctrl.discretization.elliptic",
    "lsqctrl.discretization.grid",
    "lsqctrl.discretization.stencils",
    "lsqctrl.oracles",
    "lsqctrl.steady_nse",
    "lsqctrl.stokes_control",
)

# the splitting scheme and the helpers only it or the tests used, the
# slice kernels that the cached operator matrices replaced, and the two
# step rules (with their helpers) that ExactLineRule replaced, and the
# sympy path of the manufactured cases that the closed forms replaced, and
# the second increment metric with the switches that selected it, and the
# test-only surface: the report's converged flag, a field-form solve, the
# gradient-sign switch, the diagnostics bundle and the second temporal
# stiffness; the unsteady oracles moved to lsqctrl.oracles; the velocity
# gradient tensor that gradient_steady now forms itself
REMOVED = {
    "lsqctrl.abstract_descent": ("armijo_search", "_CONVERGED"),
    "lsqctrl.discretization": ("quadrature_l2", "shifted_poisson_solve", "velocity_a0_inner",
                               "div_parts", "trace_norms", "METRICS",
                               "spacetime_elliptic_solve", "inner_a0", "time_stiffness",
                               "spacetime_weak_residual"),
    "lsqctrl.discretization.a0": ("velocity_a0_inner", "METRICS", "_check_metric",
                                  "_simplified_denominator", "_DENOMINATORS", "inner_a0",
                                  "_dt_slopes"),
    "lsqctrl.discretization.elliptic": ("shifted_poisson_solve", "spacetime_elliptic_solve",
                                        "time_stiffness", "spacetime_weak_residual"),
    "lsqctrl.discretization.stencils": ("quadrature_l2", "_space_quad_weights", "_lap1d_x",
                                        "_lap1d_y", "_dx1_onesided", "_dx1_onesided_T",
                                        "_swap_xy", "div_parts", "trace_norms"),
    "lsqctrl.oracles": ("_sympy", "_lambdify", "_sample_spacetime"),
    "lsqctrl.steady_nse": ("pressure_residual_indicator", "_ExactStepRule", "_line_quartic",
                           "_quartic_argmin", "_grad_tensor"),
    "lsqctrl.stokes_control": ("split_iteration", "pressure_update_step",
                               "pressure_stationary_point", "_PressureRule",
                               "_heat_forward", "_div_cost", "_pressure_cost_gradient",
                               "_MetricGradientRule", "_corrector_rhs", "SIGMA",
                               "diagnostics", "_state_norms", "energy", "first_variation",
                               "apply_T", "_check_direction", "_lift"),
}


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_resolves(name):
    module = importlib.import_module(name)
    assert [attr for attr in module.__all__ if not hasattr(module, attr)] == []
    assert len(set(module.__all__)) == len(module.__all__)


@pytest.mark.parametrize("name", sorted(REMOVED))
def test_removed_names_are_gone(name):
    module = importlib.import_module(name)
    assert [attr for attr in REMOVED[name] if hasattr(module, attr)] == []


@pytest.mark.parametrize("path", sorted(SRC.rglob("*.py")),
                         ids=lambda p: str(p.relative_to(SRC)))
def test_no_unused_module_level_imports(path):
    """Every name a module-level import binds is read in the module or
    listed in its __all__ (a re-export); __future__ imports are exempt."""
    tree = ast.parse(path.read_text())
    bound = [(alias.asname or alias.name).split(".")[0]
             for node in tree.body if isinstance(node, (ast.Import, ast.ImportFrom))
             and not (isinstance(node, ast.ImportFrom) and node.module == "__future__")
             for alias in node.names]
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    exported = set()
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            exported = set(ast.literal_eval(node.value))
    assert [name for name in bound if name not in used | exported] == []


def test_removed_options_are_gone():
    import numpy as np

    from lsqctrl import abstract_descent, cli, oracles
    from lsqctrl import steady_nse as sn
    from lsqctrl import stokes_control as sc
    from lsqctrl.discretization import SpaceTimeGrid, SpatialGrid, SupportMask, a0, stencils

    fields = {f.name for f in dataclasses.fields(sc.SolveConfig)}
    assert fields.isdisjoint({"inner_max_iter", "inner_tol_grad"})
    assert "metric" not in {f.name for f in dataclasses.fields(sc.ControlProblem)}
    for fn in (oracles.inner_a0, a0.a0_velocity_riesz):
        assert "metric" not in inspect.signature(fn).parameters
    gradient_params = inspect.signature(sc.gradient_a0).parameters
    assert "frozen_pressure" not in gradient_params and "return_norm" not in gradient_params
    assert "_frozen_pressure" not in inspect.signature(sc.descend).parameters
    assert "compact" not in inspect.signature(stencils.laplace).parameters
    assert set(cli.REGISTRY).isdisjoint({"solver.inner_max_iter", "solver.inner_tol_grad",
                                         "solver.metric"})
    assert not {"velocity_exprs", "forcing_exprs_unsteady",
                "forcing_exprs_steady"} & set(dir(oracles.ManufacturedCase))
    assert "converged" not in {f.name for f in dataclasses.fields(abstract_descent.DescentReport)}
    assert not hasattr(SpaceTimeGrid, "n_levels")
    # the line builders own their arrays and lend none to the step rule,
    # which reads no pairing helper of theirs
    g = SpaceTimeGrid(4, 4, 4)
    p = sc.ControlProblem(g, 1.0, np.zeros((2, 4, 4)), SupportMask(0.0, 1.0, 0.0, 1.0))
    ps = sn.SteadyProblem(SpatialGrid(4, 4), 1.0, np.zeros((2, 4, 4)))
    rules = [abstract_descent.ExactLineRule(sc._StokesLine(p), sc.lift_sA(p), cg=True),
             abstract_descent.ExactLineRule(sn._SteadyLine(ps), sn.SteadyState.zeros(ps.grid),
                                            cg=True)]
    for rule in rules:
        rule.measure([])
        for name in ("parts", "scratch", "reform", "inner_v", "inner_q"):
            assert not hasattr(rule.line, name), (type(rule.line).__name__, name)
        for name in ("_pairing", "energy", "fields", "pairings", "gdual"):
            assert not hasattr(rule, name), name


def test_benchmark_tracer_targets_resolve():
    """Every function the benchmark's span tracer wraps still exists, so a
    rename breaks a tier-1 test and not only the traced benchmark run.
    The tracer's source is run from its text, so that nothing is written
    beside it, and methods are looked up in the class's own namespace,
    as the tracer does."""
    path = Path(__file__).resolve().parents[1] / "bench" / "tracing.py"
    tracing = types.ModuleType("tracing")
    exec(compile(path.read_text(), str(path), "exec"), tracing.__dict__)
    missing = []
    for _, module, attr, _ in tracing.SPEC:
        owner = importlib.import_module(module)
        if "." in attr:
            cls, meth = attr.split(".")
            found = meth in vars(getattr(owner, cls, object))
        else:
            found = callable(getattr(owner, attr, None))
        if not found:
            missing.append(f"{module}.{attr}")
    assert len(tracing.SPEC) > 0
    assert missing == []


def test_solvers_reach_the_sine_transform_through_its_module(monkeypatch):
    """The benchmark cuts its timed solves into calibration segments at
    calls of elliptic.sine_transform, made through the module attribute,
    and its tracer counts the same calls: a counter set there sees every
    iterate of a steady and of an unsteady descent."""
    import numpy as np

    from lsqctrl import steady_nse as sn
    from lsqctrl import stokes_control as sc
    from lsqctrl.discretization import SpaceTimeGrid, SpatialGrid, SupportMask, elliptic

    calls = []
    original = elliptic.sine_transform

    def counted(*args, **kwargs):
        calls.append(1)
        return original(*args, **kwargs)

    monkeypatch.setattr(elliptic, "sine_transform", counted)
    gs = SpatialGrid(6, 6)
    f = 0.1 * np.random.default_rng(0).standard_normal((2, gs.ny, gs.nx))
    _, steady = sn.descend_steady(sn.SteadyProblem(gs, 1.0, f), sn.SteadyConfig(max_iter=3))
    steady_calls = len(calls)
    g = SpaceTimeGrid(4, 4, 4)
    y0 = np.random.default_rng(1).standard_normal((2, g.ny, g.nx))
    p = sc.ControlProblem(g, 1.0, y0, SupportMask(0.0, 0.5, 0.0, 1.0))
    _, unsteady = sc.descend(p, sc.SolveConfig(max_iter=3))
    assert steady.iterates_count == unsteady.iterates_count == 4
    assert steady_calls >= steady.iterates_count
    assert len(calls) - steady_calls >= unsteady.iterates_count

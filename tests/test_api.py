"""Public API: every exported name resolves, and removed names stay gone."""

import dataclasses
import importlib
import inspect

import pytest

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
# step rules (with their helpers) that ExactLineRule replaced
REMOVED = {
    "lsqctrl.abstract_descent": ("armijo_search",),
    "lsqctrl.discretization": ("quadrature_l2", "shifted_poisson_solve", "velocity_a0_inner",
                               "div_parts"),
    "lsqctrl.discretization.a0": ("velocity_a0_inner",),
    "lsqctrl.discretization.elliptic": ("shifted_poisson_solve",),
    "lsqctrl.discretization.stencils": ("quadrature_l2", "_space_quad_weights", "_lap1d_x",
                                        "_lap1d_y", "_dx1_onesided", "_dx1_onesided_T",
                                        "_swap_xy", "div_parts"),
    "lsqctrl.steady_nse": ("pressure_residual_indicator", "_ExactStepRule", "_line_quartic",
                           "_quartic_argmin"),
    "lsqctrl.stokes_control": ("split_iteration", "pressure_update_step",
                               "pressure_stationary_point", "_PressureRule",
                               "_heat_forward", "_div_cost", "_pressure_cost_gradient",
                               "_MetricGradientRule", "_corrector_rhs"),
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


def test_removed_options_are_gone():
    from lsqctrl import cli
    from lsqctrl import stokes_control as sc
    from lsqctrl.discretization import stencils

    fields = {f.name for f in dataclasses.fields(sc.SolveConfig)}
    assert fields.isdisjoint({"inner_max_iter", "inner_tol_grad"})
    assert "frozen_pressure" not in inspect.signature(sc.gradient_a0).parameters
    assert "_frozen_pressure" not in inspect.signature(sc.descend).parameters
    assert "compact" not in inspect.signature(stencils.laplace).parameters
    assert set(cli.REGISTRY).isdisjoint({"solver.inner_max_iter", "solver.inner_tol_grad"})

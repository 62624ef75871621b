"""Least-squares solver for the steady Navier-Stokes direct problem.

Given a forcing f, the pair (y, pi) is sought as the minimizer of

    E(y, pi) = 1/2 int_Omega ( |grad v|^2 + |div y + eps*pi|^2 ),

where the corrector v in H_0^1 lifts the momentum residual
-nu lap y + div(y (x) y) + grad pi - f.  E is quartic in y (through the
convection term) but still an error functional: its stationary points
are exactly the discrete steady solutions when the corrector vanishes.
Descent uses the H_0^1 x L^2 Riesz gradient with Armijo backtracking.
"""

import warnings
from dataclasses import dataclass

import numpy as np

from .abstract_descent import armijo_search, run_descent
from .discretization import (
    SpatialGrid,
    div,
    div_part,
    dx,
    dy,
    grad,
    grad_pressure,
    grad_pressure_transpose,
    h1_pairing,
    h1_seminorm_sq,
    laplace,
    poisson_solve,
    space_inner,
)

__all__ = [
    "SteadyProblem",
    "SteadyState",
    "SteadyConfig",
    "convection",
    "corrector_steady",
    "energy_steady",
    "gradient_steady",
    "descend_steady",
    "pressure_residual_indicator",
]


@dataclass
class SteadyProblem:
    grid: SpatialGrid
    nu: float
    f: np.ndarray
    epsilon: float = 0.0

    def __post_init__(self):
        if not (self.nu > 0):
            raise ValueError("viscosity must be positive")
        if not (self.epsilon >= 0):
            raise ValueError("epsilon must be nonnegative")
        self.f = np.asarray(self.f, dtype=float)
        if self.f.shape != (2, self.grid.ny, self.grid.nx):
            raise ValueError("f must be a velocity slice (2, ny, nx)")
        if not np.isfinite(self.f).all():
            raise ValueError("f contains non-finite values")

    def forcing_dual_norm(self):
        """Estimate of ||f||_{H^-1} via one Poisson solve per component."""
        g = poisson_solve(self.grid, self.f)
        return float(np.sqrt(max(space_inner(g, self.f, self.grid), 0.0)))

    def check_small_data(self):
        """Uniqueness heuristic: warn when nu^-2 ||f||_-1 exceeds 1."""
        val = self.forcing_dual_norm() / self.nu**2
        if val > 1.0:
            warnings.warn(
                f"nu^-2 ||f||_-1 = {val:.3g} exceeds 1.0: "
                "the steady solution may not be unique",
                stacklevel=2,
            )
        return val


@dataclass
class SteadyState:
    grid: SpatialGrid
    y: np.ndarray
    pi: np.ndarray

    def __post_init__(self):
        self.y = np.asarray(self.y, dtype=float)
        self.pi = np.asarray(self.pi, dtype=float)
        if self.y.shape != (2, self.grid.ny, self.grid.nx):
            raise ValueError("y must be (2, ny, nx)")
        if self.pi.shape != (self.grid.ny, self.grid.nx):
            raise ValueError("pi must be (ny, nx)")
        self.pi = self.pi - self.pi.mean()

    @classmethod
    def zeros(cls, grid):
        return cls(grid, np.zeros((2, grid.ny, grid.nx)), np.zeros((grid.ny, grid.nx)))

    def copy(self):
        return SteadyState(self.grid, self.y.copy(), self.pi.copy())


@dataclass
class SteadyConfig:
    max_iter: int = 500
    tol_energy: float = 0.0
    tol_energy_rel: float = 0.0  # relative to the first energy
    tol_grad: float = 0.0        # relative to the first gradient norm
    algorithm: str = "steepest"  # "steepest" or "cg" (Polak-Ribiere +)

    def __post_init__(self):
        if self.algorithm not in ("steepest", "cg"):
            raise ValueError("algorithm must be 'steepest' or 'cg'")
        for name in ("max_iter", "tol_energy", "tol_energy_rel", "tol_grad"):
            if not (getattr(self, name) >= 0):
                raise ValueError(f"{name} must be nonnegative")


def convection(y, z, grid):
    """div(y (x) z) in divergence form, component i: d_j (y_i z_j)."""
    y = np.asarray(y)
    z = np.asarray(z)
    return np.stack(
        [dx(y[0] * z[0], grid) + dy(y[0] * z[1], grid),
         dx(y[1] * z[0], grid) + dy(y[1] * z[1], grid)]
    )


def _momentum_residual(p: SteadyProblem, s: SteadyState):
    r = -p.nu * laplace(s.y, p.grid, compact=True)
    r += convection(s.y, s.y, p.grid)
    r += grad_pressure(s.pi, p.grid)
    return r - p.f


def corrector_steady(p: SteadyProblem, s: SteadyState):
    """Corrector v (zero on the walls) of the momentum residual.

    Returns (v, info) where info carries the H_0^1 norm of v.
    """
    res = _momentum_residual(p, s)
    v = poisson_solve(p.grid, -res)
    vnorm = np.sqrt(max(h1_seminorm_sq(v, p.grid), 0.0))
    return v, {"v_h1": vnorm}


def energy_steady(p: SteadyProblem, s: SteadyState, v=None):
    if v is None:
        v, _ = corrector_steady(p, s)
    q = div_part(s.y, s.pi, p.grid, p.epsilon)
    return 0.5 * (h1_seminorm_sq(v, p.grid) + space_inner(q, q, p.grid))


def _grad_tensor(v, grid):
    """(dv_i/dx_j) entries with centered stencils: rows i, cols j."""
    return ((dx(v[0], grid), dy(v[0], grid)), (dx(v[1], grid), dy(v[1], grid)))


def gradient_steady(p: SteadyProblem, s: SteadyState, v=None, return_norm=False):
    """Riesz gradient of E in H_0^1 x L^2(U).

    Pressure component: adjoint divergence of the corrector (+ eps
    coupling), mean removed.  Velocity component: one Poisson solve of
    the assembled first-variation functional.
    """
    g = p.grid
    if v is None:
        v, _ = corrector_steady(p, s)
    q = div_part(s.y, s.pi, p.grid, p.epsilon)
    pibar = -grad_pressure_transpose(v, g)
    if p.epsilon:
        pibar = pibar + p.epsilon * q
    pibar = pibar - pibar.mean()

    gv = _grad_tensor(v, g)
    sv = np.stack(
        [2 * gv[0][0] * s.y[0] + (gv[0][1] + gv[1][0]) * s.y[1],
         (gv[0][1] + gv[1][0]) * s.y[0] + 2 * gv[1][1] * s.y[1]]
    )
    r = -p.nu * (-laplace(v, g, compact=True)) + sv - grad(q, g)
    ybar = poisson_solve(g, r)
    if not return_norm:
        return ybar, pibar
    norm_sq = space_inner(ybar, r, g) + space_inner(pibar, pibar, g)
    return ybar, pibar, max(norm_sq, 0.0)


def pressure_residual_indicator(p: SteadyProblem, s: SteadyState, v=None):
    """Auxiliary pressure-like quantity -(div y + y . v): a boundedness
    indicator for the corrector argument, reported only as a diagnostic."""
    if v is None:
        v, _ = corrector_steady(p, s)
    return -(div(s.y, p.grid) + s.y[0] * v[0] + s.y[1] * v[1])


class _ArmijoRule:
    """Step rule of ``descend_steady`` for ``run_descent``: Armijo
    backtracking along the metric gradient or its PR+ combination."""

    diagnostics = ("residual_norm", "div_norm")
    kernel_ratios = False

    def __init__(self, p, cfg, s):
        self.p, self.cfg, self.state = p, cfg, s
        self.eta = 1.0  # the first trial step is twice this
        self.prev = None  # (ybar, pibar, gn_sq) of the previous iterate
        self.dir_y = self.dir_pi = None

    def measure(self, history):
        p, s, g = self.p, self.state, self.p.grid
        v, _ = corrector_steady(p, s)
        e = energy_steady(p, s, v)
        self.ybar, self.pibar, self.gn_sq = gradient_steady(p, s, v, return_norm=True)
        residual_norm = np.sqrt(max(h1_seminorm_sq(v, g), 0.0))
        dv = div(s.y, g)
        return {
            "E": e,
            "grad_norm": np.sqrt(self.gn_sq),
            "residual_norm": residual_norm,
            "div_norm": np.sqrt(max(space_inner(dv, dv, g), 0.0)),
        }

    def choose(self, record):
        p, cfg, s, g = self.p, self.cfg, self.state, self.p.grid
        ybar, pibar, gn_sq = self.ybar, self.pibar, self.gn_sq
        dd = gn_sq
        if cfg.algorithm == "cg" and self.prev is not None:
            py, ppi, pgn_sq = self.prev
            # H_0^1 x L^2 pairings of the gradient with the previous one
            # and with the combined direction
            pair = space_inner(pibar, ppi, g) + h1_pairing(ybar, py, g)
            beta = max(0.0, (gn_sq - pair) / pgn_sq)
            cy = ybar + beta * self.dir_y
            cpi = pibar + beta * self.dir_pi
            dd_c = space_inner(pibar, cpi, g) + h1_pairing(ybar, cy, g)
            if dd_c > 1e-12 * gn_sq:
                self.dir_y, self.dir_pi, dd = cy, cpi, dd_c
            else:
                self.dir_y, self.dir_pi = ybar, pibar
        else:
            self.dir_y, self.dir_pi = ybar, pibar
        self.prev = (ybar, pibar, gn_sq)

        def trial_energy(eta):
            self.trial = SteadyState(g, s.y - eta * self.dir_y, s.pi - eta * self.dir_pi)
            return energy_steady(p, self.trial)

        found = armijo_search(trial_energy, record["E"], dd, min(self.eta * 2.0, 1e6))
        if found is None:
            return "line_search_stall"
        self.eta = record["step"] = found[0]
        return None

    def advance(self, record):
        self.state = self.trial


def descend_steady(p: SteadyProblem, cfg: SteadyConfig, s_init=None, observer=None):
    """Armijo-backtracked descent on the quartic energy.

    algorithm='steepest' follows the metric gradient; 'cg' recombines
    it with the previous direction (Polak-Ribiere+, restarted whenever
    the combination stops being a descent direction).  Either way each
    accepted step strictly decreases E; line-search stagnation (step
    below 1e-14) is reported, not raised.  ``observer(record,
    s)`` sees every iterate (see ``abstract_descent.run_descent``);
    records carry ``residual_norm`` and ``div_norm``.
    """
    p.check_small_data()
    rule = _ArmijoRule(p, cfg, (s_init or SteadyState.zeros(p.grid)).copy())
    report = run_descent(rule, cfg.max_iter, cfg.tol_energy, cfg.tol_energy_rel,
                         cfg.tol_grad, observer=observer)
    return rule.state, report

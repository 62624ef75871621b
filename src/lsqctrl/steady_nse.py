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

from .abstract_descent import DescentReport
from .discretization import (
    SpatialGrid,
    div,
    dx,
    dy,
    grad,
    grad_pressure,
    grad_pressure_transpose,
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
    uniqueness_threshold: float = 1.0  # warn when nu^-2 ||f||_-1 exceeds this

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
        """Uniqueness heuristic: warn when nu^-2 ||f||_-1 is not small."""
        val = self.forcing_dual_norm() / self.nu**2
        if val > self.uniqueness_threshold:
            warnings.warn(
                f"nu^-2 ||f||_-1 = {val:.3g} exceeds {self.uniqueness_threshold}: "
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
    tol_grad: float = 0.0        # relative to the first gradient norm
    armijo_c: float = 1e-4
    step_init: float = 1.0
    step_min: float = 1e-14
    algorithm: str = "steepest"  # "steepest" or "cg" (Polak-Ribiere +)

    def __post_init__(self):
        if self.algorithm not in ("steepest", "cg"):
            raise ValueError("algorithm must be 'steepest' or 'cg'")


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


def _div_part(p, s):
    q = div(s.y, p.grid)
    if p.epsilon:
        q = q + p.epsilon * s.pi
    return q


def energy_steady(p: SteadyProblem, s: SteadyState, v=None):
    if v is None:
        v, _ = corrector_steady(p, s)
    q = _div_part(p, s)
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
    q = _div_part(p, s)
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


def _pair_h1l2(ya, pia, yb, pib, grid):
    """H_0^1 x L^2 pairing of two gradient-type pairs (edge form)."""
    val = space_inner(pia, pib, grid)
    eax = np.diff(ya, axis=-1, prepend=0.0, append=0.0) / grid.hx
    ebx = np.diff(yb, axis=-1, prepend=0.0, append=0.0) / grid.hx
    eay = np.diff(ya, axis=-2, prepend=0.0, append=0.0) / grid.hy
    eby = np.diff(yb, axis=-2, prepend=0.0, append=0.0) / grid.hy
    val += grid.hx * grid.hy * float(np.sum(eax * ebx) + np.sum(eay * eby))
    return val


def descend_steady(p: SteadyProblem, cfg: SteadyConfig, s_init=None):
    """Armijo-backtracked descent on the quartic energy.

    algorithm='steepest' follows the metric gradient; 'cg' recombines
    it with the previous direction (Polak-Ribiere+, restarted whenever
    the combination stops being a descent direction).  Either way each
    accepted step strictly decreases E; line-search stagnation (step
    below cfg.step_min) is reported, not raised.
    """
    p.check_small_data()
    g = p.grid
    s = (s_init or SteadyState.zeros(g)).copy()
    energies, gnorms, steps, resids, divs = [], [], [], [], []
    converged, reason = False, "max_iter"
    eta = cfg.step_init
    e0 = g0 = None
    prev = None  # (ybar, pibar, gn_sq) of the previous iterate
    dir_y = dir_pi = None
    for it in range(cfg.max_iter + 1):
        v, _ = corrector_steady(p, s)
        e = energy_steady(p, s, v)
        ybar, pibar, gn_sq = gradient_steady(p, s, v, return_norm=True)
        gn = np.sqrt(gn_sq)
        energies.append(e)
        gnorms.append(gn)
        resids.append(np.sqrt(max(h1_seminorm_sq(v, g), 0.0)))
        dv = div(s.y, g)
        divs.append(np.sqrt(max(space_inner(dv, dv, g), 0.0)))
        if e0 is None:
            e0, g0 = e, gn
        if e <= cfg.tol_energy:
            converged, reason = True, "energy_tol"
            break
        if cfg.tol_grad and gn <= cfg.tol_grad * max(g0, 1e-300):
            converged, reason = True, "grad_tol"
            break
        if it == cfg.max_iter:
            break

        dd = gn_sq
        if cfg.algorithm == "cg" and prev is not None:
            py, ppi, pgn_sq = prev
            beta = max(
                0.0,
                (gn_sq - _pair_h1l2(ybar, pibar, py, ppi, g)) / pgn_sq,
            )
            cy = ybar + beta * dir_y
            cpi = pibar + beta * dir_pi
            dd_c = _pair_h1l2(ybar, pibar, cy, cpi, g)
            if dd_c > 1e-12 * gn_sq:
                dir_y, dir_pi, dd = cy, cpi, dd_c
            else:
                dir_y, dir_pi = ybar, pibar
        else:
            dir_y, dir_pi = ybar, pibar
        prev = (ybar, pibar, gn_sq)

        eta = min(eta * 2.0, 1e6)
        accepted = False
        while eta >= cfg.step_min:
            trial = SteadyState(g, s.y - eta * dir_y, s.pi - eta * dir_pi)
            e_trial = energy_steady(p, trial)
            if e_trial <= e - cfg.armijo_c * eta * dd:
                s = trial
                steps.append(eta)
                accepted = True
                break
            eta *= 0.5
        if not accepted:
            reason = "line_search_stall"
            break
    report = DescentReport(
        iterates_count=len(energies),
        energies=np.array(energies),
        grad_norms=np.array(gnorms),
        final_u=None,
        converged=converged,
        reason=reason,
        steps=np.array(steps),
        kernel_ratios=None,
        extras={"residual_norms": np.array(resids), "div_norms": np.array(divs)},
    )
    return s, report

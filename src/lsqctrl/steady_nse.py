"""Least-squares solver for the steady Navier-Stokes direct problem.

Given a forcing f, the pair (y, pi) is sought as the minimizer of

    E(y, pi) = 1/2 int_Omega ( |grad v|^2 + |div y + eps*pi|^2 ),

where the corrector v in H_0^1 lifts the momentum residual
-nu lap y + div(y (x) y) + grad pi - f.  E is quartic in y (through the
convection term) but still an error functional: its stationary points
are exactly the discrete steady solutions when the corrector vanishes.
Descent follows the H_0^1 x L^2 Riesz gradient (or its PR+ combination)
with the exact step (``abstract_descent.ExactLineRule``, as in the
unsteady solver): along a line the corrector is a quadratic polynomial
in the step size, so E is a quartic whose minimizer is a root of a cubic.

The H_0^1 norm of v is that of the 5-point stiffness L which
``poisson_solve`` (P) inverts exactly, so for every v = P(r)

    h1_pairing(a, P(r)) = space_inner(a, r):

a pairing with a solved field is read off its right-hand side.  So a
run solves one corrector, carried with its right-hand side from step to
step, and the quartic's coefficients come from one 3x3 Gram product of
the line's fields [v, Vd, v2] with their right-hand sides.  The
edge-form pairings stay the oracle (``energy_steady`` without ``rhs``).
"""

import warnings
from dataclasses import dataclass
from functools import partial
from operator import attrgetter

import numpy as np

from .abstract_descent import ExactLineRule, run_descent
from .discretization import (
    SpatialGrid,
    div_part,
    dx,
    dy,
    grad_pressure,
    grad_pressure_transpose,
    h1_seminorm_sq,
    laplace,
    poisson_solve,
    remove_slice_means,
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
        self.pi = remove_slice_means(self.pi)

    @classmethod
    def zeros(cls, grid):
        return cls(grid, np.zeros((2, grid.ny, grid.nx)), np.zeros((grid.ny, grid.nx)))

    def copy(self):
        """The state in new arrays, as they are: its pressure mean is not
        removed a second time, which could change the last bits."""
        c = object.__new__(SteadyState)
        c.grid, c.y, c.pi = self.grid, self.y.copy(), self.pi.copy()
        return c


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
    r = -p.nu * laplace(s.y, p.grid)
    r += convection(s.y, s.y, p.grid)
    r += grad_pressure(s.pi, p.grid)
    return r - p.f


def corrector_steady(p: SteadyProblem, s: SteadyState):
    """Corrector v (zero on the walls) of the momentum residual.

    Returns (v, rhs): rhs is the right-hand side of the solve, minus the
    momentum residual (v = P(rhs)).
    """
    rhs = -_momentum_residual(p, s)
    return poisson_solve(p.grid, rhs), rhs


def energy_steady(p: SteadyProblem, s: SteadyState, v=None, rhs=None):
    """E at s, from its corrector v if given (else solved).

    With v = P(rhs) and rhs given, the H_0^1 part is space_inner(v, rhs),
    which equals h1_pairing(v, v) up to roundoff; without rhs it is the
    edge form h1_seminorm_sq(v), the oracle.
    """
    if v is None:
        v, _ = corrector_steady(p, s)
    h1 = h1_seminorm_sq(v, p.grid) if rhs is None else space_inner(v, rhs, p.grid)
    q = div_part(s.y, s.pi, p.grid, p.epsilon)
    return 0.5 * (h1 + space_inner(q, q, p.grid))


def _grad_tensor(v, grid):
    """(dv_i/dx_j) entries with centered stencils: rows i, cols j."""
    vx, vy = dx(v, grid), dy(v, grid)
    return ((vx[0], vy[0]), (vx[1], vy[1]))


def gradient_steady(p: SteadyProblem, s: SteadyState, v=None, q=None):
    """Riesz gradient of E in H_0^1 x L^2(U).

    Pressure component: adjoint divergence of the corrector (+ eps
    coupling), mean removed.  Velocity component: one Poisson solve of
    the assembled first-variation functional, ybar = P(r).  q is div y
    + eps*pi of s, if known.  Returns (ybar, pibar, info): info["rhs"]
    is r, so that h1_pairing(a, ybar) = space_inner(a, r), and
    info["norm_sq"] the squared metric norm.
    """
    g = p.grid
    if v is None:
        v, _ = corrector_steady(p, s)
    if q is None:
        q = div_part(s.y, s.pi, p.grid, p.epsilon)
    pibar = -grad_pressure_transpose(v, g)
    if p.epsilon:
        pibar += p.epsilon * q
    remove_slice_means(pibar, out=pibar)

    gv = _grad_tensor(v, g)
    shear = gv[0][1] + gv[1][0]
    sv = np.empty_like(s.y)
    np.multiply(2 * gv[0][0], s.y[0], out=sv[0])
    sv[0] += shear * s.y[1]
    np.multiply(shear, s.y[0], out=sv[1])
    sv[1] += 2 * gv[1][1] * s.y[1]
    r = laplace(v, g)
    r *= p.nu
    r += sv
    r[0] -= dx(q, g)
    r[1] -= dy(q, g)
    ybar = poisson_solve(g, r)
    norm_sq = space_inner(ybar, r, g) + space_inner(pibar, pibar, g)
    return ybar, pibar, {"norm_sq": max(norm_sq, 0.0), "rhs": r}


def _line_convection(y, d, grid, out):
    """convection(y, d) + convection(d, y), returned, and convection(d, d),
    written to out, from one dx pass over their stacked x-fluxes and one
    dy pass over their y-fluxes (each convection call makes two of each
    per component)."""
    f = np.empty((2, 4) + y.shape[1:])  # [x, y] fluxes of [cross, dd]
    for fj, yj, dj in zip(f, y, d):
        np.multiply(y, dj, out=fj[:2])
        fj[:2] += d * yj
        np.multiply(d, dj, out=fj[2:])
    c = dx(f[0], grid)
    c += dy(f[1], grid)
    out[...] = c[2:]
    return c[:2]


def _gram(fields, rhss, grid):
    """hx*hy * fields @ rhss^T over the flattened slices of two stacked
    arrays.  With fields[i] = P(rhss[i]) entry (i, j) is
    h1_pairing(fields[i], fields[j])."""
    a = fields.reshape(len(fields), -1)
    b = rhss.reshape(len(rhss), -1)
    return grid.hx * grid.hy * (a @ b.T)


class _SteadyLine:
    """The steady line builder for ``ExactLineRule``.  The residual is
    quadratic in y, so along s - eta d the corrector's right-hand side is
    rhs - eta bd - eta^2 cdd (bd: the negated linearized residual of d,
    cdd: the convection of d_y), the corrector v - eta Vd - eta^2 v2 with
    [Vd, v2] = P([bd, cdd]), and E a quartic read off _gram([v, Vd, v2],
    [rhs, bd, cdd]).  The gradient's dual is [r, pibar], ybar = P(r)."""

    diagnostics = ("residual_norm", "div_norm")
    parts = staticmethod(attrgetter("y", "pi"))
    scratch = staticmethod(lambda b: None)  # a 2-D step product is a new array

    def __init__(self, p):
        self.p = p
        self.inner_v = self.inner_q = partial(space_inner, grid=p.grid)

    def fields(self, s):
        v, rhs = corrector_steady(self.p, s)
        return [v, rhs, div_part(s.y, s.pi, self.p.grid, self.p.epsilon)]

    def reform(self, s, d, eta, fields):
        """q at s - eta d afresh: carried, it would drift by roundoff.
        At epsilon = 0 q is div y alone, and the pressure is not formed."""
        pi = s.pi - eta * d[1] if self.p.epsilon else None
        fields[2] = div_part(s.y - eta * d[0], pi, self.p.grid, self.p.epsilon)

    def measure(self, s, fields, pairings):
        (v, _, q), (v_sq, div_sq) = fields, pairings
        if self.p.epsilon:
            dv = q - self.p.epsilon * s.pi
            div_sq = space_inner(dv, dv, self.p.grid)
        ybar, pibar, info = gradient_steady(self.p, s, v, q)
        return [ybar, pibar], [info["rhs"], pibar], info["norm_sq"], {
            "residual_norm": np.sqrt(max(v_sq, 0.0)), "div_norm": np.sqrt(max(div_sq, 0.0))}

    def line(self, s, fields, d):
        p, g, (v, rhs, q) = self.p, self.p.grid, fields
        # [v, Vd, v2] and [rhs, bd, cdd], each stacked in one array for _gram
        sols, rhss = np.empty((2, 3) + s.y.shape)
        sols[0], rhss[0] = v, rhs
        bd, cdd = rhss[1:]
        cross = _line_convection(s.y, d[0], g, out=cdd)
        np.multiply(laplace(d[0], g), p.nu, out=bd)
        bd -= cross
        bd -= grad_pressure(d[1], g)
        poisson_solve(g, rhss[1:], out=sols[1:])
        gram = _gram(sols, rhss, g)
        qd = div_part(d[0], d[1], g, p.epsilon)
        coef = (-gram[0, 1] - space_inner(q, qd, g),
                0.5 * (gram[1, 1] + space_inner(qd, qd, g)) - gram[0, 2],
                gram[1, 2], 0.5 * gram[2, 2])
        return coef, [sols[1:], rhss[1:], ()]


def descend_steady(p: SteadyProblem, cfg: SteadyConfig, s_init=None, observer=None):
    """Descent on the quartic energy with the exact step.

    algorithm='steepest' follows the metric gradient; 'cg' recombines
    it with the previous direction (Polak-Ribiere+, restarted whenever
    the combination stops descending).  The step is the minimizer of E
    along the direction, taken only if it strictly lowers E; once
    roundoff stops that, the run ends on ``line_search_stall``, reported,
    not raised (``abstract_descent.ExactLineRule``).  ``observer(record,
    s)`` sees every iterate (see ``run_descent``); records carry
    ``residual_norm`` and ``div_norm``.  The report's extras carry the
    ``small_data_ratio`` nu^-2 ||f||_-1 of ``check_small_data``.
    """
    ratio = p.check_small_data()
    rule = ExactLineRule(_SteadyLine(p), (s_init or SteadyState.zeros(p.grid)).copy(),
                         cfg.algorithm == "cg")
    report = run_descent(rule, cfg.max_iter, cfg.tol_energy, cfg.tol_energy_rel,
                         cfg.tol_grad, observer=observer)
    report.extras["small_data_ratio"] = ratio
    return rule.state, report

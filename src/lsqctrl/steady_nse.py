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
edge-form pairings stay the oracle (``energy_steady``).
"""

import warnings
from dataclasses import dataclass

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


def _flux_divergence(f, grid):
    """dx f[0] + dy f[1] over stacked x- and y-fluxes: one dx and one dy
    product for every field in the stack.  The dy product is formed in
    f[0], spent once dx has read it."""
    c = dx(f[0], grid)
    c += dy(f[1], grid, out=f[0])
    return c


def convection(y, z, grid):
    """div(y (x) z) in divergence form, component i: d_j (y_i z_j)."""
    y = np.asarray(y)
    f = np.empty((2,) + y.shape)  # [x, y] fluxes of both components
    for fj, zj in zip(f, np.asarray(z)):
        np.multiply(y, zj, out=fj)
    return _flux_divergence(f, grid)


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


def energy_steady(p: SteadyProblem, s: SteadyState, v=None):
    """E at s from the edge-form pairing h1_seminorm_sq of its corrector
    v, if given (else solved): the oracle of the line's energy."""
    if v is None:
        v, _ = corrector_steady(p, s)
    q = div_part(s.y, s.pi, p.grid, p.epsilon)
    return 0.5 * (h1_seminorm_sq(v, p.grid) + space_inner(q, q, p.grid))


def gradient_steady(p: SteadyProblem, s: SteadyState, v=None, q=None, work=None):
    """Riesz gradient of E in H_0^1 x L^2(U).

    Pressure component: adjoint divergence of the corrector (+ eps
    coupling), mean removed.  Velocity component: one Poisson solve of
    the assembled first-variation functional, ybar = P(r).  q is div y
    + eps*pi of s, if known.  Returns (ybar, pibar, r, norm_sq): r is the
    solve's right-hand side, so that h1_pairing(a, ybar) = space_inner(a,
    r), and norm_sq the squared metric norm.  ybar, pibar and r are new
    arrays; the scratch products (dx v, dy v, and the work of the
    Laplacian, the Poisson solve and the pressure's transpose) go to
    work, a C-contiguous (2, 2) stack of vector slices, if given (the
    line lends its idle fluxes), else to a new one.
    """
    g = p.grid
    if v is None:
        v, _ = corrector_steady(p, s)
    if q is None:
        q = div_part(s.y, s.pi, p.grid, p.epsilon)
    if work is None:
        work = np.empty((2, 2) + v.shape)
    (dxv, dyv), (lap_work, solve_work) = work
    pibar = grad_pressure_transpose(v, g, scale=-1.0, work=dxv[0])
    if p.epsilon:
        pibar += np.multiply(q, p.epsilon, out=dxv[0])
    remove_slice_means(pibar, out=pibar)

    # the strain terms 2 e(v) y, formed in the derivatives' own arrays:
    # (vxx, vyx) = dv/dx and (vxy, vyy) = dv/dy, vij = dv_i/dx_j
    (vxx, vyx), (vxy, vyy) = dx(v, g, out=dxv), dy(v, g, out=dyv)
    shear = np.add(vxy, vyx, out=vxy)
    vxx *= 2
    vxx *= s.y[0]
    vxx += np.multiply(shear, s.y[1], out=vyx)
    vyy *= 2
    vyy *= s.y[1]
    vyy += np.multiply(shear, s.y[0], out=shear)
    r = laplace(v, g, work=lap_work)
    r *= p.nu
    r[0] += vxx
    r[1] += vyy
    r[0] -= dx(q, g, out=vyx)
    r[1] -= dy(q, g, out=shear)
    ybar = poisson_solve(g, r, work=solve_work)
    norm_sq = space_inner(ybar, r, g) + space_inner(pibar, pibar, g)
    return ybar, pibar, r, max(norm_sq, 0.0)


def _line_convection(y, d, grid, out, flux):
    """convection(y, d) + convection(d, y), returned, and convection(d, d),
    written to out, from one flux divergence of their stacked fluxes,
    formed in flux: (2, 2) + y.shape, the [x, y] fluxes of [cross, dd]."""
    for (cross, dd), yj, dj in zip(flux, y, d):
        np.multiply(y, dj, out=cross)
        cross += d * yj
        np.multiply(d, dj, out=dd)
    c = _flux_divergence(flux, grid)
    out[...] = c[1]
    return c[0]


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
    [Vd, v2] = P([bd, cdd]), and E a quartic read off _gram(sols, rhss),
    sols = [v, Vd, v2] and rhss = [rhs, bd, cdd].  The fields are [v, rhs,
    q]; ``step`` forms q afresh, since carried it would drift by
    roundoff.  The gradient's pairing reads its right-hand side r (ybar =
    P(r)).

    The line allocates its workspace once, here: the stacks sols and
    rhss, whose row 0 ``line`` fills from the fields and whose other rows
    ``step`` scales and spends; the line's fluxes, whose x-fluxes, once
    spent, are the scratch of its Poisson solve; qd, the direction's q;
    the next velocity y - eta d, which ``step`` forms for q and
    ``advance`` copies into the state (the state keeps its own arrays,
    so no workspace block outlives the run); and W and Ws, a vector and
    a scalar field of scratch that hold nothing between calls.
    """

    diagnostics = ("residual_norm", "div_norm")

    def __init__(self, p):
        g = p.grid
        vector, scalar = (2, g.ny, g.nx), (g.ny, g.nx)
        self.p = p
        # [v, Vd, v2] and [rhs, bd, cdd], each stacked in one array for _gram
        self.sols, self.rhss = np.empty((2, 3) + vector)
        self.flux = np.empty((2, 2) + vector)
        self.qd, self.Ws = np.empty((2,) + scalar)
        self.W, self.y_next = np.empty((2,) + vector)

    def reset(self, s):
        v, rhs = corrector_steady(self.p, s)
        self.fields = [v, rhs, div_part(s.y, s.pi, self.p.grid, self.p.epsilon)]

    def energy(self):
        v, rhs, q = self.fields
        vv, qq = self.pairings = space_inner(v, rhs, self.p.grid), space_inner(q, q, self.p.grid)
        return 0.5 * (vv + qq)

    def measure(self, s):
        p, (v, _, q), (v_sq, div_sq) = self.p, self.fields, self.pairings
        if p.epsilon:
            dv = q - p.epsilon * s.pi
            div_sq = space_inner(dv, dv, p.grid)
        ybar, pibar, r, norm_sq = gradient_steady(p, s, v, q, work=self.flux)

        def pair(x):
            return space_inner(r, x[0], p.grid) + space_inner(pibar, x[1], p.grid)

        return [ybar, pibar], pair, norm_sq, {
            "residual_norm": np.sqrt(max(v_sq, 0.0)), "div_norm": np.sqrt(max(div_sq, 0.0))}

    def line(self, s, d):
        p, g, (v, rhs, q) = self.p, self.p.grid, self.fields
        sols, rhss, W = self.sols, self.rhss, self.W
        sols[0], rhss[0] = v, rhs
        bd, cdd = rhss[1:]
        cross = _line_convection(s.y, d[0], g, cdd, self.flux)
        laplace(d[0], g, out=bd, work=W)
        bd *= p.nu
        bd -= cross
        bd -= grad_pressure(d[1], g, out=W)
        poisson_solve(g, rhss[1:], out=sols[1:], work=self.flux[0])
        gram = _gram(sols, rhss, g)
        qd = div_part(d[0], d[1], g, p.epsilon, out=self.qd, work=self.Ws)
        return (-gram[0, 1] - space_inner(q, qd, g),
                0.5 * (gram[1, 1] + space_inner(qd, qd, g)) - gram[0, 2],
                gram[1, 2], 0.5 * gram[2, 2])

    def step(self, s, d, eta):
        """The fields at s - eta d.  At epsilon = 0 q is div y alone, and
        the pressure is not formed."""
        for field, incs in zip(self.fields, (self.sols, self.rhss)):
            for k, a in enumerate(incs[1:], 1):
                a *= eta**k  # in place: the increments are spent after this
                field -= a
        y = np.multiply(d[0], eta, out=self.y_next)
        np.subtract(s.y, y, out=y)
        pi = s.pi - eta * d[1] if self.p.epsilon else None
        div_part(y, pi, self.p.grid, self.p.epsilon, out=self.fields[2], work=self.Ws)

    def advance(self, s, d, eta):
        np.copyto(s.y, self.y_next)
        s.pi -= np.multiply(d[1], eta)


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

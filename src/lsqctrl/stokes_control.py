"""Least-squares solver for the unsteady Stokes system.

A candidate triplet s = (y, pi, f) carries the velocity, pressure and
the control density; the traces y(.,0) = y0 (and y(.,T) = 0 for null
control) as well as the lateral boundary condition are built into the
ansatz, so every iterate satisfies them exactly.  How far s is from
actually solving the system is measured by the quadratic functional

    E(s) = 1/2 int_QT ( |v_t|^2 + |grad v|^2 + |div y + eps*pi|^2 ),

where the corrector v solves the space-time elliptic problem driven by
the momentum residual of s.  Minimization runs over the affine manifold
s_A + (zero-trace increments) by exact-step descent (steepest or
conjugate gradient) in the graph metric of the increment space; the
metric makes the preconditioned problem well scaled, and the gradient
has closed-form pressure and control components (the divergence and
the restriction of the corrector).

The exact projection onto the orthogonal complement of the kernel of
the residual map is itself a controllability problem and is not
computed at PDE scale; the descent instead monitors the kernel ratio
||T g|| / ||g|| and stops when the direction is essentially invisible
to the functional.  The dense engine in ``abstract_descent`` retains
the exact projector so projection semantics stay tested at small scale.
"""

from dataclasses import dataclass
from functools import lru_cache, partial
from operator import attrgetter

import numpy as np

from .abstract_descent import DescentDivergence, ExactLineRule, run_descent
from .discretization import (
    SpaceTimeGrid,
    SupportMask,
    Triplet,
    a0_velocity_riesz,
    div_part,
    dx,
    dy,
    grad_pressure,
    grad_pressure_transpose,
    laplace,
    level_slice,
    remove_slice_means,
    space_inner,
    spacetime_solve_weak,
    st_inner,
)

__all__ = [
    "ControlProblem",
    "CorrectorField",
    "SolveConfig",
    "DescentDivergence",
    "lift_sA",
    "corrector",
    "gradient_a0",
    "descend",
]

MODES = ("null_control", "direct")


@dataclass
class ControlProblem:
    """Data of one unsteady solve.

    y0 is the initial velocity on the interior nodes (the boundary trace
    of the continuous datum must vanish; eliminated nodes carry that).
    mode 'null_control' pins y(.,T) = 0 into the ansatz, 'direct' leaves
    the final slice free and keeps the control f frozen.
    """

    grid: SpaceTimeGrid
    nu: float
    y0: np.ndarray
    mask: SupportMask
    mode: str = "null_control"
    epsilon: float = 0.0

    def __post_init__(self):
        if not (self.nu > 0):
            raise ValueError("viscosity must be positive")
        if not (self.epsilon >= 0):
            raise ValueError("epsilon must be nonnegative")
        if self.mode not in MODES:
            raise ValueError(f"mode must be one of {MODES}")
        self.y0 = np.asarray(self.y0, dtype=float)
        if self.y0.shape != (2, self.grid.ny, self.grid.nx):
            raise ValueError("y0 must be a velocity slice (2, ny, nx)")
        if not np.isfinite(self.y0).all():
            raise ValueError("y0 contains non-finite values")
        self.mask.validate(self.grid)
        self._mask_arr = self.mask.indicator(self.grid)

    @property
    def fixed_traces(self):
        return "both" if self.mode == "null_control" else "initial"

    def mask_array(self):
        return self._mask_arr


@dataclass
class CorrectorField:
    """Corrector v = A^-1 rhs of a triplet or a direction, with its
    right-hand side rhs (the negated weak residual)."""

    v: np.ndarray
    rhs: np.ndarray

    @property
    def weak_residual_norm(self):
        """The energy norm sqrt(v . rhs) of the corrector."""
        return np.sqrt(max(float(np.vdot(self.v, self.rhs)), 0.0))


@dataclass
class SolveConfig:
    max_iter: int = 200
    tol_energy: float = 0.0          # absolute threshold on E
    tol_energy_rel: float = 0.0      # relative to E at the starting point
    tol_grad: float = 0.0            # relative to the first gradient norm
    tol_kernel: float = 0.0          # threshold on ||T g||_Y / ||g||_A0
    refresh_every: int = 50
    algorithm: str = "steepest"      # "steepest" or "cg"

    def __post_init__(self):
        if self.algorithm not in ("steepest", "cg"):
            raise ValueError("algorithm must be 'steepest' or 'cg'")
        for name in ("max_iter", "tol_energy", "tol_energy_rel", "tol_grad", "tol_kernel",
                     "refresh_every"):
            if not (getattr(self, name) >= 0):
                raise ValueError(f"{name} must be nonnegative")


# ---------------------------------------------------------------------------
# residual assembly
# ---------------------------------------------------------------------------

@lru_cache(maxsize=64)
def _dt_matrix(grid):
    """Read-only (nt+1, nt+1) matrix B of the pairing int y_t . w, hx*hy
    folded in: (B y)_j pairs y with the hat function of level j.

    y is piecewise linear in time, so y_t is piecewise constant; exact
    integration against a piecewise-linear w gives the centered pairing
    with one-sided halves at the two endpoints.
    """
    e = np.full(grid.nt, 0.5 * grid.hx * grid.hy)
    B = np.diag(e, 1) - np.diag(e, -1)
    B[0, 0], B[-1, -1] = -e[0], e[0]
    B.flags.writeable = False
    return B


def _dt_weak_vector(y, grid):
    """Dual vector in the test function w of int y_t . w: one product
    with B over the level axis."""
    return (_dt_matrix(grid) @ y.reshape(len(y), -1)).reshape(y.shape)


def _dt_adjoint_vector(v, grid):
    """Dual vector in the direction Y of int Y_t . v (exact transpose)."""
    return (_dt_matrix(grid).T @ v.reshape(len(v), -1)).reshape(v.shape)


def _negated_residual(p: ControlProblem, y, pi, f, include_control=True):
    """The corrector right-hand side b = -r: the negated momentum
    residual functional r(s)[w] over all levels,

        r = B y - nu hx hy W L y + hx hy W G pi - hx hy W mask f,

    B the time pairing (``_dt_matrix``), W the trapezoid weights, L the
    5-point Laplacian and G the pressure gradient.  The sign and the
    weights add no pass over the Laplacian and pressure terms: nu hx hy ht
    scales L's 1-D matrices, formed per call (``stencils._times``), and
    the integer pressure products are scaled by -hx hy ht in the one pass
    after them (so the constants G2 annihilates stay exact zeros).  The
    trapezoid's end weights are two halvings of the end levels.  Every
    term is the exact negation of its term in r.
    """
    grid = p.grid
    c = grid.hx * grid.hy * grid.ht
    b = laplace(y, grid, scale=p.nu * c)
    b += grad_pressure(pi, grid, scale=-c)
    if include_control:
        b += _scaled(p.mask_array() * f, c)
    b[0] *= 0.5
    b[-1] *= 0.5
    b -= _dt_weak_vector(y, grid)
    return b


def _scaled(a, c):
    """a *= c in place, returning a: unnamed in the caller, a is freed once spent."""
    a *= c
    return a


def _direction_rhs(p, y, pi, f):
    """Corrector right-hand side of a direction (y, pi, f): its negated
    residual without the data, and without a frozen control."""
    return _negated_residual(p, y, pi, f, include_control=p.mode == "null_control")


def corrector(p: ControlProblem, s: Triplet) -> CorrectorField:
    """Space-time corrector of s: the elliptic lift of the weak residual."""
    b = _negated_residual(p, s.y, s.pi, s.f)
    return CorrectorField(spacetime_solve_weak(p.grid, b), b)


def lift_sA(p: ControlProblem) -> Triplet:
    """Admissible base point: y0 transported by a scalar time profile.

    eta(t) = 1 - t/T in null-control mode (both traces exact), eta = 1
    for the direct problem.
    """
    grid = p.grid
    if p.mode == "null_control":
        eta = 1.0 - grid.ts() / grid.T_final
    else:
        eta = np.ones(grid.nt + 1)
    s = Triplet.zeros(grid)
    s.y = eta[:, None, None, None] * p.y0[None]
    return s


def gradient_a0(p: ControlProblem, s: Triplet, corr=None, q=None, out=None):
    """Riesz representative g of E'(s) in the increment metric, returned
    with its squared metric norm as (g, norm_sq).

    Pressure and control components are closed-form: the adjoint
    divergence of the corrector and its restriction to the support.  The
    velocity component solves the metric problem with the H^-1 term.  q
    is div y + eps*pi of s, if known.  out, if given, is a (y, pi, f)
    tuple of C-contiguous arrays shaped like s's parts that receives the
    gradient: every element is written, so they may hold anything (the
    descent passes its line's spent fields).
    """
    grid = p.grid
    v = (corr or corrector(p, s)).v
    c = grid.hx * grid.hy * grid.ht
    sl = level_slice(grid, p.fixed_traces)

    if out is None:
        out = (np.empty(s.y.shape), np.empty(s.pi.shape), np.empty(s.f.shape))
    g = Triplet.unchecked(grid, *out)
    if q is None:
        q = div_part(s.y, s.pi, p.grid, p.epsilon)
    pibar = grad_pressure_transpose(v, grid, out=g.pi, scale=-1.0)
    if p.epsilon:
        pibar += p.epsilon * q
    remove_slice_means(pibar, out=pibar)
    if p.mode == "null_control":
        np.multiply(p.mask_array(), v, out=g.f)
    else:
        g.f.fill(0.0)  # the control is frozen

    # the velocity's dual nu hx hy W L v - B^T v - hx hy W grad q; of the
    # two half-weight end levels only the last, in direct mode, is unknown
    rvec = laplace(v, grid, scale=p.nu * c)
    rvec[:, 0] -= dx(q, grid, scale=c)
    rvec[:, 1] -= dy(q, grid, scale=c)
    rvec[-1] *= 0.5
    rvec -= _dt_adjoint_vector(v, grid)
    g.y[:sl.start] = 0.0  # the fixed traces
    g.y[sl.stop:] = 0.0
    ybar = a0_velocity_riesz(grid, rvec[sl], p.fixed_traces, out=g.y[sl])

    norm_sq = float(np.vdot(rvec[sl], ybar))
    norm_sq += st_inner(g.pi, g.pi, grid) + st_inner(g.f, g.f, grid)
    return g, max(norm_sq, 0.0)


# ---------------------------------------------------------------------------
# descent
# ---------------------------------------------------------------------------

class _StokesLine:
    """The unsteady line builder for ``ExactLineRule``.  Along s - eta d
    the corrector is v - eta Vd (Vd = A^-1 bd, bd the direction's
    right-hand side, an assembled dual vector) and q is q - eta qd, so
    E(s - eta d) - E(s) = -eta (v.bd + <q, qd>) + eta^2 (Vd.bd + <qd, qd>) / 2."""

    diagnostics = ("div_norm", "yT_norm", "f_norm")
    parts = staticmethod(attrgetter("y", "pi", "f"))
    reform = None
    inner_v = staticmethod(lambda a, b: float(np.vdot(a, b)))

    def __init__(self, p):
        self.p = p
        self.inner_q = partial(st_inner, grid=p.grid)
        # the last line's (Vd, qd, bd), spent once the rule has applied them:
        # shaped as the gradient's (y, pi, f), the next gradient is written there
        self.spent = None

    def fields(self, s):
        corr = corrector(self.p, s)
        return [corr.v, corr.rhs, div_part(s.y, s.pi, self.p.grid, self.p.epsilon)]

    def refresh(self, s):
        s.pi = remove_slice_means(s.pi)
        return self.fields(s)

    def measure(self, s, fields, pairings):
        v, rhs, q = fields
        g, gn_sq = gradient_a0(self.p, s, CorrectorField(v, rhs), q=q, out=self.spent)
        self.spent = None
        div_sq = pairings[1]
        if self.p.epsilon:
            dv = q - self.p.epsilon * s.pi
            div_sq = st_inner(dv, dv, self.p.grid)
        grid, yT = self.p.grid, s.y[-1]
        return [g.y, g.pi, g.f], None, gn_sq, {
            "div_norm": np.sqrt(div_sq), "yT_norm": np.sqrt(space_inner(yT, yT, grid)),
            "f_norm": np.sqrt(st_inner(s.f, s.f, grid))}

    def line(self, s, fields, d):
        p, grid, (v, _, q) = self.p, self.p.grid, fields
        bd = _direction_rhs(p, *d)
        Vd = spacetime_solve_weak(grid, bd)
        qd = div_part(d[0], d[1], grid, p.epsilon)
        coef = (-(float(np.vdot(v, bd)) + st_inner(q, qd, grid)),
                0.5 * (float(np.vdot(Vd, bd)) + st_inner(qd, qd, grid)), 0.0, 0.0)
        self.spent = Vd, qd, bd
        return coef, [(Vd,), (bd,), (qd,)]


def descend(p: ControlProblem, cfg: SolveConfig, s_init: Triplet | None = None,
            observer=None):
    """Minimizing sequence s_k = s_A + u_k driven by the metric gradient.

    algorithm='steepest' steps along the gradient, 'cg' along conjugate
    directions (PR+, which exact search makes Fletcher-Reeves on this
    quadratic) and so resolves the flat tail of E in far fewer corrector
    solves; both take the exact step and keep the energy decreasing and
    the trace/support constraints exact (``abstract_descent.ExactLineRule``).
    Every refresh_every iterates the pressure's slice means are removed
    and the corrector solved afresh.  Stops on the energy, gradient or
    kernel-ratio target, max_iter, or ``line_search_stall`` once the step
    no longer lowers E.  ``observer(record, s)`` sees every iterate (see
    ``run_descent``); records carry ``kernel_ratio``, ``div_norm``,
    ``yT_norm`` and ``f_norm``.
    """
    rule = ExactLineRule(_StokesLine(p), (s_init or lift_sA(p)).copy(), cfg.algorithm == "cg",
                         cfg.refresh_every, cfg.tol_kernel)
    report = run_descent(rule, cfg.max_iter, cfg.tol_energy, cfg.tol_energy_rel,
                         cfg.tol_grad, observer)
    report.extras["corrector"] = CorrectorField(*rule.fields[:2])
    return rule.state, report

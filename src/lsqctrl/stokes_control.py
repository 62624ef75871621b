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

import math
from dataclasses import dataclass
from functools import lru_cache

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
        # the weights times hx*hy*ht: 0 or that product, exactly
        self._weighted_mask = self._mask_arr * (self.grid.hx * self.grid.hy * self.grid.ht)

    @property
    def fixed_traces(self):
        return "both" if self.mode == "null_control" else "initial"

    def mask_array(self):
        """The support's 0/1 node weights, broadcastable onto vector
        fields (``SupportMask.indicator``)."""
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


def _dt_weak_vector(y, grid, out):
    """Dual vector in the test function w of int y_t . w: one product
    with B over the level axis, into out (C-contiguous, shaped like y)."""
    np.matmul(_dt_matrix(grid), y.reshape(len(y), -1), out=out.reshape(len(y), -1))
    return out


@lru_cache(maxsize=64)
def _gradient_time_matrix(grid, nu):
    """Read-only (nt+1, nt+1) matrix nu hx hy K - B^T: the gradient's
    time terms, one product over the level axis of the corrector v.

    K is the Neumann time stiffness (1/ht) tridiag(-1, 2, -1) with end
    diagonal 1/ht, and B the time pairing (``_dt_matrix``).  The corrector
    equation A v = rhs, A = hx hy (K (x) I + W (x) (-L)), gives the
    gradient's Laplacian term as nu hx hy W L v = nu (hx hy K v - rhs).
    """
    e = np.full(grid.nt, -1.0 / grid.ht)
    K = np.diag(e, 1) + np.diag(e, -1) + np.diag(np.full(grid.nt + 1, 2.0 / grid.ht))
    K[0, 0] = K[-1, -1] = 1.0 / grid.ht
    M = nu * grid.hx * grid.hy * K - _dt_matrix(grid).T
    M.flags.writeable = False
    return M


def _scalar_part(W):
    """The first (nt+1, ny, nx) elements of a C-contiguous vector field
    W, as a C-contiguous scalar field: the scratch of scalar terms."""
    n, _, ny, nx = W.shape
    return W.reshape(-1)[:n * ny * nx].reshape(n, ny, nx)


def _negated_residual(p: ControlProblem, y, pi, f, include_control=True, out=None,
                      work=None):
    """The corrector right-hand side b = -r: the negated momentum
    residual functional r(s)[w] over all levels,

        r = B y - nu hx hy W L y + hx hy W G pi - hx hy W mask f,

    B the time pairing (``_dt_matrix``), W the trapezoid weights, L the
    5-point Laplacian and G the pressure gradient.  The sign and the
    weights add no pass over the Laplacian and pressure terms: nu hx hy ht
    scales L's 1-D matrices, formed per call (``stencils._times``), the
    integer pressure products are scaled by -hx hy ht in the one pass
    after them (so the constants G2 annihilates stay exact zeros), and
    the support weights carry hx hy ht, folded in once per problem (the
    weights are 0 or 1, so that is exact).  The trapezoid's end weights
    are one halving of both end levels.  Every term is the exact
    negation of its term in r.  b goes to out, if
    given; each term after the first is formed in work, a C-contiguous
    vector field (a new one unless given), before it is added.
    """
    grid = p.grid
    c = grid.hx * grid.hy * grid.ht
    if work is None:
        work = np.empty(y.shape)
    b = laplace(y, grid, scale=p.nu * c, out=out, work=work)
    b += grad_pressure(pi, grid, scale=-c, out=work)
    if include_control:
        b += np.multiply(p._weighted_mask, f, out=work)
    b[::grid.nt] *= 0.5
    b -= _dt_weak_vector(y, grid, work)
    return b


def _direction_rhs(p, y, pi, f, out=None, work=None):
    """Corrector right-hand side of a direction (y, pi, f): its negated
    residual without the data, and without a frozen control."""
    return _negated_residual(p, y, pi, f, p.mode == "null_control", out, work)


def corrector(p: ControlProblem, s: Triplet, out=None, work=None) -> CorrectorField:
    """Space-time corrector of s: the elliptic lift of the weak residual.
    out, if given, is a (v, rhs) pair of C-contiguous vector fields that
    receives it, and work a vector field for the terms and the modes."""
    v, b = (None, None) if out is None else out
    b = _negated_residual(p, s.y, s.pi, s.f, out=b, work=work)
    return CorrectorField(spacetime_solve_weak(p.grid, b, out=v, work=work), b)


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
    s = Triplet.empty(grid)  # built in its buffer: the state exists once
    np.multiply(eta[:, None, None, None], p.y0[None], out=s.y)
    s.pi.fill(0.0)
    s.f.fill(0.0)
    return s


def gradient_a0(p: ControlProblem, s: Triplet, corr=None, q=None, out=None, work=None):
    """Riesz representative g of E'(s) in the increment metric, returned
    with its squared metric norm as (g, norm_sq).

    Pressure and control components are closed-form: the adjoint
    divergence of the corrector and its restriction to the support.  The
    velocity component solves the metric problem with the H^-1 term; its
    time and Laplacian terms are read off the corrector (v, rhs) by
    A v = rhs (``_gradient_time_matrix``).  q is div y + eps*pi of s, if
    known.  out, if given, is a triplet of C-contiguous arrays that
    receives the gradient, and work a C-contiguous vector field; each is
    new unless given.  The velocity's dual is formed in work, and g.f
    holds its terms (c grad q, then nu rhs, each as one vector field)
    and the Riesz solve's modes before its own values are written.  Every element of out is written, and work before it is
    read, so all may hold anything (the descent passes its line's spent
    storage triplet and scratch).
    """
    grid = p.grid
    corr = corr or corrector(p, s)
    v = corr.v
    c = grid.hx * grid.hy * grid.ht
    sl = level_slice(grid, p.fixed_traces)

    g = Triplet.empty(grid) if out is None else out
    rvec = np.empty(v.shape) if work is None else work
    if q is None:
        q = div_part(s.y, s.pi, p.grid, p.epsilon)

    # the velocity's dual nu hx hy W L v - B^T v - hx hy W grad q, as
    # (nu hx hy K - B^T) v - nu rhs - hx hy W grad q; of the two
    # half-weight end levels of W grad q only the last, in direct mode,
    # is unknown
    dx(q, grid, scale=c, out=g.f[:, 0])
    dy(q, grid, scale=c, out=g.f[:, 1])
    g.f[-1] *= 0.5
    n = len(v)
    np.matmul(_gradient_time_matrix(grid, p.nu), v.reshape(n, -1), out=rvec.reshape(n, -1))
    rvec -= g.f
    rvec -= np.multiply(corr.rhs, p.nu, out=g.f)
    g.y[:sl.start] = 0.0  # the fixed traces
    g.y[sl.stop:] = 0.0
    ybar = a0_velocity_riesz(grid, rvec[sl], p.fixed_traces, out=g.y[sl], work=g.f[sl])
    norm_sq = float(np.vdot(rvec[sl], ybar))

    # rvec is spent: it holds the scalar terms of the pressure
    ws = _scalar_part(rvec)
    pibar = grad_pressure_transpose(v, grid, out=g.pi, scale=-1.0, work=ws)
    if p.epsilon:
        pibar += np.multiply(q, p.epsilon, out=ws)
    remove_slice_means(pibar, out=pibar)
    if p.mode == "null_control":
        np.multiply(p.mask_array(), v, out=g.f)
    else:
        g.f.fill(0.0)  # the control is frozen
    norm_sq += st_inner(g.pi, g.pi, grid) + st_inner(g.f, g.f, grid)
    return g, max(norm_sq, 0.0)


# ---------------------------------------------------------------------------
# descent
# ---------------------------------------------------------------------------

class _StokesLine:
    """The unsteady line builder for ``ExactLineRule``.  Along s - eta d
    the corrector is v - eta Vd (Vd = A^-1 bd, bd the direction's
    right-hand side, an assembled dual vector) and q is q - eta qd, so
    E(s - eta d) - E(s) = -eta (v.bd + <q, qd>) + eta^2 (Vd.bd + <qd, qd>) / 2.

    The line allocates the run's workspace once, here, each triplet in
    one buffer (``Triplet.empty``): the carried fields, which ``reset``
    and ``refresh`` write and ``step`` moves, laid out as (v, q, rhs) in
    the buffer ``carried`` and listed as [v, rhs, q] in ``fields``; two
    storage triplets, shaped as (y, pi, f); and one vector field W of
    scratch, with Ws its first scalar field.  The state, built by
    ``descend`` in a buffer of its own, is the fourth triplet.  A
    gradient or a direction is a storage triplet's buffer, as the list
    [buffer], so the rule combines two of them in one pass.

    A storage triplet holds a gradient, which the rule may make its
    direction, or a line's (Vd, qd, bd), laid out as the fields, so that
    ``step`` scales and spends them in two passes.  A gradient is written
    into the last line's spent triplet.  A line writes into the triplet
    that is not the direction: it is free then, because the rule keeps
    no gradient beside its direction on this line (it gets no pairing),
    and the direction it replaces is no longer read.  So CG runs on its
    direction and one storage triplet, and steepest descent alternates
    between the two.  ``advance`` forms eta * d in the spent triplet,
    free once ``step`` has applied it, and subtracts it from the state.
    W holds nothing between calls: each use writes it before reading it.
    """

    diagnostics = ("div_norm", "yT_norm", "f_norm")

    def __init__(self, p):
        grid = p.grid
        self.p = p
        self.W = np.empty((grid.nt + 1, 2, grid.ny, grid.nx))
        self.Ws = _scalar_part(self.W)
        carried = Triplet.empty(grid)
        self.carried = carried.buffer
        self.fields = [carried.y, carried.f, carried.pi]  # v, rhs, q
        self.store = (Triplet.empty(grid), Triplet.empty(grid))
        self.spent = self.store[0]  # the triplet the next gradient is written into
        # y(T), once formed: in null-control mode every direction vanishes there
        self.yT_norm = None

    def reset(self, s):
        v, rhs, q = self.fields
        corrector(self.p, s, out=(v, rhs), work=self.W)
        div_part(s.y, s.pi, self.p.grid, self.p.epsilon, out=q, work=self.Ws)

    def refresh(self, s):
        remove_slice_means(s.pi, out=s.pi)
        self.reset(s)

    def energy(self):
        v, rhs, q = self.fields
        vv, qq = self.pairings = float(np.vdot(v, rhs)), st_inner(q, q, self.p.grid)
        return 0.5 * (vv + qq)

    def measure(self, s):
        p, grid, (v, rhs, q) = self.p, self.p.grid, self.fields
        g, gn_sq = gradient_a0(p, s, CorrectorField(v, rhs), q=q, out=self.spent, work=self.W)
        div_sq = self.pairings[1]
        if p.epsilon:
            dv = np.multiply(s.pi, p.epsilon, out=self.Ws)
            np.subtract(q, dv, out=dv)
            div_sq = st_inner(dv, dv, grid)
        if self.yT_norm is None or p.mode == "direct":
            self.yT_norm = math.sqrt(space_inner(s.y[-1], s.y[-1], grid))
        return [g.buffer], None, gn_sq, {
            "div_norm": math.sqrt(div_sq), "yT_norm": self.yT_norm,
            "f_norm": math.sqrt(st_inner(s.f, s.f, grid))}

    def line(self, s, d):
        p, grid, (v, _, q) = self.p, self.p.grid, self.fields
        dirn, self.spent = self.store if d[0] is self.store[0].buffer else self.store[::-1]
        if d[0] is not dirn.buffer:
            raise ValueError("the direction is not a storage triplet of the line")
        Vd, qd, bd = self.spent.y, self.spent.pi, self.spent.f
        _direction_rhs(p, dirn.y, dirn.pi, dirn.f, out=bd, work=self.W)
        spacetime_solve_weak(grid, bd, out=Vd, work=self.W)
        div_part(dirn.y, dirn.pi, grid, p.epsilon, out=qd, work=self.Ws)
        return (-(float(np.vdot(v, bd)) + st_inner(q, qd, grid)),
                0.5 * (float(np.vdot(Vd, bd)) + st_inner(qd, qd, grid)), 0.0, 0.0)

    def step(self, s, d, eta):
        inc = self.spent.buffer
        inc *= eta  # in place: the increments are spent after this
        self.carried -= inc

    def advance(self, s, d, eta):
        s.buffer -= np.multiply(d[0], eta, out=self.spent.buffer)


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
    # the state in one buffer, built there: the lift or the copy is the only one
    s = lift_sA(p) if s_init is None else s_init.copy()
    rule = ExactLineRule(_StokesLine(p), s, cfg.algorithm == "cg", cfg.refresh_every,
                         cfg.tol_kernel)
    report = run_descent(rule, cfg.max_iter, cfg.tol_energy, cfg.tol_energy_rel,
                         cfg.tol_grad, observer)
    report.extras["corrector"] = CorrectorField(*rule.line.fields[:2])
    return rule.state, report

"""Independent ground-truth generators for the PDE solvers.

Everything here is deliberately assembled through its own code path --
explicit matrices built entrywise/kron-wise, symbolic differentiation,
pseudoinverse and Newton solves -- sharing nothing with the production
stencil and transform code beyond the grid container, so agreement
between the two paths is meaningful evidence.

sympy is imported on first use, by the manufactured-solution functions,
so that importing the package (and the CLI) loads numpy only.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import TYPE_CHECKING

import numpy as np

from .abstract_descent import InnerProductSpace, LsqProblem
from .discretization import SpaceTimeGrid, Triplet, level_slice

if TYPE_CHECKING:
    import sympy as sp

__all__ = [
    "ManufacturedCase",
    "default_unsteady_case",
    "default_steady_case",
    "manufactured_stokes",
    "manufactured_steady",
    "DenseAssembly",
    "dense_assemble",
    "fd_check",
    "FdReport",
    "newton_nse",
    "OracleUnavailable",
]


# ---------------------------------------------------------------------------
# manufactured solutions
# ---------------------------------------------------------------------------

@lru_cache(maxsize=None)
def _sympy():
    """The sympy module and the coordinate symbols x, y, t."""
    import sympy

    return (sympy, *sympy.symbols("x y t"))


@dataclass(frozen=True)
class ManufacturedCase:
    """Analytic stream function / pressure pair on the unit square.

    The velocity is the perpendicular gradient of psi, hence exactly
    divergence free with vanishing boundary values as long as psi and
    grad psi vanish on the walls.  The pressure must have zero mean.
    """

    psi: sp.Expr
    pressure: sp.Expr
    T_final: float = 1.0

    def velocity_exprs(self):
        sp, x, y, _ = _sympy()
        return sp.diff(self.psi, y), -sp.diff(self.psi, x)

    def forcing_exprs_unsteady(self, nu):
        """f = y_t - nu lap y + grad pi, component expressions."""
        sp, x, y, t = _sympy()
        y1, y2 = self.velocity_exprs()
        lap = lambda e: sp.diff(e, x, 2) + sp.diff(e, y, 2)
        f1 = sp.diff(y1, t) - nu * lap(y1) + sp.diff(self.pressure, x)
        f2 = sp.diff(y2, t) - nu * lap(y2) + sp.diff(self.pressure, y)
        return f1, f2

    def forcing_exprs_steady(self, nu):
        """f = -nu lap y + (y . grad) y + grad pi."""
        sp, x, y, _ = _sympy()
        y1, y2 = self.velocity_exprs()
        lap = lambda e: sp.diff(e, x, 2) + sp.diff(e, y, 2)
        conv = lambda e: y1 * sp.diff(e, x) + y2 * sp.diff(e, y)
        f1 = -nu * lap(y1) + conv(y1) + sp.diff(self.pressure, x)
        f2 = -nu * lap(y2) + conv(y2) + sp.diff(self.pressure, y)
        return f1, f2


def default_unsteady_case(T_final=1.0, modulated=True):
    """sin^2 bump stream function with a cosine time profile.

    The linear modulation breaks the tensor-product degeneracy that
    would make the sampled velocity exactly divergence free on the
    discrete grid (refinement studies need a representative O(h^2)).
    """
    sp, x, y, t = _sympy()
    base = sp.sin(sp.pi * x) ** 2 * sp.sin(sp.pi * y) ** 2
    if modulated:
        base = base * (1 + x / 2 - 3 * y / 10)
    psi = base * sp.cos(sp.pi * t / T_final)
    pressure = sp.sin(sp.pi * x) * sp.cos(sp.pi * y)  # zero mean on the square
    return ManufacturedCase(psi, pressure, T_final)


def default_steady_case(modulated=True):
    sp, x, y, _ = _sympy()
    base = sp.sin(sp.pi * x) ** 2 * sp.sin(sp.pi * y) ** 2
    if modulated:
        base = base * (1 + x / 2)
    return ManufacturedCase(base, sp.sin(sp.pi * x) * sp.cos(sp.pi * y))


def _lambdify(exprs, with_time):
    sp, x, y, t = _sympy()
    args = (x, y, t) if with_time else (x, y)
    return [sp.lambdify(args, e, modules="numpy") for e in exprs]


def _sample_spacetime(fns, grid):
    X, Yc = grid.meshgrid()
    out = np.empty((grid.nt + 1, len(fns), grid.ny, grid.nx))
    for k, t in enumerate(grid.ts()):
        for c, fn in enumerate(fns):
            out[k, c] = np.broadcast_to(fn(X, Yc, t), (grid.ny, grid.nx))
    return out


def _residual_scale(case: ManufacturedCase, nu):
    """Crude derivative bound so the sampled triplet's discrete residual
    can be certified as O(hx^2 + hy^2 + ht^2)."""
    sp, x, y, t = _sympy()
    y1, y2 = case.velocity_exprs()
    probes = []
    for e in (y1, y2):
        probes += [sp.diff(e, x, 4), sp.diff(e, y, 4), sp.diff(e, t, 3)]
    probes += [sp.diff(case.pressure, x, 3), sp.diff(case.pressure, y, 3)]
    fns = _lambdify(probes, with_time=True)
    xs = np.linspace(0.04, 0.96, 11)
    ts = np.linspace(0.0, case.T_final, 7)
    Xp, Yp, Tp = np.meshgrid(xs, xs, ts, indexing="ij")
    m = max(np.abs(np.broadcast_to(f(Xp, Yp, Tp), Xp.shape)).max() for f in fns)
    return float(m) * max(nu, 1.0)


def manufactured_stokes(case: ManufacturedCase, grid: SpaceTimeGrid, nu):
    """Sampled exact triplet for the unsteady problem (support = Omega).

    Returns the triplet and a bound on its pointwise discrete residual,
    scale * (hx^2 + hy^2 + ht^2).
    """
    y1, y2 = case.velocity_exprs()
    f1, f2 = case.forcing_exprs_unsteady(nu)
    y = _sample_spacetime(_lambdify((y1, y2), True), grid)
    f = _sample_spacetime(_lambdify((f1, f2), True), grid)
    piv = _sample_spacetime(_lambdify((case.pressure,), True), grid)[:, 0]
    piv = piv - piv.reshape(grid.nt + 1, -1).mean(axis=1)[:, None, None]
    trip = Triplet(grid, y, piv, f)
    bound = _residual_scale(case, nu) * (grid.hx**2 + grid.hy**2 + grid.ht**2)
    return trip, bound


def manufactured_steady(case: ManufacturedCase, grid: SpaceTimeGrid, nu):
    """Sampled exact (y, pi) slices and forcing for the steady problem."""
    y1, y2 = case.velocity_exprs()
    f1, f2 = case.forcing_exprs_steady(nu)
    X, Yc = grid.meshgrid()

    def sample(e):
        fn, = _lambdify((e,), with_time=False)
        return np.broadcast_to(fn(X, Yc), (grid.ny, grid.nx)).astype(float)

    y = np.stack([sample(y1), sample(y2)])
    f = np.stack([sample(f1), sample(f2)])
    piv = sample(case.pressure)
    return y, piv - piv.mean(), f


# ---------------------------------------------------------------------------
# independent dense matrices on small grids
# ---------------------------------------------------------------------------

def _lap1d(n, h):
    M = np.diag(np.full(n, 2.0)) - np.diag(np.ones(n - 1), 1) - np.diag(np.ones(n - 1), -1)
    return M / h**2


def _dx1d_centered(n, h):
    return (np.diag(np.ones(n - 1), 1) - np.diag(np.ones(n - 1), -1)) / (2.0 * h)


def _dx1d_onesided(n, h):
    if n == 2:
        return np.array([[-1.0, 1.0], [-1.0, 1.0]]) / h
    M = _dx1d_centered(n, h)
    M[0, :3] = np.array([-3.0, 4.0, -1.0]) / (2.0 * h)
    M[-1, -3:] = np.array([1.0, -4.0, 3.0]) / (2.0 * h)
    return M


@lru_cache(maxsize=16)
def _space_ops(grid: SpaceTimeGrid):
    Ix, Iy = np.eye(grid.nx), np.eye(grid.ny)
    L = np.kron(Iy, _lap1d(grid.nx, grid.hx)) + np.kron(_lap1d(grid.ny, grid.hy), Ix)
    Dx = np.kron(Iy, _dx1d_centered(grid.nx, grid.hx))
    Dy = np.kron(_dx1d_centered(grid.ny, grid.hy), Ix)
    Gx = np.kron(Iy, _dx1d_onesided(grid.nx, grid.hx))
    Gy = np.kron(_dx1d_onesided(grid.ny, grid.hy), Ix)
    return L, Dx, Dy, Gx, Gy


def _time_ops(grid):
    n = grid.nt + 1
    K = np.zeros((n, n))
    for k in range(grid.nt):
        K[k : k + 2, k : k + 2] += np.array([[1.0, -1.0], [-1.0, 1.0]]) / grid.ht
    B = np.zeros((n, n))
    B[0, 0:2] = [-0.5, 0.5]
    for j in range(1, n - 1):
        B[j, j - 1], B[j, j + 1] = -0.5, 0.5
    B[n - 1, n - 2 :] = [-0.5, 0.5]
    w = np.full(n, grid.ht)
    w[0] = w[-1] = grid.ht / 2
    return K, B, w


def _mean_free_basis(N):
    """Orthonormal basis of the zero-mean subspace (deterministic)."""
    A = np.eye(N) - np.full((N, N), 1.0 / N)
    U, _, _ = np.linalg.svd(A)
    return U[:, : N - 1]


def _comp_selector(nlev, n, c):
    """Select component c out of the (level, component, space) layout."""
    S = np.zeros((nlev * n, nlev * 2 * n))
    for k in range(nlev):
        S[k * n : (k + 1) * n, (2 * k + c) * n : (2 * k + c + 1) * n] = np.eye(n)
    return S


@dataclass
class DenseAssembly:
    """Dense realization of one unsteady control problem.

    X coordinates are [velocity levels | mean-free pressure coords |
    control values on the support]; ``problem`` is the instance handed
    to the abstract engine, whose H basis selects the zero-trace levels.
    """

    grid: SpaceTimeGrid
    n_levels: int
    mask_nodes: np.ndarray
    pressure_basis: np.ndarray
    h_levels: slice
    problem: LsqProblem | None = None

    @property
    def dims(self):
        n = self.grid.n_space
        nmask = int(self.mask_nodes.sum())
        dy = self.n_levels * 2 * n
        dpi = self.n_levels * (n - 1)
        df = self.n_levels * 2 * nmask
        return dy, dpi, df

    def pack(self, s: Triplet):
        n = self.grid.n_space
        parts = [s.y.reshape(-1)]
        parts.append((s.pi.reshape(self.n_levels, n) @ self.pressure_basis).reshape(-1))
        parts.append(
            s.f.reshape(self.n_levels, 2, n)[:, :, self.mask_nodes].reshape(-1)
        )
        return np.concatenate(parts)

    def unpack(self, x):
        g = self.grid
        n = g.n_space
        dy, dpi, _ = self.dims
        y = x[:dy].reshape(self.n_levels, 2, g.ny, g.nx).copy()
        pic = x[dy : dy + dpi].reshape(self.n_levels, n - 1)
        pi = (pic @ self.pressure_basis.T).reshape(self.n_levels, g.ny, g.nx)
        f = np.zeros((self.n_levels, 2, n))
        f[:, :, self.mask_nodes] = x[dy + dpi :].reshape(self.n_levels, 2, -1)
        return Triplet(g, y, pi, f.reshape(self.n_levels, 2, g.ny, g.nx))

    def h_columns(self):
        """Indices of X coordinates spanning the zero-trace subspace H."""
        n = self.grid.n_space
        dy, dpi, df = self.dims
        keep = np.ones(dy + dpi + df, dtype=bool)
        lo, hi = self.h_levels.indices(self.n_levels)[:2]
        for k in list(range(0, lo)) + list(range(hi, self.n_levels)):
            keep[k * 2 * n : (k + 1) * 2 * n] = False
        return np.flatnonzero(keep)

    def pack_H(self, d: Triplet):
        return self.pack(d)[self.h_columns()]

    def unpack_H(self, u):
        x = np.zeros(self.problem.X.dim)
        x[self.h_columns()] = u
        return self.unpack(x)


def dense_assemble(p, size_cap=2000) -> DenseAssembly:
    """Dense X, H, u0 and operator of the unsteady least-squares problem.

    p is a ``stokes_control.ControlProblem`` on a small grid.  Output
    energies and gradients of the abstract engine on this assembly must
    match the matrix-free solver on corresponding triplets.
    """
    from .stokes_control import lift_sA  # deferred import, avoids a cycle

    grid = p.grid
    if p.mask.t0 is not None:
        raise ValueError("dense assembly supports spatial masks only")
    n = grid.n_space
    nlev = grid.nt + 1
    L, Dx, Dy, Gx, Gy = _space_ops(grid)
    K, B, w = _time_ops(grid)
    area = grid.hx * grid.hy
    W = np.diag(w)
    Iv = np.eye(n)
    Ilev = np.eye(nlev)

    mask_nodes = p.mask.spatial_indicator(grid).reshape(-1) > 0.5
    Ub = _mean_free_basis(n)
    nmask = int(mask_nodes.sum())

    asm = DenseAssembly(
        grid=grid,
        n_levels=nlev,
        mask_nodes=mask_nodes,
        pressure_basis=Ub,
        h_levels=level_slice(grid, p.fixed_traces),
    )
    dy, dpi, df = asm.dims
    dim_x = dy + dpi + df
    if dim_x > size_cap:
        raise ValueError(f"dense assembly size {dim_x} exceeds cap {size_cap}")

    A1 = area * (np.kron(K, Iv) + np.kron(W, L))  # corrector operator, one component
    A_inv = np.linalg.inv(A1)

    Svel = [_comp_selector(nlev, n, c) for c in range(2)]
    Sf = [_comp_selector(nlev, nmask, c) for c in range(2)]
    Sel = Iv[:, mask_nodes]

    Ry1 = area * np.kron(B, Iv) + p.nu * area * np.kron(W, L)
    Rpi = [area * np.kron(W, G) @ np.kron(Ilev, Ub) for G in (Gx, Gy)]
    Rf1 = -area * np.kron(W, Sel)

    nyc = nlev * n
    T = np.zeros((3 * nyc, dim_x))
    for c in range(2):
        rows = slice(c * nyc, (c + 1) * nyc)
        T[rows, :dy] = -A_inv @ (Ry1 @ Svel[c])
        T[rows, dy : dy + dpi] = -A_inv @ Rpi[c]
        T[rows, dy + dpi :] = -A_inv @ (Rf1 @ Sf[c])
    for c, Dc in enumerate((Dx, Dy)):
        T[2 * nyc :, :dy] += np.kron(Ilev, Dc) @ Svel[c]
    if p.epsilon:
        T[2 * nyc :, dy : dy + dpi] = p.epsilon * np.kron(Ilev, Ub)

    GY = np.zeros((3 * nyc, 3 * nyc))
    GY[:nyc, :nyc] = A1
    GY[nyc : 2 * nyc, nyc : 2 * nyc] = A1
    GY[2 * nyc :, 2 * nyc :] = area * np.kron(W, Iv)

    Linv = np.linalg.inv(L)
    M1 = area * (np.kron(W, Iv + L) + np.kron(K, 0.5 * (Linv + Linv.T)))
    GX = np.zeros((dim_x, dim_x))
    GX[:dy, :dy] = sum(S.T @ M1 @ S for S in Svel)
    GX[dy : dy + dpi, dy : dy + dpi] = area * np.kron(W, np.eye(n - 1))
    GX[dy + dpi :, dy + dpi :] = area * np.kron(W, np.eye(2 * nmask))

    H_basis = np.eye(dim_x)[:, asm.h_columns()]
    X = InnerProductSpace(dim_x, 0.5 * (GX + GX.T))
    Yspace = InnerProductSpace(3 * nyc, 0.5 * (GY + GY.T))
    u0 = asm.pack(lift_sA(p))
    asm.problem = LsqProblem(X, Yspace, T, H_basis, u0)
    return asm


# ---------------------------------------------------------------------------
# finite differences
# ---------------------------------------------------------------------------

@dataclass
class FdReport:
    steps: np.ndarray
    estimates: np.ndarray
    reference: float | None
    rel_errors: np.ndarray | None
    best_step: float
    best_rel: float | None


def fd_check(functional, point, direction, steps, reference=None):
    """Central-difference ladder of a scalar functional along a direction.

    point/direction support numpy arithmetic (plain arrays or objects
    with copy/axpy like Triplet).  With a reference derivative the
    report carries relative errors; otherwise consecutive agreement.
    """
    steps = np.asarray(list(steps), dtype=float)
    est = []
    for h in steps:
        if hasattr(point, "axpy"):
            plus = point.copy().axpy(h, direction)
            minus = point.copy().axpy(-h, direction)
        else:
            plus = point + h * direction
            minus = point - h * direction
        est.append((functional(plus) - functional(minus)) / (2 * h))
    est = np.array(est)
    if reference is not None:
        scale = max(abs(reference), 1e-300)
        rel = np.abs(est - reference) / scale
        i = int(np.argmin(rel))
        return FdReport(steps, est, reference, rel, float(steps[i]), float(rel[i]))
    if len(est) > 1:
        agree = np.abs(np.diff(est)) / np.maximum(np.abs(est[1:]), 1e-300)
        i = int(np.argmin(agree))
        return FdReport(steps, est, None, None, float(steps[i + 1]), float(agree[i]))
    return FdReport(steps, est, None, None, float(steps[0]), None)


# ---------------------------------------------------------------------------
# independent Newton solve of the discrete steady optimality system
# ---------------------------------------------------------------------------

class OracleUnavailable(RuntimeError):
    """Newton did not converge; acceptance falls back to manufactured data."""


def newton_nse(p, initial=None, include_convection=True, tol=1e-10, max_iter=60,
               return_info=False):
    """Newton iteration for the steady problem's optimality system.

    Unknowns (y, pi, v) solve the coupled saddle system: corrector
    definition, velocity stationarity and mean-free pressure
    stationarity.  At a zero-energy solution this reduces to the
    discrete steady system itself (v = 0).  Returns (y, pi) -- plus an
    info dict when return_info is set; raises OracleUnavailable if the
    damped iteration fails.
    """
    grid = p.grid
    n = grid.n_space
    L, Dx, Dy, Gx, Gy = _space_ops(grid)
    Ub = _mean_free_basis(n)
    f = np.asarray(p.f, dtype=float).reshape(2, n)
    nu, eps = p.nu, p.epsilon

    def full_residual(xv):
        yv = xv[: 2 * n].reshape(2, n)
        piv = Ub @ xv[2 * n : 2 * n + n - 1]
        vv = xv[2 * n + n - 1 :].reshape(2, n)
        if include_convection:
            conv = np.stack(
                [Dx @ (yv[0] * yv[0]) + Dy @ (yv[0] * yv[1]),
                 Dx @ (yv[1] * yv[0]) + Dy @ (yv[1] * yv[1])]
            )
        else:
            conv = np.zeros_like(yv)
        q = Dx @ yv[0] + Dy @ yv[1] + (eps * piv if eps else 0.0)
        phi1 = np.stack(
            [L @ vv[0] + nu * (L @ yv[0]) + conv[0] + Gx @ piv - f[0],
             L @ vv[1] + nu * (L @ yv[1]) + conv[1] + Gy @ piv - f[1]]
        )
        gv = (Dx @ vv[0], Dy @ vv[0], Dx @ vv[1], Dy @ vv[1])
        if include_convection:
            sv = np.stack(
                [2 * gv[0] * yv[0] + (gv[1] + gv[2]) * yv[1],
                 (gv[1] + gv[2]) * yv[0] + 2 * gv[3] * yv[1]]
            )
        else:
            sv = np.zeros_like(yv)
        phi2 = np.stack(
            [-nu * (L @ vv[0]) + sv[0] + Dx.T @ q,
             -nu * (L @ vv[1]) + sv[1] + Dy.T @ q]
        )
        phi3 = Ub.T @ (-(Gx.T @ vv[0] + Gy.T @ vv[1]) + (eps * q if eps else 0.0))
        return np.concatenate([phi1.reshape(-1), phi2.reshape(-1), phi3])

    dim = 2 * n + (n - 1) + 2 * n
    x = np.zeros(dim)
    if initial is not None:
        y_init, pi_init = initial
        x[: 2 * n] = np.asarray(y_init, dtype=float).reshape(2 * n)
        x[2 * n : 2 * n + n - 1] = Ub.T @ np.asarray(pi_init, dtype=float).reshape(n)

    def jacobian(xv):
        yv = xv[: 2 * n].reshape(2, n)
        vv = xv[2 * n + n - 1 :].reshape(2, n)
        Z = np.zeros((n, n))
        dg = np.diag
        if include_convection:
            dC11 = 2 * Dx @ dg(yv[0]) + Dy @ dg(yv[1])
            dC12 = Dy @ dg(yv[0])
            dC21 = Dx @ dg(yv[1])
            dC22 = Dx @ dg(yv[0]) + 2 * Dy @ dg(yv[1])
            gv = (Dx @ vv[0], Dy @ vv[0], Dx @ vv[1], Dy @ vv[1])
            cross = dg(gv[1] + gv[2])
            dS_y = np.block([[2 * dg(gv[0]), cross], [cross, 2 * dg(gv[3])]])
            dS_v = np.block(
                [[2 * dg(yv[0]) @ Dx + dg(yv[1]) @ Dy, dg(yv[1]) @ Dx],
                 [dg(yv[0]) @ Dy, dg(yv[0]) @ Dx + 2 * dg(yv[1]) @ Dy]]
            )
        else:
            dC11 = dC12 = dC21 = dC22 = Z
            dS_y = dS_v = np.zeros((2 * n, 2 * n))
        Lb = np.block([[L, Z], [Z, L]])
        Dmat = np.hstack([Dx, Dy])          # div rows on (y1, y2)
        Gb = np.vstack([Gx @ Ub, Gy @ Ub])  # pressure columns
        J1 = np.hstack(
            [nu * Lb + np.block([[dC11, dC12], [dC21, dC22]]), Gb, Lb]
        )
        J2 = np.hstack(
            [dS_y + np.vstack([Dx.T, Dy.T]) @ Dmat,
             eps * np.vstack([Dx.T, Dy.T]) @ Ub if eps else np.zeros((2 * n, n - 1)),
             -nu * Lb + dS_v]
        )
        Gt = np.hstack([Gx.T, Gy.T])
        J3 = np.hstack(
            [eps * Ub.T @ Dmat if eps else np.zeros((n - 1, 2 * n)),
             (eps**2) * np.eye(n - 1) if eps else np.zeros((n - 1, n - 1)),
             -Ub.T @ Gt]
        )
        return np.vstack([J1, J2, J3])

    res = full_residual(x)
    scale = max(np.linalg.norm(f), 1.0)
    for it in range(max_iter):
        nr = np.linalg.norm(res)
        if nr <= tol * scale:
            yv = x[: 2 * n].reshape(2, grid.ny, grid.nx)
            piv = (Ub @ x[2 * n : 2 * n + n - 1]).reshape(grid.ny, grid.nx)
            if return_info:
                return yv, piv, {"iterations": it, "residual": float(nr)}
            return yv, piv
        J = jacobian(x)
        try:
            dx = np.linalg.solve(J, -res)
        except np.linalg.LinAlgError as exc:
            raise OracleUnavailable("singular Newton system") from exc
        lam = 1.0
        while lam > 1e-8:
            xn = x + lam * dx
            rn = full_residual(xn)
            if np.linalg.norm(rn) < nr:
                x, res = xn, rn
                break
            lam *= 0.5
        else:
            raise OracleUnavailable("Newton line search failed")
    raise OracleUnavailable("Newton did not converge")

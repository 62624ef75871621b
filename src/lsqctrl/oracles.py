"""Ground-truth generators and reference evaluations for the PDE solvers.

The manufactured solutions, the dense assembly, the finite-difference
ladder and the Newton solve are assembled through their own code paths
-- explicit matrices built entrywise/kron-wise, fields differentiated in
closed form, pseudoinverse and Newton solves -- sharing nothing with the
production stencil and transform code beyond the grid container, so
agreement between the two paths is meaningful evidence.  The closed
forms are checked against sympy in the tests.

The matrix-free references of the unsteady solver are the exception:
``energy``, ``first_variation`` and ``apply_T`` reuse the production
corrector, and ``inner_a0`` the production reductions and Poisson solve.
The tests check them against the dense assembly and finite differences.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .abstract_descent import InnerProductSpace, LsqProblem
from .discretization import (
    SpaceTimeGrid,
    SpatialGrid,
    Triplet,
    div_part,
    dt_sq_integral,
    level_slice,
    poisson_solve,
    spacetime_solve_weak,
    st_h1_pairing,
    st_h1_seminorm_sq,
    st_inner,
)
from .stokes_control import ControlProblem, CorrectorField, _direction_rhs, corrector, lift_sA

__all__ = [
    "Separable",
    "ManufacturedCase",
    "default_unsteady_case",
    "default_steady_case",
    "manufactured_stokes",
    "manufactured_steady",
    "energy",
    "first_variation",
    "apply_T",
    "inner_a0",
    "DenseAssembly",
    "dense_assemble",
    "dense_a0_gram",
    "fd_check",
    "FdReport",
    "newton_nse",
    "OracleUnavailable",
]


# ---------------------------------------------------------------------------
# manufactured solutions
# ---------------------------------------------------------------------------

# A 1-D form is a tuple of terms (c, p, w, is_sin), the sum of
# c * s**p * sin(w s) (or cos(w s)).  Such sums are closed under
# differentiation, so derivatives of any order are exact closed forms.

def _diff1d(form, k):
    for _ in range(k):
        out = []
        for c, p, w, is_sin in form:
            if p:
                out.append((c * p, p - 1, w, is_sin))
            if w:
                out.append((c * w if is_sin else -c * w, p, w, not is_sin))
        form = tuple(out)
    return form


def _eval1d(form, s):
    return sum(c * s**p * (np.sin if is_sin else np.cos)(w * s) for c, p, w, is_sin in form)


def _sin2(*poly):
    """sin^2(pi s) * sum_p poly[p] s^p = (1 - cos(2 pi s)) / 2 * poly."""
    return tuple(term for p, a in enumerate(poly) if a
                 for term in ((a / 2, p, 0.0, False), (-a / 2, p, 2 * np.pi, False)))


_ONE = ((1.0, 0, 0.0, False),)


@dataclass(frozen=True)
class Separable:
    """A sum of products X(x) Y(y) T(t) of 1-D forms, one triple of
    forms per product.  ``a * f`` scales the x factors; ``f.diff(i, j,
    k)`` is the exact mixed derivative; ``f(x, y, t)`` samples it on
    broadcastable coordinate arrays."""

    products: tuple = ()
    __array_ufunc__ = None  # so that a numpy scalar times f calls __rmul__

    def __rmul__(self, a):
        return Separable(tuple((tuple((a * c, p, w, s) for c, p, w, s in fx), fy, ft)
                               for fx, fy, ft in self.products))

    def diff(self, dx=0, dy=0, dt=0):
        return Separable(tuple((_diff1d(fx, dx), _diff1d(fy, dy), _diff1d(ft, dt))
                               for fx, fy, ft in self.products))

    def __call__(self, x, y, t=0.0):
        out = np.zeros(np.broadcast_shapes(np.shape(x), np.shape(y), np.shape(t)))
        for fx, fy, ft in self.products:
            out += _eval1d(fx, x) * _eval1d(fy, y) * _eval1d(ft, t)
        return out


@dataclass(frozen=True)
class ManufacturedCase:
    """Analytic stream function / pressure pair on the unit square.

    The velocity (psi_y, -psi_x) is exactly divergence free, with
    vanishing boundary values as long as psi and grad psi vanish on the
    walls.  The pressure must have zero mean.
    """

    psi: Separable
    pressure: Separable
    T_final: float = 1.0


# sin(pi x) cos(pi y), zero mean on the square
_PRESSURE = Separable(((((1.0, 0, np.pi, True),), ((1.0, 0, np.pi, False),), _ONE),))


def default_unsteady_case(T_final=1.0, modulated=True):
    """psi = sin^2(pi x) sin^2(pi y) (1 + x/2 - 3y/10) cos(pi t / T).

    The linear modulation breaks the tensor-product degeneracy that
    would make the sampled velocity exactly divergence free on the
    discrete grid (refinement studies need a representative O(h^2)).
    """
    time = ((1.0, 0, np.pi / T_final, False),)
    psi = [(_sin2(1.0, 0.5) if modulated else _sin2(1.0), _sin2(1.0), time)]
    if modulated:
        psi.append((_sin2(1.0), _sin2(0.0, -0.3), time))
    return ManufacturedCase(Separable(tuple(psi)), _PRESSURE, T_final)


def default_steady_case(modulated=True):
    """psi = sin^2(pi x) sin^2(pi y) (1 + x/2)."""
    bump_x = _sin2(1.0, 0.5) if modulated else _sin2(1.0)
    return ManufacturedCase(Separable(((bump_x, _sin2(1.0), _ONE),)), _PRESSURE)


def _stokes_sample(case: ManufacturedCase, nu, x, y, t):
    """Velocity, pressure and the forcing part -nu lap y + grad pi at
    (x, y, t), the velocity components stacked on axis -3, and the
    sampler of psi's derivatives."""
    psi = lambda i, j, k=0: case.psi.diff(i, j, k)(x, y, t)
    pr = lambda i, j: case.pressure.diff(i, j)(x, y, t)
    vel = np.stack([psi(0, 1), -psi(1, 0)], axis=-3)
    f = np.stack([-nu * (psi(2, 1) + psi(0, 3)) + pr(1, 0),
                  nu * (psi(3, 0) + psi(1, 2)) + pr(0, 1)], axis=-3)
    return vel, pr(0, 0), f, psi


def _residual_scale(case: ManufacturedCase, nu):
    """Crude derivative bound so the sampled triplet's discrete residual
    can be certified as O(hx^2 + hy^2 + ht^2): the 4th space and 3rd
    time derivatives of the velocity, the 3rd of the pressure."""
    psi, pr = case.psi, case.pressure
    probes = [psi.diff(4, 1), psi.diff(0, 5), psi.diff(0, 1, 3),
              psi.diff(5, 0), psi.diff(1, 4), psi.diff(1, 0, 3), pr.diff(3, 0), pr.diff(0, 3)]
    s = np.linspace(0.04, 0.96, 11)
    ts = np.linspace(0.0, case.T_final, 7)
    m = max(np.abs(f(s[:, None, None], s[:, None], ts)).max() for f in probes)
    return float(m) * max(nu, 1.0)


def manufactured_stokes(case: ManufacturedCase, grid: SpaceTimeGrid, nu):
    """Sampled exact triplet for the unsteady problem (support = Omega),
    forced by f = y_t - nu lap y + grad pi.

    Returns the triplet and a bound on its pointwise discrete residual,
    scale * (hx^2 + hy^2 + ht^2).
    """
    x, y, t = grid.xs(), grid.ys()[:, None], grid.ts()[:, None, None]
    vel, piv, f, psi = _stokes_sample(case, nu, x, y, t)
    f += np.stack([psi(0, 1, 1), -psi(1, 0, 1)], axis=1)
    piv -= piv.reshape(grid.nt + 1, -1).mean(axis=1)[:, None, None]
    trip = Triplet(grid, vel, piv, f)
    bound = _residual_scale(case, nu) * (grid.hx**2 + grid.hy**2 + grid.ht**2)
    return trip, bound


def manufactured_steady(case: ManufacturedCase, grid: SpatialGrid, nu):
    """Sampled exact (y, pi) slices and the forcing
    f = -nu lap y + (y . grad) y + grad pi of the steady problem."""
    x, y = grid.xs(), grid.ys()[:, None]
    vel, piv, f, psi = _stokes_sample(case, nu, x, y, 0.0)
    grad_vel = np.stack([[psi(1, 1), psi(0, 2)], [-psi(2, 0), -psi(1, 1)]])  # [component, axis]
    f += vel[0] * grad_vel[:, 0] + vel[1] * grad_vel[:, 1]
    return vel, piv - piv.mean(), f


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


def _weak_operator(grid):
    """The corrector operator hx hy (K (x) I + W (x) L) of one velocity
    component, on all time levels."""
    L = _space_ops(grid)[0]
    K, _, w = _time_ops(grid)
    return grid.hx * grid.hy * (np.kron(K, np.eye(grid.n_space)) + np.kron(np.diag(w), L))


def dense_a0_gram(grid):
    """The A0 velocity Gram hx hy (W (x) (I + L) + K (x) L^-1) of one
    component on all time levels, L^-1 symmetrized."""
    L = _space_ops(grid)[0]
    K, _, w = _time_ops(grid)
    Linv = np.linalg.inv(L)
    return grid.hx * grid.hy * (np.kron(np.diag(w), np.eye(grid.n_space) + L)
                                + np.kron(K, 0.5 * (Linv + Linv.T)))


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
    mask_nodes: np.ndarray
    pressure_basis: np.ndarray
    h_levels: slice
    problem: LsqProblem | None = None

    @property
    def dims(self):
        n, nlev = self.grid.n_space, self.grid.nt + 1
        nmask = int(self.mask_nodes.sum())
        return nlev * 2 * n, nlev * (n - 1), nlev * 2 * nmask

    def pack(self, s: Triplet):
        n = self.grid.n_space
        parts = [s.y.reshape(-1)]
        parts.append((s.pi.reshape(-1, n) @ self.pressure_basis).reshape(-1))
        parts.append(s.f.reshape(-1, 2, n)[:, :, self.mask_nodes].reshape(-1))
        return np.concatenate(parts)

    def unpack(self, x):
        g = self.grid
        n = g.n_space
        dy, dpi, _ = self.dims
        y = x[:dy].reshape(-1, 2, g.ny, g.nx)
        pic = x[dy : dy + dpi].reshape(-1, n - 1)
        pi = (pic @ self.pressure_basis.T).reshape(-1, g.ny, g.nx)
        f = np.zeros((len(y), 2, n))
        f[:, :, self.mask_nodes] = x[dy + dpi :].reshape(len(y), 2, -1)
        return Triplet(g, y, pi, f.reshape(y.shape))

    def h_columns(self):
        """Indices of X coordinates spanning the zero-trace subspace H."""
        n = self.grid.n_space
        dy, dpi, df = self.dims
        keep = np.ones(dy + dpi + df, dtype=bool)
        nlev = self.grid.nt + 1
        lo, hi = self.h_levels.indices(nlev)[:2]
        for k in list(range(0, lo)) + list(range(hi, nlev)):
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
    grid = p.grid
    if p.mask.t0 is not None:
        raise ValueError("dense assembly supports spatial masks only")
    n = grid.n_space
    nlev = grid.nt + 1
    L, Dx, Dy, Gx, Gy = _space_ops(grid)
    _, B, w = _time_ops(grid)
    area = grid.hx * grid.hy
    W = np.diag(w)
    Iv = np.eye(n)
    Ilev = np.eye(nlev)

    mask_nodes = p.mask.spatial_indicator(grid).reshape(-1) > 0.5
    Ub = _mean_free_basis(n)
    nmask = int(mask_nodes.sum())

    asm = DenseAssembly(
        grid=grid,
        mask_nodes=mask_nodes,
        pressure_basis=Ub,
        h_levels=level_slice(grid, p.fixed_traces),
    )
    dy, dpi, df = asm.dims
    dim_x = dy + dpi + df
    if dim_x > size_cap:
        raise ValueError(f"dense assembly size {dim_x} exceeds cap {size_cap}")

    A1 = _weak_operator(grid)
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

    M1 = dense_a0_gram(grid)
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
# matrix-free references of the unsteady solver
# ---------------------------------------------------------------------------

def energy(p: ControlProblem, s: Triplet, corr: CorrectorField | None = None):
    """E(s) >= 0; zero iff the corrector vanishes and div y + eps*pi = 0."""
    corr = corr or corrector(p, s)
    q = div_part(s.y, s.pi, p.grid, p.epsilon)
    return 0.5 * (
        dt_sq_integral(corr.v, p.grid)
        + st_h1_seminorm_sq(corr.v, p.grid)
        + st_inner(q, q, p.grid)
    )


def _check_direction(p, d: Triplet):
    sl = level_slice(p.grid, p.fixed_traces)
    lo, hi = sl.indices(p.grid.nt + 1)[:2]
    if np.abs(d.y[:lo]).max(initial=0.0) > 0 or np.abs(d.y[hi:]).max(initial=0.0) > 0:
        raise ValueError("direction must have homogeneous velocity traces")


def first_variation(p: ControlProblem, s: Triplet, d: Triplet, corr=None):
    """<E'(s), d> evaluated with s's corrector only (no solve for d).

    Expands to the boundary-free pairing of the direction against the
    corrector plus the divergence coupling; algebraically identical to
    b(d) . v(s) + <div y + eps pi, div Y + eps Pi>.
    """
    _check_direction(p, d)
    corr = corr or corrector(p, s)
    bd = _direction_rhs(p, d.y, d.pi, d.f)
    val = float(np.sum(bd * corr.v))
    q = div_part(s.y, s.pi, p.grid, p.epsilon)
    qd = div_part(d.y, d.pi, p.grid, p.epsilon)
    return val + st_inner(q, qd, p.grid)


def apply_T(p: ControlProblem, d: Triplet):
    """Image of a direction: its corrector paired with div Y + eps*Pi.

    The descent computes the same image inline.
    """
    _check_direction(p, d)
    bd = _direction_rhs(p, d.y, d.pi, d.f)
    qd = div_part(d.y, d.pi, p.grid, p.epsilon)
    return CorrectorField(spacetime_solve_weak(p.grid, bd), bd), qd


def _dt_slopes(y, grid):
    return np.diff(y, axis=0) / grid.ht


def inner_a0(u1: Triplet, u2: Triplet):
    """Full A0 inner product of two triplet directions on one grid.

    The descent never forms it, it solves ``a0_velocity_riesz`` instead.
    """
    if u1.grid != u2.grid:
        raise ValueError("triplets live on different grids")
    grid, y1, y2 = u1.grid, u1.y, u2.y
    val = st_inner(y1, y2, grid) + st_h1_pairing(y1, y2, grid)
    g1 = poisson_solve(grid, _dt_slopes(y1, grid))
    val += grid.ht * grid.hx * grid.hy * float(np.sum(g1 * _dt_slopes(y2, grid)))
    val += st_inner(u1.f, u2.f, grid)
    val += st_inner(u1.pi, u2.pi, grid)
    return val


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

    point/direction are numpy arrays (a Triplet's ``buffer`` for the
    unsteady functionals).  With a reference derivative the report
    carries relative errors; otherwise consecutive agreement.
    """
    steps = np.asarray(list(steps), dtype=float)
    est = []
    for h in steps:
        plus, minus = point + h * direction, point - h * direction
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

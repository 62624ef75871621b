"""Second-order finite-difference calculus on the structured grid.

Two flavours of first derivative coexist:

* ``dx``/``dy`` (and ``grad``, ``div``, ``curl`` built on them) are the
  centered stencils with zero padding outside the interior block.  The
  padding inserts the exact homogeneous Dirichlet boundary value, so
  these are second-order consistent for fields vanishing on the wall,
  and the pair (grad, -div) is an exact matrix adjoint.
* ``grad_pressure`` switches to a 3-point one-sided stencil on the two
  node columns next to each wall.  Pressure carries no boundary value,
  so the padded stencil would be inconsistent there; the one-sided
  stencil is second order for smooth interior data and annihilates
  constants exactly, which keeps the zero-mean pressure quotient clean.

All functions accept arrays whose trailing axes are (ny, nx); leading
axes (time level, component) are broadcast over.
"""

import numpy as np

__all__ = [
    "dx",
    "dy",
    "grad",
    "div",
    "div_part",
    "div_parts",
    "curl",
    "laplace",
    "grad_pressure",
    "grad_pressure_transpose",
    "space_inner",
    "st_inner",
    "trace_norms",
    "h1_pairing",
    "h1_seminorm_sq",
    "st_h1_pairing",
    "st_h1_seminorm_sq",
    "dt_sq_integral",
    "remove_slice_means",
    "slice_means",
]


def dx(a, grid):
    """Centered x-derivative with homogeneous Dirichlet padding."""
    a = np.asarray(a)
    out = np.empty_like(a)
    out[..., :, 1:-1] = a[..., :, 2:] - a[..., :, :-2]
    out[..., :, 0] = a[..., :, 1]
    out[..., :, -1] = -a[..., :, -2]
    out /= 2.0 * grid.hx
    return out


def dy(a, grid):
    """Centered y-derivative with homogeneous Dirichlet padding."""
    a = np.asarray(a)
    out = np.empty_like(a)
    out[..., 1:-1, :] = a[..., 2:, :] - a[..., :-2, :]
    out[..., 0, :] = a[..., 1, :]
    out[..., -1, :] = -a[..., -2, :]
    out /= 2.0 * grid.hy
    return out


def grad(s, grid):
    """Gradient of a scalar field, component axis inserted at -3."""
    return np.stack([dx(s, grid), dy(s, grid)], axis=-3)


def div(v, grid):
    """Divergence of a vector field (component axis at -3)."""
    v = np.asarray(v)
    return dx(v[..., 0, :, :], grid) + dy(v[..., 1, :, :], grid)


def div_part(y, pi, grid, epsilon=0.0):
    """div y + epsilon*pi: the divergence term of the least-squares energies."""
    return div_parts(y, pi, grid, epsilon)[1]


def div_parts(y, pi, grid, epsilon=0.0):
    """(div y, div y + epsilon*pi) from one divergence; at epsilon = 0
    both are the same array."""
    dv = div(y, grid)
    return dv, (dv + epsilon * pi if epsilon else dv)


def curl(s, grid):
    """Perpendicular gradient (d s/dy, -d s/dx); exactly div-free."""
    return np.stack([dy(s, grid), -dx(s, grid)], axis=-3)


def _lap1d_x(a, h):
    out = -2.0 * a
    out[..., :, 1:] += a[..., :, :-1]
    out[..., :, :-1] += a[..., :, 1:]
    return out / h**2


def _lap1d_y(a, h):
    out = -2.0 * a
    out[..., 1:, :] += a[..., :-1, :]
    out[..., :-1, :] += a[..., 1:, :]
    return out / h**2


def laplace(a, grid, compact=True):
    """Discrete Laplacian.

    compact=True is the 5-point stencil (consistent up to the wall for
    Dirichlet fields; the operator behind the Poisson and corrector
    solves).  compact=False composes div(grad(.)), the wide stencil that
    satisfies the composition identity exactly.
    """
    a = np.asarray(a)
    if not compact:
        if a.ndim >= 3 and a.shape[-3] == 2:
            return np.stack(
                [div(grad(a[..., c, :, :], grid), grid) for c in range(2)], axis=-3
            )
        return div(grad(a, grid), grid)
    return _lap1d_x(a, grid.hx) + _lap1d_y(a, grid.hy)


def _dx1_onesided(a, h):
    a = np.asarray(a)
    n = a.shape[-1]
    out = np.empty_like(a)
    if n == 2:
        d = (a[..., 1] - a[..., 0]) / h
        out[..., 0] = d
        out[..., 1] = d
        return out
    out[..., 1:-1] = (a[..., 2:] - a[..., :-2]) / (2.0 * h)
    out[..., 0] = (-3.0 * a[..., 0] + 4.0 * a[..., 1] - a[..., 2]) / (2.0 * h)
    out[..., -1] = (3.0 * a[..., -1] - 4.0 * a[..., -2] + a[..., -3]) / (2.0 * h)
    return out


def _dx1_onesided_T(u, h):
    u = np.asarray(u)
    n = u.shape[-1]
    z = np.zeros_like(u)
    if n == 2:
        s = u[..., 0] + u[..., 1]
        z[..., 0] = -s / h
        z[..., 1] = s / h
        return z
    z[..., :-2] -= u[..., 1:-1]
    z[..., 2:] += u[..., 1:-1]
    z[..., 0] += -3.0 * u[..., 0]
    z[..., 1] += 4.0 * u[..., 0]
    z[..., 2] += -u[..., 0]
    z[..., -1] += 3.0 * u[..., -1]
    z[..., -2] += -4.0 * u[..., -1]
    z[..., -3] += u[..., -1]
    return z / (2.0 * h)


def _swap_xy(a):
    return np.swapaxes(a, -1, -2)


def grad_pressure(s, grid):
    """Gradient of a boundary-value-free scalar (pressure).

    One-sided second-order rows next to each wall, centered inside;
    constants are in the kernel exactly.
    """
    gx = _dx1_onesided(s, grid.hx)
    gy = _swap_xy(_dx1_onesided(_swap_xy(s), grid.hy))
    return np.stack([gx, gy], axis=-3)


def grad_pressure_transpose(v, grid):
    """Exact matrix transpose of grad_pressure applied to a vector field."""
    v = np.asarray(v)
    tx = _dx1_onesided_T(v[..., 0, :, :], grid.hx)
    ty = _swap_xy(_dx1_onesided_T(_swap_xy(v[..., 1, :, :]), grid.hy))
    return tx + ty


# ---------------------------------------------------------------------------
# quadrature
# ---------------------------------------------------------------------------

def space_inner(a, b, grid):
    """Nodal L2(Omega) inner product of two slices (components summed)."""
    return grid.hx * grid.hy * float(np.sum(np.asarray(a) * np.asarray(b)))


def st_inner(a, b, grid):
    """Trapezoid-in-time, nodal-in-space inner product over Q_T."""
    a = np.asarray(a)
    b = np.asarray(b)
    prod = (a * b).reshape(grid.nt + 1, -1).sum(axis=1)
    return grid.hx * grid.hy * float(prod @ grid.time_weights())


def trace_norms(y, grid):
    """L2(Omega) norms of the first and last time slices."""
    y = np.asarray(y)
    n0 = np.sqrt(space_inner(y[0], y[0], grid))
    nT = np.sqrt(space_inner(y[-1], y[-1], grid))
    return n0, nT


def _edge_diffs(a, grid):
    """x- and y-edge differences of a over h, the half-edges to the
    Dirichlet wall included: np.diff with zero padding on both ends,
    without first copying a into a padded array."""
    a = np.asarray(a)
    ny, nx = a.shape[-2:]
    ex = np.empty(a.shape[:-1] + (nx + 1,))
    ex[..., 0] = a[..., 0]
    np.subtract(a[..., 1:], a[..., :-1], out=ex[..., 1:-1])
    np.subtract(0.0, a[..., -1], out=ex[..., -1])
    ey = np.empty(a.shape[:-2] + (ny + 1, nx))
    ey[..., 0, :] = a[..., 0, :]
    np.subtract(a[..., 1:, :], a[..., :-1, :], out=ey[..., 1:-1, :])
    np.subtract(0.0, a[..., -1, :], out=ey[..., -1, :])
    ex /= grid.hx
    ey /= grid.hy
    return ex, ey


def _edge_products(a, b, grid):
    """Pointwise products of the edge differences of a and b; a field
    paired with itself is differenced once."""
    ax, ay = _edge_diffs(a, grid)
    bx, by = (ax, ay) if b is a else _edge_diffs(b, grid)
    return ax * bx, ay * by


def h1_pairing(a, b, grid):
    """Edge-form integral of grad a : grad b over one slice.

    Equals a^T L b * hx*hy with L the 5-point stiffness; includes the
    half-edges to the Dirichlet boundary.
    """
    px, py = _edge_products(a, b, grid)
    return grid.hx * grid.hy * float(np.sum(px) + np.sum(py))


def h1_seminorm_sq(a, grid):
    """Edge-difference |grad a|^2 integral of one slice."""
    return h1_pairing(a, a, grid)


def st_h1_seminorm_sq(v, grid):
    """Integral of |grad v|^2 over Q_T (trapezoid in time)."""
    return st_h1_pairing(v, v, grid)


def st_h1_pairing(a, b, grid):
    """Edge-form integral of grad a : grad b over Q_T.

    Exactly Sum_j w_j a_j^T L b_j * hx*hy with L the 5-point stiffness.
    """
    px, py = _edge_products(a, b, grid)
    per_level = px.reshape(grid.nt + 1, -1).sum(axis=1)
    per_level += py.reshape(grid.nt + 1, -1).sum(axis=1)
    return grid.hx * grid.hy * float(per_level @ grid.time_weights())


def dt_sq_integral(v, grid):
    """Integral of |v_t|^2 for a field piecewise linear in time."""
    v = np.asarray(v)
    d = np.diff(v, axis=0)
    return grid.hx * grid.hy * float(np.sum(d**2)) / grid.ht


def slice_means(pi):
    """Per-time-slice nodal means of a scalar space-time field."""
    pi = np.asarray(pi)
    return pi.reshape(pi.shape[0], -1).mean(axis=1)


def remove_slice_means(pi):
    """Project a scalar field onto zero nodal mean per time slice."""
    pi = np.asarray(pi)
    if pi.ndim == 2:
        return pi - pi.mean()
    return pi - slice_means(pi)[:, None, None]

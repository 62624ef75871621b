"""Second-order finite-difference calculus on the structured grid.

Every stencil is a 1-D operator along x or along y.  Each is applied as
one product with a cached, read-only (n, n) operator matrix, built once
per axis length and spacing by ``_operators`` (the way the sine
transform caches its matrices): ``a @ M.T`` along x, the last axis, and
``M @ a`` along y, the second to last.  The leading axes (time level,
component) ride along in the same BLAS call.  A product costs O(n) per
node where the slice stencil cost O(1), so the matrices win on the small
grids the solvers run on and lose above n ~ 100 (README, "Cost model").

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
  constants, which keeps the zero-mean pressure quotient clean.  Its
  matrix is kept as the integer stencil 2h G and the product is divided
  by 2h afterwards.  The integer rows sum to zero exactly, so a constant
  whose multiples by 3 and 4 are exact, such as 1, maps to exact zeros
  at every spacing (other constants to roundoff, 1.8e-16 for 0.1); the
  rounded entries -3/(2h), 4/(2h), -1/(2h) would leave up to 1e-14 on
  the constant 1 at spacings such as h = 0.7/6.

``dx``, ``dy``, ``laplace``, ``grad_pressure`` and its transpose take a
``scale`` factor, so a caller that weights the result (the unsteady
residual folds in nu*hx*hy*ht) pays no pass over the field for it.  It
is folded into a scaled copy of the (n, n) matrix D or L, while G2 stays
the integer stencil and the pressure products are scaled in the one pass
that follows them, so the constants G2 annihilates still map to exact
zeros.  At scale 1 every result is bit for bit the unscaled one.

The pairings are BLAS dot products and make no field-sized temporary:
``space_inner`` is one ``np.vdot`` over the whole slice, components
included, and ``st_inner`` sums the interior time levels and the two
end levels as three.

``dx``, ``dy``, ``laplace``, ``grad_pressure``, its transpose and
``div_part`` take ``out=``, and those that form a second term take
``work=`` for it.  Unset, each is a new array, as in a plain call.  The
caller owns both and lends them for the call: C-contiguous arrays of the
result's shape (the transposed pressure pair's work is a scalar field),
neither the input nor each other.  A kernel writes them before it reads
them, so they may hold anything, such as a field the caller has spent,
and work holds nothing the caller needs once the call returns.  The
unsteady descent runs its whole iteration in arrays lent this way
(``stokes_control._StokesLine``).

All functions accept arrays whose trailing axes are (ny, nx); leading
axes (time level, component) are broadcast over.
"""

from functools import lru_cache
from typing import NamedTuple

import numpy as np

__all__ = [
    "dx",
    "dy",
    "grad",
    "div",
    "div_part",
    "curl",
    "laplace",
    "grad_pressure",
    "grad_pressure_transpose",
    "space_inner",
    "st_inner",
    "h1_pairing",
    "h1_seminorm_sq",
    "st_h1_pairing",
    "st_h1_seminorm_sq",
    "dt_sq_integral",
    "remove_slice_means",
    "slice_means",
]


class _Operators(NamedTuple):
    """1-D operators on the n interior nodes of one axis.  The
    transposes are stored as C-ordered copies: numpy's matmul applies a
    C-ordered right factor 1.4-2.2x faster than a transposed view
    (n = 64 down to 16)."""

    D: np.ndarray    # centered difference, zero Dirichlet padding
    DT: np.ndarray
    L: np.ndarray    # 5-point second difference (symmetric)
    G2: np.ndarray   # 2h times the one-sided pressure difference
    G2T: np.ndarray


@lru_cache(maxsize=64)
def _operators(n: int, h: float):
    """Read-only (n, n) operator matrices of an axis with n interior
    nodes of spacing h.  On two nodes the pressure difference is the
    one available difference, (-1, 1)/h on both rows."""
    e = np.ones(n - 1)
    C = np.diag(e, 1) - np.diag(e, -1)
    D = C / (2.0 * h)
    L = (np.diag(e, 1) + np.diag(e, -1) - 2.0 * np.eye(n)) / h**2
    G2 = C
    if n == 2:
        G2[:] = [-2.0, 2.0]
    else:
        G2[0, :3] = [-3.0, 4.0, -1.0]
        G2[-1, -3:] = [1.0, -4.0, 3.0]
    ops = _Operators(D, D.T.copy(), L, G2, G2.T.copy())
    for M in ops:
        M.flags.writeable = False
    return ops


def _times(M, scale):
    """The (n, n) operator matrix M times scale, formed per call (n^2
    multiplications against n^3 per level for the product), or M itself
    at scale 1.  Not cached: copies cached during a solve are small,
    long-lived blocks that split the heap's field-sized free chunks
    (+2 MB peak RSS on a 64^3 run)."""
    return M if scale == 1.0 else M * scale


def dx(a, grid, scale=1.0, out=None):
    """Centered x-derivative with homogeneous Dirichlet padding, times scale."""
    return np.matmul(a, _times(_operators(grid.nx, grid.hx).DT, scale), out=out)


def dy(a, grid, scale=1.0, out=None):
    """Centered y-derivative with homogeneous Dirichlet padding, times scale."""
    return np.matmul(_times(_operators(grid.ny, grid.hy).D, scale), a, out=out)


def grad(s, grid):
    """Gradient of a scalar field, component axis inserted at -3."""
    return np.stack([dx(s, grid), dy(s, grid)], axis=-3)


def div(v, grid):
    """Divergence of a vector field (component axis at -3)."""
    return div_part(v, None, grid)


def div_part(y, pi, grid, epsilon=0.0, out=None, work=None):
    """div y + epsilon*pi: the divergence term of the least-squares energies.
    Into out, with the dy and epsilon terms formed in work, if given
    (arrays shaped like pi)."""
    y = np.asarray(y)
    dv = dx(y[..., 0, :, :], grid, out=out)
    dv += dy(y[..., 1, :, :], grid, out=work)
    if epsilon:
        dv += np.multiply(pi, epsilon, out=work)
    return dv


def curl(s, grid):
    """Perpendicular gradient (d s/dy, -d s/dx); exactly div-free."""
    return np.stack([dy(s, grid), -dx(s, grid)], axis=-3)


def laplace(a, grid, scale=1.0, out=None, work=None):
    """5-point discrete Laplacian, times scale: consistent up to the wall
    for Dirichlet fields, and the operator behind the Poisson and
    corrector solves.  Into out, with the y product formed in work, if
    given."""
    out = np.matmul(a, _times(_operators(grid.nx, grid.hx).L, scale), out=out)
    out += np.matmul(_times(_operators(grid.ny, grid.hy).L, scale), a, out=work)
    return out


def grad_pressure(s, grid, scale=1.0, out=None):
    """Gradient of a boundary-value-free scalar (pressure), times scale.

    One-sided second-order rows next to each wall, centered inside;
    constants are in the kernel (exactly for a constant such as 1, see
    the module docstring).  Each component is the integer product over
    2h / scale.  Into out, if given (a vector field).
    """
    s = np.asarray(s)
    if out is None:
        out = np.empty(s.shape[:-2] + (2,) + s.shape[-2:])
    gx, gy = out[..., 0, :, :], out[..., 1, :, :]
    np.matmul(s, _operators(grid.nx, grid.hx).G2T, out=gx)
    np.matmul(_operators(grid.ny, grid.hy).G2, s, out=gy)
    gx /= 2.0 * grid.hx / scale
    gy /= 2.0 * grid.hy / scale
    return out


def grad_pressure_transpose(v, grid, out=None, scale=1.0, work=None):
    """Exact matrix transpose of grad_pressure applied to a vector field,
    times scale; into out, with the y product formed in work, if given
    (scalar fields shaped like a component of v).  scale = -1 negates
    the result exactly."""
    v = np.asarray(v)
    tx = np.matmul(v[..., 0, :, :], _operators(grid.nx, grid.hx).G2, out=out)
    tx /= 2.0 * grid.hx / scale
    ty = np.matmul(_operators(grid.ny, grid.hy).G2T, v[..., 1, :, :], out=work)
    ty /= 2.0 * grid.hy / scale
    tx += ty
    return tx


# ---------------------------------------------------------------------------
# quadrature
# ---------------------------------------------------------------------------

def space_inner(a, b, grid):
    """Nodal L2(Omega) inner product of two slices (components summed):
    one BLAS dot over the flattened arrays, without a product array.
    The two must hold the same number of values; np.vdot raises
    otherwise, and does not broadcast."""
    return grid.hx * grid.hy * float(np.vdot(a, b))


def st_inner(a, b, grid):
    """Trapezoid-in-time, nodal-in-space inner product over Q_T of two
    fields of one shape: the interior levels and the two end levels
    (half weight) as three dot products, without a product array."""
    ends = float(np.vdot(a[0], b[0])) + float(np.vdot(a[-1], b[-1]))
    w = grid.hx * grid.hy * grid.ht
    return w * float(np.vdot(a[1:-1], b[1:-1])) + 0.5 * w * ends


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
    """Per-time-slice nodal means of a scalar space-time field.  The sum
    over the count is what ndarray.mean computes, to the bit, without
    its Python-level wrapper."""
    pi = np.asarray(pi)
    return pi.reshape(pi.shape[0], -1).sum(axis=1) / pi[0].size


def remove_slice_means(pi, out=None):
    """Project a scalar field onto zero nodal mean per time slice (a 2-D
    field is one slice); into out, if given (an array shaped like pi, or
    pi itself)."""
    pi = np.asarray(pi)
    if pi.ndim == 2:
        return np.subtract(pi, pi.sum() / pi.size, out=out)
    return np.subtract(pi, slice_means(pi)[:, None, None], out=out)
